"""Documentation quality gates, run as part of the normal test suite.

Two structural checks over the repo's docs (both also wired into CI's
``docs`` job as standalone scripts):

* every public definition in ``repro.runtime`` and ``repro.experiments``
  carries a docstring (``tools/check_docstrings.py``);
* every relative markdown link in the README and docs resolves,
  including heading anchors (``tools/check_links.py``).
"""

import importlib.util
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def load_tool(name: str):
    """Import a tools/ script as a module (tools/ is not a package)."""
    path = REPO_ROOT / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


class TestDocstrings:
    def test_runtime_and_experiments_are_fully_documented(self):
        checker = load_tool("check_docstrings")
        scope = [str(REPO_ROOT / root) for root in checker.DEFAULT_SCOPE]
        problems = checker.check_paths(scope)
        assert problems == [], "\n".join(problems)


class TestMarkdownLinks:
    def test_all_relative_links_resolve(self):
        checker = load_tool("check_links")
        problems = []
        for document in checker.default_documents():
            problems.extend(checker.check_file(document))
        rendered = [
            f"{source}: '{target}': {reason}"
            for source, target, reason in problems
        ]
        assert rendered == [], "\n".join(rendered)

    def test_architecture_doc_exists_and_is_linked(self):
        """The architecture overview must exist and be reachable from README."""
        architecture = REPO_ROOT / "docs" / "ARCHITECTURE.md"
        assert architecture.exists()
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        assert "docs/ARCHITECTURE.md" in readme

    def test_no_stale_report_names_in_docs(self):
        """The removed report class names never appear in the docs.

        ``SimulationResult`` and ``ClusterReport`` were unified into
        ``RunReport`` and their aliases are gone, so the user-facing docs
        must use the new name.  The change logs keep the old names as
        history and are not checked.
        """
        documents = [
            REPO_ROOT / name
            for name in ("README.md", "EXPERIMENTS.md", "DESIGN.md")
        ]
        documents += sorted((REPO_ROOT / "docs").glob("**/*.md"))
        for document in documents:
            text = document.read_text(encoding="utf-8")
            for name in ("SimulationResult", "ClusterReport"):
                assert name not in text, (
                    f"{document}: mentions the removed {name}"
                )
