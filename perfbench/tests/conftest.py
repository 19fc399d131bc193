"""Make ``perfbench`` and the checkout's ``src`` importable for these tests.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for entry in (ROOT, ROOT / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))
