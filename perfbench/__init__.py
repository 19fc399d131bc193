"""Repository benchmark: cold end-to-end workloads plus a traced per-layer breakdown."""
