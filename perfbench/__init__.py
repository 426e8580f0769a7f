"""The repository benchmark: workloads, driver, unit runner and tracer.

Run it from the repository root with ``python3 perfbench/run.py``; see
``perfbench/README.md``.
"""
