"""Benchmark harness for the hetlda package.

The entry point is ``perfbench/run.py``; see ``perfbench/README.md`` for
the workloads, the metrics and how they relate to the package's modules.
"""
