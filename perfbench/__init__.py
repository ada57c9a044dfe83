"""Benchmark harness for camtrack; run it with ``python3 perfbench/run.py``."""
