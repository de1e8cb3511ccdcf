"""Benchmark harness for rostop; run ``python3 perfbench/run.py --help``."""
