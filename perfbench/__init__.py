"""Closed-loop dictionary benchmark: four workloads, end-to-end metrics
checked against a plain-dict oracle, and a traced per-layer breakdown.

Run one workload with ``python3 perfbench/run.py --workload <name>``;
see :mod:`perfbench.run` for the options.
"""
