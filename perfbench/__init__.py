"""The repository benchmark: three workloads, end-to-end and per-layer metrics.

Entry point: ``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` (see :mod:`perfbench.run`).  ``python3 perfbench/report.py``
runs every workload and prints the metric tables.
"""
