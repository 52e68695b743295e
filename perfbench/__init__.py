"""Repository benchmark: end-to-end workloads plus a traced per-layer ledger.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload from the root of a checkout; see :mod:`perfbench.run`.
"""
