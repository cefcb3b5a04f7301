"""The repository benchmark: seeded workloads, end-to-end metrics, a traced layer split.

Run one workload with ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1``; see ``perfbench/README.md``.
"""
