"""End-to-end and per-layer benchmark of respfit.

    python3 perfbench/run.py --workload fit --seed 1 --seconds 20 --trace 0

See run.py for the command line and workloads.py for the three workloads.
"""
