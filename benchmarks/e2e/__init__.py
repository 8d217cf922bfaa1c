"""End-to-end benchmark of the FPB reproduction.

Four workloads (``cold_run``, ``replay``, ``plan``, ``gateway``) drive
the simulator through its public functions and report end-to-end and
per-layer metrics; see README.md in this directory. Run with::

    python3 benchmarks/e2e/run.py --workload cold_run --seed 1
    python3 -m benchmarks.e2e run --workload all --seed 1
"""
