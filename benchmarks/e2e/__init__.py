"""End-to-end benchmark of the FSM-predictor reproduction.

Five workloads (two figure sweeps, a design sweep, served designs behind
the cluster router, and the heavy served designs on a worker's batch
path) each run in child processes started by one runner process.
``python -m benchmarks.e2e run`` prints every end-to-end metric named in
``BENCHMARK.json``; ``--trace 1`` wraps the program's public functions
from outside and prints the per-layer metrics instead.  See
``benchmarks/e2e/README.md``.
"""
