"""Performance layer: compiled fast paths, design caching, parallelism.

Independent pieces; the compiled and batched kernels are bit-identical
to the per-event loops they accelerate (numpy is a hard dependency):

- :mod:`repro.perf.compiled` lowers a :class:`~repro.automata.moore.MooreMachine`
  to dense arrays with a batch ``run_bits`` kernel.
- :mod:`repro.perf.batched` batches over *machines* as well as bits:
  ``BatchedMoore`` stacks and advances whole machine families,
  ``banked_replay`` replays indexed counter/FSM tables.
- :mod:`repro.perf.cache` memoizes VM traces and FSM design results on disk,
  keyed by content digests plus explicit version salts.
- :mod:`repro.perf.parallel` maps experiment shards over the supervised
  worker pool of :mod:`repro.serve.pool` with deterministic result ordering.
"""

from repro.perf.batched import (
    BatchedMoore,
    backend_info,
    banked_replay,
    batched_map,
    simulate_predictors_batched,
)
from repro.perf.cache import (
    cache_dir,
    cache_enabled,
    cached,
    digest_of,
    set_cache_enabled,
)
from repro.perf.compiled import CompiledMoore
from repro.perf.parallel import default_jobs, parallel_map

__all__ = [
    "BatchedMoore",
    "CompiledMoore",
    "backend_info",
    "banked_replay",
    "batched_map",
    "cache_dir",
    "cache_enabled",
    "cached",
    "default_jobs",
    "digest_of",
    "parallel_map",
    "set_cache_enabled",
    "simulate_predictors_batched",
]
