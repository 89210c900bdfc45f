"""Performance layer: batch kernels, design caching, parallelism.

Independent pieces; the batch kernels are bit-identical to the
per-event loops they accelerate (numpy is a hard dependency):

- :mod:`repro.perf.batched` is the one Moore-simulation kernel layer:
  ``BatchedMoore`` advances a stack of machines (one designed machine
  is the stack ``[machine]``) over a shared bit stream and counts
  per-state visits for the opt(k) oracle; ``banked_replay`` replays
  indexed counter/FSM tables.
- :mod:`repro.perf.cache` memoizes VM traces and FSM design results on disk,
  keyed by content digests plus explicit version salts.
- :mod:`repro.perf.parallel` maps experiment shards over the supervised
  worker pool of :mod:`repro.serve.pool` with deterministic result ordering.
"""

from repro.perf.batched import BatchedMoore, backend_info, banked_replay
from repro.perf.cache import (
    cache_dir,
    cache_enabled,
    cached,
    digest_of,
    set_cache_enabled,
)
from repro.perf.parallel import default_jobs, parallel_map

__all__ = [
    "BatchedMoore",
    "backend_info",
    "banked_replay",
    "cache_dir",
    "cache_enabled",
    "cached",
    "default_jobs",
    "digest_of",
    "parallel_map",
    "set_cache_enabled",
]
