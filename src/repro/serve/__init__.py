"""repro.serve: fault-tolerant design-as-a-service.

A stdlib-only JSON-over-TCP front end for the design flow: requests go
in (a trace or a Markov profile plus design knobs), designed machines,
HDL, and area come out.  The layer cake, bottom to top:

``jobs``      the request dataclass + the pure executor shared by the
              server, the batch ``--oneshot`` path, and the checker
``protocol``  newline-delimited canonical-JSON wire format
``config``    :class:`ServeConfig`, filled from the ``serve`` flags
``breaker``   circuit breakers (closed / open / half-open)
``pool``      supervised worker processes: crash containment,
              exactly-once re-dispatch, hang watchdog, backoff respawn;
              also the pool behind ``repro.perf.parallel_map``
``server``    admission control, load shedding, deadline-aware
              degradation, graceful drain
``loadgen``   seeded concurrent clients proving zero-lost /
              zero-incorrect under armed chaos
``cluster``   multi-replica serving: ``serve-router`` front end with
              lease-based membership, hedged dispatch, single-flight
              request coalescing, and aggregated backpressure
"""

from repro.serve.config import ServeConfig
from repro.serve.jobs import DesignRequest, execute_envelope, execute_request
from repro.serve.server import DesignServer

__all__ = [
    "ServeConfig",
    "DesignRequest",
    "DesignServer",
    "execute_envelope",
    "execute_request",
]
