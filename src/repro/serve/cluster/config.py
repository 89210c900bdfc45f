"""Cluster-router configuration.

:class:`RouterConfig` holds every setting of one ``repro serve-router``
process.  The CLI's ``serve-router`` flags fill it; anything not given on
the command line keeps the field default below.

=====================  =========  ==========================================
``host``               127.0.0.1  router listen address (``--host``)
``port``               7478       router listen port, 0 = ephemeral
                                  (``--port``)
``replicas``           (none)     ``host:port`` replica endpoints
                                  (``--replicas``)
``queue_limit``        256        admitted-but-unresolved bound; beyond it
                                  requests shed with 503 (``--queue``)
``probe_interval_s``   1.0        seconds between healthz probes per
                                  replica (``--probe-interval``)
``lease_s``            3x probe   seconds one successful probe keeps a
                                  replica admitted
``eject_after``        2          consecutive probe failures before a
                                  replica is ejected (``--eject-fails``)
``retry_budget``       3          upstream dispatch attempts per request
                                  before giving up (``--retries``)
``hedge_floor_s``      0.05       minimum hedge delay in seconds
                                  (``--hedge-floor``)
``hedge_cap_s``        2.0        maximum hedge delay in seconds, also the
                                  pre-sample default (``--hedge-cap``)
``connect_timeout_s``  1.0        seconds to wait for a replica TCP connect
``drain_timeout_s``    30         graceful-drain budget (s)
=====================  =========  ==========================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple


def parse_replica_spec(spec: str) -> Tuple[Tuple[str, int], ...]:
    """``"host:port,host:port"`` -> ``(("host", port), ...)``.  Raises
    :class:`ValueError` on anything that is not a host:port list."""
    endpoints = []
    for clause in spec.split(","):
        clause = clause.strip()
        if not clause:
            continue
        host, sep, raw_port = clause.rpartition(":")
        if not sep or not host:
            raise ValueError(
                f"replica {clause!r} is not host:port (e.g. 127.0.0.1:7477)"
            )
        try:
            port = int(raw_port)
        except ValueError:
            raise ValueError(
                f"replica {clause!r} has a non-integer port"
            ) from None
        if not 0 < port < 65536:
            raise ValueError(f"replica {clause!r} port out of range")
        endpoints.append((host, port))
    return tuple(endpoints)


@dataclass(frozen=True)
class RouterConfig:
    """One resolved router configuration.

    ``lease_s`` left at ``None`` becomes three probe intervals, and a
    lease is never shorter than one probe interval.  A hedge cap below
    the hedge floor raises :class:`ValueError`.
    """

    host: str = "127.0.0.1"
    port: int = 7478
    replicas: Tuple[Tuple[str, int], ...] = ()
    queue_limit: int = 256
    probe_interval_s: float = 1.0
    lease_s: Optional[float] = None
    eject_after: int = 2
    retry_budget: int = 3
    hedge_floor_s: float = 0.05
    hedge_cap_s: float = 2.0
    connect_timeout_s: float = 1.0
    drain_timeout_s: float = 30.0

    def __post_init__(self) -> None:
        if self.hedge_cap_s < self.hedge_floor_s:
            raise ValueError(
                f"hedge cap {self.hedge_cap_s:g}s is below the hedge floor "
                f"{self.hedge_floor_s:g}s"
            )
        lease = self.lease_s
        if lease is None:
            lease = 3.0 * self.probe_interval_s
        for name, value in (
            ("replicas", tuple(self.replicas)),
            ("queue_limit", max(1, self.queue_limit)),
            ("lease_s", max(self.probe_interval_s, lease)),
            ("eject_after", max(1, self.eject_after)),
            ("retry_budget", max(1, self.retry_budget)),
        ):
            object.__setattr__(self, name, value)
