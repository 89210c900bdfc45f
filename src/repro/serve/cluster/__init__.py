"""repro.serve.cluster: multi-replica serving behind one router.

The single-host :class:`~repro.serve.server.DesignServer` survives worker
crashes, but the process itself is a single point of failure and every
same-digest request pays a full round trip unless it hits the on-disk
cache.  This package is the layer that exploits the idempotency the
content-addressed cache and single-flight locks already guarantee:

``config``    :class:`RouterConfig`, filled from the ``serve-router`` flags
``client``    resilient keep-alive client: connection pooling, reconnect
              with jittered exponential backoff, per-request retry budget
``coalesce``  in-router single-flight: concurrent same-digest requests
              collapse into one upstream call, fanned back to every waiter
``registry``  replica membership: periodic healthz probes, lease-based
              admission, automatic eject/readmit on probe failure
``router``    the ``repro serve-router`` front end: speaks ``repro.serve/1``
              to clients, hedged dispatch to replicas, aggregated
              backpressure, graceful drain

The correctness contract is inherited unchanged from the single-host
layer: every ``ok`` payload routed through the cluster is byte-identical
to the batch reference, under replica SIGKILL, hedging, retries, and
coalescing -- because responses are canonical bytes and the design flow
is a pure, memoized function of the request.
"""

from repro.serve.cluster.client import ResilientClient
from repro.serve.cluster.coalesce import SingleFlight
from repro.serve.cluster.config import RouterConfig, parse_replica_spec
from repro.serve.cluster.registry import Replica, ReplicaRegistry
from repro.serve.cluster.router import ClusterRouter

__all__ = [
    "ClusterRouter",
    "Replica",
    "ReplicaRegistry",
    "ResilientClient",
    "RouterConfig",
    "SingleFlight",
    "parse_replica_spec",
]
