"""The sweep service: job queue, result cache, and a daemon over both.

``repro serve`` runs the one-shot parallel executor (:mod:`repro.exec`)
under a long-lived daemon. Clients drop durable jobs into an on-disk
queue (:mod:`repro.serve.queue`), the daemon decomposes every figure
job into per-benchmark sweeps and runs their missing points through
:func:`repro.exec.parallel.run_parallel_sweep` (the same shard leases,
fencing and journals as ``repro run --workers``), and every finished
point lands in a content-addressed
:class:`~repro.serve.results.ResultStore` keyed by ``sweep_key`` — so
a repeat request is a cache hit served without touching the simulator.
"""

from repro.serve.queue import JobQueue, JobSpec
from repro.serve.results import ResultStore, point_key

__all__ = ["JobQueue", "JobSpec", "ResultStore", "point_key"]
