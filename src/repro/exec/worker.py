"""Worker process body for the parallel sweep executor.

Each worker receives a :class:`WorkerPlan` (picklable, so it survives
both ``fork`` and ``spawn`` start methods), loads the sweep's shared
trace from the trace store, and then races the other workers for shard
leases (:mod:`repro.exec.leases`). Claimed points are simulated with
per-point retry-backoff — an injected or transient ``RuntimeError``
retries instead of killing the worker — and every completed point is
appended (atomically, flush-per-point) to the worker's own journal
under the *same* sweep key as the parent's master journal, which the
parent tails for live progress and merges at join.

Telemetry is process-local by design: the worker resets the global
metrics registry and span tracer it may have inherited over ``fork``,
streams its spans to a per-worker JSONL sink, and saves a final
metrics snapshot the parent absorbs at join — so the merged
``run_metrics.json`` counts every branch any worker simulated.

SIGINT and SIGTERM are the parent's concern: workers ignore SIGINT,
keep SIGTERM's default action (the parent's ``terminate()`` of a hung
worker), and poll the scratch directory's stop flag between points,
finishing the in-flight point, flushing, and exiting cleanly when a
drain is requested.
"""

from __future__ import annotations

import os
import signal
import sys
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.runtime.deadline import retry_with_backoff
from repro.runtime.faults import maybe_inject

#: Shard contents: ``(shard_id, ((n, row_bits), ...))``.
Shard = Tuple[int, Tuple[Tuple[int, int], ...]]

#: Flag file whose existence asks all workers to drain and exit.
STOP_FILENAME = "stop"

#: Per-point retries inside a worker before the point's failure kills
#: the worker (and the parent's round/fallback machinery takes over).
POINT_RETRIES = 2


@dataclass(frozen=True)
class WorkerPlan:
    """Everything one worker needs; shipped over the process boundary."""

    worker_id: int
    scheme: str
    trace_path: str
    shards: Tuple[Shard, ...]
    scratch_dir: str
    journal_key: str
    engine: str = "auto"
    paranoid: bool = False
    bht_entries: Optional[int] = None
    bht_assoc: int = 4
    lease_ttl_s: float = 600.0
    #: Where this worker starts scanning the shard list; staggering the
    #: starts spreads the first-claim contention across the list.
    start_offset: int = 0
    #: Coordination backend name (``local``/``heartbeat``); empty means
    #: resolve from ``$REPRO_EXEC_BACKEND`` with a ``local`` default.
    backend: str = ""
    #: Mirror of the parent's ``--profile``: phase histograms land in
    #: this worker's metrics snapshot and merge at join.
    profile: bool = False


def worker_journal_path(scratch_dir: str, worker_id: int) -> str:
    return os.path.join(scratch_dir, f"worker-{worker_id:04d}.journal")


def worker_metrics_path(scratch_dir: str, worker_id: int) -> str:
    return os.path.join(scratch_dir, f"worker-{worker_id:04d}.metrics.json")


def worker_spans_path(scratch_dir: str, worker_id: int) -> str:
    return os.path.join(scratch_dir, f"worker-{worker_id:04d}.spans.jsonl")


def stop_requested(scratch_dir: str) -> bool:
    return os.path.exists(os.path.join(scratch_dir, STOP_FILENAME))


def request_stop(scratch_dir: str) -> None:
    """Ask every worker to finish its in-flight point and exit."""
    from repro.runtime.checkpoint import atomic_write_text

    atomic_write_text(os.path.join(scratch_dir, STOP_FILENAME), "stop\n")


def clear_stop(scratch_dir: str) -> None:
    try:
        os.remove(os.path.join(scratch_dir, STOP_FILENAME))
    except OSError:
        pass


def worker_main(plan: WorkerPlan) -> None:
    """Process entry point: claim shards, simulate, journal, report."""
    from repro.obs import get_logger, get_tracer, reset_metrics
    from repro.obs.report import write_metrics

    try:
        # Ctrl-C lands on the parent, which coordinates the drain; a
        # worker interrupting mid-append could tear its own shard.
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        # A fork inherits the parent's deferring SIGTERM handler; the
        # default lets terminate() still stop a hung worker.
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except ValueError:  # pragma: no cover - non-main-thread embedding
        pass
    from repro.obs.profile import disable_profiling, enable_profiling

    tracer = get_tracer()
    tracer.abandon_sink()  # a fork inherits the parent's open sink
    tracer.reset()
    reset_metrics()
    # Profiling state is inherited over fork; start from the plan's.
    disable_profiling()
    if plan.profile:
        enable_profiling()
    tracer.configure_sink(worker_spans_path(plan.scratch_dir, plan.worker_id))
    log = get_logger("repro.exec")
    failed = False
    try:
        with tracer.span(
            "exec.worker", worker=plan.worker_id, shards=len(plan.shards)
        ):
            _run_shards(plan)
    except BaseException as error:  # noqa: B036 - crash = parent re-claims
        failed = True
        log.error(
            "worker %d failed: %s: %s",
            plan.worker_id,
            type(error).__name__,
            error,
        )
    finally:
        tracer.close_sink()
        try:
            write_metrics(worker_metrics_path(plan.scratch_dir, plan.worker_id))
        except OSError:  # pragma: no cover - scratch dir vanished
            pass
    if failed:
        sys.exit(1)


def _run_shards(plan: WorkerPlan) -> None:
    from repro.obs.metrics import counter
    from repro.obs.report import write_metrics
    from repro.obs.spans import span
    from repro.runtime.checkpoint import CheckpointJournal
    from repro.traces.io import load_trace

    from repro.exec import leases

    trace = load_trace(plan.trace_path)
    backend = leases.make_backend(
        plan.backend, plan.scratch_dir, ttl_s=plan.lease_ttl_s
    )
    journal = CheckpointJournal.open(
        worker_journal_path(plan.scratch_dir, plan.worker_id),
        plan.journal_key,
        resume=True,
    )
    done = journal.completed()
    count = len(plan.shards)
    for position in range(count):
        shard_id, points = plan.shards[(position + plan.start_offset) % count]
        if stop_requested(plan.scratch_dir):
            break
        lease = backend.try_claim(shard_id)
        if lease is None:
            continue
        drained = lost = False
        with span(
            "exec.shard",
            worker=plan.worker_id,
            shard=shard_id,
            points=len(points),
        ):
            for n, row_bits in points:
                if (n, row_bits) in done:
                    continue  # resumed from this worker's own journal
                if stop_requested(plan.scratch_dir):
                    drained = True
                    break
                # Renew the lease before the point. If the renewal
                # fails, the shard was reclaimed while this worker was
                # paused — it is now a zombie and must stop: its token
                # is superseded, so the merge layer would reject any
                # further appends regardless.
                renewed = backend.heartbeat(lease)
                if renewed is None:
                    lost = True
                    break
                lease = renewed
                maybe_inject("exec.worker")
                point = compute_point(plan, trace, n, row_bits)
                maybe_inject("journal.append")
                journal.append(
                    n, point, token=lease.token, shard=shard_id
                )
                done.add((n, row_bits))
                counter("sweep.points_computed").inc()
        if lost:
            continue
        if not drained:
            backend.mark_done(lease)
        # Incremental telemetry: snapshot after every shard (cumulative
        # overwrite) so a worker killed mid-sweep still reports the
        # branches its finished shards simulated. The parent absorbs
        # each worker's file exactly once, at join.
        try:
            write_metrics(worker_metrics_path(plan.scratch_dir, plan.worker_id))
        except OSError:  # pragma: no cover - scratch dir vanished
            pass
    journal.flush()


def compute_point(plan: WorkerPlan, trace, n: int, row_bits: int):
    """Simulate one tier point with retry-backoff around the engine.

    The ``sweep.point`` fault site fires *inside* the retried callable,
    so an injected ``raise`` behaves like any transient engine crash:
    it retries with backoff and only kills the worker once the retry
    budget is spent. Shared with the parent's serial-fallback path so
    both report identical spans and histograms.
    """
    import time

    from repro.obs.metrics import histogram
    from repro.obs.spans import span
    from repro.sim.engine import simulate
    from repro.sim.results import TierPoint
    from repro.sim.sweep import spec_for_point

    spec = spec_for_point(
        plan.scheme,
        col_bits=n - row_bits,
        row_bits=row_bits,
        bht_entries=plan.bht_entries,
        bht_assoc=plan.bht_assoc,
    )

    def _simulate_once():
        maybe_inject("sweep.point")
        return simulate(
            spec, trace, engine=plan.engine, paranoid=plan.paranoid
        )

    started = time.perf_counter()
    with span("sweep.point", scheme=plan.scheme, n=n, row_bits=row_bits):
        result = retry_with_backoff(
            _simulate_once,
            retries=POINT_RETRIES,
            retryable=(RuntimeError, OSError),
        )
    histogram("sweep.point_s").observe(time.perf_counter() - started)
    return TierPoint(
        col_bits=n - row_bits,
        row_bits=row_bits,
        misprediction_rate=result.misprediction_rate,
        first_level_miss_rate=result.first_level_miss_rate,
    )
