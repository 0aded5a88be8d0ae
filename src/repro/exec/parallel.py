"""The parallel sweep orchestrator (the parent side).

``sweep_tiers(..., workers=N)`` delegates its pending points here. The
parent never simulates while workers are healthy; it

1. *salvages* any worker journals a previously killed run left in the
   scratch directory (their points count as restored progress),
2. *publishes* the trace once into the trace store (content
   fingerprint key), so N workers load one ``.npz`` instead of
   regenerating N traces (a caller whose trace is already a file
   passes its path instead),
3. *spawns* a round of worker processes that race for shard leases,
4. *polls*: tails worker journals for live progress (feeding the
   ``on_point`` hook exactly like the serial loop), enforces the
   deadline, honors cooperative SIGINT, and exposes the ``exec.poll``
   fault site,
5. *joins and merges*: folds worker journals into the master journal
   and worker telemetry into the global registry/tracer,
6. *retries*: while any worker died, respawns a fresh round (with
   backoff) over whatever is still pending — points a dead worker
   already journaled are never recomputed — and after the last round
   finishes any stragglers serially in-process, so a sweep completes
   even if every worker is killed every round.

On SIGINT or deadline expiry the parent writes the scratch stop flag,
lets workers finish their in-flight point and flush, merges their
journals, flushes the master, and re-raises — the CLI then exits 130
with all completed work resumable, exactly as in the serial path.
"""

from __future__ import annotations

import glob
import math
import os
import shutil
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.dashboard import FleetDashboard
from repro.obs.logging import get_logger
from repro.obs.metrics import counter
from repro.obs.profile import profiling_enabled
from repro.obs.spans import span
from repro.runtime.backoff import RESPAWN_BACKOFF
from repro.runtime.faults import maybe_inject
from repro.sim.results import TierPoint, TierSurface
from repro.traces.trace import BranchTrace

from repro.exec.leases import default_ttl_s

from repro.exec import merge
from repro.exec.worker import (
    WorkerPlan,
    clear_stop,
    compute_point,
    request_stop,
    worker_main,
)

#: Seconds between parent poll-loop ticks.
POLL_INTERVAL_S = 0.05

#: Respawn rounds after worker failures before the parent finishes the
#: remainder serially itself (guaranteed completion).
MAX_ROUNDS = 3

#: Seconds a draining worker gets to finish its in-flight point before
#: the parent terminates it (its journaled points survive either way).
DRAIN_TIMEOUT_S = 30.0

#: Target shards per worker when --shard-size is not given: small
#: enough shards to rebalance around a slow worker, big enough to keep
#: lease traffic negligible next to simulation time.
SHARDS_PER_WORKER = 4

PointKey = Tuple[int, int]


def _mp_context():
    import multiprocessing

    # fork keeps worker startup at milliseconds (important for the
    # speedup target on short sweeps); spawn is the portable fallback.
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - no fork on this platform
        return multiprocessing.get_context("spawn")


def _shard(
    pending: List[PointKey], shard_size: Optional[int], workers: int
) -> List[Tuple[int, Tuple[PointKey, ...]]]:
    if shard_size is None:
        shard_size = max(
            1, math.ceil(len(pending) / (workers * SHARDS_PER_WORKER))
        )
    return [
        (index, tuple(pending[start : start + shard_size]))
        for index, start in enumerate(range(0, len(pending), shard_size))
    ]


def run_parallel_sweep(
    scheme: str,
    trace: BranchTrace,
    pending: List[PointKey],
    journal,
    surface: TierSurface,
    interrupt,
    *,
    workers: int,
    shard_size: Optional[int] = None,
    bht_entries: Optional[int] = None,
    bht_assoc: int = 4,
    engine: str = "auto",
    paranoid: bool = False,
    deadline=None,
    on_point: Optional[Callable[[TierPoint, int, int], None]] = None,
    completed: int = 0,
    total: int = 0,
    dashboard: bool = False,
    trace_path: Optional[str] = None,
) -> int:
    """Execute ``pending`` points across ``workers`` processes.

    Mutates ``surface`` and ``journal`` in place; returns the updated
    ``completed`` count. ``interrupt`` is the sweep's already-installed
    :class:`~repro.runtime.deadline.CooperativeInterrupt`.
    ``dashboard=True`` renders the live fleet table on stderr from the
    poll loop (stdout and all results are unaffected).
    ``trace_path`` names a file already holding ``trace`` (the serve
    daemon's trace store has one); without it the trace is saved into
    the trace store first.
    """
    from repro.workloads.store import TraceStore

    log = get_logger("repro.exec")
    scratch = journal.path + ".exec"
    os.makedirs(scratch, exist_ok=True)
    clear_stop(scratch)

    fleet = FleetDashboard(f"{scheme} x{workers}") if dashboard else None

    # Elapsed-wall accounting: workers report their engine seconds as
    # sim.cpu_s (absorb_worker_reports keeps worker sim.wall_s out of
    # the parent's), so the parent owns sim.wall_s — this region's
    # elapsed time, minus whatever its own in-process engine calls
    # (serial fallback, salvage re-computes) already contributed.
    wall_counter = counter("sim.wall_s")
    own_engine_before = wall_counter.value
    region_started = time.perf_counter()

    pending_set = set(pending)
    landed: Dict[PointKey, TierPoint] = {}

    def _land(
        n: int, point: TierPoint, metric: Optional[str] = None
    ) -> None:
        # Worker-computed points are already counted by the worker's
        # absorbed metrics report, so polling lands them with no
        # metric; salvaged journals count as restored progress.
        nonlocal completed
        key = (n, point.row_bits)
        if key in landed or key not in pending_set:
            return
        landed[key] = point
        surface.add(n, point)
        if metric is not None:
            counter(metric).inc()
        completed += 1
        if on_point is not None:
            on_point(point, completed, total)

    # Salvage: a killed prior run may have left worker journals whose
    # points never reached the master. Fold them in before planning.
    for n, point in merge.merge_worker_journals(journal, scratch):
        _land(n, point, "sweep.points_restored")
    merge.clear_worker_artifacts(scratch)

    if trace_path is None:
        store = TraceStore.from_env()
        if store is None:
            store = TraceStore(os.path.join(scratch, "traces"))
        trace_path = store.put(trace)

    def _poll_progress() -> None:
        fresh = merge.load_worker_points(scratch, journal.key)
        for key in sorted(fresh):
            n, point = fresh[key]
            _land(n, point)

    def _spawn_round(
        round_index: int, points: List[PointKey]
    ) -> List:
        context = _mp_context()
        shards = _shard(points, shard_size, workers)
        spawned = []
        count = min(workers, len(shards))
        for position in range(count):
            plan = WorkerPlan(
                worker_id=round_index * workers + position,
                scheme=scheme,
                trace_path=trace_path,
                shards=tuple(shards),
                scratch_dir=scratch,
                journal_key=journal.key,
                engine=engine,
                paranoid=paranoid,
                bht_entries=bht_entries,
                bht_assoc=bht_assoc,
                lease_ttl_s=default_ttl_s(),
                start_offset=(position * len(shards)) // count,
                profile=profiling_enabled(),
            )
            process = context.Process(
                target=worker_main, args=(plan,), daemon=True
            )
            process.start()
            spawned.append(process)
        counter("exec.workers_spawned").inc(len(spawned))
        return spawned

    def _drain(processes: List) -> None:
        deadline_at = time.monotonic() + DRAIN_TIMEOUT_S
        for process in processes:
            process.join(timeout=max(0.0, deadline_at - time.monotonic()))
        for process in processes:
            if process.is_alive():  # pragma: no cover - hung worker
                process.terminate()
                process.join(timeout=5.0)

    processes: List = []
    try:
        with span(
            "exec.sweep", scheme=scheme, workers=workers, points=len(pending)
        ):
            for round_index in range(MAX_ROUNDS):
                still_pending = [
                    p for p in pending if p not in journal.completed()
                ]
                if not still_pending:
                    break
                if round_index > 0:
                    # Backoff before re-claiming a crashed round's work;
                    # jittered so simultaneous crashes do not stampede.
                    counter("retry.attempts").inc()
                    RESPAWN_BACKOFF.sleep(round_index - 1)
                processes = _spawn_round(round_index, still_pending)
                while any(p.is_alive() for p in processes):
                    maybe_inject("exec.poll")
                    interrupt.checkpoint()
                    if deadline is not None:
                        deadline.check(f"parallel sweep({scheme})")
                    _poll_progress()
                    if fleet is not None and fleet.due():
                        fleet.update(
                            merge.worker_progress(scratch),
                            done=completed,
                            total=total,
                            fence_rejections=int(
                                counter("lease.fence_rejections").value
                            ),
                            shards_total=len(
                                glob.glob(
                                    os.path.join(scratch, "shard-*.lease")
                                )
                            ),
                        )
                    time.sleep(POLL_INTERVAL_S)
                for process in processes:
                    process.join()
                failures = sum(
                    1 for p in processes if p.exitcode not in (0, None)
                )
                _poll_progress()
                merge.merge_worker_journals(journal, scratch)
                merge.absorb_worker_reports(scratch)
                merge.clear_worker_artifacts(scratch)
                processes = []
                if failures:
                    counter("exec.worker_failures").inc(failures)
                    log.warning(
                        "parallel sweep round %d: %d worker(s) died; "
                        "re-claiming their shards",
                        round_index,
                        failures,
                    )
                else:
                    break

            # Whatever survived every round runs serially in-process:
            # completion is guaranteed even if workers always crash,
            # and a deterministic failure finally surfaces here.
            for n, row_bits in [
                p for p in pending if p not in journal.completed()
            ]:
                interrupt.checkpoint()
                if deadline is not None:
                    deadline.check(f"sweep_tiers({scheme})")
                stub = WorkerPlan(
                    worker_id=-1,
                    scheme=scheme,
                    trace_path=trace_path,
                    shards=(),
                    scratch_dir=scratch,
                    journal_key=journal.key,
                    engine=engine,
                    paranoid=paranoid,
                    bht_entries=bht_entries,
                    bht_assoc=bht_assoc,
                )
                point = compute_point(stub, trace, n, row_bits)
                counter("sweep.points_computed").inc()
                journal.append(n, point)
                key = (n, row_bits)
                if key not in landed:
                    landed[key] = point
                    surface.add(n, point)
                    completed += 1
                    if on_point is not None:
                        on_point(point, completed, total)
    except BaseException:
        # SIGINT / deadline / fault: drain in-flight shards, capture
        # their journals, flush the master, and leave resumable state.
        if processes:
            request_stop(scratch)
            _drain(processes)
        merge.merge_worker_journals(journal, scratch)
        merge.absorb_worker_reports(scratch)
        journal.flush()
        shutil.rmtree(scratch, ignore_errors=True)
        raise
    finally:
        if fleet is not None:
            fleet.finish()
        own_engine = wall_counter.value - own_engine_before
        elapsed = time.perf_counter() - region_started
        wall_counter.inc(max(0.0, elapsed - own_engine))
    journal.flush()
    shutil.rmtree(scratch, ignore_errors=True)
    return completed
