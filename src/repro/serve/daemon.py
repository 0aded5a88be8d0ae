"""The ``repro serve`` daemon: queue in, cached figures out.

One daemon owns one queue directory. Each scheduling pass (*tick*) it

1. honors cancel flags and fails jobs whose specs cannot be planned,
2. *plans* every live job: resolve benchmarks, materialize traces into
   the trace store, statically precheck the sweep grid, and derive the
   content address of every point,
3. *serves* whatever the :class:`~repro.serve.results.ResultStore`
   already holds (``cache.hits``; a repeat submission finishes here
   without touching the simulator),
4. runs every planned *unit* -- one (scheme, trace, geometry) sweep --
   that still misses points through the one-shot parallel executor
   (:func:`repro.exec.parallel.run_parallel_sweep`, the code behind
   ``repro run --workers``: lease-fenced shards, respawn rounds, a
   serial fallback) over a unit journal under ``<queue>/pool/``, and
   publishes every landed point into the store,
5. *finalizes*: rebuilds each job's surfaces in plan order from the
   store, writes a CRC-stamped result artifact next to the job file,
   records ledger rows, and appends the terminal queue event.

Because every finished point lands in the store before any job is
finalized, two jobs needing the same point simulate it once, and a
daemon killed at any instant restarts from the queue with no lost or
duplicated points: ``running`` jobs from the dead daemon re-queue, and
re-planning the same unit resumes its journal, whose executor salvages
the dead workers' journals.

SIGTERM/SIGINT drain through the executor's own drain -- workers
finish their in-flight point, journals merge and publish, live jobs
re-queue resumably -- and the daemon exits 0 with a merged metrics
report covering everything any worker simulated under it.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.obs.logging import get_logger
from repro.obs.metrics import counter, histogram
from repro.obs.spans import span
from repro.runtime.checkpoint import (
    CheckpointJournal,
    atomic_write_text,
    record_crc,
    sweep_key,
)
from repro.runtime.deadline import CooperativeInterrupt
from repro.sim.results import TierSurface
from repro.traces.trace import BranchTrace

from repro.serve.queue import Job, JobQueue, ServeError
from repro.serve.results import RESULT_STORE_ENV, ResultStore, point_key

#: Schema tag of the finished-job artifact written next to the job file.
JOB_RESULT_SCHEMA = "repro.job-result/1"

#: Seconds between idle queue scans.
POLL_INTERVAL_S = 0.05


@dataclass
class UnitPlan:
    """One benchmark of one job: a sweep, decomposed into addressed points."""

    trace: BranchTrace
    #: The trace store's file for ``trace``; the executor's workers
    #: load it rather than a second copy.
    trace_path: str
    plan: List[Tuple[int, int]]
    keys: Dict[Tuple[int, int], str]
    sweep_key: str


@dataclass
class JobPlan:
    """A planned job: per-benchmark units plus cache accounting."""

    job: Job
    scheme: str
    units: List[UnitPlan]
    cache_hits: int = 0

    @property
    def total_points(self) -> int:
        return sum(len(unit.plan) for unit in self.units)


class ServeDaemon:
    """Long-lived scheduler over one queue directory."""

    def __init__(
        self,
        queue_dir: str,
        workers: int = 2,
        once: bool = False,
        poll_interval: float = POLL_INTERVAL_S,
        dashboard: bool = False,
        engine: str = "auto",
    ):
        if workers < 1:
            raise ServeError(f"workers must be >= 1, got {workers!r}")
        self.queue = JobQueue(queue_dir)
        self.workers = workers
        self.once = once
        self.poll_interval = poll_interval
        self.dashboard = dashboard
        self.engine = engine
        self.scratch = os.path.join(queue_dir, "pool")
        results_dir = os.environ.get(RESULT_STORE_ENV) or os.path.join(
            queue_dir, "results"
        )
        self.results = ResultStore(results_dir)
        self.log = get_logger("repro.serve")
        #: SIGTERM/SIGINT land here; ``pending`` is the stop flag, and
        #: the executor polls the same object to drain its workers.
        self._interrupt = CooperativeInterrupt()

    # -- lifecycle -----------------------------------------------------

    def run(self) -> int:
        """Serve until stopped (or, with ``once``, until the queue
        drains); returns the process exit code."""
        os.makedirs(self.queue.directory, exist_ok=True)
        os.makedirs(self.scratch, exist_ok=True)
        try:
            with self._interrupt:
                self._salvage()
                while not self._interrupt.pending:
                    progressed = self.tick()
                    if self._interrupt.pending:
                        break
                    if self.once:
                        if not self._live_jobs():
                            break
                    elif not progressed:
                        time.sleep(self.poll_interval)
        finally:
            self._shutdown()
        return 0

    def _live_jobs(self) -> List[Job]:
        return [job for job in self.queue.jobs() if job.is_live()]

    def _salvage(self) -> None:
        """Re-queue the ``running`` jobs a dead daemon left behind.

        Their finished points are not lost: re-planning the same unit
        reopens its journal under ``<queue>/pool/``, and the executor
        folds in the dead workers' journals before it spawns anything.
        """
        requeued = 0
        for job in self.queue.jobs():
            if job.state == "running":
                self.queue.append_event(
                    job, "queued", {"requeued": True}
                )
                requeued += 1
        if requeued:
            self.log.info("salvage: %d running job(s) re-queued", requeued)

    def _shutdown(self) -> None:
        """Leave the queue resumable and the telemetry merged."""
        from repro.obs.report import write_metrics

        for job in self._live_jobs():
            if job.state == "running":
                self.queue.append_event(job, "queued", {"drained": True})
        try:
            write_metrics(
                os.path.join(self.queue.directory, "serve_metrics.json")
            )
        except OSError:  # pragma: no cover - queue dir vanished
            pass

    # -- one scheduling pass -------------------------------------------

    def tick(self) -> bool:
        """Plan, serve, simulate, and finalize every live job once.

        Returns whether any job made progress (the idle loop sleeps
        when nothing did). Jobs submitted while a pass is running are
        picked up by the next pass.
        """
        self._honor_cancels()
        plans = self._plan_live_jobs()
        if not plans:
            return False

        # Serve from the store first: every already-cached point is a
        # hit, and a fully cached job never reaches the executor.
        for plan in plans:
            self._serve_cached(plan)
            if plan.job.state == "queued":
                self.queue.append_event(
                    plan.job,
                    "running",
                    {
                        "points": plan.total_points,
                        "cache_hits": plan.cache_hits,
                    },
                )

        # Jobs that plan the same unit share one executor run.
        units: Dict[str, Tuple[str, UnitPlan]] = {}
        for plan in plans:
            for unit in plan.units:
                units.setdefault(unit.sweep_key, (plan.scheme, unit))
        errors: Dict[str, str] = {}
        for scheme, unit in units.values():
            if self._interrupt.pending:
                break
            self._run_unit(scheme, unit, errors)

        for plan in plans:
            self._finalize(plan, errors)
        return True

    def _honor_cancels(self) -> None:
        for job in self._live_jobs():
            if not job.cancel_requested():
                continue
            self.queue.append_event(job, "cancelled", {})
            self.queue.clear_cancel(job)
            counter("serve.jobs_cancelled").inc()
            self.log.info("job %s cancelled", job.id)

    def _plan_live_jobs(self) -> List[JobPlan]:
        plans = []
        for job in self._live_jobs():
            try:
                plans.append(self._plan_job(job))
            except ReproError as error:
                self.queue.append_event(job, "failed", {"error": str(error)})
                counter("serve.jobs_failed").inc()
                self.log.error("job %s rejected: %s", job.id, error)
        return plans

    def _plan_job(self, job: Job) -> JobPlan:
        from repro.experiments.base import FOCUS, ExperimentOptions
        from repro.experiments.surface_common import SURFACE_SCHEMES
        from repro.workloads.store import TraceStore

        spec = job.spec
        scheme = SURFACE_SCHEMES.get(spec.experiment)
        if scheme is None:
            known = ", ".join(sorted(SURFACE_SCHEMES))
            raise ServeError(
                f"experiment {spec.experiment!r} is not servable; the "
                f"sweep service schedules the surface figures ({known}) "
                "— run others with one-shot `repro run`"
            )
        options = ExperimentOptions(
            length=spec.length,
            seed=spec.seed,
            benchmarks=list(spec.benchmarks) or None,
            size_bits=list(spec.size_bits),
        )
        benchmarks = options.resolve_benchmarks(FOCUS)

        from repro.check.configs import verify_sweep_plan

        findings = verify_sweep_plan(scheme, list(spec.size_bits))
        blocking = [f for f in findings if f.severity == "error"]
        if blocking:
            raise ServeError(
                f"sweep precheck rejected {len(blocking)} planned "
                f"point(s): {blocking[0].render()}"
            )

        store = TraceStore.from_env()
        if store is None:
            store = TraceStore(
                os.path.join(self.queue.directory, "traces")
            )
        units = []
        grid = [
            (n, row_bits)
            for n in spec.size_bits
            for row_bits in range(n + 1)
        ]
        for bench in benchmarks:
            trace = store.get(bench, length=spec.length, seed=spec.seed)
            fingerprint = trace.fingerprint()
            keys = {
                (n, row_bits): point_key(scheme, fingerprint, n, row_bits)
                for n, row_bits in grid
            }
            units.append(
                UnitPlan(
                    trace=trace,
                    trace_path=store.path(
                        bench, length=spec.length, seed=spec.seed
                    ),
                    plan=list(grid),
                    keys=keys,
                    sweep_key=sweep_key(
                        scheme, fingerprint, list(spec.size_bits)
                    ),
                )
            )
        return JobPlan(job=job, scheme=scheme, units=units)

    def _serve_cached(self, plan: JobPlan) -> None:
        """Count the job's cache hits, one ``get`` per point (the store
        counts ``cache.hits``/``cache.misses``)."""
        for unit in plan.units:
            for point in unit.plan:
                if self.results.get(unit.keys[point]) is not None:
                    plan.cache_hits += 1

    # -- execution -----------------------------------------------------

    def _run_unit(
        self, scheme: str, unit: UnitPlan, errors: Dict[str, str]
    ) -> None:
        """Simulate the unit's points the store lacks; publish them.

        The points go to the executor minus those the unit journal
        already holds (a killed daemon's progress). A failure the
        executor's serial fallback cannot get past is recorded against
        the points still missing, so it fails only the jobs that need
        them; a drain (SIGTERM/SIGINT) publishes what landed and
        leaves the rest to the re-queued jobs.
        """
        # Looked up at call time, so wrappers of the executor see it.
        from repro.exec import parallel

        journal = CheckpointJournal.open(
            os.path.join(self.scratch, f"{unit.sweep_key}.journal"),
            unit.sweep_key,
        )
        missing = [
            point
            for point in unit.plan
            if self.results.peek(unit.keys[point]) is None
        ]
        held = journal.completed()
        pending = [point for point in missing if point not in held]
        counter("sweep.points_restored").inc(len(missing) - len(pending))
        try:
            if pending:
                parallel.run_parallel_sweep(
                    scheme,
                    unit.trace,
                    pending,
                    journal,
                    TierSurface(scheme=scheme, trace_name=unit.trace.name),
                    self._interrupt,
                    workers=self.workers,
                    engine=self.engine,
                    dashboard=self.dashboard,
                    trace_path=unit.trace_path,
                )
        except KeyboardInterrupt:
            if not self._interrupt.pending:
                raise
        except Exception as error:
            message = f"{type(error).__name__}: {error}"
            for point in pending:
                errors[unit.keys[point]] = message
            self.log.error(
                "%s sweep of %s failed: %s", scheme, unit.trace.name, message
            )
        finally:
            for n, point in journal.points:
                self.results.put(unit.keys[(n, point.row_bits)], n, point)
            journal.discard()
            # The executor removes its scratch; this catches one a
            # killed daemon left when the journal alone covered the unit.
            shutil.rmtree(journal.path + ".exec", ignore_errors=True)

    # -- completion ----------------------------------------------------

    def _finalize(self, plan: JobPlan, errors: Dict[str, str]) -> None:
        """Assemble, persist, and account one job's result — or record
        why it cannot be."""
        from repro.analysis.ascii_plots import render_surface
        from repro.experiments.runner import experiment_title
        from repro.obs.ledger import note_sweep_key, record_run

        job = plan.job
        if job.state != "running":  # cancelled (or failed) mid-pass
            return
        missing = 0
        first_error: Optional[str] = None
        surfaces = []
        for unit in plan.units:
            surface = TierSurface(
                scheme=plan.scheme, trace_name=unit.trace.name
            )
            for n, row_bits in unit.plan:
                key = unit.keys[(n, row_bits)]
                point = self.results.peek(key)
                if point is None:
                    missing += 1
                    if first_error is None and key in errors:
                        first_error = errors[key]
                    continue
                surface.add(n, point)
            surfaces.append(surface)
        if self._interrupt.pending and missing:
            return  # draining: the job re-queues resumably at shutdown
        if missing:
            detail = {
                "error": first_error
                or f"{missing} point(s) missing after execution",
                "missing": missing,
            }
            self.queue.append_event(job, "failed", detail)
            counter("serve.jobs_failed").inc()
            self.log.error(
                "job %s failed: %s", job.id, detail["error"]
            )
            return

        computed = plan.total_points - plan.cache_hits
        with span("serve.job", id=job.id, experiment=job.spec.experiment):
            payload = {
                "schema": JOB_RESULT_SCHEMA,
                "id": job.id,
                "experiment": job.spec.experiment,
                "title": experiment_title(job.spec.experiment),
                "text": "\n\n".join(map(render_surface, surfaces)),
            }
            payload["crc"] = record_crc(payload)
            atomic_write_text(
                job.result_path(),
                json.dumps(payload, sort_keys=True) + "\n",
            )
        for unit in plan.units:
            note_sweep_key(unit.sweep_key)
        record_run(f"serve:{job.spec.experiment}", workers=self.workers)
        detail = {
            "points": plan.total_points,
            "cache_hits": plan.cache_hits,
            "computed": computed,
        }
        self.queue.append_event(job, "done", detail)
        counter("serve.jobs_completed").inc()
        started = job.events[0]["ts"] if job.events else job.submitted
        histogram("serve.job_s").observe(max(0.0, time.time() - started))
        self.log.info(
            "job %s done: %d point(s), %d from cache, %d computed",
            job.id,
            plan.total_points,
            plan.cache_hits,
            computed,
        )
