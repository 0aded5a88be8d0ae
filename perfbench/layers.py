"""Outside-in layer tracing for the sweep benchmark.

The traced run replaces each layer's public functions, at the name the
caller actually binds, with a wrapper that records one span per call:
name, start, end, parent span and run id. Spans stay in memory and are
written out when the run ends. A span's self time is its duration minus
the time its child spans cover.

Worker processes of the parallel executor are forked after the
wrappers are installed, so they inherit them. A worker cannot hand its
in-memory spans back, so there the wrappers add their totals to the
program's metrics registry under ``perfbench.<span>.*``; the executor
already merges every worker's registry into the parent at join, the
same way it merges ``sim.cpu_s``, ``checkpoint.*`` and ``exec.*``.

Nothing here changes what the program computes: a wrapper calls the
original function with the original arguments and returns its result.
The only mark the wrappers leave in the program is those worker
counters in its metrics snapshot.
"""

from __future__ import annotations

import functools
import json
import os
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Registry prefix for span totals recorded inside forked workers.
WORKER_PREFIX = "perfbench."

#: Outside-measured span totals (span name, ``total_s``/``self_s``)
#: and the program's own ``--profile`` phase each must agree with,
#: within :data:`AGREEMENT`. A wrapper placed on a name no caller uses
#: reads zero here and fails the check.
PHASE_AGREEMENT = (
    ("sim.fsm_scan.scan_automaton", "total_s", "fsm_scan"),
    ("sim.fsm_scan.counter_update", "self_s", "counter_update"),
    ("sim.vectorized.index_stream", "total_s", "index_stream"),
)
AGREEMENT = 0.10


class SpanRecorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.owner_pid = os.getpid()
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[List[float]] = []  # [span id, child seconds]
        self._next_id = 1
        #: Every array ``bht_miss_stream`` has returned, by id; held so
        #: no id is reused.
        self._bht_arrays: Dict[int, Any] = {}
        self._installed: List[Tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------

    def wrap(
        self,
        name: str,
        fn: Callable,
        counts: Optional[Callable] = None,
        before: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` recording a ``name`` span per call.

        ``counts(args, kwargs, result, prepared)`` returns additive
        per-call quantities (steps scanned, bytes written, ...) stored
        on the span; ``prepared`` is what ``before(args, kwargs)``
        returned just ahead of the call.
        """
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = time.perf_counter()
            span_id = recorder._next_id
            recorder._next_id += 1
            parent = int(recorder._stack[-1][0]) if recorder._stack else 0
            prepared = before(args, kwargs) if before is not None else None
            frame = [span_id, 0.0]
            recorder._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                recorder._stack.pop()
            extra = counts(args, kwargs, result, prepared) if counts else {}
            recorder._record(
                name, span_id, parent, start, end, frame[1], extra
            )
            # The parent span's child coverage includes this wrapper's
            # own bookkeeping, so tracing cost never reads as the
            # parent layer's self time.
            if recorder._stack:
                recorder._stack[-1][1] += time.perf_counter() - entered
            return result

        return traced

    def _record(
        self,
        name: str,
        span_id: int,
        parent: int,
        start: float,
        end: float,
        child_s: float,
        extra: Dict[str, float],
    ) -> None:
        self_s = max(0.0, end - start - child_s)
        if os.getpid() == self.owner_pid:
            self.spans.append(
                {
                    "run": self.run_id,
                    "id": span_id,
                    "parent": parent,
                    "name": name,
                    "start": start,
                    "end": end,
                    "self_s": self_s,
                    **extra,
                }
            )
            return
        from repro.obs.metrics import counter

        prefix = WORKER_PREFIX + name + "."
        counter(prefix + "calls").inc()
        counter(prefix + "total_s").inc(end - start)
        counter(prefix + "self_s").inc(self_s)
        for key, value in extra.items():
            counter(prefix + key).inc(value)

    # -- per-call quantities ------------------------------------------

    def _bht_pass(self, args, kwargs, result, prepared) -> Dict[str, float]:
        """1 when this call ran the LRU pass, 0 when it hit the cache.

        ``bht_miss_stream`` answers a cache hit with the very array an
        earlier pass returned, so a pass is a call returning an array
        not seen before.
        """
        fresh = id(result) not in self._bht_arrays
        self._bht_arrays[id(result)] = result
        return {"passes": 1 if fresh else 0}

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's public functions at their bound names."""
        import repro.check.configs as configs
        import repro.exec.parallel as parallel
        import repro.experiments.fig10 as fig10
        import repro.experiments.surface_common as surface_common
        import repro.sim.engine as engine
        import repro.sim.fsm_scan as fsm_scan
        import repro.sim.sweep as sweep
        import repro.sim.vectorized as vectorized
        import repro.workloads.registry as registry
        from repro.runtime.checkpoint import CheckpointJournal
        from repro.serve.results import ResultStore

        points = (
            # Trace generation: the benchmark's own setup calls this.
            ("workloads.make_workload", registry, "make_workload",
             _generated_branches, None),
            # sweep_tiers imports the precheck at call time.
            ("check.verify_sweep_plan", configs, "verify_sweep_plan",
             None, None),
            # Both figure modules bind sweep_tiers with from-imports.
            ("sim.sweep.sweep_tiers", surface_common, "sweep_tiers",
             None, None),
            ("sim.sweep.sweep_tiers", fig10, "sweep_tiers", None, None),
            # The serial sweep binds simulate at import; the parallel
            # workers and the parent's fallback import it at call time.
            ("sim.engine.simulate", sweep, "simulate", None, None),
            ("sim.engine.simulate", engine, "simulate", None, None),
            ("sim.vectorized.index_stream", vectorized, "index_stream",
             None, None),
            ("sim.vectorized.history", vectorized,
             "per_address_history_stream", None, None),
            ("sim.vectorized.history", vectorized,
             "global_history_stream", None, None),
            ("sim.vectorized.bht_miss_stream", vectorized,
             "bht_miss_stream", self._bht_pass, None),
            # The engines bind the counter kernel with a from-import;
            # it calls the scan through its own module global.
            ("sim.fsm_scan.counter_update", vectorized,
             "segmented_counter_predictions", None, None),
            ("sim.fsm_scan.scan_automaton", fsm_scan, "scan_automaton",
             _scan_steps, None),
            ("runtime.checkpoint.append", CheckpointJournal, "append",
             None, None),
            ("runtime.checkpoint.flush", CheckpointJournal, "flush",
             _journal_written, _flush_count),
            ("serve.results.get", ResultStore, "get", _store_hit, None),
            ("serve.results.put", ResultStore, "put", None, None),
            # sweep_tiers imports the executor at call time.
            ("exec.run_parallel_sweep", parallel, "run_parallel_sweep",
             None, None),
        )
        for name, owner, attribute, counts, before in points:
            original = getattr(owner, attribute)
            self._installed.append((owner, attribute, original))
            setattr(
                owner,
                attribute,
                self.wrap(name, original, counts=counts, before=before),
            )

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._installed):
            setattr(owner, attribute, original)
        self._installed.clear()

    def write(self, path: str) -> None:
        """Write the spans as JSON lines (called once, at run end)."""
        with open(path, "w", encoding="ascii") as handle:
            for record in self.spans:
                handle.write(json.dumps(record, sort_keys=True) + "\n")

    # -- aggregation ----------------------------------------------------

    def totals(self, workers: bool = True) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total_s, self_s and extra sums, over
        this process's spans plus (with ``workers``) the merged worker
        counters."""
        from repro.obs.metrics import REGISTRY

        out: Dict[str, Dict[str, float]] = {}
        for record in self.spans:
            entry = out.setdefault(record["name"], _empty())
            entry["calls"] += 1
            entry["total_s"] += record["end"] - record["start"]
            entry["self_s"] += record["self_s"]
            for key, value in record.items():
                if key not in _SPAN_FIELDS:
                    entry[key] = entry.get(key, 0.0) + value
        if not workers:
            return out
        for full, instrument in list(REGISTRY.counters.items()):
            if not full.startswith(WORKER_PREFIX):
                continue
            name, _, key = full[len(WORKER_PREFIX):].rpartition(".")
            entry = out.setdefault(name, _empty())
            entry[key] = entry.get(key, 0.0) + instrument.value
        return out


_SPAN_FIELDS = ("run", "id", "parent", "name", "start", "end", "self_s")


def _empty() -> Dict[str, float]:
    return {"calls": 0.0, "total_s": 0.0, "self_s": 0.0}


def _generated_branches(args, kwargs, result, prepared):
    return {"branches": len(result)}


def _scan_steps(args, kwargs, result, prepared):
    return {"steps": len(result)}


def _store_hit(args, kwargs, result, prepared):
    return {"hits": 0 if result is None else 1}


def _flush_count(args, kwargs):
    from repro.obs.metrics import counter

    return counter("checkpoint.flushes").value


def _journal_written(args, kwargs, result, prepared):
    """Whether this flush rewrote the journal (the program counts such
    flushes in ``checkpoint.flushes``), and the file's size if so."""
    from repro.obs.metrics import counter

    if counter("checkpoint.flushes").value == prepared:
        return {"writes": 0, "bytes": 0}
    return {"writes": 1, "bytes": os.path.getsize(args[0].path)}


def layer_metrics(
    recorder: SpanRecorder, workers: int
) -> Dict[str, float]:
    """The per-layer metrics of one traced run (all but the ones the
    run.py adds: ``trace.overhead_s`` and ``failed_ratio``)."""
    from repro.obs.metrics import REGISTRY

    totals = recorder.totals()

    def get(name: str, key: str) -> float:
        return float(totals.get(name, {}).get(key, 0.0))

    def program(name: str) -> float:
        return float(REGISTRY.counter(name).value)

    generate_s = get("workloads.make_workload", "total_s")
    scan_s = get("sim.fsm_scan.scan_automaton", "total_s")
    steps = get("sim.fsm_scan.scan_automaton", "steps")
    gets = get("serve.results.get", "calls")
    parallel_s = get("exec.run_parallel_sweep", "total_s")
    # sim.cpu_s holds this process's own engine seconds plus every
    # worker's; this process's share is its own engine spans.
    own_engine_s = (
        recorder.totals(workers=False)
        .get("sim.engine.simulate", {})
        .get("total_s", 0.0)
    )
    worker_cpu_s = max(0.0, program("sim.cpu_s") - own_engine_s)
    return {
        "workloads.generate_s": generate_s,
        "workloads.branches_per_s": (
            get("workloads.make_workload", "branches") / generate_s
            if generate_s > 0 else 0.0
        ),
        "check.precheck_s": get("check.verify_sweep_plan", "total_s"),
        "check.precheck_calls": get("check.verify_sweep_plan", "calls"),
        "sim.sweep.self_s": get("sim.sweep.sweep_tiers", "self_s"),
        "sim.sweep.points_computed": program("sweep.points_computed"),
        "sim.sweep.points_restored": program("sweep.points_restored"),
        "sim.engine.calls": get("sim.engine.simulate", "calls"),
        "sim.engine.self_s": get("sim.engine.simulate", "self_s"),
        "sim.vectorized.index_stream_s": get(
            "sim.vectorized.index_stream", "total_s"
        ),
        "sim.vectorized.history_s": get("sim.vectorized.history", "total_s"),
        "sim.vectorized.bht_miss_s": get(
            "sim.vectorized.bht_miss_stream", "total_s"
        ),
        "sim.vectorized.bht_calls": get(
            "sim.vectorized.bht_miss_stream", "calls"
        ),
        "sim.vectorized.bht_passes": get(
            "sim.vectorized.bht_miss_stream", "passes"
        ),
        "sim.fsm_scan.scan_s": scan_s,
        "sim.fsm_scan.scan_calls": get("sim.fsm_scan.scan_automaton", "calls"),
        "sim.fsm_scan.scan_steps": steps,
        "sim.fsm_scan.ns_per_step": scan_s * 1e9 / steps if steps else 0.0,
        "sim.fsm_scan.counter_update_s": get(
            "sim.fsm_scan.counter_update", "self_s"
        ),
        "runtime.checkpoint.appends": get("runtime.checkpoint.append", "calls"),
        "runtime.checkpoint.flushes": get("runtime.checkpoint.flush", "writes"),
        "runtime.checkpoint.flush_s": get("runtime.checkpoint.flush", "total_s"),
        "runtime.checkpoint.bytes_written": get(
            "runtime.checkpoint.flush", "bytes"
        ),
        "serve.results.gets": gets,
        "serve.results.get_s": get("serve.results.get", "total_s"),
        "serve.results.hit_ratio": (
            get("serve.results.get", "hits") / gets if gets else 0.0
        ),
        "serve.results.puts": get("serve.results.put", "calls"),
        "serve.results.put_s": get("serve.results.put", "total_s"),
        "exec.parallel_s": parallel_s,
        "exec.workers_spawned": program("exec.workers_spawned"),
        "exec.worker_failures": program("exec.worker_failures"),
        "exec.busy_ratio": (
            worker_cpu_s / (workers * parallel_s) if parallel_s > 0 else 0.0
        ),
    }


def coverage_problems(
    recorder: SpanRecorder,
    fires: Tuple[str, ...],
    silent: Tuple[str, ...],
) -> List[str]:
    """Why the traced run does not cover the layers it should; empty
    when it does.

    ``fires`` are span names that must record calls on this workload
    (in this process or in a worker) and ``silent`` ones that must
    record none. Each outside-measured total in
    :data:`PHASE_AGREEMENT` must agree with the program's own phase
    total within :data:`AGREEMENT`. That comparison uses this process
    alone: the program's per-call phase bookkeeping sits outside its
    phase timers but inside a span, and in a worker, where the wrappers
    also update counters, it grows past the tolerance on short traces.
    """
    from repro.obs.profile import phase_totals

    totals = recorder.totals()
    problems = []
    for name in fires:
        if not totals.get(name, {}).get("calls"):
            problems.append(f"span {name} never fired")
    for name in silent:
        calls = totals.get(name, {}).get("calls", 0)
        if calls:
            problems.append(f"span {name} fired {calls:g} times")
    local = recorder.totals(workers=False)
    inside = phase_totals()
    for name, key, phase in PHASE_AGREEMENT:
        outside = local.get(name, {}).get(key, 0.0)
        own = inside.get(phase, 0.0)
        if abs(outside - own) > AGREEMENT * max(outside, own):
            problems.append(
                f"{name} {key}={outside:.4f}s disagrees with "
                f"sim.phase.{phase}={own:.4f}s"
            )
    return problems
