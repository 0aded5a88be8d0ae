"""One repetition of a sweep-benchmark workload, in a fresh process.

``run.py`` starts this script once per repetition, so every timed job
pays what a fresh ``repro run`` pays: cold in-process caches (the
first-level LRU cache of ``bht_miss_stream`` included), lazy imports
and first-touch allocation. Only trace generation is done ahead of the
timed job and reported as set-up time.

Usage (normally only through run.py)::

    python3 perfbench/job.py --workload gas_surface --seed 0 \
        --out RESULT.json --tmp-root DIR [--reference] [--trace]

Writes one JSON object to ``--out``; see :func:`run_job` for its keys.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: The paper's focus benchmarks (Figures 4 and 6), spelled out so the
#: workload stays fixed if the program's default list changes.
FOCUS = ("espresso", "mpeg_play", "real_gcc")

#: Tiers 2^4..2^15, as in the paper's surface figures: 126 points per
#: sweep.
SIZE_BITS = tuple(range(4, 16))
POINTS_PER_SWEEP = sum(n + 1 for n in SIZE_BITS)

#: Points re-simulated with the scalar reference engine, per sweep, as
#: (tier n, row_bits). Fixed so every seed checks the same shapes.
REFERENCE_SAMPLE = ((4, 0), (6, 3), (9, 9), (12, 5), (15, 0), (15, 12))

#: Program-structure seed of every benchmark, as in ``repro run``.
PROGRAM_SEED = 0


@dataclass(frozen=True)
class Workload:
    experiment: str
    benchmarks: Tuple[str, ...]
    length: int
    workers: int
    #: Run cold with a fresh checkpoint dir and result store, then
    #: again warm with a second fresh checkpoint dir.
    journaled: bool
    #: Span names that must fire, and that must not, in the traced run.
    fires: Tuple[str, ...]
    silent: Tuple[str, ...]


_ENGINE_SPANS = (
    "workloads.make_workload",
    "check.verify_sweep_plan",
    "sim.sweep.sweep_tiers",
    "sim.engine.simulate",
    "sim.vectorized.index_stream",
    "sim.vectorized.history",
    "sim.fsm_scan.counter_update",
    "sim.fsm_scan.scan_automaton",
)
_IO_SPANS = (
    "runtime.checkpoint.append",
    "runtime.checkpoint.flush",
    "serve.results.get",
    "serve.results.put",
    "exec.run_parallel_sweep",
)

WORKLOADS: Dict[str, Workload] = {
    "gas_surface": Workload(
        experiment="fig4",
        benchmarks=FOCUS,
        length=10_000,
        workers=1,
        journaled=False,
        fires=_ENGINE_SPANS,
        silent=_IO_SPANS + ("sim.vectorized.bht_miss_stream",),
    ),
    "pas_bht_surface": Workload(
        experiment="fig10",
        benchmarks=("mpeg_play",),
        length=10_000,
        workers=1,
        journaled=False,
        fires=_ENGINE_SPANS + ("sim.vectorized.bht_miss_stream",),
        silent=_IO_SPANS,
    ),
    "journaled_resweep": Workload(
        experiment="fig6",
        benchmarks=FOCUS,
        length=20_000,
        workers=2,
        journaled=True,
        fires=_ENGINE_SPANS + _IO_SPANS,
        silent=("sim.vectorized.bht_miss_stream",),
    ),
}


def surface_rows(result) -> List[list]:
    """``[sweep, n, c, r, misprediction_rate, first_level_miss_rate]``
    for every point of an experiment result, in a canonical order."""
    rows = []
    for label, surface in result.data["surfaces"].items():
        for n, points in surface.tiers.items():
            for point in points:
                rows.append(
                    [
                        label,
                        n,
                        point.col_bits,
                        point.row_bits,
                        point.misprediction_rate,
                        point.first_level_miss_rate,
                    ]
                )
    rows.sort(key=lambda row: (row[0], row[1], row[3]))
    return rows


def sweep_digests(rows: List[list]) -> Dict[str, str]:
    """sha256 of each sweep's rows (floats by their exact repr)."""
    by_sweep: Dict[str, List[list]] = {}
    for row in rows:
        by_sweep.setdefault(row[0], []).append(row)
    return {
        label: hashlib.sha256(
            json.dumps(sweep_rows).encode("ascii")
        ).hexdigest()
        for label, sweep_rows in sorted(by_sweep.items())
    }


def point_intervals_ms(
    stamps: List[Tuple[float, int]],
    started: float,
    ended: float,
    batched: bool,
) -> List[float]:
    """Caller-visible time per completed point, in ms.

    ``stamps`` are ``(time, done)`` pairs from the ``on_point`` hook of
    one pass, run between ``started`` and ``ended``; ``done`` restarts
    at 1 with every sweep, and the sweeps run one after another. In a
    serial pass every point arrives on its own: the samples are the
    intervals between consecutive points of a sweep, and a sweep's
    first point, having no predecessor, gives none. With ``batched``
    (parallel workers) the caller sees points in bursts at the
    executor's poll, so their intervals would measure the poll, not the
    points. There a whole sweep is one arrival: the time from the
    previous sweep's last point (the pass's start, for the first) to
    its own (the pass's end, for the last), split evenly over its
    points.
    """
    by_sweep: List[List[float]] = []
    for stamp, done in stamps:
        if done == 1:
            by_sweep.append([])
        by_sweep[-1].append(stamp)
    samples: List[float] = []
    previous_end = started
    for index, sweep in enumerate(by_sweep):
        if batched:
            end = ended if index == len(by_sweep) - 1 else sweep[-1]
            share = (end - previous_end) * 1000.0 / len(sweep)
            samples.extend([share] * len(sweep))
            previous_end = end
        else:
            samples.extend(
                (b - a) * 1000.0 for a, b in zip(sweep, sweep[1:])
            )
    return samples


def sweeps(workload: Workload) -> List[Tuple[str, str, Optional[int]]]:
    """(surface label, benchmark, first-level entries) of each sweep."""
    if workload.experiment == "fig10":
        from repro.experiments.fig10 import BHT_SIZES

        return [
            (f"{entries} entries 4-way", workload.benchmarks[0], entries)
            for entries in BHT_SIZES
        ]
    return [(name, name, None) for name in workload.benchmarks]


def missing_points(workload: Workload, rows: List[list]) -> int:
    """Planned (sweep, n, row_bits) points absent from ``rows``."""
    present = {(row[0], row[1], row[3]) for row in rows}
    return sum(
        1
        for label, _, _ in sweeps(workload)
        for n in SIZE_BITS
        for row_bits in range(n + 1)
        if (label, n, row_bits) not in present
    )


def reference_mismatches(
    workload: Workload, rows: List[list], traces
) -> Tuple[int, int]:
    """(checked, mismatched) sample points against the reference engine."""
    from repro.sim.engine import simulate
    from repro.sim.sweep import spec_for_point

    scheme = {"fig4": "gas", "fig6": "gshare", "fig10": "pas"}[
        workload.experiment
    ]
    table = {(row[0], row[1], row[3]): row for row in rows}
    checked = mismatched = 0
    for label, benchmark, entries in sweeps(workload):
        for n, row_bits in REFERENCE_SAMPLE:
            spec = spec_for_point(
                scheme, n - row_bits, row_bits, bht_entries=entries
            )
            result = simulate(spec, traces[benchmark], engine="reference")
            expected = [
                label,
                n,
                n - row_bits,
                row_bits,
                result.misprediction_rate,
                result.first_level_miss_rate,
            ]
            checked += 1
            if table.get((label, n, row_bits)) != expected:
                mismatched += 1
    return checked, mismatched


def run_job(
    workload: Workload,
    seed: int,
    tmp_root: str,
    reference: bool,
    trace: bool,
    spans_out: Optional[str],
) -> Dict:
    """Set up, run the timed job, then check it.

    Returns ``wall_s``, ``setup_s``, ``branches`` simulated,
    ``intervals_ms`` (per-point samples), ``peak_rss_mib``, the
    correctness counts (``planned``, ``missing``, ``diverged``,
    ``reference_checked``, ``reference_mismatched``), per-sweep
    ``digests`` and the ``numpy`` version; a traced job adds ``layers``
    (per-layer metrics) and ``coverage_problems``.
    """
    import numpy

    from repro.experiments.base import ExperimentOptions
    from repro.experiments.runner import run_experiment
    from repro.obs.metrics import REGISTRY
    import repro.workloads.registry as registry

    recorder = None
    if trace:
        from layers import SpanRecorder
        from repro.obs.profile import enable_profiling

        recorder = SpanRecorder(run_id=f"{os.getpid()}-{seed}")
        recorder.install()
        enable_profiling()

    # -- set-up: temporary dirs and the traces ----------------------------
    setup_started = time.perf_counter()
    job_dir = tempfile.mkdtemp(prefix="job-", dir=tmp_root)
    checkpoint_dirs: List[Optional[str]] = [None]
    if workload.journaled:
        checkpoint_dirs = [
            os.path.join(job_dir, "checkpoint-cold"),
            os.path.join(job_dir, "checkpoint-warm"),
        ]
        store = os.path.join(job_dir, "results")
        for directory in checkpoint_dirs + [store]:
            os.makedirs(directory)
        os.environ["REPRO_RESULT_STORE"] = store
    # The benchmark programs are the ones ``repro run`` simulates by
    # default (structure seed 0); ``seed`` picks the dynamic path
    # through them, so every seed runs the same static branches.
    traces = {
        name: registry.make_workload(
            name,
            length=workload.length,
            seed=PROGRAM_SEED,
            trace_seed=seed,
            cache=False,
        )
        for name in workload.benchmarks
    }
    setup_s = time.perf_counter() - setup_started

    class PregeneratedOptions(ExperimentOptions):
        """Hands the experiment the traces made in set-up."""

        def trace(self, benchmark: str):
            return traces[benchmark]

    # -- the timed job ----------------------------------------------------
    passes = []
    branches_before = REGISTRY.counter("sim.branches").value
    job_started = time.perf_counter()
    for checkpoint_dir in checkpoint_dirs:
        stamps: List[Tuple[float, int]] = []
        options = PregeneratedOptions(
            length=workload.length,
            seed=PROGRAM_SEED,
            size_bits=SIZE_BITS,
            workers=workload.workers,
            checkpoint_dir=checkpoint_dir,
            on_point=lambda point, done, total: stamps.append(
                (time.perf_counter(), done)
            ),
        )
        pass_started = time.perf_counter()
        result = run_experiment(workload.experiment, options)
        passes.append((stamps, result, pass_started, time.perf_counter()))
    wall_s = time.perf_counter() - job_started
    branches = REGISTRY.counter("sim.branches").value - branches_before

    # -- after the timed window -------------------------------------------
    # Points are computed only in the first pass; a warm pass lands
    # everything from the result store in one burst per sweep.
    stamps, _, pass_started, pass_ended = passes[0]
    intervals = point_intervals_ms(
        stamps,
        pass_started,
        pass_ended,
        batched=workload.workers > 1,
    )
    pass_rows = [surface_rows(result) for _, result, _, _ in passes]
    planned = POINTS_PER_SWEEP * len(sweeps(workload)) * len(passes)
    missing = sum(missing_points(workload, rows) for rows in pass_rows)
    # A warm pass must reproduce the cold pass point for point.
    diverged = sum(
        1
        for rows in pass_rows[1:]
        for a, b in zip(rows, pass_rows[0])
        if a != b
    )
    per_layer = problems = None
    if recorder is not None:
        from layers import coverage_problems, layer_metrics

        recorder.uninstall()
        per_layer = layer_metrics(recorder, workload.workers)
        problems = coverage_problems(
            recorder, workload.fires, workload.silent
        )
        if spans_out:
            recorder.write(spans_out)
    checked = mismatched = 0
    if reference:
        checked, mismatched = reference_mismatches(
            workload, pass_rows[0], traces
        )

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out = {
        "wall_s": wall_s,
        "setup_s": setup_s,
        "branches": branches,
        "intervals_ms": intervals,
        "peak_rss_mib": max(own, children) / 1024.0,
        "planned": planned,
        "missing": missing,
        "diverged": diverged,
        "digests": sweep_digests(pass_rows[0]),
        "reference_checked": checked,
        "reference_mismatched": mismatched,
        "numpy": numpy.__version__,
    }
    if recorder is not None:
        out["layers"] = per_layer
        out["coverage_problems"] = problems
    shutil.rmtree(job_dir, ignore_errors=True)
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--tmp-root", required=True)
    parser.add_argument("--reference", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans-out")
    args = parser.parse_args(argv)
    result = run_job(
        WORKLOADS[args.workload],
        args.seed,
        args.tmp_root,
        reference=args.reference,
        trace=args.trace,
        spans_out=args.spans_out,
    )
    with open(args.out, "w", encoding="ascii") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
