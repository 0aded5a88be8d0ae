"""Counter-kernel microbench: the segmented scan alone, on synthetic streams.

No workload is generated and no predictor index is computed: each
stream is ``T`` accesses to ``budget`` counters (uniform random counter
indices, a per-counter taken bias drawn uniformly), pre-sorted by
counter, so the timings isolate :func:`repro.sim.fsm_scan.scan_automaton`
from trace generation and the index-stream layer. Both scan paths run
on every stream:

* ``clamp`` — the clamp-form scan with early exit, which every counter
  table takes;
* ``table`` — the general ``(T, S)`` function-table scan, which any
  other automaton takes.

Streams: ``T`` in {1e5, 1e6} times budgets 2^4..2^15, plus the clamp
path's worst case, one 2-bit counter fed a never-saturating T/N
alternation (every step runs all ``log2(T)`` passes). The bench prints
ns per step for both paths, asserts their outputs are identical and
that the clamp path is never the slower one, and records per-(T, path)
totals and the worst case in ``BENCH_sweep.json`` (``branches_per_sec``
there is scanned steps per second).

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_kernel.py -s``.
"""

import time

import numpy as np

from repro.predictors.counters import counter_init_state, counter_transitions
from repro.sim import fsm_scan

LENGTHS = (100_000, 1_000_000)
BUDGET_BITS = tuple(range(4, 16))
COUNTER_BITS = 2


def random_stream(length, budget, seed):
    """Sorted (inputs, segment ids) of ``length`` accesses to ``budget``
    counters."""
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, budget, size=length)
    bias = rng.random(budget)
    taken = rng.random(length) < bias[idx]
    order = np.argsort(idx, kind="stable")
    return taken[order].astype(np.uint8), idx[order]


def alternating_stream(length):
    """One counter, taken and not-taken in turn: it never saturates."""
    inputs = (np.arange(length) % 2).astype(np.uint8)
    return inputs, np.zeros(length, dtype=np.int64)


def time_paths(inputs, segments, repeats):
    """Best-of-``repeats`` seconds of each path, and its output."""
    table = counter_transitions(COUNTER_BITS)
    init = counter_init_state(COUNTER_BITS)
    form = fsm_scan.clamp_form(table)
    top = table.shape[1] - 1
    runs = {
        "clamp": lambda: fsm_scan._clamp_scan(
            form, top, inputs, segments, init
        ),
        "table": lambda: fsm_scan._table_scan(table, inputs, segments, init),
    }
    seconds, outputs = {}, {}
    for path, run in runs.items():
        best = float("inf")
        for _ in range(repeats):
            started = time.perf_counter()
            outputs[path] = run()
            best = min(best, time.perf_counter() - started)
        seconds[path] = best
    return seconds, outputs


def streams():
    """(group, detail, length, (inputs, segments)), made one at a time."""
    for length in LENGTHS:
        group = f"T{length:.0e}".replace("+", "")
        for bits in BUDGET_BITS:
            yield (group, f"budget=2^{bits}", length,
                   random_stream(length, 1 << bits, seed=bits))
    yield ("alternating", "one counter", LENGTHS[-1],
           alternating_stream(LENGTHS[-1]))


def bench_kernel(bench_record):
    totals = {}
    print()
    print(f"{'stream':<28} {'clamp ns/step':>14} {'table ns/step':>14}")
    for group, detail, length, (inputs, segments) in streams():
        label = f"{group} {detail}"
        seconds, outputs = time_paths(
            inputs, segments, repeats=3 if length <= 100_000 else 2
        )
        assert np.array_equal(outputs["clamp"], outputs["table"]), label
        assert seconds["clamp"] <= seconds["table"], (label, seconds)
        print(
            f"{label:<28} {seconds['clamp'] * 1e9 / length:>14.1f} "
            f"{seconds['table'] * 1e9 / length:>14.1f}"
        )
        for path, value in seconds.items():
            steps, total = totals.get((group, path), (0, 0.0))
            totals[(group, path)] = (steps + length, total + value)
    for (group, path), (steps, total) in sorted(totals.items()):
        bench_record(
            f"kernel_{path}_{group}",
            branches_per_sec=steps / total,
            wall_s=total,
            engine=path,
        )
