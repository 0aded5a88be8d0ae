"""The sweep benchmark: figure sweeps timed through ``run_experiment``.

Run from the root of a checkout::

    python3 perfbench/run.py --workload pas_bht_surface --seed 0 \
        --seconds 60 --trace 0

Each repetition runs in a fresh process (``perfbench/job.py``): set-up
generates the workload's traces from ``--seed``, then the timed job
runs the experiment on them. Repetitions continue while another one
still fits in ``--seconds`` (at least :data:`MIN_REPS` of them), and
the end-to-end metrics are medians over them. The first repetition also re-simulates a fixed
sample of points with the scalar reference engine, outside its timed
window. With ``--trace 1`` one more repetition runs with every layer
wrapped from outside and reports the per-layer metrics instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code
is 0 when every statistic checked out and 1 otherwise; 2 means the
benchmark could not run at all (for example outside a checkout).
A record of every run, stamped with the git revision, host and
versions, goes to ``.perfbench_runs/``; see perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave nothing behind under perfbench/

from job import WORKLOADS  # noqa: E402

#: Fewest timed repetitions per run, whatever ``--seconds`` says.
MIN_REPS = 3
#: Seconds a run may overrun ``--seconds`` (the traced repetition, a
#: slow host) before a repetition still running is killed and the run
#: fails. At ``--seconds 60`` every run ends within 170 s.
RUN_SLACK_S = 110
RUNS_DIR = ".perfbench_runs"
TMP_DIR = ".perfbench_tmp"


class BenchmarkError(Exception):
    """The benchmark cannot run here."""


def child_env(tmp_root: str) -> Dict[str, str]:
    """The environment of every repetition: every ``REPRO_*`` variable
    cleared (result and trace stores, fault spec, lease backend and
    TTL, serve queue, ledger, bench record, git rev), the ledger off,
    temporary files in the checkout, no bytecode written.
    """
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env["REPRO_LEDGER"] = ""  # empty disables the run ledger
    env["PYTHONPATH"] = os.path.abspath("src")
    env["TMPDIR"] = tmp_root
    # Whatever the caller's setting, every repetition compiles the
    # program from source and leaves no bytecode in the checkout.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_rep(
    workload: str,
    seed: int,
    tmp_root: str,
    index: int,
    deadline: float,
    reference: bool = False,
    trace: bool = False,
    spans_out: Optional[str] = None,
) -> Dict:
    """One repetition in a fresh process, killed at the monotonic
    ``deadline``; its result dict."""
    out = os.path.join(tmp_root, f"rep-{index}.json")
    command = [
        sys.executable,
        os.path.join(HERE, "job.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--out", out,
        "--tmp-root", tmp_root,
    ]
    if reference:
        command.append("--reference")
    if trace:
        command.append("--trace")
    if spans_out:
        command += ["--spans-out", spans_out]
    process = subprocess.Popen(
        command,
        env=child_env(tmp_root),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        _, stderr = process.communicate(
            timeout=max(1.0, deadline - time.monotonic())
        )
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise BenchmarkError(
            f"repetition {index} still running at the run's deadline"
        ) from None
    finally:
        # Worker processes of the job share its session; none may
        # outlive it.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if process.returncode != 0:
        raise BenchmarkError(
            f"repetition {index} exited {process.returncode}:\n"
            + stderr.decode(errors="replace")[-2000:]
        )
    with open(out, encoding="ascii") as handle:
        return json.load(handle)


def git_rev() -> str:
    """HEAD of the checkout, or ``unknown`` when it is not a git one."""
    if not os.path.isdir(".git"):
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def pinned_digests(workload: str, seed: int) -> Optional[Dict[str, str]]:
    """The sweep digests pinned in expected.json, if made at ``seed``."""
    with open(os.path.join(HERE, "expected.json"), encoding="ascii") as f:
        expected = json.load(f)
    if seed != expected["seed"]:
        return None
    return expected["digests"].get(workload)


def verdict(
    workload: str, seed: int, reps: List[Dict], traced: Optional[Dict]
) -> Dict[str, object]:
    """Correctness over every repetition: attempted and failed points.

    A point fails when it is missing, when its sweep's digest differs
    from the first repetition's (or, at the seed expected.json was made
    with, from the pinned one), when a warm pass diverged from the cold
    pass, or when a reference-sampled point disagrees with the scalar
    engine.
    """
    baseline = pinned_digests(workload, seed) or reps[0]["digests"]
    per_sweep = reps[0]["planned"] // max(1, len(baseline))
    attempted = failed = 0
    problems: List[str] = []
    for rep in reps + ([traced] if traced else []):
        attempted += rep["planned"]
        bad = rep["missing"] + rep["diverged"] + rep["reference_mismatched"]
        for label, digest in baseline.items():
            if rep["digests"].get(label) != digest:
                bad += per_sweep
                problems.append(f"sweep {label!r} digest {rep['digests'].get(label)}")
        failed += min(bad, rep["planned"])
        if rep["missing"] or rep["diverged"]:
            problems.append(
                f"{rep['missing']} missing, {rep['diverged']} diverged points"
            )
        if rep["reference_mismatched"]:
            problems.append(
                f"{rep['reference_mismatched']} of {rep['reference_checked']}"
                " points differ from the reference engine"
            )
    checked = sum(rep["reference_checked"] for rep in reps)
    if not checked:
        problems.append("no point was checked against the reference engine")
    if traced and traced.get("coverage_problems"):
        problems += traced["coverage_problems"]
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }


def end_to_end(reps: List[Dict]) -> Dict[str, float]:
    """Medians over the repetitions; a repetition's point percentiles
    are over its own point intervals."""
    ventiles = [
        statistics.quantiles(rep["intervals_ms"], n=20, method="inclusive")
        for rep in reps
    ]
    return {
        "wall_s": statistics.median(rep["wall_s"] for rep in reps),
        "branches_per_s": statistics.median(
            rep["branches"] / rep["wall_s"] for rep in reps
        ),
        "point_p50_ms": statistics.median(v[9] for v in ventiles),
        "point_p95_ms": statistics.median(v[18] for v in ventiles),
        "setup_s": statistics.median(rep["setup_s"] for rep in reps),
        "peak_rss_mib": statistics.median(rep["peak_rss_mib"] for rep in reps),
    }


def declared_metrics(trace: bool) -> List[Dict[str, str]]:
    """The metrics ``BENCHMARK.json`` names for this kind of run."""
    with open("BENCHMARK.json", encoding="ascii") as handle:
        spec = json.load(handle)
    return spec["per_layer" if trace else "end_to_end"]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print(
            "error: run from the root of a repro checkout "
            "(src/repro not found)",
            file=sys.stderr,
        )
        return 2
    declared = declared_metrics(bool(args.trace))
    os.makedirs(TMP_DIR, exist_ok=True)
    tmp_root = os.path.abspath(tempfile.mkdtemp(prefix="run-", dir=TMP_DIR))
    started = time.monotonic()
    deadline = started + args.seconds + RUN_SLACK_S
    stamp = time.strftime("%Y%m%dT%H%M%S")
    os.makedirs(RUNS_DIR, exist_ok=True)
    base = os.path.join(
        RUNS_DIR, f"{stamp}-{args.workload}-s{args.seed}-t{args.trace}"
    )
    try:
        reps: List[Dict] = []
        # Another repetition while one of the mean length so far still
        # ends within --seconds, so a run measures for at most that long
        # (past it only to make MIN_REPS).
        while len(reps) < MIN_REPS or (
            (time.monotonic() - started) * (len(reps) + 1) / len(reps)
            <= args.seconds
        ):
            reps.append(
                run_rep(
                    args.workload,
                    args.seed,
                    tmp_root,
                    len(reps),
                    deadline,
                    reference=not reps,
                )
            )
        traced = None
        if args.trace:
            traced = run_rep(
                args.workload,
                args.seed,
                tmp_root,
                len(reps),
                deadline,
                trace=True,
                spans_out=base + ".spans.jsonl",
            )
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)

    result = verdict(args.workload, args.seed, reps, traced)
    e2e = end_to_end(reps)
    if traced is None:
        metrics = e2e
    else:
        metrics = dict(traced["layers"])
        metrics["trace.overhead_s"] = traced["wall_s"] - e2e["wall_s"]
        metrics["failed_ratio"] = result["failed"] / result["attempted"]
    workload = WORKLOADS[args.workload]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_rev": git_rev(),
        "host_cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": reps[0]["numpy"],
        "trace_length": workload.length,
        "workers": workload.workers,
        "reps": len(reps),
        "point_samples": sum(len(rep["intervals_ms"]) for rep in reps),
        "verdict": result,
        "end_to_end": e2e,
        "metrics": metrics,
        "rep_wall_s": [rep["wall_s"] for rep in reps],
        "rep_setup_s": [rep["setup_s"] for rep in reps],
        "traced_wall_s": traced["wall_s"] if traced else None,
    }
    with open(base + ".json", "w", encoding="ascii") as handle:
        json.dump(record, handle, indent=1)
    for problem in result["problems"]:
        print(f"correctness: {problem}", file=sys.stderr)
    print(
        f"{args.workload} seed={args.seed}: {len(reps)} reps, "
        f"wall_s median {e2e['wall_s']:.3f}, record {base}.json",
        file=sys.stderr,
    )
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    metric["name"]: {
                        "value": metrics[metric["name"]],
                        "unit": metric["unit"],
                    }
                    for metric in declared
                },
            }
        )
    )
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
