"""Crash salvage for the serve daemon, through the unit journal.

A SIGKILLed daemon leaves, per unit it was computing, a part-filled
unit journal under ``<queue>/pool/`` plus the journals of the workers
it had spawned. The next daemon pass must restore exactly those points,
compute only the rest, and render the same text as a one-shot run.
"""

import os

import pytest

from repro.cli import main
from repro.obs import get_tracer, reset_metrics, snapshot
from repro.runtime import CheckpointJournal, sweep_key
from repro.serve.client import submit_job
from repro.serve.daemon import ServeDaemon
from repro.serve.queue import JobQueue
from repro.sim.sweep import sweep_tiers
from repro.workloads.store import TraceStore

MICRO = dict(
    benchmarks=("compress",), length=2_000, seed=0, size_bits=(4, 5)
)
MICRO_ARGS = [
    "--benchmark", "compress", "--length", "2000", "--sizes", "4", "5",
]
MICRO_POINTS = 11


@pytest.fixture(autouse=True)
def _clean_runtime(monkeypatch):
    monkeypatch.delenv("REPRO_TRACE_STORE", raising=False)
    reset_metrics()
    get_tracer().reset()
    yield
    reset_metrics()
    get_tracer().close_sink()
    get_tracer().reset()


def test_killed_daemon_resumes_from_unit_and_worker_journals(
    tmp_path, capsys
):
    queue_dir = str(tmp_path / "q")
    job, _ = submit_job(queue_dir, "fig4", **MICRO)
    # The dead daemon had started the job (it re-queues at salvage).
    JobQueue(queue_dir).append_event(job, "running", {})

    # The trace the daemon plans, from the queue's own trace store.
    trace = TraceStore(os.path.join(queue_dir, "traces")).get(
        "compress", length=MICRO["length"], seed=MICRO["seed"]
    )
    points = [
        (n, point)
        for n, tier in sweep_tiers(
            "gas", trace, size_bits=MICRO["size_bits"]
        ).tiers.items()
        for point in tier
    ]
    key = sweep_key("gas", trace.fingerprint(), list(MICRO["size_bits"]))
    unit_path = os.path.join(queue_dir, "pool", f"{key}.journal")
    os.makedirs(unit_path + ".exec")
    unit = CheckpointJournal.open(unit_path, key, resume=False)
    for n, point in points[:4]:
        unit.append(n, point, flush=False)
    unit.flush()
    worker = CheckpointJournal.open(
        os.path.join(unit_path + ".exec", "worker-0001.journal"),
        key,
        resume=False,
    )
    for n, point in points[4:7]:
        worker.append(n, point, flush=False, token=1, shard=0)
    worker.flush()
    planted = 7

    reset_metrics()
    assert ServeDaemon(queue_dir, workers=2, once=True).run() == 0
    counters = snapshot()["counters"]
    assert counters["sweep.points_restored"] == planted
    assert counters["sweep.points_computed"] == MICRO_POINTS - planted
    (done,) = JobQueue(queue_dir).jobs()
    assert done.state == "done"
    assert os.listdir(os.path.join(queue_dir, "pool")) == []

    capsys.readouterr()
    assert main(["fetch", job.id, "--queue", queue_dir]) == 0
    fetched = capsys.readouterr().out
    assert main(["run", "fig4", *MICRO_ARGS, "--no-cache"]) == 0
    assert fetched == capsys.readouterr().out
