"""Durable job-queue tests (see :mod:`repro.serve.queue`).

The queue is append-only JSONL with the ledger's CRC stamp on every
line: submitters create headers exclusively, the daemon is the sole
event appender, and torn tails roll the job back to its last good
state instead of corrupting it.
"""

import os
import threading

import pytest

from repro.obs import reset_metrics, snapshot
from repro.serve.queue import (
    JobQueue,
    JobSpec,
    ServeError,
    summarize,
)


@pytest.fixture(autouse=True)
def _clean_metrics():
    reset_metrics()
    yield
    reset_metrics()


def _spec(**overrides):
    base = dict(
        experiment="fig4",
        benchmarks=("compress",),
        length=2_000,
        seed=0,
        size_bits=(4, 5),
    )
    base.update(overrides)
    return JobSpec(**base)


class TestJobSpec:
    def test_key_is_content_addressed(self):
        assert _spec().key() == _spec().key()
        assert _spec().key() != _spec(length=3_000).key()
        assert _spec().key() != _spec(experiment="fig6").key()

    def test_json_roundtrip(self):
        spec = _spec()
        assert JobSpec.from_json(spec.to_json()) == spec


class TestSubmit:
    def test_submit_creates_durable_job(self, tmp_path):
        queue = JobQueue(str(tmp_path))
        job, attached = queue.submit(_spec())
        assert not attached
        assert job.state == "queued"
        assert os.path.exists(job.path)
        loaded = queue.find(job.id)
        assert loaded.spec == _spec()

    def test_identical_live_job_dedups(self, tmp_path):
        queue = JobQueue(str(tmp_path))
        first, _ = queue.submit(_spec())
        second, attached = queue.submit(_spec())
        assert attached
        assert second.id == first.id
        counters = snapshot()["counters"]
        assert counters["serve.jobs_submitted"] == 1
        assert counters["serve.jobs_deduped"] == 1

    def test_different_specs_never_dedup(self, tmp_path):
        queue = JobQueue(str(tmp_path))
        a, _ = queue.submit(_spec())
        b, attached = queue.submit(_spec(experiment="fig6"))
        assert not attached
        assert a.id != b.id

    def test_terminal_job_gets_a_fresh_sequence(self, tmp_path):
        queue = JobQueue(str(tmp_path))
        first, _ = queue.submit(_spec())
        queue.append_event(first, "done", {"points": 11})
        second, attached = queue.submit(_spec())
        assert not attached
        assert second.id != first.id
        assert second.state == "queued"

    def test_concurrent_identical_submissions_share_one_job(
        self, tmp_path
    ):
        queue_dir = str(tmp_path)
        outcomes = []
        barrier = threading.Barrier(8)

        def submit():
            barrier.wait()
            job, attached = JobQueue(queue_dir).submit(_spec())
            outcomes.append((job.id, attached))

        threads = [threading.Thread(target=submit) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        ids = {job_id for job_id, _ in outcomes}
        assert len(ids) == 1
        assert sum(1 for _, attached in outcomes if not attached) == 1

    def test_submit_racing_a_fresh_job_file_attaches(
        self, tmp_path, monkeypatch
    ):
        # Run a second submit the instant the first one's job file
        # appears on disk (os.open creates it, os.link publishes it):
        # the file must already carry its header, so the racer attaches
        # instead of reading a headerless file and enqueueing again.
        queue = JobQueue(str(tmp_path))
        racer = []

        def after_job_file_appears(real):
            def call(*args, **kwargs):
                result = real(*args, **kwargs)
                if not racer and any(
                    str(arg).endswith(".job") for arg in args
                ):
                    racer.append(None)  # first: the racer must not re-fire
                    racer[0] = JobQueue(str(tmp_path)).submit(_spec())
                return result

            return call

        monkeypatch.setattr(os, "open", after_job_file_appears(os.open))
        monkeypatch.setattr(os, "link", after_job_file_appears(os.link))
        first, first_attached = queue.submit(_spec())
        monkeypatch.undo()

        (second, second_attached), = racer
        assert not first_attached
        assert second_attached and second.id == first.id
        assert len(queue.job_paths()) == 1

    def test_submit_racing_after_the_scan_attaches(
        self, tmp_path, monkeypatch
    ):
        # Run a second submit right after the first one lists the
        # queue and finds nothing live: the first must not then number
        # its job past the racer's, but collide with it and attach.
        queue = JobQueue(str(tmp_path))
        racer = []
        listdir = os.listdir

        def listdir_then_race(path):
            names = listdir(path)
            if not racer:
                racer.append(None)  # first: the racer must not re-fire
                racer[0] = JobQueue(str(tmp_path)).submit(_spec())
            return names

        monkeypatch.setattr(os, "listdir", listdir_then_race)
        first, first_attached = queue.submit(_spec())
        monkeypatch.undo()

        (second, second_attached), = racer
        assert not second_attached
        assert first_attached and first.id == second.id
        assert len(queue.job_paths()) == 1


class TestEventsAndState:
    def test_state_follows_last_event(self, tmp_path):
        queue = JobQueue(str(tmp_path))
        job, _ = queue.submit(_spec())
        queue.append_event(job, "running", {"points": 11})
        queue.append_event(queue.find(job.id), "done", {"points": 11})
        final = queue.find(job.id)
        assert final.state == "done"
        assert final.detail["points"] == 11
        assert not final.is_live()

    def test_torn_event_tail_rolls_back(self, tmp_path):
        queue = JobQueue(str(tmp_path))
        job, _ = queue.submit(_spec())
        queue.append_event(job, "running", {"points": 11})
        with open(job.path, "a", encoding="ascii") as handle:
            handle.write('{"kind": "event", "state": "done"')  # torn
        loaded = queue.find(job.id)
        assert loaded.state == "running"

    def test_corrupt_header_skips_job(self, tmp_path):
        queue = JobQueue(str(tmp_path))
        job, _ = queue.submit(_spec())
        with open(job.path, "w", encoding="ascii") as handle:
            handle.write("not json\n")
        assert queue.jobs() == []

    def test_find_unknown_raises(self, tmp_path):
        with pytest.raises(ServeError):
            JobQueue(str(tmp_path)).find("no-such-job")

    def test_empty_directory_required(self):
        with pytest.raises(ServeError):
            JobQueue("")


class TestCancel:
    def test_cancel_drops_sidecar_for_live_job(self, tmp_path):
        queue = JobQueue(str(tmp_path))
        job, _ = queue.submit(_spec())
        queue.request_cancel(job.id)
        assert queue.find(job.id).cancel_requested()
        queue.clear_cancel(queue.find(job.id))
        assert not queue.find(job.id).cancel_requested()

    def test_cancel_of_terminal_job_is_a_noop(self, tmp_path):
        queue = JobQueue(str(tmp_path))
        job, _ = queue.submit(_spec())
        queue.append_event(job, "done", {})
        result = queue.request_cancel(job.id)
        assert result.state == "done"
        assert not result.cancel_requested()


class TestSummarize:
    def test_rows_carry_point_accounting(self, tmp_path):
        queue = JobQueue(str(tmp_path))
        job, _ = queue.submit(_spec())
        queue.append_event(
            job, "done", {"points": 11, "cache_hits": 4, "computed": 7}
        )
        (row,) = summarize([queue.find(job.id)])
        assert row["id"] == job.id
        assert row["experiment"] == "fig4"
        assert row["state"] == "done"
        assert row["points"] == 11
        assert row["cache_hits"] == 4
        assert row["computed"] == 7
