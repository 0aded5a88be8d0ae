"""Client helpers behind ``repro submit|status|fetch|cancel``.

The transport is the filesystem: submitting writes a durable job file
into the queue directory (exclusive creation — safe against concurrent
submitters and against the daemon), status reads the queue, fetch
reads the CRC-stamped result artifact the daemon wrote, and cancel
drops the out-of-band sidecar flag the daemon honors between passes.
No socket, no protocol version skew, and a client can outlive (or
predate) the daemon: jobs submitted while no daemon runs are served
the moment one starts.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.experiments.base import DEFAULT_LENGTH, DEFAULT_SIZE_BITS

from repro.serve.queue import Job, JobQueue, JobSpec, ServeError, summarize


def submit_job(
    queue_dir: str,
    experiment: str,
    benchmarks: Sequence[str] = (),
    length: int = DEFAULT_LENGTH,
    seed: int = 0,
    size_bits: Sequence[int] = DEFAULT_SIZE_BITS,
) -> Tuple[Job, bool]:
    """Enqueue one figure job; returns ``(job, attached)``.

    ``attached=True`` means an identical job was already queued or
    running and this submission joined it instead of duplicating work.
    """
    spec = JobSpec(
        experiment=experiment,
        benchmarks=tuple(benchmarks),
        length=length,
        seed=seed,
        size_bits=tuple(size_bits),
    )
    return JobQueue(queue_dir).submit(spec)


def job_status(
    queue_dir: str, job_id: Optional[str] = None
) -> List[Dict[str, Any]]:
    """Status rows for one job (by id) or the whole queue."""
    queue = JobQueue(queue_dir)
    if job_id is not None:
        return summarize([queue.find(job_id)])
    return summarize(queue.jobs())


def fetch_result(queue_dir: str, job_id: str) -> Dict[str, Any]:
    """The finished job's artifact payload (id, title, rendered text).

    Validates the artifact's schema and CRC; a job that has not
    finished (or whose artifact is damaged) raises with the job's
    current state so the caller knows whether to wait, resubmit, or
    run ``repro doctor --queue``.
    """
    from repro.runtime.checkpoint import record_crc

    from repro.serve.daemon import JOB_RESULT_SCHEMA

    job = JobQueue(queue_dir).find(job_id)
    try:
        with open(job.result_path(), "r", encoding="ascii") as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        raise ServeError(
            f"job {job_id} has no readable result (state: {job.state}); "
            "wait for the daemon to finish it, or check `repro status`"
        ) from None
    if (
        not isinstance(payload, dict)
        or payload.get("schema") != JOB_RESULT_SCHEMA
        or payload.get("crc") != record_crc(payload)
    ):
        raise ServeError(
            f"result artifact for job {job_id} is damaged; re-submit "
            "the job (the result cache makes the re-run cheap)"
        )
    return payload


def cancel_job(queue_dir: str, job_id: str) -> Job:
    """Flag a live job for cancellation; returns its snapshot."""
    return JobQueue(queue_dir).request_cancel(job_id)
