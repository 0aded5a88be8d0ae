"""Integrity doctor: scan and repair journals and the trace store.

``repro doctor`` is the operational answer to "a host died mid-sweep /
a disk lied — can I trust what's on disk?". It scans two artifact
families:

* **Checkpoint journals** — header/key validation, per-line CRC and
  JSON checks, fencing-token monotonicity per shard, and a rebuilt
  ``completed()`` summary. ``--repair`` preserves the original bytes
  to a ``.quarantine`` sidecar and truncates the journal to its last
  good line, leaving a cleanly resumable file.
* **The trace store** — every ``.npz`` is loaded and, for
  fingerprint-keyed files (``fp-<hash>.npz``), re-hashed against its
  filename. ``--repair`` moves corrupt or mismatched artifacts aside
  (``.quarantine`` suffix) so the store regenerates them on next use.
* **The result store** (``--results``) — every ``rs-<key>.json``
  cache artifact is schema-, CRC- and key-verified; repair quarantines
  liars so the next request is an honest cache miss.
* **The serve queue** (``--queue``) — job files get the journal
  treatment (unrecoverable headers quarantine the file, torn event
  tails truncate to the last good event) and finished-job result
  artifacts are CRC-verified.

Findings reuse the ``repro check`` machinery: exit 0 clean, 1 when
something needs attention, 2 on internal error. Repairs count the
``doctor.repairs`` metric.
"""

from __future__ import annotations

import glob
import json
import os
from typing import Dict, List, Optional, Tuple

from repro.check.findings import CheckReport, Finding
from repro.errors import CheckError
from repro.obs.metrics import counter
from repro.runtime.checkpoint import (
    JOURNAL_VERSION,
    _decode_point_line,
    atomic_write_text,
    quarantine_path,
)


def _read_lines(path: str) -> List[str]:
    try:
        with open(path, "r", encoding="ascii", errors="replace") as handle:
            return handle.read().splitlines()
    except OSError as exc:
        raise CheckError(f"cannot read {path!r}: {exc}") from exc


def _repair_journal(
    path: str, original: List[str], good: List[str]
) -> None:
    """Quarantine the original bytes, rewrite only the good lines."""
    atomic_write_text(quarantine_path(path), "\n".join(original) + "\n")
    atomic_write_text(path, "\n".join(good) + "\n")
    counter("doctor.repairs").inc()


def scan_journal(
    path: str, key: Optional[str] = None, repair: bool = False
) -> List[Finding]:
    """Findings for one checkpoint journal; optionally repair it.

    ``key`` (when given) must match the journal's header key — a
    mismatch is reported, not repaired, because the journal may simply
    belong to a different sweep.
    """
    findings: List[Finding] = []
    if not os.path.exists(path):
        return [
            Finding(
                check="doctor.journal-missing",
                severity="error",
                why="journal file does not exist",
                location=path,
            )
        ]
    lines = _read_lines(path)
    if not lines:
        return [
            Finding(
                check="doctor.journal-empty",
                severity="warning",
                why="journal is empty (nothing to resume)",
                location=path,
            )
        ]
    header_ok = False
    try:
        header = json.loads(lines[0])
        header_ok = (
            isinstance(header, dict)
            and header.get("kind") == "header"
            and header.get("version") == JOURNAL_VERSION
        )
    except ValueError:
        header = None
    if not header_ok:
        findings.append(
            Finding(
                check="doctor.journal-header",
                severity="error",
                why="corrupt or unrecognized journal header",
                location=f"{path}:1",
            )
        )
        if repair:
            # Nothing after a bad header is trustworthy: quarantine
            # the whole file and remove it so the sweep starts clean.
            atomic_write_text(
                quarantine_path(path), "\n".join(lines) + "\n"
            )
            os.remove(path)
            counter("doctor.repairs").inc()
            findings.append(
                Finding(
                    check="doctor.journal-repaired",
                    severity="info",
                    why="journal quarantined and removed "
                    "(unrecoverable header)",
                    location=path,
                )
            )
        return findings
    if key is not None and header.get("key") != key:
        findings.append(
            Finding(
                check="doctor.journal-key",
                severity="warning",
                why=f"journal key {header.get('key')!r} does not match "
                f"expected {key!r} (different sweep)",
                location=f"{path}:1",
            )
        )
        return findings

    good: List[str] = [lines[0]]
    completed: set = set()
    fence_high: Dict[int, int] = {}
    bad_lines = 0
    superseded = 0
    for lineno, line in enumerate(lines[1:], start=2):
        payload = _decode_point_line(line)
        if payload is None:
            bad_lines += 1
            at_end = lineno == len(lines)
            findings.append(
                Finding(
                    check="doctor.journal-line",
                    severity="warning" if at_end else "error",
                    why=(
                        "torn tail (truncated final line)"
                        if at_end
                        else "corrupt entry (bad JSON or CRC mismatch)"
                    ),
                    location=f"{path}:{lineno}",
                )
            )
            continue
        token = payload.get("token")
        shard = payload.get("shard")
        if isinstance(token, int) and isinstance(shard, int):
            high = fence_high.get(shard, 0)
            if token < high:
                superseded += 1
                findings.append(
                    Finding(
                        check="doctor.journal-fence",
                        severity="error",
                        why=f"zombie append: token {token} for shard "
                        f"{shard} is superseded (current {high})",
                        location=f"{path}:{lineno}",
                    )
                )
                continue
            fence_high[shard] = max(high, token)
        good.append(line)
        completed.add((payload["n"], payload["row_bits"]))
    if bad_lines == 0 and superseded == 0:
        findings.append(
            Finding(
                check="doctor.journal-ok",
                severity="info",
                why=f"journal intact: {len(completed)} completed "
                "point(s) resumable",
                location=path,
            )
        )
    elif repair:
        _repair_journal(path, lines, good)
        findings.append(
            Finding(
                check="doctor.journal-repaired",
                severity="info",
                why=f"journal truncated to last good line: "
                f"{len(completed)} point(s) kept, "
                f"{bad_lines + superseded} line(s) quarantined",
                location=path,
            )
        )
    return findings


def scan_checkpoint_dir(
    directory: str, repair: bool = False
) -> List[Finding]:
    """Scan every ``*.journal`` under a checkpoint directory."""
    findings: List[Finding] = []
    pattern = os.path.join(directory, "*.journal")
    paths = sorted(glob.glob(pattern))
    if not paths:
        findings.append(
            Finding(
                check="doctor.no-journals",
                severity="info",
                why="no journals found",
                location=directory,
            )
        )
    for path in paths:
        findings.extend(scan_journal(path, repair=repair))
    return findings


def _store_fingerprint_of(path: str) -> Optional[str]:
    """The fingerprint embedded in an ``fp-<hash>.npz`` filename."""
    stem = os.path.basename(path)
    if not stem.startswith("fp-") or not stem.endswith(".npz"):
        return None
    return stem[len("fp-") : -len(".npz")]


def _quarantine_artifact(path: str) -> None:
    os.replace(path, path + ".quarantine")
    counter("doctor.repairs").inc()


def scan_store(directory: str, repair: bool = False) -> List[Finding]:
    """Findings for a trace store directory; optionally repair it.

    Every archive must load; fingerprint-keyed archives must also
    re-hash to the fingerprint in their filename (a mismatch means the
    bytes rotted or were tampered with — either way the cache entry is
    a lie and workers loading it would simulate a different trace).
    """
    from repro.errors import TraceError
    from repro.traces.io import load_trace
    from repro.workloads.store import TraceStore

    findings: List[Finding] = []
    store = TraceStore(directory)
    files = store.stored_files()
    if not files:
        return [
            Finding(
                check="doctor.store-empty",
                severity="info",
                why="trace store is empty",
                location=directory,
            )
        ]
    healthy = 0
    for path in files:
        try:
            trace = load_trace(path)
        except TraceError as exc:
            findings.append(
                Finding(
                    check="doctor.store-corrupt",
                    severity="error",
                    why=f"unloadable trace archive: {exc}",
                    location=path,
                )
            )
            if repair:
                _quarantine_artifact(path)
                findings.append(
                    Finding(
                        check="doctor.store-repaired",
                        severity="info",
                        why="corrupt archive quarantined "
                        "(will regenerate on next use)",
                        location=path,
                    )
                )
            continue
        expected = _store_fingerprint_of(path)
        if expected is not None and trace.fingerprint() != expected:
            findings.append(
                Finding(
                    check="doctor.store-fingerprint",
                    severity="error",
                    why="content hash does not match the fingerprint "
                    "in the filename",
                    location=path,
                )
            )
            if repair:
                _quarantine_artifact(path)
                findings.append(
                    Finding(
                        check="doctor.store-repaired",
                        severity="info",
                        why="mismatched archive quarantined",
                        location=path,
                    )
                )
            continue
        healthy += 1
    findings.append(
        Finding(
            check="doctor.store-ok",
            severity="info",
            why=f"{healthy}/{len(files)} archive(s) verified",
            location=directory,
        )
    )
    return findings


def scan_result_store(
    directory: str, repair: bool = False
) -> List[Finding]:
    """Findings for a result store directory; optionally repair it.

    Every ``rs-<key>.json`` artifact must parse, carry the result
    schema, pass its CRC, and embed the key its filename claims — a
    failure on any axis means the cache entry would be served as a
    sweep point that was never simulated under that address. Repair
    quarantines the artifact; the next request for that key is simply
    a cache miss that recomputes it.
    """
    import json as _json

    from repro.runtime.checkpoint import record_crc

    from repro.serve.results import RESULT_SCHEMA, ResultStore

    findings: List[Finding] = []
    store = ResultStore(directory)
    files = store.stored_files()
    if not files:
        return [
            Finding(
                check="doctor.results-empty",
                severity="info",
                why="result store is empty",
                location=directory,
            )
        ]
    healthy = 0
    for path in files:
        stem = os.path.basename(path)
        claimed = stem[len("rs-") : -len(".json")]
        why = None
        try:
            with open(path, "r", encoding="ascii") as handle:
                payload = _json.load(handle)
        except (OSError, ValueError):
            payload = None
            why = "unparseable result artifact"
        if why is None:
            if (
                not isinstance(payload, dict)
                or payload.get("schema") != RESULT_SCHEMA
            ):
                why = "missing or unrecognized result schema"
            elif payload.get("crc") != record_crc(payload):
                why = "CRC mismatch (bytes rotted or torn)"
            elif payload.get("key") != claimed:
                why = (
                    f"stored key {payload.get('key')!r} does not match "
                    "the key in the filename"
                )
            elif not isinstance(payload.get("point"), dict):
                why = "artifact carries no point payload"
        if why is not None:
            findings.append(
                Finding(
                    check="doctor.results-corrupt",
                    severity="error",
                    why=why,
                    location=path,
                )
            )
            if repair:
                _quarantine_artifact(path)
                findings.append(
                    Finding(
                        check="doctor.results-repaired",
                        severity="info",
                        why="corrupt result quarantined (next request "
                        "recomputes it)",
                        location=path,
                    )
                )
            continue
        healthy += 1
    findings.append(
        Finding(
            check="doctor.results-ok",
            severity="info",
            why=f"{healthy}/{len(files)} result artifact(s) verified",
            location=directory,
        )
    )
    return findings


def scan_queue(directory: str, repair: bool = False) -> List[Finding]:
    """Findings for a serve queue directory; optionally repair it.

    Job files get the journal treatment: an unreadable header
    quarantines the whole file (the job is unrecoverable — resubmit
    it), while torn or corrupt event lines truncate back to the last
    good event, which is always safe because every job state is either
    re-derivable by the daemon or terminal. Finished-job result
    artifacts are CRC-verified the same way the fetch client does.
    """
    import json as _json

    from repro.runtime.checkpoint import record_crc

    from repro.serve.daemon import JOB_RESULT_SCHEMA
    from repro.serve.queue import JobQueue, _decode_line

    findings: List[Finding] = []
    queue = JobQueue(directory)
    paths = queue.job_paths()
    if not paths and not glob.glob(
        os.path.join(directory, "job-*.result.json")
    ):
        return [
            Finding(
                check="doctor.queue-empty",
                severity="info",
                why="no job files found",
                location=directory,
            )
        ]
    healthy = 0
    for path in paths:
        lines = _read_lines(path)
        header = _decode_line(lines[0], "job") if lines else None
        if header is None:
            findings.append(
                Finding(
                    check="doctor.queue-header",
                    severity="error",
                    why="corrupt or unrecognized job header",
                    location=f"{path}:1",
                )
            )
            if repair:
                _quarantine_artifact(path)
                findings.append(
                    Finding(
                        check="doctor.queue-repaired",
                        severity="info",
                        why="job file quarantined (unrecoverable "
                        "header; resubmit the job)",
                        location=path,
                    )
                )
            continue
        good = [lines[0]]
        bad = 0
        for lineno, line in enumerate(lines[1:], start=2):
            event = _decode_line(line, "event")
            if event is None:
                bad += 1
                at_end = lineno == len(lines)
                findings.append(
                    Finding(
                        check="doctor.queue-event",
                        severity="warning" if at_end else "error",
                        why=(
                            "torn tail (truncated final event)"
                            if at_end
                            else "corrupt event (bad JSON or CRC)"
                        ),
                        location=f"{path}:{lineno}",
                    )
                )
                continue
            good.append(line)
        if bad == 0:
            healthy += 1
        elif repair:
            _repair_journal(path, lines, good)
            findings.append(
                Finding(
                    check="doctor.queue-repaired",
                    severity="info",
                    why=f"job file truncated to last good event "
                    f"({bad} line(s) quarantined)",
                    location=path,
                )
            )
    for path in sorted(
        glob.glob(os.path.join(directory, "job-*.result.json"))
    ):
        why = None
        try:
            with open(path, "r", encoding="ascii") as handle:
                payload = _json.load(handle)
        except (OSError, ValueError):
            payload = None
            why = "unparseable job result artifact"
        if why is None and (
            not isinstance(payload, dict)
            or payload.get("schema") != JOB_RESULT_SCHEMA
            or payload.get("crc") != record_crc(payload)
        ):
            why = "job result artifact fails schema or CRC check"
        if why is not None:
            findings.append(
                Finding(
                    check="doctor.queue-result",
                    severity="error",
                    why=why,
                    location=path,
                )
            )
            if repair:
                _quarantine_artifact(path)
                findings.append(
                    Finding(
                        check="doctor.queue-repaired",
                        severity="info",
                        why="damaged job result quarantined "
                        "(resubmit — the cache makes it cheap)",
                        location=path,
                    )
                )
            continue
        healthy += 1
    findings.append(
        Finding(
            check="doctor.queue-ok",
            severity="info",
            why=f"{healthy} queue artifact(s) verified",
            location=directory,
        )
    )
    return findings


def run_doctor(
    journals: Tuple[str, ...] = (),
    checkpoint_dir: Optional[str] = None,
    store_dir: Optional[str] = None,
    results_dir: Optional[str] = None,
    queue_dir: Optional[str] = None,
    repair: bool = False,
) -> CheckReport:
    """Aggregate scans into one report (the CLI entry point)."""
    report = CheckReport()
    if (
        not journals
        and checkpoint_dir is None
        and store_dir is None
        and results_dir is None
        and queue_dir is None
    ):
        raise CheckError(
            "doctor needs something to scan: --journal, "
            "--checkpoint-dir, --store, --results, or --queue"
        )
    if journals:
        journal_findings: List[Finding] = []
        for path in journals:
            journal_findings.extend(scan_journal(path, repair=repair))
        report.extend("doctor.journal", journal_findings)
    if checkpoint_dir is not None:
        report.extend(
            "doctor.checkpoints",
            scan_checkpoint_dir(checkpoint_dir, repair=repair),
        )
    if store_dir is not None:
        report.extend("doctor.store", scan_store(store_dir, repair=repair))
    if results_dir is not None:
        report.extend(
            "doctor.results", scan_result_store(results_dir, repair=repair)
        )
    if queue_dir is not None:
        report.extend("doctor.queue", scan_queue(queue_dir, repair=repair))
    return report
