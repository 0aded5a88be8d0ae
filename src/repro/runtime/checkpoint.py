"""Checkpoint journals for resumable sweeps.

A sweep over the paper's full design space runs one simulation per
``(tier, split)`` point — at realistic trace lengths that is hours of
work that used to vanish on any crash. The journal streams every
completed :class:`~repro.sim.results.TierPoint` to disk so a re-run
with the same key resumes where the previous run stopped.

File format (one JSON object per line, ascii):

* line 1 -- ``{"kind": "header", "version": 1, "key": ...}``;
* then   -- ``{"kind": "point", "n": ..., "col_bits": ..., ...,
  "crc": ...}`` per completed point, where ``crc`` is the crc32 of the
  canonical payload encoding.

Durability strategy: every append rewrites the whole journal to
``<path>.tmp`` and ``os.replace``s it over the old file. Journals hold
at most a few hundred small lines, so the rewrite is cheap, and the
rename is atomic on POSIX — a kill at any instant leaves either the
previous complete journal or the new complete journal, never a torn
one. Loading tolerates a truncated or corrupt *tail* (the partial work
survives); a corrupt header or mid-file line is an error.
"""

from __future__ import annotations

import hashlib
import json
import os
import weakref
import zlib
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import CheckpointError
from repro.obs.metrics import counter
from repro.runtime.faults import fire_site, maybe_inject
from repro.sim.results import TierPoint

JOURNAL_VERSION = 1

#: Journals with unflushed in-memory points, so a top-level
#: ``KeyboardInterrupt`` handler can flush everything before exiting.
_OPEN_JOURNALS: "weakref.WeakSet[CheckpointJournal]" = weakref.WeakSet()


def sweep_key(
    scheme: str,
    trace_fingerprint: str,
    size_bits: Iterable[int],
    bht_entries: Optional[int] = None,
    bht_assoc: int = 4,
    engine: str = "auto",
    row_bits_filter: Optional[Iterable[int]] = None,
) -> str:
    """Digest identifying one sweep: same key => resumable.

    The engine is deliberately excluded: both engines produce identical
    predictions (asserted by the equivalence suite), so a sweep begun
    vectorized may finish on the reference engine after a degradation.
    """
    payload = json.dumps(
        {
            "scheme": scheme,
            "trace": trace_fingerprint,
            "size_bits": sorted(size_bits),
            "bht_entries": bht_entries,
            "bht_assoc": bht_assoc,
            "row_bits_filter": (
                sorted(row_bits_filter) if row_bits_filter is not None else None
            ),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("ascii")).hexdigest()[:16]


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` via write-temp-then-rename."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="ascii") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def record_crc(payload: Dict) -> int:
    """crc32 of a durable record's canonical JSON, ``crc`` field excluded.

    The one checksum behind every CRC-stamped record: journal points,
    ledger rows, job-file lines, result and job-result artifacts.
    """
    body = {k: v for k, v in payload.items() if k != "crc"}
    canonical = json.dumps(body, sort_keys=True).encode("ascii")
    return zlib.crc32(canonical) & 0xFFFFFFFF


class CheckpointJournal:
    """On-disk journal of completed tier points for one sweep key."""

    def __init__(self, path: str, key: str):
        self.path = os.fspath(path)
        self.key = key
        #: Completed points in completion order: ``[(n, TierPoint)]``.
        self.points: List[Tuple[int, TierPoint]] = []
        #: Fencing stamps for appended points, keyed by position in
        #: ``points``: ``{index: (token, shard)}``. Only worker journals
        #: carry stamps; the master journal has none.
        self._stamps: Dict[int, Tuple[int, int]] = {}
        self._dirty = False
        _OPEN_JOURNALS.add(self)

    # -- construction --------------------------------------------------

    @classmethod
    def open(cls, path: str, key: str, resume: bool = True) -> "CheckpointJournal":
        """Open (and on ``resume``, load) the journal at ``path``.

        With ``resume=False`` any existing journal is discarded and the
        sweep starts clean. A journal written for a *different* key is
        always discarded — resuming someone else's sweep would splice
        unrelated results together. A torn tail (a crash mid-write) is
        preserved to a ``.quarantine`` sidecar and the journal resumes
        from the last good line.
        """
        journal = cls(path, key)
        if resume and os.path.exists(path):
            journal.points = _load_points(path, key, quarantine=True)
        return journal

    # -- queries -------------------------------------------------------

    def completed(self) -> "set[Tuple[int, int]]":
        """Keys of finished points: ``{(n, row_bits)}``."""
        return {(n, point.row_bits) for n, point in self.points}

    def __len__(self) -> int:
        return len(self.points)

    # -- mutation ------------------------------------------------------

    def append(
        self,
        n: int,
        point: TierPoint,
        flush: bool = True,
        token: Optional[int] = None,
        shard: Optional[int] = None,
    ) -> None:
        """Record one completed point; by default persist immediately.

        Parallel workers pass their lease's fencing ``token`` and
        ``shard`` id; the stamp rides in the journal line (CRC-covered)
        so the merge layer can reject appends from a zombie worker
        whose lease was reclaimed.
        """
        maybe_inject("checkpoint.append")
        counter("checkpoint.appends").inc()
        if token is not None and shard is not None:
            self._stamps[len(self.points)] = (token, shard)
        self.points.append((n, point))
        self._dirty = True
        if flush:
            self.flush()

    def flush(self) -> None:
        """Persist the journal atomically (no-op when clean)."""
        if not self._dirty:
            return
        lines = [
            json.dumps(
                {"kind": "header", "version": JOURNAL_VERSION, "key": self.key},
                sort_keys=True,
            )
        ]
        for index, (n, point) in enumerate(self.points):
            payload = {"kind": "point", **point.to_json(n)}
            stamp = self._stamps.get(index)
            if stamp is not None:
                payload["token"], payload["shard"] = stamp
            payload["crc"] = record_crc(payload)
            lines.append(json.dumps(payload, sort_keys=True))
        text = "\n".join(lines) + "\n"
        fired = fire_site("checkpoint.flush")
        if "corrupt" in fired:
            # Corruption fault: mangle the tail so loaders must cope.
            text = text[:-8] + "#corrupt"
        elif "torn-write" in fired and len(lines) > 1:
            # Torn-write fault: the last line stops mid-payload, as if
            # the process died between write() and fsync().
            text = text[: -(len(lines[-1]) // 2 + 1)]
        from repro.obs.profile import phase

        try:
            with phase("checkpoint_flush"):
                atomic_write_text(self.path, text)
        except OSError as exc:
            raise CheckpointError(
                f"cannot write checkpoint journal {self.path!r}: {exc}"
            ) from exc
        counter("checkpoint.flushes").inc()
        self._dirty = False

    def discard(self) -> None:
        """Delete the journal file (sweep finished; nothing to resume)."""
        self._dirty = False
        try:
            os.remove(self.path)
        except FileNotFoundError:
            pass


def flush_open_journals() -> int:
    """Flush every journal with unsaved points; returns how many."""
    flushed = 0
    for journal in list(_OPEN_JOURNALS):
        if journal._dirty:
            journal.flush()
            flushed += 1
    return flushed


def quarantine_path(path: str) -> str:
    """The sidecar that preserves a journal's pre-repair bytes."""
    return path + ".quarantine"


def _quarantine(path: str, lines: List[str]) -> None:
    """Preserve the journal's current bytes beside it for forensics."""
    try:
        atomic_write_text(quarantine_path(path), "\n".join(lines) + "\n")
    except OSError:  # pragma: no cover - sidecar is best-effort
        pass


def _load_points(
    path: str,
    key: str,
    fence: Optional[Dict[int, int]] = None,
    quarantine: bool = False,
) -> List[Tuple[int, TierPoint]]:
    """Load a journal's points.

    ``fence`` maps shard id to its current fencing token: lines stamped
    with a superseded token (a zombie worker's appends after its lease
    was reclaimed) are dropped and counted. With ``quarantine`` a torn
    tail is preserved to a ``.quarantine`` sidecar before being
    truncated away by the next flush.
    """
    maybe_inject("checkpoint.load")
    try:
        with open(path, "r", encoding="ascii") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        raise CheckpointError(
            f"cannot read checkpoint journal {path!r}: {exc}"
        ) from exc
    if not lines:
        return []
    try:
        header = json.loads(lines[0])
    except ValueError:
        raise CheckpointError(
            f"checkpoint journal {path!r} has a corrupt header"
        ) from None
    if header.get("kind") != "header" or header.get("version") != JOURNAL_VERSION:
        raise CheckpointError(
            f"checkpoint journal {path!r} has an unrecognized header"
        )
    if header.get("key") != key:
        # A different sweep's journal: start over rather than splice.
        return []
    points: List[Tuple[int, TierPoint]] = []
    for lineno, line in enumerate(lines[1:], start=2):
        payload = _decode_point_line(line)
        if payload is None:
            if lineno - 1 < len(lines) - 1:
                raise CheckpointError(
                    f"{path}:{lineno}: corrupt checkpoint entry "
                    "(not at end of journal); delete the file or "
                    "re-run with resume disabled (--no-resume) to "
                    "start this sweep over"
                )
            if quarantine:
                _quarantine(path, lines)
            break  # torn tail from an interrupted write: keep the rest
        if fence is not None and _superseded(payload, fence):
            counter("lease.fence_rejections").inc()
            continue
        points.append((payload["n"], TierPoint.from_json(payload)))
    return points


def _superseded(payload: Dict, fence: Dict[int, int]) -> bool:
    """Whether a point line's fencing stamp is behind the fence table."""
    token = payload.get("token")
    shard = payload.get("shard")
    if not isinstance(token, int) or not isinstance(shard, int):
        return False  # unstamped line: nothing fences it
    current = fence.get(shard)
    return current is not None and token < current


def _decode_point_line(line: str) -> Optional[Dict]:
    """Decode one point line; None when torn/corrupt."""
    try:
        payload = json.loads(line)
    except ValueError:
        return None
    if not isinstance(payload, dict) or payload.get("kind") != "point":
        return None
    if payload.pop("crc", None) != record_crc(payload):
        return None
    return payload
