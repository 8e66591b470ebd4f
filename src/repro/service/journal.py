"""Write-ahead journal for the sweep service (format v1).

Every durable fact about a job — submission, the chunk plan, chunk
leases, chunk completions, quarantines, job completion — is appended
here *before* the service acts on it, so a killed service process can
restart, replay the journal, and resume exactly the unfinished chunks.
The journal records only facts plus the content-addressed cache keys of
chunk payloads; the payloads themselves live in the
:class:`~repro.analysis.cache.ResultCache`, which makes replay
idempotent (a duplicated completion record is a no-op, a lost one just
recomputes a chunk into the same cache slot).

Format v1
---------
A journal is a directory of append-only **segments** named
``wal-NNNNNN.jsonl``.  Each line is one record: a JSON object with
sorted keys and compact separators carrying

* the caller's fields (``t`` is the record type by convention),
* ``seq`` — a strictly-increasing sequence number across segments,
* ``c`` — the CRC-32 of the canonical JSON encoding of every *other*
  field, tagged on at append time and checked on replay.

Appends flush to the OS on every record (``fsync=True`` additionally
forces the record to the platter — slower, but survives power loss, not
just process death).  When the active segment exceeds
``segment_max_bytes`` the journal **rotates**: the active file is closed
and the next record opens ``wal-(N+1).jsonl``.  Rotation is atomic by
construction — records are never split across segments, and replay walks
segments in name order.

Replay semantics (pinned by ``tests/service/test_journal.py``):

* an empty or absent journal replays to ``[]`` — a fresh start, never an
  error;
* a torn **final** record (crash mid-append: truncated JSON or a CRC
  mismatch on the very last line) is dropped with a warning and replay
  succeeds — losing the tail fact is safe because every action it
  described is idempotent;
* damage anywhere **before** the final record raises
  :class:`~repro.errors.JournalCorruptError` — resuming from falsified
  history is never safe;
* duplicate records replay verbatim; deduplication is the state
  builder's job (completions are a set).
"""

from __future__ import annotations

import json
import os
import pathlib
import zlib
from typing import Any, Iterator

from repro.errors import JournalCorruptError, ServiceError

__all__ = ["Journal", "JOURNAL_VERSION", "encode_record", "decode_line"]

#: bump on any incompatible change to the record framing
JOURNAL_VERSION = 1

_SEGMENT_FMT = "wal-{:06d}.jsonl"


def _crc(body: dict[str, Any]) -> int:
    """CRC-32 over the canonical JSON encoding of ``body`` (sans ``c``)."""
    canon = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return zlib.crc32(canon.encode()) & 0xFFFFFFFF


def encode_record(body: dict[str, Any]) -> str:
    """One journal line (no newline): ``body`` plus its ``c`` CRC tag."""
    tagged = dict(body)
    tagged["c"] = _crc(body)
    return json.dumps(tagged, sort_keys=True, separators=(",", ":"))


def decode_line(line: str) -> dict[str, Any]:
    """Parse and CRC-check one journal line; raises ``ValueError`` on any
    damage (truncated JSON, missing tag, CRC mismatch)."""
    record = json.loads(line)
    if not isinstance(record, dict) or "c" not in record:
        raise ValueError("record is not a CRC-tagged object")
    tag = record.pop("c")
    want = _crc(record)
    if tag != want:
        raise ValueError(f"CRC mismatch (stored {tag:#010x}, computed {want:#010x})")
    return record


class Journal:
    """Append-only CRC-tagged JSONL write-ahead log with segment rotation."""

    def __init__(
        self,
        root: str | os.PathLike,
        *,
        segment_max_bytes: int = 1 << 20,
        fsync: bool = False,
    ):
        self.root = pathlib.Path(root)
        self.segment_max_bytes = int(segment_max_bytes)
        self.fsync = fsync
        self._fh = None
        self._active: pathlib.Path | None = None
        self._seq = 0  # last sequence number handed out
        # Late-open: nothing touches disk until the first append/replay.

    # -- segment bookkeeping -------------------------------------------------

    def segments(self) -> list[pathlib.Path]:
        """Existing segment files, oldest first."""
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("wal-*.jsonl"))

    def _segment_index(self, path: pathlib.Path) -> int:
        stem = path.stem  # "wal-000001"
        try:
            return int(stem.split("-", 1)[1])
        except (IndexError, ValueError) as exc:
            raise ServiceError(f"alien file in journal dir: {path}") from exc

    def _open_for_append(self) -> None:
        if self._fh is not None:
            return
        self.root.mkdir(parents=True, exist_ok=True)
        segs = self.segments()
        if segs:
            self._active = segs[-1]
            # Seed seq from existing history so appends keep increasing —
            # this also fails loudly on mid-file corruption before we
            # would write anything after it.
            records, _ = self.replay()
            self._seq = max((r.get("seq", 0) for r in records), default=0)
            # A torn/corrupt tail record must be *physically* removed
            # before appending: writing after it would glue the new
            # record onto the damaged line, turning recoverable tail
            # damage into unrecoverable mid-file corruption.  The
            # journal's logical tail lives in the last *non-empty*
            # segment — a crash between rotation and the first append
            # leaves an empty final segment, and appending to it while a
            # torn record lingers one segment back would freeze that
            # damage mid-history.
            tail_seg = self._last_nonempty_segment(segs)
            if tail_seg is not None:
                self._truncate_damaged_tail(tail_seg)
        else:
            self._active = self.root / _SEGMENT_FMT.format(1)
        self._fh = open(self._active, "a", encoding="utf-8")

    @staticmethod
    def _last_nonempty_segment(
        segs: list[pathlib.Path],
    ) -> pathlib.Path | None:
        """The segment holding the journal's logical tail record."""
        for seg in reversed(segs):
            if seg.stat().st_size > 0:
                return seg
        return None

    @staticmethod
    def _truncate_damaged_tail(segment: pathlib.Path) -> None:
        """Trim ``segment`` back to its last intact record boundary."""
        data = segment.read_bytes()
        keep = 0
        offset = 0
        for raw in data.split(b"\n")[:-1]:  # complete lines only
            end = offset + len(raw) + 1
            try:
                decode_line(raw.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                break
            keep = end
            offset = end
        if keep < len(data):
            with open(segment, "r+b") as fh:
                fh.truncate(keep)

    def rotate(self) -> pathlib.Path:
        """Close the active segment and start the next one; returns the
        new segment's path.  Records never straddle segments."""
        self._open_for_append()
        index = self._segment_index(self._active)
        self.close()
        self._active = self.root / _SEGMENT_FMT.format(index + 1)
        self._fh = open(self._active, "a", encoding="utf-8")
        return self._active

    def close(self) -> None:
        """Flush and close the active segment (appends reopen it)."""
        if self._fh is not None:
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._fh.close()
            self._fh = None

    # -- append --------------------------------------------------------------

    def append(self, body: dict[str, Any]) -> int:
        """Durably append one record; returns its sequence number.

        ``body`` must be JSON-safe and must not contain the reserved
        ``c``/``seq`` keys.  The record is flushed before return (plus
        ``fsync`` when configured), so once this returns the fact
        survives a service crash.
        """
        if "c" in body or "seq" in body:
            raise ServiceError("'c' and 'seq' are reserved journal fields")
        self._open_for_append()
        if self._fh.tell() > self.segment_max_bytes:
            self.rotate()
        self._seq += 1
        tagged = dict(body)
        tagged["seq"] = self._seq
        self._fh.write(encode_record(tagged) + "\n")
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())
        return self._seq

    # -- replay --------------------------------------------------------------

    def _lines(self) -> Iterator[tuple[pathlib.Path, int, str, bool]]:
        """Yield ``(segment, lineno, line, is_final)`` across all segments.

        Exactly one line is ever final: the last line of the last
        *non-empty* segment.  Rotation can leave an empty trailing
        segment (crash between ``rotate()`` and the first append); that
        empty file must not strip finality from the journal's true tail
        record — a torn write there is still the recoverable
        dropped-with-a-warning case, not mid-file corruption.
        """
        per_segment: list[tuple[pathlib.Path, list[str]]] = []
        for seg in self.segments():
            with open(seg, "r", encoding="utf-8", errors="replace") as fh:
                lines = fh.read().split("\n")
            # A well-formed file ends with "\n" -> last split element "".
            if lines and lines[-1] == "":
                lines.pop()
            per_segment.append((seg, lines))
        tail_idx = max(
            (i for i, (_, lines) in enumerate(per_segment) if lines),
            default=-1,
        )
        for s_idx, (seg, lines) in enumerate(per_segment):
            for l_idx, line in enumerate(lines):
                is_final = s_idx == tail_idx and l_idx == len(lines) - 1
                yield seg, l_idx + 1, line, is_final

    def replay(self) -> tuple[list[dict[str, Any]], list[str]]:
        """All surviving records in order, plus human-readable warnings.

        Implements the v1 damage policy: a damaged *final* record is
        dropped with a warning (torn write — the crash the WAL exists
        for); damage anywhere else raises
        :class:`~repro.errors.JournalCorruptError`.
        """
        records: list[dict[str, Any]] = []
        warnings: list[str] = []
        for seg, lineno, line, is_final in self._lines():
            if line == "":
                # A bare empty line can only be crash debris; mid-file it
                # means history was edited -> corrupt.
                if is_final:
                    warnings.append(
                        f"journal: dropped empty tail line {seg.name}:{lineno}"
                    )
                    continue
                raise JournalCorruptError(seg.name, lineno, "empty record")
            try:
                record = decode_line(line)
            except ValueError as exc:
                if is_final:
                    warnings.append(
                        f"journal: dropped corrupt tail record "
                        f"{seg.name}:{lineno} ({exc}) — resuming from the "
                        f"last intact record"
                    )
                    continue
                raise JournalCorruptError(seg.name, lineno, str(exc)) from exc
            records.append(record)
        return records, warnings
