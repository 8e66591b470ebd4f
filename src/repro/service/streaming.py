"""Streaming partial results: journaled chunk records as prefix-stable
snapshots.

A long-running sweep is opaque until it finishes — unless the service
streams what it has.  :class:`StreamWriter` maintains
``results/<job>.partial.json``: a JSON-Lines snapshot of the job's
completed **contiguous chunk prefix**, atomically refreshed the moment a
chunk completes (tmp + rename, so a reader never sees a torn file).

The format is built around one invariant — **prefix stability**:

* line 1 is a fixed header (job id, kind, content key, chunk count);
* line ``i+2`` is chunk ``i``'s records, serialized deterministically —
  it is written only once chunks ``0..i`` have all completed (or been
  quarantined, which contributes an explicit ``records: null`` line);
* on job completion a final footer line carries the report digest.

Because every refresh only ever *appends* lines, each snapshot is a
byte-for-byte prefix of every later snapshot — and of the completed
stream, which :meth:`finish` seals and renames to
``results/<job>.stream.jsonl``.  A daemon crash costs nothing: the
rebuilt snapshot serializes the same cached records to the same bytes,
so the prefix chain continues across restarts.  ``jobs --watch`` and the
soak gate both lean on this: any snapshot captured mid-run must be a
prefix of the final stream, and the footer digest must equal the
report's.

Out-of-order completions are staged in memory and drain into the
snapshot as soon as the prefix reaches them; nothing is ever rewritten.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Any

from repro.util import atomic_write

__all__ = ["StreamWriter", "read_stream", "is_byte_prefix"]

#: bump on any incompatible change to the line framing
STREAM_VERSION = 1


def _line(body: dict[str, Any]) -> str:
    """One deterministic snapshot line (no newline).

    ``sort_keys`` + compact separators make identical records serialize
    to identical bytes — the property the prefix chain relies on.
    ``default=repr`` tolerates exotic payloads the same way the final
    report writer does.
    """
    return json.dumps(
        body, sort_keys=True, separators=(",", ":"), default=repr
    )


class StreamWriter:
    """Prefix-stable snapshot writer for one job's chunk stream."""

    def __init__(
        self,
        results_dir: str | os.PathLike,
        job_id: str,
        *,
        kind: str,
        key: str,
        chunks_total: int,
    ):
        self.results_dir = pathlib.Path(results_dir)
        self.job_id = job_id
        self.path = self.results_dir / f"{job_id}.partial.json"
        self.stream_path = self.results_dir / f"{job_id}.stream.jsonl"
        self._staged: dict[int, Any] = {}
        self._next_chunk = 0
        self._finished = False
        self._dirty = True
        self._lines: list[str] = [_line({
            "v": STREAM_VERSION,
            "job": job_id,
            "kind": kind,
            "key": key,
            "chunks_total": chunks_total,
        })]
        self.chunks_total = chunks_total

    @property
    def streamed_chunks(self) -> int:
        """How many chunks the snapshot currently carries."""
        return self._next_chunk

    def offer(self, chunk: int, records: list | None) -> bool:
        """Stage one completed (or quarantined: ``records=None``) chunk.

        Returns ``True`` when the contiguous prefix grew — callers then
        :meth:`refresh` to publish.  Duplicate offers are idempotent.
        """
        if chunk < self._next_chunk or self._finished:
            return False
        self._staged.setdefault(chunk, records)
        grew = False
        while self._next_chunk in self._staged:
            records = self._staged.pop(self._next_chunk)
            self._lines.append(_line({
                "chunk": self._next_chunk,
                "records": records,
            }))
            self._next_chunk += 1
            grew = True
        if grew:
            self._dirty = True
        return grew

    def refresh(self) -> bool:
        """Atomically publish the current snapshot; returns whether a
        write happened (publishing an unchanged snapshot is skipped)."""
        if not self._dirty:
            return False
        atomic_write(self.path, self.snapshot_bytes())
        self._dirty = False
        return True

    def finish(self, digest: str | None, quarantined: list[int]) -> pathlib.Path:
        """Seal the stream: append the footer, publish, and rename the
        snapshot to ``<job>.stream.jsonl`` (the partial file disappears —
        a lingering ``*.partial.json`` always means an unfinished or
        crashed job, which is what the startup audit keys on)."""
        self._lines.append(_line({
            "final": True,
            "digest": digest,
            "chunks": self._next_chunk,
            "quarantined": sorted(quarantined),
        }))
        atomic_write(self.stream_path, self.snapshot_bytes())
        self.path.unlink(missing_ok=True)
        self._finished = True
        return self.stream_path

    def snapshot_bytes(self) -> bytes:
        """The bytes :meth:`refresh` publishes."""
        return ("\n".join(self._lines) + "\n").encode("utf-8")


def read_stream(path: str | os.PathLike) -> dict[str, Any]:
    """Parse a snapshot/stream file into ``{header, chunks, footer}``.

    ``chunks`` maps chunk index -> records (``None`` = quarantined);
    ``footer`` is ``None`` for an in-flight partial snapshot.
    """
    lines = pathlib.Path(path).read_text(encoding="utf-8").splitlines()
    header = json.loads(lines[0]) if lines else {}
    chunks: dict[int, Any] = {}
    footer = None
    for raw in lines[1:]:
        body = json.loads(raw)
        if body.get("final"):
            footer = body
        else:
            chunks[int(body["chunk"])] = body["records"]
    return {"header": header, "chunks": chunks, "footer": footer}


def is_byte_prefix(snapshot: bytes, final: bytes) -> bool:
    """Whether ``snapshot`` is a byte-for-byte prefix of ``final`` — the
    invariant every captured partial must satisfy against the completed
    stream."""
    return final.startswith(snapshot)
