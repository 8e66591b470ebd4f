"""Persistent content-addressed cache for analysis artefacts.

Region maps, sweep curves, and simulation measurements are pure functions
of their task parameters — yet every ``figure``/``sweep``/benchmark
invocation recomputed identical grids from scratch.  This module stores
those results on disk, **addressed by the SHA-256 of a canonical-JSON task
descriptor**, so a warm re-run of Figure 13/14 is a file read.

Key scheme
----------
An entry's address is ``sha256(canonical_json(envelope))`` where the
envelope is::

    {"engine": <engine fingerprint>, "kind": <artefact kind>,
     "task": <descriptor>, "v": CACHE_SCHEMA_VERSION}

* ``task`` is the caller-supplied descriptor: every parameter the result
  depends on (algorithm set, port model, ``t_s``/``t_w``, lattice bounds,
  seeds and fault-plan parameters for simulation-backed artefacts, …).
  :func:`canonical_json` sorts keys, forbids non-finite floats, and uses
  compact separators, so logically-equal descriptors digest identically.
* ``kind`` namespaces artefact families (``"region_map"``, ``"sweep"``,
  ``"coefficients"``, …) so two families can never collide on a
  coincidentally-equal descriptor.
* ``engine`` is :func:`engine_fingerprint`: a digest over the committed
  golden-trace fixtures (which pin the simulator's full event timeline)
  plus the analytic-model sources.  Any engine or model change — even one
  the golden suite would catch — changes every key, so **a stale engine
  can never serve hits**; there is no invalidation logic to get wrong,
  old entries simply become unreachable (``prune`` reclaims them).
* ``v`` guards the payload serialization format itself.

Entries are self-describing pickles (``{"kind", "descriptor", "payload",
"created"}``) stored under ``<root>/objects/<aa>/<digest>.pkl``; corrupt
or truncated files are treated as misses and rewritten — ``stats``
reports them under their own count and ``prune`` deletes them
unconditionally.  The default root
is ``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro-hypercube-mm``,
else ``~/.cache/repro-hypercube-mm``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import pathlib
import pickle
import time
from typing import Any, Callable, Iterable

from repro.errors import ModelError
from repro.sim.machine import PortModel
from repro.util import atomic_write

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "canonical_json",
    "task_digest",
    "engine_fingerprint",
    "ResultCache",
    "cached_region_map",
    "cached_figure",
    "cached_coefficients",
]

#: bump when the entry/payload layout changes (invalidates every key)
CACHE_SCHEMA_VERSION = 1

#: environment override for the cache directory
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

_PKG_ROOT = pathlib.Path(__file__).resolve().parents[1]


def _fingerprint_sources() -> list[str]:
    """Every module of the packages cached artefacts depend on — the
    simulator and the analytic models — as sorted package-relative paths."""
    return sorted(
        path.relative_to(_PKG_ROOT).as_posix()
        for package in ("models", "sim")
        for path in (_PKG_ROOT / package).rglob("*.py")
    )


def _canon(obj: Any) -> Any:
    """Reduce a descriptor to canonical JSON-safe data (or raise)."""
    if isinstance(obj, dict):
        out = {}
        for k, v in obj.items():
            if not isinstance(k, str):
                raise ModelError(f"descriptor keys must be strings, got {k!r}")
            out[k] = _canon(v)
        return out
    if isinstance(obj, (list, tuple)):
        return [_canon(v) for v in obj]
    if isinstance(obj, PortModel):
        return obj.value
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ModelError(f"descriptor floats must be finite, got {obj!r}")
        return obj
    raise ModelError(f"unsupported descriptor value {obj!r}")


def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, compact, finite floats only.

    Tuples become lists and :class:`PortModel` its string value, so
    logically-equal descriptors always serialize to the same bytes (the
    property the content addressing relies on).
    """
    return json.dumps(
        _canon(obj), sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def task_digest(envelope: Any) -> str:
    """SHA-256 hex digest of the canonical-JSON form of ``envelope``."""
    return hashlib.sha256(canonical_json(envelope).encode()).hexdigest()


_FINGERPRINT: str | None = None


def engine_fingerprint() -> str:
    """Digest pinning the engine + analytic-model version (memoized).

    Hashes the golden-trace fixture (``tests/golden/golden_traces.json``,
    when the source tree is present — it is the committed bit-exact
    summary of the engine's behaviour) together with the source bytes of
    every module of the simulator (``sim/``) and of the analytic models
    (``models/``).  Cache keys embed this digest, so any change to those
    files orphans every existing entry rather than risking a stale hit.
    """
    global _FINGERPRINT
    if _FINGERPRINT is None:
        h = hashlib.sha256()
        for rel in _fingerprint_sources():
            h.update(rel.encode())
            h.update((_PKG_ROOT / rel).read_bytes())
        golden = _PKG_ROOT.parents[1] / "tests" / "golden" / "golden_traces.json"
        if golden.is_file():
            h.update(b"golden_traces.json")
            h.update(golden.read_bytes())
        _FINGERPRINT = h.hexdigest()
    return _FINGERPRINT


_MISS = object()


class ResultCache:
    """Content-addressed on-disk store for analysis results.

    ``get``/``put`` address entries by descriptor digest (see the module
    docstring for the key scheme); :meth:`fetch` is the memoization
    helper the cached wrappers build on.  A cache constructed with
    ``enabled=False`` is a transparent no-op (every ``get`` misses,
    ``put`` discards), which lets call sites thread one object through
    unconditionally.
    """

    def __init__(self, root: str | os.PathLike | None = None, *, enabled: bool = True):
        """Open (or lazily create) the cache rooted at ``root``.

        ``root=None`` resolves ``$REPRO_CACHE_DIR``, then
        ``$XDG_CACHE_HOME/repro-hypercube-mm``, then
        ``~/.cache/repro-hypercube-mm``.  Nothing is written until the
        first :meth:`put`.
        """
        if root is None:
            root = os.environ.get(CACHE_DIR_ENV)
        if root is None:
            xdg = os.environ.get("XDG_CACHE_HOME")
            base = pathlib.Path(xdg) if xdg else pathlib.Path.home() / ".cache"
            root = base / "repro-hypercube-mm"
        self.root = pathlib.Path(root)
        self.enabled = enabled
        self.hits = 0
        self.misses = 0

    # -- addressing ---------------------------------------------------------

    def _envelope(self, kind: str, descriptor: dict) -> dict:
        return {
            "engine": engine_fingerprint(),
            "kind": kind,
            "task": descriptor,
            "v": CACHE_SCHEMA_VERSION,
        }

    def _path(self, digest: str) -> pathlib.Path:
        return self.root / "objects" / digest[:2] / f"{digest}.pkl"

    # -- store --------------------------------------------------------------

    def get(self, kind: str, descriptor: dict, default: Any = None) -> Any:
        """The cached payload for ``(kind, descriptor)``, or ``default``.

        Unreadable or corrupt entries count as misses (and are left for
        the next :meth:`put` to overwrite).
        """
        value = self._load(kind, descriptor)
        return default if value is _MISS else value

    def _load(self, kind: str, descriptor: dict) -> Any:
        if not self.enabled:
            return _MISS
        path = self._path(task_digest(self._envelope(kind, descriptor)))
        try:
            with open(path, "rb") as fh:
                entry = pickle.load(fh)
            payload = entry["payload"]
        except (OSError, pickle.UnpicklingError, EOFError, KeyError,
                AttributeError, ImportError, IndexError):
            self.misses += 1
            return _MISS
        self.hits += 1
        return payload

    def put(self, kind: str, descriptor: dict, payload: Any) -> pathlib.Path | None:
        """Store ``payload`` under its descriptor digest (atomically).

        Returns the entry path, or ``None`` when the cache is disabled.
        The write goes to a temporary sibling and is renamed into place,
        so concurrent readers never observe a truncated entry.
        """
        if not self.enabled:
            return None
        path = self._path(task_digest(self._envelope(kind, descriptor)))
        entry = {
            "kind": kind,
            "descriptor": descriptor,
            "payload": payload,
            "created": time.time(),
        }
        atomic_write(path, pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL))
        return path

    def fetch(
        self, kind: str, descriptor: dict, compute: Callable[[], Any]
    ) -> Any:
        """``get`` or — on a miss — ``compute()``, ``put``, and return.

        The memoization primitive: results flow through unchanged, so a
        warm fetch is bit-identical to the cold one that populated it.
        """
        value = self._load(kind, descriptor)
        if value is _MISS:
            value = compute()
            self.put(kind, descriptor, value)
        return value

    # -- maintenance --------------------------------------------------------

    def _entries(self) -> list[pathlib.Path]:
        objects = self.root / "objects"
        if not objects.is_dir():
            return []
        return sorted(objects.glob("*/*.pkl"))

    @staticmethod
    def _entry_kind(path: pathlib.Path) -> str | None:
        """The entry's artefact kind, or ``None`` when the file is corrupt.

        A corrupt entry is one that cannot be unpickled into the
        self-describing dict (truncated write, bit rot, foreign file) —
        exactly the files :meth:`get` silently treats as misses.
        """
        try:
            with open(path, "rb") as fh:
                entry = pickle.load(fh)
            if not isinstance(entry, dict) or "payload" not in entry:
                return None
            return str(entry.get("kind", "?"))
        except Exception:
            return None

    @staticmethod
    def orphan_partials(
        partials_dir: str | os.PathLike | None,
        live_jobs: "Iterable[str]" = (),
    ) -> list[pathlib.Path]:
        """Streaming snapshots (``<job>.partial.json``) without a live job.

        The sweep service streams each running job's completed chunk
        prefix to ``results/<job>.partial.json`` and renames it to
        ``.stream.jsonl`` on completion — so a partial file whose job is
        neither pending nor running is crash debris from a dead daemon.
        ``verify``/``stats`` count these so operators see them; the
        service reports them as warnings on startup.
        """
        if partials_dir is None:
            return []
        root = pathlib.Path(partials_dir)
        if not root.is_dir():
            return []
        live = set(live_jobs)
        return sorted(
            p for p in root.glob("*.partial.json")
            if p.name[: -len(".partial.json")] not in live
        )

    def stats(
        self,
        *,
        partials_dir: str | os.PathLike | None = None,
        live_jobs: "Iterable[str]" = (),
    ) -> dict:
        """Entry count, total bytes, per-kind breakdown, session hit/miss.

        Corrupt object files — entries :meth:`get` would reject — are
        reported under their own ``corrupt`` count (and as ``(corrupt)``
        in the per-kind breakdown) so operators can see dead weight that
        never serves a hit; ``prune`` deletes them.  With
        ``partials_dir`` the report also counts orphaned streaming
        snapshots (see :meth:`orphan_partials`).
        """
        by_kind: dict[str, int] = {}
        total = 0
        corrupt = 0
        entries = self._entries()
        for path in entries:
            total += path.stat().st_size
            kind = self._entry_kind(path)
            if kind is None:
                corrupt += 1
                kind = "(corrupt)"
            by_kind[kind] = by_kind.get(kind, 0) + 1
        return {
            "root": str(self.root),
            "entries": len(entries),
            "bytes": total,
            "corrupt": corrupt,
            "by_kind": dict(sorted(by_kind.items())),
            "session_hits": self.hits,
            "session_misses": self.misses,
            "orphan_partials": len(
                self.orphan_partials(partials_dir, live_jobs)
            ),
        }

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in self._entries():
            path.unlink(missing_ok=True)
            removed += 1
        return removed

    def verify(
        self,
        *,
        tmp_max_age_s: float = 3600.0,
        partials_dir: str | os.PathLike | None = None,
        live_jobs: "Iterable[str]" = (),
    ) -> dict:
        """Audit the store for crash debris and remove the stale part.

        :meth:`put` writes to a ``<digest>.tmp.<pid>`` sibling and
        renames it into place — a crash between those two steps leaves
        an orphaned tmp file that no ``get`` will ever read.  ``verify``
        finds such files and deletes the ones older
        than ``tmp_max_age_s`` seconds; younger ones are assumed to
        belong to a live concurrent writer and are only counted.  It
        also counts corrupt ``.pkl`` entries (``prune`` deletes those),
        and — given ``partials_dir``/``live_jobs`` — orphaned streaming
        snapshots (:meth:`orphan_partials`; counted, never deleted: they
        are the last visible trace of a dead daemon's progress).  The
        sweep service calls this on startup so a crashed predecessor
        never leaks tmp files indefinitely.

        Returns ``{"checked", "corrupt", "tmp_found", "tmp_removed",
        "orphan_partials"}``.
        """
        objects = self.root / "objects"
        tmp_found = tmp_removed = 0
        if objects.is_dir():
            now = time.time()
            for tmp in sorted(objects.glob("*/*.tmp.*")):
                tmp_found += 1
                try:
                    age = now - tmp.stat().st_mtime
                except OSError:
                    continue
                if age >= tmp_max_age_s:
                    tmp.unlink(missing_ok=True)
                    tmp_removed += 1
        entries = self._entries()
        corrupt = sum(1 for p in entries if self._entry_kind(p) is None)
        return {
            "checked": len(entries),
            "corrupt": corrupt,
            "tmp_found": tmp_found,
            "tmp_removed": tmp_removed,
            "orphan_partials": len(
                self.orphan_partials(partials_dir, live_jobs)
            ),
        }

    def prune(
        self,
        *,
        max_age_days: float | None = None,
        max_bytes: int | None = None,
    ) -> int:
        """Expire old entries and/or shrink the store to a byte budget.

        Corrupt object files go unconditionally — they can never serve a
        hit, only waste bytes and alarm ``stats``.  Then entries older
        than ``max_age_days`` (by mtime) are removed; then, if the store
        still exceeds ``max_bytes``, the oldest survivors go until it
        fits.  Returns the number removed.
        """
        entries = []
        removed = 0
        for p in self._entries():
            if self._entry_kind(p) is None:
                p.unlink(missing_ok=True)
                removed += 1
            else:
                st = p.stat()
                entries.append((st.st_mtime, st.st_size, p))
        entries.sort()
        if max_age_days is not None:
            cutoff = time.time() - max_age_days * 86400.0
            keep = []
            for mtime, size, path in entries:
                if mtime < cutoff:
                    path.unlink(missing_ok=True)
                    removed += 1
                else:
                    keep.append((mtime, size, path))
            entries = keep
        if max_bytes is not None:
            total = sum(size for _, size, _ in entries)
            for _, size, path in entries:
                if total <= max_bytes:
                    break
                path.unlink(missing_ok=True)
                total -= size
                removed += 1
        return removed


# ---------------------------------------------------------------------------
# cached wrappers around the analysis layer
# ---------------------------------------------------------------------------


def _lattice_descriptor(
    port: PortModel,
    t_s: float,
    t_w: float,
    *,
    log2_n_max: int = 13,
    log2_p_max: int = 20,
    log2_n_min: int = 1,
    log2_p_min: int = 2,
    algorithms: tuple[str, ...] | None = None,
    backend: str = "model",
) -> dict:
    from repro.analysis.regions import candidates

    algos = tuple(algorithms if algorithms is not None else candidates(port))
    return {
        "port": port,
        "t_s": float(t_s),
        "t_w": float(t_w),
        "log2_n_min": log2_n_min,
        "log2_n_max": log2_n_max,
        "log2_p_min": log2_p_min,
        "log2_p_max": log2_p_max,
        "algorithms": list(algos),
        "backend": backend,
    }


def cached_region_map(cache, port, t_s, t_w, **kwargs):
    """:func:`repro.analysis.regions.region_map` through a result cache.

    ``cache=None`` (or a disabled cache) computes directly.
    """
    from repro.analysis.regions import region_map

    if cache is None:
        return region_map(port, t_s, t_w, **kwargs)
    descriptor = _lattice_descriptor(port, t_s, t_w, **kwargs)
    return cache.fetch(
        "region_map", descriptor, lambda: region_map(port, t_s, t_w, **kwargs)
    )


def cached_figure(cache, figure: int, **kwargs):
    """A whole Figure 13/14 panel set (one cache entry for all panels).

    Caching the four panels as a single entry makes the warm path one
    digest + one read, which is what gets the warm ``figure`` re-run to
    near-instant.
    """
    from repro.analysis.figures import PANELS
    from repro.analysis.figures import figure13, figure14

    if figure not in (13, 14):
        raise ModelError(f"unknown figure {figure!r} (expected 13 or 14)")
    build = figure13 if figure == 13 else figure14
    if cache is None:
        return build(**kwargs)
    port = PortModel.ONE_PORT if figure == 13 else PortModel.MULTI_PORT
    descriptor = {
        "figure": figure,
        "panels": {
            panel: [t_s, t_w] for panel, (t_s, t_w) in sorted(PANELS.items())
        },
        "lattice": _lattice_descriptor(port, 0.0, 0.0, **kwargs),
    }
    return cache.fetch(
        "figure_panels", descriptor, lambda: build(**kwargs)
    )


def cached_coefficients(cache, key: str, n: int, p: int, port: PortModel):
    """Measured ``(a, b)`` coefficients through a result cache.

    Wraps :func:`repro.analysis.measure.extract_coefficients` — a
    simulation-backed artefact, so the engine fingerprint in the key is
    what keeps entries honest across engine changes.
    """
    from repro.analysis.measure import extract_coefficients

    if cache is None:
        return extract_coefficients(key, n, p, port)
    descriptor = {"algorithm": key, "n": int(n), "p": int(p), "port": port}
    return cache.fetch(
        "coefficients",
        descriptor,
        lambda: extract_coefficients(key, n, p, port),
    )
