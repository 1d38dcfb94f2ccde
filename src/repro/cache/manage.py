"""Inspection and maintenance of the on-disk caches (``repro cache``).

``verify`` distinguishes two failure classes instead of folding them
into one bucket:

* **corrupt** -- the entry was read fine but its *content* is wrong
  (garbage JSON/pickle bytes, schema drift, digest mismatch, stats that
  do not round-trip, stray debris files). These are reported and
  skipped; the caches themselves treat them as misses, so a corrupt
  entry costs a re-run, never a wrong answer.
* **unreadable** -- the entry (or the cache tree itself) could not be
  *accessed*: I/O errors, permission problems, a directory where a file
  should be. The audit cannot vouch for such a store, so the CLI fails
  with ``repro analyze``'s environment exit code (2) instead of pretending
  the scan was complete.

``clear`` likewise no longer lets removal errors escape as raw
tracebacks: failures are collected and raised as one
:class:`~repro.errors.CacheAccessError` naming every path it could not
delete (anything already removed stays removed).
"""

from __future__ import annotations

import json
import pathlib
import pickle
import shutil
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.cache.keys import cache_enabled, cache_root, digest
from repro.cache.programs import PROGRAM_SCHEMA
from repro.cache.results import RESULT_SCHEMA, decode_stats
from repro.errors import CacheAccessError
from repro.runtime.program import FROZEN_FORMAT, FrozenProgram

_LEVELS = ("results", "programs")


def _root(root) -> pathlib.Path:
    return pathlib.Path(root) if root is not None else cache_root()


def _files(directory: pathlib.Path) -> List[pathlib.Path]:
    if not directory.is_dir():
        return []
    return sorted(p for p in directory.rglob("*") if p.is_file())


def cache_report(root=None) -> dict:
    """Entry counts and byte totals per cache level, plus the current
    process's reuse accounting (hits/misses/skipped/stores/put_failures)
    under ``session`` -- long-lived consumers like ``repro serve`` report
    live counters through the same shape."""
    from repro.cache.programs import PROGRAM_STATS
    from repro.cache.results import RESULT_STATS

    root = _root(root)
    report = {"root": str(root), "enabled": cache_enabled()}
    for level in _LEVELS:
        files = _files(root / level)
        report[level] = {"entries": len(files),
                         "bytes": sum(p.stat().st_size for p in files)}
    report["session"] = {"results": RESULT_STATS.as_dict(),
                         "programs": PROGRAM_STATS.as_dict()}
    return report


def clear_cache(root=None) -> int:
    """Remove both cache levels; returns the number of files removed.

    Only the ``results/`` and ``programs/`` subtrees are deleted --
    never the root itself, which the user may have pointed at a shared
    directory via ``REPRO_CACHE_DIR``. Paths that cannot be removed
    (permissions, live I/O errors) are collected and raised as one
    :class:`CacheAccessError` after the rest were deleted.
    """
    root = _root(root)
    removed = 0
    failures: List[str] = []

    def note_failure(_func, path, exc_info) -> None:
        err = exc_info[1]
        failures.append(f"{path}: {err}")

    for level in _LEVELS:
        directory = root / level
        before = len(_files(directory))
        if directory.is_dir():
            shutil.rmtree(directory, onerror=note_failure)
        removed += before - len(_files(directory))
    if failures:
        raise CacheAccessError(
            "cache clear could not remove: " + "; ".join(failures))
    return removed


@dataclass
class VerifyReport:
    """Outcome of one ``verify_cache`` audit, split by failure class."""

    corrupt: List[str] = field(default_factory=list)
    unreadable: List[str] = field(default_factory=list)

    @property
    def problems(self) -> List[str]:
        """Every finding, unreadable first (they taint the whole audit)."""
        return list(self.unreadable) + list(self.corrupt)

    def __len__(self) -> int:
        return len(self.corrupt) + len(self.unreadable)

    def __bool__(self) -> bool:
        return bool(self.corrupt or self.unreadable)

    def as_dict(self) -> dict:
        return {"corrupt": list(self.corrupt),
                "unreadable": list(self.unreadable)}


def _read_bytes(path: pathlib.Path) -> Tuple[Optional[bytes], Optional[str]]:
    """(data, None) on success, (None, why) on an access failure."""
    try:
        return path.read_bytes(), None
    except OSError as err:
        return None, f"unreadable ({err})"


def _verify_result(data: bytes) -> Optional[str]:
    """Content problems of one results entry (access already succeeded)."""
    try:
        entry = json.loads(data)
    except ValueError as err:
        return f"corrupt JSON ({err})"
    if not isinstance(entry, dict) or entry.get("schema") != RESULT_SCHEMA:
        return f"schema is not {RESULT_SCHEMA}"
    if "key" not in entry:
        return "missing key"
    try:
        stats = decode_stats(entry)
    except Exception as err:
        # Decoding hand-damaged bytes can fail anywhere (KeyError,
        # TypeError, enum lookups, ...) -- all of it is *content* damage
        # by construction, since the read itself already succeeded.
        return f"stats do not decode ({err})"
    if stats.as_dict() != entry["stats"]:
        return "stats do not round-trip"
    return None


def _verify_program(data: bytes) -> Optional[str]:
    """Content problems of one programs entry."""
    try:
        payload = pickle.loads(data)
    except Exception as err:
        # Same reasoning as above: unpickling corrupt bytes may raise
        # nearly any exception type; the I/O was already done.
        return f"corrupt pickle ({err})"
    if (not isinstance(payload, dict)
            or payload.get("schema") != PROGRAM_SCHEMA):
        return f"schema is not {PROGRAM_SCHEMA}"
    if "key" not in payload:
        return "missing key"
    frozen = payload.get("frozen")
    if not isinstance(frozen, FrozenProgram):
        return "payload is not a FrozenProgram"
    if frozen.format != FROZEN_FORMAT:
        return f"frozen format {frozen.format} is not {FROZEN_FORMAT}"
    return None


def _verify_digest(entry_key, path: pathlib.Path) -> Optional[str]:
    if digest(entry_key) != path.stem:
        return "content digest does not match filename"
    return None


def verify_cache(root=None) -> VerifyReport:
    """Audit every entry; returns a :class:`VerifyReport`.

    Stray files (leftover ``.tmp*`` from an interrupted write, anything
    not named ``<digest>.<json|pkl>``) are reported as corrupt debris --
    the caches never *read* them, but ``verify`` exists to notice them.
    Access failures land in ``unreadable`` and mean the audit could not
    cover the whole store.
    """
    root = _root(root)
    report = VerifyReport()
    checkers = {"results": (".json", _verify_result),
                "programs": (".pkl", _verify_program)}
    for level, (suffix, check) in checkers.items():
        directory = root / level
        if not directory.is_dir():
            continue
        try:
            paths = sorted(directory.rglob("*"))
        except OSError as err:
            report.unreadable.append(f"{level}: cannot list ({err})")
            continue
        for path in paths:
            rel = path.relative_to(root)
            if path.is_dir():
                # Shard directories (results/ab/) are expected; anything
                # *named* like an entry but not openable as one is an
                # access problem, not content damage.
                if path.suffix == suffix:
                    report.unreadable.append(
                        f"{rel}: is a directory, not a cache entry")
                continue
            if path.suffix != suffix:
                report.corrupt.append(f"{rel}: stray file")
                continue
            data, access_problem = _read_bytes(path)
            if access_problem is not None:
                report.unreadable.append(f"{rel}: {access_problem}")
                continue
            problem = check(data)
            if problem is None and path.suffix == ".json":
                entry = json.loads(data)
                problem = _verify_digest(entry["key"], path)
            elif problem is None:
                payload = pickle.loads(data)
                problem = _verify_digest(payload["key"], path)
            if problem is not None:
                report.corrupt.append(f"{rel}: {problem}")
    return report
