"""Cache keying primitives: knobs, canonical JSON, and digests.

A cache key is an ordinary dict of JSON-safe values; :func:`canonical`
normalises enums to their values, dataclasses to field dicts, and
tuples/sets to (sorted) lists, and :func:`digest` hashes the sorted,
separator-free JSON rendering. Two keys digest equal iff they describe
the same configuration, independent of field order or container type.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import pathlib

from repro.errors import SimulationError


def cache_enabled() -> bool:
    """``REPRO_CACHE`` knob: unset/empty/``1`` on, ``0`` off."""
    raw = os.environ.get("REPRO_CACHE")
    if raw in (None, "", "1"):
        return True
    if raw == "0":
        return False
    raise SimulationError(f"REPRO_CACHE must be 0 or 1; got {raw!r}")


def cache_root() -> pathlib.Path:
    """``REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro``/``~/.cache/repro``."""
    raw = os.environ.get("REPRO_CACHE_DIR")
    if raw:
        return pathlib.Path(raw)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = pathlib.Path(xdg) if xdg else pathlib.Path.home() / ".cache"
    return base / "repro"


def canonical(obj):
    """Normalise ``obj`` into plain JSON-safe containers (or raise)."""
    if isinstance(obj, enum.Enum):
        return obj.value
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: canonical(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(canonical(k)): canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(canonical(v) for v in obj)
    if obj is None or isinstance(obj, (str, int, float, bool)):
        return obj
    raise TypeError(
        f"cannot canonicalise {type(obj).__name__!s} for cache keying")


def canonical_json(obj) -> str:
    return json.dumps(canonical(obj), sort_keys=True, separators=(",", ":"))


def digest(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def write_atomically(path: pathlib.Path, write) -> None:
    """Create ``path`` by ``write(fh)`` into a temp file, then a rename.

    Readers see the old file or the whole new one, never part of a
    write. When ``write`` or the rename fails, the temp file is removed
    before the error propagates, so a failed write (a full disk, an
    unpicklable payload) leaves nothing behind.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
    try:
        with open(tmp, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise
