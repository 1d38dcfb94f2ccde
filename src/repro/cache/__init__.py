"""Build-once-run-many reuse layer: program artifacts + result cache.

Two independent levels, both content-addressed and both invalidated by
any change to the ``src/repro`` source tree (see :mod:`srchash`):

* :mod:`repro.cache.programs` -- compiled
  :class:`~repro.runtime.program.FrozenProgram` artifacts keyed by
  everything :meth:`Workload.build` depends on, so sweeps build each
  kernel's op stream once and later cells replay it;
* :mod:`repro.cache.results` -- finished
  :class:`~repro.sim.stats.RunStats` keyed by the full cell fingerprint
  (cell fields + the resolved machine config), so re-running a driver
  skips unchanged cells entirely.

Both are governed by ``REPRO_CACHE`` (``0`` disables; default on) and
``REPRO_CACHE_DIR`` (default ``$XDG_CACHE_HOME/repro`` or
``~/.cache/repro``). Reads are corruption-tolerant: any unreadable,
truncated, or stale entry is a miss, never an error. ``repro cache``
(:mod:`repro.cache.manage`) reports, clears, and verifies the store.
"""

from repro.cache.keys import (cache_enabled, cache_root, canonical,
                              canonical_json, digest)
from repro.cache.manage import cache_report, clear_cache, verify_cache
from repro.cache.programs import (PROGRAM_SCHEMA, PROGRAM_STATS, ProgramStore,
                                  build_program, dump_artifact, load_artifact,
                                  program_key)
from repro.cache.results import (RESULT_SCHEMA, RESULT_STATS, ResultCache,
                                 cell_key, decode_stats, encode_stats)

__all__ = [
    "cache_enabled", "cache_root", "canonical", "canonical_json", "digest",
    "cache_report", "clear_cache", "verify_cache",
    "PROGRAM_SCHEMA", "PROGRAM_STATS", "ProgramStore", "build_program",
    "dump_artifact", "load_artifact", "program_key",
    "RESULT_SCHEMA", "RESULT_STATS", "ResultCache", "cell_key",
    "decode_stats", "encode_stats",
]
