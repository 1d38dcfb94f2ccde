"""Level 2: the content-addressed result cache.

Maps a full cell fingerprint -- every :class:`Cell` field that reaches
the simulation (the display label is deliberately excluded), the fully
resolved :class:`~repro.config.MachineConfig`, and the source-tree hash
-- to the cell's finished :class:`~repro.sim.stats.RunStats`. A hit
skips the worker entirely.

Entries are JSON files named by the SHA-256 of their own canonical key
(stored alongside the payload, so ``repro cache verify`` can recompute
it). The stored form is ``RunStats.as_dict()`` plus a small ``aux``
section carrying the raw values the reporting view drops (the useful-op
numerators and the load-mismatch triples), so decoding reconstructs a
``RunStats`` that compares equal to the original -- bit-identity is
checked on every read by re-encoding, and anything unreadable or
inconsistent is treated as a miss.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass
from typing import Optional

from repro.cache import srchash
from repro.cache.keys import cache_root, digest, write_atomically
from repro.coherence.messages import MessageCounters
from repro.sim.stats import RunStats
from repro.types import MessageType, SegmentClass

#: Bumped whenever the entry layout changes incompatibly.
RESULT_SCHEMA = 1

_SLOT_BY_VALUE = {mtype.value: mtype.name.lower() for mtype in MessageType}


@dataclass
class ReuseStats:
    """Process-wide hit/miss accounting (one instance per cache level).

    ``skipped`` counts lookups of *unkeyable* cells (no fingerprint, so
    the cache could not even be consulted); they are part of ``lookups``
    so hit rates are computed over every cell a sweep saw, not just the
    keyable ones. ``put_failures`` counts stores that were requested but
    did not land (unkeyable cell or write error) -- previously invisible.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    skipped: int = 0
    put_failures: int = 0

    def reset(self) -> None:
        self.hits = self.misses = self.stores = 0
        self.skipped = self.put_failures = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses + self.skipped

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "skipped": self.skipped, "stores": self.stores,
                "put_failures": self.put_failures,
                "hit_rate": self.hit_rate}


#: Aggregated across every :class:`ResultCache` instance in the process
#: (drivers construct one per ``run_cells`` call); the CLI reports it.
RESULT_STATS = ReuseStats()


def cell_key(cell) -> dict:
    """The canonical key of one cell (raises if the cell is malformed).

    Resolves the machine config exactly as :func:`run_workload` would,
    so two cells that simulate the same machine key identically however
    their knobs were spelled.
    """
    from repro.cache.keys import canonical

    exp = cell.exp
    extra = dict(cell.config_extra)
    return {
        "schema": RESULT_SCHEMA,
        "source": srchash.source_tree_hash(),
        "workload": cell.workload,
        "policy": canonical(cell.policy),
        "force_hw_data": bool(cell.force_hw_data),
        "scale": exp.scale,
        "seed": exp.seed,
        "ops_per_slice": exp.ops_per_slice,
        "machine_config": canonical(exp.machine_config(**extra)),
    }


def encode_stats(stats: RunStats) -> dict:
    """Lossless JSON form: the reporting dict plus the dropped raws."""
    return {
        "stats": stats.as_dict(),
        "aux": {
            "wb_on_valid": stats.messages.wb_on_valid,
            "inv_on_valid": stats.messages.inv_on_valid,
            "load_mismatches": [list(t) for t in stats.load_mismatches],
        },
    }


def decode_stats(entry: dict) -> RunStats:
    """Rebuild a :class:`RunStats` equal to the one that was encoded."""
    d = entry["stats"]
    aux = entry["aux"]
    counters = MessageCounters()
    for value, count in d["messages"].items():
        setattr(counters, _SLOT_BY_VALUE[value], count)
    counters.wb_issued = d["wb_issued"]
    counters.inv_issued = d["inv_issued"]
    counters.wb_on_valid = aux["wb_on_valid"]
    counters.inv_on_valid = aux["inv_on_valid"]
    return RunStats(
        cycles=d["cycles"],
        messages=counters,
        tasks_executed=d["tasks_executed"],
        ops_executed=d["ops_executed"],
        barriers=d["barriers"],
        dir_avg_entries=d["dir_avg_entries"],
        dir_max_entries=d["dir_max_entries"],
        # Declaration order, not JSON order (sort_keys scrambled it):
        # collect_stats builds this dict by iterating SegmentClass, and
        # bit-identity covers dict iteration order too.
        dir_avg_by_class={cls: d["dir_avg_by_class"][cls.value]
                          for cls in SegmentClass
                          if cls.value in d["dir_avg_by_class"]},
        dir_avg_entries_per_bank=list(d["dir_avg_entries_per_bank"]),
        dir_evictions=d["dir_evictions"],
        l3_hits=d["l3_hits"],
        l3_misses=d["l3_misses"],
        dram_accesses=d["dram_accesses"],
        network_messages=d["network_messages"],
        fine_table_lookups=d["fine_table_lookups"],
        swcc_races=d["swcc_races"],
        transitions_to_swcc=d["transitions_to_swcc"],
        transitions_to_hwcc=d["transitions_to_hwcc"],
        load_mismatches=[tuple(t) for t in aux["load_mismatches"]])


class ResultCache:
    """Disk cache of finished cell results under ``<root>/results/``."""

    def __init__(self, root=None) -> None:
        self.root = pathlib.Path(root) if root is not None else cache_root()
        self.results_dir = self.root / "results"
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.skipped = 0
        self.put_failures = 0

    def fingerprint(self, cell) -> Optional[str]:
        """Digest of the cell's key, or None when the cell cannot be
        keyed (malformed config, unknown workload knobs) -- such cells
        simply always run."""
        try:
            return digest(cell_key(cell))
        except Exception:
            return None

    def _path(self, fingerprint: str) -> pathlib.Path:
        return self.results_dir / fingerprint[:2] / f"{fingerprint}.json"

    def get(self, cell) -> Optional[RunStats]:
        """The cell's cached stats, or None. Never raises: unreadable,
        truncated, or stale entries are misses; unkeyable cells count
        as ``skipped`` so hit-rate denominators stay honest."""
        fingerprint = self.fingerprint(cell)
        if fingerprint is None:
            self.skipped += 1
            RESULT_STATS.skipped += 1
            return None
        try:
            entry = json.loads(self._path(fingerprint).read_text())
            if entry["schema"] != RESULT_SCHEMA:
                raise ValueError("schema mismatch")
            stats = decode_stats(entry)
            if stats.as_dict() != entry["stats"]:
                raise ValueError("entry does not round-trip")
        except Exception:
            self.misses += 1
            RESULT_STATS.misses += 1
            return None
        self.hits += 1
        RESULT_STATS.hits += 1
        return stats

    def put(self, cell, stats) -> bool:
        """Store one result (atomically). Returns False -- never raises
        -- when the cell is unkeyable or the write fails; either way the
        failure is counted in ``put_failures``, never silent, and a
        failed write leaves no temp file behind."""
        if not isinstance(stats, RunStats):
            return self._put_failed()
        fingerprint = self.fingerprint(cell)
        if fingerprint is None:
            return self._put_failed()
        entry = {"schema": RESULT_SCHEMA, "key": cell_key(cell)}
        entry.update(encode_stats(stats))
        text = json.dumps(entry, sort_keys=True) + "\n"
        try:
            write_atomically(self._path(fingerprint),
                             lambda fh: fh.write(text.encode()))
        except OSError:
            return self._put_failed()
        self.stores += 1
        RESULT_STATS.stores += 1
        return True

    def _put_failed(self) -> bool:
        self.put_failures += 1
        RESULT_STATS.put_failures += 1
        return False
