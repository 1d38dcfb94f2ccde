"""Breadth-first explicit-state exploration of a preset's universe.

The explorer is a Murphi-style loop wrapped around the real simulator:
take a frontier state, restore the machine to it, enumerate the enabled
actions, apply each to a fresh copy, check every invariant on the
successor, and canonicalise it into the visited set. Because the search
is breadth-first and parent pointers are kept for every visited state,
the first violation found reconstructs a *minimal* (shortest possible)
counterexample action trace.

The loop is level-synchronous: each BFS level's expansions are pure
functions of (snapshot, action), so they are fanned out in fixed-size
chunks -- over a process pool when ``jobs > 1`` -- and merged back **in
submission order**, the same deterministic-merge discipline as
``repro.analysis.parallel.run_cells``. Serial and parallel runs
therefore produce bit-identical results; workers only precompute, the
parent's merge remains the single authority on the visited set, caps,
and the first violation. A level's frontier is a plain in-memory list,
sliced into chunks in append order.

With ``reduce=True`` the engine additionally applies the two
reductions of :mod:`repro.mc.reduce`: canonical keys are minimised over
the model's sound line permutations (with exact orbit counting, so
``represented_states`` reports what an unreduced run would have
counted), and sleep sets prune interleavings whose reordering is
already covered -- never states, which is what keeps the reduced and
unreduced verdicts comparable by equality.

Timing is deliberately outside the state: ``Machine.restore`` rewinds
simulated time and contention to zero, so two interleavings that differ
only in when messages happened to queue collapse into one canonical
state. What remains is exactly the protocol -- cache line flags and
values, directory entries, table bits, replacement order -- which is
why the default preset closes its frontier in seconds.

A transition costs what the snapshot and the modeled lines hold, not
what the machine is built with:

* ``Machine.restore`` clears only the caches that hold lines (a
  cluster's occupied L1s are picked out without a call per cache),
  zeroes the directory occupancy trackers in place, and skips every
  timing resource that holds no reservation. The first action from a
  frontier entry reuses the restore its guards were read under.
* :func:`~repro.mc.state.extract_state` reads through the machine's
  :class:`~repro.mc.state.ExtractPlan`, built on first use: each
  modeled line's directory and cache set dicts, its word addresses and
  the stale whitelist's word positions, so no bank or address is
  recomputed per transition. It renames write-counter values as it
  walks, so the 16-byte digest of the extracted parts
  (:func:`~repro.mc.state.semi_key`) already identifies the successor
  up to value renaming; only a successor not met before pays the
  minimisation over permutations.
* Sleep sets move between frames through per-permutation index tables
  (:class:`~repro.mc.reduce.ReductionContext`), built on a
  permutation's first use.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.analysis.parallel import resolve_jobs
from repro.mc.actions import Action, apply_action, guard_enabled
from repro.mc.invariants import check_state
from repro.mc.presets import ModelConfig, build_machine
from repro.mc.reduce import reduction_context
from repro.mc.state import (SpecState, digest, extract_state,
                            render_signature, semi_key)

#: Frontier entries per pool task: large enough to amortise IPC, small
#: enough to keep the merge window (and worker latency) tight.
CHUNK = 64


@dataclass
class McResult:
    """Everything one exploration run learned."""

    preset: str
    mutation: Optional[str] = None
    states: int = 0            # canonical states visited
    transitions: int = 0       # actions applied (edges examined)
    max_depth_reached: int = 0
    exhaustive: bool = False   # frontier closed with no cap hit
    truncated_by: Optional[str] = None  # "max-states" | "max-depth"
    races: int = 0             # legal Case 5b outcomes observed
    violations: List[str] = field(default_factory=list)
    trace: Optional[List[Action]] = None  # minimal counterexample
    elapsed: float = 0.0
    reduced: bool = False      # symmetry quotient + sleep sets applied
    jobs: int = 1              # effective worker count
    represented_states: Optional[int] = None  # sum of orbit sizes
    reduction_factor: Optional[float] = None  # represented / visited
    sleep_pruned: int = 0      # enabled actions skipped by sleep sets
    levels: List[dict] = field(default_factory=list)  # per-BFS-level

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        from repro.mc.trace import action_to_dict
        return {
            "preset": self.preset,
            "mutation": self.mutation,
            "ok": self.ok,
            "states": self.states,
            "transitions": self.transitions,
            "max_depth_reached": self.max_depth_reached,
            "exhaustive": self.exhaustive,
            "truncated_by": self.truncated_by,
            "races": self.races,
            "violations": self.violations,
            "trace": ([action_to_dict(a) for a in self.trace]
                      if self.trace is not None else None),
            "elapsed_seconds": round(self.elapsed, 3),
            "reduced": self.reduced,
            "jobs": self.jobs,
            "represented_states": self.represented_states,
            "reduction_factor": (round(self.reduction_factor, 3)
                                 if self.reduction_factor is not None
                                 else None),
            "sleep_pruned": self.sleep_pruned,
            "levels": self.levels,
        }


class _WorkerState:
    """Per-(model, mutation) scratch a worker keeps across tasks."""

    def __init__(self, model: ModelConfig, mutation: Optional[str],
                 machine=None) -> None:
        self.ctx = reduction_context(model)
        if machine is None:
            machine = build_machine(model)
            if mutation is not None:
                from repro.mc.mutations import apply_mutation
                apply_mutation(mutation, machine)
        self.machine = machine
        self.spec = SpecState()
        # semi key -> (digest, perm, orbit): a revisited successor (the
        # vast majority) costs one digest of its extracted parts instead
        # of the full minimisation over the symmetry group. Keyed by
        # digests, not the part tuples, which hold more memory per state.
        self.semi_cache: Dict[bytes, tuple] = {}
        # Digests this worker already shipped a snapshot for. Workers
        # never coordinate: at worst two workers ship the same new
        # state and the parent's in-order merge keeps the first.
        self.shipped: set = set()


#: Worker-process cache, keyed (model, mutation); lives for the pool's
#: lifetime, which is one `explore` call.
_WORKER_CACHE: Dict[tuple, _WorkerState] = {}


def _canonicalize(state: _WorkerState, raw, reduce: bool) -> tuple:
    """(digest, perm, orbit) of an extracted state, via the semi memo."""
    semi = semi_key(raw)
    hit = state.semi_cache.get(semi)
    if hit is None:
        ctx = state.ctx
        if reduce:
            key, perm, orbit = ctx.canonicalize(raw)
        else:
            key = min(render_signature(raw, order)
                      for order in ctx.cluster_orders)
            perm, orbit = None, 1
        hit = (digest(key), perm, orbit)
        state.semi_cache[semi] = hit
    return hit


def _expand_entries(state: _WorkerState, model: ModelConfig,
                    entries: List[tuple], reduce: bool) -> List[dict]:
    """Expand frontier entries; pure precomputation, no global effects.

    Each entry is ``(digest, msnap, ssnap, perm, sleep_canon)``. The
    returned records carry, per explored action in candidate order:
    ``(cand_index, race, violations, succ_digest, succ_sleep, perm,
    full)`` where ``full`` is ``(snaps, problems, orbit)`` the first
    time *this worker* meets the successor, else ``None``.
    """
    ctx = state.ctx
    machine, spec = state.machine, state.spec
    out: List[dict] = []
    for _pdigest, msnap, ssnap, perm, sleep_canon in entries:
        machine.restore(msnap)
        enabled = [c.index for c in ctx.candidates
                   if guard_enabled(machine, c)]
        if reduce and sleep_canon:
            sleep = ctx.sleep_to_concrete(sleep_canon, perm)
        else:
            sleep = frozenset()
        explored = [i for i in enabled if i not in sleep]
        trans: List[tuple] = []
        # The state's sleep set plus the siblings explored so far.
        prior = set(sleep)
        first = True
        for index in explored:
            if first:  # guards only read: the first action needs none
                first = False
            else:
                machine.restore(msnap)
            spec.restore(ssnap)
            outcome = apply_action(machine, model, spec,
                                   ctx.candidates[index].action)
            raw = extract_state(machine, model, spec)
            sdigest, sperm, orbit = _canonicalize(state, raw, reduce)
            if reduce:
                succ_sleep = ctx.sleep_to_canonical(
                    ctx.successor_sleep(index, prior), sperm)
            else:
                succ_sleep = ()
            prior.add(index)
            if sdigest in state.shipped:
                full = None
            else:
                state.shipped.add(sdigest)
                full = ((machine.snapshot(), spec.snapshot()),
                        tuple(check_state(machine, model, spec)), orbit)
            trans.append((index, 1 if outcome.race else 0,
                          tuple(outcome.violations), sdigest, succ_sleep,
                          sperm, full))
        out.append({"pruned": len(enabled) - len(explored),
                    "trans": trans})
    return out


def _expand_chunk(payload: dict) -> List[dict]:
    """Pool entry point: expand one chunk in a (cached) worker state."""
    model, mutation = payload["model"], payload["mutation"]
    cache_key = (model, mutation)
    state = _WORKER_CACHE.get(cache_key)
    if state is None:
        _WORKER_CACHE.clear()  # one (model, mutation) per pool lifetime
        state = _WorkerState(model, mutation)
        _WORKER_CACHE[cache_key] = state
    return _expand_entries(state, model, payload["entries"],
                           payload["reduce"])


class _Violation(Exception):
    """Internal: unwinds the level loop at the first violation."""

    def __init__(self, violations, trace):
        self.violations = list(violations)
        self.trace = trace
        super().__init__("invariant violation")


def explore(model: ModelConfig, machine=None,
            mutation: Optional[str] = None,
            max_states: Optional[int] = None,
            max_depth: Optional[int] = None,
            progress: Optional[Callable[[int, int], None]] = None,
            progress_every: int = 2000,
            reduce: bool = False,
            jobs: Optional[int] = None) -> McResult:
    """Exhaustively explore ``model``; stop at the first violation.

    ``machine`` defaults to a fresh :func:`build_machine`; pass one to
    check a pre-mutated or pre-conditioned instance (this forces
    in-process expansion, since a hand-patched machine cannot be
    rebuilt inside a pool worker). ``mutation`` names a registered bug
    injection (see :mod:`repro.mc.mutations`) applied before
    exploration -- the acceptance test for the checker itself.

    ``reduce`` turns on the sound reductions of :mod:`repro.mc.reduce`
    (line-symmetry quotient + sleep-set partial-order reduction);
    ``jobs`` requests pool workers (``None`` -> ``REPRO_JOBS`` -> 1, 0
    -> one per CPU).
    """
    n_jobs = resolve_jobs(jobs)
    external_machine = machine is not None
    if machine is None:
        machine = build_machine(model)
    if mutation is not None:
        from repro.mc.mutations import apply_mutation
        apply_mutation(mutation, machine)
    cap_states = model.max_states if max_states is None else max_states
    cap_depth = model.max_depth if max_depth is None else max_depth
    result = McResult(preset=model.name, mutation=mutation, reduced=reduce,
                      jobs=1 if external_machine else n_jobs)
    started = time.perf_counter()

    spec = SpecState()
    root_snap = (machine.snapshot(), spec.snapshot())
    root_problems = check_state(machine, model, spec)
    if root_problems:  # a broken initial state needs no actions at all
        result.states = 1
        result.violations = root_problems
        result.trace = []
        result.elapsed = time.perf_counter() - started
        return result

    local = _WorkerState(model, mutation, machine=machine)
    raw = extract_state(machine, model, spec)
    root_digest, root_perm, root_orbit = _canonicalize(local, raw, reduce)
    local.shipped.add(root_digest)
    # visited: digest -> (parent digest, action, depth); None at root.
    visited: Dict[bytes, Optional[tuple]] = {root_digest: None}
    sleep_store: Dict[bytes, FrozenSet[int]] = {root_digest: frozenset()}
    perm_store: Dict[bytes, tuple] = {root_digest: root_perm}
    represented = root_orbit

    # Entries are (digest, machine snapshot, spec snapshot, depth).
    frontier: List[tuple] = [(root_digest, root_snap[0], root_snap[1], 0)]
    pool = None
    if n_jobs > 1 and not external_machine:
        try:
            import concurrent.futures as futures
            pool = futures.ProcessPoolExecutor(max_workers=n_jobs)
        except (ImportError, NotImplementedError, OSError,
                PermissionError) as err:
            print(f"repro mc: process pool unavailable ({err}); "
                  "exploring in-process", file=sys.stderr)
            result.jobs = 1
            pool = None

    def rebuild_trace(digest: bytes) -> List[Action]:
        actions: List[Action] = []
        edge = visited[digest]
        while edge is not None:
            parent, action, _depth = edge
            actions.append(action)
            edge = visited[parent]
        actions.reverse()
        return actions

    counters = {"next_report": progress_every, "represented": represented}
    # Digests whose state has been handed to a worker at least once.
    # A sleep-set shrink for a digest NOT yet here (or still pending
    # dispatch) needs no re-enqueue: its eventual dispatch reads the
    # freshest sleep_store entry anyway.
    expanded_ever = set()

    def merge(chunk: List[tuple], records: List[dict],
              next_frontier: List[tuple], pending_next: set) -> None:
        for entry, record in zip(chunk, records):
            pdigest, pmsnap, pssnap, _pperm, _psleep = entry
            pdepth = 0 if visited[pdigest] is None else visited[pdigest][2]
            result.sleep_pruned += record["pruned"]
            for (index, race, viols, sdigest, succ_sleep, sperm,
                 full) in record["trans"]:
                action = local.ctx.candidates[index].action
                result.transitions += 1
                result.races += race
                if viols:
                    raise _Violation(viols, rebuild_trace(pdigest) + [action])
                if sdigest in visited:
                    if not reduce:
                        continue
                    stored = sleep_store[sdigest]
                    shrunk = stored & frozenset(succ_sleep)
                    if shrunk == stored:
                        continue
                    sleep_store[sdigest] = shrunk
                    if sdigest in pending_next or sdigest not in expanded_ever:
                        continue  # its upcoming dispatch reads the store
                    # Already expanded with a larger sleep set: re-derive
                    # the concrete successor and re-enqueue (Godefroid's
                    # completeness condition for sleep sets).
                    machine.restore(pmsnap)
                    spec.restore(pssnap)
                    apply_action(machine, model, spec, action)
                    next_frontier.append(
                        (sdigest, machine.snapshot(), spec.snapshot(),
                         visited[sdigest][2]))
                    perm_store[sdigest] = sperm
                    pending_next.add(sdigest)
                    continue
                if len(visited) >= cap_states:
                    result.truncated_by = "max-states"
                    continue
                if full is None:
                    raise RuntimeError(
                        "merge saw a new state with no snapshot; "
                        "worker ordering invariant broken")
                snaps, problems, orbit = full
                if problems:
                    raise _Violation(problems,
                                     rebuild_trace(pdigest) + [action])
                visited[sdigest] = (pdigest, action, pdepth + 1)
                sleep_store[sdigest] = frozenset(succ_sleep)
                perm_store[sdigest] = sperm
                counters["represented"] += orbit
                next_frontier.append((sdigest, snaps[0], snaps[1],
                                      pdepth + 1))
                pending_next.add(sdigest)
            if (progress is not None
                    and len(visited) >= counters["next_report"]):
                counters["next_report"] = len(visited) + progress_every
                progress(len(visited), result.transitions)

    try:
        depth_level = 0
        while frontier:
            next_frontier: List[tuple] = []
            pending_next: set = set()
            level_size = len(frontier)

            def dispatchable():
                """Per-chunk payload entries, with refreshed sleep sets
                and cap-depth filtering."""
                for start in range(0, len(frontier), CHUNK):
                    chunk = frontier[start:start + CHUNK]
                    ready = []
                    for digest, msnap, ssnap, depth in chunk:
                        if depth > result.max_depth_reached:
                            result.max_depth_reached = depth
                        if depth >= cap_depth:
                            result.truncated_by = "max-depth"
                            continue
                        ready.append(
                            (digest, msnap, ssnap, perm_store.get(digest),
                             tuple(sorted(sleep_store.get(digest, ())))))
                        expanded_ever.add(digest)
                    if ready:
                        yield ready
            if pool is None:
                for chunk in dispatchable():
                    records = _expand_entries(local, model, chunk, reduce)
                    merge(chunk, records, next_frontier, pending_next)
            else:
                import concurrent.futures as futures
                from collections import deque as _deque
                window: _deque = _deque()
                try:
                    for chunk in dispatchable():
                        while len(window) >= n_jobs * 2:
                            done_chunk, fut = window.popleft()
                            merge(done_chunk, fut.result(), next_frontier,
                                  pending_next)
                        payload = {"model": model, "mutation": mutation,
                                   "reduce": reduce, "entries": chunk}
                        window.append((chunk,
                                       pool.submit(_expand_chunk, payload)))
                    while window:
                        done_chunk, fut = window.popleft()
                        merge(done_chunk, fut.result(), next_frontier,
                              pending_next)
                except futures.process.BrokenProcessPool:
                    # A killed worker loses precomputation only; redo
                    # the whole run in-process (bit-identical result).
                    pool.shutdown(wait=False, cancel_futures=True)
                    print("repro mc: process pool broke; restarting "
                          "exploration in-process", file=sys.stderr)
                    return explore(model, mutation=mutation,
                                   max_states=max_states,
                                   max_depth=max_depth, progress=progress,
                                   progress_every=progress_every,
                                   reduce=reduce, jobs=1)
            frontier = next_frontier
            result.levels.append({
                "depth": depth_level,
                "frontier": level_size,
                "states": len(visited),
                "transitions": result.transitions,
                "elapsed_seconds": round(time.perf_counter() - started, 3),
            })
            depth_level += 1
        result.states = len(visited)
        result.exhaustive = result.truncated_by is None
    except _Violation as violation:
        result.states = len(visited)
        result.violations = violation.violations
        result.trace = violation.trace
    finally:
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    if reduce:
        result.represented_states = counters["represented"]
        if result.states:
            result.reduction_factor = (result.represented_states
                                       / result.states)
    result.elapsed = time.perf_counter() - started
    return result
