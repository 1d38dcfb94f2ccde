"""Static reduction engine: independence, symmetry, sleep sets.

This module turns the static footprints of :mod:`repro.mc.footprints`
into the two reductions the explorer applies, plus the machinery that
*checks* them instead of trusting them:

**Action independence / ample sets.** Two candidate actions are
independent iff their static footprints are disjoint. From any state
the explorer then emits a reduced "ample" action set using *sleep
sets* (Godefroid): an action is skipped at a state when a previously
explored sibling path is proven (by independence) to reach the same
successors through a reordering. Unlike stubborn/persistent-set
reductions, the sleep-set discipline never removes *states*, only
redundant interleavings -- which is exactly what the equality gate
demands: identical invariant verdicts and identical reachable-orbit
counts, with fewer transitions. Revisiting a state with a sleep set
that is not a superset of the stored one re-enqueues it with the
intersection, the textbook condition for completeness.

**Line symmetry quotient.** Modeled lines with identical word sets,
action alphabets and boot domains, which cannot alias in any cache and
share directory reach, are interchangeable: permuting them is an
automorphism of the transition system. The canonical key is minimised
over these line permutations x cluster orders (extending the existing
cluster symmetry in :mod:`repro.mc.state`), and each new canonical
state's **orbit size** -- how many cluster-canonical states it stands
for -- is counted exactly, so a reduced run reports precisely the
state count an unreduced run would have produced
(``represented_states``) and the gate can compare them for equality.

Sleep sets live in the *canonical frame*: when a concrete successor is
canonicalised by permutation ``(order, lineperm)``, its sleep set is
mapped through the same permutation before being stored, and mapped
back when the stored snapshot is later re-expanded. This keeps sleep
information meaningful across symmetric revisits.

Nothing here is trusted on faith: :func:`verify_independence`
exhaustively applies every declared-independent enabled pair in both
orders across a model's reachable states (on small universes) and
reports any pair that disables its partner or fails to commute, and
:func:`equality_gate` re-explores a preset reduced vs. unreduced and
diffs the verdicts and orbit counts.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import permutations
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.mc.actions import (_SYMMETRIC_KINDS, Candidate, apply_action,
                              candidate_actions, guard_enabled)
from repro.mc.footprints import FootprintContext, build_context
from repro.mc.presets import ModelConfig, build_machine
from repro.mc.state import SpecState, extract_state, render_signature, semi_key

#: Hard cap on the line-permutation group (product of class factorials);
#: beyond this the canonicalisation cost would dwarf the savings.
MAX_LINE_PERMS = 40_320

Perm = Tuple[Tuple[int, ...], Tuple[int, ...]]  # (cluster order, line perm)


def line_symmetry(model: ModelConfig, machine) -> Tuple[Tuple[int, ...], ...]:
    """The sound line-slot permutation group of ``model``.

    Slots are interchangeable when they agree on every behaviour-
    relevant attribute -- modeled words, action alphabet, boot domain,
    directory capability and bank -- and alias with *nothing* in any
    cache (a slot whose aliasing class is non-singleton stays fixed:
    swapping it would change which lines can evict each other).
    Returns all permutations that only move slots within their class,
    identity first.
    """
    fp = build_context(model, machine)
    class_sizes: Dict[int, int] = {}
    for c in fp.line_class:
        class_sizes[c] = class_sizes.get(c, 0) + 1
    fine = machine.memsys.fine
    groups: Dict[tuple, List[int]] = {}
    for slot, ls in enumerate(model.lines):
        if class_sizes[fp.line_class[slot]] > 1:
            continue  # aliases with another modeled line: not movable
        profile = (ls.words, ls.actions,
                   1 if fine.is_swcc(ls.line) else 0,
                   fp.dir_capable[slot], fp.dir_bank[slot])
        groups.setdefault(profile, []).append(slot)
    classes = [slots for slots in groups.values() if len(slots) > 1]

    total = 1
    for slots in classes:
        for k in range(2, len(slots) + 1):
            total *= k
    if total > MAX_LINE_PERMS:
        raise ValueError(
            f"line-symmetry group of {model.name!r} has {total} elements "
            f"(cap {MAX_LINE_PERMS}); split the interchangeable lines")

    perms = [list(range(len(model.lines)))]
    for slots in classes:
        expanded = []
        for base in perms:
            for assignment in permutations(slots):
                p = list(base)
                for target, src in zip(slots, assignment):
                    p[target] = src
                expanded.append(p)
        perms = expanded
    perms.sort()  # identity first, deterministic order
    return tuple(tuple(p) for p in perms)


@dataclass
class ReductionContext:
    """Everything state-independent the reduced explorer needs."""

    model: ModelConfig
    fp: FootprintContext
    candidates: Tuple[Candidate, ...]
    lookup: Dict[tuple, int]               # (kind, cluster, line, word) -> idx
    indep: Tuple[FrozenSet[int], ...]      # idx -> indices independent of it
    line_perms: Tuple[Tuple[int, ...], ...]
    cluster_orders: Tuple[Tuple[int, ...], ...]
    #: perm -> (to-canonical, to-concrete) candidate index maps, built
    #: on a perm's first use; sleep sets are mapped on every transition.
    frames: Dict[Perm, Tuple[Tuple[int, ...], Tuple[int, ...]]] = field(
        default_factory=dict, repr=False)

    def canonicalize(self, raw) -> Tuple[tuple, Perm, int]:
        """Minimise ``raw`` over the full symmetry group.

        Returns ``(key, (order, lineperm), orbit)`` where the
        permutation is the (deterministic, first-winning) argmin and
        ``orbit`` is the number of distinct *cluster-canonical* keys in
        the line orbit -- i.e. how many states an unreduced exploration
        would count for this one canonical state.
        """
        best = None
        best_perm: Optional[Perm] = None
        per_line_min = []
        for lam in self.line_perms:
            lbest = None
            lorder = None
            for order in self.cluster_orders:
                sig = render_signature(raw, order, lam)
                if lbest is None or sig < lbest:
                    lbest = sig
                    lorder = order
            per_line_min.append(lbest)
            if best is None or lbest < best:
                best = lbest
                best_perm = (lorder, lam)
        return best, best_perm, len(set(per_line_min))

    def to_canonical_action(self, index: int, perm: Perm) -> int:
        """Map a concrete candidate index into the canonical frame."""
        order, lam = perm
        a = self.candidates[index].action
        cluster = 0 if a.kind in _SYMMETRIC_KINDS else order.index(a.cluster)
        pos = lam.index(self.fp.slot_of_line[a.line])
        line = self.model.lines[pos].line
        return self.lookup[(a.kind, cluster, line, a.word)]

    def to_concrete_action(self, index: int, perm: Perm) -> int:
        """Inverse of :meth:`to_canonical_action` for the same perm."""
        order, lam = perm
        a = self.candidates[index].action
        cluster = 0 if a.kind in _SYMMETRIC_KINDS else order[a.cluster]
        line = self.model.lines[lam[self.fp.slot_of_line[a.line]]].line
        return self.lookup[(a.kind, cluster, line, a.word)]

    def _frame(self, perm: Perm) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        frame = self.frames.get(perm)
        if frame is None:
            every = range(len(self.candidates))
            frame = self.frames[perm] = (
                tuple(self.to_canonical_action(i, perm) for i in every),
                tuple(self.to_concrete_action(i, perm) for i in every))
        return frame

    def sleep_to_canonical(self, indices, perm: Perm) -> Tuple[int, ...]:
        """``indices`` in the canonical frame, as the sorted tuple the
        explorer stores and ships."""
        return tuple(sorted(map(self._frame(perm)[0].__getitem__, indices)))

    def sleep_to_concrete(self, indices, perm: Perm) -> FrozenSet[int]:
        return frozenset(map(self._frame(perm)[1].__getitem__, indices))

    def successor_sleep(self, action_index: int, prior) -> FrozenSet[int]:
        """Sleep set inherited by the successor of ``action_index``.

        ``prior`` is the union of the state's own sleep set and the
        sibling actions already explored before this one; only members
        independent of the action survive into the successor.
        """
        return self.indep[action_index].intersection(prior)


@lru_cache(maxsize=None)
def reduction_context(model: ModelConfig) -> ReductionContext:
    """Build (once per model) the full reduction context."""
    machine = build_machine(model)
    fp = build_context(model, machine)
    candidates = candidate_actions(model)
    lookup = {(c.action.kind, c.action.cluster, c.action.line, c.action.word):
              c.index for c in candidates}
    foot = [fp.footprint(c.action) for c in candidates]
    indep = tuple(
        frozenset(j for j, fj in enumerate(foot)
                  if j != i and not (fi & fj))
        for i, fi in enumerate(foot))
    return ReductionContext(
        model=model, fp=fp, candidates=candidates, lookup=lookup,
        indep=indep,
        line_perms=line_symmetry(model, machine),
        cluster_orders=tuple(permutations(range(model.n_clusters))))


def verify_independence(model: ModelConfig,
                        max_states: int = 400) -> List[str]:
    """Dynamically validate the derived footprints against ``model``.

    Explores up to ``max_states`` reachable states breadth-first and,
    at every state, applies each *declared-independent* enabled pair in
    both orders, requiring that neither action disables the other and
    that both orders land in the same state (up to value renaming).
    Returns human-readable discrepancy strings; an empty list means the
    declarations held everywhere they were exercised.
    """
    ctx = reduction_context(model)
    machine = build_machine(model)
    spec = SpecState()
    discrepancies: List[str] = []
    root = (machine.snapshot(), spec.snapshot())
    seen = {semi_key(extract_state(machine, model, spec))}
    queue = deque([root])
    examined = 0

    while queue and examined < max_states:
        msnap, ssnap = queue.popleft()
        examined += 1
        machine.restore(msnap)
        enabled = [c.index for c in ctx.candidates
                   if guard_enabled(machine, c)]
        post: Dict[int, tuple] = {}
        for i in enabled:
            machine.restore(msnap)
            spec.restore(ssnap)
            apply_action(machine, model, spec, ctx.candidates[i].action)
            raw = extract_state(machine, model, spec)
            key = semi_key(raw)
            post[i] = (key, machine.snapshot(), spec.snapshot())
            if key not in seen:
                seen.add(key)
                queue.append(post[i][1:])
        for ai in enabled:
            for bi in enabled:
                if bi <= ai or bi not in ctx.indep[ai]:
                    continue
                a = ctx.candidates[ai].action
                b = ctx.candidates[bi].action
                pair = f"[{a.describe()}] vs [{b.describe()}]"
                both = []
                for first, second in ((ai, bi), (bi, ai)):
                    machine.restore(post[first][1])
                    spec.restore(post[first][2])
                    if not guard_enabled(machine, ctx.candidates[second]):
                        discrepancies.append(
                            f"{pair}: one disables the other")
                        break
                    apply_action(machine, model, spec,
                                 ctx.candidates[second].action)
                    both.append(
                        semi_key(extract_state(machine, model, spec)))
                if len(both) == 2 and both[0] != both[1]:
                    discrepancies.append(f"{pair}: orders do not commute")
        if discrepancies:
            return discrepancies  # one state's worth is plenty of signal
    return discrepancies


def equality_gate(model: ModelConfig, jobs: Optional[int] = None,
                  progress=None) -> dict:
    """Explore ``model`` unreduced and reduced; diff the verdicts.

    The machine-checked soundness argument: same invariant verdicts,
    same violations, same coverage, and the reduced run's
    ``represented_states`` (sum of orbit sizes) equal to the unreduced
    run's state count.
    """
    from repro.mc.explorer import explore

    unreduced = explore(model, jobs=jobs, progress=progress)
    reduced = explore(model, reduce=True, jobs=jobs, progress=progress)
    represented = (reduced.represented_states
                   if reduced.represented_states is not None
                   else reduced.states)
    checks = {
        "verdict": unreduced.ok == reduced.ok,
        "violations": sorted(unreduced.violations)
        == sorted(reduced.violations),
        "coverage": (unreduced.exhaustive == reduced.exhaustive
                     and unreduced.truncated_by == reduced.truncated_by),
        "orbits": unreduced.states == represented,
    }
    return {
        "preset": model.name,
        "ok": all(checks.values()),
        "checks": checks,
        "unreduced": unreduced.as_dict(),
        "reduced": reduced.as_dict(),
    }
