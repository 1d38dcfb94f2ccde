"""kmeans -- clustering dominated by read-modify-write histogramming.

Each assignment task streams an immutable chunk of points, reads the
current centroids (read-shared, rewritten every iteration), and
accumulates per-centroid sums and counts. The accumulation strategy is
the mode-dependent part the paper calls out (Sections 2.1/4.2):

* Under **pure SWcc** there is no coherent way to share accumulators, so
  every task histogram update is an uncached atomic RMW at the L3 --
  kmeans is "dominated by atomic read-modify-write histogramming
  operations" and is the one benchmark where hardware coherence *reduces*
  message traffic (Figure 2).
* Under **HWcc and Cohesion** tasks accumulate into private per-task
  partial blocks on the coherent heap (plain cached stores), and a
  reduction phase pulls the partials through the hardware protocol with
  only a handful of atomics -- the optimization that "reduces the number
  of uncached operations issued by relying upon HWcc under Cohesion".

A final update phase rewrites the centroids each iteration, forcing the
centroid lines through flush/invalidate (SWcc) or directory (HWcc)
machinery every iteration.
"""

from __future__ import annotations

from repro.runtime.program import Program
from repro.types import PolicyKind
from repro.workloads.base import Workload

_K = 16                 # centroids
_CHUNK_LINES = 24       # point lines streamed per assignment task
_ACC_WORDS = 3 * _K     # sum-x, sum-y, count per centroid


class KMeans(Workload):
    """Two iterations of assign / reduce / update."""

    name = "kmeans"
    code_lines = 6
    iterations = 2

    def _build(self) -> Program:
        n_tasks = 4 * self.scaled(self.n_cores, minimum=4)
        atomic_mode = self.machine.policy.kind is PolicyKind.SWCC

        points = self.alloc("points", n_tasks * _CHUNK_LINES * 32, "immutable",
                            init=lambda w: (w * 7919 + 13) & 0xFFFF)
        centroids = self.alloc("centroids", max(64, _K * 8), "sw",
                               inv_reads=True, inv_writes=True,
                               init=lambda w: (w * 33 + 1) & 0xFFFF)
        # inv_reads matters only under pure SWcc, where the shared
        # accumulators are software-managed like everything else: the
        # update tasks' cached reads of ``acc`` go stale as the next
        # iteration's atomics rewrite it at the L3, so they must be
        # dropped at the barrier (found by analyzer rule COH002).
        acc = self.alloc("acc", max(64, _ACC_WORDS * 4), "hw",
                         inv_reads=True)
        partials = None
        if not atomic_mode:
            partials = self.alloc("partials", n_tasks * _ACC_WORDS * 4, "hw")

        rng = self.rng
        phases = []
        for it in range(self.iterations):
            self.set_phase_salt(10 * it + 1)
            assign_tasks = []
            for t in range(n_tasks):
                sk = self.sketch()
                sk.read(centroids, centroids.lines(), words_per_line=8)
                sk.read(points, points.lines(t * _CHUNK_LINES, _CHUNK_LINES),
                        words_per_line=2)
                sk.compute(_CHUNK_LINES * 8)
                if atomic_mode:
                    # Histogram straight into the shared accumulators.
                    for _ in range(_ACC_WORDS):
                        k = rng.randrange(_K)
                        sk.atomic(acc.word_addr(3 * k + rng.randrange(3)),
                                  operand=1 + rng.randrange(7))
                else:
                    # Private partial block: cached stores, no atomics.
                    base = t * _ACC_WORDS
                    sk.write_words(partials, range(base, base + _ACC_WORDS))
                    sk.atomic(acc.word_addr(3 * (_K - 1) + 2))  # progress count
                assign_tasks.append(sk.done())
            phases.append(self.phase(f"assign{it}", assign_tasks))

            if not atomic_mode:
                # Reduction: pull groups of partial blocks through HWcc.
                self.set_phase_salt(10 * it + 2)
                reduce_tasks = []
                group = 8
                for g in range(0, n_tasks, group):
                    sk = self.sketch()
                    count = min(group, n_tasks - g)
                    first = g * _ACC_WORDS
                    sk.gather(partials,
                              range(first, first + count * _ACC_WORDS, 3))
                    sk.compute(count * _ACC_WORDS // 2)
                    sk.atomic(acc.word_addr(rng.randrange(_ACC_WORDS)))
                    reduce_tasks.append(sk.done())
                phases.append(self.phase(f"reduce{it}", reduce_tasks))

            # Update: a few tasks rewrite the centroids for the next pass.
            self.set_phase_salt(10 * it + 3)
            update_tasks = []
            for k in range(0, _K, 4):
                sk = self.sketch()
                sk.gather(acc, range(3 * k, 3 * min(k + 4, _K)), check=False)
                sk.compute(32)
                # Four 8-byte centroids span exactly one 32-byte line.
                start_line = (k * 8) // 32
                lines = [ln for ln in centroids.lines(start_line, 1)
                         if ln < centroids.base_line + centroids.n_lines]
                sk.write(centroids, lines, words_per_line=8)
                update_tasks.append(sk.done())
            phases.append(self.phase(f"update{it}", update_tasks))
        return self.program(phases)
