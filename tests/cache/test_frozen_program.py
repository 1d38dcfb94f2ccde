"""Program.freeze() and the compiled-artifact store (level 1)."""

import pickle

from repro import Policy
from repro.mem.address import LINE_SHIFT
from repro.runtime.program import (FROZEN_FORMAT, FrozenProgram, Phase,
                                   Program, Task, freeze_phase)
from repro.types import OP_LOAD, OP_STORE, OP_WB

from tests.conftest import make_machine

HEAP = 0x2000_0000


def _program(n_tasks=3):
    tasks = [Task(ops=[(OP_LOAD, HEAP + 0x100 * t), (OP_STORE, HEAP)],
                  flush_lines=[t], input_lines=[t + 7], stack_words=2)
             for t in range(n_tasks)]
    return Program("p", [Phase("ph0", tasks, code_addr=0x10000,
                               code_lines=2)],
                   expected={HEAP: 42})


class TestFreezeThaw:
    def test_task_slices_hold_ops_and_fused_wbs(self):
        program = _program()
        frozen = program.freeze()
        assert frozen.name == program.name
        assert frozen.expected == program.expected
        for phase, fp in zip(program.phases, frozen.phases):
            assert (fp.name, fp.code_addr, fp.code_lines) == \
                (phase.name, phase.code_addr, phase.code_lines)
            assert fp.n_tasks == len(phase.tasks)
            for i, task in enumerate(phase.tasks):
                wbs = [(OP_WB, line << LINE_SHIFT)
                       for line in task.flush_lines]
                assert fp.ops[fp.bounds[i]:fp.bounds[i + 1]] == \
                    list(task.ops) + wbs
                assert fp.flush_lines[i] == tuple(task.flush_lines)
                assert fp.input_lines[i] == tuple(task.input_lines)
                assert fp.stack_words[i] == task.stack_words

    def test_flush_wbs_fused_into_flat_ops(self):
        frozen_phase = freeze_phase(_program().phases[0])
        # Each task's slice ends with one OP_WB per flush line.
        for i in range(frozen_phase.n_tasks):
            lo, hi = frozen_phase.bounds[i], frozen_phase.bounds[i + 1]
            tail = frozen_phase.ops[lo:hi][-len(frozen_phase.flush_lines[i]):]
            assert all(kind == OP_WB for kind, _ in tail)

    def test_format_is_stamped(self):
        assert FROZEN_FORMAT == 4
        assert _program().freeze().format == FROZEN_FORMAT

    def test_frozen_runs_identically_to_plain(self):
        plain = make_machine(Policy.hwcc_ideal()).run(_program(6))
        frozen = make_machine(Policy.hwcc_ideal()).run(_program(6).freeze())
        assert plain.as_dict() == frozen.as_dict()


class TestProgramStore:
    def _run(self, cache_dir, policy=None, workload="gjk", scale=0.12,
             track_data=False):
        from repro.analysis.experiments import ExperimentConfig, run_workload

        exp = ExperimentConfig(n_clusters=2, scale=scale,
                               track_data=track_data)
        stats, _machine = run_workload(workload,
                                       policy or Policy.cohesion(), exp)
        return stats

    def test_store_hit_is_bit_identical(self, cache_dir, monkeypatch):
        from repro.cache import PROGRAM_STATS

        monkeypatch.setenv("REPRO_CACHE", "0")
        fresh = self._run(cache_dir)
        monkeypatch.delenv("REPRO_CACHE")
        cold = self._run(cache_dir)
        assert PROGRAM_STATS.misses == 1 and PROGRAM_STATS.stores == 1
        warm = self._run(cache_dir)
        assert PROGRAM_STATS.hits == 1
        assert fresh.as_dict() == cold.as_dict() == warm.as_dict()

    def test_cold_miss_returns_the_stored_frozen_program(self, cache_dir):
        """A cold miss hands back the artifact it just stored, so the
        executor does not freeze the program a second time; it runs
        like a warm hit on a fresh machine."""
        from repro.analysis.experiments import ExperimentConfig
        from repro.cache import PROGRAM_STATS, build_program
        from repro.sim.machine import Machine
        from repro.workloads import get_workload

        exp = ExperimentConfig(n_clusters=2, scale=0.12)

        def build():
            machine = Machine(exp.machine_config(), Policy.cohesion())
            workload = get_workload("gjk", scale=exp.scale, seed=exp.seed)
            return machine, build_program("gjk", workload, machine)

        cold_machine, cold = build()
        assert PROGRAM_STATS.misses == 1 and PROGRAM_STATS.stores == 1
        assert isinstance(cold, FrozenProgram)
        warm_machine, warm = build()
        assert PROGRAM_STATS.hits == 1
        assert isinstance(warm, FrozenProgram) and warm is not cold
        assert (cold_machine.run(cold).as_dict()
                == warm_machine.run(warm).as_dict())

    def test_cohesion_track_data_replay(self, cache_dir):
        """Cohesion builds have machine side effects (coh_malloc converts
        regions) and track_data needs the backing image; both must replay
        bit-identically from the artifact."""
        cold = self._run(cache_dir, policy=Policy.cohesion(),
                         workload="kmeans", scale=0.25, track_data=True)
        warm = self._run(cache_dir, policy=Policy.cohesion(),
                         workload="kmeans", scale=0.25, track_data=True)
        assert cold.load_mismatches == [] and warm.load_mismatches == []
        assert cold.as_dict() == warm.as_dict()

    def test_corrupt_artifact_is_a_miss(self, cache_dir):
        from repro.cache import PROGRAM_STATS

        self._run(cache_dir)
        artifacts = list((cache_dir / "programs").rglob("*.pkl"))
        assert artifacts
        for path in artifacts:
            path.write_bytes(b"\x80corrupt")
        PROGRAM_STATS.reset()
        warm = self._run(cache_dir)
        assert PROGRAM_STATS.hits == 0 and PROGRAM_STATS.misses == 1
        assert warm.tasks_executed > 0

    def test_older_frozen_format_is_a_miss_that_rebuilds(self, cache_dir,
                                                          monkeypatch):
        """An artifact stamped with an older frozen format is never
        replayed: the store misses, rebuilds, and the run matches a
        fresh build bit for bit."""
        from repro.cache import PROGRAM_STATS

        monkeypatch.setenv("REPRO_CACHE", "0")
        fresh = self._run(cache_dir)
        monkeypatch.delenv("REPRO_CACHE")
        self._run(cache_dir)
        [path] = (cache_dir / "programs").rglob("*.pkl")
        payload = pickle.loads(path.read_bytes())
        payload["frozen"].format = 3
        path.write_bytes(pickle.dumps(payload))
        PROGRAM_STATS.reset()
        rebuilt = self._run(cache_dir)
        assert PROGRAM_STATS.hits == 0 and PROGRAM_STATS.misses == 1
        assert PROGRAM_STATS.stores == 1
        assert rebuilt.as_dict() == fresh.as_dict()
        assert pickle.loads(path.read_bytes())["frozen"].format == FROZEN_FORMAT

    def test_artifact_is_plain_data(self, cache_dir):
        """No callables in the pickle: a frozen program is flat data."""
        self._run(cache_dir)
        path = next((cache_dir / "programs").rglob("*.pkl"))
        with open(path, "rb") as fh:
            payload = pickle.load(fh)
        frozen = payload["frozen"]
        assert isinstance(frozen, FrozenProgram)
        assert not any(callable(value) for phase in frozen.phases
                       for value in vars(phase).values())
