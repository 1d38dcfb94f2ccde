"""The full 1024-core machine constructs and serves basic traffic.

Running the paper's experiments at full scale takes hours in pure
Python; constructing the machine and pushing a little traffic through
it is cheap and catches scale-dependent wiring bugs (bank striding over
32 banks, 8 trees, 128-bit sharer masks). Under ``REPRO_FULL=1`` one
full-machine kernel also runs end to end.
"""

import gc
import os
import weakref

import pytest

from repro import Machine, MachineConfig, Policy
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def machine():
    return Machine(MachineConfig(track_data=True), Policy.cohesion())


class TestFullScale:
    def test_geometry(self, machine):
        assert machine.config.n_cores == 1024
        assert len(machine.clusters) == 128
        assert len(machine.memsys.l3) == 32
        assert len(machine.memsys.dirs) == 32
        assert machine.memsys.net.n_trees == 8

    def test_traffic_spreads_across_banks(self, machine):
        ms = machine.memsys
        for i in range(128):
            machine.clusters[i % 128].load(0, 0x2100_0000 + 2048 * i,
                                           100.0 * i)
        touched_banks = sum(1 for bank in ms.bank_ports.members
                            if bank.acquisitions)
        assert touched_banks > 16  # striding reaches most banks

    def test_128_cluster_sharer_mask(self, machine):
        ms = machine.memsys
        addr = 0x2200_0000
        line = addr >> 5
        for cid in (0, 63, 127):
            machine.clusters[cid].load(0, addr, 50_000.0 + cid)
        entry = ms.directory_of(line).get(line)
        assert entry.sharer_ids() == [0, 63, 127]
        # the writer invalidates sharers across the whole mask width
        machine.clusters[1].store(0, addr, 5, 100_000.0)
        assert entry.owner() == 1

    def test_stack_layout_covers_1024_cores(self, machine):
        layout = machine.layout
        base_first, size = layout.stack_region(0)
        base_last, _ = layout.stack_region(1023)
        assert base_last == base_first + 1023 * size

    def test_transition_at_full_scale_broadcasts_128(self, machine):
        ms = machine.memsys
        line = 0x4100_0000 >> 5
        before = ms.counters.probe_response
        ms.transitions.to_hwcc(line, 0, 1e6)
        assert ms.counters.probe_response == before + 128


@pytest.mark.skipif(os.environ.get("REPRO_FULL") != "1",
                    reason="full-scale smoke only under REPRO_FULL=1")
class TestFullScaleSmoke:
    def test_full_machine_gjk(self):
        """One 128-cluster (1024-core) kernel end to end.

        The run starts with the collector enabled, as production runs
        do, so it exercises the pause :meth:`Machine.run` puts around
        the run: the collector must be enabled again afterwards. The
        finished machine must then be freed by reference counting
        alone, and with ``DEBUG_SAVEALL`` over the whole run no
        collection finds a ``repro`` object. At this size a machine
        left for the collector holds the most memory.
        """
        cfg = MachineConfig(track_data=False).scaled(128)
        was_enabled = gc.isenabled()
        flags = gc.get_debug()
        gc.enable()
        gc.collect()
        gc.garbage.clear()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            machine = Machine(cfg, Policy.cohesion(entries_per_bank=1024,
                                                   assoc=64))
            program = get_workload("gjk", scale=1.0, seed=1234).build(machine)
            stats = machine.run(program)
            assert gc.isenabled()
            assert stats.as_dict()["cycles"] > 0
            ref = weakref.ref(machine)
            del machine, program
            assert ref() is None
            gc.collect()
            found = [obj for obj in gc.garbage
                     if type(obj).__module__.startswith("repro")]
            gc.garbage.clear()
            assert found == []
        finally:
            gc.set_debug(flags)
            if not was_enabled:
                gc.disable()
