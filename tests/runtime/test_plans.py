"""Equality suite for compiled miss-path plans (repro.runtime.plans).

Every test drives the *same* operation sequence through two identically
configured machines -- one with plan compilation enabled (the default),
one with ``REPRO_PLANS=0`` -- and requires **bit-identical**
observables: per-op return times and values, the full protocol-visible
state snapshot, the L2->L3 message taxonomy, network/port/DRAM resource
statistics (after :meth:`PlanCache.settle`), and the obs event stream.

The generative half (hypothesis) explores random miss sequences over a
small line pool spanning both heaps, from cores in different clusters,
across all three policies -- random directory states arise organically
from the interleavings. The directed half pins the invalidation
contract: a ``region.valid`` flip mid-run must drop every compiled plan
and recompile, never replay stale domain classifications.
"""

import pytest

from repro import Policy
from repro.runtime.executor import _add
from tests.conftest import make_machine

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

COHERENT_HEAP = 0x2000_0000
INCOHERENT_HEAP = 0x4000_0000

#: Small pools per heap so sequences revisit lines: revisits are what
#: create directory churn (S -> M upgrades, multi-sharer probes,
#: read releases) and L3 set pressure.
ADDRS = tuple(COHERENT_HEAP + 32 * i for i in range(6)) + \
        tuple(INCOHERENT_HEAP + 32 * i for i in range(6))

POLICIES = {
    "swcc": Policy.swcc,
    "hwcc": lambda: Policy.hwcc_real(entries_per_bank=512, assoc=8),
    "cohesion": Policy.cohesion,
}

OP_KINDS = ("load", "store", "ifetch", "flush", "inv", "atomic")


def _twin_machines(policy_name, monkeypatch, track_data=True):
    """One plans-on machine and one plans-off machine, same config."""
    monkeypatch.delenv("REPRO_PLANS", raising=False)
    planned = make_machine(POLICIES[policy_name](), track_data=track_data)
    monkeypatch.setenv("REPRO_PLANS", "0")
    interp = make_machine(POLICIES[policy_name](), track_data=track_data)
    monkeypatch.delenv("REPRO_PLANS", raising=False)
    assert planned.memsys._plans is not None
    assert interp.memsys._plans is None
    return planned, interp


def _record_obs(machine):
    events = []
    machine.obs.subscribe(lambda ev: events.append(
        (ev.time, ev.kind, ev.cluster, ev.core, ev.line, ev.addr,
         ev.value, ev.dur, ev.detail)))
    return events


def _drive(machine, ops):
    """Apply an op sequence through the raw cluster interface."""
    out = []
    t = 0.0
    for kind, core, slot, value in ops:
        cluster, local = machine.cluster_of_core(core)
        addr = ADDRS[slot]
        line = addr >> 5
        if kind == "load":
            t, v = cluster.load(local, addr, t)
            out.append(("load", t, v))
        elif kind == "store":
            t = cluster.store(local, addr, value, t)
            out.append(("store", t))
        elif kind == "ifetch":
            t = cluster.ifetch(local, addr, t)
            out.append(("ifetch", t))
        elif kind == "flush":
            t = cluster.flush_line(local, line, t)
            out.append(("flush", t))
        elif kind == "inv":
            t = cluster.invalidate_line(local, line, t)
            out.append(("inv", t))
        else:
            t, old = cluster.atomic(local, addr, _add, value, t)
            out.append(("atomic", t, old))
    return out


def _resource_fingerprint(machine):
    """Every statistic the deferred-stats layer is allowed to batch."""
    ms = machine.memsys
    if ms._plans is not None:
        ms._plans.settle()
    net = ms.net
    def res(r):
        return (r.acquisitions, r.total_busy, sorted(r._used.items()))
    return {
        "ports": [res(c.port) for c in machine.clusters],
        "up": [res(m) for m in net.up_links.members],
        "down": [res(m) for m in net.down_links.members],
        "xbar": res(net.crossbar),
        "bank_ports": [res(m) for m in ms.bank_ports.members],
        "dram": [res(m) for m in ms.dram.channels.members],
        "dram_accesses": list(ms.dram.accesses),
        "net_messages": net.messages,
        "l3": [(b.hits, b.misses, b.evictions) for b in ms.l3],
        "counters": [(name, getattr(ms.counters, name))
                     for name in ms.counters.__slots__],
        "max_time": ms.max_time,
    }


def _assert_equal(planned, interp, out_planned, out_interp,
                  obs_planned=None, obs_interp=None):
    assert out_planned == out_interp
    assert _resource_fingerprint(planned) == _resource_fingerprint(interp)
    assert planned.snapshot() == interp.snapshot()
    if obs_planned is not None:
        assert obs_planned == obs_interp


ops_strategy = st.lists(
    st.tuples(st.sampled_from(OP_KINDS),
              st.integers(min_value=0, max_value=15),
              st.integers(min_value=0, max_value=len(ADDRS) - 1),
              st.integers(min_value=0, max_value=2 ** 31 - 1)),
    min_size=1, max_size=60)


class TestGenerativeEquality:
    """Random miss sequences, plan-compiled vs interpreted."""

    @pytest.mark.parametrize("policy_name", sorted(POLICIES))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(ops=ops_strategy)
    def test_random_sequences_bit_identical(self, policy_name, ops,
                                            monkeypatch):
        planned, interp = _twin_machines(policy_name, monkeypatch)
        _assert_equal(planned, interp, _drive(planned, ops),
                      _drive(interp, ops))

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(ops=ops_strategy)
    def test_observed_replay_emits_identical_streams(self, ops,
                                                     monkeypatch):
        """obs-active signatures carry every emit the interpreter has."""
        planned, interp = _twin_machines("cohesion", monkeypatch)
        obs_p = _record_obs(planned)
        obs_i = _record_obs(interp)
        _assert_equal(planned, interp, _drive(planned, ops),
                      _drive(interp, ops), obs_p, obs_i)
        assert planned.obs.active and interp.obs.active


class TestDirectedEquality:
    """Deterministic sequence long enough to prove replay happened."""

    SEQ = [(("load", "store", "atomic", "flush")[i % 4],
            (i * 5) % 16, (i * 7) % len(ADDRS), i * 3 + 1)
           for i in range(160)]

    @pytest.mark.parametrize("policy_name", sorted(POLICIES))
    def test_plans_replay_and_match(self, policy_name, monkeypatch):
        planned, interp = _twin_machines(policy_name, monkeypatch)
        _assert_equal(planned, interp, _drive(planned, self.SEQ),
                      _drive(interp, self.SEQ))
        stats = planned.memsys._plans.stats()
        assert stats["compiled"] > 0
        assert stats["replayed"] > 0


class TestInvalidation:
    """region.valid flips must recompile, never replay stale plans."""

    def _warm(self, machine, region_addr):
        ops = [("store", i % 16, 6 + i % 6, i + 1) for i in range(40)]
        ops += [("load", i % 16, 6 + i % 6, 0) for i in range(40)]
        return _drive(machine, ops)

    def test_region_flip_drops_compiled_plans(self, monkeypatch):
        monkeypatch.delenv("REPRO_PLANS", raising=False)
        machine = make_machine(Policy.cohesion())
        region = machine.memsys.coarse.add(INCOHERENT_HEAP, 4096,
                                           name="test-heap")
        cache = machine.memsys._plans
        self._warm(machine, INCOHERENT_HEAP)
        assert cache.compiled > 0
        assert cache.sources
        gen = cache.generation
        region.valid = False
        assert not cache.sources, "valid flip must drop every plan"
        assert cache.generation == gen + 1

    def test_flip_mid_run_recompiles_and_stays_identical(self, monkeypatch):
        """The full contract: flip mid-run, equality end to end."""
        monkeypatch.delenv("REPRO_PLANS", raising=False)
        planned = make_machine(Policy.cohesion())
        monkeypatch.setenv("REPRO_PLANS", "0")
        interp = make_machine(Policy.cohesion())
        monkeypatch.delenv("REPRO_PLANS", raising=False)
        outs = []
        for machine in (planned, interp):
            region = machine.memsys.coarse.add(INCOHERENT_HEAP, 4096,
                                               name="test-heap")
            out = self._warm(machine, INCOHERENT_HEAP)
            # Software discipline before the domain flip: push dirty
            # data out and drop the cached copies, as the runtime's
            # convert_region path would.
            out += _drive(machine, [("flush", 0, 6 + i, 0)
                                    for i in range(6)])
            out += _drive(machine, [("inv", 0, 6 + i, 0)
                                    for i in range(6)])
            region.valid = False
            # Same addresses, now hardware-coherent: fresh signatures.
            out += self._warm(machine, INCOHERENT_HEAP)
            outs.append(out)
        _assert_equal(planned, interp, outs[0], outs[1])
        stats = planned.memsys._plans.stats()
        assert stats["compiled"] > 0, "post-flip traffic must recompile"
        assert stats["replayed"] > 0


class TestDeclinedCount:
    """Calls handed to the interpreter before any lookup are counted."""

    def test_full_directory_set_miss_is_declined(self, monkeypatch):
        monkeypatch.delenv("REPRO_PLANS", raising=False)
        machine = make_machine(Policy.hwcc_real(entries_per_bank=1, assoc=1))
        ms = machine.memsys
        by_bank = {}
        for addr in ADDRS:
            by_bank.setdefault(ms._bank(addr >> 5), []).append(addr)
        first, second = next(a for a in by_bank.values() if len(a) > 1)[:2]
        cluster, local = machine.cluster_of_core(0)
        t, _ = cluster.load(local, first, 0.0)
        before = ms._plans.stats()
        assert before["declined"] == 0
        cluster.load(local, second, t)
        after = ms._plans.stats()
        assert ms.dirs[ms._bank(second >> 5)].evictions == 1
        assert after["declined"] == 1
        for key in ("compiled", "replayed", "interpreted"):
            assert after[key] == before[key]
