"""The repo-invariant meta-lint (tools/selfcheck.py) and its rules."""

import pathlib
import subprocess
import sys
import textwrap

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

import selfcheck  # noqa: E402


class TestTreeIsClean:
    def test_current_tree_passes(self):
        assert selfcheck.run_all() == []

    def test_cli_exit_code(self):
        proc = subprocess.run(
            [sys.executable, str(REPO / "tools" / "selfcheck.py")],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 finding(s)" in proc.stdout


def fake_tree(tmp_path, cluster_src, executor_src):
    root = tmp_path / "src" / "repro"
    (root / "sim").mkdir(parents=True)
    (root / "runtime").mkdir(parents=True)
    (root / "sim" / "cluster.py").write_text(textwrap.dedent(cluster_src))
    (root / "runtime" / "executor.py").write_text(
        textwrap.dedent(executor_src))
    return root


GOOD_CLUSTER = """
    class Cluster:
        def load(self, addr):
            if obs.active:
                obs.emit(ObsEvent(0, EV_LOAD, addr))
        def store(self, addr):
            if obs.active:
                obs.emit(ObsEvent(0, EV_STORE, addr))
        def ifetch(self, addr):
            if obs.active:
                obs.emit(ObsEvent(0, EV_IFETCH, addr))
        def atomic(self, addr):
            if obs.active:
                obs.emit(ObsEvent(0, EV_ATOMIC, addr))
        def flush_line(self, line):
            if obs.active:
                obs.emit(ObsEvent(0, EV_FLUSH, line))
        def invalidate_line(self, line):
            if obs.active:
                obs.emit(ObsEvent(0, EV_INV, line))
"""

GOOD_EXECUTOR = """
    class BspExecutor:
        def _execute_slice(self, cluster, ops, obs_active):
            for op in ops:
                kind = op[0]
                if kind == OP_LOAD:
                    entry = self.l1_sets.get(op[1])
                    if entry is None:
                        cluster.load(op[1])
                    elif obs_active:
                        obs.emit(ObsEvent(0, EV_LOAD, op[1]))
                elif kind == OP_STORE:
                    cluster.store(op[1])
                elif kind == OP_IFETCH:
                    cluster.ifetch(op[1])
                elif kind == OP_ATOMIC:
                    cluster.atomic(op[1])
                elif kind == OP_WB:
                    cluster.flush_line(op[1])
                elif kind == OP_INV:
                    cluster.invalidate_line(op[1])
"""


class TestS001EmitHooks:
    def test_well_formed_tree_passes(self, tmp_path):
        root = fake_tree(tmp_path, GOOD_CLUSTER, GOOD_EXECUTOR)
        assert selfcheck.check_emit_hooks(root) == []

    def test_cluster_method_losing_its_emit_flagged(self, tmp_path):
        broken = GOOD_CLUSTER.replace(
            """\
        def store(self, addr):
            if obs.active:
                obs.emit(ObsEvent(0, EV_STORE, addr))
""",
            """\
        def store(self, addr):
            pass
""")
        root = fake_tree(tmp_path, broken, GOOD_EXECUTOR)
        findings = selfcheck.check_emit_hooks(root)
        assert any("Cluster.store" in f.message and "EV_STORE" in f.message
                   for f in findings)

    def test_unguarded_emit_flagged(self, tmp_path):
        broken = GOOD_CLUSTER.replace(
            """\
            if obs.active:
                obs.emit(ObsEvent(0, EV_FLUSH, line))
""",
            """\
            obs.emit(ObsEvent(0, EV_FLUSH, line))
""")
        root = fake_tree(tmp_path, broken, GOOD_EXECUTOR)
        findings = selfcheck.check_emit_hooks(root)
        assert any("not guarded" in f.message for f in findings)

    def test_fast_path_dropping_its_hook_flagged(self, tmp_path):
        # Inline the load against the hoisted L1 sets but forget the
        # EV_LOAD emit: inlined ops would vanish from the bus.
        broken = GOOD_EXECUTOR.replace(
            """\
                if kind == OP_LOAD:
                    entry = self.l1_sets.get(op[1])
                    if entry is None:
                        cluster.load(op[1])
                    elif obs_active:
                        obs.emit(ObsEvent(0, EV_LOAD, op[1]))
""",
            """\
                if kind == OP_LOAD:
                    entry = self.l1_sets.get(op[1])
                    if entry is None:
                        cluster.load(op[1])
""")
        root = fake_tree(tmp_path, GOOD_CLUSTER, broken)
        findings = selfcheck.check_emit_hooks(root)
        assert any(f.rule == "S001" and "OP_LOAD" in f.message
                   and "EV_LOAD" in f.message for f in findings)

    def test_branch_bypassing_cluster_without_hook_flagged(self, tmp_path):
        broken = GOOD_EXECUTOR.replace("cluster.store(op[1])", "pass")
        root = fake_tree(tmp_path, GOOD_CLUSTER, broken)
        findings = selfcheck.check_emit_hooks(root)
        assert any("OP_STORE" in f.message and "cluster.store" in f.message
                   for f in findings)

    def test_dispatch_outside_execute_slice_flagged(self, tmp_path):
        # The rule anchors on BspExecutor._execute_slice alone: a dispatch
        # moved into any other method is no longer pinned, so it is
        # reported rather than silently skipped.
        moved = GOOD_EXECUTOR.replace("_execute_slice", "_bind_slice")
        root = fake_tree(tmp_path, GOOD_CLUSTER, moved)
        findings = selfcheck.check_emit_hooks(root)
        assert any(f.rule == "S001" and "_execute_slice missing" in f.message
                   for f in findings)

    def test_missing_dispatch_branch_flagged(self, tmp_path):
        broken = GOOD_EXECUTOR.replace(
            """\
                elif kind == OP_INV:
                    cluster.invalidate_line(op[1])
""", "")
        root = fake_tree(tmp_path, GOOD_CLUSTER, broken)
        findings = selfcheck.check_emit_hooks(root)
        assert any("OP_INV" in f.message for f in findings)


class TestS002MeasuredPaths:
    def scan(self, body):
        return selfcheck.scan_measured_path(textwrap.dedent(body), "mod.py")

    @pytest.mark.parametrize("call", [
        "time.time()", "time.perf_counter()", "time.monotonic()",
        "time.process_time()", "datetime.datetime.now()",
        "datetime.datetime.utcnow()",
    ])
    def test_wall_clock_calls_flagged(self, call):
        [finding] = self.scan(f"import time, datetime\nx = {call}\n")
        assert finding.rule == "S002" and "wall-clock" in finding.message

    def test_from_import_of_clock_flagged(self):
        [finding] = self.scan("from time import perf_counter\n")
        assert "perf_counter" in finding.message

    @pytest.mark.parametrize("call", [
        "random.random()", "random.randrange(8)", "random.shuffle(x)",
        "np.random.rand(3)", "numpy.random.randint(4)",
        "np.random.default_rng()",  # unseeded: fresh OS entropy
        "random.Random()",
    ])
    def test_global_rng_calls_flagged(self, call):
        [finding] = self.scan(f"x = {call}\n")
        assert finding.rule == "S002" and "RNG" in finding.message

    @pytest.mark.parametrize("body", [
        "r = random.Random(42)\nx = r.random()\n",
        "g = np.random.default_rng(7)\nx = g.normal()\n",
        "g = np.random.default_rng(seed=7)\n",
        "t = self.clock.now()\n",          # simulated clock, not time.*
        "import time\n",                    # import alone is fine
    ])
    def test_seeded_and_simulated_forms_allowed(self, body):
        assert self.scan(body) == []

    def test_allowlist_excludes_host_side_tooling(self):
        findings = selfcheck.check_measured_paths()
        assert findings == []
        # The harness genuinely reads the wall clock; the allowlist is
        # what keeps the tree green, not an absence of clock reads.
        harness = (selfcheck.SRC_ROOT / "bench" / "harness.py").read_text()
        assert "perf_counter" in harness


GOOD_PRESETS = '''
ACTION_KINDS = ("load", "store", "wb")
'''

GOOD_ACTIONS = '''
def candidates(model):
    out = []
    for kind in model.alphabet:
        if kind == "load":
            out.append(Action("load", 0, 0, 0))
        elif kind in ("store", "wb"):
            out.append(Action(kind, 0, 0, -1))
    return out
'''

GOOD_FOOTPRINTS = '''
FOOTPRINTS = {
    "load": KindFootprint(touches_lru=True),
    "store": KindFootprint(touches_lru=True),
    "wb": KindFootprint(),
}
'''


class TestS003FootprintTable:
    def scan(self, presets=GOOD_PRESETS, actions=GOOD_ACTIONS,
             footprints=GOOD_FOOTPRINTS):
        return selfcheck.scan_footprint_table(presets, actions, footprints)

    def test_real_tree_passes(self):
        assert selfcheck.check_footprint_table() == []

    def test_complete_table_passes(self):
        assert self.scan() == []

    def test_kind_missing_from_table_flagged(self):
        broken = GOOD_FOOTPRINTS.replace(
            '    "wb": KindFootprint(),\n', "")
        findings = self.scan(footprints=broken)
        assert any(f.rule == "S003" and "'wb'" in f.message
                   and "no entry" in f.message for f in findings)

    def test_kind_introduced_in_actions_needs_entry(self):
        # A new Action("flush", ...) constructed only in actions.py --
        # never added to ACTION_KINDS -- still needs a footprint.
        grown = GOOD_ACTIONS + '''
def extra(model):
    return Action("flush", 0, 0, -1)
'''
        findings = self.scan(actions=grown)
        assert any("'flush'" in f.message and "no entry" in f.message
                   for f in findings)

    def test_stale_table_entry_flagged(self):
        stale = GOOD_FOOTPRINTS.replace(
            '    "wb": KindFootprint(),\n',
            '    "wb": KindFootprint(),\n'
            '    "prefetch": KindFootprint(),\n')
        findings = self.scan(footprints=stale)
        assert any("'prefetch'" in f.message and "stale" in f.message
                   for f in findings)

    def test_missing_table_flagged(self):
        findings = self.scan(footprints="OTHER = 1\n")
        assert any("FOOTPRINTS dict literal not found" in f.message
                   for f in findings)

    def test_annotated_table_assignment_accepted(self):
        annotated = GOOD_FOOTPRINTS.replace(
            "FOOTPRINTS = {", "FOOTPRINTS: Dict[str, KindFootprint] = {")
        assert self.scan(footprints=annotated) == []

    def test_missing_action_kinds_anchor_flagged(self):
        findings = self.scan(presets="OTHER = 1\n")
        assert any("ACTION_KINDS" in f.message for f in findings)

    def test_kind_comparison_forms_collected(self):
        # kinds appearing via == / membership tests are also anchored.
        compares = '''
def classify(action):
    if action.kind == "inv":
        return 1
    if action.kind in ("evict",):
        return 2
'''
        findings = self.scan(actions=GOOD_ACTIONS + compares)
        assert any("'inv'" in f.message for f in findings)
        assert any("'evict'" in f.message for f in findings)
