"""Static footprint rule and per-model footprint contexts."""

from repro.mc import (ACTION_KINDS, LINE_SCOPED_KINDS, PRESETS, Action,
                      LineSpec, ModelConfig, build_context, build_machine)
from repro.mc.presets import COHERENT_HEAP, INCOHERENT_HEAP


def model_with(lines, name="fp-test", n_clusters=2, **kw):
    return ModelConfig(name=name, description="footprint test",
                       n_clusters=n_clusters, lines=tuple(lines), **kw)


def smoke_context():
    model = PRESETS["smoke"]
    return build_context(model, build_machine(model)), model.lines[0].line


class TestTable:
    """The kind-level half of the rule: the line-scoped kind set."""

    def test_every_action_kind_declared(self):
        # Every kind gets a footprint by construction, and the
        # line-scoped set names no kind that does not exist.
        fp, line = smoke_context()
        for kind in ACTION_KINDS:
            assert ("line", fp.line_class[0]) in fp.footprint(
                Action(kind, 0, line, 0))
        assert LINE_SCOPED_KINDS <= set(ACTION_KINDS)

    def test_only_core_ops_touch_lru(self):
        fp, line = smoke_context()
        bumping = {k for k in ACTION_KINDS
                   if ("lru", 0) in fp.footprint(Action(k, 0, line, 0))}
        assert bumping == {"load", "store"}

    def test_unlisted_kind_gets_widest_footprint(self):
        # A kind the rule does not name must not be declared independent
        # of anything a listed kind could conflict with: line, directory
        # bank and recency order.
        fp, line = smoke_context()
        prefetch = fp.footprint(Action("prefetch", 0, line, 0))
        assert prefetch == {("line", fp.line_class[0]),
                            ("dir", fp.dir_bank[0]), ("lru", 0)}
        widest = set().union(*(fp.footprint(Action(k, 0, line, 0))
                               for k in ACTION_KINDS))
        assert prefetch == widest


class TestContext:
    def test_smoke_line_is_dir_capable(self):
        # Boots SWcc, but "to_hwcc" is in its alphabet: it can reach
        # the directory, so the dir token must be emitted.
        model = PRESETS["smoke"]
        fp = build_context(model, build_machine(model))
        assert fp.dir_capable == (True,)
        load = Action("load", 0, model.lines[0].line, 0)
        assert ("dir", fp.dir_bank[0]) in fp.footprint(load)

    def test_swcc_pinned_line_never_reaches_directory(self):
        model = model_with([
            LineSpec.at(INCOHERENT_HEAP, actions=("load", "store"))])
        fp = build_context(model, build_machine(model))
        assert fp.dir_capable == (False,)
        store = Action("store", 1, model.lines[0].line, 0)
        assert not any(c[0] == "dir" for c in fp.footprint(store))

    def test_hwcc_boot_line_is_dir_capable(self):
        model = model_with([
            LineSpec.at(COHERENT_HEAP, actions=("load", "store"))])
        fp = build_context(model, build_machine(model))
        assert fp.dir_capable == (True,)

    def test_lru_token_only_for_core_ops(self):
        model = PRESETS["smoke"]
        fp = build_context(model, build_machine(model))
        line = model.lines[0].line
        assert ("lru", 1) in fp.footprint(Action("load", 1, line, 0))
        assert ("lru", 0) in fp.footprint(Action("store", 0, line, 0))
        assert not any(c[0] == "lru"
                       for c in fp.footprint(Action("atomic", 0, line, 0)))
        assert not any(c[0] == "lru"
                       for c in fp.footprint(Action("wb", 0, line, -1)))


class TestIndependence:
    def two_line_model(self):
        return model_with([
            LineSpec.at(INCOHERENT_HEAP, actions=("load", "store")),
            LineSpec.at(INCOHERENT_HEAP + 0x20, actions=("load", "store")),
        ])

    def test_disjoint_lines_different_clusters_independent(self):
        model = self.two_line_model()
        fp = build_context(model, build_machine(model))
        a = Action("load", 0, model.lines[0].line, 0)
        b = Action("store", 1, model.lines[1].line, 0)
        assert fp.independent(a, b)

    def test_same_line_always_dependent(self):
        model = self.two_line_model()
        fp = build_context(model, build_machine(model))
        line = model.lines[0].line
        assert not fp.independent(Action("load", 0, line, 0),
                                  Action("store", 1, line, 0))

    def test_same_cluster_core_ops_share_lru(self):
        # Different lines, but the same initiator: both bump that
        # cluster's recency order, so they must not be declared
        # independent.
        model = self.two_line_model()
        fp = build_context(model, build_machine(model))
        a = Action("load", 0, model.lines[0].line, 0)
        b = Action("load", 0, model.lines[1].line, 0)
        assert not fp.independent(a, b)

    def test_dir_capable_lines_share_their_bank(self):
        model = model_with([
            LineSpec.at(COHERENT_HEAP, actions=("load", "store")),
            LineSpec.at(COHERENT_HEAP + 0x20, actions=("load", "store")),
        ])
        fp = build_context(model, build_machine(model))
        if fp.dir_bank[0] == fp.dir_bank[1]:
            a = Action("load", 0, model.lines[0].line, 0)
            b = Action("load", 1, model.lines[1].line, 0)
            assert not fp.independent(a, b)


class TestAliasFusion:
    def test_colliding_lines_fused_into_one_class(self):
        base = PRESETS["smoke"]
        machine = build_machine(base)
        l2 = machine.clusters[0].l2
        line0 = base.lines[0].line
        alias = next(line0 + k for k in range(1, 1 << 16)
                     if l2.set_index(line0 + k) == l2.set_index(line0))
        from repro.mem.address import line_base
        model = model_with([
            LineSpec.at(line_base(line0), actions=("load", "store")),
            LineSpec.at(line_base(alias), actions=("load", "store")),
        ])
        fp = build_context(model, build_machine(model))
        assert fp.line_class[0] == fp.line_class[1]

    def test_adjacent_lines_stay_separate(self):
        model = model_with([
            LineSpec.at(INCOHERENT_HEAP, actions=("load", "store")),
            LineSpec.at(INCOHERENT_HEAP + 0x20, actions=("load", "store")),
        ])
        fp = build_context(model, build_machine(model))
        assert fp.line_class[0] != fp.line_class[1]
