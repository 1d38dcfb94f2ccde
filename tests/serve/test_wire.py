"""The serve wire schema: strict decoding, fixed defaults, lossless records."""

import pytest

from repro.serve.wire import (MAX_CELLS, WireError, decode_cell,
                              decode_submission, encode_record)

MINIMAL = {"workload": "gjk"}


class TestDecodeCell:
    def test_minimal_cell_uses_fixed_defaults(self):
        cell = decode_cell(MINIMAL)
        assert cell.workload == "gjk" and cell.label == "gjk"
        assert cell.exp.n_clusters == 4 and cell.exp.seed == 1234
        assert cell.exp.backend == "interp"

    def test_defaults_ignore_server_environment(self, monkeypatch):
        # A service must key cells by client bytes only: the same wire
        # cell decodes identically whatever REPRO_* the server has.
        from repro.cache import cell_key

        before = cell_key(decode_cell(MINIMAL))
        monkeypatch.setenv("REPRO_SEED", "9")
        monkeypatch.setenv("REPRO_CLUSTERS", "2")
        assert cell_key(decode_cell(MINIMAL)) == before

    def test_full_cell_round_trips_fields(self):
        cell = decode_cell({
            "workload": "kmeans", "policy": "swcc", "clusters": 2,
            "scale": 0.12, "seed": 7, "ops_per_slice": 4,
            "backend": "interp", "track_data": True, "label": "mine",
            "config": {"l2_bytes": 8192}})
        assert cell.label == "mine"
        assert cell.exp.n_clusters == 2 and cell.exp.seed == 7
        assert cell.exp.backend == "interp"
        assert dict(cell.config_extra) == {"l2_bytes": 8192}

    def test_interp_backend_decodes_like_an_omitted_one(self):
        # "interp" is the only executor; the field stays for wire
        # compatibility and "vec" is rejected below.
        from repro.cache import cell_key

        explicit = decode_cell({**MINIMAL, "backend": "interp"})
        assert cell_key(explicit) == cell_key(decode_cell(MINIMAL))

    @pytest.mark.parametrize("patch,needle", [
        ({"workload": "nope"}, "unknown workload"),
        ({"policy": "nope"}, "unknown policy"),
        ({"backend": "nope"}, "unknown backend"),
        ({"clusters": 0}, "clusters"),
        ({"scale": -1.0}, "scale"),
        ({"ops_per_slice": 0}, "ops_per_slice"),
        ({"seed": True}, "seed"),
        ({"scale": "big"}, "scale"),
        ({"frobnicate": 1}, "unknown cell field"),
        ({"config": {"no_such_knob": 1}}, "no_such_knob"),
        ({"config": {"l2_bytes": [1]}}, "scalar"),
        ({"config": "x"}, "config"),
        ({"backend": "vec"}, "unknown backend"),
        ({"config": {"l2_ports": 0}}, "l2_ports"),
        ({"config": {"l2_bytes": "x"}}, "l2_bytes"),
        ({"config": {"core_freq_ghz": 0}}, "core_freq_ghz"),
        ({"config": {"l3_ports": 4}}, "l3_ports"),
        ({"clusters": 3}, "clusters"),
        ({"clusters": 3, "config": {"l2_ports": 2}}, r"\('clusters'\)"),
        ({"config": {"l2_assoc": 0}}, "l2_assoc"),
        ({"config": {"clusters_per_tree": 0}}, "clusters_per_tree"),
        ({"config": {"tree_msgs_per_cycle": 1e-9}}, "tree_msgs_per_cycle"),
        ({"config": {"memory_bw_gbps": 1e-9}}, "memory_bw_gbps"),
        ({"config": {"memory_bw_gbps": 10 ** 400}}, "memory_bw_gbps"),
        ({"dir_assoc": 0}, r"\('dir_assoc'\)"),
        ({"dir_entries": 0}, r"\('dir_entries'\)"),
        ({"dir_entries": -5}, r"\('dir_entries'\)"),
        ({"dir_entries": 100}, r"\('dir_entries'\)"),
        ({"scale": float("inf")}, "scale"),
    ])
    def test_bad_cells_name_the_field(self, patch, needle):
        with pytest.raises(WireError, match=needle):
            decode_cell({**MINIMAL, **patch})

    def test_missing_workload_is_an_error(self):
        with pytest.raises(WireError, match="workload"):
            decode_cell({})

    def test_non_object_cell_is_an_error(self):
        with pytest.raises(WireError, match="JSON object"):
            decode_cell(["gjk"])


class TestDecodeSubmission:
    def test_single_cell_form(self):
        cells = decode_submission({"schema": 1, "cell": MINIMAL})
        assert len(cells) == 1 and cells[0].workload == "gjk"

    def test_batch_form_preserves_order(self):
        cells = decode_submission({"cells": [
            {"workload": "gjk"}, {"workload": "kmeans"}]})
        assert [c.workload for c in cells] == ["gjk", "kmeans"]

    @pytest.mark.parametrize("payload,needle", [
        ([], "JSON object"),
        ({}, "exactly one"),
        ({"cell": MINIMAL, "cells": [MINIMAL]}, "exactly one"),
        ({"cells": "x"}, "must be a list"),
        ({"cells": []}, "no cells"),
        ({"schema": 99, "cell": MINIMAL}, "unsupported schema"),
    ])
    def test_malformed_submissions(self, payload, needle):
        with pytest.raises(WireError, match=needle):
            decode_submission(payload)

    def test_oversized_batch_maps_to_413(self):
        with pytest.raises(WireError, match="too many cells") as info:
            decode_submission({"cells": [MINIMAL] * (MAX_CELLS + 1)})
        assert info.value.status == 413

    def test_default_wire_error_status_is_400(self):
        with pytest.raises(WireError) as info:
            decode_submission({})
        assert info.value.status == 400


class TestEncodeRecord:
    def test_error_record_shape(self):
        record = encode_record("shed", None, 1.25, error="queue full")
        assert record == {"status": "shed", "fingerprint": None,
                          "latency_ms": 1.25, "result": None,
                          "error": "queue full"}

    def test_result_is_the_lossless_cache_form(self, cache_dir):
        from repro.analysis.parallel import _run_cell
        from repro.cache.results import decode_stats

        cell = decode_cell({"workload": "gjk", "clusters": 2,
                            "scale": 0.12})
        stats = _run_cell(cell)
        record = encode_record("executed", "f" * 64, 10.0, stats)
        assert decode_stats(record["result"]) == stats
