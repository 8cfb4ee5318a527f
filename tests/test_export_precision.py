"""JSON export and the precision ablation."""
import json

import pytest

from repro.experiments import ablation_precision
from repro.runtime.serialize import jsonify


class TestPrecisionAblation:
    @pytest.fixture(scope="class")
    def res(self):
        return ablation_precision.run(networks=("resnet50",))

    def test_fp32_doubles_baseline_feature_traffic_roughly(self, res):
        cells = res["rows"]["resnet50"]
        ratio = cells[4]["baseline_bytes"] / cells[2]["baseline_bytes"]
        assert 1.7 < ratio < 2.1  # masks/indices don't scale with words

    def test_fp32_shrinks_sub_batches(self, res):
        cells = res["rows"]["resnet50"]
        assert cells[4]["min_sub_batch"] <= cells[2]["min_sub_batch"]

    def test_mbs_still_wins_at_fp32(self, res):
        cells = res["rows"]["resnet50"]
        assert cells[4]["cut"] > 2.5


class TestJsonify:
    def test_primitives_pass_through(self):
        assert jsonify({"a": 1, "b": [1.5, None, True]}) == {
            "a": 1, "b": [1.5, None, True]
        }

    def test_dataclasses_expand(self):
        from repro.wavecore.report import EnergyBreakdown
        e = EnergyBreakdown(1.0, 2.0, 3.0, 4.0)
        out = jsonify(e)
        assert out == {"dram_j": 1.0, "gbuf_j": 2.0, "compute_j": 3.0,
                       "static_j": 4.0}
        assert jsonify([e, {"k": (e,)}]) == [out, {"k": [out]}]

    def test_enum_keys_and_values(self):
        import enum

        from repro.core.traffic import Category

        class Level(enum.IntEnum):
            LOW = 1
            HIGH = 2

        out = jsonify({Category.FEAT_RD: 10})
        assert out == {"feature_read": 10}
        out = jsonify({Level.HIGH: [Level.LOW], "k": Level.HIGH})
        assert out == {"2": [1], "k": 2}
        assert type(out["k"]) is int and type(out["2"][0]) is int

    def test_scalar_keys_stringify(self):
        # True == 1 as a dict key, so each sits in its own dict
        out = jsonify([{True: 1, None: 2}, {1: 3, "a": {None: 4}}])
        assert out == [{"True": 1, "None": 2}, {"1": 3, "a": {"None": 4}}]

    def test_tuple_keys_flatten(self):
        from collections import OrderedDict

        class Tagged(dict):
            pass

        out = jsonify({("mbs2", 5): 1.0})
        assert out == {"mbs2/5": 1.0}
        out = jsonify([Tagged({("a", 1): (2, ("x",))}), OrderedDict(b=(3,))])
        assert out == [{"a/1": [2, ["x"]]}, {"b": [3]}]
        assert [type(d) for d in out] == [dict, dict]

    def test_numpy_values(self):
        import numpy as np
        assert jsonify(np.float64(2.5)) == 2.5
        assert jsonify(np.arange(3)) == [0, 1, 2]
        out = jsonify({"x": [np.int64(7), (np.float32(0.5),)]})
        assert out == {"x": [7, [0.5]]}
        assert type(out["x"][0]) is int

    def test_experiment_result_serializes(self, tmp_path):
        from repro.experiments import fig04_grouping
        res = jsonify(fig04_grouping.run())
        text = json.dumps(res, default=repr)
        assert "groups" in json.loads(text)


def test_export_all_writes_file(tmp_path, monkeypatch):
    """End-to-end export with a stubbed registry (fast)."""
    import repro.experiments.export as export_mod
    from repro.experiments import fig04_grouping, tab02_area

    monkeypatch.setattr(
        "repro.runtime.spec._REGISTRY",
        {"fig4": fig04_grouping.SPEC, "tab2": tab02_area.SPEC},
    )
    path = tmp_path / "results.json"
    results = export_mod.export_all(str(path))
    assert set(results) == {"fig4", "tab2"}
    loaded = json.loads(path.read_text())
    assert loaded["tab2"]["area"]["pe_array_mm2"] > 0


def test_word_size_scales_module_leaf_traffic():
    """Regression: fp32 must scale ADD-merge leaf spills too (MBS1)."""
    from repro.core.policies import make_schedule
    from repro.core.traffic import compute_traffic
    from repro.zoo import toy_residual

    net = toy_residual()
    t2 = compute_traffic(
        net, make_schedule(net, "mbs1", word_bytes=2),
        2,
    ).total_bytes
    t4 = compute_traffic(
        net, make_schedule(net, "mbs1", word_bytes=4),
        4,
    ).total_bytes
    assert 1.7 < t4 / t2 < 2.1
