"""Experiment drivers produce well-formed artifacts (cheap checks).

The expensive paper-shape assertions live in test_paper_claims.py; here
we verify each driver runs and returns the structure its figure needs.
"""
import sys

import pytest

from repro.experiments import (
    ablation_grouping,
    fig03_footprint,
    fig04_grouping,
    fig11_buffer_sweep,
    fig12_memory_types,
    fig13_gpu_comparison,
    fig14_utilization,
    headline,
    latency_sweep,
    tab02_area,
)


def test_registry_complete():
    """The registry holds the 15 artifacts in the canonical order."""
    from repro.runtime import spec_names

    assert spec_names() == (
        "fig3", "fig4", "fig6", "fig10", "fig11", "fig12", "fig13",
        "fig14", "tab2", "ablation", "precision", "headline",
        "latency_sweep", "energy_sweep", "scaling",
    )


def test_modules_register_specs():
    """Every driver module registers a matching runtime spec."""
    from repro.runtime import all_specs

    for spec in all_specs():
        module = sys.modules[spec.module]
        assert module.__name__.startswith("repro.experiments.")
        assert spec.produce is module.run
        assert spec.render is module.render


class TestFig3:
    def test_sorted_descending(self):
        res = fig03_footprint.run()
        sizes = [s.inter_layer_bytes for s in res["layers"]]
        assert sizes == sorted(sizes, reverse=True)

    def test_reusable_fraction_small(self):
        res = fig03_footprint.run()
        assert 0.0 < res["reusable_fraction"] < 0.15

    def test_early_layers_are_tens_of_mib(self):
        # Fig. 3's y-axis: the big early layers at N=32
        res = fig03_footprint.run()
        assert res["layers"][0].inter_layer_bytes > 50 * 2**20


class TestFig4:
    def test_groups_cover_blocks(self):
        res = fig04_grouping.run()
        covered = sorted(i for g in res["groups"] for i in g["blocks"])
        assert covered == list(range(len(res["blocks"])))

    def test_sequences_sum_to_mini_batch(self):
        res = fig04_grouping.run()
        for g in res["groups"]:
            assert sum(g["sequence"]) == res["mini_batch"]

    def test_iterations_shrink_with_depth(self):
        res = fig04_grouping.run()
        iters = [g["iterations"] for g in res["groups"]]
        assert iters == sorted(iters, reverse=True)

    def test_few_groups_with_sub_batches_growing(self):
        # Fig. 5 structure: a handful of groups, sub-batches growing
        # with depth
        res = fig04_grouping.run()
        assert 3 <= len(res["groups"]) <= 8
        subs = [g["sub_batch"] for g in res["groups"]]
        assert subs == sorted(subs)


class TestFig11:
    def test_reference_cell_is_one(self):
        res = fig11_buffer_sweep.run()
        assert res["normalized"][("il", 5)]["time"] == pytest.approx(1.0)
        assert res["normalized"][("il", 5)]["traffic"] == pytest.approx(1.0)


class TestFig12:
    def test_kind_breakdown_sums(self):
        res = fig12_memory_types.run()
        for cell in res["cells"].values():
            assert sum(cell["by_kind"].values()) == pytest.approx(
                cell["time_s"]
            )


class TestFig13:
    def test_speedups_defined_for_all_memories(self):
        res = fig13_gpu_comparison.run(networks=("resnet50",))
        row = res["rows"]["resnet50"]
        assert set(row["speedup"]) == {"HBM2x2", "HBM2", "GDDR5", "LPDDR4"}
        assert row["v100_s"] > 0


class TestFig14:
    def test_average_consistent(self):
        res = fig14_utilization.run(networks=("resnet50", "alexnet"))
        for policy, avg in res["average"].items():
            grid_avg = (
                res["grid"]["resnet50"][policy]
                + res["grid"]["alexnet"][policy]
            ) / 2
            assert avg == pytest.approx(grid_avg)


class TestTab2:
    def test_paper_values(self):
        res = tab02_area.run()
        assert res["area"].total_mm2 == pytest.approx(534.0, abs=1.0)
        assert res["tops_fp16"] == pytest.approx(45.9, abs=1.0)
        assert res["buffer_mib"] == 20.0
        assert 40 < res["power_w"] < 80  # paper: 56 W


class TestAblation:
    def test_gap_small_and_nonnegative(self):
        res = ablation_grouping.run(networks=("resnet50",))
        for policy_res in res["rows"]["resnet50"].values():
            assert policy_res["optimal"] <= policy_res["greedy"]
            assert 0.0 <= policy_res["gap"] < 0.05


class TestHeadline:
    def test_averages_present(self):
        res = headline.run(networks=("resnet50",))
        avg = res["average"]
        assert set(avg) == {
            "traffic_saving", "traffic_cut_x", "speedup_vs_baseline",
            "perf_improvement", "energy_saving",
            "auto_traffic_cut_x", "auto_vs_mbs2_x",
            "auto_lat_speedup_x", "auto_lat_time_gain_x",
            "auto_en_saving", "auto_en_vs_mbs2_x",
        }

    def test_energy_objective_never_worse_than_mbs2(self):
        res = headline.run(networks=("resnet50",))
        v = res["per_network"]["resnet50"]
        assert v["auto_en_vs_mbs2_x"] >= 1.0 - 1e-12
        assert v["auto_en_saving"] >= v["energy_saving"] - 1e-12

    def test_latency_objective_never_slower_than_byte_objective(self):
        res = headline.run(networks=("resnet50",))
        v = res["per_network"]["resnet50"]
        assert v["auto_lat_time_gain_x"] >= 1.0 - 1e-12
        assert v["auto_lat_speedup_x"] >= v["speedup_vs_baseline"] - 1e-12


class TestLatencySweep:
    def test_cells_cover_grid_and_divergence_bounds(self):
        res = latency_sweep.run("resnet50", buffers_mib=(1, 5))
        labels = set(latency_sweep.POLICY_SPECS)
        assert {k[0] for k in res["cells"]} == labels
        assert {k[1] for k in res["cells"]} == {1, 5}
        for buf in (1, 5):
            d = res["divergence"][buf]
            # the latency objective can only gain time, and pays bytes
            assert d["time_gain"] >= 1.0 - 1e-12
            assert d["traffic_cost"] >= 1.0 - 1e-12

    def test_latency_objective_rejects_unlimited_bandwidth(self):
        """The DP prices bandwidth-limited time; reporting under
        unlimited bandwidth would be a different metric entirely."""
        from repro.experiments.common import evaluate

        with pytest.raises(ValueError, match="unlimited_bandwidth"):
            evaluate("toy_chain", "mbs-auto", objective="latency",
                     unlimited_bandwidth=True)

    def test_latency_auto_is_fastest_policy_everywhere(self):
        res = latency_sweep.run("resnet50", buffers_mib=(1, 10))
        for buf in (1, 10):
            lat = res["cells"][("mbs-auto:lat", buf)]["time_s"]
            for label in ("mbs1", "mbs2", "mbs-auto"):
                assert lat <= res["cells"][(label, buf)]["time_s"] * (
                    1 + 1e-12
                ), (label, buf)

    def test_tiebreak_strips_bytes_never_adds_them(self):
        res = latency_sweep.run("resnet50", buffers_mib=(1, 10))
        for buf in (1, 10):
            d = res["divergence"][buf]
            assert d["tiebreak_bytes"] <= 1.0
            lat = res["cells"][("mbs-auto:lat", buf)]
            lex = res["cells"][("mbs-auto:lat+tra", buf)]
            assert lex["time_s"] == pytest.approx(lat["time_s"], rel=1e-12)


class TestEnergySweep:
    def test_cells_cover_grid_and_dominance_bounds(self):
        from repro.experiments import energy_sweep

        res = energy_sweep.run("resnet50", buffers_mib=(1, 5))
        labels = set(energy_sweep.POLICY_SPECS)
        assert {k[0] for k in res["cells"]} == labels
        assert {k[1] for k in res["cells"]} == {1, 5}
        for buf in (1, 5):
            # the energy objective can only gain joules vs every other
            # policy: its DP searches a superset of their partitions
            assert res["dominance"][buf]["energy_gain"] >= 1.0 - 1e-12

    def test_savings_relative_to_baseline(self):
        from repro.experiments import energy_sweep

        res = energy_sweep.run("resnet50", buffers_mib=(10,))
        base = res["cells"][("baseline", 10)]["energy_j"]
        for label in ("mbs2", "mbs-auto:en"):
            cell = res["cells"][(label, 10)]["energy_j"]
            assert res["savings"][(label, 10)] == pytest.approx(
                1.0 - cell / base
            )

    def test_energy_objective_rejects_unlimited_bandwidth(self):
        from repro.experiments.common import evaluate

        with pytest.raises(ValueError, match="unlimited_bandwidth"):
            evaluate("toy_chain", "mbs-auto", objective="energy",
                     unlimited_bandwidth=True)


class TestRunnerCli:
    def test_unknown_artifact(self, capsys):
        from repro.experiments.runner import main
        assert main(["nope"]) == 2

    def test_help(self, capsys):
        from repro.experiments.runner import main
        assert main([]) == 0
        assert "Artifacts" in capsys.readouterr().out
