"""Integration tests asserting the paper's figure *shapes*.

Each test names the claim it reproduces.  Absolute values come from our
simulator, so the assertions are on orderings, crossovers, and rough
magnitudes.
"""
import pytest

from repro.experiments import (
    ablation_grouping,
    fig06_normalization,
    fig10_main,
    fig11_buffer_sweep,
    fig12_memory_types,
    fig13_gpu_comparison,
    fig14_utilization,
    headline,
)


@pytest.fixture(scope="module")
def fig10():
    return fig10_main.run()


@pytest.fixture(scope="module")
def fig11():
    return fig11_buffer_sweep.run()


@pytest.fixture(scope="module")
def fig12():
    return fig12_memory_types.run()


@pytest.fixture(scope="module")
def fig14():
    return fig14_utilization.run()


DEEP = ("resnet50", "resnet101", "resnet152", "inception_v3", "inception_v4")


class TestFig6:
    @pytest.fixture(scope="class")
    def fig6(self):
        return fig06_normalization.run(**fig06_normalization.SPEC.quick)

    def test_normalized_training_learns(self, fig6):
        """Paper: GN+MBS reaches BN's accuracy; un-normalized training
        lags badly."""
        curves = fig6["curves"]
        assert curves["BN"].final_val_error < 0.3
        assert curves["GN+MBS"].final_val_error < 0.3
        assert curves["no-norm"].final_val_error > 0.5

    def test_gradient_equivalence(self, fig6):
        """MBS sub-batching is exact for GN, broken for BN."""
        gap = fig6["gradient_equivalence"]
        assert gap["GN"] < 1e-10
        assert gap["BN"] > 1e-4


class TestFig10Traffic:
    def test_mbs_ladder_on_deep_cnns(self, fig10):
        """Fig. 10c ordering: baseline ≥ IL > MBS-FS > MBS1 ≥ MBS2."""
        for net in DEEP:
            cells = fig10["grid"][net]
            t = {p: cells[p]["dram_bytes"] for p in cells}
            assert t["baseline"] >= t["il"] > t["mbs-fs"] > t["mbs1"] >= t["mbs2"]

    def test_traffic_cut_magnitudes(self, fig10):
        """Paper: MBS2 saves 71–78% of DRAM traffic on deep CNNs."""
        for net in DEEP:
            cells = fig10["grid"][net]
            saving = 1 - cells["mbs2"]["dram_bytes"] / cells["archopt"]["dram_bytes"]
            assert 0.65 < saving < 0.85

    def test_alexnet_mbs_fs_backfires(self, fig10):
        """Paper: AlexNet MBS-FS increases traffic 2.6× (FC weight re-reads)."""
        cells = fig10["grid"]["alexnet"]
        ratio = cells["mbs-fs"]["dram_bytes"] / cells["baseline"]["dram_bytes"]
        assert ratio > 1.5

    def test_resnet50_ladder_is_strict(self, fig10):
        cells = fig10["grid"]["resnet50"]
        t = {p: cells[p]["dram_bytes"] for p in cells}
        assert t["mbs2"] < t["mbs1"] < t["mbs-fs"] < t["baseline"]

    def test_alexnet_mbs1_equals_mbs2(self, fig10):
        """Paper Fig. 10: AlexNet has no branch modules, so MBS1 == MBS2."""
        cells = fig10["grid"]["alexnet"]
        assert cells["mbs1"]["dram_bytes"] == cells["mbs2"]["dram_bytes"]


class TestFig10Time:
    def test_mbs2_beats_baseline_on_all_six_networks(self, fig10):
        assert set(fig10["grid"]) == set(DEEP) | {"alexnet"}
        for cells in fig10["grid"].values():
            assert set(cells) == set(fig10["policies"])
            assert cells["mbs2"]["time_s"] < cells["baseline"]["time_s"]

    def test_speedup_ladder(self, fig10):
        for net in DEEP:
            cells = fig10["grid"][net]
            t = {p: cells[p]["time_s"] for p in cells}
            assert t["baseline"] > t["archopt"] >= t["il"]
            assert t["il"] > t["mbs1"] >= t["mbs2"]

    def test_archopt_gain_band(self, fig10):
        """Paper: ArchOpt improves 9–28% over Baseline."""
        for net in fig10["grid"]:
            cells = fig10["grid"][net]
            gain = cells["baseline"]["time_s"] / cells["archopt"]["time_s"]
            assert 1.05 < gain < 1.6

    def test_mbs_fs_hurts_alexnet(self, fig10):
        """Paper: AlexNet shows a performance *loss* with MBS-FS."""
        cells = fig10["grid"]["alexnet"]
        assert cells["mbs-fs"]["time_s"] > cells["il"]["time_s"]

    def test_inception_mbs1_gain_over_fs(self, fig10):
        """Grouping recovers the serialization losses on Inceptions."""
        for net in ("inception_v3", "inception_v4"):
            cells = fig10["grid"][net]
            assert cells["mbs1"]["time_s"] < cells["mbs-fs"]["time_s"]


class TestFig10Energy:
    def test_energy_savings_band(self, fig10):
        """Paper: MBS2 saves 24–30% energy on deep CNNs."""
        for net in DEEP:
            cells = fig10["grid"][net]
            saving = 1 - cells["mbs2"]["energy_j"] / cells["baseline"]["energy_j"]
            assert 0.10 < saving < 0.45

    def test_archopt_conserves_little(self, fig10):
        """Paper: ArchOpt saves only ~2% (static energy only)."""
        for net in DEEP:
            cells = fig10["grid"][net]
            saving = 1 - cells["archopt"]["energy_j"] / cells["baseline"]["energy_j"]
            assert saving < 0.08


class TestFig11:
    def test_mbs_insensitive_to_buffer(self, fig11):
        """Paper: MBS1/MBS2 vary little from 5 to 40 MiB."""
        for policy in ("mbs1", "mbs2"):
            times = [
                fig11["normalized"][(policy, b)]["time"]
                for b in (5, 10, 20, 30, 40)
            ]
            assert max(times) / min(times) < 1.25

    def test_il_needs_buffer(self, fig11):
        il_times = [
            fig11["normalized"][("il", b)]["time"] for b in (5, 10, 20, 30, 40)
        ]
        assert il_times[0] > il_times[-1]

    def test_small_buffer_mbs_beats_big_buffer_il(self, fig11):
        """Paper: MBS2 at 5 MiB outperforms IL at 40 MiB, in both time
        and traffic."""
        mbs_small = fig11["normalized"][("mbs2", 5)]
        il_big = fig11["normalized"][("il", 40)]
        assert mbs_small["time"] < il_big["time"]
        assert mbs_small["traffic"] < il_big["traffic"]

    def test_mbs_spread_below_il_gain(self, fig11):
        """MBS2's time varies less across 5–40 MiB than IL gains."""
        bufs = (5, 10, 20, 30, 40)
        mbs = [fig11["normalized"][("mbs2", b)]["time"] for b in bufs]
        il = [fig11["normalized"][("il", b)]["time"] for b in bufs]
        assert max(mbs) - min(mbs) < il[0] - il[-1] + 0.2

    def test_il_traffic_at_40mib_still_high(self, fig11):
        """Paper: even 40 MiB leaves IL above half the 5-MiB traffic."""
        assert fig11["normalized"][("il", 40)]["traffic"] > 0.4


class TestFig12:
    def test_baseline_is_bandwidth_bound(self, fig12):
        """Paper: Baseline loses ~40% moving HBM2x2 → LPDDR4."""
        drop = (
            fig12["cells"][("baseline", "LPDDR4")]["time_s"]
            / fig12["cells"][("baseline", "HBM2x2")]["time_s"]
        )
        assert drop > 1.3

    def test_mbs2_tolerates_cheap_memory(self, fig12):
        """Paper: MBS2 drops <15% on LPDDR4 and ~4% on GDDR5."""
        cells = fig12["cells"]
        lp = cells[("mbs2", "LPDDR4")]["time_s"] / cells[("mbs2", "HBM2x2")]["time_s"]
        gd = cells[("mbs2", "GDDR5")]["time_s"] / cells[("mbs2", "HBM2x2")]["time_s"]
        assert lp < 1.2
        assert gd < 1.1

    def test_mbs2_lpddr4_beats_baseline_hbm2x2(self, fig12):
        """The paper's cost argument: cheap-memory MBS beats the
        expensive-memory conventional design."""
        assert fig12["speedup"][("mbs2", "LPDDR4")] > 1.0

    def test_conv_dominates_time(self, fig12):
        by_kind = fig12["cells"][("mbs2", "HBM2x2")]["by_kind"]
        assert by_kind["conv"] > by_kind.get("norm", 0)


class TestFig13:
    @pytest.fixture(scope="class")
    def fig13(self):
        return fig13_gpu_comparison.run()

    def test_wavecore_beats_v100(self, fig13):
        """Paper: WaveCore+MBS2 outperforms V100 on every memory type."""
        for net, row in fig13["rows"].items():
            for mem, speedup in row["speedup"].items():
                assert speedup > 1.0, (net, mem)

    def test_gap_widens_with_depth(self, fig13):
        """Paper: the performance gap grows as networks deepen."""
        s = {n: fig13["rows"][n]["speedup"]["LPDDR4"] for n in fig13["rows"]}
        assert s["resnet50"] < s["resnet101"] < s["resnet152"]


class TestFig14:
    def test_paper_averages(self, fig14):
        """Paper averages: 53.8 / 81.5 / 66.7 / 78.6 / 78.6 (±6pp here)."""
        avg = fig14["average"]
        assert avg["baseline"] == pytest.approx(0.538, abs=0.06)
        assert avg["archopt"] == pytest.approx(0.815, abs=0.06)
        assert avg["mbs-fs"] == pytest.approx(0.667, abs=0.06)
        assert avg["mbs1"] == pytest.approx(0.786, abs=0.06)
        assert avg["mbs2"] == pytest.approx(0.786, abs=0.06)

    def test_orderings(self, fig14):
        avg = fig14["average"]
        assert avg["baseline"] < avg["mbs-fs"] < avg["mbs1"]
        assert avg["mbs1"] <= avg["archopt"]

    def test_mbs_within_3pp_of_full_batch(self, fig14):
        """Paper: MBS utilization is within ~3% of conventional batches."""
        avg = fig14["average"]
        assert avg["archopt"] - avg["mbs1"] < 0.05


class TestHeadline:
    @pytest.fixture(scope="class")
    def numbers(self):
        return headline.run()

    def test_four_x_traffic_cut(self, numbers):
        """Abstract: 'reduce DRAM traffic by 75%' / Sec. 3: '4.0×'."""
        assert numbers["average"]["traffic_cut_x"] == pytest.approx(4.0, abs=0.6)
        assert numbers["average"]["traffic_saving"] == pytest.approx(0.75, abs=0.05)

    def test_performance_improvement(self, numbers):
        """Abstract: 53% performance improvement (we land higher but in
        the same regime: MBS roughly halves step time)."""
        assert numbers["average"]["perf_improvement"] > 0.4

    def test_energy_saving(self, numbers):
        """Abstract: 26% system-energy saving."""
        assert numbers["average"]["energy_saving"] == pytest.approx(0.26, abs=0.08)


class TestAblation:
    def test_dp_tracks_greedy_on_every_network(self):
        """Paper footnote 1: the DP is optimal for the grouping cost
        proxy; measured traffic deviates from greedy by ~1% either way."""
        for out in ablation_grouping.run()["rows"].values():
            for res in out.values():
                assert res["optimal"] <= res["greedy"] * 1.005
                assert -0.005 < res["gap"] < 0.05
