"""Cross-objective property harness: the three headline objectives —
traffic (Fig. 10), step time (Fig. 10/13), and energy (Sec. 6) — locked
together, zoo-wide.

The adaptive DP optimizes whichever cost model it is handed, and every
walker-backed model is bit-exact against the evaluator it mirrors, so
three properties must hold *simultaneously* at every buffer size:

* **energy dominance** — ``mbs-auto(energy)`` joules never exceed
  ``min(mbs1, mbs2, mbs-auto, mbs-auto(latency))``: its DP searches a
  superset of all their partitions under the exact energy model;
* **lexicographic tie-break** — ``mbs-auto(latency+traffic)`` matches
  ``mbs-auto(latency)``'s step time (the composite's primary arithmetic
  is bit-identical to the latency-only DP's) while never spending more
  DRAM bytes (the int-valued secondary breaks exact primary ties);
* **prediction exactness** — every objective's schedule-level cost
  equals the simulator's report bit-for-bit, for every policy.

One grid drives all of it: every zoo network × every power-of-4 buffer
from 16 KiB to 4 MiB — the tight-buffer regime where the objectives
genuinely diverge.
"""
import pytest

from repro.core.cost import (
    EnergyCostModel,
    LatencyCostModel,
    LexCost,
    LexicographicCostModel,
    MemoizedCostModel,
    TrafficCostModel,
)
from repro.core.grouping import AdaptiveGroup, adaptive_grouping, split_segments
from repro.core.policies import (
    OBJECTIVES,
    POLICIES,
    SweepCaches,
    make_schedule,
    sweep_schedules,
)
from repro.core.subbatch import per_block_sub_batches
from repro.core.traffic import compute_traffic
from repro.types import KIB
from repro.wavecore.config import config_for_policy
from repro.wavecore.simulator import simulate_step
from repro.zoo import PAPER_NETWORKS, build

#: Acceptance grid: every power-of-4 buffer from 16 KiB to 4 MiB.
BUFFERS = tuple(16 * KIB * 4**i for i in range(5))

#: Zoo-wide: the paper's deep CNNs plus the structural stress cases.
NETWORKS = tuple(PAPER_NETWORKS) + (
    "resnet18", "resnet34", "toy_chain", "toy_residual", "toy_inception",
)

#: The schedules every property compares (label -> policy, objective).
CONTENDERS = (
    ("mbs1", "mbs1", "traffic"),
    ("mbs2", "mbs2", "traffic"),
    ("auto", "mbs-auto", "traffic"),
    ("lat", "mbs-auto", "latency"),
    ("lex", "mbs-auto", "latency+traffic"),
    ("en", "mbs-auto", "energy"),
)


@pytest.fixture(scope="module")
def nets():
    return {name: build(name) for name in
            set(NETWORKS) | {"toy_inception", "resnet50"}}


def _contenders(net, buf):
    """All six schedules plus the shared evaluation hardware config."""
    cfg = config_for_policy("mbs-auto", buffer_bytes=buf)
    scheds = {
        label: make_schedule(
            net, policy, buffer_bytes=buf, objective=objective,
            cfg=cfg if objective != "traffic" else None,
        )
        for label, policy, objective in CONTENDERS
    }
    return scheds, cfg


class TestEnergyDominance:
    """Acceptance: joules of mbs-auto(energy) <= every other contender."""

    @pytest.mark.parametrize("net_name", NETWORKS)
    def test_never_costlier_than_any_contender(self, nets, net_name):
        net = nets[net_name]
        for buf in BUFFERS:
            scheds, cfg = _contenders(net, buf)
            joules = {
                label: simulate_step(net, s, cfg).energy.total_j
                for label, s in scheds.items()
            }
            bound = min(joules[l] for l in ("mbs1", "mbs2", "auto", "lat"))
            assert joules["en"] <= bound * (1 + 1e-12), \
                (net_name, buf, joules)

    def test_energy_schedules_fit_the_buffer(self, nets):
        from repro.core.occupancy import validate_schedule_occupancy
        from repro.types import MIB

        for name in ("resnet50", "inception_v3"):
            net = nets[name]
            for buf in (64 * KIB, 1 * MIB, 10 * MIB):
                sched = make_schedule(net, "mbs-auto", buffer_bytes=buf,
                                      objective="energy")
                assert validate_schedule_occupancy(net, sched) == []

    def test_energy_objective_genuinely_diverges(self, nets):
        """Somewhere on the grid the joules-optimal schedule differs
        from both the bytes-optimal and the seconds-optimal one —
        energy is a third axis, not a relabeling (toy_inception@64 KiB:
        the energy DP trades a slower step for far fewer DRAM joules
        than the latency optimum, and more bytes than the traffic
        optimum buys it a cheaper step overall)."""
        net = nets["toy_inception"]
        diverged_from_traffic = diverged_from_latency = False
        for buf in BUFFERS:
            scheds, cfg = _contenders(net, buf)
            joules = {
                label: simulate_step(net, scheds[label], cfg).energy.total_j
                for label in ("auto", "lat", "en")
            }
            if joules["en"] < joules["auto"] * (1 - 1e-9):
                diverged_from_traffic = True
            if joules["en"] < joules["lat"] * (1 - 1e-9):
                diverged_from_latency = True
        assert diverged_from_traffic and diverged_from_latency

    def test_objective_recorded_on_schedule(self, nets):
        sched = make_schedule(nets["toy_chain"], "mbs-auto",
                              objective="energy")
        assert sched.objective == "energy"
        assert "objective=energy" in sched.describe()


class TestLexicographicTieBreak:
    """Acceptance: mbs-auto(latency+traffic) == mbs-auto(latency) in
    seconds, <= in bytes, zoo-wide."""

    @pytest.mark.parametrize("net_name", NETWORKS)
    def test_time_matches_and_bytes_never_exceed(self, nets, net_name):
        net = nets[net_name]
        for buf in BUFFERS:
            scheds, cfg = _contenders(net, buf)
            t_lat = simulate_step(net, scheds["lat"], cfg).time_s
            t_lex = simulate_step(net, scheds["lex"], cfg).time_s
            # the composite's primary arithmetic is bit-identical to the
            # latency-only DP's; the 1e-12 slack covers only the float
            # reassociation between a DP total and a simulated total
            assert t_lex == pytest.approx(t_lat, rel=1e-12), (net_name, buf)
            b_lat = compute_traffic(net, scheds["lat"]).total_bytes
            b_lex = compute_traffic(net, scheds["lex"]).total_bytes
            assert b_lex <= b_lat, (net_name, buf, b_lex, b_lat)

    def test_still_never_slower_than_fixed_policies(self, nets):
        """The tie-break must not cost time: the composite inherits the
        latency objective's dominance over mbs1/mbs2/mbs-auto."""
        net = nets["toy_inception"]
        for buf in BUFFERS:
            scheds, cfg = _contenders(net, buf)
            t = {label: simulate_step(net, s, cfg).time_s
                 for label, s in scheds.items()}
            bound = min(t["mbs1"], t["mbs2"], t["auto"])
            assert t["lex"] <= bound * (1 + 1e-12), (buf, t)

    def test_tiebreak_mechanism_strictly_fires_on_ties(self):
        """With stub models that tie in the primary but differ in the
        secondary, the lexicographic DP must pick the cheaper-secondary
        partition the primary-only DP walks straight past (the zoo's
        timing model happens to price ties byte-equally today, so the
        mechanism is pinned synthetically)."""

        class FlatTime:
            """Every candidate costs the same seconds per block."""

            def group_cost(self, blocks, sub_batch, branch_reuse,
                           block_fused=None):
                return float(len(blocks))

            def boundary_cost(self, idx, branch_reuse):
                return 0.0

        class SpillBytes:
            """Streaming spills 10 bytes per block, fusing only 1."""

            def group_cost(self, blocks, sub_batch, branch_reuse,
                           block_fused=None):
                return len(blocks) * (10 if sub_batch == 0 else 1)

            def boundary_cost(self, idx, branch_reuse):
                return 0

        kwargs = dict(
            blocks=(0, 1, 2), feasible_reuse=(1, 1, 1),
            feasible_noreuse=(1, 1, 1), mini_batch=4,
        )
        primary_only = adaptive_grouping(cost_model=FlatTime(), **kwargs)
        # the primary-only DP keeps the first candidate on ties: the
        # streaming singleton probed before any fused window
        assert all(g.sub_batch == 0 for g in primary_only)
        lex = adaptive_grouping(
            cost_model=LexicographicCostModel(FlatTime(), SpillBytes()),
            **kwargs,
        )
        # same primary cost (3.0 either way), 10x cheaper secondary:
        # every block now fuses instead of spilling
        assert all(isinstance(g, AdaptiveGroup) and g.sub_batch == 1
                   and g.branch_reuse is False for g in lex)

    def test_objective_recorded_on_schedule(self, nets):
        sched = make_schedule(nets["toy_chain"], "mbs-auto",
                              objective="latency+traffic")
        assert sched.objective == "latency+traffic"
        assert "objective=latency+traffic" in sched.describe()


class TestPredictionExactness:
    """Every objective's schedule-level prediction == the simulator's
    report, bit-for-bit, for every policy."""

    @pytest.mark.parametrize("net_name", ("toy_inception", "resnet50"))
    @pytest.mark.parametrize("policy", POLICIES)
    def test_all_models_match_simulator(self, nets, net_name, policy):
        net = nets[net_name]
        for buf in (16 * KIB, 1024 * KIB):
            sched = make_schedule(net, policy, buffer_bytes=buf)
            cfg = config_for_policy(policy, buffer_bytes=buf)
            rep = simulate_step(net, sched, cfg)
            traffic = TrafficCostModel.for_schedule(net, sched)
            latency = LatencyCostModel.for_schedule(net, sched, cfg=cfg)
            energy = EnergyCostModel.for_schedule(net, sched, cfg=cfg)
            assert traffic.schedule_cost(sched) == rep.dram_bytes
            assert latency.schedule_cost(sched) == rep.time_s
            assert energy.schedule_cost(sched) == rep.energy.total_j
            lex = LexicographicCostModel(latency, traffic)
            assert lex.schedule_cost(sched) == LexCost(
                rep.time_s, rep.dram_bytes
            )

    def test_exactness_on_adaptive_schedules_of_every_objective(self, nets):
        """The models must stay exact on the schedule *shapes* the new
        objectives emit (mixed modes, streaming singletons)."""
        net = nets["toy_inception"]
        for buf in (16 * KIB, 64 * KIB, 1024 * KIB):
            scheds, cfg = _contenders(net, buf)
            for label in ("lat", "lex", "en"):
                sched = scheds[label]
                rep = simulate_step(net, sched, cfg)
                assert TrafficCostModel.for_schedule(
                    net, sched
                ).schedule_cost(sched) == rep.dram_bytes, (label, buf)
                assert LatencyCostModel.for_schedule(
                    net, sched, cfg=cfg
                ).schedule_cost(sched) == rep.time_s, (label, buf)
                assert EnergyCostModel.for_schedule(
                    net, sched, cfg=cfg
                ).schedule_cost(sched) == rep.energy.total_j, (label, buf)

    def test_energy_group_sums_decompose_the_step_energy(self, nets):
        """Per-group joules reassemble the total up to float association
        (the int-valued byte/MAC shares are exact; only the final
        per-component multiplies reassociate)."""
        net = nets["toy_inception"]
        for buf in (16 * KIB, 1024 * KIB):
            cfg = config_for_policy("mbs-auto", buffer_bytes=buf)
            sched = make_schedule(net, "mbs-auto", buffer_bytes=buf,
                                  objective="energy", cfg=cfg)
            model = EnergyCostModel.for_schedule(net, sched, cfg=cfg)
            total = 0.0
            for g in sched.groups:
                reuse = sched.branch_reuse_of(g.blocks[0])
                total += model.group_cost(
                    g.blocks, g.sub_batch, reuse, g.block_fused
                )
                if g.blocks[-1] < sched.num_blocks - 1:
                    total += model.boundary_cost(g.blocks[-1], reuse)
            assert total == pytest.approx(
                model.schedule_cost(sched), rel=1e-12
            )

    @pytest.mark.parametrize("net_name", ("toy_inception", "resnet50"))
    def test_energy_prices_a_non_default_calibration(self, nets, net_name):
        """An ``EnergyParams`` that differs in every field reaches both
        the schedule-level fold and the per-block prices (the path a
        calibration sensitivity sweep takes)."""
        from dataclasses import astuple

        from repro.wavecore.energy import DEFAULT_ENERGY, EnergyParams

        params = EnergyParams(
            mac_pj=5.5, zero_input_fraction=0.3, zero_skip_saving=0.7,
            gbuf_pj_per_byte=1.7, static_w=4.9,
        )
        assert all(a != b for a, b in zip(astuple(params),
                                          astuple(DEFAULT_ENERGY)))
        net = nets[net_name]
        for buf in (16 * KIB, 1024 * KIB):
            for policy, objective in (("mbs2", "traffic"),
                                      ("mbs-auto", "energy")):
                cfg = config_for_policy(policy, buffer_bytes=buf)
                sched = make_schedule(
                    net, policy, buffer_bytes=buf, objective=objective,
                    cfg=cfg if objective != "traffic" else None,
                )
                ref = simulate_step(
                    net, sched, cfg, energy_params=params
                ).energy.total_j
                assert ref != simulate_step(net, sched, cfg).energy.total_j
                model = EnergyCostModel.for_schedule(
                    net, sched, cfg=cfg, params=params
                )
                assert model.schedule_cost(sched) == ref, (policy, buf)
                total = 0.0
                for g in sched.groups:
                    reuse = sched.branch_reuse_of(g.blocks[0])
                    total += model.group_cost(
                        g.blocks, g.sub_batch, reuse, g.block_fused
                    )
                assert total == pytest.approx(ref, rel=1e-12), (policy, buf)

    def test_energy_streaming_costs_reassemble_baseline(self, nets):
        net = nets["toy_chain"]
        sched = make_schedule(net, "baseline")
        model = EnergyCostModel.for_schedule(net, sched)
        total = 0.0
        for i in range(len(net.blocks)):
            total += model.group_cost((i,), 0, False, block_fused=(False,))
        assert total == pytest.approx(
            simulate_step(net, sched).energy.total_j, rel=1e-12
        )

    def test_energy_schedule_cost_rejects_mismatched_environment(self, nets):
        net = nets["toy_chain"]
        sched = make_schedule(net, "mbs2")
        model = EnergyCostModel(net, mini_batch=sched.mini_batch * 2)
        with pytest.raises(ValueError, match="environment"):
            model.schedule_cost(sched)

    def test_energy_boundary_cost_is_zero(self, nets):
        model = EnergyCostModel(nets["toy_chain"], 32)
        assert model.boundary_cost(0, True) == 0.0
        assert model.boundary_cost(0, False) == 0.0

    def test_energy_memo_is_transparent(self, nets):
        from repro.types import MIB

        net = nets["toy_residual"]
        model = EnergyCostModel(net, 32, layer_reuse_bytes=10 * MIB)
        blocks = tuple(range(len(net.blocks)))
        first = model.group_cost(blocks, 2, True)
        assert model.group_cost(blocks, 2, True) == first  # memo hit
        fresh = EnergyCostModel(net, 32, layer_reuse_bytes=10 * MIB)
        assert fresh.group_cost(blocks, 2, True) == first


class TestLexCostValue:
    """The ordered value type the composite DP accumulates."""

    def test_addition_is_componentwise(self):
        a, b = LexCost(1.0, 10), LexCost(2.0, 1)
        assert a + b == LexCost(3.0, 11)

    def test_zero_identity_preserves_bits(self):
        c = LexCost(0.1 + 0.2, 7)  # a value with float dirt on purpose
        assert (0.0 + c).primary == c.primary
        assert (0.0 + c).secondary == c.secondary
        assert (c - 0.0).primary == c.primary

    def test_nonzero_scalar_arithmetic_is_refused(self):
        """A bare nonzero float has no lexicographic meaning; letting it
        through would silently skew one (or both) axes."""
        with pytest.raises(TypeError):
            LexCost(1.0, 2) + 5.0
        with pytest.raises(TypeError):
            LexCost(1.0, 2) - 5.0

    def test_grouping_problem_accepts_lex_model(self, nets):
        """The generic optimizers (GroupingProblem / exhaustive DP) must
        work with a composite model too — docs tell users to bind any
        CostModel into a GroupingProblem."""
        from repro.core.grouping import GroupingProblem, exhaustive_grouping

        net = nets["toy_chain"]
        mb = net.default_mini_batch
        model = LexicographicCostModel(
            LatencyCostModel(net, mb), TrafficCostModel(net, mb)
        )
        problem = GroupingProblem(
            feasible=(1,) * len(net.blocks), mini_batch=mb,
            cost_model=model,
        )
        groups = exhaustive_grouping(problem)
        assert [i for g in groups for i in range(g[0], g[1] + 1)] == \
            list(range(len(net.blocks)))
        total = problem.partition_cost(groups)  # exercises the -= 0.0 edge
        assert isinstance(total, LexCost)
        lat_only = GroupingProblem(
            feasible=(1,) * len(net.blocks), mini_batch=mb,
            cost_model=LatencyCostModel(net, mb),
        )
        # the composite's primary optimum matches the primary-only DP's
        assert total.primary == lat_only.partition_cost(
            exhaustive_grouping(lat_only)
        )

    def test_strict_lexicographic_order(self):
        assert LexCost(1.0, 99) < LexCost(2.0, 0)
        assert LexCost(1.0, 1) < LexCost(1.0, 2)
        assert not LexCost(1.0, 2) < LexCost(1.0, 2)
        assert LexCost(2.0, 0) > LexCost(1.0, 99)

    def test_infinity_sentinel(self):
        assert LexCost(1e300, 1e300) < float("inf")
        assert not LexCost(float("inf"), 0.0) < float("inf")

    def test_subtraction_supports_greedy_gains(self):
        gain = LexCost(3.0, 5) - LexCost(1.0, 2)
        assert gain == LexCost(2.0, 3)
        assert gain > 0.0


def _exact_model(net, sched, cfg):
    """The evaluator-grade model of a schedule's recorded objective."""
    if sched.objective == "latency":
        return LatencyCostModel.for_schedule(net, sched, cfg=cfg)
    if sched.objective == "energy":
        return EnergyCostModel.for_schedule(net, sched, cfg=cfg)
    if sched.objective == "latency+traffic":
        return LexicographicCostModel(
            LatencyCostModel.for_schedule(net, sched, cfg=cfg),
            TrafficCostModel.for_schedule(net, sched),
        )
    return TrafficCostModel.for_schedule(net, sched)


class TestSweepMemoBitExactness:
    """Acceptance: the batch sweep API (group prices memoized across
    points) emits exactly the schedules of naive per-point calls, for
    every policy and every objective, across the acceptance buffer grid.

    This is the correctness contract of the whole memoization stack:
    per-block walker memos, the cross-sweep group-price store, and the
    canonicalized reuse-budget keying must all be invisible in the
    output."""

    @pytest.mark.parametrize("net_name", NETWORKS)
    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_swept_equals_per_point_mbs_auto(self, nets, net_name, objective):
        net = nets[net_name]
        cfg = (config_for_policy("mbs-auto", buffer_bytes=BUFFERS[0])
               if objective != "traffic" else None)
        naive = [
            make_schedule(net, "mbs-auto", buffer_bytes=buf,
                          objective=objective, cfg=cfg)
            for buf in BUFFERS
        ]
        caches = SweepCaches()
        swept = sweep_schedules(net, "mbs-auto", BUFFERS,
                                objective=objective, cfg=cfg, caches=caches)
        assert swept == naive
        # dense-enough grids genuinely share work; an always-cold store
        # would still be correct but defeat the point of the sweep API
        assert caches.hits + caches.misses > 0

    @pytest.mark.parametrize("policy", POLICIES)
    def test_swept_equals_per_point_fixed_policies(self, nets, policy):
        net = nets["toy_inception"]
        bufs = (16 * KIB, 1024 * KIB)
        naive = [make_schedule(net, policy, buffer_bytes=b) for b in bufs]
        assert sweep_schedules(net, policy, bufs) == naive

    def test_repeated_point_is_all_hits(self, nets):
        """Re-visiting a buffer size must add zero misses: every group
        probe of the second pass is answered by the shared store."""
        net = nets["toy_inception"]
        caches = SweepCaches()
        first = sweep_schedules(net, "mbs-auto", (64 * KIB,), caches=caches)
        misses_after_first = caches.misses
        again = sweep_schedules(net, "mbs-auto", (64 * KIB,), caches=caches)
        assert again == first
        assert caches.misses == misses_after_first
        assert caches.hits > 0

    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_memoized_group_prices_match_inner(self, nets, objective):
        """MemoizedCostModel is bit-transparent over every walker-backed
        model: identical values on first (miss) and repeat (hit) probes."""
        net = nets["toy_inception"]
        buf = 64 * KIB
        sched = make_schedule(net, "mbs-auto", buffer_bytes=buf,
                              objective=objective)
        cfg = config_for_policy("mbs-auto", buffer_bytes=buf)
        inner = _exact_model(net, sched, cfg)
        memo = MemoizedCostModel(inner)
        for g in sched.groups:
            reuse = bool(sched.branch_reuse_of(g.blocks[0]))
            exact = inner.group_cost(g.blocks, g.sub_batch, reuse,
                                     g.block_fused)
            assert memo.group_cost(g.blocks, g.sub_batch, reuse,
                                   g.block_fused) == exact
            assert memo.group_cost(g.blocks, g.sub_batch, reuse,
                                   g.block_fused) == exact
        assert memo.hits == memo.misses == len(sched.groups)


class _CountingModel:
    """Stub inner model that counts how often it is actually priced."""

    relu_mask = True

    def __init__(self):
        self.calls = 0

    def group_cost(self, blocks, sub_batch, branch_reuse, block_fused=None):
        self.calls += 1
        return float(len(blocks) * (sub_batch + 1))

    def boundary_cost(self, idx, branch_reuse):
        return 0.0


class TestMemoCounters:
    """Hit/miss bookkeeping of the memo layers, pinned on stubs."""

    def test_hit_and_miss_counts(self):
        memo = MemoizedCostModel(_CountingModel())
        assert memo.group_cost((0, 1), 2, True) == 6.0
        assert (memo.hits, memo.misses) == (0, 1)
        assert memo.group_cost((0, 1), 2, True) == 6.0
        assert (memo.hits, memo.misses) == (1, 1)
        assert memo.inner.calls == 1

    def test_key_distinguishes_every_pricing_fact(self):
        memo = MemoizedCostModel(_CountingModel())
        memo.group_cost((0, 1), 2, True)
        memo.group_cost((0, 1), 1, True)      # sub-batch differs
        memo.group_cost((0, 1), 2, False)     # provisioning differs
        memo.group_cost((0, 2), 2, True)      # members differ
        memo.group_cost((0, 1), 2, True, block_fused=(True, False))
        assert memo.hits == 0 and memo.misses == 5

    def test_shared_store_spans_model_instances(self):
        store = {}
        first = MemoizedCostModel(_CountingModel(), store=store)
        first.group_cost((3, 4), 2, True)
        second = MemoizedCostModel(_CountingModel(), store=store)
        assert second.group_cost((3, 4), 2, True) == 6.0
        assert second.hits == 1 and second.misses == 0
        assert second.inner.calls == 0  # never re-priced

    def test_streaming_cost_is_the_spilled_group_probe(self):
        memo = MemoizedCostModel(_CountingModel())
        assert memo.group_cost(
            (5,), 0, False, block_fused=(False,)
        ) == memo.group_cost((5,), 0, False, block_fused=(False,))
        assert memo.hits == 1  # the second probe hit the first's entry

    def test_sweep_caches_accumulate_search_counters(self, nets=None):
        net = build("toy_inception")
        caches = SweepCaches()
        sweep_schedules(net, "mbs-auto", (32 * KIB, 64 * KIB),
                        caches=caches)
        assert caches.misses > 0
        total = caches.hits + caches.misses
        assert total > caches.misses  # cross-point sharing happened


class TestPrunedDPExactness:
    """The admissible-floor early exit must be invisible: pruned and
    unpruned scans pick the identical partition on real windows under
    every cost-value type (int bytes, float joules, LexCost)."""

    def _models(self, net, mb, buf, cfg):
        return (
            TrafficCostModel(net, mb, relu_mask=True, layer_reuse_bytes=buf),
            EnergyCostModel(net, mb, relu_mask=True, layer_reuse_bytes=buf,
                            cfg=cfg),
            LexicographicCostModel(
                LatencyCostModel(net, mb, relu_mask=True,
                                 layer_reuse_bytes=buf, cfg=cfg),
                TrafficCostModel(net, mb, relu_mask=True,
                                 layer_reuse_bytes=buf),
            ),
        )

    @pytest.mark.parametrize("net_name",
                             ("toy_inception", "toy_residual", "resnet50"))
    def test_prune_true_equals_prune_false(self, nets, net_name):
        net = nets[net_name]
        mb = net.default_mini_batch
        for buf in (16 * KIB, 256 * KIB):
            cfg = config_for_policy("mbs-auto", buffer_bytes=buf)
            feas_reuse = per_block_sub_batches(net, buf, mb,
                                               branch_reuse=True)
            feas_plain = per_block_sub_batches(net, buf, mb,
                                               branch_reuse=False)
            for seg in split_segments(feas_plain):
                if isinstance(seg, int):
                    continue
                start, end = seg
                blocks = tuple(range(start, end + 1))
                kwargs = dict(
                    blocks=blocks,
                    feasible_reuse=tuple(feas_reuse[start:end + 1]),
                    feasible_noreuse=tuple(feas_plain[start:end + 1]),
                    mini_batch=mb,
                )
                for model in self._models(net, mb, buf, cfg):
                    pruned = adaptive_grouping(cost_model=model, **kwargs)
                    full = adaptive_grouping(cost_model=model, prune=False,
                                             **kwargs)
                    assert pruned == full, (net_name, buf, blocks[:3])

    def test_degenerate_single_block_window(self):
        """Regression: a 1-block window must backtrack cleanly — every
        prefix needs a typed AdaptiveGroup choice, and the floor-pruning
        machinery (which needs n > 1) must not disturb it."""
        model = _CountingModel()
        for feas in ((1,), (4,)):
            groups = adaptive_grouping(
                blocks=(7,), feasible_reuse=feas, feasible_noreuse=feas,
                mini_batch=8, cost_model=model,
            )
            assert len(groups) == 1
            g = groups[0]
            assert isinstance(g, AdaptiveGroup)
            assert (g.start, g.end) == (0, 0)
            # the stub prices streaming cheapest (sub_batch 0 term)
            assert g.branch_reuse is None and g.sub_batch == 0


class TestReluMaskAuto:
    """``relu_mask="auto"``: price both settings, keep the cheaper —
    never worse than the fixed ``relu_mask=True`` default, under the
    exact model of whichever objective is being optimized."""

    @pytest.mark.parametrize("net_name",
                             ("toy_inception", "toy_residual", "resnet50"))
    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_never_worse_than_fixed_true(self, nets, net_name, objective):
        net = nets[net_name]
        for buf in (16 * KIB, 64 * KIB, 1024 * KIB):
            cfg = (config_for_policy("mbs-auto", buffer_bytes=buf)
                   if objective != "traffic" else None)
            auto = make_schedule(net, "mbs-auto", buffer_bytes=buf,
                                 objective=objective, cfg=cfg,
                                 relu_mask="auto")
            fixed = make_schedule(net, "mbs-auto", buffer_bytes=buf,
                                  objective=objective, cfg=cfg,
                                  relu_mask=True)
            eval_cfg = cfg or config_for_policy("mbs-auto", buffer_bytes=buf)
            cost_auto = _exact_model(net, auto, eval_cfg).schedule_cost(auto)
            cost_true = _exact_model(net, fixed, eval_cfg).schedule_cost(fixed)
            # LexCost defines only strict order: auto <= true iff not <
            assert not cost_true < cost_auto, (net_name, objective, buf)

    def test_ties_keep_the_paper_default(self, nets):
        """When both settings price identically the schedule records
        ``relu_mask=True`` (the True candidate is priced first and only
        a strictly cheaper alternative replaces it)."""
        net = nets["toy_chain"]
        auto = make_schedule(net, "mbs-auto", relu_mask="auto")
        fixed = make_schedule(net, "mbs-auto", relu_mask=True)
        if TrafficCostModel.for_schedule(net, auto).schedule_cost(auto) == \
                TrafficCostModel.for_schedule(net, fixed).schedule_cost(fixed):
            assert auto.relu_mask is True

    def test_explicit_bool_is_forced(self, nets):
        net = nets["toy_chain"]
        assert make_schedule(net, "mbs-auto",
                             relu_mask=False).relu_mask is False
        assert make_schedule(net, "mbs-auto",
                             relu_mask=True).relu_mask is True

    def test_rejected_for_fixed_policies(self, nets):
        net = nets["toy_chain"]
        with pytest.raises(ValueError, match="fixed by the paper"):
            make_schedule(net, "mbs2", relu_mask=False)
        with pytest.raises(ValueError, match="fixed by the paper"):
            make_schedule(net, "baseline", relu_mask="auto")

    def test_rejects_non_bool_non_auto(self, nets):
        net = nets["toy_chain"]
        with pytest.raises(ValueError, match="True, False, or 'auto'"):
            make_schedule(net, "mbs-auto", relu_mask="yes")
        with pytest.raises(ValueError, match="True, False, or 'auto'"):
            make_schedule(net, "mbs-auto", relu_mask=1)
