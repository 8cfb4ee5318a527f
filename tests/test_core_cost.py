"""Cost-model tests: the objective can never drift from the evaluator.

Three layers of protection:

* consistency — for zoo networks × every policy × a buffer grid, the
  sum of ``TrafficCostModel`` group + boundary costs must equal
  ``compute_traffic(...).total_bytes`` exactly;
* proxy regression — ``mbs1``/``mbs2`` schedules still optimize the
  paper's closed-form objective: traffic totals are pinned to golden
  values captured before the cost-model refactor;
* acceptance — ``mbs-auto`` traffic is at or below ``min(mbs1, mbs2)``
  for every paper network at every Fig. 11 buffer size plus the 16 KiB
  counterexample that used to invert the mbs2 <= mbs1 ordering.
"""
import pytest

from repro.core.cost import ProxyCostModel, TrafficCostModel
from repro.core.occupancy import validate_schedule_occupancy
from repro.core.policies import POLICIES, make_schedule
from repro.core.traffic import compute_traffic
from repro.types import KIB, MIB, WORD_BYTES
from repro.zoo import PAPER_NETWORKS, build

#: Buffer grid for the consistency sweep: the tight-buffer regime that
#: used to break the ordering claim, the paper default, and a size where
#: whole networks fuse into a handful of groups.
CONSISTENCY_BUFFERS = (16 * KIB, 10 * MIB, 40 * MIB)

CONSISTENCY_NETWORKS = (
    "toy_chain", "toy_residual", "toy_inception",
    "alexnet", "resnet18", "resnet50", "inception_v3",
)

FIG11_BUFFERS_MIB = (5, 10, 20, 30, 40)


@pytest.fixture(scope="module")
def nets():
    return {name: build(name) for name in
            set(CONSISTENCY_NETWORKS) | set(PAPER_NETWORKS)}


class TestProxyCostModel:
    def test_group_cost_is_weight_streaming(self):
        m = ProxyCostModel((100, 300), (1, 1), mini_batch=32)
        # sub-batch 4 → 8 iterations → weights touched 4*8 - 1 times
        assert m.group_cost((0, 1), 4, False) == 400 * 31
        assert m.group_cost((1,), 32, False) == 300 * 3

    def test_streaming_group_costs_one_pass(self):
        m = ProxyCostModel((100,), (1,), mini_batch=32)
        assert m.group_cost((0,), 0, False) == 100 * 3

    def test_boundary_cost_formula(self):
        m = ProxyCostModel((1, 1), (500, 700), mini_batch=32)
        assert m.boundary_cost(0, False) == 3.0 * 32 * 500
        assert m.boundary_cost(1, True) == 3.0 * 32 * 700

    def test_mismatched_arrays_raise(self):
        with pytest.raises(ValueError):
            ProxyCostModel((1,), (1, 2), mini_batch=32)

    def test_from_network_matches_block_arrays(self, nets):
        net = nets["toy_residual"]
        m = ProxyCostModel.from_network(net, 32)
        assert len(m.weight_bytes) == len(net.blocks)
        assert m.out_bytes == tuple(
            b.out_shape.bytes(WORD_BYTES) for b in net.blocks
        )


class TestTrafficCostModelConsistency:
    """sum(group + boundary costs) == TrafficReport.total_bytes, always."""

    @pytest.mark.parametrize("net_name", CONSISTENCY_NETWORKS)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_schedule_cost_equals_traffic(self, nets, net_name, policy):
        net = nets[net_name]
        for buf in CONSISTENCY_BUFFERS:
            sched = make_schedule(net, policy, buffer_bytes=buf)
            model = TrafficCostModel.for_schedule(net, sched)
            assert model.schedule_cost(sched) == \
                compute_traffic(net, sched).total_bytes, (policy, buf)

    def test_streaming_cost_matches_baseline_block(self, nets):
        net = nets["toy_chain"]
        sched = make_schedule(net, "baseline")
        model = TrafficCostModel.for_schedule(net, sched)
        per_block = [
            model.group_cost((i,), 0, False, block_fused=(False,))
            for i in range(len(net.blocks))
        ]
        assert sum(per_block) == compute_traffic(net, sched).total_bytes

    def test_boundary_cost_is_zero(self, nets):
        model = TrafficCostModel(nets["toy_chain"], 32)
        assert model.boundary_cost(0, True) == 0
        assert model.boundary_cost(0, False) == 0

    def test_schedule_cost_rejects_mismatched_environment(self, nets):
        """A mismatched model would misprice silently — reject instead
        (same guard as the latency/energy models)."""
        net = nets["toy_chain"]
        sched = make_schedule(net, "mbs2")
        model = TrafficCostModel(net, mini_batch=sched.mini_batch * 2)
        with pytest.raises(ValueError, match="environment"):
            model.schedule_cost(sched)

    def test_group_cost_memo_is_transparent(self, nets):
        net = nets["toy_residual"]
        model = TrafficCostModel(net, 32, relu_mask=True)
        blocks = tuple(range(len(net.blocks)))
        first = model.group_cost(blocks, 2, True)
        assert model.group_cost(blocks, 2, True) == first  # memo hit
        fresh = TrafficCostModel(net, 32, relu_mask=True)
        assert fresh.group_cost(blocks, 2, True) == first


#: Golden mbs1/mbs2 traffic totals captured from the pre-refactor
#: scheduler (PR 2 tree).  The proxy cost model must keep these
#: byte-identical: the refactor moved the objective behind the
#: CostModel protocol without changing a single coefficient.
GOLDEN_PROXY_TRAFFIC = {
    ("resnet50", "mbs1", 16 * KIB): 14474620656,
    ("resnet50", "mbs1", 1 * MIB): 16645592688,
    ("resnet50", "mbs1", 5 * MIB): 5917550448,
    ("resnet50", "mbs1", 10 * MIB): 5384093232,
    ("resnet50", "mbs1", 40 * MIB): 4962172656,
    ("resnet50", "mbs2", 16 * KIB): 14474620656,
    ("resnet50", "mbs2", 1 * MIB): 17631016560,
    ("resnet50", "mbs2", 5 * MIB): 4197464112,
    ("resnet50", "mbs2", 10 * MIB): 3477297200,
    ("resnet50", "mbs2", 40 * MIB): 2890596592,
    ("resnet50", "mbs1-opt", 40 * MIB): 4947836656,
    ("resnet50", "mbs2-opt", 10 * MIB): 3477297200,
    ("inception_v3", "mbs1", 10 * MIB): 4885136240,
    ("inception_v3", "mbs2", 10 * MIB): 3345442096,
    ("inception_v3", "mbs1-opt", 10 * MIB): 4886840176,
    ("inception_v3", "mbs2-opt", 40 * MIB): 2770105136,
    ("alexnet", "mbs1", 10 * MIB): 596384112,
    ("alexnet", "mbs1-opt", 10 * MIB): 577771888,
    ("toy_residual", "mbs1", 1 * MIB): 11280784,
    ("toy_residual", "mbs2", 1 * MIB): 6824336,
    # The documented tight-buffer counterexample: at 16 KiB the fused
    # MBS2 schedule emits *more* traffic than MBS1 on toy_inception.
    ("toy_inception", "mbs1", 16 * KIB): 4919088,
    ("toy_inception", "mbs2", 16 * KIB): 10049200,
}


@pytest.mark.parametrize(
    "net_name,policy,buf", sorted(GOLDEN_PROXY_TRAFFIC),
    ids=lambda v: str(v),
)
def test_proxy_schedules_reproduce_golden_traffic(nets, net_name, policy, buf):
    net = nets[net_name]
    sched = make_schedule(net, policy, buffer_bytes=buf)
    got = compute_traffic(net, sched).total_bytes
    assert got == GOLDEN_PROXY_TRAFFIC[(net_name, policy, buf)]


class TestMbsAuto:
    def test_never_worse_than_mbs1_or_mbs2_everywhere(self, nets):
        """Acceptance: auto <= min(mbs1, mbs2) for every zoo network at
        every Fig. 11 buffer size plus the 16 KiB counterexample."""
        buffers = [16 * KIB] + [m * MIB for m in FIG11_BUFFERS_MIB]
        extra = ("resnet18", "resnet34", "toy_chain", "toy_residual",
                 "toy_inception")
        for name in tuple(PAPER_NETWORKS) + extra:
            net = nets.get(name) or build(name)
            for buf in buffers:
                auto = compute_traffic(
                    net, make_schedule(net, "mbs-auto", buffer_bytes=buf)
                ).total_bytes
                m1 = compute_traffic(
                    net, make_schedule(net, "mbs1", buffer_bytes=buf)
                ).total_bytes
                m2 = compute_traffic(
                    net, make_schedule(net, "mbs2", buffer_bytes=buf)
                ).total_bytes
                assert auto <= min(m1, m2), (name, buf, auto, m1, m2)

    def test_guarantee_holds_at_fp32_word_size(self, nets):
        """The DP's cost model must follow the caller's word size (the
        precision-ablation pattern), not the default fp16."""
        for name in ("resnet50", "toy_inception"):
            net = nets[name]
            for buf in (16 * KIB, 5 * MIB):
                traffic = {
                    p: compute_traffic(
                        net,
                        make_schedule(net, p, buffer_bytes=buf, word_bytes=4),
                        4,
                    ).total_bytes
                    for p in ("mbs-auto", "mbs1", "mbs2")
                }
                assert traffic["mbs-auto"] <= \
                    min(traffic["mbs1"], traffic["mbs2"]), (name, buf)

    def test_fixes_the_16kib_counterexample(self, nets):
        """Where mbs2 used to regress past mbs1, auto matches mbs1."""
        net = nets["toy_inception"]
        auto = compute_traffic(
            net, make_schedule(net, "mbs-auto", buffer_bytes=16 * KIB)
        ).total_bytes
        assert auto == GOLDEN_PROXY_TRAFFIC[("toy_inception", "mbs1", 16 * KIB)]

    def test_strictly_beats_both_on_resnet50_at_5mib(self, nets):
        net = nets["resnet50"]
        auto = compute_traffic(
            net, make_schedule(net, "mbs-auto", buffer_bytes=5 * MIB)
        ).total_bytes
        m1 = compute_traffic(
            net, make_schedule(net, "mbs1", buffer_bytes=5 * MIB)
        ).total_bytes
        m2 = compute_traffic(
            net, make_schedule(net, "mbs2", buffer_bytes=5 * MIB)
        ).total_bytes
        assert auto < m1 and auto < m2

    def test_groups_carry_explicit_modes(self, nets):
        net = nets["inception_v3"]
        sched = make_schedule(net, "mbs-auto", buffer_bytes=5 * MIB)
        for g in sched.groups:
            # every group records its mode explicitly — fused groups the
            # DP's choice, spilled singletons the no-provisioning mode
            # they stream (and were priced) under.
            if g.sub_batch > 0:
                assert g.branch_reuse in (True, False)
            else:
                assert g.branch_reuse is False
        # mixed-mode queries resolve per block, not schedule-wide
        for idx in range(len(net.blocks)):
            assert sched.branch_reuse_of(idx) == \
                sched.group_of_block(idx).branch_reuse

    def test_schedules_fit_the_buffer(self, nets):
        """Occupancy validation under each group's own provisioning mode."""
        for name in ("resnet50", "inception_v3"):
            net = nets[name]
            for buf in (1 * MIB, 10 * MIB):
                sched = make_schedule(net, "mbs-auto", buffer_bytes=buf)
                assert validate_schedule_occupancy(net, sched) == []

    def test_huge_buffer_degenerates_to_single_fused_group(self, nets):
        net = nets["toy_chain"]
        sched = make_schedule(net, "mbs-auto", buffer_bytes=10**12)
        assert len(sched.groups) == 1
        assert sched.groups[0].iterations == 1


class TestMbsAutoLatency:
    """The latency objective: dominance in *seconds*, divergence in bytes.

    ``mbs-auto --objective latency`` optimizes the exact simulated step
    time (:class:`LatencyCostModel` reproduces ``simulate_step`` bit for
    bit), over a search space containing every partition ``mbs1`` and
    ``mbs2`` can emit — so its simulated step time is never above
    ``min(mbs1, mbs2)`` at any buffer size, by the same construction
    that gives the traffic objective its byte guarantee.  The 1e-12
    relative slack only covers float association inside the DP's
    group-sum accumulation.
    """

    #: Acceptance grid: every power-of-4 buffer from 16 KiB to 4 MiB —
    #: the tight-buffer regime where the objectives diverge.
    BUFFERS = tuple(16 * KIB * 4**i for i in range(5))  # 16 KiB .. 4 MiB

    def _times(self, net, buf):
        from repro.wavecore.config import config_for_policy
        from repro.wavecore.simulator import step_time

        cfg = config_for_policy("mbs-auto", buffer_bytes=buf)
        return {
            label: step_time(
                net,
                make_schedule(net, policy, buffer_bytes=buf,
                              objective=objective),
                cfg,
            )
            for label, policy, objective in (
                ("auto-lat", "mbs-auto", "latency"),
                ("auto", "mbs-auto", "traffic"),
                ("mbs1", "mbs1", "traffic"),
                ("mbs2", "mbs2", "traffic"),
            )
        }

    def test_never_slower_than_mbs1_or_mbs2_everywhere(self, nets):
        """Acceptance: step time of mbs-auto(latency) <= min(mbs1, mbs2)
        for every zoo network across 16 KiB – 4096 KiB."""
        extra = ("resnet18", "resnet34", "toy_chain", "toy_residual",
                 "toy_inception")
        for name in tuple(PAPER_NETWORKS) + extra:
            net = nets.get(name) or build(name)
            for buf in self.BUFFERS:
                t = self._times(net, buf)
                bound = min(t["mbs1"], t["mbs2"], t["auto"])
                assert t["auto-lat"] <= bound * (1 + 1e-12), \
                    (name, buf, t)

    def test_objectives_genuinely_diverge_on_tight_buffers(self, nets):
        """Weight double buffering makes bytes-optimal != time-optimal:
        somewhere in the tight-buffer regime the latency objective is
        strictly faster than the byte-optimal adaptive schedule, and
        pays strictly more DRAM traffic for it."""
        net = nets["toy_inception"]
        diverged = False
        for buf in (16 * KIB, 64 * KIB, 256 * KIB):
            lat = make_schedule(net, "mbs-auto", buffer_bytes=buf,
                                objective="latency")
            tra = make_schedule(net, "mbs-auto", buffer_bytes=buf)
            t = self._times(net, buf)
            bytes_lat = compute_traffic(net, lat).total_bytes
            bytes_tra = compute_traffic(net, tra).total_bytes
            assert bytes_tra <= bytes_lat  # traffic DP stays byte-optimal
            if t["auto-lat"] < t["auto"] * (1 - 1e-9):
                assert bytes_lat > bytes_tra
                diverged = True
        assert diverged

    def test_latency_schedules_fit_the_buffer(self, nets):
        for name in ("resnet50", "inception_v3"):
            net = nets[name]
            for buf in (1 * MIB, 10 * MIB):
                sched = make_schedule(net, "mbs-auto", buffer_bytes=buf,
                                      objective="latency")
                assert validate_schedule_occupancy(net, sched) == []

    def test_traffic_model_still_exact_on_latency_schedules(self, nets):
        """Cross-model consistency: the byte-accurate model prices a
        latency-objective schedule exactly (the refactor kept
        TrafficCostModel bit-exact for every schedule shape)."""
        net = nets["toy_inception"]
        for buf in (16 * KIB, 1 * MIB, 10 * MIB):
            sched = make_schedule(net, "mbs-auto", buffer_bytes=buf,
                                  objective="latency")
            model = TrafficCostModel.for_schedule(net, sched)
            assert model.schedule_cost(sched) == \
                compute_traffic(net, sched).total_bytes

    def test_objective_recorded_on_schedule(self, nets):
        net = nets["toy_chain"]
        lat = make_schedule(net, "mbs-auto", objective="latency")
        assert lat.objective == "latency"
        assert "objective=latency" in lat.describe()
        assert make_schedule(net, "mbs-auto").objective == "traffic"

    def test_invalid_objective_combinations_raise(self, nets):
        net = nets["toy_chain"]
        with pytest.raises(ValueError, match="unknown objective"):
            make_schedule(net, "mbs-auto", objective="joules")
        for objective in ("latency", "latency+traffic", "energy"):
            with pytest.raises(ValueError, match="requires the adaptive"):
                make_schedule(net, "mbs2", objective=objective)

    def test_cfg_rejected_for_traffic_objective(self, nets):
        from repro.wavecore.config import DEFAULT_CONFIG

        with pytest.raises(ValueError, match="cfg only parameterizes"):
            make_schedule(nets["toy_chain"], "mbs-auto", cfg=DEFAULT_CONFIG)

    def test_dominance_holds_on_other_memory_systems(self, nets):
        """The latency DP must price the hardware it is simulated on —
        evaluate() passes the cfg through (regression: the DP used to
        assume HBM2 whatever memory the caller selected, so slower
        memories could invert the guarantee)."""
        from repro.wavecore.config import config_for_policy
        from repro.wavecore.simulator import step_time

        net = nets["toy_inception"]
        for memory in ("LPDDR4", "GDDR5"):
            for buf in (64 * KIB, 1 * MIB):
                cfg = config_for_policy(
                    "mbs-auto", memory=memory, buffer_bytes=buf
                )
                lat = make_schedule(
                    net, "mbs-auto", buffer_bytes=buf,
                    objective="latency", cfg=cfg,
                )
                t_lat = step_time(net, lat, cfg)
                for pol in ("mbs1", "mbs2", "mbs-auto"):
                    other = make_schedule(net, pol, buffer_bytes=buf)
                    bound = step_time(net, other, cfg) * (1 + 1e-12)
                    assert t_lat <= bound, (memory, buf, pol)
