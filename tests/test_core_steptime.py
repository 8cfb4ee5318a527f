"""Step-time bridge tests: the latency objective can never drift from
the simulator.

The contract mirrors the traffic cost model's: per-block prices from
:class:`repro.core.steptime.BlockPricer` must reassemble into *exactly*
the step time
:func:`repro.wavecore.simulator.simulate_step` reports — same walkers,
same per-layer timing, same float association — for every policy, every
buffer size, and both hardware double-buffering modes.
"""
import pytest

from repro.core.cost import LatencyCostModel
from repro.core.policies import POLICIES, make_schedule
from repro.core.schedule import Schedule, make_group
from repro.core.steptime import BlockPricer
from repro.core.subbatch import per_block_sub_batches
from repro.types import KIB, MIB, WORD_BYTES
from repro.wavecore.config import (
    BASELINE_CONFIG,
    DEFAULT_CONFIG,
    config_for_policy,
)
from repro.wavecore.simulator import simulate_step, step_time
from repro.zoo import build

NETWORKS = ("toy_chain", "toy_residual", "toy_inception",
            "alexnet", "resnet50")
BUFFERS = (16 * KIB, 1 * MIB, 10 * MIB)


@pytest.fixture(scope="module")
def nets():
    return {name: build(name) for name in NETWORKS}


def _step_time(net, sched, cfg):
    """A finished schedule's step time from its per-block records."""
    pricer = BlockPricer.shared(net, sched.mini_batch, cfg)
    return pricer.schedule_totals(sched, WORD_BYTES).seconds


def _singleton_schedule(net, sub_batches, mini_batch, feasible):
    """Every block its own fused group (single-block groups throughout)."""
    groups = tuple(
        make_group((i,), s, mini_batch, feasible)
        for i, s in enumerate(sub_batches)
    )
    return Schedule(
        policy="mbs1", network=net.name, mini_batch=mini_batch,
        buffer_bytes=10 * MIB, branch_reuse=False, relu_mask=True,
        groups=groups, layer_reuse_bytes=10 * MIB,
    )


class TestScheduleStepTime:
    """schedule_totals(...).seconds == simulate_step(...).time_s,
    bit-for-bit."""

    @pytest.mark.parametrize("net_name", NETWORKS)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_matches_simulator_exactly(self, nets, net_name, policy):
        net = nets[net_name]
        for buf in BUFFERS:
            sched = make_schedule(net, policy, buffer_bytes=buf)
            cfg = config_for_policy(policy, buffer_bytes=buf)
            assert _step_time(net, sched, cfg) == simulate_step(
                net, sched, cfg
            ).time_s, (policy, buf)

    def test_wavecore_entry_point_agrees(self, nets):
        net = nets["toy_residual"]
        sched = make_schedule(net, "mbs2")
        cfg = config_for_policy("mbs2")
        assert step_time(net, sched, cfg) == simulate_step(
            net, sched, cfg
        ).time_s

    def test_default_config_resolves_from_policy(self, nets):
        net = nets["toy_chain"]
        sched = make_schedule(net, "baseline")
        # baseline hardware has no weight double buffer; the bridge must
        # price on the same config the simulator picks
        cfg = config_for_policy(sched.policy)
        assert _step_time(net, sched, cfg) == simulate_step(
            net, sched
        ).time_s

    def test_mismatched_schedule_raises(self, nets):
        sched = make_schedule(nets["resnet50"], "mbs1")
        with pytest.raises(ValueError):
            _step_time(nets["toy_chain"], sched, DEFAULT_CONFIG)

    def test_mismatched_schedule_records_raise(self, nets):
        """The evaluator's record path keeps compute_traffic's guard."""
        sched = make_schedule(nets["resnet50"], "mbs1")
        pricer = BlockPricer.shared(
            nets["toy_chain"], sched.mini_batch, DEFAULT_CONFIG
        )
        with pytest.raises(ValueError, match="schedule covers"):
            pricer.schedule_records(sched, WORD_BYTES)


class TestLatencyCostModel:
    def test_schedule_cost_equals_simulator_every_policy(self, nets):
        for net_name in ("toy_inception", "resnet50"):
            net = nets[net_name]
            for policy in POLICIES:
                for buf in BUFFERS:
                    sched = make_schedule(net, policy, buffer_bytes=buf)
                    cfg = config_for_policy(policy, buffer_bytes=buf)
                    model = LatencyCostModel.for_schedule(net, sched, cfg=cfg)
                    assert model.schedule_cost(sched) == simulate_step(
                        net, sched, cfg
                    ).time_s, (policy, buf)

    def test_group_sums_decompose_the_step_time(self, nets):
        """Group prices reassemble the total up to float association."""
        net = nets["toy_inception"]
        for buf in BUFFERS:
            sched = make_schedule(
                net, "mbs-auto", buffer_bytes=buf, objective="latency"
            )
            model = LatencyCostModel.for_schedule(
                net, sched, cfg=config_for_policy("mbs-auto", buffer_bytes=buf)
            )
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

    def test_boundary_cost_is_zero(self, nets):
        model = LatencyCostModel(nets["toy_chain"], 32)
        assert model.boundary_cost(0, True) == 0.0
        assert model.boundary_cost(0, False) == 0.0

    def test_streaming_costs_reassemble_baseline(self, nets):
        net = nets["toy_chain"]
        sched = make_schedule(net, "baseline")
        model = LatencyCostModel.for_schedule(net, sched)
        total = 0.0
        for i in range(len(net.blocks)):
            total += model.group_cost((i,), 0, False, block_fused=(False,))
        assert total == simulate_step(net, sched).time_s

    def test_schedule_cost_rejects_mismatched_environment(self, nets):
        net = nets["toy_chain"]
        sched = make_schedule(net, "mbs2")
        model = LatencyCostModel(net, mini_batch=sched.mini_batch * 2)
        with pytest.raises(ValueError, match="environment"):
            model.schedule_cost(sched)

    def test_memo_is_transparent(self, nets):
        net = nets["toy_residual"]
        model = LatencyCostModel(net, 32, layer_reuse_bytes=10 * MIB)
        blocks = tuple(range(len(net.blocks)))
        first = model.group_cost(blocks, 2, True)
        assert model.group_cost(blocks, 2, True) == first  # memo hit
        fresh = LatencyCostModel(net, 32, layer_reuse_bytes=10 * MIB)
        assert fresh.group_cost(blocks, 2, True) == first


class TestEdgeCases:
    def test_single_layer_single_block_groups(self, nets):
        """Singleton fused groups (and single-layer blocks) price exactly."""
        net = nets["toy_chain"]
        mini_batch = net.default_mini_batch
        feasible = per_block_sub_batches(
            net, 10 * MIB, mini_batch, branch_reuse=False
        )
        assert all(s >= 1 for s in feasible)
        sched = _singleton_schedule(net, feasible, mini_batch, feasible)
        cfg = DEFAULT_CONFIG
        assert _step_time(net, sched, cfg) == simulate_step(
            net, sched, cfg
        ).time_s

    def test_remainder_sub_batch_sequence(self, nets):
        """A sub-batch that does not divide the mini-batch (3,3,...,2)."""
        net = nets["toy_chain"]
        mini_batch = net.default_mini_batch
        assert mini_batch % 3 != 0
        feasible = [3] * len(net.blocks)
        sched = _singleton_schedule(net, feasible, mini_batch, feasible)
        cfg = DEFAULT_CONFIG
        assert _step_time(net, sched, cfg) == simulate_step(
            net, sched, cfg
        ).time_s

    def test_group_larger_than_double_buffer_window(self, nets):
        """Whole-network groups exceed what the per-PE second weight
        register can hide: the fill overlap is per GEMM wave, never
        across layers, so the decomposition must stay exact and double
        buffering must never cost time."""
        net = nets["toy_inception"]
        sched = make_schedule(net, "mbs2", buffer_bytes=40 * MIB)
        assert max(len(g.blocks) for g in sched.groups) > 1
        with_db = _step_time(net, sched, DEFAULT_CONFIG)
        without_db = _step_time(net, sched, BASELINE_CONFIG)
        assert with_db == simulate_step(net, sched, DEFAULT_CONFIG).time_s
        assert without_db == simulate_step(net, sched, BASELINE_CONFIG).time_s
        assert with_db <= without_db

    def test_block_zero_skips_data_gradient(self, nets):
        """The first network block's first layer never propagates a data
        gradient; the per-group price must honor that structural fact."""
        net = nets["toy_chain"]
        sched = make_schedule(net, "baseline")
        model = LatencyCostModel.for_schedule(net, sched)
        per_block = [
            model.group_cost((i,), 0, False, block_fused=(False,))
            for i in range(len(net.blocks))
        ]
        by_block: dict[str, float] = {}
        for lt in simulate_step(net, sched).layers:
            by_block[lt.block] = by_block.get(lt.block, 0.0) + lt.time_s
        assert per_block[0] == pytest.approx(
            by_block[net.blocks[0].name], rel=1e-12
        )


class TestOnePricePerNetwork:
    """Every per-block price lives on the network's pricer, so a block
    situation is walked once per network, whichever DP call, objective
    or evaluation asks for it first."""

    BUFFERS = (64 * KIB, 1 * MIB)

    @pytest.fixture
    def walks(self, monkeypatch):
        import repro.core.steptime as steptime

        count = [0]
        real = steptime.walk_block_traffic

        def counting(*args, **kwargs):
            count[0] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(steptime, "walk_block_traffic", counting)
        return count

    def _price_all(self, net, walks):
        from repro import api
        from repro.core.policies import OBJECTIVES

        before = walks[0]
        for buffer_bytes in self.BUFFERS:
            for objective in OBJECTIVES:
                api.price(net, "mbs-auto", buffer_bytes=buffer_bytes,
                          objective=objective)
        return walks[0] - before

    def test_second_pass_walks_nothing(self, walks):
        net = build("toy_inception")
        first = self._price_all(net, walks)
        assert first > 0
        assert self._price_all(net, walks) == 0

    def test_cleared_network_walks_like_a_fresh_one(self, walks):
        from repro.core.policies import clear_pricing_caches

        net = build("toy_inception")
        first = self._price_all(net, walks)
        clear_pricing_caches(net)
        assert self._price_all(net, walks) == first
        assert self._price_all(build("toy_inception"), walks) == first

    def test_floor_probe_reuses_an_interior_probe(self, walks):
        """``block_floor`` and ``group_cost`` name one situation alike: a
        block already priced interior to a fused group (both edges
        on-chip) is not walked again by its floor probe."""
        net = build("toy_chain")
        model = LatencyCostModel(net, 16)
        blocks = tuple(range(len(net.blocks)))
        inside = model.group_cost(blocks, 4, False)
        assert inside > 0
        before = walks[0]
        for idx in blocks[1:-1]:
            assert model.block_floor(idx, (), (4,)) > 0
        assert walks[0] == before

    def test_each_energy_calibration_has_its_own_joules(self):
        """The joules memo keys on ``EnergyParams``: one network priced
        under two calibrations in turn matches a fresh network under
        each."""
        from repro.core.cost import EnergyCostModel
        from repro.wavecore.energy import DEFAULT_ENERGY, EnergyParams

        other = EnergyParams(
            mac_pj=5.5, zero_input_fraction=0.3, zero_skip_saving=0.7,
            gbuf_pj_per_byte=1.7, static_w=4.9,
        )
        sched = make_schedule(build("toy_inception"), "mbs2",
                              buffer_bytes=1 * MIB)
        cfg = config_for_policy("mbs2", buffer_bytes=1 * MIB)

        def group_joules(net, params):
            model = EnergyCostModel.for_schedule(net, sched, cfg=cfg,
                                                 params=params)
            return [
                model.group_cost(g.blocks, g.sub_batch,
                                 sched.branch_reuse_of(g.blocks[0]),
                                 g.block_fused)
                for g in sched.groups
            ]

        shared = build("toy_inception")
        default = group_joules(shared, DEFAULT_ENERGY)
        calibrated = group_joules(shared, other)
        assert calibrated != default
        assert calibrated == group_joules(build("toy_inception"), other)
        assert group_joules(shared, DEFAULT_ENERGY) == default

    def test_traffic_search_reads_no_hardware(self, monkeypatch):
        """Byte walks need no compute profile and no global-buffer
        count: a traffic-objective ``mbs-auto`` search on a fresh
        network asks the pricer for neither."""

        def forbidden(self, idx, sub_batch):
            raise AssertionError("the traffic objective read hardware")

        monkeypatch.setattr(BlockPricer, "profile", forbidden)
        monkeypatch.setattr(BlockPricer, "gbuf_bytes", forbidden)
        net = build("toy_inception")
        for buffer_bytes in (16 * KIB, *self.BUFFERS):
            sched = make_schedule(net, "mbs-auto", buffer_bytes=buffer_bytes)
            assert sched.num_blocks == len(net.blocks)
