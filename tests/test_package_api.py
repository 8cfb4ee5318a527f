"""Top-level package surface and CLI coverage."""

import repro


def test_version():
    assert repro.__version__ == "1.0.0"


def test_public_api_importable():
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_api_facade_surface_is_pinned():
    """``repro.api`` is the supported surface; its exports are frozen.

    Growing the list is fine (update here); renaming or removing an
    entry is a breaking change and needs a deprecation shim first.
    """
    from repro import api

    assert api.__all__ == [
        "GroupSummary",
        "LeaseGrant",
        "MIB",
        "ScheduleRequest",
        "ScheduleResult",
        "SweepJobRequest",
        "SweepJobStatus",
        "graph_fingerprint",
        "objectives",
        "policies",
        "price",
        "request_fingerprint",
        "sweep",
    ]
    for name in api.__all__:
        assert hasattr(api, name), name
    assert "api" in repro.__all__


def test_api_facade_quick_start():
    """The module docstring's quick-start works as written."""
    from repro import api

    res = api.price("toy_chain", "mbs-auto", buffer_bytes=api.MIB,
                    objective="energy")
    assert res.traffic_bytes > 0
    assert res.step_time_s > 0
    assert res.step_energy_j > 0


def test_top_level_workflow():
    """The README's four-liner works through the top-level namespace."""
    from repro.zoo import toy_chain

    net = toy_chain()
    sched = repro.make_schedule(net, "mbs2", buffer_bytes=repro.MIB)
    traffic = repro.compute_traffic(net, sched)
    report = repro.simulate_step(net, sched)
    assert traffic.total_bytes > 0
    assert report.time_s > 0


class TestScheduleCli:
    def test_schedule_command(self, capsys):
        from repro.experiments.runner import main

        assert main(["schedule", "toy_residual", "mbs2", "1"]) == 0
        out = capsys.readouterr().out
        assert "mbs2 schedule for toy_residual" in out
        assert "DRAM traffic/step" in out

    def test_schedule_usage(self, capsys):
        from repro.experiments.runner import main

        assert main(["schedule"]) == 2

    def test_export_command(self, tmp_path, monkeypatch, capsys):
        from repro.experiments import fig04_grouping
        from repro.experiments.runner import main

        monkeypatch.setattr(
            "repro.runtime.spec._REGISTRY", {"fig4": fig04_grouping.SPEC}
        )
        path = str(tmp_path / "out.json")
        assert main(["export", path]) == 0
        assert "wrote 1 experiment results" in capsys.readouterr().out


class TestReportHelpers:
    def test_layer_timing_bound(self):
        from repro.wavecore.report import LayerTiming

        compute_bound = LayerTiming("b", "l", "conv", "forward", 10, 10,
                                    10, 1.0, 0.5)
        assert compute_bound.bound == "compute"
        assert compute_bound.time_s == 1.0
        memory_bound = LayerTiming("b", "l", "norm", "forward", 0, 0,
                                   10, 0.1, 0.5)
        assert memory_bound.bound == "memory"

    def test_energy_share_zero_total(self):
        from repro.wavecore.report import EnergyBreakdown

        e = EnergyBreakdown(0.0, 0.0, 0.0, 0.0)
        assert e.share("dram") == 0.0
