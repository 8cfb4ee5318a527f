"""``mbs-repro`` CLI: subcommand behavior, exit codes, and the
parallel-vs-serial / cache-hit acceptance guarantees."""
import json

import pytest

from repro.experiments.runner import main

SUBCOMMANDS = ("run", "all", "sweep", "merge", "bench", "schedule",
               "sweep-schedule", "serve", "submit-sweep", "work",
               "export", "fingerprint", "list")


@pytest.fixture()
def cache_dir(tmp_path):
    return str(tmp_path / "cache")


class TestExitCodes:
    def test_no_args_prints_usage(self, capsys):
        assert main([]) == 0
        assert "Artifacts" in capsys.readouterr().out

    def test_unknown_artifact(self, capsys):
        assert main(["nope"]) == 2

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_subcommand_help_exits_zero(self, capsys, command, flag):
        assert main([command, flag]) == 0
        assert capsys.readouterr().out.startswith(
            f"usage: mbs-repro {command} ")

    @pytest.mark.parametrize("argv", [
        ["schedule", "toy_chain", "mbs2", "0"],
        ["schedule", "toy_chain", "mbs2", "-1"],
        ["sweep-schedule", "toy_chain", "mbs2", "--buffers", "0"],
        ["sweep-schedule", "toy_chain", "mbs2", "--buffers", "-1"],
        ["sweep-schedule", "toy_chain", "mbs2", "--buffers", "1,inf"],
        ["run", "tab2", "--jobs", "0"],
        ["all", "--only", "tab2", "--jobs", "0"],
        ["sweep", "fig3", "--jobs", "-1"],
        ["export", "--jobs", "0"],
        ["work", "--jobs", "0"],
    ], ids=" ".join)
    def test_non_positive_size_or_count_is_usage_error(self, capsys, argv):
        assert main(argv) == 2
        assert "expected" in capsys.readouterr().err

    def test_unknown_only_selection(self, capsys, cache_dir):
        assert main(["all", "--only", "nope", "--cache-dir", cache_dir]) == 2

    def test_unknown_run_parameter(self, capsys, cache_dir):
        assert main(["run", "fig3", "--set", "bogus=1",
                     "--cache-dir", cache_dir]) == 2

    def test_bad_set_syntax(self, capsys, cache_dir):
        assert main(["run", "fig3", "--set", "novalue",
                     "--cache-dir", cache_dir]) == 2

    def test_sweep_without_axes(self, capsys, cache_dir):
        assert main(["sweep", "tab2", "--cache-dir", cache_dir]) == 2

    def test_run_unknown_spec(self, capsys):
        assert main(["run", "nope"]) == 2

    def test_argparse_usage_error(self, capsys):
        assert main(["all", "--jobs"]) == 2

    def test_failing_task_exits_one(self, capsys, cache_dir):
        # an unknown zoo network makes the produce-fn raise inside the engine
        assert main(["run", "fig3", "--set", "net_name='no_such_net'",
                     "--cache-dir", cache_dir]) == 1

    def test_mistyped_set_value_fails_inside_engine(self, capsys, cache_dir):
        # a well-formed --set whose value has the wrong type is not a
        # usage error: the produce-fn raises and the task fails (exit 1)
        assert main(["run", "fig3", "--set", "buffer_mib='ten'",
                     "--cache-dir", cache_dir]) == 1
        assert main(["run", "latency_sweep", "--set", "buffers_mib=0",
                     "--cache-dir", cache_dir]) == 1

    def test_sweep_unknown_axis_is_usage_error(self, capsys, cache_dir):
        assert main(["sweep", "fig3", "--set", "bogus=1,2",
                     "--cache-dir", cache_dir]) == 2

    def test_sweep_bad_set_syntax(self, capsys, cache_dir):
        assert main(["sweep", "fig3", "--set", "novalue",
                     "--cache-dir", cache_dir]) == 2

    def test_schedule_command(self, capsys):
        assert main(["schedule", "resnet50"]) == 0
        out = capsys.readouterr().out
        assert "DRAM traffic/step" in out
        assert "simulated step time" in out
        assert "simulated step energy" in out

    def test_schedule_needs_network(self, capsys):
        assert main(["schedule"]) == 2

    def test_schedule_latency_objective(self, capsys):
        assert main(["schedule", "toy_inception", "mbs-auto", "1",
                     "--objective", "latency"]) == 0
        out = capsys.readouterr().out
        assert "objective=latency" in out
        assert "simulated step time" in out

    def test_schedule_energy_objective(self, capsys):
        assert main(["schedule", "toy_inception", "mbs-auto", "1",
                     "--objective", "energy"]) == 0
        out = capsys.readouterr().out
        assert "objective=energy" in out
        assert "simulated step energy" in out

    def test_schedule_lexicographic_objective(self, capsys):
        assert main(["schedule", "toy_inception", "mbs-auto", "1",
                     "--objective", "latency+traffic"]) == 0
        assert "objective=latency+traffic" in capsys.readouterr().out

    @pytest.mark.parametrize("objective",
                             ["latency", "latency+traffic", "energy"])
    def test_schedule_rejects_objective_for_fixed_policy(
            self, capsys, objective):
        assert main(["schedule", "toy_chain", "mbs2", "10",
                     "--objective", objective]) == 2
        assert "requires the adaptive" in capsys.readouterr().err

    def test_schedule_rejects_unknown_objective(self, capsys):
        # argparse rejects it against the OBJECTIVES choices list
        assert main(["schedule", "toy_chain", "mbs-auto", "10",
                     "--objective", "joules"]) == 2

    def test_schedule_rejects_unknown_policy(self, capsys):
        assert main(["schedule", "toy_chain", "mbs3"]) == 2
        assert "unknown policy" in capsys.readouterr().err

    def test_schedule_rejects_non_integer_buffer(self, capsys):
        assert main(["schedule", "toy_chain", "mbs2", "ten"]) == 2

    def test_schedule_unknown_network_is_usage_error(self, capsys):
        assert main(["schedule", "resnet5"]) == 2
        assert "unknown network" in capsys.readouterr().err

    def test_schedule_json_emits_wire_object(self, capsys):
        import json

        from repro import api

        assert main(["schedule", "toy_chain", "mbs-auto", "1",
                     "--json"]) == 0
        wire = json.loads(capsys.readouterr().out)
        assert wire == api.price("toy_chain", "mbs-auto",
                                 buffer_bytes=2**20).to_wire()

    def test_schedule_graph_file(self, capsys, tmp_path):
        from repro.graph.serialize import dumps_network
        from repro.zoo import build

        path = tmp_path / "net.json"
        path.write_text(dumps_network(build("toy_residual")))
        assert main(["schedule", "--graph", str(path), "mbs2", "1"]) == 0
        out = capsys.readouterr().out
        assert "mbs2 schedule for toy_residual" in out

    def test_schedule_graph_checks_shifted_positionals(self, capsys, tmp_path):
        from repro.graph.serialize import dumps_network
        from repro.zoo import build

        path = tmp_path / "net.json"
        path.write_text(dumps_network(build("toy_chain")))
        graph = ["schedule", "--graph", str(path)]
        assert main(graph + ["mbs2", "0"]) == 2
        assert main(graph + ["mbs2", "ten"]) == 2
        assert main(graph + ["toy_chain", "mbs2", "1"]) == 2
        assert main(graph + ["mbs-auto"]) == 0
        assert "mbs-auto schedule for toy_chain" in capsys.readouterr().out

    def test_schedule_graph_same_cost_as_zoo_name(self, capsys, tmp_path):
        import json

        from repro.graph.serialize import dumps_network
        from repro.zoo import build

        path = tmp_path / "net.json"
        path.write_text(dumps_network(build("toy_inception")))
        assert main(["schedule", "--graph", str(path), "mbs-auto", "1",
                     "--json"]) == 0
        by_graph = json.loads(capsys.readouterr().out)
        assert main(["schedule", "toy_inception", "mbs-auto", "1",
                     "--json"]) == 0
        by_name = json.loads(capsys.readouterr().out)
        assert by_graph == by_name

    def test_schedule_graph_malformed_is_exit_1(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": 1')
        assert main(["schedule", "--graph", str(path)]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_schedule_graph_schema_violation_is_exit_1(
            self, capsys, tmp_path):
        import json as jsonlib

        from repro.graph.serialize import network_to_dict
        from repro.zoo import build

        wire = network_to_dict(build("toy_chain"))
        wire["blocks"][0]["branches"][0]["layers"][0]["kind"] = "lstm"
        path = tmp_path / "bad.json"
        path.write_text(jsonlib.dumps(wire))
        assert main(["schedule", "--graph", str(path)]) == 1
        assert ("$.blocks[0].branches[0].layers[0].kind: expected one of "
                "['conv', 'fc', 'norm', 'act', 'pool', 'add'], got 'lstm'"
                in capsys.readouterr().err)

    def test_schedule_graph_missing_file_is_exit_1(self, capsys, tmp_path):
        assert main(["schedule", "--graph",
                     str(tmp_path / "nope.json")]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_sweep_schedule_command(self, capsys):
        assert main(["sweep-schedule", "toy_inception", "mbs-auto",
                     "--buffers", "0.1,0.5,1"]) == 0
        out = capsys.readouterr().out
        assert "sweep-schedule — toy_inception mbs-auto" in out
        assert "DRAM GiB/step" in out
        assert "group-price memo" in out and "hit rate" in out

    def test_sweep_schedule_hardware_objective(self, capsys):
        assert main(["sweep-schedule", "toy_inception", "mbs-auto",
                     "--buffers", "0.1,1", "--objective", "energy"]) == 0
        assert "objective=energy" in capsys.readouterr().out

    def test_sweep_schedule_needs_network(self, capsys):
        assert main(["sweep-schedule"]) == 2

    def test_sweep_schedule_rejects_bad_buffers(self, capsys):
        assert main(["sweep-schedule", "toy_chain", "mbs2",
                     "--buffers", "ten"]) == 2

    def test_sweep_schedule_unknown_network_is_usage_error(self, capsys):
        assert main(["sweep-schedule", "resnet5"]) == 2
        assert "unknown network" in capsys.readouterr().err

    def test_sweep_schedule_rejects_objective_for_fixed_policy(self, capsys):
        assert main(["sweep-schedule", "toy_chain", "mbs2",
                     "--objective", "latency"]) == 2
        assert "requires the adaptive" in capsys.readouterr().err

    def test_bench_profile_prints_hot_functions(self, capsys):
        assert main(["bench", "--only", "tab2", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "tab2 (cProfile, cumulative)" in out
        assert "cumtime" in out

    def test_fingerprint_prints_cache_key_component(self, capsys):
        from repro.runtime import code_fingerprint

        assert main(["fingerprint"]) == 0
        assert capsys.readouterr().out.strip() == code_fingerprint()

    def test_fingerprint_spec_prints_dependency_scoped_digest(
            self, capsys):
        from repro.runtime import code_fingerprint, get_spec, \
            spec_fingerprint

        assert main(["fingerprint", "--spec", "energy_sweep"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == spec_fingerprint(get_spec("energy_sweep"))
        assert out != code_fingerprint()

    def test_fingerprint_unknown_spec_is_usage_error(self, capsys):
        assert main(["fingerprint", "--spec", "nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_sweep_bad_shard_is_usage_error(self, capsys, cache_dir):
        for bad in ("2/2", "3/2", "-1/2", "0/0", "x/2", "1"):
            assert main(["sweep", "fig3", "--set", "mini_batch=16,32",
                         f"--shard={bad}", "--cache-dir", cache_dir]) == 2
            assert "--shard expects" in capsys.readouterr().err


class TestRunSubcommand:
    def test_run_then_cache_hit_replays_render(self, capsys, cache_dir):
        assert main(["run", "tab2", "--cache-dir", cache_dir]) == 0
        first = capsys.readouterr().out
        assert "Tab. 2" in first and "] ran" in first
        assert main(["run", "tab2", "--cache-dir", cache_dir]) == 0
        second = capsys.readouterr().out
        assert "Tab. 2" in second and "] cached" in second

    def test_no_cache_forces_recompute(self, capsys, cache_dir):
        main(["run", "tab2", "--cache-dir", cache_dir])
        capsys.readouterr()
        assert main(["run", "tab2", "--cache-dir", cache_dir,
                     "--no-cache"]) == 0
        assert "] ran" in capsys.readouterr().out

    def test_set_overrides_params(self, capsys, cache_dir):
        assert main(["run", "fig3", "--set", "buffer_mib=20",
                     "--cache-dir", cache_dir]) == 0
        assert "20 MiB buffer" in capsys.readouterr().out


class TestListBenchSweep:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig10" in out and "scaling" in out

    def test_bench_writes_json(self, capsys, tmp_path, cache_dir):
        path = tmp_path / "bench.json"
        assert main(["bench", "--only", "tab2,fig3", "--json", str(path),
                     "--cache-dir", cache_dir]) == 0
        payload = json.loads(path.read_text())
        assert [p["artifact"] for p in payload] == ["tab2", "fig3"]
        assert all(p["status"] == "ran" for p in payload)

    def test_sweep_grid_and_cache_sharing(self, capsys, cache_dir):
        argv = ["sweep", "fig3", "--set", "mini_batch=16,32",
                "--set", "net_name='resnet50'", "--jobs", "2",
                "--cache-dir", cache_dir]
        assert main(argv) == 0
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.count("cached") >= 2

    def test_export_subcommand(self, capsys, tmp_path, cache_dir,
                               monkeypatch):
        from repro.runtime import get_spec

        monkeypatch.setattr(
            "repro.runtime.spec._REGISTRY",
            {k: get_spec(k) for k in ("fig3", "tab2")},
        )
        path = tmp_path / "results.json"
        assert main(["export", str(path), "--cache-dir", cache_dir]) == 0
        assert set(json.loads(path.read_text())) == {"fig3", "tab2"}


SMOKE = "fig3,fig4,tab2,precision,scaling"


class TestAllSubcommand:
    def test_out_manifests_and_summary(self, capsys, tmp_path, cache_dir):
        out = tmp_path / "artifacts"
        assert main(["all", "--only", SMOKE, "--jobs", "2", "--summary",
                     "--out", str(out), "--cache-dir", cache_dir]) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == sorted(f"{n}.json" for n in SMOKE.split(","))
        manifest = json.loads((out / "tab2.json").read_text())
        assert set(manifest) >= {"spec", "key", "fingerprint", "params",
                                 "artifact", "rendered"}

    def test_render_from_cache_replays_without_recompute(
            self, capsys, tmp_path, cache_dir):
        out = tmp_path / "artifacts"
        assert main(["all", "--only", "tab2", "--summary",
                     "--out", str(out), "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        # replay: renders come back from the manifest and diff matches
        assert main(["all", "--only", "tab2", "--render-from-cache",
                     "--out", str(out), "--cache-dir", cache_dir]) == 0
        replay = capsys.readouterr().out
        assert "Tab. 2" in replay and "match" in replay

    def test_render_from_cache_rejects_no_cache(self, capsys, cache_dir):
        assert main(["all", "--only", "tab2", "--render-from-cache",
                     "--no-cache", "--cache-dir", cache_dir]) == 2
        assert "contradicts" in capsys.readouterr().err

    def test_render_from_cache_reports_missing_manifest(
            self, capsys, cache_dir):
        assert main(["all", "--only", "tab2", "--render-from-cache",
                     "--cache-dir", cache_dir]) == 1
        assert "missing" in capsys.readouterr().out

    def test_render_from_cache_detects_stale_out_file(
            self, capsys, tmp_path, cache_dir):
        out = tmp_path / "artifacts"
        assert main(["all", "--only", "tab2", "--summary",
                     "--out", str(out), "--cache-dir", cache_dir]) == 0
        (out / "tab2.json").write_text("{}\n")
        capsys.readouterr()
        assert main(["all", "--only", "tab2", "--render-from-cache",
                     "--summary", "--out", str(out),
                     "--cache-dir", cache_dir]) == 1
        assert "differs" in capsys.readouterr().out

    def test_render_from_cache_flags_absent_out_file(
            self, capsys, tmp_path, cache_dir):
        out = tmp_path / "artifacts"
        out.mkdir()
        assert main(["all", "--only", "tab2", "--summary",
                     "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["all", "--only", "tab2", "--render-from-cache",
                     "--summary", "--out", str(out),
                     "--cache-dir", cache_dir]) == 1
        assert "no-file" in capsys.readouterr().out

    def test_latency_sweep_manifest_parity_across_jobs(self, tmp_path):
        """Acceptance: the latency_sweep manifest is byte-identical
        between `--jobs 1` and `--jobs 4`."""
        out4, out1 = tmp_path / "j4", tmp_path / "j1"
        base = ["all", "--only", "latency_sweep", "--summary"]
        assert main(base + ["--jobs", "4", "--out", str(out4),
                            "--cache-dir", str(tmp_path / "c4")]) == 0
        assert main(base + ["--jobs", "1", "--out", str(out1),
                            "--cache-dir", str(tmp_path / "c1")]) == 0
        assert (out4 / "latency_sweep.json").read_bytes() == \
            (out1 / "latency_sweep.json").read_bytes()

    def test_parallel_serial_parity_and_cache_hits(self, capsys, tmp_path):
        """Acceptance: `all --jobs 4` == serial manifests byte-for-byte,
        and a second invocation completes via cache hits only."""
        out4, out1 = tmp_path / "j4", tmp_path / "j1"
        c4, c1 = str(tmp_path / "c4"), str(tmp_path / "c1")
        base = ["all", "--only", SMOKE, "--summary"]
        assert main(base + ["--jobs", "4", "--out", str(out4),
                            "--cache-dir", c4]) == 0
        assert main(base + ["--jobs", "1", "--out", str(out1),
                            "--cache-dir", c1]) == 0
        files4 = sorted(p.name for p in out4.iterdir())
        assert files4 == sorted(p.name for p in out1.iterdir())
        for name in files4:
            assert (out4 / name).read_bytes() == (out1 / name).read_bytes()

        capsys.readouterr()
        assert main(base + ["--jobs", "4", "--cache-dir", c4]) == 0
        summary = capsys.readouterr().out
        run_lines = [
            ln for ln in summary.splitlines()
            if ln.split() and ln.split()[0] in SMOKE.split(",")
        ]
        assert len(run_lines) == len(SMOKE.split(","))
        assert all(ln.split()[1] == "cached" for ln in run_lines)


GRID = ["--set", "net_name='resnet50'", "--set", "mini_batch=16,32",
        "--set", "buffer_mib=5,10"]


class TestShardMergeResume:
    def sweep(self, tmp_path, tag, *extra):
        args = (["sweep", "fig3"] + GRID
                + ["--cache-dir", str(tmp_path / f"cache-{tag}"),
                   "--out", str(tmp_path / f"out-{tag}")] + list(extra))
        return main(args)

    def test_shards_merge_byte_identical_to_single_process(
            self, capsys, tmp_path):
        """Acceptance: `--shard 0/2` + `--shard 1/2`, merged, is
        byte-identical to the one-process `--jobs 1` reference run."""
        assert self.sweep(tmp_path, "full", "--jobs", "1") == 0
        assert self.sweep(tmp_path, "s0", "--shard", "0/2") == 0
        assert self.sweep(tmp_path, "s1", "--shard", "1/2") == 0
        capsys.readouterr()
        merged = tmp_path / "merged"
        assert main(["merge", str(tmp_path / "out-s0"),
                     str(tmp_path / "out-s1"), "--out", str(merged),
                     "--check", str(tmp_path / "out-full")]) == 0
        out = capsys.readouterr().out
        assert "byte-identical" in out
        names = sorted(p.name for p in merged.iterdir())
        assert names == sorted(
            p.name for p in (tmp_path / "out-full").iterdir()
        )
        assert len(names) == 4

    def test_shards_partition_the_grid(self, capsys, tmp_path):
        assert self.sweep(tmp_path, "s0", "--shard", "0/2") == 0
        assert self.sweep(tmp_path, "s1", "--shard", "1/2") == 0
        n0 = len(list((tmp_path / "out-s0").iterdir()))
        n1 = len(list((tmp_path / "out-s1").iterdir()))
        assert n0 == 2 and n1 == 2
        shared = {p.name for p in (tmp_path / "out-s0").iterdir()} & \
            {p.name for p in (tmp_path / "out-s1").iterdir()}
        assert shared == set()

    def test_merge_conflict_fails(self, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(), b.mkdir()
        (a / "same.json").write_bytes(b'{"v": 1}\n')
        (b / "same.json").write_bytes(b'{"v": 2}\n')
        assert main(["merge", str(a), str(b),
                     "--out", str(tmp_path / "m")]) == 1
        assert "conflict" in capsys.readouterr().err

    def test_merge_check_detects_divergence(self, capsys, tmp_path):
        a, ref = tmp_path / "a", tmp_path / "ref"
        a.mkdir(), ref.mkdir()
        (a / "x.json").write_bytes(b'{"v": 1}\n')
        (ref / "x.json").write_bytes(b'{"v": 1}\n')
        (ref / "y.json").write_bytes(b'{"v": 2}\n')
        assert main(["merge", str(a), "--out", str(tmp_path / "m"),
                     "--check", str(ref)]) == 1
        assert "missing from merge: y.json" in capsys.readouterr().err

    def test_merge_missing_dir_is_usage_error(self, capsys, tmp_path):
        assert main(["merge", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "m")]) == 2

    def test_resume_skips_cached_points(self, capsys, tmp_path):
        assert self.sweep(tmp_path, "r", "--jobs", "1") == 0
        capsys.readouterr()
        assert self.sweep(tmp_path, "r", "--resume") == 0
        out = capsys.readouterr().out
        assert "resume-skipped=4" in out
        assert out.count("skipped") >= 4
        assert "ran" not in [
            ln.split()[1] for ln in out.splitlines()
            if ln.split() and ln.split()[0].startswith("buffer_mib=")
        ]

    def test_resume_runs_only_the_missing_points(self, capsys, tmp_path):
        cache = str(tmp_path / "cache-r")
        assert main(["sweep", "fig3"] + GRID
                    + ["--shard", "0/2", "--cache-dir", cache]) == 0
        capsys.readouterr()
        assert main(["sweep", "fig3"] + GRID
                    + ["--resume", "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "2 of 4 point(s)" in out and "resume-skipped=2" in out
