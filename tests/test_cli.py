import dataclasses
import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

import simrt
import simrt.cli
import simrt.engine
import simrt.profiles
from simrt import (AuditError, EngineError, Policy, SimConfig, SimrtError,
                   builtin_profiles, convolution_batch, dump_scenario, load_profile,
                   load_scenario, preference_matrix, robot_pipeline, simulate)
from simrt.cli import main
from simrt.engine import SimResult

from .test_golden import robot_dag


def run_cli(capsys, *argv):
    capsys.readouterr()  # discard anything printed during setup
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def conv_scenario(tmp_path):
    path = tmp_path / "conv.json"
    path.write_text(dump_scenario(convolution_batch(40)))
    return str(path)


class TestRun:
    def test_table_has_one_row_per_policy(self, capsys, conv_scenario):
        code, out, _ = run_cli(capsys, "run", "-p", "sd820", "-s", conv_scenario,
                               "--policy", "throughput,latency,energy")
        assert code == 0
        lines = [l for l in out.splitlines() if l.strip()]
        assert "seed: 0" in lines[0]
        body = lines[3:]
        assert len(body) == 3
        assert [row.split()[0] for row in body] == ["throughput", "latency", "energy"]

    def test_json_round_trips(self, capsys, conv_scenario):
        code, out, _ = run_cli(capsys, "run", "-p", "sd820", "-s", conv_scenario,
                               "--policy", "latency", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["seed"] == 0
        with open(conv_scenario) as fh:
            scenario = load_scenario(fh.read())
        metrics, _ = simulate(scenario, builtin_profiles()["sd820"], Policy.latency(),
                              SimConfig())
        assert doc["results"][0]["metrics"] == metrics.to_dict()

    def test_audit_leaves_the_json_unchanged(self, capsys, tmp_path):
        scenario = tmp_path / "dag.json"
        scenario.write_text(dump_scenario(robot_dag(5)))
        argv = ["run", "-p", "sd820-robot", "-s", str(scenario), "--format", "json",
                "--policy", "advanced:energy,advanced:latency", "--buffer-capacity", "1",
                "--cloud-slots", "2", "--setup-mode", "per-offload"]
        plain = run_cli(capsys, *argv)
        audited = run_cli(capsys, *argv, "--audit")
        assert plain == audited
        assert plain[0] == 0 and json.loads(plain[1])["results"][0]["metrics"]["drops"] > 0

    @pytest.mark.parametrize("audit", [False, True])
    def test_only_the_audit_keeps_a_trace(self, capsys, monkeypatch, conv_scenario, audit):
        traces = []

        def recording(*args):
            result = simulate(*args)
            traces.append(result.trace)
            return result

        monkeypatch.setattr("simrt.cli.simulate", recording)
        code, _, _ = run_cli(capsys, "run", "-p", "sd820", "-s", conv_scenario,
                             "--policy", "throughput,energy", *["--audit"] * audit)
        assert code == 0 and len(traces) == 2
        assert all((trace is not None) == audit for trace in traces)

    def test_audit_rejects_metrics_that_differ_from_the_trace(self, capsys, monkeypatch,
                                                                conv_scenario):
        run = simrt.engine._Engine.run

        def miscounting(engine):
            metrics, trace = run(engine)
            return SimResult(dataclasses.replace(metrics, drops=metrics.drops + 1), trace)

        monkeypatch.setattr(simrt.engine._Engine, "run", miscounting)
        assert run_cli(capsys, "run", "-p", "sd820", "-s", conv_scenario)[0] == 0
        code, out, err = run_cli(capsys, "run", "-p", "sd820", "-s", conv_scenario,
                                 "--audit")
        assert (code, out) == (1, "")
        assert err == ("simulation error: throughput: metrics differ from the trace's: "
                       "drops 1 (trace: 0)\n")

    def test_csv_holds_the_table_cells(self, capsys, conv_scenario):
        argv = ["run", "-p", "sd820", "-s", conv_scenario,
                "--policy", "throughput,latency,energy"]
        _, table, _ = run_cli(capsys, *argv)
        code, csv, _ = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0
        header, _, *rows = table.splitlines()[1:]  # below the profile line, above the dashes
        assert [line.split(",") for line in csv.splitlines()] == [
            header.split(), *(row.split() for row in rows)]
        assert len(rows) == 3

    def test_module_entry_point(self, conv_scenario):
        src = str(pathlib.Path(simrt.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))

        def cli(*argv):
            return subprocess.run([sys.executable, "-m", "simrt.cli", *argv], env=env,
                                  capture_output=True, text=True, timeout=120)

        ok = cli("run", "-p", "sd820", "-s", conv_scenario)
        assert (ok.returncode, ok.stderr) == (0, "")
        assert ok.stdout.startswith("profile: sd820")
        missing = cli("run", "-p", "no-such-profile", "-s", conv_scenario)
        assert_input_error(missing.returncode, missing.stdout, missing.stderr)

    def test_missing_profile_exits_2(self, capsys, conv_scenario):
        code, _, err = run_cli(capsys, "run", "-p", "no-such-profile",
                               "-s", conv_scenario)
        assert code == 2
        assert err == ("error: profile 'no-such-profile' is neither a file, a builtin "
                       "(sd820, sd820-robot, tx1-cloud), nor in SIMRT_PROFILE_DIR\n")

    def test_malformed_scenario_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"tasks": [{"id": 1}]}')
        code, _, err = run_cli(capsys, "run", "-p", "sd820", "-s", str(bad))
        assert code == 2
        assert "workload" in err

    def test_unresolvable_missing_cost_exits_2(self, capsys, tmp_path):
        scenario = tmp_path / "s.json"
        scenario.write_text('{"tasks":[{"id":1,"workload":"unknown_thing"}]}')
        code, _, err = run_cli(capsys, "run", "-p", "sd820", "-s", str(scenario))
        assert code == 2
        assert "unknown_thing" in err

    def test_loads_only_the_named_builtin(self, capsys, monkeypatch, conv_scenario):
        names = []

        def counting(text, name=""):
            names.append(name)
            return load_profile(text, name=name)

        monkeypatch.setattr(simrt.cli, "load_profile", counting)
        monkeypatch.setattr(simrt.profiles, "load_profile", counting)
        code, _, _ = run_cli(capsys, "run", "-p", "sd820", "-s", conv_scenario)
        assert code == 0
        assert names == ["sd820"]

    def test_profile_dir_search_path(self, capsys, tmp_path, monkeypatch, conv_scenario):
        from simrt.builtins import BUILTIN_PROFILE_TEXTS
        (tmp_path / "mine.json").write_text(BUILTIN_PROFILE_TEXTS["sd820"])
        monkeypatch.setenv("SIMRT_PROFILE_DIR", str(tmp_path))
        code, out, _ = run_cli(capsys, "run", "-p", "mine", "-s", conv_scenario)
        assert code == 0


    @pytest.mark.parametrize("flag", [("--cloud-slots", "0"),
                                      ("--buffer-capacity", "-1")])
    def test_out_of_range_config_exits_2(self, capsys, tmp_path, flag):
        scenario = tmp_path / "robot.json"
        scenario.write_text(dump_scenario(robot_pipeline(1, 25, 200, 3)))
        code, out, err = run_cli(capsys, "run", "-p", "sd820-robot", "-s", str(scenario),
                                 "--policy", "advanced:throughput", *flag)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert flag[0].lstrip("-").replace("-", "_") in err

    @pytest.mark.parametrize("error", sorted(
        (c for c in vars(simrt).values() if isinstance(c, type) and issubclass(c, SimrtError)),
        key=lambda c: c.__name__), ids=lambda c: c.__name__)
    def test_simrt_error_exit_code_and_prefix(self, capsys, monkeypatch, conv_scenario, error):
        def broken(*args, **kwargs):
            exc = error.__new__(error)  # constructors differ; the message is args[0]
            Exception.__init__(exc, "simulation did not quiesce")
            raise exc
        monkeypatch.setattr("simrt.cli.simulate", broken)
        code, _, err = run_cli(capsys, "run", "-p", "sd820", "-s", conv_scenario)
        if error in (EngineError, AuditError):
            assert (code, err) == (1, "simulation error: simulation did not quiesce\n")
        else:  # every other SimrtError is an input or validation error
            assert (code, err) == (2, "error: simulation did not quiesce\n")


class TestValidate:
    def test_sd820_matrix(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "sd820")
        assert code == 0
        rows = {line.split()[0]: line.split()[1:]
                for line in out.splitlines()
                if line and line.split()[0] in (
                    "gaussian_blur", "convolution", "sobel", "undistort",
                    "feature_detect")}
        assert rows["gaussian_blur"] == ["CPU", "mGPU"]
        assert rows["convolution"] == ["mGPU", "mGPU"]
        assert rows["sobel"] == ["mGPU", "DSP"]
        assert rows["undistort"] == ["mGPU", "mGPU"]
        assert rows["feature_detect"] == ["DSP", "DSP"]
        assert out.strip().endswith("ok")

    def test_cloud_has_its_own_line(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "tx1-cloud")
        assert code == 0
        assert "units: CPU(w=2), GPU(w=4, 256 GOPS)" in out.splitlines()
        assert "cloud: latency_us=[2000000, 5000000], energy_uj=10000" in out.splitlines()
        assert "CLOUD(" not in out

    def test_workload_without_a_cost_entry_has_no_row(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({
            "units": [{"kind": "CPU", "weight": 2}],
            "workloads": [{"name": "a"}, {"name": "b"}],
            "costs": {"a@CPU": {"kernel_us": 10, "energy_uj": 1}},
        }))
        assert list(preference_matrix(load_profile(path.read_text()))) == ["a"]
        code, out, _ = run_cli(capsys, "validate", str(path))
        assert code == 0
        rows = [line.split()[0] for line in out.splitlines() if line.strip()]
        assert "a" in rows and "b" not in rows
        assert out.strip().endswith("ok")

    def test_malformed_profile_exits_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "validate", str(path))
        assert code == 2
        assert "error" in err


class TestTrace:
    def test_trace_csv_matches_library_output(self, capsys, tmp_path, conv_scenario):
        out_path = tmp_path / "trace.csv"
        code, _, _ = run_cli(capsys, "trace", "-p", "sd820", "-s", conv_scenario,
                             "--policy", "latency", "--out", str(out_path))
        assert code == 0
        with open(conv_scenario) as fh:
            scenario = load_scenario(fh.read())
        _, trace = simulate(scenario, builtin_profiles()["sd820"],
                            Policy.latency(), SimConfig())
        assert out_path.read_text() == trace.to_csv()

    def test_breakdown_shows_setup_dominating_per_offload(self, capsys, tmp_path,
                                                          conv_scenario):
        out_path = tmp_path / "trace.csv"
        code, out, _ = run_cli(capsys, "trace", "-p", "sd820", "-s", conv_scenario,
                               "--policy", "throughput",
                               "--setup-mode", "per_offload",
                               "--out", str(out_path), "--breakdown")
        assert code == 0
        for line in out.splitlines():
            cells = line.split()
            if cells and cells[0] == "mGPU":
                setup_us, kernel_us = int(cells[1]), int(cells[3])
                assert setup_us > kernel_us
                break
        else:
            pytest.fail("no mGPU row in breakdown output")

    def test_breakdown_amortized_setup_is_zero(self, capsys, tmp_path, conv_scenario):
        out_path = tmp_path / "trace.csv"
        code, out, _ = run_cli(capsys, "trace", "-p", "sd820", "-s", conv_scenario,
                               "--policy", "throughput", "--out", str(out_path),
                               "--breakdown")
        assert code == 0
        for line in out.splitlines():
            cells = line.split()
            if cells and cells[0] in ("CPU", "mGPU", "DSP"):
                assert int(cells[1]) == 0

    def test_empty_scenario_header_only(self, capsys, tmp_path):
        scenario = tmp_path / "empty.json"
        scenario.write_text('{"tasks": []}')
        out_path = tmp_path / "trace.csv"
        code, _, _ = run_cli(capsys, "trace", "-p", "sd820", "-s", str(scenario),
                             "--out", str(out_path))
        assert code == 0
        assert out_path.read_text() == "time_us,task_id,workload,unit,phase\n"


# `trace --breakdown` stdout for three runs, recorded from an independent
# computation: each local completion's phase costs looked up through
# offload_time. The breakdown sums phase durations from the trace instead.
_BREAKDOWN_CASES = {
    "robot-amortized": (
        lambda: robot_pipeline(1, 25, 200, 3),
        ["-p", "sd820-robot", "--policy", "advanced:throughput", "--buffer-capacity", "4"],
        """\
wrote 2310 records to {out} (seed: 0)
unit  setup_us  xfer_in_us  kernel_us  xfer_out_us  total_us
----  --------  ----------  ---------  -----------  --------
 DSP         0        7000     107500         3500    118000
mGPU         0        3650     101650         1950    107250
"""),
    "conv-per-offload": (
        lambda: convolution_batch(40),
        ["-p", "sd820", "--policy", "throughput", "--setup-mode", "per_offload"],
        """\
wrote 240 records to {out} (seed: 0)
unit  setup_us  xfer_in_us  kernel_us  xfer_out_us  total_us
----  --------  ----------  ---------  -----------  --------
 CPU         0           0      43200            0     43200
 DSP      3000         180      18300          120     21600
mGPU     40000         600       1100          300     42000
"""),
    "dag-drops-cloud": (  # 51 drops and 44 cloud completions
        lambda: robot_dag(5),
        ["-p", "sd820-robot", "--policy", "advanced:energy", "--setup-mode", "per_offload",
         "--seed", "5", "--buffer-capacity", "1", "--cloud-slots", "2"],
        """\
wrote 1311 records to {out} (seed: 5)
unit  setup_us  xfer_in_us  kernel_us  xfer_out_us  total_us
----  --------  ----------  ---------  -----------  --------
 CPU         0           0      95900            0     95900
 DSP     61600        3360     160000         1680    226640
mGPU    174000        2250      44440         1160    221850
"""),
}


@pytest.mark.parametrize("name", sorted(_BREAKDOWN_CASES))
def test_breakdown_from_trace_matches_recorded_output(capsys, tmp_path, name):
    build, flags, expected = _BREAKDOWN_CASES[name]
    scenario, out_path = tmp_path / "s.json", tmp_path / "trace.csv"
    scenario.write_text(dump_scenario(build()))
    code, out, err = run_cli(capsys, "trace", "-s", str(scenario), *flags,
                             "--out", str(out_path), "--breakdown")
    assert (code, err) == (0, "")
    assert out == expected.format(out=out_path)


class TestGen:
    def test_gen_robot_writes_loadable_scenario(self, capsys, tmp_path):
        path = tmp_path / "robot.json"
        code, out, _ = run_cli(capsys, "gen", "--scenario", "robot",
                               "--duration", "2", "--camera-fps", "25",
                               "--imu-hz", "200", "--dl-fps", "3",
                               "--out", str(path))
        assert code == 0
        g = load_scenario(path.read_text())
        assert sum(1 for t in g if t.workload == "capture") == 50

    def test_gen_inference_variants(self, capsys, tmp_path):
        path = tmp_path / "inf.json"
        code, _, _ = run_cli(capsys, "gen", "--scenario", "inference",
                             "--variant", "cloud", "--out", str(path))
        assert code == 0
        g = load_scenario(path.read_text())
        assert not g.task(1).tags.real_time

    @pytest.mark.parametrize("flags", [[], ["--variant", "local"]])
    def test_gen_inference_local_is_real_time(self, capsys, tmp_path, flags):
        path = tmp_path / "inf.json"
        code, _, _ = run_cli(capsys, "gen", "--scenario", "inference", *flags,
                             "--out", str(path))
        assert code == 0
        g = load_scenario(path.read_text())
        assert len(g) == 1 and g.task(1).tags.real_time

    @pytest.mark.parametrize("variant", ["cpu", "gpu"])
    def test_gen_pinned_variants_are_rejected(self, capsys, tmp_path, variant):
        # a scenario file cannot carry a pinned unit, so these wrote the same file
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--scenario", "inference", "--variant", variant,
                  "--out", str(tmp_path / "inf.json")])
        assert exc.value.code == 2
        assert not (tmp_path / "inf.json").exists()

    def test_gen_bad_rate_exits_2(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "gen", "--scenario", "robot",
                             "--duration", "0", "--out", str(tmp_path / "x.json"))
        assert code == 2


def assert_input_error(code, out, err):
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "Traceback" not in err


class TestUnreadableInputs:
    """A scenario or profile file that cannot be read or parsed is an input
    error: one `error:` line and exit 2, never a traceback."""

    def test_non_utf8_scenario(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"tasks": [{"id": 1, "workload": "caf\xe9"}]}')
        code, out, err = run_cli(capsys, "run", "-p", "sd820", "-s", str(path))
        assert_input_error(code, out, err)
        assert str(path) in err and "UTF-8" in err

    def test_non_utf8_profile(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'\xff\xfe{"name": "x"}')
        code, out, err = run_cli(capsys, "validate", str(path))
        assert_input_error(code, out, err)
        assert str(path) in err

    def test_deeply_nested_scenario(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        code, out, err = run_cli(capsys, "run", "-p", "sd820", "-s", str(path))
        assert_input_error(code, out, err)
        assert "scenario: invalid JSON" in err

    def test_deeply_nested_profile(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        code, out, err = run_cli(capsys, "validate", str(path))
        assert_input_error(code, out, err)
        assert "profile: invalid JSON" in err

    def test_scenario_path_is_a_directory(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "run", "-p", "sd820", "-s", str(tmp_path))
        assert_input_error(code, out, err)
        assert str(tmp_path) in err

    def test_profile_path_is_a_directory(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "validate", str(tmp_path))
        assert_input_error(code, out, err)
        assert str(tmp_path) in err

    def test_missing_scenario_file(self, capsys, tmp_path):
        path = tmp_path / "absent.json"
        code, out, err = run_cli(capsys, "run", "-p", "sd820", "-s", str(path))
        assert_input_error(code, out, err)
        assert str(path) in err

    @pytest.mark.parametrize("command", ["trace", "gen"])
    def test_unwritable_out_is_not_an_input_error(self, tmp_path, conv_scenario, command):
        """Only the input files are input errors: a run that cannot write its
        output (a directory, or a file in a directory that does not exist)
        raises the OSError rather than exiting 2."""
        args = {"trace": ["-p", "sd820", "-s", conv_scenario],
                "gen": ["--scenario", "conv", "--n", "5"]}[command]
        with pytest.raises(IsADirectoryError):
            main([command, *args, "--out", str(tmp_path)])
        with pytest.raises(FileNotFoundError):
            main([command, *args, "--out", str(tmp_path / "missing" / "x.csv")])


def _profile_file(tmp_path, **unit_fields) -> str:
    """A one-CPU profile file whose unit carries the given extra fields."""
    path = tmp_path / "p.json"
    path.write_text(json.dumps({
        "units": [{"kind": "CPU", "weight": 2, **unit_fields}],
        "workloads": [{"name": "convolution", "ops": 1000}],
        "costs": {"convolution@CPU": {"energy_uj": 1}},
    }))
    return str(path)


def _cloud_profile_file(tmp_path, entry=(), workload=(), cloud=()) -> str:
    """A one-CPU profile file with a cloud section for the convolution
    workload, its cost entry, workload and cloud fields updated."""
    path = tmp_path / "cloud.json"
    path.write_text(json.dumps({
        "units": [{"kind": "CPU", "gops": 1}],
        "workloads": [{"name": "convolution", **dict(workload)}],
        "costs": {"convolution@CPU": {"kernel_us": 10, "energy_uj": 1, **dict(entry)}},
        "cloud": {"latency_us": [0, 10], "energy_uj": 1, **dict(cloud)},
    }))
    return str(path)


def _mixed_scenario_file(tmp_path, release_us: int) -> str:
    """A real-time convolution at 0 and a non-real-time one at release_us."""
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps({"tasks": [
        {"id": 1, "workload": "convolution"},
        {"id": 2, "workload": "convolution", "real_time": False, "release_us": release_us},
    ]}))
    return str(path)


class TestProfileRules:
    """Profile values that are out of range are input errors, never a
    traceback from the arithmetic that would use them."""

    def test_huge_gops_is_an_input_error(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "validate", _profile_file(tmp_path, gops=1e308))
        assert_input_error(code, out, err)
        assert "units[0]: 'gops' must be at most 1e+12" in err

    def test_huge_idle_watts_is_an_input_error(self, capsys, tmp_path, conv_scenario):
        profile = _profile_file(tmp_path, gops=1, idle_watts=1e308)
        code, out, err = run_cli(capsys, "run", "-p", profile, "-s", conv_scenario)
        assert_input_error(code, out, err)
        assert "units[0]: 'idle_watts' must be at most 1e+12" in err

    def test_numbers_at_the_ceiling_run(self, capsys, tmp_path, conv_scenario):
        profile = _profile_file(tmp_path, gops=1e12, idle_watts=1e12)
        code, _, err = run_cli(capsys, "run", "-p", profile, "-s", conv_scenario)
        assert code == 0 and err == ""

    @pytest.mark.parametrize("field, entry, workload, cloud", [
        ("energy_uj", {"energy_uj": 10**400}, {}, {}),
        ("kernel_us", {"kernel_us": 10**400}, {}, {}),
        ("ops", {"kernel_us": None}, {"ops": 10**400}, {}),
        ("latency_us", {}, {}, {"latency_us": [0, 10**400]}),
        ("energy_uj", {}, {}, {"energy_uj": 10**400}),
    ])
    def test_huge_integers_are_input_errors(self, capsys, tmp_path, field, entry,
                                            workload, cloud):
        profile = _cloud_profile_file(tmp_path, entry=entry, workload=workload, cloud=cloud)
        code, out, err = run_cli(capsys, "run", "-p", profile, "-s",
                                 _mixed_scenario_file(tmp_path, 0),
                                 "--policy", "advanced:throughput")
        assert_input_error(code, out, err)
        assert f"'{field}' must be at most 1e+12" in err

    def test_huge_release_is_an_input_error(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "run", "-p", _cloud_profile_file(tmp_path),
                                 "-s", _mixed_scenario_file(tmp_path, 10**400))
        assert_input_error(code, out, err)
        assert "tasks[1]: 'release_us' must be at most 1e+12" in err

    def test_integers_at_the_ceiling_run(self, capsys, tmp_path):
        top = 10**12
        profile = _cloud_profile_file(
            tmp_path, entry={"kernel_us": None, "setup_us": top, "xfer_in_us": top,
                             "xfer_out_us": top, "energy_uj": top},
            workload={"ops": top}, cloud={"latency_us": [top, top], "energy_uj": top})
        code, _, err = run_cli(capsys, "run", "-p", profile, "-s",
                               _mixed_scenario_file(tmp_path, top),
                               "--policy", "advanced:throughput", "--setup-mode", "per_offload",
                               "--audit")
        assert code == 0 and err == ""

    def test_non_string_name_is_an_input_error(self, capsys, tmp_path, conv_scenario):
        path = tmp_path / "named.json"
        path.write_text(json.dumps({"name": 7, "units": [{"kind": "CPU"}]}))
        code, out, err = run_cli(capsys, "run", "-p", str(path), "-s", conv_scenario,
                                 "--format", "json")
        assert_input_error(code, out, err)
        assert "profile: 'name' must be a string" in err


class _Obj(list):
    """A JSON object as its (key, value) pairs, so a key may repeat."""


def _dump(node) -> str:
    if isinstance(node, _Obj):
        return "{" + ", ".join(f"{json.dumps(k)}: {_dump(v)}" for k, v in node) + "}"
    if isinstance(node, list):
        return "[" + ", ".join(_dump(v) for v in node) + "]"
    return json.dumps(node)


_VALUES = (None, True, False, 0, 1, -1, 2.5, float("nan"), "", "x", "CPU", [], [1, True],
           _Obj(), _Obj([("kernel_us", 5)]))


def _mutate(text: str, rng) -> str:
    """One seeded mutation: a byte flip, a truncation, or on the parsed
    document a swapped value, a dropped key or a duplicated key."""
    how = rng.randrange(5)
    if how == 0:
        data = bytearray(text.encode())
        data[rng.randrange(len(data))] = rng.randrange(256)
        return data.decode("utf-8", errors="surrogateescape")
    if how == 1:
        return text[:rng.randrange(len(text))]
    doc = json.loads(text, object_pairs_hook=_Obj)
    containers = []  # every object and array in the document
    stack = [doc]
    while stack:
        node = stack.pop()
        containers.append(node)
        values = [v for _, v in node] if isinstance(node, _Obj) else node
        stack.extend(v for v in values if isinstance(v, list))
    objects = [c for c in containers if isinstance(c, _Obj) and c]
    if how == 2:
        node = rng.choice([c for c in containers if c])
        i = rng.randrange(len(node))
        value = rng.choice(_VALUES)
        node[i] = (node[i][0], value) if isinstance(node, _Obj) else value
    elif how == 3:
        node = rng.choice(objects)
        del node[rng.randrange(len(node))]
    else:
        node = rng.choice(objects)
        node.append((rng.choice(node)[0], rng.choice(_VALUES)))
    return _dump(doc)


class TestFuzzedInputs:
    def test_mutated_files_exit_0_or_one_error_line(self, capsys, tmp_path):
        from simrt.builtins import BUILTIN_PROFILE_TEXTS
        scenario_text = json.dumps({"tasks": [
            {"id": 1, "workload": "alexnet", "image_input": True, "release_us": 10},
            {"id": 2, "workload": "alexnet", "deps": [1]},
            {"id": 3, "workload": "alexnet", "real_time": False, "deps": [1, 2]},
            {"id": 4, "workload": "alexnet", "image_input": True, "deps": [2]},
        ]})
        profile_text = BUILTIN_PROFILE_TEXTS["tx1-cloud"]
        rng = random.Random(20240)
        scenario, profile = tmp_path / "s.json", tmp_path / "p.json"
        outcomes = {0: 0, 2: 0}
        for case in range(300):
            mutate_scenario = case % 2 == 0
            scenario.write_text(_mutate(scenario_text, rng) if mutate_scenario
                                else scenario_text, errors="surrogateescape")
            profile.write_text(profile_text if mutate_scenario
                               else _mutate(profile_text, rng), errors="surrogateescape")
            code, out, err = run_cli(capsys, "run", "-p", str(profile), "-s", str(scenario),
                                     "--policy", "advanced:throughput,latency",
                                     "--buffer-capacity", "1", "--audit")
            if code == 0:
                assert err == "", (case, err)
            else:
                assert_input_error(code, out, err)
            outcomes[code] += 1
        # the mutations reach both outcomes, so neither check above is vacuous
        assert outcomes[0] >= 5 and outcomes[2] >= 100, outcomes


# per flag of `run`/`trace`: values that are malformed, out of range or odd
# but valid (unicode digits, spacing, case, huge numbers)
_FLAG_VALUES = {
    "--policy": ["advanced:bogus", "advanced:", "advanced", "fastest", "", ",",
                 "throughput,", " Latency ", "ADVANCED:ENERGY", "advanced:advanced:energy",
                 "advanced:throughput,energy", "latency\x00", "advanced:throughput"],
    "--weights": ["g=\u00b2", "g=\u0663", "g=0,d=0,c=0", "g=-1", "g=1_000", "x=1", "g", "=",
                  ",", "g=99999999999999999999", "g=1,g=2", "g= 3 ,c=1", "d=0"],
    "--seed": ["-1", "x", "1e3", "", "9" * 5000, "99999999999999999999", "0x10", " 7 "],
    "--setup-mode": ["per-offload", "PER_OFFLOAD", "bogus", "", "amortized"],
    "--buffer-capacity": ["-1", "0", "x", "1.5", "99999999999999999999", "9" * 5000],
    "--cloud-slots": ["0", "-3", "1", "x", "99999999999999999999", ""],
    "--format": ["xml", "", "JSON", "json", "csv"],
}


class TestFuzzedFlags:
    def test_bad_flag_values_exit_0_or_2_without_traceback(self, capsys, tmp_path):
        """Seeded combinations of odd flag values on a 20-task scenario; argparse
        rejects some (SystemExit 2), simrt the rest, and none escapes `main`."""
        scenario = tmp_path / "s.json"
        scenario.write_text(dump_scenario(robot_dag(7, n=20)))
        rng = random.Random(5150)
        outcomes = {0: 0, 2: 0}
        for case in range(200):
            command = rng.choice(("run", "trace"))
            flags = [f for f in _FLAG_VALUES if command == "run" or f != "--format"]
            argv = [command, "-p", "sd820-robot", "-s", str(scenario),
                    "--policy", "advanced:throughput"]
            for flag in rng.sample(flags, rng.randint(1, 3)):
                argv += [flag, rng.choice(_FLAG_VALUES[flag])]
            if command == "trace":
                argv += ["--out", str(tmp_path / "trace.csv")]
            capsys.readouterr()
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage error
                code = exc.code
            except Exception as exc:
                pytest.fail(f"{argv[7:]} raised {exc!r}")
            err = capsys.readouterr().err
            assert code in (0, 2), (argv[7:], code, err)
            assert "Traceback" not in err, argv[7:]
            outcomes[code] += 1
        assert outcomes[0] >= 20 and outcomes[2] >= 100, outcomes
