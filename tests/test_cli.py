import json
import random

import pytest

from simrt import (EngineError, Policy, SimConfig, builtin_profiles,
                   convolution_batch, dump_scenario, load_scenario,
                   robot_pipeline, simulate)
from simrt.cli import main

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

    def test_missing_profile_exits_2(self, capsys, conv_scenario):
        code, _, err = run_cli(capsys, "run", "-p", "no-such-profile",
                               "-s", conv_scenario)
        assert code == 2
        assert "no-such-profile" in err

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

    def test_engine_error_exits_1(self, capsys, monkeypatch, conv_scenario):
        def broken(*args, **kwargs):
            raise EngineError("simulation did not quiesce")
        monkeypatch.setattr("simrt.cli.simulate", broken)
        code, _, err = run_cli(capsys, "run", "-p", "sd820", "-s", conv_scenario)
        assert code == 1
        assert err == "simulation error: simulation did not quiesce\n"


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
        output raises the OSError rather than exiting 2."""
        args = {"trace": ["-p", "sd820", "-s", conv_scenario],
                "gen": ["--scenario", "conv", "--n", "5"]}[command]
        with pytest.raises(IsADirectoryError):
            main([command, *args, "--out", str(tmp_path)])


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
