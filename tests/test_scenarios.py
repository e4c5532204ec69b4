import hashlib
import itertools

import pytest

from simrt import (BasicPolicy, InvalidRate, Policy, SimConfig, UnitKind, builtin_profiles,
                   convolution_batch, dump_scenario, inference_comparison,
                   robot_pipeline, simulate, validate_graph)

from .oracle import assert_dispatch_equivalence


# SHA-256 over robot_pipeline's scenario JSON on a grid of rates, and over
# the InvalidRate raised for bad argument lists; see
# TestRobotPipeline.test_output_and_errors_are_pinned
_ROBOT_DIGEST = "3e96e484c2b1106333fba1ccdce26bc5b65423ad2c2d1a4a188aa2fd3c506cc7"


class TestConvolutionBatch:
    def test_zero_tasks(self):
        assert len(convolution_batch(0)) == 0

    def test_thousand_independent_tasks(self):
        g = convolution_batch(1000)
        assert len(g) == 1000
        assert all(t.workload == "convolution" for t in g)
        assert all(not t.deps for t in g)
        assert all(t.tags.real_time and not t.tags.image_input for t in g)
        assert all(t.release_us == 0 for t in g)
        validate_graph(g)

    def test_dispatch_prefix_with_2_1_1_weights(self):
        g = convolution_batch(4)
        profile = builtin_profiles()["sd820"]
        config = SimConfig(weights={"g": 2, "d": 1, "c": 1})
        _, trace = simulate(g, profile, Policy(BasicPolicy.LATENCY), config)
        dispatched = [r.unit for r in trace if r.phase == "dispatch"]
        assert dispatched == ["mGPU", "mGPU", "DSP", "CPU"]
        assert_dispatch_equivalence(trace, g, profile, Policy(BasicPolicy.LATENCY),
                                    weights=config.weights)

    def test_negative_count_rejected(self):
        for n in (-1, 1.5, "1", True, None):
            with pytest.raises(InvalidRate):
                convolution_batch(n)

    def test_invalid_rate_states_the_rule(self):
        # at least 0 for the batch size: 0 is a valid, empty batch
        for n, got in ((-1, "-1"), (True, "True"), ("1", "'1'")):
            with pytest.raises(InvalidRate) as exc:
                convolution_batch(n)
            assert str(exc.value) == f"n must be an integer >= 0 (not a bool), got {got}"
            assert (exc.value.name, exc.value.value, exc.value.minimum) == ("n", n, 0)
        with pytest.raises(InvalidRate) as exc:
            robot_pipeline(2, 25.5, 200, 3)
        assert str(exc.value) == "camera_fps must be an integer >= 1 (not a bool), got 25.5"

    def test_an_int_subclass_is_an_integer(self):
        # the rule of SimConfig's integer fields: any int but a bool
        class Count(int):
            pass

        assert dump_scenario(convolution_batch(Count(3))) == dump_scenario(convolution_batch(3))
        assert (dump_scenario(robot_pipeline(Count(1), 25, Count(200), 3, Count(7)))
                == dump_scenario(robot_pipeline(1, 25, 200, 3, 7)))


class TestRobotPipeline:
    def test_camera_chain_counts_per_second(self):
        g = robot_pipeline(1, 25, 200, 3)
        captures = [t for t in g if t.workload == "capture"]
        assert len(captures) == 25
        for stage in ("undistort", "gaussian_blur", "feature_detect",
                      "optical_flow", "update"):
            assert sum(1 for t in g if t.workload == stage) == 25

    def test_dl_chain_counts(self):
        g = robot_pipeline(1, 25, 200, 3)
        for layer in ("conv1", "conv2", "conv3", "conv4", "conv5",
                      "fc6", "fc7", "fc8"):
            assert sum(1 for t in g if t.workload == layer) == 3
        # each chain is 8 dependent layer tasks
        roots = [t for t in g if t.workload == "conv1"]
        for root in roots:
            chain = [root.id]
            while True:
                nxt = [t.id for t in g if root.id <= t.id <= root.id + 7
                       and chain[-1] in t.deps]
                if not nxt:
                    break
                chain.append(nxt[0])
            assert len(chain) == 8

    def test_periodic_counts_scale_with_duration(self):
        g = robot_pipeline(10, 25, 200, 3)
        assert sum(1 for t in g if t.workload == "capture") == 250
        assert sum(1 for t in g if t.workload == "propagate") == 2000
        assert sum(1 for t in g if t.workload == "fc8") == 30
        assert sum(1 for t in g if t.workload == "planning") == 100

    def test_exactly_two_non_real_time_tasks(self):
        g = robot_pipeline(2, 25, 200, 3)
        non_rt = [t for t in g if not t.tags.real_time]
        assert sorted(t.workload for t in non_rt) == [
            "map_generation", "scene_understanding"]

    def test_tag_audit(self):
        g = robot_pipeline(2, 25, 200, 3)
        image_stages = {"undistort", "gaussian_blur", "feature_detect",
                        "optical_flow"}
        for t in g:
            if t.workload in image_stages:
                assert t.tags.image_input and t.tags.real_time
            elif t.workload in ("scene_understanding", "map_generation"):
                assert not t.tags.real_time
            else:
                assert t.tags.real_time and not t.tags.image_input

    def test_generation_is_deterministic(self):
        a = dump_scenario(robot_pipeline(3, 25, 200, 3))
        b = dump_scenario(robot_pipeline(3, 25, 200, 3))
        assert a == b

    def test_graph_validates(self):
        validate_graph(robot_pipeline(2, 25, 200, 3))

    def test_output_and_errors_are_pinned(self):
        # rates 7 and 13 do not divide 10**6, so release times round down;
        # each bad argument list holds two bad rates, so the digest also
        # pins which one is reported
        digest = hashlib.sha256()
        for args in itertools.product((1, 2, 3), (1, 7, 25), (1, 13, 200),
                                      (1, 3), (1, 7, 10)):
            digest.update(f"{args}|{dump_scenario(robot_pipeline(*args))}\n".encode())
        for args in ((0, 0, 200, 3), (1, -25, 200, 0), (1, 25, 1.5, 3, 0),
                     (2, 25, 13, True, "7"), ("1", None, 200, 3),
                     (1, 25, 200, 3.0, -10)):
            with pytest.raises(InvalidRate) as exc:
                robot_pipeline(*args)
            digest.update(f"{args}|{type(exc.value).__name__}|{exc.value}\n".encode())
        assert digest.hexdigest() == _ROBOT_DIGEST

    def test_invalid_rates_rejected(self):
        for args in ((0, 25, 200, 3), (10, -25, 200, 3), (1.5, 25, 200, 3),
                     ("1", 25, 200, 3), (1, 25, 200, 3.0), (1, True, 200, 3)):
            with pytest.raises(InvalidRate):
                robot_pipeline(*args)
        with pytest.raises(InvalidRate):
            robot_pipeline(1, 25, 200, 3, planning_hz=0.5)


class TestInferenceComparison:
    def test_three_variants(self):
        specs = inference_comparison()
        names = [s.name for s in specs]
        assert names == ["inference-cpu", "inference-gpu", "inference-cloud"]
        for spec in specs:
            assert len(spec.graph) == 1
            assert spec.graph.task(1).workload == "alexnet"
        assert specs[0].pinned_units == frozenset({UnitKind.CPU})
        assert specs[1].pinned_units == frozenset({UnitKind.GPU})
        assert specs[2].pinned_units is None
        assert not specs[2].graph.task(1).tags.real_time
        assert specs[0].graph.task(1).tags.real_time
