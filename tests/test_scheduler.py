import json
import random

import pytest

from simrt import (BasicPolicy, InvalidConfig, InvalidScenario, Policy, RouteClass,
                   SchedulerState, Task, TaskTags, UnitKind, builtin_profiles, classify,
                   dispatch, dispatch_latency, load_profile, on_unit_free)

from .helpers import ALL_POLICIES, random_profile


def three_unit_profile(w_g=4, w_d=2, w_c=2, gpu="mGPU"):
    doc = {
        "units": [
            {"kind": "CPU", "weight": w_c},
            {"kind": gpu, "weight": w_g},
            {"kind": "DSP", "weight": w_d},
        ],
        "workloads": [{"name": "w"}],
        "costs": {f"w@{k}": {"kernel_us": 10, "energy_uj": 1}
                  for k in ("CPU", gpu, "DSP")},
        "cloud": {"latency_us": [100, 200], "energy_uj": 1},
    }
    return load_profile(json.dumps(doc))


def mk_task(tid, real_time=True, image_input=False, workload="w"):
    return Task(id=tid, workload=workload,
                tags=TaskTags(real_time=real_time, image_input=image_input))


class TestClassify:
    def test_non_real_time_goes_to_cloud_even_with_image(self):
        assert classify(mk_task(1, real_time=False, image_input=True)) is RouteClass.CLOUD

    def test_real_time_image_is_high_priority(self):
        assert classify(mk_task(1, real_time=True, image_input=True)) is RouteClass.HIGH_PRIORITY

    def test_real_time_non_image_is_basic(self):
        assert classify(mk_task(1, real_time=True, image_input=False)) is RouteClass.BASIC

    def test_non_real_time_non_image_is_cloud(self):
        assert classify(mk_task(1, real_time=False, image_input=False)) is RouteClass.CLOUD


class TestLatencyRotation:
    def test_weighted_cycle_2_1_1(self):
        state = SchedulerState(three_unit_profile(), weights={"g": 2, "d": 1, "c": 1})
        got = [dispatch_latency(state).value for _ in range(8)]
        assert got == ["mGPU", "mGPU", "DSP", "CPU", "mGPU", "mGPU", "DSP", "CPU"]

    def test_unit_weights_reduce_to_round_robin(self):
        state = SchedulerState(three_unit_profile(), weights={"g": 1, "d": 1, "c": 1})
        assert [dispatch_latency(state).value for _ in range(3)] == ["mGPU", "DSP", "CPU"]

    def test_zero_weight_units_excluded(self):
        state = SchedulerState(three_unit_profile(), weights={"g": 1, "d": 0, "c": 0})
        assert [dispatch_latency(state).value for _ in range(3)] == ["mGPU"] * 3

    def test_counter_stays_below_cycle_length(self):
        state = SchedulerState(three_unit_profile(w_g=3, w_d=2, w_c=1))
        for _ in range(50):
            dispatch_latency(state)
            assert state.counter_n < 6

    def test_any_full_cycle_window_has_exact_shares(self):
        rng = random.Random(31337)
        for _ in range(200):
            w_g, w_d, w_c = (rng.randint(1, 5) for _ in range(3))
            state = SchedulerState(three_unit_profile(w_g, w_d, w_c))
            total = w_g + w_d + w_c
            seq = [dispatch_latency(state) for _ in range(4 * total)]
            for start in range(len(seq) - total + 1):
                window = seq[start:start + total]
                assert window.count(UnitKind.MGPU) == w_g
                assert window.count(UnitKind.DSP) == w_d
                assert window.count(UnitKind.CPU) == w_c


def drive_basic(policy, profile, n, weights=None):
    state = SchedulerState(profile, weights=weights)
    return [dispatch(state, mk_task(i), policy).unit.value for i in range(n)]


class TestThroughputFill:
    def test_fills_gpu_then_cpu_then_dsp_then_overflows_to_cpu(self):
        got = drive_basic(Policy(BasicPolicy.THROUGHPUT), three_unit_profile(4, 2, 2), 12)
        assert got == ["mGPU"] * 4 + ["CPU"] * 2 + ["DSP"] * 2 + ["CPU"] * 4

    def test_empty_queues_prefer_gpu(self):
        state = SchedulerState(three_unit_profile())
        assert dispatch(state, mk_task(1), Policy(BasicPolicy.THROUGHPUT)).unit is UnitKind.MGPU

    def test_single_unit_profile_overflows_to_it(self):
        doc = {
            "units": [{"kind": "GPU", "weight": 1}],
            "workloads": [{"name": "w"}],
            "costs": {"w@GPU": {"kernel_us": 10, "energy_uj": 1}},
        }
        got = drive_basic(Policy(BasicPolicy.THROUGHPUT), load_profile(json.dumps(doc)), 3)
        assert got == ["GPU"] * 3


class TestEnergyFill:
    def test_fills_dsp_then_gpu_then_cpu_then_overflows_to_dsp(self):
        got = drive_basic(Policy(BasicPolicy.ENERGY), three_unit_profile(4, 2, 2), 12)
        assert got == ["DSP"] * 2 + ["mGPU"] * 4 + ["CPU"] * 2 + ["DSP"] * 4

    def test_empty_queues_prefer_dsp(self):
        state = SchedulerState(three_unit_profile())
        assert dispatch(state, mk_task(1), Policy(BasicPolicy.ENERGY)).unit is UnitKind.DSP


class TestDispatch:
    def test_no_participating_unit_is_rejected_by_every_basic_policy(self):
        state = SchedulerState(three_unit_profile(), weights={"g": 0, "d": 0, "c": 0})
        for basic in BasicPolicy:
            with pytest.raises(InvalidScenario, match="no participating units"):
                dispatch(state, mk_task(1), Policy(basic))

    def test_advanced_routes_non_real_time_to_cloud_queue(self):
        state = SchedulerState(three_unit_profile())
        route = dispatch(state, mk_task(1, real_time=False),
                         Policy(BasicPolicy.THROUGHPUT, advanced=True))
        assert route.target is RouteClass.CLOUD
        assert list(state.cloud_queue) == [1]

    def test_advanced_routes_real_time_image_to_hp_queue(self):
        state = SchedulerState(three_unit_profile())
        route = dispatch(state, mk_task(1, image_input=True),
                         Policy(BasicPolicy.THROUGHPUT, advanced=True))
        assert route.target is RouteClass.HIGH_PRIORITY
        assert list(state.hp_queue) == [1]

    def test_basic_policy_ignores_tags(self):
        state = SchedulerState(three_unit_profile(), weights={"g": 1, "d": 1, "c": 1})
        route = dispatch(state, mk_task(1, real_time=False, image_input=True),
                         Policy(BasicPolicy.LATENCY))
        assert route.target is RouteClass.BASIC
        assert route.unit is UnitKind.MGPU
        assert list(state.queues[UnitKind.MGPU]) == [1]

    def test_routing_exhaustive_over_tags_and_policies(self):
        for basic in BasicPolicy:
            for real_time in (False, True):
                for image_input in (False, True):
                    state = SchedulerState(three_unit_profile())
                    t = mk_task(1, real_time=real_time, image_input=image_input)
                    dispatch(state, t, Policy(basic, advanced=True))
                    locations = ([list(state.cloud_queue), list(state.hp_queue)]
                                 + [list(q) for q in state.queues.values()])
                    assert sum(loc.count(1) for loc in locations) == 1
                    if not real_time:
                        assert list(state.cloud_queue) == [1]
                    elif image_input:
                        assert list(state.hp_queue) == [1]

    def test_cloud_isolation_under_advanced(self):
        rng = random.Random(5150)
        for _ in range(100):
            profile = random_profile(rng)
            state = SchedulerState(profile)
            basic = rng.choice(list(BasicPolicy))
            non_rt = set()
            for i in range(1, 30):
                t = Task(id=i, workload=rng.choice(("alpha", "beta")),
                         tags=TaskTags(real_time=rng.random() < 0.6,
                                       image_input=rng.random() < 0.5))
                if not t.tags.real_time:
                    non_rt.add(i)
                dispatch(state, t, Policy(basic, advanced=True))
            local = set(state.hp_queue)
            for q in state.queues.values():
                local |= set(q)
            assert not (local & non_rt)
            assert non_rt == set(state.cloud_queue)


def dispatch_all(state, policy, *tasks) -> dict:
    """Dispatch tasks in order; returns the run's task table by id."""
    for t in tasks:
        dispatch(state, t, policy)
    return {t.id: t for t in tasks}


class TestOnUnitFree:
    def test_hp_head_takes_precedence(self):
        profile = three_unit_profile()
        state = SchedulerState(profile)
        tasks = dispatch_all(state, Policy(BasicPolicy.THROUGHPUT, advanced=True),
                             mk_task(1, image_input=True), mk_task(2))
        assert on_unit_free(state, UnitKind.MGPU, tasks) == 1
        assert on_unit_free(state, UnitKind.MGPU, tasks) == 2

    def test_unresolvable_hp_head_skipped_for_own_queue(self):
        doc = {
            "units": [{"kind": "CPU", "weight": 1}, {"kind": "DSP", "weight": 1}],
            "workloads": [{"name": "cv"}, {"name": "plain"}],
            "costs": {
                "cv@DSP": {"kernel_us": 10, "energy_uj": 1},
                "plain@CPU": {"kernel_us": 10, "energy_uj": 1},
                "plain@DSP": {"kernel_us": 10, "energy_uj": 1},
            },
        }
        state = SchedulerState(load_profile(json.dumps(doc)))
        # energy is dsp-first, so task 2 goes to the DSP queue
        tasks = dispatch_all(state, Policy(BasicPolicy.ENERGY, advanced=True),
                             mk_task(1, image_input=True, workload="cv"),
                             mk_task(2, workload="plain"))
        # cv has no CPU entry: CPU must skip the head and take its own queue
        assert on_unit_free(state, UnitKind.CPU, tasks) is None
        assert on_unit_free(state, UnitKind.DSP, tasks) == 1
        assert on_unit_free(state, UnitKind.DSP, tasks) == 2

    def test_fifo_order_on_own_queue(self):
        state = SchedulerState(three_unit_profile())
        tasks = dispatch_all(state, Policy(BasicPolicy.THROUGHPUT), mk_task(1), mk_task(2))
        assert on_unit_free(state, UnitKind.MGPU, tasks) == 1
        assert on_unit_free(state, UnitKind.MGPU, tasks) == 2

    def test_all_queues_empty_returns_none(self):
        state = SchedulerState(three_unit_profile())
        assert on_unit_free(state, UnitKind.CPU, {}) is None


class TestFpgaSlot:
    def fpga_profile(self):
        doc = {
            "units": [{"kind": "CPU", "weight": 1}, {"kind": "FPGA", "weight": 2}],
            "workloads": [{"name": "w"}],
            "costs": {
                "w@CPU": {"kernel_us": 10, "energy_uj": 1},
                "w@FPGA": {"kernel_us": 5, "energy_uj": 1},
            },
        }
        return load_profile(json.dumps(doc))

    def test_fpga_ignored_by_default(self):
        state = SchedulerState(self.fpga_profile())
        assert state.units == [UnitKind.CPU]
        assert [dispatch_latency(state).value for _ in range(3)] == ["CPU"] * 3

    def test_fpga_fills_gpu_slot_with_flag(self):
        state = SchedulerState(self.fpga_profile(), fpga_as_gpu=True)
        assert set(state.units) == {UnitKind.CPU, UnitKind.FPGA}
        got = [dispatch_latency(state).value for _ in range(3)]
        assert got == ["FPGA", "FPGA", "CPU"]


class TestStateArguments:
    """SchedulerState checks its arguments with SimConfig's rules."""

    @pytest.mark.parametrize("kwargs, message", [
        ({"weights": {"x": 1}}, "weights: bad item 'x': 1; keys are g, d, c "
                                "and weights are integers >= 0"),
        ({"weights": [("g", 1)]}, "weights must be a dict, got [('g', 1)]"),
        ({"fpga_as_gpu": "yes"}, "fpga_as_gpu must be True or False, got 'yes'"),
        # as simulate names its profile argument
        ({"profile": None}, "profile must be a PlatformProfile, got None"),
        ({"profile": "sd820"}, "profile must be a PlatformProfile, got 'sd820'"),
    ])
    def test_rejects_what_simconfig_rejects(self, kwargs, message):
        with pytest.raises(InvalidConfig) as exc:
            SchedulerState(**{"profile": builtin_profiles()["sd820"], **kwargs})
        assert str(exc.value) == message


class TestPolicyParsing:
    def test_parse_forms(self):
        for basic in BasicPolicy:
            assert Policy.parse(basic.value) == Policy(basic)
            assert Policy.parse(f"advanced:{basic.value}") == Policy(basic, advanced=True)
        assert Policy.parse(" Advanced:ENERGY ") == Policy(BasicPolicy.ENERGY, advanced=True)
        assert str(Policy.parse("advanced:throughput")) == "advanced:throughput"

    @pytest.mark.parametrize("policy", ALL_POLICIES, ids=str)
    def test_text_and_fields_rebuild_the_policy(self, policy):
        assert Policy.parse(str(policy)) == policy
        assert Policy(policy.basic, advanced=policy.advanced) == policy

    def test_parse_is_the_only_classmethod(self):
        # the constructor and parse are the two ways to make a Policy
        assert [name for name, attr in vars(Policy).items()
                if isinstance(attr, classmethod)] == ["parse"]

    def test_parse_rejects_unknown(self):
        from simrt import ParseError
        for text in ("fastest", "advanced:bogus", "advanced:", "advanced:advanced:energy"):
            with pytest.raises(ParseError, match="unknown policy"):
                Policy.parse(text)


class TestPolicyFields:
    """Policy rejects fields of the wrong type instead of simulating another policy."""

    @pytest.mark.parametrize("basic", ["throughput", None, 1, RouteClass.BASIC])
    def test_basic_must_be_a_basic_policy(self, basic):
        with pytest.raises(InvalidConfig) as exc:
            Policy(basic)
        assert str(exc.value) == f"basic must be a BasicPolicy, got {basic!r}"

    @pytest.mark.parametrize("advanced", [1, 0, "yes", None])
    def test_advanced_must_be_a_bool(self, advanced):
        with pytest.raises(InvalidConfig) as exc:
            Policy(BasicPolicy.THROUGHPUT, advanced=advanced)
        assert str(exc.value) == f"advanced must be True or False, got {advanced!r}"
