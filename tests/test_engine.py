import heapq
import io
import json
import pathlib
import random
import sys
import threading
import tracemalloc

import pytest

import simrt.engine
import simrt.tasks
from simrt import (BasicPolicy, CycleDetected, DuplicateId, InvalidConfig,
                   PlatformProfile, Policy, SetupMode, SimConfig, Task,
                   TaskGraph, TaskTags, Trace, TraceRecord, UnitKind,
                   UnknownDependency, UnresolvableCost, audit, builtin_profiles,
                   compute_metrics, convolution_batch, dump_scenario, energy_of,
                   load_profile, load_scenario, restrict, robot_pipeline,
                   simulate, validate_graph)

from .helpers import ALL_POLICIES, random_profile, random_scenario
from .test_golden import _cases as golden_cases


def single_unit_profile(kind="CPU", kernel=100, setup=0, xin=0, xout=0,
                        energy=10, cloud=None, extra_workloads=()):
    doc = {
        "units": [{"kind": kind, "weight": 2}],
        "workloads": [{"name": "w"}] + [{"name": n} for n in extra_workloads],
        "costs": {
            f"{n}@{kind}": {"setup_us": setup, "xfer_in_us": xin,
                            "kernel_us": kernel, "xfer_out_us": xout,
                            "energy_uj": energy}
            for n in ("w", *extra_workloads)
        },
    }
    if cloud:
        doc["cloud"] = cloud
    return load_profile(json.dumps(doc))


def rt(tid, workload="w", deps=(), release=0, image=False, real_time=True):
    return Task(id=tid, workload=workload, deps=frozenset(deps),
                release_us=release,
                tags=TaskTags(real_time=real_time, image_input=image))


class TestSingleTaskRuns:
    def test_alexnet_on_gpu(self):
        p = restrict(builtin_profiles()["tx1-cloud"], {UnitKind.GPU})
        m, _ = simulate(TaskGraph([rt(1, "alexnet")]), p, Policy.latency())
        assert m.makespan_us == 33_000
        assert m.total_energy_uj == 132_000

    def test_alexnet_on_cpu(self):
        p = restrict(builtin_profiles()["tx1-cloud"], {UnitKind.CPU})
        m, _ = simulate(TaskGraph([rt(1, "alexnet")]), p, Policy.latency())
        assert m.makespan_us == 400_000
        assert m.total_energy_uj == 800_000

    def test_alexnet_on_cloud(self):
        p = builtin_profiles()["tx1-cloud"]
        g = TaskGraph([rt(1, "alexnet", real_time=False)])
        m, trace = simulate(g, p, Policy.advanced_over(BasicPolicy.THROUGHPUT),
                            SimConfig(seed=3))
        assert m.total_energy_uj == 10_000
        assert 2_000_000 <= m.makespan_us <= 5_000_000
        phases = [r.phase for r in trace]
        assert phases == ["dispatch", "cloud_submit", "cloud_complete"]

    def test_empty_scenario(self):
        m, trace = simulate(TaskGraph([]), single_unit_profile(), Policy.latency())
        assert m.makespan_us == 0
        assert m.throughput_tasks_per_ms == 0.0
        assert m.total_energy_uj == 0
        assert trace.to_csv() == "time_us,task_id,workload,unit,phase\n"


class TestBufferSemantics:
    def probe_profile(self):
        # producers complete quickly; consumers have a long input transfer so
        # the buffer-hold window (producer complete -> consumer kernel start)
        # is wide and easy to probe
        doc = {
            "units": [{"kind": "DSP", "weight": 1}, {"kind": "CPU", "weight": 1}],
            "workloads": [{"name": "prod"}, {"name": "cons"}],
            "costs": {
                "prod@DSP": {"kernel_us": 100, "energy_uj": 1},
                "prod@CPU": {"kernel_us": 100, "energy_uj": 1},
                "cons@DSP": {"xfer_in_us": 500, "kernel_us": 100, "energy_uj": 1},
                "cons@CPU": {"xfer_in_us": 500, "kernel_us": 100, "energy_uj": 1},
            },
        }
        return load_profile(json.dumps(doc))

    def test_second_image_drops_while_first_buffer_held(self):
        # both producers complete at t=100 on separate units; capacity 1 means
        # the second acquisition happens while the first consumer is still
        # mid-transfer and must drop
        g = TaskGraph([
            rt(1, "prod"),
            rt(2, "cons", deps=[1], image=True),
            rt(3, "prod"),
            rt(4, "cons", deps=[3], image=True),
        ])
        m, trace = simulate(g, self.probe_profile(), Policy.latency(),
                            SimConfig(buffer_capacity=1))
        assert m.drops == 1
        drop = [r for r in trace if r.phase == "drop"]
        assert [r.task_id for r in drop] == [3]
        assert m.skipped == 1  # task 4 never ran
        assert m.completed == 3

    def test_buffer_released_at_kernel_start_frees_capacity(self):
        # same shape, but the second producer completes after the first
        # consumer's kernel started: no drop
        g = TaskGraph([
            rt(1, "prod"),
            rt(2, "cons", deps=[1], image=True),
            rt(3, "prod", release=800),
            rt(4, "cons", deps=[3], image=True),
        ])
        m, trace = simulate(g, self.probe_profile(), Policy.latency(),
                            SimConfig(buffer_capacity=1))
        assert m.drops == 0
        assert m.completed == 4
        # hold window visible in the trace: producer completes at 100,
        # consumer kernel starts at 600 after its transfer
        t = {(r.task_id, r.phase): r.time_us for r in trace}
        assert t[(1, "complete")] == 100
        assert t[(2, "kernel")] == 600

    def test_drop_skips_transitive_dependents(self):
        doc = {
            "units": [{"kind": "CPU", "weight": 1}],
            "workloads": [{"name": "prod"}, {"name": "cons"}, {"name": "post"}],
            "costs": {n + "@CPU": {"kernel_us": 50, "energy_uj": 1}
                      for n in ("prod", "cons", "post")},
        }
        p = load_profile(json.dumps(doc))
        g = TaskGraph([
            rt(1, "prod"),
            rt(2, "cons", deps=[1], image=True),
            rt(3, "post", deps=[2]),
        ])
        m, trace = simulate(g, p, Policy.latency(), SimConfig(buffer_capacity=0))
        assert m.drops == 1
        assert m.completed == 1  # only the producer ran
        assert m.skipped == 2
        assert not [r for r in trace if r.task_id in (2, 3) and r.phase == "setup"]


class TestDeterminismAndOrdering:
    def test_identical_runs_emit_identical_traces(self):
        rng = random.Random(1)
        for _ in range(10):
            profile = random_profile(rng)
            scenario = random_scenario(rng)
            policy = rng.choice(ALL_POLICIES)
            config = SimConfig(seed=rng.randint(0, 10_000))
            a = simulate(scenario, profile, policy, config)
            b = simulate(scenario, profile, policy, config)
            assert a.trace.to_csv() == b.trace.to_csv()
            assert a.metrics == b.metrics

    def test_freed_unit_takes_task_released_at_same_instant(self):
        g = TaskGraph([rt(1), rt(2, release=100)])
        m, trace = simulate(g, single_unit_profile(kernel=100), Policy.latency())
        t = {(r.task_id, r.phase): r.time_us for r in trace}
        assert t[(1, "complete")] == 100
        assert t[(2, "setup")] == 100
        assert m.makespan_us == 200

    def test_cloud_slots_serialize_submissions(self):
        p = single_unit_profile(cloud={"latency_us": [1000, 1000], "energy_uj": 2})
        g = TaskGraph([rt(i, real_time=False) for i in (1, 2, 3)])
        m, trace = simulate(g, p, Policy.advanced_over(BasicPolicy.LATENCY),
                            SimConfig(cloud_slots=1))
        submits = [r.time_us for r in trace if r.phase == "cloud_submit"]
        assert submits == [0, 1000, 2000]
        assert m.makespan_us == 3000

    def test_unlimited_cloud_slots_run_in_parallel(self):
        p = single_unit_profile(cloud={"latency_us": [1000, 1000], "energy_uj": 2})
        g = TaskGraph([rt(i, real_time=False) for i in (1, 2, 3)])
        m, trace = simulate(g, p, Policy.advanced_over(BasicPolicy.LATENCY))
        assert [r.time_us for r in trace if r.phase == "cloud_submit"] == [0, 0, 0]
        assert m.makespan_us == 1000

    def test_cloud_excluded_from_makespan_when_configured(self):
        p = single_unit_profile(kernel=500,
                                cloud={"latency_us": [9000, 9000], "energy_uj": 2})
        g = TaskGraph([rt(1), rt(2, real_time=False)])
        cfg = SimConfig(cloud_in_makespan=False)
        m, _ = simulate(g, p, Policy.advanced_over(BasicPolicy.LATENCY), cfg)
        assert m.makespan_us == 500
        m2, _ = simulate(g, p, Policy.advanced_over(BasicPolicy.LATENCY))
        assert m2.makespan_us == 9000


class TestOccupancy:
    def test_unit_occupancy_equals_offload_breakdown_total(self):
        from simrt import SetupMode, offload_time
        doc = {
            "units": [{"kind": "DSP", "weight": 1}],
            "workloads": [{"name": "w"}],
            "costs": {"w@DSP": {"setup_us": 700, "xfer_in_us": 55,
                                "kernel_us": 900, "xfer_out_us": 45,
                                "energy_uj": 3}},
        }
        p = load_profile(json.dumps(doc))
        g = TaskGraph([rt(1), rt(2)])
        for mode in SetupMode:
            _, trace = simulate(g, p, Policy.latency(), SimConfig(setup_mode=mode))
            t = {(r.task_id, r.phase): r.time_us for r in trace}
            for tid in (1, 2):
                occupancy = t[(tid, "complete")] - t[(tid, "setup")]
                expected = offload_time(p, "w", UnitKind.DSP, mode).total_us
                assert occupancy == expected


class TestComputeMetrics:
    def test_throughput_definition(self):
        records = []
        for i in range(1, 11):
            records.append(TraceRecord(0, i, "w", "CPU", "dispatch"))
            records.append(TraceRecord(20_000, i, "w", "CPU", "complete"))
        m = compute_metrics(Trace(records), single_unit_profile(), SimConfig(),
                            TaskGraph([rt(i) for i in range(1, 11)]))
        assert m.throughput_tasks_per_ms == pytest.approx(0.5)
        assert m.makespan_us == 20_000
        assert m.skipped == 0

    def test_latency_per_unit(self):
        records = [TraceRecord(0, 1, "w", "CPU", "dispatch"),
                   TraceRecord(8210, 1, "w", "CPU", "complete")]
        m = compute_metrics(Trace(records), single_unit_profile(), SimConfig(),
                            TaskGraph([rt(1)]))
        assert m.avg_latency_ms["CPU"] == pytest.approx(8.21)

    def test_drop_count_passthrough(self):
        records = [TraceRecord(5, 1, "w", "CPU", "drop"),
                   TraceRecord(9, 2, "w", "CPU", "drop")]
        m = compute_metrics(Trace(records), single_unit_profile(), SimConfig(),
                            TaskGraph([rt(1), rt(2), rt(3, deps=[2])]))
        assert m.drops == 2
        assert m.skipped == 3  # the two dropped tasks and the one behind a drop

    def test_idle_power_term(self):
        doc = {
            "units": [{"kind": "CPU", "weight": 1, "idle_watts": 2.0}],
            "workloads": [{"name": "w"}],
            "costs": {"w@CPU": {"kernel_us": 1000, "energy_uj": 10}},
        }
        p = load_profile(json.dumps(doc))
        m, _ = simulate(TaskGraph([rt(1)]), p, Policy.latency())
        # 10 uJ active + 2 W for 1000 us = 2000 uJ idle
        assert m.total_energy_uj == 2010


class TestEnergyAdditivity:
    def test_total_energy_matches_per_completion_sum(self):
        rng = random.Random(77)
        for _ in range(20):
            profile = random_profile(rng)
            scenario = random_scenario(rng, max_tasks=15)
            policy = rng.choice(ALL_POLICIES)
            m, trace = simulate(scenario, profile, policy, SimConfig(seed=1))
            total = 0
            for r in trace:
                if r.phase == "complete":
                    total += energy_of(profile, r.workload, UnitKind.parse(r.unit))
                elif r.phase == "cloud_complete":
                    total += profile.cloud_energy_uj
            assert m.total_energy_uj == total


class TestValidationErrors:
    def test_unresolvable_basic_route(self):
        doc = {
            "units": [{"kind": "CPU", "weight": 1}, {"kind": "DSP", "weight": 1}],
            "workloads": [{"name": "w"}],
            "costs": {"w@CPU": {"kernel_us": 10, "energy_uj": 1}},
        }
        p = load_profile(json.dumps(doc))
        with pytest.raises(UnresolvableCost):
            simulate(TaskGraph([rt(1)]), p, Policy.latency())

    def test_cloud_route_requires_cloud_config(self):
        p = single_unit_profile()
        g = TaskGraph([rt(1, real_time=False)])
        with pytest.raises(UnresolvableCost):
            simulate(g, p, Policy.advanced_over(BasicPolicy.LATENCY))

    def test_plain_policy_accepts_non_real_time_locally(self):
        p = single_unit_profile()
        g = TaskGraph([rt(1, real_time=False)])
        m, _ = simulate(g, p, Policy.latency())
        assert m.completed == 1

    def test_no_local_units_for_basic_route(self):
        from simrt import InvalidScenario
        doc = {
            "units": [],
            "workloads": [{"name": "w"}],
            "costs": {},
            "cloud": {"latency_us": [10, 20], "energy_uj": 1},
        }
        p = load_profile(json.dumps(doc))
        with pytest.raises(InvalidScenario):
            simulate(TaskGraph([rt(1)]), p,
                     Policy.advanced_over(BasicPolicy.LATENCY))
        # while a pure cloud scenario on the same profile works
        m, _ = simulate(TaskGraph([rt(1, real_time=False)]), p,
                        Policy.advanced_over(BasicPolicy.LATENCY))
        assert m.completed == 1


class TestAudits:
    def test_audits_pass_on_random_runs(self):
        rng = random.Random(13)
        for _ in range(25):
            profile = random_profile(rng)
            scenario = random_scenario(rng)
            policy = rng.choice(ALL_POLICIES)
            _, trace = simulate(scenario, profile, policy, SimConfig(seed=2))
            audit.audit_all(trace, scenario, profile)

    def test_audit_catches_exclusivity_violation(self):
        p = single_unit_profile(kernel=100)
        g = TaskGraph([rt(1), rt(2)])
        _, trace = simulate(g, p, Policy.latency())
        # shift the second task's start before the first completes
        bad = [TraceRecord(r.time_us - 60, r.task_id, r.workload, r.unit, r.phase)
               if r.task_id == 2 and r.phase in ("setup", "xfer_in", "kernel")
               else r for r in trace]
        with pytest.raises(audit.AuditError):
            audit.audit_unit_exclusivity(Trace(bad))

    def test_audit_catches_causality_violation(self):
        p = single_unit_profile(kernel=100)
        g = TaskGraph([rt(1), rt(2, deps=[1])])
        _, trace = simulate(g, p, Policy.latency())
        bad = [TraceRecord(0, r.task_id, r.workload, r.unit, r.phase)
               if r.task_id == 2 and r.phase == "setup" else r
               for r in trace]
        with pytest.raises(audit.AuditError):
            audit.audit_causality(Trace(bad), g)

    def test_audit_catches_phase_order_faults(self):
        p = single_unit_profile(kernel=100, setup=10, xin=5, xout=5)
        _, trace = simulate(TaskGraph([rt(1)]), p, Policy.latency())
        rows = list(trace)  # dispatch, setup, xfer_in, kernel, xfer_out, complete
        audit.audit_phase_order(Trace(rows))
        late_setup = rows[1]._replace(time_us=rows[2].time_us + 1)
        for bad in (rows[1:],  # first record is not dispatch
                    rows[:3] + rows[4:],  # kernel missing
                    rows[:3] + rows[2:],  # xfer_in repeated
                    rows[:-1],  # never completes
                    rows[:1] + [late_setup] + rows[2:]):  # time decreases
            with pytest.raises(audit.AuditError):
                audit.audit_phase_order(Trace(bad))

    def test_audit_catches_idle_unit_with_queued_work(self):
        p = single_unit_profile(kernel=100)
        g = TaskGraph([rt(1), rt(2)])
        _, trace = simulate(g, p, Policy.latency())
        # drop task 2's setup so it looks forever queued while CPU idles
        bad = [r for r in trace if not (r.task_id == 2 and r.phase == "setup")]
        with pytest.raises(audit.AuditError):
            audit.audit_work_conservation(Trace(bad), p)

    def test_audit_rejects_a_start_before_time_zero(self):
        # the CPU's first setup has no previous occupant to compare with, so
        # exclusivity passes it; causality rejects the start before release
        rows = [(-100, 1, "w", "CPU", "dispatch"), (-100, 1, "w", "CPU", "setup"),
                (-100, 1, "w", "CPU", "xfer_in"), (0, 1, "w", "CPU", "kernel"),
                (0, 1, "w", "CPU", "xfer_out"), (0, 1, "w", "CPU", "complete")]
        with pytest.raises(audit.AuditError, match=r"^task 1 starts at -100 before release 0$"):
            audit.audit_all(Trace(rows), TaskGraph([rt(1)]), single_unit_profile())

    def test_audit_rejects_a_task_the_scenario_lacks(self):
        p = single_unit_profile()
        _, trace = simulate(TaskGraph([rt(2)]), p, Policy.latency())
        with pytest.raises(audit.AuditError, match=r"^task 2 is not in the scenario$"):
            audit.audit_all(trace, TaskGraph([rt(1)]), p)

    def test_a_run_without_a_trace_cannot_be_audited(self):
        p, scenario = single_unit_profile(), TaskGraph([rt(1)])
        config = SimConfig(record_trace=False)
        _, trace = simulate(scenario, p, Policy.latency(), config)
        assert trace is None
        message = r"^no trace to read: the run was made with record_trace=False$"
        with pytest.raises(audit.AuditError, match=message):
            audit.audit_all(trace, scenario, p)
        with pytest.raises(audit.AuditError, match=message):
            compute_metrics(trace, p, config, scenario)


def partial_hp_profile(rng: random.Random):
    """CPU, mGPU and DSP; "alpha" runs everywhere, while "beta" and "gamma"
    lack a random subset of units (never all of them)."""
    kinds = ["CPU", "mGPU", "DSP"]
    costs = {}
    for workload in ("alpha", "beta", "gamma"):
        units = kinds if workload == "alpha" else rng.sample(kinds, rng.randint(1, 2))
        for kind in units:
            costs[f"{workload}@{kind}"] = {"setup_us": rng.randint(0, 300),
                                           "kernel_us": rng.randint(1, 800),
                                           "energy_uj": 1}
    doc = {"units": [{"kind": k, "weight": rng.randint(1, 3)} for k in kinds],
           "workloads": [{"name": w} for w in ("alpha", "beta", "gamma")],
           "costs": costs}
    return load_profile(json.dumps(doc))


class TestHighPriorityRekick:
    def test_next_hp_head_goes_to_idle_unit(self):
        p = builtin_profiles()["sd820-robot"]
        g = TaskGraph([rt(1, "undistort", image=True), rt(2, "undistort", image=True),
                       rt(3, "conv1", image=True)])
        _, trace = simulate(g, p, Policy.advanced_over(BasicPolicy.THROUGHPUT))
        audit.audit_all(trace, g, p)
        # the DSP takes task 2 at 1320; task 3, the new head, runs on the idle CPU
        starts = {r.task_id: (r.time_us, r.unit) for r in trace if r.phase == "setup"}
        assert starts[3] == (1320, "CPU")

    def test_audits_pass_with_partially_runnable_hp_heads(self):
        rng = random.Random(77)
        for _ in range(40):
            profile = partial_hp_profile(rng)
            tasks = [rt(i, rng.choice(("beta", "gamma")), image=True,
                        release=rng.randint(0, 3000))
                     if rng.random() < 0.7 else rt(i, "alpha", release=rng.randint(0, 3000))
                     for i in range(1, rng.randint(2, 30))]
            scenario = TaskGraph(tasks)
            policy = Policy.advanced_over(rng.choice(list(BasicPolicy)))
            _, trace = simulate(scenario, profile, policy)
            audit.audit_all(trace, scenario, profile)


class TestSimConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"buffer_capacity": -1}, {"buffer_capacity": 1.5}, {"buffer_capacity": True},
        {"cloud_slots": 0}, {"cloud_slots": -2}, {"cloud_slots": "2"},
        {"weights": {"x": 1}}, {"weights": {"g": -1}}, {"weights": {"d": 1.0}},
        {"weights": [("g", 1)]}, {"record_trace": "yes"}, {"record_trace": 1},
        {"cloud_in_makespan": "no"}, {"cloud_in_makespan": 0}, {"fpga_as_gpu": "yes"},
        {"fpga_as_gpu": 1}, {"setup_mode": "per_offload"}, {"setup_mode": "bogus"},
        {"setup_mode": None}, {"seed": None}, {"seed": 1.5}, {"seed": "x"}, {"seed": True},
    ])
    def test_rejects_out_of_range_fields(self, kwargs):
        with pytest.raises(InvalidConfig):
            SimConfig(**kwargs)

    def test_accepts_boundary_values(self):
        SimConfig(buffer_capacity=0, cloud_slots=1, weights={"g": 0, "d": 2, "c": 1})

    def test_first_bad_field_is_reported(self):
        with pytest.raises(InvalidConfig) as exc:
            SimConfig(weights={"x": 1}, cloud_slots=0, fpga_as_gpu="yes")
        assert str(exc.value) == "fpga_as_gpu must be True or False, got 'yes'"
        with pytest.raises(InvalidConfig) as exc:
            SimConfig(weights={"g": 1, "d": -1}, cloud_slots=1)
        assert str(exc.value) == ("weights: bad item 'd': -1; keys are g, d, c "
                                  "and weights are integers >= 0")

    def test_weights_changed_after_the_config_is_made(self):
        weights = {"g": 1}
        config = SimConfig(weights=weights)
        weights["g"] = "x"
        with pytest.raises(InvalidConfig, match="bad item 'g': 'x'"):
            simulate(convolution_batch(3), builtin_profiles()["sd820"],
                     Policy.throughput(), config)

    @pytest.mark.parametrize("kwargs, message", [
        ({"weights": {"g": -1}}, "weights: bad item 'g': -1"),
        ({"fpga_as_gpu": "yes"}, "fpga_as_gpu must be True or False, got 'yes'"),
    ])
    def test_audit_rejects_a_bad_argument_not_the_trace(self, kwargs, message):
        scenario, profile = convolution_batch(1), builtin_profiles()["sd820"]
        _, trace = simulate(scenario, profile, Policy.throughput())
        with pytest.raises(InvalidConfig, match=message):
            audit.audit_all(trace, scenario, profile, **kwargs)


class TestRecordTrace:
    """With record_trace=False the engine keeps no records: the run's
    memory does not grow with its trace, and its metrics are the same."""

    def test_trace_off_halves_the_peak_and_keeps_the_metrics(self):
        scenario = robot_pipeline(10, 25, 200, 3)
        profile = builtin_profiles()["sd820-robot"]
        policy = Policy.parse("advanced:throughput")
        validate_graph(scenario)  # the first check keeps an index; measure only the runs

        def run(record_trace):
            tracemalloc.start()
            try:
                result = simulate(scenario, profile, policy,
                                  SimConfig(buffer_capacity=4, record_trace=record_trace))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return result, peak

        (metrics_on, trace), peak_on = run(True)
        (metrics_off, no_trace), peak_off = run(False)
        assert len(trace) > 0 and no_trace is None
        assert metrics_off == metrics_on
        assert list(metrics_off.avg_latency_ms) == list(metrics_on.avg_latency_ms)
        assert peak_off < peak_on / 2, (peak_off, peak_on)


class TestCostTableCallCounts:
    """The engine resolves each (workload, unit) cost once per run; the cost
    model's entry points are not called per task or per event."""

    def counted_run(self, monkeypatch, scenario) -> dict:
        counts = {"offload_time": 0, "energy_of": 0, "resolvable": 0}

        def counting(name, original):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(simrt.engine, "offload_time",
                            counting("offload_time", simrt.engine.offload_time))
        monkeypatch.setattr(simrt.engine, "energy_of",
                            counting("energy_of", simrt.engine.energy_of))
        monkeypatch.setattr(PlatformProfile, "resolvable",
                            counting("resolvable", PlatformProfile.resolvable))
        simulate(scenario, builtin_profiles()["sd820-robot"],
                 Policy.advanced_over(BasicPolicy.THROUGHPUT),
                 SimConfig(buffer_capacity=4))
        monkeypatch.undo()
        return counts

    def test_calls_bounded_by_distinct_pairs_and_flat_in_task_count(self, monkeypatch):
        profile = builtin_profiles()["sd820-robot"]
        small, large = robot_pipeline(1, 25, 200, 3), robot_pipeline(2, 25, 200, 3)
        assert len(large) > 1.9 * len(small)
        labels = [u.kind.value for u in profile.units] + ["CLOUD"]
        pairs = len({t.workload for t in small}) * len(labels)
        small_counts = self.counted_run(monkeypatch, small)
        large_counts = self.counted_run(monkeypatch, large)
        for name, count in small_counts.items():
            # a loaded profile is a complete cost table, so nothing needs to ask
            # whether a declared pair resolves
            assert (count > 0 or name == "resolvable") and count <= 2 * pairs, name
            assert large_counts[name] <= count, name


def test_benchmark_tracer_finds_every_hook(monkeypatch):
    """`perfbench/run.py --trace 1` wraps simrt names it looks up with
    `vars(owner)[attr]`; deleting or moving one must fail here, not there."""
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).parents[1] / "perfbench"))
    from spans import Tracer

    tracer = Tracer()
    try:
        tracer.install()
    finally:
        assert tracer.restore()


class TestHeapTraffic:
    """Releases and events due at the current instant stay off the event
    heap; only phases that take time are pushed."""

    def test_at_most_two_heap_pushes_per_task(self, monkeypatch):
        pushes = 0
        original = heapq.heappush

        def counting(heap, item):
            nonlocal pushes
            pushes += 1
            original(heap, item)

        scenario = convolution_batch(2000)
        monkeypatch.setattr(heapq, "heappush", counting)
        metrics, _ = simulate(scenario, builtin_profiles()["sd820"], Policy.throughput())
        monkeypatch.undo()
        assert metrics.completed == len(scenario)
        assert 0 < pushes <= 2 * len(scenario)


class TestDependencyIndex:
    """A graph is checked once: its first validate_graph keeps the dependency
    index that every later run on the graph reads and never changes."""

    def test_one_full_check_per_graph(self, monkeypatch):
        text = dump_scenario(convolution_batch(200))
        passes = 0
        original = simrt.tasks._dependency_index

        def counting(graph):
            nonlocal passes
            passes += 1
            return original(graph)

        monkeypatch.setattr(simrt.tasks, "_dependency_index", counting)
        graph = load_scenario(text)
        profile = builtin_profiles()["sd820"]
        for policy in ("throughput", "latency", "energy"):
            metrics, _ = simulate(graph, profile, Policy.parse(policy))
            assert metrics.completed == len(graph)
        assert passes == 1

    def test_runs_share_the_index_without_changing_it(self):
        scenario, profile, policy, drops = golden_cases()["dag-adv-energy-drops-cloud2"]
        plain = SimConfig(setup_mode=SetupMode.PER_OFFLOAD, seed=5)

        def run(config):
            metrics, trace = simulate(scenario, profile, policy, config)
            return trace.to_csv(), metrics

        before = run(plain)
        dropped = run(drops)
        assert dropped[1].drops > 0 and dropped[1].skipped > 0
        assert run(plain) == before
        assert run(drops) == dropped
        assert validate_graph(scenario) == validate_graph(TaskGraph(scenario.tasks))

    @pytest.mark.parametrize("tasks, error", [
        ([rt(1, deps=[2]), rt(2, deps=[1])], CycleDetected),
        ([rt(1), rt(2), rt(1)], DuplicateId),
        ([rt(1), rt(2, deps=[1, 9])], UnknownDependency),
    ])
    def test_hand_built_invalid_graph_is_rejected(self, tasks, error):
        graph = TaskGraph(tasks)
        for _ in range(2):  # a failed check keeps nothing, so it fails again
            with pytest.raises(error):
                simulate(graph, single_unit_profile(), Policy.throughput())
        assert graph._index is None

    def test_threads_checking_and_running_one_graph_agree(self):
        scenario, profile, policy, config = golden_cases()["dag-adv-energy-drops-cloud2"]
        metrics, trace = simulate(TaskGraph(scenario.tasks), profile, policy, config)
        expected = (trace.to_csv(), metrics)
        results = []

        def work():
            for _ in range(2):
                metrics, trace = simulate(scenario, profile, policy, config)
                results.append((trace.to_csv(), metrics))

        threads = [threading.Thread(target=work) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == 8 and all(result == expected for result in results)


def one_string_csv(trace: Trace) -> str:
    """The trace CSV built as one list of lines joined at once."""
    lines = [simrt.engine.CSV_HEADER]
    lines += [f"{t},{tid},{workload},{unit},{phase}"
              for t, tid, workload, unit, phase in trace.records]
    return "\n".join(lines) + "\n"


class TestChunkedCsv:
    """The CSV is built a bounded number of records at a time."""

    @pytest.mark.parametrize("n", [0, 1, 4095, 4096, 4097, 8193])
    def test_chunks_join_to_the_one_string_csv(self, n):
        rng = random.Random(n)
        trace = Trace([(rng.randrange(10 ** 9), i, rng.choice(("alpha", "fc6")),
                        rng.choice(("CPU", "HP", "CLOUD")), rng.choice(("kernel", "drop")))
                       for i in range(n)])
        csv = trace.to_csv()
        assert csv == one_string_csv(trace)
        buffer = io.StringIO()
        trace.write_csv(buffer)
        assert buffer.getvalue() == csv

    def test_to_csv_peak_memory_is_bounded(self):
        """Line strings take ~2.5x their CSV text; one chunk of them at a
        time leaves the chunks and their join as the peak, ~2x the CSV."""
        _, trace = simulate(robot_pipeline(2, 25, 200, 3), builtin_profiles()["sd820-robot"],
                            Policy.parse("advanced:throughput"), SimConfig(buffer_capacity=4))
        tracemalloc.start()
        try:
            csv = trace.to_csv()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert csv == one_string_csv(trace)
        assert peak <= 2.5 * len(csv), (peak, len(csv))
