import gc
import heapq
import io
import json
import pathlib
import random
import re
import sys
import threading
import tracemalloc

import pytest

import simrt.engine
import simrt.scheduler
import simrt.tasks
from simrt import (AuditError, BasicPolicy, CycleDetected, DuplicateId, EngineError,
                   InvalidConfig, Metrics, PlatformProfile, Policy, SchedulerState, SetupMode,
                   SimConfig, SimrtError, Task, TaskGraph, TaskTags, Trace, TraceRecord,
                   UnitKind, UnknownDependency, UnresolvableCost, audit, builtin_profiles,
                   compute_metrics, convolution_batch, dump_scenario, energy_of,
                   load_profile, load_scenario, restrict, robot_pipeline,
                   simulate, validate_graph)

from .helpers import ALL_POLICIES, random_profile, random_scenario
from .randcases import hp_case
from .golden import _cases as golden_cases, robot_dag


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
        m, _ = simulate(TaskGraph([rt(1, "alexnet")]), p, Policy(BasicPolicy.LATENCY))
        assert m.makespan_us == 33_000
        assert m.total_energy_uj == 132_000

    def test_alexnet_on_cpu(self):
        p = restrict(builtin_profiles()["tx1-cloud"], {UnitKind.CPU})
        m, _ = simulate(TaskGraph([rt(1, "alexnet")]), p, Policy(BasicPolicy.LATENCY))
        assert m.makespan_us == 400_000
        assert m.total_energy_uj == 800_000

    def test_alexnet_on_cloud(self):
        p = builtin_profiles()["tx1-cloud"]
        g = TaskGraph([rt(1, "alexnet", real_time=False)])
        m, trace = simulate(g, p, Policy(BasicPolicy.THROUGHPUT, advanced=True),
                            SimConfig(seed=3))
        assert m.total_energy_uj == 10_000
        assert 2_000_000 <= m.makespan_us <= 5_000_000
        phases = [r.phase for r in trace]
        assert phases == ["dispatch", "cloud_submit", "cloud_complete"]

    def test_empty_scenario(self):
        m, trace = simulate(TaskGraph([]), single_unit_profile(), Policy(BasicPolicy.LATENCY))
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
        m, trace = simulate(g, self.probe_profile(), Policy(BasicPolicy.LATENCY),
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
        m, trace = simulate(g, self.probe_profile(), Policy(BasicPolicy.LATENCY),
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
        m, trace = simulate(g, p, Policy(BasicPolicy.LATENCY), SimConfig(buffer_capacity=0))
        assert m.drops == 1
        assert m.completed == 1  # only the producer ran
        assert m.skipped == 2
        assert not [r for r in trace if r.task_id in (2, 3) and r.phase == "setup"]


def two_unit_profile():
    """CPU and DSP, each running workload "w" in one 100 us kernel."""
    return load_profile(json.dumps({
        "units": [{"kind": "CPU", "weight": 1}, {"kind": "DSP", "weight": 1}],
        "workloads": [{"name": "w"}],
        "costs": {f"w@{k}": {"kernel_us": 100, "energy_uj": 10} for k in ("CPU", "DSP")},
    }))


def local_run(tid, unit, start):
    """The records of a task that starts at once on an idle unit of two_unit_profile."""
    return [(start, tid, "w", unit, "dispatch"), (start, tid, "w", unit, "setup"),
            (start, tid, "w", unit, "xfer_in"), (start, tid, "w", unit, "kernel"),
            (start + 100, tid, "w", unit, "xfer_out"), (start + 100, tid, "w", unit, "complete")]


def in_step(start, *runs):
    """The records of tasks, each (task id, workload, unit), that start together at
    `start` on units of two_unit_profile's costs and cross each boundary in turn."""
    return [(start + 100 * (phase in ("xfer_out", "complete")), tid, workload, unit, phase)
            for phase in ("setup", "xfer_in", "kernel", "xfer_out", "complete")
            for tid, workload, unit in runs]


class TestTaskLifecycle:
    """A task is pending until it is dispatched (its release has come and its
    dependencies are complete) or skipped (an image it needs was dropped)."""

    def run(self, tasks, capacity=1):
        return simulate(TaskGraph(tasks), two_unit_profile(), Policy(BasicPolicy.LATENCY),
                        SimConfig(buffer_capacity=capacity))

    @pytest.mark.parametrize("release", [50, 100, 250])
    def test_a_dependent_is_dispatched_once_when_both_conditions_hold(self, release):
        # released before, at or after the instant its dependency completes
        m, trace = self.run([rt(1), rt(2, deps=[1], release=release)])
        start = max(release, 100)
        assert list(trace) == local_run(1, "DSP", 0) + local_run(2, "CPU", start)
        assert (m.completed, m.skipped, m.makespan_us) == (2, 0, start + 100)

    def test_a_diamond_child_behind_two_skipped_consumers_is_skipped_once(self, monkeypatch):
        skipped = []
        original = simrt.engine._Engine._release_buffers_for

        def recording(engine, tid):
            skipped.append(tid)
            original(engine, tid)

        monkeypatch.setattr(simrt.engine._Engine, "_release_buffers_for", recording)
        m, trace = self.run([rt(1), rt(2, deps=[1], image=True), rt(3, deps=[1], image=True),
                             rt(4, deps=[2, 3])], capacity=0)
        assert list(trace) == local_run(1, "DSP", 0) + [(100, 1, "w", "DSP", "drop")]
        assert (m.completed, m.skipped, m.drops) == (1, 3, 1)
        # no buffer is ever held, so task 1's kernel boundary releases nothing and
        # is not recorded; each skipped task releases its inputs once
        assert skipped == [2, 4, 3]

    def test_a_consumer_skipped_by_one_drop_releases_its_other_producers_buffer(self):
        # 1 and 2 complete at 100: 1 takes the only buffer, 2's image is dropped, which
        # skips 3 and frees 1's buffer, so the image 4 produces for 5 at 200 is kept
        m, trace = self.run([rt(1), rt(2), rt(3, deps=[1, 2], image=True),
                             rt(4, release=100), rt(5, deps=[4], image=True)])
        assert list(trace) == [
            *local_run(1, "DSP", 0)[:4], *local_run(2, "CPU", 0)[:4],
            (100, 1, "w", "DSP", "xfer_out"), (100, 2, "w", "CPU", "xfer_out"),
            (100, 1, "w", "DSP", "complete"), (100, 2, "w", "CPU", "complete"),
            (100, 2, "w", "CPU", "drop"), *local_run(4, "DSP", 100), *local_run(5, "CPU", 200)]
        assert (m.completed, m.skipped, m.drops) == (4, 1, 1)

    def test_a_producer_completing_after_its_consumer_was_skipped_keeps_no_buffer(self):
        # 3 is skipped at 100; when its third producer 4 completes at 200, only 5
        # still needs 4's image, so 4's buffer is freed when 5 starts its kernel
        m, trace = self.run([rt(1), rt(2), rt(3, deps=[1, 2, 4], image=True),
                             rt(4, release=100), rt(5, deps=[4], image=True)])
        assert [r for r in trace if r.phase == "drop"] == [(100, 2, "w", "CPU", "drop")]
        assert (m.completed, m.skipped, m.drops) == (4, 1, 1)


    def test_a_dependent_dispatched_onto_the_freed_unit_starts_there(self):
        # at 100 the DSP completes 1, which dispatches 3 to the idle DSP at once
        m, trace = self.run([rt(1), rt(2), rt(3, deps=[1])])
        assert list(trace) == [
            *local_run(1, "DSP", 0)[:4], *local_run(2, "CPU", 0)[:4],
            (100, 1, "w", "DSP", "xfer_out"), (100, 2, "w", "CPU", "xfer_out"),
            (100, 1, "w", "DSP", "complete"), *local_run(3, "DSP", 100)[:2],
            (100, 2, "w", "CPU", "complete"), *local_run(3, "DSP", 100)[2:]]
        assert (m.completed, m.makespan_us) == (3, 200)

    def test_a_unit_that_takes_the_hp_head_hands_the_next_head_to_an_idle_unit(self):
        # "v" runs only on the DSP, so the idle CPU waits behind HP head 2; at 100
        # the DSP completes 1 and takes 2, and 3, the new head, starts on the CPU
        profile = load_profile(json.dumps({
            "units": [{"kind": "CPU", "weight": 1}, {"kind": "DSP", "weight": 1}],
            "workloads": [{"name": "w"}, {"name": "v"}],
            "costs": {f"{w}@{k}": {"kernel_us": 100, "energy_uj": 10}
                      for w, k in (("w", "CPU"), ("w", "DSP"), ("v", "DSP"))},
        }))
        m, trace = simulate(TaskGraph([rt(1), rt(2, "v", image=True), rt(3, image=True)]),
                            profile, Policy(BasicPolicy.LATENCY, advanced=True))
        assert list(trace) == [
            *local_run(1, "DSP", 0)[:4], (0, 2, "v", "HP", "dispatch"),
            (0, 3, "w", "HP", "dispatch"),
            (100, 1, "w", "DSP", "xfer_out"), (100, 1, "w", "DSP", "complete"),
            *in_step(100, (2, "v", "DSP"), (3, "w", "CPU"))]
        assert (m.completed, m.makespan_us) == (3, 200)

    def test_a_next_task_whose_first_boundary_ties_another_event_waits_its_turn(self):
        # at 100 the DSP takes 3 while the CPU's completion of 2 is due at 100 too,
        # so 3 enters xfer_in only after the CPU has completed 2 and taken 4
        m, trace = self.run([rt(1), rt(2), rt(3), rt(4)])
        assert list(trace) == [
            *local_run(1, "DSP", 0)[:4], *local_run(2, "CPU", 0)[:4],
            (0, 3, "w", "DSP", "dispatch"), (0, 4, "w", "CPU", "dispatch"),
            (100, 1, "w", "DSP", "xfer_out"), (100, 2, "w", "CPU", "xfer_out"),
            (100, 1, "w", "DSP", "complete"), (100, 3, "w", "DSP", "setup"),
            (100, 2, "w", "CPU", "complete"), (100, 4, "w", "CPU", "setup"),
            *in_step(100, (3, "w", "DSP"), (4, "w", "CPU"))[2:]]
        assert (m.completed, m.makespan_us) == (4, 200)


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
        m, trace = simulate(g, single_unit_profile(kernel=100), Policy(BasicPolicy.LATENCY))
        t = {(r.task_id, r.phase): r.time_us for r in trace}
        assert t[(1, "complete")] == 100
        assert t[(2, "setup")] == 100
        assert m.makespan_us == 200

    def test_cloud_slots_serialize_submissions(self):
        p = single_unit_profile(cloud={"latency_us": [1000, 1000], "energy_uj": 2})
        g = TaskGraph([rt(i, real_time=False) for i in (1, 2, 3)])
        m, trace = simulate(g, p, Policy(BasicPolicy.LATENCY, advanced=True),
                            SimConfig(cloud_slots=1))
        submits = [r.time_us for r in trace if r.phase == "cloud_submit"]
        assert submits == [0, 1000, 2000]
        assert m.makespan_us == 3000

    def test_unlimited_cloud_slots_run_in_parallel(self):
        p = single_unit_profile(cloud={"latency_us": [1000, 1000], "energy_uj": 2})
        g = TaskGraph([rt(i, real_time=False) for i in (1, 2, 3)])
        m, trace = simulate(g, p, Policy(BasicPolicy.LATENCY, advanced=True))
        assert [r.time_us for r in trace if r.phase == "cloud_submit"] == [0, 0, 0]
        assert m.makespan_us == 1000

    def test_cloud_excluded_from_makespan_when_configured(self):
        p = single_unit_profile(kernel=500,
                                cloud={"latency_us": [9000, 9000], "energy_uj": 2})
        g = TaskGraph([rt(1), rt(2, real_time=False)])
        cfg = SimConfig(cloud_in_makespan=False)
        m, _ = simulate(g, p, Policy(BasicPolicy.LATENCY, advanced=True), cfg)
        assert m.makespan_us == 500
        m2, _ = simulate(g, p, Policy(BasicPolicy.LATENCY, advanced=True))
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
            _, trace = simulate(g, p, Policy(BasicPolicy.LATENCY), SimConfig(setup_mode=mode))
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
        m, _ = simulate(TaskGraph([rt(1)]), p, Policy(BasicPolicy.LATENCY))
        # 10 uJ active + 2 W for 1000 us = 2000 uJ idle
        assert m.total_energy_uj == 2010

    @pytest.mark.parametrize("cloud_in_makespan", [True, False])
    def test_every_field_by_hand(self, cloud_in_makespan):
        """Each metric against arithmetic done by hand on a trace over two
        local units and the cloud, with idle power and a task that never
        completes (dropped behind task 1's image)."""
        p = load_profile(json.dumps({
            "units": [{"kind": "DSP", "weight": 1, "idle_watts": 0.25},
                      {"kind": "CPU", "weight": 1, "idle_watts": 0.5}],
            "workloads": [{"name": "w"}],
            "costs": {"w@CPU": {"kernel_us": 1, "energy_uj": 10},
                      "w@DSP": {"kernel_us": 1, "energy_uj": 7}},
            "cloud": {"latency_us": [1, 9000], "energy_uj": 30},
        }))
        records = [(100, 1, "w", "CPU", "dispatch"), (100, 2, "w", "DSP", "dispatch"),
                   (200, 3, "w", "CLOUD", "dispatch"), (200, 3, "w", "CLOUD", "cloud_submit"),
                   (300, 4, "w", "CPU", "dispatch"), (1100, 1, "w", "CPU", "complete"),
                   (1100, 1, "w", "CPU", "drop"), (3100, 2, "w", "DSP", "complete"),
                   (4300, 4, "w", "CPU", "complete"), (5200, 3, "w", "CLOUD", "cloud_complete")]
        scenario = TaskGraph([rt(1), rt(2), rt(3), rt(4), rt(5, deps=[1], image=True)])
        m = compute_metrics(Trace(records), p, SimConfig(cloud_in_makespan=cloud_in_makespan),
                            scenario)
        # from the first dispatch (100) to the last counted completion: the
        # cloud's at 5200 or the CPU's at 4300; idle power is 0.75 W over it
        makespan, throughput, idle_uj = ((5100, 4 / 5.1, 3825) if cloud_in_makespan
                                         else (4200, 4 / 4.2, 3150))
        assert m == Metrics(
            throughput_tasks_per_ms=throughput,
            # DSP: 3000 us; CPU: (1000 + 4000) / 2 us; CLOUD: 5000 us
            avg_latency_ms={"DSP": 3.0, "CPU": 2.5, "CLOUD": 5.0},
            # 2 CPU runs at 10 uJ, 1 DSP run at 7 and 1 cloud run at 30
            total_energy_uj=57 + idle_uj, drops=1, makespan_us=makespan, completed=4,
            skipped=1)
        assert list(m.avg_latency_ms) == ["DSP", "CPU", "CLOUD"]  # unit order, then the cloud

    @pytest.mark.parametrize("records, message", [
        ([(5, 1, "convolution", "CPU", "complete")],
         "task 1: complete at 5 has no earlier dispatch"),
        ([(7, 2, "convolution", "CLOUD", "cloud_complete")],
         "task 2: cloud_complete at 7 has no earlier dispatch"),
        ([(0, 2, "convolution", "CPU", "dispatch"), (5, 1, "convolution", "CPU", "complete"),
          (6, 1, "convolution", "CPU", "dispatch")],
         "task 1: complete at 5 has no earlier dispatch"),
    ], ids=["local", "cloud", "dispatched-later"])
    def test_a_completion_without_an_earlier_dispatch_is_an_audit_error(self, records,
                                                                        message):
        with pytest.raises(AuditError) as exc:
            compute_metrics(Trace(records), builtin_profiles()["sd820"], SimConfig(),
                            TaskGraph([rt(1, "convolution"), rt(2, "convolution")]))
        assert str(exc.value) == message

    @pytest.mark.parametrize("profile, label, phase", [
        ("sd820", "XPU", "complete"),
        ("sd820", "GPU", "complete"),
        ("sd820-robot", "DSP", "complete"),
        ("sd820", "CLOUD", "cloud_complete"),
    ], ids=["unknown-label", "undeclared-unit", "no-cost-entry", "no-cloud"])
    def test_a_completion_where_the_profile_cannot_run_it_is_an_audit_error(
            self, profile, label, phase):
        records = [(0, 1, "convolution", label, "dispatch"),
                   (5, 1, "convolution", label, phase)]
        with pytest.raises(AuditError) as exc:
            compute_metrics(Trace(records), builtin_profiles()[profile], SimConfig(),
                            convolution_batch(1))
        assert str(exc.value) == (f"task 1: completes on {label!r}, where profile "
                                  f"{profile!r} cannot run 'convolution'")

    @pytest.mark.parametrize("records, message", [
        ([(0, 1, "convolution", "XPU", "dispatch"), (5, 1, "convolution", "XPU", "complete"),
          (7, 2, "convolution", "CPU", "complete")],
         "task 1: completes on 'XPU', where profile 'sd820' cannot run 'convolution'"),
        ([(0, 1, "convolution", "CPU", "dispatch"), (5, 1, "convolution", "CPU", "complete"),
          (9, 1, "convolution", "CPU", "complete")],
         "task 1: complete at 9 has no earlier dispatch"),
        ([(0, 99, "convolution", "CPU", "dispatch"), (0, 1, "convolution", "CPU", "dispatch"),
          (5, 99, "convolution", "CPU", "complete"), (6, 1, "convolution", "CPU", "complete")],
         "task 99 is not in the scenario"),
        ([(0, 1, "convolution", "CPU", "dispatch"), (3, 1, "convolution", "CPU", "dispatch"),
          (5, 2, "convolution", "CPU", "complete")],
         "task 1: dispatch at 3 while its dispatch at 0 has not completed"),
        ([(0, 1, "gaussian_blur", "CPU", "dispatch"), (0, 99, "convolution", "CPU", "dispatch")],
         "task 1: dispatch at 0 records 'gaussian_blur', where the scenario has 'convolution'"),
    ], ids=["first-faulty-completion", "completed-twice", "not-in-scenario", "dispatched-twice",
            "other-workload"])
    def test_the_first_faulty_record_in_trace_order_raises(self, records, message):
        with pytest.raises(AuditError) as exc:
            compute_metrics(Trace(records), builtin_profiles()["sd820"], SimConfig(),
                            convolution_batch(2))
        assert str(exc.value) == message

    @pytest.mark.parametrize("records, message", [
        ([(0, 1, "convolution", "CPU", "dispatch"), (3, 1, "convolution", "CPU", "dispatch"),
          (5, 1, "convolution", "CPU", "complete")],
         "task 1: dispatch at 3 while its dispatch at 0 has not completed"),
        ([(0, 1, "gaussian_blur", "CPU", "dispatch"), (5, 1, "gaussian_blur", "CPU", "complete")],
         "task 1: dispatch at 0 records 'gaussian_blur', where the scenario has 'convolution'"),
        ([(0, 1, "convolution", "CPU", "dispatch"), (5, 1, "gaussian_blur", "CPU", "complete")],
         "task 1: complete at 5 records 'gaussian_blur', where the scenario has 'convolution'"),
    ], ids=["dispatched-twice", "dispatch-workload", "complete-workload"])
    def test_a_record_the_engine_cannot_write_is_an_audit_error(self, records, message):
        """The engine dispatches a task once and records the scenario's
        workload; a trace that does neither would skew latency or energy."""
        with pytest.raises(AuditError) as exc:
            compute_metrics(Trace(records), builtin_profiles()["sd820"], SimConfig(),
                            convolution_batch(1))
        assert str(exc.value) == message

    def test_only_the_tasks_in_flight_are_held(self):
        """One pass holds a dispatch time until its task completes, so the
        peak does not grow with the trace."""
        scenario, profile = robot_pipeline(10, 25, 200, 3), builtin_profiles()["sd820-robot"]
        config = SimConfig(buffer_capacity=4)
        metrics, trace = simulate(scenario, profile, Policy.parse("advanced:throughput"), config)
        gc.collect()  # a full collection empties the free lists, which tracemalloc cannot see
        tracemalloc.start()
        try:
            derived = compute_metrics(trace, profile, config, scenario)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert derived == metrics
        assert peak < 64 * 1024, peak


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
            simulate(TaskGraph([rt(1)]), p, Policy(BasicPolicy.LATENCY))

    @pytest.mark.parametrize("policy", ["latency", "advanced:latency"])
    def test_the_scenario_order_names_the_first_unresolvable_pair(self, policy):
        # "v" runs only on the DSP, "w" only on the CPU, and there is no cloud
        p = load_profile(json.dumps({
            "units": [{"kind": "CPU", "weight": 1}, {"kind": "DSP", "weight": 1}],
            "workloads": [{"name": "w"}, {"name": "v"}],
            "costs": {"w@CPU": {"kernel_us": 10, "energy_uj": 1},
                      "v@DSP": {"kernel_us": 10, "energy_uj": 1}},
        }))
        policy = Policy.parse(policy)
        # advanced: "v" may wait for the DSP at the high-priority head, and "w"
        # has no cloud to go to
        hp_then_cloud = [rt(1, "v", image=True), rt(2, "w", real_time=False), rt(3, "w")]
        for tasks, first in [([rt(1, "v"), rt(2, "w")], ("v", UnitKind.CPU)),
                             ([rt(1, "w"), rt(2, "v")], ("w", UnitKind.DSP)),
                             (hp_then_cloud, ("w", UnitKind.CLOUD) if policy.advanced
                              else ("v", UnitKind.CPU))]:
            with pytest.raises(UnresolvableCost) as exc:
                simulate(TaskGraph(tasks), p, policy)
            assert (exc.value.workload, exc.value.unit) == first

    def test_one_classify_per_workload_and_tags_class(self, monkeypatch):
        scenario = robot_pipeline(2, 25, 200, 3)
        profile = builtin_profiles()["sd820-robot"]
        policy = Policy(BasicPolicy.THROUGHPUT, advanced=True)
        classified = []
        classify = simrt.scheduler.classify
        monkeypatch.setattr(simrt.scheduler, "classify",
                            lambda task: classified.append(task) or classify(task))
        simrt.engine._phase_table(scenario, profile, policy, SchedulerState(profile),
                                  SetupMode.AMORTIZED)
        classes = {(t.workload, t.tags) for t in scenario}
        assert len(classified) == len(classes) < len(scenario) / 10

    def test_cloud_route_requires_cloud_config(self):
        p = single_unit_profile()
        g = TaskGraph([rt(1, real_time=False)])
        with pytest.raises(UnresolvableCost):
            simulate(g, p, Policy(BasicPolicy.LATENCY, advanced=True))

    def test_plain_policy_accepts_non_real_time_locally(self):
        p = single_unit_profile()
        g = TaskGraph([rt(1, real_time=False)])
        m, _ = simulate(g, p, Policy(BasicPolicy.LATENCY))
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
                     Policy(BasicPolicy.LATENCY, advanced=True))
        # while a pure cloud scenario on the same profile works
        m, _ = simulate(TaskGraph([rt(1, real_time=False)]), p,
                        Policy(BasicPolicy.LATENCY, advanced=True))
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
        _, trace = simulate(g, p, Policy(BasicPolicy.LATENCY))
        # shift the second task's start before the first completes
        bad = [TraceRecord(r.time_us - 60, r.task_id, r.workload, r.unit, r.phase)
               if r.task_id == 2 and r.phase in ("setup", "xfer_in", "kernel")
               else r for r in trace]
        with pytest.raises(audit.AuditError):
            audit.audit_unit_exclusivity(Trace(bad))

    def test_audit_catches_causality_violation(self):
        p = single_unit_profile(kernel=100)
        g = TaskGraph([rt(1), rt(2, deps=[1])])
        _, trace = simulate(g, p, Policy(BasicPolicy.LATENCY))
        bad = [TraceRecord(0, r.task_id, r.workload, r.unit, r.phase)
               if r.task_id == 2 and r.phase == "setup" else r
               for r in trace]
        with pytest.raises(audit.AuditError):
            audit.audit_causality(Trace(bad), g)

    def test_audit_catches_phase_order_faults(self):
        p = single_unit_profile(kernel=100, setup=10, xin=5, xout=5)
        _, trace = simulate(TaskGraph([rt(1)]), p, Policy(BasicPolicy.LATENCY))
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
        _, trace = simulate(g, p, Policy(BasicPolicy.LATENCY))
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
        _, trace = simulate(TaskGraph([rt(2)]), p, Policy(BasicPolicy.LATENCY))
        with pytest.raises(audit.AuditError, match=r"^task 2 is not in the scenario$"):
            audit.audit_all(trace, TaskGraph([rt(1)]), p)

    def test_a_run_without_a_trace_cannot_be_audited(self):
        p, scenario = single_unit_profile(), TaskGraph([rt(1)])
        config = SimConfig(record_trace=False)
        _, trace = simulate(scenario, p, Policy(BasicPolicy.LATENCY), config)
        assert trace is None
        message = r"^no trace to read: the run was made with record_trace=False$"
        with pytest.raises(audit.AuditError, match=message):
            audit.audit_all(trace, scenario, p)
        with pytest.raises(audit.AuditError, match=message):
            compute_metrics(trace, p, config, scenario)


class TestWorkConservationSteps:
    """Idle units are caught at every step where a task waits, whether it waits
    in a unit FIFO or only at the high-priority head."""

    # the CPU runs "w" and "v", the DSP only "w"
    PROFILE = load_profile(json.dumps({
        "units": [{"kind": "CPU", "weight": 1}, {"kind": "DSP", "weight": 1}],
        "workloads": [{"name": "w"}, {"name": "v"}],
        "costs": {key: {"kernel_us": 100, "energy_uj": 1} for key in ("w@CPU", "w@DSP", "v@CPU")},
    }))

    @staticmethod
    def local_run(tid, unit, start, end, workload="w"):
        """A local task's records from setup to completion."""
        return [(start, tid, workload, unit, phase) for phase in ("setup", "xfer_in", "kernel")] + [
            (end, tid, workload, unit, phase) for phase in ("xfer_out", "complete")]

    def assert_idle_error(self, rows, message):
        with pytest.raises(audit.AuditError, match=f"^{re.escape(message)}$"):
            audit.audit_work_conservation(Trace(rows), self.PROFILE)

    def test_only_the_hp_head_waits_for_an_idle_unit(self):
        # at 50 only the DSP idles, which cannot run "v"; at 100 the CPU frees up
        rows = [(0, 1, "w", "CPU", "dispatch"), *self.local_run(1, "CPU", 0, 100),
                (200, 2, "v", "CPU", "setup")]
        rows.insert(4, (50, 2, "v", "HP", "dispatch"))
        self.assert_idle_error(rows, "unit CPU idle at 100 while high-priority head 2 is runnable on it")

    def test_a_fifo_task_waits_only_at_the_last_step(self):
        rows = [(0, 1, "w", "CPU", "dispatch"), *self.local_run(1, "CPU", 0, 100),
                (100, 2, "w", "CPU", "dispatch")]
        self.assert_idle_error(rows, "unit CPU idle at 100 with queued tasks [2]")

    def test_a_fifo_that_empties_and_refills_in_one_instant(self):
        # at 100 task 2 leaves the CPU's FIFO, task 3 joins it, task 2 completes
        second = self.local_run(2, "CPU", 100, 100)
        rows = [(0, 1, "w", "CPU", "dispatch"), (0, 2, "w", "CPU", "dispatch"),
                *self.local_run(1, "CPU", 0, 100), *second[:1], (100, 3, "w", "CPU", "dispatch"),
                *second[1:], *self.local_run(3, "CPU", 300, 400)]
        self.assert_idle_error(rows, "unit CPU idle at 100 with queued tasks [3]")


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
        _, trace = simulate(g, p, Policy(BasicPolicy.THROUGHPUT, advanced=True))
        audit.audit_all(trace, g, p)
        # the DSP takes task 2 at 1320; task 3, the new head, runs on the idle CPU
        starts = {r.task_id: (r.time_us, r.unit) for r in trace if r.phase == "setup"}
        assert starts[3] == (1320, "CPU")

    def test_a_kick_offers_work_only_for_the_current_head(self, monkeypatch):
        # at 100 the DSP takes HP head 2 and kicks: the CPU takes 3, which makes 4,
        # runnable on neither idle unit, the head; so the mGPU is not asked
        profile = load_profile(json.dumps({
            "units": [{"kind": k, "weight": 1} for k in ("CPU", "mGPU", "DSP")],
            "workloads": [{"name": w} for w in ("z", "w", "v")],
            "costs": {f"{w}@{k}": {"kernel_us": 100, "energy_uj": 10} for w, k in (
                ("z", "DSP"), ("w", "CPU"), ("w", "mGPU"), ("v", "CPU"), ("v", "DSP"))},
        }))
        calls = 0
        original = simrt.scheduler.on_unit_free

        def counting(*args):
            nonlocal calls
            calls += 1
            return original(*args)

        monkeypatch.setattr(simrt.scheduler, "on_unit_free", counting)
        _, trace = simulate(TaskGraph([rt(1, "z", image=True), rt(2, "z", image=True),
                                       rt(3, "w", image=True), rt(4, "v", image=True)]),
                            profile, Policy(BasicPolicy.LATENCY, advanced=True))
        monkeypatch.undo()
        starts = {r.task_id: (r.time_us, r.unit) for r in trace if r.phase == "setup"}
        assert starts == {1: (0, "DSP"), 2: (100, "DSP"), 3: (100, "CPU"), 4: (200, "DSP")}
        assert calls == len(starts)

    def test_on_unit_free_is_asked_only_when_it_hands_out_a_task(self, monkeypatch):
        # the loop starts a completing unit in place only on its own FIFO head;
        # a unit that can run the high-priority head goes to the one HP start path
        cases = [hp_case(seed) for seed in range(300)]
        cases.append(golden_cases()["dag-adv-energy-drops-cloud2"])
        answers = []
        original = simrt.scheduler.on_unit_free

        def recording(*args):
            answers.append(original(*args))
            return answers[-1]

        monkeypatch.setattr(simrt.scheduler, "on_unit_free", recording)
        starts = 0
        for case in cases:
            try:
                _, trace = simulate(*case)
            except SimrtError:
                continue
            starts += sum(r.phase == "setup" for r in trace)
        monkeypatch.undo()
        assert None not in answers
        assert len(answers) == starts > 2000

    def test_audits_pass_with_partially_runnable_hp_heads(self):
        rng = random.Random(77)
        for _ in range(40):
            profile = partial_hp_profile(rng)
            tasks = [rt(i, rng.choice(("beta", "gamma")), image=True,
                        release=rng.randint(0, 3000))
                     if rng.random() < 0.7 else rt(i, "alpha", release=rng.randint(0, 3000))
                     for i in range(1, rng.randint(2, 30))]
            scenario = TaskGraph(tasks)
            policy = Policy(rng.choice(list(BasicPolicy)), advanced=True)
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
        {"seed": -7},
    ])
    def test_rejects_out_of_range_fields(self, kwargs):
        with pytest.raises(InvalidConfig):
            SimConfig(**kwargs)

    def test_accepts_boundary_values(self):
        SimConfig(buffer_capacity=0, cloud_slots=1, weights={"g": 0, "d": 2, "c": 1}, seed=0)

    @pytest.mark.parametrize("seed, message", [
        (-1, "seed must be >= 0, got -1"),
        (1.5, "seed must be an integer, got 1.5"),
        (None, "seed must be an integer, got None"),
    ])
    def test_seed_messages(self, seed, message):
        # random.Random seeds with abs(seed), so a negative seed would repeat a positive one
        with pytest.raises(InvalidConfig) as exc:
            SimConfig(seed=seed)
        assert str(exc.value) == message

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
                     Policy(BasicPolicy.THROUGHPUT), config)

    @pytest.mark.parametrize("kwargs, message", [
        ({"weights": {"g": -1}}, "weights: bad item 'g': -1"),
        ({"fpga_as_gpu": "yes"}, "fpga_as_gpu must be True or False, got 'yes'"),
    ])
    def test_audit_rejects_a_bad_argument_not_the_trace(self, kwargs, message):
        scenario, profile = convolution_batch(1), builtin_profiles()["sd820"]
        _, trace = simulate(scenario, profile, Policy(BasicPolicy.THROUGHPUT))
        with pytest.raises(InvalidConfig, match=message):
            audit.audit_all(trace, scenario, profile, **kwargs)


class TestRecordTrace:
    """With record_trace=False the engine keeps no records: the run's
    memory does not grow with its trace, and its metrics are the same."""

    def test_trace_off_halves_the_peak_and_keeps_the_metrics(self):
        scenario = robot_pipeline(10, 25, 200, 3)
        profile = builtin_profiles()["sd820-robot"]
        policy = Policy.parse("advanced:throughput")

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

    @pytest.mark.parametrize("scenario, profile, policy, config", [
        (convolution_batch(2000), "sd820", "throughput", SimConfig()),
        (robot_pipeline(2, 25, 200, 3), "sd820-robot", "advanced:throughput",
         SimConfig(buffer_capacity=4)),
    ], ids=["conv", "robot"])
    def test_a_kept_trace_retains_less_than_a_tuple_per_record(self, scenario, profile,
                                                               policy, config):
        """A record's five fields sit in one flat list: an 8 B slot each, and
        a time object per instant. A tuple per record alone took 80 B more."""
        profile, policy = builtin_profiles()[profile], Policy.parse(policy)
        gc.collect()  # a full collection empties the free lists, which tracemalloc cannot see
        tracemalloc.start()
        try:
            _, trace = simulate(scenario, profile, policy, config)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained / len(trace) < 80, (retained, len(trace))


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
                 Policy(BasicPolicy.THROUGHPUT, advanced=True),
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


class _CountingProxy:
    """Stands in for an Enum class and counts the attribute reads made through it."""

    def __init__(self, cls, counts: list):
        self._cls, self._counts = cls, counts

    def __getattr__(self, name):
        self._counts[0] += 1
        return getattr(self._cls, name)


class TestEnumReadCounts:
    """A member read through its Enum class is slow on CPython, so per-task
    dispatch reads module constants: the class-level RouteClass and UnitKind
    reads a run makes do not grow with its task count."""

    def counted_reads(self, monkeypatch, scenario, profile, policy, config) -> int:
        counts = [0]
        for module, name in ((simrt.scheduler, "RouteClass"), (simrt.engine, "RouteClass"),
                             (simrt.engine, "UnitKind")):
            monkeypatch.setattr(module, name, _CountingProxy(getattr(module, name), counts))
        simulate(scenario, profile, policy, config)
        monkeypatch.undo()
        return counts[0]

    def test_robot_pipeline_reads_flat_in_task_count(self, monkeypatch):
        profile = builtin_profiles()["sd820-robot"]
        policy = Policy(BasicPolicy.THROUGHPUT, advanced=True)
        small, large = robot_pipeline(2, 25, 200, 3), robot_pipeline(4, 25, 200, 3)
        assert len(large) > 1.9 * len(small)
        reads = [self.counted_reads(monkeypatch, scenario, profile, policy, SimConfig())
                 for scenario in (small, large)]
        assert reads[0] == reads[1], reads

    def test_cloud_and_drops_reads_flat_in_task_count(self, monkeypatch):
        profile = builtin_profiles()["sd820-robot"]
        policy = Policy(BasicPolicy.ENERGY, advanced=True)
        config = SimConfig(setup_mode=SetupMode.PER_OFFLOAD, seed=5, buffer_capacity=2,
                           cloud_slots=2)
        small, large = robot_dag(5, 200), robot_dag(5, 400)
        for scenario in (small, large):
            metrics, _ = simulate(scenario, profile, policy, config)
            assert metrics.drops > 0 and "CLOUD" in metrics.avg_latency_ms
        reads = [self.counted_reads(monkeypatch, scenario, profile, policy, config)
                 for scenario in (small, large)]
        assert reads[0] == reads[1], reads


class TestSimulateArguments:
    """simulate checks its arguments' types once per call, naming the argument;
    compute_metrics and the audits that read more than the trace do the same."""

    @pytest.mark.parametrize("scenario", [None, [], [rt(1)], "conv"])
    def test_rejects_a_scenario_that_is_not_a_task_graph(self, scenario):
        with pytest.raises(InvalidConfig) as exc:
            simulate(scenario, builtin_profiles()["sd820"], Policy(BasicPolicy.THROUGHPUT))
        assert str(exc.value) == f"scenario must be a TaskGraph, got {scenario!r}"

    @pytest.mark.parametrize("profile", ["sd820", None, {"units": []}])
    def test_rejects_a_profile_that_is_not_a_platform_profile(self, profile):
        with pytest.raises(InvalidConfig) as exc:
            simulate(convolution_batch(3), profile, Policy(BasicPolicy.THROUGHPUT))
        assert str(exc.value) == f"profile must be a PlatformProfile, got {profile!r}"

    @pytest.mark.parametrize("policy", ["throughput", "advanced:energy", None,
                                        BasicPolicy.THROUGHPUT])
    def test_rejects_a_policy_that_is_not_a_policy(self, policy):
        with pytest.raises(InvalidConfig) as exc:
            simulate(convolution_batch(3), builtin_profiles()["sd820"], policy)
        assert str(exc.value) == f"policy must be a Policy, got {policy!r}"

    @pytest.mark.parametrize("config", [None, {"seed": 1}, SetupMode.AMORTIZED])
    def test_rejects_a_config_that_is_not_a_simconfig(self, config):
        with pytest.raises(InvalidConfig) as exc:
            simulate(convolution_batch(3), builtin_profiles()["sd820"],
                     Policy(BasicPolicy.THROUGHPUT), config)
        assert str(exc.value) == f"config must be a SimConfig, got {config!r}"

    @pytest.mark.parametrize("check, message", [
        (lambda t, s, p: compute_metrics(t, p, None, s), "config must be a SimConfig, got None"),
        (lambda t, s, p: compute_metrics(t, p, SimConfig(), [tuple(r) for r in t]),
         "scenario must be a TaskGraph, got [(0, 1, "),
        (lambda t, s, p: audit.audit_all(t, s, "sd820"),
         "profile must be a PlatformProfile, got 'sd820'"),
        (lambda t, s, p: audit.audit_all(list(t), s, p), "trace must be a Trace, got list"),
        (lambda t, s, p: audit.audit_causality(t, None), "scenario must be a TaskGraph, got None"),
        (lambda t, s, p: audit.audit_completeness(t, None),
         "scenario must be a TaskGraph, got None"),
        (lambda t, s, p: audit.audit_work_conservation(t, None),
         "profile must be a PlatformProfile, got None"),
    ], ids=["metrics-config", "metrics-scenario", "all-profile", "all-trace", "causality",
            "completeness", "work-conservation"])
    def test_trace_readers_reject_an_argument_of_the_wrong_type(self, check, message):
        """A trace that is not a Trace is named by its type, not its repr,
        which for a records list can run to megabytes."""
        scenario, profile = convolution_batch(3), builtin_profiles()["sd820"]
        _, trace = simulate(scenario, profile, Policy(BasicPolicy.THROUGHPUT))
        with pytest.raises(InvalidConfig) as exc:
            check(trace, scenario, profile)
        assert str(exc.value).startswith(message)


def test_benchmark_tracer_finds_every_hook(monkeypatch):
    """`perfbench/run.py --trace 1` wraps simrt names it looks up with
    `vars(owner)[attr]`; deleting or moving one must fail here, not there.
    The graph check it times runs once in the load and once per simulate."""
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).parents[1] / "perfbench"))
    from spans import Tracer

    text = dump_scenario(convolution_batch(3))
    tracer = Tracer()
    try:
        tracer.install()
        graph = tracer.wrapped(simrt.load_scenario, "tasks.load_scenario")(text)
        tracer.wrapped(simrt.simulate, "engine.simulate")(
            graph, builtin_profiles()["sd820"], Policy(BasicPolicy.THROUGHPUT))
    finally:
        assert tracer.restore()
    by_root = tracer.totals()["tasks.validate_graph"]["by_root"]
    assert {root: calls for root, (calls, _) in by_root.items()} == {
        "tasks.load_scenario": 1, "engine.simulate": 1}


def _robot_run():
    return (robot_pipeline(2, 25, 200, 3), builtin_profiles()["sd820-robot"],
            Policy(BasicPolicy.THROUGHPUT, advanced=True), SimConfig(buffer_capacity=4))


class TestEventHeap:
    """Phase boundaries and cloud completions wait on one heap, which holds
    each busy unit's next boundary and each cloud task in flight, no more; a
    boundary that is already the next event is crossed without it."""

    @pytest.mark.parametrize("case", ["dag-adv-energy-drops-cloud2", "robot"])
    def test_one_event_per_busy_unit_and_cloud_task(self, monkeypatch, case):
        scenario, profile, policy, config = (_robot_run() if case == "robot"
                                             else golden_cases()[case])
        engines, sizes = [], []
        original_init = simrt.engine._Engine.__init__

        def keep(self, *args):
            original_init(self, *args)
            engines.append(self)

        original_push = heapq.heappush

        def checked(heap, item):
            original_push(heap, item)
            engine, = engines
            local = [key for _, _, kind, key in heap if kind >= 0]
            cloud = [key for _, _, kind, key in heap if kind < 0]
            assert len(set(local)) == len(local)
            assert all(engine.running[unit] is not None for unit in local)
            assert len(set(cloud)) == len(cloud) <= engine.cloud_active
            sizes.append(len(heap))

        monkeypatch.setattr(simrt.engine._Engine, "__init__", keep)
        monkeypatch.setattr(heapq, "heappush", checked)
        _, trace = simulate(scenario, profile, policy, config)
        monkeypatch.undo()
        assert "cloud_complete" in {r.phase for r in trace}
        assert max(sizes) > 1

    @staticmethod
    def queued_kinds(monkeypatch, scenario, profile, policy) -> list:
        """The kind of each event the run puts on the heap, in order."""
        kinds = []

        def counting(call):
            def wrapper(heap, item):
                kinds.append(item[2])
                return call(heap, item)
            return wrapper

        monkeypatch.setattr(heapq, "heappush", counting(heapq.heappush))
        monkeypatch.setattr(heapq, "heapreplace", counting(heapq.heapreplace))
        metrics, _ = simulate(scenario, profile, policy)
        monkeypatch.undo()
        assert metrics.completed == len(scenario)
        return kinds

    def test_a_boundary_that_is_the_next_event_skips_the_heap(self, monkeypatch):
        # conv's deep FIFOs keep every unit busy, so most boundaries are next:
        # a task that goes through the heap at each boundary queues 4 events
        scenario = convolution_batch(2000)
        kinds = self.queued_kinds(monkeypatch, scenario, builtin_profiles()["sd820"],
                                  Policy(BasicPolicy.THROUGHPUT))
        assert len(kinds) <= 0.25 * len(scenario), len(kinds)

    def test_a_busy_unit_takes_its_next_task_off_the_heap(self, monkeypatch):
        # conv's deep FIFOs keep every unit busy, so a completing unit starts its
        # next task in place: only each unit's first task queues its first boundary
        profile = builtin_profiles()["sd820"]
        kinds = self.queued_kinds(monkeypatch, convolution_batch(2000), profile,
                                  Policy(BasicPolicy.THROUGHPUT))
        assert kinds.count(0) == len(profile.units), kinds

    def test_every_on_unit_free_call_starts_a_task(self, monkeypatch):
        # a unit is asked for its next task only when the HP queue or its FIFO holds one
        calls = 0
        original = simrt.scheduler.on_unit_free

        def counting(*args):
            nonlocal calls
            calls += 1
            return original(*args)

        monkeypatch.setattr(simrt.scheduler, "on_unit_free", counting)
        _, trace = simulate(*_robot_run())
        monkeypatch.undo()
        assert calls == sum(r.phase == "setup" for r in trace) == 768

    def test_records_at_one_instant_share_their_time_object(self):
        scenario, profile, policy, config = _robot_run()
        records = list(simulate(scenario, profile, policy, config).trace)
        assert len({id(r[0]) for r in records}) <= len({r[0] for r in records}) + len(scenario)


class TestOffPlan:
    """A phase boundary that fires at another time than the task's phase
    plan says is a broken engine invariant, at every local boundary. The
    engine crosses a boundary in place, off the heap, only when it is the
    next event, so the run starts a producer's two dependents on two units
    at the instant it completes: each of their boundaries ties with the
    other unit's and comes off the heap."""

    @staticmethod
    def two_unit_profile(kernel=100, xin=0, xout=0):
        return load_profile(json.dumps({
            "units": [{"kind": "CPU", "weight": 1}, {"kind": "DSP", "weight": 1}],
            "workloads": [{"name": "w"}],
            "costs": {f"w@{kind}": {"xfer_in_us": xin, "kernel_us": kernel,
                                    "xfer_out_us": xout, "energy_uj": 1}
                      for kind in ("CPU", "DSP")},
        }))

    @pytest.mark.parametrize("costs", [{"xin": 50, "xout": 50}, {"kernel": 0}],
                             ids=["timed", "zero-length"])
    @pytest.mark.parametrize("kind, phase", enumerate(simrt.engine._BOUNDARY_PHASES),
                             ids=simrt.engine._BOUNDARY_PHASES)
    def test_a_late_boundary_raises(self, monkeypatch, costs, kind, phase):
        def late(call):
            def queue(heap, item):
                return call(heap, (item[0] + 1, *item[1:]) if item[2] == kind else item)
            return queue

        profile = self.two_unit_profile(**costs)
        scenario = TaskGraph([rt(1), rt(2, deps=[1]), rt(3, deps=[1])])
        monkeypatch.setattr(heapq, "heappush", late(heapq.heappush))
        with pytest.raises(EngineError, match=f"entered {phase} at .* off its plan"):
            simulate(scenario, profile, Policy(BasicPolicy.LATENCY))


class TestInvariantChecks:
    """The engine's own consistency checks raise EngineError when an invariant
    breaks; each is reached here by breaking it through a wrapper."""

    def test_a_task_lost_from_its_queue_fails_the_quiescence_check(self, monkeypatch):
        original = simrt.scheduler.dispatch

        def losing(state, task, policy):
            route = original(state, task, policy)
            if task.id == 2:
                state.queues[route.unit].remove(task.id)
            return route

        monkeypatch.setattr(simrt.scheduler, "dispatch", losing)
        with pytest.raises(EngineError) as exc:
            simulate(convolution_batch(3), builtin_profiles()["sd820"], Policy(BasicPolicy.ENERGY))
        assert str(exc.value) == ("simulation did not quiesce: pending=[] running=[2] "
                                  "buffers_in_use=0")

    def test_skipping_a_dispatched_task_raises(self, monkeypatch):
        original = simrt.engine._Engine._dispatch

        def skipping(self, tid, now):
            original(self, tid, now)
            self._skip(tid)

        monkeypatch.setattr(simrt.engine._Engine, "_dispatch", skipping)
        with pytest.raises(EngineError) as exc:
            simulate(convolution_batch(3), builtin_profiles()["sd820"], Policy(BasicPolicy.ENERGY))
        assert str(exc.value) == "cannot skip task 1: already dispatched"


class TestDependencyIndex:
    """A graph is checked once, when it is built: it keeps the dependency
    index that every run on the graph reads and never changes."""

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
        with pytest.raises(error):  # so no run ever sees it
            TaskGraph(tasks)

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
              for t, tid, workload, unit, phase in trace]
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

    def test_odd_hand_built_values_format_as_an_f_string_does(self):
        """`%s` and `format(x, "")` agree on every type a trace row can hold."""
        rows = [(0, 3, "w", None, "setup"), (10 ** 20, 7, "a b", "HP", "dispatch")]
        expected = "".join([simrt.engine.CSV_HEADER + "\n"] +
                           [f"{t},{tid},{workload},{unit},{phase}\n"
                            for t, tid, workload, unit, phase in rows])
        trace = Trace(rows)
        assert trace.to_csv() == expected
        assert expected.endswith("\n0,3,w,None,setup\n"
                                 "100000000000000000000,7,a b,HP,dispatch\n")
        assert list(trace) == [TraceRecord(*row) for row in rows]

    def test_a_trace_rebuilt_from_its_records_writes_the_same_csv(self):
        scenario, profile, policy, config = golden_cases()["robot-adv-throughput-buf4"]
        _, trace = simulate(scenario, profile, policy, config)
        rebuilt = Trace(trace)
        assert rebuilt.to_csv() == trace.to_csv()
        assert list(rebuilt) == list(trace) and len(rebuilt) == len(trace)


class TestTraceRows:
    """A hand-built Trace takes rows of exactly five fields; its flat list
    would shift every later field after a short or long row."""

    @pytest.mark.parametrize("rows, message", [
        ([(0, 1, "fc6", "CPU")], "trace row 0 must hold 5 fields, got 4"),
        ([(0, 1, "fc6", "CPU", "dispatch", "x")], "trace row 0 must hold 5 fields, got 6"),
        ([(0, 1, "fc6", "CPU", "dispatch"), (9, 1, "fc6", "CPU")],
         "trace row 1 must hold 5 fields, got 4"),
    ], ids=["4-fields", "6-fields", "second-row"])
    @pytest.mark.parametrize("read", [
        lambda trace, scenario, profile: audit.audit_all(trace, scenario, profile),
        lambda trace, scenario, profile: compute_metrics(trace, profile, SimConfig(), scenario),
        lambda trace, scenario, profile: trace.to_csv(),
    ], ids=["audit_all", "compute_metrics", "to_csv"])
    def test_a_row_without_five_fields_is_named(self, rows, message, read):
        scenario, profile = convolution_batch(1), builtin_profiles()["sd820"]
        with pytest.raises(InvalidConfig) as exc:
            read(Trace(rows), scenario, profile)
        assert str(exc.value) == message

    @pytest.mark.parametrize("rows, message", [
        ([("920", 1, "fc6", "CPU", "dispatch")], "trace row 0: time_us must be an int, got '920'"),
        ([(2.5, 1, "fc6", "CPU", "dispatch")], "trace row 0: time_us must be an int, got 2.5"),
        ([(0, True, "fc6", "CPU", "dispatch")], "trace row 0: task_id must be an int, got True"),
        ([(0, 1, "fc6", "CPU", "dispatch"), (9, None, "fc6", "CPU", "complete")],
         "trace row 1: task_id must be an int, got None"),
    ], ids=["str-time", "float-time", "bool-id", "second-row"])
    def test_a_time_or_task_id_that_is_not_an_int_is_named(self, rows, message):
        """The audits and compute_metrics compare and subtract these fields,
        so a string read from a CSV would end them in a bare TypeError."""
        with pytest.raises(InvalidConfig) as exc:
            Trace(rows)
        assert str(exc.value) == message
