"""`audit_all` decides a trace with one replay of its records, and runs the
five audits only to word a rejection.

A replay that handed every trace over to the audits would keep every
verdict and message, so every other test would pass while the one-pass
saving was lost. Here the five audits raise, so `audit_all` passes only
what the replay accepts by itself. The replay must also be sound: every
mutated trace it accepts, all five audits accept, so a later audit made
stricter fails here rather than only moving the audit-surface digest. Its
per-record loop is checked for cell variables, which a comprehension or
closure over its locals would add, and which slow every read of those
locals.
"""

import random
from itertools import islice
from operator import itemgetter

import pytest

from simrt import (AuditError, InvalidConfig, Policy, SimConfig, SimrtError, Task, TaskGraph,
                   TaskTags, Trace, audit, builtin_profiles, convolution_batch, robot_pipeline,
                   simulate)

from .randcases import hp_case, random_case
from .test_audit_surface import mutants
from .golden import _cases

_AUDITS = ("audit_phase_order", "audit_unit_exclusivity", "audit_causality",
           "audit_work_conservation", "audit_completeness")


def _unused(*args, **kwargs):
    raise AssertionError("audit_all handed an engine trace over to the five audits")


def test_the_replay_alone_passes_every_engine_trace(monkeypatch):
    for name in _AUDITS:
        monkeypatch.setattr(audit, name, _unused)
    cases = [*_cases().values(), *map(random_case, range(1000)), *map(hp_case, range(2000))]
    traces = 0
    for scenario, profile, policy, config in cases:
        try:
            _, trace = simulate(scenario, profile, policy, config)
        except SimrtError:
            continue
        audit.audit_all(trace, scenario, profile, weights=config.weights,
                        fpga_as_gpu=config.fpga_as_gpu)
        traces += 1
    assert traces > 2500, traces  # the golden cases and most generated ones simulate


def _first_error(check) -> tuple:
    with pytest.raises(Exception) as exc:
        check()
    return type(exc.value), str(exc.value)


@pytest.mark.parametrize("records, weights, error, message", [
    ("engine", {"g": -1}, InvalidConfig, "weights: bad item 'g': -1; "),
    ("no setup", {"g": -1}, AuditError, "task 1: xfer_in follows dispatch"),
    ("no setup", None, AuditError, "task 1: xfer_in follows dispatch"),
    (None, None, AuditError, "no trace to read: the run was made with record_trace=False"),
    # a phase the replay does not know, as a task's first record and after its setup
    (0, None, AuditError, "task 1: first record is teleport, not dispatch"),
    (2, None, AuditError, "task 1: teleport follows setup"),
])
def test_a_rejected_trace_raises_what_the_five_audits_raise_first(records, weights, error,
                                                                   message):
    scenario, profile = convolution_batch(2), builtin_profiles()["sd820"]
    config = SimConfig(record_trace=records is not None)
    _, trace = simulate(scenario, profile, Policy.parse("throughput"), config)
    if records == "no setup":  # the task of the first record loses its setup
        first = next(iter(trace)).task_id
        trace = Trace([r for r in trace if not (r.task_id == first and r.phase == "setup")])
    if isinstance(records, int):  # task 1 records teleport there: a rejection, not an error
        rows = list(trace)
        rows.insert(records, (*rows[0][:4], "teleport"))
        trace = Trace(rows)
        assert audit._passes(trace, scenario, profile, weights, False) is False
    kind, text = _first_error(lambda: audit.audit_all(trace, scenario, profile,
                                                      weights=weights))
    assert kind is error and text.startswith(message), (kind, text)

    def five_audits():
        audit.audit_phase_order(trace)
        audit.audit_unit_exclusivity(trace)
        audit.audit_causality(trace, scenario)
        audit.audit_work_conservation(trace, profile, weights=weights)
        audit.audit_completeness(trace, scenario)
    assert _first_error(five_audits) == (kind, text)


def _moved_earlier(seed: int, records: list) -> list:
    """The records with every record of one seeded task 100 us earlier,
    in time order: a mutation that keeps the trace's times non-decreasing."""
    tid = random.Random(seed).choice(records)[1] if records else None
    return sorted(((t - 100 if i == tid else t, i, w, u, p) for t, i, w, u, p in records),
                  key=itemgetter(0))


def _started_late(seed: int, records: list) -> list:
    """The records with one seeded task's setup ... complete records 100 us
    later, in time order: its unit may sit idle while the task is queued."""
    local = ("setup", "xfer_in", "kernel", "xfer_out", "complete")
    started = [r[1] for r in records if r[4] == "setup"]
    tid = random.Random(seed).choice(started) if started else None
    return sorted(((t + 100 if i == tid and p in local else t, i, w, u, p)
                   for t, i, w, u, p in records), key=itemgetter(0))


def test_every_trace_the_replay_accepts_passes_the_five_audits():
    accepted = rejected = 0
    for case, seed in [*((random_case, s) for s in range(1000, 1300)),
                       *((hp_case, s) for s in range(200))]:
        scenario, profile, policy, config = case(seed)
        try:
            _, trace = simulate(scenario, profile, policy, config)
        except SimrtError:
            continue
        task_ids = sorted(task.id for task in scenario)
        weights, fpga_as_gpu = config.weights, config.fpga_as_gpu
        rows = list(trace)
        for records in [*islice(mutants(seed, rows, task_ids), 1, None),
                        _moved_earlier(seed, rows), _started_late(seed, rows)]:
            trace = Trace(records)
            try:
                if not audit._passes(trace, scenario, profile, weights, fpga_as_gpu):
                    rejected += 1
                    continue
            except Exception:
                rejected += 1
                continue
            accepted += 1
            audit.audit_phase_order(trace)
            audit.audit_unit_exclusivity(trace)
            audit.audit_causality(trace, scenario)
            audit.audit_work_conservation(trace, profile, weights=weights,
                                          fpga_as_gpu=fpga_as_gpu)
            audit.audit_completeness(trace, scenario)
    # both verdicts are common, so neither side of the check is vacuous
    assert accepted > 250 and rejected > 1000, (accepted, rejected)


def _dispatch(time_us: int, tid: int, workload: str, unit: str) -> tuple:
    return time_us, tid, workload, unit, "dispatch"


def _run(tid: int, workload: str, unit: str, start: int, end: int) -> list:
    """The records of a local run: every phase before completion at `start`."""
    return [*((start, tid, workload, unit, phase)
              for phase in ("setup", "xfer_in", "kernel", "xfer_out")),
            (end, tid, workload, unit, "complete")]


# sd820-robot runs update on every unit, undistort on the DSP only
_IDLE_CASES = {
    # (a) the CPU completes task 0 at 10 and starts its queued task 1 only at 20
    "completes, stays idle with a queued task": (
        ["update", "update"],
        [_dispatch(0, 0, "update", "CPU"), _dispatch(0, 1, "update", "CPU"),
         *_run(0, "update", "CPU", 0, 10), *_run(1, "update", "CPU", 20, 30)],
        "unit CPU idle at 10 with queued tasks [1]"),
    # (b) the idle CPU is queued task 0 at 5 and starts it only at 8
    "queued a task while idle": (
        ["update"],
        [_dispatch(5, 0, "update", "CPU"), *_run(0, "update", "CPU", 8, 18)],
        "unit CPU idle at 5 with queued tasks [0]"),
    # (c) the HP queue gets task 0 at 5, which the idle CPU starts only at 8
    "idle as the HP queue gets a head": (
        ["update"],
        [_dispatch(5, 0, "update", "HP"), *_run(0, "update", "CPU", 8, 18)],
        "unit CPU idle at 5 while high-priority head 0 is runnable on it"),
    # (c) the DSP starts HP head 0 at 10, and the idle CPU the new head 1 only at 20
    "idle as the HP head starts": (
        ["undistort", "update", "undistort"],
        [_dispatch(0, 2, "undistort", "DSP"), *_run(2, "undistort", "DSP", 0, 10),
         _dispatch(0, 0, "undistort", "HP"), _dispatch(0, 1, "update", "HP"),
         *_run(0, "undistort", "DSP", 10, 20), *_run(1, "update", "CPU", 20, 30)],
        "unit CPU idle at 10 while high-priority head 1 is runnable on it"),
    # (d) control: the DSP completes task 0 and starts its queued task 1 at 10;
    # the CPU and mGPU stay idle with nothing they could run
    "control: only another unit changes": (
        ["undistort", "undistort"],
        [_dispatch(0, 0, "undistort", "DSP"), _dispatch(0, 1, "undistort", "DSP"),
         *_run(0, "undistort", "DSP", 0, 10), *_run(1, "undistort", "DSP", 10, 20)],
        None),
}


@pytest.mark.parametrize("name", _IDLE_CASES)
def test_an_idle_unit_is_checked_when_its_instant_touched_it(name):
    workloads, records, message = _IDLE_CASES[name]
    scenario = TaskGraph(Task(tid, workload) for tid, workload in enumerate(workloads))
    profile = builtin_profiles()["sd820-robot"]
    trace = Trace(sorted(records, key=itemgetter(0)))  # stable: an instant keeps its order
    assert audit._passes(trace, scenario, profile, None, False) is (message is None)
    if message is None:
        audit.audit_all(trace, scenario, profile)
        return
    with pytest.raises(AuditError) as exc:
        audit.audit_all(trace, scenario, profile)
    assert str(exc.value) == message
    assert _first_error(lambda: audit.audit_work_conservation(trace, profile)) == (
        AuditError, message)


def _never_runs(tid: int) -> str:
    return (f"task {tid} never runs, though every dependency completes and none drops "
            f"an image it consumes")


@pytest.mark.parametrize("image_input, drop, message", [
    (True, True, None),  # task 1 is skipped for the dropped image, task 2 for task 1
    (False, True, _never_runs(1)),  # a drop skips only image consumers
    (True, False, _never_runs(1)),  # no drop: task 1 must run
])
def test_a_task_without_records_must_have_been_skipped(image_input, drop, message):
    scenario = TaskGraph([
        Task(0, "update"),
        Task(1, "undistort", TaskTags(image_input=image_input), frozenset({0})),
        Task(2, "update", deps=frozenset({1}))])
    profile = builtin_profiles()["sd820-robot"]
    trace = Trace([_dispatch(0, 0, "update", "DSP"), *_run(0, "update", "DSP", 0, 10),
                   *[(10, 0, "update", "DSP", "drop")] * drop])
    assert audit._passes(trace, scenario, profile, None, False) is (message is None)
    for check in (lambda: audit.audit_completeness(trace, scenario),
                  lambda: audit.audit_all(trace, scenario, profile)):
        if message is None:
            check()
        else:
            assert _first_error(check) == (AuditError, message)


def test_a_trace_that_leaves_out_a_task_is_rejected():
    kind, text = _first_error(lambda: audit.audit_all(
        Trace(), convolution_batch(1), builtin_profiles()["sd820"]))
    assert (kind, text) == (AuditError, _never_runs(1))
    scenario, profile = robot_pipeline(2, 25, 200, 3), builtin_profiles()["sd820-robot"]
    _, trace = simulate(scenario, profile, Policy.parse("advanced:throughput"),
                        SimConfig(buffer_capacity=4))
    trace = Trace(r for r in trace if r.task_id != 769)  # a cloud task's three records
    kind, text = _first_error(lambda: audit.audit_all(trace, scenario, profile))
    assert (kind, text) == (AuditError, _never_runs(769))
    # on its own the step also names a task with records that never completes,
    # which audit_all's phase-order check names first
    trace = Trace([(0, 1, "convolution", "CPU", "dispatch")])
    assert _first_error(lambda: audit.audit_completeness(trace, convolution_batch(1))) == (
        AuditError, "task 1 has records but never completes")


def test_dependency_ids_that_do_not_sort_pass_as_the_replay_passes_them():
    scenario = TaskGraph([Task("a", "convolution"), Task(1, "convolution"),
                          Task(2, "convolution", deps=frozenset({"a", 1}))])
    profile = builtin_profiles()["sd820"]
    _, trace = simulate(scenario, profile, Policy.parse("throughput"))
    assert audit._passes(trace, scenario, profile, None, False)
    audit.audit_causality(trace, scenario)  # sorts only the failing deps, here none
    audit.audit_all(trace, scenario, profile)


def test_the_replay_keeps_no_cells():
    assert audit._passes.__code__.co_cellvars == ()
