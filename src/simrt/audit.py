"""Trace audits: structural invariants every simulation run must satisfy.

These replay an emitted trace against the scenario and profile it came
from and raise AuditError on the first violation. They are intentionally
independent of the engine internals: everything is reconstructed from the
records alone.
"""

from collections import deque

from .engine import (LABEL_CLOUD, LABEL_HP, PHASE_CLOUD_COMPLETE,
                     PHASE_CLOUD_SUBMIT, PHASE_COMPLETE, PHASE_DISPATCH,
                     PHASE_DROP, PHASE_KERNEL, PHASE_SETUP, PHASE_XFER_IN,
                     PHASE_XFER_OUT, Trace)
from .errors import AuditError
from .profiles import PlatformProfile, UnitKind
from .scheduler import SchedulerState
from .tasks import TaskGraph

_LOCAL_ORDER = (PHASE_DISPATCH, PHASE_SETUP, PHASE_XFER_IN, PHASE_KERNEL,
                PHASE_XFER_OUT, PHASE_COMPLETE)


def audit_phase_order(trace: Trace) -> None:
    """Per task, phases appear exactly once, in order, at non-decreasing times."""
    seen: dict = {}
    for r in trace:
        if r.phase in (PHASE_DROP,):
            continue
        phases = seen.setdefault(r.task_id, [])
        phases.append((r.phase, r.time_us))
    for tid, phases in seen.items():
        names = [p for p, _ in phases]
        times = [t for _, t in phases]
        if times != sorted(times):
            raise AuditError(f"task {tid}: phase timestamps decrease: {phases}")
        if names[0] != PHASE_DISPATCH:
            raise AuditError(f"task {tid}: first record is {names[0]}, not dispatch")
        if PHASE_CLOUD_SUBMIT in names:
            expect = [PHASE_DISPATCH, PHASE_CLOUD_SUBMIT, PHASE_CLOUD_COMPLETE]
        else:
            expect = list(_LOCAL_ORDER)
        if names != expect:
            raise AuditError(f"task {tid}: phase sequence {names} != {expect}")


def audit_unit_exclusivity(trace: Trace) -> None:
    """A local unit never runs two tasks at once."""
    running: dict = {}  # unit -> (task, setup time)
    last_end: dict = {}  # unit -> latest completion time
    for r in trace:
        if r.unit in (LABEL_HP, LABEL_CLOUD):
            continue
        if r.phase == PHASE_SETUP:
            if r.unit in running:
                other, since = running[r.unit]
                raise AuditError(
                    f"unit {r.unit}: task {r.task_id} starts at {r.time_us} while "
                    f"task {other} (running since {since}) has not completed")
            if r.time_us < last_end.get(r.unit, 0):
                raise AuditError(
                    f"unit {r.unit}: task {r.task_id} starts at {r.time_us}, before "
                    f"the previous occupant completed at {last_end[r.unit]}")
            running[r.unit] = (r.task_id, r.time_us)
        elif r.phase == PHASE_COMPLETE:
            if r.unit not in running or running[r.unit][0] != r.task_id:
                raise AuditError(
                    f"unit {r.unit}: completion of task {r.task_id} at {r.time_us} "
                    f"does not match the running task {running.get(r.unit)}")
            del running[r.unit]
            last_end[r.unit] = r.time_us
    if running:
        raise AuditError(f"tasks still running at end of trace: {running}")


def audit_causality(trace: Trace, scenario: TaskGraph) -> None:
    """No task starts before its release time and all dependency completions."""
    done_at: dict = {}
    started_at: dict = {}
    for r in trace:
        if r.phase in (PHASE_COMPLETE, PHASE_CLOUD_COMPLETE):
            done_at[r.task_id] = r.time_us
        elif r.phase in (PHASE_SETUP, PHASE_CLOUD_SUBMIT):
            started_at[r.task_id] = r.time_us
    for tid, start in started_at.items():
        task = scenario.task(tid)
        if start < task.release_us:
            raise AuditError(
                f"task {tid} starts at {start} before release {task.release_us}")
        for dep in sorted(task.deps):
            if dep not in done_at:
                raise AuditError(f"task {tid} ran but dependency {dep} never completed")
            if start < done_at[dep]:
                raise AuditError(
                    f"task {tid} starts at {start} before dependency {dep} "
                    f"completes at {done_at[dep]}")


def audit_work_conservation(trace: Trace, profile: PlatformProfile,
                            weights: dict | None = None,
                            fpga_as_gpu: bool = False) -> None:
    """No participating unit sits idle across a time step while its own FIFO
    holds a task or the high-priority queue head is runnable on it."""
    state = SchedulerState(profile, weights=weights, fpga_as_gpu=fpga_as_gpu)
    fifos: dict = {u.value: deque() for u in state.units}
    hp: deque = deque()
    busy: dict = {label: False for label in fifos}
    workload_of: dict = {}
    runnable: dict = {}  # (workload, unit label) -> profile.resolvable

    def check_idle(now: int) -> None:
        for unit, fifo in fifos.items():
            if busy[unit]:
                continue
            if fifo:
                raise AuditError(
                    f"unit {unit} idle at {now} with queued tasks {list(fifo)}")
            if hp:
                head = hp[0]
                key = (workload_of[head], unit)
                if key not in runnable:
                    runnable[key] = profile.resolvable(key[0], UnitKind.parse(unit))
                if runnable[key]:
                    raise AuditError(
                        f"unit {unit} idle at {now} while high-priority head "
                        f"{head} is runnable on it")

    prev_time = None
    for r in trace:
        if prev_time is not None and r.time_us > prev_time:
            check_idle(prev_time)
        prev_time = r.time_us
        workload_of.setdefault(r.task_id, r.workload)
        if r.phase == PHASE_DISPATCH:
            if r.unit == LABEL_HP:
                hp.append(r.task_id)
            elif r.unit != LABEL_CLOUD:
                if r.unit not in fifos:
                    raise AuditError(
                        f"task {r.task_id} dispatched to non-participating unit {r.unit}")
                fifos[r.unit].append(r.task_id)
        elif r.phase == PHASE_SETUP:
            fifo = fifos.get(r.unit)
            if fifo is None:
                raise AuditError(f"task {r.task_id} ran on non-participating unit {r.unit}")
            if hp and hp[0] == r.task_id:
                hp.popleft()
            elif fifo and fifo[0] == r.task_id:
                fifo.popleft()
            elif r.task_id in fifo:
                raise AuditError(
                    f"unit {r.unit} started {r.task_id} out of FIFO order; "
                    f"queue was {list(fifo)}")
            else:
                raise AuditError(
                    f"unit {r.unit} started task {r.task_id} that was not queued "
                    f"for it or at the high-priority head")
            busy[r.unit] = True
        elif r.phase == PHASE_COMPLETE:
            busy[r.unit] = False
    if prev_time is not None:
        check_idle(prev_time)


def audit_all(trace: Trace, scenario: TaskGraph, profile: PlatformProfile,
              weights: dict | None = None, fpga_as_gpu: bool = False) -> None:
    """Run every audit; raises AuditError on the first violation."""
    audit_phase_order(trace)
    audit_unit_exclusivity(trace)
    audit_causality(trace, scenario)
    audit_work_conservation(trace, profile, weights=weights, fpga_as_gpu=fpga_as_gpu)
