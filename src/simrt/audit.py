"""Trace audits: structural invariants every simulation run must satisfy.

These replay an emitted trace against the scenario and profile it came
from and raise AuditError on the first violation. They are intentionally
independent of the engine internals: everything is reconstructed from the
records alone. `audit_all` reads a trace once to decide it (`_passes`).
The five public audits are plain passes, each stating its rule as the
README words it; they run only to word a rejection, and are the readable
copy of the rules that the replay is tested against.
"""

from collections import deque

from .engine import (LABEL_CLOUD, LABEL_HP, PHASE_CLOUD_COMPLETE,
                     PHASE_CLOUD_SUBMIT, PHASE_COMPLETE, PHASE_DISPATCH,
                     PHASE_DROP, PHASE_KERNEL, PHASE_SETUP, PHASE_XFER_IN,
                     PHASE_XFER_OUT, Trace, _records_of)
from .errors import AuditError, _check_types
from .profiles import PlatformProfile
from .scheduler import SchedulerState
from .tasks import TaskGraph, _id_order, validate_graph

# phase -> phases a task may record next; the last is terminal
_NEXT_ALLOWED = {
    PHASE_DISPATCH: (PHASE_SETUP, PHASE_CLOUD_SUBMIT), PHASE_SETUP: (PHASE_XFER_IN,),
    PHASE_XFER_IN: (PHASE_KERNEL,), PHASE_KERNEL: (PHASE_XFER_OUT,),
    PHASE_XFER_OUT: (PHASE_COMPLETE,), PHASE_COMPLETE: (),
    PHASE_CLOUD_SUBMIT: (PHASE_CLOUD_COMPLETE,), PHASE_CLOUD_COMPLETE: (),
}
_SHARED_LABELS = (LABEL_HP, LABEL_CLOUD)  # queues, not units a task occupies


def audit_phase_order(trace: Trace) -> None:
    """Per task, phases appear exactly once, in order, at non-decreasing times."""
    last: dict = {}  # task id -> (last phase, its time)
    for time_us, tid, _, _, phase in _records_of(trace):
        if phase == PHASE_DROP:  # a drop is no phase of its task
            continue
        if tid not in last:
            if phase != PHASE_DISPATCH:
                raise AuditError(f"task {tid}: first record is {phase}, not dispatch")
        else:
            prev_phase, prev_time = last[tid]
            if time_us < prev_time:
                raise AuditError(f"task {tid}: {phase} at {time_us} after "
                                 f"{prev_phase} at {prev_time}")
            if phase not in _NEXT_ALLOWED[prev_phase]:
                raise AuditError(f"task {tid}: {phase} follows {prev_phase}")
        last[tid] = (phase, time_us)
    for tid, (phase, _) in last.items():
        if _NEXT_ALLOWED[phase]:
            raise AuditError(f"task {tid}: phase sequence ends at {phase}")


def audit_unit_exclusivity(trace: Trace) -> None:
    """A local unit never runs two tasks at once."""
    running: dict = {}  # unit -> (task, setup time)
    last_end: dict = {}  # unit -> latest completion time
    for time_us, tid, _, unit, phase in _records_of(trace):
        if unit in _SHARED_LABELS:
            continue
        if phase == PHASE_SETUP:
            if unit in running:
                other, since = running[unit]
                raise AuditError(
                    f"unit {unit}: task {tid} starts at {time_us} while "
                    f"task {other} (running since {since}) has not completed")
            if unit in last_end and time_us < last_end[unit]:
                raise AuditError(
                    f"unit {unit}: task {tid} starts at {time_us}, before "
                    f"the previous occupant completed at {last_end[unit]}")
            running[unit] = (tid, time_us)
        elif phase == PHASE_COMPLETE:
            if unit not in running or running[unit][0] != tid:
                raise AuditError(
                    f"unit {unit}: completion of task {tid} at {time_us} "
                    f"does not match the running task {running.get(unit)}")
            del running[unit]
            last_end[unit] = time_us
    if running:
        raise AuditError(f"tasks still running at end of trace: {running}")


def audit_causality(trace: Trace, scenario: TaskGraph) -> None:
    """No task starts before its release time and all dependency completions."""
    _check_types(("scenario", scenario, TaskGraph))
    done_at: dict = {}
    started_at: dict = {}
    for time_us, tid, _, _, phase in _records_of(trace):
        if phase == PHASE_COMPLETE or phase == PHASE_CLOUD_COMPLETE:
            done_at[tid] = time_us
        elif phase == PHASE_SETUP or phase == PHASE_CLOUD_SUBMIT:
            started_at[tid] = time_us
    for tid, start in started_at.items():
        try:
            task = scenario.task(tid)
        except KeyError:
            raise AuditError(f"task {tid} is not in the scenario") from None
        if start < task.release_us:
            raise AuditError(
                f"task {tid} starts at {start} before release {task.release_us}")
        # the first failing dep in id order
        for dep in sorted((d for d in task.deps if d not in done_at or start < done_at[d]),
                          key=_id_order):
            if dep not in done_at:
                raise AuditError(f"task {tid} ran but dependency {dep} never completed")
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
    hp: deque = deque()  # (task id, workload)
    busy: dict = {label: False for label in fifos}
    runnable: dict = {u.value: state.runnable[u] for u in state.units}

    def check_idle(now) -> None:
        for unit, fifo in fifos.items():
            if busy[unit]:
                continue
            if fifo:
                raise AuditError(
                    f"unit {unit} idle at {now} with queued tasks {list(fifo)}")
            if hp and hp[0][1] in runnable[unit]:
                raise AuditError(
                    f"unit {unit} idle at {now} while high-priority head "
                    f"{hp[0][0]} is runnable on it")

    now = None  # the time of the step being read
    for time_us, tid, workload, unit, phase in _records_of(trace):
        if now is not None and time_us > now:  # the step at `now` has ended
            check_idle(now)
        now = time_us
        if phase == PHASE_DISPATCH:
            if unit == LABEL_HP:
                hp.append((tid, workload))
            elif unit != LABEL_CLOUD:
                if unit not in fifos:
                    raise AuditError(
                        f"task {tid} dispatched to non-participating unit {unit}")
                fifos[unit].append(tid)
        elif phase == PHASE_SETUP:
            fifo = fifos.get(unit)
            if fifo is None:
                raise AuditError(f"task {tid} ran on non-participating unit {unit}")
            if hp and hp[0][0] == tid:
                hp.popleft()
            elif fifo and fifo[0] == tid:
                fifo.popleft()
            elif tid in fifo:
                raise AuditError(
                    f"unit {unit} started {tid} out of FIFO order; "
                    f"queue was {list(fifo)}")
            else:
                raise AuditError(
                    f"unit {unit} started task {tid} that was not queued "
                    f"for it or at the high-priority head")
            busy[unit] = True
        elif phase == PHASE_COMPLETE:
            busy[unit] = False
    check_idle(now)  # the last step ends with the trace


def audit_completeness(trace: Trace, scenario: TaskGraph) -> None:
    """Every scenario task completes, or it has no record and either a dependency
    with no completion record or, as an image consumer, one with a drop record."""
    _check_types(("scenario", scenario, TaskGraph))
    recorded, ended, dropped = set(), set(), set()
    for _, tid, _, _, phase in _records_of(trace):
        (dropped if phase == PHASE_DROP else recorded).add(tid)
        if phase == PHASE_COMPLETE or phase == PHASE_CLOUD_COMPLETE:
            ended.add(tid)
    for task in scenario:
        if task.id in recorded and task.id not in ended:
            raise AuditError(f"task {task.id} has records but never completes")
    if (task := _unskipped(scenario, ended, dropped)) is not None:
        raise AuditError(f"task {task.id} never runs, though every dependency "
                         f"completes and none drops an image it consumes")


def _unskipped(tasks, ended: set, dropped: set):
    """The first of `tasks` not in `ended` that the engine would not skip, or None."""
    return next((t for t in tasks if t.id not in ended and ended.issuperset(t.deps) and not (
        t.tags.image_input and not dropped.isdisjoint(t.deps))), None)


def _passes(trace: Trace, scenario: TaskGraph, profile: PlatformProfile,
            weights: dict | None, fpga_as_gpu: bool) -> bool:
    """True only for a trace that all five audits accept, read in one pass;
    False, or an exception, for any other, with no message worded. It asks more
    than they do, which only a trace the engine did not make can fail: times
    never fall across the trace, a start follows its dependencies' completion
    records and no task is left queued or at the HP head. While a task waits,
    an instant's end checks only the units it touched: one dispatched a FIFO
    task, one completing while its FIFO or the HP queue holds a task, and all
    when the HP queue gets a new head. That is exact: no other event gives an
    idle unit that passed the last check a FIFO task or a head it can run."""
    records = _records_of(trace)
    tasks = validate_graph(scenario)[0]  # task by id
    state = SchedulerState(profile, weights=weights, fpga_as_gpu=fpga_as_gpu)
    fifos, runnable = {}, {}  # unit label -> queued task ids, workloads it can run
    for unit in state.units:  # loops, not comprehensions: no cells in this function
        fifos[unit.value] = deque()
        runnable[unit.value] = state.runnable[unit]
    hp: deque = deque()  # (task id, workload)
    last: dict = {}  # task id -> its last phase
    running: dict = {}  # unit label -> its task, while it runs one
    ended, dropped = set(), set()  # ids of the tasks with a completion, a drop record
    dispatch, setup, submit, drop = PHASE_DISPATCH, PHASE_SETUP, PHASE_CLOUD_SUBMIT, PHASE_DROP
    (xfer_in,), (cloud_complete,) = _NEXT_ALLOWED[setup], _NEXT_ALLOWED[submit]
    (kernel,) = _NEXT_ALLOWED[xfer_in]  # each phase read from the one before it
    (xfer_out,) = _NEXT_ALLOWED[kernel]
    (complete,) = _NEXT_ALLOWED[xfer_out]
    now = float("-inf")
    touched: list = []  # labels of the units this instant touched, repeats allowed
    queued = 0  # tasks in the unit FIFOs
    for time_us, tid, workload, unit, phase in records:
        if time_us != now:
            if not time_us > now:  # earlier, or unordered (NaN)
                return False
            if touched:
                if queued or hp:  # audit_work_conservation's step-end check
                    for label in touched:
                        if label not in running and (
                                fifos[label] or hp and hp[0][1] in runnable[label]):
                            return False
                touched = []
            now = time_us
        if phase == xfer_in:
            if last[tid] != setup:
                return False
            last[tid] = phase
        elif phase == kernel:
            if last[tid] != xfer_in:
                return False
            last[tid] = phase
        elif phase == xfer_out:
            if last[tid] != kernel:
                return False
            last[tid] = phase
        elif phase == dispatch:
            if tid in last:
                return False
            last[tid] = phase
            if unit == LABEL_HP:
                if not hp:
                    touched.extend(fifos)
                hp.append((tid, workload))
            elif unit != LABEL_CLOUD:
                fifos[unit].append(tid)
                queued += 1
                touched.append(unit)
        elif phase == complete:
            if last[tid] != xfer_out or running.pop(unit) != tid:
                return False
            last[tid] = phase
            ended.add(tid)
            if fifos[unit] or hp:
                touched.append(unit)
        elif phase == setup or phase == submit:
            if last[tid] != dispatch:
                return False
            last[tid] = phase
            task = tasks[tid]
            if time_us < task.release_us or task.deps and not task.deps <= ended:
                return False
            if phase == setup:
                fifo = fifos[unit]
                if hp and hp[0][0] == tid:
                    hp.popleft()
                    if hp:
                        touched.extend(fifos)
                elif fifo and fifo[0] == tid:
                    fifo.popleft()
                    queued -= 1
                else:
                    return False
                running[unit] = tid  # on a busy unit, its task's completion cannot match
        elif phase == cloud_complete:
            if last[tid] != submit:
                return False
            last[tid] = phase
            ended.add(tid)
        elif phase == drop:  # a drop is no phase of its task
            dropped.add(tid)
        else:
            return False
    return not (running or queued or hp) and len(ended) == len(last) and (
        len(ended) == len(tasks) or _unskipped(tasks.values(), ended, dropped) is None)


def audit_all(trace: Trace, scenario: TaskGraph, profile: PlatformProfile,
              weights: dict | None = None, fpga_as_gpu: bool = False) -> None:
    """Run every audit; raises AuditError on the first violation. One replay
    decides a trace that passes; any other goes through the five audits in
    turn, so the error raised is the first one they raise."""
    _check_types(("scenario", scenario, TaskGraph), ("profile", profile, PlatformProfile))
    try:
        if _passes(trace, scenario, profile, weights, fpga_as_gpu):
            return
    except Exception:  # a trace the replay cannot read: the audits below decide it
        pass
    audit_phase_order(trace)
    audit_unit_exclusivity(trace)
    audit_causality(trace, scenario)
    audit_work_conservation(trace, profile, weights=weights, fpga_as_gpu=fpga_as_gpu)
    audit_completeness(trace, scenario)
