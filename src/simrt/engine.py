"""Deterministic discrete-event simulator.

Tasks are routed by the scheduler at the instant they become ready
(dependencies met, release time reached). Each local execution walks the
setup / input-transfer / kernel / output-copy phases of its offload
breakdown; cloud executions complete after a sampled latency without
occupying a local unit. Image buffers are acquired when a producing task
completes and released as soon as the consuming task starts its kernel
phase; acquiring from a full pool drops the image and skips its
dependents.

Event ordering is total and reproducible: events fire in (time,
completions-before-releases, insertion sequence) order, so a run is a pure
function of (scenario, profile, policy, config) and two runs emit
byte-identical traces. Releases sit in one list stably sorted by release
time; a phase or cloud completion due later goes on a heap ordered by
(time, sequence), and one due at the current instant goes to a FIFO. The
loop runs the heap events due now (scheduled earlier, so older), then the
FIFO, and takes a release only when no completion is due at or before it.
"""

import heapq
import itertools
import random
from collections import deque
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

from . import scheduler as sched
from .errors import AuditError, EngineError, InvalidConfig, InvalidScenario, UnresolvableCost
from .profiles import (PlatformProfile, SetupMode, UnitKind, _check_setup_mode,
                       energy_of, offload_time)
from .scheduler import (Policy, RouteClass, SchedulerState, _check_flag, _check_weights,
                        _is_int_at_least)
from .tasks import TaskGraph, validate_graph

PHASE_DISPATCH = "dispatch"
PHASE_SETUP = "setup"
PHASE_XFER_IN = "xfer_in"
PHASE_KERNEL = "kernel"
PHASE_XFER_OUT = "xfer_out"
PHASE_COMPLETE = "complete"
PHASE_DROP = "drop"
PHASE_CLOUD_SUBMIT = "cloud_submit"
PHASE_CLOUD_COMPLETE = "cloud_complete"

# queue labels used in dispatch records for non-unit routes
LABEL_HP = "HP"
LABEL_CLOUD = "CLOUD"

_NO_RELEASE = (float("inf"), None)  # (time, task id) after the last release

_PENDING, _STARTED, _SKIPPED = range(3)  # a finished task stays _STARTED


class TraceRecord(NamedTuple):
    time_us: int
    task_id: int
    workload: str
    unit: str
    phase: str


CSV_HEADER = "time_us,task_id,workload,unit,phase"
_CSV_CHUNK_RECORDS = 1024  # bounds the line strings alive at once while writing CSV


class Trace:
    """Ordered, append-only record of simulation events. `records` holds plain
    (time_us, task_id, workload, unit, phase) tuples, which readers unpack;
    iterating a Trace yields them as `TraceRecord`s."""

    def __init__(self, records=None):
        self.records = list(records or [])

    def to_csv(self) -> str:
        return "".join(self._csv_chunks())

    def write_csv(self, fh) -> None:
        """Write the CSV that to_csv returns to a text file, chunk by chunk."""
        fh.writelines(self._csv_chunks())

    def _csv_chunks(self):
        yield CSV_HEADER + "\n"
        records = self.records
        for start in range(0, len(records), _CSV_CHUNK_RECORDS):
            yield "".join([f"{t},{tid},{workload},{unit},{phase}\n"
                           for t, tid, workload, unit, phase
                           in records[start:start + _CSV_CHUNK_RECORDS]])

    def __iter__(self):
        return map(TraceRecord._make, self.records)

    def __len__(self):
        return len(self.records)


def _records_of(trace: Trace | None) -> list:
    if trace is None:
        raise AuditError("no trace to read: the run was made with record_trace=False")
    return trace.records


@dataclass(frozen=True)
class SimConfig:
    setup_mode: SetupMode = SetupMode.AMORTIZED
    seed: int = 0
    buffer_capacity: int | None = None  # None: unlimited pool, no drops
    cloud_slots: int | None = None  # None: unlimited parallel cloud slots
    weights: dict | None = None  # slot overrides, e.g. {"g": 4, "d": 2, "c": 2}
    cloud_in_makespan: bool = True
    fpga_as_gpu: bool = False
    record_trace: bool = True  # False: simulate keeps no records and returns trace=None

    def __post_init__(self):
        _check_setup_mode(self.setup_mode)
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise InvalidConfig(f"seed must be an integer, got {self.seed!r}")
        for flag in ("cloud_in_makespan", "fpga_as_gpu", "record_trace"):
            _check_flag(flag, getattr(self, flag))
        if self.buffer_capacity is not None and not _is_int_at_least(self.buffer_capacity, 0):
            raise InvalidConfig(
                f"buffer_capacity must be None or an integer >= 0, got {self.buffer_capacity!r}")
        if self.cloud_slots is not None and not _is_int_at_least(self.cloud_slots, 1):
            raise InvalidConfig(
                f"cloud_slots must be None or an integer >= 1, got {self.cloud_slots!r}")
        _check_weights(self.weights)


@dataclass(frozen=True)
class Metrics:
    """Run summary: throughput, per-unit mean latency, energy, drops."""

    throughput_tasks_per_ms: float
    avg_latency_ms: dict
    total_energy_uj: int
    drops: int
    makespan_us: int
    completed: int
    skipped: int

    @property
    def total_energy_j(self) -> float:
        return self.total_energy_uj / 1_000_000

    def to_dict(self) -> dict:
        return {
            "throughput_tasks_per_ms": self.throughput_tasks_per_ms,
            "avg_latency_ms": dict(self.avg_latency_ms),
            "total_energy_j": self.total_energy_j,
            "total_energy_uj": self.total_energy_uj,
            "drops": self.drops,
            "makespan_us": self.makespan_us,
            "completed": self.completed,
            "skipped": self.skipped,
        }


class SimResult(NamedTuple):
    metrics: Metrics
    trace: Trace | None  # None when the config sets record_trace=False


def compute_metrics(trace: Trace, profile: PlatformProfile, config: SimConfig,
                    scenario: TaskGraph) -> Metrics:
    """Derive run metrics from a trace, independently of the engine, which
    accumulates the same metrics as it runs.

    Throughput is completed tasks per millisecond of makespan; latency is
    dispatch-to-completion, averaged per completing unit; energy sums each
    completed task's per-run energy plus any configured idle power over the
    makespan; skipped counts the scenario's tasks that never completed.
    """
    dispatch_t = {}
    completes = []
    drops = 0
    for time_us, tid, workload, unit, phase in _records_of(trace):
        if phase == PHASE_DISPATCH:
            dispatch_t[tid] = time_us
        elif phase == PHASE_COMPLETE:
            completes.append((tid, workload, unit, time_us))
        elif phase == PHASE_CLOUD_COMPLETE:
            completes.append((tid, workload, LABEL_CLOUD, time_us))
        elif phase == PHASE_DROP:
            drops += 1

    end_times = [t for (_, _, unit, t) in completes
                 if config.cloud_in_makespan or unit != LABEL_CLOUD]
    start = min(dispatch_t.values()) if dispatch_t else 0
    makespan = max(end_times) - start if end_times else 0

    latencies: dict = {}
    energy_memo: dict = {}  # (workload, unit label) -> per-run energy
    energy_uj = 0
    for tid, workload, unit, t in completes:
        latencies.setdefault(unit, []).append(t - dispatch_t[tid])
        if (workload, unit) not in energy_memo:
            kind = UnitKind.CLOUD if unit == LABEL_CLOUD else UnitKind.parse(unit)
            energy_memo[workload, unit] = energy_of(profile, workload, kind)
        energy_uj += energy_memo[workload, unit]

    idle_watts = sum(u.idle_watts for u in profile.units)
    if idle_watts:
        energy_uj += round(idle_watts * makespan)

    unit_order = [u.kind.value for u in profile.units] + [LABEL_CLOUD]
    avg_latency = {
        label: sum(vals) / len(vals) / 1000
        for label in unit_order
        if (vals := latencies.get(label))
    }

    completed = len(completes)
    throughput = completed / (makespan / 1000) if makespan else 0.0
    skipped = len(scenario) - completed
    return Metrics(
        throughput_tasks_per_ms=throughput,
        avg_latency_ms=avg_latency,
        total_energy_uj=energy_uj,
        drops=drops,
        makespan_us=makespan,
        completed=completed,
        skipped=skipped,
    )


def _phase_table(scenario: TaskGraph, profile: PlatformProfile, policy: Policy,
                 state: SchedulerState, setup_mode: SetupMode) -> dict:
    """unit -> {workload: ends of setup, xfer_in, kernel and xfer_out as offsets
    from the start, then the run's energy} per workload the policy can route to
    the unit; AMORTIZED pays no setup. Rejects a scenario that could route a task
    somewhere it cannot run; each distinct (workload, route class) is checked once."""
    table = {unit: {} for unit in state.units}
    needs_basic = False
    for workload, route in dict.fromkeys(
            (t.workload, sched.classify(t) if policy.advanced else RouteClass.BASIC)
            for t in scenario):
        if route is RouteClass.CLOUD:
            if not profile.has_cloud:
                raise UnresolvableCost(workload, UnitKind.CLOUD)
            continue
        units = [u for u in state.units if workload in state.runnable[u]]
        if route is RouteClass.HIGH_PRIORITY:
            if not units:
                raise UnresolvableCost(workload, "any participating unit")
        else:
            needs_basic = True
            for unit in state.units:
                if workload not in state.runnable[unit]:
                    raise UnresolvableCost(workload, unit)
        for unit in units:
            bd = offload_time(profile, workload, unit, setup_mode)
            table[unit][workload] = (*itertools.accumulate(
                (bd.setup_us, bd.xfer_in_us, bd.kernel_us, bd.xfer_out_us)),
                energy_of(profile, workload, unit))
    if needs_basic and not state.units:
        raise InvalidScenario("no participating local units with positive weight")
    return table


# a phase event's kind is the phase the task enters at that boundary;
# phase -> (index of its boundary in the phase plan, next phase)
_NEXT_PHASE = {PHASE_XFER_IN: (0, PHASE_KERNEL), PHASE_KERNEL: (1, PHASE_XFER_OUT),
               PHASE_XFER_OUT: (2, PHASE_COMPLETE)}


class _Engine:
    def __init__(self, scenario: TaskGraph, index: tuple, profile: PlatformProfile,
                 policy: Policy, config: SimConfig):
        self.scenario = scenario
        self.profile = profile
        self.policy = policy
        self.config = config
        self.rng = random.Random(config.seed)
        self.state = SchedulerState(profile, weights=config.weights,
                                    fpga_as_gpu=config.fpga_as_gpu)
        self.table = _phase_table(scenario, profile, policy, self.state, config.setup_mode)
        self.labels = {u: u.value for u in self.state.units}
        self.trace = Trace() if config.record_trace else None
        # a zero-length deque discards what it is given: a no-op append that runs in C
        self._append = (self.trace.records if config.record_trace else deque(maxlen=0)).append
        # a local phase event names its unit, a cloud completion its task id
        self.heap = []  # (time, sequence, kind, unit or task id), due after the current instant
        self.due_now: deque = deque()  # (kind, unit or task id), due at the current instant
        self._seq = itertools.count()

        # validate_graph's shared index: the tables are only read, counts copied
        self.tasks, self.dependents, dep_counts = index
        self.status = dict.fromkeys(self.tasks, _PENDING)
        self.deps_left = dep_counts.copy()
        # producer id -> live consumer count; one entry per image buffer in use
        self.buffer_refs: dict = {}

        self.cloud_active = 0
        # unit -> (task id, label, workload, start, phase plan), or None when idle
        self.running: dict = dict.fromkeys(self.state.units)

        # run metrics, accumulated as events happen; compute_metrics re-derives them
        self.dispatched_at: dict = {}  # task id -> dispatch time, until it completes
        self.first_dispatch = self.last_end = None  # last_end: latest completion in the makespan
        self.cloud_energy = None  # looked up at the first cloud completion: it is flat
        # completing label -> [latency sum, completions], in the avg_latency_ms order
        self.latency = {label: [0, 0] for label in
                        [u.kind.value for u in profile.units] + [LABEL_CLOUD]}
        self.energy_uj = self.drops = 0

    # -- plumbing ---------------------------------------------------------

    def _push(self, time_us: int, now: int, kind: str, key) -> None:
        if time_us == now:
            self.due_now.append((kind, key))
        else:
            heapq.heappush(self.heap, (time_us, next(self._seq), kind, key))

    def _rec(self, time_us: int, task_id: int, unit: str, phase: str) -> None:
        self._append((time_us, task_id, self.tasks[task_id].workload, unit, phase))

    # -- dispatch and execution -------------------------------------------

    def run(self) -> SimResult:
        heap, due_now, pop = self.heap, self.due_now, heapq.heappop
        status, deps_left = self.status, self.deps_left
        releases = iter(sorted(((t.release_us, t.id) for t in self.scenario),
                               key=itemgetter(0)))
        release_at, release_tid = next(releases, _NO_RELEASE)
        now = 0
        while True:
            if heap and heap[0][0] == now:
                _, _, kind, key = pop(heap)
            elif due_now:
                kind, key = due_now.popleft()
            elif heap and heap[0][0] <= release_at:
                now, _, kind, key = pop(heap)
            elif release_tid is not None:
                now, tid = release_at, release_tid
                release_at, release_tid = next(releases, _NO_RELEASE)
                if status[tid] == _PENDING and not deps_left.get(tid):
                    self._dispatch(tid, now)
                continue
            else:
                break
            if kind == PHASE_COMPLETE:
                self._complete_local(key, now)
            elif kind == PHASE_CLOUD_COMPLETE:
                self._on_cloud_complete(key, now)
            else:
                self._on_phase(key, kind, now)

        leftover = [t for t, s in self.status.items() if s == _PENDING or t in self.dispatched_at]
        if leftover or self.buffer_refs:
            raise EngineError(
                f"simulation did not quiesce: pending={leftover} "
                f"buffers_in_use={len(self.buffer_refs)}")
        end = self.last_end
        makespan = end - self.first_dispatch if end is not None else 0
        idle_watts = sum(u.idle_watts for u in self.profile.units)
        completed = sum(count for _, count in self.latency.values())
        return SimResult(Metrics(
            throughput_tasks_per_ms=completed / (makespan / 1000) if makespan else 0.0,
            avg_latency_ms={label: total / count / 1000
                            for label, (total, count) in self.latency.items() if count},
            total_energy_uj=self.energy_uj + round(idle_watts * makespan),
            drops=self.drops, makespan_us=makespan, completed=completed,
            skipped=len(self.scenario) - completed), self.trace)

    def _dispatch(self, tid: int, now: int) -> None:
        route = sched.dispatch(self.state, self.tasks[tid], self.policy)
        self.status[tid] = _STARTED
        self.dispatched_at[tid] = now
        if self.first_dispatch is None:
            self.first_dispatch = now
        if route.target is RouteClass.CLOUD:
            self._rec(now, tid, LABEL_CLOUD, PHASE_DISPATCH)
            self._drain_cloud(now)
        elif route.target is RouteClass.HIGH_PRIORITY:
            self._rec(now, tid, LABEL_HP, PHASE_DISPATCH)
            self._kick(now)
        else:
            self._rec(now, tid, self.labels[route.unit], PHASE_DISPATCH)
            self._try_start(route.unit, now)

    def _kick(self, now: int) -> None:
        for unit in self.state.units:
            self._try_start(unit, now)

    def _try_start(self, unit: UnitKind, now: int) -> None:
        if self.running[unit] is not None:
            return
        hp = self.state.hp_queue
        hp_head = hp[0] if hp else None
        tid = sched.on_unit_free(self.state, unit, self.tasks)
        if tid is None:
            return
        self._start(tid, unit, now)
        if tid == hp_head and hp:
            # the new high-priority head may be runnable on another idle unit
            self._kick(now)

    def _start(self, tid: int, unit: UnitKind, now: int) -> None:
        workload = self.tasks[tid].workload
        plan = self.table[unit][workload]
        label = self.labels[unit]
        self._append((now, tid, workload, label, PHASE_SETUP))
        self.running[unit] = (tid, label, workload, now, plan)
        self._push(now + plan[0], now, PHASE_XFER_IN, unit)

    def _on_phase(self, unit: UnitKind, phase: str, now: int) -> None:
        tid, label, workload, start, plan = self.running[unit]
        index, next_phase = _NEXT_PHASE[phase]
        if start + plan[index] != now:
            raise EngineError(f"task {tid} entered {phase} at {now}, "
                              f"off its plan {start + plan[index]}")
        self._append((now, tid, workload, label, phase))
        if phase == PHASE_KERNEL:
            self._release_buffers_for(tid)
        self._push(start + plan[index + 1], now, next_phase, unit)

    def _release_buffers_for(self, tid: int) -> None:
        task, refs = self.tasks[tid], self.buffer_refs
        for producer in task.deps if task.tags.image_input else ():
            if producer in refs:
                refs[producer] -= 1
                if refs[producer] == 0:
                    del refs[producer]

    def _complete_local(self, unit: UnitKind, now: int) -> None:
        tid, label, workload, _, plan = self.running[unit]
        self.running[unit] = None
        self._append((now, tid, workload, label, PHASE_COMPLETE))
        self.last_end = now
        self._after_completion(tid, label, plan[4], now)
        self._try_start(unit, now)

    def _on_cloud_complete(self, tid: int, now: int) -> None:
        self._rec(now, tid, LABEL_CLOUD, PHASE_CLOUD_COMPLETE)
        if self.cloud_energy is None:
            self.cloud_energy = energy_of(self.profile, self.tasks[tid].workload, UnitKind.CLOUD)
        if self.config.cloud_in_makespan:
            self.last_end = now
        self.cloud_active -= 1
        self._after_completion(tid, LABEL_CLOUD, self.cloud_energy, now)
        self._drain_cloud(now)

    def _after_completion(self, tid: int, unit_label: str, energy_uj: int, now: int) -> None:
        totals = self.latency[unit_label]
        totals[0] += now - self.dispatched_at.pop(tid)
        totals[1] += 1
        self.energy_uj += energy_uj
        self._acquire_buffer(tid, unit_label, now)
        status, deps_left = self.status, self.deps_left
        for dep in self.dependents.get(tid, ()):
            deps_left[dep] -= 1
            if (status[dep] == _PENDING and deps_left[dep] == 0
                    and self.tasks[dep].release_us <= now):
                self._dispatch(dep, now)

    def _acquire_buffer(self, tid: int, unit_label: str, now: int) -> None:
        consumers = [c for c in self.dependents.get(tid, ())
                     if self.tasks[c].tags.image_input and self.status[c] != _SKIPPED]
        if not consumers:
            return
        capacity = self.config.buffer_capacity
        if capacity is None or len(self.buffer_refs) < capacity:
            self.buffer_refs[tid] = len(consumers)
        else:
            self._rec(now, tid, unit_label, PHASE_DROP)
            self.drops += 1
            for consumer in consumers:
                self._skip(consumer)

    def _skip(self, tid: int) -> None:
        stack = [tid]
        while stack:
            cur = stack.pop()
            if self.status[cur] == _SKIPPED:
                continue
            if self.status[cur] != _PENDING:
                raise EngineError(f"cannot skip task {cur}: already dispatched")
            self.status[cur] = _SKIPPED
            self._release_buffers_for(cur)
            for dep in self.dependents.get(cur, ()):
                if self.status[dep] == _PENDING:
                    stack.append(dep)

    def _drain_cloud(self, now: int) -> None:
        slots = self.config.cloud_slots
        while self.state.cloud_queue and (slots is None or self.cloud_active < slots):
            tid = self.state.cloud_queue.popleft()
            self.cloud_active += 1
            self._rec(now, tid, LABEL_CLOUD, PHASE_CLOUD_SUBMIT)
            # an image consumer needs its input only until upload
            self._release_buffers_for(tid)
            lo, hi = self.profile.cloud_latency_us
            self._push(now + self.rng.randint(lo, hi), now, PHASE_CLOUD_COMPLETE, tid)


def simulate(scenario: TaskGraph, profile: PlatformProfile, policy: Policy,
             config: SimConfig = SimConfig()) -> SimResult:
    """Run a scenario to quiescence and return (Metrics, Trace), or
    (Metrics, None) when the config sets record_trace=False.

    The result is a pure function of the arguments: identical inputs and
    seed produce identical metrics and a byte-identical trace.
    """
    return _Engine(scenario, validate_graph(scenario), profile, policy, config).run()
