"""Deterministic discrete-event simulator.

Tasks are routed by the scheduler at the instant they become ready
(dependencies met, release time reached). Each local execution walks the
setup / input-transfer / kernel / output-copy phases of its offload
breakdown; cloud executions complete after a sampled latency without
occupying a local unit. Image buffers are acquired when a producing task
completes and released as soon as the consuming task starts its kernel
phase; acquiring from a full pool drops the image and skips its
dependents.

Event ordering is total and reproducible, so a run is a pure function of
(scenario, profile, policy, config) and two runs emit byte-identical traces.
Releases sit in one list stably sorted by release time; phase boundaries and
cloud completions go on one heap ordered by (time, sequence), and every
event leaves the heap before it is handled. A local event's kind is the
index (0-3) of the boundary it crosses in its unit's phase plan: into
xfer_in, kernel, xfer_out or complete; a cloud completion has a kind of its
own. Events due at an instant fire in the order they were scheduled; a
release fires only when no event is due at or before its time; releases
fire in scenario order. A unit's next boundary that is already the next
event by that rule (no other event due at or before it, no release first)
is crossed at once, without the heap, and takes no sequence number.
A unit that completes takes its own FIFO head in the same step, and that
task's first boundary follows the same rule; a start of the high-priority
head queues its first boundary, then offers the next head to idle units.
"""

import heapq
import itertools
import random
from collections import deque
from operator import itemgetter
from typing import NamedTuple

from . import scheduler as sched
from .errors import (AuditError, EngineError, InvalidConfig, InvalidScenario, UnresolvableCost,
                     _check_types)
from .profiles import (PlatformProfile, SetupMode, UnitKind, _check_setup_mode,
                       energy_of, offload_time)
from .scheduler import (_CLOUD, Policy, RouteClass, SchedulerState, _check_flag,
                        _check_weights, _is_int_at_least)
from .tasks import TaskGraph, _frozen, validate_graph

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


class TraceRecord(NamedTuple):
    time_us: int
    task_id: int
    workload: str
    unit: str
    phase: str


CSV_HEADER = "time_us,task_id,workload,unit,phase"
_FIELDS = 5  # fields per record in a Trace's flat list
_CSV_CHUNK_RECORDS = 1024  # bounds the line strings alive at once while writing CSV


class Trace:
    """Ordered, append-only record of simulation events, kept as one flat
    list of fields, five per record: no container per record. Iterating a
    Trace yields its records as `TraceRecord`s. `Trace(rows)` takes
    (time_us, task_id, workload, unit, phase) rows and rejects one without
    exactly five fields, or whose time_us or task_id is not an int."""

    def __init__(self, records=None):
        self._fields = fields = []
        for i, row in enumerate(records or ()):
            fields.extend(row)
            if len(fields) != _FIELDS * (i + 1):
                raise InvalidConfig(f"trace row {i} must hold {_FIELDS} fields, "
                                    f"got {len(fields) - _FIELDS * i}")
            for name, value in zip(("time_us", "task_id"), fields[-_FIELDS:]):
                if isinstance(value, bool) or not isinstance(value, int):
                    raise InvalidConfig(f"trace row {i}: {name} must be an int, got {value!r}")

    def to_csv(self) -> str:
        return "".join(self._csv_chunks())

    def write_csv(self, fh) -> None:
        """Write the CSV that to_csv returns to a text file, chunk by chunk."""
        fh.writelines(self._csv_chunks())

    def _csv_chunks(self):
        yield CSV_HEADER + "\n"
        fields, step = self._fields, _FIELDS * _CSV_CHUNK_RECORDS
        for start in range(0, len(fields), step):
            chunk = tuple(fields[start:start + step])  # a slice copies faster than islice
            yield ("%s,%s,%s,%s,%s\n" * (len(chunk) // _FIELDS)) % chunk

    def __iter__(self):
        return map(TraceRecord._make, _records_of(self))

    def __len__(self):
        return len(self._fields) // _FIELDS


def _records_of(trace: Trace | None):
    """An iterator over a trace's records as (time_us, task_id, workload,
    unit, phase) tuples; outside this module, every reader of a trace's
    flat list goes through it."""
    if trace is None:
        raise AuditError("no trace to read: the run was made with record_trace=False")
    if not isinstance(trace, Trace):  # its type, not its repr: a records list can be huge
        raise InvalidConfig(f"trace must be a Trace, got {type(trace).__name__}")
    fields = iter(trace._fields)
    return zip(fields, fields, fields, fields, fields)  # reuses its tuple while unpacked


@_frozen
class SimConfig:
    """How a run samples the cloud, pays setup, buffers images and fills queues."""
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
        if self.seed < 0:  # random.Random seeds with abs(seed): -7 would repeat 7
            raise InvalidConfig(f"seed must be >= 0, got {self.seed}")
        for flag in ("cloud_in_makespan", "fpga_as_gpu", "record_trace"):
            _check_flag(flag, getattr(self, flag))
        if self.buffer_capacity is not None and not _is_int_at_least(self.buffer_capacity, 0):
            raise InvalidConfig(
                f"buffer_capacity must be None or an integer >= 0, got {self.buffer_capacity!r}")
        if self.cloud_slots is not None and not _is_int_at_least(self.cloud_slots, 1):
            raise InvalidConfig(
                f"cloud_slots must be None or an integer >= 1, got {self.cloud_slots!r}")
        _check_weights(self.weights)


@_frozen
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


def _latency_totals(profile: PlatformProfile) -> dict:
    """completing label -> [latency sum, completions], in the avg_latency_ms order"""
    return {label: [0, 0] for label in [u.kind.value for u in profile.units] + [LABEL_CLOUD]}


def _metrics(latency: dict, energy_uj: int, drops: int, makespan: int,
             profile: PlatformProfile, scenario: TaskGraph) -> Metrics:
    """A run's Metrics from its _latency_totals, completions' energy, drops and makespan."""
    completed = sum(count for _, count in latency.values())
    idle_watts = sum(u.idle_watts for u in profile.units)
    return Metrics(
        throughput_tasks_per_ms=completed / (makespan / 1000) if makespan else 0.0,
        avg_latency_ms={label: total / count / 1000
                        for label, (total, count) in latency.items() if count},
        total_energy_uj=energy_uj + round(idle_watts * makespan),
        drops=drops, makespan_us=makespan, completed=completed,
        skipped=len(scenario) - completed)


def compute_metrics(trace: Trace, profile: PlatformProfile, config: SimConfig,
                    scenario: TaskGraph) -> Metrics:
    """Derive run metrics from a trace in one pass, independently of the
    engine, which accumulates the same totals as it runs. A dispatch time is
    held only until its task completes; the first faulty record raises.

    Throughput is completed tasks per millisecond of makespan; latency is
    dispatch-to-completion, averaged per completing unit; energy sums each
    completed task's per-run energy plus any configured idle power over the
    makespan; skipped counts the scenario's tasks that never completed.
    """
    _check_types(("profile", profile, PlatformProfile), ("config", config, SimConfig),
                 ("scenario", scenario, TaskGraph))
    tasks = validate_graph(scenario)[0]
    dispatched_at = {}  # task id -> dispatch time, until it completes
    start, end = float("inf"), -float("inf")  # first dispatch, last completion in the makespan
    latency = _latency_totals(profile)
    energy_memo: dict = {}  # (workload, unit label) -> per-run energy
    kinds = {u.kind.value: u.kind for u in profile.units} | {LABEL_CLOUD: UnitKind.CLOUD}
    energy_uj = drops = 0
    for time_us, tid, workload, unit, phase in _records_of(trace):
        if phase == PHASE_DISPATCH:
            if tid not in tasks:
                raise AuditError(f"task {tid} is not in the scenario")
            if tid in dispatched_at:
                raise AuditError(f"task {tid}: dispatch at {time_us} while its dispatch at "
                                 f"{dispatched_at[tid]} has not completed")
            if workload != tasks[tid].workload:
                raise AuditError(f"task {tid}: {phase} at {time_us} records {workload!r}, "
                                 f"where the scenario has {tasks[tid].workload!r}")
            dispatched_at[tid] = time_us
            if time_us < start:
                start = time_us
        elif phase == PHASE_COMPLETE or phase == PHASE_CLOUD_COMPLETE:
            if tid not in dispatched_at:
                raise AuditError(f"task {tid}: {phase} at {time_us} has no earlier dispatch")
            if workload != tasks[tid].workload:
                raise AuditError(f"task {tid}: {phase} at {time_us} records {workload!r}, "
                                 f"where the scenario has {tasks[tid].workload!r}")
            unit = unit if phase == PHASE_COMPLETE else LABEL_CLOUD
            if (workload, unit) not in energy_memo:  # before the totals: a bad label has no slot
                kind = kinds.get(unit)
                if not (profile.has_cloud if kind is UnitKind.CLOUD
                        else (workload, kind) in profile.costs):
                    raise AuditError(f"task {tid}: completes on {unit!r}, where profile "
                                     f"{profile.name!r} cannot run {workload!r}")
                energy_memo[workload, unit] = energy_of(profile, workload, kind)
            energy_uj += energy_memo[workload, unit]
            totals = latency[unit]
            totals[0] += time_us - dispatched_at.pop(tid)
            totals[1] += 1
            if time_us > end and (config.cloud_in_makespan or unit != LABEL_CLOUD):
                end = time_us
        elif phase == PHASE_DROP:
            drops += 1
    makespan = end - start if end != -float("inf") else 0
    return _metrics(latency, energy_uj, drops, makespan, profile, scenario)


def _phase_table(scenario: TaskGraph, profile: PlatformProfile, policy: Policy,
                 state: SchedulerState, setup_mode: SetupMode) -> dict:
    """unit -> {workload: ends of setup, xfer_in, kernel and xfer_out as offsets
    from the start, then the run's energy} per workload the policy can route to
    the unit; AMORTIZED pays no setup. Rejects a scenario that could route a task
    somewhere it cannot run; each distinct (workload, route class) is checked once,
    in the order the scenario first names it."""
    if policy.advanced:
        # classify reads only the tags, so one task stands for its (workload, tags) class
        classes = {(t.workload, (tags := t.tags).real_time, tags.image_input): t
                   for t in scenario}
        routes = dict.fromkeys((workload, sched.classify(t))
                               for (workload, *_), t in classes.items())
    else:
        routes = [(workload, RouteClass.BASIC)
                  for workload in dict.fromkeys(t.workload for t in scenario)]
    table = {unit: {} for unit in state.units}
    needs_basic = False
    for workload, route in routes:
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


# a local event's kind is the index of its boundary in the phase plan, and
# _BOUNDARY_PHASES[kind] the phase entered there; a cloud completion's is _CLOUD_EVENT
_BOUNDARY_PHASES = (PHASE_XFER_IN, PHASE_KERNEL, PHASE_XFER_OUT, PHASE_COMPLETE)
_KERNEL, _COMPLETE, _CLOUD_EVENT = 1, 3, -1


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
        # each record's fields go onto the trace's flat list; a zero-length deque
        # discards what it is given: a no-op extend that runs in C
        self._append = (self.trace._fields if config.record_trace else deque(maxlen=0)).extend
        # a local phase event names its unit, a cloud completion its task id
        self.heap = []  # (time, sequence, kind, unit or task id)
        self._seq = itertools.count()

        # the dependency index the graph built when it was made: only read, never changed
        self.tasks, self.dependents, dep_counts = index
        # task id -> dependencies not yet complete, while the task is neither
        # dispatched nor skipped; a dispatched task is in dispatched_at until it completes
        self.pending = dict.fromkeys(self.tasks, 0)
        self.pending.update(dep_counts)
        # producer id -> live consumer count; one entry per image buffer in use
        self.buffer_refs: dict = {}

        self.cloud_active = 0
        # unit -> (task id, label, workload, start, phase plan), or None when idle
        self.running: dict = dict.fromkeys(self.state.units)

        # run metrics, accumulated as events happen; compute_metrics re-derives them
        self.dispatched_at: dict = {}  # task id -> dispatch time, until it completes
        self.last_end = None  # latest completion in the makespan
        self.cloud_energy = None  # looked up at the first cloud completion: it is flat
        self.latency = _latency_totals(profile)
        self.energy_uj = self.drops = 0

    # -- dispatch and execution -------------------------------------------

    def run(self) -> SimResult:
        heap, seq, running = self.heap, self._seq, self.running
        pop, push, append = heapq.heappop, heapq.heappush, self._append
        pending, buffer_refs, tasks, table = self.pending, self.buffer_refs, self.tasks, self.table
        state, hp, queues = self.state, self.state.hp_queue, self.state.queues
        releases = sorted(((t.release_us, t.id) for t in self.scenario), key=itemgetter(0))
        # a task without dependencies is dispatched at its release, any other after a completion
        first_dispatch = next((r for r, tid in releases if not pending[tid]), None)
        releases = iter(releases)
        release_at, release_tid = next(releases, _NO_RELEASE)
        now = 0
        while True:
            if heap and heap[0][0] <= release_at:
                time_us, _, kind, key = pop(heap)
                if time_us != now:  # records at one instant share one time object
                    now = time_us
            elif release_tid is not None:
                now, tid = release_at, release_tid
                release_at, release_tid = next(releases, _NO_RELEASE)
                if pending.get(tid) == 0:
                    self._dispatch(tid, now)
                continue
            else:
                break
            if kind == _CLOUD_EVENT:
                self._on_cloud_complete(key, now)
                continue
            tid, label, workload, start, plan = running[key]
            if start + plan[kind] != now:
                raise EngineError(f"task {tid} entered {_BOUNDARY_PHASES[kind]} at {now}, "
                                  f"off its plan {start + plan[kind]}")
            while True:  # record the boundary, off the heap or crossed in place
                append((now, tid, workload, label, _BOUNDARY_PHASES[kind]))
                if kind == _COMPLETE:
                    running[key] = None
                    self.last_end = now
                    self._after_completion(tid, label, plan[4], now)
                    if hp and not running[key] and tasks[hp[0]].workload in state.runnable[key]:
                        self._try_start(key, now)  # the one start of the high-priority head
                        break
                    if running[key] is not None or not queues[key]:
                        break
                    # the unit takes its own FIFO head in this step, inline as a call per
                    # start costs conv ~10% of its tasks/s; kind 0 takes the rule below
                    tid = sched.on_unit_free(state, key, tasks)
                    workload = tasks[tid].workload
                    plan = table[key][workload]
                    append((now, tid, workload, label, PHASE_SETUP))
                    running[key] = (tid, label, workload, now, plan)
                    start, kind = now, -1
                elif kind == _KERNEL and buffer_refs:
                    self._release_buffers_for(tid)
                kind += 1
                due = start + plan[kind]
                if due > release_at or heap and heap[0][0] <= due:
                    push(heap, (due, next(seq), kind, key))
                    break
                # the next boundary is the next event: cross it without the heap
                if due != now:
                    now = due

        if pending or self.dispatched_at or self.buffer_refs:
            raise EngineError(
                f"simulation did not quiesce: pending={list(pending)} "
                f"running={list(self.dispatched_at)} buffers_in_use={len(self.buffer_refs)}")
        makespan = self.last_end - first_dispatch if self.last_end is not None else 0
        return SimResult(_metrics(self.latency, self.energy_uj, self.drops, makespan,
                                  self.profile, self.scenario), self.trace)

    def _dispatch(self, tid: int, now: int) -> None:
        task = self.tasks[tid]
        route = sched.dispatch(self.state, task, self.policy)
        del self.pending[tid]
        self.dispatched_at[tid] = now
        if (unit := route.unit) is not None:
            self._append((now, tid, task.workload, self.labels[unit], PHASE_DISPATCH))
            if self.running[unit] is None:
                self._try_start(unit, now)
        elif route.target is _CLOUD:
            self._append((now, tid, task.workload, LABEL_CLOUD, PHASE_DISPATCH))
            self._drain_cloud(now)
        else:
            self._append((now, tid, task.workload, LABEL_HP, PHASE_DISPATCH))
            self._kick(now)

    def _kick(self, now: int) -> None:
        """Offer work to each idle unit that can run the high-priority head or
        has a queued task; a start can change the head, so it is read per unit."""
        running, state, tasks = self.running, self.state, self.tasks
        hp, queues, runnable = state.hp_queue, state.queues, state.runnable
        for unit in state.units:
            if running[unit] is None and (
                    queues[unit] or hp and tasks[hp[0]].workload in runnable[unit]):
                self._try_start(unit, now)

    def _try_start(self, unit: UnitKind, now: int) -> None:
        """Start the next task on an idle unit that has one: the high-priority
        head when it can run it, else its FIFO head."""
        hp_head = hp[0] if (hp := self.state.hp_queue) else None
        tid = sched.on_unit_free(self.state, unit, self.tasks)
        workload = self.tasks[tid].workload
        plan = self.table[unit][workload]
        label = self.labels[unit]
        self._append((now, tid, workload, label, PHASE_SETUP))
        self.running[unit] = (tid, label, workload, now, plan)
        heapq.heappush(self.heap, (now + plan[0], next(self._seq), 0, unit))
        if tid == hp_head and hp:
            # the new high-priority head may be runnable on another idle unit
            self._kick(now)

    def _release_buffers_for(self, tid: int) -> None:
        task, refs = self.tasks[tid], self.buffer_refs
        for producer in task.deps if task.tags.image_input else ():
            if producer in refs:
                refs[producer] -= 1
                if refs[producer] == 0:
                    del refs[producer]

    def _on_cloud_complete(self, tid: int, now: int) -> None:
        self._append((now, tid, self.tasks[tid].workload, LABEL_CLOUD, PHASE_CLOUD_COMPLETE))
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
        if not (dependents := self.dependents.get(tid)):
            return
        pending, tasks, consumers = self.pending, self.tasks, []
        for dep in dependents:  # a comprehension would make pending and tasks cells
            if tasks[dep].tags.image_input and dep in pending:
                consumers.append(dep)
        if consumers:
            capacity = self.config.buffer_capacity  # one image buffer, or a drop
            if capacity is None or len(self.buffer_refs) < capacity:
                self.buffer_refs[tid] = len(consumers)
            else:
                self._append((now, tid, tasks[tid].workload, unit_label, PHASE_DROP))
                self.drops += 1
                for consumer in consumers:
                    self._skip(consumer)
        for dep in dependents:
            if dep in pending:  # not skipped
                pending[dep] -= 1
                if not pending[dep] and tasks[dep].release_us <= now:
                    self._dispatch(dep, now)

    def _skip(self, tid: int) -> None:
        pending, stack = self.pending, [tid]
        while stack:
            cur = stack.pop()
            if pending.pop(cur, None) is None:  # skipped already, or dispatched
                if cur in self.dispatched_at:
                    raise EngineError(f"cannot skip task {cur}: already dispatched")
                continue
            self._release_buffers_for(cur)
            stack.extend(dep for dep in self.dependents.get(cur, ()) if dep in pending)

    def _drain_cloud(self, now: int) -> None:
        slots = self.config.cloud_slots
        while self.state.cloud_queue and (slots is None or self.cloud_active < slots):
            tid = self.state.cloud_queue.popleft()
            self.cloud_active += 1
            self._append((now, tid, self.tasks[tid].workload, LABEL_CLOUD, PHASE_CLOUD_SUBMIT))
            # an image consumer needs its input only until upload
            self._release_buffers_for(tid)
            lo, hi = self.profile.cloud_latency_us
            heapq.heappush(self.heap, (now + self.rng.randint(lo, hi), next(self._seq),
                                       _CLOUD_EVENT, tid))


def simulate(scenario: TaskGraph, profile: PlatformProfile, policy: Policy,
             config: SimConfig = SimConfig()) -> SimResult:
    """Run a scenario to quiescence and return (Metrics, Trace), or
    (Metrics, None) when the config sets record_trace=False.

    The result is a pure function of the arguments: identical inputs and
    seed produce identical metrics and a byte-identical trace.
    """
    _check_types(("scenario", scenario, TaskGraph), ("profile", profile, PlatformProfile),
                 ("policy", policy, Policy), ("config", config, SimConfig))
    return _Engine(scenario, validate_graph(scenario), profile, policy, config).run()
