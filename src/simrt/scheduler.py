"""Dispatch core: per-unit weighted FIFO queues, the round-robin counter,
the high-priority queue, the cloud queue, and the four scheduling policies.

Three basic policies pick a local unit for every task regardless of tags:

* latency: weighted round-robin over the (gpu, dsp, cpu) queues;
* throughput: fill the gpu queue up to its weight, then cpu, then dsp,
  overflowing to cpu;
* energy: fill the dsp queue first, then gpu, then cpu, overflowing to dsp.

The advanced policy wraps a basic one and adds tag awareness: tasks
without a real-time requirement go to the cloud queue, real-time tasks
with image inputs go to the single global high-priority queue, and the
rest fall back to the wrapped basic policy. A unit that becomes free
always drains the high-priority queue head first when it can run it.

Units whose weight is zero, and kinds the policies do not know about,
are excluded from dispatch entirely. A profile declares at most one of
mGPU/GPU; whichever is present fills the gpu slot of the policies (FPGA
may be mapped into that slot with an explicit flag).
"""

from collections import deque
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate

from .errors import InvalidScenario, ParseError
from .profiles import PlatformProfile, UnitKind
from .tasks import Task


class BasicPolicy(Enum):
    LATENCY = "latency"
    THROUGHPUT = "throughput"
    ENERGY = "energy"

    __hash__ = object.__hash__  # members are singletons; see UnitKind


@dataclass(frozen=True)
class Policy:
    """A basic policy, optionally wrapped by the tag-aware advanced dispatcher."""

    basic: BasicPolicy
    advanced: bool = False

    @classmethod
    def latency(cls) -> "Policy":
        return cls(BasicPolicy.LATENCY)

    @classmethod
    def throughput(cls) -> "Policy":
        return cls(BasicPolicy.THROUGHPUT)

    @classmethod
    def energy(cls) -> "Policy":
        return cls(BasicPolicy.ENERGY)

    @classmethod
    def advanced_over(cls, basic: BasicPolicy) -> "Policy":
        return cls(basic, advanced=True)

    @classmethod
    def parse(cls, text: str) -> "Policy":
        text = text.strip().lower()
        basic = text.removeprefix("advanced:")
        try:
            return cls(BasicPolicy(basic), advanced=basic != text)
        except ValueError:
            raise ParseError(
                f"unknown policy {text!r}; expected latency|throughput|energy|advanced:<basic>"
            ) from None

    def __str__(self) -> str:
        return f"advanced:{self.basic.value}" if self.advanced else self.basic.value


class RouteClass(Enum):
    CLOUD = "cloud"
    HIGH_PRIORITY = "high_priority"
    BASIC = "basic"

    __hash__ = object.__hash__  # members are singletons; see UnitKind


@dataclass(frozen=True)
class Route:
    target: RouteClass
    unit: UnitKind | None = None  # set only for BASIC routes


def classify(task: Task) -> RouteClass:
    """Tag-based route class: cloud for non-real-time tasks, the
    high-priority queue for real-time image consumers, basic otherwise."""
    if not task.tags.real_time:
        return RouteClass.CLOUD
    if task.tags.image_input:
        return RouteClass.HIGH_PRIORITY
    return RouteClass.BASIC


# Slot orders the basic policies walk: (fill order, overflow slot).
_GPU_SLOT = "g"
_DSP_SLOT = "d"
_CPU_SLOT = "c"
_LATENCY_ORDER = (_GPU_SLOT, _DSP_SLOT, _CPU_SLOT)
_THROUGHPUT_ORDER = (_GPU_SLOT, _CPU_SLOT, _DSP_SLOT)
_ENERGY_ORDER = (_DSP_SLOT, _GPU_SLOT, _CPU_SLOT)


class SchedulerState:
    """Single-owner mutable dispatch state for one simulation run."""

    def __init__(
        self,
        profile: PlatformProfile,
        weights: dict | None = None,
        fpga_as_gpu: bool = False,
    ):
        self.profile = profile
        gpu_slot = None
        for u in profile.units:
            if u.kind in (UnitKind.MGPU, UnitKind.GPU):
                gpu_slot = u.kind
        if gpu_slot is None and fpga_as_gpu and profile.unit(UnitKind.FPGA):
            gpu_slot = UnitKind.FPGA
        self._slot_kind = {_GPU_SLOT: gpu_slot, _DSP_SLOT: UnitKind.DSP, _CPU_SLOT: UnitKind.CPU}

        self.weights: dict = {}
        for slot, kind in self._slot_kind.items():
            if kind is None:
                continue
            spec = profile.unit(kind)
            if spec is None:
                continue
            w = spec.weight
            if weights and slot in weights:
                w = weights[slot]
            if w > 0:
                self.weights[kind] = w
        # participating units, in profile declaration order
        self.units: list = [u.kind for u in profile.units if u.kind in self.weights]
        self.queues: dict = {u: deque() for u in self.units}
        self._loads: dict = {u: 0 for u in self.units}
        self.hp_queue: deque = deque()
        self.cloud_queue: deque = deque()
        self.counter_n = 0
        self._workloads: dict = {}  # task id -> workload name, recorded on dispatch
        # workloads each unit has a resolvable cost for: the HP head check
        self.runnable: dict = {u: frozenset(w for (w, k) in profile.costs
                                            if k is u and profile.resolvable(w, u))
                               for u in self.units}
        self._routes: dict = {u: Route(RouteClass.BASIC, u) for u in self.units}
        # latency rotation as (cumulative weight, unit), walked by counter_n
        latency_units = self._slot_units(_LATENCY_ORDER)
        self._rotation = list(zip(accumulate(self.weights[u] for u in latency_units),
                                  latency_units))
        self._throughput_units = self._slot_units(_THROUGHPUT_ORDER)
        self._energy_units = self._slot_units(_ENERGY_ORDER)

    def load(self, unit: UnitKind) -> int:
        return self._loads[unit]

    def _slot_units(self, order: tuple) -> list:
        return [kind for slot in order if (kind := self._slot_kind[slot]) in self.weights]


def dispatch_latency(state: SchedulerState) -> UnitKind:
    """Weighted round-robin: each cycle hands the gpu queue its weight of
    dispatches, then the dsp queue, then the cpu queue; the counter resets
    at the end of a cycle."""
    rotation = state._rotation
    if not rotation:
        raise InvalidScenario("no participating units for the selected policy")
    pos = state.counter_n
    for cum, unit in rotation:
        if pos < cum:
            break
    state.counter_n = (pos + 1) % rotation[-1][0]
    return unit


def _fill_first(state: SchedulerState, units: list, overflow_slot: str) -> UnitKind:
    if not units:
        raise InvalidScenario("no participating units for the selected policy")
    for unit in units:
        if state._loads[unit] < state.weights[unit]:
            return unit
    overflow = state._slot_kind[overflow_slot]
    if overflow in state.weights:
        return overflow
    return units[0]


def dispatch_throughput(state: SchedulerState) -> UnitKind:
    """Keep the gpu queue full of load, then cpu, then dsp; overflow to cpu."""
    return _fill_first(state, state._throughput_units, _CPU_SLOT)


def dispatch_energy(state: SchedulerState) -> UnitKind:
    """Prefer the dsp queue, then gpu, then cpu; overflow to dsp."""
    return _fill_first(state, state._energy_units, _DSP_SLOT)


_BASIC_DISPATCH = {
    BasicPolicy.LATENCY: dispatch_latency,
    BasicPolicy.THROUGHPUT: dispatch_throughput,
    BasicPolicy.ENERGY: dispatch_energy,
}
_CLOUD_ROUTE = Route(RouteClass.CLOUD)
_HP_ROUTE = Route(RouteClass.HIGH_PRIORITY)


def dispatch(state: SchedulerState, task: Task, policy: Policy) -> Route:
    """Route one ready task and append it to the matching queue."""
    state._workloads[task.id] = task.workload
    if policy.advanced:
        route_class = classify(task)
        if route_class is RouteClass.CLOUD:
            state.cloud_queue.append(task.id)
            return _CLOUD_ROUTE
        if route_class is RouteClass.HIGH_PRIORITY:
            state.hp_queue.append(task.id)
            return _HP_ROUTE
    unit = _BASIC_DISPATCH[policy.basic](state)
    state.queues[unit].append(task.id)
    state._loads[unit] += 1
    return state._routes[unit]


def on_unit_free(state: SchedulerState, unit: UnitKind):
    """Next task for a unit that just went idle.

    The high-priority queue head is taken first whenever this unit has a
    resolvable cost for it (head-only check, FIFO order preserved);
    otherwise the unit's own FIFO head; otherwise None.
    """
    hp = state.hp_queue
    if hp and state._workloads[hp[0]] in state.runnable[unit]:
        return hp.popleft()
    queue = state.queues[unit]
    if queue:
        state._loads[unit] -= 1
        return queue.popleft()
    return None
