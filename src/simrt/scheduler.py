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
from enum import Enum
from itertools import accumulate

from .errors import InvalidConfig, InvalidScenario, ParseError, _check_types
from .profiles import PlatformProfile, UnitKind
from .tasks import Task, _frozen


class BasicPolicy(Enum):
    LATENCY = "latency"
    THROUGHPUT = "throughput"
    ENERGY = "energy"

    __hash__ = object.__hash__  # members are singletons; see UnitKind


@_frozen
class Policy:
    """A basic policy, optionally wrapped by the tag-aware advanced dispatcher."""
    basic: BasicPolicy
    advanced: bool = False

    def __post_init__(self):
        if not isinstance(self.basic, BasicPolicy):
            raise InvalidConfig(f"basic must be a BasicPolicy, got {self.basic!r}")
        _check_flag("advanced", self.advanced)

    @classmethod
    def parse(cls, text: str) -> "Policy":
        text = text.strip().lower() if isinstance(text, str) else text
        basic = text.removeprefix("advanced:") if isinstance(text, str) else None
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


# Enum's metaclass defines __getattr__, so a member read through its class
# (RouteClass.CLOUD) takes CPython's slow attribute hook, over 100 ns on 3.11
# against about 15 for a module global: per-task code reads these constants
_CLOUD = RouteClass.CLOUD
_HIGH_PRIORITY = RouteClass.HIGH_PRIORITY
_BASIC = RouteClass.BASIC


@_frozen
class Route:
    """Where dispatch sends a task: the cloud, the HP queue or a unit's FIFO."""
    target: RouteClass
    unit: UnitKind | None = None  # set only for BASIC routes


def classify(task: Task) -> RouteClass:
    """Tag-based route class: cloud for non-real-time tasks, the
    high-priority queue for real-time image consumers, basic otherwise."""
    if not task.tags.real_time:
        return _CLOUD
    if task.tags.image_input:
        return _HIGH_PRIORITY
    return _BASIC


# Slot orders the basic policies walk.
_GPU_SLOT = "g"
_DSP_SLOT = "d"
_CPU_SLOT = "c"
_LATENCY_ORDER = (_GPU_SLOT, _DSP_SLOT, _CPU_SLOT)
# fill policy -> (fill order, overflow slot)
_FILL_ORDERS = {
    BasicPolicy.THROUGHPUT: ((_GPU_SLOT, _CPU_SLOT, _DSP_SLOT), _CPU_SLOT),
    BasicPolicy.ENERGY: ((_DSP_SLOT, _GPU_SLOT, _CPU_SLOT), _DSP_SLOT),
}


def _is_int_at_least(value, low: int) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= low


def _check_flag(name: str, value) -> None:
    if not isinstance(value, bool):
        raise InvalidConfig(f"{name} must be True or False, got {value!r}")


def _check_weights(weights) -> None:
    """Reject weights that are not None or a dict of slot -> int >= 0."""
    if weights is None:
        return
    if not isinstance(weights, dict):
        raise InvalidConfig(f"weights must be a dict, got {weights!r}")
    for slot, weight in weights.items():
        if slot not in _LATENCY_ORDER or not _is_int_at_least(weight, 0):
            raise InvalidConfig(f"weights: bad item {slot!r}: {weight!r}; keys are g, d, c "
                                f"and weights are integers >= 0")


class SchedulerState:
    """Single-owner mutable dispatch state for one simulation run."""

    def __init__(
        self,
        profile: PlatformProfile,
        weights: dict | None = None,
        fpga_as_gpu: bool = False,
    ):
        _check_types(("profile", profile, PlatformProfile))
        _check_weights(weights)
        _check_flag("fpga_as_gpu", fpga_as_gpu)
        gpu_slot = None
        for u in profile.units:
            if u.kind in (UnitKind.MGPU, UnitKind.GPU):
                gpu_slot = u.kind
        if gpu_slot is None and fpga_as_gpu and profile.unit(UnitKind.FPGA):
            gpu_slot = UnitKind.FPGA
        slot_kind = {_GPU_SLOT: gpu_slot, _DSP_SLOT: UnitKind.DSP, _CPU_SLOT: UnitKind.CPU}

        self.weights: dict = {}
        for slot, kind in slot_kind.items():
            spec = profile.unit(kind)  # None for an empty gpu slot
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
        self.hp_queue: deque = deque()
        self.cloud_queue: deque = deque()
        self.counter_n = 0
        # workloads each unit declares a cost for: the HP head check
        self.runnable: dict = {u: frozenset(w for (w, k) in profile.costs if k is u)
                               for u in self.units}
        self._routes: dict = {u: Route(_BASIC, u) for u in self.units}

        def slot_units(order: tuple) -> list:
            return [kind for slot in order if (kind := slot_kind[slot]) in self.weights]

        # latency rotation as (cumulative weight, unit), walked by counter_n
        latency_units = slot_units(_LATENCY_ORDER)
        self._rotation = list(zip(accumulate(self.weights[u] for u in latency_units),
                                  latency_units))
        # fill policy -> (units in fill order, overflow unit): the overflow slot's
        # unit when it participates, else the first unit in fill order
        self._fill: dict = {}
        for basic, (order, overflow_slot) in _FILL_ORDERS.items():
            units = slot_units(order)
            overflow = slot_kind[overflow_slot]
            if overflow not in units:
                overflow = units[0] if units else None
            self._fill[basic] = (units, overflow)


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


def _fill_first(state: SchedulerState, fill: tuple) -> UnitKind:
    """The first unit in fill order whose queue holds less than its weight,
    else the overflow unit; `fill` is one of SchedulerState._fill's values."""
    units, overflow = fill
    if not units:
        raise InvalidScenario("no participating units for the selected policy")
    queues, weights = state.queues, state.weights
    for unit in units:
        if len(queues[unit]) < weights[unit]:
            return unit
    return overflow


_CLOUD_ROUTE = Route(_CLOUD)
_HP_ROUTE = Route(_HIGH_PRIORITY)


def dispatch(state: SchedulerState, task: Task, policy: Policy) -> Route:
    """Route one ready task and append it to the matching queue."""
    if policy.advanced:
        route_class = classify(task)
        if route_class is _CLOUD:
            state.cloud_queue.append(task.id)
            return _CLOUD_ROUTE
        if route_class is _HIGH_PRIORITY:
            state.hp_queue.append(task.id)
            return _HP_ROUTE
    fill = state._fill.get(policy.basic)  # None for latency
    unit = dispatch_latency(state) if fill is None else _fill_first(state, fill)
    state.queues[unit].append(task.id)
    return state._routes[unit]


def on_unit_free(state: SchedulerState, unit: UnitKind, tasks: dict):
    """Next task for a unit that just went idle; `tasks` maps each
    dispatched task id to its Task.

    The high-priority queue head is taken first whenever this unit declares
    a cost for it (head-only check, FIFO order preserved);
    otherwise the unit's own FIFO head; otherwise None.
    """
    hp = state.hp_queue
    if hp and tasks[hp[0]].workload in state.runnable[unit]:
        return hp.popleft()
    queue = state.queues[unit]
    if queue:
        return queue.popleft()
    return None
