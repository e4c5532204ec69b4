"""Processing-unit definitions and the per-(workload, unit) cost model.

A profile holds the units available on a platform, the workloads it knows
how to run, and a cost entry per (workload, unit) pair: setup time, input
transfer, kernel execution, output copy-back, and energy. A profile rejects
an entry without a kernel time, so it is a complete cost table; load_profile
derives a kernel time that is not given from an operation count and a
unit's theoretical throughput. Cloud execution is modeled with a fixed
per-inference energy and a latency drawn uniformly from a closed interval.
"""

from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable

from .errors import BadInterval, InvalidConfig, MissingCost, NegativeValue, ParseError
from .tasks import _CSV_SPECIAL, MAX_UNIT_NUMBER, check_object, parse_document


class UnitKind(Enum):
    CPU = "CPU"
    MGPU = "mGPU"
    DSP = "DSP"
    GPU = "GPU"
    FPGA = "FPGA"
    CLOUD = "CLOUD"

    # members are singletons: identity hashing runs in C, Enum's hash(name) does not
    __hash__ = object.__hash__

    def __str__(self) -> str:
        return self.value

    @classmethod
    def parse(cls, text: str) -> "UnitKind":
        for kind in cls:
            if isinstance(text, str) and kind.value.upper() == text.upper():
                return kind
        raise ParseError(f"unknown unit kind {text!r}")


class SetupMode(Enum):
    """Whether accelerator setup is paid once at startup or on every offload."""

    AMORTIZED = "amortized"
    PER_OFFLOAD = "per_offload"

    @classmethod
    def parse(cls, text: str) -> "SetupMode":
        for mode in cls:
            if isinstance(text, str) and mode.value == text.lower().replace("-", "_"):
                return mode
        raise ParseError(f"unknown setup mode {text!r}")


@dataclass(frozen=True)
class UnitSpec:
    kind: UnitKind
    weight: int = 1
    gops: float | None = None  # theoretical throughput, giga-ops per second
    idle_watts: float = 0.0


@dataclass(frozen=True)
class CostEntry:
    setup_us: int = 0
    xfer_in_us: int = 0
    kernel_us: int | None = None  # a PlatformProfile holds no entry without one
    xfer_out_us: int = 0
    energy_uj: int = 0

    @property
    def total_us(self) -> int:
        return self.setup_us + self.xfer_in_us + self.kernel_us + self.xfer_out_us


@dataclass(frozen=True)
class PlatformProfile:
    name: str
    units: tuple
    workloads: tuple  # workload names, in declaration order
    costs: dict  # (workload name, UnitKind) -> CostEntry
    cloud_latency_us: tuple | None = None
    cloud_energy_uj: int | None = None

    def __post_init__(self):  # a complete cost table: every entry has a kernel time
        for (workload, unit), entry in self.costs.items():
            if entry.kernel_us is None:
                raise MissingCost(workload, unit)

    def unit(self, kind: UnitKind) -> UnitSpec | None:
        for u in self.units:
            if u.kind == kind:
                return u
        return None

    @property
    def has_cloud(self) -> bool:
        return self.cloud_latency_us is not None

    def resolvable(self, workload: str, unit: UnitKind) -> bool:
        """True when the profile declares a cost entry for the pair."""
        return (workload, unit) in self.costs


def _check_setup_mode(setup_mode) -> None:
    if not isinstance(setup_mode, SetupMode):
        raise InvalidConfig(f"setup_mode must be a SetupMode, got {setup_mode!r}")


def _cost(profile: PlatformProfile, workload: str, unit: UnitKind) -> CostEntry:
    entry = profile.costs.get((workload, unit))
    if entry is None:
        raise MissingCost(workload, unit)
    return entry


def offload_time(
    profile: PlatformProfile,
    workload: str,
    unit: UnitKind,
    setup_mode: SetupMode,
) -> CostEntry:
    """The cost entry one dispatch pays.

    PER_OFFLOAD charges setup on every call; AMORTIZED never does, since
    every unit is initialized before the clock starts.
    """
    _check_setup_mode(setup_mode)
    entry = _cost(profile, workload, unit)
    return entry if setup_mode is SetupMode.PER_OFFLOAD else replace(entry, setup_us=0)


def energy_of(profile: PlatformProfile, workload: str, unit: UnitKind) -> int:
    """Per-execution energy in microjoules; cloud runs cost the flat cloud energy."""
    if unit is UnitKind.CLOUD:
        if profile.cloud_energy_uj is None:
            raise MissingCost(workload, unit)
        return profile.cloud_energy_uj
    return _cost(profile, workload, unit).energy_uj


def restrict(profile: PlatformProfile, kinds: Iterable[UnitKind]) -> PlatformProfile:
    """Profile limited to the given unit kinds; used for pinned-unit runs.
    A kind that is not a UnitKind, e.g. the string "CPU", raises InvalidConfig."""
    kinds = list(kinds)
    if bad := sorted({repr(k) for k in kinds if not isinstance(k, UnitKind)}):
        raise InvalidConfig(f"restrict takes UnitKind members, got {', '.join(bad)}")
    keep = set(kinds)
    units = tuple(u for u in profile.units if u.kind in keep)
    costs = {k: v for k, v in profile.costs.items() if k[1] in keep}
    has_cloud = UnitKind.CLOUD in keep and profile.has_cloud
    labels = [str(u.kind) for u in units] + (["CLOUD"] if has_cloud else [])
    return PlatformProfile(
        name=f"{profile.name}[{'+'.join(labels)}]",
        units=units,
        workloads=profile.workloads,
        costs=costs,
        cloud_latency_us=profile.cloud_latency_us if has_cloud else None,
        cloud_energy_uj=profile.cloud_energy_uj if has_cloud else None,
    )


def preference_matrix(profile: PlatformProfile) -> dict:
    """Per-workload (performance-preferable, energy-preferable) local units.

    Performance is argmin of kernel time, energy argmin of per-run energy,
    over the local units with a declared cost. Ties break on unit
    declaration order, the order `min` sees them in.
    """
    costs = profile.costs
    matrix = {}
    for name in profile.workloads:
        units = [u.kind for u in profile.units if (name, u.kind) in costs]
        if not units:
            continue
        perf = min(units, key=lambda u: costs[name, u].kernel_us)
        energy = min(units, key=lambda u: costs[name, u].energy_uj)
        matrix[name] = (perf, energy)
    return matrix


_PROFILE_KEYS = {"name", "units", "workloads", "costs", "cloud"}
_UNIT_KEYS = {"kind", "weight", "gops", "idle_watts"}
_WORKLOAD_KEYS = {"name", "ops"}
# cost entry fields, in the order they are checked
_COST_FIELDS = ("kernel_us", "setup_us", "xfer_in_us", "xfer_out_us", "energy_uj")
_CLOUD_KEYS = {"latency_us", "energy_uj"}

# ad-hoc queue weights applied when a profile omits the field
_DEFAULT_WEIGHTS = {
    UnitKind.CPU: 2,
    UnitKind.MGPU: 4,
    UnitKind.GPU: 4,
    UnitKind.DSP: 2,
    UnitKind.FPGA: 1,
}


def _check_non_negative(value, fieldname: str, loc: str):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{fieldname} must be an integer", loc)
    return _check_number(value, fieldname, loc)


def _check_number(value, fieldname: str, loc: str, positive: bool = False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"'{fieldname}' must be a number", loc)
    if value < 0 or positive and value == 0:
        raise NegativeValue(f"{loc}.{fieldname}", value)
    if value > MAX_UNIT_NUMBER:
        raise ParseError(f"'{fieldname}' must be at most {MAX_UNIT_NUMBER:g}", loc)
    return value


def _reject_constant(name: str):  # NaN, Infinity, -Infinity
    raise ParseError(f"invalid JSON: {name} is not a number", "profile")


def load_profile(text: str | bytes, name: str = "") -> PlatformProfile:
    """Parse and validate a platform profile JSON document.

    A missing kernel time is derived from the workload's operation count and
    the unit's theoretical throughput, rounded up to the next microsecond;
    PlatformProfile raises MissingCost for one that cannot be. Unknown keys
    are rejected, and no number may exceed MAX_UNIT_NUMBER.
    The cloud is configured only by the 'cloud' section, never as a unit.
    """
    doc = parse_document(text, "profile", _PROFILE_KEYS, parse_constant=_reject_constant)
    for key, kind, what in (("name", str, "a string"), ("units", list, "an array"),
                            ("workloads", list, "an array"), ("costs", dict, "an object")):
        if not isinstance(doc.get(key, kind()), kind):
            raise ParseError(f"'{key}' must be {what}", "profile")

    units = {}  # kind -> UnitSpec, in declaration order
    for i, obj in enumerate(doc.get("units", [])):
        loc = f"units[{i}]"
        check_object(obj, _UNIT_KEYS, loc, "unit")
        if "kind" not in obj:
            raise ParseError("missing 'kind'", loc)
        kind = UnitKind.parse(obj["kind"])
        if kind is UnitKind.CLOUD:
            raise ParseError("CLOUD is configured by the 'cloud' section, not as a unit", loc)
        weight = _check_non_negative(obj.get("weight", _DEFAULT_WEIGHTS[kind]), "weight", loc)
        gops = obj.get("gops")
        if gops is not None:
            _check_number(gops, "gops", loc, positive=True)
        idle = _check_number(obj.get("idle_watts", 0.0), "idle_watts", loc)
        if kind in units:
            raise ParseError(f"unit kind {kind} declared twice", loc)
        units[kind] = UnitSpec(kind=kind, weight=weight, gops=gops, idle_watts=float(idle))
    if UnitKind.GPU in units and UnitKind.MGPU in units:
        raise ParseError("profile may declare at most one of GPU and mGPU", "units")

    ops_of = {}  # workload name -> operation count or None, in declaration order
    for i, obj in enumerate(doc.get("workloads", [])):
        loc = f"workloads[{i}]"
        check_object(obj, _WORKLOAD_KEYS, loc, "workload")
        wname = obj.get("name")
        if not isinstance(wname, str) or not wname:
            raise ParseError("'name' must be a non-empty string", loc)
        if not _CSV_SPECIAL.isdisjoint(wname):
            raise ParseError("'name' must not contain a comma, a double quote, CR or LF", loc)
        if wname in ops_of:
            raise ParseError(f"workload {wname!r} declared twice", loc)
        ops = ops_of[wname] = obj.get("ops")
        if ops is not None:
            _check_non_negative(ops, "ops", loc)

    costs = {}
    for key, obj in doc.get("costs", {}).items():
        loc = f"costs[{key!r}]"
        wname, at, kindname = key.rpartition("@")
        if not at:
            raise ParseError("cost key must be 'workload@UNIT'", loc)
        if wname not in ops_of:
            raise ParseError(f"cost references undeclared workload {wname!r}", loc)
        kind = UnitKind.parse(kindname)
        if kind not in units:
            raise ParseError(f"cost references undeclared unit {kind}", loc)
        check_object(obj, _COST_FIELDS, loc, "cost entry")
        # a null kernel_us is derived from the workload's ops and the unit's gops
        entry = CostEntry(**{f: _check_non_negative(obj[f], f, loc) for f in _COST_FIELDS
                             if f in obj and (obj[f] is not None or f != "kernel_us")})
        if (wname, kind) in costs:
            raise ParseError(f"duplicate cost entry {key!r}", loc)
        costs[(wname, kind)] = entry

    cloud_latency_us = cloud_energy_uj = None
    if "cloud" in doc:
        obj = check_object(doc["cloud"], _CLOUD_KEYS, "cloud", "'cloud'")
        interval = obj.get("latency_us")
        if (not isinstance(interval, list) or len(interval) != 2
                or any(isinstance(v, bool) or not isinstance(v, int) for v in interval)):
            raise BadInterval("cloud.latency_us must be [lo, hi] integers")
        lo, hi = cloud_latency_us = tuple(interval)
        if lo < 0 or hi < 0:
            raise NegativeValue("cloud.latency_us", interval)
        if lo > hi:
            raise BadInterval(f"cloud latency interval has lo > hi: [{lo}, {hi}]")
        _check_number(hi, "latency_us", "cloud")  # only its ceiling is left to check
        cloud_energy_uj = _check_non_negative(obj.get("energy_uj", 0), "energy_uj", "cloud")

    for (wname, kind), entry in costs.items():  # after the cloud, in cost-key order
        if entry.kernel_us is None:
            ops, gops = ops_of[wname], units[kind].gops
            rate = 0 if gops is None else round(gops * 1_000_000_000)  # ops/s
            if ops is not None and rate:
                costs[wname, kind] = replace(entry, kernel_us=-(-ops * 1_000_000 // rate))
    return PlatformProfile(
        name=doc.get("name", name),
        units=tuple(units.values()),
        workloads=tuple(ops_of),
        costs=costs,
        cloud_latency_us=cloud_latency_us,
        cloud_energy_uj=cloud_energy_uj,
    )


def builtin_profiles() -> dict:
    """Named set of calibrated builtin profiles."""
    from .builtins import BUILTIN_PROFILE_TEXTS

    return {name: load_profile(text, name=name)
            for name, text in BUILTIN_PROFILE_TEXTS.items()}
