"""Exception types shared across the package."""


class SimrtError(Exception):
    """Base class for every error raised by simrt."""


class GraphError(SimrtError):
    """Base class for task-graph validation failures."""


class DuplicateId(GraphError):
    def __init__(self, task_id: int):
        super().__init__(f"duplicate task id {task_id}")
        self.task_id = task_id


class UnknownDependency(GraphError):
    def __init__(self, task_id: int, dep: int):
        super().__init__(f"task {task_id} depends on unknown task {dep}")
        self.task_id = task_id
        self.dep = dep


class CycleDetected(GraphError):
    def __init__(self, cycle: list[int]):
        super().__init__(f"dependency cycle: {' -> '.join(str(t) for t in cycle)}")
        self.cycle = cycle


class ParseError(SimrtError):
    """Malformed scenario or profile document, or a file that cannot be read or written."""

    def __init__(self, message: str, location: str = ""):
        self.location = location
        super().__init__(f"{location}: {message}" if location else message)


class MissingCost(SimrtError):
    def __init__(self, workload: str, unit):
        super().__init__(f"no resolvable cost for workload {workload!r} on unit {unit}")
        self.workload = workload
        self.unit = unit


class NegativeValue(SimrtError):
    def __init__(self, field: str, value, positive: bool = False):
        super().__init__(f"field {field} must be {'>' if positive else '>='} 0, got {value}")
        self.field = field
        self.value = value


class BadInterval(SimrtError):
    """A cloud latency interval that is not [lo, hi] with lo <= hi."""


class InvalidScenario(SimrtError):
    """Scenario cannot be simulated against the given profile/policy."""


class UnresolvableCost(SimrtError):
    """A scenario task may be routed to a unit with no usable cost entry."""

    def __init__(self, workload: str, unit):
        super().__init__(
            f"workload {workload!r} has no resolvable cost on unit {unit} "
            f"reachable under the selected policy"
        )
        self.workload = workload
        self.unit = unit


class InvalidConfig(SimrtError):
    """A SimConfig field is out of its documented range."""


def _check_types(*args) -> None:
    """Raise InvalidConfig for the first (name, value, type) whose value is not of its type."""
    for name, value, kind in args:
        if not isinstance(value, kind):
            raise InvalidConfig(f"{name} must be a {kind.__name__}, got {value!r}")


def _is_int_at_least(value, low: int) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= low


class EngineError(SimrtError):
    """The engine reached a state its invariants rule out (engine bug)."""


class InvalidRate(SimrtError):
    def __init__(self, name: str, value, minimum: int):
        super().__init__(f"{name} must be an integer >= {minimum} (not a bool), got {value!r}")
        self.name = name
        self.value = value
        self.minimum = minimum


class AuditError(SimrtError):
    """A trace audit found an invariant violation."""
