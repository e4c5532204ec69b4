"""Task model: schedulable work units, tags, and data-flow task graphs.

Simulated time is an unsigned integer count of microseconds everywhere;
no floating-point time.
"""

import json
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import CycleDetected, DuplicateId, ParseError, UnknownDependency

# ceiling on every time, energy, count, weight and rate a profile or scenario
# holds; larger values overflow the float arithmetic of kernel times and metrics
MAX_UNIT_NUMBER = 1e12


@dataclass(frozen=True)
class TaskTags:
    """Scheduling tags: real-time requirement and image-consuming input."""

    real_time: bool = True
    image_input: bool = False


@dataclass(frozen=True, slots=True)
class Task:
    id: int
    workload: str
    tags: TaskTags = TaskTags()
    deps: frozenset = frozenset()
    release_us: int = 0


class TaskGraph:
    """Ordered, immutable collection of tasks forming a dependency DAG."""

    def __init__(self, tasks: Iterable[Task]):
        self._tasks = tuple(tasks)
        by_id = {}
        for t in self._tasks:
            by_id.setdefault(t.id, t)
        self._by_id = by_id
        self._index = None  # set by the first validate_graph that passes

    @property
    def tasks(self) -> tuple:
        return self._tasks

    def task(self, task_id: int) -> Task:
        return self._by_id[task_id]

    def __iter__(self) -> Iterator[Task]:
        return iter(self._tasks)

    def __len__(self) -> int:
        return len(self._tasks)


def validate_graph(graph: TaskGraph) -> tuple:
    """Raise DuplicateId, UnknownDependency or CycleDetected, or return the
    graph's read-only index: (task by id, dependent ids by id, dep count by
    id), the last two only for tasks that have any. The first check that
    passes keeps the index on the graph; later calls return it at once."""
    if graph._index is None:
        graph._index = _dependency_index(graph)
    return graph._index


def _dependency_index(graph: TaskGraph) -> tuple:
    """Check a graph and build the index validate_graph returns."""
    ids = graph._by_id
    if len(ids) < len(graph.tasks):
        seen: set = set()  # set.add returns None, so this finds the first repeat
        raise DuplicateId(next(t.id for t in graph.tasks if t.id in seen or seen.add(t.id)))
    dependents, dep_counts = {}, {}
    for t in graph.tasks:
        if t.deps:
            if not t.deps <= ids.keys():
                raise UnknownDependency(t.id, min(t.deps - ids.keys()))
            dep_counts[t.id] = len(t.deps)
            for dep in t.deps:
                dependents.setdefault(dep, []).append(t.id)

    # Kahn: count down each task's unfinished deps; what never reaches zero
    # lies on or behind a cycle
    deps_left = dep_counts.copy()
    order = [tid for tid in ids if tid not in deps_left]
    for tid in order:  # grows while iterating
        for dependent in dependents.get(tid, ()):
            deps_left[dependent] -= 1
            if deps_left[dependent] == 0:
                order.append(dependent)
    if len(order) < len(ids):
        # every leftover task has a leftover dep: walk them until a task repeats
        node = next(tid for tid, n in deps_left.items() if n)
        path: dict = {}  # task id -> position on the walk
        while node not in path:
            path[node] = len(path)
            node = min(dep for dep in graph.task(node).deps if deps_left.get(dep))
        raise CycleDetected(list(path)[path[node]:])
    return ids, dependents, dep_counts


def parse_document(text: str, location: str, keys, **json_options) -> dict:
    """The top-level object of a JSON document, holding only the given keys."""
    try:
        doc = json.loads(text, **json_options)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", location) from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply", location) from None
    except UnicodeDecodeError as exc:  # bytes that are not UTF-8
        raise ParseError(f"not UTF-8 text: {exc.reason} at byte {exc.start}", location) from None
    except TypeError:  # not str, bytes or bytearray
        raise ParseError(f"must be JSON text, not {type(text).__name__}", location) from None
    return check_object(doc, keys, location, "top level")


def check_object(obj, keys, location: str, what: str) -> dict:
    """obj, checked to be a JSON object that holds only the given keys."""
    if not isinstance(obj, dict):
        raise ParseError(f"{what} must be an object", location)
    extra = obj.keys() - keys
    if extra:
        raise ParseError(f"unknown keys: {sorted(extra)}", location)
    return obj


_TASK_KEYS = {"id", "workload", "real_time", "image_input", "deps", "release_us"}
_INT = frozenset({int})
# the four tag combinations, shared by every loaded task; looked up only after
# both values are checked to be bools, since {(1, 0): ...} matches (True, False)
_TAGS = {(rt, img): TaskTags(rt, img) for rt in (True, False) for img in (True, False)}
_NO_DEPS = frozenset()  # shared by every loaded task without deps


def load_scenario(text: str) -> TaskGraph:
    """Parse a scenario JSON document into a validated TaskGraph.

    Unknown keys are rejected. Missing tags default to real_time=true,
    image_input=false; release_us defaults to 0.
    """
    doc = parse_document(text, "scenario", {"tasks"})
    if "tasks" not in doc:
        raise ParseError("missing 'tasks' array", "scenario")
    entries = doc.pop("tasks")
    if not isinstance(entries, list):
        raise ParseError("'tasks' must be an array", "scenario")

    # each rule is checked in this order and names the first one an entry
    # breaks; the location and message are built only when one is broken
    tasks = []
    names: dict = {}  # one str object per distinct workload name
    for i, obj in enumerate(entries):
        if type(obj) is not dict:
            raise ParseError("task must be an object", f"tasks[{i}]")
        if not obj.keys() <= _TASK_KEYS:
            raise ParseError(f"unknown keys: {sorted(obj.keys() - _TASK_KEYS)}", f"tasks[{i}]")
        if "id" not in obj:
            raise ParseError("missing 'id'", f"tasks[{i}]")
        if "workload" not in obj:
            raise ParseError("missing 'workload'", f"tasks[{i}]")
        tid, workload = obj["id"], obj["workload"]
        if type(tid) is not int or tid < 0:
            raise ParseError("'id' must be a non-negative integer", f"tasks[{i}]")
        if type(workload) is not str or not workload:
            raise ParseError("'workload' must be a non-empty string", f"tasks[{i}]")
        real_time, image_input = obj.get("real_time", True), obj.get("image_input", False)
        if type(real_time) is not bool:
            raise ParseError("'real_time' must be a boolean", f"tasks[{i}]")
        if type(image_input) is not bool:
            raise ParseError("'image_input' must be a boolean", f"tasks[{i}]")
        deps, release = obj.get("deps", []), obj.get("release_us", 0)
        if type(deps) is not list or not _INT.issuperset(map(type, deps)):
            raise ParseError("'deps' must be an array of integers", f"tasks[{i}]")
        if type(release) is not int or release < 0:
            raise ParseError("'release_us' must be a non-negative integer", f"tasks[{i}]")
        if release > MAX_UNIT_NUMBER:
            raise ParseError(f"'release_us' must be at most {MAX_UNIT_NUMBER:g}", f"tasks[{i}]")
        tasks.append(Task(tid, names.setdefault(workload, workload), _TAGS[real_time, image_input],
                          frozenset(deps) if deps else _NO_DEPS, release))
        entries[i] = None  # the parsed dict is garbage once its Task exists
    graph = TaskGraph(tasks)
    validate_graph(graph)
    return graph


def dump_scenario(graph: TaskGraph) -> str:
    """Serialize a TaskGraph to the scenario JSON format."""
    doc = {"tasks": [
        {
            "id": t.id,
            "workload": t.workload,
            "real_time": t.tags.real_time,
            "image_input": t.tags.image_input,
            "deps": sorted(t.deps),
            "release_us": t.release_us,
        }
        for t in graph.tasks
    ]}
    return json.dumps(doc, separators=(",", ":"))
