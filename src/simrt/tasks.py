"""Task model: schedulable work units, tags, and data-flow task graphs.

Simulated time is an unsigned integer count of microseconds everywhere;
no floating-point time.
"""

import json
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .errors import CycleDetected, DuplicateId, ParseError, UnknownDependency

TaskId = int


@dataclass(frozen=True)
class TaskTags:
    """Scheduling tags: real-time requirement and image-consuming input."""

    real_time: bool = True
    image_input: bool = False


@dataclass(frozen=True)
class Task:
    id: TaskId
    workload: str
    tags: TaskTags = TaskTags()
    deps: frozenset = field(default_factory=frozenset)
    release_us: int = 0


class TaskGraph:
    """Ordered, immutable collection of tasks forming a dependency DAG."""

    def __init__(self, tasks: Iterable[Task]):
        self._tasks = tuple(tasks)
        by_id = {}
        for t in self._tasks:
            by_id.setdefault(t.id, t)
        self._by_id = by_id

    @property
    def tasks(self) -> tuple:
        return self._tasks

    def task(self, task_id: TaskId) -> Task:
        return self._by_id[task_id]

    def __iter__(self) -> Iterator[Task]:
        return iter(self._tasks)

    def __len__(self) -> int:
        return len(self._tasks)

    def __contains__(self, task_id: TaskId) -> bool:
        return task_id in self._by_id


def validate_graph(graph: TaskGraph) -> None:
    """Check graph invariants; raises DuplicateId, UnknownDependency or CycleDetected."""
    dependents: dict = {}  # task id -> ids of the tasks that depend on it
    for t in graph.tasks:
        if t.id in dependents:
            raise DuplicateId(t.id)
        dependents[t.id] = []
    for t in graph.tasks:
        try:
            for dep in t.deps:
                dependents[dep].append(t.id)
        except KeyError:
            raise UnknownDependency(t.id, min(t.deps - dependents.keys())) from None

    # Kahn: count down each task's unfinished deps; what never reaches zero
    # lies on or behind a cycle
    deps_left = {t.id: len(t.deps) for t in graph.tasks}
    order = [tid for tid, n in deps_left.items() if n == 0]
    for tid in order:  # grows while iterating
        for dependent in dependents[tid]:
            deps_left[dependent] -= 1
            if deps_left[dependent] == 0:
                order.append(dependent)
    if len(order) < len(deps_left):
        # every leftover task has a leftover dep: walk them until a task repeats
        node = next(tid for tid, n in deps_left.items() if n)
        path: dict = {}  # task id -> position on the walk
        while node not in path:
            path[node] = len(path)
            node = min(dep for dep in graph.task(node).deps if deps_left[dep])
        raise CycleDetected(list(path)[path[node]:])


_TASK_KEYS = {"id", "workload", "real_time", "image_input", "deps", "release_us"}


def _expect(cond: bool, message: str, location: str) -> None:
    if not cond:
        raise ParseError(message, location)


def load_scenario(text: str) -> TaskGraph:
    """Parse a scenario JSON document into a validated TaskGraph.

    Unknown keys are rejected. Missing tags default to real_time=true,
    image_input=false; release_us defaults to 0.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", "scenario") from None
    _expect(isinstance(doc, dict), "top level must be an object", "scenario")
    extra = set(doc) - {"tasks"}
    _expect(not extra, f"unknown keys: {sorted(extra)}", "scenario")
    _expect("tasks" in doc, "missing 'tasks' array", "scenario")
    _expect(isinstance(doc["tasks"], list), "'tasks' must be an array", "scenario")

    tasks = []
    for i, obj in enumerate(doc["tasks"]):
        loc = f"tasks[{i}]"
        _expect(isinstance(obj, dict), "task must be an object", loc)
        extra = set(obj) - _TASK_KEYS
        _expect(not extra, f"unknown keys: {sorted(extra)}", loc)
        _expect("id" in obj, "missing 'id'", loc)
        _expect("workload" in obj, "missing 'workload'", loc)
        tid = obj["id"]
        _expect(isinstance(tid, int) and not isinstance(tid, bool) and tid >= 0,
                "'id' must be a non-negative integer", loc)
        workload = obj["workload"]
        _expect(isinstance(workload, str) and workload, "'workload' must be a non-empty string", loc)
        real_time = obj.get("real_time", True)
        image_input = obj.get("image_input", False)
        _expect(isinstance(real_time, bool), "'real_time' must be a boolean", loc)
        _expect(isinstance(image_input, bool), "'image_input' must be a boolean", loc)
        deps = obj.get("deps", [])
        _expect(isinstance(deps, list) and all(
            isinstance(d, int) and not isinstance(d, bool) for d in deps),
            "'deps' must be an array of integers", loc)
        release = obj.get("release_us", 0)
        _expect(isinstance(release, int) and not isinstance(release, bool) and release >= 0,
                "'release_us' must be a non-negative integer", loc)
        tasks.append(Task(
            id=tid,
            workload=workload,
            tags=TaskTags(real_time=real_time, image_input=image_input),
            deps=frozenset(deps),
            release_us=release,
        ))
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
    return json.dumps(doc, indent=2)
