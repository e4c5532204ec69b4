"""Task model: schedulable work units, tags, and data-flow task graphs.

Simulated time is an unsigned integer count of microseconds everywhere;
no floating-point time.
"""

import json
from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
from functools import partial
from inspect import Parameter, Signature
from itertools import chain, repeat
from typing import Iterable, Iterator, NoReturn

from .errors import CycleDetected, DuplicateId, GraphError, ParseError, UnknownDependency

# ceiling on every time, energy, count, weight and rate a profile or scenario
# holds; larger values overflow the float arithmetic of kernel times and metrics
MAX_UNIT_NUMBER = 1e12


def _frozen(cls, /, *, slots=False):
    """cls as dataclass(frozen=True, slots=slots) makes it, but with the methods
    below instead of those dataclass compiles from source for each class, most of
    simrt's import time; on fields without field() options they behave the same.
    Without a docstring, dataclass would derive one through inspect.signature."""
    cls = dataclass(cls, init=False, repr=False, eq=False, slots=slots)
    cls.__dataclass_params__.frozen = True  # read by dataclass() on a subclass
    cls.__signature__ = Signature([Parameter(f.name, Parameter.POSITIONAL_OR_KEYWORD,
        annotation=f.type, default=Parameter.empty if f.default is MISSING else f.default)
        for f in fields(cls)], return_annotation=None)
    cls.__repr__, cls.__eq__, cls.__hash__ = _repr, _eq, _hash
    cls.__setattr__ = cls.__delattr__ = _refuse
    cls.__init__ = vars(cls).get("__init__", _init)
    return cls


def _field_values(obj) -> tuple:
    return tuple(map(obj.__getattribute__, obj.__match_args__))


def _init(self, *args, **kwargs) -> None:
    values = self.__signature__.bind(*args, **kwargs).arguments  # TypeError for a bad call
    for name, field in self.__dataclass_fields__.items():
        object.__setattr__(self, name, values.get(name, field.default))
    if hasattr(self, "__post_init__"):
        self.__post_init__()


def _repr(self) -> str:
    items = map("{}={!r}".format, self.__match_args__, _field_values(self))
    return f"{type(self).__qualname__}({', '.join(items)})"


def _eq(self, other):
    same = other.__class__ is self.__class__
    return _field_values(self) == _field_values(other) if same else NotImplemented


def _hash(self) -> int:
    return hash(_field_values(self))


def _refuse(self, name, *value):  # __setattr__ and __delattr__
    raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


@_frozen
class TaskTags:
    """Scheduling tags: real-time requirement and image-consuming input."""
    real_time: bool = True
    image_input: bool = False


@partial(_frozen, slots=True)
class Task:
    """A unit of work: id, workload name, tags, dependency ids, release in µs."""
    id: int
    workload: str
    tags: TaskTags = TaskTags()
    deps: frozenset = frozenset()
    release_us: int = 0

    # one per scenario entry: its slots' own setters beat _init's object.__setattr__
    def __init__(self, id: int, workload: str, tags: TaskTags = TaskTags(),
                 deps: frozenset = frozenset(), release_us: int = 0) -> None:
        _set_id(self, id)
        _set_workload(self, workload)
        _set_tags(self, tags)
        _set_deps(self, deps)
        _set_release_us(self, release_us)

    def __reduce__(self) -> tuple:  # the default would set each slot through __setattr__
        return Task, _field_values(self)


_set_id, _set_workload, _set_tags, _set_deps, _set_release_us = (
    Task.__dict__[name].__set__ for name in ("id", "workload", "tags", "deps", "release_us"))


class TaskGraph:
    """Ordered, immutable collection of tasks forming a dependency DAG,
    checked when it is built."""

    def __init__(self, tasks: Iterable[Task]):
        self._tasks = tuple(tasks)
        self._index = validate_graph(self)  # raises unless the tasks form a DAG

    @property
    def tasks(self) -> tuple:
        return self._tasks

    def task(self, task_id: int) -> Task:
        return self._index[0][task_id]

    def __iter__(self) -> Iterator[Task]:
        return iter(self._tasks)

    def __len__(self) -> int:
        return len(self._tasks)


def validate_graph(graph: TaskGraph) -> tuple:
    """Raise DuplicateId, GraphError (deps not a frozenset), UnknownDependency
    or CycleDetected, or return the graph's read-only index: (task by id,
    dependent ids by id, dep count by id), the last two only for tasks that
    have any. Only TaskGraph's constructor builds it; every later call
    returns the index it kept."""
    return getattr(graph, "_index", None) or _dependency_index(graph)  # unset in __init__


def _dependency_index(graph: TaskGraph) -> tuple:
    """Build the index validate_graph returns in one pass over the graph's
    tasks, then check it; the errors come in the order validate_graph names.
    A graph whose every task comes after its deps is in dependency order, so
    it has no unknown dep and no cycle, and needs no check."""
    ids, dependents, dep_counts = {}, {}, {}
    ordered = True  # each task so far depends only on tasks before it
    for t in graph.tasks:
        if t.id in ids:  # the first repeat in graph order
            raise DuplicateId(t.id)
        if t.deps:
            if isinstance(t.deps, frozenset):
                ordered = ordered and t.deps <= ids.keys()
                dep_counts[t.id] = len(t.deps)
                for dep in t.deps:
                    dependents.setdefault(dep, []).append(t.id)
            else:  # a hand-built int or list, which the check below names
                ordered = False
        ids[t.id] = t  # after the order check: a task that depends on itself is out of order
    if ordered:
        return ids, dependents, dep_counts
    for t in graph.tasks:  # a hand-built task's deps may be a list, which <= cannot compare
        if t.deps and not isinstance(t.deps, frozenset):
            raise GraphError(f"task {t.id}: deps must be a frozenset, not {type(t.deps).__name__}")
    for t in graph.tasks:
        if t.deps and not t.deps <= ids.keys():
            raise UnknownDependency(t.id, min(t.deps - ids.keys()))

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
            node = min(dep for dep in ids[node].deps if deps_left.get(dep))
        raise CycleDetected(list(path)[path[node]:])
    return ids, dependents, dep_counts


def parse_document(text: str | bytes, location: str, keys, **json_options) -> dict:
    """The top-level object of a JSON document, holding only the given keys.
    Bytes are read as strict UTF-8, as the CLI reads a file: json.loads alone
    would also take a BOM, UTF-16/32 and encoded surrogates."""
    try:
        if isinstance(text, (bytes, bytearray)):
            text = text.decode("utf-8")
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


_ABSENT = object()  # a missing required key's value: no JSON value is an object()
_DEFAULTS = {"id": _ABSENT, "workload": _ABSENT, "real_time": True, "image_input": False,
             "deps": [], "release_us": 0}  # the value of a key a task entry leaves out
_TASK_KEYS = frozenset(_DEFAULTS)
# the four tag combinations, shared by every loaded task; looked up only after
# both values are checked to be bools, since {(1, 0): ...} matches (True, False)
_TAGS = {(rt, img): TaskTags(rt, img) for rt in (True, False) for img in (True, False)}
_NO_DEPS = frozenset()  # shared by every loaded task without deps
_CSV_SPECIAL = frozenset(',"\r\n')  # a workload name goes unquoted into the trace CSV
# entries checked at once, so that at most one chunk of parsed dicts is alive
# next to the built tasks
_CHUNK = 256
_TAKEN = (None,) * _CHUNK  # stands in for a chunk's entries once they are taken
# Each rule a task entry must keep, as (key, test, message), in the order an
# entry is checked. A test takes the key's values in some entries (the entries
# themselves for key None), all of which keep the rules before it, and the set
# of their types; it holds if every value keeps its rule, and runs in C.
_ENTRY_RULES = (
    (None, lambda col, kinds: kinds <= {dict}, "task must be an object"),
    (None, lambda col, kinds: set().union(*col) <= _TASK_KEYS,
     lambda obj: f"unknown keys: {sorted(obj.keys() - _TASK_KEYS)}"),
    ("id", lambda col, kinds: type(_ABSENT) not in kinds, "missing 'id'"),
    ("workload", lambda col, kinds: type(_ABSENT) not in kinds, "missing 'workload'"),
    ("id", lambda col, kinds: kinds <= {int} and min(col) >= 0,
     "'id' must be a non-negative integer"),
    ("workload", lambda col, kinds: kinds <= {str} and all(col),
     "'workload' must be a non-empty string"),
    ("workload", lambda col, kinds: all(map(_CSV_SPECIAL.isdisjoint, set(col))),
     "'workload' must not contain a comma, a double quote, CR or LF"),
    ("real_time", lambda col, kinds: kinds <= {bool}, "'real_time' must be a boolean"),
    ("image_input", lambda col, kinds: kinds <= {bool}, "'image_input' must be a boolean"),
    ("deps", lambda col, kinds: kinds <= {list}
     and {int}.issuperset(map(type, chain.from_iterable(col))),
     "'deps' must be an array of integers"),
    ("release_us", lambda col, kinds: kinds <= {int} and min(col) >= 0,
     "'release_us' must be a non-negative integer"),
    ("release_us", lambda col, kinds: max(col) <= MAX_UNIT_NUMBER,
     f"'release_us' must be at most {MAX_UNIT_NUMBER:g}"),
)


def load_scenario(text: str | bytes) -> TaskGraph:
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

    tasks: list = []
    names: dict = {}  # one str object per distinct workload name
    for start in range(0, len(entries), _CHUNK):
        tasks += map(Task, *_chunk_columns(entries, start, names))
    return TaskGraph(tasks)


def _chunk_columns(entries: list, start: int, names: dict) -> tuple:
    """The Task arguments of entries[start:start + _CHUNK] as five columns.
    Each rule of _ENTRY_RULES tests its column of the whole chunk once; only
    if one fails does _raise_first_error search the chunk entry by entry.

    The chunk's dicts are freed before its deps frozensets are built, and
    its deps lists before its Tasks are. CPython's cyclic GC collects once
    the objects it tracks that were made, less those freed, pass a threshold
    (700); freeing first keeps that count from rising above where the chunk
    found it, so the load starts no more collections than when each dict
    was freed once its Task existed."""
    chunk = entries[start:start + _CHUNK]
    entries[start:start + _CHUNK] = _TAKEN[:len(chunk)]
    columns = {None: (chunk, set(map(type, chunk)))}  # key -> (values, their types)
    for key, test, _ in _ENTRY_RULES:
        if key not in columns:
            col = list(map(dict.get, chunk, repeat(key), repeat(_DEFAULTS[key])))
            columns[key] = col, set(map(type, col))
        if not test(*columns[key]):
            _raise_first_error(chunk, start)
    chunk.clear()  # its entries were taken out of the list: this frees the dicts
    ids, workloads, real_time, image_input, deps, release = (columns[key][0] for key in _DEFAULTS)
    return (ids, map(names.setdefault, workloads, workloads),  # a name's first str object
            map(_TAGS.__getitem__, zip(real_time, image_input)),
            [frozenset(d) if d else _NO_DEPS for d in deps], release)


def _raise_first_error(chunk: list, start: int) -> NoReturn:
    """Raise the ParseError of a chunk whose first entry is tasks[start]: the
    first rule broken by the first entry that breaks one. Each rule in turn
    tests the entries before the lowest broken index found so far, which keep
    every earlier rule, so the rule that lowers it last is that entry's first."""
    bad = len(chunk)
    for key, test, message in _ENTRY_RULES:
        for i, obj in enumerate(chunk[:bad]):
            value = obj if key is None else obj.get(key, _DEFAULTS[key])
            if not test([value], {type(value)}):
                bad, broken = i, message
                break
    raise ParseError(broken(chunk[bad]) if callable(broken) else broken, f"tasks[{start + bad}]")


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
