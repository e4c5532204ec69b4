import argparse
import collections
import copy
import dataclasses
import hashlib
import inspect
import json
import pickle
import random
import tracemalloc

import pytest

import simrt.tasks
from simrt import (CycleDetected, DuplicateId, GraphError, ParseError, Policy, SimConfig,
                   SimrtError, Task, TaskGraph, TaskTags, UnknownDependency, builtin_profiles,
                   dump_scenario, load_scenario, robot_pipeline, simulate, validate_graph)

from .oracle import kahn_has_topological_order


def graph(*tasks):
    return TaskGraph(tasks)


def task(tid, deps=(), release=0, workload="w"):
    return Task(id=tid, workload=workload, deps=frozenset(deps), release_us=release)


class TestValidateGraph:
    def test_empty_graph_ok(self):
        validate_graph(graph())

    def test_self_loop(self):
        with pytest.raises(CycleDetected) as exc:
            validate_graph(graph(task(1, deps=[1])))
        assert exc.value.cycle == [1]

    def test_three_cycle(self):
        tasks = [task(1, deps=[3]), task(2, deps=[1]), task(3, deps=[2])]
        with pytest.raises(CycleDetected) as exc:
            graph(*tasks)
        assert set(exc.value.cycle) == {1, 2, 3}
        # independent check that the relation really has no topological order
        assert not kahn_has_topological_order(
            [t.id for t in tasks], {t.id: t.deps for t in tasks})

    def test_duplicate_id(self):
        with pytest.raises(DuplicateId):
            validate_graph(graph(task(1), task(1)))

    def test_unknown_dependency(self):
        with pytest.raises(UnknownDependency) as exc:
            validate_graph(graph(task(1, deps=[99])))
        assert exc.value.dep == 99

    def test_agrees_with_kahn_oracle_on_random_digraphs(self):
        rng = random.Random(0xBEEF)
        for _ in range(300):
            n = rng.randint(1, 7)
            deps_of = {}
            for i in range(1, n + 1):
                # arbitrary direction edges so cycles occur regularly
                deps_of[i] = frozenset(
                    d for d in range(1, n + 1)
                    if d != i and rng.random() < 0.25)
            tasks = [task(i, deps=deps_of[i]) for i in range(1, n + 1)]
            expected_ok = kahn_has_topological_order(list(deps_of), deps_of)
            if expected_ok:
                validate_graph(graph(*tasks))
            else:
                with pytest.raises(CycleDetected) as exc:
                    graph(*tasks)
                # the named cycle is real: each task depends on the next
                cycle = exc.value.cycle
                assert len(set(cycle)) == len(cycle)
                for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                    assert b in deps_of[a]

    @pytest.mark.parametrize("tasks, error, message", [
        ([task(1, deps=[2]), task(2, deps=[1])], CycleDetected, "dependency cycle: 1 -> 2"),
        ([task(1), task(2), task(1)], DuplicateId, "duplicate task id 1"),
        ([task(1), task(2, deps=[1, 9])], UnknownDependency,
         "task 2 depends on unknown task 9"),
        # all three rules broken, the repeat last: the repeat is named
        ([task(1, deps=[2]), task(2, deps=[1, 8]), task(4), task(4)], DuplicateId,
         "duplicate task id 4"),
        # a cycle, then unknown deps: the first such task in graph order (not
        # the smallest id) and its smallest unknown dep are named
        ([task(1, deps=[2]), task(2, deps=[1]), task(6, deps=[9, 7, 1]), task(3, deps=[4])],
         UnknownDependency, "task 6 depends on unknown task 7"),
        # hand-built deps that are not a frozenset, after an unknown dep: the
        # task is named, where comparing a list with the ids raised TypeError
        ([task(1, deps=[9]), Task(2, "w", deps=[1])], GraphError,
         "task 2: deps must be a frozenset, not list"),
        # deps that cannot be counted or hashed are named too, not a bare TypeError
        ([Task(1, "w"), Task(2, "w", deps=5)], GraphError,
         "task 2: deps must be a frozenset, not int"),
        ([Task(1, "w"), Task(2, "w", deps=[[1]])], GraphError,
         "task 2: deps must be a frozenset, not list"),
        # a repeated id is still named first
        ([Task(1, "w"), Task(2, "w", deps=5), Task(1, "w")], DuplicateId,
         "duplicate task id 1"),
        # hand-built ids of mixed types: ints by value come before any other id,
        # which sort by type name and repr, where min over them raised TypeError
        ([Task(1, "w", deps=frozenset({"a", 2}))], UnknownDependency,
         "task 1 depends on unknown task 2"),
        ([Task("x", "w", deps=frozenset({"b", (1,), "a"}))], UnknownDependency,
         "task x depends on unknown task a"),
        ([Task(1, "w", deps=frozenset({"b", 2})), Task(2, "w", deps=frozenset({1})),
          Task("b", "w", deps=frozenset({1}))], CycleDetected, "dependency cycle: 1 -> 2"),
    ])
    def test_the_constructor_checks_in_order(self, tasks, error, message):
        with pytest.raises(SimrtError) as exc:
            TaskGraph(tasks)
        assert type(exc.value) is error
        assert str(exc.value) == message

    def test_a_dependent_listed_before_its_dependency_changes_nothing(self):
        # a graph in dependency order is indexed in one pass; one that lists
        # some dependents right before their dependency takes the full checks
        # and must end in the same index and the same run
        ordered = robot_pipeline(2, 25, 200, 3).tasks
        by_id = {t.id: t for t in ordered}
        first_dependent = {}  # task id -> the first task that depends on it
        for t in ordered:
            for dep in t.deps:
                first_dependent.setdefault(dep, t)
        tasks = list(ordered)
        for dependent in [t for t in first_dependent.values() if len(t.deps) == 1][:20]:
            (dep,) = dependent.deps
            tasks.remove(dependent)
            tasks.insert(tasks.index(by_id[dep]), dependent)
        position = {t.id: i for i, t in enumerate(tasks)}
        assert sum(position[dep] > position[t.id] for t in tasks for dep in t.deps) == 20
        given, in_order = TaskGraph(tasks), TaskGraph(ordered)
        assert validate_graph(given) == validate_graph(in_order)
        profile = builtin_profiles()["sd820-robot"]
        policy, config = Policy.parse("advanced:throughput"), SimConfig(buffer_capacity=4)
        _, trace = simulate(given, profile, policy, config)
        _, in_order_trace = simulate(in_order, profile, policy, config)
        assert trace.to_csv() == in_order_trace.to_csv()


class TestScenarioFiles:
    def test_round_trip(self):
        g = graph(
            Task(id=1, workload="convolution", tags=TaskTags(True, True)),
            Task(id=2, workload="update", tags=TaskTags(False, False),
                 deps=frozenset({1}), release_us=40),
        )
        again = load_scenario(dump_scenario(g))
        assert [t for t in again] == list(g.tasks)

    def test_dump_is_compact_and_round_trips_the_robot_pipeline(self):
        g = robot_pipeline(2, 25, 200, 3)
        text = dump_scenario(g)
        assert "\n" not in text and ": " not in text and ", " not in text
        assert text.startswith('{"tasks":[{"id":1,"workload":"capture",')
        assert load_scenario(text).tasks == g.tasks

    def test_documented_example(self):
        g = load_scenario('{"tasks":[{"id":1,"workload":"convolution",'
                          '"real_time":true,"image_input":true,"deps":[],"release_us":0}]}')
        t = g.task(1)
        assert t.workload == "convolution"
        assert t.tags == TaskTags(real_time=True, image_input=True)

    def test_unknown_key_rejected(self):
        with pytest.raises(ParseError):
            load_scenario('{"tasks":[{"id":1,"workload":"w","priority":3}]}')
        with pytest.raises(ParseError):
            load_scenario('{"tasks":[],"extra":1}')

    def test_defaults(self):
        g = load_scenario('{"tasks":[{"id":1,"workload":"w"}]}')
        t = g.task(1)
        assert t.release_us == 0
        assert t.tags == TaskTags(real_time=True, image_input=False)
        assert t.deps == frozenset()

    def test_bad_json(self):
        with pytest.raises(ParseError):
            load_scenario("{nope")

    def test_invalid_graph_rejected(self):
        with pytest.raises(CycleDetected):
            load_scenario('{"tasks":[{"id":1,"workload":"w","deps":[1]}]}')

    def test_negative_release_rejected(self):
        with pytest.raises(ParseError):
            load_scenario('{"tasks":[{"id":1,"workload":"w","release_us":-5}]}')


class TestLeanTasks:
    """Tasks are slotted, and a loaded graph shares its empty deps and its
    workload names."""

    def test_loaded_graph_shares_empty_deps_and_names(self):
        g = load_scenario(dump_scenario(robot_pipeline(2, 25, 200, 3)))
        empty = {id(t.deps) for t in g if not t.deps}
        assert len(empty) == 1
        names = {t.workload for t in g}
        assert len({id(t.workload) for t in g}) == len(names) > 1

    def test_load_peak_stays_near_what_the_graph_retains(self):
        # each parsed task dict is freed once its Task is built, so the parsed
        # document and the graph are never both whole in memory
        text = dump_scenario(robot_pipeline(10, 25, 200, 3))
        tracemalloc.start()
        try:
            graph = load_scenario(text)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(graph) == 3842
        assert peak < 1.7 * retained, (peak, retained)  # 1.40 on this input; 2.30 if every dict is held

    def test_task_is_slotted_and_stays_a_frozen_value(self):
        t = Task(id=7, workload="".join(["fc", "6"]), tags=TaskTags(False, True),
                 deps=frozenset({3, 5}), release_us=40)
        twin = Task(7, "fc6", TaskTags(False, True), frozenset([5, 3]), 40)
        assert not hasattr(t, "__dict__")
        assert t == twin and hash(t) == hash(twin)
        assert repr(t) == ("Task(id=7, workload='fc6', tags=TaskTags(real_time=False, "
                           "image_input=True), deps=frozenset({3, 5}), release_us=40)")
        assert pickle.loads(pickle.dumps(t)) == t
        assert copy.deepcopy(t) == t
        moved = dataclasses.replace(t, release_us=90)
        assert moved.release_us == 90 and moved.deps == t.deps and t.release_us == 40
        with pytest.raises(dataclasses.FrozenInstanceError):
            t.release_us = 1
        assert Task(1, "w").deps == frozenset()


def generated_task_class():
    """A twin of Task that keeps the __init__ dataclass generates."""
    @dataclasses.dataclass(frozen=True, slots=True)
    class Task:
        id: int
        workload: str
        tags: TaskTags = TaskTags()
        deps: frozenset = frozenset()
        release_us: int = 0
    Task.__qualname__ = "Task"  # as repr names the module-level class
    return Task


class TestTaskInit:
    """Task's hand-written __init__ builds the same frozen value as the
    generated one."""

    ARGS = [(7, "fc6", TaskTags(False, True), frozenset({3, 5}), 40), (7, "fc6"),
            (7, "fc7"), (8, "fc6", TaskTags(), frozenset(), 0)]

    def test_fields_are_unchanged(self):
        assert [(f.name, f.type, f.default, f.init, f.repr, f.hash, f.compare, f.kw_only)
                for f in dataclasses.fields(Task)] == [
            ("id", int, dataclasses.MISSING, True, True, None, True, False),
            ("workload", str, dataclasses.MISSING, True, True, None, True, False),
            ("tags", TaskTags, TaskTags(), True, True, None, True, False),
            ("deps", frozenset, frozenset(), True, True, None, True, False),
            ("release_us", int, 0, True, True, None, True, False)]
        assert inspect.signature(Task) == inspect.signature(generated_task_class())

    @pytest.mark.parametrize("field", ["id", "workload", "tags", "deps", "release_us"])
    def test_fields_cannot_be_assigned_or_deleted(self, field):
        t = Task(1, "w")
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(t, field, getattr(t, field))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(t, field)
        assert t == Task(1, "w")

    def test_names_that_are_not_fields_cannot_be_assigned_or_deleted(self):
        t = Task(1, "w")
        with pytest.raises(dataclasses.FrozenInstanceError, match="'relase_us'"):
            t.relase_us = 5
        with pytest.raises(dataclasses.FrozenInstanceError, match="'nope'"):
            del t.nope
        assert t == Task(1, "w")

    def test_keywords_defaults_and_replace(self):
        t = Task(workload="w", release_us=5, id=2)
        assert (t.id, t.workload, t.tags, t.deps, t.release_us) == (2, "w", TaskTags(),
                                                                    frozenset(), 5)
        assert Task(2, "w", release_us=5) == t
        moved = dataclasses.replace(t, deps=frozenset({1}), tags=TaskTags(False))
        assert moved == Task(2, "w", TaskTags(False), frozenset({1}), 5) and t.deps == frozenset()
        with pytest.raises(TypeError):
            Task(1)
        with pytest.raises(TypeError):
            Task(1, "w", tag=TaskTags())

    def test_eq_hash_and_repr_match_the_generated_init(self):
        twin_class = generated_task_class()
        tasks = [Task(*args) for args in self.ARGS]
        twins = [twin_class(*args) for args in self.ARGS]
        for t, twin in zip(tasks, twins):
            assert repr(t) == repr(twin) and hash(t) == hash(twin)
            assert [t == other for other in tasks] == [twin == other for other in twins]

    def test_pickle_and_copy_round_trip(self):
        for args in self.ARGS:
            t = Task(*args)
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                back = pickle.loads(pickle.dumps(t, protocol))
                assert type(back) is Task and back == t and repr(back) == repr(t)
            assert copy.copy(t) == t and copy.copy(t).deps is t.deps
            assert copy.deepcopy(t) == t


def _scenario(*tasks) -> str:
    return json.dumps({"tasks": list(tasks)})


_OK = {"id": 1, "workload": "w"}

# (scenario text, exact ParseError message, location); recorded on the
# loader before its fast path existed, so every rule keeps its wording and
# the order in which rules are checked
_REJECTIONS = [
    ("[]", "top level must be an object", "scenario"),
    ('{"tasks": [], "extra": 1, "another": 2}', "unknown keys: ['another', 'extra']", "scenario"),
    ("{}", "missing 'tasks' array", "scenario"),
    ('{"tasks": {}}', "'tasks' must be an array", "scenario"),
    (_scenario([1]), "task must be an object", "tasks[0]"),
    (_scenario("t"), "task must be an object", "tasks[0]"),
    (_scenario({**_OK, "priority": 3, "color": 1}), "unknown keys: ['color', 'priority']",
     "tasks[0]"),
    (_scenario({"workload": "w"}), "missing 'id'", "tasks[0]"),
    (_scenario({"id": 1}), "missing 'workload'", "tasks[0]"),
    (_scenario({"id": 1, "workload": ""}), "'workload' must be a non-empty string", "tasks[0]"),
    (_scenario({"id": 1, "workload": 7}), "'workload' must be a non-empty string", "tasks[0]"),
    # a workload name is written unquoted into the trace CSV
    *[(_scenario(_OK, {"id": 2, "workload": f"a{c}b"}),
       "'workload' must not contain a comma, a double quote, CR or LF", "tasks[1]")
      for c in ',"\r\n'],
    (_scenario({"id": True, "workload": "w"}), "'id' must be a non-negative integer", "tasks[0]"),
    (_scenario({"id": -1, "workload": "w"}), "'id' must be a non-negative integer", "tasks[0]"),
    (_scenario({"id": 1.0, "workload": "w"}), "'id' must be a non-negative integer", "tasks[0]"),
    (_scenario({"id": None, "workload": "w"}), "'id' must be a non-negative integer", "tasks[0]"),
    (_scenario({**_OK, "real_time": 1}), "'real_time' must be a boolean", "tasks[0]"),
    (_scenario({**_OK, "image_input": 0}), "'image_input' must be a boolean", "tasks[0]"),
    (_scenario({**_OK, "real_time": None}), "'real_time' must be a boolean", "tasks[0]"),
    (_scenario({**_OK, "deps": None}), "'deps' must be an array of integers", "tasks[0]"),
    (_scenario({**_OK, "deps": {}}), "'deps' must be an array of integers", "tasks[0]"),
    (_scenario({**_OK, "deps": "12"}), "'deps' must be an array of integers", "tasks[0]"),
    (_scenario({**_OK, "deps": [True]}), "'deps' must be an array of integers", "tasks[0]"),
    (_scenario({**_OK, "deps": [2, 1.0]}), "'deps' must be an array of integers", "tasks[0]"),
    (_scenario({**_OK, "release_us": False}), "'release_us' must be a non-negative integer",
     "tasks[0]"),
    (_scenario({**_OK, "release_us": -5}), "'release_us' must be a non-negative integer",
     "tasks[0]"),
    (_scenario({**_OK, "release_us": 2.5}), "'release_us' must be a non-negative integer",
     "tasks[0]"),
    (_scenario({**_OK, "release_us": 10**400}), "'release_us' must be at most 1e+12", "tasks[0]"),
    (_scenario({**_OK, "release_us": 10**12 + 1}), "'release_us' must be at most 1e+12",
     "tasks[0]"),
    # the first broken rule wins when an entry breaks several
    (_scenario({"id": -1, "workload": "", "real_time": 1}),
     "'id' must be a non-negative integer", "tasks[0]"),
    (_scenario({"id": 1, "workload": "", "deps": None}),
     "'workload' must be a non-empty string", "tasks[0]"),
    (_scenario({"id": 1, "real_time": 1}), "missing 'workload'", "tasks[0]"),
    (_scenario({"workload": 3, "x": 1}), "unknown keys: ['x']", "tasks[0]"),
    (_scenario({**_OK, "image_input": 1, "deps": "x", "release_us": -1}),
     "'image_input' must be a boolean", "tasks[0]"),
    (_scenario({**_OK, "deps": [True], "release_us": -1}),
     "'deps' must be an array of integers", "tasks[0]"),
    # a bad entry after good ones is named by its own index
    (_scenario({"id": 1, "workload": "w"}, {"id": 2, "workload": "w"},
               {"id": 3, "workload": "w", "deps": [1, 2]}, {"id": 4, "workload": "w",
                                                           "real_time": 0}),
     "'real_time' must be a boolean", "tasks[3]"),
    (_scenario(_OK, _OK, _OK, None), "task must be an object", "tasks[3]"),
]


class TestLoaderErrors:
    @pytest.mark.parametrize("text, message, location", _REJECTIONS)
    def test_exact_message_and_location(self, text, message, location):
        with pytest.raises(ParseError) as exc:
            load_scenario(text)
        assert exc.value.location == location
        assert str(exc.value) == f"{location}: {message}"

    def test_int_tags_are_not_booleans_and_bool_ids_not_integers(self):
        # True == 1 and hash(True) == hash(1), so neither may slip through a
        # lookup keyed by value
        for bad in ({"real_time": 1}, {"image_input": 1}, {"real_time": 0},
                    {"id": False}, {"deps": [False]}, {"release_us": True}):
            with pytest.raises(ParseError):
                load_scenario(_scenario({**_OK, **bad}))

    def test_tags_keep_their_values(self):
        g = load_scenario(_scenario(*(
            {"id": i, "workload": "w", "real_time": rt, "image_input": img}
            for i, (rt, img) in enumerate([(True, True), (True, False),
                                           (False, True), (False, False)]))))
        assert [(t.tags.real_time, t.tags.image_input) for t in g] == [
            (True, True), (True, False), (False, True), (False, False)]
        assert all(type(t.tags.real_time) is bool and type(t.tags.image_input) is bool
                   for t in g)


def test_every_message_of_the_entry_rules_is_pinned_by_the_loader_errors():
    # so TestLoaderErrors checks each entry rule's exact wording
    pinned = [(message, json.loads(text)["tasks"])
              for text, message, location in _REJECTIONS if location.startswith("tasks[")]
    for _, _, message in simrt.tasks._ENTRY_RULES:
        if callable(message):  # worded from the entry
            assert any(message(entry) == pinned_message for pinned_message, entries in pinned
                       for entry in entries if type(entry) is dict), message
        else:
            assert message in dict(pinned), message


# Pin of load_scenario's first error over documents with several faults at
# once: each is one of a few valid scenarios of 259 to 280 tasks with one to
# three seeded faults, each placed at entry 0, 255, 256, 257 or the last, on
# both sides of a 256-entry boundary. Its outcome (`ok`, or the error's type
# and message) is folded into one SHA-256, so a change to which rule the
# loader checks first, to where it looks, or to any message changes the
# digest. Run as a module, this file prints the digest of N such documents
# and that of M fuzzed ones (below; defaults as pinned), or with --outcomes
# the `i|outcome` lines both digests fold (the faulty documents', then the
# fuzzed ones'), so that two trees can be compared beyond what is pinned:
#
#     PYTHONPATH=src python -m tests.test_tasks 30000 --fuzz 20000
#     PYTHONPATH=src python -m tests.test_tasks --outcomes
SCENARIO_FAULT_DOCUMENTS = 1500
SCENARIO_FAULT_DIGEST = "39254d1ceea5d6aaf0d1dc9e4a802a1be83ac8a348b229a695d7f794f90b7a40"

_FAULT_POSITIONS = (0, 255, 256, 257, -1)
_NAMES = ["capture", "localization", "detection", "planning"]


def _valid_entries(rng: random.Random) -> list:
    """A valid scenario's task entries, each dependent listed after its deps
    except, sometimes, one adjacent pair listed the other way round."""
    n = rng.randint(259, 280)
    ids = rng.sample(range(3 * n), n)
    entries = []
    for i, tid in enumerate(ids):
        entry = {"id": tid, "workload": rng.choice(_NAMES)}
        if rng.random() < 0.5:
            entry["real_time"] = rng.random() < 0.5
        if rng.random() < 0.3:
            entry["image_input"] = rng.random() < 0.5
        if i and rng.random() < 0.6:
            entry["deps"] = rng.sample(ids[max(0, i - 8):i], rng.randint(1, min(i, 3)))
        if rng.random() < 0.7:
            entry["release_us"] = rng.randrange(10**7)
        entries.append(entry)
    if rng.random() < 0.5:
        i = rng.randrange(1, n)
        entries[i - 1], entries[i] = entries[i], entries[i - 1]
    return entries


def _scenario_fault(rng: random.Random, entries: list) -> None:
    """Apply one seeded fault from a fixed list at one of the fault positions
    that still holds an object; an entry is copied before it is changed."""
    positions = [p % len(entries) for p in _FAULT_POSITIONS
                 if type(entries[p]) is dict]
    p = rng.choice(positions)
    entry = entries[p] = dict(entries[p])
    fault = rng.randrange(12)
    if fault == 0:  # a non-object entry
        entries[p] = rng.choice([1, "t", None, [], True])
    elif fault == 1:  # an unknown key
        entry[rng.choice(["priority", "ID", "dep"])] = 3
    elif fault == 2:  # a missing id or workload
        entry.pop(rng.choice(["id", "workload"]), None)
    elif fault == 3:  # a bool or negative id
        entry["id"] = rng.choice([True, False, -1, -7])
    elif fault == 4:  # an empty or comma-bearing workload
        entry["workload"] = rng.choice(["", "a,b", "detection,2"])
    elif fault == 5:  # an int tag
        entry[rng.choice(["real_time", "image_input"])] = rng.choice([0, 1])
    elif fault == 6:  # deps that are not a list
        entry["deps"] = rng.choice([None, {}, "12", 3])
    elif fault == 7:  # a bool dep
        entry["deps"] = _deps(entry) + [rng.choice([True, False])]
    elif fault == 8:  # a bool, negative or too large release
        entry["release_us"] = rng.choice([True, False, -1, 10**12 + 1, 10**13])
    elif fault == 9:  # an id repeated from another entry
        other = rng.choice([e for e in entries if type(e) is dict and e is not entry])
        entry["id"] = other.get("id", 0)
    elif fault == 10:  # a dep on an id no entry has
        entry["deps"] = _deps(entry) + [10**9 + rng.randrange(10)]
    else:  # a cycle: a self-loop, or two entries that depend on each other
        q = rng.choice(positions)
        other = entries[q] = entry if q == p else dict(entries[q])
        entry["deps"] = _deps(entry) + [other.get("id", 0)]
        other["deps"] = _deps(other) + [entry.get("id", 0)]


def _deps(entry: dict) -> list:
    deps = entry.get("deps", [])
    return list(deps) if type(deps) is list else []


def scenario_fault_outcomes(documents: int):
    """The `i|outcome` line of each of the first `documents` faulty scenarios."""
    rng = random.Random(30)
    bases = [_valid_entries(rng) for _ in range(8)]
    for i in range(documents):
        entries = list(rng.choice(bases))
        for _ in range(rng.randint(1, 3)):
            _scenario_fault(rng, entries)
        try:
            load_scenario(json.dumps({"tasks": entries}))
            outcome = "ok"
        except SimrtError as exc:
            outcome = f"{type(exc).__name__}: {exc}"
        yield f"{i}|{outcome}"


def _fold(lines) -> tuple:
    """(SHA-256 of the lines, each ended by a newline, counts of their outcome types)."""
    digest = hashlib.sha256()
    counts = collections.Counter()
    for line in lines:
        digest.update(f"{line}\n".encode())
        counts[line.partition("|")[2].partition(":")[0]] += 1
    return digest.hexdigest(), counts


def test_the_first_error_of_faulty_scenarios_is_pinned():
    digest, counts = _fold(scenario_fault_outcomes(SCENARIO_FAULT_DOCUMENTS))
    # every error type the loader raises
    assert {"ParseError", "DuplicateId", "UnknownDependency",
            "CycleDetected"} <= set(counts), counts
    assert digest == SCENARIO_FAULT_DIGEST, (counts, digest)


# Seeded fuzz of load_scenario: documents of 1 to 300 entries, mostly valid,
# with random JSON values (null, bools, integers, floats, strings with a
# comma, nested arrays and objects) put into random fields of random entries,
# or in place of whole entries. Every outcome must be a TaskGraph or a
# SimrtError; the outcomes (a loaded graph by its dump) fold into one SHA-256,
# recorded on the loader before its rules were gathered into one table.
SCENARIO_FUZZ_DOCUMENTS = 1000
SCENARIO_FUZZ_DIGEST = "9194a98432d28d2296fe5ce4d9800e40e6aff309ead0af6cae2ed036c786c8a2"

_FUZZ_KEYS = ("id", "workload", "real_time", "image_input", "deps", "release_us", "priority")


def _json_value(rng: random.Random, depth: int = 0):
    kind = rng.randrange(9 if depth < 2 else 7)
    if kind == 0:
        return None
    if kind == 1:
        return rng.random() < 0.5
    if kind == 2:
        return rng.choice([-1, 0, 1, 7, 10**12, 10**12 + 1, 10**20])
    if kind == 3:
        return rng.choice([0.0, 1.0, -2.0, 2.5, 1e12, 1e300])
    if kind == 4:
        return rng.choice(["", "w", "capture", "a,b", 'q"', "x\n", "\r"])
    if kind == 5:
        return [rng.randrange(-2, 300) for _ in range(rng.randrange(4))]
    if kind == 6:
        return rng.randrange(300)
    if kind == 7:
        return [_json_value(rng, depth + 1) for _ in range(rng.randrange(3))]
    return {rng.choice(_FUZZ_KEYS): _json_value(rng, depth + 1) for _ in range(rng.randrange(3))}


def _fuzzed_entries(rng: random.Random) -> list:
    n = rng.randint(1, 300)
    entries = [{"id": i, "workload": _NAMES[i % 4]} for i in range(n)]
    for i in rng.sample(range(1, n), (n - 1) // 2):
        entries[i]["deps"] = [rng.randrange(i)]
    if rng.random() < 0.3:  # a dependent listed right before its dependency
        i = rng.randrange(n)
        entries[i - 1], entries[i] = entries[i], entries[i - 1]
    for _ in range(rng.choice([0, 0, 1, 1, 2, 3])):
        p = rng.randrange(n)
        if rng.random() < 0.1 or type(entries[p]) is not dict:
            entries[p] = _json_value(rng)
        elif rng.random() < 0.15:
            entries[p].pop(rng.choice(_FUZZ_KEYS), None)
        else:
            entries[p][rng.choice(_FUZZ_KEYS)] = _json_value(rng)
    return entries


def scenario_fuzz_outcomes(documents: int):
    """The `i|outcome` line of each of the first `documents` fuzzed scenarios."""
    rng = random.Random(31)
    for i in range(documents):
        try:
            graph = load_scenario(json.dumps({"tasks": _fuzzed_entries(rng)}))
        except SimrtError as exc:
            outcome = f"{type(exc).__name__}: {exc}"
        else:
            assert type(graph) is TaskGraph
            outcome = f"ok: {dump_scenario(graph)}"
        yield f"{i}|{outcome}"


def test_fuzzed_scenarios_load_or_raise_a_simrt_error():
    digest, counts = _fold(scenario_fuzz_outcomes(SCENARIO_FUZZ_DOCUMENTS))
    assert {"ok", "ParseError", "DuplicateId", "UnknownDependency"} <= set(counts), counts
    assert digest == SCENARIO_FUZZ_DIGEST, (counts, digest)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Print the digests of the faulty and of "
                                                 "the fuzzed scenarios this file pins.")
    parser.add_argument("documents", nargs="?", type=int, default=SCENARIO_FAULT_DOCUMENTS)
    parser.add_argument("--fuzz", type=int, default=SCENARIO_FUZZ_DOCUMENTS, metavar="M")
    parser.add_argument("--outcomes", action="store_true",
                        help="print the i|outcome lines each digest folds instead")
    args = parser.parse_args()
    if args.outcomes:
        print(*scenario_fault_outcomes(args.documents), sep="\n")
        print(*scenario_fuzz_outcomes(args.fuzz), sep="\n")
    else:
        digest, counts = _fold(scenario_fault_outcomes(args.documents))
        print(f"{args.documents} documents, {dict(sorted(counts.items()))}: {digest}")
        digest, counts = _fold(scenario_fuzz_outcomes(args.fuzz))
        print(f"{args.fuzz} fuzzed documents, {dict(sorted(counts.items()))}: {digest}")
