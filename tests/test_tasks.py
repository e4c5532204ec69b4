import copy
import dataclasses
import json
import pickle
import random

import pytest

from simrt import (CycleDetected, DuplicateId, ParseError, Task, TaskGraph,
                   TaskTags, UnknownDependency, dump_scenario, load_scenario,
                   robot_pipeline, validate_graph)

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
        g = graph(task(1, deps=[3]), task(2, deps=[1]), task(3, deps=[2]))
        with pytest.raises(CycleDetected) as exc:
            validate_graph(g)
        assert set(exc.value.cycle) == {1, 2, 3}
        # independent check that the relation really has no topological order
        assert not kahn_has_topological_order(
            [t.id for t in g], {t.id: t.deps for t in g})

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
            g = graph(*(task(i, deps=deps_of[i]) for i in range(1, n + 1)))
            expected_ok = kahn_has_topological_order(list(deps_of), deps_of)
            if expected_ok:
                validate_graph(g)
            else:
                with pytest.raises(CycleDetected) as exc:
                    validate_graph(g)
                # the named cycle is real: each task depends on the next
                cycle = exc.value.cycle
                assert len(set(cycle)) == len(cycle)
                for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                    assert b in deps_of[a]


class TestScenarioFiles:
    def test_round_trip(self):
        g = graph(
            Task(id=1, workload="convolution", tags=TaskTags(True, True)),
            Task(id=2, workload="update", tags=TaskTags(False, False),
                 deps=frozenset({1}), release_us=40),
        )
        again = load_scenario(dump_scenario(g))
        assert [t for t in again] == list(g.tasks)

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
