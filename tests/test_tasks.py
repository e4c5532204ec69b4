import random

import pytest

from simrt import (CycleDetected, DuplicateId, ParseError, Task, TaskGraph,
                   TaskTags, UnknownDependency, dump_scenario, load_scenario,
                   validate_graph)

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
