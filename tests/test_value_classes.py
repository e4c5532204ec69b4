"""The ten frozen value classes behave as `dataclass(frozen=True)` makes
them, without the methods it compiles for each class.

`simrt.tasks._frozen` gives every one the same hand-written `__repr__`,
`__eq__`, `__hash__`, `__setattr__`, `__delattr__` and `__init__` (Task keeps
its own `__init__`). Each class is compared with a twin that
`dataclasses.dataclass(frozen=True)` builds from the same fields. The
structural tests fail when a later class brings the compiled methods back:
a class that is a dataclass but does not share the methods, that has no
docstring of its own, or an `import simrt` that compiles code through
`dataclasses`.
"""

import copy
import dataclasses
import importlib
import inspect
import os
import pathlib
import pickle
import subprocess
import sys

import pytest

import simrt
from simrt import (BasicPolicy, CostEntry, InvalidConfig, Metrics, NegativeValue, ParseError,
                   PlatformProfile, Policy, Route, RouteClass, ScenarioSpec, SetupMode, SimConfig,
                   Task, TaskGraph, TaskTags, UnitKind, UnitSpec, builtin_profiles,
                   convolution_batch, inference_comparison, restrict, simulate)
from simrt.tasks import _frozen

VALUE_CLASSES = (TaskTags, Task, UnitSpec, CostEntry, PlatformProfile, Policy, Route, SimConfig,
                 Metrics, ScenarioSpec)
_SHARED = ("__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__")


def _package_dataclasses() -> set:
    """Every dataclass defined in a module of the simrt package."""
    found = set()
    for path in pathlib.Path(simrt.__file__).parent.glob("*.py"):
        name = "simrt" if path.stem == "__init__" else f"simrt.{path.stem}"
        module = importlib.import_module(name)
        found |= {value for value in vars(module).values() if isinstance(value, type)
                  and dataclasses.is_dataclass(value) and value.__module__ == module.__name__}
    return found


def _twin(cls):
    """The class dataclass(frozen=True) builds from cls's fields."""
    fields = dataclasses.fields(cls)
    namespace = {"__annotations__": {f.name: f.type for f in fields},
                 "__qualname__": cls.__qualname__, "__module__": cls.__module__,
                 **{f.name: f.default for f in fields if f.default is not dataclasses.MISSING}}
    return dataclasses.dataclass(frozen=True, slots="__slots__" in vars(cls))(
        type(cls.__name__, (), namespace))


def _instances() -> dict:
    """Several instances of each class, equal and unequal ones."""
    profiles = builtin_profiles()
    sd820 = profiles["sd820"]
    metrics, _ = simulate(convolution_batch(5), sd820, Policy.parse("latency"))
    graph = convolution_batch(2)
    return {
        TaskTags: [TaskTags(), TaskTags(False), TaskTags(real_time=True, image_input=True),
                   TaskTags(True, False)],
        Task: [Task(7, "fc6", TaskTags(False, True), frozenset({3, 5}), 40), Task(7, "fc6"),
               Task(7, "fc7"), Task(8, "fc6", TaskTags(), frozenset(), 0)],
        UnitSpec: [UnitSpec(UnitKind.CPU), UnitSpec(UnitKind.DSP, 2, 1.5, 0.25),
                   UnitSpec(kind=UnitKind.CPU, weight=1, gops=None, idle_watts=0.0)],
        CostEntry: [CostEntry(), CostEntry(1, 2, 3, 4, 5),
                    CostEntry(energy_uj=5, kernel_us=3, setup_us=1, xfer_in_us=2, xfer_out_us=4),
                    CostEntry(kernel_us=0)],
        PlatformProfile: [sd820, builtin_profiles()["sd820"], profiles["sd820-robot"],
                          restrict(sd820, [UnitKind.CPU])],
        Policy: [Policy(BasicPolicy.LATENCY), Policy.parse("latency"),
                 Policy(BasicPolicy.ENERGY, advanced=True)],
        Route: [Route(RouteClass.CLOUD), Route(RouteClass.BASIC, UnitKind.CPU),
                Route(target=RouteClass.CLOUD, unit=None)],
        SimConfig: [SimConfig(), SimConfig(seed=0), SimConfig(SetupMode.PER_OFFLOAD, 3, 2, 1),
                    SimConfig(weights={"g": 1, "d": 0, "c": 2}), SimConfig(record_trace=False)],
        Metrics: [metrics, dataclasses.replace(metrics), dataclasses.replace(metrics, drops=1)],
        ScenarioSpec: [*inference_comparison(), ScenarioSpec("conv", graph),
                       ScenarioSpec("conv", graph)],
    }


def _outcome(fn, *args):
    """fn(*args), or the type of the exception it raises."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc)


def _same(a, b) -> bool:
    """Equal field by field; a TaskGraph, which compares by identity, by its tasks."""
    def key(value):
        return value.tasks if isinstance(value, TaskGraph) else value
    return type(a) is type(b) and all(key(getattr(a, f.name)) == key(getattr(b, f.name))
                                      for f in dataclasses.fields(a))


def test_the_ten_are_the_package_dataclasses():
    assert _package_dataclasses() == set(VALUE_CLASSES)


def test_the_ten_share_one_implementation():
    for name in _SHARED:
        assert len({getattr(cls, name) for cls in VALUE_CLASSES}) == 1, name
    assert len({cls.__init__ for cls in VALUE_CLASSES if cls is not Task}) == 1
    assert Task.__init__.__qualname__ == "Task.__init__"  # the fast slot-setter one
    for cls in VALUE_CLASSES:
        # dataclass derives "Name(field: type, ...)" for a class that has none
        assert cls.__doc__ and not cls.__doc__.startswith(f"{cls.__name__}("), cls
        assert getattr(cls, "__hash__") is not None


def _exec_no_method(source, *args):
    """exec, which dataclasses calls to compile methods. Python 3.13 also
    runs one builder per class that defines none: a method is another def."""
    if source.count("def ") > 1:
        raise AssertionError("dataclasses compiled a method")
    return exec(source, *args)


def test_decorating_compiles_no_method(monkeypatch):
    monkeypatch.setattr(dataclasses, "exec", _exec_no_method, raising=False)  # shadows the builtin

    @_frozen
    class Probe:
        """A value class made while dataclasses cannot compile."""
        a: int
        b: str = "x"

    assert repr(Probe(1)) == f"{Probe.__qualname__}(a=1, b='x')" and Probe(1) == Probe(a=1, b="x")
    with pytest.raises(AssertionError, match="compiled"):
        dataclasses.dataclass(frozen=True)(type("Compiled", (), {"__annotations__": {"a": int}}))


def test_a_fresh_import_compiles_no_method_through_dataclasses():
    code = "\n".join(["import dataclasses", inspect.getsource(_exec_no_method),
                      "dataclasses.exec = _exec_no_method", "import simrt"])
    src = str(pathlib.Path(simrt.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("cls", VALUE_CLASSES, ids=lambda cls: cls.__name__)
def test_a_class_matches_its_generated_twin(cls):
    twin = _twin(cls)
    assert inspect.signature(cls) == inspect.signature(twin)
    assert cls.__match_args__ == twin.__match_args__
    assert cls.__dataclass_params__.frozen and twin.__dataclass_params__.frozen
    assert [(f.name, f.type, f.default, f.default_factory, f.init, f.repr, f.hash, f.compare,
             f.kw_only) for f in dataclasses.fields(cls)] == [
        (f.name, f.type, f.default, f.default_factory, f.init, f.repr, f.hash, f.compare,
         f.kw_only) for f in dataclasses.fields(twin)]
    objs = _instances()[cls]
    twins = [twin(*(getattr(obj, f.name) for f in dataclasses.fields(cls))) for obj in objs]
    for obj, other in zip(objs, twins):
        assert repr(obj) == repr(other)
        assert [obj == o for o in objs] == [other == o for o in twins]
        assert [obj != o for o in objs] == [other != o for o in twins]
        assert _outcome(hash, obj) == _outcome(hash, other)  # TypeError where a field is a dict
        assert (obj == other) is False and (obj == object()) is False


@pytest.mark.parametrize("cls", VALUE_CLASSES, ids=lambda cls: cls.__name__)
def test_a_bad_call_raises_type_error_as_the_twin_does(cls):
    twin = _twin(cls)
    names = [f.name for f in dataclasses.fields(cls)]
    obj = _instances()[cls][0]
    values = [getattr(obj, name) for name in names]
    for args, kwargs in [(values + [None], {}), (values, {names[0]: values[0]}),
                         (values, {"no_such_field": 1}), ((), {})]:
        if not args and all(f.default is not dataclasses.MISSING
                            for f in dataclasses.fields(cls)):
            continue  # every field has a default: no call without arguments is bad
        with pytest.raises(TypeError):
            twin(*args, **kwargs)
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


@pytest.mark.parametrize("cls", VALUE_CLASSES, ids=lambda cls: cls.__name__)
def test_replace_builds_an_equal_value_through_init(cls):
    for obj in _instances()[cls]:
        copied = dataclasses.replace(obj)
        assert copied is not obj and _same(copied, obj) and repr(copied) == repr(obj)
        with pytest.raises(TypeError):
            dataclasses.replace(obj, no_such_field=1)


def test_replace_runs_the_post_init_checks():
    sd820 = builtin_profiles()["sd820"]
    with pytest.raises(NegativeValue):
        dataclasses.replace(sd820, cloud_energy_uj=-3)
    with pytest.raises(ParseError):
        dataclasses.replace(sd820, name=7)
    with pytest.raises(InvalidConfig):
        dataclasses.replace(SimConfig(), seed=-1)
    with pytest.raises(InvalidConfig):
        dataclasses.replace(Policy(BasicPolicy.LATENCY), advanced=1)
    moved = dataclasses.replace(SimConfig(), seed=4, cloud_slots=2)
    assert (moved.seed, moved.cloud_slots, moved.setup_mode) == (4, 2, SetupMode.AMORTIZED)


def test_a_frozen_dataclass_may_extend_one_and_a_mutable_one_may_not():
    @dataclasses.dataclass(frozen=True)
    class Tagged(SimConfig):
        tag: str = "x"

    tagged = Tagged(seed=3, tag="y")
    assert repr(tagged).endswith("seed=3, buffer_capacity=None, cloud_slots=None, weights=None, "
                                 "cloud_in_makespan=True, fpga_as_gpu=False, record_trace=True, "
                                 "tag='y')")
    with pytest.raises(InvalidConfig):  # SimConfig's checks still run
        Tagged(seed=-1)
    with pytest.raises(TypeError, match="cannot inherit non-frozen dataclass from a frozen one"):
        dataclasses.dataclass(type("Loose", (SimConfig,), {"__annotations__": {"extra": int}}))


@pytest.mark.parametrize("cls", VALUE_CLASSES, ids=lambda cls: cls.__name__)
def test_no_field_or_other_name_can_be_set_or_deleted(cls):
    for obj in _instances()[cls]:
        before = repr(obj)
        for name in [f.name for f in dataclasses.fields(cls)] + ["not_a_field"]:
            with pytest.raises(dataclasses.FrozenInstanceError,
                               match=f"^cannot assign to field '{name}'$"):
                setattr(obj, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError,
                               match=f"^cannot delete field '{name}'$"):
                delattr(obj, name)
        assert repr(obj) == before


@pytest.mark.parametrize("cls", VALUE_CLASSES, ids=lambda cls: cls.__name__)
def test_pickle_and_copy_round_trip(cls):
    for obj in _instances()[cls]:
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert _same(pickle.loads(pickle.dumps(obj, protocol)), obj), protocol
        assert _same(copy.deepcopy(obj), obj) and _same(copy.copy(obj), obj)
