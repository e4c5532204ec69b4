import dataclasses
import json
import random

import pytest

from simrt import (BadInterval, InvalidConfig, MissingCost, NegativeValue, ParseError,
                   PlatformProfile, Policy, SetupMode, SimConfig, SimrtError, UnitKind,
                   builtin_profiles, energy_of, load_profile, load_scenario, offload_time,
                   preference_matrix, restrict)
from simrt.profiles import CostEntry, UnitSpec
from simrt.builtins import BUILTIN_PROFILE_TEXTS

from .helpers import WORKLOADS, random_profile


def make_profile(**overrides):
    return load_profile(_p(**overrides))


def ceil_div_us(ops: int, ops_per_sec: int) -> int:
    # independent exact-integer oracle for derived kernel times
    scaled = ops * 1_000_000
    return (scaled + ops_per_sec - 1) // ops_per_sec


class TestLoadProfile:
    def test_minimal_profile(self):
        p = make_profile()
        assert len(p.units) == 1
        assert p.units[0].kind is UnitKind.CPU

    def test_unresolvable_cost_rejected(self):
        doc = {
            "units": [{"kind": "CPU", "weight": 1}],
            "workloads": [{"name": "convolution"}],  # no ops
            "costs": {"convolution@CPU": {"energy_uj": 5}},  # no kernel_us
        }
        with pytest.raises(MissingCost):
            load_profile(json.dumps(doc))

    def test_negative_value(self):
        with pytest.raises(NegativeValue):
            make_profile(costs={"w@CPU": {"kernel_us": -1}})

    def test_bad_interval(self):
        with pytest.raises(BadInterval):
            make_profile(cloud={"latency_us": [5, 2], "energy_uj": 1})
        with pytest.raises(BadInterval):
            make_profile(cloud={"latency_us": [5], "energy_uj": 1})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ParseError):
            make_profile(units=[{"kind": "CPU", "speed": 3}])
        with pytest.raises(ParseError):
            load_profile('{"units": [], "bogus": 1}')

    @pytest.mark.parametrize("overrides, message", [
        ({"units": 3}, "profile: 'units' must be an array"),
        ({"workloads": True}, "profile: 'workloads' must be an array"),
        ({"costs": []}, "profile: 'costs' must be an object"),
        ({"units": [{"kind": 7}]}, "unknown unit kind 7"),
        ({"units": [{"kind": None}]}, "unknown unit kind None"),
        ({"units": [{"kind": "CPU", "idle_watts": float("nan")}]},
         "profile: invalid JSON: NaN is not a number"),
        ({"units": [{"kind": "CPU", "gops": float("inf")}]},
         "profile: invalid JSON: Infinity is not a number"),
    ])
    def test_wrong_container_or_kind_type_rejected(self, overrides, message):
        with pytest.raises(ParseError) as exc:
            make_profile(**overrides)
        assert str(exc.value) == message

    def test_gpu_and_mgpu_exclusive(self):
        with pytest.raises(ParseError):
            make_profile(units=[{"kind": "GPU"}, {"kind": "mGPU"}])

    def test_cost_for_undeclared_workload_rejected(self):
        with pytest.raises(ParseError):
            make_profile(costs={"other@CPU": {"kernel_us": 1}})

    def test_cloud_section_adds_cloud_unit(self):
        p = make_profile(cloud={"latency_us": [10, 20], "energy_uj": 3})
        assert p.has_cloud
        assert p.unit(UnitKind.CLOUD) is None

    def test_omitted_weights_get_slot_defaults(self):
        doc = {
            "units": [{"kind": "CPU"}, {"kind": "mGPU"}, {"kind": "DSP"}],
            "workloads": [{"name": "w"}],
            "costs": {"w@CPU": {"kernel_us": 1, "energy_uj": 1}},
        }
        p = load_profile(json.dumps(doc))
        assert p.unit(UnitKind.CPU).weight == 2
        assert p.unit(UnitKind.MGPU).weight == 4
        assert p.unit(UnitKind.DSP).weight == 2


def _p(**overrides) -> str:
    """A valid one-unit profile's JSON text with top-level keys replaced."""
    doc = {
        "units": [{"kind": "CPU", "weight": 2}],
        "workloads": [{"name": "w"}],
        "costs": {"w@CPU": {"kernel_us": 100, "energy_uj": 10}},
    }
    doc.update(overrides)
    return json.dumps(doc)


def _units(*units) -> str:
    return _p(units=list(units))


def _workloads(*workloads) -> str:
    return _p(workloads=list(workloads))


def _costs(**entries) -> str:
    return _p(costs=entries)


def _entry(**fields) -> str:
    return _p(costs={"w@CPU": fields})


def _cloud(section) -> str:
    return _p(cloud=section)


# (profile text, exact error type, exact str(exc)): every rejection rule of
# load_profile, in the order the rules are checked, so an entry that breaks
# several is named by the first
_PROFILE_REJECTIONS = [
    # top level: JSON, object, keys, then the three container types
    ('{"units": [}', ParseError,
     'profile: invalid JSON: Expecting value: line 1 column 12 (char 11)'),
    ('[]', ParseError, 'profile: top level must be an object'),
    ('{"units": [{"kind": "CPU", "gops": NaN}]}', ParseError,
     'profile: invalid JSON: NaN is not a number'),
    (_p(bogus=1, extra=2), ParseError, "profile: unknown keys: ['bogus', 'extra']"),
    (_p(units=3), ParseError, "profile: 'units' must be an array"),
    (_p(workloads={}), ParseError, "profile: 'workloads' must be an array"),
    (_p(costs=[]), ParseError, "profile: 'costs' must be an object"),
    (_p(name=7), ParseError, "profile: 'name' must be a string"),
    (_p(name=None, units=3), ParseError, "profile: 'name' must be a string"),
    (_p(units=[1], costs=[]), ParseError, "profile: 'costs' must be an object"),
    # units, each rule in order
    (_units(1), ParseError, 'units[0]: unit must be an object'),
    (_units("CPU"), ParseError, 'units[0]: unit must be an object'),
    (_units({"kind": "CPU", "speed": 3, "color": 1}), ParseError,
     "units[0]: unknown keys: ['color', 'speed']"),
    (_units({}), ParseError, "units[0]: missing 'kind'"),
    (_units({"weight": 1, "speed": 3}), ParseError, "units[0]: unknown keys: ['speed']"),
    (_units({"kind": 7}), ParseError, 'unknown unit kind 7'),
    (_units({"kind": "TPU"}), ParseError, "unknown unit kind 'TPU'"),
    (_units({"kind": None}), ParseError, 'unknown unit kind None'),
    (_units({"kind": "CPU", "weight": -1}), NegativeValue,
     'field units[0].weight must be >= 0, got -1'),
    (_units({"kind": "CPU", "weight": 1.5}), ParseError, 'units[0]: weight must be an integer'),
    (_units({"kind": "CPU", "weight": True}), ParseError, 'units[0]: weight must be an integer'),
    (_units({"kind": "CPU", "weight": None}), ParseError, 'units[0]: weight must be an integer'),
    (_units({"kind": "CPU", "weight": 10**12 + 1}), ParseError,
     "units[0]: 'weight' must be at most 1e+12"),
    (_units({"kind": "CLOUD", "gops": 1}), ParseError,
     "units[0]: CLOUD is configured by the 'cloud' section, not as a unit"),
    (_units({"kind": "cloud", "weight": -1}), ParseError,
     "units[0]: CLOUD is configured by the 'cloud' section, not as a unit"),
    (_units({"kind": "CPU", "gops": "x"}), ParseError, "units[0]: 'gops' must be a number"),
    (_units({"kind": "CPU", "gops": True}), ParseError, "units[0]: 'gops' must be a number"),
    (_units({"kind": "CPU", "gops": 0}), NegativeValue, 'field units[0].gops must be >= 0, got 0'),
    (_units({"kind": "CPU", "gops": -2.5}), NegativeValue,
     'field units[0].gops must be >= 0, got -2.5'),
    (_units({"kind": "CPU", "idle_watts": -1}), NegativeValue,
     'field units[0].idle_watts must be >= 0, got -1'),
    (_units({"kind": "CPU", "idle_watts": "x"}), ParseError,
     "units[0]: 'idle_watts' must be a number"),
    (_units({"kind": "CPU", "idle_watts": True}), ParseError,
     "units[0]: 'idle_watts' must be a number"),
    (_units({"kind": "CPU", "idle_watts": None}), ParseError,
     "units[0]: 'idle_watts' must be a number"),
    (_units({"kind": "CPU", "gops": 1e308}), ParseError,
     "units[0]: 'gops' must be at most 1e+12"),
    (_units({"kind": "CPU", "idle_watts": 1e308}), ParseError,
     "units[0]: 'idle_watts' must be at most 1e+12"),
    (_units({"kind": "CPU", "idle_watts": 10**400}), ParseError,
     "units[0]: 'idle_watts' must be at most 1e+12"),
    (_units({"kind": "CPU", "weight": -1, "gops": "x", "idle_watts": -1}), NegativeValue,
     'field units[0].weight must be >= 0, got -1'),
    (_units({"kind": "CPU", "gops": 0, "idle_watts": "x"}), NegativeValue,
     'field units[0].gops must be >= 0, got 0'),
    (_units({"kind": "CPU"}, {"kind": "cpu"}), ParseError,
     'units[1]: unit kind CPU declared twice'),
    (_units({"kind": "CPU"}, {"kind": "CPU", "weight": -1}), NegativeValue,
     'field units[1].weight must be >= 0, got -1'),
    (_units({"kind": "CPU"}, {"kind": "GPU"}, {"kind": "mGPU"}), ParseError,
     'units: profile may declare at most one of GPU and mGPU'),
    (_units({"kind": "CPU"}, 5), ParseError, 'units[1]: unit must be an object'),
    # workloads
    (_workloads(3), ParseError, 'workloads[0]: workload must be an object'),
    (_workloads({"name": "w", "x": 1}), ParseError, "workloads[0]: unknown keys: ['x']"),
    (_workloads({}), ParseError, "workloads[0]: 'name' must be a non-empty string"),
    (_workloads({"name": ""}), ParseError, "workloads[0]: 'name' must be a non-empty string"),
    (_workloads({"name": 3}), ParseError, "workloads[0]: 'name' must be a non-empty string"),
    (_workloads({"name": "a,b"}), ParseError,
     "workloads[0]: 'name' must not contain a comma, a double quote, CR or LF"),
    (_workloads({"name": 'a"b'}), ParseError,
     "workloads[0]: 'name' must not contain a comma, a double quote, CR or LF"),
    (_workloads({"name": "a\rb"}), ParseError,
     "workloads[0]: 'name' must not contain a comma, a double quote, CR or LF"),
    (_workloads({"name": "a\nb"}), ParseError,
     "workloads[0]: 'name' must not contain a comma, a double quote, CR or LF"),
    (_workloads({"name": "w"}, {"name": "w"}), ParseError,
     "workloads[1]: workload 'w' declared twice"),
    (_workloads({"name": "w", "ops": -1}), NegativeValue,
     'field workloads[0].ops must be >= 0, got -1'),
    (_workloads({"name": "w", "ops": 1.5}), ParseError, 'workloads[0]: ops must be an integer'),
    (_workloads({"name": "w", "ops": 10**400}), ParseError,
     "workloads[0]: 'ops' must be at most 1e+12"),
    (_workloads({"name": "w", "ops": True}), ParseError, 'workloads[0]: ops must be an integer'),
    (_workloads({"name": "w"}, {"name": "v", "ops": "x"}), ParseError,
     'workloads[1]: ops must be an integer'),
    (_p(units=[1], workloads=[1]), ParseError, 'units[0]: unit must be an object'),
    # cost keys, in order: '@', workload, unit kind, unit declared
    (_costs(wCPU={"kernel_us": 1}), ParseError, "costs['wCPU']: cost key must be 'workload@UNIT'"),
    (_costs(**{"other@CPU": {"kernel_us": 1}}), ParseError,
     "costs['other@CPU']: cost references undeclared workload 'other'"),
    (_costs(**{"@CPU": {"kernel_us": 1}}), ParseError,
     "costs['@CPU']: cost references undeclared workload ''"),
    (_costs(**{"w@TPU": {"kernel_us": 1}}), ParseError, "unknown unit kind 'TPU'"),
    (_costs(**{"w@": {"kernel_us": 1}}), ParseError, "unknown unit kind ''"),
    (_costs(**{"w@DSP": {"kernel_us": 1}}), ParseError,
     "costs['w@DSP']: cost references undeclared unit DSP"),
    (_costs(**{"other@TPU": 3}), ParseError,
     "costs['other@TPU']: cost references undeclared workload 'other'"),
    (_costs(**{"w@DSP": 3}), ParseError, "costs['w@DSP']: cost references undeclared unit DSP"),
    (_p(costs={"w@CLOUD": {"kernel_us": 1}}, cloud={"latency_us": [1, 2]}), ParseError,
     "costs['w@CLOUD']: cost references undeclared unit CLOUD"),
    # cost entries
    (_costs(**{"w@CPU": 3}), ParseError, "costs['w@CPU']: cost entry must be an object"),
    (_costs(**{"w@CPU": []}), ParseError, "costs['w@CPU']: cost entry must be an object"),
    (_entry(kernel_us=1, speed=2), ParseError, "costs['w@CPU']: unknown keys: ['speed']"),
    (_entry(setup_us=-1, kernel_us=1), NegativeValue,
     "field costs['w@CPU'].setup_us must be >= 0, got -1"),
    (_entry(setup_us="x", kernel_us=1), ParseError, "costs['w@CPU']: setup_us must be an integer"),
    (_entry(xfer_in_us=-1, kernel_us=1), NegativeValue,
     "field costs['w@CPU'].xfer_in_us must be >= 0, got -1"),
    (_entry(xfer_in_us=1.0, kernel_us=1), ParseError,
     "costs['w@CPU']: xfer_in_us must be an integer"),
    (_entry(kernel_us=-1), NegativeValue, "field costs['w@CPU'].kernel_us must be >= 0, got -1"),
    (_entry(kernel_us=True), ParseError, "costs['w@CPU']: kernel_us must be an integer"),
    (_entry(xfer_out_us=-3, kernel_us=1), NegativeValue,
     "field costs['w@CPU'].xfer_out_us must be >= 0, got -3"),
    (_entry(xfer_out_us=None, kernel_us=1), ParseError,
     "costs['w@CPU']: xfer_out_us must be an integer"),
    (_entry(energy_uj=-10, kernel_us=1), NegativeValue,
     "field costs['w@CPU'].energy_uj must be >= 0, got -10"),
    (_entry(energy_uj="10", kernel_us=1), ParseError,
     "costs['w@CPU']: energy_uj must be an integer"),
    (_entry(kernel_us=10**400), ParseError, "costs['w@CPU']: 'kernel_us' must be at most 1e+12"),
    (_entry(setup_us=10**12 + 1, kernel_us=1), ParseError,
     "costs['w@CPU']: 'setup_us' must be at most 1e+12"),
    (_entry(xfer_in_us=10**12 + 1, kernel_us=1), ParseError,
     "costs['w@CPU']: 'xfer_in_us' must be at most 1e+12"),
    (_entry(xfer_out_us=10**12 + 1, kernel_us=1), ParseError,
     "costs['w@CPU']: 'xfer_out_us' must be at most 1e+12"),
    (_entry(energy_uj=10**400, kernel_us=1), ParseError,
     "costs['w@CPU']: 'energy_uj' must be at most 1e+12"),
    (_entry(setup_us=-1, xfer_in_us=-1, kernel_us="x", xfer_out_us=-1, energy_uj=-1), ParseError,
     "costs['w@CPU']: kernel_us must be an integer"),
    (_entry(setup_us="x", xfer_in_us=-1, kernel_us=1, energy_uj=-1), ParseError,
     "costs['w@CPU']: setup_us must be an integer"),
    (_entry(xfer_in_us=-1, xfer_out_us="x", energy_uj=-1, kernel_us=1), NegativeValue,
     "field costs['w@CPU'].xfer_in_us must be >= 0, got -1"),
    (_entry(xfer_out_us=-1, energy_uj="x", kernel_us=1), NegativeValue,
     "field costs['w@CPU'].xfer_out_us must be >= 0, got -1"),
    (_costs(**{"w@CPU": {"kernel_us": 1}, "w@cpu": {"kernel_us": 2}}), ParseError,
     "costs['w@cpu']: duplicate cost entry 'w@cpu'"),
    (_costs(**{"w@CPU": {"kernel_us": 1}, "w@cpu": {"kernel_us": -2}}), NegativeValue,
     "field costs['w@cpu'].kernel_us must be >= 0, got -2"),
    # cloud
    (_cloud(3), ParseError, "cloud: 'cloud' must be an object"),
    (_cloud({"latency_us": [1, 2], "energy_uj": 1, "region": "eu"}), ParseError,
     "cloud: unknown keys: ['region']"),
    (_cloud({"energy_uj": 1}), BadInterval, 'cloud.latency_us must be [lo, hi] integers'),
    (_cloud({"latency_us": [5]}), BadInterval, 'cloud.latency_us must be [lo, hi] integers'),
    (_cloud({"latency_us": "x"}), BadInterval, 'cloud.latency_us must be [lo, hi] integers'),
    (_cloud({"latency_us": [1, 2.0]}), BadInterval, 'cloud.latency_us must be [lo, hi] integers'),
    (_cloud({"latency_us": [True, 2]}), BadInterval, 'cloud.latency_us must be [lo, hi] integers'),
    (_cloud({"latency_us": [-1, 5]}), NegativeValue,
     'field cloud.latency_us must be >= 0, got [-1, 5]'),
    (_cloud({"latency_us": [5, 2]}), BadInterval, 'cloud latency interval has lo > hi: [5, 2]'),
    (_cloud({"latency_us": [0, 10**400]}), ParseError, "cloud: 'latency_us' must be at most 1e+12"),
    (_cloud({"latency_us": [10**12 + 1] * 2, "energy_uj": -1}), ParseError,
     "cloud: 'latency_us' must be at most 1e+12"),
    (_cloud({"latency_us": [1, 2], "energy_uj": -1}), NegativeValue,
     'field cloud.energy_uj must be >= 0, got -1'),
    (_cloud({"latency_us": [1, 2], "energy_uj": 1.5}), ParseError,
     'cloud: energy_uj must be an integer'),
    (_cloud({"latency_us": [1, 2], "energy_uj": 10**400}), ParseError,
     "cloud: 'energy_uj' must be at most 1e+12"),
    (_cloud({"latency_us": [5, 2], "energy_uj": -1, "x": 1}), ParseError,
     "cloud: unknown keys: ['x']"),
    (_cloud({"latency_us": [-5, -2], "energy_uj": "x"}), NegativeValue,
     'field cloud.latency_us must be >= 0, got [-5, -2]'),
    # every declared entry must resolve; checked after the cloud section
    (_entry(energy_uj=5), MissingCost, "no resolvable cost for workload 'w' on unit CPU"),
    (_p(units=[{"kind": "CPU", "gops": 2}], costs={"w@CPU": {}}), MissingCost,
     "no resolvable cost for workload 'w' on unit CPU"),
    (_p(workloads=[{"name": "w", "ops": 100}], costs={"w@CPU": {}}), MissingCost,
     "no resolvable cost for workload 'w' on unit CPU"),
    (_p(workloads=[{"name": "w", "ops": 100}], units=[{"kind": "CPU", "gops": 1e-12}],
        costs={"w@CPU": {}}),
     MissingCost, "no resolvable cost for workload 'w' on unit CPU"),
    (_p(costs={"w@CPU": {}}, cloud={"latency_us": [2, 1]}), BadInterval,
     'cloud latency interval has lo > hi: [2, 1]'),
    # first broken section wins: units, workloads, costs, cloud
    (_p(units=[{}], workloads=[3], costs={"x": 1}, cloud=3), ParseError,
     "units[0]: missing 'kind'"),
    (_p(workloads=[3], costs={"x": 1}, cloud=3), ParseError,
     'workloads[0]: workload must be an object'),
    (_p(costs={"x": 1}, cloud=3), ParseError, "costs['x']: cost key must be 'workload@UNIT'"),
]


@pytest.mark.parametrize("parse", [UnitKind.parse, SetupMode.parse, Policy.parse,
                                   load_profile])
@pytest.mark.parametrize("value", [None, 3])
def test_parsers_reject_a_non_string(parse, value):
    with pytest.raises(ParseError):
        parse(value)


@pytest.mark.parametrize("load, location", [(load_scenario, "scenario"),
                                             (load_profile, "profile")])
def test_parsers_reject_bytes_that_are_not_utf8(load, location):
    with pytest.raises(ParseError) as exc:
        load(b"\xff")
    assert str(exc.value) == f"{location}: not UTF-8 text: invalid start byte at byte 0"


class TestProfileLoaderErrors:
    @pytest.mark.parametrize("text, error, message", _PROFILE_REJECTIONS)
    def test_exact_type_and_message(self, text, error, message):
        with pytest.raises(SimrtError) as exc:
            load_profile(text)
        assert type(exc.value) is error
        assert str(exc.value) == message


class TestKernelTime:
    def test_derived_from_ops_and_throughput(self):
        doc = {
            "units": [{"kind": "GPU", "weight": 1, "gops": 256}],
            "workloads": [{"name": "conv2", "ops": 895_500_000}],
            "costs": {"conv2@GPU": {"energy_uj": 1}},
        }
        p = load_profile(json.dumps(doc))
        expected = ceil_div_us(895_500_000, 256_000_000_000)
        assert expected == 3499  # frozen from the oracle above
        assert p.costs["conv2", UnitKind.GPU].kernel_us == expected

    def test_derived_gaussian_blur_on_dsp(self):
        p = builtin_profiles()["sd820"]
        expected = ceil_div_us(15_400_000, 4_000_000_000)
        assert expected == 3850
        assert p.costs["gaussian_blur", UnitKind.DSP].kernel_us == expected

    def test_explicit_kernel_wins_over_derivation(self):
        doc = {
            "units": [{"kind": "DSP", "weight": 1, "gops": 4}],
            "workloads": [{"name": "w", "ops": 15_400_000}],
            "costs": {"w@DSP": {"kernel_us": 100, "energy_uj": 1}},
        }
        p = load_profile(json.dumps(doc))
        assert p.costs["w", UnitKind.DSP].kernel_us == 100


class TestOffloadTime:
    def entry_profile(self):
        doc = {
            "units": [{"kind": "GPU", "weight": 1}],
            "workloads": [{"name": "w"}],
            "costs": {"w@GPU": {"setup_us": 5000, "xfer_in_us": 100,
                                "kernel_us": 900, "xfer_out_us": 200,
                                "energy_uj": 10}},
        }
        return load_profile(json.dumps(doc))

    def test_amortized_hides_setup_after_init(self):
        bd = offload_time(self.entry_profile(), "w", UnitKind.GPU, SetupMode.AMORTIZED)
        assert (bd.setup_us, bd.xfer_in_us, bd.kernel_us, bd.xfer_out_us) == (0, 100, 900, 200)
        assert bd.total_us == 1200

    def test_per_offload_charges_every_component(self):
        p = self.entry_profile()
        bd = offload_time(p, "w", UnitKind.GPU, SetupMode.PER_OFFLOAD)
        assert bd.total_us == 6200
        assert bd is p.costs["w", UnitKind.GPU]

    def test_missing_pair(self):
        p = make_profile()
        for workload, kind in (("w", UnitKind.DSP), ("nope", UnitKind.CPU)):
            with pytest.raises(MissingCost):
                offload_time(p, workload, kind, SetupMode.AMORTIZED)
            with pytest.raises(MissingCost):
                energy_of(p, workload, kind)

    @pytest.mark.parametrize("mode", list(SetupMode))
    def test_an_entry_without_a_kernel_time_is_a_missing_cost(self, mode):
        # under either setup mode, the profile offload_time would read cannot be built
        with pytest.raises(MissingCost) as exc:
            PlatformProfile(name="hand", units=(UnitSpec(UnitKind.CPU),), workloads=("w",),
                            costs={("w", UnitKind.CPU): CostEntry(energy_uj=1)})
        assert (exc.value.workload, exc.value.unit) == ("w", UnitKind.CPU)
        assert str(exc.value) == "no resolvable cost for workload 'w' on unit CPU"

    @pytest.mark.parametrize("mode", ["per_offload", "amortized", None])
    def test_rejects_a_setup_mode_that_is_not_a_setup_mode(self, mode):
        p = builtin_profiles()["sd820"]
        with pytest.raises(InvalidConfig) as exc:
            offload_time(p, "convolution", UnitKind.MGPU, mode)
        with pytest.raises(InvalidConfig) as config_exc:
            SimConfig(setup_mode=mode)
        assert str(exc.value) == str(config_exc.value) == (
            f"setup_mode must be a SetupMode, got {mode!r}")

    def test_total_is_component_sum_and_amortized_never_exceeds(self):
        rng = random.Random(11)
        for _ in range(200):
            doc = {
                "units": [{"kind": "DSP", "weight": 1}],
                "workloads": [{"name": "w"}],
                "costs": {"w@DSP": {
                    "setup_us": rng.randint(1, 5000),
                    "xfer_in_us": rng.randint(0, 500),
                    "kernel_us": rng.randint(0, 5000),
                    "xfer_out_us": rng.randint(0, 500),
                    "energy_uj": 1,
                }},
            }
            p = load_profile(json.dumps(doc))
            for mode in SetupMode:
                bd = offload_time(p, "w", UnitKind.DSP, mode)
                assert bd.total_us == (bd.setup_us + bd.xfer_in_us
                                       + bd.kernel_us + bd.xfer_out_us)
            amortized = offload_time(p, "w", UnitKind.DSP, SetupMode.AMORTIZED)
            per = offload_time(p, "w", UnitKind.DSP, SetupMode.PER_OFFLOAD)
            assert amortized.total_us < per.total_us  # setup_us >= 1 here

    def test_setup_overhead_crossover_on_sd820(self):
        p = builtin_profiles()["sd820"]
        gpu = offload_time(p, "convolution", UnitKind.MGPU, SetupMode.PER_OFFLOAD)
        dsp = offload_time(p, "convolution", UnitKind.DSP, SetupMode.PER_OFFLOAD)
        assert gpu.kernel_us < dsp.kernel_us
        assert gpu.total_us > dsp.total_us
        assert dsp.setup_us < gpu.setup_us
        gpu_warm = offload_time(p, "convolution", UnitKind.MGPU, SetupMode.AMORTIZED)
        dsp_warm = offload_time(p, "convolution", UnitKind.DSP, SetupMode.AMORTIZED)
        assert gpu_warm.total_us < dsp_warm.total_us


class TestEnergyAndCloud:
    def test_tx1_energy_values(self):
        p = builtin_profiles()["tx1-cloud"]
        assert energy_of(p, "alexnet", UnitKind.CPU) == 800_000
        assert energy_of(p, "alexnet", UnitKind.GPU) == 132_000
        assert energy_of(p, "alexnet", UnitKind.CLOUD) == 10_000

    def test_tx1_kernel_values(self):
        p = builtin_profiles()["tx1-cloud"]
        assert p.costs["alexnet", UnitKind.CPU].kernel_us == 400_000
        assert p.costs["alexnet", UnitKind.GPU].kernel_us == 33_000


class TestPreferenceMatrix:
    # expected (perf, energy) preferences; the gpu slot on this platform is mGPU
    EXPECTED = {
        "gaussian_blur": ("CPU", "mGPU"),
        "convolution": ("mGPU", "mGPU"),
        "sobel": ("mGPU", "DSP"),
        "undistort": ("mGPU", "mGPU"),
        "feature_detect": ("DSP", "DSP"),
    }

    def test_sd820_matches_expected(self):
        p = builtin_profiles()["sd820"]
        matrix = preference_matrix(p)
        assert set(matrix) == set(self.EXPECTED)
        for workload, (perf, energy) in self.EXPECTED.items():
            got_perf, got_energy = matrix[workload]
            assert got_perf.value == perf, workload
            assert got_energy.value == energy, workload

    def test_an_entry_without_a_kernel_time_is_a_missing_cost(self):
        # the profile that preference_matrix would read cannot be built
        with pytest.raises(MissingCost) as exc:
            PlatformProfile(name="hand", units=(UnitSpec(UnitKind.CPU), UnitSpec(UnitKind.DSP)),
                            workloads=("w",),
                            costs={("w", UnitKind.CPU): CostEntry(energy_uj=1),
                                   ("w", UnitKind.DSP): CostEntry(kernel_us=5)})
        assert (exc.value.workload, exc.value.unit) == ("w", UnitKind.CPU)
        assert str(exc.value) == "no resolvable cost for workload 'w' on unit CPU"


class TestRestrict:
    def test_restrict_to_single_unit(self):
        p = builtin_profiles()["tx1-cloud"]
        cpu_only = restrict(p, {UnitKind.CPU})
        assert [u.kind for u in cpu_only.units] == [UnitKind.CPU]
        assert not cpu_only.has_cloud
        assert all(kind is UnitKind.CPU for (_, kind) in cpu_only.costs)

    @pytest.mark.parametrize("kinds, message", [
        (["CPU"], "restrict takes UnitKind members, got 'CPU'"),
        ((UnitKind.GPU, "mGPU", "CPU", UnitKind.CPU),
         "restrict takes UnitKind members, got 'CPU', 'mGPU'"),
        ([UnitKind.CPU, None], "restrict takes UnitKind members, got None"),
        ([[1], UnitKind.CPU], "restrict takes UnitKind members, got [1]"),
    ], ids=["string", "strings-and-kinds", "none", "unhashable"])
    def test_a_kind_that_is_not_a_unit_kind_is_rejected(self, kinds, message):
        with pytest.raises(InvalidConfig) as exc:
            restrict(builtin_profiles()["tx1-cloud"], kinds)
        assert str(exc.value) == message

    def test_an_empty_selection_is_the_empty_profile(self):
        empty = restrict(builtin_profiles()["sd820"], [])
        assert (empty.name, empty.units, empty.costs, empty.has_cloud) == (
            "sd820[]", (), {}, False)


def _sparse_doc(rng: random.Random) -> dict:
    """A profile document that declares a random subset of pairs, each with a
    measured, null or omitted kernel time (the last two derived from ops)."""
    kinds = rng.sample(["CPU", "mGPU", "DSP", "FPGA"], rng.randint(1, 4))
    costs = {}
    for w in ("a", "b", "c"):
        for k in kinds:
            if rng.random() < 0.7:
                entry = {"energy_uj": rng.randint(0, 500)}
                kernel = rng.choice(["measured", "null", "omitted"])
                if kernel != "omitted":
                    entry["kernel_us"] = rng.randint(0, 5000) if kernel == "measured" else None
                costs[f"{w}@{k}"] = entry
    return {
        "units": [{"kind": k, "gops": rng.choice([rng.randint(1, 300), rng.uniform(0.5, 300)])}
                  for k in kinds],
        "workloads": [{"name": w, "ops": rng.randint(0, 10**9)} for w in ("a", "b", "c")],
        "costs": costs,
    }


def _documents() -> list:
    """(document, declared (workload, UnitKind) pairs, loaded profile) for the
    builtins, random sparse documents and random_profile."""

    def declared(doc):
        return {(w, UnitKind.parse(k)) for w, _, k in (key.rpartition("@") for key in doc["costs"])}

    cases = [(json.loads(text), load_profile(text, name))
             for name, text in BUILTIN_PROFILE_TEXTS.items()]
    rng = random.Random(8)
    cases += [(doc, load_profile(json.dumps(doc))) for doc in (_sparse_doc(rng) for _ in range(50))]
    cases = [(doc, declared(doc), p) for doc, p in cases]
    for _ in range(50):  # every kernel measured, every pair declared
        p = random_profile(rng)
        cases.append((None, {(w, u.kind) for w in WORKLOADS for u in p.units}, p))
    return cases


class TestCompleteCostTable:
    """load_profile resolves every entry, so a loaded profile is a complete
    cost table: each kernel time is an int, and a unit runs a workload exactly
    when the pair is declared."""

    def test_every_kernel_is_an_int_and_derived_ones_match_the_oracle(self):
        derived = 0
        for doc, _, p in _documents():
            assert all(type(e.kernel_us) is int for e in p.costs.values()), p.name
            if doc is None:
                continue
            ops = {w["name"]: w.get("ops") for w in doc["workloads"]}
            gops = {UnitKind.parse(u["kind"]): u.get("gops") for u in doc["units"]}
            for key, obj in doc["costs"].items():
                w, _, k = key.rpartition("@")
                kind = UnitKind.parse(k)
                got = p.costs[w, kind].kernel_us
                if obj.get("kernel_us") is None:
                    derived += 1
                    assert got == ceil_div_us(ops[w], round(gops[kind] * 1e9)), key
                else:
                    assert got == obj["kernel_us"], key
        assert derived > 50  # both builtins' and random derived entries are covered

    def test_resolvable_exactly_when_declared_also_after_restrict(self):
        rng = random.Random(9)
        kinds = list(UnitKind)
        for _, pairs, p in _documents():
            keep = set(rng.sample(kinds, rng.randint(1, len(kinds))))
            for profile, kept in ((p, set(kinds)), (restrict(p, keep), keep)):
                assert all(type(e.kernel_us) is int for e in profile.costs.values())
                for w in p.workloads:
                    for kind in kinds:
                        expected = (w, kind) in pairs and kind in kept
                        assert profile.resolvable(w, kind) is expected, (profile.name, w, kind)


class TestEveryProfileIsComplete:
    """PlatformProfile rejects an entry without a kernel time however it is
    built, naming the first such entry in cost-key order."""

    MESSAGE = "no resolvable cost for workload 'v' on unit DSP"

    def test_the_first_kernel_less_entry_in_cost_key_order_is_named(self):
        with pytest.raises(MissingCost) as exc:
            PlatformProfile(name="hand", units=(UnitSpec(UnitKind.CPU), UnitSpec(UnitKind.DSP)),
                            workloads=("w", "v"),
                            costs={("w", UnitKind.CPU): CostEntry(kernel_us=5),
                                   ("v", UnitKind.DSP): CostEntry(),
                                   ("w", UnitKind.DSP): CostEntry(energy_uj=1)})
        assert (exc.value.workload, exc.value.unit) == ("v", UnitKind.DSP)
        assert str(exc.value) == self.MESSAGE

    def test_the_loader_names_the_first_underivable_entry_in_cost_key_order(self):
        # neither workload has ops, so neither kernel time can be derived
        text = _p(units=[{"kind": "CPU", "gops": 1}, {"kind": "DSP", "gops": 1}],
                  workloads=[{"name": "w"}, {"name": "v"}],
                  costs={"w@CPU": {"kernel_us": 5}, "v@DSP": {}, "w@DSP": {"kernel_us": None}})
        with pytest.raises(MissingCost) as exc:
            load_profile(text)
        assert (exc.value.workload, exc.value.unit) == ("v", UnitKind.DSP)
        assert str(exc.value) == self.MESSAGE

    def test_replacing_costs_with_a_kernel_less_entry_raises(self):
        p = builtin_profiles()["sd820"]
        costs = {**p.costs, ("convolution", UnitKind.DSP): CostEntry(energy_uj=1)}
        with pytest.raises(MissingCost) as exc:
            dataclasses.replace(p, costs=costs)
        assert str(exc.value) == "no resolvable cost for workload 'convolution' on unit DSP"

    @pytest.mark.parametrize("name", sorted(BUILTIN_PROFILE_TEXTS))
    def test_builtin_and_restricted_entries_have_int_kernels_and_total_sums(self, name):
        p = builtin_profiles()[name]
        kinds = [u.kind for u in p.units] + [UnitKind.CLOUD]
        profiles = [p] + [restrict(p, [kind]) for kind in kinds]
        for profile in profiles:
            for key, e in profile.costs.items():
                assert type(e.kernel_us) is int, (profile.name, key)
                assert e.total_us == e.setup_us + e.xfer_in_us + e.kernel_us + e.xfer_out_us
        # the one-kind restrictions split p's entries between them
        assert sum(len(profile.costs) for profile in profiles) == 2 * len(p.costs)
