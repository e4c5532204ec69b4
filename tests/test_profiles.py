import json
import random

import pytest

from simrt import (BadInterval, MissingCost, NegativeValue, ParseError,
                   SetupMode, UnitKind, builtin_profiles, cloud_latency,
                   energy_of, kernel_time, load_profile, offload_time,
                   preference_matrix, restrict)


def make_profile(**overrides):
    doc = {
        "units": [{"kind": "CPU", "weight": 2}],
        "workloads": [{"name": "w"}],
        "costs": {"w@CPU": {"kernel_us": 100, "energy_uj": 10}},
    }
    doc.update(overrides)
    return load_profile(json.dumps(doc))


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

    def test_builtin_sd820_dsp_throughput(self):
        p = builtin_profiles()["sd820"]
        assert p.unit(UnitKind.DSP).ops_per_sec == 4_000_000_000

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
        assert p.unit(UnitKind.CLOUD) is not None

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
        assert kernel_time(p, "conv2", UnitKind.GPU) == expected

    def test_derived_gaussian_blur_on_dsp(self):
        p = builtin_profiles()["sd820"]
        expected = ceil_div_us(15_400_000, 4_000_000_000)
        assert expected == 3850
        assert kernel_time(p, "gaussian_blur", UnitKind.DSP) == expected

    def test_explicit_kernel_wins_over_derivation(self):
        doc = {
            "units": [{"kind": "DSP", "weight": 1, "gops": 4}],
            "workloads": [{"name": "w", "ops": 15_400_000}],
            "costs": {"w@DSP": {"kernel_us": 100, "energy_uj": 1}},
        }
        p = load_profile(json.dumps(doc))
        assert kernel_time(p, "w", UnitKind.DSP) == 100

    def test_missing_pair(self):
        p = make_profile()
        with pytest.raises(MissingCost):
            kernel_time(p, "w", UnitKind.DSP)
        with pytest.raises(MissingCost):
            kernel_time(p, "nope", UnitKind.CPU)


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
        bd = offload_time(self.entry_profile(), "w", UnitKind.GPU,
                          SetupMode.AMORTIZED, unit_initialized=True)
        assert (bd.setup_us, bd.xfer_in_us, bd.kernel_us, bd.xfer_out_us) == (0, 100, 900, 200)
        assert bd.total_us == 1200

    def test_per_offload_charges_every_component(self):
        bd = offload_time(self.entry_profile(), "w", UnitKind.GPU,
                          SetupMode.PER_OFFLOAD, unit_initialized=True)
        assert bd.total_us == 6200

    def test_amortized_first_use_still_pays_setup(self):
        bd = offload_time(self.entry_profile(), "w", UnitKind.GPU,
                          SetupMode.AMORTIZED, unit_initialized=False)
        assert bd.total_us == 6200

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
                for initialized in (False, True):
                    bd = offload_time(p, "w", UnitKind.DSP, mode, initialized)
                    assert bd.total_us == (bd.setup_us + bd.xfer_in_us
                                           + bd.kernel_us + bd.xfer_out_us)
            amortized = offload_time(p, "w", UnitKind.DSP, SetupMode.AMORTIZED, True)
            cold = offload_time(p, "w", UnitKind.DSP, SetupMode.AMORTIZED, False)
            per = offload_time(p, "w", UnitKind.DSP, SetupMode.PER_OFFLOAD, True)
            assert amortized.total_us < per.total_us  # setup_us >= 1 here
            assert cold.total_us == per.total_us

    def test_setup_overhead_crossover_on_sd820(self):
        p = builtin_profiles()["sd820"]
        gpu = offload_time(p, "convolution", UnitKind.MGPU, SetupMode.PER_OFFLOAD, False)
        dsp = offload_time(p, "convolution", UnitKind.DSP, SetupMode.PER_OFFLOAD, False)
        assert gpu.kernel_us < dsp.kernel_us
        assert gpu.total_us > dsp.total_us
        assert dsp.setup_us < gpu.setup_us
        gpu_warm = offload_time(p, "convolution", UnitKind.MGPU, SetupMode.AMORTIZED, True)
        dsp_warm = offload_time(p, "convolution", UnitKind.DSP, SetupMode.AMORTIZED, True)
        assert gpu_warm.total_us < dsp_warm.total_us


class TestEnergyAndCloud:
    def test_tx1_energy_values(self):
        p = builtin_profiles()["tx1-cloud"]
        assert energy_of(p, "alexnet", UnitKind.CPU) == 800_000
        assert energy_of(p, "alexnet", UnitKind.GPU) == 132_000
        assert energy_of(p, "alexnet", UnitKind.CLOUD) == 10_000

    def test_tx1_kernel_values(self):
        p = builtin_profiles()["tx1-cloud"]
        assert kernel_time(p, "alexnet", UnitKind.CPU) == 400_000
        assert kernel_time(p, "alexnet", UnitKind.GPU) == 33_000

    def test_cloud_latency_within_interval(self):
        p = builtin_profiles()["tx1-cloud"]
        for seed in range(200):
            v = cloud_latency(p, random.Random(seed))
            assert 2_000_000 <= v <= 5_000_000

    def test_point_interval(self):
        p = make_profile(cloud={"latency_us": [3_000_000, 3_000_000], "energy_uj": 1})
        assert cloud_latency(p, random.Random(99)) == 3_000_000

    def test_pure_function_of_rng_state(self):
        p = builtin_profiles()["tx1-cloud"]
        a = [cloud_latency(p, random.Random(42)) for _ in range(2)]
        draws = random.Random(42)
        b = [cloud_latency(p, draws), cloud_latency(p, draws)]
        assert a[0] == b[0]
        again = random.Random(42)
        assert [cloud_latency(p, again), cloud_latency(p, again)] == b


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


class TestRestrict:
    def test_restrict_to_single_unit(self):
        p = builtin_profiles()["tx1-cloud"]
        cpu_only = restrict(p, {UnitKind.CPU})
        assert [u.kind for u in cpu_only.units] == [UnitKind.CPU]
        assert not cpu_only.has_cloud
        assert all(kind is UnitKind.CPU for (_, kind) in cpu_only.costs)
