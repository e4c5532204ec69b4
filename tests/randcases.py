"""Seeded generator of small `(scenario, profile, policy, config)` cases for
differential tests.

Each case is a pure function of its seed. Together the cases cover all six
policies and both setup modes, buffer capacities None/0-3, cloud slots
None/1/2, `cloud_in_makespan` on and off, idle power on some units, weight
overrides with zeros, `fpga_as_gpu`, costs on a 100 us grid with
zero-length phases, a cloud latency that is 0, fixed or a range, shuffled
task order, and hand-built profiles whose `cloud_energy_uj` is None. Some
cases leave a cost out or a slot empty, so a run may also fail with a
typed error.

`hp_case` draws a second family in which the high-priority queue does most
of the work: real-time tasks, mostly image-tagged, under the advanced
policies, on mostly three-unit pools where each image workload runs on two
or more units, so several idle units can often take the queue's head.
"""

import dataclasses
import json
import random

from simrt import SetupMode, SimConfig, Task, TaskGraph, TaskTags, load_profile

from .helpers import ALL_POLICIES, WORKLOADS

_UNIT_POOLS = (
    ["CPU"], ["mGPU"], ["CPU", "mGPU"], ["CPU", "DSP"], ["GPU", "DSP"],
    ["CPU", "mGPU", "DSP"], ["CPU", "GPU", "DSP"], ["CPU", "FPGA"],
    ["CPU", "FPGA", "DSP"],
)
_GRID = (0, 0, 100, 200, 300)  # us; zero-length phases are common


def _profile(rng: random.Random):
    """1-3 local units with grid costs, some idle power, an optional cloud
    and, now and then, a missing cost entry or a cloud without energy."""
    kinds = rng.choice(_UNIT_POOLS)
    costs = {
        f"{w}@{k}": {"setup_us": rng.choice(_GRID), "xfer_in_us": rng.choice(_GRID),
                     "kernel_us": rng.choice(_GRID), "xfer_out_us": rng.choice(_GRID),
                     "energy_uj": rng.randint(0, 500)}
        for w in WORKLOADS for k in kinds
    }
    if rng.random() < 0.03:
        del costs[rng.choice(sorted(costs))]
    doc = {
        "name": "randcase",
        "units": [{"kind": k, "weight": rng.choice((0, 1, 1, 2, 3)),
                   "idle_watts": rng.choice((0.0, 0.0, 0.0, 0.5, 1.25))} for k in kinds],
        "workloads": [{"name": w} for w in WORKLOADS],
        "costs": costs,
    }
    if rng.random() < 0.8:
        low = rng.choice((0, 100, 1000))
        high = low if rng.random() < 0.5 else low + rng.choice((100, 3000))
        doc["cloud"] = {"latency_us": [low, high], "energy_uj": rng.randint(0, 50)}
    profile = load_profile(json.dumps(doc))
    if profile.has_cloud and rng.random() < 0.05:
        # only a hand-built profile can declare a cloud without its energy
        profile = dataclasses.replace(profile, cloud_energy_uj=None)
    return profile


def _scenario(rng: random.Random, max_tasks: int = 12) -> TaskGraph:
    """A random DAG released on the cost grid, in shuffled order."""
    tasks = []
    for tid in range(1, rng.randint(0, max_tasks) + 1):
        deps = frozenset(d for d in range(max(1, tid - 5), tid) if rng.random() < 0.3)
        tasks.append(Task(id=tid, workload=rng.choice(WORKLOADS),
                          tags=TaskTags(real_time=rng.random() < 0.75,
                                        image_input=rng.random() < 0.4),
                          deps=deps, release_us=rng.randrange(0, 1500, 100)))
    rng.shuffle(tasks)
    return TaskGraph(tasks)


def _config(rng: random.Random) -> SimConfig:
    weights = None
    if rng.random() < 0.25:
        weights = {slot: rng.randint(0, 3) for slot in rng.sample(("g", "d", "c"), 2)}
    return SimConfig(
        setup_mode=rng.choice(tuple(SetupMode)),
        seed=rng.randrange(1000),
        buffer_capacity=rng.choice((None, 0, 1, 2, 3)),
        cloud_slots=rng.choice((None, 1, 2)),
        weights=weights,
        cloud_in_makespan=rng.random() < 0.5,
        fpga_as_gpu=rng.random() < 0.5,
    )


def random_case(seed: int) -> tuple:
    """(scenario, profile, policy, config) for one seed."""
    rng = random.Random(seed)
    return _scenario(rng), _profile(rng), rng.choice(ALL_POLICIES), _config(rng)


_HP_POOLS = (
    ["CPU", "mGPU", "DSP"], ["CPU", "GPU", "DSP"], ["CPU", "FPGA", "DSP"],
    ["mGPU", "DSP", "CPU"], ["CPU", "mGPU"], ["GPU", "DSP"],
)
_ADVANCED_POLICIES = tuple(p for p in ALL_POLICIES if p.advanced)
# image workloads are costed on 2+ units, the basic one on every unit
_IMAGE_WORKLOADS, _BASIC_WORKLOAD = WORKLOADS[:-1], WORKLOADS[-1]


def _hp_profile(rng: random.Random):
    """A mostly three-unit pool on the cost grid: each image workload costed
    on a random subset of at least two units and the basic workload on all,
    so a basic-routed task always resolves."""
    kinds = rng.choice(_HP_POOLS)
    costs = {}
    for w in WORKLOADS:
        for k in (rng.sample(kinds, rng.randint(2, len(kinds)))
                  if w != _BASIC_WORKLOAD else kinds):
            costs[f"{w}@{k}"] = {
                "setup_us": rng.choice(_GRID), "xfer_in_us": rng.choice(_GRID),
                "kernel_us": rng.choice(_GRID), "xfer_out_us": rng.choice(_GRID),
                "energy_uj": rng.randint(0, 500)}
    doc = {
        "name": "hpcase",
        "units": [{"kind": k, "weight": rng.choice((1, 1, 2, 3))} for k in kinds],
        "workloads": [{"name": w} for w in WORKLOADS],
        "costs": costs,
    }
    return load_profile(json.dumps(doc))


def _hp_scenario(rng: random.Random, n: int = 14) -> TaskGraph:
    """Real-time tasks released within 600 us, in shuffled order: about 90%
    are image consumers of an image workload, the rest run the basic one."""
    tasks = []
    for tid in range(1, n + 1):
        deps = frozenset(d for d in range(max(1, tid - 4), tid) if rng.random() < 0.25)
        image = rng.random() < 0.9
        workload = rng.choice(_IMAGE_WORKLOADS) if image else _BASIC_WORKLOAD
        tasks.append(Task(id=tid, workload=workload,
                          tags=TaskTags(real_time=True, image_input=image),
                          deps=deps, release_us=rng.randrange(0, 600, 100)))
    rng.shuffle(tasks)
    return TaskGraph(tasks)


def hp_case(seed: int) -> tuple:
    """(scenario, profile, policy, config) of the high-priority family for one seed."""
    rng = random.Random(seed)
    return (_hp_scenario(rng), _hp_profile(rng), rng.choice(_ADVANCED_POLICIES),
            _config(rng))
