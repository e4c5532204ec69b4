"""Golden lock: the SHA-256 of trace CSV plus metrics JSON for fixed runs.
`tests/test_golden.py` checks these pins; this module needs no pytest, so
it runs under any Python the package supports.

Together the cases cover every policy, both setup modes, buffer drops and
skip cascades, bounded cloud slots, a weights override and `fpga_as_gpu`.
`hp-rekick-*` pins the high-priority re-kick: once a unit takes the head,
the next head starts on another idle unit that can run it.
The `grid-*` cases pin equal-time event order: zero-length phases on
several units at one instant, dependents released at the instant their
dependency completes, and releases on phase boundaries and cloud
completions.
A change that moves a hash changes simulated behaviour; say why when you
update one. Print the current hashes, each marked where it moved from
`GOLDEN`, with

    PYTHONPATH=src python -m tests.golden

A second, wider pin folds the first RANDCASES cases of `tests.randcases`
into one SHA-256: each run's digest as above, or its error type and
message. A third folds the first HP_CASES cases of its high-priority
family the same way. Every run of either that simulates must also pass
`audit_all`. Print both digests for N cases, marked where N is the pinned
count, e.g. to compare two versions of the engine beyond it, with

    PYTHONPATH=src python -m tests.golden 20000
"""

import hashlib
import json
import random
import sys

from simrt import (AuditError, Policy, SetupMode, SimConfig, SimrtError, Task, TaskGraph,
                   TaskTags, audit, builtin_profiles, convolution_batch, load_profile,
                   robot_pipeline, simulate)

from .helpers import random_profile, random_scenario
from .randcases import hp_case, random_case

_IMAGE = ("undistort", "gaussian_blur", "feature_detect", "optical_flow")
_BASIC = ("capture", "update", "propagate", "planning", "conv1", "fc6")
_CLOUD = ("scene_understanding", "map_generation")


def robot_dag(seed: int, n: int = 400) -> TaskGraph:
    """Random DAG on sd820-robot workloads: jobs of 4-10 tasks, image
    consumers fed by earlier tasks of their job, 10% cloud leaves."""
    rng = random.Random(seed)
    tasks, job = [], []
    for tid in range(1, n + 1):
        if not job or rng.random() < 0.15:
            job = []
        role = rng.choice(("image", "image", "basic", "basic", "basic", "cloud"))
        deps = sorted(rng.sample(job, min(rng.randint(1, 2), len(job))))
        if role == "image" and not deps:
            role = "basic"
        names = {"image": _IMAGE, "basic": _BASIC, "cloud": _CLOUD}[role]
        tasks.append(Task(id=tid, workload=rng.choice(names),
                          tags=TaskTags(real_time=role != "cloud",
                                        image_input=role == "image"),
                          deps=frozenset(deps), release_us=(tid - 1) // 4 * 2000))
        if role != "cloud":
            job.append(tid)
    return TaskGraph(tasks)


def hp_bursts(seed: int, n: int = 240) -> TaskGraph:
    """Real-time image consumers with no producers, released in bursts on
    sd820-robot: every task waits in the high-priority queue, where DSP-only
    camera stages and stages that run on every unit mix at the head."""
    rng = random.Random(seed)
    names = ("undistort", "optical_flow", "update", "planning", "conv1")
    return TaskGraph(Task(id=tid, workload=rng.choice(names),
                          tags=TaskTags(real_time=True, image_input=True),
                          release_us=(tid - 1) // 6 * 4000)
                     for tid in range(1, n + 1))


def fpga_profile():
    units = {"CPU": (0, 400, 90), "FPGA": (500, 120, 30), "DSP": (300, 260, 40)}
    costs = {}
    for scale, workload in enumerate(("alpha", "beta", "gamma"), start=1):
        for kind, (setup, kernel, energy) in units.items():
            costs[f"{workload}@{kind}"] = {
                "setup_us": setup, "xfer_in_us": 20, "kernel_us": kernel * scale,
                "xfer_out_us": 10, "energy_uj": energy * scale}
    doc = {
        "units": [{"kind": "CPU", "weight": 2}, {"kind": "FPGA", "weight": 3},
                  {"kind": "DSP", "weight": 1}],
        "workloads": [{"name": n} for n in ("alpha", "beta", "gamma")],
        "costs": costs,
        "cloud": {"latency_us": [1000, 4000], "energy_uj": 50},
    }
    return load_profile(json.dumps(doc))


def grid_profile(cloud_latency_us: int):
    """CPU, mGPU and DSP with every cost on a 100 us grid and many zero
    phases (one zero kernel), plus a fixed cloud latency."""
    phases = {  # workload@unit -> setup, xfer_in, kernel, xfer_out
        "alpha@CPU": (0, 0, 200, 0), "alpha@mGPU": (100, 0, 100, 0),
        "alpha@DSP": (0, 0, 300, 100), "beta@CPU": (0, 100, 100, 0),
        "beta@mGPU": (0, 0, 200, 0), "beta@DSP": (100, 100, 0, 0),
        "gamma@CPU": (0, 0, 0, 0), "gamma@mGPU": (0, 0, 100, 100),
        "gamma@DSP": (200, 0, 100, 0),
    }
    costs = {key: {"setup_us": s, "xfer_in_us": i, "kernel_us": k,
                   "xfer_out_us": o, "energy_uj": 10 + s + k}
             for key, (s, i, k, o) in phases.items()}
    doc = {
        "units": [{"kind": "CPU", "weight": 2}, {"kind": "mGPU", "weight": 2},
                  {"kind": "DSP", "weight": 1}],
        "workloads": [{"name": n} for n in ("alpha", "beta", "gamma")],
        "costs": costs,
        "cloud": {"latency_us": [cloud_latency_us, cloud_latency_us], "energy_uj": 7},
    }
    return load_profile(json.dumps(doc))


def grid_dag(seed: int, n: int = 120) -> TaskGraph:
    """Random DAG released on the same 100 us grid as `grid_profile`'s costs,
    four tasks per instant on average."""
    rng = random.Random(seed)
    tasks = []
    for tid in range(1, n + 1):
        deps = frozenset(d for d in range(max(1, tid - 8), tid) if rng.random() < 0.2)
        tasks.append(Task(id=tid, workload=rng.choice(("alpha", "beta", "gamma")),
                          tags=TaskTags(real_time=rng.random() < 0.85,
                                        image_input=rng.random() < 0.3),
                          deps=deps, release_us=rng.randrange(0, n * 25, 100)))
    return TaskGraph(tasks)


def _cases() -> dict:
    """name -> (scenario, profile, policy, config), all built afresh."""
    b = builtin_profiles()
    per_offload = SetupMode.PER_OFFLOAD
    return {
        "robot-adv-throughput-buf4": (
            robot_pipeline(1, 25, 200, 3), b["sd820-robot"],
            Policy.parse("advanced:throughput"), SimConfig(buffer_capacity=4)),
        "robot-adv-latency-per-offload": (
            robot_pipeline(1, 25, 200, 3), b["sd820-robot"],
            Policy.parse("advanced:latency"),
            SimConfig(setup_mode=per_offload, seed=4, cloud_in_makespan=False)),
        "conv-latency-weights": (
            convolution_batch(300), b["sd820"], Policy.parse("latency"),
            SimConfig(weights={"g": 3, "d": 1, "c": 2})),
        "conv-throughput-per-offload": (
            convolution_batch(300), b["sd820"], Policy.parse("throughput"),
            SimConfig(setup_mode=per_offload)),
        "conv-energy": (
            convolution_batch(300), b["sd820"], Policy.parse("energy"), SimConfig()),
        "dag-adv-energy-drops-cloud2": (
            robot_dag(5), b["sd820-robot"], Policy.parse("advanced:energy"),
            SimConfig(setup_mode=per_offload, seed=5, buffer_capacity=1,
                      cloud_slots=2)),
        "hp-rekick-adv-throughput": (
            hp_bursts(6), b["sd820-robot"], Policy.parse("advanced:throughput"),
            SimConfig()),
        "random-adv-latency-cloud1": (
            random_scenario(random.Random(20), max_tasks=60),
            random_profile(random.Random(11)), Policy.parse("advanced:latency"),
            SimConfig(seed=3, buffer_capacity=1, cloud_slots=1)),
        "fpga-as-gpu-adv-throughput": (
            random_scenario(random.Random(23), max_tasks=60), fpga_profile(),
            Policy.parse("advanced:throughput"),
            SimConfig(setup_mode=per_offload, seed=8, buffer_capacity=2,
                      cloud_slots=3, fpga_as_gpu=True,
                      weights={"g": 2, "d": 2, "c": 1})),
        "grid-throughput-zero-phases": (
            grid_dag(1), grid_profile(200), Policy.parse("throughput"), SimConfig()),
        "grid-adv-latency-per-offload-cloud1": (
            grid_dag(4), grid_profile(300), Policy.parse("advanced:latency"),
            SimConfig(setup_mode=per_offload, seed=1, buffer_capacity=4,
                      cloud_slots=1)),
        "grid-adv-throughput-cloud-zero-latency": (
            grid_dag(3), grid_profile(0), Policy.parse("advanced:throughput"),
            SimConfig(seed=2, cloud_slots=2)),
    }


GOLDEN = {
    "conv-energy": "3d7b4f1bb1fa58e2d9cff54d682bdb3969c9e7f46446e474b5bd389a0a6d6bd0",
    "conv-latency-weights": "9133f79c90b2818b52dca8cbd13574b5c4b37e9a00a0525233f9f26b229bc71e",
    "conv-throughput-per-offload": "abef00d28a60b213aa4991f4becd02300ef2c30b68a0f3b8871295dcb5b63b99",
    "dag-adv-energy-drops-cloud2": "144cf1bb2225ac4ae25e5f72f8d0a72fef14cbf049a6f15823f3658c166a997c",
    "fpga-as-gpu-adv-throughput": "203a62d3c44c3ded0d78497a360082cdeef413302e57d65da75d8c850d905994",
    "grid-adv-latency-per-offload-cloud1": "0cff0c2242ecbd728f96b67fb8b969562f889b25e6322a7587f779cd23335364",
    "grid-adv-throughput-cloud-zero-latency": "b57efee8a3421ec956b29c2ba17303eb1de1ebe68f35b984b6459e2b6440a4ab",
    "grid-throughput-zero-phases": "e10bf22fb072c8bf773235706d7c3b35b8a24d708ba243140a92c32f96d0a521",
    "hp-rekick-adv-throughput": "6b7e582e39c4334561dec66d582b47eff8974782c63bdbfa91e65c731a127e9d",
    "random-adv-latency-cloud1": "8ad9025df79397f989ffedc4b9abe6a5334479a81f806bb6da7ce98941a65c9d",
    "robot-adv-latency-per-offload": "01d0c49afb543f61e2eccdfc41f3e6b5c757cd247cdc189ebbba02bd33a76ca4",
    "robot-adv-throughput-buf4": "df1c71f4a0881b8cf861fa0c9d7bde14364f6bbdd582f4e8eaee27622433471d",
}


RANDCASES = 1000
RANDCASES_DIGEST = "679a22fba1bc0b6989b5808d44d2ee68d32c30408adb182bee9ad4fad1dfd276"
HP_CASES = 2000
HP_CASES_DIGEST = "0b8976743d6b159da10fb1a2451fd2bfd3375b63b88a6fa27d2b121513d324cc"


def _hash(metrics, trace) -> str:
    text = trace.to_csv() + json.dumps(metrics.to_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def digest(case) -> str:
    return _hash(*simulate(*case))


def _fold(case_of, cases: int) -> str:
    """SHA-256 over `case_of(seed)` for the first `cases` seeds: per seed, the
    run's `digest`, or the error type and message of a failed run. A run
    that simulates must pass `audit_all`."""
    h = hashlib.sha256()
    for seed in range(cases):
        scenario, profile, policy, config = case_of(seed)
        try:
            metrics, trace = simulate(scenario, profile, policy, config)
        except SimrtError as exc:
            text = f"{type(exc).__name__}: {exc}"
        else:
            try:
                audit.audit_all(trace, scenario, profile, weights=config.weights,
                                fpga_as_gpu=config.fpga_as_gpu)
            except AuditError as exc:
                raise AuditError(f"{case_of.__name__}({seed}): {exc}") from exc
            text = _hash(metrics, trace)
        h.update(f"{seed} {text}\n".encode())
    return h.hexdigest()


def randcases_digest(cases: int) -> str:
    """`_fold` over the first `cases` cases of `tests.randcases.random_case`."""
    return _fold(random_case, cases)


def hp_cases_digest(cases: int) -> str:
    """`_fold` over the first `cases` cases of `tests.randcases.hp_case`."""
    return _fold(hp_case, cases)


if __name__ == "__main__":
    if len(sys.argv) > 1:
        cases = int(sys.argv[1])
        for what, fold, pinned_cases, pinned in (
                ("randcases", randcases_digest, RANDCASES, RANDCASES_DIGEST),
                ("hp cases", hp_cases_digest, HP_CASES, HP_CASES_DIGEST)):
            found = fold(cases)
            if cases == pinned_cases:
                found += "  (pinned)" if found == pinned else "  (moved)"
            print(f"{cases} {what}: {found}")
    else:
        moved = 0
        for name, case in sorted(_cases().items()):
            found = digest(case)
            moved += found != GOLDEN[name]
            mark = "" if found == GOLDEN[name] else "  # moved"
            print(f'    "{name}": "{found}",{mark}')
        print(f"{len(GOLDEN) - moved} of {len(GOLDEN)} match GOLDEN")
        sys.exit(1 if moved else 0)
