"""The benchmark's workloads: which scenario, profile, policies and config
each one runs, and how its input files are made from the seed.

robot and conv are fixed paper workloads, so their inputs do not depend on
the seed. dag is generated here from the seed; the program only ever sees
the scenario and profile JSON written for it.
"""

import json
import os
import random
from dataclasses import dataclass, field

# robot: robot_pipeline(ROBOT_DURATION_S, 25, 200, 3) -> 46k tasks
ROBOT_DURATION_S = 60
# conv: one batch simulated under each basic policy
CONV_TASKS = 10_000
# dag: small independent jobs of DAG_JOB_MIN..DAG_JOB_MAX tasks, so a dropped
# image skips the rest of its job and not everything released after it
DAG_TASKS = 15_000
DAG_JOB_MIN, DAG_JOB_MAX = 4, 16
DAG_RELEASE_BATCH = 4  # tasks released together ...
DAG_RELEASE_PERIOD_US = 10_000  # ... every 10 ms
DAG_BUFFER_CAPACITY = 2  # small enough to drop images, large enough that skips stay a minority

# workloads of the sd820-robot profile, grouped by how dag tags them; image
# consumers use the camera-chain stages, as robot_pipeline tags them
_DAG_IMAGE = ("undistort", "gaussian_blur", "feature_detect", "optical_flow")
_DAG_BASIC = ("capture", "update", "propagate", "planning",
              "conv1", "conv3", "fc6", "fc7", "fc8")
_DAG_CLOUD = ("scene_understanding", "map_generation")


@dataclass(frozen=True)
class Workload:
    name: str
    profile: str  # builtin profile the workload runs on
    policies: tuple
    # SimConfig fields as `simrt run` flags spell them (setup_mode, seed, ...)
    config: dict = field(default_factory=dict)
    seeded: bool = False  # input depends on --seed

    def input_key(self, seed: int) -> str:
        """Names the input, so recorded outputs are looked up per input."""
        return f"{self.name}-seed{seed}" if self.seeded else self.name

    def run_config(self, seed: int) -> dict:
        return dict(self.config, seed=seed) if self.seeded else dict(self.config)


WORKLOADS = {w.name: w for w in (
    # the paper's robot mix: HP queue with head checks, buffers without drops
    Workload("robot", "sd820-robot", ("advanced:throughput",), {"buffer_capacity": 4}),
    # the paper's policy comparison: deep unit FIFOs, no tags, HP, cloud or buffers
    Workload("conv", "sd820", ("throughput", "latency", "energy")),
    # the drop -> skip path, per-offload setup and a bounded cloud queue
    Workload("dag", "sd820-robot", ("advanced:energy",),
             {"setup_mode": "per_offload", "cloud_slots": 2,
              "buffer_capacity": DAG_BUFFER_CAPACITY},
             seeded=True),
)}


def task_objects(graph) -> list:
    """A simrt TaskGraph as the task objects of the scenario format."""
    return [{"id": t.id, "workload": t.workload, "real_time": t.tags.real_time,
             "image_input": t.tags.image_input, "deps": sorted(t.deps),
             "release_us": t.release_us}
            for t in graph]


def dag_scenario(seed: int) -> list:
    """A seeded random DAG, as the task objects of the scenario format.

    Exactly 10% of tasks are non-real-time leaves (cloud), about 40% are
    real-time image consumers, and the rest are basic. Each task depends on
    up to three earlier real-time tasks of its own job; tasks are released
    in small batches on a fixed period.
    """
    rng = random.Random(seed)
    roles = ["cloud"] * (DAG_TASKS // 10) + ["image"] * (DAG_TASKS * 4 // 10)
    roles += ["basic"] * (DAG_TASKS - len(roles))
    rng.shuffle(roles)
    tasks = []
    job: list = []  # real-time task ids of the current job
    job_left = 0
    for tid, role in enumerate(roles, start=1):
        if job_left == 0:
            job_left = rng.randint(DAG_JOB_MIN, DAG_JOB_MAX)
            job = []
        job_left -= 1
        wanted = {"image": rng.randint(1, 2), "basic": rng.randint(0, 3),
                  "cloud": rng.randint(0, 2)}[role]
        deps = sorted(rng.sample(job, min(wanted, len(job))))
        if role == "image" and not deps:
            role = "basic"  # an image consumer needs a producer
        names = {"image": _DAG_IMAGE, "basic": _DAG_BASIC, "cloud": _DAG_CLOUD}[role]
        tasks.append({
            "id": tid, "workload": rng.choice(names),
            "real_time": role != "cloud", "image_input": role == "image",
            "deps": deps,
            "release_us": (tid - 1) // DAG_RELEASE_BATCH * DAG_RELEASE_PERIOD_US,
        })
        if role != "cloud":
            job.append(tid)
    return tasks


def prepare(workload: Workload, seed: int, work_dir: str) -> tuple:
    """Write the workload's input files; returns (profile, scenario path, tasks).

    `profile` is a builtin name, or for a generated workload the path of
    the profile written out as JSON, as `simrt run -p` takes either. Needs
    `simrt` importable.
    """
    import simrt
    from simrt.builtins import BUILTIN_PROFILE_TEXTS

    profile = workload.profile
    if workload.name == "robot":
        tasks = task_objects(simrt.robot_pipeline(ROBOT_DURATION_S, 25, 200, 3))
    elif workload.name == "conv":
        tasks = task_objects(simrt.convolution_batch(CONV_TASKS))
    else:
        tasks = dag_scenario(seed)
        profile = os.path.join(work_dir, f"{workload.name}-profile.json")
        with open(profile, "w", encoding="utf-8") as fh:
            fh.write(BUILTIN_PROFILE_TEXTS[workload.profile])
    path = os.path.join(work_dir, f"{workload.name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        # laid out the way `simrt gen` writes scenario files
        fh.write(json.dumps({"tasks": tasks}, indent=2) + "\n")
    return profile, path, len(tasks)
