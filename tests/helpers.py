"""Shared builders for randomized test cases (all seeded, never flaky)."""

import json
import random

from simrt import (BasicPolicy, Policy, Task, TaskGraph, TaskTags,
                   load_profile)

WORKLOADS = ("alpha", "beta", "gamma")

ALL_POLICIES = (
    Policy(BasicPolicy.LATENCY),
    Policy(BasicPolicy.THROUGHPUT),
    Policy(BasicPolicy.ENERGY),
    Policy(BasicPolicy.LATENCY, advanced=True),
    Policy(BasicPolicy.THROUGHPUT, advanced=True),
    Policy(BasicPolicy.ENERGY, advanced=True),
)

_UNIT_POOLS = (
    ["CPU"], ["mGPU"], ["DSP"],
    ["CPU", "mGPU"], ["CPU", "DSP"], ["mGPU", "DSP"], ["GPU", "DSP"],
    ["CPU", "mGPU", "DSP"], ["CPU", "GPU", "DSP"],
)


def random_profile(rng: random.Random):
    """A profile with 1-3 local units, random weights, and full cost coverage."""
    kinds = rng.choice(_UNIT_POOLS)
    doc = {
        "name": "random",
        "units": [{"kind": k, "weight": rng.randint(1, 5)} for k in kinds],
        "workloads": [{"name": w} for w in WORKLOADS],
        "costs": {
            f"{w}@{k}": {
                "setup_us": rng.randint(0, 300),
                "xfer_in_us": rng.randint(0, 100),
                "kernel_us": rng.randint(1, 800),
                "xfer_out_us": rng.randint(0, 100),
                "energy_uj": rng.randint(1, 500),
            }
            for w in WORKLOADS
            for k in kinds
        },
        "cloud": {"latency_us": [1000, 9000], "energy_uj": 5},
    }
    return load_profile(json.dumps(doc))


def random_scenario(rng: random.Random, max_tasks: int = 20) -> TaskGraph:
    """A random DAG of tagged tasks with spread release times."""
    n = rng.randint(1, max_tasks)
    tasks = []
    for i in range(1, n + 1):
        deps = frozenset(d for d in range(1, i) if rng.random() < 0.2)
        tasks.append(Task(
            id=i,
            workload=rng.choice(WORKLOADS),
            tags=TaskTags(real_time=rng.random() < 0.8,
                          image_input=rng.random() < 0.3),
            deps=deps,
            release_us=rng.randint(0, 5000),
        ))
    return TaskGraph(tasks)


def strict_utf8_rejections(text: str, value: str) -> list:
    """(case id, bytes, ParseError message) for encodings of the JSON document
    `text` that are not plain UTF-8 JSON: a BOM, a bad byte after a BOM,
    UTF-16 and UTF-32, and a UTF-8-encoded surrogate in place of the JSON
    string `value`. Each message names the true byte offset."""
    data = text.encode()
    quoted = json.dumps(value).encode()
    surrogate = data.replace(quoted, b'"\xed\xa0\x80"', 1)
    return [
        ("bom", b"\xef\xbb\xbf" + data,
         "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
        ("bom-then-bad-byte", b"\xef\xbb\xbf\xff", "not UTF-8 text: invalid start byte at byte 3"),
        ("utf-16", text.encode("utf-16"), "not UTF-8 text: invalid start byte at byte 0"),
        ("utf-32", text.encode("utf-32"), "not UTF-8 text: invalid start byte at byte 0"),
        ("surrogate", surrogate,
         f"not UTF-8 text: invalid continuation byte at byte {data.index(quoted) + 1}"),
    ]
