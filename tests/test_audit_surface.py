"""Pin of the audits' error surface: which check rejects which trace, with
what exception and message.

Each generated case that simulates yields its trace plus five seeded
mutations of it (records deleted, duplicated or swapped, times shifted,
units or phases relabelled, records moved to another task, the trace
truncated; some mutations apply two edits). Every audit and `audit_all`
runs on every trace, and each outcome is folded into one SHA-256. A change
to the audits that alters any verdict or any message changes the digest.

A second digest folds the first HP_CASES cases of the high-priority family
(`tests.randcases.hp_case`) the same way, so traces in which the HP queue
does most of the dispatching are pinned too.

SIMRT_AUDIT_CASES sets the number of cases (default 1000); only the
default count has a recorded digest, e.g.

    SIMRT_AUDIT_CASES=20000 PYTHONPATH=src python -m pytest tests/test_audit_surface.py

Run as a module, it prints both digests of N cases each (default CASES and
HP_CASES), to compare two versions of the audits beyond the recorded counts,
or with --outcomes the `seed|audit|type|message` lines each digest folds,
each family after a `#` line, to diff against another commit's:

    PYTHONPATH=src python -m tests.test_audit_surface 20000
    PYTHONPATH=src python -m tests.test_audit_surface 200 --outcomes
"""

import collections
import hashlib
import os
import random
import re
import sys

from simrt import AuditError, SimrtError, Trace, audit, simulate

from .randcases import hp_case, random_case

CASES = int(os.environ.get("SIMRT_AUDIT_CASES", "1000"))
HP_CASES = 500
MUTANTS = 5
DIGEST = "867836080814a6b0049594043017566e1be3fe724270baabcc750bd460d5ace9"
HP_DIGEST = "361bec788054fe9bd34e1e5903fd708368094c3ad5dfc3c40021b9d69a23c4e0"

_UNITS = ("CPU", "mGPU", "DSP", "GPU", "FPGA", "HP", "CLOUD")
_PHASES = ("dispatch", "setup", "xfer_in", "kernel", "xfer_out", "complete", "drop",
           "cloud_submit", "cloud_complete")
_SHIFTS = (-300, -100, 100, 300)

# one pattern per message the audits can raise
_N = r"-?\d+"
TEMPLATES = [re.compile(p) for p in (
    rf"task {_N}: first record is \w+, not dispatch",
    rf"task {_N}: \w+ at {_N} after \w+ at {_N}",
    rf"task {_N}: \w+ follows \w+",
    rf"task {_N}: phase sequence ends at \w+",
    rf"unit \w+: task {_N} starts at {_N} while task {_N} \(running since {_N}\) "
    r"has not completed",
    rf"unit \w+: task {_N} starts at {_N}, before the previous occupant completed at {_N}",
    rf"unit \w+: completion of task {_N} at {_N} does not match the running task .*",
    r"tasks still running at end of trace: \{.*\}",
    rf"task {_N} starts at {_N} before release {_N}",
    rf"task {_N} ran but dependency {_N} never completed",
    rf"task {_N} starts at {_N} before dependency {_N} completes at {_N}",
    rf"unit \w+ idle at {_N} with queued tasks \[.*\]",
    rf"unit \w+ idle at {_N} while high-priority head {_N} is runnable on it",
    rf"task {_N} dispatched to non-participating unit \w+",
    rf"task {_N} ran on non-participating unit \w+",
    rf"unit \w+ started {_N} out of FIFO order; queue was \[.*\]",
    rf"unit \w+ started task {_N} that was not queued for it or at the high-priority head",
    rf"task {_N} has records but never completes",
    rf"task {_N} never runs, though every dependency completes and none drops an image it "
    r"consumes",
)]


def _edit(rng: random.Random, records: list, task_ids: list) -> None:
    """Apply one seeded edit to a non-empty record list in place."""
    i = rng.randrange(len(records))
    time_us, tid, workload, unit, phase = records[i]
    kind = rng.randrange(8)
    if kind == 0:
        del records[i]
    elif kind == 1:
        records.insert(rng.randrange(len(records) + 1), records[i])
    elif kind == 2:
        j = rng.randrange(len(records))
        records[i], records[j] = records[j], records[i]
    elif kind == 3:
        records[i] = (time_us + rng.choice(_SHIFTS), tid, workload, unit, phase)
    elif kind == 4:
        records[i] = (time_us, tid, workload, rng.choice(_UNITS), phase)
    elif kind == 5:
        records[i] = (time_us, tid, workload, unit, rng.choice(_PHASES))
    elif kind == 6:
        records[i] = (time_us, rng.choice(task_ids), workload, unit, phase)
    else:
        del records[rng.randrange(len(records)):]


def mutants(seed: int, records: list, task_ids: list):
    """The unmutated records, then MUTANTS seeded mutations of them."""
    yield records
    rng = random.Random(seed)
    for _ in range(MUTANTS):
        mutated = list(records)
        for _ in range(1 + (rng.random() < 0.3)):
            if mutated:
                _edit(rng, mutated, task_ids)
        yield mutated


def outcome(check):
    try:
        check()
    except Exception as exc:  # any type but AuditError is a finding, reported below
        return type(exc), str(exc)
    return None, ""


def audit_outcomes(trace, scenario, profile, config):
    """(audit name, outcome) for each audit and audit_all, in a fixed order."""
    weights, fpga = config.weights, config.fpga_as_gpu
    checks = (
        ("phase_order", lambda: audit.audit_phase_order(trace)),
        ("unit_exclusivity", lambda: audit.audit_unit_exclusivity(trace)),
        ("causality", lambda: audit.audit_causality(trace, scenario)),
        ("work_conservation", lambda: audit.audit_work_conservation(
            trace, profile, weights=weights, fpga_as_gpu=fpga)),
        ("completeness", lambda: audit.audit_completeness(trace, scenario)),
        ("all", lambda: audit.audit_all(trace, scenario, profile, weights=weights,
                                        fpga_as_gpu=fpga)),
    )
    return [(name, outcome(check)) for name, check in checks]


def surface_outcomes(cases: int, case_of=random_case):
    """(seed, audit name, exception type or None, message) of each audit on
    each trace of the first `cases` cases of `case_of`, in the digest's order."""
    for seed in range(cases):
        scenario, profile, policy, config = case_of(seed)
        try:
            _, trace = simulate(scenario, profile, policy, config)
        except SimrtError:
            continue
        task_ids = sorted(task.id for task in scenario)
        for records in mutants(seed, list(trace), task_ids):
            for name, (kind, message) in audit_outcomes(Trace(records), scenario,
                                                        profile, config):
                yield seed, name, kind, message


def outcome_line(seed: int, name: str, kind, message: str) -> str:
    """The `seed|audit|type|message` line the digest folds for one outcome."""
    return f"{seed}|{name}|{kind and kind.__name__}|{message}"


def audit_surface(cases: int, case_of=random_case) -> tuple:
    """(digest, traces, template counts, non-AuditError outcomes) of the
    first `cases` cases of `case_of`; the templates' messages are checked."""
    digest = hashlib.sha256()
    templates = collections.Counter()
    others = []
    traces = 0
    for seed, name, kind, message in surface_outcomes(cases, case_of):
        digest.update(f"{outcome_line(seed, name, kind, message)}\n".encode())
        traces += name == "all"  # the last audit run on each trace
        if kind is None:
            continue
        if kind is not AuditError:
            others.append((seed, name, kind, message))
            continue
        matched = [k for k, p in enumerate(TEMPLATES) if p.fullmatch(message)]
        assert len(matched) == 1, (seed, name, message)
        templates[matched[0]] += 1
    return digest.hexdigest(), traces, templates, others


def test_audit_verdicts_and_messages_are_pinned():
    digest, traces, templates, others = audit_surface(CASES)
    assert not others, others[:5]
    assert sorted(templates) == list(range(len(TEMPLATES))), (traces, templates)
    if CASES == 1000:
        assert digest == DIGEST, (traces, digest)


def test_hp_audit_verdicts_and_messages_are_pinned():
    digest, traces, templates, others = audit_surface(HP_CASES, hp_case)
    assert not others, others[:5]
    assert sorted(templates) == list(range(len(TEMPLATES))), (traces, templates)
    assert digest == HP_DIGEST, (traces, digest)


if __name__ == "__main__":
    args = [a for a in sys.argv[1:] if a != "--outcomes"]
    for case_of, cases in ((random_case, CASES), (hp_case, HP_CASES)):
        cases = int(args[0]) if args else cases
        if "--outcomes" in sys.argv[1:]:
            print(f"# {cases} {case_of.__name__} cases")
            for seed, name, kind, message in surface_outcomes(cases, case_of):
                print(outcome_line(seed, name, kind, message))
            continue
        digest, traces, _, others = audit_surface(cases, case_of)
        print(f"{cases} {case_of.__name__} cases, {traces} traces, "
              f"{len(others)} non-AuditError outcomes: {digest}")
