"""The golden pins of `tests/golden.py`: the SHA-256 of trace CSV plus
metrics JSON per fixed case, and the randcases and HP digests."""

import pytest

from simrt import simulate

from .golden import (GOLDEN, HP_CASES, HP_CASES_DIGEST, RANDCASES, RANDCASES_DIGEST, _cases,
                     digest, hp_cases_digest, randcases_digest)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digest(name):
    assert digest(_cases()[name]) == GOLDEN[name]


def test_golden_covers_every_case():
    assert set(GOLDEN) == set(_cases())


def test_randcases_digest():
    assert randcases_digest(RANDCASES) == RANDCASES_DIGEST


def test_hp_cases_digest():
    # pins the high-priority re-kick: a start of the HP head that does not offer
    # the next head to the other idle units fails audit_work_conservation here
    assert hp_cases_digest(HP_CASES) == HP_CASES_DIGEST


def test_cases_reach_drops_skips_and_cloud_slots():
    scenario, profile, policy, config = _cases()["dag-adv-energy-drops-cloud2"]
    metrics, trace = simulate(scenario, profile, policy, config)
    assert metrics.drops > 0 and metrics.skipped > 0
    assert any(r.phase == "cloud_submit" for r in trace)


@pytest.mark.parametrize("name", sorted(n for n in GOLDEN if n.startswith("grid-")))
def test_grid_cases_reach_equal_time_orderings(name):
    scenario, profile, policy, config = _cases()[name]
    _, trace = simulate(scenario, profile, policy, config)
    at: dict = {}  # (task, phase) -> time
    for r in trace:
        at[r.task_id, r.phase] = r.time_us
    zero_length_units: dict = {}  # instant -> units that ran a zero-length phase
    for r in trace:
        if r.phase in ("xfer_in", "kernel", "xfer_out", "complete") and any(
                at.get((r.task_id, p)) == r.time_us
                for p in ("setup", "xfer_in", "kernel", "xfer_out") if p != r.phase):
            zero_length_units.setdefault(r.time_us, set()).add(r.unit)
    assert max(map(len, zero_length_units.values())) >= 2
    done = {tid: t for (tid, phase), t in at.items()
            if phase in ("complete", "cloud_complete")}
    assert any(done.get(d) == t.release_us for t in scenario for d in t.deps)
    releases = {t.release_us for t in scenario}
    boundaries = {r.time_us for r in trace if r.phase in ("xfer_in", "kernel", "xfer_out")}
    cloud_done = {r.time_us for r in trace if r.phase == "cloud_complete"}
    assert releases & boundaries
    assert bool(releases & cloud_done) == policy.advanced  # basic policies never offload
