"""`audit_all` decides a trace with one replay of its records, and runs the
four audits only to word a rejection.

A replay that handed every trace over to the audits would keep every
verdict and message, so every other test would pass while the one-pass
saving was lost. Here the four audits raise, so `audit_all` passes only
what the replay accepts by itself. The replay must also be sound: every
mutated trace it accepts, all four audits accept, so a later audit made
stricter fails here rather than only moving the audit-surface digest. Its
per-record loop is checked for cell variables, which a comprehension or
closure over its locals would add, and which slow every read of those
locals.
"""

import random
from itertools import islice
from operator import itemgetter

import pytest

from simrt import (AuditError, InvalidConfig, Policy, SimConfig, SimrtError, Trace, audit,
                   builtin_profiles, convolution_batch, simulate)

from .randcases import hp_case, random_case
from .test_audit_surface import mutants
from .test_golden import _cases

_AUDITS = ("audit_phase_order", "audit_unit_exclusivity", "audit_causality",
           "audit_work_conservation")


def _unused(*args, **kwargs):
    raise AssertionError("audit_all handed an engine trace over to the four audits")


def test_the_replay_alone_passes_every_engine_trace(monkeypatch):
    for name in _AUDITS:
        monkeypatch.setattr(audit, name, _unused)
    cases = [*_cases().values(), *map(random_case, range(1000)), *map(hp_case, range(2000))]
    traces = 0
    for scenario, profile, policy, config in cases:
        try:
            _, trace = simulate(scenario, profile, policy, config)
        except SimrtError:
            continue
        audit.audit_all(trace, scenario, profile, weights=config.weights,
                        fpga_as_gpu=config.fpga_as_gpu)
        traces += 1
    assert traces > 2500, traces  # the golden cases and most generated ones simulate


def _first_error(check) -> tuple:
    with pytest.raises(Exception) as exc:
        check()
    return type(exc.value), str(exc.value)


@pytest.mark.parametrize("records, weights, error, message", [
    ("engine", {"g": -1}, InvalidConfig, "weights: bad item 'g': -1; "),
    ("no setup", {"g": -1}, AuditError, "task 1: xfer_in follows dispatch"),
    ("no setup", None, AuditError, "task 1: xfer_in follows dispatch"),
    (None, None, AuditError, "no trace to read: the run was made with record_trace=False"),
])
def test_a_rejected_trace_raises_what_the_four_audits_raise_first(records, weights, error,
                                                                   message):
    scenario, profile = convolution_batch(2), builtin_profiles()["sd820"]
    config = SimConfig(record_trace=records is not None)
    _, trace = simulate(scenario, profile, Policy.parse("throughput"), config)
    if records == "no setup":  # the task of the first record loses its setup
        first = next(iter(trace)).task_id
        trace = Trace([r for r in trace if not (r.task_id == first and r.phase == "setup")])
    kind, text = _first_error(lambda: audit.audit_all(trace, scenario, profile,
                                                      weights=weights))
    assert kind is error and text.startswith(message), (kind, text)

    def four_audits():
        audit.audit_phase_order(trace)
        audit.audit_unit_exclusivity(trace)
        audit.audit_causality(trace, scenario)
        audit.audit_work_conservation(trace, profile, weights=weights)
    assert _first_error(four_audits) == (kind, text)


def _moved_earlier(seed: int, records: list) -> list:
    """The records with every record of one seeded task 100 us earlier,
    in time order: a mutation that keeps the trace's times non-decreasing."""
    tid = random.Random(seed).choice(records)[1] if records else None
    return sorted(((t - 100 if i == tid else t, i, w, u, p) for t, i, w, u, p in records),
                  key=itemgetter(0))


def test_every_trace_the_replay_accepts_passes_the_four_audits():
    accepted = rejected = 0
    for case, seed in [*((random_case, s) for s in range(1000, 1300)),
                       *((hp_case, s) for s in range(200))]:
        scenario, profile, policy, config = case(seed)
        try:
            _, trace = simulate(scenario, profile, policy, config)
        except SimrtError:
            continue
        task_ids = sorted(task.id for task in scenario)
        weights, fpga_as_gpu = config.weights, config.fpga_as_gpu
        rows = list(trace)
        for records in [*islice(mutants(seed, rows, task_ids), 1, None),
                        _moved_earlier(seed, rows)]:
            trace = Trace(records)
            try:
                if not audit._passes(trace, scenario, profile, weights, fpga_as_gpu):
                    rejected += 1
                    continue
            except Exception:
                rejected += 1
                continue
            accepted += 1
            audit.audit_phase_order(trace)
            audit.audit_unit_exclusivity(trace)
            audit.audit_causality(trace, scenario)
            audit.audit_work_conservation(trace, profile, weights=weights,
                                          fpga_as_gpu=fpga_as_gpu)
    # both verdicts are common, so neither side of the check is vacuous
    assert accepted > 250 and rejected > 1000, (accepted, rejected)


def test_the_replay_keeps_no_cells():
    assert audit._passes.__code__.co_cellvars == ()
