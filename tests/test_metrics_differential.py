"""Differential check of the run metrics: the engine gathers a run's totals
as events happen, and `compute_metrics` gathers them from the trace alone;
both hand them to one function that builds `Metrics`. The two must agree on every generated case, key order of
`avg_latency_ms` included, or both must fail with the same error. The cases
are `random_case` seeds and, a third as many, seeds of the high-priority
family (`hp_case`), whose image-heavy runs drop behind the HP queue.

SIMRT_DIFF_CASES sets the number of `random_case` seeds (default 1500), e.g.

    SIMRT_DIFF_CASES=50000 PYTHONPATH=src python -m pytest tests/test_metrics_differential.py
"""

import collections
import dataclasses
import os

import simrt.engine
from simrt import (Policy, SimConfig, SimrtError, builtin_profiles, compute_metrics,
                   robot_pipeline, simulate)

from .randcases import hp_case, random_case

CASES = int(os.environ.get("SIMRT_DIFF_CASES", "1500"))
HP_CASES = CASES // 3


def outcome(run):
    """The metrics and their latency key order, or the error type and message."""
    try:
        metrics = run()
    except SimrtError as exc:
        return type(exc), str(exc)
    return metrics, list(metrics.avg_latency_ms)


def test_engine_metrics_equal_the_trace_metrics():
    seen = collections.Counter()
    for family, seed in [*((random_case, s) for s in range(CASES)),
                         *((hp_case, s) for s in range(HP_CASES))]:
        scenario, profile, policy, config = family(seed)
        case = f"{family.__name__} {seed}"
        engine = outcome(lambda: simulate(scenario, profile, policy, config).metrics)
        # the trace does not depend on energy, so a run with the cloud's energy
        # filled in yields the trace in which compute_metrics meets a missing one
        traced = dataclasses.replace(profile, cloud_energy_uj=profile.cloud_energy_uj or 0)
        derived = outcome(lambda: compute_metrics(
            simulate(scenario, traced, policy, config).trace, profile, config, scenario))
        assert engine == derived, case
        if isinstance(engine[0], type):
            seen[engine[0].__name__] += 1
            continue
        untraced = simulate(scenario, profile, policy,
                            dataclasses.replace(config, record_trace=False))
        assert untraced.trace is None
        assert outcome(lambda: untraced.metrics) == engine, case
        metrics = engine[0]
        seen["drops"] += metrics.drops > 0
        seen["cloud outside makespan"] += ("CLOUD" in metrics.avg_latency_ms
                                           and not config.cloud_in_makespan)
        seen["idle energy"] += any(u.idle_watts for u in profile.units) and metrics.makespan_us > 0
    if CASES >= 1500:  # the default run reaches every path it is meant to check
        assert min(seen[key] for key in ("drops", "cloud outside makespan", "idle energy",
                                         "MissingCost", "UnresolvableCost")) >= 5, seen


def test_simulate_does_not_read_its_trace(monkeypatch):
    calls = 0
    original = simrt.engine.compute_metrics

    def counting(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    monkeypatch.setattr(simrt.engine, "compute_metrics", counting)
    scenario = robot_pipeline(1, 25, 200, 3)
    metrics, trace = simulate(scenario, builtin_profiles()["sd820-robot"],
                              Policy.parse("advanced:throughput"), SimConfig(buffer_capacity=4))
    assert calls == 0
    assert metrics.completed == len(scenario) and len(trace) > 0
