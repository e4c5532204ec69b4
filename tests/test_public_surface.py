"""The public names of the simrt package are pinned: adding or removing an
export takes a deliberate edit of the set below."""

import types

import simrt

PUBLIC_NAMES = {
    # running a simulation and reading its results
    "simulate", "SimConfig", "SimResult", "Metrics", "Policy", "BasicPolicy",
    # scenarios
    "Task", "TaskGraph", "TaskTags", "load_scenario", "dump_scenario", "validate_graph",
    "ScenarioSpec", "robot_pipeline", "convolution_batch",
    # profiles and the cost model
    "PlatformProfile", "UnitKind", "UnitSpec", "CostEntry", "load_profile",
    # dispatch
    "RouteClass",
    # errors
    "SimrtError", "ParseError", "InvalidScenario", "GraphError", "DuplicateId",
    "UnknownDependency", "CycleDetected", "MissingCost", "UnresolvableCost",
    "NegativeValue", "BadInterval", "InvalidRate", "InvalidConfig", "EngineError",
    "AuditError",
    # named by the acceptance gates in tests/test_acceptance.py
    "restrict", "dispatch_latency", "SchedulerState", "classify", "preference_matrix",
    "inference_comparison",
    "Route",  # gate 1 reads route.target and route.unit; so does perfbench/spans.py
    "TraceRecord",  # the gates read r.phase while iterating a Trace
    "offload_time",  # gate 2 reads .total_us; perfbench/spans.py wraps it in simrt.engine
    # bound by the benchmark
    "energy_of", "compute_metrics",  # perfbench/spans.py wraps them in simrt.engine
    "dispatch", "on_unit_free",  # perfbench/spans.py wraps them in simrt.scheduler
    # perfbench/worker.py calls builtin_profiles(), SetupMode.parse and Trace.to_csv;
    # perfbench/spans.py wraps PlatformProfile.resolvable (listed above)
    "builtin_profiles", "SetupMode", "Trace",
}


def test_public_names_are_pinned():
    public = {name for name, value in vars(simrt).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == PUBLIC_NAMES
