"""One measured benchmark process; run.py starts it, one at a time.

    worker.py TRACED PROFILE SCENARIO POLICIES CONFIG SPANS_OUT

Calls the public simrt API in the order `simrt run --audit` and `simrt
trace` use it: import, profile, load_scenario, then simulate, audit_all,
to_csv and Metrics.to_dict for each policy. Prints one JSON object with
the times measured from outside each call, in host seconds and in
reference seconds (calibrate.py), and the calibration probes. With TRACED=1
it also installs span wrappers (spans.py) and reports per-layer totals.
"""

import os
import sys

from calibrate import HostClock


def resolve_profile(simrt, name_or_path: str):
    """A profile file or builtin name, looked up the way `simrt run -p` does."""
    if os.path.exists(name_or_path):
        with open(name_or_path, encoding="utf-8") as fh:
            return simrt.load_profile(fh.read(), name=os.path.basename(name_or_path))
    return simrt.builtin_profiles()[name_or_path]


def sim_config(simrt, fields: dict):
    """SimConfig from the fields a workload sets, spelled as `simrt run` flags."""
    fields = dict(fields)
    if "setup_mode" in fields:
        fields["setup_mode"] = simrt.SetupMode.parse(fields["setup_mode"])
    return simrt.SimConfig(**fields)


def layer_metrics(tracer, attempts: list) -> dict:
    """Per-layer figures of one traced process, from its spans."""
    totals = tracer.totals()

    def get(name):
        return totals.get(name, {"calls": 0, "total_ns": 0, "self_ns": 0, "by_root": {}})

    def secs(name):
        return get(name)["total_ns"] / 1e9

    def under_simulate(name):
        return get(name)["by_root"].get("engine.simulate", [0, 0])

    free_calls = get("scheduler.on_unit_free")["calls"]
    return {
        "tasks.load_scenario_s": secs("tasks.load_scenario"),
        "tasks.json_parse_s": secs("tasks.json_parse"),
        "tasks.validate_graph_s": secs("tasks.validate_graph"),
        "tasks.validate_graph_calls": get("tasks.validate_graph")["calls"],
        "profiles.load_s": secs("profiles.load"),
        "profiles.offload_time_calls": get("profiles.offload_time")["calls"],
        "profiles.offload_time_s": secs("profiles.offload_time"),
        "profiles.resolvable_calls": under_simulate("profiles.resolvable")[0],
        "profiles.resolvable_s": under_simulate("profiles.resolvable")[1] / 1e9,
        "profiles.audit_resolvable_calls":
            get("profiles.resolvable")["by_root"].get("audit.all", [0, 0])[0],
        "profiles.energy_of_calls": get("profiles.energy_of")["calls"],
        "scheduler.dispatch_calls": get("scheduler.dispatch")["calls"],
        "scheduler.dispatch_s": secs("scheduler.dispatch"),
        "scheduler.on_unit_free_calls": free_calls,
        "scheduler.on_unit_free_s": secs("scheduler.on_unit_free"),
        "scheduler.on_unit_free_hit_ratio":
            tracer.on_unit_free_hits / free_calls if free_calls else 0.0,
        "scheduler.fifo_hwm": tracer.fifo_hwm,
        "scheduler.hp_queue_hwm": tracer.hp_queue_hwm,
        "engine.simulate_s": secs("engine.simulate"),
        "engine.self_s": get("engine.simulate")["self_ns"] / 1e9,
        "engine.compute_metrics_s": secs("engine.compute_metrics"),
        "engine.to_csv_s": secs("engine.to_csv"),
        "engine.records": sum(a.get("records", 0) for a in attempts),
        "engine.csv_bytes": sum(a.get("csv_bytes", 0) for a in attempts),
        "audit.phase_order_s": secs("audit.phase_order"),
        "audit.unit_exclusivity_s": secs("audit.unit_exclusivity"),
        "audit.causality_s": secs("audit.causality"),
        "audit.work_conservation_s": secs("audit.work_conservation"),
    }


def main(argv: list) -> None:
    traced = argv[1] == "1"
    profile_arg, scenario_path, policies, config_json, spans_out = argv[2:7]
    with open(scenario_path, encoding="utf-8") as fh:
        text = fh.read()

    clock = HostClock()

    def setup():
        import simrt
        from simrt import audit
        tracer = None
        if traced:
            from spans import Tracer
            tracer = Tracer()
            tracer.install()
        span = tracer.wrapped if tracer else (lambda fn, name: fn)
        profile = span(resolve_profile, "profiles.load")(simrt, profile_arg)
        graph = span(simrt.load_scenario, "tasks.load_scenario")(text)
        return simrt, audit, tracer, span, profile, graph

    (simrt, audit, tracer, span, profile, graph), setup_host_s, setup_s = clock.time(setup)

    import hashlib
    import json
    import resource
    import traceback

    def maxrss_mb():
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    out = {"setup_s": setup_s, "setup_host_s": setup_host_s, "rss_after_load_mb": maxrss_mb(),
           "scenario_bytes": len(text.encode()), "attempts": []}
    if tracer:
        span(json.loads, "tasks.json_parse")(text)  # the parse floor inside load
    config = sim_config(simrt, json.loads(config_json))
    simulate = span(simrt.simulate, "engine.simulate")
    audit_all = span(audit.audit_all, "audit.all")
    for name in policies.split(","):
        attempt = {"policy": name}
        out["attempts"].append(attempt)
        try:
            policy = simrt.Policy.parse(name)
            (metrics, trace), attempt["sim_host_s"], attempt["sim_s"] = clock.time(
                simulate, graph, profile, policy, config)
            out.setdefault("rss_after_sim_mb", maxrss_mb())
            _, attempt["audit_host_s"], attempt["audit_s"] = clock.time(
                audit_all, trace, graph, profile, weights=config.weights,
                fpga_as_gpu=config.fpga_as_gpu)
            csv = span(trace.to_csv, "engine.to_csv")().encode()
            attempt.update(records=len(trace), csv_bytes=len(csv),
                           digest=hashlib.sha256(csv).hexdigest(),
                           metrics=metrics.to_dict())
            del metrics, trace, csv
        except Exception:  # one failed attempt is reported; the others still run
            attempt["error"] = traceback.format_exc()

    if tracer:
        out["restored"] = tracer.restore()
        out["layers"] = layer_metrics(tracer, out["attempts"])
        tracer.write(spans_out)
    out["probes_s"] = clock.probes
    out["probes_spent_s"] = clock.spent_s
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv)
