"""Command-line front end: validate profiles, generate scenarios, run
simulations, compare policies, and export traces.

Exit codes: 0 success, 1 simulation error, 2 input/validation error.
"""

import argparse
import json
import os
import sys

from .audit import audit_all
from .engine import (PHASE_COMPLETE, PHASE_KERNEL, PHASE_XFER_IN, PHASE_XFER_OUT,
                     SimConfig, simulate)
from .errors import (AuditError, BadInterval, GraphError, InvalidConfig,
                     InvalidRate, InvalidScenario, MissingCost, NegativeValue,
                     ParseError, SimrtError, UnresolvableCost)
from .profiles import (PlatformProfile, SetupMode, builtin_profiles, load_profile,
                       preference_matrix)
from .scenarios import convolution_batch, inference_comparison, robot_pipeline
from .scheduler import Policy
from .tasks import TaskGraph, dump_scenario, load_scenario

EXIT_OK = 0
EXIT_SIM_ERROR = 1
EXIT_INPUT_ERROR = 2

_INPUT_ERRORS = (ParseError, GraphError, MissingCost, NegativeValue,
                 BadInterval, InvalidScenario, UnresolvableCost, InvalidRate,
                 InvalidConfig, FileNotFoundError)


def _read_text(path: str) -> str:
    """A scenario or profile file's text; a file that cannot be read, or
    bytes that are not UTF-8, are a ParseError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc.reason} at byte {exc.start}", path) from None
    except OSError as exc:
        raise ParseError(f"cannot read: {exc.strerror or exc}", path) from None


def _load_profile_arg(name_or_path: str) -> PlatformProfile:
    if os.path.exists(name_or_path):
        return load_profile(_read_text(name_or_path), name=os.path.basename(name_or_path))
    builtins = builtin_profiles()
    if name_or_path in builtins:
        return builtins[name_or_path]
    search_dir = os.environ.get("SIMRT_PROFILE_DIR")
    if search_dir:
        candidate = os.path.join(search_dir, name_or_path + ".json")
        if os.path.exists(candidate):
            return load_profile(_read_text(candidate), name=name_or_path)
    raise FileNotFoundError(
        f"profile {name_or_path!r} is neither a file, a builtin "
        f"({', '.join(sorted(builtins))}), nor in SIMRT_PROFILE_DIR")


def _load_scenario_arg(path: str) -> TaskGraph:
    return load_scenario(_read_text(path))


def _parse_weights(text: str | None) -> dict | None:
    if not text:
        return None
    weights = {}
    for item in text.split(","):
        key, _, value = item.partition("=")
        key = key.strip()
        if key not in ("g", "d", "c") or not value.strip().isdecimal():
            raise ParseError(f"bad --weights item {item!r}; expected g=4,d=2,c=2")
        weights[key] = int(value)
    return weights


def _config_from_args(args) -> SimConfig:
    return SimConfig(
        setup_mode=SetupMode.parse(args.setup_mode),
        seed=args.seed,
        buffer_capacity=args.buffer_capacity,
        cloud_slots=args.cloud_slots,
        weights=_parse_weights(args.weights),
        cloud_in_makespan=not args.no_cloud_makespan,
    )


def _format_table(rows: list, headers: list) -> str:
    widths = [max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
              for i, h in enumerate(headers)]
    def fmt(row):
        return "  ".join(str(v).rjust(w) for v, w in zip(row, widths))
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(r) for r in rows)
    return "\n".join(lines)


def cmd_run(args) -> int:
    profile = _load_profile_arg(args.profile)
    scenario = _load_scenario_arg(args.scenario)
    config = _config_from_args(args)
    policies = [Policy.parse(p) for p in args.policy.split(",")]

    results = []
    for policy in policies:
        metrics, trace = simulate(scenario, profile, policy, config)
        if args.audit:
            audit_all(trace, scenario, profile, weights=config.weights)
        results.append((policy, metrics))

    if args.format == "json":
        doc = {
            "profile": profile.name,
            "scenario": args.scenario,
            "seed": config.seed,
            "results": [{"policy": str(p), "metrics": m.to_dict()}
                        for p, m in results],
        }
        print(json.dumps(doc, indent=2))
        return EXIT_OK

    unit_labels = [u.kind.value for u in profile.local_units()]
    if profile.has_cloud:
        unit_labels.append("CLOUD")
    headers = (["policy", "throughput/ms"]
               + [f"lat_{u}_ms" for u in unit_labels]
               + ["energy_J", "drops", "makespan_ms"])
    rows = []
    for policy, m in results:
        row = [str(policy), f"{m.throughput_tasks_per_ms:.3f}"]
        for u in unit_labels:
            lat = m.avg_latency_ms.get(u)
            row.append(f"{lat:.2f}" if lat is not None else "-")
        row += [f"{m.total_energy_j:.2f}", str(m.drops),
                f"{m.makespan_us / 1000:.2f}"]
        rows.append(row)

    if args.format == "csv":
        print(",".join(headers))
        for row in rows:
            print(",".join(row))
    else:
        print(f"profile: {profile.name}  scenario: {args.scenario}  seed: {config.seed}")
        print(_format_table(rows, headers))
    return EXIT_OK


def cmd_validate(args) -> int:
    profile = _load_profile_arg(args.profile)
    matrix = preference_matrix(profile)
    units = ", ".join(
        f"{u.kind.value}(w={u.weight}" + (f", {u.gops:g} GOPS)" if u.gops else ")")
        for u in profile.units)
    print(f"profile: {profile.name}")
    print(f"units: {units}")
    rows = [[name, perf.value, energy.value]
            for name, (perf, energy) in sorted(matrix.items())]
    print(_format_table(rows, ["workload", "perf_preferable", "energy_preferable"]))
    print("ok")
    return EXIT_OK


# a local task's phase record -> breakdown column of the phase it ends, which
# began at the task's previous record: setup, xfer_in, kernel, xfer_out
_ENDED_PHASE_COLUMN = {PHASE_XFER_IN: 0, PHASE_KERNEL: 1, PHASE_XFER_OUT: 2, PHASE_COMPLETE: 3}


def cmd_trace(args) -> int:
    profile = _load_profile_arg(args.profile)
    scenario = _load_scenario_arg(args.scenario)
    config = _config_from_args(args)
    policy = Policy.parse(args.policy)
    metrics, trace = simulate(scenario, profile, policy, config)

    with open(args.out, "w", encoding="utf-8") as fh:
        trace.write_csv(fh)
    print(f"wrote {len(trace)} records to {args.out} (seed: {config.seed})")

    if args.breakdown:
        totals: dict = {}
        previous: dict = {}  # task id -> time of its latest record
        for time_us, tid, _, unit, phase in trace.records:
            column = _ENDED_PHASE_COLUMN.get(phase)
            if column is not None:
                totals.setdefault(unit, [0, 0, 0, 0])[column] += time_us - previous[tid]
            previous[tid] = time_us
        rows = [[unit, *vals, sum(vals)] for unit, vals in sorted(totals.items())]
        print(_format_table(
            rows, ["unit", "setup_us", "xfer_in_us", "kernel_us",
                   "xfer_out_us", "total_us"]))
    return EXIT_OK


def cmd_gen(args) -> int:
    if args.scenario == "robot":
        graph = robot_pipeline(args.duration, args.camera_fps, args.imu_hz,
                               args.dl_fps, planning_hz=args.planning_hz)
    elif args.scenario == "conv":
        graph = convolution_batch(args.n)
    elif args.scenario == "inference":
        spec = {s.name.removeprefix("inference-"): s for s in inference_comparison()}
        graph = spec[args.variant].graph
    else:
        raise ParseError(f"unknown scenario kind {args.scenario!r}")
    text = dump_scenario(graph)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    print(f"wrote {len(graph)} tasks to {args.out}")
    return EXIT_OK


def _add_run_flags(parser) -> None:
    parser.add_argument("-p", "--profile", required=True,
                        help="profile file path or builtin name")
    parser.add_argument("-s", "--scenario", required=True, help="scenario JSON file")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--setup-mode", default="amortized",
                        choices=["amortized", "per_offload", "per-offload"])
    parser.add_argument("--buffer-capacity", type=int, default=None)
    parser.add_argument("--cloud-slots", type=int, default=None)
    parser.add_argument("--weights", default=None, help="queue weights, e.g. g=4,d=2,c=2")
    parser.add_argument("--no-cloud-makespan", action="store_true",
                        help="exclude cloud completions from the makespan")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simrt",
        description="heterogeneous task-scheduling runtime simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one or more policies and compare")
    _add_run_flags(p_run)
    p_run.add_argument("--policy", default="throughput",
                       help="comma-separated: latency|throughput|energy|advanced:<basic>")
    p_run.add_argument("--format", default="table", choices=["table", "json", "csv"])
    p_run.add_argument("--audit", action="store_true",
                       help="run trace audits after each simulation")
    p_run.set_defaults(func=cmd_run)

    p_val = sub.add_parser("validate", help="check a profile and print its preference matrix")
    p_val.add_argument("profile", help="profile file path or builtin name")
    p_val.set_defaults(func=cmd_validate)

    p_trace = sub.add_parser("trace", help="simulate one policy and export the trace CSV")
    _add_run_flags(p_trace)
    p_trace.add_argument("--policy", default="throughput")
    p_trace.add_argument("--out", required=True, help="output CSV path")
    p_trace.add_argument("--breakdown", action="store_true",
                         help="print per-unit offload phase totals")
    p_trace.set_defaults(func=cmd_trace)

    p_gen = sub.add_parser("gen", help="generate a scenario file")
    p_gen.add_argument("--scenario", required=True, choices=["robot", "conv", "inference"])
    p_gen.add_argument("--duration", type=int, default=10, help="robot: seconds")
    p_gen.add_argument("--camera-fps", type=int, default=25)
    p_gen.add_argument("--imu-hz", type=int, default=200)
    p_gen.add_argument("--dl-fps", type=int, default=3)
    p_gen.add_argument("--planning-hz", type=int, default=10)
    p_gen.add_argument("--n", type=int, default=1000, help="conv: task count")
    p_gen.add_argument("--variant", default="cpu", choices=["cpu", "gpu", "cloud"],
                       help="inference: which single-task variant")
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (SimrtError, AuditError) as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return EXIT_SIM_ERROR


if __name__ == "__main__":
    sys.exit(main())
