"""simrt benchmark driver (stdlib only; see perfbench/README.md).

    python3 perfbench/run.py --workload robot --seed 1 --seconds 20 --trace 0

Runs from the root of a source tree: `simrt` is imported from ./src, not
installed. For --seconds it starts worker.py processes one after another,
each measuring one pass of the workload, and reports medians over them.
With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 every other process runs with span wrappers, one `simrt.cli run
--audit` subprocess follows, and the last line holds the per-layer metrics.
Times are in reference seconds: host seconds scaled by the speed of a
fixed kernel timed next to each call (calibrate.py), so that the host's
own speed swings cancel; host seconds are kept in the samples line.
Every attempt (one simulate call) is checked: its audits pass, its metrics
equal the recorded ones (expected.json) when the input has recorded values,
and its trace digest and metrics equal those of every other process.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from calibrate import REFERENCE_S, HostClock
from workloads import WORKLOADS, prepare

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
EXPECTED = os.path.join(HERE, "expected.json")
CHILD_TIMEOUT_S = 60  # a hung process is killed by SIGALRM after this

END_TO_END = {"setup_s": "s", "sim_tasks_per_s": "tasks/s", "audit_s": "s",
              "wall_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "tasks.load_scenario_s": "s", "tasks.json_parse_s": "s",
    "tasks.validate_graph_s": "s", "tasks.validate_graph_calls": "count",
    "tasks.scenario_bytes": "bytes", "tasks.rss_after_load_mb": "MB",
    "profiles.load_s": "s", "profiles.offload_time_calls": "count",
    "profiles.offload_time_s": "s", "profiles.resolvable_calls": "count",
    "profiles.resolvable_s": "s", "profiles.audit_resolvable_calls": "count",
    "profiles.energy_of_calls": "count",
    "scheduler.dispatch_calls": "count", "scheduler.dispatch_s": "s",
    "scheduler.on_unit_free_calls": "count", "scheduler.on_unit_free_s": "s",
    "scheduler.on_unit_free_hit_ratio": "ratio", "scheduler.fifo_hwm": "count",
    "scheduler.hp_queue_hwm": "count",
    "engine.simulate_s": "s", "engine.self_s": "s", "engine.records": "count",
    "engine.records_per_s": "1/s", "engine.compute_metrics_s": "s",
    "engine.rss_after_sim_mb": "MB", "engine.to_csv_s": "s", "engine.csv_bytes": "bytes",
    "audit.phase_order_s": "s", "audit.unit_exclusivity_s": "s",
    "audit.causality_s": "s", "audit.work_conservation_s": "s",
    "cli.run_s": "s", "cli.peak_rss_mb": "MB",
    "bench.tracing_overhead_s": "s",
}


def run_process(argv: list, env: dict) -> dict:
    """Run one child to its exit; wall time from spawn to exit, and its own
    peak RSS from os.wait4 (not the parent's, nor all children's)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                            preexec_fn=lambda: signal.alarm(CHILD_TIMEOUT_S))
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall_s = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"out": out, "code": proc.returncode, "wall_s": wall_s,
            "peak_rss_mb": usage.ru_maxrss / 1024}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    # each process draws its own hash seed, so equal digests across processes
    # check the byte-identical-trace promise
    env.pop("PYTHONHASHSEED", None)
    # an installed package imports from cached bytecode; the warm-up process
    # writes it, so setup_s does not include compiling simrt
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def src_fingerprint() -> str:
    """SHA-256 over the source tree, standing in for the commit."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "simrt")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, SRC).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def git_sha() -> str | None:
    """HEAD of ./.git, read without running git; None outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def loadavg() -> str | None:
    try:
        with open("/proc/loadavg", encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def save_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


class Checker:
    """Counts attempts and failures; an attempt fails on any exception, audit
    failure or output mismatch. Failures are reported and the run goes on."""

    def __init__(self, expected: dict | None, seen_digests: dict):
        self.expected = expected  # policy -> Metrics.to_dict() for this input
        self.seen_digests = seen_digests  # policy -> digest from earlier runs
        self.reference: dict = {}  # policy -> (digest, metrics) of this run
        self.attempted = 0
        self.failed = 0

    def fail(self, what: str, reason: str) -> None:
        self.failed += 1
        print(f"perfbench: FAILED {what}: {reason}", file=sys.stderr)

    def check(self, what: str, attempt: dict) -> None:
        self.attempted += 1
        policy = attempt["policy"]
        reason = attempt.get("error")
        if reason is None:
            digest, metrics = attempt["digest"], attempt["metrics"]
            self.seen_digests.setdefault(policy, digest)
            ref_digest, ref_metrics = self.reference.setdefault(policy, (digest, metrics))
            if digest != ref_digest or digest != self.seen_digests[policy]:
                reason = "trace CSV digest differs from another process of this source tree"
            elif metrics != ref_metrics:
                reason = "metrics differ from another process"
            elif self.expected is not None and metrics != self.expected.get(policy):
                reason = f"metrics differ from recorded values {self.expected.get(policy)}"
        if reason is not None:
            self.fail(f"{what} {policy}", reason)

    def check_cli(self, policies: list, proc: dict) -> None:
        try:
            results = {r["policy"]: r["metrics"] for r in json.loads(proc["out"])["results"]}
        except (ValueError, KeyError, TypeError):
            results = {}
        for policy in policies:
            self.attempted += 1
            got = results.get(policy)
            if proc["code"] != 0 or got is None:
                self.fail(f"cli {policy}", f"exit code {proc['code']}, no result")
            elif got != self.reference.get(policy, (None, None))[1]:
                self.fail(f"cli {policy}", "CLI metrics differ from the library's")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this input's metrics in expected.json instead of checking them")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "simrt", "__init__.py")):
        print("perfbench: no simrt source tree at ./src/simrt", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(WORK, exist_ok=True)
    workload = WORKLOADS[args.workload]
    key = workload.input_key(args.seed)
    profile, scenario, n_tasks = prepare(workload, args.seed, WORK)
    policies = list(workload.policies)
    config = workload.run_config(args.seed)
    env = child_env()
    env_info = {"python": sys.version.split()[0], "git_sha": git_sha(),
                "nproc": os.cpu_count(), "loadavg_start": loadavg()}

    digests_path = os.path.join(WORK, "digests.json")
    digests = load_json(digests_path)
    with open(scenario, "rb") as fh:
        input_id = f"{key}:{hashlib.sha256(fh.read()).hexdigest()[:16]}"
    seen = digests.setdefault(src_fingerprint(), {}).setdefault(input_id, {})
    expected = None if args.record else load_json(EXPECTED).get(key)
    checker = Checker(expected, seen)
    spans_out = os.path.join(WORK, f"spans-{workload.name}.csv")
    worker = [sys.executable, os.path.join(HERE, "worker.py")]

    # process 0 warms the page cache and the allocator's pages and is checked
    # but not measured; the clock starts after it
    runs = []  # measured worker processes: (traced, output, process)
    started = 0
    deadline = None
    while True:
        warmup = started == 0
        traced = bool(args.trace) and not warmup and started % 2 == 0
        started += 1
        proc = run_process(worker + ["1" if traced else "0", profile, scenario,
                                     ",".join(policies), json.dumps(config), spans_out], env)
        what = f"{'traced' if traced else 'plain'} process {started}"
        try:
            out = json.loads(proc["out"])
        except ValueError:
            out = None
        if proc["code"] != 0 or out is None:
            for policy in policies:
                checker.attempted += 1
                checker.fail(f"{what} {policy}", f"worker exited with code {proc['code']}")
        else:
            for attempt in out["attempts"]:
                checker.check(what, attempt)
            if traced and not out["restored"]:
                checker.fail(what, "a wrapped simrt function was not restored")
            # a wrong output still counts as measured; an exception leaves no timings
            if not warmup and all("error" not in a for a in out["attempts"]):
                runs.append((traced, out, proc))
        now = time.perf_counter()
        if warmup:
            deadline = now + args.seconds
            continue
        kinds = {traced for traced, _, _ in runs}
        # past the deadline once each kind has measured; past twice the
        # budget a kind that keeps failing is given up
        if (now >= deadline and len(kinds) == 1 + args.trace) or now >= deadline + args.seconds:
            break

    cli = None
    if args.trace:
        flags = []
        for name, value in config.items():
            flags += [f"--{name.replace('_', '-')}", str(value)]
        cli, _, cli_run_s = HostClock().time(
            run_process, [sys.executable, "-m", "simrt.cli", "run", "-p", profile,
                          "-s", scenario, "--policy", ",".join(policies), *flags,
                          "--audit", "--format", "json"], env)
        checker.check_cli(policies, cli)
    env_info["loadavg_end"] = loadavg()
    save_json(digests_path, digests)
    if args.record and checker.failed == 0:
        recorded = load_json(EXPECTED)
        recorded[key] = {p: m for p, (_, m) in checker.reference.items()}
        save_json(EXPECTED, recorded)

    plain = [(out, proc) for traced, out, proc in runs if not traced]
    traced_runs = [out for traced, out, _ in runs if traced]
    if not plain or (args.trace and not traced_runs):
        print("perfbench: no process completed; nothing measured", file=sys.stderr)
        return 1

    def sim_s(out, key="sim_s"):
        return sum(a[key] for a in out["attempts"])

    def speed(out):
        """Reference seconds per host second over a whole process."""
        return REFERENCE_S / statistics.median(out["probes_s"][1:])

    def wall_host_s(out, proc):
        return proc["wall_s"] - out["probes_spent_s"]

    samples = {
        "setup_s": [out["setup_s"] for out, _ in plain],
        "sim_tasks_per_s": [n_tasks * len(policies) / sim_s(out) for out, _ in plain],
        "audit_s": [sum(a["audit_s"] for a in out["attempts"]) for out, _ in plain],
        "wall_s": [wall_host_s(out, proc) * speed(out) for out, proc in plain],
        "peak_rss_mb": [proc["peak_rss_mb"] for _, proc in plain],
    }
    host_samples = {
        "setup_s": [out["setup_host_s"] for out, _ in plain],
        "sim_tasks_per_s": [n_tasks * len(policies) / sim_s(out, "sim_host_s")
                            for out, _ in plain],
        "audit_s": [sum(a["audit_host_s"] for a in out["attempts"]) for out, _ in plain],
        "wall_s": [wall_host_s(out, proc) for out, proc in plain],
        "speed": [speed(out) for out, _ in plain],
    }
    if args.trace:
        # median_low keeps counts whole; with one traced process it is its value
        # seconds of a traced process are scaled by its own speed
        layers = {name: statistics.median_low(
                      [out["layers"][name] * (speed(out) if PER_LAYER[name] == "s" else 1)
                       for out in traced_runs])
                  for name in traced_runs[0]["layers"]}
        # memory and rates come from the untraced processes, which hold no spans
        plain_sim_s = statistics.median([sim_s(out) for out, _ in plain])
        layers.update({
            "tasks.scenario_bytes": plain[0][0]["scenario_bytes"],
            "tasks.rss_after_load_mb":
                statistics.median([out["rss_after_load_mb"] for out, _ in plain]),
            "engine.rss_after_sim_mb":
                statistics.median([out["rss_after_sim_mb"] for out, _ in plain]),
            "engine.records_per_s": layers["engine.records"] / plain_sim_s,
            "bench.tracing_overhead_s": layers["engine.simulate_s"] - plain_sim_s,
            "cli.run_s": cli_run_s,
            "cli.peak_rss_mb": cli["peak_rss_mb"],
        })
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
                   for name, unit in END_TO_END.items()}

    print(json.dumps({"workload": args.workload, "seed": args.seed, "input": key,
                      "tasks": n_tasks, "processes": len(runs), "env": env_info,
                      "samples": samples, "host_samples": host_samples}))
    print(json.dumps({"correct": checker.failed == 0, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
