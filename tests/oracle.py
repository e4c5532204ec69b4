"""Independent oracles used to cross-check the production code.

These are written directly from the documented dispatch rules and graph
definitions, on purpose with their own state representation, so the tests
do not share a code path with the package under test.
"""

from simrt import TaskGraph, UnitKind

# unit label (as it appears in traces) -> policy slot
SLOT_OF = {"CPU": "c", "DSP": "d", "mGPU": "g", "GPU": "g", "FPGA": "g"}


class CorrectedDispatcher:
    """Literal interpreter of the corrected dispatch rules.

    Tracks the round-robin counter N and the per-queue loads Q explicitly;
    weight zero means the queue does not exist. Returns "g", "d", "c" for
    local queues, or "CLOUD" / "HP" for the tag-aware pre-steps.
    """

    def __init__(self, policy_name: str, advanced: bool,
                 w_g: int, w_d: int, w_c: int):
        self.policy_name = policy_name
        self.advanced = advanced
        self.w_g, self.w_d, self.w_c = w_g, w_d, w_c
        self.n = 0
        self.q_g = self.q_d = self.q_c = 0

    def route(self, real_time: bool, image_input: bool) -> str:
        if self.advanced:
            if not real_time:
                return "CLOUD"
            if image_input:
                return "HP"
        if self.policy_name == "latency":
            return self._latency()
        if self.policy_name == "throughput":
            return self._throughput()
        return self._energy()

    def started(self, slot: str) -> None:
        """A queued task left the given queue to start executing."""
        if slot == "g":
            self.q_g -= 1
        elif slot == "d":
            self.q_d -= 1
        else:
            self.q_c -= 1

    def _latency(self) -> str:
        n = self.n
        if n < self.w_g:
            unit = "g"
        elif n < self.w_g + self.w_d:
            unit = "d"
        else:
            unit = "c"
        self.n = n + 1
        if self.n >= self.w_g + self.w_d + self.w_c:
            self.n = 0
        return unit

    def _throughput(self) -> str:
        if self.w_g > 0 and self.q_g < self.w_g:
            unit = "g"
        elif self.w_c > 0 and self.q_c < self.w_c:
            unit = "c"
        elif self.w_d > 0 and self.q_d < self.w_d:
            unit = "d"
        elif self.w_c > 0:
            unit = "c"
        elif self.w_g > 0:
            unit = "g"
        else:
            unit = "d"
        self._enqueue(unit)
        return unit

    def _energy(self) -> str:
        if self.w_d > 0 and self.q_d < self.w_d:
            unit = "d"
        elif self.w_g > 0 and self.q_g < self.w_g:
            unit = "g"
        elif self.w_c > 0 and self.q_c < self.w_c:
            unit = "c"
        elif self.w_d > 0:
            unit = "d"
        elif self.w_g > 0:
            unit = "g"
        else:
            unit = "c"
        self._enqueue(unit)
        return unit

    def _enqueue(self, slot: str) -> None:
        if slot == "g":
            self.q_g += 1
        elif slot == "d":
            self.q_d += 1
        else:
            self.q_c += 1


def slot_weights(profile, weights=None) -> tuple:
    """(w_g, w_d, w_c) as the dispatcher sees them; absent units weigh 0."""
    w = {"g": 0, "d": 0, "c": 0}
    present = set()
    for unit in profile.units:
        slot = SLOT_OF.get(unit.kind.value)
        if unit.kind is UnitKind.FPGA or slot is None:
            continue
        present.add(slot)
        w[slot] = unit.weight
    # overrides apply only to slots whose unit exists in the profile
    for slot, value in (weights or {}).items():
        if slot in present:
            w[slot] = value
    return w["g"], w["d"], w["c"]


def assert_dispatch_equivalence(trace, scenario: TaskGraph, profile, policy,
                                weights=None) -> None:
    """Replay a trace against the corrected-rule interpreter.

    Every dispatch record must match the interpreter's routing decision
    given identical counter/load state, and every execution start must pop
    the matching queue head.
    """
    w_g, w_d, w_c = slot_weights(profile, weights)
    oracle = CorrectedDispatcher(policy.basic.value, policy.advanced, w_g, w_d, w_c)
    fifos = {"g": [], "d": [], "c": []}
    hp = []
    for r in trace:
        if r.phase == "dispatch":
            task = scenario.task(r.task_id)
            expected = oracle.route(task.tags.real_time, task.tags.image_input)
            actual = SLOT_OF.get(r.unit, r.unit)
            assert actual == expected, (
                f"task {r.task_id} at {r.time_us}: production routed to "
                f"{actual!r}, corrected rules say {expected!r}")
            if expected in fifos:
                fifos[expected].append(r.task_id)
            elif expected == "HP":
                hp.append(r.task_id)
        elif r.phase == "setup":
            slot = SLOT_OF[r.unit]
            if hp and hp[0] == r.task_id:
                hp.pop(0)
            else:
                assert fifos[slot] and fifos[slot][0] == r.task_id, (
                    f"unit {r.unit} started {r.task_id}; corrected-rule queue "
                    f"head was {fifos[slot][:1]}")
                fifos[slot].pop(0)
                oracle.started(slot)


def kahn_has_topological_order(ids, deps_of) -> bool:
    """Kahn-style check that a dependency relation admits a topological order."""
    indegree = {i: len(deps_of[i]) for i in ids}
    dependents = {i: [] for i in ids}
    for tid in ids:
        for dep in deps_of[tid]:
            dependents[dep].append(tid)
    frontier = sorted(i for i in ids if indegree[i] == 0)
    visited = 0
    while frontier:
        node = frontier.pop()
        visited += 1
        for dependent in dependents[node]:
            indegree[dependent] -= 1
            if indegree[dependent] == 0:
                frontier.append(dependent)
    return visited == len(list(ids))

