"""Span tracing for the traced benchmark run, installed from outside simrt.

`Tracer.install` replaces public simrt functions with wrappers that record
one span per call (name, start, end, parent) in memory; `Tracer.restore`
puts the originals back. Nothing inside `src/` knows about it.
"""

import time

ROOT = -1  # parent index of a top-level span


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start_ns, end_ns, parent index)
        self._stack = [ROOT]
        self._patches: list = []  # (owner, attribute, original)
        self.fifo_hwm = 0
        self.hp_queue_hwm = 0
        self.on_unit_free_hits = 0

    def wrapped(self, original, name: str, after=None):
        """`original` with one span recorded per call; `after(args, result)`
        runs after the span closes."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _wrap(self, owner, attr: str, name: str, after=None) -> None:
        original = vars(owner)[attr]
        setattr(owner, attr, self.wrapped(original, name, after))
        self._patches.append((owner, attr, original))

    def _after_dispatch(self, args, route) -> None:
        state = args[0]
        if route.unit is not None:
            self.fifo_hwm = max(self.fifo_hwm, len(state.queues[route.unit]))
        self.hp_queue_hwm = max(self.hp_queue_hwm, len(state.hp_queue))

    def _after_on_unit_free(self, args, task_id) -> None:
        if task_id is not None:
            self.on_unit_free_hits += 1

    def install(self) -> None:
        """Wrap the per-layer entry points of the simrt package."""
        import simrt
        import simrt.audit
        import simrt.engine
        import simrt.scheduler
        import simrt.tasks

        self._wrap(simrt.scheduler, "dispatch", "scheduler.dispatch", self._after_dispatch)
        self._wrap(simrt.scheduler, "on_unit_free", "scheduler.on_unit_free",
                   self._after_on_unit_free)
        self._wrap(simrt.engine, "offload_time", "profiles.offload_time")
        self._wrap(simrt.engine, "energy_of", "profiles.energy_of")
        self._wrap(simrt.engine, "compute_metrics", "engine.compute_metrics")
        self._wrap(simrt.engine, "validate_graph", "tasks.validate_graph")
        self._wrap(simrt.tasks, "validate_graph", "tasks.validate_graph")
        self._wrap(simrt.PlatformProfile, "resolvable", "profiles.resolvable")
        for check in ("phase_order", "unit_exclusivity", "causality", "work_conservation"):
            self._wrap(simrt.audit, f"audit_{check}", f"audit.{check}")

    def restore(self) -> bool:
        """Put every original back; True when each attribute is the original again."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        return all(vars(owner)[attr] is original for owner, attr, original in self._patches)

    def totals(self) -> dict:
        """Per span name: calls, total and self nanoseconds, and [calls, total
        nanoseconds] under each top-level span name.

        Self time is a span's duration minus its direct children's; children
        of one span never overlap, because the run is single-threaded.
        """
        child_ns = [0] * len(self.spans)
        root_of = [0] * len(self.spans)
        for idx, (_, start, end, parent) in enumerate(self.spans):
            if parent == ROOT:
                root_of[idx] = idx
            else:
                child_ns[parent] += end - start
                root_of[idx] = root_of[parent]  # parents precede their children
        out: dict = {}
        for idx, (name, start, end, _) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0,
                                          "by_root": {}})
            entry["calls"] += 1
            entry["total_ns"] += end - start
            entry["self_ns"] += end - start - child_ns[idx]
            root = entry["by_root"].setdefault(self.spans[root_of[idx]][0], [0, 0])
            root[0] += 1
            root[1] += end - start
        return out

    def write(self, path: str) -> None:
        """Write every span as CSV: index, parent, name, start_ns, end_ns."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,parent,name,start_ns,end_ns\n")
            fh.writelines(f"{i},{parent},{name},{start},{end}\n"
                          for i, (name, start, end, parent) in enumerate(self.spans))
