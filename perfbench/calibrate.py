"""Host-speed reference: a fixed pure-Python kernel timed next to every
measured call, so that times can be reported in reference seconds.

A shared host changes speed while a run goes on: the same simulate call
took 1.5x to 1.8x as long for stretches of a few seconds and then sped up
again. Such swings move the kernel and the measured call together, so
scaling a call's host seconds by REFERENCE_S / (kernel seconds measured
just before and just after it) removes most of them. The kernel lives here,
outside `src/`, and never changes with the program, so a change to simrt
moves the scaled time as much as it moves host time.

The kernel resembles simrt's event loop: a binary heap of events, small
slotted objects, set and dict lookups, and records turned into CSV text.
It uses builtins only, so it imports nothing that `import simrt` would
otherwise pay for inside setup_s.
"""

import time

# reference seconds are host seconds on a host where one kernel pass takes
# this long (about what a pass takes on a 2-core x86-64 sandbox at its
# faster speed)
REFERENCE_S = 0.013
_JOBS = 1500
_COST = {"a": (5, 9, 14), "b": (7, 3, 11), "c": (12, 8, 4), "d": (6, 6, 6)}


class _Job:
    __slots__ = ("id", "kind", "release", "deps", "unit", "start")

    def __init__(self, id, kind, release, deps):
        self.id, self.kind, self.release, self.deps = id, kind, release, deps
        self.unit = None
        self.start = 0


def _push(heap: list, item: tuple) -> None:
    heap.append(item)
    pos = len(heap) - 1
    while pos:
        parent = (pos - 1) >> 1
        if heap[parent] <= item:
            break
        heap[pos] = heap[parent]
        pos = parent
    heap[pos] = item


def _pop(heap: list) -> tuple:
    top, last = heap[0], heap.pop()
    if heap:
        pos, size = 0, len(heap)
        while True:
            child = 2 * pos + 1
            if child >= size:
                break
            if child + 1 < size and heap[child + 1] < heap[child]:
                child += 1
            if last <= heap[child]:
                break
            heap[pos] = heap[child]
            pos = child
        heap[pos] = last
    return top


def kernel() -> int:
    """One pass of the reference work; returns a checksum."""
    jobs = {}
    for i in range(_JOBS):
        deps = frozenset(j for j in (i - 1, i - 3) if j >= 0 and (i + j) % 3 == 0)
        jobs[i] = _Job(i, "abcd"[(i * 7) % 4], (i // 4) * 10, deps)
    events: list = []
    for job in jobs.values():
        _push(events, (job.release, 0, job.id))
    done, waiting, free, fifo, records = set(), {}, [0, 1, 2], [], []
    while events:
        now, what, jid = _pop(events)
        job = jobs[jid]
        if what == 0:
            if job.deps - done:
                waiting[jid] = job
            else:
                fifo.append(job)
        else:
            done.add(jid)
            free.append(job.unit)
            records.append({"task": jid, "unit": job.unit, "start": job.start, "end": now})
            for other in [w for w in waiting.values() if jid in w.deps]:
                if not other.deps - done:
                    del waiting[other.id]
                    fifo.append(other)
        while free and fifo:
            job = fifo.pop(0)
            cost = _COST[job.kind]
            unit = min(free, key=cost.__getitem__)
            free.remove(unit)
            job.unit, job.start = unit, now
            _push(events, (now + cost[unit], 1, job.id))
    text = "\n".join("%d,%d,%d,%d" % (r["task"], r["unit"], r["start"], r["end"])
                     for r in records)
    return len(text) + sum(r["end"] for r in records)


class HostClock:
    """Times calls in host seconds and in reference seconds.

    A probe is one timed kernel pass. Each timed call is bracketed by the
    probe before it (the last one taken) and a probe right after it; its
    reference seconds are its host seconds times REFERENCE_S over the mean
    of the two probes. `spent_s` is the host time spent in probes, which a
    caller timing the whole process subtracts.
    """

    def __init__(self):
        self.probes: list = []
        self.spent_s = 0.0
        self.probe()  # warms the kernel's code and data
        self.probe()

    def probe(self) -> float:
        start = time.perf_counter()
        kernel()
        elapsed = time.perf_counter() - start
        self.spent_s += elapsed
        self.probes.append(elapsed)
        return elapsed

    def time(self, fn, *args, **kwargs) -> tuple:
        """(result, host seconds, reference seconds) of fn(*args, **kwargs)."""
        before = self.probes[-1]
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        host_s = time.perf_counter() - start
        return result, host_s, host_s * REFERENCE_S * 2 / (before + self.probe())
