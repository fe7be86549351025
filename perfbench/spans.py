"""Jobs, rounds, speed probes and span tracing shared by the benchmark.

A span is recorded around each of the benchmark's own calls into a freesym
layer; nothing inside freesym is instrumented.  Spans stay in memory and
are written out when the run ends.  The tracer also times its own
bookkeeping, which is how a traced run reports its overhead: the cost of
tracing is a few microseconds per span, far below the spread between two
untraced rounds, so timing a traced round against an untraced one could
not resolve it.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable

import oracle

_NULL = nullcontext()


class Tracer:
    """Span recorder; a disabled tracer records nothing and costs one call."""

    def __init__(self, enabled: bool, workload: str):
        self.enabled = enabled
        self.workload = workload
        self.phase = "setup"
        self.spans: list[dict] = []
        self.bookkeeping_s = 0.0
        self._stack: list[str] = []

    def span(self, name: str, count: float = 0):
        if not self.enabled:
            return _NULL
        return _Span(self, name, count)


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: Tracer, name: str, count: float):
        self.tracer = tracer
        self.record = {"name": name, "count": count}

    def __enter__(self):
        t0 = time.perf_counter()
        tr = self.tracer
        rec = self.record
        rec["id"] = f"{tr.workload}:{len(tr.spans)}"
        rec["parent"] = tr._stack[-1] if tr._stack else None
        rec["workload"] = tr.workload
        rec["phase"] = tr.phase
        tr.spans.append(rec)
        tr._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        tr.bookkeeping_s += rec["start"] - t0
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        tr = self.tracer
        self.record["end"] = end
        tr._stack.pop()
        tr.bookkeeping_s += time.perf_counter() - end
        return False


@dataclass
class Job:
    """One operation of a workload: a call into one freesym layer.

    name is the span name, "<layer>.<kind>".  check returns a description
    of what is wrong with the result, or None.  fault names the known
    program fault the job runs into; its failures are counted, not treated
    as a broken benchmark.  count is the job's work in the unit its layer's
    rate metric uses.  shape tells apart jobs of one kind that fill
    different caches; it defaults to the name.
    """

    name: str
    fn: Callable[[], object]
    check: Callable[[object], str | None]
    fault: str | None = None
    count: float = 0
    shape: str | None = None


def probe() -> float:
    """Seconds for a fixed pure-Python task that freesym never runs.

    The host is shared: the same code ran up to 1.8x slower within a minute
    while other tenants were busy, with CPU time tracking wall time (no
    steal), so the slowdown is contention for the core.  A probe between
    jobs reads the machine's speed at that moment; see run_jobs().
    """
    t = time.perf_counter()
    s = 0
    for i in range(60000):
        s += i * i
    oracle.set_partitions(6)
    return time.perf_counter() - t


# probe time that defines the reference speed work is reported at
PROBE_REF_S = 0.005
PROBE_EVERY_S = 0.25


@dataclass
class Timed:
    """Results of a job list, its wall time, and that time at reference speed."""

    results: list
    wall_s: float
    scaled_s: float
    probes: list


def run_jobs(jobs: list[Job], tracer: Tracer) -> Timed:
    """Run jobs back to back, probing the machine's speed between them.

    A probe runs before the first job, after the last one and after every
    PROBE_EVERY_S of job time.  Each stretch of jobs between two probes is
    rescaled by the mean of those probes against PROBE_REF_S.  Probes are
    outside the job timings.  An exception becomes that job's result.
    """
    results = []
    probes = [probe()]
    wall = scaled = stretch = 0.0
    for i, job in enumerate(jobs):
        with tracer.span(job.name, job.count):
            t = time.perf_counter()
            try:
                out = job.fn()
            except Exception as exc:  # recorded and judged like any result
                out = exc
            stretch += time.perf_counter() - t
        results.append(out)
        if stretch >= PROBE_EVERY_S or i == len(jobs) - 1:
            probes.append(probe())
            wall += stretch
            scaled += stretch * 2 * PROBE_REF_S / (probes[-2] + probes[-1])
            stretch = 0.0
    return Timed(results, wall, scaled, probes)


def judge(jobs: list[Job], results: list) -> tuple[int, dict, list]:
    """Check every result: (failed, failures per fault, unexpected problems)."""
    failed = 0
    faults: dict[str, int] = {}
    unexpected = []
    for job, out in zip(jobs, results):
        if isinstance(out, Exception):
            problem = f"{type(out).__name__}: {out}"
        else:
            try:
                problem = job.check(out)
            except Exception as exc:  # a check that cannot read the result
                problem = f"check raised {type(exc).__name__}: {exc}"
        if problem is None:
            continue
        failed += 1
        if job.fault is None:
            unexpected.append(f"{job.name}: {problem}")
        else:
            faults[job.fault] = faults.get(job.fault, 0) + 1
    return failed, faults, unexpected


def run_rounds(jobs, tracer, seconds: float) -> dict:
    """Whole rounds of the job list; checks run between rounds, untimed."""
    rounds = []
    walls = []
    attempted = failed = 0
    faults: dict[str, int] = {}
    unexpected: list[str] = []
    start = time.perf_counter()
    while True:
        with tracer.span("round"):
            timed = run_jobs(jobs, tracer)
        rounds.append(timed.scaled_s)
        walls.append(timed.wall_s)
        f, fa, un = judge(jobs, timed.results)
        attempted += len(jobs)
        failed += f
        for key, n in fa.items():
            faults[key] = faults.get(key, 0) + n
        unexpected += un
        if time.perf_counter() - start >= seconds:
            break
    return {"rounds": rounds, "walls": walls, "attempted": attempted, "failed": failed,
            "faults": faults, "unexpected": unexpected}


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per span id: its duration minus the time its direct children cover."""
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None and s["parent"] in out:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def shapes_once(jobs: list[Job]) -> list[Job]:
    """The first job of each kind: the set-up pass over every job shape."""
    seen = set()
    out = []
    for job in jobs:
        shape = job.shape or job.name
        if shape not in seen:
            seen.add(shape)
            out.append(job)
    return out
