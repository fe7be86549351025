"""Benchmark entry point: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload calculus|symmetry|cli --seed N
        --seconds S --trace 0|1

Run from the root of a freesym checkout; freesym is imported from ./src.
With --trace 0 the last line of stdout carries the end-to-end metrics of
the workload (work_s, setup_s, peak_rss_mb).  With --trace 1 it carries the
per-layer metrics: the named workload runs traced for --seconds, then one
traced round of each other workload, since each layer is reached by only
some workloads.  Only one child process runs at a time, every child gets
the same pinned environment (one BLAS/OpenMP thread, fixed hash seed), and
every child is waited for.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
WORKLOADS = ("calculus", "symmetry", "cli")
PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
# set-up samples per run (median reported); the calculus set-up fills the
# conversion caches for ~20 s and repeats well from one sample, the shorter
# ones need several
SETUP_SAMPLES = {"calculus": 1, "symmetry": 3, "cli": 5}
DEADLINE_S = 175.0
LAYERS = ("partitions", "cumulants", "distributions", "qgroups", "invariance",
          "serialize", "fixtures", "cli")


class BenchError(RuntimeError):
    pass


@dataclass
class Result:
    returncode: int
    stdout: bytes
    stderr: bytes
    maxrss_mb: float


class Children:
    """Starts one child at a time and waits for it, within the run's deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env.update(PINS)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else src

    def run(self, argv: list[str]) -> Result:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("out of time before starting " + " ".join(argv[:4]))
        out_path = WORK / "child.out"
        err_path = WORK / "child.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            killed = threading.Event()

            def kill():
                killed.set()
                proc.kill()

            timer = threading.Timer(left, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if killed.is_set():
            raise BenchError("child killed at the run's deadline: " + " ".join(argv[:4]))
        return Result(proc.returncode, out_path.read_bytes(), err_path.read_bytes(), usage.ru_maxrss / 1024)

    def freesym(self, args: list[str]) -> Result:
        return self.run([sys.executable, "-m", "freesym.cli", *args])

    def worker(self, workload: str, seed: int, seconds: float, trace: int,
               setup_only: bool = False, out: Path | None = None) -> dict:
        argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace)]
        if setup_only:
            argv.append("--setup-only")
        if out is not None:
            argv += ["--out", str(out)]
        res = self.run(argv)
        if res.returncode != 0:
            raise BenchError(f"{workload} worker exited {res.returncode}:\n{res.stderr.decode()[-2000:]}")
        return json.loads(res.stdout.decode().strip().splitlines()[-1])


def run_workload(kids: Children, workload: str, seed: int, seconds: float, trace: int,
                 setup_samples: int) -> dict:
    """Set-up samples, then rounds; returns the worker-style report."""
    if workload == "cli":
        return run_cli(kids, seed, seconds, trace, setup_samples)
    setups = [kids.worker(workload, seed, 0, trace, setup_only=True)["setup_s"]
              for _ in range(setup_samples - 1)]
    report = kids.worker(workload, seed, seconds, trace)
    report["setup_samples"] = setups + [report["setup_s"]]
    return report


def run_cli(kids: Children, seed: int, seconds: float, trace: int, setup_samples: int) -> dict:
    import cliwork
    from spans import Tracer, run_rounds

    inputs = WORK / "cli-inputs"
    setups = [kids.worker("cli-setup", seed, 0, trace, out=inputs) for _ in range(setup_samples)]
    tracer = Tracer(bool(trace), "cli")
    tracer.phase = "round"
    rss = []

    def run(args):
        res = kids.freesym(args)
        rss.append(res.maxrss_mb)
        return res

    report = run_rounds(cliwork.build(str(inputs), seed, run), tracer, seconds)
    report.update(
        setup_samples=[s["setup_s"] for s in setups],
        peak_rss_mb=max(rss),
        spans=tracer.spans + setups[-1]["spans"],
        bookkeeping_s=tracer.bookkeeping_s + setups[-1]["bookkeeping_s"],
        bytes=setups[-1]["bytes"],
    )
    return report


def _median(spans, name, phase="round"):
    """Median seconds per span of that name (phase None: any phase)."""
    xs = [s["end"] - s["start"] for s in spans if s["name"] == name and phase in (None, s["phase"])]
    if not xs:
        raise BenchError(f"no {name} spans to report")
    return statistics.median(xs)


def _rate(spans, names):
    picked = [s for s in spans if s["name"] in names and s["phase"] == "round"]
    return sum(s["count"] for s in picked) / sum(s["end"] - s["start"] for s in picked)


CONVERSIONS = ("cumulants.free_c2m", "cumulants.free_m2c", "cumulants.classical_c2m",
               "cumulants.classical_m2c", "cumulants.matrix_d2", "cumulants.matrix_d3")
CLI_KINDS = ("start", "enumerate", "convert", "classify-dist", "check-rep", "lattice-position",
             "check-invariance", "theorem1-probe")


def layer_metrics(reports: dict) -> dict:
    """Per-layer metrics from the spans of every workload's traced run."""
    from spans import self_times

    spans = [s for r in reports.values() for s in r["spans"]]
    cal, sym, cli = reports["calculus"], reports["symmetry"], reports["cli"]
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    put("partitions.enumerate_s", _median(spans, "partitions.enumerate"), "s")
    put("partitions.items_per_s", _rate(spans, {"partitions.enumerate"}), "1/s")
    for kind in ("free_c2m", "free_m2c", "classical_c2m", "classical_m2c", "matrix_d2", "matrix_d3",
                 "multivariate", "joint_tensor"):
        put(f"cumulants.{kind}_s", _median(spans, f"cumulants.{kind}"), "s")
    put("cumulants.entries_per_s", _rate(spans, set(CONVERSIONS)), "1/s")
    put("cumulants.cold_first_s", sum(s["end"] - s["start"] for s in cal["spans"]
                                      if s["phase"] == "setup" and s["name"].startswith("cumulants.")), "s")
    put("cumulants.rss_growth_mb", cal["rss_growth_mb"], "MB")
    put("distributions.classify_s", _median(spans, "distributions.classify"), "s")
    for kind in ("check_family", "lattice_position", "structural", "lift"):
        put(f"qgroups.{kind}_s", _median(spans, f"qgroups.{kind}"), "s")
    rounds = len(sym["rounds"])
    put("qgroups.lattice_position_failed", sym["faults"].get("lattice_budget", 0) / rounds, "count")
    for kind in ("check_invariance", "extractor", "probe"):
        put(f"invariance.{kind}_s", _median(spans, f"invariance.{kind}"), "s")
    put("invariance.cells_per_s", _rate(spans, {"invariance.check_invariance"}), "1/s")
    put("invariance.scale_failed", sym["faults"].get("scale", 0) / rounds, "count")
    put("serialize.load_s", _median(spans, "serialize.load", "setup"), "s")
    put("serialize.dump_s", _median(spans, "serialize.dump", "setup"), "s")
    put("serialize.bytes", cli["bytes"], "B")
    put("fixtures.build_s", _median(spans, "fixtures.build", None), "s")
    for kind in CLI_KINDS:
        put(f"cli.{kind}_s", _median(spans, f"cli.{kind}"), "s")
    own = self_times(spans)
    for layer in LAYERS:
        put(f"{layer}.self_s", sum(own[s["id"]] for s in spans if s["name"].startswith(layer + ".")), "s")
    traced = sum(s["end"] - s["start"] for s in spans if s["name"] == "round")
    put("trace.overhead_pct", 100.0 * sum(r["bookkeeping_s"] for r in reports.values()) / traced, "%")
    return m


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "freesym" / "__init__.py").is_file():
        print(f"error: no freesym sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    # one core for this process and every child: the speed probes run here,
    # so the jobs they rescale must run on the same core
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    WORK.mkdir(exist_ok=True)
    kids = Children(deadline)
    # byte-compile once, untimed, so no timed process pays for it
    warm = kids.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "freesym"), str(HERE)])
    if warm.returncode != 0:
        raise BenchError("byte-compiling failed:\n" + warm.stderr.decode())

    if args.trace:
        order = [args.workload] + [w for w in WORKLOADS if w != args.workload]
        reports = {w: run_workload(kids, w, args.seed, args.seconds if w == args.workload else 0, 1, 1)
                   for w in order}
        metrics = layer_metrics(reports)
        with open(WORK / f"trace-{args.workload}-{args.seed}.json", "w") as fh:
            json.dump([s for r in reports.values() for s in r["spans"]], fh)
    else:
        reports = {args.workload: run_workload(kids, args.workload, args.seed, args.seconds, 0,
                                               SETUP_SAMPLES[args.workload])}
        own = reports[args.workload]
        metrics = {
            "work_s": {"value": statistics.median(own["rounds"]), "unit": "s"},
            "setup_s": {"value": statistics.median(own["setup_samples"]), "unit": "s"},
            "peak_rss_mb": {"value": own["peak_rss_mb"], "unit": "MB"},
        }
        print(f"rounds {own['rounds']} (wall {own['walls']}) setup {own['setup_samples']}",
              file=sys.stderr)

    own = reports[args.workload]
    problems = [p for r in reports.values() for p in r["unexpected"]]
    for p in problems:
        print("unexpected:", p, file=sys.stderr)
    if own["faults"]:
        print("known faults hit:", own["faults"], file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": own["attempted"], "failed": own["failed"],
                      "metrics": metrics}))
    return 0


def _pin_and_exec() -> None:
    """Restart under the pinned environment unless already in it."""
    if any(os.environ.get(k) != v for k, v in PINS.items()):
        env = dict(os.environ)
        env.update(PINS)
        os.execve(sys.executable, [sys.executable, __file__, *sys.argv[1:]], env)


if __name__ == "__main__":
    _pin_and_exec()
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(3)
