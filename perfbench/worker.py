"""One benchmark process: set up a workload, run its rounds, report JSON.

    python3 perfbench/worker.py --workload calculus|symmetry|cli-setup
        --seed N --seconds S --trace 0|1 [--setup-only] [--out DIR]

The set-up time runs from the start of this script, before numpy and
freesym are imported, to the end of one untimed pass over every job
shape, rescaled to the speed probes' reference speed (spans.run_jobs).
Rounds follow until --seconds have passed (at least one).  The
last line of stdout is the JSON report that run.py reads.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

from spans import PROBE_REF_S, Tracer, probe, run_jobs, run_rounds, shapes_once  # noqa: E402


def _rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=("calculus", "symmetry", "cli-setup"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    tracer = Tracer(bool(args.trace), args.workload)
    report = {}
    if args.workload == "cli-setup":
        import cliinputs

        report["bytes"] = cliinputs.write(args.out, args.seed, tracer)
        wall = time.perf_counter() - T0
        speed = statistics.median(probe() for _ in range(5))
        report["setup_s"] = wall * PROBE_REF_S / speed
    else:
        if args.workload == "calculus":
            import calculus

            jobs = calculus.build(args.seed)
        else:
            import symmetry

            jobs = symmetry.build(args.seed, tracer)
        rss_before = _rss_mb()
        built = time.perf_counter() - T0
        timed = run_jobs(shapes_once(jobs), tracer)
        # import and input building are rescaled by the pass's first probe
        report["setup_s"] = built * PROBE_REF_S / timed.probes[0] + timed.scaled_s
        if not args.setup_only:
            tracer.phase = "round"
            report.update(run_rounds(jobs, tracer, args.seconds))
            report["rss_growth_mb"] = _rss_mb() - rss_before
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report["spans"] = tracer.spans
    report["bookkeeping_s"] = tracer.bookkeeping_s
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
