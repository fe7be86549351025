"""Repeat the benchmark and report how steady each end-to-end metric is.

    python3 perfbench/repeat.py [--workload W ...] [--runs 10] [--first-seed 1]
                                [--save FILE] [--compare FILE]

Runs BENCHMARK.json's command once per seed (seeds first-seed, first-seed+1,
...), one run at a time, and prints for every workload and end-to-end
metric the median, the quartiles (statistics.quantiles, n=4), the spread
(Q3 - Q1) / median, and that spread against the metric's bound.  The share
of failed operations must be the same in every run.  --save writes the
values; --compare reads a saved set and reports how far each median moved,
in the metric's worse direction, against its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(bench: dict, workload: str, seed: int) -> dict:
    argv = [*bench["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--save")
    ap.add_argument("--compare")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    values: dict = {}
    ok = True
    for workload in workloads:
        runs = []
        for i in range(args.runs):
            out = run_once(bench, workload, args.first_seed + i)
            print(f"{workload} seed {args.first_seed + i}: " + " ".join(
                f"{k}={v['value']:.4f}" for k, v in out["metrics"].items())
                + f" failed {out['failed']}/{out['attempted']} correct={out['correct']}", flush=True)
            runs.append(out)
        shares = {(r["failed"], r["attempted"]) for r in runs}
        if len({f / a for f, a in shares}) != 1 or not all(r["correct"] for r in runs):
            ok = False
            print(f"{workload}: failed shares {sorted(shares)}, correct {[r['correct'] for r in runs]}")
        values[workload] = {name: [r["metrics"][name]["value"] for r in runs] for name in metrics}
        for name, spec in metrics.items():
            xs = values[workload][name]
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            verdict = "ok" if spread <= spec["bound"] / 3 else "within bound" if spread <= spec["bound"] else "OVER"
            if name != "setup_s" and spread > spec["bound"]:
                ok = False
            print(f"  {workload:9s} {name:12s} median {med:.4f} q1 {q1:.4f} q3 {q3:.4f} "
                  f"spread {spread:.3%} bound {spec['bound']:.0%} {verdict}")
    if args.save:
        Path(args.save).write_text(json.dumps(values, indent=1))
    if args.compare:
        before = json.loads(Path(args.compare).read_text())
        for workload in workloads:
            for name, spec in metrics.items():
                if name not in before.get(workload, {}):
                    continue
                old = statistics.median(before[workload][name])
                new = statistics.median(values[workload][name])
                worse = (new - old) / old if spec["better"] == "lower" else (old - new) / old
                flag = "ok" if worse <= spec["bound"] else "OVER"
                ok = ok and worse <= spec["bound"]
                print(f"  {workload:9s} {name:12s} median moved {worse:+.3%} (worse direction) "
                      f"bound {spec['bound']:.0%} {flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
