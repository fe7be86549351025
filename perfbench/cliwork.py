"""The `cli` workload: every job is a fresh `freesym` process.

Jobs read the JSON files cliinputs.py wrote and are checked against
oracle.py, against the documented exit codes (0 pass, 1 check failed,
2 unusable input) and against a byte-identical rerun.  This module does
not import freesym; the runner uses it to build and check the job list.
"""

from __future__ import annotations

import json
import os

import numpy as np

import oracle
from spans import Job

CONVERT_ORDER = 8
TOL = 1e-9
FAMILY_COUNT = 18  # the eight fixed families plus H_M_PLUS(3..12)


def params(seed: int) -> dict:
    """Seeded law parameters of the convert inputs."""
    rng = np.random.default_rng([seed, 4])
    return {name: float(rng.uniform(lo, hi)) for name, lo, hi in
            (("s", 0.5, 2.0), ("lam", 0.5, 2.0), ("r", 0.8, 1.25), ("g", 0.5, 2.0))}


def _json(res):
    return json.loads(res.stdout)


def _expect(code: int, then=None):
    """Check an exit code, then (optionally) the parsed stdout."""
    def check(res):
        if res.returncode != code:
            return f"exit {res.returncode}, expected {code}: {res.stderr[-200:]!r}"
        return then(res) if then else None
    return check


def _entries(res, want_of) -> str | None:
    payload = _json(res)
    got = {e["pattern"]: complex(*e["value"]) for e in payload["entries"]}
    want = {p: want_of(p) for k in range(1, CONVERT_ORDER + 1) for p in oracle.patterns(k)}
    err = oracle.max_rel_error(got, want)
    return None if err <= TOL else f"relative error {err:.3g}"


def _listing(res) -> str | None:
    lines = res.stdout.decode().split()
    parts = lines[:-1]
    if int(lines[-1]) != oracle.bell(8) or len(set(parts)) != oracle.bell(8):
        return f"{lines[-1]} partitions listed, Bell(8) = {oracle.bell(8)}"
    if any(sorted("".join(p.split("|"))) != list("12345678") for p in parts):
        return "a listed line is not a partition of 1..8"
    return None


def _minimal(want: list[str]):
    def check(res):
        got = _json(res)["minimal"]
        return None if got == want else f"minimal {got}, expected {want}"
    return check


def _field(key, want):
    def check(res):
        got = _json(res)[key]
        return None if got == want else f"{key} = {got}, expected {want}"
    return check


def _all_families(res) -> str | None:
    got = _json(res)["satisfied"]
    return None if len(got) == FAMILY_COUNT else f"satisfies {len(got)} of {FAMILY_COUNT} families"


def _probe(res) -> str | None:
    out = _json(res)
    return None if out["cells"] == 81 and not out["mismatches"] else f"mismatches {out['mismatches']}"


def build(work: str, seed: int, run) -> list[Job]:
    """run(args) starts `freesym <args>` and returns its Result."""
    par = params(seed)

    def f(name):
        return os.path.join(work, name + ".json")

    def job(kind, args, check, fault=None):
        return Job(f"cli.{kind}", lambda: run(args), check, fault=fault)

    def catalan_law(p):
        k = len(p)
        return oracle.catalan(k // 2) * par["s"] ** (k // 2) if k % 2 == 0 else 0

    def haar_cumulant(p):
        k = len(p)
        if k % 2 or p not in ("1*" * (k // 2), "*1" * (k // 2)):
            return 0
        return (-1) ** (k // 2 - 1) * oracle.catalan(k // 2 - 1) * par["r"] ** k

    def touchard(p):
        return sum(oracle.stirling2(len(p), j) * par["lam"] ** j for j in range(1, len(p) + 1))

    first_invariance = {}

    def invariance_once(res):
        first_invariance["stdout"] = res.stdout
        return _field("invariant", True)(res)

    def rerun_identical(res):
        same = res.stdout == first_invariance.get("stdout")
        return None if same else "rerun output is not byte-identical"

    invariance_args = ["check-invariance", "--dist", f("spec_m_unitary"), "--rep", f("phase_diag_3"),
                       "--order", "5", "--matrix-b", "--json"]
    return [
        job("start", ["--help"], _expect(0, lambda r: None if b"usage" in r.stdout else "no usage text")),
        job("enumerate", ["enumerate", "--nc", "8"],
            _expect(0, lambda r: None if int(r.stdout) == oracle.catalan(8) else f"{r.stdout!r} != C(8)")),
        job("enumerate", ["enumerate", "--all", "8", "--list"], _expect(0, _listing)),
        job("convert", ["convert", f("semicircle"), "--free", "--to-moments"],
            _expect(0, lambda r: _entries(r, catalan_law))),
        job("convert", ["convert", f("haar_moments"), "--free", "--to-cumulants"],
            _expect(0, lambda r: _entries(r, haar_cumulant))),
        job("convert", ["convert", f("poisson"), "--classical", "--to-moments"],
            _expect(0, lambda r: _entries(r, touchard))),
        job("convert", ["convert", f("gaussian_moments"), "--classical", "--to-cumulants"],
            _expect(0, lambda r: _entries(r, lambda p: par["g"] if len(p) == 2 else 0))),
        job("classify-dist", ["classify-dist", f("spec_r_diagonal"), "--free", "--json"],
            _expect(0, _minimal(["R_DIAGONAL"]))),
        job("classify-dist", ["classify-dist", f("spec_semicircular"), "--classical", "--json"],
            _expect(0, _minimal(["GAUSSIAN"]))),
        job("check-rep", ["check-rep", f("rotation"), "--family", "O_PLUS", "--json"],
            _expect(0, _field("holds", True))),
        job("check-rep", ["check-rep", f("sign_diag"), "--family", "S_PLUS", "--json"],
            _expect(1, _field("holds", False))),
        job("check-rep", ["check-rep", f("rotation"), "--json"],
            _expect(0, lambda r: None if {"O_PLUS", "U_PLUS"} <= set(_json(r)["satisfied"]) else "O_PLUS missing")),
        job("check-rep", ["check-rep", f("no_such_model")], _expect(2)),
        job("lattice-position", ["lattice-position", f("permutation")], _expect(0, _all_families)),
        # S_4's defining model satisfies every family; today the default H_M
        # scan raises BudgetError and the command exits 2
        job("lattice-position", ["lattice-position", f("permutation_4")], _expect(0, _all_families),
            fault="lattice_budget"),
        job("check-invariance", invariance_args, _expect(0, invariance_once)),
        job("check-invariance", ["check-invariance", "--dist", f("spec_semicircular"), "--rep",
                                 f("unit_i_diag"), "--order", "4", "--matrix-b", "--json"],
            _expect(1, _field("invariant", False))),
        job("theorem1-probe", ["theorem1-probe", "--n", "2", "--order", "5", "--seed", str(seed), "--json"],
            _expect(0, _probe)),
        job("check-invariance", invariance_args, _expect(0, rerun_identical)),
    ]
