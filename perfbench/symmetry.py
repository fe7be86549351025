"""The `symmetry` workload: relation checks and invariance scans.

Runs on freesym's fixture witnesses (n <= 3) and on the S_4 permutation
model (n = 4).  Expected answers come from the classification itself: a
witness satisfies its declared family and every family above it, and a
class's law is invariant under a model exactly when the model satisfies
the class's governing family.
"""

from __future__ import annotations

import numpy as np

from freesym.cumulants import joint_moment_tensor
from freesym.distributions import CumulantSpecSingle
from freesym.fixtures import fixture_set, permutation_rep, witness_for_family
from freesym.invariance import check_invariance, cumulant_identity_extractor, theorem1_probe
from freesym.qgroups import (
    FamilyTag,
    all_family_tags,
    check_family,
    coproduct_lift,
    family_below,
    lattice_position,
    structural_consequences,
)

import classes
import oracle
from spans import Job

ORDER = 4
TOL = 1e-9
# variances of the rescaled semicircle; fixed, so the scale fault shows the
# same way on every seed
SCALES = (1e-3, 1.0, 1e3)
SCALE_ORDER = 6
# laws whose joint moment tensors are built directly: pairs, even
# patterns, a modulus condition and the alternating pair
JOINT_KINDS = ("SYMMETRIC", "ORTHOGONAL", "M_UNITARY", "CIRCULAR")


def _cells(n: int, order: int) -> int:
    """Moment cells one invariance scan compares: sum_k 2^k n^k."""
    return sum(2**k * n**k for k in range(1, order + 1))


def _check_lattice(out, tag: FamilyTag) -> str | None:
    if tag.label() not in out["satisfied"]:
        return f"witness misses its declared family {tag.label()}"
    if not out["upward_consistent"] or not out["closure"]["consistent"]:
        return "lattice position is not upward closed"
    return None


def _check_above(chk, declared: FamilyTag, tag: FamilyTag) -> str | None:
    if (tag == declared or family_below(declared, tag)) and not chk.holds:
        return f"witness of {declared.label()} fails {tag.label()} (residual {chk.residual:.3g})"
    return None


def _check_verdict(verdict, rep, family: FamilyTag) -> str | None:
    want = check_family(rep, family).holds
    if verdict.invariant != want:
        return (f"invariant={verdict.invariant} but {family.label()} holds={want} "
                f"(worst residual {verdict.worst_residual:.3g})")
    return None


def _check_extractor(out, rep, family: FamilyTag) -> str | None:
    want = check_family(rep, family).holds
    if not out["agree"] or out["predicted_invariant"] != want:
        return f"extractor predicted {out['predicted_invariant']}, scan {out['invariant']}, family {want}"
    return None


def _check_probe(out) -> str | None:
    if out["cells"] != 81 or out["mismatches"]:
        return f"{out['cells']} cells, mismatches {out['mismatches']}"
    return None


def _check_joint(tensor, moment: complex, n: int) -> str | None:
    k = tensor.ndim
    for i in range(n):
        if abs(tensor[(i,) * k] - moment) > TOL * max(1.0, abs(moment)):
            return f"constant word {i + 1} differs from the single-variable moment"
    swap = [1, 0] + list(range(2, n))
    relabelled = tensor[np.ix_(*([swap] * k))]
    if np.max(np.abs(relabelled - tensor)) > TOL * max(1.0, float(np.max(np.abs(tensor)))):
        return "moments change when two identically distributed variables swap"
    return None


def build(seed: int, tracer) -> list[Job]:
    rng = np.random.default_rng([seed, 2])
    with tracer.span("fixtures.build"):
        fx = fixture_set()
    reps = [(name, rep, tag) for name, (rep, tag) in fx.reps.items()]
    perm4 = permutation_rep(4)
    laws = []
    for kind, m, recipe in classes.RECIPES:
        spec, full = classes.sample(recipe, rng)
        laws.append((kind, spec, full, FamilyTag(*classes.GOVERNING[kind])))
    jobs: list[Job] = []

    every_family = [FamilyTag(kind, m) for kind, m in classes.GOVERNING.values()]
    every_tag = all_family_tags()
    for family in dict.fromkeys(every_family):
        witness = witness_for_family(family, 2)
        for tag in every_tag:
            jobs.append(Job("qgroups.check_family", lambda w=witness, t=tag: check_family(w, t),
                            lambda out, d=family, t=tag: _check_above(out, d, t)))
    for name, rep, tag in reps:
        jobs.append(Job("qgroups.lattice_position", lambda r=rep: lattice_position(r),
                        lambda out, t=tag: _check_lattice(out, t)))
    # S_4's defining model satisfies every family; the default H_M scan to
    # m=12 needs 4^10+ index tuples and raises BudgetError instead
    jobs.append(Job("qgroups.lattice_position", lambda: lattice_position(perm4),
                    lambda out: None if len(out["satisfied"]) == len(every_tag) else
                    f"satisfies {len(out['satisfied'])} of {len(every_tag)} families",
                    fault="lattice_budget"))
    for name, rep, tag in reps:
        jobs.append(Job("qgroups.structural", lambda r=rep: structural_consequences(r),
                        lambda out: None if out["holds"] else f"failed {sorted(k for k, c in out['checks'].items() if not c.holds)}"))
        jobs.append(Job("qgroups.lift", lambda r=rep: coproduct_lift(r, r),
                        lambda out, t=tag: None if check_family(out, t).holds else f"lift leaves {t.label()}"))

    for kind, spec, full, family in laws:
        if kind not in JOINT_KINDS:
            continue
        table = spec.to_table()
        moments = oracle.partition_sum(full, ORDER, free=True)
        for k in range(1, ORDER + 1):
            for p in oracle.patterns(k):
                jobs.append(Job("cumulants.joint_tensor",
                                lambda t=table, k=k, p=p: joint_moment_tensor(t, 3, k, p),
                                lambda out, m=moments[p]: _check_joint(out, m, 3)))

    for kind, spec, full, family in laws:
        for name, rep, tag in reps + [("permutation_4", perm4, FamilyTag("S_PLUS"))]:
            for matrix_b in (False, True) if rep.n < 4 else (False,):
                jobs.append(Job("invariance.check_invariance",
                                lambda s=spec, r=rep, b=matrix_b: check_invariance(s, r, ORDER, matrix_coeffs=b),
                                lambda out, r=rep, f=family: _check_verdict(out, r, f),
                                count=_cells(rep.n, ORDER)))
    for kind, spec, full, family in laws:
        for name, rep, tag in reps:
            jobs.append(Job("invariance.extractor",
                            lambda s=spec, r=rep: cumulant_identity_extractor(s, r, ORDER),
                            lambda out, r=rep, f=family: _check_extractor(out, r, f)))
    jobs.append(Job("invariance.probe", lambda: theorem1_probe(2, 5, seed=seed), _check_probe))

    # a verdict must not depend on the units of the input: the semicircle
    # of every variance below is O_PLUS-invariant exactly where variance 1 is
    o_plus = FamilyTag("O_PLUS")
    for s in SCALES:
        semi = CumulantSpecSingle(order=SCALE_ORDER, entries={"11": s}, selfadjoint=True)
        for name, rep, tag in reps:
            jobs.append(Job("invariance.check_invariance",
                            lambda x=semi, r=rep: check_invariance(x, r, SCALE_ORDER),
                            lambda out, r=rep: _check_verdict(out, r, o_plus),
                            fault="scale", count=_cells(rep.n, SCALE_ORDER), shape="rescaled"))
    return jobs
