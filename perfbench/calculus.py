"""The `calculus` workload: warm moment <-> cumulant conversions.

One long-lived process converts seeded tables of a few fixed shapes, so
freesym's caches are warm after the set-up pass, as in a notebook session.
Every output is checked against oracle.py or against a property the
conversion must have.
"""

from __future__ import annotations

import numpy as np

from freesym.cumulants import (
    CumulantTable,
    MomentTable,
    classical_cumulants_to_moments,
    core_shape,
    free_cumulants_to_moments,
    joint_moments_free_family,
    moments_to_classical_cumulants,
    moments_to_free_cumulants,
    multivariate_cumulants_from_joint_moments,
)
from freesym.distributions import (
    ClassicalClassTag,
    FreeClassTag,
    classify_classical_moments,
    classify_free_moments,
)
from freesym.partitions import enumerate_all_partitions, enumerate_noncrossing

import oracle
import classes
from spans import Job

K = 8
TOL = 1e-9

# A moment table carries no self-adjointness flag, so the semicircle is
# recognised as ORTHOGONAL from its moments.  The classical calculus has no
# R-diagonal class; alternating patterns are balanced, hence UNITARY.
FREE_NAME = {"SEMICIRCULAR": "ORTHOGONAL"}
CLASSICAL_NAME = {
    "SEMICIRCULAR": "ORTHOGONAL",
    "FREE_UNITARY": "UNITARY",
    "R_DIAGONAL": "UNITARY",
    "CIRCULAR": "COMPLEX_GAUSSIAN",
    "SHIFTED_CIRCULAR": "SHIFTED_COMPLEX_GAUSSIAN",
}


def _dense(rng, order: int, dim: int = 1) -> dict:
    """Random entries on every pattern, shrinking like 0.4^k."""
    data = {}
    for k in range(1, order + 1):
        for p in oracle.patterns(k):
            if dim == 1:
                data[p] = complex(rng.standard_normal(), rng.standard_normal()) * 0.4**k
            else:
                shape = core_shape(dim, k)
                data[p] = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * (0.4**k / dim)
    return data


def _by_order(order: int, value_of) -> dict:
    """Same value on every pattern of an order: a self-adjoint variable."""
    return {p: value_of(k) for k in range(1, order + 1) for p in oracle.patterns(k)}


def _compare(got, want: dict, what: str) -> str | None:
    err = oracle.max_rel_error(got.data, want)
    return None if err <= TOL else f"{what}: relative error {err:.3g}"


def _zero_based(part) -> tuple:
    return tuple(tuple(x - 1 for x in b) for b in part.blocks)


def _check_enumeration(parts, k: int, free: bool) -> str | None:
    want = oracle.catalan(k) if free else oracle.bell(k)
    if len(parts) != want:
        return f"{len(parts)} partitions of {k} points, recurrence gives {want}"
    got = {_zero_based(p) for p in parts}
    if got != set(oracle.partitions(k, free)):
        return f"partitions of {k} points differ from the reference enumeration"
    return None


class _FreeFamily:
    """Joint-moment oracle of n free copies of one scalar variable."""

    def __init__(self, table: CumulantTable, n: int):
        self.table = table
        self.n = n
        self.dim = 1

    def moment(self, word, pattern):
        return joint_moments_free_family(self.table, self.n, word, pattern)


def _check_multivariate(out, table: CumulantTable) -> str | None:
    word, pattern, mag = out.largest_mixed()
    if mag > TOL:
        return f"mixed cumulant {word} {pattern} of a free family is {mag:.3g}"
    for (w, p), value in out.data.items():
        if len(set(w)) == 1 and abs(value - table.data[p]) > TOL:
            return f"pure cumulant {w} {p} differs from the table"
    return None


def _check_tags(tags, want) -> str | None:
    labels = sorted(t.label() for t in tags)
    return None if want.label() in labels else f"expected {want.label()}, got {labels}"


def build(seed: int) -> list[Job]:
    rng = np.random.default_rng([seed, 1])
    jobs: list[Job] = []

    for k in range(1, K + 1):
        jobs.append(Job("partitions.enumerate", lambda k=k: enumerate_noncrossing(k),
                        lambda out, k=k: _check_enumeration(out, k, True), count=oracle.catalan(k)))
        jobs.append(Job("partitions.enumerate", lambda k=k: enumerate_all_partitions(k),
                        lambda out, k=k: _check_enumeration(out, k, False), count=oracle.bell(k)))

    entries = sum(2**k for k in range(1, K + 1))

    def scalar(name, convert, data, want, what):
        table_cls = MomentTable if name.endswith("m2c") else CumulantTable
        table = table_cls(order=K, data=dict(data))
        jobs.append(Job(name, lambda: convert(table, K), lambda out: _compare(out, want, what),
                        count=entries))

    # free calculus: a dense table against the partition sum and back, then
    # the laws whose moments or cumulants are known in closed form
    dense = _dense(rng, K)
    dense_m = oracle.partition_sum(dense, K, free=True)
    scalar("cumulants.free_c2m", free_cumulants_to_moments, dense, dense_m, "free partition sum")
    scalar("cumulants.free_m2c", moments_to_free_cumulants, dense_m, dense, "free round trip")
    s = float(rng.uniform(0.5, 2.0))
    scalar("cumulants.free_c2m", free_cumulants_to_moments,
           {p: s for p in ("11", "1*", "*1", "**")},
           _by_order(K, lambda k: oracle.catalan(k // 2) * s ** (k // 2) if k % 2 == 0 else 0),
           "semicircle moments vs Catalan numbers")
    lam = float(rng.uniform(0.5, 2.0))
    scalar("cumulants.free_c2m", free_cumulants_to_moments, _by_order(K, lambda k: lam),
           _by_order(K, lambda k: sum(oracle.narayana(k, j) * lam**j for j in range(1, k + 1))),
           "free Poisson moments vs Narayana numbers")
    r = float(rng.uniform(0.8, 1.25))
    haar_m = {p: r**k for k in range(2, K + 1, 2) for p in oracle.patterns(k) if p.count("1") * 2 == k}
    haar_k = {}
    for k in range(2, K + 1, 2):
        for p in ("1*" * (k // 2), "*1" * (k // 2)):
            haar_k[p] = (-1) ** (k // 2 - 1) * oracle.catalan(k // 2 - 1) * r**k
    scalar("cumulants.free_m2c", moments_to_free_cumulants, haar_m, haar_k,
           "Haar unitary free cumulants vs (-1)^(k-1) C(k-1)")

    # classical calculus
    dense = _dense(rng, K)
    dense_m = oracle.partition_sum(dense, K, free=False)
    scalar("cumulants.classical_c2m", classical_cumulants_to_moments, dense, dense_m,
           "classical partition sum")
    scalar("cumulants.classical_m2c", moments_to_classical_cumulants, dense_m, dense,
           "classical round trip")
    s = float(rng.uniform(0.5, 2.0))
    scalar("cumulants.classical_c2m", classical_cumulants_to_moments,
           {p: s for p in ("11", "1*", "*1", "**")},
           _by_order(K, lambda k: oracle.double_factorial(k - 1) * s ** (k // 2) if k % 2 == 0 else 0),
           "Gaussian moments vs double factorials")
    lam = float(rng.uniform(0.5, 2.0))
    scalar("cumulants.classical_c2m", classical_cumulants_to_moments, _by_order(K, lambda k: lam),
           _by_order(K, lambda k: sum(oracle.stirling2(k, j) * lam**j for j in range(1, k + 1))),
           "Poisson moments vs Touchard polynomials (Bell numbers at rate 1)")

    # matrix-valued free calculus.  dim 2: a dense table there and back.
    made = {}
    d2 = CumulantTable(order=5, dim=2, data=_dense(rng, 5, dim=2))

    def d2_c2m():
        made["d2"] = free_cumulants_to_moments(d2, 5)
        return made["d2"]

    jobs.append(Job("cumulants.matrix_d2", d2_c2m, lambda out: None, count=sum(2**k for k in range(1, 6)),
                    shape="d2_c2m"))
    jobs.append(Job("cumulants.matrix_d2", lambda: moments_to_free_cumulants(made["d2"], 5),
                    lambda out: _compare(out, d2.data, "dim-2 round trip"),
                    count=sum(2**k for k in range(1, 6)), shape="d2_m2c"))

    # dim 3: a scalar variable tensored with the identity, whose cores are
    # the scalar values times the coefficient-product core
    scal = _dense(rng, 4)
    scal_m = oracle.partition_sum(scal, 4, free=True)
    cores = {k: oracle.product_core(3, k) for k in range(1, 5)}
    lift_k = {p: v * cores[len(p)] for p, v in scal.items()}
    lift_m = {p: v * cores[len(p)] for p, v in scal_m.items()}
    d3_k = CumulantTable(order=4, dim=3, data=dict(lift_k))
    d3_m = MomentTable(order=4, dim=3, data=dict(lift_m))
    jobs.append(Job("cumulants.matrix_d3", lambda: free_cumulants_to_moments(d3_k, 4),
                    lambda out: _compare(out, lift_m, "dim-3 cores of a scalar vs scalar moments"),
                    count=sum(2**k for k in range(1, 5)), shape="d3_c2m"))
    jobs.append(Job("cumulants.matrix_d3", lambda: moments_to_free_cumulants(d3_m, 4),
                    lambda out: _compare(out, lift_k, "dim-3 cores of a scalar vs scalar cumulants"),
                    count=sum(2**k for k in range(1, 5)), shape="d3_m2c"))

    # two free copies of one variable: mixed cumulants must vanish
    multi = CumulantTable(order=5, data=_dense(rng, 5))
    jobs.append(Job("cumulants.multivariate",
                    lambda: multivariate_cumulants_from_joint_moments(_FreeFamily(multi, 2), 5),
                    lambda out: _check_multivariate(out, multi),
                    count=sum(4**k for k in range(1, 6))))

    # vanishing-class recognition from moments, every class in both calculi
    for kind, m, recipe in classes.RECIPES:
        _, spec = classes.sample(recipe, rng)
        free_m = MomentTable(order=6, data=oracle.partition_sum(spec, 6, free=True))
        cl_m = MomentTable(order=6, data=oracle.partition_sum(spec, 6, free=False))
        free_tag = FreeClassTag(FREE_NAME.get(kind, kind), m)
        cl_tag = ClassicalClassTag(CLASSICAL_NAME.get(kind, kind), m)
        jobs.append(Job("distributions.classify", lambda t=free_m: classify_free_moments(t, 6),
                        lambda out, w=free_tag: _check_tags(out, w), shape="classify_free"))
        jobs.append(Job("distributions.classify", lambda t=cl_m: classify_classical_moments(t, 6),
                        lambda out, w=cl_tag: _check_tags(out, w), shape="classify_classical"))
    return jobs
