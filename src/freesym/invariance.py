"""Invariance of joint distributions under linear matrix-model actions.

A model u acts on an n-tuple of variables by y_j = sum_i u_{ij} (x) x_i.
The tuple is distributionally invariant when every mixed moment of the
y's, with optional interleaved coefficients, reproduces the corresponding
moment of the x's tensored with the identity of the model's block algebra.
The checks here compare both sides order by order, entirely numerically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .cumulants import (
    CumulantTable,
    _joint_moment_tensor,
    _times_coeff_product,
    pattern_sort_key,
)
from .distributions import CumulantSpecSingle, FreeClassTag, sample_spec
from .errors import InputMismatchError, OrderBoundError
from .fixtures import witness_for_family
from .partitions import StarPattern
from .qgroups import (
    Check,
    FamilyTag,
    MatrixRep,
    block_identity_holds,
    check_family,
    family_below,
    operator_norm,
    spectral_norms,
)


@dataclass
class FreeIIDJoint:
    """n free copies of one variable, described by its cumulant table.

    Moment tensors come from the free first-block recursion
    (cumulants.joint_moment_tensor).  The joint keeps that recursion's memo
    of segment tensors, keyed by letters and coefficients, so every order
    and pattern of a scan reuses the shorter words' tensors.  With a
    cache_key the finished tensor is cached per (order, pattern, cache_key),
    since the same tensors get contracted against many different models;
    without one each call returns a fresh array.
    """

    table: CumulantTable
    n: int
    _cache: dict = field(default_factory=dict, repr=False)
    _memo: dict = field(default_factory=dict, repr=False)

    @property
    def order(self) -> int:
        return self.table.order

    @property
    def dim(self) -> int:
        return self.table.dim

    def moment_tensor(self, k: int, pattern, coeffs=None, cache_key=None):
        letters = StarPattern.coerce(pattern).letters
        if cache_key is not None:
            key = (k, letters, cache_key)
            if key not in self._cache:
                self._cache[key] = self.moment_tensor(k, letters, coeffs)
            return self._cache[key]
        return _joint_moment_tensor(self.table, self.n, k, letters, coeffs, self._memo)


@dataclass
class TableJoint:
    """Explicitly tabulated joint moments for an n-tuple, scalar-valued.

    data maps (word, letters) to a complex moment, with 1-based index
    words; missing pairs count as zero.
    """

    n: int
    order: int
    data: dict = field(default_factory=dict)
    dim: int = 1

    def __post_init__(self) -> None:
        if self.dim != 1:
            raise InputMismatchError("tabulated joints are scalar-valued only")
        self.data = {
            (tuple(int(i) for i in word), StarPattern.coerce(p).letters): complex(v)
            for (word, p), v in self.data.items()
        }

    def moment_tensor(self, k: int, pattern, coeffs=None, cache_key=None):
        letters = StarPattern.coerce(pattern).letters
        if k > self.order:
            raise OrderBoundError(f"order {k} exceeds the tabulated order {self.order}")
        out = np.zeros((self.n,) * k, dtype=complex)
        for word in product(range(1, self.n + 1), repeat=k):
            out[tuple(i - 1 for i in word)] = self.data.get((word, letters), 0.0)
        return out if coeffs is None else _times_coeff_product(out, coeffs)


def matrix_b_coeffs(k: int, seed: int = 0) -> list:
    """k+1 interleaved 2x2 coefficients cycling a non-commuting pair."""
    rng = np.random.default_rng(seed)
    while True:
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        if operator_norm(a @ b - b @ a) > 1e-3:
            break
    pair = (a, b)
    return [pair[t % 2] for t in range(k + 1)]


@dataclass
class InvarianceVerdict:
    invariant: bool
    worst_residual: float
    first_violation: tuple | None
    orders_checked: int
    tol: float


def _as_joint(joint, rep: MatrixRep):
    if isinstance(joint, CumulantSpecSingle):
        return FreeIIDJoint(joint.to_table(), rep.n)
    return joint


def _action_lhs(E: np.ndarray, rep: MatrixRep, letters: str) -> np.ndarray:
    """Contract a moment tensor with the model's entry chains.

    Output axes: k word indices, then the coefficient pair when E carries
    one, then the block pair of the chained entries.  The word slots are
    contracted one at a time, left to right, each as one matrix product:
    slot t sums E's index i_t and the chain's open block index against
    u_{i_t j_t}, seen as an (i, A) x (j, B) matrix.
    """
    n, d, k = rep.n, rep.d, len(letters)
    mats = {ch: rep.letter_array(ch).transpose(0, 2, 1, 3).reshape(n * d, n * d)
            for ch in set(letters)}
    # rows (i_2..i_k, [Y, Z]), columns (j_1, A_0, A_1)
    T = E.reshape(n, -1).T @ rep.letter_array(letters[0]).reshape(n, -1)
    for ch in letters[1:]:
        # rows lose i_t; columns gain j_t and swap A_{t-1} for A_t
        T = T.reshape(n, -1, d).transpose(1, 0, 2).reshape(-1, n * d) @ mats[ch]
    # ([Y, Z], j_1, A_0, j_2..j_k, A_k) -> (j_1..j_k, [Y, Z], A_0, A_k)
    pre = E.ndim - k
    T = T.reshape(E.shape[k:] + (n, d) + (n,) * (k - 1) + (d,))
    return T.transpose(pre, *range(pre + 2, pre + k + 1), *range(pre), pre + 1, pre + k + 1)


def _residual_tensor(lhs: np.ndarray, E: np.ndarray, k: int, d: int) -> np.ndarray:
    rhs = np.multiply.outer(E, np.eye(d))
    diff = lhs - rhs
    if diff.ndim == k + 4:
        # (..., p, q, a, b) -> (..., p, a, q, b), then flatten the pairs
        diff = np.moveaxis(diff, -3, -2)
        p = diff.shape[-4]
        diff = diff.reshape(diff.shape[:k] + (p * d, p * d))
    return spectral_norms(diff)


def check_invariance(
    joint,
    rep: MatrixRep,
    max_order: int,
    matrix_coeffs: bool = False,
    seed: int = 0,
    tol: float | None = None,
) -> InvarianceVerdict:
    """Compare the acted tuple's moments against the original ones.

    Scans orders 1..max_order and every pattern, recording the worst
    residual and the lexicographically first violating cell: orders
    ascending, plain letters before stars, words in 1-based lex order.
    """
    joint = _as_joint(joint, rep)
    if joint.n != rep.n:
        raise InputMismatchError(
            f"joint distribution has n={joint.n} but the model has n={rep.n}"
        )
    if max_order < 1:
        raise InputMismatchError("max_order must be at least 1")
    if max_order > joint.order:
        raise OrderBoundError(
            f"max_order {max_order} exceeds the joint's order {joint.order}"
        )
    if tol is None:
        tol = rep.tol

    worst = 0.0
    first: tuple | None = None
    for k in range(1, max_order + 1):
        coeffs = matrix_b_coeffs(k, seed) if matrix_coeffs else None
        ckey = ("mb", seed) if matrix_coeffs else "plain"
        for pat in StarPattern.all_patterns(k):
            E = joint.moment_tensor(k, pat.letters, coeffs, cache_key=ckey)
            lhs = _action_lhs(np.asarray(E, dtype=complex), rep, pat.letters)
            res = _residual_tensor(lhs, np.asarray(E, dtype=complex), k, rep.d)
            peak = float(res.max())
            worst = max(worst, peak)
            if first is None and peak > tol:
                bad = np.argwhere(res > tol)[0]
                word = tuple(int(j) + 1 for j in bad)
                first = (k, pat.letters, word, float(res[tuple(bad)]))
    return InvarianceVerdict(
        invariant=first is None,
        worst_residual=worst,
        first_violation=first,
        orders_checked=max_order,
        tol=tol,
    )


def check_2_exchangeable(joint, tol: float = 1e-9, coeffs=None) -> Check:
    """First and second joint moments depend only on the equality pattern.

    Singles must agree across positions; pairs must agree within the
    diagonal bucket and within the off-diagonal bucket, which compares
    the two orders of every pair as well.
    """
    details = {}
    worst = 0.0
    for letter in ("1", "*"):
        T = np.asarray(joint.moment_tensor(1, letter), dtype=complex)
        spread = float(np.abs(T - T[0]).max())
        details[f"singles_{letter}"] = spread
        worst = max(worst, spread)
    n = joint.n
    for letters in ("11", "1*", "*1", "**"):
        pair_coeffs = None if coeffs is None else [1.0, coeffs, 1.0]
        T = np.asarray(joint.moment_tensor(2, letters, pair_coeffs), dtype=complex)
        diag = np.array([T[i, i] for i in range(n)])
        off = np.array([T[i, j] for i in range(n) for j in range(n) if i != j])
        spread = float(np.abs(diag - diag[0]).max())
        if off.size:
            spread = max(spread, float(np.abs(off - off[0]).max()))
        details[f"pairs_{letters}"] = spread
        worst = max(worst, spread)
    return Check(holds=worst <= tol, residual=worst, details=details)


def cumulant_identity_extractor(
    spec: CumulantSpecSingle,
    rep: MatrixRep,
    max_order: int | None = None,
    cross_validate: bool = True,
    tol: float | None = None,
) -> dict:
    """Column identities the model must satisfy for this input class.

    Every pattern carrying a nonzero cumulant forces the summed entry
    chain at each column to be the identity; a failed identity predicts
    a moment violation at that order or below.  The prediction is then
    cross-checked against the direct scan when asked.
    """
    if max_order is None:
        max_order = spec.order
    if max_order > spec.order:
        raise OrderBoundError(
            f"max_order {max_order} exceeds the input order {spec.order}"
        )
    table = spec.to_table()
    patterns = sorted(
        {
            letters
            for letters, value in table.data.items()
            if len(letters) <= max_order and np.any(np.abs(value) > 0)
        },
        key=lambda s: (len(s), pattern_sort_key(s)),
    )
    failed = []
    for letters in patterns:
        for j in range(rep.n):
            chk = block_identity_holds(rep, letters, j)
            if tol is not None:
                chk.holds = chk.residual <= tol
            if not chk.holds:
                failed.append(
                    {"pattern": letters, "column": j, "residual": chk.residual}
                )
    out = {
        "predicted_invariant": not failed,
        "failed_identities": failed,
        "patterns_checked": patterns,
    }
    if cross_validate:
        verdict = check_invariance(spec, rep, max_order, tol=tol)
        out["invariant"] = verdict.invariant
        out["agree"] = verdict.invariant == out["predicted_invariant"]
        out["verdict"] = verdict
    return out


# which relation family governs each distribution class
CLASS_TO_FAMILY = {
    "SYMMETRIC": FamilyTag("H_S_PLUS"),
    "ORTHOGONAL": FamilyTag("O_PLUS"),
    "SEMICIRCULAR": FamilyTag("O_PLUS"),
    "SHIFTED_ORTHOGONAL": FamilyTag("B_S_PLUS"),
    "M_UNITARY": None,  # modulus-dependent, resolved per tag
    "FREE_UNITARY": FamilyTag("H_0_PLUS"),
    "R_DIAGONAL": FamilyTag("H_PRIME_PLUS"),
    "CIRCULAR": FamilyTag("U_PLUS"),
    "SHIFTED_CIRCULAR": FamilyTag("B_PLUS"),
}

_PROBE_CLASSES = (
    FreeClassTag("SYMMETRIC"),
    FreeClassTag("ORTHOGONAL"),
    FreeClassTag("SEMICIRCULAR"),
    FreeClassTag("SHIFTED_ORTHOGONAL"),
    FreeClassTag("M_UNITARY", 3),
    FreeClassTag("FREE_UNITARY"),
    FreeClassTag("R_DIAGONAL"),
    FreeClassTag("CIRCULAR"),
    FreeClassTag("SHIFTED_CIRCULAR"),
)

_PROBE_FAMILIES = (
    FamilyTag("S_PLUS"),
    FamilyTag("B_S_PLUS"),
    FamilyTag("H_S_PLUS"),
    FamilyTag("B_PLUS"),
    FamilyTag("O_PLUS"),
    FamilyTag("H_M_PLUS", 3),
    FamilyTag("H_0_PLUS"),
    FamilyTag("H_PRIME_PLUS"),
    FamilyTag("U_PLUS"),
)


def governing_family(tag: FreeClassTag) -> FamilyTag:
    if tag.kind == "M_UNITARY":
        return FamilyTag("H_M_PLUS", tag.m)
    fam = CLASS_TO_FAMILY.get(tag.kind)
    if fam is None:
        raise InputMismatchError(f"no governing family for {tag!r}")
    return fam


def theorem1_probe(n: int = 2, max_order: int = 5, seed: int = 0) -> dict:
    """Cross every input class with every family's witness model.

    Expected behaviour per cell: the class distribution stays invariant
    under a witness exactly when the witness satisfies the class's
    governing family relations.  Degenerate small-n witnesses (ones that
    land in more families than their own) are noted, not special-cased.
    """
    witnesses = {fam: witness_for_family(fam, n) for fam in _PROBE_FAMILIES}
    grid: dict = {}
    mismatches = []
    for ctag in _PROBE_CLASSES:
        spec = sample_spec(ctag, seed=seed)
        if max_order > spec.order:
            raise OrderBoundError(
                f"max_order {max_order} exceeds sample order {spec.order}"
            )
        governing = governing_family(ctag)
        joint = None
        row: dict = {}
        for fam, rep in witnesses.items():
            if joint is None or joint.n != rep.n:
                joint = FreeIIDJoint(spec.to_table(), rep.n)
            expected = check_family(rep, governing).holds
            actual = check_invariance(joint, rep, max_order).invariant
            row[fam.label()] = {"expected": expected, "actual": actual}
            if expected != actual:
                mismatches.append((ctag.label(), fam.label()))
        grid[ctag.label()] = row

    profiles = {}
    notes = []
    for fam, rep in witnesses.items():
        satisfied = [g.label() for g in _PROBE_FAMILIES if check_family(rep, g).holds]
        profiles[fam.label()] = satisfied
        expected_cone = {
            g.label()
            for g in _PROBE_FAMILIES
            if _below_or_equal(fam, g)
        }
        extra = [s for s in satisfied if s not in expected_cone]
        if extra:
            notes.append(
                f"witness for {fam.label()} at n={n} also satisfies "
                + ", ".join(extra)
            )
    return {
        "n": n,
        "max_order": max_order,
        "seed": seed,
        "grid": grid,
        "mismatches": mismatches,
        "cells": sum(len(row) for row in grid.values()),
        "witness_profiles": profiles,
        "notes": notes,
    }


def _below_or_equal(a: FamilyTag, b: FamilyTag) -> bool:
    return a == b or family_below(a, b)
