"""Invariance of joint distributions under linear matrix-model actions.

A model u acts on an n-tuple of variables by y_j = sum_i u_{ij} (x) x_i.
The tuple is distributionally invariant when every mixed moment of the
y's, with optional interleaved coefficients, reproduces the corresponding
moment of the x's tensored with the identity of the model's block algebra.
The scan compares both sides an order at a time: the letter (1 or *) of
each word slot is an index, so order k is one tensor with axes (c_1, i_1,
..., c_k, i_k), and the model acts on it slot by slot with u and u* stacked.
It holds one (2n)^k tensor per order; the action and residuals run in
chunks that fix leading letters, within _CHUNK_CELLS cells where one
pattern fits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product

import numpy as np

from .cumulants import (
    EITHER,
    TUPLE_BUDGET,
    CumulantTable,
    _diagonal,
    _free_family_tensor,
    _ordered_coeff_product,
    _times_coeff_product,
    joint_moment_tensor,
    pattern_sort_key,
)
from .distributions import CumulantSpecSingle, sample_spec
from .easy import all_family_tags, class_tags, family_below, governing_family
from .errors import BudgetError, InputMismatchError, OrderBoundError
from .fixtures import witness_for_family
from .partitions import ONE, STAR, StarPattern
from .qgroups import (
    MatrixRep,
    _check_family,
    block_identity_holds,
    check_biunitary,
    operator_norm,
    spectral_norms,
)


# cells of one chunk of an invariance scan: the action's arrays stay this size
_CHUNK_CELLS = 2 ** 18


@dataclass
class FreeIIDJoint:
    """n free copies of one variable, described by its cumulant table.

    The scan reads a scalar table's moments as one tensor per order over
    the words of (letter, index) pairs (order_tensor), built by the free
    first-block recursion and memoised read-only: a word's segments are
    shorter words, so the orders below are all it reuses.  Joints of the
    same law and n may share that memo (_as_joint).  moment_tensor runs the
    per-pattern recursion (cumulants.joint_moment_tensor), for any table.
    """

    table: CumulantTable
    n: int
    _orders: dict = field(default_factory=dict, repr=False)

    @property
    def order(self) -> int:
        return self.table.order

    @property
    def dim(self) -> int:
        return self.table.dim

    def order_tensor(self, k: int) -> np.ndarray:
        """Order-k moments of a scalar table, axes (c_1, i_1, ..., c_k, i_k), c 0 for 1 and 1 for *."""
        if self.n ** k > TUPLE_BUDGET:
            raise BudgetError(f"{self.n}^{k} index words exceed the tuple budget")
        self.table.require_order(k)
        tensor = _free_family_tensor(self.table, self.n, EITHER * k, None, self._orders)
        for built in self._orders.values():
            built.setflags(write=False)
        return tensor

    def moment_tensor(self, k: int, pattern, coeffs=None):
        return joint_moment_tensor(self.table, self.n, k, pattern, coeffs)


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

    def moment_tensor(self, k: int, pattern, coeffs=None):
        letters = StarPattern.coerce(pattern).letters
        if k > self.order:
            raise OrderBoundError(f"order {k} exceeds the tabulated order {self.order}")
        out = np.zeros((self.n,) * k, dtype=complex)
        for word in product(range(1, self.n + 1), repeat=k):
            out[tuple(i - 1 for i in word)] = self.data.get((word, letters), 0.0)
        return out if coeffs is None else _times_coeff_product(out, coeffs)


@lru_cache(maxsize=16)
def _coeff_pair(seed: int) -> tuple:
    """The seed's non-commuting 2x2 pair, drawn once and read-only."""
    rng = np.random.default_rng(seed)
    while True:
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        if operator_norm(a @ b - b @ a) > 1e-3:
            break
    a.setflags(write=False)
    b.setflags(write=False)
    return a, b


def matrix_b_coeffs(k: int, seed: int = 0) -> list:
    """k+1 interleaved 2x2 coefficients cycling the seed's non-commuting pair."""
    pair = _coeff_pair(seed)
    return [pair[t % 2] for t in range(k + 1)]


@dataclass
class InvarianceVerdict:
    invariant: bool
    worst_residual: float
    first_violation: tuple | None
    orders_checked: int
    tol: float


# the last scalar law a spec was scanned as: (its table's content, {n: segment memo})
_last_law: tuple = (None, {})


def _as_joint(joint, n: int):
    """A spec's free i.i.d. joint of n copies; any other joint as it is.

    A scalar law shares the segment memo (its order tensors) of the last
    law scanned, keyed on the table's content, so a spec changed between
    calls gets a fresh one.  Only that law is kept, at every n it was
    scanned: no more than one scan of it already held.  The pair is read
    and replaced whole, so a joint never gets another law's memo.  Matrix
    tables, whose array values make no key, get a memo of their own.
    """
    global _last_law
    if not isinstance(joint, CumulantSpecSingle):
        return joint
    table = joint.to_table()
    if table.dim != 1:
        return FreeIIDJoint(table, n)
    key = tuple(sorted(table.data.items()))
    law = _last_law
    if law[0] != key:
        law = _last_law = (key, {})
    return FreeIIDJoint(table, n, law[1].setdefault(n, {}))


def _order_moments(joint, k: int, coeffs) -> tuple[np.ndarray, float]:
    """Order-k moments with letter axes, (c_1, i_1, ..., c_k, i_k)[, p, q], and a norm factor.

    A scalar free joint's moments carry the coefficient product B outside,
    so each residual is kron(B, D) for the plain one D, of norm |B| |D|.
    Other joints stack moment_tensor over the patterns.
    """
    if isinstance(joint, FreeIIDJoint) and joint.dim == 1:
        E = joint.order_tensor(k)
        return E, 1.0 if coeffs is None else operator_norm(_ordered_coeff_product(coeffs))
    stack = np.stack([np.asarray(joint.moment_tensor(k, d.letters, coeffs), dtype=complex)
                      for d in StarPattern.all_patterns(k)])
    stack = stack.reshape((2,) * k + stack.shape[1:])
    return stack.transpose(*[ax for t in range(k) for ax in (t, k + t)], *range(2 * k, stack.ndim)), 1.0


def _acted(X: np.ndarray, mats: list) -> np.ndarray:
    """The model's action on a chunk X of an order tensor.

    X has axes (c_1, i_1, ..., c_k, i_k)[, p, q]; mats[t] stacks the
    (i, A) x (j, B) matrices of the letters that c_t runs over (u for 1, the
    entrywise adjoint for *).  The word slots are contracted one at a time,
    left to right, each as one matmul batched over the slot's letter axis:
    slot t sums i_t and the chain's open block index against u_{i_t j_t}.
    Output axes: the k letters, the coefficient pair flattened, A_0, the k
    word indices j, A_k.
    """
    k, n = len(mats), X.shape[1]
    sizes, d = X.shape[:2 * k:2], mats[0].shape[-1] // n
    # rows (the rest of the word, the pair), columns (A_0, j_1, A_1)
    Y = np.matmul(X.reshape(sizes[0], n, -1).swapaxes(1, 2), mats[0].reshape(sizes[0], n, -1))
    for t in range(1, k):
        # i_t leaves the rows to meet A_{t-1}; the product puts (j_t, A_t) in its place
        lp, r, c = Y.shape
        r //= sizes[t] * n
        Y = Y.reshape(lp, sizes[t], n, r, c // d, d).transpose(0, 1, 3, 4, 2, 5)
        Y = (Y.reshape(lp, sizes[t], -1, n * d) @ mats[t]).reshape(lp * sizes[t], r, c * n)
    return Y.reshape(sizes + (-1, d) + (n,) * k + (d,))


def _residual_norms(X: np.ndarray, mats: list) -> np.ndarray:
    """Norm of the action minus X (x) I in each cell of the chunk X, axes (c_1..c_k, j_1..j_k).

    X (x) I is subtracted in place on the A_0 = A_k diagonal; a cell's
    residual is the (p d) x (q d) matrix with rows (p, A_0), columns (q, A_k).
    """
    k, n = len(mats), X.shape[1]
    p, q = X.shape[2 * k:] or (1, 1)
    Y = _acted(X, mats)
    sizes, d = Y.shape[:k], Y.shape[-1]
    Y = Y.reshape(-1, p * q, d, n ** k, d)
    E = X.transpose(*range(0, 2 * k, 2), *range(2 * k, X.ndim), *range(1, 2 * k, 2))
    _diagonal(Y, (2, 4))[...] -= E.reshape(-1, p * q, n ** k)
    Y = Y.reshape(-1, p, q, d, n ** k, d).transpose(0, 4, 1, 3, 2, 5)
    return spectral_norms(Y.reshape(-1, n ** k, p * d, q * d)).reshape(sizes + (n,) * k)


def check_invariance(
    joint,
    rep: MatrixRep,
    max_order: int,
    matrix_coeffs: bool = False,
    seed: int = 0,
    tol: float | None = None,
) -> InvarianceVerdict:
    """Compare the acted tuple's moments against the original ones.

    Scans orders 1..max_order, each as one tensor over letters and indices,
    recording the worst residual and the lexicographically first violating
    cell: orders ascending, plain letters before stars, words in 1-based
    lex order.  A chunk fixes as few leading letters as keep it within
    _CHUNK_CELLS cells, or all of them; chunks of zero moments are skipped.
    """
    joint = _as_joint(joint, rep.n)
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

    nd = rep.n * rep.d
    U = np.stack([rep.letter_array(ch).transpose(0, 2, 1, 3).reshape(nd, nd) for ch in (ONE, STAR)])
    worst = 0.0
    first: tuple | None = None
    all_coeffs = matrix_b_coeffs(max_order, seed) if matrix_coeffs else None
    for k in range(1, max_order + 1):
        E, factor = _order_moments(joint, k, None if all_coeffs is None else all_coeffs[:k + 1])
        cells = rep.n ** k * rep.d ** 2 * int(np.prod(E.shape[2 * k:]))
        fixed = next(m for m in range(k + 1) if m == k or cells << (k - m) <= _CHUNK_CELLS)
        for head in product((0, 1), repeat=fixed):
            lead = [slice(c, c + 1) for c in head] + [slice(None)] * (k - fixed)
            X = E[tuple(x for s in lead for x in (s, slice(None)))]
            if not X.any():
                continue
            res = _residual_norms(X, [U[s] for s in lead]) * factor
            peak = float(res.max())
            worst = max(worst, peak)
            if first is None and peak > tol:
                bad = np.argwhere(res > tol)[0]
                letters = "".join(STAR if c else ONE for c in np.add(head + (0,) * (k - fixed), bad[:k]))
                first = (k, letters, tuple(int(j) + 1 for j in bad[k:]), float(res[tuple(bad)]))
    return InvarianceVerdict(
        invariant=first is None,
        worst_residual=worst,
        first_violation=first,
        orders_checked=max_order,
        tol=tol,
    )


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
        key=pattern_sort_key,
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


# the probe grid: every free class and every family, with the modulus 3
_PROBE_CLASSES = tuple(class_tags(3))
_PROBE_FAMILIES = tuple(all_family_tags(3))


def theorem1_probe(n: int = 2, max_order: int = 5, seed: int = 0) -> dict:
    """Cross every input class with every family's witness model.

    Expected behaviour per cell: the class distribution stays invariant
    under a witness exactly when the witness satisfies the class's
    governing family relations.  Degenerate small-n witnesses (ones that
    land in more families than their own) are noted, not special-cased.
    """
    witnesses = {fam: witness_for_family(fam, n) for fam in _PROBE_FAMILIES}
    # each witness's family checks run once, on one biunitarity check; every
    # cell reads its expected verdict from the witness's profile
    satisfied, profiles, notes = {}, {}, []
    for fam, rep in witnesses.items():
        base = check_biunitary(rep)
        satisfied[fam] = [g for g in _PROBE_FAMILIES if _check_family(rep, g, base).holds]
        profiles[fam.label()] = [g.label() for g in satisfied[fam]]
        extra = [g.label() for g in satisfied[fam] if not family_below(fam, g)]
        if extra:
            notes.append(
                f"witness for {fam.label()} at n={n} also satisfies "
                + ", ".join(extra)
            )
    grid: dict = {}
    mismatches = []
    for ctag in _PROBE_CLASSES:
        spec = sample_spec(ctag, seed=seed)
        if max_order > spec.order:
            raise OrderBoundError(
                f"max_order {max_order} exceeds sample order {spec.order}"
            )
        governing = governing_family(ctag)
        joint = _as_joint(spec, n)
        row: dict = {}
        for fam, rep in witnesses.items():
            expected = governing in satisfied[fam]
            actual = check_invariance(joint, rep, max_order).invariant
            row[fam.label()] = {"expected": expected, "actual": actual}
            if expected != actual:
                mismatches.append((ctag.label(), fam.label()))
        grid[ctag.label()] = row
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
