"""Invariance of joint distributions under linear matrix-model actions.

A model u acts on an n-tuple of variables by y_j = sum_i u_{ij} (x) x_i.
The tuple is distributionally invariant when every mixed moment of the
y's, with optional interleaved coefficients, reproduces the corresponding
moment of the x's tensored with the identity of the model's block algebra.
The scan compares both sides an order at a time: the letter (1 or *) of
each word slot is an index, so order k is one tensor with axes (c_1, i_1,
..., c_k, i_k), and the model acts on it one matmul per word slot.  It
holds one (2n)^k tensor per order.  A chunk fixes as few leading letters
as keep it within _CHUNK_CELLS cells (all of them where one pattern is
larger): a fixed slot acts with its letter's u or u*, an open one with
diag(u, u*) on (letter, index).  2x2 residuals take their norm in closed
form.  A residual is judged relative to its order's moments, not the law's units.

A joint gives the scan its n and order, its order rule (require_order: its
kind's order bound and the one cumulants.TUPLE_BUDGET check, before any
tensor is built) and, per order, its moments and their scale
(order_moments), or nothing for an order it holds no entry at; the scan
reads nothing else of it.  The model gives the one tolerance.  Joints, like
specs, tables and models, are frozen once checked, and a spec is scanned
through its one table (to_table).  A scalar law's tensors are memoised on
its table (cumulants._PatternTable._memo) in the law's field, float64 when
its table is real, each beside its scale once a scan has read it, and go
when the table goes; interleaved coefficients only scale its residual
norms.  The model's letter matrices u, u* and diag(u, u*) are derived once
per model (_scan_letters, through qgroups._derived), real when its entries
are, so a real law under a real model is scanned in real matmuls.  A
matrix-valued table's tensor carries the coefficients, (2n)^k p^2 complex
entries built afresh per order.  The chunk size is qgroups' _CHUNK_CELLS.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from types import MappingProxyType

import numpy as np

from .cumulants import (EITHER, MAX_SCALAR_ORDER, CumulantTable, _family_tensor, _finite, _ordered_coeff_product,
                        _require_budget, _require_tensor_call, _scaled_family_tensor, _tensor_scale,
                        _times_coeff_product)
from .distributions import CumulantSpecSingle, _nonzero_patterns, sample_spec
from .easy import all_family_tags, class_tags, family_below, governing_family
from .errors import InputMismatchError, OrderBoundError
from .partitions import ONE, STAR, StarPattern
from .qgroups import (_CHUNK_CELLS, MatrixRep, _column_residuals, _derived, _flat, lattice_position, operator_norm,
                      spectral_norms)


@dataclass(frozen=True)
class FreeIIDJoint:
    """n free copies of one variable, described by its cumulant table.

    The scan reads its moments as one tensor per order over the words of
    (letter, index) pairs (order_tensor), built by the free first-block
    recursion.  A scalar law's tensors are memoised read-only in its
    table's memo, shared by every joint of that table and n and dropped
    with the table; a table built again from equal data builds its own.
    Its word segments are shorter words, so the orders below are all it
    reuses, and its tensors are in its field, float64 for a real table.
    """

    table: CumulantTable
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InputMismatchError(f"a joint needs n >= 1 variables, got {self.n}")

    @property
    def order(self) -> int:
        return self.table.order

    def require_order(self, k: int) -> None:
        """Refuse a scan to order k past the table's bounds (CumulantTable.require_order) or the tuple budget."""
        self.table.require_order(k)
        _require_budget(self.n, k)

    def order_tensor(self, k: int, coeffs=None) -> np.ndarray:
        """Order-k moments, axes (c_1, i_1, ..., c_k, i_k)[, p, q], c 0 for 1 and 1 for *.

        coeffs is the interleaved list b_0..b_k, identity when omitted.
        Without them a scalar law's tensor is its table memo's own, read-only
        and in the law's field; with them, and for a matrix table, it is
        complex and the caller's.
        """
        return _family_tensor(self.table, self.n, EITHER * k, coeffs)

    def order_moments(self, k: int, seed: int | None = None) -> tuple[np.ndarray, float]:
        """The scan's order-k moments and their _tensor_scale.  A matrix table's carry matrix_b_coeffs(k, seed,
        dim) when a seed is given; a scalar law's carry none and come with their scale from its table's memo."""
        if self.table.dim == 1:
            return _scaled_family_tensor(self.table, self.n, EITHER * k)
        E = self.order_tensor(k, None if seed is None else matrix_b_coeffs(k, seed, self.table.dim))
        return E, _tensor_scale(E)


@dataclass(frozen=True)
class TableJoint:
    """Explicitly tabulated joint moments for an n-tuple, scalar-valued.

    data maps (word, letters) to a complex moment, with 1-based index
    words of length 1..order; missing pairs count as zero.  Checked once,
    here, it becomes a read-only mapping.
    """

    n: int
    order: int
    data: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InputMismatchError(f"a joint needs n >= 1 variables, got {self.n}")
        data = {}
        for (word, p), v in self.data.items():
            word, letters = tuple(int(i) for i in word), StarPattern.coerce(p).letters
            if len(word) != len(letters) or not 1 <= len(word) <= self.order or not all(1 <= i <= self.n for i in word):
                raise InputMismatchError(f"entry {word}, {letters!r} needs one index in 1..{self.n} "
                                         f"per letter and 1..{self.order} letters")
            data[word, letters] = complex(v)
            if not _finite(data[word, letters]):
                raise InputMismatchError(f"entry {word}, {letters!r} is not finite")
        object.__setattr__(self, "data", MappingProxyType(data))

    def require_order(self, k: int) -> None:
        """Refuse a scan to order k past the scalar bound, or whose last order with entries is over the tuple budget."""
        if k > MAX_SCALAR_ORDER:
            raise OrderBoundError(f"order {k} exceeds the dim-1 bound {MAX_SCALAR_ORDER}")
        _require_budget(self.n, max((len(word) for word, _ in self.data if len(word) <= k), default=0))

    def order_tensor(self, k: int, coeffs=None) -> np.ndarray:
        """Order-k moments laid out as FreeIIDJoint.order_tensor's."""
        if k > self.order:
            raise OrderBoundError(f"order {k} exceeds the tabulated order {self.order}")
        _require_tensor_call(k, coeffs)
        _require_budget(self.n, k)
        out = np.zeros((2, self.n) * k, dtype=complex)
        for (word, letters), v in self.data.items():
            if len(word) == k:
                out[tuple(x for ch, i in zip(letters, word) for x in (int(ch == STAR), i - 1))] = v
        return out if coeffs is None else _times_coeff_product(out, coeffs)

    def order_moments(self, k: int, seed: int | None = None) -> tuple[np.ndarray, float] | None:
        """The scan's order-k moments, scalar so a seed adds no coefficients, and their _tensor_scale; None,
        unbuilt, for an order with no entries."""
        if all(len(word) != k for word, _ in self.data):
            return None
        E = self.order_tensor(k)
        return E, _tensor_scale(E)


@lru_cache(maxsize=16)
def _coeff_pair(seed: int, dim: int) -> tuple:
    """The seed's non-commuting dim x dim pair, drawn once and read-only.

    The entries are random.Random(seed).gauss(0.0, 1.0) draws, in the
    order real parts of a, imaginary parts of a, then those of b, each
    row-major; a commuting pair is drawn again from the same stream.  The
    stream is Python's, not numpy's, so no scan loads numpy.random; a seed
    gives another pair than it did under numpy's generator, and the same
    verdicts.
    """
    rng = random.Random(seed)

    def draw() -> np.ndarray:
        re = [rng.gauss(0.0, 1.0) for _ in range(dim * dim)]
        im = [rng.gauss(0.0, 1.0) for _ in range(dim * dim)]
        return (np.array(re) + 1j * np.array(im)).reshape(dim, dim)

    while True:
        a, b = draw(), draw()
        if operator_norm(a @ b - b @ a) > 1e-3:
            break
    a.setflags(write=False)
    b.setflags(write=False)
    return a, b


def matrix_b_coeffs(k: int, seed: int = 0, dim: int = 2) -> list:
    """k+1 interleaved dim x dim coefficients cycling the seed's non-commuting pair.

    A scan takes dim from a matrix-valued table, 2 for a scalar one.  The
    seed is a nonnegative int, and dim at least 2: 1 x 1 matrices commute.
    The pair is drawn from random.Random(seed) (_coeff_pair).
    """
    if seed < 0:
        raise InputMismatchError(f"seed must be nonnegative, got {seed}")
    if dim < 2:
        raise InputMismatchError(f"coefficient dim must be at least 2 for a non-commuting pair, got {dim}")
    pair = _coeff_pair(seed, dim)
    return [pair[t % 2] for t in range(k + 1)]


@lru_cache(maxsize=64)
def _coeff_norm(seed: int, k: int, dim: int) -> float:
    """Norm of the ordered product of matrix_b_coeffs(k, seed, dim)."""
    return operator_norm(_ordered_coeff_product(matrix_b_coeffs(k, seed, dim)))


@dataclass
class InvarianceVerdict:
    invariant: bool
    worst_residual: float
    first_violation: tuple | None
    orders_checked: int
    tol: float


def _scan_letters(rep: MatrixRep) -> tuple:
    """The scan's letter matrices: u, its entrywise adjoint (as _flat) and diag(u, adjoint) on (letter, index).

    Real when every entry of u is, so a real law's scan under the model runs
    in real matmuls.  Kept read-only in the model's memo (qgroups._derived).
    """
    U = [_flat(rep.letter_array(ch)) for ch in (ONE, STAR)]
    if not rep.entries.imag.any():
        U = [np.ascontiguousarray(u.real) for u in U]
    nd = len(U[0])
    both = np.zeros((2, nd, 2, nd), dtype=U[0].dtype)
    both[0, :, 0], both[1, :, 1] = U
    mats = (*U, both.reshape(2 * nd, 2 * nd))
    for mat in mats:
        mat.flags.writeable = False
    return mats


def _acted(X: np.ndarray, mats: list) -> np.ndarray:
    """The model's action on a chunk X of an order tensor, one matmul per word slot.

    X has axes (i_1, ..., i_k)[, p, q].  mats[t] is the (i, A) x (j, B)
    matrix of slot t: u for the letter 1, its entrywise adjoint for *, or
    diag(u, entrywise adjoint) when the slot's letter is left open, i_t
    then running over (letter, index).  The slots are contracted in turn:
    slot t takes i_t off the front of the rows to sit by the chain's open
    block index A_{t-1} at their end (a transposed view for d = 1, one copy
    for d > 1), and its product puts (j_t, A_t) on the end, so after k
    slots the word is back in order.  Output axes: the pair, A_0, j_1, ...,
    j_k, A_k.
    """
    k, m = len(mats), X.shape[0]
    d = mats[0].shape[0] // m
    Y = X.reshape(m, -1).T @ mats[0].reshape(m, -1)
    for t in range(1, k):
        m = X.shape[t]
        Y = Y.reshape(m, -1, d).swapaxes(0, 1).reshape(-1, m * d) @ mats[t]
    return Y.reshape(X.shape[k:] + (d,) + X.shape[:k] + (d,))


def _residual_norms(X: np.ndarray, mats: list) -> np.ndarray:
    """Norm of the action minus X (x) I in each cell of the chunk X, axes (i_1..i_k).

    X (x) I is subtracted in place on the A_0 = A_k diagonal; a cell's
    residual is the (p d) x (q d) matrix with rows (p, A_0), columns (q, A_k).
    """
    k = len(mats)
    p, q = X.shape[k:] or (1, 1)
    Y = _acted(X, mats)
    d = Y.shape[-1]
    Y = Y.reshape(p, q, d, -1, d)
    E = X.reshape(-1, p, q).transpose(1, 2, 0)
    for a in range(d):
        Y[:, :, a, :, a] -= E
    return spectral_norms(Y.transpose(3, 0, 2, 1, 4).reshape(-1, p * d, q * d)).reshape(X.shape[:k])


def check_invariance(joint, rep: MatrixRep, max_order: int, matrix_coeffs: bool = False,
                     seed: int = 0) -> InvarianceVerdict:
    """Compare the acted tuple's moments against the original ones.

    Scans orders 1..max_order in chunks (module docstring), recording the
    worst residual and the lexicographically first violating cell: orders
    ascending, plain letters before stars, words in 1-based lex order.
    Orders and chunks of zero moments are skipped.  A cell violates above
    the model's tol times its order's scale: the largest real or imaginary
    part of its moments, times the coefficient norm scalar moments' residuals
    carry.  The joint refuses an order it cannot give before any tensor is
    built (require_order), then gives each order's moments and scale
    (order_moments).  A spec is scanned as n free copies of its law, through
    the table it expands once (CumulantSpecSingle.to_table).
    """
    if isinstance(joint, CumulantSpecSingle):
        joint = FreeIIDJoint(joint.to_table(), rep.n)
    if joint.n != rep.n:
        raise InputMismatchError(f"joint distribution has n={joint.n} but the model has n={rep.n}")
    if max_order < 1:
        raise InputMismatchError("max_order must be at least 1")
    if max_order > joint.order:
        raise OrderBoundError(f"max_order {max_order} exceeds the joint's order {joint.order}")
    joint.require_order(max_order)

    n = rep.n
    *U, both = _derived(rep, "scan letters", _scan_letters)
    worst = 0.0
    first: tuple | None = None
    for k in range(1, max_order + 1):
        moments = joint.order_moments(k, seed if matrix_coeffs else None)
        if moments is None:  # an order of exact zeros, its tensor never built
            continue
        E, scale = moments
        # scalar moments carry the coefficient product B outside: each residual is kron(B, D), of norm |B| |D|
        factor = _coeff_norm(seed, k, 2) if matrix_coeffs and E.ndim == 2 * k else 1.0
        if not _finite(scale):  # inf or NaN moments: no residual could be judged against them
            raise InputMismatchError(f"order {k} moments are not finite")
        if not scale:  # an order of exact zeros
            continue
        limit = rep.tol * factor * scale
        cells = E.size * rep.d ** 2
        fixed = next(m for m in range(k + 1) if m == k or cells >> m <= _CHUNK_CELLS)
        for head in product((0, 1), repeat=fixed):
            X = E[tuple(x for c in head for x in (c, slice(None)))]
            X = X.reshape((n,) * fixed + (2 * n,) * (k - fixed) + E.shape[2 * k:])
            if fixed and not X.any():  # a chunk of exact zeros
                continue
            res = _residual_norms(X, [U[c] for c in head] + [both] * (k - fixed))
            if factor != 1:
                res *= factor
            peak = float(res.max())
            worst = max(worst, peak)
            if first is None and peak > limit:
                # cells (c_1, j_1, ..., c_k, j_k) with the letters put first
                res = res.reshape([x for m in res.shape for x in (m // n, n)])
                res = res.transpose(*range(0, 2 * k, 2), *range(1, 2 * k, 2))
                bad = np.unravel_index(np.argmax(res > limit), res.shape)
                letters = "".join(STAR if c else ONE for c in np.add(head + (0,) * (k - fixed), bad[:k]))
                first = (k, letters, tuple(int(j) + 1 for j in bad[k:]), float(res[bad]))
    return InvarianceVerdict(invariant=first is None, worst_residual=worst, first_violation=first,
                             orders_checked=max_order, tol=rep.tol)


def cumulant_identity_extractor(spec: CumulantSpecSingle, rep: MatrixRep, max_order: int | None = None,
                                cross_validate: bool = True) -> dict:
    """Column identities the model must satisfy for this input class.

    Every pattern carrying a nonzero cumulant forces the summed entry
    chain at each column to be the identity; a failed identity (residual
    over the model's tol) predicts a moment violation at that order or
    below.  The prediction is then cross-checked against the direct scan,
    at the same tol, when asked.
    """
    if max_order is None:
        max_order = spec.order
    if max_order > spec.order:
        raise OrderBoundError(f"max_order {max_order} exceeds the input order {spec.order}")
    table = spec.to_table()
    patterns = [d.letters for d in _nonzero_patterns(table) if len(d) <= max_order]
    failed = []
    for letters in patterns:
        residuals = _column_residuals(rep, letters)
        failed.extend(
            {"pattern": letters, "column": int(j), "residual": float(residuals[j])}
            for j in np.flatnonzero(residuals > rep.tol)
        )
    out = {"predicted_invariant": not failed, "failed_identities": failed, "patterns_checked": patterns}
    if cross_validate:
        verdict = check_invariance(FreeIIDJoint(table, rep.n), rep, max_order)
        out["invariant"] = verdict.invariant
        out["agree"] = verdict.invariant == out["predicted_invariant"]
        out["verdict"] = verdict
    return out


# the probe grid: every free class and every family, with the modulus 3
_PROBE_CLASSES = tuple(class_tags(3))
_PROBE_FAMILIES = tuple(all_family_tags(3))


def theorem1_probe(n: int = 2, max_order: int = 5, seed: int = 0) -> dict:
    """Cross every input class with every family's witness model, n 2 or 3.

    Expected behaviour per cell: the class distribution stays invariant
    under a witness exactly when the witness satisfies the class's
    governing family relations.  A witness's profile is its scan by
    qgroups.lattice_position(rep, 3), whose families are _PROBE_FAMILIES in
    order.  Degenerate small-n witnesses (ones that land in more families
    than their own) are noted, not special-cased.
    """
    if n not in (2, 3):
        raise InputMismatchError(f"n must be 2 or 3, the sizes with a bistochastic orthogonal witness, got {n}")
    from .fixtures import witness_for_family  # the witnesses only the probe needs

    witnesses = {fam: witness_for_family(fam, n) for fam in _PROBE_FAMILIES}
    # each witness is scanned once; every cell reads its expected verdict
    # from the witness's profile
    satisfied, profiles, notes = {}, {}, []
    for fam, rep in witnesses.items():
        results = lattice_position(rep, 3)["results"]
        satisfied[fam] = [g for g, chk in results.items() if chk.holds]
        profiles[fam.label()] = [g.label() for g in satisfied[fam]]
        extra = [g.label() for g in satisfied[fam] if not family_below(fam, g)]
        if extra:
            notes.append(f"witness for {fam.label()} at n={n} also satisfies " + ", ".join(extra))
    grid: dict = {}
    mismatches = []
    for ctag in _PROBE_CLASSES:
        spec = sample_spec(ctag, seed=seed)
        if max_order > spec.order:
            raise OrderBoundError(f"max_order {max_order} exceeds sample order {spec.order}")
        governing = governing_family(ctag)
        joint = FreeIIDJoint(spec.to_table(), n)
        row: dict = {}
        for fam, rep in witnesses.items():
            expected = governing in satisfied[fam]
            actual = check_invariance(joint, rep, max_order).invariant
            row[fam.label()] = {"expected": expected, "actual": actual}
            if expected != actual:
                mismatches.append((ctag.label(), fam.label()))
        grid[ctag.label()] = row
    return {"n": n, "max_order": max_order, "seed": seed, "grid": grid, "mismatches": mismatches,
            "cells": sum(len(row) for row in grid.values()), "witness_profiles": profiles, "notes": notes}
