"""Numerical relation checks for matrix models of the nine symmetry families.

A model assigns each generator a d x d complex matrix.  Family membership is
decided by residuals of the universal relations: delta-type summation
identities per star pattern, sum conditions, projection conditions, and
biunitarity.  Everything is tolerance-based; the default scale is 1e-9 on
unit-norm matrices.

A delta identity for a pattern of length k has one d x d entry per index
tuple (i_1, ..., i_k).  For d > 1 all n^k entries are formed by one einsum
chain, so n^k counts against TUPLE_BUDGET.  For d = 1 the entries commute,
so an entry depends only on the multiset of indices in the pattern's
1-slots and the multiset in its *-slots: the check runs over nondecreasing
tuples of each letter class, C(n+p-1, p) * C(n+q-1, q) of them for p 1-slots
and q *-slots, and that count is what meets the budget.  Each side's
products over the summed row index form an (n, M) array, one matmul gives
the whole residual table, and the work runs in chunks of at most
_CHUNK_CELLS cells.

lattice_position checks a model against every family and closes the
satisfied set with the easy table's meet (easy.family_meet): the largest
family below every satisfied one, which is the intersection of those
groups.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .cumulants import TUPLE_BUDGET, pattern_sort_key
from .easy import (  # FamilyTag, family_below and all_family_tags are also this module's API
    M_MAX_DEFAULT,
    FamilyTag,
    all_family_tags,
    family_below,
    family_meet,
    relations,
)
from .errors import BudgetError, InputMismatchError, SizeLimitError
from .partitions import ONE, STAR, StarPattern

DEFAULT_TOL = 1e-9
MAX_FLAT_DIM = 64

# cells of one chunk of a commuting (d = 1) delta check: every array stays
# this size
_CHUNK_CELLS = 2 ** 18
# plans whose sorted-tuple tables hold up to this many cells are kept
# between calls (at most 128 plans, 2 MB)
_CACHED_TUPLE_CELLS = 2 ** 14
# a witness is the first index tuple (in lexicographic order) whose residual
# is within this fraction of max(1, worst) of the worst one, so rounding-level
# ties do not decide it
_WITNESS_TIE = 1e-12

@dataclass
class Check:
    holds: bool
    residual: float
    witness: tuple | None = None
    details: dict = field(default_factory=dict)


class MatrixRep:
    """Generator matrices u_{ij}, stored as an (n, n, d, d) complex array."""

    def __init__(self, entries, tol: float = DEFAULT_TOL):
        arr = np.asarray(entries, dtype=complex)
        if arr.ndim == 2:
            arr = arr[:, :, None, None]
        if arr.ndim != 4 or arr.shape[0] != arr.shape[1] or arr.shape[2] != arr.shape[3]:
            raise InputMismatchError(
                f"entries must form an (n, n, d, d) array, got shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
            raise InputMismatchError("non-finite entry in representation")
        self.entries = arr
        self.n = arr.shape[0]
        self.d = arr.shape[2]
        if self.n * self.d > MAX_FLAT_DIM:
            raise SizeLimitError(
                f"flattened dimension {self.n * self.d} exceeds {MAX_FLAT_DIM}"
            )
        if tol < 0:
            raise InputMismatchError("tolerance must be nonnegative")
        self.tol = float(tol)

    def entry(self, i: int, j: int) -> np.ndarray:
        return self.entries[i, j]

    def adjoint_entries(self) -> np.ndarray:
        return np.conj(self.entries).swapaxes(2, 3)

    def letter_array(self, letter: str) -> np.ndarray:
        if letter == ONE:
            return self.entries
        if letter == STAR:
            return self.adjoint_entries()
        raise InputMismatchError(f"bad pattern letter {letter!r}")

    def flatten(self) -> np.ndarray:
        nd = self.n * self.d
        return self.entries.transpose(0, 2, 1, 3).reshape(nd, nd)


def spectral_norms(batch) -> np.ndarray:
    """Largest singular value of each trailing matrix in a batch (..., r, c).

    A 1x1 matrix's singular value is its modulus, so those skip the SVD.
    """
    batch = np.asarray(batch)
    if batch.shape[-2:] == (1, 1):
        return np.abs(batch[..., 0, 0])
    return np.linalg.svd(batch, compute_uv=False)[..., 0]


def operator_norm(x) -> float:
    if isinstance(x, MatrixRep):
        mat = x.flatten()
    else:
        arr = np.asarray(x, dtype=complex)
        if arr.ndim == 4:
            mat = arr.transpose(0, 2, 1, 3).reshape(
                arr.shape[0] * arr.shape[2], arr.shape[1] * arr.shape[3]
            )
        elif arr.ndim == 2:
            mat = arr
        elif arr.ndim == 0:
            return float(abs(arr))
        else:
            raise InputMismatchError(f"cannot take operator norm of shape {arr.shape}")
    if mat.size == 0:
        return 0.0
    return float(spectral_norms(mat))


def _unitarity_residuals(mat: np.ndarray) -> tuple[float, float]:
    eye = np.eye(mat.shape[0])
    left = operator_norm(mat.conj().T @ mat - eye)
    right = operator_norm(mat @ mat.conj().T - eye)
    return left, right


def check_biunitary(rep: MatrixRep) -> Check:
    u = rep.flatten()
    ubar = MatrixRep(rep.adjoint_entries(), rep.tol).flatten()
    u_left, u_right = _unitarity_residuals(u)
    ubar_left, ubar_right = _unitarity_residuals(ubar)
    residual = max(u_left, u_right, ubar_left, ubar_right)
    # square matrices admit no one-sided inverses, so the two sides must
    # agree; a disagreement would flag numerical trouble, not mathematics
    consistent = (u_left <= rep.tol) == (u_right <= rep.tol) and (
        ubar_left <= rep.tol
    ) == (ubar_right <= rep.tol)
    return Check(
        holds=residual <= rep.tol,
        residual=residual,
        details={
            "u_left": u_left,
            "u_right": u_right,
            "ubar_left": ubar_left,
            "ubar_right": ubar_right,
            "square_consistency": consistent,
        },
    )


def block_identity_holds(rep: MatrixRep, pattern, j: int) -> Check:
    d = StarPattern.coerce(pattern)
    if len(d) == 0:
        raise InputMismatchError("block identity needs a nonempty pattern")
    if not 0 <= j < rep.n:
        raise InputMismatchError(f"column index {j} out of range for n={rep.n}")
    chain = rep.letter_array(d.letters[0])[:, j]
    for letter in d.letters[1:]:
        chain = chain @ rep.letter_array(letter)[:, j]
    total = chain.sum(axis=0)
    residual = operator_norm(total - np.eye(rep.d))
    return Check(holds=residual <= rep.tol, residual=residual, witness=(j,))


def full_delta_identity_holds(rep: MatrixRep, pattern) -> Check:
    d = StarPattern.coerce(pattern)
    k = len(d)
    if k < 2:
        raise InputMismatchError("delta identity needs pattern length >= 2")
    if rep.d == 1:
        residual, witness = _commuting_delta(rep, d.letters)
        return Check(holds=residual <= rep.tol, residual=residual, witness=witness)
    if rep.n**k > TUPLE_BUDGET:
        raise BudgetError(f"{rep.n}^{k} index tuples exceed the budget")
    # the last link also sums the shared row index, so the (n,)*(k+1) chain
    # is never held next to the (n,)*k total
    diff = rep.letter_array(d.letters[0])
    for t, letter in enumerate(d.letters[1:], 2):
        out = "...ixz" if t == k else "a...ixz"
        diff = np.einsum("a...xy,aiyz->" + out, diff, rep.letter_array(letter))
    for i in range(rep.n):
        diff[(i,) * k] -= np.eye(rep.d)
    svals = spectral_norms(diff.reshape(-1, rep.d, rep.d))
    residual = float(svals.max())
    first = int(np.argmax(svals >= _tie_floor(residual)))
    witness = tuple(int(i) for i in np.unravel_index(first, (rep.n,) * k))
    return Check(holds=residual <= rep.tol, residual=residual, witness=witness)


def _tie_floor(worst: float) -> float:
    return worst - _WITNESS_TIE * max(1.0, worst)


def _sorted_tuples(n: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Nondecreasing p-tuples over range(n) as a (p, M) uint8 array, in
    lexicographic order, and the column of each constant tuple (i, ..., i).

    The tuples that start with v are v followed by the (p-1)-tuples over
    range(v, n), which are the last C(n-v+p-2, p-1) columns of the shorter
    table.
    """
    tab = np.zeros((0, 1), dtype=np.uint8)
    for t in range(1, p + 1):
        prev = tab
        sizes = [math.comb(n - v + t - 2, t - 1) for v in range(n)]
        tab = np.empty((t, sum(sizes)), dtype=np.uint8)
        col = 0
        for v, size in enumerate(sizes):
            tab[0, col : col + size] = v
            tab[1:, col : col + size] = prev[:, prev.shape[1] - size :]
            col += size
    const = np.flatnonzero(tab[0] == tab[-1]) if p else np.zeros(n, dtype=np.intp)
    return tab, const


@dataclass(frozen=True)
class _DeltaPlan:
    """Sorted tuples of each letter class of a pattern at size n, cut into
    blocks of at most _CHUNK_CELLS cells, with the delta cells of each block."""

    # (p, M1) and (q, M2) tables of the 1-slots' and the *-slots' tuples
    tabs: tuple
    steps: tuple
    # (first column of each side, rows and columns of the constant tuples)
    blocks: tuple
    # each slot's letter class (0 for 1, 1 for *) and its place in the class
    slots: tuple


def _build_delta_plan(n: int, letters: str) -> _DeltaPlan:
    p = letters.count(ONE)
    (tab1, const1), (tab2, const2) = _sorted_tuples(n, p), _sorted_tuples(n, len(letters) - p)
    m1, m2 = tab1.shape[1], tab2.shape[1]
    step1 = min(m1, max(1, _CHUNK_CELLS // n))
    step2 = min(m2, max(1, _CHUNK_CELLS // n), max(1, _CHUNK_CELLS // step1))
    blocks = []
    for lo1 in range(0, m1, step1):
        for lo2 in range(0, m2, step2):
            r, c = const1 - lo1, const2 - lo2
            inside = (r >= 0) & (r < step1) & (c >= 0) & (c < step2)
            blocks.append((lo1, lo2, r[inside], c[inside]))
    for arr in (tab1, tab2):
        arr.flags.writeable = False
    slots = tuple(
        (int(letter != ONE), letters.count(letter, 0, t)) for t, letter in enumerate(letters)
    )
    return _DeltaPlan((tab1, tab2), (step1, step2), tuple(blocks), slots)


_cached_delta_plan = functools.lru_cache(maxsize=128)(_build_delta_plan)


def _delta_plan(n: int, letters: str) -> _DeltaPlan:
    p = letters.count(ONE)
    q = len(letters) - p
    m1, m2 = math.comb(n + p - 1, p), math.comb(n + q - 1, q)
    if m1 * m2 > TUPLE_BUDGET:
        raise BudgetError(
            f"{m1 * m2} sorted index tuples of {letters!r} at n={n} exceed the budget"
        )
    if p * m1 + q * m2 <= _CACHED_TUPLE_CELLS:
        return _cached_delta_plan(n, letters)
    return _build_delta_plan(n, letters)


def _commuting_delta(rep: MatrixRep, letters: str) -> tuple[float, tuple]:
    """Worst residual and witness of a delta identity on a d = 1 model.

    The entry at a tuple is sum_a prod_(1-slots) u_ai * prod_(*-slots)
    conj(u_ai), so it is the (I, J) cell of P1.T @ P2, where I and J are the
    sorted indices of the two letter classes and P1[a, I], P2[a, J] are the
    products over each side.  Every tuple of one (I, J) orbit has the same
    residual; the lexicographically first one puts the sorted values of each
    class into that class's slots in order.
    """
    plan = _delta_plan(rep.n, letters)
    u = rep.entries[:, :, 0, 0]
    ubar = u.conj()
    (tab1, tab2), (step1, step2) = plan.tabs, plan.steps

    def residuals(lo1: int, lo2: int, rows, cols) -> np.ndarray:
        p1 = _side_products(u, tab1[:, lo1 : lo1 + step1])
        table = p1.T @ _side_products(ubar, tab2[:, lo2 : lo2 + step2])
        table[rows, cols] -= 1.0
        return np.abs(table)

    # a lone block is kept; otherwise each block is formed once for its
    # maximum and again, for the witness, only if it reaches the tie floor
    kept = residuals(*plan.blocks[0]) if len(plan.blocks) == 1 else None
    if kept is not None:
        maxima = [float(kept.max())]
    else:
        maxima = [float(residuals(*b).max()) for b in plan.blocks]
    worst = max(maxima)
    floor = _tie_floor(worst)
    witness = None
    for block, top in zip(plan.blocks, maxima):
        if top < floor:
            continue
        res = kept if kept is not None else residuals(*block)
        lo1, lo2 = block[:2]
        if lo1 == lo2 == 0 and res[0, 0] >= floor:
            return worst, (0,) * len(plan.slots)  # the first tuple of all
        rows, cols = np.nonzero(res >= floor)
        found = _lex_first(plan, rows + lo1, cols + lo2)
        if witness is None or found < witness:
            witness = found
    return worst, witness


def _side_products(base: np.ndarray, part: np.ndarray) -> np.ndarray:
    """(n, M) products base[:, i_1] * ... * base[:, i_p] over the columns of part."""
    if not len(part):
        return np.ones((base.shape[0], part.shape[1]), dtype=complex)
    out = np.take(base, part[0], axis=1)
    for row in part[1:]:
        out *= np.take(base, row, axis=1)
    return out


def _lex_first(plan: _DeltaPlan, rows, cols) -> tuple:
    """The lexicographically first full tuple among the (I, J) orbits given."""
    picks = [rows, cols]
    for side, s in plan.slots:
        if len(picks[0]) == 1:
            break
        vals = plan.tabs[side][s, picks[side]]
        keep = vals == vals.min()
        picks = [picks[0][keep], picks[1][keep]]
    return tuple(int(plan.tabs[side][s, picks[side][0]]) for side, s in plan.slots)


def _sum_condition_residual(rep: MatrixRep) -> float:
    eye = np.eye(rep.d)
    worst = 0.0
    for i in range(rep.n):
        worst = max(worst, operator_norm(rep.entries[i].sum(axis=0) - eye))
        worst = max(worst, operator_norm(rep.entries[:, i].sum(axis=0) - eye))
    return worst


def _projection_residual(rep: MatrixRep, power: int) -> float:
    """How far the power-th power of each entry is from a projection."""
    worst = 0.0
    for a in rep.entries.reshape(-1, rep.d, rep.d):
        p = np.linalg.matrix_power(a, power)
        worst = max(worst, operator_norm(p @ p - p), operator_norm(p - p.conj().T))
    return worst


def _commutativity_residual(rep: MatrixRep) -> float:
    if rep.d == 1:
        return 0.0
    flat = rep.entries.reshape(-1, rep.d, rep.d)
    worst = 0.0
    for a in flat:
        for b in flat:
            worst = max(worst, operator_norm(a @ b - b @ a))
            bs = b.conj().T
            worst = max(worst, operator_norm(a @ bs - bs @ a))
    return worst


def check_family(rep: MatrixRep, tag: FamilyTag) -> Check:
    return _check_family(rep, tag, check_biunitary(rep))


_NAMED_RELATIONS = {
    "sums": _sum_condition_residual,
    "projections": lambda rep: _projection_residual(rep, 1),
    "square_projections": lambda rep: _projection_residual(rep, 2),
}


def _check_family(rep: MatrixRep, tag: FamilyTag, base: Check) -> Check:
    """check_family with the model's biunitarity check already made."""
    residuals = {"biunitary": base.residual}
    witness = None
    for key, pattern in relations(tag):
        if pattern is None:
            residuals[key] = _NAMED_RELATIONS[key](rep)
            continue
        chk = full_delta_identity_holds(rep, pattern)
        residuals[key] = chk.residual
        if not chk.holds and witness is None:
            witness = chk.witness
    if tag.classical:
        residuals["commutativity"] = _commutativity_residual(rep)
    residual = max(residuals.values())
    return Check(
        holds=residual <= rep.tol,
        residual=residual,
        witness=witness,
        details=residuals,
    )


def coproduct_lift(a: MatrixRep, b: MatrixRep) -> MatrixRep:
    if a.n != b.n:
        raise InputMismatchError("coproduct lift needs matching sizes")
    n = a.n
    d = a.d * b.d
    out = np.zeros((n, n, d, d), dtype=complex)
    for i in range(n):
        for j in range(n):
            acc = np.zeros((d, d), dtype=complex)
            for k in range(n):
                acc += np.kron(a.entries[i, k], b.entries[k, j])
            out[i, j] = acc
    return MatrixRep(out, tol=max(a.tol, b.tol))


def _standard_scan_patterns(max_len: int = 4, power_max: int = 6):
    out = []
    for k in range(2, max_len + 1):
        out.extend(StarPattern.all_patterns(k))
    for m in range(max_len + 1, power_max + 1):
        out.append(StarPattern(ONE * m))
        out.append(StarPattern(STAR * m))
    return out


def structural_consequences(rep: MatrixRep, patterns=None) -> dict:
    """Entrywise facts forced by which delta identities a model satisfies."""
    if patterns is None:
        patterns = _standard_scan_patterns()
    else:
        patterns = [StarPattern.coerce(p) for p in patterns]
    found = {d.letters: full_delta_identity_holds(rep, d) for d in patterns}
    satisfied = [d for d in patterns if found[d.letters].holds]
    sat_letters = {d.letters for d in satisfied}
    checks: dict[str, Check] = {}

    inv_worst = 0.0
    rot_worst = 0.0
    for d in satisfied:
        for i in range(rep.n):
            for j in range(rep.n):
                tail = np.eye(rep.d, dtype=complex)
                for letter in d.letters[1:]:
                    tail = tail @ rep.letter_array(letter)[i, j]
                head = rep.letter_array(d.letters[0])[i, j]
                inv_worst = max(
                    inv_worst, operator_norm(tail - head.conj().T)
                )
        if rep.d == 1:
            # a rotation keeps the letter counts, hence the sorted-tuple residual
            rot_worst = max(rot_worst, found[d.letters].residual)
            continue
        for r in range(1, len(d)):
            rotated = d.letters[r:] + d.letters[:r]
            rot_worst = max(
                rot_worst, full_delta_identity_holds(rep, rotated).residual
            )
    checks["entrywise_inverse"] = Check(inv_worst <= rep.tol, inv_worst)
    checks["cyclic_rotations"] = Check(rot_worst <= rep.tol, rot_worst)

    if "1*1*" in sat_letters:
        pi_worst = 0.0
        cross_worst = 0.0
        for i in range(rep.n):
            for j in range(rep.n):
                a = rep.entries[i, j]
                pi_worst = max(
                    pi_worst, operator_norm(a @ a.conj().T @ a - a)
                )
        for k in range(rep.n):
            for i in range(rep.n):
                for j in range(rep.n):
                    if i == j:
                        continue
                    a, b = rep.entries[i, k], rep.entries[j, k]
                    cross_worst = max(
                        cross_worst, operator_norm(a.conj().T @ b)
                    )
                    cross_worst = max(
                        cross_worst, operator_norm(a @ b.conj().T)
                    )
        checks["partial_isometries"] = Check(pi_worst <= rep.tol, pi_worst)
        checks["cross_orthogonality"] = Check(
            cross_worst <= rep.tol, cross_worst
        )

    if "11**" in sat_letters:
        normal_worst = 0.0
        for i in range(rep.n):
            for j in range(rep.n):
                a = rep.entries[i, j]
                normal_worst = max(
                    normal_worst,
                    operator_norm(a @ a.conj().T - a.conj().T @ a),
                )
        checks["normal_entries"] = Check(normal_worst <= rep.tol, normal_worst)

    power_worst = 0.0
    power_seen = False
    for d in satisfied:
        m = abs(d.imbalance)
        if m < 1:
            continue
        power_seen = True
        base = rep.entries if d.imbalance < 0 else rep.adjoint_entries()
        for j in range(rep.n):
            total = np.zeros((rep.d, rep.d), dtype=complex)
            for alpha in range(rep.n):
                total += np.linalg.matrix_power(base[alpha, j], m)
            power_worst = max(power_worst, operator_norm(total - np.eye(rep.d)))
    if power_seen:
        checks["power_sums"] = Check(power_worst <= rep.tol, power_worst)

    return {
        "satisfied_patterns": sorted(sat_letters, key=pattern_sort_key),
        "checks": checks,
        "holds": all(c.holds for c in checks.values()),
    }


def lattice_position(rep: MatrixRep, m_max: int = M_MAX_DEFAULT) -> dict:
    """Every family of all_family_tags(m_max) the model satisfies, the minimal
    ones, and their closure.

    A model that satisfies the relations of several families satisfies those
    of the category they generate, which is the category of the groups'
    intersection.  The closure is therefore the table meet of the minimal
    families (easy.family_meet), None only when nothing is satisfied, and
    `consistent` says whether the model satisfies it.  Its indices are the
    moduli m of the satisfied H_M_PLUS(m), with 2 for O_PLUS or H_S_PLUS.
    """
    tags = all_family_tags(m_max)
    base = check_biunitary(rep)
    results = {tag: _check_family(rep, tag, base) for tag in tags}
    satisfied = {tag for tag, chk in results.items() if chk.holds}
    minimal = {
        t
        for t in satisfied
        if not any(s != t and family_below(s, t) for s in satisfied)
    }
    upward_consistent = all(
        t in satisfied
        for s in satisfied
        for t in tags
        if family_below(s, t)
    )
    indices = {t.m for t in satisfied if t.kind == "H_M_PLUS"}
    if any(t.kind in ("O_PLUS", "H_S_PLUS") for t in satisfied):
        indices.add(2)
    implied = family_meet(minimal, m_max)
    return {
        "satisfied": sorted(t.label() for t in satisfied),
        "minimal": sorted(t.label() for t in minimal),
        "upward_consistent": upward_consistent,
        "closure": {
            "indices": sorted(indices),
            "implied": implied.label() if implied is not None else None,
            "consistent": implied is None or implied in satisfied,
        },
        "m_scan": m_max,
        "results": results,
    }
