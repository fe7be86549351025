"""Numerical relation checks for matrix models of the nine symmetry families.

A model assigns each generator a d x d complex matrix.  Family membership is
decided by residuals of the universal relations: delta-type summation
identities per star pattern, sum conditions, projection conditions, and
biunitarity.  Everything is tolerance-based; the default scale is 1e-9 on
unit-norm matrices.

A delta identity for a pattern of length k has one d x d entry per index
tuple (i_1, ..., i_k).  For d > 1 all n^k entries are formed, so n^k counts
against TUPLE_BUDGET, by a prefix chain of matmuls batched over the summed
row index, about n^(k+1) d^3 multiply-adds (_block_delta).  Its chunks keep
each array within _CHUNK_CELLS cells, two arrays at a time: lattice_position
on the n=3, d=4 nilpotent lift peaks at 3.2 MiB at any m_max up to 12, and
on nilpotent_pair_rep(3) it takes about 0.2 s (one core of a shared Xeon).

For d = 1 the entries commute, so an entry depends only on how often each
index occurs in the pattern's 1-slots and in its *-slots, its exponent
vectors.  The check runs over each letter class's (n, M) table of them
(_exponents), C(n+p-1, p) * C(n+q-1, q) pairs for p 1-slots and q *-slots,
and that count meets the budget.  Each side's products over the summed row
index, n power factors a cell, form an (n, M) array; one matmul gives the
residual table, in chunks of at most _CHUNK_CELLS cells.  Its plan depends
only on (n, p, q) and is built for the one check that reads it.
lattice_position scans moduli up to easy.M_MAX = 300: on permutation_rep(3)
it takes 0.04 s at m_max 100, 0.2 s at 200 and 0.55 s at 300 (a fresh
process, one core of a shared Xeon).

The residual table too depends only on (n, p, q), not on where the letters
sit, so a d = 1 model keeps per (p, q) the worst residual and the tied worst
orbits that can hold a first tuple (_commuting_orbits); each pattern reads
its own witness from them (_lex_first).  A model has one cache, its memo,
filled only through _derived: every residual a relation check reads is
derived there once per model from the entries alone and judged against
rep.tol at each call.  It holds biunitarity's four norms, the sum,
projection and commutativity residuals, the d = 1 orbits above, each d > 1
delta identity's worst residual and witness, each block identity's column
residuals, and the invariance scan's letter matrices u, u* and diag(u, u*),
real when the entries are (the arrays read-only).  The entries are a
read-only copy, and the memo dies with the model and holds no plan or
table: about 83 KiB after lattice_position(rep, 300) at n = 3, and 5.4 KiB
after lattice_position and structural_consequences on the n = 3, d = 4
nilpotent lift.  Nothing is kept between models.

Every other relation is entrywise: its residual is the largest spectral
norm over one stack of d x d matrices (_worst), an (n, n, d, d) stack for
sum, projection and block identities and for the entrywise facts of
structural_consequences, save cross-orthogonality's (n, n, n, d, d) one.
Commutativity (classical tags, d > 1) takes one entry at a time against all
entries, then all adjoints, n^2 d^2 cells a step, never n^4.  coproduct_lift
forms an n^3 (d_a d_b)^2 product only if n d_a d_b is within MAX_FLAT_DIM.

lattice_position checks a model against every family and reads the rest
from the scan's one family order (easy.family_order, built once per m_max):
the satisfied set is a bitset, its minimal families and upward consistency
are reductions over the order's rows, and its closure is the table meet
(easy.family_meet), the intersection of the satisfied groups.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .cumulants import TUPLE_BUDGET, pattern_sort_key
# FamilyTag, family_below and all_family_tags are also this module's API
from .easy import M_MAX, M_MAX_DEFAULT, FamilyTag, all_family_tags, family_below, family_meet, family_order, relations
from .errors import BudgetError, InputMismatchError, SizeLimitError
from .partitions import ONE, STAR, StarPattern

DEFAULT_TOL = 1e-9
MAX_FLAT_DIM = 64

# cells of one chunk of a delta check: every array of the commuting (d = 1)
# and the block (d > 1) kernel stays this size
_CHUNK_CELLS = 2 ** 18
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
        arr = np.array(entries, dtype=complex)  # a copy: the memo below trusts it never changes
        if arr.ndim == 2:
            arr = arr[:, :, None, None]
        if arr.ndim != 4 or arr.shape[0] != arr.shape[1] or arr.shape[2] != arr.shape[3] or 0 in arr.shape:
            raise InputMismatchError(f"entries must form an (n, n, d, d) array, n, d >= 1, got shape {arr.shape}")
        if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
            raise InputMismatchError("non-finite entry in representation")
        arr.setflags(write=False)
        self.entries = arr
        self.n = arr.shape[0]
        self.d = arr.shape[2]
        if self.n * self.d > MAX_FLAT_DIM:
            raise SizeLimitError(
                f"flattened dimension {self.n * self.d} exceeds {MAX_FLAT_DIM}"
            )
        self.tol = _checked_tol(tol)
        # what relation checks derive from the entries alone, never tol (_derived)
        self._relations: dict = {}

    def adjoint_entries(self) -> np.ndarray:
        return np.conj(self.entries).swapaxes(2, 3)

    def letter_array(self, letter: str) -> np.ndarray:
        if letter == ONE:
            return self.entries
        if letter == STAR:
            return self.adjoint_entries()
        raise InputMismatchError(f"bad pattern letter {letter!r}")

    def flatten(self) -> np.ndarray:
        return _flat(self.entries)


def _checked_tol(tol) -> float:
    """A tolerance as a float, refused unless finite and nonnegative."""
    if not 0 <= tol <= sys.float_info.max:  # so do NaN and an int past the floats
        raise InputMismatchError(f"tolerance must be nonnegative and finite, got {tol}")
    return float(tol)


def _derived(rep: MatrixRep, key, compute, *args):
    """compute(rep, *args), worked out once per model and kept read-only in its
    memo under key: what a relation check derives from the entries, never tol."""
    if key not in rep._relations:
        value = rep._relations[key] = compute(rep, *args)
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return rep._relations[key]


def _flat(entries: np.ndarray) -> np.ndarray:
    """An (n, n, d, d) stack u_ij as the nd x nd matrix with rows (i, A) and columns (j, B)."""
    n, _, d, _ = entries.shape
    return entries.transpose(0, 2, 1, 3).reshape(n * d, n * d)


def _adj(stack: np.ndarray) -> np.ndarray:
    """The adjoint of each trailing matrix of a stack."""
    return stack.conj().swapaxes(-1, -2)


def _sum_second(arr: np.ndarray) -> np.ndarray:
    """Sum over axis 1 of an (m, n, d, d) array, laid out contiguously so each
    cell's n terms add in the order of a sum over one (n, d, d) slice."""
    return np.ascontiguousarray(arr).sum(axis=1)


def _gram_top(g, sqrt):
    """Largest singular value of [[x0, x1], [x2, x3]] from g = (re x0, im x0, ..., im x3).

    The square root of the Gram matrix's top eigenvalue, (a+c)/2 +
    sqrt(((a-c)/2)^2 + |b|^2).  g's largest part lies in [1/2, 1), so no
    square overflows and (a+c)/2 >= 1/8 bounds the relative error.  Only
    +, -, * and sqrt, so floats and arrays give the same bits.
    """
    r0, i0, r1, i1, r2, i2, r3, i3 = g
    a = r0 * r0 + i0 * i0 + r2 * r2 + i2 * i2
    c = r1 * r1 + i1 * i1 + r3 * r3 + i3 * i3
    br = r0 * r1 + i0 * i1 + r2 * r3 + i2 * i3
    bi = r0 * i1 - i0 * r1 + r2 * i3 - i2 * r3
    h = (a - c) * 0.5
    return sqrt((a + c) * 0.5 + sqrt(h * h + br * br + bi * bi))


def spectral_norms(batch) -> np.ndarray:
    """Largest singular value of each trailing matrix in a batch (..., r, c).

    A 1x1 matrix's singular value is its modulus.  A 2x2 one's comes in
    closed form (_gram_top) after an exact power-of-two scaling: in plain
    floats for one matrix, one array operation per step for a stack.
    Other shapes take LAPACK's SVD.
    """
    batch = np.asarray(batch)
    if batch.shape[-2:] == (1, 1):
        return np.abs(batch[..., 0, 0])
    if batch.shape[-2:] != (2, 2):
        return np.linalg.svd(batch, compute_uv=False)[..., 0]
    if batch.ndim == 2:
        g = [v for z in batch.ravel().tolist() for v in (z.real, z.imag)]
        e = math.frexp(max(map(abs, g)))[1]
        return np.float64(math.ldexp(_gram_top([math.ldexp(v, -e) for v in g], math.sqrt), e))
    g = np.ascontiguousarray(batch, complex).reshape(-1, 4).view(float).T
    e = np.frexp(np.abs(g).max(axis=0, initial=0.0))[1]
    return np.ldexp(_gram_top(np.ldexp(g, -e, order="C"), np.sqrt), e).reshape(batch.shape[:-2])


def operator_norm(x) -> float:
    """Largest singular value of a matrix, or of a model's flattened matrix."""
    mat = x.flatten() if isinstance(x, MatrixRep) else np.asarray(x, dtype=complex)
    if mat.ndim != 2:
        raise InputMismatchError(f"cannot take operator norm of shape {mat.shape}")
    return float(spectral_norms(mat))


def _worst(stack: np.ndarray) -> float:
    """Largest spectral norm over a stack (..., r, c), 0 for an empty one."""
    return float(spectral_norms(stack).max()) if stack.size else 0.0


def _biunitary_sides(rep: MatrixRep) -> dict:
    """How far u and its entrywise conjugate are from unitary, each side of each."""
    eye = np.eye(rep.n * rep.d)
    sides = {}
    for name, mat in (("u", rep.flatten()), ("ubar", _flat(rep.adjoint_entries()))):
        sides[name + "_left"] = operator_norm(mat.conj().T @ mat - eye)
        sides[name + "_right"] = operator_norm(mat @ mat.conj().T - eye)
    return sides


def check_biunitary(rep: MatrixRep) -> Check:
    """Biunitarity judged against rep.tol; its four norms are worked out once per model."""
    sides = _derived(rep, "biunitary", _biunitary_sides)
    residual = max(sides.values())
    ok = {key: value <= rep.tol for key, value in sides.items()}
    # square matrices admit no one-sided inverses, so the two sides must
    # agree; a disagreement would flag numerical trouble, not mathematics
    consistent = ok["u_left"] == ok["u_right"] and ok["ubar_left"] == ok["ubar_right"]
    return Check(holds=residual <= rep.tol, residual=residual,
                 details={**sides, "square_consistency": consistent})


def block_identity_holds(rep: MatrixRep, pattern, j: int) -> Check:
    d = StarPattern.coerce(pattern)
    if len(d) == 0:
        raise InputMismatchError("block identity needs a nonempty pattern")
    if not 0 <= j < rep.n:
        raise InputMismatchError(f"column index {j} out of range for n={rep.n}")
    residual = float(_column_residuals(rep, d.letters)[j])
    return Check(holds=residual <= rep.tol, residual=residual, witness=(j,))


def _column_residuals(rep: MatrixRep, letters: str) -> np.ndarray:
    """Residual of the block identity sum_a u^(c_1)_aj ... u^(c_k)_aj = 1 at
    every column j, from one (n, n, d, d) chain indexed (j, a), once per model."""
    def columns(rep: MatrixRep) -> np.ndarray:
        chain = rep.letter_array(letters[0]).swapaxes(0, 1)
        for letter in letters[1:]:
            chain = chain @ rep.letter_array(letter).swapaxes(0, 1)
        return spectral_norms(_sum_second(chain) - np.eye(rep.d))

    return _derived(rep, ("columns", letters), columns)


def full_delta_identity_holds(rep: MatrixRep, pattern) -> Check:
    d = StarPattern.coerce(pattern)
    k = len(d)
    if k < 2:
        raise InputMismatchError("delta identity needs pattern length >= 2")
    count = _tuple_count(rep, d.letters)
    if count > TUPLE_BUDGET:
        raise BudgetError(f"{count} index tuples of a length-{k} pattern at n={rep.n} exceed the budget")
    if rep.d > 1:
        residual, witness = _derived(rep, d.letters, _block_delta, d.letters)
    else:
        # every arrangement of p 1-slots and q *-slots shares its (p, q) orbits
        p = d.letters.count(ONE)
        residual, orbits = _derived(rep, (p, k - p), _commuting_orbits, p, k - p)
        witness = _lex_first(orbits, d.letters)
    return Check(holds=residual <= rep.tol, residual=residual, witness=witness)


def _tuple_count(rep: MatrixRep, letters: str) -> int:
    """What a delta identity counts against TUPLE_BUDGET: n^k index tuples
    for d > 1, C(n+p-1, p) * C(n+q-1, q) exponent pairs for d = 1."""
    if rep.d > 1:
        return rep.n ** len(letters)
    p, q = letters.count(ONE), letters.count(STAR)
    return math.comb(rep.n + p - 1, p) * math.comb(rep.n + q - 1, q)


def _block_delta(rep: MatrixRep, letters: str) -> tuple[float, tuple]:
    """Worst residual and witness of a delta identity on a d > 1 model.

    A chunk fixes the fewest leading indices i_1..i_s keeping its n^(k-s) d^2
    cells within _CHUNK_CELLS and starts from their (n, d, d) products, one
    per summed row a.  The chain keeps the layout (a, x J, y): each open slot
    is one matmul batched over a, u^(c)[a] as (y, j z), and the last one sums
    a inside one 2-D matmul, rows (x, J) and columns (a, y).  Chunks run in
    lexicographic order, so the witness is in the first to reach the floor.
    """
    n, d, k = rep.n, rep.d, len(letters)
    arrs = {c: rep.letter_array(c) for c in set(letters)}
    # u^(c) as the (a, y) x (j, z) matrix: row block a is slot t's factor on row a
    mats = {c: _flat(u) for c, u in arrs.items()}
    fixed = next(s for s in range(k) if s == k - 1 or n ** (k - s) * d * d <= _CHUNK_CELLS)
    step = sum(n**e for e in range(k - fixed))  # between constant open tuples (i, ..., i)

    def residuals(head: tuple) -> np.ndarray:
        chain = np.eye(d)
        for c, i in zip(letters, head):
            chain = chain @ arrs[c][:, i]
        for c in letters[fixed:-1]:
            chain = (chain @ mats[c].reshape(n, d, -1)).reshape(n, -1, d)
        chain = chain.transpose(1, 0, 2).reshape(-1, n * d)  # rows (x, J), columns (a, y)
        chain = (chain @ mats[letters[-1]]).reshape(d, -1, d)
        res = np.ascontiguousarray(chain.transpose(1, 0, 2))  # cells (J, x, z)
        del chain
        const = [i * step for i in range(n) if head in ((), (i,) * fixed)]
        res.reshape(-1, d * d)[const, :: d + 1] -= 1.0  # the constant tuples' diagonals
        return spectral_norms(res)

    worst, floor, hits = _worst_blocks(list(itertools.product(range(n), repeat=fixed)), residuals)
    head, res = next(hits)
    first = np.unravel_index(int(np.argmax(res >= floor)), (n,) * (k - fixed))
    return worst, head + tuple(int(i) for i in first)


def _tie_floor(worst: float) -> float:
    return worst - _WITNESS_TIE * max(1.0, worst)


def _worst_blocks(blocks: list, residuals):
    """The worst residual over blocks, its tie floor, and an iterator over the
    blocks that reach the floor with their residuals, in order.  Each block is
    formed once for its maximum and again when reached; a lone one is kept."""
    kept = residuals(blocks[0]) if len(blocks) == 1 else None
    maxima = [float(kept.max())] if kept is not None else [float(residuals(b).max()) for b in blocks]
    worst = max(maxima)
    floor = _tie_floor(worst)
    hits = ((b, kept if kept is not None else residuals(b)) for b, top in zip(blocks, maxima) if top >= floor)
    return worst, floor, hits


def _exponents(n: int, p: int) -> np.ndarray:
    """Exponent vectors of the nondecreasing p-tuples over range(n) as an
    (n, M) array, column I counting each index in the I-th tuple in
    lexicographic order (the reverse lexicographic order of the vectors).

    Below its first part, a vector is one of n-1 parts summing to at most p;
    those run by sum, each sum in reverse lexicographic order.  The k-part
    ones are, for s = 0..p, the (k-1)-part ones with sum at most s under a
    first part s minus their sum: one gather of the rows built so far per k.
    """
    dtype = np.min_scalar_type(p)
    out = np.empty((n, math.comb(n + p - 1, p)), dtype)
    sums = np.zeros(1, dtype)  # sum of each vector in out[n-k:], k parts, k = 0 first
    for k in range(1, n):
        upto = np.cumsum(np.bincount(sums, minlength=p + 1))  # vectors with sum at most s
        idx = np.arange(upto.sum())  # each vector's column among those of k-1 parts
        idx -= np.repeat(np.cumsum(upto) - upto, upto)
        out[n - k + 1 :, : len(idx)] = out[n - k + 1 :, idx]
        s = np.repeat(np.arange(p + 1, dtype=dtype), upto)
        out[n - k, : len(s)] = s - sums[idx]
        sums = s
    out[0] = p - sums
    return out


def _exponent_plan(n: int, p: int, q: int) -> tuple:
    """The exponent tables of p 1-slots and q *-slots at size n, their chunk
    steps, and blocks of at most _CHUNK_CELLS cells: each block's first
    columns and the rows and columns of the constant tuples inside it."""
    ones = _exponents(n, p)
    tabs = ones, (ones if q == p else _exponents(n, q))
    m1, m2 = tabs[0].shape[1], tabs[1].shape[1]
    # (i, ..., i) heads the last C(n-i+e-1, e) vectors, those zero before part i
    consts = [np.array([m - math.comb(n - i + e - 1, e) for i in range(n)]) for m, e in ((m1, p), (m2, q))]
    step1 = min(m1, max(1, _CHUNK_CELLS // n))
    step2 = min(m2, max(1, _CHUNK_CELLS // n), max(1, _CHUNK_CELLS // step1))
    blocks = []
    for lo1 in range(0, m1, step1):
        for lo2 in range(0, m2, step2):
            r, c = consts[0] - lo1, consts[1] - lo2
            inside = (r >= 0) & (r < step1) & (c >= 0) & (c < step2)
            blocks.append((lo1, lo2, r[inside], c[inside]))
    return tabs, (step1, step2), tuple(blocks)


def _commuting_orbits(rep: MatrixRep, p: int, q: int) -> tuple[float, tuple]:
    """The worst residual of the delta identities with p 1-slots and q
    *-slots on a d = 1 model, and the tied orbits that can give a witness,
    each as the sorted indices of its two classes (bytes).

    The entry at a tuple is sum_a prod_(1-slots) u_ai * prod_(*-slots)
    conj(u_ai), so it depends only on the exponent vectors e and f counting
    each index in the two letter classes: it is the (I, J) cell of P1.T @ P2,
    where P1[a, I] = prod_j u_aj^e_j over column I of the 1-slots' table and
    P2[a, J] likewise with conj(u) over the *-slots'.  Every tuple of one
    (I, J) orbit has the same residual.  Columns run in the lexicographic
    order of the sorted tuples, so an orbit whose I and J are both at or
    past another tied orbit's never holds the first tuple of any pattern
    and is dropped; what is left is at most one orbit per tied I.
    """
    n = rep.n
    (tab1, tab2), (step1, step2), blocks = _exponent_plan(n, p, q)
    # u_aj^t at [j, a, t], t factors multiplied in turn; conjugation is exact,
    # so the *-slots' products are the conjugates of the same products
    pows = rep.entries[:, :, 0, 0].T[:, :, None].repeat(max(p, q) + 1, axis=2)
    pows[:, :, 0] = 1.0
    np.cumprod(pows, axis=2, out=pows)

    def residuals(lo1: int, lo2: int, rows, cols) -> np.ndarray:
        p1 = _power_products(pows, tab1[:, lo1 : lo1 + step1])
        table = p1.T @ _power_products(pows, tab2[:, lo2 : lo2 + step2]).conj()
        table[rows, cols] -= 1.0
        return np.abs(table)

    worst, floor, hits = _worst_blocks(blocks, lambda block: residuals(*block))
    rows, cols = [], []
    for (lo1, lo2, *_), res in hits:
        if lo1 == lo2 == 0 and res[0, 0] >= floor:
            rows, cols = [np.zeros(1, int)], [np.zeros(1, int)]  # the first orbit of all
            break
        r, c = np.nonzero(res >= floor)
        rows.append(r + lo1)
        cols.append(c + lo2)
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    order = np.lexsort((cols, rows))
    rows, cols = rows[order], cols[order]
    # keep an orbit when its J is below every J of a smaller or equal I
    keep = cols < np.minimum.accumulate(np.concatenate(([tab2.shape[1]], cols[:-1])))
    digits = np.arange(n, dtype=np.uint8)  # n <= MAX_FLAT_DIM
    return worst, tuple((np.repeat(digits, tab1[:, i]).tobytes(), np.repeat(digits, tab2[:, j]).tobytes())
                        for i, j in zip(rows[keep].tolist(), cols[keep].tolist()))


def _power_products(pows: np.ndarray, part: np.ndarray) -> np.ndarray:
    """(n, M) products prod_j pows[j, a, part[j, I]] over the columns I of part."""
    out = pows[0].take(part[0], axis=1)
    for j in range(1, len(part)):
        out *= pows[j].take(part[j], axis=1)
    return out


def _lex_first(orbits: tuple, letters: str) -> tuple:
    """The lexicographically first full tuple among the (I, J) orbits given,
    each by the sorted indices of its 1-slots and of its *-slots: an orbit's
    first tuple puts each class's indices into that class's slots in order."""
    def first(ones: bytes, stars: bytes) -> tuple:
        classes = iter(ones), iter(stars)
        return tuple(next(classes[letter != ONE]) for letter in letters)

    return min(first(*orbit) for orbit in orbits)


def _sum_condition_residual(rep: MatrixRep) -> float:
    sums = np.concatenate([_sum_second(rep.entries), _sum_second(rep.entries.swapaxes(0, 1))])
    return _worst(sums - np.eye(rep.d))


def _projection_residual(rep: MatrixRep, power: int) -> float:
    """How far the power-th power of each entry is from a projection."""
    p = np.linalg.matrix_power(rep.entries, power)
    return max(_worst(p @ p - p), _worst(p - _adj(p)))


def _commutativity_residual(rep: MatrixRep) -> float:
    if rep.d == 1:
        return 0.0
    flat = rep.entries.reshape(-1, rep.d, rep.d)
    flat_adj = _adj(flat)
    # one entry against every entry, then every adjoint: n^2 d^2 cells a step
    return max(_worst(a @ b - b @ a) for a in flat for b in (flat, flat_adj))


_NAMED_RELATIONS = {
    "sums": _sum_condition_residual,
    "projections": lambda rep: _projection_residual(rep, 1),
    "square_projections": lambda rep: _projection_residual(rep, 2),
}


def check_family(rep: MatrixRep, tag: FamilyTag) -> Check:
    """The family's relations on the model: biunitarity, then its row's
    relations in order, the first failed delta identity's witness kept."""
    residuals = {"biunitary": check_biunitary(rep).residual}
    witness = None
    for key, pattern in relations(tag):
        if pattern is None:
            residuals[key] = _derived(rep, key, _NAMED_RELATIONS[key])
            continue
        chk = full_delta_identity_holds(rep, pattern)
        residuals[key] = chk.residual
        if not chk.holds and witness is None:
            witness = chk.witness
    if tag.classical:
        residuals["commutativity"] = _derived(rep, "commutativity", _commutativity_residual)
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
    if n * d > MAX_FLAT_DIM:
        raise SizeLimitError(f"flattened dimension {n * d} exceeds {MAX_FLAT_DIM}")
    # out[i, j] = sum_k a_ik (x) b_kj; the product's axes are (i, k, j, row of
    # a, row of b, column of a, column of b), n^3 d^2 cells
    prod = a.entries[:, :, None, :, None, :, None] * b.entries[None, :, :, None, :, None, :]
    return MatrixRep(prod.sum(axis=1).reshape(n, n, d, d), tol=max(a.tol, b.tol))


def _standard_scan_patterns(max_len: int = 4, power_max: int = 6):
    out = []
    for k in range(2, max_len + 1):
        out.extend(StarPattern.all_patterns(k))
    for m in range(max_len + 1, power_max + 1):
        out.append(StarPattern(ONE * m))
        out.append(StarPattern(STAR * m))
    return out


def structural_consequences(rep: MatrixRep, patterns=None) -> dict:
    """Entrywise facts forced by which delta identities a model satisfies.

    Each distinct pattern, given or a rotation of a satisfied one, has its
    delta identity worked out once per model.
    """
    if patterns is None:
        patterns = _standard_scan_patterns()
    else:
        patterns = [StarPattern.coerce(p) for p in patterns]
    satisfied = [d for d in patterns if full_delta_identity_holds(rep, d).holds]
    sat_letters = {d.letters for d in satisfied}

    inv_worst = rot_worst = 0.0
    for d in satisfied:
        tail = np.broadcast_to(np.eye(rep.d, dtype=complex), rep.entries.shape)
        for letter in d.letters[1:]:
            tail = tail @ rep.letter_array(letter)
        inv_worst = max(inv_worst, _worst(tail - _adj(rep.letter_array(d.letters[0]))))
        for r in range(1, len(d)):
            rot_worst = max(rot_worst, full_delta_identity_holds(rep, d.letters[r:] + d.letters[:r]).residual)
    worsts = {"entrywise_inverse": inv_worst, "cyclic_rotations": rot_worst}

    u = rep.entries
    if "1*1*" in sat_letters:
        worsts["partial_isometries"] = _worst(u @ _adj(u) @ u - u)
        # (k, i, j) products of the entries i != j of column k, n^3 d^2 cells
        cols = u.swapaxes(0, 1)
        off = ~np.eye(rep.n, dtype=bool)
        worsts["cross_orthogonality"] = max(
            _worst((_adj(cols)[:, :, None] @ cols[:, None, :])[:, off]),
            _worst((cols[:, :, None] @ _adj(cols)[:, None, :])[:, off]),
        )
    if "11**" in sat_letters:
        worsts["normal_entries"] = _worst(u @ _adj(u) - _adj(u) @ u)
    # sum_a (u_aj)^m = 1 at each column j, m = |imbalance|, adjoints if stars
    # dominate: the block identity of 1^m or *^m
    powers = {(ONE if d.imbalance < 0 else STAR) * abs(d.imbalance) for d in satisfied if d.imbalance}
    if powers:
        worsts["power_sums"] = max(float(_column_residuals(rep, letters).max()) for letters in powers)
    checks = {name: Check(worst <= rep.tol, worst) for name, worst in worsts.items()}
    return {
        "satisfied_patterns": sorted(sat_letters, key=pattern_sort_key),
        "checks": checks,
        "holds": all(c.holds for c in checks.values()),
    }


def lattice_position(rep: MatrixRep, m_max: int = M_MAX_DEFAULT) -> dict:
    """Every family of all_family_tags(m_max), 3 <= m_max <= M_MAX, that the
    model satisfies, the minimal ones, and their closure, all read from
    easy.family_order(m_max).

    A model that satisfies the relations of several families satisfies those
    of the category they generate, the category of the groups' intersection,
    so the closure is the table meet of the minimal families: None only when
    nothing is satisfied, and `consistent` says whether the model satisfies
    it.  Its indices are the moduli m of the satisfied H_M_PLUS(m), with 2
    for O_PLUS or H_S_PLUS.  A scan whose largest delta identity counts
    more than TUPLE_BUDGET (_tuple_count) raises before it checks anything.
    """
    if m_max < 3:
        raise InputMismatchError(f"the modulus scan needs m_max >= 3, got {m_max}")
    if m_max > M_MAX:
        raise SizeLimitError(f"the modulus scan takes m_max <= {M_MAX}, got {m_max}")
    count = max(_tuple_count(rep, pattern) for tag in all_family_tags(m_max) for _, pattern in relations(tag) if pattern)
    if count > TUPLE_BUDGET:
        shown = count if count < 10**12 else f"about 10^{len(str(count)) - 1}"
        raise BudgetError(f"the modulus scan to m_max={m_max} needs {shown} index tuples at n={rep.n}, over the budget")
    tags, _, below, _ = family_order(m_max)
    results = {tag: check_family(rep, tag) for tag in tags}
    held = sum(1 << i for i, t in enumerate(tags) if results[t].holds)
    satisfied = [t for i, t in enumerate(tags) if held >> i & 1]
    # t is minimal when the only satisfied family below it is itself, and the
    # scan is upward consistent when nothing below an unsatisfied t holds
    minimal = [t for i, t in enumerate(tags) if below[i] & held == 1 << i]
    upward_consistent = all(b & held == 0 for i, b in enumerate(below) if not held >> i & 1)
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
