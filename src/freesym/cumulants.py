"""Moment and cumulant tables plus the moment <-> cumulant calculus.

A table stores, per star pattern of each order, the value of a multilinear
functional applied to the variable's pattern of plain/adjoined copies.  For
scalar coefficients (dim 1) a value is a complex number.  For matrix
coefficients (dim p > 1) a value of order k is a *core tensor* of shape
(p*p,)*(k-1) + (p, p): contracting axis t with vec(c) recovers the functional
with coefficient c in slot t, where vec(c)[a*p+b] = c[a, b].  Outer
coefficients are never stored; callers multiply them in.

Conversions use the first-block recursion (Nica & Speicher, Lectures on the
Combinatorics of Free Probability, Lect. 10-11): a partition of a word w is
the block V holding its first letter plus a partition of the rest.  The
split itself is partitions.first_blocks, which the enumerations share.
Classically m(w) = sum_V kappa(w|V) m(w|V^c).  Freely the rest splits into
the segments after each element of V, and the free conversions group the
blocks by the Boolean split (Speicher & Woroudi, Boolean convolution, Fields
Inst. Commun. 12, 1997).  The Boolean cumulant beta(w) sums the noncrossing
partitions whose first block also holds the last letter (Arizmendi, Hasebe,
Lehner & Vargas, Adv. Math. 282, 2015): beta(w) = kappa(w) + sum over the
interior blocks V, whose last segment is empty, of kappa(w|V)[segment
moments in its slots].  Then m(w) = sum_j beta(w_1..w_j) b_j m(w_j+1..w_k),
the prefix cuts, with m of the empty word 1 and b_j the coefficient after
letter j; for matrix tables this is Speicher's operator-valued relation (Mem.
AMS 132, 1998, no. 627).  A prefix cut is the first block {1..j} read
through beta instead of kappa, so an order k sums one list of rows
(_plan_rows): 2^(k-2) - 1 interior blocks through kappa and k - 1 prefix
blocks through beta, instead of 2^(k-1) - 1 blocks.  The inversions solve
the same relation, summed as the forward direction sums it.

Every word up to the conversion order has a place in one flat array
(_order_start), and for each order an integer plan (_order_plan) lists, for
every row of the recursion and every word at once, where its first operand,
kappa(w|V) or beta(w|V), and the piece moments sit.  Scalar tables in both
calculi, and the multivariate inverter on words of (index, letter) pairs,
evaluate a whole order in _gathered_recursion as one numpy gather of the
first operands from kappa and beta side by side, in-place products and two
sums, over the kappa rows and over the beta rows; absent entries are exact
zeros.  The inverter places all (word, pattern) pairs of an order at once,
from their digit arrays (_digits).  The plans of alphabets of at most 4
letters (the star letters, and n <= 2 free copies) are kept between calls
(_plan).  Matrix cores are held row-first inside their recursion
(_spliced_recursion), converted at its edges: an order-k core reads as its
k letters along the word, each its (row, column) pair of p^2 cells
(_row_first).  A row's term is then its first operand's letters with each
nonempty segment's moment row as one run in its gap, an outer product for
a prefix block (_splice_cores, the runs worked out once per shape by
_splice_recipe).  Every order below the top is a row stack on both sides,
read through the plan a chunk of at most _SPLICE_CELLS cells, or one word,
at a time; the top order streams into its output.

Joint moments of n free copies run the free recursion too, on whole index
tensors (joint_moment_tensor), or one word at any dim on its own segments
(joint_moments_free_family).  Mixed free cumulants vanish, so a first block
V contributes kappa(w|V) only where the indices on V agree.  Every
recursion holds its order to one rule, _PatternTable.require_order: at most
MAX_SCALAR_ORDER (8) for scalar tables and MAX_MATRIX_ORDER (6) for matrix
ones, then the declared order.

A table is a value, built once from its whole dict, checked and frozen.  Its
memo lives on it and goes with it (_PatternTable._memo).  It holds the
coefficient-free word segments at any dim (at most _MEMO_SEGMENTS, then
started over: some 16 MB of them, 31 MB at dim 3) and a scalar table's
coefficient-free index tensors at each n, each beside its scale once a scan
has asked for it (_LawTensors, which decides the law's field once: float64
for a real table); the largest is after an n=4, order-8 scan: 307 MB of
tensors for a complex law (268 MB the order-8 one).  A word whose value is
there is read after its checks, before any recursion is set up.

The defining sums over partitions, which these recursions reproduce, are
the test suite's reference (tests/reference.py).
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from types import MappingProxyType

import numpy as np

from .errors import (
    BudgetError,
    IncompleteTableError,
    InputMismatchError,
    OrderBoundError,
    SizeLimitError,
    UnsupportedAlgebraError,
)
from .partitions import ONE, STAR, StarPattern, first_blocks as _first_blocks

MAX_DIM = 3
MAX_SCALAR_ORDER = 8
# Dense cores hold p^(2k) entries at order k: at dim 3 each order-6 table is
# about 0.55 GB, and a dim-3, K=6 conversion peaks at about 1180 MiB RSS.
MAX_MATRIX_ORDER = 6
MAX_MULTI_ORDER = 6
MAX_ALPHABET = 3
TUPLE_BUDGET = 10**6
# a word letter standing for both 1 and *, in the joint tensors of n free copies
EITHER = "?"
_SORT_DIGITS = str.maketrans({ONE: "0", STAR: "1"})


def identity_element(dim: int):
    if dim == 1:
        return 1.0 + 0.0j
    return np.eye(dim, dtype=complex)


def pattern_sort_key(letters: str) -> tuple:
    """Deterministic pattern order: by length, then plain before adjoined."""
    return (len(letters), letters.translate(_SORT_DIGITS))


def core_shape(dim: int, k: int) -> tuple[int, ...]:
    return (dim * dim,) * (k - 1) + (dim, dim)


def _finite(value) -> bool:
    """Whether every real and imaginary part is finite; a plain number skips numpy."""
    if isinstance(value, (int, float, complex)):
        return cmath.isfinite(value)
    return bool(np.isfinite(value).all())


def _require_finite(value) -> None:
    if not _finite(value):
        raise InputMismatchError("non-finite table value")


@dataclass(frozen=True)
class _PatternTable:
    """Values of one multilinear functional family, keyed by star pattern.

    Checked once, here, and frozen: data becomes a read-only mapping from
    letters to complex values, or to read-only cores.  A complex array the
    caller passes is made read-only in place, not copied, so the caller can
    no longer write to it either.  _memo is the table's law memo
    (_free_family_word, _law_tensors), which lives and goes with it.
    """

    order: int
    dim: int = 1
    data: dict = field(default_factory=dict)
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.order < 0:
            raise InputMismatchError("order must be nonnegative")
        if not 1 <= self.dim <= MAX_DIM:
            raise SizeLimitError(f"coefficient dimension must be 1..{MAX_DIM}")
        raw, order = self.data, self.order
        if not raw.keys() <= _table_words(min(order, MAX_SCALAR_ORDER)):  # else letters already, in bound
            raw = {StarPattern.coerce(pattern).letters: value for pattern, value in raw.items()}
            for letters in raw:
                if not 1 <= len(letters) <= order:
                    raise OrderBoundError(
                        f"pattern {letters!r} outside declared order {order}"
                    )
        if self.dim == 1:
            data = dict(zip(raw, map(complex, raw.values())))
            if not all(map(cmath.isfinite, data.values())):
                raise InputMismatchError("non-finite table value")
        else:
            data = {}
            for letters, value in raw.items():
                _require_finite(value)
                arr = np.asarray(value, dtype=complex)
                want = core_shape(self.dim, len(letters))
                if arr.shape != want:
                    raise InputMismatchError(
                        f"core for {letters!r} must have shape {want}, got {arr.shape}"
                    )
                arr.flags.writeable = False
                data[letters] = arr
        object.__setattr__(self, "data", MappingProxyType(data))

    def get(self, pattern):
        """Stored value, or None when the entry is absent (an exact zero)."""
        return self.data.get(StarPattern.coerce(pattern).letters)

    def require_order(self, k: int) -> None:
        """Refuse a recursion to order k past the bound of this table's dim, then past its declared order."""
        limit = MAX_SCALAR_ORDER if self.dim == 1 else MAX_MATRIX_ORDER
        if k > limit:
            raise OrderBoundError(f"order {k} exceeds the dim-{self.dim} bound {limit}")
        if k > self.order:
            raise IncompleteTableError(
                f"table declares order {self.order}, need {k}"
            )

    def max_abs_difference(self, other: "_PatternTable") -> float:
        gaps = (np.abs(np.subtract(self.data.get(key, 0j), other.data.get(key, 0j)))
                for key in self.data.keys() | other.data.keys())
        return max((float(np.max(gap)) for gap in gaps), default=0.0)


@dataclass(frozen=True)
class CumulantTable(_PatternTable):
    pass


@dataclass(frozen=True)
class MomentTable(_PatternTable):
    pass


@dataclass(frozen=True)
class MultiCumulantTable:
    """Cumulants of an n-variable family, keyed by (index word, pattern).

    Values carry the identity interleaved-coefficient tuple; the full
    bimodule functional is infinite-dimensional and out of scope.  At dim >
    1 mixed entries certify freeness for product-convention laws only.
    """

    order: int
    n: int
    dim: int = 1
    data: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "data", MappingProxyType(dict(self.data)))

    def get(self, word, pattern):
        key = (tuple(int(i) for i in word), StarPattern.coerce(pattern).letters)
        return self.data.get(key)

    def largest_mixed(self) -> tuple[tuple, str, float]:
        """The mixed-index entry of largest magnitude (the freeness witness)."""
        worst = ((), "", 0.0)
        for (word, pattern), value in self.data.items():
            if len(set(word)) <= 1:
                continue
            mag = float(np.max(np.abs(np.asarray(value))))
            if mag > worst[2]:
                worst = (word, pattern, mag)
        return worst


# ---------------------------------------------------------------------------
# coefficients


def _coerce_coeff(c, dim: int):
    arr = np.asarray(c, dtype=complex)
    if arr.ndim == 0:
        return complex(arr) if dim == 1 else complex(arr) * np.eye(dim, dtype=complex)
    if arr.ndim == 2 and arr.shape == (dim, dim):
        return arr
    raise InputMismatchError(
        f"coefficient must be a scalar or a {dim}x{dim} matrix, got shape {arr.shape}"
    )


def _ordered_coeff_product(coeffs) -> np.ndarray:
    """Ordered product of mixed scalar/matrix coefficients (one must be a matrix)."""
    q = next((np.shape(c)[0] for c in coeffs if np.ndim(c) == 2), None)
    if q is None:
        raise InputMismatchError("expected at least one matrix coefficient")
    out = np.eye(q, dtype=complex)
    for c in coeffs:
        out = out @ _coerce_coeff(c, q)
    return out


def _times_coeff_product(value, coeffs):
    """Scalar-valued moments times the ordered product of their coefficients.

    Scalar coefficients commute out of every term; a matrix among them makes
    the product a matrix, whose two axes are appended to value's.
    """
    if any(np.ndim(c) for c in coeffs):
        return np.multiply.outer(value, _ordered_coeff_product(coeffs))
    return value * reduce(operator.mul, (complex(c) for c in coeffs))


# ---------------------------------------------------------------------------
# moment <-> cumulant conversions


def _order_start(k: int, a: int) -> int:
    """Flat index of the first word of order k over a letters.

    Every word up to a conversion order has a place in one flat array: the
    empty word is 0, and the a^k words of order k fill positions
    (a^k - 1)/(a - 1) onward in the order of their digit tuples (_digits),
    so the word with digits d_1..d_k sits at sum_t (d_t + 1) a^(k - t).
    """
    return (a ** k - 1) // (a - 1)


def _digits(a: int, k: int) -> np.ndarray:
    """Digit tuples 0..a-1 of the a^k words of order k, one row per word, first digit most significant."""
    return np.arange(a ** k)[:, None] // a ** np.arange(k - 1, -1, -1) % a


@lru_cache(maxsize=MAX_SCALAR_ORDER + 1)
def _pattern_words(K: int) -> tuple[str, ...]:
    """Letters of every star pattern of orders 1..K, each order in code order.

    words[i] has flat index i + 1 over {1, *} (_order_start), so the 2^k
    words of order k are _pattern_words(k)[-2 ** k:].
    """
    return tuple(d.letters for k in range(1, K + 1) for d in StarPattern.all_patterns(k))


@lru_cache(maxsize=MAX_SCALAR_ORDER + 1)
def _table_words(K: int) -> frozenset:
    """The letters a table of order K takes as they are, built on first use."""
    return frozenset(_pattern_words(K))


def _plan_rows(k: int, free: bool) -> tuple:
    """The first blocks, with their pieces, that an order-k recursion sums over.

    Classically every block but the whole word, read through kappa.  Freely
    the interior blocks, whose last piece is empty, read through kappa (with
    kappa(w) they sum to beta(w)), then the prefix blocks {0..j-1}, j =
    1..k-1, read through beta: their one piece is the rest of the word.
    """
    rows = _first_blocks(k, free)[:-1]
    # row 2^(j-1) - 1 of _first_blocks is the block {0..j-1}
    return (tuple(row for row in rows if not free or not row[1][-1])
            + tuple(rows[2 ** (j - 1) - 1] for j in range(1, k) if free))


def _order_plan(k: int, a: int, free: bool) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices of every row's first operand and of its nonempty pieces, for every word w of order k.

    Row r is the block _plan_rows(k, free)[r], column c the word whose
    digit tuple has code c.  first_at[r, c] is 2i for kappa(w|V) or 2i + 1
    for beta(w|V), i its flat index (_order_start); moment_at[r, j, c] are
    those of the pieces.  Rows with fewer nonempty pieces than the widest
    are padded with 0, the empty word.
    """
    rows = _plan_rows(k, free)
    filled = [[piece for piece in pieces if piece] for _, pieces in rows]
    shifted = _digits(a, k) + 1

    def at(positions) -> np.ndarray:
        return shifted[:, list(positions)] @ a ** np.arange(len(positions) - 1, -1, -1)

    first_at = np.zeros((len(rows), a ** k), _plan_dtype(k, a))
    moment_at = np.zeros((len(rows), max(map(len, filled), default=0), a ** k), first_at.dtype)
    for r, ((block, pieces), nonempty) in enumerate(zip(rows, filled)):
        first_at[r] = 2 * at(block) + (free and bool(pieces[-1]))
        for j, piece in enumerate(nonempty):
            moment_at[r, j] = at(piece)
    for plan in (first_at, moment_at):
        plan.flags.writeable = False
    return first_at, moment_at


def _plan_dtype(k: int, a: int) -> type:
    """int16 while every first-operand index up to order k fits it, else int32."""
    return np.int16 if 2 * _order_start(k + 1, a) <= np.iinfo(np.int16).max else np.int32


@lru_cache(maxsize=None)
def _kept_plan(k: int, a: int, free: bool) -> tuple[np.ndarray, np.ndarray]:
    return _order_plan(k, a, free)


def _plan(k: int, a: int, free: bool) -> tuple[np.ndarray, np.ndarray]:
    """_order_plan, kept between calls for at most 4 letters: the star letters up
    to MAX_SCALAR_ORDER (0.36 MB) and n = 2 free copies up to MAX_MULTI_ORDER
    (0.57 MB); n = 3 would keep 11.7 MB."""
    return (_kept_plan if a <= 4 else _order_plan)(k, a, free)


def _gathered_recursion(known: np.ndarray, K: int, a: int, free: bool, to_moments: bool) -> np.ndarray:
    """The recursion on values at flat indices, an order at a time.

    known holds the given side at the flat index of every word up to order K,
    absent entries as exact zeros (slot 0, the empty word, is ignored).
    Values are scalars, or p x p matrices (known.ndim > 1) multiplied by np.matmul.
    kappa and beta sit side by side, at 2i and 2i + 1 for flat index i, so
    an order's rows (_order_plan) are one gather of their first operands,
    multiplied in place by the piece moments, and two sums.  Classically
    every row reads kappa: m(w) = kappa(w) + their sum.  Freely the kappa
    rows sum to beta(w) - kappa(w), and beta(w) is kept for the orders below
    K; the beta rows, the prefix cuts, sum to m(w) - beta(w).  A term
    involves shorter words only, so inverting solves kappa(w) = m(w) - the
    terms; both ways form the terms alike, so a zero kappa(w) comes back
    exactly zero when the shorter words do.  Returns the other side.
    """
    pair = np.zeros((len(known), 2) + known.shape[1:], dtype=known.dtype)
    kappa, boolean, moment = pair[:, 0], pair[:, 1], np.zeros_like(known)
    (kappa if to_moments else moment)[...] = known
    moment[0], mul = (np.eye(known.shape[-1]), np.matmul) if known.ndim > 1 else (1, np.multiply)
    firsts = pair.reshape((-1,) + known.shape[1:])
    for k in range(1, K + 1):
        start = _order_start(k, a)
        run = slice(start, start + a ** k)
        first_at, moment_at = _plan(k, a, free)
        term = firsts[first_at]
        for j in range(moment_at.shape[1]):
            mul(term, moment[moment_at[:, j]], out=term)
        interior = len(term) - (k - 1 if free else 0)
        terms = blocks = term[:interior].sum(axis=0)
        if free:
            terms = term[interior:].sum(axis=0)
            terms += blocks
        if to_moments:
            np.add(kappa[run], terms, out=moment[run])
        else:
            np.subtract(moment[run], terms, out=kappa[run])
        if free and k < K:
            np.add(kappa[run], blocks, out=boolean[run])
    return moment if to_moments else kappa


def _row_first(cores: np.ndarray) -> np.ndarray:
    """A stack of cores (axis 0 the words) as flat rows in the layout (X, slots..., Y), a copy.

    A core's axes are its slots, then the value's pair (X, Y); its row
    puts X first, so the row of a product b_0 x_1 b_1 ... x_k reads X,
    (r_1, c_1), ..., Y along the word, b_t = E(r_t, c_t).
    """
    w, p = len(cores), cores.shape[-1]
    return cores.reshape(w, -1, p, p).transpose(0, 2, 1, 3).reshape(w, -1)


def _slots_first(rows: np.ndarray, p: int) -> np.ndarray:
    """A view of _row_first rows with the core's axis order: (words, slots, X, Y)."""
    return rows.reshape(len(rows), p, -1, p).transpose(0, 2, 1, 3)


@lru_cache(maxsize=None)
def _splice_recipe(p: int, orders: tuple) -> tuple:
    """The splice geometry of _splice_cores, for dim p and the orders of a plan row's pieces (0 for empty).

    In a _row_first row letter t of the word is its (row, column) pair of
    p^2 cells, (c_(t-1), r_t) for b_t = E(r_t, c_t), with c_0 = X and r_k =
    Y.  The term's row is the operand's letters with each nonempty piece's
    row as one run in the gap after its block letter, after Y for a prefix
    block (the outer product beta_j (x) m_(k-j)), and adjacent block letters
    merge into one run.  Returns the operand's shape with 1 at every gap,
    each nonempty piece's shape with 1 off its gap, and the term's shape,
    the words' axis left out.  The cache holds one entry per row and dim:
    26 interior and 15 prefix rows per dim up to MAX_MATRIX_ORDER.
    """
    shape, gaps, run = [], [], 1
    for order in orders:
        run *= p * p  # the block letter
        if order:
            gaps.append(len(shape) + 1)
            shape += [run, p ** (2 * order)]
            run = 1
    if not orders[-1]:
        shape.append(run)
    kappa = tuple(1 if t in gaps else s for t, s in enumerate(shape))
    pieces = tuple(tuple(s if t == g else 1 for t, s in enumerate(shape)) for g in gaps)
    return kappa, pieces, tuple(shape)


def _splice_cores(kappa: np.ndarray, moments: list, recipe: tuple, out: np.ndarray) -> np.ndarray:
    """Rows of kappa(w|V), or beta(w|V), with the nonempty pieces' moment rows M in its slots, for a stack of words.

    V is a plan row's block and recipe its _splice_recipe; axis 0 of kappa
    and of each M runs over the words, each row in the _row_first layout.
    No axis is summed: the terms are one broadcast product, kappa first,
    then the M in slot order, written into the flat buffer out (at least
    the words times the term's cells).  Returns the (words, cells) rows.
    """
    kappa_shape, piece_shapes, shape = recipe
    w = len(kappa)
    val = out[:w * math.prod(shape)].reshape((w,) + shape)
    first, *rest = zip(moments, piece_shapes)
    np.multiply(kappa.reshape((w,) + kappa_shape), first[0].reshape((w,) + first[1]), out=val)
    for m, piece in rest:
        np.multiply(val, m.reshape((w,) + piece), out=val)
    return val.reshape(w, -1)


# cells of one chunk of an order's cores, in the matrix recursion
_SPLICE_CELLS = 2 ** 15


def _spliced_recursion(data: dict, K: int, to_moments: bool, p: int) -> tuple[list, list]:
    """The free recursion for dim-p cores by the Boolean split, a chunk of words of one order at a time.

    data is the given side keyed by letters, absent entries exact zeros.
    Returns the other side as one (2^k,) + core array per order k (index 0
    unused), words in code order, and beta of the orders below K - 1 as
    (2^k, p^2k) _row_first rows.  Every order below K is a row stack on
    both sides, the given one copied once, and every operand is gathered
    from the stacks through the plan; the top order is summed row-first in
    its output array, then moved to the core layout and merged with the
    table a word at a time.  A chunk, at most _SPLICE_CELLS cells or one
    word, sums its order's rows (_plan_rows) as _gathered_recursion does,
    each term spliced by _splice_cores and skipped where its first operand
    is all zero.  The top order's last prefix row, beta_(K-1) (x) m_1, is
    written while order K - 1 is solved, so beta_(K-1) is kept a chunk at a
    time.
    """
    words = [None] + [_pattern_words(k)[-2 ** k:] for k in range(1, K + 1)]
    cells = [p ** (2 * k) for k in range(K + 1)]
    steps = [max(1, _SPLICE_CELLS // c) for c in cells]
    given = [None] + [_row_first(np.stack([data[w] if w in data else np.zeros(core_shape(p, k), dtype=complex)
                                           for w in words[k]])) for k in range(1, K)]
    top = np.zeros((2 ** K,) + core_shape(p, K), dtype=complex)
    # the top order's rows are its output array, row-first until each chunk is moved
    solved = [None] + [np.zeros_like(rows) for rows in given[1:]] + [top.reshape(2 ** K, -1)]
    boolean = [None] + [np.empty((2 ** k, cells[k]), dtype=complex) for k in range(1, K - 1)]
    kappa, moment = (given, solved) if to_moments else (solved, given)
    chunk = [min(steps[k], 2 ** k) * cells[k] for k in range(K + 1)]
    buf = np.empty(max(chunk[1:], default=0), dtype=complex)  # one term
    last = np.empty(chunk[K - 1] if K > 1 else 0, dtype=complex)  # beta_(K-1) of one chunk

    def terms(k: int, lo: int, hi: int, through_beta: bool):
        """The chunk's terms of its kappa rows, or of its beta rows, in plan order."""
        first_at, moment_at = _plan(k, 2, True)
        rows = slice(len(first_at) - (k - 1), None) if through_beta else slice(len(first_at) - (k - 1))
        for (block, pieces), first, at in zip(_plan_rows(k, True)[rows], first_at[rows, lo:hi],
                                              moment_at[rows, :, lo:hi]):
            j = len(block)
            if through_beta and j == K - 1:  # the top order's last prefix row is held already
                continue
            head = (boolean if through_beta else kappa)[j][(first >> 1) - (2 ** j - 1)]
            if head.any():
                orders = tuple(map(len, pieces))
                yield _splice_cores(head, [moment[o][i - (2 ** o - 1)] for o, i in zip(filter(None, orders), at)],
                                    _splice_recipe(p, orders), buf)

    merge = np.add if to_moments else np.subtract  # the given side with the sum of the terms
    for k in range(1, K + 1):
        for lo in range(0, 2 ** k, steps[k]):
            hi = min(lo + steps[k], 2 ** k)
            acc = solved[k][lo:hi]  # zero, or the top order's last prefix row
            for term in terms(k, lo, hi, False):
                acc += term
            if k < K:
                blocks = boolean[k][lo:hi] if k < K - 1 else last[:acc.size].reshape(acc.shape)
                blocks[...] = acc
            for term in terms(k, lo, hi, True):
                acc += term
            if k < K:
                merge(given[k][lo:hi], acc, out=acc)
                np.add(given[k][lo:hi] if to_moments else acc, blocks, out=blocks)  # beta = kappa + the kappa rows
                if k == K - 1 and blocks.any():
                    np.multiply(blocks[:, None, :, None], moment[1][None, :, None, :],
                                out=solved[K][2 * lo:2 * hi].reshape(hi - lo, 2, cells[k], -1))
            else:  # moved into the core layout, then merged with the table a word at a time
                rows = buf[:acc.size].reshape(acc.shape)
                rows[...] = acc
                acc = top[lo:hi]
                acc.reshape(_slots_first(rows, p).shape)[...] = _slots_first(rows, p)
                for core, w in zip(acc, words[K][lo:hi]):
                    merge(data.get(w, 0j), core, out=core)
            _require_finite(acc)
    given.clear()  # before the solved stacks are moved, so that the two never add up
    for k in range(1, K):  # each stack is dropped once its cores are moved
        solved[k] = np.ascontiguousarray(_slots_first(solved[k], p)).reshape((2 ** k,) + core_shape(p, k))
    solved[K] = top
    return solved, boolean


def _convert(table: _PatternTable, K: int, free: bool, to_moments: bool) -> _PatternTable:
    p = table.dim
    if not free and p != 1:
        raise UnsupportedAlgebraError("classical conversions take scalar tables")
    if K < 0:
        raise OrderBoundError("order must be nonnegative")
    table.require_order(K)
    words = _pattern_words(K)
    if p == 1:
        known = np.array([0j] + [table.data.get(w, 0j) for w in words])
        values = _gathered_recursion(known, K, 2, free, to_moments)[1:]
        data = dict(zip(words, values.tolist()))  # the table checks them finite
    else:  # the cores are read-only views into one array per order
        data = {}
        for k, cores in enumerate(_spliced_recursion(table.data, K, to_moments, p)[0][1:], 1):
            cores.flags.writeable = False
            data.update(zip(words[2 ** k - 2:2 ** (k + 1) - 2], cores))
    return (MomentTable if to_moments else CumulantTable)(K, p, data)


def free_cumulants_to_moments(table: CumulantTable, K: int) -> MomentTable:
    """Moments from free cumulants (noncrossing first-block recursion)."""
    return _convert(table, K, free=True, to_moments=True)


def moments_to_free_cumulants(table: MomentTable, K: int) -> CumulantTable:
    """Free cumulants from moments: the same recursion, solved for kappa(w)."""
    return _convert(table, K, free=True, to_moments=False)


def classical_cumulants_to_moments(table: CumulantTable, K: int) -> MomentTable:
    """Moments from classical cumulants (all-partition recursion, scalars only)."""
    return _convert(table, K, free=False, to_moments=True)


def moments_to_classical_cumulants(table: MomentTable, K: int) -> CumulantTable:
    return _convert(table, K, free=False, to_moments=False)


# ---------------------------------------------------------------------------
# free identically distributed families


def joint_moments_free_family(table: CumulantTable, n: int, word, pattern, coeffs=None):
    """Joint moment of n free copies with one shared cumulant table.

    One entry of joint_moment_tensor.  coeffs is the interleaved list
    b_0..b_k (length k+1), identity when omitted; the empty word gives b_0
    times the table's identity, complex.  The word and its order are checked
    first, then at every dim its value is read from the table's memo or
    built on its segments (_free_family_word).  A scalar table's coefficients
    multiply outside that value; a matrix table's are spliced into the
    word's own segments, b_0 in front, and a matrix value is a fresh array.
    """
    letters = StarPattern.coerce(pattern).letters
    idx = tuple(map(int, word))
    k = len(idx)
    if len(letters) != k:
        raise InputMismatchError("index word and pattern lengths differ")
    if k and (min(idx) < 1 or max(idx) > n):
        raise InputMismatchError(f"index word entries must lie in 1..{n}")
    if coeffs is not None and len(coeffs) != k + 1:
        raise InputMismatchError(f"need {k + 1} interleaved coefficients")
    table.require_order(k)
    p = table.dim
    cs = None if coeffs is None or p == 1 else [_coerce_coeff(c, p) for c in coeffs]
    if not k:
        value = identity_element(p)
    elif cs is not None:
        value = _free_family_word(table, idx, letters, {}, cs[1:])
    else:
        shared = table._memo.setdefault("words", {})
        value = shared.get(_segment_key(letters, idx))
        if value is None:
            value = _free_family_word(table, idx, letters, shared)
    if p == 1:
        return value if coeffs is None else _times_coeff_product(value, coeffs)
    return value.copy() if cs is None else cs[0] @ value


# word segments one table's memo holds (some 16 MB of them, at about 250 bytes
# each; 460 bytes at dim 3) before it starts over
_MEMO_SEGMENTS = 67_108


def _segment_key(letters: str, idx: tuple) -> tuple:
    """A word segment's key in a table memo: its letters and its index kernel.

    The kernel gives each position the first position carrying its index,
    so two segments share it exactly when the same positions agree.
    """
    return letters, tuple(map(idx.index, idx))


def _free_family_word(table, idx: tuple, letters: str, shared, cs=None):
    """One entry of _free_family_tensor, at any dim: its recursion on one word's segments.

    A first block V of a segment counts only where the indices on V agree,
    so V runs over the subsets of the segment's positions that carry its
    first index, in the order of itertools.combinations.  A segment's value
    depends on its letters and its index kernel, not on the indices or on
    n.  Segments are memoised in shared, the table memo's "words" entry, by
    _segment_key, with the word's own memo by position in front; shared
    starts over when it holds _MEMO_SEGMENTS entries.  A scalar term
    multiplies kappa(w|V) by the segments in place, left to right; a matrix
    term is _spliced_term, the side after each element of V the segment
    that follows it or the identity, and a matrix segment is read-only.
    cs[i], the coefficient after letter i, ends each segment and multiplies
    its side from the left; shared is then the word's own, keyed by position.
    """
    memo = {}
    get = table.data.get
    matrix, eye = table.dim > 1, identity_element(table.dim)

    def segment(a: int, e: int):
        s = memo.get((a, e))
        if s is None:
            key = _segment_key(letters[a:e], idx[a:e]) if cs is None else (a, e)
            s = shared.get(key)
            if s is None:
                s = build(a, e)
                if len(shared) >= _MEMO_SEGMENTS:
                    shared.clear()
                shared[key] = s
            memo[a, e] = s
        return s

    def build(a: int, e: int):
        same = [j for j in range(a + 1, e) if idx[j] == idx[a]]
        total = np.zeros_like(eye) if matrix else 0j
        for size in range(len(same) + 1):
            for rest in itertools.combinations(same, size):
                term = get(letters[a] + "".join([letters[j] for j in rest]))
                if term is None:
                    continue
                if matrix:
                    sides = [segment(v + 1, end) if v + 1 < end else eye for v, end in zip((a,) + rest, rest + (e,))]
                    if cs is not None:
                        sides = [cs[v] if s is eye else cs[v] @ s for v, s in zip((a,) + rest, sides)]
                    total += _spliced_term(term, sides)
                    continue
                v = a + 1
                for end in rest + (e,):
                    if v < end:
                        term *= segment(v, end)
                    v = end + 1
                total += term
        if matrix:
            total.flags.writeable = False
        return total

    out = segment(0, len(idx))
    del build  # segment and build refer to each other: free the word's memo with the call, not at gc
    return out


def joint_moment_tensor(table: CumulantTable, n: int, k: int, pattern, coeffs=None):
    """All joint moments of length k at once, indexed by the word.

    Returns shape (n,)*k for scalar tables, (n,)*k+(p,p) for matrix ones
    (and for scalar tables with matrix coefficients).  coeffs is the
    interleaved list b_0..b_k, identity when omitted.  Computed by the free
    first-block recursion on whole index tensors; joint_moments_free_family
    computes one entry.  A scalar table's coefficient-free tensors are read
    from and kept in its memo at n, in the law's field; the caller gets its
    own complex copy.
    """
    d = StarPattern.coerce(pattern)
    if len(d) != k:
        raise InputMismatchError("pattern length must equal k")
    out = _family_tensor(table, n, d.letters, coeffs)
    return out if out.flags.writeable else out.astype(complex)


class _LawTensors(dict):
    """A scalar table's coefficient-free tensors at one n, by letters
    (_free_family_tensor), and beside them, by the same letters, the scales
    read so far (_scaled_family_tensor).

    dtype is the law's field, decided here once: float64 when every value
    has a zero imaginary part, else complex128.  The tensors are built in
    it, so a real law's take half the bytes.
    """

    __slots__ = ("dtype", "scales")

    def __init__(self, table):
        super().__init__()
        real = all(v.imag == 0 for v in table.data.values())
        self.dtype = np.dtype(float if real else complex)
        self.scales = {}


def _law_tensors(table, n: int) -> _LawTensors:
    """The table memo's tensors at n, started on the first call."""
    tensors = table._memo.get(n)
    if tensors is None:
        tensors = table._memo[n] = _LawTensors(table)
    return tensors


def _tensor_scale(tensor: np.ndarray) -> float:
    """The largest real or imaginary part of a tensor's entries, in magnitude; a real tensor is read directly."""
    parts = tensor.view(float) if tensor.dtype.kind == "c" else tensor  # without a complex abs
    return max(parts.max(), -parts.min())


def _scaled_family_tensor(table, n: int, letters: str) -> tuple[np.ndarray, float]:
    """A scalar table's coefficient-free tensor and its _tensor_scale, kept side by side in its memo.

    Once kept, both come from one memo lookup; a tensor is first built by
    _family_tensor, after its checks.  The caller checks the table's declared
    order (check_invariance does).
    """
    tensors = _law_tensors(table, n)
    tensor = tensors.get(letters)
    if tensor is None:
        tensor = _family_tensor(table, n, letters, None)
    scale = tensors.scales.get(letters)
    if scale is None:
        scale = tensors.scales[letters] = _tensor_scale(tensor)
    return tensor, scale


def _require_budget(n: int, k: int) -> None:
    """Refuse an order-k tensor over n indices past TUPLE_BUDGET index words, before it is built."""
    if n ** k > TUPLE_BUDGET:
        raise BudgetError(f"{n}^{k} index words exceed the tuple budget")


def _require_tensor_call(k: int, coeffs) -> None:
    """Refuse an order tensor of no letters, or coefficients other than the k + 1 interleaved ones."""
    if k == 0:
        raise InputMismatchError("joint moment tensors need k >= 1")
    if coeffs is not None and len(coeffs) != k + 1:
        raise InputMismatchError(f"need {k + 1} interleaved coefficients")


def _family_tensor(table, n: int, letters: str, coeffs) -> np.ndarray:
    """_free_family_tensor with the interleaved coefficients b_0..b_k, identity when None.

    A scalar table's tensor comes from its memo, read-only, and its
    coefficients multiply outside; a matrix table's are spliced in, b_0 first.
    """
    k = len(letters)
    _require_budget(n, k)
    table.require_order(k)
    _require_tensor_call(k, coeffs)
    p = table.dim
    if p == 1:
        tensor = _free_family_tensor(table, n, letters, None)
        return tensor if coeffs is None else _times_coeff_product(tensor, coeffs)
    cs = [_coerce_coeff(c, p) for c in coeffs or [identity_element(p)] * (k + 1)]
    return np.matmul(cs[0], _free_family_tensor(table, n, letters, cs[1:]))


def _diagonal(acc: np.ndarray, block, front=()) -> np.ndarray:
    """Writable view of acc whose leading axis runs along the block's common index.

    The block's axes merge into that one axis; the axes in front follow it,
    then the other axes in order.
    """
    rest = list(front) + [ax for ax in range(acc.ndim) if ax not in block and ax not in front]
    shape = (acc.shape[block[0]],) + tuple(acc.shape[ax] for ax in rest)
    strides = (sum(acc.strides[ax] for ax in block),) + tuple(acc.strides[ax] for ax in rest)
    return np.ndarray(shape, acc.dtype, buffer=acc, strides=strides)


def _spliced_term(kappa: np.ndarray, sides: list) -> np.ndarray:
    """kappa(w|V) with side t = b_t M(segment t) in core slot t, the last side multiplied from the right.

    A side's index axes come before its (p, p) axes, in the result too;
    each slot is one matmul, the index axes so far in front of the slots left.
    """
    p, heads, rest = kappa.shape[-1], (), kappa.size
    for side in sides[:-1]:
        rest //= p * p
        heads += side.shape[:-2]
        kappa = np.matmul(side.reshape(-1, p * p), kappa.reshape(-1, p * p, rest))
    return np.matmul(kappa.reshape(heads + (1,) * (sides[-1].ndim - 2) + (p, p)), sides[-1])


def _free_family_tensor(table, n: int, letters: str, cs) -> np.ndarray:
    """Moments of n free copies on every index word, by the first-block recursion.

    M[w] = sum_{V containing 1} kappa(w|V) delta_V (x) [segment tensors]:
    mixed free cumulants vanish, so kappa(w|V) is the table's value where
    the indices on V agree (delta_V) and zero elsewhere, and the segments
    after each element of V are independent words; absent or zero kappa is
    skipped.  Each slot has an index axis, after a letter axis (0 for 1, 1
    for *) where its letter is EITHER: EITHER * k gives all of order k.
    Scalar tables take cs None; their segments, keyed by letters, are the
    table memo's tensors at n (_law_tensors), which every call on the table
    and n shares, read-only.  They are built in the law's field
    (_LawTensors.dtype): a real law's kappa enter by their real parts.
    Matrix tables stay complex and keep their own segments per call; cs[i]
    is the coefficient after letter i, each segment ends with its last
    coefficient, and a term is _spliced_term, the (p, p) axes last.
    """
    matrix = cs is not None
    p = table.dim
    memo = {} if matrix else _law_tensors(table, n)
    dtype = np.dtype(complex) if matrix else memo.dtype
    real = dtype.kind == "f"

    def segment(a: int, e: int) -> np.ndarray:
        # matrix segments differ by their coefficients, scalar ones by letters only
        key = (a, e) if matrix else letters[a:e]
        if key not in memo:
            memo[key] = built = build(a, e)
            built.flags.writeable = matrix
        return memo[key]

    def build(a: int, e: int) -> np.ndarray:
        word = letters[a:e]
        options = [(ONE, STAR) if ch == EITHER else ch for ch in word]
        at = [t + word[:t + 1].count(EITHER) for t in range(len(word))]  # index axes
        shape = [size for ch in word for size in ((2, n) if ch == EITHER else (n,))]
        acc = np.zeros(tuple(shape) + ((p, p) if matrix else ()), dtype=dtype)
        for block, pieces in _first_blocks(len(word), True):
            segs = None
            for combo in itertools.product(*[options[v] for v in block]):
                kappa = table.data.get("".join(combo))
                if kappa is None or not (kappa.any() if matrix else kappa):
                    continue
                if segs is None:  # the block's segments, once its first kappa is found
                    segs = [segment(a + piece[0], a + piece[-1] + 1) if piece else None
                            for piece in pieces]
                    free = [j for j, v in enumerate(block) if word[v] == EITHER]
                    view = _diagonal(acc, [at[v] for v in block], [at[block[j]] - 1 for j in free])
                    if not matrix:
                        filled = [s for s in segs if s is not None]
                        outer = reduce(np.multiply.outer, filled) if filled else 1.0
                if not matrix:
                    term = (kappa.real if real else kappa) * outer
                else:
                    term = _spliced_term(kappa, [cs[a + v] if s is None else np.matmul(cs[a + v], s)
                                                 for v, s in zip(block, segs)])
                sub = view[(slice(None),) + tuple(int(combo[j] == STAR) for j in free)] if free else view
                sub += term
        return acc

    out = segment(0, len(letters))
    del build  # segment and build refer to each other: free the memo with the call, not at gc
    return out


def multivariate_cumulants_from_joint_moments(oracle, K: int) -> MultiCumulantTable:
    """Invert the multivariate moment sum, identity coefficients throughout.

    The oracle exposes .n, .dim and .moment(word, pattern).  The free
    first-block recursion runs on words over the 2n letters (index, 1 or *),
    letter 2(i - 1) + [*], and at dim > 1 multiplies nested pieces as
    matrices.  So mixed entries of the result are the freeness certificate
    (zero iff the family is free) for scalar laws and for matrix laws of the
    product convention, kappa(x b_1 x ... b_(k-1) x) = value b_1 ... b_(k-1),
    which a matrix CumulantSpecSingle declares; free copies of dense cores
    read mixed entries far from zero.  The flat indices of an order's
    (word, pattern) pairs come at once from their digit arrays, in the
    order the oracle is asked and the result keeps: orders ascending, index
    words in itertools.product order, then patterns in all_patterns order;
    the plans of n <= 2 are kept between calls (_plan).
    """
    n = int(oracle.n)
    dim = int(getattr(oracle, "dim", 1))
    if K > MAX_MULTI_ORDER:
        raise OrderBoundError(f"multivariate order bound is {MAX_MULTI_ORDER}")
    if n > MAX_ALPHABET:
        raise OrderBoundError(f"multivariate alphabet bound is {MAX_ALPHABET}")
    a = 2 * n
    known = np.zeros((_order_start(max(K, 0) + 1, a),) + ((dim, dim) if dim > 1 else ()),
                     dtype=complex)
    keys, at = [], []
    for k in range(1, K + 1):
        patterns = list(StarPattern.all_patterns(k))
        place = a ** np.arange(k - 1, -1, -1)
        order_at = (_order_start(k, a) + (2 * _digits(n, k) @ place)[:, None]
                    + _digits(2, k) @ place).ravel().tolist()
        pairs = ((word, d) for word in itertools.product(range(1, n + 1), repeat=k) for d in patterns)
        for i, (word, d) in zip(order_at, pairs):
            known[i] = oracle.moment(word, d)
            keys.append((word, d.letters))
        at += order_at
    values = _gathered_recursion(known, K, a, True, False)
    _require_finite(values)
    entries = values[at]
    entries.flags.writeable = False
    data = dict(zip(keys, entries.tolist() if dim == 1 else entries))
    return MultiCumulantTable(order=K, n=n, dim=dim, data=data)


def random_cumulant_table(order: int, dim: int = 1, seed: int = 0,
                          scale: float = 0.4) -> CumulantTable:
    """Seeded dense table with magnitudes shrinking by order.

    The scale keeps round-trip conditioning sane: moments are sums over
    partitions of products of entries, so entry size ~ scale^k keeps order-6
    moments near unit scale.
    """
    rng = np.random.default_rng(seed)
    data = {}
    for k in range(1, order + 1):
        for d in StarPattern.all_patterns(k):
            if dim == 1:
                value = (rng.standard_normal() + 1j * rng.standard_normal()) * scale ** k
            else:
                shape = core_shape(dim, k)
                value = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
                value *= scale ** k / dim
            data[d.letters] = value
    return CumulantTable(order=order, dim=dim, data=data)
