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
the segments after each element of V, and m(w) = sum_V kappa(w|V)[segment
moments in its slots] b m(trailing segment), b the coefficient after V; for
matrix tables this is Speicher's operator-valued relation (Mem. AMS 132,
1998, no. 627).  The inversions solve the same relation for kappa(w).

Every word up to the conversion order has a place in one flat array
(_order_start), and for each order an integer plan (_order_plan) lists, for
every first block V and every word at once, where kappa(w|V) and the piece
moments sit.  Scalar tables in both calculi, and the multivariate inverter
on words of (index, letter) pairs, evaluate a whole order as numpy gathers,
products and one sum over V (_gathered_recursion); absent entries are exact
zeros.  The inverter places all (word, pattern) pairs of an order at once,
from their digit arrays (_digits).  Matrix cores gather every operand
through the same plan from per-order stacks: every word of an order has the
same splice geometry for a first block V, so each V is spliced once for a
chunk of words (_spliced_recursion), each chunk at most _SPLICE_CELLS cells
of cores or a single word.  That geometry depends only on the dim and the
orders of V's pieces, so it is worked out once per shape (_splice_recipe,
as _star_plan is for scalar words), and a splice is a few views and one
multiply per segment.

Joint moments of n free copies run the free recursion too: on whole index
tensors (joint_moment_tensor) or on one word's segments
(joint_moments_free_family).  Mixed free cumulants vanish, so a first block V
contributes kappa(w|V) only where the indices on V agree.  The word segments
and index tensors of a scalar law share one memo (_law_memo); a word whose
value is there is read after its checks, before any recursion is set up.
The memos of recent laws are kept too, least recently used first, and
trimmed to _LAW_BYTES (16 MB) on each change of law, so the process holds
the law in use plus at most 16 MB, until release_law_memo drops them all.

The defining sums over partitions, which these recursions reproduce, are
the test suite's reference (tests/reference.py).
"""

from __future__ import annotations

import cmath
import itertools
import operator
from dataclasses import dataclass, field
from functools import lru_cache, reduce

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
# about 0.55 GB, and a dim-3, K=6 conversion peaks at about 1175 MB RSS.
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


def zero_element(dim: int):
    if dim == 1:
        return 0.0 + 0.0j
    return np.zeros((dim, dim), dtype=complex)


def pattern_sort_key(letters: str) -> tuple:
    """Deterministic pattern order: by length, then plain before adjoined."""
    return (len(letters), letters.translate(_SORT_DIGITS))


def core_shape(dim: int, k: int) -> tuple[int, ...]:
    return (dim * dim,) * (k - 1) + (dim, dim)


def _finite(value) -> bool:
    """Whether every real and imaginary part is finite; a plain number skips numpy."""
    if isinstance(value, (int, float, complex)):
        return cmath.isfinite(value)
    arr = np.asarray(value)
    return bool(np.all(np.isfinite(arr.real)) and np.all(np.isfinite(arr.imag)))


def _require_finite(value) -> None:
    if not _finite(value):
        raise InputMismatchError("non-finite table value")


@dataclass
class _PatternTable:
    """Values of one multilinear functional family, keyed by star pattern."""

    order: int
    dim: int = 1
    data: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.order < 0:
            raise InputMismatchError("order must be nonnegative")
        if not 1 <= self.dim <= MAX_DIM:
            raise SizeLimitError(f"coefficient dimension must be 1..{MAX_DIM}")
        for pattern, value in list(self.data.items()):
            del self.data[pattern]
            self.set(pattern, value)

    def set(self, pattern, value) -> None:
        d = StarPattern.coerce(pattern)
        if not 1 <= len(d) <= self.order:
            raise OrderBoundError(
                f"pattern {d.letters!r} outside declared order {self.order}"
            )
        _require_finite(value)
        if self.dim == 1:
            self.data[d.letters] = complex(value)
        else:
            arr = np.asarray(value, dtype=complex)
            want = core_shape(self.dim, len(d))
            if arr.shape != want:
                raise InputMismatchError(
                    f"core for {d.letters!r} must have shape {want}, got {arr.shape}"
                )
            self.data[d.letters] = arr

    def get(self, pattern):
        """Stored value, or None when the entry is absent (an exact zero)."""
        return self.data.get(StarPattern.coerce(pattern).letters)

    def require_order(self, k: int) -> None:
        if k > self.order:
            raise IncompleteTableError(
                f"table declares order {self.order}, need {k}"
            )

    def max_abs_difference(self, other: "_PatternTable") -> float:
        keys = set(self.data) | set(other.data)
        worst = 0.0
        for key in keys:
            a = np.asarray(self.data.get(key, 0j))
            b = np.asarray(other.data.get(key, 0j))
            worst = max(worst, float(np.max(np.abs(a - b))))
        return worst


@dataclass
class CumulantTable(_PatternTable):
    pass


@dataclass
class MomentTable(_PatternTable):
    pass


@dataclass
class MultiCumulantTable:
    """Cumulants of an n-variable family, keyed by (index word, pattern).

    Values carry the identity interleaved-coefficient tuple; the full
    bimodule functional is infinite-dimensional and out of scope.
    """

    order: int
    n: int
    dim: int = 1
    data: dict = field(default_factory=dict)

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
    q = None
    for c in coeffs:
        arr = np.asarray(c)
        if arr.ndim == 2:
            q = arr.shape[0]
            break
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


def _order_plan(k: int, a: int, free: bool) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices of kappa(w|V) and of w's nonempty pieces, for every word w of order k.

    Row r is the block _first_blocks(k, free)[r] (the whole word left out),
    column c the word whose digit tuple has code c.  kappa_at[r, c] and
    moment_at[r, j, c] are flat indices (_order_start); rows with fewer nonempty
    pieces than the widest are padded with 0, the empty word.
    """
    rows = _first_blocks(k, free)[:-1]
    filled = [[piece for piece in pieces if piece] for _, pieces in rows]
    shifted = _digits(a, k) + 1

    def at(positions) -> np.ndarray:
        return shifted[:, list(positions)] @ a ** np.arange(len(positions) - 1, -1, -1)

    size = _order_start(k + 1, a)
    dtype = np.int16 if size <= np.iinfo(np.int16).max else np.int32
    kappa_at = np.zeros((len(rows), a ** k), dtype)
    moment_at = np.zeros((len(rows), max(map(len, filled), default=0), a ** k), dtype)
    for r, ((block, _), pieces) in enumerate(zip(rows, filled)):
        kappa_at[r] = at(block)
        for j, piece in enumerate(pieces):
            moment_at[r, j] = at(piece)
    kappa_at.flags.writeable = moment_at.flags.writeable = False
    return kappa_at, moment_at


@lru_cache(maxsize=2 * MAX_SCALAR_ORDER)
def _star_plan(k: int, free: bool) -> tuple[np.ndarray, np.ndarray]:
    """_order_plan over the star letters {1, *}: 0.55 MB of int16 for k <= 8, both calculi."""
    return _order_plan(k, 2, free)


def _gathered_recursion(known: np.ndarray, K: int, a: int, free: bool, to_moments: bool,
                        mul=np.multiply) -> np.ndarray:
    """m(w) = kappa(w) + sum over V of kappa(w|V) times the piece moments, an order at a time.

    known holds the given side at the flat index of every word up to order K,
    absent entries as exact zeros (slot 0, the empty word, is ignored).
    Values are scalars, or p x p matrices multiplied by mul=np.matmul.
    Every term of an order is gathered through its plan at once and
    multiplied in place (at k=8 two 0.5 MB slabs live at a time); a term
    involves shorter words only, so the order's moments (or, inverting,
    cumulants) follow from one sum over V.  Returns the other side.
    """
    solved = np.zeros_like(known)
    kappa, moment = (known, solved) if to_moments else (solved, known.copy())
    moment[0] = np.eye(known.shape[-1]) if known.ndim > 1 else 1
    for k in range(1, K + 1):
        kappa_at, moment_at = _star_plan(k, free) if a == 2 else _order_plan(k, a, free)
        term = kappa[kappa_at]
        for j in range(moment_at.shape[1]):
            mul(term, moment[moment_at[:, j]], out=term)
        start = _order_start(k, a)
        run = slice(start, start + a ** k)
        if to_moments:
            moment[run] = kappa[run] + term.sum(axis=0)
        else:
            kappa[run] = moment[run] - term.sum(axis=0)
    return solved


@lru_cache(maxsize=None)
def _splice_recipe(p: int, orders: tuple) -> tuple:
    """The splice geometry of _splice_cores, for dim p and the orders of its pieces (0 for empty).

    A slot (x, y) of kappa takes b M b': it splits into (x, i) for b and
    (j, y) for b', with M's own slots between.  The trailing M multiplies
    through b from the right, so the value's pair takes X from kappa and Y
    from M.  Returns, per factor (kappa, then each M in slot order), the
    view of its cores that splits every axis into its p-sized halves, the
    axis order that puts those in the value's order, and the value's shape
    with 1 on the axes the factor lacks; then the value's core shape.  The
    orders determine the first block, so the cache holds one entry per
    first block and dim: 57 per dim up to MAX_MATRIX_ORDER.
    """
    ids = itertools.count()
    head = [next(ids) for _ in range(2 * len(orders))]
    factors, out = [head], []
    for j, order in enumerate(orders):
        x, y = head[2 * j:2 * j + 2]
        if not order:
            out += [x, y]
            continue
        tail = [next(ids) for _ in range(2 * order)]
        factors.append(tail)
        *inner, i, jj = tail
        out += [x, i, *inner, jj, y] if j < len(orders) - 1 else [y, i, *inner, x, jj]
    place = {a: n for n, a in enumerate(out)}
    steps = []
    for axes in factors:
        spots = {place[a] for a in axes}
        perm = sorted(range(len(axes)), key=lambda t: place[axes[t]])
        steps.append(((p,) * len(axes), (0, *(1 + t for t in perm)),
                      tuple(p if n in spots else 1 for n in range(len(out)))))
    return tuple(steps), core_shape(p, len(out) // 2)


def _splice_cores(kappa: np.ndarray, moments: list) -> np.ndarray:
    """Cores of kappa(w|V) with the segment moment cores M in its slots, for a stack of words.

    Axis 0 of kappa and of each M runs over the words; an empty segment's M
    is None.  The geometry comes from _splice_recipe, one cached entry per
    first block: each factor is viewed with its axes split, transposed and
    reshaped to its broadcast shape, all views.  No axis is summed: the
    terms are one broadcast product, kappa first, then the M in slot order.
    """
    steps, shape = _splice_recipe(kappa.shape[-1], tuple(0 if m is None else m.ndim - 2
                                                         for m in moments))
    val = None
    for factor, (split, axes, spread) in zip([kappa] + [m for m in moments if m is not None], steps):
        w = len(factor)
        view = factor.reshape((w,) + split).transpose(axes).reshape((w,) + spread)
        val = view if val is None else np.multiply(val, view, order="C")
    return val.reshape((len(val),) + shape)


# cells of one chunk of an order's cores, in the matrix recursion
_SPLICE_CELLS = 2 ** 15


def _spliced_recursion(data: dict, K: int, to_moments: bool, p: int) -> list:
    """The free recursion for dim-p cores, a chunk of words of one order at a time.

    data is the given side keyed by letters, absent entries exact zeros.
    Returns the other side as one (2^k,) + core array per order k (index 0
    unused), words in code order.  Every word of an order has the same
    splice geometry for a first block V, so each V is spliced once per
    chunk of at most _SPLICE_CELLS cells (at least one word).  A chunk
    gathers its operands through the plan from per-order stacks: the
    solved arrays, and copies of the given side's orders below K.  A block
    whose kappa operands are all zero adds nothing and is skipped.
    """
    words = [None] + [_pattern_words(k)[-2 ** k:] for k in range(1, K + 1)]
    steps = [max(1, _SPLICE_CELLS // p ** (2 * k)) for k in range(K + 1)]

    def stack(k: int) -> np.ndarray:
        arr = np.zeros((2 ** k,) + core_shape(p, k), dtype=complex)
        for code, w in enumerate(words[k]):
            value = data.get(w)
            if value is not None:
                arr[code] = value
        return arr

    # the top order is never an operand
    given = [None] + [stack(j) for j in range(1, K)]
    solved = [None] * (K + 1)
    kappa, moment = (given, solved) if to_moments else (solved, given)

    def operand(stacks, order: int, at: np.ndarray) -> np.ndarray:
        """Cores of one order at the flat indices at."""
        return stacks[order][at - (2 ** order - 1)]

    for k in range(1, K + 1):
        kappa_at, moment_at = _star_plan(k, True)
        blocks = _first_blocks(k, True)[:-1]
        solved[k] = np.zeros((2 ** k,) + core_shape(p, k), dtype=complex)
        for lo in range(0, 2 ** k, steps[k]):
            hi = min(lo + steps[k], 2 ** k)
            lower = solved[k][lo:hi]
            for (block, pieces), kv, at in zip(blocks, kappa_at[:, lo:hi], moment_at[:, :, lo:hi]):
                kap = operand(kappa, len(block), kv)
                if not kap.any():
                    continue
                filled = iter(at)
                lower += _splice_cores(kap, [operand(moment, len(piece), next(filled))
                                             if piece else None for piece in pieces])
            for i, w in enumerate(words[k][lo:hi]):
                value = data.get(w)
                if to_moments:
                    if value is not None:
                        lower[i] += value
                else:
                    np.subtract(0j if value is None else value, lower[i], out=lower[i])
            _require_finite(lower)
    return solved


def _convert(table: _PatternTable, K: int, free: bool, to_moments: bool) -> _PatternTable:
    p = table.dim
    if not free and p != 1:
        raise UnsupportedAlgebraError("classical conversions take scalar tables")
    limit = MAX_SCALAR_ORDER if p == 1 else MAX_MATRIX_ORDER
    if K > limit:
        raise OrderBoundError(f"conversion order {K} exceeds the dim-{p} bound {limit}")
    if K < 0:
        raise OrderBoundError("order must be nonnegative")
    table.require_order(K)
    words = _pattern_words(K)
    out = (MomentTable if to_moments else CumulantTable)(order=K, dim=p)
    if p == 1:
        known = np.array([0j] + [table.data.get(w, 0j) for w in words])
        values = _gathered_recursion(known, K, 2, free, to_moments)[1:]
        _require_finite(values)
        out.data = dict(zip(words, values.tolist()))
        return out
    # the cores are views into one array per order
    for k, cores in enumerate(_spliced_recursion(table.data, K, to_moments, p)[1:], 1):
        out.data.update(zip(words[2 ** k - 2:2 ** (k + 1) - 2], cores))
    return out


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

    One entry of joint_moment_tensor, by the same free first-block recursion
    run on this word's contiguous segments (_free_family_word).  coeffs is
    the interleaved list b_0..b_k (length k+1); identity when omitted.  The
    empty word gives b_0 times the table's identity, complex.  The word is
    checked first; a scalar table's value is then read from its law memo
    when a call on the same law stored it, and built only when absent.
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
    if p == 1:
        value = identity_element(1)
        if k:
            shared = _law_memo(table).setdefault("words", {})
            value = shared.get(_segment_key(letters, idx))
            if value is None:
                value = _free_family_word(table, idx, letters, None, shared)
        return value if coeffs is None else _times_coeff_product(value, coeffs)
    cs = [_coerce_coeff(c, p) for c in coeffs or [identity_element(p)] * (k + 1)]
    return cs[0] @ _free_family_word(table, idx, letters, cs[1:]) if k else np.array(cs[0])


# the scalar law in use: (a snapshot of its table's data, the snapshot's content key, its memo)
_last_law: tuple = (None, None, {})
# the laws not in use, least recently used first: content key -> (memo, its bytes by _law_bytes)
_idle_laws: dict = {}
# bytes the laws not in use may hold (16 MB); past it the oldest go first
_LAW_BYTES = 2 ** 24
# bytes counted per entry of a law's table (its content key) or of its word-segment memo
_ENTRY_BYTES = 250


def _law_bytes(key: frozenset, memo: dict) -> int:
    """What a law holds: its tensors' bytes, and _ENTRY_BYTES per table entry and word segment."""
    entries = len(key) + len(memo.get("words", ()))
    return _ENTRY_BYTES * entries + sum(t.nbytes for n, tensors in memo.items() if n != "words"
                                        for t in tensors.values())


def _law_memo(table) -> dict:
    """The memo of a scalar table's law: word segments under "words", tensors of n copies by letters under n.

    A law is keyed on its table's content (frozenset of its items), so a
    table changed between calls is a new law and a caller never gets another
    law's values.  The law in use is recognised by dict equality alone.  On a
    change of law the one put out of use is kept, and the laws not in use are
    dropped, least recently used first, until their bytes fit _LAW_BYTES.
    The law in use is never dropped, so the memo holds at most that law plus
    16 MB.
    """
    global _last_law
    if _last_law[0] != table.data:
        snapshot = dict(table.data)
        key = frozenset(snapshot.items())
        memo = _idle_laws.pop(key, ({},))[0]
        if _last_law[0] is not None:
            _idle_laws[_last_law[1]] = (_last_law[2], _law_bytes(*_last_law[1:]))
        _last_law = (snapshot, key, memo)
        held = sum(size for _, size in _idle_laws.values())
        while held > _LAW_BYTES:
            held -= _idle_laws.pop(next(iter(_idle_laws)))[1]
    return _last_law[2]


def release_law_memo() -> None:
    """Free every law's memo: the one in use may be large (268 MB after one n=4, order-8 scan)."""
    global _last_law
    _last_law = (None, None, {})
    _idle_laws.clear()


def _segment_key(letters: str, idx: tuple) -> tuple:
    """A word segment's key in the law memo: its letters and its index kernel.

    The kernel gives each position the first position carrying its index,
    so two segments share it exactly when the same positions agree.
    """
    return letters, tuple(map(idx.index, idx))


def _free_family_word(table, idx: tuple, letters: str, cs, shared=None):
    """One entry of _free_family_tensor: its recursion on one word's segments.

    A first block V of a segment counts only where the indices on V agree,
    so V runs over the subsets of the segment's positions that carry its
    first index, in the order of itertools.combinations.  cs is as in
    _free_family_tensor.  A segment's value depends on its letters and its
    index kernel (which of its positions carry equal indices), not on the
    indices themselves or on n.  Scalar segments are memoised in shared,
    the law memo's "words" entry, by _segment_key, with the word's own memo
    by position in front, so a segment is relabelled at most once per word;
    shared starts over when full, at the law budget's _LAW_BYTES //
    _ENTRY_BYTES entries (16 MB).  A scalar term multiplies kappa(w|V) by
    the segments in place, left to right; a matrix term splices them with
    the coefficients.  Matrix segments, which carry this word's
    coefficients, are memoised for this word only (shared is None).
    """
    memo = {}
    get = table.data.get
    zero = zero_element(table.dim)

    def segment(a: int, e: int):
        s = memo.get((a, e))
        if s is None:
            if shared is None:
                s = build(a, e)
            else:
                key = _segment_key(letters[a:e], idx[a:e])
                s = shared.get(key)
                if s is None:
                    s = build(a, e)
                    if len(shared) >= _LAW_BYTES // _ENTRY_BYTES:
                        shared.clear()
                    shared[key] = s
            memo[a, e] = s
        return s

    def build(a: int, e: int):
        same = [j for j in range(a + 1, e) if idx[j] == idx[a]]
        total = zero
        for size in range(len(same) + 1):
            for rest in itertools.combinations(same, size):
                term = get(letters[a] + "".join([letters[j] for j in rest]))
                if term is None:
                    continue
                if cs is None:
                    v = a + 1
                    for end in rest + (e,):
                        if v < end:
                            term *= segment(v, end)
                        v = end + 1
                else:
                    sides = [cs[v] if v + 1 == end else cs[v] @ segment(v + 1, end)
                             for v, end in zip((a,) + rest, rest + (e,))]
                    for side in sides[:-1]:
                        term = np.tensordot(side.reshape(-1), term, axes=(0, 0))
                    term = term @ sides[-1]
                total = total + term
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
    from and kept in its law memo at n; the caller gets its own copy.
    """
    d = StarPattern.coerce(pattern)
    if len(d) != k:
        raise InputMismatchError("pattern length must equal k")
    out = _family_tensor(table, n, d.letters, coeffs)
    return out if out.flags.writeable else out.copy()


def _family_tensor(table, n: int, letters: str, coeffs) -> np.ndarray:
    """_free_family_tensor with the interleaved coefficients b_0..b_k, identity when None.

    A scalar table's tensor comes from its law memo, read-only, and its
    coefficients multiply outside; a matrix table's are spliced in, b_0 first.
    """
    k = len(letters)
    if n ** k > TUPLE_BUDGET:
        raise BudgetError(f"{n}^{k} index words exceed the tuple budget")
    if k == 0:
        raise InputMismatchError("joint moment tensors need k >= 1")
    table.require_order(k)
    if coeffs is not None and len(coeffs) != k + 1:
        raise InputMismatchError(f"need {k + 1} interleaved coefficients")
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


def _free_family_tensor(table, n: int, letters: str, cs) -> np.ndarray:
    """Moments of n free copies on every index word, by the first-block recursion.

    M[w] = sum_{V containing 1} kappa(w|V) delta_V (x) [segment tensors]:
    mixed free cumulants vanish, so kappa(w|V) is the table's value where
    the indices on V agree (delta_V) and zero elsewhere, and the segments
    after each element of V are independent words; absent or zero kappa is
    skipped.  Each slot has an index axis, after a letter axis (0 for 1, 1
    for *) where its letter is EITHER: EITHER * k gives all of order k.
    Scalar tables take cs None; their segments, keyed by letters, are the
    law memo's tensors at n (_law_memo(table)[n]), which this function alone
    reads and fills and every call on one law and n shares, read-only.
    Matrix tables keep their own per call; cs[i] is the coefficient after
    letter i, each segment ends with its last coefficient, and the cores are
    spliced as in _splice_cores: slot t of kappa takes b M(segment t), the
    trailing segment multiplies through b from the right; the (p, p) axes
    come last.
    """
    matrix = cs is not None
    p = table.dim
    memo = {} if matrix else _law_memo(table).setdefault(n, {})

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
        acc = np.zeros(tuple(shape) + ((p, p) if matrix else ()), dtype=complex)
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
                    term = kappa * outer
                else:
                    sides = [cs[a + v] if s is None else np.matmul(cs[a + v], s)
                             for v, s in zip(block, segs)]
                    term = kappa
                    for side in sides[:-1]:
                        term = np.tensordot(term, side.reshape(side.shape[:-2] + (p * p,)),
                                            axes=([0], [-1]))
                    term = np.moveaxis(np.tensordot(term, sides[-1], axes=([1], [-2])), 0, -2)
                sub = view[(slice(None),) + tuple(int(combo[j] == STAR) for j in free)] if free else view
                sub += term
        return acc

    out = segment(0, len(letters))
    del build  # segment and build refer to each other: free the memo with the call, not at gc
    return out


def multivariate_cumulants_from_joint_moments(oracle, K: int) -> MultiCumulantTable:
    """Invert the multivariate moment sum, identity coefficients throughout.

    The oracle exposes .n, .dim and .moment(word, pattern); mixed entries of
    the result are the freeness certificate (zero iff the family is free).
    The free first-block recursion runs on words over the 2n letters
    (index, 1 or *), letter 2(i - 1) + [*].  The flat indices of an order's
    (word, pattern) pairs come at once from their digit arrays, in the
    order the oracle is asked and the result keeps: orders ascending, index
    words in itertools.product order, then patterns in all_patterns order.
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
    values = _gathered_recursion(known, K, a, True, False,
                                 np.multiply if dim == 1 else np.matmul)
    _require_finite(values)
    entries = values[at]
    out = MultiCumulantTable(order=K, n=n, dim=dim)
    out.data = dict(zip(keys, entries.tolist() if dim == 1 else entries))
    return out


def random_cumulant_table(order: int, dim: int = 1, seed: int = 0,
                          scale: float = 0.4) -> CumulantTable:
    """Seeded dense table with magnitudes shrinking by order.

    The scale keeps round-trip conditioning sane: moments are sums over
    partitions of products of entries, so entry size ~ scale^k keeps order-6
    moments near unit scale.
    """
    rng = np.random.default_rng(seed)
    table = CumulantTable(order=order, dim=dim)
    for k in range(1, order + 1):
        for d in StarPattern.all_patterns(k):
            if dim == 1:
                value = (rng.standard_normal() + 1j * rng.standard_normal()) * scale ** k
            else:
                shape = core_shape(dim, k)
                value = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
                value *= scale ** k / dim
            table.set(d, value)
    return table
