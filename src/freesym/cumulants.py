"""Moment and cumulant tables plus the partitioned functional calculus.

A table stores, per star pattern of each order, the value of a multilinear
functional applied to the variable's pattern of plain/adjoined copies.  For
scalar coefficients (dim 1) a value is a complex number.  For matrix
coefficients (dim p > 1) a value of order k is a *core tensor* of shape
(p*p,)*(k-1) + (p, p): contracting axis t with vec(c) recovers the functional
with coefficient c in slot t, where vec(c)[a*p+b] = c[a, b].  Outer
coefficients are never stored; callers multiply them in.

Conversions use the first-block recursion (Nica & Speicher, Lectures on the
Combinatorics of Free Probability, Lect. 10-11): a partition of a word w is
the block V holding its first letter plus a partition of the rest.
Classically m(w) = sum_V kappa(w|V) m(w|V^c).  Freely the rest splits into
the segments after each element of V, and m(w) = sum_V kappa(w|V)[segment
moments in its slots] b m(trailing segment), b the coefficient after V; for
matrix tables this is Speicher's operator-valued relation (Mem. AMS 132,
1998, no. 627).  Sub-word values are memoised within one conversion,
shortest first, and the inversions solve the same relation for kappa(w).

Joint moment tensors of n free copies (joint_moment_tensor) run the same
free recursion on whole index tensors.  Mixed free cumulants vanish, so a
first block V contributes kappa(w|V) only where the indices on V agree: its
term is the all-equal tensor on V's positions times the segment tensors.

eval_partitioned_free instead evaluates one partitioned functional by
removing interval blocks one at a time, folding each value into the
neighboring argument.  That peel order exists exactly for noncrossing
partitions, which is why the classical (all-partition) calculus here is kept
to commuting scalars.  It is the reference definition: summed over
partitions it gives the conversions' values, and joint_moments_free_family
sums it over the noncrossing partitions refining a word's kernel, which the
joint tensors match word by word.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from functools import lru_cache, reduce

import numpy as np

from .errors import (
    BudgetError,
    CrossingPartitionError,
    IncompleteTableError,
    InputMismatchError,
    OrderBoundError,
    SizeLimitError,
    UnsupportedAlgebraError,
)
from .partitions import (
    ONE,
    Partition,
    StarPattern,
    kernel,
    noncrossing_cached,
    refines,
)

MAX_DIM = 3
MAX_SCALAR_ORDER = 8
MAX_MATRIX_ORDER = 6
MAX_MULTI_ORDER = 6
MAX_ALPHABET = 3
TUPLE_BUDGET = 10**6


def identity_element(dim: int):
    if dim == 1:
        return 1.0 + 0.0j
    return np.eye(dim, dtype=complex)


def zero_element(dim: int, k: int = 1):
    """Zero scalar, or the zero core tensor of order k."""
    if dim == 1:
        return 0.0 + 0.0j
    return np.zeros(core_shape(dim, k), dtype=complex)


def pattern_sort_key(letters: str) -> tuple:
    """Deterministic pattern order: by length, then plain before adjoined."""
    return (len(letters), tuple(0 if ch == ONE else 1 for ch in letters))


def core_shape(dim: int, k: int) -> tuple[int, ...]:
    return (dim * dim,) * (k - 1) + (dim, dim)


def _require_finite(value) -> None:
    arr = np.asarray(value)
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
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

    def patterns(self) -> list[str]:
        return sorted(self.data, key=pattern_sort_key)

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

    def set(self, word, pattern, value) -> None:
        w = tuple(int(i) for i in word)
        d = StarPattern.coerce(pattern)
        if len(w) != len(d):
            raise InputMismatchError("index word and pattern lengths differ")
        _require_finite(value)
        self.data[(w, d.letters)] = (
            complex(value) if self.dim == 1 else np.asarray(value, dtype=complex)
        )

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
# nested evaluation of partitioned functionals


@lru_cache(maxsize=None)
def _peel_plan(blocks: tuple, k: int, rightmost: bool) -> tuple:
    """Order in which interval blocks get removed, with attachment targets.

    Each step is (block, attach, pos): after evaluating the block, its value
    multiplies rights[pos] from the right ("right"), lefts[pos] from the left
    ("left"), or is the final result ("final").  A stuck scan means some pair
    of blocks crosses.
    """
    remaining = list(range(1, k + 1))
    todo = set(blocks)
    steps = []
    while todo:
        spots = []
        for b in todo:
            i = remaining.index(b[0])
            if tuple(remaining[i:i + len(b)]) == b:
                spots.append((i, b))
        if not spots:
            raise CrossingPartitionError(
                f"no interval block left in {sorted(todo)}; partition crosses"
            )
        i, b = max(spots) if rightmost else min(spots)
        if i > 0:
            steps.append((b, "right", remaining[i - 1]))
        elif i + len(b) < len(remaining):
            steps.append((b, "left", remaining[i + len(b)]))
        else:
            steps.append((b, "final", 0))
        del remaining[i:i + len(b)]
        todo.remove(b)
    return tuple(steps)


def _run_plan(plan, block_value, lefts, rights, mul):
    lefts = dict(lefts)
    rights = dict(rights)
    result = None
    for block, attach, pos in plan:
        inners = [mul(rights[a], lefts[b]) for a, b in zip(block, block[1:])]
        val = block_value(block, inners)
        if val is None:
            return None
        val = mul(mul(lefts[block[0]], val), rights[block[-1]])
        if attach == "right":
            rights[pos] = mul(rights[pos], val)
        elif attach == "left":
            lefts[pos] = mul(val, lefts[pos])
        else:
            result = val
    return result


@lru_cache(maxsize=None)
def _block_patterns(blocks: tuple, letters: str) -> tuple[str, ...]:
    return tuple(
        "".join(letters[x - 1] for x in b) for b in blocks
    )


def _apply_core(core: np.ndarray, inners: list, dim: int) -> np.ndarray:
    """Contract a core tensor with vec'd coefficient arrays (broadcasting)."""
    s = len(inners) + 1
    if s == 1:
        return core
    letters = "abcdefg"[: s - 1]
    operands = []
    subs = []
    for t, inner in enumerate(inners):
        v = inner.reshape(inner.shape[:-2] + (dim * dim,))
        operands.append(v)
        subs.append("..." + letters[t])
    expr = letters + "xy," + ",".join(subs) + "->...xy"
    return np.einsum(expr, core, *operands)


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


def eval_partitioned_free(table, part: Partition, pattern, coeffs=None, rightmost=False):
    """Nested evaluation of the partitioned functional on concrete arguments.

    Argument j is the variable's pattern[j] power followed by coefficient
    coeffs[j]; a missing coeffs list means identity coefficients throughout.
    Raises CrossingPartitionError when the partition admits no peel order.
    """
    d = StarPattern.coerce(pattern)
    k = part.k
    if len(d) != k:
        raise InputMismatchError("pattern length must match the partition size")
    if coeffs is None:
        coeffs = [identity_element(table.dim)] * k
    if len(coeffs) != k:
        raise InputMismatchError(f"need {k} coefficients, got {len(coeffs)}")
    table.require_order(max((len(b) for b in part.blocks), default=0))
    if k == 0:
        return identity_element(table.dim)
    p = table.dim
    subs = _block_patterns(part.blocks, d.letters)
    if p == 1 and all(np.asarray(c).ndim == 0 for c in coeffs):
        def block_value(block, inners):
            v = table.data.get(subs[block_index[block]])
            if v is None:
                return None
            for inner in inners:
                v = v * inner
            return v
        block_index = {b: i for i, b in enumerate(part.blocks)}
        lefts = {pos: 1.0 + 0.0j for pos in range(1, k + 1)}
        rights = {pos: complex(coeffs[pos - 1]) for pos in range(1, k + 1)}
        val = _run_plan(_peel_plan(part.blocks, k, rightmost), block_value, lefts, rights,
                        lambda a, b: a * b)
        return 0.0 + 0.0j if val is None else val
    if p == 1:
        raise InputMismatchError("matrix coefficients need a matrix-valued table")
    cs = [_coerce_coeff(c, p) for c in coeffs]
    block_index = {b: i for i, b in enumerate(part.blocks)}

    def block_value(block, inners):
        core = table.data.get(subs[block_index[block]])
        if core is None:
            return None
        return _apply_core(core, inners, p)

    ident = np.eye(p, dtype=complex)
    lefts = {pos: ident for pos in range(1, k + 1)}
    rights = {pos: cs[pos - 1] for pos in range(1, k + 1)}
    val = _run_plan(_peel_plan(part.blocks, k, rightmost), block_value, lefts, rights, np.matmul)
    return np.zeros((p, p), dtype=complex) if val is None else val


def eval_partitioned_classical(table, part: Partition, pattern, coeffs=None):
    """Product of per-block functional values, blocks in canonical order.

    Valid for any partition, crossing or not.  With matrix coefficients the
    product-of-blocks order is the canonical one; callers wanting commuting
    semantics should stick to scalars.
    """
    d = StarPattern.coerce(pattern)
    k = part.k
    if len(d) != k:
        raise InputMismatchError("pattern length must match the partition size")
    if coeffs is None:
        coeffs = [identity_element(table.dim)] * k
    if len(coeffs) != k:
        raise InputMismatchError(f"need {k} coefficients, got {len(coeffs)}")
    table.require_order(max((len(b) for b in part.blocks), default=0))
    if k == 0:
        return identity_element(table.dim)
    p = table.dim
    subs = _block_patterns(part.blocks, d.letters)
    if p == 1:
        out = 1.0 + 0.0j
        for sub in subs:
            v = table.data.get(sub)
            if v is None:
                return 0.0 + 0.0j
            out *= v
        for c in coeffs:
            out *= complex(c)
        return out
    cs = [_coerce_coeff(c, p) for c in coeffs]
    out = np.eye(p, dtype=complex)
    for b, sub in zip(part.blocks, subs):
        core = table.data.get(sub)
        if core is None:
            return np.zeros((p, p), dtype=complex)
        inners = [cs[pos - 1] for pos in b[:-1]]
        out = out @ _apply_core(core, inners, p) @ cs[b[-1] - 1]
    return out


# ---------------------------------------------------------------------------
# moment <-> cumulant conversions


@lru_cache(maxsize=None)
def _first_blocks(k: int, free: bool) -> tuple:
    """Every block V of a k-letter word that holds position 0, the whole word last.

    Each V comes with the position tuples whose moments multiply kappa(w|V).
    Free: one segment after each element of V, running to the next element or
    to the end (empty segments are ()).  Classical: the complement of V.
    The cache holds one entry per (k, free), k at most MAX_SCALAR_ORDER.
    """
    out = []
    for mask in range(2 ** (k - 1)):
        block = (0,) + tuple(i for i in range(1, k) if mask >> (i - 1) & 1)
        if free:
            ends = block[1:] + (k,)
            pieces = tuple(tuple(range(v + 1, e)) for v, e in zip(block, ends))
        else:
            pieces = (tuple(i for i in range(k) if i not in block),)
        out.append((block, pieces))
    return tuple(out)


def _product_term(mul):
    """kappa(w|V) times the piece moments in order; None marks an empty segment."""
    return lambda kappa, moments: reduce(mul, [m for m in moments if m is not None], kappa)


def _splice_cores(kappa: np.ndarray, moments: list) -> np.ndarray:
    """Core of kappa(w|V) with the segment moment cores M in its slots.

    A slot (x, y) of kappa takes b M b': it splits into (x, i) for b and
    (j, y) for b', with M's own slots between.  The trailing M multiplies
    through b from the right, so the value's pair takes X from kappa and Y
    from M.  No axis is summed: the term is a broadcast product.
    """
    p = kappa.shape[-1]
    ids = itertools.count()
    head = [next(ids) for _ in range(2 * len(moments))]
    factors, out = [(kappa, head)], []
    for j, m in enumerate(moments):
        x, y = head[2 * j:2 * j + 2]
        if m is None:
            out += [x, y]
            continue
        tail = [next(ids) for _ in range(2 * m.ndim - 2)]
        factors.append((m, tail))
        *inner, i, jj = tail
        out += [x, i, *inner, jj, y] if j < len(moments) - 1 else [y, i, *inner, x, jj]
    place = [out.index(a) for a in range(len(out))]
    val = None
    for factor, axes in factors:
        spots = [place[a] for a in axes]
        view = factor.reshape((p,) * len(axes)).transpose(np.argsort(spots))
        view = np.expand_dims(view, tuple(n for n in range(len(out)) if n not in spots))
        val = view if val is None else np.multiply(val, view, order="C")
    return val.reshape(core_shape(p, len(out) // 2))


def _first_block_recursion(words, given, to_moments: bool, free: bool, term, zero, cat) -> dict:
    """m(w) = kappa(w) + sum over _first_blocks(V) of term(kappa(w|V), piece moments).

    given(w) is the known side (None when absent); every sub-word is shorter
    than w, so words in order of length find both sides already memoised.
    Returns the other side for every word.
    """
    kappa, moment = {}, {}
    blocks = {k: _first_blocks(k, free)[:-1] for k in {len(w) for w in words}}
    for w in words:
        k = len(w)
        lower = zero(k)
        for block, pieces in blocks[k]:
            kv = kappa.get(cat([w[i] for i in block]))
            if kv is not None:
                lower += term(kv, [moment[cat([w[i] for i in piece])] if piece else None
                                   for piece in pieces])
        value = given(w)
        if to_moments:
            if value is not None:
                kappa[w] = value
                lower += value
            moment[w] = lower
        else:
            moment[w] = zero(k) if value is None else value
            kappa[w] = moment[w] - lower
    return moment if to_moments else kappa


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
    words = [d.letters for k in range(1, K + 1) for d in StarPattern.all_patterns(k)]
    term = _product_term(operator.mul) if p == 1 else _splice_cores
    values = _first_block_recursion(words, table.data.get, to_moments, free, term,
                                    lambda k: zero_element(p, k), "".join)
    out = (MomentTable if to_moments else CumulantTable)(order=K, dim=p)
    for w in words:
        out.set(w, values[w])
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

    Mixed cumulants of free variables vanish, so only noncrossing partitions
    refining the word's kernel contribute.  coeffs is the interleaved list
    b_0..b_k (length k+1); identity when omitted.
    """
    d = StarPattern.coerce(pattern)
    idx = tuple(int(i) for i in word)
    k = len(idx)
    if len(d) != k:
        raise InputMismatchError("index word and pattern lengths differ")
    if any(not 1 <= i <= n for i in idx):
        raise InputMismatchError(f"index word entries must lie in 1..{n}")
    if coeffs is not None and len(coeffs) != k + 1:
        raise InputMismatchError(f"need {k + 1} interleaved coefficients")
    if k == 0:
        out = identity_element(table.dim)
        if coeffs is not None:
            out = coeffs[0] if np.asarray(coeffs[0]).ndim else complex(coeffs[0])
        return out
    table.require_order(k)

    scalar_coeffs = coeffs is None or all(np.asarray(c).ndim == 0 for c in coeffs)
    if table.dim == 1 and not scalar_coeffs:
        # scalar spec with matrix coefficients: the coefficients ride along
        scalar = joint_moments_free_family(table, n, word, pattern, None)
        return scalar * _ordered_coeff_product(coeffs)

    ker = kernel(idx)
    inner = None
    if coeffs is not None:
        inner = list(coeffs[1:])
    acc = zero_element(table.dim)
    for part in noncrossing_cached(k):
        if not refines(part, ker):
            continue
        val = eval_partitioned_free(table, part, d.letters, inner)
        acc = acc + val
    if coeffs is not None:
        b0 = coeffs[0]
        if table.dim == 1:
            acc = complex(b0) * acc
        else:
            acc = _coerce_coeff(b0, table.dim) @ acc
    return acc


def joint_moment_tensor(table: CumulantTable, n: int, k: int, pattern, coeffs=None):
    """All joint moments of length k at once, indexed by the word.

    Returns shape (n,)*k for scalar tables, (n,)*k+(p,p) for matrix ones
    (and for scalar tables with matrix coefficients).  coeffs is the
    interleaved list b_0..b_k, identity when omitted.  Computed by the free
    first-block recursion on whole index tensors; joint_moments_free_family
    is the pointwise definition it matches.
    """
    return _joint_moment_tensor(table, n, k, pattern, coeffs, {})


def _joint_moment_tensor(table, n: int, k: int, pattern, coeffs, memo: dict):
    """joint_moment_tensor with a caller-owned memo of segment tensors.

    The memo is keyed by segment letters and coefficients only, so it may be
    shared by every call on the same (table, n).  The result is always a
    fresh array.
    """
    d = StarPattern.coerce(pattern)
    if len(d) != k:
        raise InputMismatchError("pattern length must equal k")
    if n ** k > TUPLE_BUDGET:
        raise BudgetError(f"{n}^{k} index words exceed the tuple budget")
    if k == 0:
        raise InputMismatchError("joint moment tensors need k >= 1")
    table.require_order(k)
    if coeffs is not None and len(coeffs) != k + 1:
        raise InputMismatchError(f"need {k + 1} interleaved coefficients")
    p = table.dim
    if p == 1:
        # scalar coefficients commute out of every term
        tensor = _free_family_tensor(table, n, d.letters, None, memo)
        if coeffs is None:
            return tensor.copy()
        if any(np.asarray(c).ndim for c in coeffs):
            return tensor[..., None, None] * _ordered_coeff_product(coeffs)
        return tensor * reduce(operator.mul, (complex(c) for c in coeffs))
    if coeffs is None:
        coeffs = [identity_element(p)] * (k + 1)
    cs = [_coerce_coeff(c, p) for c in coeffs]
    return np.matmul(cs[0], _free_family_tensor(table, n, d.letters, cs[1:], memo))


def _diagonal(acc: np.ndarray, block) -> np.ndarray:
    """Writable view of acc whose leading axis runs along the block's common index.

    The block's axes merge into that one axis; the other axes follow in order.
    """
    rest = [ax for ax in range(acc.ndim) if ax not in block]
    shape = (acc.shape[block[0]],) + tuple(acc.shape[ax] for ax in rest)
    strides = (sum(acc.strides[ax] for ax in block),) + tuple(acc.strides[ax] for ax in rest)
    return np.ndarray(shape, acc.dtype, buffer=acc, strides=strides)


def _free_family_tensor(table, n: int, letters: str, cs, memo: dict) -> np.ndarray:
    """Moments of n free copies on every index word, by the first-block recursion.

    M[w] = sum_{V containing 1} kappa(w|V) delta_V (x) [segment tensors]:
    mixed free cumulants vanish, so kappa(w|V) is the table's value where
    the indices on V agree (delta_V) and zero elsewhere, and the segments
    after each element of V are independent words.  cs is None for scalar
    tables (identity coefficients); for matrix tables cs[i] is the
    coefficient after letter i, each segment value ends with its last
    coefficient, and the cores are spliced as in _splice_cores: slot t of
    kappa takes b M(segment t), the trailing segment multiplies through b
    from the right.  Index axes come first, in word order.
    """
    matrix = cs is not None
    p = table.dim
    coeff_keys = [c.tobytes() for c in cs] if matrix else []

    def segment(a: int, e: int) -> np.ndarray:
        key = (letters[a:e], tuple(coeff_keys[a:e]))
        value = memo.get(key)
        if value is None:
            value = memo[key] = build(a, e)
        return value

    def build(a: int, e: int) -> np.ndarray:
        word = letters[a:e]
        acc = np.zeros((n,) * len(word) + ((p, p) if matrix else ()), dtype=complex)
        for block, pieces in _first_blocks(len(word), True):
            kappa = table.data.get("".join([word[i] for i in block]))
            if kappa is None:
                continue
            segs = [segment(a + piece[0], a + piece[-1] + 1) if piece else None
                    for piece in pieces]
            if not matrix:
                term = kappa
                for s in segs:
                    if s is not None:
                        term = np.multiply.outer(term, s)
            else:
                sides = [cs[a + v] if s is None else np.matmul(cs[a + v], s)
                         for v, s in zip(block, segs)]
                term = kappa
                for side in sides[:-1]:
                    term = np.tensordot(term, side.reshape(side.shape[:-2] + (p * p,)),
                                        axes=([0], [-1]))
                term = np.moveaxis(np.tensordot(term, sides[-1], axes=([1], [-2])), 0, -2)
            view = _diagonal(acc, block)
            view += term
        return acc

    return segment(0, len(letters))


def multivariate_cumulants_from_joint_moments(oracle, K: int) -> MultiCumulantTable:
    """Invert the multivariate moment sum, identity coefficients throughout.

    The oracle exposes .n, .dim and .moment(word, pattern); mixed entries of
    the result are the freeness certificate (zero iff the family is free).
    The free first-block recursion runs on words of (index, letter) pairs.
    """
    n = int(oracle.n)
    dim = int(getattr(oracle, "dim", 1))
    if K > MAX_MULTI_ORDER:
        raise OrderBoundError(f"multivariate order bound is {MAX_MULTI_ORDER}")
    if n > MAX_ALPHABET:
        raise OrderBoundError(f"multivariate alphabet bound is {MAX_ALPHABET}")
    source = {tuple(zip(word, d.letters)): (word, d)
              for k in range(1, K + 1)
              for word in itertools.product(range(1, n + 1), repeat=k)
              for d in StarPattern.all_patterns(k)}

    def given(w):
        moment = oracle.moment(*source[w])
        return complex(moment) if dim == 1 else np.asarray(moment, dtype=complex)

    mul = operator.mul if dim == 1 else operator.matmul
    values = _first_block_recursion(list(source), given, False, True, _product_term(mul),
                                    lambda k: zero_element(dim), tuple)
    out = MultiCumulantTable(order=K, n=n, dim=dim)
    for w, (word, d) in source.items():
        out.set(word, d, values[w])
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
