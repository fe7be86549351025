"""Partition-sum reference for the cumulant calculus, used only by the tests.

eval_partitioned_free evaluates one partitioned functional by removing
interval blocks one at a time, folding each value into the neighboring
argument.  That peel order exists exactly for noncrossing partitions, which
is why the classical (all-partition) calculus is kept to commuting scalars.
Summed over partitions it is the definition that the first-block recursion
of freesym.cumulants computes: the conversions' values, and the joint
moments of free copies (joint_moment_partition_sum).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from freesym.cumulants import (
    MomentTable,
    _coerce_coeff,
    _ordered_coeff_product,
    identity_element,
    zero_element,
)
from freesym.errors import CrossingPartitionError, InputMismatchError
from freesym.partitions import (
    STAR,
    Partition,
    StarPattern,
    enumerate_all_partitions,
    enumerate_noncrossing,
    kernel,
    noncrossing_cached,
    refines,
)


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


def eval_partitioned_free(table, part: Partition, pattern, coeffs=None, rightmost=False):
    """Nested evaluation of the partitioned functional on concrete arguments.

    Argument j is the variable's pattern[j] power followed by coefficient
    coeffs[j]; a missing coeffs list means identity coefficients throughout.
    For a matrix table a coefficient may also be a stack of p x p matrices;
    the stacks' leading axes broadcast against each other.
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
    cs = [c if np.ndim(c) > 2 else _coerce_coeff(c, p) for c in coeffs]
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


def joint_moment_partition_sum(table, n: int, word, pattern, coeffs=None):
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
        scalar = joint_moment_partition_sum(table, n, word, pattern, None)
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


def scalar_partition_sum(table, K: int, free: bool) -> MomentTable:
    """Moments of a scalar table: the sum over (noncrossing) partitions, all words at once.

    With scalar values and identity coefficients, eval_partitioned_free and
    eval_partitioned_classical both give the product of the blocks' values,
    so each partition's term is gathered for every pattern of an order: a
    block's value is looked up by the code of the letters on it (patterns of
    one order listed as StarPattern.all_patterns lists them, '1' as 0).
    """
    patterns = {k: list(StarPattern.all_patterns(k)) for k in range(1, K + 1)}
    values = {k: np.array([complex(table.data.get(d.letters, 0j)) for d in ds])
              for k, ds in patterns.items()}
    out = MomentTable(order=K)
    for k, ds in patterns.items():
        bits = np.array([[ch == STAR for ch in d.letters] for d in ds], dtype=np.int64)
        total = np.zeros(len(ds), dtype=complex)
        for part in (enumerate_noncrossing if free else enumerate_all_partitions)(k):
            term = np.ones(len(ds), dtype=complex)
            for block in part.blocks:
                code = bits[:, [x - 1 for x in block]] @ (1 << np.arange(len(block) - 1, -1, -1))
                term *= values[len(block)][code]
            total += term
        for d, value in zip(ds, total):
            out.set(d, value)
    return out
