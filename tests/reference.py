"""References used only by the tests: partition sums and hand-written lattices.

eval_partitioned_free evaluates one partitioned functional by removing
interval blocks one at a time, folding each value into the neighboring
argument.  That peel order exists exactly for noncrossing partitions, which
is why the classical (all-partition) calculus is kept to commuting scalars.
Summed over partitions it is the definition that the first-block recursion
of freesym.cumulants computes: the conversions' values, and the joint
moments of free copies (joint_moment_partition_sum).

reference_family_below, reference_implies and reference_classify write the
family lattice, the class lattice and the class conditions out by hand, as
the package did before it derived them from the easy-category table
(freesym.easy); the derived code must agree with them.  reference_closure is
the hand rule lattice_position used before it took the table's meet; the
meet agrees with it except on a named list of satisfied sets.
reference_lattice_position is lattice_position as it was before it reduced
over the family order's bitsets: every reduction a loop over pairs of
families on reference_family_below.

reference_delta_identity forms a d > 1 delta identity one index tuple at a
time, for the streamed kernel of freesym.qgroups to agree with.
reference_commuting_delta forms a d = 1 one over the sorted index tuples of
each letter class, each class's product taken factor by factor, as
freesym.qgroups did before it took powers over exponent vectors.

The reference_* relation residuals, reference_check_biunitary,
reference_block_identity_holds, reference_identity_failures,
reference_structural_consequences and reference_coproduct_lift compute
every entrywise relation one entry, pair or triple at a time, one operator
norm each, as freesym.qgroups did before it reduced whole stacks
(qgroups._worst); the stacked code must agree with them bit for bit.

hadamard is the entrywise product the acceptance gate contracts with.

boolean_partition_sum is the Boolean cumulant by its definition, the sum
over the noncrossing partitions whose block of the first letter holds the
last one, that the free conversions of freesym.cumulants compute on the way.

reference_splice splices one matrix block's cores one output cell at a time,
kappa's entry times each segment moment's entry in slot order, from the
operator-valued relation itself; freesym.cumulants._splice_cores, which
takes its geometry from a cached recipe and multiplies whole views, must
agree with it bit for bit.

reference_first_violation finds an invariance scan's first violating cell
with np.argwhere over each whole order, as freesym.invariance did before it
took the first True cell by argmax.  It reads only the joint's order tensors
and sums the action and takes the norms its own way (np.einsum, LAPACK's
SVD), so the cells must agree exactly and the residuals to rounding.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from freesym.cumulants import (
    MomentTable,
    _coerce_coeff,
    _ordered_coeff_product,
    core_shape,
    identity_element,
    pattern_sort_key,
)
from freesym.distributions import ClassTag
from freesym.easy import M_MAX_DEFAULT, FamilyTag, all_family_tags
from freesym.errors import CrossingPartitionError, IncompleteTableError, InputMismatchError
from freesym.invariance import matrix_b_coeffs
from freesym.partitions import (
    ONE,
    STAR,
    Partition,
    StarPattern,
    enumerate_all_partitions,
    enumerate_noncrossing,
    kernel,
    noncrossing_cached,
    refines,
)
from freesym.qgroups import (
    _WITNESS_TIE,
    Check,
    MatrixRep,
    _standard_scan_patterns,
    check_family,
    full_delta_identity_holds,
    operator_norm,
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
    acc = 0j  # the finest partition refines every kernel, so a matrix table's sum is a matrix
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


def boolean_partition_sum(table, pattern, coeffs=None):
    """The Boolean cumulant of one pattern: the sum over the noncrossing partitions with 1 and k in one block.

    coeffs as for eval_partitioned_free; a stack of coefficients gives a
    stack of values.
    """
    k = len(StarPattern.coerce(pattern))
    return sum(eval_partitioned_free(table, part, pattern, coeffs) for part in noncrossing_cached(k)
               if any(block[0] == 1 and block[-1] == k for block in part.blocks))


def reference_splice(kappa: np.ndarray, moments: list) -> np.ndarray:
    """The cores of kappa(w|V) with the segment moments in its slots, one output cell at a time.

    Axis 0 of kappa and of each segment's cores M runs over the words; an
    empty segment is None.  V's elements sit at positions v_0 = 0 < v_1 <
    ...; segment j runs from v_j + 1 to the next element (the last one to
    the end), and output slot t, the coefficient b_t = E(r_t, c_t) between
    letters t and t + 1, ends in the pair (X, Y).  Slot j of kappa takes
    b_{v_j} M_j b'_{e_j}, e_j the slot before V's next element, so kappa
    reads (r at v_j, c at e_j) and M_j ends in (c at v_j, r at e_j); the
    trailing segment multiplies through b_{v_last} from the right, so kappa
    ends in (X, r at v_last) and M in (c at v_last, Y).  A segment's inner
    slots are the output slots between its letters.  Each cell multiplies
    kappa's entry by each M's entry, in slot order.
    """
    p = kappa.shape[-1]
    orders = [0 if m is None else m.ndim - 2 for m in moments]
    starts = list(itertools.accumulate([1 + o for o in orders[:-1]], initial=0))
    k = len(orders) + sum(orders)
    out = np.zeros((len(kappa),) + (p,) * (2 * k), dtype=complex)
    factors = [f.reshape((len(f),) + (p,) * (2 * f.ndim - 4)) for f in [kappa] + moments if f is not None]
    for cell in itertools.product(range(p), repeat=2 * k):
        slots = [cell[2 * t:2 * t + 2] for t in range(k - 1)]
        X, Y = cell[-2:]
        at_kappa, at_moments = [], []
        for j, (v, o) in enumerate(zip(starts, orders)):
            last = j == len(orders) - 1
            if not o:
                at_kappa += (X, Y) if last else slots[v]
                continue
            inner = [i for t in range(v + 1, v + o) for i in slots[t]]
            if last:
                at_kappa += (X, slots[v][0])
                at_moments.append(inner + [slots[v][1], Y])
            else:
                e = v + o
                at_kappa += (slots[v][0], slots[e][1])
                at_moments.append(inner + [slots[v][1], slots[e][0]])
        value = factors[0][(slice(None), *at_kappa)]
        for factor, at in zip(factors[1:], at_moments):
            value = value * factor[(slice(None), *at)]
        out[(slice(None), *cell)] = value
    return out.reshape((len(kappa),) + core_shape(p, k))


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
    data = {}
    for k, ds in patterns.items():
        bits = np.array([[ch == STAR for ch in d.letters] for d in ds], dtype=np.int64)
        total = np.zeros(len(ds), dtype=complex)
        for part in (enumerate_noncrossing if free else enumerate_all_partitions)(k):
            term = np.ones(len(ds), dtype=complex)
            for block in part.blocks:
                code = bits[:, [x - 1 for x in block]] @ (1 << np.arange(len(block) - 1, -1, -1))
                term *= values[len(block)][code]
            total += term
        data.update(zip(ds, total))
    return MomentTable(order=K, data=data)


def reference_family_below(a, b) -> bool:
    """Whether family a sits inside family b, by hand."""
    if a.classical != b.classical:
        return False
    if a.kind == b.kind:
        if a.kind == "H_M_PLUS":
            return b.m % a.m == 0
        return True
    if b.kind == "U_PLUS" or a.kind == "S_PLUS":
        return True
    above = {
        "B_S_PLUS": lambda t: t.kind in ("B_PLUS", "O_PLUS"),
        "H_S_PLUS": lambda t: t.kind in ("O_PLUS", "H_0_PLUS", "H_PRIME_PLUS")
        or (t.kind == "H_M_PLUS" and t.m % 2 == 0),
        "H_M_PLUS": lambda t: t.kind in ("H_0_PLUS", "H_PRIME_PLUS"),
        "H_0_PLUS": lambda t: t.kind == "H_PRIME_PLUS",
        "O_PLUS": lambda t: False,
        "B_PLUS": lambda t: False,
        "H_PRIME_PLUS": lambda t: False,
        "U_PLUS": lambda t: False,
    }
    return above[a.kind](b)


def reference_implies(a, b) -> bool:
    """Whether class a forces class b, by hand: inclusion of the admissible pattern sets."""
    if a.classical != b.classical:
        raise InputMismatchError("cannot compare free and classical tags")
    if a == b:
        return True
    free = not a.classical
    unitary = "FREE_UNITARY" if free else "UNITARY"
    pair_alt = "CIRCULAR" if free else "COMPLEX_GAUSSIAN"
    quadratic = "SEMICIRCULAR" if free else "GAUSSIAN"
    shifted_pair_alt = "SHIFTED_CIRCULAR" if free else "SHIFTED_COMPLEX_GAUSSIAN"
    ka, kb = a.kind, b.kind
    if ka == pair_alt and kb in ("ORTHOGONAL", "SYMMETRIC", "R_DIAGONAL", unitary, "M_UNITARY"):
        return True
    if ka == "R_DIAGONAL" and kb in (unitary, "M_UNITARY", "SYMMETRIC"):
        return True
    if ka == unitary and kb in ("M_UNITARY", "SYMMETRIC"):
        return True
    if ka == "M_UNITARY":
        if kb == "M_UNITARY":
            return a.m % b.m == 0
        if kb == "SYMMETRIC":
            return a.m % 2 == 0
    if ka == quadratic and kb in ("ORTHOGONAL", "SYMMETRIC"):
        return True
    if ka == "ORTHOGONAL" and kb == "SYMMETRIC":
        return True
    if ka == shifted_pair_alt and kb == "SHIFTED_ORTHOGONAL":
        return True
    return False


def _conditions(patterns, m_scan: int) -> dict:
    return {
        "even": all(len(d) % 2 == 0 for d in patterns),
        "pairs": all(len(d) == 2 for d in patterns),
        "balanced": all(d.imbalance == 0 for d in patterns),
        "alternating": all(d.imbalance == 0 and d.is_strictly_alternating() for d in patterns),
        "two_alternating": all(d.letters in ("1*", "*1") for d in patterns),
        "moduli": [m for m in range(3, m_scan + 1) if all(d.imbalance % m == 0 for d in patterns)],
    }


def reference_classify(spec, K: int, free: bool, m_scan: int):
    """(tags, noncanonical shifted names) of a scalar spec, by hand-written conditions."""
    if K > spec.order:
        raise IncompleteTableError(f"spec declares order {spec.order}, classification needs {K}")

    def Tag(kind, m=None):
        return ClassTag(kind, m, not free)

    def nonzero(table):
        return [StarPattern(letters) for letters, value in table.data.items() if len(letters) <= K and value != 0]

    table = spec.to_table()
    patterns = nonzero(table)
    cond = _conditions(patterns, m_scan)
    tags = set()
    if cond["even"]:
        tags.add(Tag("SYMMETRIC"))
    if cond["pairs"]:
        tags.add(Tag("ORTHOGONAL"))
        if spec.selfadjoint:
            tags.add(Tag("SEMICIRCULAR" if free else "GAUSSIAN"))
    for m in cond["moduli"]:
        tags.add(Tag("M_UNITARY", m))
    if cond["balanced"]:
        tags.add(Tag("FREE_UNITARY" if free else "UNITARY"))
    if free and cond["alternating"]:
        tags.add(Tag("R_DIAGONAL"))
    if cond["two_alternating"]:
        tags.add(Tag("CIRCULAR" if free else "COMPLEX_GAUSSIAN"))

    noncanonical = []
    # either order-1 entry carries the shift: a declared pair may disagree
    if table.data.get("1", 0) != 0 or table.data.get("*", 0) != 0:
        cpatterns = [d for d in patterns if len(d) > 1]
        ccond = _conditions(cpatterns, m_scan)
        if ccond["pairs"]:
            tags.add(Tag("SHIFTED_ORTHOGONAL"))
        if ccond["two_alternating"]:
            tags.add(Tag("SHIFTED_CIRCULAR" if free else "SHIFTED_COMPLEX_GAUSSIAN"))
        if free and ccond["alternating"] and not ccond["two_alternating"]:
            noncanonical.append("SHIFTED_R_DIAGONAL")
        if ccond["balanced"] and not ccond["alternating"]:
            noncanonical.append("SHIFTED_FREE_UNITARY" if free else "SHIFTED_UNITARY")
        if ccond["even"] and not ccond["pairs"]:
            noncanonical.append("SHIFTED_SYMMETRIC")
    return tags, noncanonical


def reference_report(spec, K: int, free: bool) -> dict:
    """classify_report built on reference_classify and reference_implies."""
    m_scan = min(max(3, K), M_MAX_DEFAULT)
    tags, noncanonical = reference_classify(spec, K, free, m_scan)
    minimal = {t for t in tags if not any(s != t and reference_implies(s, t) for s in tags)}
    return {
        "tags": sorted(t.label() for t in tags),
        "minimal": sorted(t.label() for t in minimal),
        "noncanonical_shifted": noncanonical,
        "m_scan": m_scan,
    }


def reference_closure(satisfied):
    """The family a set of satisfied families implies, by hand: S_PLUS when
    a B-side and a reflection family both hold, otherwise from the gcd of
    the H_M_PLUS moduli (2 for O_PLUS and H_S_PLUS); None when no modulus
    is satisfied."""
    kinds = {t.kind for t in satisfied}
    reflection = bool(kinds & {"H_S_PLUS", "H_M_PLUS", "H_0_PLUS", "H_PRIME_PLUS"})
    bside = bool(kinds & {"B_PLUS", "B_S_PLUS", "S_PLUS"})
    indices = {t.m for t in satisfied if t.kind == "H_M_PLUS"}
    if kinds & {"O_PLUS", "H_S_PLUS"}:
        indices.add(2)
    if bside and reflection:
        return FamilyTag("S_PLUS")
    if not indices:
        return None
    g = math.gcd(*indices)
    if g >= 3:
        return FamilyTag("H_M_PLUS", g)
    if g == 2:
        return FamilyTag("H_S_PLUS") if kinds & {"H_S_PLUS", "H_M_PLUS"} else FamilyTag("O_PLUS")
    return FamilyTag("S_PLUS")


def reference_lattice_position(rep, m_max: int) -> dict:
    """satisfied, minimal, upward_consistent and closure of a model, each
    family checked on its own and every order question asked pair by pair."""
    tags = all_family_tags(m_max)
    satisfied = {t for t in tags if check_family(rep, t).holds}
    minimal = {t for t in satisfied if not any(s != t and reference_family_below(s, t) for s in satisfied)}
    upward = all(t in satisfied for s in satisfied for t in tags if reference_family_below(s, t))
    lower = [t for t in tags if minimal and all(reference_family_below(t, f) for f in minimal)]
    implied = next((t for t in lower if all(reference_family_below(s, t) for s in lower)), None)
    indices = {t.m for t in satisfied if t.kind == "H_M_PLUS"}
    if any(t.kind in ("O_PLUS", "H_S_PLUS") for t in satisfied):
        indices.add(2)
    return {
        "satisfied": sorted(t.label() for t in satisfied),
        "minimal": sorted(t.label() for t in minimal),
        "upward_consistent": upward,
        "closure": {
            "indices": sorted(indices),
            "implied": implied.label() if implied is not None else None,
            "consistent": implied is None or implied in satisfied,
        },
    }


def hadamard(u, v):
    """Entrywise product of two models (blockwise for d > 1) or of two square arrays."""
    if isinstance(u, MatrixRep) and isinstance(v, MatrixRep):
        if u.entries.shape != v.entries.shape:
            raise InputMismatchError("shape mismatch in entrywise product")
        prod = np.einsum("ijxy,ijyz->ijxz", u.entries, v.entries)
        return MatrixRep(prod, tol=max(u.tol, v.tol))
    a = np.asarray(u, dtype=complex)
    b = np.asarray(v, dtype=complex)
    if a.shape != b.shape or a.ndim != 2:
        raise InputMismatchError("entrywise product needs equal square shapes")
    return a * b


def reference_sum_condition_residual(rep: MatrixRep) -> float:
    eye = np.eye(rep.d)
    worst = 0.0
    for i in range(rep.n):
        worst = max(worst, operator_norm(rep.entries[i].sum(axis=0) - eye))
        worst = max(worst, operator_norm(rep.entries[:, i].sum(axis=0) - eye))
    return worst


def reference_projection_residual(rep: MatrixRep, power: int) -> float:
    """How far the power-th power of each entry is from a projection."""
    worst = 0.0
    for a in rep.entries.reshape(-1, rep.d, rep.d):
        p = np.linalg.matrix_power(a, power)
        worst = max(worst, operator_norm(p @ p - p), operator_norm(p - p.conj().T))
    return worst


def reference_commutativity_residual(rep: MatrixRep) -> float:
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


def _unitarity_residuals(mat: np.ndarray) -> tuple[float, float]:
    eye = np.eye(mat.shape[0])
    left = operator_norm(mat.conj().T @ mat - eye)
    right = operator_norm(mat @ mat.conj().T - eye)
    return left, right


def reference_check_biunitary(rep: MatrixRep) -> Check:
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


def reference_block_identity_holds(rep: MatrixRep, pattern, j: int) -> Check:
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


def reference_delta_identity(rep: MatrixRep, pattern) -> Check:
    """A delta identity one index tuple at a time, in lexicographic order.

    Each tuple extends its prefix's products u^(c_1)_(a i_1) ... u^(c_t)_(a i_t),
    one per summed row a, by slot t's entry on the right, so every product
    is taken in slot order.  A full tuple's entry is their sum over a, minus
    I on the constant tuples; its residual is LAPACK's largest singular
    value, and the witness is the first tuple within the tie floor of the
    worst (qgroups._WITNESS_TIE of max(1, worst)).
    """
    letters = StarPattern.coerce(pattern).letters
    n, d, k = rep.n, rep.d, len(letters)
    slots = [rep.letter_array(c) for c in letters]
    entries = np.empty((n**k, d, d), dtype=complex)
    tuples = []

    def extend(prefix: tuple, prods) -> None:
        t = len(prefix)
        if t == k:
            entry = prods.sum(axis=0)
            if len(set(prefix)) == 1:
                entry -= np.eye(d)
            entries[len(tuples)] = entry
            tuples.append(prefix)
            return
        for i in range(n):
            extend(prefix + (i,), slots[0][:, i] if t == 0 else prods @ slots[t][:, i])

    extend((), None)
    norms = np.linalg.svd(entries, compute_uv=False)[:, 0]
    worst = float(norms.max())
    floor = worst - _WITNESS_TIE * max(1.0, worst)
    witness = tuples[int(np.argmax(norms >= floor))]
    return Check(holds=worst <= rep.tol, residual=worst, witness=witness)


def reference_commuting_delta(rep: MatrixRep, pattern) -> Check:
    """A delta identity on a d = 1 model over the sorted tuples of each class.

    An entry is sum_a of the direct products of u_ai over the sorted 1-slot
    indices and of conj(u_ai) over the sorted *-slot ones, minus 1 on the
    constant tuples.  The witness is the lexicographically first full tuple
    (each class's sorted indices in its slots in order) within the tie floor.
    """
    letters = StarPattern.coerce(pattern).letters
    u = rep.entries[:, :, 0, 0]
    slots = [[t for t, c in enumerate(letters) if c == letter] for letter in (ONE, STAR)]
    tuples, prods = [], []
    for where, base in zip(slots, (u, u.conj())):
        tuples.append(np.array(list(itertools.combinations_with_replacement(range(rep.n), len(where))),
                               dtype=np.intp, ndmin=2))
        prods.append(np.prod(base[:, tuples[-1]], axis=-1))
    full = np.empty((len(tuples[0]), len(tuples[1]), len(letters)), dtype=np.intp)
    full[:, :, slots[0]] = tuples[0][:, None, :]
    full[:, :, slots[1]] = tuples[1][None, :, :]
    full = full.reshape(-1, len(letters))
    res = np.abs((prods[0].T @ prods[1]).ravel() - (full.min(axis=1) == full.max(axis=1)))
    worst = float(res.max())
    hits = full[res >= worst - _WITNESS_TIE * max(1.0, worst)]
    witness = tuple(int(i) for i in hits[np.lexsort(hits.T[::-1])[0]])
    return Check(holds=worst <= rep.tol, residual=worst, witness=witness)


def reference_identity_failures(rep: MatrixRep, patterns) -> list:
    """cumulant_identity_extractor's failed identities, one column at a time."""
    failed = []
    for letters in patterns:
        for j in range(rep.n):
            chk = reference_block_identity_holds(rep, letters, j)
            if not chk.holds:
                failed.append(
                    {"pattern": letters, "column": j, "residual": chk.residual}
                )
    return failed


def reference_structural_consequences(rep: MatrixRep, patterns=None) -> dict:
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

    # sum_a (u_aj)^m = 1 at each column j is the block identity of 1^m (*^m
    # when stars dominate), m = |imbalance|
    power_worst = 0.0
    power_seen = False
    for d in satisfied:
        m = abs(d.imbalance)
        if m < 1:
            continue
        power_seen = True
        letters = (ONE if d.imbalance < 0 else STAR) * m
        for j in range(rep.n):
            power_worst = max(power_worst, reference_block_identity_holds(rep, letters, j).residual)
    if power_seen:
        checks["power_sums"] = Check(power_worst <= rep.tol, power_worst)

    return {
        "satisfied_patterns": sorted(sat_letters, key=pattern_sort_key),
        "checks": checks,
        "holds": all(c.holds for c in checks.values()),
    }


def reference_coproduct_lift(a: MatrixRep, b: MatrixRep) -> MatrixRep:
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


def reference_first_violation(joint, rep: MatrixRep, max_order: int, matrix_coeffs: bool = False, seed: int = 0):
    """check_invariance's first_violation, from np.argwhere on each order's residuals in one piece.

    Order k's moments are the joint's own tensor E (order_tensor), with
    matrix_b_coeffs (dim 2 for a scalar joint) when asked.  The acted moment
    of a cell, letters c and word j, is sum_i E(c, i) (x) u^c1_i1j1 ...
    u^ck_ikjk, u^* the entrywise adjoint, summed by np.einsum a slot at a
    time over every cell at once; its residual is np.linalg.norm(., 2) of
    that minus E(c, j) (x) I, rows (p, A_0) and columns (q, A_k).  The
    residuals are put letters first, and the first cell over rep.tol in C order
    is the first violation: (order, letters, 1-based word, residual).
    """
    n, d = rep.n, rep.d
    # slot[c, i, c', j] = u^c_ij where c' = c, else 0: (letter, index) in and out
    slot = np.zeros((2, n, 2, n, d, d), dtype=complex)
    for c, ch in enumerate((ONE, STAR)):
        slot[c, :, c] = rep.letter_array(ch)
    slot = slot.reshape(2 * n, 2 * n, d, d)
    for k in range(1, max_order + 1):
        dim = max(joint.table.dim, 2)
        E = joint.order_tensor(k, matrix_b_coeffs(k, seed, dim) if matrix_coeffs else None)
        E = E.reshape((2 * n,) * k + (E.shape[2 * k:] or (1, 1)))
        p, q = E.shape[k:]
        # axes: the k slots, p, q, A_0, then the chain's open block index
        acted = np.multiply.outer(E, np.eye(d))
        rest = list(range(k, k + 4))
        for t in range(k):
            out = list(range(k)) + rest[:3] + [k + 5]
            out[t] = k + 4
            acted = np.einsum(acted, list(range(k)) + rest, slot, [t, k + 4, k + 3, k + 5], out)
        acted -= np.multiply.outer(E, np.eye(d))
        cells = acted.transpose(*range(k), k, k + 2, k + 1, k + 3).reshape((2 * n,) * k + (p * d, q * d))
        res = np.linalg.norm(cells, 2, axis=(-2, -1))
        res = res.reshape((2, n) * k).transpose(*range(0, 2 * k, 2), *range(1, 2 * k, 2))
        hits = np.argwhere(res > rep.tol)
        if len(hits):
            bad = tuple(hits[0])
            letters = "".join(STAR if c else ONE for c in bad[:k])
            return k, letters, tuple(int(j) + 1 for j in bad[k:]), float(res[bad])
    return None
