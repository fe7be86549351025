"""Independent reference values the benchmark checks freesym against.

Nothing here imports freesym.  Counting sequences come from their textbook
recurrences, and the moment reference is the defining partition sum,
evaluated with the benchmark's own partition enumeration.  Patterns are
strings over {"1", "*"} as in freesym; a table is a dict pattern -> complex.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def catalan(n: int) -> int:
    # c(m+1) = sum c(i) c(m-i)
    c = [1]
    for m in range(n):
        c.append(sum(c[i] * c[m - i] for i in range(m + 1)))
    return c[n]


def bell(n: int) -> int:
    # Bell triangle: each row starts with the previous row's last entry
    row = [1]
    for _ in range(n):
        new = [row[-1]]
        for value in row:
            new.append(new[-1] + value)
        row = new
    return row[0]


def narayana(k: int, j: int) -> int:
    """Noncrossing partitions of k points with j blocks."""
    return math.comb(k, j) * math.comb(k, j - 1) // k


def stirling2(k: int, j: int) -> int:
    """Set partitions of k points with j blocks: S(k,j) = j S(k-1,j) + S(k-1,j-1)."""
    row = [1]
    for m in range(1, k + 1):
        row = [0] + [(i * (row[i] if i < len(row) else 0)) + row[i - 1] for i in range(1, m + 1)]
    return row[j] if j < len(row) else 0


def double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def patterns(k: int) -> list[str]:
    """All 2^k patterns, "1" before "*", in freesym's order."""
    return ["".join(p) for p in itertools.product("1*", repeat=k)]


def set_partitions(k: int) -> list[tuple[tuple[int, ...], ...]]:
    """Partitions of 0..k-1 by restricted growth strings, blocks by least element."""
    out = []

    def grow(labels: list[int], top: int) -> None:
        if len(labels) == k:
            blocks: dict[int, list[int]] = {}
            for pos, lab in enumerate(labels):
                blocks.setdefault(lab, []).append(pos)
            out.append(tuple(tuple(b) for b in blocks.values()))
            return
        for lab in range(top + 2):
            grow(labels + [lab], max(top, lab))

    if k == 0:
        return [()]
    grow([0], 0)
    return out


def is_noncrossing(blocks) -> bool:
    """No a < b < c < d with a, c in one block and b, d in another."""
    label = {}
    for i, b in enumerate(blocks):
        for pos in b:
            label[pos] = i
    for x, y in itertools.combinations(range(len(blocks)), 2):
        seq = [label[p] for p in sorted(blocks[x] + blocks[y])]
        changes = sum(1 for s, t in zip(seq, seq[1:]) if s != t)
        # the merged sequence reads x..y..x..y (or longer) exactly when they cross
        if changes >= 3:
            return False
    return True


_PARTITIONS: dict[tuple[int, bool], list] = {}


def partitions(k: int, free: bool) -> list:
    key = (k, free)
    if key not in _PARTITIONS:
        parts = set_partitions(k)
        _PARTITIONS[key] = [p for p in parts if is_noncrossing(p)] if free else parts
    return _PARTITIONS[key]


def _pattern_codes(k: int) -> np.ndarray:
    """(2^k, k) array of 0 for "1" and 1 for "*", rows in patterns(k) order."""
    return np.array(list(itertools.product((0, 1), repeat=k)), dtype=np.int64).reshape(-1, k)


def partition_sum(cumulants: dict, K: int, free: bool) -> dict:
    """Moments by the defining sum over (noncrossing) partitions of products
    of block cumulants, every pattern of orders 1..K at once."""
    by_order = {}
    for j in range(1, K + 1):
        by_order[j] = np.array([complex(cumulants.get(p, 0j)) for p in patterns(j)])
    out = {}
    for k in range(1, K + 1):
        codes = _pattern_codes(k)
        acc = np.zeros(len(codes), dtype=complex)
        for blocks in partitions(k, free):
            term = np.ones(len(codes), dtype=complex)
            for b in blocks:
                weights = 1 << np.arange(len(b) - 1, -1, -1)
                term = term * by_order[len(b)][codes[:, list(b)] @ weights]
            acc += term
        for p, v in zip(patterns(k), acc):
            out[p] = complex(v)
    return out


def product_core(p: int, k: int) -> np.ndarray:
    """Core tensor of the functional c_1, ..., c_{k-1} -> c_1 c_2 ... c_{k-1}.

    Axis t takes vec(c_t) with vec(c)[a*p+b] = c[a, b], the last two axes are
    the matrix entry.  A scalar variable tensored with the identity has the
    scalar moment (or cumulant) times this core at order k.
    """
    units = np.zeros((p * p, p, p))
    idx = np.arange(p * p)
    units[idx, idx // p, idx % p] = 1.0
    core = np.eye(p)
    for _ in range(k - 1):
        core = np.einsum("...xy,ayz->...axz", core, units)
    return core.astype(complex)


def max_rel_error(got: dict, want: dict) -> float:
    """Largest |got - want| / max(1, |want|) over the union of keys."""
    worst = 0.0
    for key in set(got) | set(want):
        a = np.asarray(got.get(key, 0j))
        b = np.asarray(want.get(key, 0j))
        scale = max(1.0, float(np.max(np.abs(b))))
        worst = max(worst, float(np.max(np.abs(a - b))) / scale)
    return worst
