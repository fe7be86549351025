"""Set partitions, noncrossing partitions, and star-decorated filtering.

Partitions of {1, ..., k} are kept in a canonical form: blocks ordered by
their least element, elements ascending inside each block.  With that
convention, equality of partition lists is plain list equality and no
set-of-frozensets juggling is needed anywhere downstream.

first_blocks, the first-block split of a word, is shared by the noncrossing
enumeration (over its own cache of smaller sizes) and the moment <->
cumulant recursions of the cumulants module.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

from .errors import InputMismatchError, SizeLimitError

# Ground-set guards: Bell(11) = 678,570 and Catalan(12) = 208,012 partitions, seconds each.
MAX_PARTITION_SIZE = 11
MAX_NONCROSSING_SIZE = 12

ONE = "1"
STAR = "*"


@dataclass(frozen=True)
class Partition:
    """A partition of the ground set {1, ..., k} into disjoint blocks."""

    k: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        blocks = tuple(tuple(sorted(b)) for b in self.blocks)
        if any(not b for b in blocks):
            raise InputMismatchError("partition contains an empty block")
        blocks = tuple(sorted(blocks, key=lambda b: b[0]))
        elements = sorted(x for b in blocks for x in b)
        if elements != list(range(1, self.k + 1)):
            raise InputMismatchError(
                f"blocks {blocks} do not partition 1..{self.k}"
            )
        object.__setattr__(self, "blocks", blocks)

    @classmethod
    def of(cls, blocks: Iterable[Iterable[int]], k: int | None = None) -> "Partition":
        blocks = tuple(tuple(b) for b in blocks)
        if k is None:
            k = sum(len(b) for b in blocks)
        return cls(k, blocks)

    @classmethod
    def _canonical(cls, k: int, blocks: tuple) -> "Partition":
        """A partition of blocks already in canonical form, taken unchecked.

        The enumerations build only canonical blocks, so they skip
        __post_init__'s sorting and checks, which user input keeps.
        """
        p = object.__new__(cls)
        p.__dict__.update(k=k, blocks=blocks)
        return p

    @classmethod
    def singletons(cls, k: int) -> "Partition":
        return cls(k, tuple((i,) for i in range(1, k + 1)))

    @classmethod
    def whole(cls, k: int) -> "Partition":
        if k == 0:
            return cls(0, ())
        return cls(k, (tuple(range(1, k + 1)),))

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)


@dataclass(frozen=True)
class StarPattern:
    """A word over {1, *} recording plain vs. adjoined occurrences."""

    letters: str = ""

    def __post_init__(self) -> None:
        bad = set(self.letters) - {ONE, STAR}
        if bad:
            raise InputMismatchError(f"pattern letters must be '1' or '*', got {bad}")

    @classmethod
    def coerce(cls, value) -> "StarPattern":
        if isinstance(value, StarPattern):
            return value
        if isinstance(value, str):
            return cls(value)
        return cls("".join(str(v) for v in value))

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[str]:
        return iter(self.letters)

    def __getitem__(self, i: int) -> str:
        return self.letters[i]

    @property
    def ones(self) -> int:
        return self.letters.count(ONE)

    @property
    def stars(self) -> int:
        return self.letters.count(STAR)

    @property
    def imbalance(self) -> int:
        """Number of stars minus number of plain letters."""
        return self.stars - self.ones

    def restrict(self, positions: Iterable[int]) -> "StarPattern":
        """Subword at the given 1-based positions, kept in increasing order."""
        pos = sorted(positions)
        if pos and (pos[0] < 1 or pos[-1] > len(self.letters)):
            raise InputMismatchError("restriction positions out of range")
        return StarPattern("".join(self.letters[p - 1] for p in pos))

    def conjugate(self) -> "StarPattern":
        return StarPattern(conjugate_letters(self.letters))

    def is_strictly_alternating(self) -> bool:
        return all(a != b for a, b in zip(self.letters, self.letters[1:]))

    @staticmethod
    def all_patterns(k: int) -> Iterator["StarPattern"]:
        """All 2^k patterns of length k, '1' sorted before '*'."""
        for combo in itertools.product((ONE, STAR), repeat=k):
            yield StarPattern("".join(combo))


_FLIP = str.maketrans({ONE: STAR, STAR: ONE})


def conjugate_letters(letters: str) -> str:
    """The letters of the conjugate pattern w*: w reversed, 1 and * swapped."""
    return letters[::-1].translate(_FLIP)


def enumerate_all_partitions(k: int) -> list[Partition]:
    """Every partition of {1..k}, canonical and deterministically ordered."""
    if not 0 <= k <= MAX_PARTITION_SIZE:
        raise SizeLimitError(f"all-partition enumeration supports 0 <= k <= {MAX_PARTITION_SIZE}")
    return list(all_partitions_cached(k))


def enumerate_noncrossing(k: int) -> list[Partition]:
    """Every noncrossing partition of {1..k}, canonical and ordered."""
    if not 0 <= k <= MAX_NONCROSSING_SIZE:
        raise SizeLimitError(f"noncrossing enumeration supports 0 <= k <= {MAX_NONCROSSING_SIZE}")
    return list(noncrossing_cached(k))


@lru_cache(maxsize=None)
def all_partitions_cached(k: int) -> tuple[Partition, ...]:
    return tuple(Partition._canonical(k, blocks) for blocks in sorted(_all_blocks(k)))


def _all_blocks(k: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Canonical blocks of every partition of {1..k}: k joins a block or opens a last one."""
    if k == 0:
        yield ()
        return
    for blocks in _all_blocks(k - 1):
        for i in range(len(blocks)):
            yield blocks[:i] + (blocks[i] + (k,),) + blocks[i + 1:]
        yield blocks + ((k,),)


@lru_cache(maxsize=None)
def noncrossing_cached(k: int) -> tuple[Partition, ...]:
    """NC(k) by the first-block split: each free segment's partitions come from this cache, shifted."""
    if k == 0:
        return (Partition._canonical(0, ()),)
    # the blocks of NC(m) on the segment after 0-based position v, which starts at 1-based v + 2
    shifted = {(v, m): [tuple(tuple(x + v + 1 for x in blk) for blk in q.blocks) for q in noncrossing_cached(m)]
               for v in range(k) for m in range(k - v)}
    parts = []
    for block, pieces in first_blocks(k, True):
        # the segments follow each other, so the head block and theirs in turn are canonical
        gaps = [shifted[v, len(piece)] for v, piece in zip(block, pieces)]
        head = (tuple(v + 1 for v in block),)
        parts += [head + sum(combo, ()) for combo in itertools.product(*gaps)]
    return tuple(Partition._canonical(k, blocks) for blocks in sorted(parts))


@lru_cache(maxsize=None)
def first_blocks(k: int, free: bool) -> tuple:
    """Every block V of a k-letter word that holds position 0, the whole word last.

    The first-block split (Nica & Speicher, Lect. 10-11).  Each V comes with
    the position tuples a partition of the rest splits into.  Free: one
    segment after each element of V, up to the next element or the end
    (empty segments are ()), each blocked on its own.  Classical: the
    complement of V.  The cache holds one entry per (k, free).
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


def is_noncrossing(p: Partition) -> bool:
    """True iff no two blocks interleave as s1 < r1 < s2 < r2."""
    for a, b in itertools.combinations(p.blocks, 2):
        for s1, s2 in itertools.combinations(a, 2):
            for r1, r2 in itertools.combinations(b, 2):
                if s1 < r1 < s2 < r2 or r1 < s1 < r2 < s2:
                    return False
    return True


def kernel(word) -> Partition:
    """Partition of positions grouping equal letters of a word of ints."""
    idx = tuple(int(i) for i in word)
    if not idx:
        raise InputMismatchError("kernel of the empty word is undefined")
    groups: dict[int, list[int]] = {}
    for pos, val in enumerate(idx, start=1):
        groups.setdefault(val, []).append(pos)
    return Partition(len(idx), tuple(tuple(g) for g in groups.values()))


def refines(p: Partition, q: Partition) -> bool:
    """True iff every block of p sits inside a single block of q."""
    if p.k != q.k:
        raise InputMismatchError("refinement requires equal ground sets")
    owner = {pos: i for i, b in enumerate(q.blocks) for pos in b}
    for b in p.blocks:
        first = owner[b[0]]
        if any(owner[x] != first for x in b[1:]):
            return False
    return True


def block_restriction(p: Partition, pattern, block_index: int) -> StarPattern:
    """Star pattern restricted to the positions of one block (0-based index)."""
    d = StarPattern.coerce(pattern)
    if len(d) != p.k:
        raise InputMismatchError("pattern length must equal the ground-set size")
    if not 0 <= block_index < p.num_blocks:
        raise IndexError(f"block index {block_index} out of range")
    return d.restrict(p.blocks[block_index])


def filter_decorated(parts: Iterable[Partition], pattern, family) -> list[Partition]:
    """Partitions all of whose blocks the family admits for the given pattern."""
    d = StarPattern.coerce(pattern)
    out = []
    for p in parts:
        if p.k != len(d):
            raise InputMismatchError("pattern length must equal the partition size")
        if all(family.admits(d.restrict(b)) for b in p.blocks):
            out.append(p)
    return out
