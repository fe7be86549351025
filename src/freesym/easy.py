"""The easy-category table: one row per symmetry family, and what follows from it.

Each of the nine families is an easy quantum group, fixed by its category
of partitions, and a larger group has a smaller category (Banica & Speicher,
Liberation of orthogonal Lie groups, 2009).  The de Finetti theorems pair
each family with the distribution classes whose cumulants it preserves
(Banica, Curran & Speicher, De Finetti theorems for easy quantum groups,
2012).  A row of TABLE gives the one-block star patterns the family's
category admits, the relations a matrix model is checked against (by their
detail keys) and the classes it governs in each calculus.  The rest is
derived from one cached record per scan size, family_order(m_max): one
admits table (all_family_tags(m_max) against the patterns of length <= 4
and 1^m for each modulus) gives per tag the int bitset of the tags below
it, and each class (class_tags lists them) the position of its governing
family.  Every reader of the order reads that record:

- family_below(a, b): a admits every pattern b admits, one bit of the order;
- family_meet(families): the largest family below all of them, the AND of
  their rows.  The intersection of two easy quantum groups has the category
  generated by both (Banica & Speicher 2009), so this is the closure of a
  set of families a model satisfies (qgroups.lattice_position);
- implies(a, b), minimal_tags: family_below(governing(b), governing(a)),
  except that only a self-adjoint class implies a self-adjoint one
  (SEMICIRCULAR, GAUSSIAN) and only a shifted class a shifted one (SHIFTED_*);
- a class holds for a cumulant spec when its family admits every nonzero
  cumulant pattern; a shifted class also needs a nonzero order-1 entry,
  a self-adjoint class a self-adjoint spec (distributions._classify).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import and_
from typing import Callable, NamedTuple

from .errors import InputMismatchError
from .partitions import ONE, STAR, StarPattern

M_MAX_DEFAULT = 12
# the largest modulus a scan takes: its 1^m checks grow like m^(n-1)
M_MAX = 300
SELFADJOINT_CLASSES = ("SEMICIRCULAR", "GAUSSIAN")


@dataclass(frozen=True)
class Row:
    # admits(pattern, m): whether a one-block partition with this pattern is in the category
    admits: Callable[[StarPattern, int | None], bool]
    # detail keys of the checked relations: delta_<pattern, s for *>, delta_ones
    # (the pattern 1^m), or a relation without a pattern (sums, projections)
    relations: tuple[str, ...]
    free: tuple[str, ...] = ()
    classical: tuple[str, ...] = ()
    # a shifted law whose cumulants past order 1 fit this row's class but not inside's has no class
    inside: str | None = None

    def classes(self, classical: bool) -> tuple[str, ...]:
        return self.classical if classical else self.free


def _balanced_pair(d: StarPattern, m=None) -> bool:
    return len(d) == 2 and d.imbalance == 0


TABLE = {
    "S_PLUS": Row(lambda d, m: True, ("projections", "sums")),
    "B_S_PLUS": Row(
        lambda d, m: len(d) <= 2, ("delta_11", "sums"), ("SHIFTED_ORTHOGONAL",), ("SHIFTED_ORTHOGONAL",)
    ),
    "H_S_PLUS": Row(
        lambda d, m: d.imbalance % 2 == 0, ("delta_11", "square_projections"), ("SYMMETRIC",), ("SYMMETRIC",),
        inside="O_PLUS",
    ),
    "B_PLUS": Row(
        lambda d, m: len(d) == 1 or _balanced_pair(d), ("sums",), ("SHIFTED_CIRCULAR",), ("SHIFTED_COMPLEX_GAUSSIAN",)
    ),
    "O_PLUS": Row(
        lambda d, m: len(d) == 2, ("delta_11",), ("ORTHOGONAL", "SEMICIRCULAR"), ("ORTHOGONAL", "GAUSSIAN")
    ),
    "H_M_PLUS": Row(lambda d, m: d.imbalance % m == 0, ("delta_ones",), ("M_UNITARY",), ("M_UNITARY",)),
    "H_0_PLUS": Row(
        lambda d, m: d.imbalance == 0, ("delta_11ss",), ("FREE_UNITARY",), ("UNITARY",), inside="H_PRIME_PLUS"
    ),
    "H_PRIME_PLUS": Row(
        lambda d, m: d.imbalance == 0 and d.is_strictly_alternating(), ("delta_1s1s",), ("R_DIAGONAL",),
        inside="U_PLUS",
    ),
    "U_PLUS": Row(_balanced_pair, (), ("CIRCULAR",), ("COMPLEX_GAUSSIAN",)),
}

# class name -> family kind, per calculus (keyed by the classical flag)
_GOVERNING = {
    classical: {name: kind for kind, row in TABLE.items() for name in row.classes(classical)}
    for classical in (False, True)
}


def _check_modulus(kind: str, m, modular: bool) -> None:
    if modular:
        if m is None or m < 3:
            raise InputMismatchError(f"{kind} needs a modulus m >= 3")
    elif m is not None:
        raise InputMismatchError(f"{kind} takes no modulus")


def _moduli(kind: str, m_max: int):
    return range(3, m_max + 1) if kind == "H_M_PLUS" else (None,)


@dataclass(frozen=True, order=True)
class FamilyTag:
    kind: str
    m: int | None = None
    classical: bool = False

    def __post_init__(self) -> None:
        if self.kind not in TABLE:
            raise InputMismatchError(f"unknown family kind {self.kind!r}")
        _check_modulus(self.kind, self.m, self.kind == "H_M_PLUS")

    def admits(self, pattern) -> bool:
        """Whether the family's category holds a one-block partition with this pattern."""
        return TABLE[self.kind].admits(StarPattern.coerce(pattern), self.m)

    def label(self) -> str:
        base = f"H_M_PLUS({self.m})" if self.kind == "H_M_PLUS" else self.kind
        return base + (" classical" if self.classical else "")

    def spell(self) -> str:
        base = f"H_M_PLUS:{self.m}" if self.kind == "H_M_PLUS" else self.kind
        return base + (":classical" if self.classical else "")

    @staticmethod
    def parse(text: str) -> "FamilyTag":
        """A tag from its label (O_PLUS classical, H_M_PLUS(3)) or its spelling (O_PLUS:classical, H_M_PLUS:3)."""
        match = re.fullmatch(r"([^\s:()]+)(?:\(([^()]*)\)|:([^:\s]*))??(?:(?::|\s+)(classical))?",
                             text.strip(), re.IGNORECASE)
        if match is None:
            raise InputMismatchError(f"cannot parse family tag {text!r}")
        kind, paren, colon, classical = match.groups()
        m = paren if colon is None else colon
        if m is not None and not m.isdecimal():
            raise InputMismatchError(f"bad modulus in family tag {text!r}")
        try:
            return FamilyTag(kind.upper(), None if m is None else int(m), classical is not None)
        except InputMismatchError as exc:
            raise InputMismatchError(f"{exc} in family tag {text!r}") from None


@dataclass(frozen=True, order=True)
class ClassTag:
    """A distribution class of the free or the classical calculus."""

    kind: str
    m: int | None = None
    classical: bool = False

    def __post_init__(self) -> None:
        family = _GOVERNING[self.classical].get(self.kind)
        if family is None:
            raise InputMismatchError(f"unknown class kind {self.kind!r}")
        _check_modulus(self.kind, self.m, family == "H_M_PLUS")

    @property
    def shifted(self) -> bool:
        return self.kind.startswith("SHIFTED_")

    @property
    def selfadjoint(self) -> bool:
        return self.kind in SELFADJOINT_CLASSES

    def label(self) -> str:
        return f"M_UNITARY({self.m})" if self.kind == "M_UNITARY" else self.kind


def FreeClassTag(kind: str, m: int | None = None) -> ClassTag:
    return ClassTag(kind, m, False)


def ClassicalClassTag(kind: str, m: int | None = None) -> ClassTag:
    return ClassTag(kind, m, True)


def relations(tag: FamilyTag) -> tuple[tuple[str, str | None], ...]:
    """(detail key, delta pattern) of each relation the family is checked
    against; the pattern is None for the sum and projection relations."""
    out = []
    for key in TABLE[tag.kind].relations:
        if key == "delta_ones":
            out.append((f"delta_ones_{tag.m}", ONE * tag.m))
        elif key.startswith("delta_"):
            out.append((key, key[len("delta_"):].replace("s", STAR)))
        else:
            out.append((key, None))
    return tuple(out)


def all_family_tags(m_max: int = M_MAX_DEFAULT, classical: bool = False) -> list[FamilyTag]:
    """Every family in table order, H_M_PLUS for m = 3..m_max."""
    return [FamilyTag(kind, m, classical) for kind in TABLE for m in _moduli(kind, m_max)]


def class_tags(m_max: int = M_MAX_DEFAULT, classical: bool = False) -> list[ClassTag]:
    """Every class of one calculus in table order, M_UNITARY for m = 3..m_max."""
    return list(family_order(m_max, classical).classes)


def governing_family(tag: ClassTag) -> FamilyTag:
    return FamilyTag(_GOVERNING[tag.classical][tag.kind], tag.m, tag.classical)


# Every pattern of length <= 4 tells the rows apart, except moduli: adding
# 1^m for each modulus settles those.
_SHORT_PATTERNS = tuple(d for k in range(1, 5) for d in StarPattern.all_patterns(k))


class FamilyOrder(NamedTuple):
    tags: tuple[FamilyTag, ...]  # all_family_tags(m_max, classical)
    index: dict[FamilyTag, int]  # each tag's position in tags
    below: tuple[int, ...]  # per tag, the bitset of the positions of the tags below it
    classes: dict[ClassTag, int]  # each class in table order -> its governing family's position


@lru_cache(maxsize=16)
def family_order(m_max: int, classical: bool = False) -> FamilyOrder:
    tags = tuple(all_family_tags(m_max, classical))
    patterns = _SHORT_PATTERNS + tuple(StarPattern(ONE * m) for m in range(3, m_max + 1))
    admitted = [sum(1 << p for p, d in enumerate(patterns) if t.admits(d)) for t in tags]
    below = tuple(sum(1 << i for i, a in enumerate(admitted) if b & ~a == 0) for b in admitted)
    classes = {ClassTag(c, t.m, classical): i for i, t in enumerate(tags) for c in TABLE[t.kind].classes(classical)}
    return FamilyOrder(tags, {t: i for i, t in enumerate(tags)}, below, classes)


def _shared_order(tags, classical: bool) -> FamilyOrder:
    """The family order comparing these tags, at the next power of two of their largest modulus,
    at least M_MAX_DEFAULT and at most M_MAX (or that modulus): pair loops share a few records."""
    top = max([t.m or 0 for t in tags], default=0)
    return family_order(min(max(M_MAX_DEFAULT, 1 << (top - 1).bit_length()), max(M_MAX, top)), classical)


def family_below(a: FamilyTag, b: FamilyTag) -> bool:
    """Whether family a sits inside family b: a admits every pattern b admits."""
    if a.classical != b.classical:
        return False
    order = _shared_order((a, b), a.classical)
    return bool(order.below[order.index[b]] >> order.index[a] & 1)


def implies(a: ClassTag, b: ClassTag) -> bool:
    """Whether membership in class a forces membership in class b."""
    return a == b or b not in minimal_tags((a, b))


def minimal_tags(tags) -> set:
    """The classes of a set, all of one calculus, that no other one implies."""
    tags = set(tags)
    if len({t.classical for t in tags}) > 1:
        raise InputMismatchError("cannot compare free and classical tags")
    order = _shared_order(tags, any(t.classical for t in tags))
    at, below = order.classes, order.below
    # s implies t when t's family admits every pattern s's family admits, and
    # t is self-adjoint or shifted only if s is
    return tags - {
        t for s in tags for t in tags
        if s != t and below[at[s]] >> at[t] & 1 and s.selfadjoint >= t.selfadjoint and s.shifted >= t.shifted
    }


def family_meet(families, m_max: int = M_MAX_DEFAULT) -> FamilyTag | None:
    """The largest family of all_family_tags(m_max) below every given one,
    or None when none is given."""
    families = list(families)
    if not families:
        return None
    tags, index, below, _ = family_order(max(m_max, *(f.m or 0 for f in families)), families[0].classical)
    # a family of the other calculus is in no row, and nothing is below it
    common = reduce(and_, (below[index[f]] if f in index else 0 for f in families))
    scan = [i for i, t in enumerate(tags) if common >> i & 1 and (t.m or 0) <= m_max]
    mask = sum(1 << i for i in scan)
    return next((tags[i] for i in scan if below[i] & mask == mask), None)
