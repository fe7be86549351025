"""The easy-category table: one row per symmetry family, and what follows from it.

Each of the nine families is an easy quantum group, fixed by its category
of partitions, and a larger group has a smaller category (Banica & Speicher,
Liberation of orthogonal Lie groups, 2009).  The de Finetti theorems pair
each family with the distribution classes whose cumulants it preserves
(Banica, Curran & Speicher, De Finetti theorems for easy quantum groups,
2012).  A row of TABLE gives the one-block star patterns the family's
category admits, the relations a matrix model is checked against (by their
detail keys) and the classes it governs in each calculus.  The rest is
derived:

- family_below(a, b): a admits every pattern b admits;
- implies(a, b): family_below(governing(b), governing(a)), except that only
  a self-adjoint class implies a self-adjoint one (SEMICIRCULAR, GAUSSIAN)
  and only a shifted class implies a shifted one (SHIFTED_*);
- a class holds for a cumulant spec when its family admits every nonzero
  cumulant pattern; a shifted class also needs a nonzero first cumulant,
  a self-adjoint class a self-adjoint spec (distributions._classify).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from .errors import InputMismatchError
from .partitions import ONE, STAR, StarPattern

M_MAX_DEFAULT = 12
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
        lambda d, m: d.imbalance % 2 == 0, ("delta_11", "square_projections"), ("SYMMETRIC",), ("SYMMETRIC",)
    ),
    "B_PLUS": Row(
        lambda d, m: len(d) == 1 or _balanced_pair(d), ("sums",), ("SHIFTED_CIRCULAR",), ("SHIFTED_COMPLEX_GAUSSIAN",)
    ),
    "O_PLUS": Row(
        lambda d, m: len(d) == 2, ("delta_11",), ("ORTHOGONAL", "SEMICIRCULAR"), ("ORTHOGONAL", "GAUSSIAN")
    ),
    "H_M_PLUS": Row(lambda d, m: d.imbalance % m == 0, ("delta_ones",), ("M_UNITARY",), ("M_UNITARY",)),
    "H_0_PLUS": Row(lambda d, m: d.imbalance == 0, ("delta_11ss",), ("FREE_UNITARY",), ("UNITARY",)),
    "H_PRIME_PLUS": Row(
        lambda d, m: d.imbalance == 0 and d.is_strictly_alternating(), ("delta_1s1s",), ("R_DIAGONAL",)
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
        parts = text.strip().split(":")
        classical = False
        if parts and parts[-1].lower() == "classical":
            classical = True
            parts = parts[:-1]
        if not parts or not parts[0]:
            raise InputMismatchError(f"cannot parse family tag {text!r}")
        kind = parts[0].upper()
        m = None
        if len(parts) == 2:
            try:
                m = int(parts[1])
            except ValueError:
                raise InputMismatchError(f"bad modulus in family tag {text!r}")
        elif len(parts) > 2:
            raise InputMismatchError(f"cannot parse family tag {text!r}")
        return FamilyTag(kind, m, classical)


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
    return [
        ClassTag(name, m, classical)
        for kind, row in TABLE.items()
        for name in row.classes(classical)
        for m in _moduli(kind, m_max)
    ]


@lru_cache(maxsize=1024)
def governing_family(tag: ClassTag) -> FamilyTag:
    return FamilyTag(_GOVERNING[tag.classical][tag.kind], tag.m, tag.classical)


# Every pattern of length <= 4 tells the rows apart, except moduli: adding
# 1^m for each modulus of a pair settles that pair.
_SHORT_PATTERNS = tuple(d for k in range(1, 5) for d in StarPattern.all_patterns(k))


@lru_cache(maxsize=1024)
def _short_admitted(tag: FamilyTag) -> frozenset:
    return frozenset(d.letters for d in _SHORT_PATTERNS if tag.admits(d))


@lru_cache(maxsize=4096)
def family_below(a: FamilyTag, b: FamilyTag) -> bool:
    """Whether family a sits inside family b: a admits every pattern b admits."""
    if a.classical != b.classical:
        return False
    powers = [ONE * t.m for t in (a, b) if t.m is not None]
    return _short_admitted(b) <= _short_admitted(a) and all(a.admits(d) for d in powers if b.admits(d))


@lru_cache(maxsize=4096)
def implies(a: ClassTag, b: ClassTag) -> bool:
    """Whether membership in class a forces membership in class b."""
    if a.classical != b.classical:
        raise InputMismatchError("cannot compare free and classical tags")
    if (b.selfadjoint and not a.selfadjoint) or (b.shifted and not a.shifted):
        return False
    return family_below(governing_family(b), governing_family(a))
