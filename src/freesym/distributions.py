"""Single-variable *-distributions given by cumulants, and their type lattice.

A class here is a vanishing condition: a set of star patterns outside of
which every cumulant must be zero.  Classification is reported up to a
declared order; conditions quantifying over all orders are decided on the
declared data only.

A declared spec is exact: it keeps every entry and shift it is given, and
only exact zeros are absent.  CumulantSpecSingle.to_table is the one place a
spec becomes cumulants; every reader, classification included, reads that
table.  Computed cumulants become a spec in one place,
spec_from_cumulant_table, which sets parts of magnitude at most SNAP_TOL to
0 (classification from moments, fixtures.haar_unitary_spec); a table written
by convert --to-cumulants and read back is a declared spec, judged exactly.
Classification reads a shift from either order-1 entry, kappa(1) or kappa(*),
so a declared pair that disagrees gets one answer on either side of x <-> x*.
sample_spec draws a witness for every class of both calculi.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cumulants import (
    CumulantTable,
    _finite,
    _pattern_words,
    moments_to_classical_cumulants,
    moments_to_free_cumulants,
    pattern_sort_key,
)
from .easy import (  # the tag types, implies and minimal_tags are also this module's API
    M_MAX,
    M_MAX_DEFAULT,
    TABLE,
    ClassicalClassTag,
    ClassTag,
    FreeClassTag,
    family_order,
    governing_family,
    implies,
    minimal_tags,
)
from .errors import (IncompleteTableError, InputMismatchError, OrderBoundError, SchemaError, SizeLimitError,
                     UnsupportedAlgebraError)
from .partitions import ONE, STAR, StarPattern, conjugate_letters

SNAP_TOL = 1e-12
SELFADJOINT_TOL = 1e-9


@dataclass
class CumulantSpecSingle:
    """Sparse cumulant data for one variable, plus an additive constant.

    entries map star patterns to values; absent patterns are exact zeros,
    except that a scalar entry on w also sets the conjugate pattern w*
    (StarPattern.conjugate) to its conjugate value when w* is not declared.
    For a self-adjoint variable the pattern is irrelevant, so entries may be
    given on any representative and are expanded per order; declared entries
    of equal length must then agree and be real.
    """

    order: int
    entries: dict = field(default_factory=dict)
    shift: complex = 0j
    selfadjoint: bool = False
    dim: int = 1

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise SchemaError(f"dim must be at least 1, got {self.dim}")
        clean = {}
        for pattern, value in self.entries.items():
            d = StarPattern.coerce(pattern)
            if not 1 <= len(d) <= self.order:
                raise SchemaError(
                    f"entry pattern {d.letters!r} outside order bound {self.order}"
                )
            if self.dim == 1 and isinstance(value, (int, float, complex)):
                arr = complex(value)  # a number needs no array
            else:
                arr = np.array(value, dtype=complex)
            if not _finite(arr):
                raise SchemaError("non-finite cumulant entry")
            if self.dim > 1 and arr.shape not in ((self.dim, self.dim),):
                raise SchemaError(
                    f"matrix spec entries must be {self.dim}x{self.dim} blocks"
                )
            value = arr if self.dim > 1 else complex(arr)
            if value.any() if self.dim > 1 else value != 0:
                clean[d.letters] = value
        self.entries = clean
        self.shift = complex(self.shift)
        if not np.isfinite(self.shift.real) or not np.isfinite(self.shift.imag):
            raise SchemaError("non-finite shift")
        if self.dim > 1 and self.shift != 0:
            raise SchemaError("shifts are supported for scalar specs only")
        if self.selfadjoint:
            self._validate_selfadjoint()

    def _validate_selfadjoint(self) -> None:
        if self.dim > 1:
            raise SchemaError("self-adjoint expansion handles scalar specs only")
        if self.shift.imag != 0:
            raise SchemaError("self-adjoint spec needs a real shift")
        by_len: dict[int, complex] = {}
        for letters, value in self.entries.items():
            if value.imag != 0:
                raise SchemaError("self-adjoint cumulants must be real")
            if by_len.setdefault(len(letters), value) != value:
                raise SchemaError(
                    "self-adjoint entries of one order must agree across patterns"
                )

    def to_table(self) -> CumulantTable:
        """The cumulants: shift, self-adjoint orders, matrix blocks and the
        undeclared conjugates of scalar entries, expanded here only."""
        table = CumulantTable(order=self.order, dim=self.dim)
        if self.selfadjoint:
            by_len = {}
            for letters, value in self.entries.items():
                by_len[len(letters)] = value
            for k, value in by_len.items():
                table.set(ONE * k, value)  # the order's first pattern, checked once for all of them
                table.data.update(dict.fromkeys(_pattern_words(k)[-2 ** k:], table.data[ONE * k]))
        elif self.dim > 1:
            for letters, value in self.entries.items():
                table.set(letters, _matrix_entry_core(value, len(letters), self.dim))
        else:
            for letters, value in self.entries.items():
                table.set(letters, value)
            for letters, value in self.entries.items():
                table.data.setdefault(conjugate_letters(letters), value.conjugate())
        if self.shift != 0:
            for letters, shift in ((ONE, self.shift), (STAR, self.shift.conjugate())):
                table.data[letters] = table.data.get(letters, 0j) + shift
                if table.data[letters] == 0:
                    del table.data[letters]
        return table


def _matrix_entry_core(value: np.ndarray, k: int, p: int) -> np.ndarray:
    """Core tensor for the product convention: value times the coefficients."""
    units = np.eye(p * p, dtype=complex).reshape(p * p, p, p)
    core = np.asarray(value, dtype=complex)
    for _ in range(k - 1):
        core = np.einsum("...xy,ayz->...axz", core, units)
    return core


def _nonzero_patterns(table: CumulantTable) -> list[StarPattern]:
    """The patterns of the table's nonzero entries, in pattern_sort_key order."""
    nonzero = [letters for letters, value in table.data.items() if (value != 0 if table.dim == 1 else value.any())]
    return [StarPattern(letters) for letters in sorted(nonzero, key=pattern_sort_key)]


def _classify(spec: CumulantSpecSingle, K: int, free: bool, m_scan: int):
    """The classes whose family admits every nonzero cumulant pattern up to K
    (easy.TABLE), and the shifted classes the table does not name."""
    if spec.dim != 1:
        raise InputMismatchError("classification handles scalar specs")
    if K < 1:
        raise OrderBoundError(f"classification needs an order of at least 1, got {K}")
    if K > spec.order:
        raise IncompleteTableError(f"spec declares order {spec.order}, classification needs {K}")
    table = spec.to_table()
    patterns = [d for d in _nonzero_patterns(table) if len(d) <= K]
    shifted = any(len(d) == 1 for d in patterns)  # either order-1 entry carries the shift
    order = family_order(m_scan, not free)
    # the families that admit every pattern past order 1: a shifted class's
    # family admits both order-1 patterns and an unshifted class's neither
    held = [all(f.admits(d) for d in patterns if len(d) > 1) for f in order.tags]
    tags = {
        t
        for t, i in order.classes.items()
        if held[i] and t.shifted == shifted and (spec.selfadjoint or not t.selfadjoint)
    }
    # shifted laws that no class names (easy.Row.inside), from the larger group down
    kinds = {f.kind for f, h in zip(order.tags, held) if h and shifted}
    noncanonical = [
        "SHIFTED_" + row.classes(not free)[0]
        for kind, row in reversed(TABLE.items())
        if row.inside and row.classes(not free) and kind in kinds and row.inside not in kinds
    ]
    return tags, noncanonical


def _scan_bound(K: int, m_scan: int | None) -> int:
    """The moduli a classification scans: 3..m_scan, or 3..K capped at M_MAX_DEFAULT when m_scan is None."""
    if m_scan is None:
        return min(max(3, K), M_MAX_DEFAULT)
    if m_scan < 3:
        raise InputMismatchError(f"the modulus scan needs m_scan >= 3, got {m_scan}")
    if m_scan > M_MAX:
        raise SizeLimitError(f"the modulus scan takes m_scan <= {M_MAX}, got {m_scan}")
    return m_scan


def classify_free(spec: CumulantSpecSingle, K: int, m_scan: int | None = None):
    return _classify(spec, K, True, _scan_bound(K, m_scan))[0]


def classify_classical(spec: CumulantSpecSingle, K: int, m_scan: int | None = None):
    return _classify(spec, K, False, _scan_bound(K, m_scan))[0]


def classify_report(spec: CumulantSpecSingle, K: int, free: bool, m_scan: int | None = None) -> dict:
    bound = _scan_bound(K, m_scan)
    tags, noncanonical = _classify(spec, K, free, bound)
    return {
        "tags": sorted(t.label() for t in tags),
        "minimal": sorted(t.label() for t in minimal_tags(tags)),
        "noncanonical_shifted": noncanonical,
        "m_scan": bound,
    }


# (governing family, self-adjoint class) -> the spec's keyword arguments in either
# calculus, given the weight draw w and the modulus m; w is called in the order
# the arguments are written
_SAMPLE_RECIPES = {
    ("H_S_PLUS", False): lambda w, m: dict(entries={"11": w(), "**": w(), "1111": w(), "****": w()}),
    ("O_PLUS", False): lambda w, m: dict(entries=dict.fromkeys(("11", "1*", "*1", "**"), w())),
    ("O_PLUS", True): lambda w, m: dict(entries={"11": w()}, selfadjoint=True),
    ("B_S_PLUS", False): lambda w, m: dict(entries={"11": w()}, selfadjoint=True, shift=w()),
    ("H_M_PLUS", False): lambda w, m: dict(entries={"1*": w(), "*1": w(), ONE * m: w(), STAR * m: w()}),
    ("H_0_PLUS", False): lambda w, m: dict(entries={"1*": w(), "*1": w(), "11**": w()}),
    ("H_PRIME_PLUS", False): lambda w, m: dict(entries={"1*": w(), "*1": w(), "1*1*": -w(), "*1*1": -w()}),
    ("U_PLUS", False): lambda w, m: dict(entries={"1*": w(), "*1": w()}),
    ("B_PLUS", False): lambda w, m: dict(entries={"1*": w(), "*1": w()}, shift=w()),
}


def sample_spec(tag: ClassTag, seed: int = 0) -> CumulantSpecSingle:
    """A witness spec whose classification is minimal exactly at the tag.

    Seed 0 gives exact unit weights; other seeds jitter the magnitudes
    without disturbing which patterns are populated.
    """
    if seed < 0:
        raise InputMismatchError(f"seed must be nonnegative, got {seed}")
    recipe = _SAMPLE_RECIPES[governing_family(tag).kind, tag.selfadjoint]
    rng = np.random.default_rng(seed)

    def w() -> float:
        return 1.0 if seed == 0 else float(1.0 + 0.5 * rng.uniform())

    return CumulantSpecSingle(order=max(6, tag.m or 0), **recipe(w, tag.m))


def spec_from_cumulant_table(table: CumulantTable, selfadjoint: bool = False) -> CumulantSpecSingle:
    """Wrap a computed scalar cumulant table as a sparse spec, with parts of
    magnitude at most SNAP_TOL set to 0 and the zeros dropped first."""
    if table.dim != 1:
        raise UnsupportedAlgebraError(f"a spec is built from a scalar cumulant table, not dim {table.dim}")
    entries = {}
    for letters, value in table.data.items():
        if abs(value) > SNAP_TOL:  # else both parts are at most SNAP_TOL
            value = complex(0.0 if abs(value.real) <= SNAP_TOL else value.real,
                            0.0 if abs(value.imag) <= SNAP_TOL else value.imag)
            if value != 0:
                entries[letters] = value
    return CumulantSpecSingle(order=table.order, entries=entries, selfadjoint=selfadjoint)


def _selfadjoint_spec(moments, cumulants: CumulantTable, K: int):
    """A self-adjoint spec when every moment up to K is real and the same on
    all patterns of its order (relative to that order's largest), else None."""
    if moments.dim != 1:
        return None
    for k in range(1, K + 1):
        values = np.array([complex(moments.data.get(w, 0j)) for w in _pattern_words(k)[-2 ** k:]])
        if np.max(np.abs(values - values[0].real)) > SELFADJOINT_TOL * np.max(np.abs(values)):
            return None
    data = {ONE * k: cumulants.data[ONE * k].real for k in range(1, K + 1)}
    return spec_from_cumulant_table(CumulantTable(order=cumulants.order, data=data), selfadjoint=True)


def _classify_moments(moments, K: int, free: bool):
    if moments.dim != 1:
        raise UnsupportedAlgebraError(f"classification handles scalar moment tables, not dim {moments.dim}")
    table = (moments_to_free_cumulants if free else moments_to_classical_cumulants)(moments, K)
    spec = _selfadjoint_spec(moments, table, K) or spec_from_cumulant_table(table)
    return (classify_free if free else classify_classical)(spec, K)


def classify_free_moments(moments, K: int):
    """Classify from a moment table by inverting to free cumulants first."""
    return _classify_moments(moments, K, True)


def classify_classical_moments(moments, K: int):
    return _classify_moments(moments, K, False)
