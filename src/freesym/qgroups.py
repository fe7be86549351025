"""Numerical relation checks for matrix models of the nine symmetry families.

A model assigns each generator a d x d complex matrix.  Family membership is
decided by residuals of the universal relations: delta-type summation
identities per star pattern, sum conditions, projection conditions, and
biunitarity.  Everything is tolerance-based; the default scale is 1e-9 on
unit-norm matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cumulants import TUPLE_BUDGET
from .errors import BudgetError, InputMismatchError, SizeLimitError
from .partitions import ONE, STAR, StarPattern

DEFAULT_TOL = 1e-9
MAX_FLAT_DIM = 64
M_MAX_DEFAULT = 12

FAMILY_KINDS = (
    "S_PLUS",
    "B_S_PLUS",
    "H_S_PLUS",
    "B_PLUS",
    "O_PLUS",
    "H_M_PLUS",
    "H_0_PLUS",
    "H_PRIME_PLUS",
    "U_PLUS",
)


@dataclass(frozen=True, order=True)
class FamilyTag:
    kind: str
    m: int | None = None
    classical: bool = False

    def __post_init__(self) -> None:
        if self.kind not in FAMILY_KINDS:
            raise InputMismatchError(f"unknown family kind {self.kind!r}")
        if self.kind == "H_M_PLUS":
            if self.m is None or self.m < 3:
                raise InputMismatchError("H_M_PLUS needs a modulus m >= 3")
        elif self.m is not None:
            raise InputMismatchError(f"{self.kind} takes no modulus")

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


@dataclass
class Check:
    holds: bool
    residual: float
    witness: tuple | None = None
    details: dict = field(default_factory=dict)


class MatrixRep:
    """Generator matrices u_{ij}, stored as an (n, n, d, d) complex array."""

    def __init__(self, entries, tol: float = DEFAULT_TOL):
        arr = np.asarray(entries, dtype=complex)
        if arr.ndim == 2:
            arr = arr[:, :, None, None]
        if arr.ndim != 4 or arr.shape[0] != arr.shape[1] or arr.shape[2] != arr.shape[3]:
            raise InputMismatchError(
                f"entries must form an (n, n, d, d) array, got shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
            raise InputMismatchError("non-finite entry in representation")
        self.entries = arr
        self.n = arr.shape[0]
        self.d = arr.shape[2]
        if self.n * self.d > MAX_FLAT_DIM:
            raise SizeLimitError(
                f"flattened dimension {self.n * self.d} exceeds {MAX_FLAT_DIM}"
            )
        if tol < 0:
            raise InputMismatchError("tolerance must be nonnegative")
        self.tol = float(tol)

    def entry(self, i: int, j: int) -> np.ndarray:
        return self.entries[i, j]

    def adjoint_entries(self) -> np.ndarray:
        return np.conj(self.entries).swapaxes(2, 3)

    def letter_array(self, letter: str) -> np.ndarray:
        if letter == ONE:
            return self.entries
        if letter == STAR:
            return self.adjoint_entries()
        raise InputMismatchError(f"bad pattern letter {letter!r}")

    def flatten(self) -> np.ndarray:
        nd = self.n * self.d
        return self.entries.transpose(0, 2, 1, 3).reshape(nd, nd)


def spectral_norms(batch) -> np.ndarray:
    """Largest singular value of each trailing matrix in a batch (..., r, c).

    A 1x1 matrix's singular value is its modulus, so those skip the SVD.
    """
    batch = np.asarray(batch)
    if batch.shape[-2:] == (1, 1):
        return np.abs(batch[..., 0, 0])
    return np.linalg.svd(batch, compute_uv=False)[..., 0]


def operator_norm(x) -> float:
    if isinstance(x, MatrixRep):
        mat = x.flatten()
    else:
        arr = np.asarray(x, dtype=complex)
        if arr.ndim == 4:
            mat = arr.transpose(0, 2, 1, 3).reshape(
                arr.shape[0] * arr.shape[2], arr.shape[1] * arr.shape[3]
            )
        elif arr.ndim == 2:
            mat = arr
        elif arr.ndim == 0:
            return float(abs(arr))
        else:
            raise InputMismatchError(f"cannot take operator norm of shape {arr.shape}")
    if mat.size == 0:
        return 0.0
    return float(spectral_norms(mat))


def _unitarity_residuals(mat: np.ndarray) -> tuple[float, float]:
    eye = np.eye(mat.shape[0])
    left = operator_norm(mat.conj().T @ mat - eye)
    right = operator_norm(mat @ mat.conj().T - eye)
    return left, right


def check_biunitary(rep: MatrixRep) -> Check:
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


def block_identity_holds(rep: MatrixRep, pattern, j: int) -> Check:
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


def full_delta_identity_holds(rep: MatrixRep, pattern) -> Check:
    d = StarPattern.coerce(pattern)
    k = len(d)
    if k < 2:
        raise InputMismatchError("delta identity needs pattern length >= 2")
    if rep.n**k > TUPLE_BUDGET:
        raise BudgetError(f"{rep.n}^{k} index tuples exceed the budget")
    # the last link also sums the shared row index, so the (n,)*(k+1) chain
    # is never held next to the (n,)*k total
    diff = rep.letter_array(d.letters[0])
    for t, letter in enumerate(d.letters[1:], 2):
        out = "...ixz" if t == k else "a...ixz"
        diff = np.einsum("a...xy,aiyz->" + out, diff, rep.letter_array(letter))
    for i in range(rep.n):
        diff[(i,) * k] -= np.eye(rep.d)
    svals = spectral_norms(diff.reshape(-1, rep.d, rep.d))
    worst = int(np.argmax(svals))
    residual = float(svals[worst])
    return Check(
        holds=residual <= rep.tol,
        residual=residual,
        witness=tuple(np.unravel_index(worst, (rep.n,) * k)),
    )


def _sum_condition_residual(rep: MatrixRep) -> float:
    eye = np.eye(rep.d)
    worst = 0.0
    for i in range(rep.n):
        worst = max(worst, operator_norm(rep.entries[i].sum(axis=0) - eye))
        worst = max(worst, operator_norm(rep.entries[:, i].sum(axis=0) - eye))
    return worst


def _projection_entries_residual(rep: MatrixRep) -> float:
    worst = 0.0
    for i in range(rep.n):
        for j in range(rep.n):
            a = rep.entries[i, j]
            worst = max(worst, operator_norm(a @ a - a))
            worst = max(worst, operator_norm(a - a.conj().T))
    return worst


def _projection_squares_residual(rep: MatrixRep) -> float:
    worst = 0.0
    for i in range(rep.n):
        for j in range(rep.n):
            p = rep.entries[i, j] @ rep.entries[i, j]
            worst = max(worst, operator_norm(p @ p - p))
            worst = max(worst, operator_norm(p - p.conj().T))
    return worst


def _commutativity_residual(rep: MatrixRep) -> float:
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


def check_family(rep: MatrixRep, tag: FamilyTag) -> Check:
    return _check_family(rep, tag, check_biunitary(rep))


def _check_family(rep: MatrixRep, tag: FamilyTag, base: Check) -> Check:
    """check_family with the model's biunitarity check already made."""
    residuals = {"biunitary": base.residual}
    witness = None
    kind = tag.kind

    def add_delta(name: str, pattern: str) -> None:
        nonlocal witness
        chk = full_delta_identity_holds(rep, pattern)
        residuals[name] = chk.residual
        if not chk.holds and witness is None:
            witness = chk.witness

    if kind == "U_PLUS":
        pass
    elif kind == "O_PLUS":
        add_delta("delta_11", "11")
    elif kind == "B_S_PLUS":
        add_delta("delta_11", "11")
        residuals["sums"] = _sum_condition_residual(rep)
    elif kind == "H_S_PLUS":
        add_delta("delta_11", "11")
        residuals["square_projections"] = _projection_squares_residual(rep)
    elif kind == "B_PLUS":
        residuals["sums"] = _sum_condition_residual(rep)
    elif kind == "H_M_PLUS":
        add_delta(f"delta_ones_{tag.m}", ONE * tag.m)
    elif kind == "H_0_PLUS":
        add_delta("delta_11ss", "11**")
    elif kind == "H_PRIME_PLUS":
        add_delta("delta_1s1s", "1*1*")
    elif kind == "S_PLUS":
        residuals["projections"] = _projection_entries_residual(rep)
        residuals["sums"] = _sum_condition_residual(rep)
    if tag.classical:
        residuals["commutativity"] = _commutativity_residual(rep)
    residual = max(residuals.values())
    return Check(
        holds=residual <= rep.tol,
        residual=residual,
        witness=witness,
        details=residuals,
    )


def hadamard(u, v):
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


def coproduct_lift(a: MatrixRep, b: MatrixRep) -> MatrixRep:
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


def _standard_scan_patterns(max_len: int = 4, power_max: int = 6):
    out = []
    for k in range(2, max_len + 1):
        out.extend(StarPattern.all_patterns(k))
    for m in range(max_len + 1, power_max + 1):
        out.append(StarPattern(ONE * m))
        out.append(StarPattern(STAR * m))
    return out


def structural_consequences(rep: MatrixRep, patterns=None) -> dict:
    """Entrywise facts forced by which delta identities a model satisfies."""
    if patterns is None:
        patterns = _standard_scan_patterns()
    else:
        patterns = [StarPattern.coerce(p) for p in patterns]
    satisfied = [d for d in patterns if full_delta_identity_holds(rep, d).holds]
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

    power_worst = 0.0
    power_seen = False
    for d in satisfied:
        m = abs(d.imbalance)
        if m < 1:
            continue
        power_seen = True
        base = rep.entries if d.imbalance < 0 else rep.adjoint_entries()
        for j in range(rep.n):
            total = np.zeros((rep.d, rep.d), dtype=complex)
            for alpha in range(rep.n):
                total += np.linalg.matrix_power(base[alpha, j], m)
            power_worst = max(power_worst, operator_norm(total - np.eye(rep.d)))
    if power_seen:
        checks["power_sums"] = Check(power_worst <= rep.tol, power_worst)

    return {
        "satisfied_patterns": sorted(
            sat_letters, key=lambda s: (len(s), tuple(0 if c == ONE else 1 for c in s))
        ),
        "checks": checks,
        "holds": all(c.holds for c in checks.values()),
    }


def family_below(a: FamilyTag, b: FamilyTag) -> bool:
    """Whether family a sits inside family b in the symmetry lattice."""
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


def all_family_tags(m_max: int = M_MAX_DEFAULT, classical: bool = False):
    tags = [
        FamilyTag(kind, classical=classical)
        for kind in FAMILY_KINDS
        if kind != "H_M_PLUS"
    ]
    tags.extend(
        FamilyTag("H_M_PLUS", m, classical=classical) for m in range(3, m_max + 1)
    )
    return tags


def lattice_position(rep: MatrixRep, m_max: int = M_MAX_DEFAULT) -> dict:
    tags = all_family_tags(m_max)
    base = check_biunitary(rep)
    results = {tag: _check_family(rep, tag, base) for tag in tags}
    satisfied = {tag for tag, chk in results.items() if chk.holds}
    minimal = {
        t
        for t in satisfied
        if not any(s != t and family_below(s, t) for s in satisfied)
    }
    upward_consistent = all(
        t in satisfied
        for s in satisfied
        for t in tags
        if family_below(s, t)
    )

    kinds = {t.kind for t in satisfied}
    reflection = bool(
        kinds & {"H_S_PLUS", "H_M_PLUS", "H_0_PLUS", "H_PRIME_PLUS"}
    )
    bside = bool(kinds & {"B_PLUS", "B_S_PLUS", "S_PLUS"})
    indices = {t.m for t in satisfied if t.kind == "H_M_PLUS"}
    if kinds & {"O_PLUS", "H_S_PLUS"}:
        indices.add(2)

    implied = None
    if bside and reflection:
        implied = FamilyTag("S_PLUS")
    elif indices:
        g = math.gcd(*indices)
        if g >= 3:
            implied = FamilyTag("H_M_PLUS", g)
        elif g == 2:
            if kinds & {"H_S_PLUS", "H_M_PLUS"}:
                implied = FamilyTag("H_S_PLUS")
            else:
                implied = FamilyTag("O_PLUS")
        else:
            implied = FamilyTag("S_PLUS")
    consistent = implied is None or (implied in results and results[implied].holds)

    return {
        "satisfied": sorted(t.label() for t in satisfied),
        "minimal": sorted(t.label() for t in minimal),
        "upward_consistent": upward_consistent,
        "closure": {
            "indices": sorted(indices),
            "implied": implied.label() if implied is not None else None,
            "consistent": consistent,
        },
        "m_scan": m_max,
        "results": results,
    }
