"""Built-in witness models and class sample specs.

Every named model here satisfies a declared family, and all but one fail
the families strictly below it, which is what makes the set useful for
separating the lattice nodes.  The exception is unit_i_diag: diag(i, 1, 1)
has entries of order 4, so it satisfies H_M_PLUS(4), which lies below its
declared U_PLUS, and its minimal family is H_M_PLUS(4).  The 2x2
bistochastic orthogonal case degenerates to the swap, so at n=2 that
witness cannot separate B_S_PLUS from S_PLUS; callers compare against each
model's own relation profile rather than assuming separation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .cumulants import MomentTable, moments_to_free_cumulants
from .distributions import (
    CumulantSpecSingle,
    sample_spec,
    spec_from_cumulant_table,
)
from .easy import ClassTag, class_tags
from .errors import InputMismatchError
from .partitions import StarPattern
from .qgroups import FamilyTag, MatrixRep, check_family
from . import serialize


def _scalar_rep(matrix) -> MatrixRep:
    return MatrixRep(np.asarray(matrix, dtype=complex))


def _diag_rep(first: complex, n: int) -> MatrixRep:
    mat = np.eye(n, dtype=complex)
    mat[0, 0] = first
    return _scalar_rep(mat)


def permutation_rep(n: int = 3) -> MatrixRep:
    mat = np.zeros((n, n), dtype=complex)
    for j in range(n):
        mat[(j + 1) % n, j] = 1.0
    return _scalar_rep(mat)


def rotation_rep(n: int = 2) -> MatrixRep:
    mat = np.eye(n, dtype=complex)
    mat[0, 0], mat[0, 1] = 0.6, 0.8
    mat[1, 0], mat[1, 1] = 0.8, -0.6
    return _scalar_rep(mat)


def bistochastic_orthogonal_rep(n: int = 3) -> MatrixRep:
    if n == 2:
        # the only 2x2 bistochastic orthogonal matrices are permutations
        return permutation_rep(2)
    if n != 3:
        raise InputMismatchError("bistochastic orthogonal witness needs n in {2, 3}")
    third = 1.0 / 3.0
    mat = np.array(
        [
            [2 * third, 2 * third, -third],
            [2 * third, -third, 2 * third],
            [-third, 2 * third, 2 * third],
        ],
        dtype=complex,
    )
    return _scalar_rep(mat)


def _bistochastic_unitary_block() -> np.ndarray:
    a = 0.5 + 0.5j
    b = 0.5 - 0.5j
    return np.array([[a, b], [b, a]], dtype=complex)


def bistochastic_unitary_rep(n: int = 3) -> MatrixRep:
    mat = np.eye(n, dtype=complex)
    mat[:2, :2] = _bistochastic_unitary_block()
    return _scalar_rep(mat)


def uncorrected_bistochastic_unitary_rep(n: int = 3) -> MatrixRep:
    # the broken variant with entries 1/2 +- i; rows have norm sqrt(2.5),
    # so this is not biunitary and must be rejected by validating loaders
    mat = np.eye(n, dtype=complex)
    mat[0, 0] = mat[1, 1] = 0.5 + 1j
    mat[0, 1] = mat[1, 0] = 0.5 - 1j
    return _scalar_rep(mat)


def sign_diag_rep(n: int = 2) -> MatrixRep:
    return _diag_rep(-1.0, n)


def phase_diag_rep(m: int, n: int = 2) -> MatrixRep:
    if m < 1:
        raise InputMismatchError("phase order must be positive")
    return _diag_rep(np.exp(2j * np.pi / m), n)


def irrational_phase_rep(n: int = 2) -> MatrixRep:
    return _diag_rep(np.exp(1j * np.pi * math.sqrt(2.0)), n)


def unit_i_diag_rep(n: int = 2) -> MatrixRep:
    return _diag_rep(1j, n)


def nilpotent_pair_rep(n: int = 2) -> MatrixRep:
    e12 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    e21 = e12.T.copy()
    entries = np.zeros((n, n, 2, 2), dtype=complex)
    entries[0, 0] = e12
    entries[0, 1] = e21
    entries[1, 0] = e21
    entries[1, 1] = e12
    for i in range(2, n):
        entries[i, i] = np.eye(2)
    return MatrixRep(entries)


# family kind -> witness constructor, given the modulus m and the size n
_WITNESSES = {
    "S_PLUS": lambda m, n: permutation_rep(n),
    "O_PLUS": lambda m, n: rotation_rep(n),
    "B_S_PLUS": lambda m, n: bistochastic_orthogonal_rep(n),
    "H_S_PLUS": lambda m, n: sign_diag_rep(n),
    "B_PLUS": lambda m, n: bistochastic_unitary_rep(n),
    "H_M_PLUS": phase_diag_rep,
    "H_0_PLUS": lambda m, n: irrational_phase_rep(n),
    "H_PRIME_PLUS": lambda m, n: nilpotent_pair_rep(n),
    "U_PLUS": lambda m, n: unit_i_diag_rep(n),
}


def witness_for_family(tag: FamilyTag, n: int = 2) -> MatrixRep:
    return _WITNESSES[tag.kind](tag.m, n)


def haar_unitary_spec(order: int = 6) -> CumulantSpecSingle:
    """Free cumulants of a Haar unitary, computed from its moments.

    The moment of a pattern is 1 exactly when the exponents cancel, 0
    otherwise; inversion then produces the alternating entries.
    """
    moments = MomentTable(order=order, data={d: 1.0 for k in range(1, order + 1)
                                             for d in StarPattern.all_patterns(k) if d.imbalance == 0})
    table = moments_to_free_cumulants(moments, order)
    return spec_from_cumulant_table(table)


# name, family and size of each fixture model
_REP_RECIPES = (
    ("permutation", FamilyTag("S_PLUS"), 3),
    ("rotation", FamilyTag("O_PLUS"), 2),
    ("bistochastic_orthogonal", FamilyTag("B_S_PLUS"), 3),
    ("sign_diag", FamilyTag("H_S_PLUS"), 2),
    ("bistochastic_unitary", FamilyTag("B_PLUS"), 3),
    ("phase_diag_3", FamilyTag("H_M_PLUS", 3), 3),
    ("irrational_phase", FamilyTag("H_0_PLUS"), 3),
    ("nilpotent_pair", FamilyTag("H_PRIME_PLUS"), 2),
    ("unit_i_diag", FamilyTag("U_PLUS"), 3),
)


def _spec_name(tag: ClassTag) -> str:
    if tag.kind == "M_UNITARY":
        return f"spec_m_unitary_{tag.m}"
    return "spec_" + tag.kind.lower()


@dataclass
class FixtureSet:
    reps: dict = field(default_factory=dict)
    specs: dict = field(default_factory=dict)

    def validate(self) -> None:
        for name, (rep, tag) in self.reps.items():
            chk = check_family(rep, tag)
            if not chk.holds:
                raise InputMismatchError(
                    f"fixture {name!r} fails its declared family "
                    f"{tag.label()} (residual {chk.residual:.3g})"
                )


def fixture_set(seed: int = 0) -> FixtureSet:
    reps = {name: (witness_for_family(tag, n), tag) for name, tag, n in _REP_RECIPES}
    specs = {_spec_name(tag): sample_spec(tag, seed=seed) for tag in class_tags(3)}
    specs["haar_unitary"] = haar_unitary_spec()
    out = FixtureSet(reps=reps, specs=specs)
    out.validate()
    return out


def write_fixtures(out_dir, seed: int = 0) -> dict:
    fixtures = fixture_set(seed=seed)
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    manifest = {"reps": {}, "specs": {}, "seed": seed}
    for name, (rep, tag) in sorted(fixtures.reps.items()):
        fname = f"{name}.json"
        serialize.save_rep(rep, root / fname)
        manifest["reps"][name] = {
            "file": fname,
            "family": tag.spell(),
            "n": rep.n,
            "d": rep.d,
        }
    for name, spec in sorted(fixtures.specs.items()):
        fname = f"{name}.json"
        serialize.save_spec(spec, root / fname)
        manifest["specs"][name] = {"file": fname, "order": spec.order}
    with open(root / "manifest.json", "w") as fh:
        fh.write(serialize.dumps(manifest))
    return manifest
