"""The stacked relation residuals of freesym.qgroups agree bit for bit with
the per-entry loops kept in reference.py.

Each model is checked twice: once as the package runs, and once with the
reference residuals patched into qgroups, so check_family and
lattice_position run their own code on the loops' numbers.  Residuals are
compared by float.hex, lifted entries byte for byte.
"""

import numpy as np
import pytest

import reference
from freesym import qgroups
from freesym.errors import InputMismatchError, SizeLimitError
from freesym.fixtures import (
    fixture_set,
    haar_unitary_spec,
    nilpotent_pair_rep,
    permutation_rep,
    rotation_rep,
    witness_for_family,
)
from freesym.invariance import cumulant_identity_extractor
from freesym.partitions import StarPattern
from freesym.qgroups import (
    MatrixRep,
    all_family_tags,
    block_identity_holds,
    check_biunitary,
    check_family,
    coproduct_lift,
    lattice_position,
    structural_consequences,
)

# family scan depth; at lattice_position's default 12 the d>1 block kernel
# would form 3^12 tuples of 1^12 and *^12 on the 3x2 Haar model alone
M_SCAN = 5
TAGS = all_family_tags(M_SCAN) + all_family_tags(M_SCAN, classical=True)
HAAR_SIZES = ((2, 2), (3, 2), (2, 3), (5, 1), (9, 1), (12, 1))


def _haar_blocks(n: int, d: int, seed: int) -> MatrixRep:
    """A Haar unitary of size n*d cut into n x n blocks of size d."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n * d, n * d)) + 1j * rng.standard_normal((n * d, n * d))
    q, r = np.linalg.qr(g)
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    return MatrixRep(u.reshape(n, d, n, d).transpose(0, 2, 1, 3))


def _models() -> dict:
    models = {name: rep for name, (rep, _) in fixture_set().reps.items()}
    for tag in all_family_tags(M_SCAN):
        for n in (2, 3, 4):
            try:
                models[f"witness_{tag.label()}_{n}"] = witness_for_family(tag, n)
            except InputMismatchError:
                pass  # the bistochastic orthogonal witness exists for n <= 3 only
    models["S_4"] = permutation_rep(4)
    for name, rep in (
        ("nilpotent", nilpotent_pair_rep(2)),
        ("rotation", rotation_rep(2)),
        ("permutation", permutation_rep(3)),
    ):
        models[f"lift_{name}"] = reference.reference_coproduct_lift(rep, rep)
    for seed, (n, d) in enumerate(HAAR_SIZES, 90):
        models[f"haar_{n}x{d}"] = _haar_blocks(n, d, seed)
    return models


MODELS = _models()
BLOCK_PATTERNS = [d.letters for k in (1, 2, 3) for d in StarPattern.all_patterns(k)]
SPECS = {name: spec for name, spec in fixture_set().specs.items()
         if name in ("spec_semicircular", "spec_circular", "spec_r_diagonal")}
SPECS["haar_unitary"] = haar_unitary_spec()


def _hexed(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {k: _hexed(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_hexed(v) for v in value]
    return value


def _check_key(chk) -> tuple:
    return chk.holds, chk.witness, chk.residual.hex(), _hexed(chk.details)


def _structural_key(report: dict) -> tuple:
    checks = {name: _check_key(chk) for name, chk in report["checks"].items()}
    return report["satisfied_patterns"], report["holds"], checks


def _family_keys(rep: MatrixRep) -> dict:
    return {tag.label(): _check_key(check_family(rep, tag)) for tag in TAGS}


def _lattice(rep: MatrixRep) -> dict:
    out = lattice_position(rep, M_SCAN)
    del out["results"]
    return out


def _use_reference(monkeypatch) -> None:
    named = qgroups._NAMED_RELATIONS
    monkeypatch.setitem(named, "sums", reference.reference_sum_condition_residual)
    monkeypatch.setitem(named, "projections",
                        lambda rep: reference.reference_projection_residual(rep, 1))
    monkeypatch.setitem(named, "square_projections",
                        lambda rep: reference.reference_projection_residual(rep, 2))
    monkeypatch.setattr(qgroups, "_commutativity_residual",
                        reference.reference_commutativity_residual)
    monkeypatch.setattr(qgroups, "check_biunitary", reference.reference_check_biunitary)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_stacked_relations_match_the_per_entry_loops(name, monkeypatch):
    rep = MODELS[name]
    families, lattice = _family_keys(rep), _lattice(rep)
    _use_reference(monkeypatch)
    # a model of its own, whose memo is empty, so the reference answers
    fresh = MatrixRep(rep.entries, tol=rep.tol)
    calls = []
    monkeypatch.setattr(qgroups, "check_biunitary",
                        lambda model: calls.append(model) or reference.reference_check_biunitary(model))
    assert families == _family_keys(fresh), name
    assert lattice == _lattice(fresh), name
    assert calls and all(model is fresh for model in calls), name
    monkeypatch.undo()

    assert _check_key(check_biunitary(rep)) == _check_key(
        reference.reference_check_biunitary(rep))
    assert _structural_key(structural_consequences(rep)) == _structural_key(
        reference.reference_structural_consequences(rep))
    for letters in BLOCK_PATTERNS:
        for j in range(rep.n):
            assert _check_key(block_identity_holds(rep, letters, j)) == _check_key(
                reference.reference_block_identity_holds(rep, letters, j)), (letters, j)
    for spec_name, spec in SPECS.items():
        for model in (rep, MatrixRep(rep.entries, tol=1e-3)):  # a verdict at another tol is another model's
            out = cumulant_identity_extractor(spec, model, cross_validate=False)
            want = reference.reference_identity_failures(model, out["patterns_checked"])
            assert _hexed(out["failed_identities"]) == _hexed(want), (spec_name, model.tol)

    if rep.n * rep.d * rep.d > qgroups.MAX_FLAT_DIM:
        for lift in (coproduct_lift, reference.reference_coproduct_lift):
            with pytest.raises(SizeLimitError):
                lift(rep, rep)
        return
    got = coproduct_lift(rep, rep)
    want = reference.reference_coproduct_lift(rep, rep)
    assert got.entries.shape == want.entries.shape and got.tol == want.tol
    assert got.entries.tobytes() == want.entries.tobytes()
