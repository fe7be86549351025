import numpy as np
import pytest

from freesym.distributions import FreeClassTag, sample_spec
from freesym.errors import InputMismatchError, OrderBoundError
from freesym.fixtures import (
    fixture_set,
    irrational_phase_rep,
    nilpotent_pair_rep,
    permutation_rep,
    phase_diag_rep,
    rotation_rep,
    sign_diag_rep,
    unit_i_diag_rep,
)
from freesym.invariance import (
    _PROBE_CLASSES,
    FreeIIDJoint,
    TableJoint,
    _action_lhs,
    check_2_exchangeable,
    check_invariance,
    cumulant_identity_extractor,
    governing_family,
    matrix_b_coeffs,
    theorem1_probe,
)
from freesym.partitions import StarPattern
from freesym.qgroups import FamilyTag, MatrixRep, coproduct_lift, operator_norm


def spec_of(kind, m=None, seed=0):
    return sample_spec(FreeClassTag(kind, m), seed=seed)


def test_free_iid_under_permutation_is_exact():
    joint = FreeIIDJoint(spec_of("R_DIAGONAL").to_table(), 3)
    verdict = check_invariance(joint, permutation_rep(3), 5)
    assert verdict.invariant
    assert verdict.worst_residual == 0.0


def test_semicircular_under_rotation():
    verdict = check_invariance(spec_of("SEMICIRCULAR"), rotation_rep(2), 5)
    assert verdict.invariant
    assert verdict.worst_residual < 1e-12


def test_semicircular_under_quarter_phase_breaks_at_order_two():
    verdict = check_invariance(spec_of("SEMICIRCULAR"), unit_i_diag_rep(2), 5)
    assert not verdict.invariant
    k, letters, word, residual = verdict.first_violation
    assert (k, letters, word) == (2, "11", (1, 1))
    assert residual == pytest.approx(2.0, abs=1e-12)  # i^2 kappa vs kappa


def test_cube_phase_matches_modulus_three():
    spec = spec_of("M_UNITARY", 3)
    assert check_invariance(spec, phase_diag_rep(3, 2), 5).invariant

    rep = irrational_phase_rep(2)
    verdict = check_invariance(spec, rep, 5)
    assert not verdict.invariant
    k, letters, word, residual = verdict.first_violation
    assert (k, letters, word) == (3, "111", (1, 1, 1))
    z = complex(rep.entries[0, 0, 0, 0])
    assert residual == pytest.approx(abs(z**3 - 1), abs=1e-12)


def test_circular_is_invariant_under_every_fixture_model():
    spec = spec_of("CIRCULAR")
    for name, (rep, _) in fixture_set().reps.items():
        verdict = check_invariance(spec, rep, 5)
        assert verdict.invariant, (name, verdict.first_violation)


def test_alternating_class_sees_the_alternating_relation():
    spec = spec_of("R_DIAGONAL")
    assert check_invariance(spec, nilpotent_pair_rep(2), 5).invariant
    verdict = check_invariance(spec, rotation_rep(2), 5)
    assert not verdict.invariant
    assert verdict.first_violation[0] <= 4


def test_shift_breaks_under_unbalanced_columns():
    verdict = check_invariance(spec_of("SHIFTED_ORTHOGONAL"), rotation_rep(2), 5)
    assert not verdict.invariant
    k, letters, word, residual = verdict.first_violation
    assert (k, letters, word) == (1, "1", (1,))
    assert residual == pytest.approx(0.4, abs=1e-12)  # column sum 1.4 vs 1


def test_matrix_coefficients_ride_along():
    coeffs = matrix_b_coeffs(3, seed=0)
    assert len(coeffs) == 4
    assert np.allclose(coeffs[0], coeffs[2])
    ab = coeffs[0] @ coeffs[1] - coeffs[1] @ coeffs[0]
    assert operator_norm(ab) > 1e-3
    again = matrix_b_coeffs(3, seed=0)
    assert all(np.allclose(x, y) for x, y in zip(coeffs, again))

    from freesym.fixtures import bistochastic_unitary_rep

    verdict = check_invariance(
        spec_of("CIRCULAR"), bistochastic_unitary_rep(3), 4, matrix_coeffs=True
    )
    assert verdict.invariant
    verdict = check_invariance(
        spec_of("SEMICIRCULAR"), unit_i_diag_rep(2), 4, matrix_coeffs=True
    )
    assert not verdict.invariant
    assert verdict.first_violation[:2] == (2, "11")


def test_moment_tensor_cache_is_reused():
    joint = FreeIIDJoint(spec_of("SEMICIRCULAR").to_table(), 2)
    a = joint.moment_tensor(2, "11", cache_key="plain")
    b = joint.moment_tensor(2, "11", cache_key="plain")
    assert a is b
    c = joint.moment_tensor(2, "11")
    assert c is not a and np.allclose(a, c)


def test_order_and_size_guards():
    spec = spec_of("SEMICIRCULAR")
    with pytest.raises(OrderBoundError):
        check_invariance(spec, rotation_rep(2), 7)
    joint = FreeIIDJoint(spec.to_table(), 3)
    with pytest.raises(InputMismatchError):
        check_invariance(joint, rotation_rep(2), 4)
    with pytest.raises(InputMismatchError):
        check_invariance(spec, rotation_rep(2), 0)


def test_two_exchangeability():
    joint = FreeIIDJoint(spec_of("FREE_UNITARY").to_table(), 3)
    assert check_2_exchangeable(joint).holds

    lopsided = TableJoint(
        n=2, order=2, data={((1,), "1"): 1.0, ((2,), "1"): 2.0}
    )
    chk = check_2_exchangeable(lopsided)
    assert not chk.holds
    assert chk.residual == pytest.approx(1.0)

    ordered = TableJoint(
        n=2,
        order=2,
        data={
            ((1, 2), "11"): 5.0,
            ((2, 1), "11"): 7.0,
            ((1, 1), "11"): 3.0,
            ((2, 2), "11"): 3.0,
        },
    )
    chk = check_2_exchangeable(ordered)
    assert not chk.holds
    assert chk.details["pairs_11"] == pytest.approx(2.0)

    bucketed = TableJoint(
        n=2,
        order=2,
        data={
            ((1, 2), "11"): 5.0,
            ((2, 1), "11"): 5.0,
            ((1, 1), "11"): 3.0,
            ((2, 2), "11"): 3.0,
        },
    )
    assert check_2_exchangeable(bucketed).holds


def test_tabulated_joint_takes_mixed_coefficients():
    data = {((i, j), "11"): 3.0 if i == j else 5.0 for i in (1, 2) for j in (1, 2)}
    joint = TableJoint(n=2, order=2, data=data)
    b = matrix_b_coeffs(2)[1]
    tensor = joint.moment_tensor(2, "11", [1.0, b, 1.0])
    assert np.array_equal(tensor, joint.moment_tensor(2, "11")[..., None, None] * b)
    assert check_2_exchangeable(joint, coeffs=b).holds


def test_extractor_predicts_and_agrees():
    report = cumulant_identity_extractor(spec_of("SEMICIRCULAR"), unit_i_diag_rep(2))
    assert not report["predicted_invariant"]
    assert report["failed_identities"][0]["pattern"] == "11"
    assert report["agree"]

    report = cumulant_identity_extractor(spec_of("SEMICIRCULAR"), rotation_rep(2))
    assert report["predicted_invariant"]
    assert report["agree"]

    # shifted input forces the order-one column identity into the scan
    report = cumulant_identity_extractor(
        spec_of("SHIFTED_ORTHOGONAL"), rotation_rep(2)
    )
    assert "1" in report["patterns_checked"]
    assert not report["predicted_invariant"]
    assert report["agree"]


def test_extractor_agreement_on_selected_pairs():
    specs = [
        spec_of("SYMMETRIC"),
        spec_of("M_UNITARY", 3),
        spec_of("R_DIAGONAL"),
        spec_of("SHIFTED_CIRCULAR"),
    ]
    reps = [
        rotation_rep(2),
        sign_diag_rep(2),
        nilpotent_pair_rep(2),
        phase_diag_rep(3, 2),
    ]
    for spec in specs:
        for rep in reps:
            report = cumulant_identity_extractor(spec, rep, max_order=4)
            assert report["agree"], (spec.entries, rep.entries[:, :, 0, 0])


def test_invariance_composes_through_lifts():
    semi = spec_of("SEMICIRCULAR")
    for a, b in (
        (rotation_rep(2), rotation_rep(2)),
        (sign_diag_rep(2), rotation_rep(2)),
        (permutation_rep(3), permutation_rep(3)),
    ):
        assert check_invariance(semi, a, 4).invariant
        assert check_invariance(semi, b, 4).invariant
        lifted = coproduct_lift(a, b)
        assert check_invariance(semi, lifted, 4).invariant


def test_governing_family():
    assert governing_family(FreeClassTag("SEMICIRCULAR")) == FamilyTag("O_PLUS")
    assert governing_family(FreeClassTag("M_UNITARY", 4)) == FamilyTag("H_M_PLUS", 4)
    assert governing_family(FreeClassTag("SHIFTED_CIRCULAR")) == FamilyTag("B_PLUS")


def test_probe_grid_has_no_mismatches():
    probe = theorem1_probe(n=2, max_order=4, seed=0)
    assert probe["cells"] == 81
    assert probe["mismatches"] == []
    assert len(probe["grid"]) == 9
    assert all(len(row) == 9 for row in probe["grid"].values())
    assert any("B_S_PLUS" in note for note in probe["notes"])
    row = probe["grid"]["CIRCULAR"]
    assert all(cell["expected"] and cell["actual"] for cell in row.values())


def _einsum_action(E, rep, letters):
    """The one-einsum contraction _action_lhs replaced, kept as its reference."""
    i_pool, j_pool, a_pool = "abcdefgh", "nopqrstu", "ABCDEFGHJ"
    k = len(letters)
    pair = "YZ" if E.ndim == k + 2 else ""
    subs, operands = [i_pool[:k] + pair], [E]
    for t, letter in enumerate(letters):
        operands.append(rep.letter_array(letter))
        subs.append(i_pool[t] + j_pool[t] + a_pool[t] + a_pool[t + 1])
    out = j_pool[:k] + pair + a_pool[0] + a_pool[k]
    return np.einsum(",".join(subs) + "->" + out, *operands, optimize=True)


def test_slot_by_slot_action_matches_einsum():
    rng = np.random.default_rng(80)
    reps = [rep for rep, _ in fixture_set().reps.values()]
    reps.append(coproduct_lift(nilpotent_pair_rep(2), nilpotent_pair_rep(2)))
    reps.append(MatrixRep(rng.standard_normal((3, 3, 2, 2)) + 1j * rng.standard_normal((3, 3, 2, 2))))
    for rep in reps:
        for k in range(1, 5):
            for d in StarPattern.all_patterns(k):
                for pair in ((), (2, 2)):
                    shape = (rep.n,) * k + pair
                    E = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                    got, want = _action_lhs(E, rep, d.letters), _einsum_action(E, rep, d.letters)
                    assert got.shape == want.shape
                    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_relabelling_the_model_keeps_every_verdict():
    for ctag in _PROBE_CLASSES:
        spec = sample_spec(ctag, seed=0)
        for name, (rep, _) in fixture_set().reps.items():
            sigma = np.roll(np.arange(rep.n), 1)
            moved = MatrixRep(rep.entries[np.ix_(sigma, sigma)], tol=rep.tol)
            want = check_invariance(spec, rep, 4).invariant
            assert check_invariance(spec, moved, 4).invariant == want, (ctag.label(), name)


def test_invariance_survives_the_coproduct_lift():
    invariant_cells = 0
    for ctag in _PROBE_CLASSES:
        spec = sample_spec(ctag, seed=0)
        for name, (rep, _) in fixture_set().reps.items():
            if not check_invariance(spec, rep, 4).invariant:
                continue
            invariant_cells += 1
            lifted = coproduct_lift(rep, rep)
            verdict = check_invariance(spec, lifted, 4)
            assert verdict.invariant, (ctag.label(), name, verdict.first_violation)
    assert invariant_cells > 0
