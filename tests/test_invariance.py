import dataclasses
import gc
import hashlib
import time
import tracemalloc
import weakref
from itertools import product
from types import MappingProxyType

import numpy as np
import pytest

from freesym import cumulants, invariance, qgroups
from freesym.cumulants import joint_moment_tensor, joint_moments_free_family, random_cumulant_table
from freesym.distributions import CumulantSpecSingle, FreeClassTag, classify_report, sample_spec
from freesym.errors import InputMismatchError, OrderBoundError
from freesym.fixtures import (
    bistochastic_orthogonal_rep,
    fixture_set,
    irrational_phase_rep,
    nilpotent_pair_rep,
    permutation_rep,
    phase_diag_rep,
    rotation_rep,
    sign_diag_rep,
    unit_i_diag_rep,
    witness_for_family,
)
from freesym.invariance import (
    _PROBE_CLASSES,
    _PROBE_FAMILIES,
    FreeIIDJoint,
    TableJoint,
    _acted,
    check_invariance,
    cumulant_identity_extractor,
    governing_family,
    matrix_b_coeffs,
    theorem1_probe,
)
from freesym.partitions import StarPattern
from freesym.qgroups import FamilyTag, MatrixRep, coproduct_lift, operator_norm, spectral_norms
from reference import reference_first_violation


def spec_of(kind, m=None, seed=0):
    return sample_spec(FreeClassTag(kind, m), seed=seed)


@pytest.fixture
def empty_law_memo():
    cumulants.release_law_memo()
    yield
    cumulants.release_law_memo()


def _cold(fn, *args, **kwargs):
    """fn from an empty law memo, leaving the memo as it was."""
    held, idle = cumulants._last_law, dict(cumulants._idle_laws)
    cumulants.release_law_memo()
    try:
        return fn(*args, **kwargs)
    finally:
        cumulants._last_law = held
        cumulants._idle_laws.clear()
        cumulants._idle_laws.update(idle)


def _counting_builds(monkeypatch) -> list:
    """Record every tensor build of the free recursion from here on (one _first_blocks call each)."""
    calls = []
    real = cumulants._first_blocks
    monkeypatch.setattr(cumulants, "_first_blocks", lambda *args: calls.append(args) or real(*args))
    return calls


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


def test_order_tensor_is_memoised(empty_law_memo):
    joint = FreeIIDJoint(spec_of("SEMICIRCULAR").to_table(), 2)
    a = joint.order_tensor(2)
    assert joint.order_tensor(2) is a
    assert joint.order_tensor(1) is joint.order_tensor(1)
    assert sorted(cumulants._law_memo(joint.table)[2]) == ["?", "??"]  # one tensor per order
    c = joint_moment_tensor(joint.table, 2, 2, "1*")
    assert np.array_equal(c, a[0, :, 1, :]) and not np.shares_memory(c, a)
    # a pattern's tensor is kept beside the order tensors, and its caller gets a writable copy
    held = cumulants._law_memo(joint.table)[2]["1*"]
    assert c.flags.writeable and not held.flags.writeable and not np.shares_memory(c, held)


def test_order_and_size_guards():
    spec = spec_of("SEMICIRCULAR")
    with pytest.raises(OrderBoundError):
        check_invariance(spec, rotation_rep(2), 7)
    joint = FreeIIDJoint(spec.to_table(), 3)
    with pytest.raises(InputMismatchError):
        check_invariance(joint, rotation_rep(2), 4)
    with pytest.raises(InputMismatchError):
        check_invariance(spec, rotation_rep(2), 0)


def test_tabulated_joint_takes_mixed_coefficients():
    data = {((i, j), "11"): 3.0 if i == j else 5.0 for i in (1, 2) for j in (1, 2)}
    joint = TableJoint(n=2, order=2, data=data)
    b = matrix_b_coeffs(2)[1]
    tensor = joint.order_tensor(2, [1.0, b, 1.0])[0, :, 0]  # the pattern 11
    assert np.array_equal(tensor, joint.order_tensor(2)[0, :, 0][..., None, None] * b)
    # the coefficient keeps the diagonal and the off-diagonal buckets equal
    assert np.array_equal(tensor[0, 0], tensor[1, 1]) and np.array_equal(tensor[0, 1], tensor[1, 0])


def test_tabulated_joint_rejects_malformed_entries():
    # an index outside 1..n, a word and pattern of different lengths, a length past the order
    bad = {((0, 1), "11"): 5.0, ((3, 1), "11"): 7.0, ((1, 2), "1"): 2.0, ((1, 1, 1), "111"): 9.0, ((), ""): 1.0}
    with pytest.raises(InputMismatchError):
        TableJoint(n=2, order=2, data=bad)
    for entry, value in bad.items():
        with pytest.raises(InputMismatchError):
            TableJoint(n=2, order=2, data={((1, 1), "11"): 1.0, entry: value})
    # index 1..n, every length 1..order
    joint = TableJoint(n=2, order=2, data={((2,), "*"): 2.0, ((2, 1), "1*"): 3.0})
    assert joint.order_tensor(1)[1, 1] == 2.0 and joint.order_tensor(2)[0, 1, 1, 0] == 3.0
    assert np.count_nonzero(joint.order_tensor(2)) == 1


def test_tabulated_joint_is_scalar_and_stops_at_its_order():
    with pytest.raises(InputMismatchError, match="scalar-valued only"):
        TableJoint(n=2, order=2, dim=2)
    with pytest.raises(OrderBoundError, match="order 3 exceeds the tabulated order 2"):
        TableJoint(n=2, order=2, data={((1,), "1"): 1.0}).order_tensor(3)


def test_specs_and_joints_are_frozen_after_their_checks():
    spec = CumulantSpecSingle(order=4, entries={"11": 1.0}, selfadjoint=True)
    matrix = CumulantSpecSingle(order=2, dim=2, entries={"1*": np.eye(2)})
    table = TableJoint(n=2, order=2, data={((1, 1), "11"): 1.0})
    free = FreeIIDJoint(spec.to_table(), 2)
    # the two edits that skipped the checks: a complex self-adjoint cumulant, an index past n
    with pytest.raises(TypeError):
        spec.entries["11"] = 1 + 1j
    with pytest.raises(TypeError):
        table.data[(3, 1), "11"] = 1.0
    for mapping in (spec.to_table().data, matrix.to_table().data, table.data):
        key = next(iter(mapping))
        with pytest.raises(TypeError):
            mapping[key] = 0.0
        with pytest.raises(TypeError):
            del mapping[key]
    for block in (matrix.entries["1*"], matrix.to_table().data["1*"]):
        with pytest.raises(ValueError):
            block[0, 0] = 2.0
    for value, name in ((spec, "entries"), (spec, "selfadjoint"), (table, "data"), (table, "n"), (free, "table"),
                        (free, "n")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, getattr(value, name))
    assert classify_report(spec, 4, True)["minimal"] == ["SEMICIRCULAR"]
    assert table.order_tensor(2)[0, 0, 0, 0] == 1.0 and np.count_nonzero(table.order_tensor(2)) == 1


def test_joints_refuse_fewer_than_one_variable():
    table = spec_of("SEMICIRCULAR").to_table()
    for n in (0, -2):
        with pytest.raises(InputMismatchError, match=f"n >= 1 variables, got {n}"):
            FreeIIDJoint(table, n)
        with pytest.raises(InputMismatchError, match=f"n >= 1 variables, got {n}"):
            TableJoint(n=n, order=2)


def test_tabulated_joint_refuses_the_calls_a_free_joint_refuses():
    """order 0 and a coefficient count other than k + 1, with FreeIIDJoint's errors."""
    table = TableJoint(n=2, order=2, data={((1, 1), "11"): 1.0})
    free = FreeIIDJoint(spec_of("SEMICIRCULAR").to_table(), 2)
    for joint in (table, free):
        with pytest.raises(InputMismatchError, match="joint moment tensors need k >= 1"):
            joint.order_tensor(0)
        for coeffs in ([2.0], [1.0, 1.0], [1.0] * 5):
            with pytest.raises(InputMismatchError, match="need 3 interleaved coefficients"):
                joint.order_tensor(2, coeffs)
    assert np.array_equal(table.order_tensor(2, [2.0, 1.0, 1.0]), 2 * table.order_tensor(2))


def test_tabulated_joint_refuses_non_finite_entries():
    for value in (np.inf, -np.inf, np.nan, complex(0, np.inf)):
        with pytest.raises(InputMismatchError, match=r"entry \(1, 2\), '1\*' is not finite"):
            TableJoint(n=2, order=2, data={((1, 1), "11"): 1.0, ((1, 2), "1*"): value})


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_a_scan_refuses_an_order_whose_moments_overflow(monkeypatch, empty_law_memo):
    """kappa_2 = 1e160 makes the order-4 moments inf, which made the limit inf
    too: the law read invariant under a rotation that breaks it at unit
    scale.  The order is refused before any of its chunks is acted on."""
    rotation = rotation_rep(2)
    unit = CumulantSpecSingle(order=4, entries={"11": 1.0, "1111": 1.0}, selfadjoint=True)
    assert check_invariance(unit, rotation, 4).first_violation[:3] == (4, "1111", (1, 1, 1, 1))
    huge = CumulantSpecSingle(order=4, entries={"11": 1e160, "1111": 1e300}, selfadjoint=True)
    acted = []
    monkeypatch.setattr(invariance, "_residual_norms", lambda X, mats: acted.append(len(mats)) or np.zeros(X.shape))
    for matrix_coeffs in (False, True):
        with pytest.raises(InputMismatchError, match="order 4 moments are not finite"):
            check_invariance(huge, rotation, 4, matrix_coeffs=matrix_coeffs)
        assert set(acted) == {2}, acted  # order 2 was scanned, order 4 not
        acted.clear()
    # a tabulated order of NaN, as a joint changed after its checks holds it
    joint = TableJoint(n=2, order=2, data={((1, 1), "11"): 1.0})
    object.__setattr__(joint, "data", MappingProxyType({((1, 1), "11"): complex(np.nan)}))
    with pytest.raises(InputMismatchError, match="order 2 moments are not finite"):
        check_invariance(joint, rotation, 2)
    assert acted == []


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


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-9])
def test_scans_and_the_extractor_refuse_an_unusable_tolerance(tol):
    """A NaN tolerance made every comparison false, so a violated law read
    invariant (the default tolerance reads it violated); an infinite one
    passes everything and a negative one nothing.  Each is refused by name."""
    spec, rep = spec_of("SYMMETRIC"), rotation_rep(2)
    assert not check_invariance(spec, rep, 4).invariant
    with pytest.raises(InputMismatchError, match="tolerance must be nonnegative and finite"):
        check_invariance(spec, rep, 4, tol=tol)
    with pytest.raises(InputMismatchError, match="tolerance must be nonnegative and finite"):
        cumulant_identity_extractor(spec, rep, tol=tol)


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


def test_probe_checks_each_witness_biunitarity_once(monkeypatch):
    """Each witness's four biunitarity norms are worked out once, however
    many family checks read them."""
    norms = []
    original = qgroups.operator_norm
    monkeypatch.setattr(qgroups, "operator_norm", lambda x: norms.append(x) or original(x))
    probe = theorem1_probe(n=2, max_order=4, seed=0)
    assert probe["mismatches"] == []
    assert len(norms) == 4 * len(probe["witness_profiles"]) == 4 * 9


def test_negative_seeds_and_probe_sizes_are_rejected_by_name(monkeypatch):
    with pytest.raises(InputMismatchError, match="seed must be nonnegative"):
        matrix_b_coeffs(2, seed=-1)
    with pytest.raises(InputMismatchError, match="seed must be nonnegative"):
        spec_of("CIRCULAR", seed=-1)
    # the probe's size is checked before any witness is built
    monkeypatch.setattr(invariance, "witness_for_family", None)
    for n in (-2, 0, 1, 4):
        with pytest.raises(InputMismatchError, match="n must be 2 or 3"):
            theorem1_probe(n=n)


def _einsum_action(E, rep, letters):
    """The one-einsum contraction of one pattern's moments, kept as the reference."""
    i_pool, j_pool, a_pool = "abcdefgh", "nopqrstu", "ABCDEFGHJ"
    k = len(letters)
    pair = "YZ" if E.ndim == k + 2 else ""
    subs, operands = [i_pool[:k] + pair], [E]
    for t, letter in enumerate(letters):
        operands.append(rep.letter_array(letter))
        subs.append(i_pool[t] + j_pool[t] + a_pool[t] + a_pool[t + 1])
    out = j_pool[:k] + pair + a_pool[0] + a_pool[k]
    return np.einsum(",".join(subs) + "->" + out, *operands, optimize=True)


def _letter_mats(rep):
    """u and its entrywise adjoint as (i, A) x (j, B) matrices, and diag(u, adjoint) over (letter, i)."""
    nd = rep.n * rep.d
    U = [rep.letter_array(ch).transpose(0, 2, 1, 3).reshape(nd, nd) for ch in "1*"]
    both = np.zeros((2, nd, 2, nd), dtype=complex)
    both[0, :, 0], both[1, :, 1] = U
    return U, both.reshape(2 * nd, 2 * nd)


def test_slot_by_slot_action_matches_einsum():
    rng = np.random.default_rng(80)
    reps = [rep for rep, _ in fixture_set().reps.values()]
    reps.append(coproduct_lift(nilpotent_pair_rep(2), nilpotent_pair_rep(2)))
    reps.append(MatrixRep(rng.standard_normal((3, 3, 2, 2)) + 1j * rng.standard_normal((3, 3, 2, 2))))
    for rep in reps:
        U, both = _letter_mats(rep)
        n, d = rep.n, rep.d
        for k in range(1, 5):
            for pair in ((), (2, 2)):
                shape = (2, n) * k + pair
                E = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                want = {}
                for pattern in StarPattern.all_patterns(k):
                    at = tuple(int(ch == "*") for ch in pattern.letters)
                    want[at] = _einsum_action(E[tuple(x for c in at for x in (c, slice(None)))], rep, pattern.letters)
                # chunks fixing the first m letters; the open slots run over (letter, index)
                for m in range(k + 1):
                    for head in product((0, 1), repeat=m):
                        X = E[tuple(x for c in head for x in (c, slice(None)))]
                        got = _acted(X.reshape((n,) * m + (2 * n,) * (k - m) + pair), [U[c] for c in head] + [both] * (k - m))
                        # axes (pair, A_0, j_1..j_k, A_k), an open j_t over (letter, index)
                        got = got.reshape(pair + (d,) + (1, n) * m + (2, n) * (k - m) + (d,))
                        for at, cell in want.items():
                            if at[:m] != head:
                                continue
                            lead = tuple(x for t, c in enumerate(at) for x in (0 if t < m else c, slice(None)))
                            # -> per pattern (j_1..j_k, pair, A_0, A_k)
                            mine = np.moveaxis(got[(slice(None),) * (len(pair) + 1) + lead],
                                               list(range(len(pair) + 1)), list(range(k, k + len(pair) + 1)))
                            assert mine.shape == cell.shape
                            assert np.max(np.abs(mine - cell)) <= 1e-12 * np.max(np.abs(cell))


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


def _residual_tensor(lhs, E, k, d):
    """One pattern's residual norms, word axes first: the per-pattern scan's residuals."""
    rhs = np.multiply.outer(E, np.eye(d))
    diff = lhs - rhs
    if diff.ndim == k + 4:
        # (..., p, q, a, b) -> (..., p, a, q, b), then flatten the pairs
        diff = np.moveaxis(diff, -3, -2)
        p = diff.shape[-4]
        diff = diff.reshape(diff.shape[:k] + (p * d, p * d))
    return spectral_norms(diff)


def _pattern_moments(joint, k, letters, coeffs):
    """One pattern's moments, word axes first, built apart from the order tensor under test.

    Free joints run the per-pattern recursion (cumulants.joint_moment_tensor);
    a tabulated joint reads its data word by word.
    """
    if isinstance(joint, FreeIIDJoint):
        return joint_moment_tensor(joint.table, joint.n, k, letters, coeffs)
    E = np.zeros((joint.n,) * k, dtype=complex)
    for w in np.ndindex(E.shape):
        E[w] = joint.data.get((tuple(i + 1 for i in w), letters), 0.0)
    return E if coeffs is None else cumulants._times_coeff_product(E, coeffs)


def _reference_scans(joint, rep, max_order, matrix_coeffs):
    """The per-pattern scan: (worst, first violation) up to each order, from one pass.

    Each pattern's moment tensor (_pattern_moments), its einsum action and
    its residuals, in pattern order.
    """
    out, worst, first = {}, 0.0, None
    for k in range(1, max_order + 1):
        coeffs = matrix_b_coeffs(k, 0, max(joint.dim, 2)) if matrix_coeffs else None
        for d in StarPattern.all_patterns(k):
            E = np.asarray(_pattern_moments(joint, k, d.letters, coeffs), dtype=complex)
            res = _residual_tensor(_einsum_action(E, rep, d.letters), E, k, rep.d)
            worst = max(worst, float(res.max()))
            if first is None and res.max() > rep.tol:
                bad = tuple(np.argwhere(res > rep.tol)[0])
                first = (k, d.letters, tuple(int(j) + 1 for j in bad), float(res[bad]))
        out[k] = (worst, first)
    return out


def _same_scan(verdict, worst, first, label):
    """Verdicts equal, residuals to 1e-12 relative to themselves or to the unit-scale moments."""
    assert verdict.invariant == (first is None), label
    assert abs(verdict.worst_residual - worst) <= 1e-12 * max(1.0, worst), label
    if first is not None:
        assert verdict.first_violation[:3] == first[:3], label
        assert abs(verdict.first_violation[3] - first[3]) <= 1e-12 * max(1.0, first[3]), label


_DIFFERENTIAL_REPS = dict(
    [(name, rep) for name, (rep, _) in fixture_set().reps.items()]
    + [("lift_d4", coproduct_lift(nilpotent_pair_rep(2), nilpotent_pair_rep(2))),
       ("permutation_4", permutation_rep(4))]
)


@pytest.mark.parametrize("name", sorted(_DIFFERENTIAL_REPS))
def test_order_scan_matches_per_pattern_scan(name):
    rep = _DIFFERENTIAL_REPS[name]
    for ctag in _PROBE_CLASSES:
        joint = FreeIIDJoint(sample_spec(ctag, seed=0).to_table(), rep.n)
        for matrix_coeffs in (False, True):
            want = _reference_scans(joint, rep, 5, matrix_coeffs)
            for order in (4, 5):
                verdict = check_invariance(joint, rep, order, matrix_coeffs=matrix_coeffs)
                _same_scan(verdict, *want[order], (name, ctag.label(), matrix_coeffs, order))


def _other_joints():
    rng = np.random.default_rng(7)
    words = [(w, d.letters) for k in range(1, 5) for d in StarPattern.all_patterns(k)
             for w in np.ndindex(*(2,) * k)]
    table = TableJoint(n=2, order=4, data={(tuple(i + 1 for i in w), p): complex(*rng.standard_normal(2))
                                           for w, p in words})
    matrix = FreeIIDJoint(random_cumulant_table(4, dim=2, seed=3), 2)
    return {"table": table, "matrix_dim2": matrix}


def test_order_scan_matches_per_pattern_scan_on_other_joints():
    rng = np.random.default_rng(5)
    # a generic d=2 model tells the residual's (p, A_0) x (q, A_k) layout from its partial transposes
    generic = MatrixRep(rng.standard_normal((2, 2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2, 2)))
    reps = [rotation_rep(2), permutation_rep(2), nilpotent_pair_rep(2), unit_i_diag_rep(2),
            coproduct_lift(nilpotent_pair_rep(2), rotation_rep(2)), generic]
    for label, joint in _other_joints().items():
        for rep in reps:
            for matrix_coeffs in (False, True):
                want = _reference_scans(joint, rep, 4, matrix_coeffs)
                verdict = check_invariance(joint, rep, 4, matrix_coeffs=matrix_coeffs)
                _same_scan(verdict, *want[4], (label, rep.entries.shape, matrix_coeffs))


def test_order_scan_across_many_chunks(monkeypatch):
    # 8 cells per chunk fixes every leading letter the cell count allows
    monkeypatch.setattr(invariance, "_CHUNK_CELLS", 8)
    cases = [(FreeIIDJoint(spec_of(kind).to_table(), rep.n), rep)
             for kind in ("SEMICIRCULAR", "R_DIAGONAL", "SHIFTED_CIRCULAR")
             for rep in (rotation_rep(2), nilpotent_pair_rep(2), bistochastic_orthogonal_rep(3),
                         coproduct_lift(nilpotent_pair_rep(2), nilpotent_pair_rep(2)))]
    cases += [(joint, nilpotent_pair_rep(2)) for joint in _other_joints().values()]
    for joint, rep in cases:
        for matrix_coeffs in (False, True):
            want = _reference_scans(joint, rep, 4, matrix_coeffs)
            verdict = check_invariance(joint, rep, 4, matrix_coeffs=matrix_coeffs)
            _same_scan(verdict, *want[4], (rep.entries.shape, matrix_coeffs))


def test_matrix_b_scans_a_dim_3_spec():
    rng = np.random.default_rng(43)
    entries = {d.letters: (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))) * 0.5 ** k
               for k in range(1, 5) for d in StarPattern.all_patterns(k)}
    table = CumulantSpecSingle(order=4, entries=entries, dim=3).to_table()
    assert all(c.shape == (3, 3) for c in matrix_b_coeffs(4, 0, 3))
    for rep in (permutation_rep(3), bistochastic_orthogonal_rep(3), rotation_rep(2), nilpotent_pair_rep(2)):
        joint = FreeIIDJoint(table, rep.n)
        want = _reference_scans(joint, rep, 4, True)
        verdict = check_invariance(joint, rep, 4, matrix_coeffs=True)
        _same_scan(verdict, *want[4], (rep.n, rep.d))


def test_matrix_b_draws_at_dim_2_are_the_seed_stream():
    for seed in (0, 4):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        coeffs = matrix_b_coeffs(2, seed)
        assert np.array_equal(coeffs[0], a) and np.array_equal(coeffs[1], b) and coeffs[2] is coeffs[0]


def test_matrix_b_coefficients_need_two_by_two_matrices(monkeypatch):
    """1 x 1 matrices commute, so no pair is drawn below dim 2; dims 2 and 3
    draw the pairs they drew before the check."""
    pins = {(2, 0): "9bb04c53bc286c64", (2, 1): "e2606f861b19ed89", (2, 7): "2471f447d53cf398",
            (3, 0): "e67b958cf4db7449", (3, 1): "9b5f0f1ae962ca60", (3, 7): "a8409c8e1bfddc06"}
    for (dim, seed), pin in pins.items():
        a, b = matrix_b_coeffs(1, seed, dim)
        assert hashlib.sha256(a.tobytes() + b.tobytes()).hexdigest()[:16] == pin, (dim, seed)
    monkeypatch.setattr(invariance, "_coeff_pair", _no_draw)
    for dim in (-1, 0, 1):
        with pytest.raises(InputMismatchError, match=f"dim must be at least 2.*got {dim}"):
            matrix_b_coeffs(3, 0, dim)


def _no_draw(*args):
    raise AssertionError("a coefficient pair was drawn")


def _no_tensor(*args):
    raise AssertionError("an index tensor was built")


@pytest.mark.parametrize("order, rep", [(30, MatrixRep(np.ones((1, 1)))), (14, permutation_rep(2))],
                         ids=["1x1_order_30", "n2_order_14"])
def test_scans_past_the_bound_are_refused_before_any_tensor(monkeypatch, order, rep):
    """A spec declared above MAX_SCALAR_ORDER is refused at its declared
    order, as a spec or as a joint, in well under a second; below the bound
    the same spec scans."""
    spec = CumulantSpecSingle(order=order, entries={"11": 1.0}, selfadjoint=True)
    assert check_invariance(spec, rep, 8).invariant
    monkeypatch.setattr(cumulants, "_free_family_tensor", _no_tensor)
    start = time.perf_counter()
    for joint in (spec, FreeIIDJoint(spec.to_table(), rep.n)):
        with pytest.raises(OrderBoundError, match=f"order {order} exceeds the dim-1 bound 8"):
            check_invariance(joint, rep, order)
        with pytest.raises(OrderBoundError, match="order 9 exceeds the dim-1 bound 8"):
            check_invariance(joint, rep, 9, matrix_coeffs=True)
    assert time.perf_counter() - start < 1


def _random_unitary(d, seed):
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_conjugating_the_block_algebra_keeps_every_verdict():
    nil = nilpotent_pair_rep(2)
    models = {"nilpotent_pair": nil}
    for name, (rep, _) in fixture_set().reps.items():
        if rep.n == 2:
            models[f"lift_nil_{name}"] = coproduct_lift(nil, rep)
            models[f"lift_{name}_nil"] = coproduct_lift(rep, nil)
    for seed, (name, rep) in enumerate(models.items()):
        W = _random_unitary(rep.d, seed)
        moved = MatrixRep(W @ rep.entries @ W.conj().T, tol=rep.tol)
        for ctag in _PROBE_CLASSES:
            spec = sample_spec(ctag, seed=0)
            for matrix_coeffs in (False, True):
                want = check_invariance(spec, rep, 5, matrix_coeffs=matrix_coeffs)
                got = check_invariance(spec, moved, 5, matrix_coeffs=matrix_coeffs)
                first = want.first_violation
                _same_scan(got, want.worst_residual, first, (name, ctag.label(), matrix_coeffs))


def test_scan_memory_is_its_order_tensors_plus_chunks():
    n, k = 4, 7
    joint = FreeIIDJoint(random_cumulant_table(k, seed=1), n)
    complex_bytes = np.dtype(complex).itemsize
    tensors = sum((2 * n) ** m for m in range(1, k + 1)) * complex_bytes
    # the recursion's largest transient is one term over an order-(k-1) tensor;
    # the action and residuals hold at most four chunk-sized arrays at a time
    bound = tensors + (2 * n) ** (k - 1) * complex_bytes + 4 * invariance._CHUNK_CELLS * complex_bytes
    tracemalloc.start()
    try:
        verdict = check_invariance(joint, permutation_rep(n), k, matrix_coeffs=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.invariant
    assert peak < bound, (peak / 2**20, bound / 2**20)


def _verdict_fields(verdict):
    return verdict.invariant, verdict.worst_residual, verdict.first_violation


def test_shared_order_tensors_give_the_cold_verdicts_bit_for_bit(empty_law_memo):
    # laws and n interleave (A n=2, B n=3, A n=3, A n=2), so the law in use
    # changes and comes back from the laws kept; each scan equals one on a
    # joint of its own, from an empty memo
    reps = {n: [(name, rep) for name, (rep, _) in fixture_set().reps.items() if rep.n == n]
            for n in (2, 3)}
    cold = {}
    cases = 0
    for a, ctag in enumerate(_PROBE_CLASSES):
        other = _PROBE_CLASSES[(a + 1) % len(_PROBE_CLASSES)]
        for tag, n in ((ctag, 2), (other, 3), (ctag, 3), (ctag, 2)):
            spec = sample_spec(tag, seed=0)
            for name, rep in reps[n]:
                for matrix_coeffs in (False, True):
                    key = (tag.label(), name, matrix_coeffs)
                    if key not in cold:
                        joint = FreeIIDJoint(spec.to_table(), n)
                        cold[key] = _verdict_fields(_cold(check_invariance, joint, rep, 5, matrix_coeffs=matrix_coeffs))
                    warm = check_invariance(spec, rep, 5, matrix_coeffs=matrix_coeffs)
                    assert _verdict_fields(warm) == cold[key], key
                    cases += 1
        assert sorted(cumulants._last_law[2]) == [2, 3]  # the law in use, at both n
        kept = frozenset(sample_spec(other, seed=0).to_table().data.items())
        assert kept in cumulants._idle_laws or kept == cumulants._last_law[1]  # ORTHOGONAL's law is SEMICIRCULAR's
    assert cases == len(_PROBE_CLASSES) * 2 * 2 * sum(len(r) for r in reps.values())


def test_a_spec_cannot_change_and_a_spec_built_with_the_change_gets_the_cold_verdict():
    spec = spec_of("CIRCULAR")
    rep = unit_i_diag_rep(2)
    before = check_invariance(spec, rep, 4)
    assert before.invariant
    with pytest.raises(TypeError):
        spec.entries["11"] = 0.5
    changed = dataclasses.replace(spec, entries={**spec.entries, "11": 0.5})  # a pattern the phases break
    after = check_invariance(changed, rep, 4)
    cold = _cold(check_invariance, FreeIIDJoint(changed.to_table(), 2), rep, 4)
    assert not after.invariant
    assert _verdict_fields(after) == _verdict_fields(cold)
    assert _verdict_fields(check_invariance(spec, rep, 4)) == _verdict_fields(before)


def test_a_matrix_spec_scans_outside_the_shared_memo():
    rng = np.random.default_rng(2)
    block = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    spec = CumulantSpecSingle(order=4, dim=2, entries={"1*": block @ block.conj().T, "*1": np.eye(2)})
    check_invariance(spec_of("SEMICIRCULAR"), rotation_rep(2), 3)
    law = cumulants._last_law
    for rep in (rotation_rep(2), unit_i_diag_rep(2), nilpotent_pair_rep(2)):
        want = check_invariance(FreeIIDJoint(spec.to_table(), 2), rep, 4)
        assert _verdict_fields(check_invariance(spec, rep, 4)) == _verdict_fields(want)
    assert cumulants._last_law is law


def test_shared_tensors_and_coefficients_are_read_only():
    spec = spec_of("R_DIAGONAL")
    check_invariance(spec, rotation_rep(2), 3)
    joint = FreeIIDJoint(spec.to_table(), 2)
    tensor = joint.order_tensor(3)
    assert tensor is cumulants._last_law[2][2]["???"]
    with pytest.raises(ValueError):
        tensor[0, 0, 0, 0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        joint.order_tensor(2)[...] = 0.0
    coeffs = matrix_b_coeffs(2, seed=4)
    assert coeffs is not matrix_b_coeffs(2, seed=4)
    with pytest.raises(ValueError):
        coeffs[0][0, 0] = 0.0


def test_the_memo_keeps_only_the_last_law(monkeypatch):
    """With no bytes for the laws not in use, each change of law frees the last one."""
    monkeypatch.setattr(cumulants, "_LAW_BYTES", 0)
    reps = (rotation_rep(2), permutation_rep(3))
    laws = [sample_spec(_PROBE_CLASSES[i % len(_PROBE_CLASSES)], seed=i + 1) for i in range(12)]
    assert len({tuple(sorted(law.to_table().data.items())) for law in laws}) == 12
    one_law = sum((2 * rep.n) ** k for rep in reps for k in range(1, 7)) * np.dtype(float).itemsize  # real laws
    for rep in reps:
        check_invariance(spec_of("SEMICIRCULAR"), rep, 6)  # warm the first-block tables
    tracemalloc.start()
    try:
        for law in laws:
            for rep in reps:
                check_invariance(law, rep, 6)
        gc.collect()  # empties the interpreter's free lists
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    held = sum(t.nbytes for memo in cumulants._last_law[2].values() for t in memo.values())
    assert held == one_law and not cumulants._idle_laws
    assert retained < one_law + 2 ** 16, (retained, one_law)


def test_a_replaced_law_frees_its_tensors_without_a_gc_pass(monkeypatch):
    monkeypatch.setattr(cumulants, "_LAW_BYTES", 0)
    check_invariance(spec_of("SEMICIRCULAR"), rotation_rep(2), 4)
    replaced = weakref.ref(cumulants._last_law[2][2]["????"])
    gc.disable()
    try:
        check_invariance(spec_of("CIRCULAR"), rotation_rep(2), 4)
        assert replaced() is None
    finally:
        gc.enable()


def test_released_law_memo_frees_its_tensors_and_scans_as_cold(empty_law_memo):
    spec = spec_of("R_DIAGONAL")
    reps = (rotation_rep(2), unit_i_diag_rep(2), nilpotent_pair_rep(2))
    check_invariance(spec_of("SEMICIRCULAR"), reps[0], 5)
    idle = weakref.ref(cumulants._last_law[2][2]["?????"])
    warm = [_verdict_fields(check_invariance(spec, rep, 5, matrix_coeffs=b)) for rep in reps for b in (False, True)]
    held = weakref.ref(cumulants._last_law[2][2]["?????"])
    assert idle() is not None and len(cumulants._idle_laws) == 1
    gc.disable()
    try:
        cumulants.release_law_memo()
        assert held() is None and idle() is None and not cumulants._idle_laws
    finally:
        gc.enable()
    after = [_verdict_fields(check_invariance(spec, rep, 5, matrix_coeffs=b)) for rep in reps for b in (False, True)]
    cold = [_verdict_fields(_cold(check_invariance, FreeIIDJoint(spec.to_table(), 2), rep, 5, matrix_coeffs=b))
            for rep in reps for b in (False, True)]
    assert after == cold == warm


def test_scans_and_word_moments_share_one_law_memo(empty_law_memo):
    spec = spec_of("SEMICIRCULAR")
    check_invariance(spec, rotation_rep(2), 4)
    scanned = cumulants._last_law[2][2]["????"]
    other = random_cumulant_table(4, seed=5)
    joint_moments_free_family(other, 2, (1, 2, 1), "1*1")
    assert cumulants._last_law[0] == other.data
    assert list(cumulants._last_law[2]) == ["words"]
    # back on the scanned law, its word segments join the tensors it kept
    joint_moments_free_family(spec.to_table(), 2, (1, 2, 1), "1*1")
    assert set(cumulants._last_law[2]) == {2, "words"}
    assert cumulants._last_law[2][2]["????"] is scanned


def test_interleaved_laws_get_their_own_tensors_back(empty_law_memo, monkeypatch):
    """A, B, A: the second pass of A reads the tensors its first pass built, and builds none."""
    a, b = (FreeIIDJoint(spec_of(kind).to_table(), 2) for kind in ("SEMICIRCULAR", "R_DIAGONAL"))
    first = [a.order_tensor(k) for k in range(1, 6)]
    other = [b.order_tensor(k) for k in range(1, 6)]
    builds = _counting_builds(monkeypatch)
    assert all(a.order_tensor(k) is t for k, t in enumerate(first, 1))
    assert all(b.order_tensor(k) is t for k, t in enumerate(other, 1))
    # a joint on another table of equal content is the same law
    assert FreeIIDJoint(spec_of("SEMICIRCULAR").to_table(), 2).order_tensor(5) is first[4]
    assert builds == []


def test_idle_laws_stay_within_the_byte_budget(empty_law_memo, monkeypatch):
    """After every change of law the laws not in use fit _LAW_BYTES, the least recently used going first."""
    joints = [FreeIIDJoint(sample_spec(tag, seed=i + 1).to_table(), 2) for i, tag in enumerate(_PROBE_CLASSES)]
    keys = [frozenset(joint.table.data.items()) for joint in joints]
    assert len(set(keys)) == len(joints)
    sizes = []
    for joint, key in zip(joints, keys):
        for k in range(1, 5):
            joint.order_tensor(k)
        sizes.append(cumulants._law_bytes(key, cumulants._law_memo(joint.table)))
    cumulants.release_law_memo()
    budget = 3 * min(sizes) + max(sizes) // 2
    monkeypatch.setattr(cumulants, "_LAW_BYTES", budget)
    order = [0, 1, 2, 3, 1, 4, 5, 0, 6, 7, 3, 8, 2, 1]
    model, current, refs = [], None, {}
    for i in order:
        for k in range(1, 5):
            refs[i] = weakref.ref(joints[i].order_tensor(k))
        if current is not None:  # the least recently used law first, as _law_memo keeps them
            model = [j for j in model if j != i] + [current]
            while sum(sizes[j] for j in model) > budget:
                model.pop(0)
        current = i
        assert list(cumulants._idle_laws) == [keys[j] for j in model], i
        idle = [cumulants._law_bytes(key, memo) for key, (memo, _) in cumulants._idle_laws.items()]
        assert idle == [size for _, size in cumulants._idle_laws.values()]
        assert sum(idle) <= budget
        # a dropped law's tensors are freed at once
        assert all((ref() is None) == (j not in model + [i]) for j, ref in refs.items()), i
    assert 0 < len(model) < len(set(order)) - 1  # some laws were kept and some dropped


def test_a_law_over_the_budget_goes_when_it_goes_out_of_use(empty_law_memo, monkeypatch):
    # 8^5 cells at n = 4: the order-5 tensor alone holds 512 KiB
    monkeypatch.setattr(cumulants, "_LAW_BYTES", 2 ** 19)
    big = FreeIIDJoint(random_cumulant_table(5, seed=6), 4)
    check_invariance(big, permutation_rep(4), 5)
    held = weakref.ref(big.order_tensor(5))
    check_invariance(spec_of("SEMICIRCULAR"), rotation_rep(2), 3)
    assert held() is None and not cumulants._idle_laws


def test_a_scalar_laws_order_scales_are_worked_out_once(empty_law_memo, monkeypatch):
    """Each order tensor's scale is reduced once and kept beside it; every
    later scan of the law at that n, under any model, reads it."""
    calls = []
    real = cumulants._tensor_scale
    monkeypatch.setattr(cumulants, "_tensor_scale", lambda tensor: calls.append(tensor.shape) or real(tensor))
    spec = spec_of("R_DIAGONAL")
    for rep in (rotation_rep(2), unit_i_diag_rep(2), nilpotent_pair_rep(2)):
        for matrix_coeffs in (False, True):
            check_invariance(spec, rep, 5, matrix_coeffs=matrix_coeffs)
    assert calls == [(2, 2) * k for k in range(1, 6)]
    tensors = cumulants._law_memo(spec.to_table())[2]
    assert sorted(tensors.scales) == sorted(tensors) == ["?" * k for k in range(1, 6)]
    for letters, scale in tensors.scales.items():
        reim = tensors[letters].view(float)
        assert scale == max(reim.max(), -reim.min())


def _non_real_law():
    """A circular pair with two non-real cumulants (their conjugates filled in by to_table)."""
    return CumulantSpecSingle(order=5, entries={"1*": 1.0, "*1": 1.0, "11": 0.3j, "1*1": 0.2 + 0.1j}).to_table()


def _word_tabulated(table, n, K):
    """A TableJoint of the n-copy moments up to order K, each word by the segment recursion.

    joint_moments_free_family's complex word values never read the law's
    order tensors, so this is the complex path apart from the scan's.
    """
    data = {(tuple(i + 1 for i in w), d.letters): joint_moments_free_family(table, n, tuple(i + 1 for i in w), d.letters)
            for k in range(1, K + 1) for d in StarPattern.all_patterns(k) for w in np.ndindex((n,) * k)}
    return TableJoint(n=n, order=K, data={key: v for key, v in data.items() if v})


@pytest.mark.parametrize("n", [2, 3])
def test_a_scan_in_its_laws_field_matches_the_complex_path(n):
    """Every probe class's law (real) and a non-real one, under every fixture model at n, to each K <= 5."""
    laws = {ctag.label(): sample_spec(ctag, seed=0).to_table() for ctag in _PROBE_CLASSES}
    laws["non-real"] = _non_real_law()
    reps = [(name, rep) for name, (rep, _) in fixture_set().reps.items() if rep.n == n]
    for label, table in laws.items():
        joint, reference = FreeIIDJoint(table, n), _word_tabulated(table, n, 5)
        for name, rep in reps:
            for matrix_coeffs in (False, True):
                for K in range(1, 6):
                    want = check_invariance(reference, rep, K, matrix_coeffs=matrix_coeffs)
                    got = check_invariance(joint, rep, K, matrix_coeffs=matrix_coeffs)
                    _same_scan(got, want.worst_residual, want.first_violation, (label, name, matrix_coeffs, K))


def test_a_law_and_a_model_keep_the_field_of_their_data(empty_law_memo):
    real = spec_of("R_DIAGONAL").to_table()
    for table, field in ((real, np.float64), (_non_real_law(), np.complex128)):
        check_invariance(FreeIIDJoint(table, 2), rotation_rep(2), 4)
        tensors = cumulants._law_memo(table)[2]
        assert tensors.dtype == field and {t.dtype for t in tensors.values()} == {np.dtype(field)}
    # one non-real cumulant keeps the whole law complex
    tilted = cumulants.CumulantTable(4, data={**real.data, "1111": 1e-3j})
    check_invariance(FreeIIDJoint(tilted, 2), rotation_rep(2), 4)
    assert {t.dtype for t in cumulants._law_memo(tilted)[2].values()} == {np.dtype(complex)}
    # a matrix table's tensors are complex, real cores too
    pair = CumulantSpecSingle(order=2, dim=2, entries={"1*": np.eye(2), "*1": np.eye(2)})
    assert FreeIIDJoint(pair.to_table(), 2).order_tensor(2).dtype == np.complex128
    # the public arrays are complex128; a free joint's own tensor is the memo's, read-only
    assert joint_moment_tensor(real, 2, 3, "1*1").dtype == np.complex128
    assert FreeIIDJoint(real, 2).order_tensor(3, [1.0, 2.0, 1.0, 1.0]).dtype == np.complex128
    assert FreeIIDJoint(real, 2).order_tensor(3) is cumulants._law_memo(real)[2]["???"]
    assert TableJoint(n=2, order=2, data={((1, 2), "1*"): 1.0}).order_tensor(2).dtype == np.complex128
    # the scan's letter matrices are the model's, real for a real model
    for rep, field in ((rotation_rep(2), np.float64), (nilpotent_pair_rep(2), np.float64),
                       (unit_i_diag_rep(2), np.complex128)):
        check_invariance(spec_of("SEMICIRCULAR"), rep, 2)
        mats = rep._relations["scan letters"]
        assert [m.dtype for m in mats] == [np.dtype(field)] * 3 and not any(m.flags.writeable for m in mats)
        assert np.array_equal(mats[0], rep.flatten()) and np.array_equal(mats[1], qgroups._flat(rep.adjoint_entries()))


def test_a_spec_expands_its_table_once(monkeypatch):
    expanded = []  # the specs expanded, kept alive so that their ids stay distinct
    expand = CumulantSpecSingle.__dict__["_table"]
    monkeypatch.setattr(expand, "func", lambda spec, func=expand.func: expanded.append(spec) or func(spec))
    rep = rotation_rep(2)
    specs = [spec_of("CIRCULAR"), spec_of("CIRCULAR"),
             CumulantSpecSingle(order=2, dim=2, entries={"1*": np.eye(2), "*1": np.eye(2)})]
    assert expanded == []  # a spec is checked at construction and expanded only when read
    for spec in specs:
        table = spec.to_table()
        for _ in range(2):
            check_invariance(spec, rep, 2)
            cumulant_identity_extractor(spec, rep, 2)
            if spec.dim == 1:
                classify_report(spec, 4, True)
        assert spec.to_table() is table
    assert list(map(id, expanded)) == list(map(id, specs))
    theorem1_probe(2, 3)
    # the probe expands each sample spec it builds once, and no scan expands one again
    assert len(expanded) == len(specs) + len(_PROBE_CLASSES)
    assert len(set(map(id, expanded))) == len(expanded)


def test_a_tabulated_joint_builds_only_the_orders_it_holds():
    data = {((1, 2), "1*"): 1.0, ((2, 1), "*1"): 1.0, ((1, 1), "11"): 0.5}
    rep = unit_i_diag_rep(2)
    want = check_invariance(TableJoint(n=2, order=2, data=data), rep, 2)
    assert not want.invariant
    joint = TableJoint(n=2, order=11, data=data)
    tracemalloc.start()
    try:
        got = check_invariance(joint, rep, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _verdict_fields(got) == _verdict_fields(want) and got.orders_checked == 8
    assert peak < 2 ** 20, peak / 2 ** 20  # a dense order-8 tensor alone holds 1 MiB
    start = time.perf_counter()
    for order in (11, 14):
        with pytest.raises(OrderBoundError, match=f"order {order} exceeds the dim-1 bound 8"):
            check_invariance(TableJoint(n=2, order=order, data=data), rep, order)
    assert time.perf_counter() - start < 1


def test_first_violation_is_the_first_argwhere_cell():
    """Every violating scan of the fixture grid, at orders 4 to 6, with and without coefficients."""
    violations = 0
    for name, (rep, _) in fixture_set().reps.items():
        for ctag in _PROBE_CLASSES:
            joint = FreeIIDJoint(sample_spec(ctag, seed=0).to_table(), rep.n)
            for matrix_coeffs in (False, True):
                want = reference_first_violation(joint, rep, 6, matrix_coeffs)
                for order in (4, 5, 6):
                    got = check_invariance(joint, rep, order, matrix_coeffs=matrix_coeffs).first_violation
                    assert got == (want if want is not None and want[0] <= order else None), (name, ctag, order)
                    violations += got is not None
    assert violations > 100


def test_first_violation_search_keeps_the_scan_small():
    """A dense order-6 law violates at all 46,656 order-6 cells of the orthogonal 3x3 model.

    The law is a circular pair plus 0.5 on every order-6 pattern.  Listing
    the cells took 8.7 MB at the scan's peak; the first one alone leaves
    the scan near its 1.4 MB of residuals and chunks.
    """
    entries = {"1*": 1.0, "*1": 1.0} | {d.letters: 0.5 for d in StarPattern.all_patterns(6)}
    spec = CumulantSpecSingle(order=6, entries=entries)
    rep = bistochastic_orthogonal_rep(3)
    check_invariance(spec, rep, 6)  # warm the law memo and the first-block tables
    tracemalloc.start()
    try:
        verdict = check_invariance(spec, rep, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not verdict.invariant and verdict.first_violation[0] == 6
    assert peak < 3 * 2 ** 20, peak / 2 ** 20


@pytest.mark.parametrize("n", [2, 3])
def test_rescaling_the_law_keeps_every_probe_verdict(n):
    """The law of lam * x (kappa_w times lam^|w|, the shift times lam) is invariant exactly when x's is."""
    witnesses = [witness_for_family(fam, n) for fam in _PROBE_FAMILIES]
    for ctag in _PROBE_CLASSES:
        spec = sample_spec(ctag, seed=1)
        want = [check_invariance(spec, rep, 4).invariant for rep in witnesses]
        for lam2 in (1e-12, 1e-8, 1e-4, 1e2, 1e4, 1e6):
            lam = lam2 ** 0.5
            entries = {w: lam ** len(w) * value for w, value in spec.entries.items()}
            scaled = CumulantSpecSingle(spec.order, entries, lam * spec.shift, spec.selfadjoint)
            assert [check_invariance(scaled, rep, 4).invariant for rep in witnesses] == want, (ctag, lam2)


def test_a_large_semicircle_is_judged_against_its_moments():
    """Variance 1000: rounding in the order-6 moments (5e9) is no violation, a non-invariant model still is."""
    spec = CumulantSpecSingle(order=6, entries={"11": 1000.0}, selfadjoint=True)
    assert check_invariance(spec, rotation_rep(2), 6).invariant
    assert not check_invariance(spec, unit_i_diag_rep(2), 6).invariant


@pytest.mark.parametrize("dim,K", [(2, 5), (3, 4)])
def test_matrix_order_tensor_equals_per_pattern_slices(dim, K):
    """Within 1e-15 of the order's largest moment: the two recursions contract in other batches.

    Measured at most 5.1e-16 at n = 2 and 3; against a pattern's own
    largest moment the gap reached 1.6e-15 (dim 2, n = 3, order 5, with
    coefficients).
    """
    rng = np.random.default_rng(40 + dim)
    entries = {d.letters: (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) * 0.5 ** k
               for k in range(1, K + 1) for d in StarPattern.all_patterns(k)}
    table = CumulantSpecSingle(order=K, entries=entries, dim=dim).to_table()
    for n in (2, 3):
        joint = FreeIIDJoint(table, n)
        for k in range(1, K + 1):
            for coeffs in (None, matrix_b_coeffs(k, seed=k, dim=dim)):
                tensor = joint.order_tensor(k, coeffs)
                assert tensor.shape == (2, n) * k + (dim, dim)
                for d in StarPattern.all_patterns(k):
                    want = joint_moment_tensor(table, n, k, d.letters, coeffs)
                    at = tuple(x for ch in d.letters for x in (int(ch == "*"), slice(None)))
                    err = np.max(np.abs(tensor[at] - want))
                    assert err <= 1e-15 * np.max(np.abs(tensor)), (n, k, d.letters, coeffs is None, err)
