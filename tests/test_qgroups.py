import itertools
import math
import tracemalloc

import numpy as np
import pytest

from freesym.errors import BudgetError, InputMismatchError, SizeLimitError
from freesym.fixtures import (
    bistochastic_orthogonal_rep,
    bistochastic_unitary_rep,
    fixture_set,
    haar_unitary_spec,
    irrational_phase_rep,
    nilpotent_pair_rep,
    permutation_rep,
    phase_diag_rep,
    rotation_rep,
    sign_diag_rep,
    uncorrected_bistochastic_unitary_rep,
    unit_i_diag_rep,
    witness_for_family,
)
from freesym.partitions import StarPattern
from freesym.qgroups import (
    FamilyTag,
    MatrixRep,
    all_family_tags,
    block_identity_holds,
    check_biunitary,
    check_family,
    coproduct_lift,
    family_below,
    family_meet,
    full_delta_identity_holds,
    lattice_position,
    operator_norm,
    spectral_norms,
    structural_consequences,
)
from freesym import qgroups
from reference import hadamard, reference_closure, reference_commuting_delta

F = FamilyTag


def test_biunitary_basics():
    assert check_biunitary(permutation_rep(3)).residual == 0.0
    assert check_biunitary(rotation_rep(2)).residual < 1e-12
    assert check_biunitary(nilpotent_pair_rep(2)).holds

    bad = uncorrected_bistochastic_unitary_rep(3)
    chk = check_biunitary(bad)
    assert not chk.holds
    # uu* has the 2x2 block [[2.5,-1.5],[-1.5,2.5]]; worst eigenvalue gap 3
    assert chk.residual == pytest.approx(3.0, abs=1e-12)
    assert chk.details["square_consistency"]

    flat = MatrixRep(np.full((3, 3), 1 / 3, dtype=complex))
    assert not check_biunitary(flat).holds


def test_block_identity_on_rotation():
    rot = rotation_rep(2)
    assert block_identity_holds(rot, "11", 0).holds
    assert block_identity_holds(rot, "11", 1).holds
    bad0 = block_identity_holds(rot, "1", 0)
    bad1 = block_identity_holds(rot, "1", 1)
    assert not bad0.holds and not bad1.holds
    assert bad0.residual == pytest.approx(0.4, abs=1e-12)  # 0.6+0.8 vs 1
    assert bad1.residual == pytest.approx(0.8, abs=1e-12)  # 0.8-0.6 vs 1
    for j in range(3):
        assert block_identity_holds(phase_diag_rep(3, 3), "111", j).holds


@pytest.mark.parametrize("call, message", [
    (lambda: FamilyTag.parse(":classical"), "cannot parse family tag"),
    (lambda: FamilyTag.parse("H_M_PLUS:three"), "bad modulus in family tag"),
    (lambda: FamilyTag.parse("H_M_PLUS:3:4"), "cannot parse family tag"),
    (lambda: block_identity_holds(rotation_rep(2), "", 0), "needs a nonempty pattern"),
    (lambda: block_identity_holds(rotation_rep(2), "11", 2), "column index 2 out of range"),
    (lambda: block_identity_holds(rotation_rep(2), "11", -1), "column index -1 out of range"),
    (lambda: MatrixRep(np.eye(2), tol=-1e-9), "tolerance must be nonnegative"),
])
def test_unusable_tags_columns_and_tolerances(call, message):
    with pytest.raises(InputMismatchError, match=message):
        call()


def test_full_delta_identities():
    for rep in (rotation_rep(2), bistochastic_unitary_rep(3), unit_i_diag_rep(2)):
        assert full_delta_identity_holds(rep, "*1").holds

    nil = nilpotent_pair_rep(2)
    assert full_delta_identity_holds(nil, "1*1*").holds
    bad = full_delta_identity_holds(nil, "11**")
    assert not bad.holds
    assert bad.residual == pytest.approx(1.0, abs=1e-12)  # squares vanish
    assert bad.witness is not None and len(set(bad.witness)) == 1

    # a commuting model counts sorted tuples: C(37, 6) = 2,324,784 here
    with pytest.raises(BudgetError):
        full_delta_identity_holds(permutation_rep(32), "1" * 6)
    # a d = 2 model counts every index tuple: 4^10
    with pytest.raises(BudgetError):
        full_delta_identity_holds(nilpotent_pair_rep(4), "1" * 10)
    with pytest.raises(InputMismatchError):
        full_delta_identity_holds(permutation_rep(3), "1")


def test_family_checks_match_known_witnesses():
    bs = bistochastic_orthogonal_rep(3)
    assert check_family(bs, F("B_S_PLUS")).holds
    s_chk = check_family(bs, F("S_PLUS"))
    assert not s_chk.holds
    assert s_chk.residual == pytest.approx(4 / 9, abs=1e-12)  # -1/3 square

    bp = bistochastic_unitary_rep(3)
    assert check_family(bp, F("B_PLUS")).holds
    o_chk = check_family(bp, F("O_PLUS"))
    assert not o_chk.holds
    assert o_chk.residual == pytest.approx(1.0, abs=1e-12)  # column squares sum 0
    assert not check_family(bp, F("B_S_PLUS")).holds

    nil = nilpotent_pair_rep(2)
    assert check_family(nil, F("H_PRIME_PLUS")).holds
    assert not check_family(nil, F("H_0_PLUS")).holds

    rot = rotation_rep(2)
    assert check_family(rot, F("O_PLUS")).holds
    assert not check_family(rot, F("B_S_PLUS")).holds
    assert not check_family(rot, F("S_PLUS")).holds

    ui = unit_i_diag_rep(3)
    assert check_family(ui, F("U_PLUS")).holds
    assert check_family(ui, F("H_PRIME_PLUS")).holds
    assert check_family(ui, F("H_0_PLUS")).holds
    assert check_family(ui, F("H_M_PLUS", 4)).holds
    assert not check_family(ui, F("H_M_PLUS", 3)).holds
    assert not check_family(ui, F("B_PLUS")).holds
    assert not check_family(ui, F("O_PLUS")).holds

    sd = sign_diag_rep(2)
    assert check_family(sd, F("H_S_PLUS")).holds
    assert check_family(sd, F("O_PLUS")).holds
    assert check_family(sd, F("H_M_PLUS", 4)).holds
    assert not check_family(sd, F("H_M_PLUS", 3)).holds
    assert not check_family(sd, F("B_S_PLUS")).holds

    perm = permutation_rep(3)
    for tag in all_family_tags(6):
        assert check_family(perm, tag).holds, tag


def test_classical_variant_checks():
    assert check_family(rotation_rep(2), F("O_PLUS", classical=True)).holds
    chk = check_family(nilpotent_pair_rep(2), F("H_PRIME_PLUS", classical=True))
    assert not chk.holds
    assert chk.details["commutativity"] == pytest.approx(1.0, abs=1e-12)


def test_subgroup_monotonicity_on_fixtures():
    tags = all_family_tags(6)
    for name, (rep, _) in fixture_set().reps.items():
        holds = {tag: check_family(rep, tag).holds for tag in tags}
        for a in tags:
            for b in tags:
                if family_below(a, b) and holds[a]:
                    assert holds[b], (name, a, b)


def test_family_below_relation():
    for kind in ("B_S_PLUS", "H_S_PLUS", "B_PLUS", "O_PLUS", "U_PLUS"):
        assert family_below(F("S_PLUS"), F(kind))
    assert family_below(F("S_PLUS"), F("H_M_PLUS", 5))
    assert family_below(F("H_M_PLUS", 3), F("H_M_PLUS", 6))
    assert not family_below(F("H_M_PLUS", 6), F("H_M_PLUS", 3))
    assert not family_below(F("H_M_PLUS", 3), F("H_M_PLUS", 4))
    assert family_below(F("H_S_PLUS"), F("H_M_PLUS", 4))
    assert not family_below(F("H_S_PLUS"), F("H_M_PLUS", 3))
    assert family_below(F("B_S_PLUS"), F("B_PLUS"))
    assert family_below(F("B_S_PLUS"), F("O_PLUS"))
    assert family_below(F("H_0_PLUS"), F("H_PRIME_PLUS"))
    assert not family_below(F("H_PRIME_PLUS"), F("H_0_PLUS"))
    assert not family_below(F("O_PLUS"), F("H_PRIME_PLUS"))
    assert not family_below(F("O_PLUS"), F("O_PLUS", classical=True))


def test_hadamard_contraction():
    rot = np.array([[0.6, 0.8], [0.8, -0.6]], dtype=complex)
    ones = np.ones((2, 2), dtype=complex)
    w = hadamard(rot, ones)
    assert np.allclose(w, rot)
    assert operator_norm(w) == pytest.approx(1.0, abs=1e-12)
    assert operator_norm(ones) == pytest.approx(2.0, abs=1e-12)

    eye_rep = MatrixRep(np.eye(3, dtype=complex))
    v = np.arange(9, dtype=float).reshape(3, 3) + 0j
    diag_part = hadamard(eye_rep.entries[:, :, 0, 0], v)
    assert np.allclose(diag_part, np.diag(np.diag(v)))
    assert operator_norm(diag_part) <= operator_norm(v) + 1e-12

    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        u, _ = np.linalg.qr(g)
        v = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        assert operator_norm(hadamard(u, v)) <= operator_norm(v) + 1e-12


def test_hadamard_blockwise_on_fixture_models():
    rng = np.random.default_rng(11)
    for name, (rep, _) in fixture_set().reps.items():
        v = rng.standard_normal(rep.entries.shape) + 1j * rng.standard_normal(
            rep.entries.shape
        )
        vrep = MatrixRep(v)
        prod = hadamard(rep, vrep)
        assert operator_norm(prod) <= operator_norm(vrep) + 1e-12, name


def test_coproduct_lift():
    p = permutation_rep(3)
    lifted = coproduct_lift(p, p)
    square = p.flatten() @ p.flatten()
    assert np.allclose(lifted.flatten(), square)

    rot = rotation_rep(2)
    self_lift = coproduct_lift(rot, rot)
    assert check_family(self_lift, F("O_PLUS")).holds

    trivial = MatrixRep(np.eye(2, dtype=complex))
    again = coproduct_lift(rot, trivial)
    assert np.allclose(again.entries, rot.entries)

    with pytest.raises(InputMismatchError):
        coproduct_lift(rotation_rep(2), permutation_rep(3))


def test_coproduct_lift_preserves_delta_patterns():
    scan = [StarPattern(s) for s in ("11", "1*", "*1", "**", "1*1*", "11**", "111")]
    for name, (rep, _) in fixture_set().reps.items():
        lifted = coproduct_lift(rep, rep)
        for d in scan:
            if full_delta_identity_holds(rep, d).holds:
                lifted_chk = full_delta_identity_holds(lifted, d)
                assert lifted_chk.residual <= 1e-8, (name, d.letters)


def test_structural_consequences_nilpotent():
    report = structural_consequences(nilpotent_pair_rep(2))
    assert "1*1*" in report["satisfied_patterns"]
    assert "11**" not in report["satisfied_patterns"]
    assert report["checks"]["partial_isometries"].holds
    assert report["checks"]["cross_orthogonality"].holds
    assert "normal_entries" not in report["checks"]
    assert report["holds"]
    # and the entries genuinely are non-normal, consistent with the absence
    e12 = np.array([[0, 1], [0, 0]], dtype=complex)
    assert not np.allclose(e12 @ e12.conj().T, e12.conj().T @ e12)


def test_structural_consequences_phase_and_rotation():
    report = structural_consequences(phase_diag_rep(3, 3))
    assert "111" in report["satisfied_patterns"]
    assert report["checks"]["power_sums"].holds
    assert report["checks"]["entrywise_inverse"].holds
    assert report["checks"]["cyclic_rotations"].holds
    assert report["holds"]

    report = structural_consequences(rotation_rep(2))
    assert set(report["satisfied_patterns"]) >= {"11", "1*", "*1", "**"}
    assert "1*1*" not in report["satisfied_patterns"]
    assert report["holds"]


def test_cyclic_rotations_on_commuting_models_equal_every_rotation(monkeypatch):
    """On d=1 models the rotation check reuses each pattern's own residual.

    A rotation keeps a pattern's letter counts, so its sorted-tuple residual
    is the same number; the reused maximum equals the one over every
    rotation, and no rotation is recomputed.
    """
    for name, (rep, _) in fixture_set().reps.items():
        if rep.d != 1:
            continue
        report = structural_consequences(rep)
        want = max((full_delta_identity_holds(rep, d[r:] + d[:r]).residual
                    for d in report["satisfied_patterns"] for r in range(1, len(d))),
                   default=0.0)
        assert report["checks"]["cyclic_rotations"].residual == want, name
        calls = []
        monkeypatch.setattr(qgroups, "full_delta_identity_holds",
                            lambda rep, d: calls.append(d) or full_delta_identity_holds(rep, d))
        structural_consequences(rep)
        monkeypatch.undo()
        assert len(calls) == len(qgroups._standard_scan_patterns()), name


def test_structural_consequences_checks_each_pattern_once(monkeypatch):
    """Rotations of the satisfied patterns are read from the patterns already
    checked; a rotation outside the list is checked once, then reused."""
    calls = []
    original = qgroups.full_delta_identity_holds
    monkeypatch.setattr(qgroups, "full_delta_identity_holds",
                        lambda rep, d: calls.append(StarPattern.coerce(d).letters) or original(rep, d))
    lift = coproduct_lift(nilpotent_pair_rep(2), nilpotent_pair_rep(2))
    structural_consequences(lift)
    assert sorted(calls) == sorted(d.letters for d in qgroups._standard_scan_patterns())
    calls.clear()
    # 1*1* rotates to *1*1 twice and to itself once
    report = structural_consequences(lift, ["1*1*"])
    assert report["satisfied_patterns"] == ["1*1*"]
    assert sorted(calls) == ["*1*1", "1*1*"]


def test_lattice_positions():
    pos = lattice_position(unit_i_diag_rep(3))
    assert pos["minimal"] == ["H_M_PLUS(4)"]
    assert "H_M_PLUS(8)" in pos["satisfied"]
    assert "H_M_PLUS(12)" in pos["satisfied"]
    assert "H_0_PLUS" in pos["satisfied"]
    assert pos["closure"]["implied"] == "H_M_PLUS(4)"
    assert pos["closure"]["consistent"]
    assert pos["upward_consistent"]

    assert lattice_position(rotation_rep(2))["minimal"] == ["O_PLUS"]
    assert lattice_position(permutation_rep(3))["minimal"] == ["S_PLUS"]

    pos = lattice_position(sign_diag_rep(2))
    assert pos["minimal"] == ["H_S_PLUS"]
    assert pos["closure"]["implied"] == "H_S_PLUS"

    pos = lattice_position(bistochastic_unitary_rep(3))
    assert pos["minimal"] == ["B_PLUS"]
    assert pos["closure"]["implied"] == "B_PLUS"

    pos = lattice_position(bistochastic_orthogonal_rep(3))
    assert pos["minimal"] == ["B_S_PLUS"]
    assert pos["closure"]["consistent"]


# the upward closures, named by their minimal families, on which the table
# meet and the hand rule differ: (meet, hand rule)
_MEET_BELOW_HAND = {
    ("B_PLUS",): ("B_PLUS", None),
    ("B_PLUS", "O_PLUS"): ("B_S_PLUS", "O_PLUS"),
    ("B_S_PLUS",): ("B_S_PLUS", "O_PLUS"),
    ("H_0_PLUS",): ("H_0_PLUS", None),
    ("H_0_PLUS", "O_PLUS"): ("H_S_PLUS", "O_PLUS"),
    ("H_PRIME_PLUS",): ("H_PRIME_PLUS", None),
    ("H_PRIME_PLUS", "O_PLUS"): ("H_S_PLUS", "O_PLUS"),
    ("U_PLUS",): ("U_PLUS", None),
}


def test_closure_is_the_table_meet_of_every_small_generating_set():
    tags = all_family_tags(12)
    counts = {"equal": 0, "below": 0, "hand_none": 0}
    differing = {}
    for r in (1, 2, 3):
        for gens in itertools.combinations(tags, r):
            up = {t for t in tags if any(family_below(g, t) for g in gens)}
            minimal = {t for t in up if not any(s != t and family_below(s, t) for s in up)}
            meet, hand = family_meet(minimal), reference_closure(up)
            # the meet is below every satisfied family and the largest such
            assert all(family_below(meet, t) for t in up)
            assert all(family_below(t, meet) for t in tags if all(family_below(t, u) for u in up))
            if meet == hand:
                counts["equal"] += 1
                continue
            if hand is None:
                counts["hand_none"] += 1
            else:
                assert family_below(meet, hand)
                counts["below"] += 1
            name = tuple(sorted(t.label() for t in minimal))
            differing[name] = (meet.label(), hand and hand.label())
    assert counts == {"equal": 964, "below": 14, "hand_none": 9}
    assert differing == _MEET_BELOW_HAND
    assert family_meet([]) is None


def test_fixture_closures_name_their_declared_family():
    # diag(i, 1, 1) has entries of order 4, so the U_PLUS witness sits in H_M_PLUS(4)
    inside = {"unit_i_diag": "H_M_PLUS(4)"}
    for name, (rep, tag) in fixture_set().reps.items():
        pos = lattice_position(rep)
        implied = pos["closure"]["implied"]
        assert pos["minimal"] == [implied], name
        assert implied == inside.get(name, tag.label()), name
        assert pos["closure"]["consistent"], name
    assert family_below(F("H_M_PLUS", 4), F("U_PLUS"))


def test_rep_validation_and_tags():
    with pytest.raises(InputMismatchError):
        MatrixRep(np.zeros((2, 3, 1, 1)))
    with pytest.raises(InputMismatchError):
        MatrixRep(np.zeros((2, 2, 2, 3)))
    with pytest.raises(SizeLimitError):
        MatrixRep(np.zeros((10, 10, 7, 7)))
    with pytest.raises(InputMismatchError):
        MatrixRep(np.full((2, 2), np.nan))

    assert FamilyTag.parse("H_M_PLUS:3") == F("H_M_PLUS", 3)
    assert FamilyTag.parse("o_plus") == F("O_PLUS")
    assert FamilyTag.parse("O_PLUS:classical") == F("O_PLUS", classical=True)
    assert FamilyTag.parse("H_M_PLUS:4:classical") == F(
        "H_M_PLUS", 4, classical=True
    )
    assert F("H_M_PLUS", 5).spell() == "H_M_PLUS:5"
    with pytest.raises(InputMismatchError):
        FamilyTag.parse("X_PLUS")
    with pytest.raises(InputMismatchError):
        FamilyTag("H_M_PLUS", 2)
    with pytest.raises(InputMismatchError):
        FamilyTag("O_PLUS", 3)


def test_fixture_set_and_haar_spec():
    fixtures = fixture_set()
    assert set(fixtures.reps) == {
        "permutation",
        "rotation",
        "bistochastic_orthogonal",
        "sign_diag",
        "bistochastic_unitary",
        "phase_diag_3",
        "irrational_phase",
        "nilpotent_pair",
        "unit_i_diag",
    }
    assert "spec_circular" in fixtures.specs
    assert "haar_unitary" in fixtures.specs

    haar = haar_unitary_spec(6)
    assert haar.entries["1*"] == pytest.approx(1.0)
    assert haar.entries["*1"] == pytest.approx(1.0)
    assert haar.entries["1*1*"] == pytest.approx(-1.0)
    assert haar.entries["*1*1"] == pytest.approx(-1.0)
    assert haar.entries["1*1*1*"] == pytest.approx(2.0)
    assert "11**" not in haar.entries
    for letters in haar.entries:
        d = StarPattern(letters)
        assert d.imbalance == 0 and d.is_strictly_alternating()


def test_witness_for_family_satisfies_itself():
    for n in (2, 3):
        for tag in all_family_tags(4):
            rep = witness_for_family(tag, n)
            assert check_family(rep, tag).holds, (tag, n)


def test_irrational_phase_avoids_all_moduli():
    rep = irrational_phase_rep(2)
    assert check_family(rep, F("H_0_PLUS")).holds
    for m in range(3, 13):
        assert not check_family(rep, F("H_M_PLUS", m)).holds, m


@pytest.mark.parametrize("d", [1, 2, 4])
def test_spectral_norms_match_svd(d):
    rng = np.random.default_rng(70 + d)
    batch = rng.standard_normal((3, 5, d, d)) + 1j * rng.standard_normal((3, 5, d, d))
    want = np.linalg.svd(batch, compute_uv=False)[..., 0]
    got = spectral_norms(batch)
    assert got.shape == want.shape
    assert np.allclose(got, want, rtol=1e-12, atol=0)


def _two_by_two_stacks(rng, scale):
    """(3, 40, 2, 2) stacks: generic, equal singular values, rank one, real, and half zero blocks."""
    shape = (3, 40, 2, 2)
    generic = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    q, _ = np.linalg.qr(generic)
    cols = rng.standard_normal(shape[:-1]) + 1j * rng.standard_normal(shape[:-1])
    rows = rng.standard_normal(shape[:-1]) + 1j * rng.standard_normal(shape[:-1])
    zeros = generic.copy()
    zeros[:, ::2] = 0.0
    stacks = {
        "generic": generic,
        "equal": q * rng.uniform(0.5, 2.0, shape[:2] + (1, 1)),
        "rank_one": cols[..., :, None] * rows[..., None, :],
        "real": generic.real.copy(),
        "zeros": zeros,
    }
    return {kind: batch * scale for kind, batch in stacks.items()}


@pytest.mark.parametrize("scale", [1e-300, 1e-150, 1e-20, 1.0, 1e20, 1e150, 1e300])
def test_two_by_two_norms_are_within_8_ulp_of_svd(scale):
    rng = np.random.default_rng(71)
    for kind, batch in _two_by_two_stacks(rng, scale).items():
        want = np.linalg.svd(batch, compute_uv=False)[..., 0]
        got = spectral_norms(batch)
        assert got.shape == want.shape == (3, 40)
        assert np.all(np.abs(got - want) <= 8 * np.spacing(want)), (kind, scale)
        assert np.array_equal(got == 0, want == 0), (kind, scale)
        # one matrix in plain floats gives the stack's bits
        for i, j in ((0, 0), (1, 7), (2, 39)):
            single = spectral_norms(batch[i, j])
            assert single.shape == () and single == got[i, j], (kind, scale, i, j)


def test_other_shapes_keep_modulus_and_svd():
    rng = np.random.default_rng(72)
    ones = rng.standard_normal((4, 6, 1, 1)) + 1j * rng.standard_normal((4, 6, 1, 1))
    assert np.array_equal(spectral_norms(ones), np.abs(ones[..., 0, 0]))
    threes = rng.standard_normal((4, 6, 3, 3)) + 1j * rng.standard_normal((4, 6, 3, 3))
    assert np.array_equal(spectral_norms(threes), np.linalg.svd(threes, compute_uv=False)[..., 0])
    assert spectral_norms(np.zeros((0, 2, 2))).shape == (0,)


def test_lattice_position_checks_biunitarity_once(monkeypatch):
    calls = []
    original = qgroups.check_biunitary
    monkeypatch.setattr(qgroups, "check_biunitary", lambda rep: calls.append(rep) or original(rep))
    pos = lattice_position(rotation_rep(2))
    assert pos["minimal"] == ["O_PLUS"]
    assert len(calls) == 1


def _haar_rep(n: int, seed: int) -> MatrixRep:
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return MatrixRep(q * (np.diag(r) / np.abs(np.diag(r))))


def _signed_permutation_rep(n: int) -> MatrixRep:
    mat = permutation_rep(n).entries[:, :, 0, 0].copy()
    mat[:, 0] *= -1
    return MatrixRep(mat)


def _commuting_models() -> dict:
    models = {
        name: rep for name, (rep, _) in fixture_set().reps.items() if rep.d == 1
    }
    for n in (2, 3, 4):
        models[f"haar_{n}"] = _haar_rep(n, 40 + n)
        models[f"phase3_{n}"] = phase_diag_rep(3, n)
    models["signed_permutation_4"] = _signed_permutation_rep(4)
    return models


COMMUTING_MODELS = _commuting_models()
SCAN_PATTERNS = [d.letters for k in range(2, 7) for d in StarPattern.all_patterns(k)] + [
    c * m for m in range(7, 13) for c in "1*"
]
# the blow-up runs the d > 1 block kernel over all n^k tuples, about
# n^(k+1) d^3 multiply-adds; past this many tuples (0.15 s at 3^12) only the
# d = 1 side runs
BLOW_UP_TUPLES = 3**10


def _delta_entry(rep: MatrixRep, letters: str, idx) -> complex:
    u = rep.entries[:, :, 0, 0]
    terms = np.ones(rep.n, dtype=complex)
    for letter, i in zip(letters, idx):
        terms *= u[:, i] if letter == "1" else np.conj(u[:, i])
    return terms.sum() - (1.0 if len(set(idx)) == 1 else 0.0)


@pytest.mark.parametrize("name", sorted(COMMUTING_MODELS))
def test_commuting_delta_matches_blow_up(name):
    """A d = 1 model and its lift A (x) I_2 (the n^k block kernel) agree."""
    rep = COMMUTING_MODELS[name]
    blown = MatrixRep(rep.entries[:, :, 0, 0][:, :, None, None] * np.eye(2))
    for letters in SCAN_PATTERNS:
        chk = full_delta_identity_holds(rep, letters)
        scale = 1e-12 * max(1.0, chk.residual)
        assert len(chk.witness) == len(letters)
        assert abs(_delta_entry(rep, letters, chk.witness)) >= chk.residual - scale
        if rep.n ** len(letters) > BLOW_UP_TUPLES:
            continue
        ref = full_delta_identity_holds(blown, letters)
        assert chk.holds == ref.holds, (name, letters)
        assert abs(chk.residual - ref.residual) <= scale, (name, letters)
        assert chk.witness == ref.witness, (name, letters)


def test_commuting_delta_survives_relabelling():
    perm = np.array([2, 0, 3, 1])
    for name, rep in COMMUTING_MODELS.items():
        if rep.n != 4:
            continue
        u = rep.entries[:, :, 0, 0]
        relabelled = MatrixRep(u[np.ix_(perm, perm)])
        for letters in SCAN_PATTERNS:
            a = full_delta_identity_holds(rep, letters)
            b = full_delta_identity_holds(relabelled, letters)
            assert a.holds == b.holds, (name, letters)
            assert b.residual == pytest.approx(a.residual, abs=1e-12 * max(1.0, a.residual))


def test_exponent_table_counts_the_sorted_tuples_in_order():
    cases = [(n, p) for n in range(1, 6) for p in range(7)] + [(2, 300)]
    for n, p in cases:
        counts = [np.bincount(t, minlength=n) for t in itertools.combinations_with_replacement(range(n), p)]
        tab = qgroups._exponents(n, p)
        assert tab.shape == (n, len(counts)), (n, p)
        assert np.array_equal(tab, np.array(counts).T), (n, p)
        assert tab.dtype == (np.uint8 if p < 256 else np.uint16)
    # past 2^16 the counts take 32 bits; at n = 2 column I is (p - I, I)
    p = 2**16 + 4
    tab = qgroups._exponents(2, p)
    assert tab.dtype == np.uint32
    assert np.array_equal(tab, [p - np.arange(p + 1), np.arange(p + 1)])


@pytest.mark.parametrize("name", ["haar_3", "phase5_3", "permutation_3"])
def test_long_powers_match_the_direct_products(name):
    """1^m and *^m past the blow-up's reach, against products over sorted tuples."""
    rep = {"haar_3": COMMUTING_MODELS["haar_3"], "phase5_3": phase_diag_rep(5, 3),
           "permutation_3": permutation_rep(3)}[name]
    for letters in (c * m for m in range(13, 61) for c in "1*"):
        chk = full_delta_identity_holds(rep, letters)
        ref = reference_commuting_delta(rep, letters)
        assert chk.holds == ref.holds, letters
        assert abs(chk.residual - ref.residual) <= 1e-12 * max(1.0, ref.residual), letters
        assert chk.witness == ref.witness, letters


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_lattice_position_of_larger_commuting_models(n):
    every = all_family_tags()
    assert len(lattice_position(permutation_rep(n))["satisfied"]) == len(every) == 18
    pos = lattice_position(_signed_permutation_rep(n))
    assert pos["minimal"] == ["H_S_PLUS"]
    assert pos["upward_consistent"] and pos["closure"]["consistent"]
    pos = lattice_position(phase_diag_rep(3, n))
    assert pos["minimal"] == ["H_M_PLUS(3)"]
    assert pos["upward_consistent"] and pos["closure"]["consistent"]


def test_h0_relation_on_a_32_cycle():
    # C(33, 2)^2 = 278,784 sorted tuples, two chunks; 32^4 full tuples
    chk = check_family(permutation_rep(32), F("H_0_PLUS"))
    assert chk.holds
    assert chk.residual == 0.0


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_commuting_delta_memory_is_bounded():
    # an n^k tensor of H_M(12) at n=3 alone would take 8.5 MB
    assert _traced_peak(lambda: lattice_position(permutation_rep(3))) < 2**20

    # 646,646 sorted tuples: the (11, M) uint8 table of their exponent
    # vectors, plus at most three complex chunk arrays; while the table is
    # built it has beside it an 8-byte index and a gathered copy of its lower
    # rows, (n + 6) M bytes, less than the chunk arrays
    n, p = 11, 12
    bound = n * math.comb(n + p - 1, p) + 3 * 16 * qgroups._CHUNK_CELLS
    rep = permutation_rep(n)
    chk = None

    def run():
        nonlocal chk
        chk = full_delta_identity_holds(rep, "1" * p)

    assert _traced_peak(run) < bound
    assert chk.holds and chk.witness == (0,) * p


def test_coproduct_lift_rejects_an_oversized_lift_before_allocating():
    # n d_a d_b = 2 * 32 * 32 = 2048 > MAX_FLAT_DIM: the lift alone would be
    # 96 MiB, the broadcast product behind it n^3 d^2 cells
    big = MatrixRep(np.zeros((2, 2, 32, 32)))

    def run():
        with pytest.raises(SizeLimitError):
            coproduct_lift(big, big)

    assert _traced_peak(run) < 2**20


def test_commutativity_holds_one_entry_at_a_time():
    """The classical commutativity residual on a d=2, n=16 model holds one
    entry against every entry or every adjoint at a time; an n^4 array of
    commutators would take 4 MiB, 128 times one entry's 2 n^2 d^2 cells."""
    n, d = 16, 2
    u = _haar_rep(n * d, 77).entries[:, :, 0, 0]
    rep = MatrixRep(u.reshape(n, d, n, d).transpose(0, 2, 1, 3))
    step_bytes = 2 * n * n * d * d * 16
    chk = None

    def run():
        nonlocal chk
        chk = check_family(rep, F("U_PLUS", classical=True))

    assert _traced_peak(run) < 8 * step_bytes
    assert not chk.holds and chk.details["commutativity"] > 1e-3
