import random
import re

import numpy as np
import pytest

from freesym import serialize
from freesym.cumulants import (
    MomentTable,
    classical_cumulants_to_moments,
    free_cumulants_to_moments,
    moments_to_free_cumulants,
    random_cumulant_table,
)
from freesym.distributions import (
    ClassicalClassTag,
    CumulantSpecSingle,
    FreeClassTag,
    classify_classical,
    classify_classical_moments,
    classify_free,
    classify_free_moments,
    classify_report,
    implies,
    minimal_tags,
    sample_spec,
    spec_from_cumulant_table,
)
from freesym.easy import M_MAX_DEFAULT, class_tags
from freesym.errors import (
    IncompleteTableError,
    InputMismatchError,
    SchemaError,
    UnsupportedAlgebraError,
)
from freesym.fixtures import haar_unitary_spec
from freesym.partitions import StarPattern


def F(kind, m=None):
    return FreeClassTag(kind, m)


def C(kind, m=None):
    return ClassicalClassTag(kind, m)


ALL_SAMPLE_TAGS = [
    F("SYMMETRIC"),
    F("ORTHOGONAL"),
    F("SEMICIRCULAR"),
    F("SHIFTED_ORTHOGONAL"),
    F("M_UNITARY", 3),
    F("M_UNITARY", 4),
    F("M_UNITARY", 6),
    F("FREE_UNITARY"),
    F("R_DIAGONAL"),
    F("CIRCULAR"),
    F("SHIFTED_CIRCULAR"),
]


@pytest.mark.parametrize("tag", ALL_SAMPLE_TAGS, ids=lambda t: t.label())
@pytest.mark.parametrize("seed", [0, 7])
def test_samples_classify_minimally(tag, seed):
    spec = sample_spec(tag, seed=seed)
    tags = classify_free(spec, K=spec.order, m_scan=max(6, tag.m or 3))
    assert tag in tags
    assert minimal_tags(tags) == {tag}


def test_sample_weights_are_unit_at_seed_0_and_drawn_in_range_otherwise(monkeypatch):
    """Seed 0 builds no generator and gives unit weights; another seed draws
    every weight from random.Random(seed) into [1, 1.5]."""
    tags = class_tags(6) + class_tags(6, classical=True)

    def no_generator(seed):
        raise AssertionError(f"a generator was built for seed {seed}")

    sample_spec.cache_clear()
    monkeypatch.setattr(random, "Random", no_generator)
    for tag in tags:
        spec = sample_spec(tag, seed=0)
        assert {abs(v) for v in spec.entries.values()} | {abs(spec.shift)} <= {0.0, 1.0}, tag
    monkeypatch.undo()
    sample_spec.cache_clear()
    for seed in (1, 2, 9):
        specs = [sample_spec(tag, seed=seed) for tag in tags]
        weights = [abs(v) for spec in specs for v in (*spec.entries.values(), spec.shift) if v]
        assert all(1.0 <= w <= 1.5 for w in weights), seed
        assert len(set(weights)) > 1, seed


@pytest.mark.parametrize("tag", class_tags(6, classical=True), ids=lambda t: t.label())
@pytest.mark.parametrize("seed", [0, 7])
def test_classical_samples_classify_minimally(tag, seed):
    """Every classical class has a sample, drawn from its governing family's
    recipe, and the classical calculus classifies it minimally at the tag."""
    spec = sample_spec(tag, seed=seed)
    tags = classify_classical(spec, K=spec.order, m_scan=max(6, tag.m or 3))
    assert tag in tags
    assert minimal_tags(tags) == {tag}


def test_circular_tag_set_is_the_full_upper_cone():
    spec = sample_spec(F("CIRCULAR"))
    tags = classify_free(spec, K=6)
    assert tags == {
        F("CIRCULAR"),
        F("R_DIAGONAL"),
        F("FREE_UNITARY"),
        F("M_UNITARY", 3),
        F("M_UNITARY", 4),
        F("M_UNITARY", 5),
        F("M_UNITARY", 6),
        F("SYMMETRIC"),
        F("ORTHOGONAL"),
    }


def test_semicircular_needs_the_selfadjoint_flag():
    selfadj = sample_spec(F("SEMICIRCULAR"))
    plain = sample_spec(F("ORTHOGONAL"))
    assert F("SEMICIRCULAR") in classify_free(selfadj, K=6)
    assert F("SEMICIRCULAR") not in classify_free(plain, K=6)


def test_symmetric_sample_has_no_other_tags():
    tags = classify_free(sample_spec(F("SYMMETRIC")), K=6)
    assert tags == {F("SYMMETRIC")}


def test_m_unitary_divisor_chain():
    tags = classify_free(sample_spec(F("M_UNITARY", 6)), K=6)
    assert F("M_UNITARY", 6) in tags
    assert F("M_UNITARY", 3) in tags
    assert F("M_UNITARY", 4) not in tags
    assert F("M_UNITARY", 5) not in tags
    assert F("SYMMETRIC") in tags


def test_m_unitary_odd_is_not_symmetric():
    tags = classify_free(sample_spec(F("M_UNITARY", 3)), K=6)
    assert tags == {F("M_UNITARY", 3)}


def test_shifted_samples_lose_the_base_tags():
    tags = classify_free(sample_spec(F("SHIFTED_ORTHOGONAL")), K=6)
    assert tags == {F("SHIFTED_ORTHOGONAL")}
    tags = classify_free(sample_spec(F("SHIFTED_CIRCULAR")), K=6)
    assert tags == {F("SHIFTED_CIRCULAR"), F("SHIFTED_ORTHOGONAL")}


def test_noncanonical_shifted_flags():
    base = sample_spec(F("R_DIAGONAL"))
    shifted = CumulantSpecSingle(
        order=6, entries=dict(base.entries), shift=1.0
    )
    report = classify_report(shifted, 6, True)
    assert "SHIFTED_R_DIAGONAL" in report["noncanonical_shifted"]
    assert report["tags"] == []

    base = sample_spec(F("FREE_UNITARY"))
    shifted = CumulantSpecSingle(order=6, entries=dict(base.entries), shift=1.0)
    report = classify_report(shifted, 6, True)
    assert "SHIFTED_FREE_UNITARY" in report["noncanonical_shifted"]

    base = sample_spec(F("SYMMETRIC"))
    shifted = CumulantSpecSingle(order=6, entries=dict(base.entries), shift=1.0)
    report = classify_report(shifted, 6, True)
    assert report["noncanonical_shifted"] == ["SHIFTED_SYMMETRIC"]


def test_report_shape():
    report = classify_report(sample_spec(F("CIRCULAR")), 4, True)
    assert report["minimal"] == ["CIRCULAR"]
    assert "CIRCULAR" in report["tags"]
    assert report["m_scan"] == 4


def test_a_modulus_scan_below_three_is_refused():
    """m_scan 2, 1, 0 and -4 used to drop every M_UNITARY tag (0 fell back to the default); None keeps it."""
    spec = sample_spec(F("M_UNITARY", 3))
    for m in (2, 1, 0, -4):
        with pytest.raises(InputMismatchError, match=f"the modulus scan needs m_scan >= 3, got {m}"):
            classify_report(spec, 6, True, m)
        with pytest.raises(InputMismatchError):
            classify_free(spec, 6, m)
        with pytest.raises(InputMismatchError):
            classify_classical(spec, 6, m)
    assert classify_report(spec, 6, True, None)["m_scan"] == 6
    assert classify_report(spec, 6, True, 3)["minimal"] == ["M_UNITARY(3)"]


def test_implication_relation():
    assert implies(F("M_UNITARY", 6), F("M_UNITARY", 3))
    assert not implies(F("M_UNITARY", 3), F("M_UNITARY", 6))
    assert implies(F("M_UNITARY", 12), F("M_UNITARY", 4))
    assert not implies(F("M_UNITARY", 12), F("M_UNITARY", 5))
    assert implies(F("M_UNITARY", 4), F("SYMMETRIC"))
    assert not implies(F("M_UNITARY", 3), F("SYMMETRIC"))
    assert implies(F("CIRCULAR"), F("R_DIAGONAL"))
    assert implies(F("CIRCULAR"), F("ORTHOGONAL"))
    assert implies(F("R_DIAGONAL"), F("FREE_UNITARY"))
    assert implies(F("FREE_UNITARY"), F("M_UNITARY", 5))
    assert implies(F("SEMICIRCULAR"), F("ORTHOGONAL"))
    assert implies(F("ORTHOGONAL"), F("SYMMETRIC"))
    assert not implies(F("SEMICIRCULAR"), F("FREE_UNITARY"))
    assert not implies(F("SYMMETRIC"), F("ORTHOGONAL"))
    assert implies(F("SHIFTED_CIRCULAR"), F("SHIFTED_ORTHOGONAL"))
    assert not implies(F("SHIFTED_ORTHOGONAL"), F("ORTHOGONAL"))
    with pytest.raises(InputMismatchError):
        implies(F("CIRCULAR"), C("COMPLEX_GAUSSIAN"))


def test_classifications_are_upward_closed():
    for tag in ALL_SAMPLE_TAGS:
        for seed in (0, 3):
            spec = sample_spec(tag, seed=seed)
            tags = classify_free(spec, K=spec.order, m_scan=6)
            closure = tags | {
                b for a in tags for b in class_tags(a.m or M_MAX_DEFAULT) if implies(a, b)
            }
            closure = {t for t in closure if t.kind != "M_UNITARY" or t.m <= 6}
            assert closure == tags, tag


def _implications(m_scan: int) -> set:
    """All (a, b) pairs with a => b over the free tags scanned to m_scan."""
    universe = class_tags(m_scan)
    return {(a, b) for a in universe for b in universe if a != b and implies(a, b)}


def test_implications_agree_with_sample_classification():
    for a, b in _implications(6):
        if a.kind == "M_UNITARY" and a.m > 6:
            continue
        spec = sample_spec(a)
        if spec.order > 6:
            continue
        assert b in classify_free(spec, K=6, m_scan=6), (a, b)


def test_transitivity_of_implications():
    pairs = _implications(6)
    tags = {a for a, _ in pairs} | {b for _, b in pairs}
    for a in tags:
        for b in tags:
            for c in tags:
                if implies(a, b) and implies(b, c):
                    assert implies(a, c), (a, b, c)


def test_classical_mirror():
    gauss = CumulantSpecSingle(order=4, entries={"11": 1.0}, selfadjoint=True)
    tags = classify_classical(gauss, K=4)
    assert minimal_tags(tags) == {C("GAUSSIAN")}

    cg = CumulantSpecSingle(order=4, entries={"1*": 1.0, "*1": 1.0})
    tags = classify_classical(cg, K=4)
    assert C("COMPLEX_GAUSSIAN") in tags
    assert C("UNITARY") in tags
    assert minimal_tags(tags) == {C("COMPLEX_GAUSSIAN")}
    with pytest.raises(InputMismatchError):
        ClassicalClassTag("R_DIAGONAL")


def haar_scalar_moments(order):
    # z Haar-distributed on the unit circle: a word averages to 1 exactly
    # when its exponents cancel.
    return MomentTable(order=order, data={d: 1.0 for k in range(1, order + 1)
                                          for d in StarPattern.all_patterns(k) if d.imbalance == 0})


def test_uniform_circle_is_unitary_not_complex_gaussian():
    moments = haar_scalar_moments(4)
    tags = classify_classical_moments(moments, K=4)
    assert C("UNITARY") in tags
    assert C("COMPLEX_GAUSSIAN") not in tags
    assert minimal_tags(tags) == {C("UNITARY")}


def test_haar_free_cumulants_classify_r_diagonal():
    moments = haar_scalar_moments(4)
    tags = classify_free_moments(moments, K=4)
    assert minimal_tags(tags) == {F("R_DIAGONAL")}


def test_to_table_merges_shift():
    spec = CumulantSpecSingle(
        order=2, entries={"11": 1.0}, selfadjoint=True, shift=0.5
    )
    table = spec.to_table()
    assert table.get("1") == 0.5
    assert table.get("*") == 0.5
    for d in ("11", "1*", "*1", "**"):
        assert table.get(d) == 1.0

    spec = CumulantSpecSingle(order=2, entries={"1*": 2.0}, shift=1 + 2j)
    table = spec.to_table()
    assert table.get("1") == 1 + 2j
    assert table.get("*") == 1 - 2j


def test_spec_refuses_a_selfadjoint_flag_that_is_not_a_bool_and_a_dim_outside_the_bound():
    for flag in ("no", 1, None):
        with pytest.raises(SchemaError, match="bad type for key 'selfadjoint': must be true or false"):
            CumulantSpecSingle(order=2, entries={"11": 1.0}, selfadjoint=flag)
    for dim, bound in ((0, "least 1"), (4, "most 3")):
        with pytest.raises(SchemaError, match=f"dim must be at {bound}, got {dim}$"):
            CumulantSpecSingle(order=2, dim=dim)


def test_a_matrix_spec_refuses_an_entry_past_the_matrix_order_bound():
    """A dim > 1 entry of more than 6 letters could never be read (MAX_MATRIX_ORDER), so it is refused at once."""
    block = np.eye(2)
    CumulantSpecSingle(order=7, dim=2, entries={"1*1*1*": block})
    for letters in ("1*1*1*1", "1*" * 7):
        with pytest.raises(SchemaError, match=f"matrix spec entry '{re.escape(letters)}' exceeds the dim-2 bound 6"):
            CumulantSpecSingle(order=14, dim=2, entries={letters: block})
    assert CumulantSpecSingle(order=7, entries={"1*1*1*1": 1.0}).to_table().order == 7  # scalars go to 8


def test_spec_validation_errors():
    with pytest.raises(SchemaError):
        CumulantSpecSingle(order=2, entries={"1*": 1j}, selfadjoint=True)
    with pytest.raises(SchemaError):
        CumulantSpecSingle(
            order=2, entries={"11": 1.0, "1*": 2.0}, selfadjoint=True
        )
    with pytest.raises(SchemaError):
        CumulantSpecSingle(order=2, entries={"11": 1.0}, shift=1j, selfadjoint=True)
    with pytest.raises(SchemaError):
        CumulantSpecSingle(order=2, entries={"111": 1.0})
    with pytest.raises(SchemaError):
        CumulantSpecSingle(order=2, entries={"11": float("nan")})
    with pytest.raises(InputMismatchError):
        FreeClassTag("M_UNITARY", 2)
    with pytest.raises(InputMismatchError):
        FreeClassTag("ORTHOGONAL", 3)
    with pytest.raises(IncompleteTableError):
        classify_free(sample_spec(F("CIRCULAR")), K=9)


def test_matrix_spec_uses_product_convention():
    v = np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex)
    spec = CumulantSpecSingle(order=2, entries={"1*": v}, dim=2)
    table = spec.to_table()
    core = table.get("1*")
    basis = np.zeros((4, 2, 2), dtype=complex)
    idx = np.arange(4)
    basis[idx, idx // 2, idx % 2] = 1.0
    for i in range(4):
        assert np.allclose(core[i], v @ basis[i])
    with pytest.raises(InputMismatchError):
        classify_free(spec, K=2)
    with pytest.raises(SchemaError):
        CumulantSpecSingle(order=2, entries={"1*": v}, dim=2, shift=1.0)


def test_spec_from_cumulant_table_round_trip():
    spec = sample_spec(F("R_DIAGONAL"), seed=11)
    back = spec_from_cumulant_table(spec.to_table())
    assert back.entries.keys() == spec.to_table().data.keys()
    assert classify_free(back, K=6) == classify_free(spec, K=6)


def test_tiny_declared_entries_are_kept():
    spec = CumulantSpecSingle(
        order=4, entries={"1*": 1.0, "*1": 1.0, "11": 1e-13}
    )
    assert spec.entries["11"] == 1e-13
    back = serialize.json_to_spec(serialize.spec_to_json(spec))
    assert back.entries == spec.entries
    assert F("CIRCULAR") not in classify_free(spec, K=4)
    assert F("CIRCULAR") not in classify_free(back, K=4)


def test_tiny_symmetric_spec_stays_symmetric():
    spec = CumulantSpecSingle(order=4, entries={"11": 1e-12, "**": 1e-12, "1111": 1e-24, "****": 1e-24})
    assert classify_report(spec, 4, free=True)["minimal"] == ["SYMMETRIC"]
    assert classify_report(spec, 4, free=False)["minimal"] == ["SYMMETRIC"]


@pytest.mark.parametrize("free", [True, False])
@pytest.mark.parametrize("letter", ["1", "*"])
def test_selfadjoint_shift_declared_on_either_letter(letter, free):
    spec = CumulantSpecSingle(order=4, entries={letter: 1.0, "11": 1.0}, selfadjoint=True)
    assert spec.to_table().get("1") == 1
    assert classify_report(spec, 4, free)["minimal"] == ["SHIFTED_ORTHOGONAL"]


def _rescaled(spec, lam):
    """The law of lam * x: each kappa_w times lam^|w|, the shift times lam."""
    entries = {letters: lam ** len(letters) * value for letters, value in spec.entries.items()}
    return CumulantSpecSingle(spec.order, entries, lam * spec.shift, spec.selfadjoint)


@pytest.mark.parametrize("free", [True, False])
def test_declared_rescaling_keeps_the_minimal_classes(free):
    for tag in class_tags(6):
        for seed in (1, 2, 3):
            spec = sample_spec(tag, seed=seed)
            want = classify_report(spec, spec.order, free)["minimal"]
            for lam in (1e-4, 1e-2, 1e2, 1e4):
                got = classify_report(_rescaled(spec, lam), spec.order, free)["minimal"]
                assert got == want, (tag, seed, lam)


def test_haar_unitary_spec_keeps_its_entries():
    spec = haar_unitary_spec()
    # kappa of (1*)^j and (*1)^j is (-1)^(j-1) Catalan(j-1), and nothing else
    want = {word * j: value for j, value in ((1, 1), (2, -1), (3, 2)) for word in ("1*", "*1")}
    assert spec.entries.keys() == want.keys()
    assert all(abs(spec.entries[letters] - value) <= 1e-12 for letters, value in want.items())


def test_rounding_level_odd_cumulants_are_dropped_from_moments():
    even = _moments_of({"11": 1.7}, free=True)
    # odd moments at rounding level, equal on every pattern of their order
    moments = MomentTable(order=even.order, data={**even.data, **{d.letters: 3e-16 for k in (1, 3, 5)
                                                                   for d in StarPattern.all_patterns(k)}})
    cumulants = moments_to_free_cumulants(moments, 6)
    odd = [abs(cumulants.data["1" * k]) for k in (1, 3, 5)]
    assert all(0 < value <= 1e-12 for value in odd), odd
    tags = classify_free_moments(moments, K=6)
    assert minimal_tags(tags) == {F("SEMICIRCULAR")}


def _moments_of(entries, free, selfadjoint=True, order=6):
    spec = CumulantSpecSingle(order=order, entries=entries, selfadjoint=selfadjoint)
    convert = free_cumulants_to_moments if free else classical_cumulants_to_moments
    return convert(spec.to_table(), order)


def test_semicircle_moments_classify_semicircular():
    tags = classify_free_moments(_moments_of({"11": 1.7}, free=True), K=6)
    assert minimal_tags(tags) == {F("SEMICIRCULAR")}
    assert F("ORTHOGONAL") in tags


def test_gaussian_moments_classify_gaussian():
    tags = classify_classical_moments(_moments_of({"11": 0.6}, free=False), K=6)
    assert minimal_tags(tags) == {C("GAUSSIAN")}
    assert C("ORTHOGONAL") in tags


def test_circular_moments_are_not_semicircular_or_gaussian():
    circular = {"1*": 1.0, "*1": 1.0}
    free_tags = classify_free_moments(_moments_of(circular, True, selfadjoint=False), K=6)
    assert minimal_tags(free_tags) == {F("CIRCULAR")}
    assert F("SEMICIRCULAR") not in free_tags
    cl_tags = classify_classical_moments(_moments_of(circular, False, selfadjoint=False), K=6)
    assert minimal_tags(cl_tags) == {C("COMPLEX_GAUSSIAN")}
    assert C("GAUSSIAN") not in cl_tags


def test_shifted_semicircle_moments_stay_shifted_orthogonal():
    spec = CumulantSpecSingle(order=6, entries={"11": 1.2}, selfadjoint=True, shift=0.5)
    moments = free_cumulants_to_moments(spec.to_table(), 6)
    tags = classify_free_moments(moments, K=6)
    assert F("SHIFTED_ORTHOGONAL") in tags
    assert F("SEMICIRCULAR") not in tags


def test_matrix_valued_moments_are_rejected_as_unsupported():
    moments = free_cumulants_to_moments(random_cumulant_table(4, 2, seed=1), 4)
    with pytest.raises(UnsupportedAlgebraError, match="dim 2"):
        classify_free_moments(moments, 4)
    with pytest.raises(UnsupportedAlgebraError, match="dim 2"):
        classify_classical_moments(moments, 4)


def test_a_matrix_cumulant_table_is_not_a_spec():
    with pytest.raises(UnsupportedAlgebraError, match="dim 2"):
        spec_from_cumulant_table(random_cumulant_table(4, 2, seed=1))


@pytest.mark.parametrize("free", [True, False])
@pytest.mark.parametrize("first", ["*", "1"])
def test_an_undeclared_conjugate_takes_the_conjugate_value(first, free):
    spec = CumulantSpecSingle(order=4, entries={first: 1.0, "1*": 1.0, "*1": 1.0})
    table = spec.to_table()
    assert table.get("1") == table.get("*") == 1
    want = "SHIFTED_CIRCULAR" if free else "SHIFTED_COMPLEX_GAUSSIAN"
    assert classify_report(spec, 4, free)["minimal"] == [want]


def _starred(spec):
    """The spec with every entry (w, v) declared as (w*, conj v) instead."""
    entries = {StarPattern(letters).conjugate().letters: value.conjugate() for letters, value in spec.entries.items()}
    return CumulantSpecSingle(spec.order, entries, spec.shift, spec.selfadjoint)


def _one_sided_spec(seed, order=6):
    """A seeded non-self-adjoint scalar spec that declares at most one
    pattern of each conjugate pair (a self-conjugate one with a real value)."""
    rng = np.random.default_rng(seed)
    entries = {}
    for k in range(1, order + 1):
        for d in StarPattern.all_patterns(k):
            star = d.conjugate().letters
            if star in entries or rng.uniform() < 0.6:
                continue
            entries[d.letters] = complex(rng.normal(), 0.0 if star == d.letters else rng.normal())
    shift = complex(rng.normal(), rng.normal()) if seed % 2 else 0j
    return CumulantSpecSingle(order=order, entries=entries, shift=shift)


def _star_defect(moments) -> float:
    """The largest |m(w*) - conj m(w)| over the table, relative to its largest |m|."""
    scale = max(abs(value) for value in moments.data.values())
    worst = max(abs(moments.data.get(StarPattern(letters).conjugate().letters, 0j) - np.conj(value))
                for letters, value in moments.data.items())
    return worst / scale


@pytest.mark.parametrize("convert", [free_cumulants_to_moments, classical_cumulants_to_moments])
def test_moments_of_a_one_sided_spec_are_a_star_distribution(convert):
    spec = CumulantSpecSingle(order=4, entries={"11": 1 + 1j, "1*1": 2j})
    assert _star_defect(convert(spec.to_table(), 4)) == 0.0
    for seed in range(8):
        spec = _one_sided_spec(seed)
        assert _star_defect(convert(spec.to_table(), spec.order)) <= 1e-12, seed


@pytest.mark.parametrize("free", [True, False])
def test_declaring_the_starred_entries_keeps_every_report(free):
    specs = [sample_spec(tag, seed) for tag in class_tags(6) for seed in (0, 3)]
    specs += [_one_sided_spec(seed, order=4) for seed in range(8)]
    s = 0.5 - 2j
    specs += [CumulantSpecSingle(4, {"1": s, "1*": 1.0, "*1": 1.0}),
              CumulantSpecSingle(4, {"1": s, "11": 1.0, "**": 1.0}),
              CumulantSpecSingle(4, {"1": s, "1*": 1.0, "*1": 1.0, "11**": 2.0}, shift=-s)]
    for spec in specs:
        assert classify_report(_starred(spec), spec.order, free) == classify_report(spec, spec.order, free), spec


def test_a_selfadjoint_matrix_spec_is_refused_without_entries():
    for entries in ({}, {"11": np.zeros((2, 2))}):
        with pytest.raises(SchemaError, match="scalar specs only"):
            CumulantSpecSingle(order=2, entries=entries, dim=2, selfadjoint=True)
