"""The easy-category table and what is derived from it, against hand-written references."""

import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freesym import qgroups
from freesym.distributions import (
    CumulantSpecSingle,
    _classify,
    classify_report,
    sample_spec,
)
from freesym.easy import (
    ClassTag,
    FamilyTag,
    all_family_tags,
    class_tags,
    family_below,
    governing_family,
    implies,
    relations,
)
from freesym.errors import InputMismatchError
from freesym.fixtures import fixture_set, permutation_rep
from freesym.invariance import _PROBE_CLASSES, theorem1_probe
from freesym.partitions import StarPattern
from freesym.qgroups import check_family
from reference import reference_classify, reference_family_below, reference_implies, reference_report

FREE_KINDS = {
    "SYMMETRIC", "ORTHOGONAL", "SEMICIRCULAR", "SHIFTED_ORTHOGONAL", "M_UNITARY",
    "FREE_UNITARY", "R_DIAGONAL", "CIRCULAR", "SHIFTED_CIRCULAR",
}
CLASSICAL_KINDS = {
    "SYMMETRIC", "ORTHOGONAL", "GAUSSIAN", "SHIFTED_ORTHOGONAL", "M_UNITARY",
    "UNITARY", "COMPLEX_GAUSSIAN", "SHIFTED_COMPLEX_GAUSSIAN",
}


def test_class_universe_is_the_two_calculi():
    assert {t.kind for t in class_tags(3)} == FREE_KINDS
    assert {t.kind for t in class_tags(3, classical=True)} == CLASSICAL_KINDS
    assert len(class_tags(12)) == 18 and len(class_tags(12, classical=True)) == 17
    assert len(all_family_tags(12)) == 18


def test_family_below_matches_the_hand_lattice():
    tags = all_family_tags(24) + all_family_tags(24, classical=True)
    pairs = [(a, b) for a in tags for b in tags]
    assert len(pairs) == 3600
    for a, b in pairs:
        assert family_below(a, b) == reference_family_below(a, b), (a, b)


@pytest.mark.parametrize("classical", [False, True])
def test_implies_matches_the_hand_lattice(classical):
    tags = class_tags(12, classical)
    for a in tags:
        for b in tags:
            assert implies(a, b) == reference_implies(a, b), (a, b)
    with pytest.raises(InputMismatchError):
        implies(tags[0], ClassTag(tags[0].kind, tags[0].m, not classical))


# the pairs where implies is stricter than the reverse family order: the two
# conventions, self-adjointness and a nonzero shift
NAMED_EXCEPTIONS = {
    (False, "ORTHOGONAL", "SEMICIRCULAR"),
    (False, "CIRCULAR", "SEMICIRCULAR"),
    (False, "ORTHOGONAL", "SHIFTED_ORTHOGONAL"),
    (False, "SEMICIRCULAR", "SHIFTED_ORTHOGONAL"),
    (False, "CIRCULAR", "SHIFTED_ORTHOGONAL"),
    (False, "CIRCULAR", "SHIFTED_CIRCULAR"),
    (True, "ORTHOGONAL", "GAUSSIAN"),
    (True, "COMPLEX_GAUSSIAN", "GAUSSIAN"),
    (True, "ORTHOGONAL", "SHIFTED_ORTHOGONAL"),
    (True, "GAUSSIAN", "SHIFTED_ORTHOGONAL"),
    (True, "COMPLEX_GAUSSIAN", "SHIFTED_ORTHOGONAL"),
    (True, "COMPLEX_GAUSSIAN", "SHIFTED_COMPLEX_GAUSSIAN"),
}


@pytest.mark.parametrize("classical", [False, True])
def test_implies_is_the_reverse_family_order_but_for_six_pairs(classical):
    tags = class_tags(12, classical)
    differ = {
        (classical, a.kind, b.kind)
        for a in tags
        for b in tags
        if implies(a, b) != family_below(governing_family(b), governing_family(a))
    }
    assert differ == {e for e in NAMED_EXCEPTIONS if e[0] == classical}


def test_governing_families_follow_the_table():
    assert governing_family(ClassTag("GAUSSIAN", classical=True)) == FamilyTag("O_PLUS", classical=True)
    assert governing_family(ClassTag("M_UNITARY", 5)) == FamilyTag("H_M_PLUS", 5)
    with pytest.raises(InputMismatchError):
        ClassTag("R_DIAGONAL", classical=True)
    with pytest.raises(InputMismatchError):
        ClassTag("M_UNITARY")


def test_check_family_detail_keys():
    keys = {
        "S_PLUS": ["projections", "sums"],
        "B_S_PLUS": ["delta_11", "sums"],
        "H_S_PLUS": ["delta_11", "square_projections"],
        "B_PLUS": ["sums"],
        "O_PLUS": ["delta_11"],
        "H_M_PLUS": ["delta_ones_5"],
        "H_0_PLUS": ["delta_11ss"],
        "H_PRIME_PLUS": ["delta_1s1s"],
        "U_PLUS": [],
    }
    rep = permutation_rep(3)
    for tag in all_family_tags(5) + all_family_tags(5, classical=True):
        if tag.m not in (None, 5):
            continue
        want = ["biunitary"] + keys[tag.kind] + (["commutativity"] if tag.classical else [])
        assert list(check_family(rep, tag).details) == want, tag
    assert dict(relations(FamilyTag("H_M_PLUS", 5)))["delta_ones_5"] == "11111"
    assert dict(relations(FamilyTag("H_0_PLUS")))["delta_11ss"] == "11**"


def _same_as_reference(spec, K=None):
    K = spec.order if K is None else K
    assert classify_report(spec, K, True) == reference_report(spec, K, True)
    assert classify_report(spec, K, False) == reference_report(spec, K, False)


def test_classification_matches_the_reference_on_fixture_specs():
    specs = fixture_set().specs
    assert len(specs) == 10
    for spec in specs.values():
        _same_as_reference(spec)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_classification_matches_the_reference_on_samples(seed):
    for tag in _PROBE_CLASSES + (ClassTag("M_UNITARY", 4), ClassTag("M_UNITARY", 6)):
        spec = sample_spec(tag, seed=seed)
        _same_as_reference(spec)
        # shifted, several noncanonical names can hold at once, in a fixed order
        _same_as_reference(CumulantSpecSingle(spec.order, dict(spec.entries), 1.0, spec.selfadjoint))
    spec = CumulantSpecSingle(6, {"1*": 1.0, "*1": 1.0, "11**": 1.0}, shift=1.0)
    report = classify_report(spec, 6, True)
    assert report["noncanonical_shifted"] == ["SHIFTED_FREE_UNITARY", "SHIFTED_SYMMETRIC"]


_PATTERNS = [d.letters for k in range(1, 7) for d in StarPattern.all_patterns(k)]
_VALUES = st.sampled_from([1.0, -1.0, 0.5, 2.0 - 1.0j])


@st.composite
def sparse_specs(draw):
    shift = draw(st.sampled_from([0.0, 1.0, 0.5]))
    if draw(st.booleans()):
        lengths = draw(st.sets(st.integers(1, 6), max_size=4))
        entries = {"1" * k: draw(st.sampled_from([1.0, -1.0, 0.5])) for k in lengths}
        return CumulantSpecSingle(order=6, entries=entries, shift=shift, selfadjoint=True)
    entries = draw(st.dictionaries(st.sampled_from(_PATTERNS), _VALUES, max_size=6))
    return CumulantSpecSingle(order=6, entries=entries, shift=draw(st.sampled_from([0.0, 1.0, 1.0j])))


@settings(max_examples=300, deadline=None)
@given(spec=sparse_specs(), K=st.integers(1, 6), m_scan=st.integers(3, 12), free=st.booleans())
def test_classification_matches_the_reference_on_sparse_specs(spec, K, m_scan, free):
    assert _classify(spec, K, free, m_scan) == reference_classify(spec, K, free, m_scan)
    _same_as_reference(spec, K)


def test_probe_runs_each_family_check_once(monkeypatch):
    calls = []
    original = qgroups.check_family

    def counted(rep, tag):
        calls.append(tag)
        return original(rep, tag)

    monkeypatch.setattr(qgroups, "check_family", counted)
    probe = theorem1_probe(n=2, max_order=4, seed=0)
    assert probe["cells"] == 81
    assert len(calls) == 81


def test_easy_starts_without_numpy():
    code = "import sys\nimport freesym.easy\nprint('numpy' in sys.modules)\n"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
