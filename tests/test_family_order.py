"""One family order per scan size: lattice_position's reductions over the
order's bitsets against pairwise references, and the bounds on a scan's
order and modulus."""

import json
import math
import random

import pytest

from freesym import easy, qgroups
from freesym.cli import main
from freesym.distributions import CumulantSpecSingle, _classify, classify_report
from freesym.easy import M_MAX, FamilyTag, all_family_tags, family_order
from freesym.cumulants import TUPLE_BUDGET
from freesym.errors import BudgetError, InputMismatchError, OrderBoundError, SizeLimitError
from freesym.fixtures import fixture_set, nilpotent_pair_rep, permutation_rep, phase_diag_rep
from freesym.qgroups import lattice_position
import reference
from reference import reference_family_below, reference_lattice_position

KEYS = ("satisfied", "minimal", "upward_consistent", "closure")
PHASES = [(m, n) for m in range(1, 13) for n in (2, 3)]


def _same_as_reference(rep, m_max):
    pos = lattice_position(rep, m_max)
    assert {key: pos[key] for key in KEYS} == reference_lattice_position(rep, m_max)


@pytest.mark.parametrize("name", sorted(fixture_set().reps))
def test_fixture_positions_match_the_pairwise_reference(name):
    _same_as_reference(fixture_set().reps[name][0], 12)


@pytest.mark.parametrize("m_max", [12, 50])
def test_phase_positions_match_the_pairwise_reference(m_max):
    for m, n in PHASES:
        _same_as_reference(phase_diag_rep(m, n), m_max)


def test_reductions_match_the_reference_on_arbitrary_satisfied_sets(monkeypatch):
    # models satisfy upward-closed sets; these need not be, so every
    # reduction, upward_consistent among them, meets both answers
    held = set()
    for module in (qgroups, reference):  # the scan and its reference read the same fake checks
        monkeypatch.setattr(module, "check_family", lambda rep, tag: qgroups.Check(tag in held, 0.0))
    tags, rep, rng = all_family_tags(12), permutation_rep(2), random.Random(7)
    consistent = set()
    for size in list(range(len(tags) + 1)) * 12:
        held = set(rng.sample(tags, size))
        pos = lattice_position(rep, 12)
        assert {key: pos[key] for key in KEYS} == reference_lattice_position(rep, 12), held
        consistent.add(pos["upward_consistent"])
    assert consistent == {False, True}


@pytest.mark.parametrize("classical", [False, True])
def test_family_order_is_the_reference_order(classical):
    tags, index, below = family_order(30, classical)
    assert list(tags) == all_family_tags(30, classical)
    assert all(index[t] == i for i, t in enumerate(tags))
    for a in tags:
        for b in tags:
            assert bool(below[index[b]] >> index[a] & 1) == reference_family_below(a, b), (a, b)


def test_a_second_scan_of_one_size_checks_no_pattern(monkeypatch):
    calls = []
    original = FamilyTag.admits

    def counted(self, pattern):
        calls.append((self, pattern))
        return original(self, pattern)

    rep = permutation_rep(3)
    lattice_position(rep, 17)
    monkeypatch.setattr(FamilyTag, "admits", counted)
    lattice_position(rep, 17)
    assert calls == []
    easy.family_order.cache_clear()
    lattice_position(rep, 17)
    assert calls


def test_meet_of_a_family_beyond_the_scan_stays_in_the_scan():
    assert easy.family_meet([FamilyTag("H_M_PLUS", 24)], 24) == FamilyTag("H_M_PLUS", 24)
    # H_M_PLUS(8) and H_M_PLUS(12) are both below it, and neither is below the other
    assert easy.family_meet([FamilyTag("H_M_PLUS", 24)], 12) is None
    assert easy.family_meet([FamilyTag("O_PLUS"), FamilyTag("O_PLUS", classical=True)]) is None


@pytest.mark.parametrize("m_max", [2, 0, -1, M_MAX + 1])
def test_a_scan_below_the_least_modulus_is_rejected(m_max):
    """Scans below modulus 3, and past M_MAX, are rejected before any check."""
    with pytest.raises(SizeLimitError if m_max > M_MAX else InputMismatchError):
        lattice_position(permutation_rep(3), m_max)


@pytest.mark.parametrize("n, m_max, count", [(4, 200, 1373701), (5, 100, 4598126)])
def test_a_scan_past_the_tuple_budget_is_rejected_before_any_check(n, m_max, count, monkeypatch):
    """The largest count over the scan's relations (its 1^m_max identity
    here, C(n+m_max-1, m_max) exponent vectors) meets the budget first."""
    assert count == math.comb(n + m_max - 1, m_max) > TUPLE_BUDGET
    monkeypatch.setattr(qgroups, "check_biunitary", lambda rep: pytest.fail("checked a relation"))
    with pytest.raises(BudgetError) as info:
        lattice_position(permutation_rep(n), m_max)
    assert str(info.value) == f"the modulus scan to m_max={m_max} needs {count} index tuples at n={n}, over the budget"
    assert len(str(info.value)) < 120


def test_a_huge_scan_count_is_named_by_its_power_of_ten():
    # a d = 2 model counts 3^300 index tuples for 1^300
    with pytest.raises(BudgetError, match=r"^the modulus scan to m_max=300 needs about 10\^143 index tuples at n=3,"):
        lattice_position(nilpotent_pair_rep(3), 300)


@pytest.fixture(scope="module")
def fx(tmp_path_factory):
    out = tmp_path_factory.mktemp("fixtures")
    assert main(["fixtures", "--out", str(out)]) == 0
    return out


def test_commands_reject_a_scan_below_the_least_modulus(fx, capsys):
    for command in ("lattice-position", "check-rep"):
        for m_max in ("2", "-1"):
            assert main([command, str(fx / "permutation.json"), "--mmax", m_max]) == 2
            assert "m_max >= 3" in capsys.readouterr().err
        assert main([command, str(fx / "permutation.json"), "--mmax", str(M_MAX + 1)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: the modulus scan takes m_max <= {M_MAX}, got {M_MAX + 1}\n"
    assert main(["lattice-position", str(fx / "permutation.json"), "--mmax", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["minimal"] == ["S_PLUS"]


def test_classification_below_order_one_is_rejected(fx, capsys):
    path = str(fx / "spec_symmetric.json")
    for order in ("0", "-3"):
        assert main(["classify-dist", path, "--free", "--order", order]) == 2
        assert "order of at least 1" in capsys.readouterr().err
    assert main(["classify-dist", path, "--free", "--order", "6", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["minimal"] == ["SYMMETRIC"]
    with pytest.raises(OrderBoundError):
        _classify(CumulantSpecSingle(order=4, entries={"11": 1.0}), 0, True, 3)


def test_noncanonical_shifted_names_follow_the_table_rows():
    inside = {kind: row.inside for kind, row in easy.TABLE.items() if row.inside}
    assert inside == {"H_S_PLUS": "O_PLUS", "H_0_PLUS": "H_PRIME_PLUS", "H_PRIME_PLUS": "U_PLUS"}
    spec = CumulantSpecSingle(6, {"1*": 1.0, "*1": 1.0, "11**": 1.0, "1*1*": 1.0}, shift=1.0)
    assert classify_report(spec, 6, True)["noncanonical_shifted"] == ["SHIFTED_FREE_UNITARY", "SHIFTED_SYMMETRIC"]
    assert classify_report(spec, 6, False)["noncanonical_shifted"] == ["SHIFTED_UNITARY", "SHIFTED_SYMMETRIC"]
