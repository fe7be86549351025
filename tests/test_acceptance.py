"""Release gate: the end-to-end checks that must all pass.

Run with `pytest tests/test_acceptance.py -s` to see one PASS line per
check. Every expected number is backed by an oracle stated inline:
counting recurrences, pairing counts, or a hand-checked small matrix.
"""

import time

import numpy as np
import pytest

from freesym.cumulants import (
    classical_cumulants_to_moments,
    free_cumulants_to_moments,
    moments_to_classical_cumulants,
    moments_to_free_cumulants,
    random_cumulant_table,
)
from freesym.distributions import CumulantSpecSingle
from freesym.fixtures import (
    fixture_set,
    haar_unitary_spec,
    uncorrected_bistochastic_unitary_rep,
)
from freesym.invariance import cumulant_identity_extractor
from freesym.invariance import theorem1_probe
from freesym.partitions import (
    enumerate_all_partitions,
    enumerate_noncrossing,
    filter_decorated,
)
from freesym.qgroups import (
    FamilyTag,
    check_biunitary,
    check_family,
    coproduct_lift,
    full_delta_identity_holds,
    operator_norm,
    structural_consequences,
)
from reference import hadamard


def _catalan_numbers(upto: int) -> list[int]:
    # c(n+1) = sum c(i) c(n-i), the ballot recurrence
    c = [1]
    for n in range(upto):
        c.append(sum(c[i] * c[n - i] for i in range(n + 1)))
    return c


def _bell_numbers(upto: int) -> list[int]:
    # Bell triangle: each row starts with the previous row's last entry
    row = [1]
    bells = [1]
    for _ in range(upto):
        new = [row[-1]]
        for value in row:
            new.append(new[-1] + value)
        row = new
        bells.append(row[0])
    return bells


def test_01_partition_counts_match_recurrences():
    t0 = time.perf_counter()
    catalan = _catalan_numbers(8)
    bell = _bell_numbers(8)
    for k in range(9):
        assert len(enumerate_noncrossing(k)) == catalan[k], k
        assert len(enumerate_all_partitions(k)) == bell[k], k
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"\nPASS 1/9 partition counts match both recurrences, k <= 8 ({elapsed:.2f}s)")


def test_02_decorated_counts_by_brute_force():
    nc4 = enumerate_noncrossing(4)
    # blockwise alternating (H') and alternating pairs (U+)
    blockwise = filter_decorated(nc4, "1*1*", FamilyTag("H_PRIME_PLUS"))
    paired = filter_decorated(nc4, "1*1*", FamilyTag("U_PLUS"))
    assert len(blockwise) == 3
    assert len(paired) == 2
    assert {p.blocks for p in paired} <= {p.blocks for p in blockwise}
    print("PASS 2/9 decorated filters on the length-4 alternating word: 3 and 2")


def test_03_round_trips_to_nine_digits():
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(100):
        order = (i % 6) + 1
        table = random_cumulant_table(order, seed=i)
        moments = free_cumulants_to_moments(table, order)
        worst = max(worst, table.max_abs_difference(moments_to_free_cumulants(moments, order)))
        moments = classical_cumulants_to_moments(table, order)
        worst = max(worst, table.max_abs_difference(moments_to_classical_cumulants(moments, order)))
    for i in range(20):
        # matrix-valued tables invert through the nested sum only; crossing
        # blocks have no canonical product order for noncommuting values
        order = (i % 5) + 1
        table = random_cumulant_table(order, dim=2, seed=1000 + i)
        moments = free_cumulants_to_moments(table, order)
        worst = max(worst, table.max_abs_difference(moments_to_free_cumulants(moments, order)))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-9
    assert elapsed < 30.0
    print(
        f"PASS 3/9 120 seeded round trips, worst error {worst:.2e} ({elapsed:.2f}s)"
    )


def test_04_known_small_laws():
    # even moments of the variance-1 semicircle law are Catalan numbers
    semi = CumulantSpecSingle(order=6, entries={"11": 1.0}, selfadjoint=True)
    m = free_cumulants_to_moments(semi.to_table(), 6)
    for pattern, want in (("11", 1.0), ("1111", 2.0), ("111111", 5.0)):
        assert m.get(pattern) == pytest.approx(want, abs=1e-9)

    # alternating moments of a circular variable count noncrossing pairings
    circ = CumulantSpecSingle(order=6, entries={"1*": 1.0, "*1": 1.0})
    m = free_cumulants_to_moments(circ.to_table(), 6)
    for pattern, want in (("1*", 1.0), ("1*1*", 2.0), ("1*1*1*", 5.0)):
        assert m.get(pattern) == pytest.approx(want, abs=1e-9)

    # standard Gaussian moments are the double factorials 1, 3, 15
    gauss = CumulantSpecSingle(order=6, entries={"11": 1.0}, selfadjoint=True)
    m = classical_cumulants_to_moments(gauss.to_table(), 6)
    for pattern, want in (("11", 1.0), ("1111", 3.0), ("111111", 15.0)):
        assert m.get(pattern) == pytest.approx(want, abs=1e-9)

    # uniform-phase unitary: computed from its 0/1 moment table, not assumed
    haar = haar_unitary_spec()
    assert haar.entries["1*"] == pytest.approx(1.0, abs=1e-9)
    assert haar.entries["1*1*"] == pytest.approx(-1.0, abs=1e-9)
    print("PASS 4/9 semicircle, circular, Gaussian and uniform-phase laws agree")


def test_05_witness_matrix_relation_table():
    t0 = time.perf_counter()
    fixtures = fixture_set()
    claims = [
        ("bistochastic_orthogonal", "B_S_PLUS", "S_PLUS"),
        ("rotation", "O_PLUS", "B_S_PLUS"),
        ("unit_i_diag", "U_PLUS", "B_PLUS"),
        ("phase_diag_3", "H_M_PLUS:3", "S_PLUS"),
        ("nilpotent_pair", "H_PRIME_PLUS", "H_0_PLUS"),
    ]
    for name, inside, outside in claims:
        rep, _ = fixtures.reps[name]
        good = check_family(rep, FamilyTag.parse(inside))
        bad = check_family(rep, FamilyTag.parse(outside))
        assert good.holds and good.residual <= 1e-12, name
        assert not bad.holds, name

    # irrational phase: inside the unconstrained family, outside every
    # finite-modulus one that the scan covers
    rep, _ = fixtures.reps["irrational_phase"]
    assert check_family(rep, FamilyTag("H_0_PLUS")).residual <= 1e-12
    for m in range(3, 13):
        assert not check_family(rep, FamilyTag("H_M_PLUS", m)).holds, m

    # first documented correction: scaling the textbook entries 1/2 +- i
    # by anything cannot make them biunitary; 1/2 +- i/2 does
    broken = check_biunitary(uncorrected_bistochastic_unitary_rep(3))
    assert not broken.holds
    assert broken.residual == pytest.approx(3.0, abs=1e-12)
    fixed, _ = fixtures.reps["bistochastic_unitary"]
    assert check_family(fixed, FamilyTag("B_PLUS")).residual <= 1e-12

    # second documented correction: the nilpotent pair satisfies the
    # alternating identity and breaks the balanced one, not the reverse;
    # that direction is asserted by the claims table above
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"PASS 5/9 witness matrices separate all claimed family pairs ({elapsed:.2f}s)")


def test_06_structural_lemmas_and_contraction():
    for name, (rep, _) in fixture_set().reps.items():
        report = structural_consequences(rep)
        for check_name, chk in report["checks"].items():
            assert chk.holds, (name, check_name)
            assert chk.residual <= 1e-9, (name, check_name)

    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 6))
        u = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
        v = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        worst = max(worst, operator_norm(hadamard(u, v)) - operator_norm(v))
    assert worst <= 1e-12
    print(f"PASS 6/9 entrywise consequences hold; contraction margin {worst:.2e} over 1000 trials")


def test_07_lift_keeps_every_satisfied_pattern():
    for name, (rep, _) in fixture_set().reps.items():
        satisfied = structural_consequences(rep)["satisfied_patterns"]
        lifted = coproduct_lift(rep, rep)
        for pattern in satisfied:
            chk = full_delta_identity_holds(lifted, pattern)
            assert chk.residual <= 1e-8, (name, pattern)
    print("PASS 7/9 doubled models keep every satisfied identity")


def test_08_probe_grid_is_clean():
    t0 = time.perf_counter()
    result = theorem1_probe(n=2, max_order=5, seed=0)
    elapsed = time.perf_counter() - t0
    assert result["cells"] == 81
    assert result["mismatches"] == []
    assert len(result["grid"]) == 9
    assert all(len(row) == 9 for row in result["grid"].values())
    assert elapsed < 60.0
    print(f"PASS 8/9 9x9 probe grid: 81 cells, zero mismatches ({elapsed:.2f}s)")


def test_09_extractor_agrees_with_full_scans():
    fixtures = fixture_set()
    pairs = 0
    for spec_name, spec in fixtures.specs.items():
        for rep_name, (rep, _) in fixtures.reps.items():
            out = cumulant_identity_extractor(
                spec, rep, max_order=min(5, spec.order), cross_validate=True
            )
            assert out["agree"], (spec_name, rep_name)
            pairs += 1
    assert pairs == len(fixtures.specs) * len(fixtures.reps)
    print(f"PASS 9/9 shortcut and full scan agree on all {pairs} pairs")
