import dataclasses
import gc
import itertools
import tracemalloc

import numpy as np
import pytest

from freesym import cumulants
from freesym.cumulants import (
    CumulantTable,
    MomentTable,
    classical_cumulants_to_moments,
    core_shape,
    free_cumulants_to_moments,
    joint_moment_tensor,
    joint_moments_free_family,
    moments_to_classical_cumulants,
    moments_to_free_cumulants,
    multivariate_cumulants_from_joint_moments,
    random_cumulant_table,
)
from freesym.distributions import CumulantSpecSingle, classify_report
from freesym.errors import (
    BudgetError,
    CrossingPartitionError,
    IncompleteTableError,
    InputMismatchError,
    OrderBoundError,
    SizeLimitError,
    UnsupportedAlgebraError,
)
from freesym.partitions import (
    Partition,
    StarPattern,
    enumerate_all_partitions,
    enumerate_noncrossing,
)
from reference import (
    boolean_partition_sum,
    eval_partitioned_classical,
    eval_partitioned_free,
    joint_moment_partition_sum,
    reference_splice,
    scalar_partition_sum,
)


def selfadjoint_moments(values, order):
    # a self-adjoint variable has pattern-independent moments
    return MomentTable(order=order, data={d: values[k - 1] for k in range(1, order + 1)
                                          for d in StarPattern.all_patterns(k)})


def selfadjoint_cumulants(values, order):
    return CumulantTable(order=order, data={d: values[k - 1] for k in range(1, order + 1) if values[k - 1] != 0
                                            for d in StarPattern.all_patterns(k)})


def test_free_fourth_cumulant_formula():
    m1, m2, m3, m4 = 0.3, 0.7, 0.2, 1.1
    table = selfadjoint_moments([m1, m2, m3, m4], 4)
    kappa = moments_to_free_cumulants(table, 4)
    expected = m4 - 4 * m3 * m1 - 2 * m2 ** 2 + 10 * m2 * m1 ** 2 - 5 * m1 ** 4
    assert abs(kappa.get("1111") - expected) < 1e-12
    assert abs(kappa.get("1*1*") - expected) < 1e-12


def test_classical_fourth_cumulant_formula():
    m1, m2, m3, m4 = 0.3, 0.7, 0.2, 1.1
    table = selfadjoint_moments([m1, m2, m3, m4], 4)
    kappa = moments_to_classical_cumulants(table, 4)
    expected = m4 - 4 * m3 * m1 - 3 * m2 ** 2 + 12 * m2 * m1 ** 2 - 6 * m1 ** 4
    assert abs(kappa.get("1111") - expected) < 1e-12


def test_semicircular_moments():
    kappa = selfadjoint_cumulants([0, 1, 0, 0, 0, 0], 6)
    m = free_cumulants_to_moments(kappa, 6)
    for k, want in [(1, 0), (2, 1), (3, 0), (4, 2), (5, 0), (6, 5)]:
        assert abs(m.get("1" * k) - want) < 1e-12
    back = moments_to_free_cumulants(m, 6)
    assert abs(back.get("11") - 1) < 1e-12
    for k in (3, 4, 5, 6):
        assert abs(back.get("1" * k)) < 1e-12


def test_circular_trace_powers():
    kappa = CumulantTable(order=6, data={"1*": 1, "*1": 1})
    m = free_cumulants_to_moments(kappa, 6)
    for k, want in [(1, 1), (2, 2), (3, 5)]:
        assert abs(m.get("1*" * k) - want) < 1e-12
    # the only length-2 moments are the alternating ones
    assert abs(m.get("11")) < 1e-12
    assert abs(m.get("1111")) < 1e-12


def test_gaussian_moments_classical():
    kappa = selfadjoint_cumulants([0, 1, 0, 0, 0, 0], 6)
    m = classical_cumulants_to_moments(kappa, 6)
    for k, want in [(2, 1), (4, 3), (6, 15)]:
        assert abs(m.get("1" * k) - want) < 1e-12
    assert abs(m.get("111")) < 1e-12


def test_pure_shift_gives_powers():
    c = 0.5 + 0.25j
    kappa = CumulantTable(order=5, data={"1": c})
    m_free = free_cumulants_to_moments(kappa, 5)
    m_cl = classical_cumulants_to_moments(kappa, 5)
    for k in range(1, 6):
        assert abs(m_free.get("1" * k) - c ** k) < 1e-12
        assert abs(m_cl.get("1" * k) - c ** k) < 1e-12


def haar_unitary_moments(order):
    # a normal unitary with vanishing nonzero powers: the word collapses to
    # the net exponent, so the moment is 1 exactly when counts balance
    return MomentTable(order=order, data={d: 1.0 if d.imbalance == 0 else 0.0 for k in range(1, order + 1)
                                          for d in StarPattern.all_patterns(k)})


def test_haar_unitary_cumulants():
    kappa = moments_to_free_cumulants(haar_unitary_moments(6), 6)
    assert abs(kappa.get("1*") - 1) < 1e-12
    assert abs(kappa.get("*1") - 1) < 1e-12
    assert abs(kappa.get("1*1*") - (-1)) < 1e-12
    assert abs(kappa.get("*1*1") - (-1)) < 1e-12
    assert abs(kappa.get("1*1*1*") - 2) < 1e-12
    # non-alternating balanced patterns vanish
    assert abs(kappa.get("11**")) < 1e-12


def test_scalar_round_trips():
    for seed in range(5):
        kappa = random_cumulant_table(6, seed=seed)
        m = free_cumulants_to_moments(kappa, 6)
        back = moments_to_free_cumulants(m, 6)
        assert kappa.max_abs_difference(back) < 1e-9
        m2 = classical_cumulants_to_moments(kappa, 6)
        back2 = moments_to_classical_cumulants(m2, 6)
        assert kappa.max_abs_difference(back2) < 1e-9


def test_matrix_round_trip():
    for seed in range(3):
        kappa = random_cumulant_table(5, dim=2, seed=seed)
        m = free_cumulants_to_moments(kappa, 5)
        back = moments_to_free_cumulants(m, 5)
        assert kappa.max_abs_difference(back) < 1e-9


def test_low_order_free_classical_agreement():
    table = selfadjoint_moments([0.4, 1.2, 0.9], 3)
    free = moments_to_free_cumulants(table, 3)
    cl = moments_to_classical_cumulants(table, 3)
    assert free.max_abs_difference(cl) < 1e-12


def test_conversion_guards():
    kappa = random_cumulant_table(4, seed=1)
    with pytest.raises(OrderBoundError):
        free_cumulants_to_moments(random_cumulant_table(8, seed=0) , 9)
    with pytest.raises(IncompleteTableError):
        free_cumulants_to_moments(kappa, 5)
    mk = random_cumulant_table(5, dim=2, seed=2)
    with pytest.raises(UnsupportedAlgebraError):
        classical_cumulants_to_moments(mk, 4)
    with pytest.raises(OrderBoundError):
        free_cumulants_to_moments(random_cumulant_table(6, dim=2, seed=0), 7)
    with pytest.raises(SizeLimitError):
        CumulantTable(order=2, dim=4)


def test_a_table_checks_each_key_against_its_declared_order():
    """Keys may be letters, star patterns or letter sequences; each is held to 1..order letters."""
    table = CumulantTable(order=3, data={"1*": 1, StarPattern("*1"): 2.0, ("*", "*", "1"): 3j})
    assert dict(table.data) == {"1*": 1, "*1": 2, "**1": 3j}
    for order, key in ((3, "1*1*"), (1, "11"), (0, "1"), (3, ""), (3, StarPattern("1111"))):
        with pytest.raises(OrderBoundError, match="outside declared order"):
            CumulantTable(order=order, data={key: 1.0})
    assert list(MomentTable(order=10, data={"1" * 9: 1.0}).data) == ["1" * 9]
    with pytest.raises(InputMismatchError):
        CumulantTable(order=3, data={"1x": 1.0})


def test_eval_free_rejects_crossing():
    kappa = random_cumulant_table(4, seed=3)
    crossing = Partition.of([[1, 3], [2, 4]])
    with pytest.raises(CrossingPartitionError):
        eval_partitioned_free(kappa, crossing, "1111")
    # the classical evaluation accepts it
    val = eval_partitioned_classical(kappa, crossing, "1111")
    expected = kappa.get("11") ** 2
    assert abs(val - expected) < 1e-12


def test_nested_scalar_example():
    kappa = CumulantTable(order=2, data={"1": 0.5, "11": 2.0})
    part = Partition.of([[1, 3], [2]])
    a = [1.5, 3.0, 0.5 + 1j]
    # peel the singleton {2}: its value multiplies the first argument
    want = 2.0 * (1.5 * (0.5 * 3.0)) * (0.5 + 1j)
    got = eval_partitioned_free(kappa, part, "111", a)
    assert abs(got - want) < 1e-12
    # for scalars the classical product agrees
    got_cl = eval_partitioned_classical(kappa, part, "111", a)
    assert abs(got_cl - want) < 1e-12


def test_nested_matrix_differs_from_classical():
    rng = np.random.default_rng(7)
    kappa = random_cumulant_table(3, dim=2, seed=11)
    part = Partition.of([[1, 3], [2]])
    coeffs = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
              for _ in range(3)]
    nested = eval_partitioned_free(kappa, part, "111", coeffs)
    flat = eval_partitioned_classical(kappa, part, "111", coeffs)
    assert not np.allclose(nested, flat, atol=1e-9)


def test_peel_order_independence():
    kappa = random_cumulant_table(5, dim=2, seed=5)
    rng = np.random.default_rng(17)
    for k in range(1, 6):
        coeffs = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                  for _ in range(k)]
        for part in enumerate_noncrossing(k):
            left = eval_partitioned_free(kappa, part, "1*" * (k // 2) + "1" * (k % 2),
                                         coeffs, rightmost=False)
            right = eval_partitioned_free(kappa, part, "1*" * (k // 2) + "1" * (k % 2),
                                          coeffs, rightmost=True)
            assert np.allclose(left, right, atol=1e-12)


def test_multilinearity_in_each_slot():
    kappa = random_cumulant_table(4, dim=2, seed=9)
    rng = np.random.default_rng(23)
    part = Partition.of([[1, 4], [2, 3]])
    coeffs = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
              for _ in range(4)]
    base = eval_partitioned_free(kappa, part, "1*1*", coeffs)
    for lam in (2.0, 1j):
        for j in range(4):
            scaled = list(coeffs)
            scaled[j] = lam * scaled[j]
            got = eval_partitioned_free(kappa, part, "1*1*", scaled)
            assert np.allclose(got, lam * base, atol=1e-12)
    # scalar slots too
    ks = random_cumulant_table(4, seed=10)
    cs = [0.5, 2.0, 1.5, 1.0]
    base_s = eval_partitioned_free(ks, part, "1*1*", cs)
    cs2 = list(cs)
    cs2[1] = 1j * cs2[1]
    assert abs(eval_partitioned_free(ks, part, "1*1*", cs2) - 1j * base_s) < 1e-12


def semicircular_spec(order=6):
    return selfadjoint_cumulants([0, 1, 0, 0, 0, 0], order)


def test_free_family_joint_moments():
    spec = semicircular_spec()
    assert abs(joint_moments_free_family(spec, 2, (1, 2, 1, 2), "1111")) < 1e-12
    assert abs(joint_moments_free_family(spec, 2, (1, 1, 2, 2), "1111") - 1) < 1e-12
    assert abs(joint_moments_free_family(spec, 2, (1, 1), "11") - 1) < 1e-12
    assert abs(joint_moments_free_family(spec, 2, (1, 2), "11")) < 1e-12


def test_joint_moment_tensor_matches_pointwise():
    spec = random_cumulant_table(4, seed=21, scale=0.6)
    n = 2
    for k in (1, 2, 3, 4):
        d = StarPattern(("1*" * k)[:k])
        tensor = joint_moment_tensor(spec, n, k, d)
        for word in itertools.product(range(1, n + 1), repeat=k):
            idx = tuple(i - 1 for i in word)
            want = joint_moment_partition_sum(spec, n, word, d)
            assert abs(tensor[idx] - want) < 1e-12


def test_joint_moment_tensor_with_matrix_coefficients():
    spec = random_cumulant_table(3, dim=2, seed=31)
    rng = np.random.default_rng(41)
    coeffs = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
              for _ in range(4)]
    tensor = joint_moment_tensor(spec, 2, 3, "1*1", coeffs)
    for word in itertools.product((1, 2), repeat=3):
        idx = tuple(i - 1 for i in word)
        want = joint_moment_partition_sum(spec, 2, word, "1*1", coeffs)
        assert np.allclose(tensor[idx], want, atol=1e-12)


class _FreeFamilyOracle:
    def __init__(self, table, n):
        self.table = table
        self.n = n
        self.dim = table.dim

    def moment(self, word, pattern):
        return joint_moment_partition_sum(self.table, self.n, word, pattern)


class _IndependentGaussians:
    """Classically independent commuting standard Gaussians."""

    n = 2
    dim = 1

    def moment(self, word, pattern):
        from freesym.partitions import kernel

        out = 1.0
        for block in kernel(tuple(word)).blocks:
            m = len(block)
            if m % 2:
                return 0.0
            out *= float(np.prod(np.arange(1, m, 2)))  # (m-1)!!
        return out


def test_multivariate_free_family_has_vanishing_mixed_cumulants():
    spec = random_cumulant_table(4, seed=51, scale=0.5)
    oracle = _FreeFamilyOracle(spec, 2)
    multi = multivariate_cumulants_from_joint_moments(oracle, 4)
    word, pattern, worst = multi.largest_mixed()
    assert worst < 1e-9, (word, pattern, worst)


def test_multivariate_single_variable_reduction():
    spec = random_cumulant_table(4, seed=52, scale=0.5)
    oracle = _FreeFamilyOracle(spec, 1)
    multi = multivariate_cumulants_from_joint_moments(oracle, 4)
    for k in range(1, 5):
        for d in StarPattern.all_patterns(k):
            got = multi.get((1,) * k, d)
            want = spec.get(d)
            if want is None:
                want = 0j
            assert abs(got - want) < 1e-9


def test_independent_is_not_free():
    multi = multivariate_cumulants_from_joint_moments(_IndependentGaussians(), 4)
    val = multi.get((1, 2, 1, 2), "1111")
    assert abs(val - 1) < 1e-9


def test_multivariate_guards():
    spec = random_cumulant_table(2, seed=1)
    with pytest.raises(OrderBoundError):
        multivariate_cumulants_from_joint_moments(_FreeFamilyOracle(spec, 4), 2)
    with pytest.raises(OrderBoundError):
        multivariate_cumulants_from_joint_moments(_FreeFamilyOracle(spec, 2), 7)


# ---------------------------------------------------------------------------
# the conversions against their definition: sums of partitioned functionals


def _coefficient_units(p):
    return np.eye(p * p, dtype=complex).reshape(p * p, p, p)


def partition_sum(table, K, free):
    """Moments by the defining sum of eval_partitioned_* over (noncrossing) partitions.

    For a matrix table the core entry at slots (e_1, ..., e_{k-1}) is the sum
    with the unit coefficients E_{e_t} in slot t, evaluated for every slot
    tuple at once: slot t's coefficient is the stack of units along axis t.
    """
    evaluate = eval_partitioned_free if free else eval_partitioned_classical
    parts = enumerate_noncrossing if free else enumerate_all_partitions
    p = table.dim
    units = _coefficient_units(p)
    data = {}
    for k in range(1, K + 1):
        stacks = [units.reshape((1,) * t + (p * p,) + (1,) * (k - 2 - t) + (p, p))
                  for t in range(k - 1)] + [np.eye(p, dtype=complex)]
        for d in StarPattern.all_patterns(k):
            if p == 1:
                data[d] = sum(evaluate(table, part, d) for part in parts(k))
                continue
            core = np.zeros(core_shape(p, k), dtype=complex)
            for part in parts(k):
                core += evaluate(table, part, d, stacks)
            data[d] = core
    return MomentTable(order=K, dim=p, data=data)


def relative_error(got, want):
    """Largest entry difference over the largest entry of want."""
    keys = set(got.data) | set(want.data)
    diff = max(float(np.max(np.abs(np.asarray(got.data.get(key, 0j))
                                   - np.asarray(want.data.get(key, 0j))))) for key in keys)
    scale = max(float(np.max(np.abs(np.asarray(v)))) for v in want.data.values())
    return diff / scale


def assert_matches_definition(kappa, K, free):
    to_moments = free_cumulants_to_moments if free else classical_cumulants_to_moments
    to_cumulants = moments_to_free_cumulants if free else moments_to_classical_cumulants
    want = partition_sum(kappa, K, free)
    assert relative_error(to_moments(kappa, K), want) < 1e-12
    # the inversion returns cumulants whose partition sum is the input
    back = to_cumulants(want, K)
    assert relative_error(partition_sum(back, K, free), want) < 1e-12


@pytest.mark.parametrize("free", [True, False])
@pytest.mark.parametrize("K", range(1, 7))
def test_scalar_conversions_match_partition_sums(K, free):
    assert_matches_definition(random_cumulant_table(K, seed=60 + K), K, free)


@pytest.mark.parametrize("dim,K", [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5),
                                   (3, 1), (3, 2), (3, 3), (3, 4)])
def test_matrix_conversions_match_partition_sums(dim, K):
    assert_matches_definition(random_cumulant_table(K, dim=dim, seed=70 + K), K, True)


@pytest.mark.parametrize("free", [True, False])
def test_sparse_tables_match_partition_sums(free):
    # only order 2 present: the semicircle (free) and the Gaussian (classical)
    assert_matches_definition(selfadjoint_cumulants([0, 1.3, 0, 0, 0, 0], 6), 6, free)
    moments = haar_unitary_moments(6)
    to_cumulants = moments_to_free_cumulants if free else moments_to_classical_cumulants
    back = to_cumulants(moments, 6)
    assert relative_error(partition_sum(back, 6, free), moments) < 1e-12


class _TabulatedFamily:
    """Seeded joint moments on every (word, pattern): any table is a moment functional."""

    def __init__(self, n, K, seed):
        rng = np.random.default_rng(seed)
        self.n, self.dim = n, 1
        self.values = {
            (word, d.letters): complex(rng.standard_normal(), rng.standard_normal()) * 0.5 ** k
            for k in range(1, K + 1)
            for word in itertools.product(range(1, n + 1), repeat=k)
            for d in StarPattern.all_patterns(k)
        }

    def moment(self, word, pattern):
        return self.values[(tuple(word), StarPattern.coerce(pattern).letters)]


@pytest.mark.parametrize("K", range(1, 5))
def test_multivariate_cumulants_match_partition_sums(K):
    family = _TabulatedFamily(2, K, seed=80 + K)
    multi = multivariate_cumulants_from_joint_moments(family, K)
    scale = max(abs(v) for v in family.values.values())
    for (word, letters), want in family.values.items():
        got = 0j
        for part in enumerate_noncrossing(len(word)):
            term = 1 + 0j
            for block in part.blocks:
                term *= multi.get([word[x - 1] for x in block], "".join(letters[x - 1] for x in block))
            got += term
        assert abs(got - want) < 1e-12 * scale


# ---------------------------------------------------------------------------
# the advertised bounds, and memory across repeated conversions


def product_core(p, k):
    """Core of c_1, ..., c_{k-1} -> c_1 ... c_{k-1}: a scalar tensored with the identity."""
    core = np.eye(p, dtype=complex)
    for _ in range(k - 1):
        core = np.einsum("...xy,ayz->...axz", core, _coefficient_units(p))
    return core


def test_dim2_order6_round_trip():
    kappa = random_cumulant_table(6, dim=2, seed=90)
    back = moments_to_free_cumulants(free_cumulants_to_moments(kappa, 6), 6)
    assert kappa.max_abs_difference(back) < 1e-9


def test_dim3_order5_lifted_scalar():
    scalar = random_cumulant_table(5, seed=91)
    moments = free_cumulants_to_moments(scalar, 5)
    lift = CumulantTable(order=5, dim=3, data={letters: value * product_core(3, len(letters))
                                               for letters, value in scalar.data.items()})
    lifted_moments = free_cumulants_to_moments(lift, 5)
    back = moments_to_free_cumulants(lifted_moments, 5)
    for letters, value in moments.data.items():
        core = product_core(3, len(letters))
        assert np.max(np.abs(lifted_moments.get(letters) - value * core)) < 1e-12
        assert np.max(np.abs(back.get(letters) - scalar.get(letters) * core)) < 1e-12


def test_repeated_conversions_retain_no_memory():
    kappa = random_cumulant_table(8, seed=92)

    def convert():
        free_cumulants_to_moments(kappa, 8)
        classical_cumulants_to_moments(kappa, 8)

    convert()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(3):
            convert()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 1 << 20, retained


def _first_occurrence_labels(word):
    """The word relabelled 1, 2, ... in order of first occurrence (same kernel)."""
    first = tuple(dict.fromkeys(word)).index
    return tuple(first(i) + 1 for i in word)


def _random_coeffs(kind, k, rng):
    if kind == "none":
        return None
    if kind == "scalar":
        return list(rng.standard_normal(k + 1) + 1j * rng.standard_normal(k + 1))
    return [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(k + 1)]


@pytest.mark.parametrize("coeff_kind", ["none", "scalar", "matrix"])
@pytest.mark.parametrize("table_kind", ["dense", "semicircle", "dim2"])
def test_joint_tensors_match_pointwise_moments(table_kind, coeff_kind):
    """Recursion tensors against the partition-sum joint moments on every word.

    n in {2, 3}, k <= 5, every pattern.  The pointwise definition depends on
    a word only through its kernel, so it is evaluated once per kernel, at
    the first-occurrence relabelling, and shared by n = 2 and n = 3.
    """
    table = {
        "dense": lambda: random_cumulant_table(5, seed=61, scale=0.6),
        "semicircle": lambda: semicircular_spec(5),
        "dim2": lambda: random_cumulant_table(5, dim=2, seed=62),
    }[table_kind]()
    rng = np.random.default_rng(63)
    for k in range(1, 6):
        for d in StarPattern.all_patterns(k):
            coeffs = _random_coeffs(coeff_kind, k, rng)
            pointwise = {}
            for n in (2, 3):
                tensor = joint_moment_tensor(table, n, k, d, coeffs)
                want = np.zeros_like(tensor)
                for word in itertools.product(range(1, n + 1), repeat=k):
                    key = _first_occurrence_labels(word)
                    if key not in pointwise:
                        pointwise[key] = joint_moment_partition_sum(table, n, key, d, coeffs)
                    want[tuple(i - 1 for i in word)] = pointwise[key]
                err = np.max(np.abs(tensor - want))
                assert err <= 1e-12 * np.max(np.abs(want)), (n, d.letters, err)


# ---------------------------------------------------------------------------
# the array-plan recursion at the top scalar orders, and pointwise joint moments


@pytest.mark.parametrize("free", [True, False])
@pytest.mark.parametrize("K", [7, 8])
def test_top_order_scalar_conversions_match_partition_sums(K, free):
    kappa = random_cumulant_table(K, seed=60 + K)
    want = scalar_partition_sum(kappa, K, free)
    # the vectorised sum is the eval_partitioned_* sum, spot-checked on three words
    evaluate = eval_partitioned_free if free else eval_partitioned_classical
    parts = enumerate_noncrossing(K) if free else enumerate_all_partitions(K)
    for letters in ("1" * K, ("1*" * K)[:K], "*" * (K - 1) + "1"):
        direct = sum(evaluate(kappa, part, letters) for part in parts)
        assert abs(direct - want.get(letters)) < 1e-12 * abs(direct)
    to_moments = free_cumulants_to_moments if free else classical_cumulants_to_moments
    to_cumulants = moments_to_free_cumulants if free else moments_to_classical_cumulants
    assert relative_error(to_moments(kappa, K), want) < 1e-12
    back = to_cumulants(want, K)
    assert relative_error(scalar_partition_sum(back, K, free), want) < 1e-12


@pytest.mark.parametrize("free", [True, False])
def test_sparse_semicircle_odd_entries_are_exact_zeros(free):
    to_moments = free_cumulants_to_moments if free else classical_cumulants_to_moments
    to_cumulants = moments_to_free_cumulants if free else moments_to_classical_cumulants
    moments = to_moments(selfadjoint_cumulants([0, 1, 0, 0, 0, 0, 0, 0], 8), 8)
    back = to_cumulants(moments, 8)
    for k in range(1, 9, 2):
        for d in StarPattern.all_patterns(k):
            assert moments.get(d) == 0, (d.letters, moments.get(d))
            assert back.get(d) == 0, (d.letters, back.get(d))


@pytest.mark.parametrize("coeff_kind", ["none", "scalar", "matrix"])
def test_joint_moment_of_eight_distinct_indices(coeff_kind):
    table = random_cumulant_table(8, seed=64, scale=0.6)
    coeffs = _random_coeffs(coeff_kind, 8, np.random.default_rng(65))
    with pytest.raises(BudgetError):
        joint_moment_tensor(table, 8, 8, "1*1*1*1*")
    for word in ((1, 2, 3, 4, 5, 6, 7, 8), (1, 2, 1, 3, 3, 2, 1, 8)):
        got = joint_moments_free_family(table, 8, word, "1*1*1*1*", coeffs)
        want = joint_moment_partition_sum(table, 8, word, "1*1*1*1*", coeffs)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), word


@pytest.mark.parametrize("coeff_kind", ["none", "scalar", "matrix"])
@pytest.mark.parametrize("table_kind", ["dense", "semicircle", "dim2"])
def test_pointwise_joint_moments_match_partition_sums(table_kind, coeff_kind):
    """joint_moments_free_family against the partition sum on every kernel, k <= 4."""
    table = {
        "dense": lambda: random_cumulant_table(4, seed=66, scale=0.6),
        "semicircle": lambda: semicircular_spec(4),
        "dim2": lambda: random_cumulant_table(4, dim=2, seed=67),
    }[table_kind]()
    rng = np.random.default_rng(68)
    for k in range(1, 5):
        words = {_first_occurrence_labels(w) for w in itertools.product(range(1, 5), repeat=k)}
        for word in sorted(words):
            for d in StarPattern.all_patterns(k):
                coeffs = _random_coeffs(coeff_kind, k, rng)
                got = joint_moments_free_family(table, 4, word, d, coeffs)
                want = joint_moment_partition_sum(table, 4, word, d, coeffs)
                err = np.max(np.abs(got - want))
                assert err <= 1e-12 * np.max(np.abs(want)), (word, d.letters, err)


class _PointwiseFamily(_FreeFamilyOracle):
    """The same free family, its moments by joint_moments_free_family."""

    def moment(self, word, pattern):
        return joint_moments_free_family(self.table, self.n, word, pattern)


def test_multivariate_inverter_on_three_free_copies():
    spec = random_cumulant_table(4, seed=69, scale=0.5)
    multi = multivariate_cumulants_from_joint_moments(_PointwiseFamily(spec, 3), 4)
    assert len(multi.data) == sum(6 ** k for k in range(1, 5))
    for (word, letters), value in multi.data.items():
        want = spec.get(letters) if len(set(word)) == 1 else 0
        assert abs(value - want) < 1e-12, (word, letters, value)


def _per_word_inverter(oracle, K):
    """The multivariate inverter's entries as it built them a word at a time: a flat index per call."""
    n, dim = oracle.n, oracle.dim
    a = 2 * n

    def flat_index(digits):
        i = 0
        for d in digits:
            i = i * a + d + 1
        return i

    known = np.zeros((flat_index([a - 1] * K) + 1,) + ((dim, dim) if dim > 1 else ()), dtype=complex)
    where = {}
    for k in range(1, K + 1):
        for word in itertools.product(range(1, n + 1), repeat=k):
            for d in StarPattern.all_patterns(k):
                i = where[word, d.letters] = flat_index(
                    [2 * (t - 1) + (ch == "*") for t, ch in zip(word, d.letters)])
                known[i] = oracle.moment(word, d)
    values = cumulants._gathered_recursion(known, K, a, True, False)
    return {key: values[i] for key, i in where.items()}


class _TabulatedMatrixFamily:
    """Seeded 2x2 joint moments on every (word, pattern)."""

    n, dim = 2, 2

    def __init__(self, K, seed):
        rng = np.random.default_rng(seed)
        self.values = {
            (word, d.letters): (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) * 0.5 ** k
            for k in range(1, K + 1)
            for word in itertools.product((1, 2), repeat=k)
            for d in StarPattern.all_patterns(k)
        }

    def moment(self, word, pattern):
        return self.values[(tuple(word), pattern.letters)]


@pytest.mark.parametrize("family", ["free n=2 K=5", "free n=3 K=4", "tabulated n=2 K=4",
                                    "dim-2 n=2 K=4"])
def test_multivariate_inverter_matches_the_per_word_construction(family):
    """Values bit for bit and keys in the same order: word-major, then all_patterns order."""
    oracle, K = {
        "free n=2 K=5": lambda: (_PointwiseFamily(random_cumulant_table(5, seed=92, scale=0.6), 2), 5),
        "free n=3 K=4": lambda: (_PointwiseFamily(random_cumulant_table(4, seed=93, scale=0.6), 3), 4),
        "tabulated n=2 K=4": lambda: (_TabulatedFamily(2, 4, seed=94), 4),
        "dim-2 n=2 K=4": lambda: (_TabulatedMatrixFamily(4, seed=95), 4),
    }[family]()
    want = _per_word_inverter(oracle, K)
    got = multivariate_cumulants_from_joint_moments(oracle, K).data
    assert list(got) == list(want)
    for key, value in want.items():
        if oracle.dim == 1:
            assert _bits(got[key]) == _bits(complex(value)), key
        else:
            assert np.array_equal(got[key], value) and got[key].dtype == value.dtype, key


class _TiedMoments:
    """Two free-looking letters whose only nonzero moments are three mixed ones of modulus 1."""

    n, dim = 2, 1
    values = {((1, 2), "*1"): 1.0, ((1, 2), "1*"): 1j, ((2, 1), "11"): -1.0}

    def moment(self, word, pattern):
        return self.values.get((tuple(word), pattern.letters), 0.0)


def test_largest_mixed_breaks_ties_by_key_order():
    """At order 2 the cumulants are these moments: the first tied key, word-major then pattern, wins."""
    multi = multivariate_cumulants_from_joint_moments(_TiedMoments(), 2)
    tied = [key for key, value in multi.data.items() if abs(value) == 1]
    assert tied == [((1, 2), "1*"), ((1, 2), "*1"), ((2, 1), "11")]
    assert multi.largest_mixed() == ((1, 2), "1*", 1.0)


# ---------------------------------------------------------------------------
# the matrix recursion a chunk of words at a time, and one word's recursion


def _without_orders(table, orders):
    kept = {w: v for w, v in table.data.items() if len(w) not in orders}
    return type(table)(order=table.order, dim=table.dim, data=kept)


def test_sparse_matrix_table_keeps_absent_orders_exact_zeros():
    # only orders 2 and 4: every noncrossing partition of an odd word has an
    # odd block, so odd moments vanish, and so do the odd cumulants of them
    kappa = _without_orders(random_cumulant_table(5, dim=2, seed=74), (1, 3, 5))
    assert_matches_definition(kappa, 5, True)
    moments = free_cumulants_to_moments(kappa, 5)
    back = moments_to_free_cumulants(moments, 5)
    assert kappa.max_abs_difference(back) < 1e-12
    for k in (1, 3, 5):
        for d in StarPattern.all_patterns(k):
            assert not np.any(moments.get(d)), d.letters
            assert not np.any(back.get(d)), d.letters
    # the inversion of an even moment table whose top order is absent
    even = _without_orders(moments, (1, 3, 5))
    cumulants_back = moments_to_free_cumulants(even, 5)
    assert relative_error(partition_sum(cumulants_back, 5, True), even) < 1e-12
    for d in StarPattern.all_patterns(5):
        assert not np.any(cumulants_back.get(d)), d.letters


@pytest.mark.parametrize("p,K", [(2, 5), (3, 4)])
def test_splice_recipe_matches_the_per_cell_splice(p, K):
    """_splice_cores bit for bit against reference_splice, on every free plan row up to order K.

    The rows are the interior blocks and the prefix blocks, whose nonempty
    last piece makes the term an outer product.  The splice takes and gives
    rows (_row_first); its result is moved back to the cores' axis order
    before the comparison.
    """
    rng = np.random.default_rng(90 + p)

    def cores(words, order):
        shape = (words,) + core_shape(p, order)
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    prefixes = 0
    for k in range(2, K + 1):
        for block, pieces in cumulants._plan_rows(k, True):
            prefixes += bool(pieces[-1])
            recipe = cumulants._splice_recipe(p, tuple(map(len, pieces)))
            for words in (1, 3):
                kappa = cores(words, len(block))
                moments = [cores(words, len(piece)) if piece else None for piece in pieces]
                rows = cumulants._splice_cores(cumulants._row_first(kappa),
                                               [cumulants._row_first(m) for m in moments if m is not None],
                                               recipe, np.empty(words * p ** (2 * k), dtype=complex))
                got = cumulants._slots_first(rows, p).reshape((words,) + core_shape(p, k))
                assert np.array_equal(got, reference_splice(kappa, moments)), (k, block, words)
    assert prefixes == sum(range(1, K))


def _probe_partition_sum(table, K, probes):
    """Each pattern's moment at R coefficient tuples, by the defining partition sum.

    probes[t] is an (R, p, p) stack of slot t's coefficients; the value of a
    pattern of order k is the (R, p, p) stack with probes[:k-1] in its slots.
    """
    p = table.dim
    return {d.letters: sum(eval_partitioned_free(table, part, d, probes[:k - 1] + [np.eye(p)])
                           for part in enumerate_noncrossing(k))
            for k in range(1, K + 1) for d in StarPattern.all_patterns(k)}


def _probe_cores(table, probes):
    """Each core with the probes contracted into its slots: (R, p, p) per pattern."""
    out = {}
    for letters, core in table.data.items():
        value = np.broadcast_to(core, (len(probes[0]),) + core.shape)
        for c in probes[:len(letters) - 1]:
            value = np.einsum("ra,ra...->r...", c.reshape(len(c), -1), value)
        out[letters] = value
    return out


def test_dim2_order6_conversions_match_partition_sums_at_random_coefficients():
    """dim 2, K=6 both ways against the partition sum, at 3 random coefficient tuples.

    A core is multilinear in its slots, so agreeing at random coefficients
    checks it entry by entry with probability one; the unit-coefficient sum
    of assert_matches_definition is too slow at this order.
    """
    rng = np.random.default_rng(81)
    probes = [rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2)) for _ in range(5)]

    def relative(got, want):
        scale = max(float(np.max(np.abs(v))) for v in want.values())
        return max(float(np.max(np.abs(got[w] - want[w]))) for w in want) / scale

    kappa = random_cumulant_table(6, dim=2, seed=76)
    moments = free_cumulants_to_moments(kappa, 6)
    assert relative(_probe_cores(moments, probes), _probe_partition_sum(kappa, 6, probes)) < 1e-12
    back = moments_to_free_cumulants(moments, 6)
    assert relative(_probe_partition_sum(back, 6, probes), _probe_cores(moments, probes)) < 1e-12


@pytest.mark.parametrize("cells", [1, 3 * 4 ** 3, 3 * 4 ** 4])
def test_matrix_recursion_across_many_chunks(monkeypatch, cells):
    """Chunks of a single word (a one-cell bound) and ragged multi-word chunks.

    Each cell receives the same products in the same block order whatever
    the chunking, so the cores agree bit for bit with the default bound.
    """
    kappa = random_cumulant_table(5, dim=2, seed=75)
    # absent orders too, read as exact zeros in every chunking
    tables = [kappa, _without_orders(kappa, (1, 3)), _without_orders(kappa, (2, 4))]
    want = [(free_cumulants_to_moments(t, 5), moments_to_free_cumulants(t, 5)) for t in tables]
    monkeypatch.setattr(cumulants, "_SPLICE_CELLS", cells)
    for t, pair in zip(tables, want):
        got = (free_cumulants_to_moments(t, 5), moments_to_free_cumulants(t, 5))
        for g, w in zip(got, pair):
            assert g.data.keys() == w.data.keys()
            for letters in w.data:
                assert np.array_equal(g.data[letters], w.data[letters]), letters
    assert relative_error(free_cumulants_to_moments(kappa, 5), partition_sum(kappa, 5, True)) < 1e-12
    lift = random_cumulant_table(3, dim=3, seed=76)
    # dim 3 at K=4: at one cell the orders below the top go a word per chunk too
    dense = random_cumulant_table(4, dim=3, seed=79)

    def converted(bound):
        monkeypatch.setattr(cumulants, "_SPLICE_CELLS", bound)
        return [free_cumulants_to_moments(lift, 3), free_cumulants_to_moments(dense, 4),
                moments_to_free_cumulants(dense, 4)]

    want = converted(2 ** 15)
    for g, w in zip(converted(cells), want):
        assert g.data.keys() == w.data.keys()
        for letters in w.data:
            assert np.array_equal(g.data[letters], w.data[letters]), letters


def test_matrix_conversion_memory_bound():
    """Peak allocation of each dim-2, K=5 conversion under tracemalloc.

    Bound: the output cores (16 bytes times sum_k 8^k, 0.60 MB), the given
    side's stacks below K (0.07 MB) and three chunk arrays of _SPLICE_CELLS
    complex cells (1.57 MB): 2.24 MB in all.
    """
    kappa = random_cumulant_table(5, dim=2, seed=77)
    moments = free_cumulants_to_moments(kappa, 5)
    output = 16 * sum(8 ** k for k in range(1, 6))
    stacks = 16 * sum(8 ** k for k in range(1, 5))
    bound = output + stacks + 3 * 16 * cumulants._SPLICE_CELLS
    for convert, table in ((free_cumulants_to_moments, kappa), (moments_to_free_cumulants, moments)):
        tracemalloc.start()
        try:
            convert(table, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (convert.__name__, peak, bound)


# ---------------------------------------------------------------------------
# the Boolean split of the free conversions, against its definition


def test_scalar_boolean_split_against_its_definition():
    """m(w) = sum_j beta(w_1..w_j) m(w_j+1..w_k), and the recursion's two steps, on every word up to K=6.

    beta is boolean_partition_sum, the sum over noncrossing partitions with
    1 and k in one block.  Order by order, through the plan (_plan), the
    rows read through kappa (even first operands) must sum to beta - kappa
    and those read through beta (odd ones, the last k - 1) to m - beta.
    """
    K = 6
    kappa = random_cumulant_table(K, seed=96, scale=0.6)
    words = cumulants._pattern_words(K)
    beta = {w: boolean_partition_sum(kappa, w) for w in words}
    m = {"": 1.0, **scalar_partition_sum(kappa, K, True).data}
    tol = 1e-13 * max(abs(v) for v in m.values())
    for w in words:
        split = sum(beta[w[:j]] * m[w[j:]] for j in range(1, len(w) + 1))
        assert abs(split - m[w]) <= tol, w

    def flat(values):
        return np.array([1 + 0j] + [complex(values.get(w, 0)) for w in words])

    flat_kappa, flat_m, flat_beta = flat(kappa.data), flat(m), flat(beta)
    firsts = np.stack([flat_kappa, flat_beta], axis=1).ravel()
    for k in range(1, K + 1):
        run = slice(2 ** k - 1, 2 ** (k + 1) - 1)
        first_at, moment_at = cumulants._plan(k, 2, True)
        interior = len(first_at) - (k - 1)
        assert not np.any(first_at[:interior] % 2) and np.all(first_at[interior:] % 2), k
        term = firsts[first_at] * np.prod(flat_m[moment_at], axis=1)
        through_kappa, through_beta = term[:interior].sum(axis=0), term[interior:].sum(axis=0)
        assert np.max(np.abs(through_kappa - (flat_beta[run] - flat_kappa[run]))) <= tol, k
        assert np.max(np.abs(through_beta - (flat_m[run] - flat_beta[run]))) <= tol, k


def test_matrix_boolean_split_against_its_definition():
    """dim 2, every word up to K=4 at 3 random coefficient tuples, as in _probe_partition_sum.

    m(w)[b_1..b_k-1] = sum_j beta(w_1..w_j)[b_1..b_j-1] b_j m(w_j+1..w_k)[b_j+1..b_k-1],
    with the j = k term beta(w) alone, on the partition sums; and the
    Boolean cumulants that _spliced_recursion keeps, both ways, are the
    definition's.  It keeps those of the orders below K - 1, so it runs at
    K + 2.  The conversions at K, whose top order takes its last cut while
    order K - 1 is solved, give the partition sums' moments and go back.
    """
    K, p = 4, 2
    rng = np.random.default_rng(97)
    probes = [rng.standard_normal((3, p, p)) + 1j * rng.standard_normal((3, p, p)) for _ in range(K - 1)]
    eye = np.eye(p)
    kappa = random_cumulant_table(K + 2, dim=p, seed=98)
    words = cumulants._pattern_words(K)

    def moment(letters, coeffs):
        return sum(eval_partitioned_free(kappa, part, letters, coeffs + [eye])
                   for part in enumerate_noncrossing(len(letters)))

    beta = {w: boolean_partition_sum(kappa, w, probes[:len(w) - 1] + [eye]) for w in words}
    scale = max(float(np.max(np.abs(v))) for v in beta.values())
    for w in words:
        k = len(w)
        split = beta[w] + sum(beta[w[:j]] @ probes[j - 1] @ moment(w[j:], probes[j:k - 1])
                              for j in range(1, k))
        assert np.max(np.abs(split - moment(w, probes[:k - 1]))) <= 1e-12 * scale, w
    moments = free_cumulants_to_moments(kappa, K + 2)
    for given, to_moments in ((kappa, True), (moments, False)):
        rows = cumulants._spliced_recursion(given.data, K + 2, to_moments, p)[1]
        cores = {w: core for k in range(1, K + 1) for w, core in zip(
            words[2 ** k - 2:2 ** (k + 1) - 2],
            cumulants._slots_first(rows[k], p).reshape((2 ** k,) + core_shape(p, k)))}
        got = _probe_cores(CumulantTable(order=K, dim=p, data=cores), probes)
        for w in words:
            assert np.max(np.abs(got[w] - beta[w])) <= 1e-12 * scale, (to_moments, w)
    got = _probe_cores(free_cumulants_to_moments(kappa, K), probes)
    back = moments_to_free_cumulants(moments, K)
    for w in words:
        assert np.max(np.abs(got[w] - moment(w, probes[:len(w) - 1]))) <= 1e-12 * scale, w
        assert np.max(np.abs(back.data[w] - kappa.data[w])) <= 1e-12 * scale, w


def test_free_round_trips_have_no_error_floor():
    """Both free round trips stay within 20 u max|m|, u = 2^-52, at K=8 and at dim 2, K=5.

    Seeds 0-4 of random_cumulant_table.  The worst is 15 u max|m|, seed 3
    at K=8 (1.13e-13, max|m| = 33.4), going to moments and back; summing
    every first block instead of the Boolean split reached 49 there.
    """
    u = np.finfo(float).eps
    for K, dim in ((8, 1), (5, 2)):
        for seed in range(5):
            kappa = random_cumulant_table(K, dim, seed=seed)
            moments = free_cumulants_to_moments(kappa, K)
            bound = 20 * u * max(float(np.max(np.abs(v))) for v in moments.data.values())
            cumulants_back = moments_to_free_cumulants(moments, K)
            assert kappa.max_abs_difference(cumulants_back) <= bound, (K, dim, seed)
            moments_back = free_cumulants_to_moments(cumulants_back, K)
            assert moments.max_abs_difference(moments_back) <= bound, (K, dim, seed)


@pytest.mark.parametrize("K,dim", [(8, 1), (5, 2)])
def test_zero_cumulants_come_back_exactly_zero(K, dim):
    """A table of order-2 entries only, at the scale 1e8, goes to moments and back exactly.

    Both ways form the same terms from the same shorter words, so a zero
    cumulant is m - (the terms) = 0 without rounding: classification from
    moments reads vanishing cumulants at any scale of the input.
    """
    order_two = _without_orders(random_cumulant_table(K, dim, seed=101), set(range(1, K + 1)) - {2})
    kappa = CumulantTable(order=K, dim=dim, data={w: v * 1e8 for w, v in order_two.data.items()})
    back = moments_to_free_cumulants(free_cumulants_to_moments(kappa, K), K)
    for letters, value in back.data.items():
        assert np.array_equal(value, kappa.data.get(letters, 0 * value)), letters


def test_multivariate_plans_kept_for_two_letter_families_only(monkeypatch):
    """A second identical n=2 inversion builds no plan; an n=3 inversion keeps none of its plans."""
    built = []
    order_plan = cumulants._order_plan
    monkeypatch.setattr(cumulants, "_order_plan", lambda k, a, free: built.append(a) or order_plan(k, a, free))
    two = _PointwiseFamily(random_cumulant_table(5, seed=99, scale=0.6), 2)
    first = multivariate_cumulants_from_joint_moments(two, 5).data
    built.clear()
    second = multivariate_cumulants_from_joint_moments(two, 5).data
    assert built == []
    assert list(first) == list(second) and all(_bits(first[key]) == _bits(second[key]) for key in first)
    kept = cumulants._kept_plan.cache_info().currsize
    three = _PointwiseFamily(random_cumulant_table(4, seed=100, scale=0.6), 3)
    for _ in range(2):
        multivariate_cumulants_from_joint_moments(three, 4)
        assert built == [6] * 4
        assert cumulants._kept_plan.cache_info().currsize == kept
        built.clear()


@pytest.mark.parametrize("coeff_kind", ["none", "scalar", "matrix"])
@pytest.mark.parametrize("table_kind", ["dense", "semicircle", "sparse"])
def test_word_recursion_matches_partition_sums_at_order_five(table_kind, coeff_kind):
    """joint_moments_free_family on every kernel of k <= 5 letters at n = 2 and 3.

    The reference depends on a word only through its kernel, so it is
    evaluated once per kernel and pattern, at the first-occurrence labels.
    """
    table = {
        "dense": lambda: random_cumulant_table(5, seed=78, scale=0.6),
        "semicircle": lambda: semicircular_spec(5),
        "sparse": lambda: _without_orders(random_cumulant_table(5, seed=79, scale=0.6), (1, 4)),
    }[table_kind]()
    rng = np.random.default_rng(80)
    for k in range(1, 6):
        kernels = sorted({_first_occurrence_labels(w) for w in itertools.product(range(1, 4), repeat=k)})
        for d in StarPattern.all_patterns(k):
            coeffs = _random_coeffs(coeff_kind, k, rng)
            for word in kernels:
                want = joint_moment_partition_sum(table, 3, word, d, coeffs)
                for n in (2, 3):
                    if max(word) > n:
                        continue
                    got = joint_moments_free_family(table, n, word, d, coeffs)
                    err = np.max(np.abs(got - want))
                    assert err <= 1e-12 * np.max(np.abs(want)), (n, word, d.letters, err)


# ---------------------------------------------------------------------------
# the word recursion's segments in a table's memo, shared across calls on that table


def _bits(value):
    """A complex value's exact bits, telling 0.0 from -0.0."""
    return value.real.hex(), value.imag.hex()


def _rebuilt(table):
    """A table of equal data built afresh: an empty memo of its own."""
    return type(table)(order=table.order, dim=table.dim, data=table.data)


def _cold(table, n, word, pattern, coeffs=None):
    """joint_moments_free_family on a rebuilt table, so from an empty memo."""
    return joint_moments_free_family(_rebuilt(table), n, word, pattern, coeffs)


def test_empty_word_is_b0_times_the_tables_identity():
    b = np.array([[1.0, 2.0], [3.0, 4.0]])
    scalar = random_cumulant_table(3, 1, seed=0)
    matrix = random_cumulant_table(3, 2, seed=0)
    cases = [
        (scalar, None, 1.0), (scalar, [2.0], 2.0), (scalar, [b], b),
        (matrix, None, np.eye(2)), (matrix, [2.0], 2 * np.eye(2)), (matrix, [b], b),
    ]
    for table, coeffs, want in cases:
        got = joint_moments_free_family(table, 2, (), "", coeffs)
        assert np.shape(got) == np.shape(want)
        assert np.iscomplexobj(got)
        assert np.array_equal(got, want)
    assert joint_moments_free_family(matrix, 2, (), "", [b]) is not b
    with pytest.raises(InputMismatchError):
        joint_moments_free_family(matrix, 2, (), "", [np.eye(3)])


def test_shared_segments_are_bit_identical_across_interleaved_laws():
    """Warm values equal cold ones bit for bit: laws A, B, A and n = 2, 3 interleaved."""
    a = random_cumulant_table(5, seed=82, scale=0.6)
    b = _without_orders(random_cumulant_table(5, seed=83, scale=0.6), (3,))
    runs = ((a, 2, 5), (b, 3, 4), (a, 3, 4), (a, 2, 5))
    warm = []
    for table, n, K in runs:
        warm.append({})
        for k in range(1, K + 1):
            for word in itertools.product(range(1, n + 1), repeat=k):
                for d in StarPattern.all_patterns(k):
                    warm[-1][word, d.letters] = joint_moments_free_family(table, n, word, d)
    # the last run read the memo that law a's first two runs filled, kept on a while b was in use
    assert len(a._memo["words"]) > 682 and list(b._memo) == ["words"]
    for (table, n, _), values in zip(runs, warm):
        for (word, letters), value in values.items():
            assert _bits(value) == _bits(_cold(table, n, word, letters)), (n, word, letters)


def test_every_table_refuses_attribute_and_item_assignment():
    """A table is checked once and frozen, its memo with it; a spec's table
    too, which took a replacement of its data before."""
    spec = CumulantSpecSingle(order=4, entries={"11": 1.0}, selfadjoint=True)
    scalar, matrix = random_cumulant_table(3, seed=1), random_cumulant_table(3, dim=2, seed=1)
    moments = free_cumulants_to_moments(matrix, 3)
    multi = multivariate_cumulants_from_joint_moments(_PointwiseFamily(scalar, 2), 3)
    for table in (spec.to_table(), scalar, matrix, moments, multi, MomentTable(order=2, data={"11": 1.0})):
        for name, value in (("data", {"1": 3.0, "11": 1 + 1j}), ("order", 9), ("dim", 2), ("_memo", {})):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(table, name, value)
        key = next(iter(table.data))
        with pytest.raises(TypeError):
            table.data[key] = table.data[key]
        with pytest.raises(TypeError):
            del table.data[key]
    for table in (matrix, moments):
        for core in table.data.values():
            with pytest.raises(ValueError):
                core[...] = 0
    assert classify_report(spec, 4, True)["minimal"] == ["SEMICIRCULAR"]


def test_a_table_built_with_a_change_is_a_new_law():
    table = random_cumulant_table(5, seed=84, scale=0.6)
    word, letters = (1, 2, 1, 1, 2), "1*1**"
    first = joint_moments_free_family(table, 2, word, letters)
    memo = table._memo
    changed = CumulantTable(order=5, data={**table.data, "1*": 0.25 + 0.5j})
    value = joint_moments_free_family(changed, 2, word, letters)
    assert changed._memo is not memo and changed._memo["words"] != memo["words"]
    assert _bits(value) == _bits(_cold(changed, 2, word, letters)) and value != first
    # the first table still reads its own law
    assert _bits(joint_moments_free_family(table, 2, word, letters)) == _bits(first) and table._memo is memo


def test_equal_tables_built_twice_hold_two_memos():
    table = random_cumulant_table(5, seed=97, scale=0.6)
    twin = _rebuilt(table)
    assert twin == table and twin._memo is not table._memo
    word, letters = (1, 2, 1, 1, 2), "1*1**"
    value = joint_moments_free_family(table, 2, word, letters)
    assert twin._memo == {}
    assert _bits(joint_moments_free_family(twin, 2, word, letters)) == _bits(value)
    assert twin._memo["words"] == table._memo["words"] and twin._memo["words"] is not table._memo["words"]
    tensor = joint_moment_tensor(table, 2, 3, "1*1")
    assert 2 not in twin._memo and np.array_equal(joint_moment_tensor(twin, 2, 3, "1*1"), tensor)


def test_matrix_tables_and_coefficients_leave_the_shared_memo_alone():
    scalar = random_cumulant_table(5, seed=85, scale=0.6)
    word, letters = (1, 2, 1, 1, 2), "1*1**"
    plain = joint_moments_free_family(scalar, 2, word, letters)
    held = dict(scalar._memo["words"])
    rng = np.random.default_rng(86)
    matrix = random_cumulant_table(5, dim=2, seed=87)
    joint_moments_free_family(matrix, 2, word, letters)
    segments = dict(matrix._memo["words"])
    joint_moments_free_family(matrix, 2, word, letters, _random_coeffs("matrix", 5, rng))
    joint_moment_tensor(matrix, 2, 3, "1*1")
    assert list(scalar._memo) == ["words"] and scalar._memo["words"] == held
    # a matrix table keeps the coefficient-free segments of its words only:
    # a word with coefficients and a tensor add nothing
    assert list(matrix._memo) == ["words"] and matrix._memo["words"].keys() == segments.keys()
    assert all(matrix._memo["words"][key] is value for key, value in segments.items())
    # coefficients of a scalar table multiply outside the coefficient-free
    # value: that value is memoised, and nothing else is
    for kind in ("scalar", "matrix"):
        coeffs = _random_coeffs(kind, 5, rng)
        got = joint_moments_free_family(scalar, 2, word, letters, coeffs)
        want = cumulants._times_coeff_product(plain, coeffs)
        assert np.array_equal(got, want), kind
        assert list(scalar._memo) == ["words"] and scalar._memo["words"] == held


def test_a_second_matrix_word_of_one_kernel_builds_no_segment(monkeypatch):
    """Words of one pattern and index kernel share their segments in the
    table's memo, so a relabelled word is a lookup; each value owns its data."""
    table = random_cumulant_table(6, dim=2, seed=98)
    word, letters = (1, 2, 1, 3, 3, 2), "1*1**1"
    first = joint_moments_free_family(table, 3, word, letters)
    terms = []
    real = cumulants._spliced_term
    monkeypatch.setattr(cumulants, "_spliced_term", lambda *args: terms.append(args) or real(*args))
    words = [(2, 1, 2, 3, 3, 1), (3, 1, 3, 2, 2, 1), (2, 3, 2, 1, 1, 3)]
    values = [joint_moments_free_family(table, 3, w, letters) for w in words]
    assert terms == []
    kept = table._memo["words"][cumulants._segment_key(letters, word)]
    assert not kept.flags.writeable
    for value in [first] + values:
        assert np.array_equal(value, kept) and value.flags.writeable and value.flags.owndata
        assert not np.shares_memory(value, kept)
    value = joint_moments_free_family(table, 3, (1, 2, 3, 1, 2, 3), letters)  # another kernel
    assert terms
    want = joint_moment_partition_sum(table, 3, (1, 2, 3, 1, 2, 3), letters)
    assert np.max(np.abs(value - want)) <= 1e-12 * np.max(np.abs(want))
    # a fresh table of equal data builds them again, to the same bits
    monkeypatch.setattr(cumulants, "_spliced_term", real)
    for w, value in zip([word] + words, [first] + values):
        assert _cold(table, 3, w, letters).tobytes() == value.tobytes()


def test_matrix_words_keep_their_segments_only():
    """8 patterns at m = 1..6 distinct indices of n = 6 on a dense dim-2,
    order-6 table leave under 1 MiB in its memo; the m-copy tensors the
    words were once entries of kept 32.8 MiB."""
    table = random_cumulant_table(6, 2, seed=7)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for d in list(StarPattern.all_patterns(6))[:8]:
            for m in range(1, 7):
                joint_moments_free_family(table, 6, tuple(j % m + 1 for j in range(6)), d)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert list(table._memo) == ["words"]
    assert held < 2 ** 20, held


def test_joint_words_run_one_recursion_at_every_dim(monkeypatch):
    """No joint word, at any dim and with or without coefficients, builds an index tensor."""
    monkeypatch.setattr(cumulants, "_free_family_tensor", _no_tensor)
    monkeypatch.setattr(cumulants, "_law_tensors", _no_tensor)
    rng = np.random.default_rng(101)
    word, letters = (1, 2, 3, 1, 2), "1*1**"
    for dim in (1, 2, 3):
        table = random_cumulant_table(5, dim, seed=102)
        q = max(dim, 2)
        for coeffs in (None, list(rng.standard_normal(6) + 1j),
                       [rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q)) for _ in range(6)]):
            got = joint_moments_free_family(table, 3, word, letters, coeffs)
            want = joint_moment_partition_sum(table, 3, word, letters, coeffs)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), (dim, coeffs)


def test_the_inverter_certifies_freeness_of_product_convention_laws():
    """A matrix spec's cores are its values times the coefficients (the
    product convention), and the inverter multiplies nested pieces as
    matrices: fed the spec's free family, it reads mixed entries as zero and
    pure ones as the spec's.  Dense cores are no such law, and their free
    family reads mixed entries far from zero."""
    rng = np.random.default_rng(5)
    entries = {d.letters: (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) * 0.4 ** k
               for k in range(1, 5) for d in StarPattern.all_patterns(k)}
    spec = CumulantSpecSingle(order=4, dim=2, entries=entries)
    multi = multivariate_cumulants_from_joint_moments(_PointwiseFamily(spec.to_table(), 2), 4)
    assert multi.largest_mixed()[2] <= 1e-12
    pure = max(np.max(np.abs(v - entries[letters])) for (w, letters), v in multi.data.items() if len(set(w)) == 1)
    assert pure <= 1e-12
    dense = multivariate_cumulants_from_joint_moments(_PointwiseFamily(random_cumulant_table(4, 2, seed=7), 2), 4)
    assert dense.largest_mixed()[2] > 0.1


def test_word_checks_run_on_a_warm_law_memo():
    """Each bad call raises as from a cold memo although the memo holds its word's value."""
    table = random_cumulant_table(5, seed=96, scale=0.6)
    word, letters = (1, 2, 3, 1, 2), "1*1**"
    value = joint_moments_free_family(table, 3, word, letters)
    words = table._memo["words"]
    assert words[cumulants._segment_key(letters, word)] is value
    assert cumulants._segment_key(letters[1:], word[1:]) in words
    with pytest.raises(InputMismatchError, match=r"must lie in 1\.\.2"):
        joint_moments_free_family(table, 2, word, letters)
    with pytest.raises(InputMismatchError, match=r"must lie in 1\.\.3"):
        joint_moments_free_family(table, 3, (0,) + word[1:], letters)
    with pytest.raises(InputMismatchError, match="lengths differ"):
        joint_moments_free_family(table, 3, word, letters[:-1])
    with pytest.raises(InputMismatchError, match="need 6 interleaved coefficients"):
        joint_moments_free_family(table, 3, word, letters, [1.0] * 5)
    # the table's law declared at order 4 is a table of its own, which lacks the word
    lower = CumulantTable(order=4, data={w: v for w, v in table.data.items() if len(w) <= 4})
    with pytest.raises(IncompleteTableError, match="declares order 4, need 5"):
        joint_moments_free_family(lower, 3, word, letters)
    assert lower._memo == {}
    assert _bits(joint_moments_free_family(lower, 3, word[1:], letters[1:])) == _bits(
        words[cumulants._segment_key(letters[1:], word[1:])])
    assert joint_moments_free_family(table, 3, (), "") == 1 and joint_moments_free_family(table, 3, (), "", [2j]) == 2j


def test_multivariate_inverter_builds_each_segment_once():
    """n = 2, K = 5 asks for 1,364 joint moments; 682 (letters, kernel) pairs are distinct."""
    table = random_cumulant_table(5, seed=88, scale=0.6)
    multivariate_cumulants_from_joint_moments(_PointwiseFamily(table, 2), 5)
    assert len(table._memo["words"]) == sum(2 ** k * 2 ** (k - 1) for k in range(1, 6)) == 682


def test_joint_moment_tensor_reads_and_fills_the_law_memo(monkeypatch):
    table = random_cumulant_table(5, seed=91, scale=0.6)
    cold = joint_moment_tensor(table, 3, 4, "1*1*")
    held = table._memo[3]["1*1*"]
    assert not held.flags.writeable and np.array_equal(cold, held) and not np.shares_memory(cold, held)
    builds = []
    real = cumulants._first_blocks
    monkeypatch.setattr(cumulants, "_first_blocks", lambda *args: builds.append(args) or real(*args))
    warm = joint_moment_tensor(table, 3, 4, "1*1*")
    # its trailing segments were kept too
    assert np.array_equal(joint_moment_tensor(table, 3, 3, "*1*"), table._memo[3]["*1*"])
    assert builds == []
    assert warm.flags.writeable and not np.shares_memory(warm, held) and np.array_equal(warm, cold)
    warm[...] = 0
    assert np.array_equal(joint_moment_tensor(table, 3, 4, "1*1*"), cold)
    # coefficients multiply the kept tensor outside
    coeffs = [2.0, 1j, 0.5, 1.0, -1.0]
    assert np.array_equal(joint_moment_tensor(table, 3, 4, "1*1*", coeffs),
                          cumulants._times_coeff_product(held, coeffs))
    assert builds == []


@pytest.mark.parametrize("matrix", [False, True])
def test_word_recursion_leaves_no_cyclic_garbage(matrix):
    table = random_cumulant_table(5, dim=2 if matrix else 1, seed=89)
    joint_moments_free_family(table, 2, (1, 2, 1, 1, 2), "1*1**")
    gc.collect()
    gc.disable()
    try:
        for _ in range(100):
            joint_moments_free_family(table, 2, (1, 2, 1, 1, 2), "1*1**")
        assert gc.collect() == 0
    finally:
        gc.enable()


def _restricted_growth_words(k):
    """Every kernel of k letters, as its first-occurrence labels 1, 2, ..."""
    words = [()]
    for _ in range(k):
        words = [w + (i,) for w in words for i in range(1, max(w, default=0) + 2)]
    return words


def test_shared_memo_stays_within_its_cap(monkeypatch):
    """K = 8, n = 8: segments past the cap start the memo over, and memory stays bounded.

    An entry (key tuple, letters, kernel tuple, complex value, dict slot)
    takes 250 to 300 bytes, so the bound is 320 bytes an entry; a full
    memo of 2^16 entries, near the real cap of _MEMO_SEGMENTS = 67,108,
    held 15.8 MiB.  That cap takes some 12 s to fill under
    tracemalloc, so the test lowers the budget to 2^11 entries and stores
    one and a half times that many segments: uncapped, they would outgrow
    the bound.
    """
    table = random_cumulant_table(8, seed=90)
    joint_moments_free_family(table, 8, (1,) * 8, "1" * 8)
    cap = 2 ** 11
    monkeypatch.setattr(cumulants, "_MEMO_SEGMENTS", cap)
    patterns = [d.letters for d in StarPattern.all_patterns(8)]
    stored = size = 0
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for rest in _restricted_growth_words(7):
            for letters in patterns:
                # an index of its own in front: every call reaches its 7-letter suffix
                joint_moments_free_family(table, 8, (8,) + rest, letters)
                now = len(table._memo["words"])
                assert now <= cap
                stored += now - size if now >= size else now
                size = now
            if stored > 1.5 * cap:
                break
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert stored > 1.5 * cap
    assert retained < 320 * cap, retained


# ---------------------------------------------------------------------------
# one order rule for every first-block recursion, and matrix words as tensor entries


def _no_tensor(*args):
    raise AssertionError("an index tensor was built")


def test_words_and_tensors_past_the_bound_are_refused(monkeypatch):
    """A 9-letter scalar word, a 7-letter matrix word and an order-9 tensor
    raise OrderBoundError, the bound checked before the declared order."""
    monkeypatch.setattr(cumulants, "_free_family_tensor", _no_tensor)
    scalar = CumulantTable(order=9, data={"11": 1.0, "1" * 9: 0.5})
    matrix = CumulantTable(order=7, dim=2, data={"11": np.ones(core_shape(2, 2))})
    for table, k, bound in ((scalar, 9, 8), (matrix, 7, 6)):
        with pytest.raises(OrderBoundError, match=f"order {k} exceeds the dim-{table.dim} bound {bound}"):
            joint_moments_free_family(table, 2, (1,) * k, "1" * k)
        with pytest.raises(OrderBoundError):
            joint_moment_tensor(table, 1, k, "1" * k)
    with pytest.raises(OrderBoundError):
        joint_moments_free_family(CumulantTable(order=4), 2, (1, 2) * 5, "1" * 10)


def _kernel_words(k: int, n: int) -> list:
    """Every kernel of k letters over at most n indices, as first-occurrence labels."""
    words = [()]
    for _ in range(k):
        words = [w + (i,) for w in words for i in range(1, min(max(w, default=0) + 1, n) + 1)]
    return words


def _sparse_matrix_table(dim: int, rng) -> CumulantTable:
    """Every pattern of an order whose cores fit 2^16 cells, else two of them."""
    data = {}
    for k in range(1, 7):
        patterns = list(StarPattern.all_patterns(k))
        if dim ** (2 * k) * len(patterns) > 2 ** 16:
            patterns = [patterns[i] for i in rng.choice(len(patterns), 2, replace=False)]
        shape = core_shape(dim, k)
        for d in patterns:
            data[d] = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * 0.4 ** k / dim
    return CumulantTable(order=6, dim=dim, data=data)


def test_matrix_words_are_entries_of_their_kernels_tensor():
    """Matrix words against the partition sum on every kernel of k <= 6 at
    n = 4, the labels shuffled; kernel i takes dim (2, 3)[i % 2] and
    coefficients (none, scalar, matrix)[i % 3], so each pair occurs.  Each
    value owns its data."""
    rng = np.random.default_rng(99)
    tables = {dim: _sparse_matrix_table(dim, rng) for dim in (2, 3)}
    for k in range(1, 7):
        for i, kernel in enumerate(_kernel_words(k, 4)):
            dim, kind = (2, 3)[i % 2], ("none", "scalar", "matrix")[i % 3]
            coeffs = {
                "none": None,
                "scalar": list(rng.standard_normal(k + 1) + 1j * rng.standard_normal(k + 1)),
                "matrix": [rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
                           for _ in range(k + 1)],
            }[kind]
            labels = rng.permutation(4) + 1
            word = tuple(int(labels[j - 1]) for j in kernel)
            letters = "".join(rng.choice(["1", "*"], k))
            got = joint_moments_free_family(tables[dim], 4, word, letters, coeffs)
            want = joint_moment_partition_sum(tables[dim], 4, word, letters, coeffs)
            assert got.shape == (dim, dim) and got.flags.owndata and got.base is None, (word, letters)
            err = np.max(np.abs(got - want))
            assert err <= 1e-12 * np.max(np.abs(want)), (dim, kind, word, letters, err)
