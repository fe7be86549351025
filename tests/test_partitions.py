import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freesym import partitions
from freesym.easy import FamilyTag
from freesym.errors import InputMismatchError, SizeLimitError
from freesym.partitions import (
    MAX_NONCROSSING_SIZE,
    MAX_PARTITION_SIZE,
    Partition,
    StarPattern,
    block_restriction,
    enumerate_all_partitions,
    enumerate_noncrossing,
    filter_decorated,
    first_blocks,
    is_noncrossing,
    kernel,
    refines,
)


def bell_numbers(n):
    # Bell triangle, independent of the enumerator under test.
    row = [1]
    out = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
        out.append(row[0])
    return out


def catalan_numbers(n):
    cat = [1]
    for m in range(n):
        cat.append(sum(cat[i] * cat[m - i] for i in range(m + 1)))
    return cat


def test_all_partition_counts_match_bell():
    bells = bell_numbers(8)
    for k in range(9):
        assert len(enumerate_all_partitions(k)) == bells[k]


def test_noncrossing_counts_match_catalan():
    cats = catalan_numbers(9)
    for k in range(10):
        assert len(enumerate_noncrossing(k)) == cats[k]


def test_noncrossing_agrees_with_filtered_all_partitions():
    for k in range(7):
        brute = {p for p in enumerate_all_partitions(k) if is_noncrossing(p)}
        assert brute == set(enumerate_noncrossing(k))


def test_canonical_form_is_stable():
    p = Partition.of([[3, 1], [4, 2, 5]])
    assert p.blocks == ((1, 3), (2, 4, 5))
    assert p == Partition.of([[5, 2, 4], [1, 3]])


def test_invalid_partitions_rejected():
    with pytest.raises(InputMismatchError):
        Partition.of([[1, 2], [2, 3]], k=3)
    with pytest.raises(InputMismatchError):
        Partition.of([[1], [3]], k=3)
    with pytest.raises(InputMismatchError):
        Partition(2, ((1,), ()))


def test_size_guards(monkeypatch):
    """One above each bound raises before any partition is built; far above and below zero too."""

    def build(k):
        raise AssertionError(f"built partitions of {k}")

    monkeypatch.setattr(partitions, "all_partitions_cached", build)
    monkeypatch.setattr(partitions, "noncrossing_cached", build)
    for k in (MAX_PARTITION_SIZE + 1, 13, -1):
        with pytest.raises(SizeLimitError):
            enumerate_all_partitions(k)
    for k in (MAX_NONCROSSING_SIZE + 1, 17, -1):
        with pytest.raises(SizeLimitError):
            enumerate_noncrossing(k)


@pytest.mark.parametrize("free", [True, False])
def test_first_blocks_split_each_word_once(free):
    """Each block holds position 0, its pieces and it cover the word once; the whole word comes last."""
    for k in range(1, 8):
        split = first_blocks(k, free)
        assert len(split) == 2 ** (k - 1) and split[-1][0] == tuple(range(k))
        assert len({block for block, _ in split}) == len(split)
        for block, pieces in split:
            assert block[0] == 0 and sorted(block + sum(pieces, ())) == list(range(k))
            if free:  # one segment after each element of the block, up to the next one
                assert len(pieces) == len(block)
                assert all(piece == tuple(range(v + 1, v + 1 + len(piece)))
                           for v, piece in zip(block, pieces))


def test_crossing_detection_examples():
    assert not is_noncrossing(Partition.of([[1, 3], [2, 4]]))
    assert is_noncrossing(Partition.of([[1, 4], [2, 3]]))
    assert is_noncrossing(Partition.of([[1, 2, 3, 4]]))
    assert is_noncrossing(Partition.singletons(5))
    # crossing buried in bigger blocks
    assert not is_noncrossing(Partition.of([[1, 3, 5], [2, 6], [4]]))


def test_kernel_groups_by_value():
    assert kernel((2, 1, 2, 3)) == Partition.of([[1, 3], [2], [4]])
    assert kernel((1, 1, 1)) == Partition.whole(3)
    with pytest.raises(InputMismatchError):
        kernel(())


def test_refines_basic():
    fine = Partition.singletons(4)
    coarse = Partition.whole(4)
    mid = Partition.of([[1, 2], [3, 4]])
    assert refines(fine, mid) and refines(mid, coarse) and refines(fine, coarse)
    assert not refines(coarse, mid)
    assert refines(mid, mid)
    with pytest.raises(InputMismatchError):
        refines(fine, Partition.whole(3))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=6))
def test_kernel_refinement_characterizes_constant_words(idx):
    ker = kernel(idx)
    for p in enumerate_all_partitions(len(idx)):
        constant = all(
            len({idx[x - 1] for x in b}) == 1 for b in p.blocks
        )
        assert refines(p, ker) == constant


def test_star_pattern_basics():
    d = StarPattern("1*1*")
    assert d.ones == 2 and d.stars == 2 and d.imbalance == 0
    assert d.restrict([1, 4]).letters == "1*"
    assert d.conjugate().letters == "1*1*"
    assert StarPattern("11*").conjugate().letters == "1**"
    assert d.is_strictly_alternating()
    assert not StarPattern("11").is_strictly_alternating()
    with pytest.raises(InputMismatchError):
        StarPattern("1x*")


def test_all_patterns_order_puts_plain_first():
    pats = [p.letters for p in StarPattern.all_patterns(2)]
    assert pats == ["11", "1*", "*1", "**"]
    assert len(list(StarPattern.all_patterns(5))) == 32


def test_block_restriction_uses_increasing_positions():
    p = Partition.of([[1, 4], [2, 3]])
    assert block_restriction(p, "1*1*", 0).letters == "1*"
    assert block_restriction(p, "1*1*", 1).letters == "*1"
    with pytest.raises(InputMismatchError):
        block_restriction(p, "1*", 0)


def F(kind, m=None):
    return FamilyTag(kind, m)


def test_decoration_rules_on_single_blocks():
    # balanced blocks (H_0), imbalance divisible by m (H_S for 2, H_M(m)),
    # balanced alternating blocks (H'), balanced pairs (U)
    assert F("H_0_PLUS").admits("1*")
    assert not F("H_0_PLUS").admits("11")
    assert F("H_S_PLUS").admits("11")
    assert not F("H_M_PLUS", 3).admits("11")
    assert F("H_M_PLUS", 3).admits("111")
    assert F("H_PRIME_PLUS").admits("1*1*")
    assert not F("H_PRIME_PLUS").admits("11**")
    assert F("U_PLUS").admits("*1")
    assert not F("U_PLUS").admits("1*1*")
    # empty restriction: vacuous except for the pair rule
    assert F("H_0_PLUS").admits("")
    assert F("H_PRIME_PLUS").admits("")
    assert F("H_M_PLUS", 5).admits("")
    assert not F("U_PLUS").admits("")


def test_decorated_counts_frozen_examples():
    # counted by hand over the 14 noncrossing partitions of 4 points
    nc4 = enumerate_noncrossing(4)
    balanced = filter_decorated(nc4, "1*1*", F("H_0_PLUS"))
    assert len(balanced) == 3
    assert {p.blocks for p in balanced} == {
        ((1, 2, 3, 4),),
        ((1, 2), (3, 4)),
        ((1, 4), (2, 3)),
    }
    pairs = filter_decorated(nc4, "1*1*", F("U_PLUS"))
    assert len(pairs) == 2
    assert {p.blocks for p in pairs} == {((1, 2), (3, 4)), ((1, 4), (2, 3))}
    alt = filter_decorated(nc4, "1*1*", F("H_PRIME_PLUS"))
    assert len(alt) == 3
    even = filter_decorated(nc4, "1111", F("H_S_PLUS"))
    assert len(even) == 3
    assert len(filter_decorated(nc4, "1111", F("S_PLUS"))) == 14


def test_enumeration_is_deterministic():
    a = [p.blocks for p in enumerate_noncrossing(5)]
    b = [p.blocks for p in enumerate_noncrossing(5)]
    assert a == b
    assert a == sorted(a)


def test_interval_block_structure_example():
    # every noncrossing partition has an interval block (consecutive run)
    for k in range(1, 8):
        for p in enumerate_noncrossing(k):
            has_interval = any(
                b == tuple(range(b[0], b[0] + len(b))) for b in p.blocks
            )
            assert has_interval
