"""The streamed d > 1 delta identity kernel against a tuple-at-a-time loop.

qgroups forms a d > 1 delta identity as a prefix chain of batched matmuls,
in chunks of leading indices; reference.reference_delta_identity forms every
index tuple's entry on its own, with the products in slot order.  Verdicts
and witnesses must be equal and residuals within 1e-14 of max(1, r).
"""

import functools
import itertools
import tracemalloc

import numpy as np
import pytest

import reference
from freesym import qgroups
from freesym.cumulants import TUPLE_BUDGET
from freesym.fixtures import fixture_set, nilpotent_pair_rep
from freesym.partitions import StarPattern
from freesym.qgroups import MatrixRep, coproduct_lift, full_delta_identity_holds, lattice_position

# the tuple-at-a-time loop runs 1^m and *^m while n^m is within this many
# tuples; past it, the longest ones within TUPLE_BUDGET are checked at their
# witness and at seeded cells
REF_TUPLES = 2**12


def _haar_blocks(n: int, d: int, seed: int) -> MatrixRep:
    """A Haar unitary of size n*d cut into n x n blocks of size d."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n * d, n * d)) + 1j * rng.standard_normal((n * d, n * d))
    q, r = np.linalg.qr(g)
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    return MatrixRep(u.reshape(n, d, n, d).transpose(0, 2, 1, 3))


def _models() -> dict:
    nilpotent = {"nilpotent_pair": fixture_set().reps["nilpotent_pair"][0],
                 "nilpotent_3": nilpotent_pair_rep(3)}
    models = dict(nilpotent)
    for name, rep in nilpotent.items():
        models[f"lift_{name}"] = coproduct_lift(rep, rep)  # d = 4
    for seed, (n, d) in enumerate(((2, 2), (3, 2), (2, 3), (4, 2)), 60):
        models[f"haar_{n}x{d}"] = _haar_blocks(n, d, seed)
    return models


MODELS = _models()


def _patterns(n: int) -> list:
    out = [d.letters for k in range(2, 6) for d in StarPattern.all_patterns(k)]
    m = 6
    while n**m <= REF_TUPLES:
        out += ["1" * m, "*" * m]
        m += 1
    return out


@functools.lru_cache(maxsize=None)
def _reference(name: str, letters: str):
    return reference.reference_delta_identity(MODELS[name], letters)


def _assert_same(got, want, key) -> None:
    assert got.holds == want.holds, key
    assert got.witness == want.witness, key
    assert abs(got.residual - want.residual) <= 1e-14 * max(1.0, want.residual), key


@pytest.mark.parametrize("name", sorted(MODELS))
def test_block_delta_matches_the_tuple_loop(name):
    rep = MODELS[name]
    for letters in _patterns(rep.n):
        _assert_same(full_delta_identity_holds(rep, letters), _reference(name, letters), (name, letters))


@pytest.mark.parametrize("cells", [16, 256])
def test_chunked_block_delta_matches_the_tuple_loop(cells, monkeypatch):
    """Small chunks fix up to k - 1 leading indices: prefix products, constant
    prefixes, and witnesses found in a later chunk's second pass."""
    monkeypatch.setattr(qgroups, "_CHUNK_CELLS", cells)
    for name, rep in MODELS.items():
        for letters in _patterns(rep.n):
            _assert_same(full_delta_identity_holds(rep, letters), _reference(name, letters), (name, letters))


def _cell(rep: MatrixRep, letters: str, idx: tuple) -> float:
    """One tuple's residual, its products in slot order."""
    prods = np.broadcast_to(np.eye(rep.d), (rep.n, rep.d, rep.d))
    for c, i in zip(letters, idx):
        prods = prods @ rep.letter_array(c)[:, i]
    entry = prods.sum(axis=0) - (np.eye(rep.d) if len(set(idx)) == 1 else 0.0)
    return float(np.linalg.svd(entry, compute_uv=False)[0])


@pytest.mark.parametrize("name", sorted(MODELS))
def test_block_delta_up_to_the_budget(name):
    rep = MODELS[name]
    m = max(m for m in range(2, 64) if rep.n**m <= TUPLE_BUDGET)
    assert rep.n**m > REF_TUPLES
    rng = np.random.default_rng(m)
    for letters in ("1" * m, "*" * m):
        chk = full_delta_identity_holds(rep, letters)
        scale = 1e-14 * max(1.0, chk.residual)
        assert chk.holds == (chk.residual <= rep.tol)
        assert abs(_cell(rep, letters, chk.witness) - chk.residual) <= scale, (name, letters)
        for idx in itertools.chain([(0,) * m], rng.integers(rep.n, size=(20, m))):
            assert _cell(rep, letters, tuple(idx)) <= chk.residual + scale, (name, letters, idx)


def test_lattice_position_memory_is_bounded_by_the_chunks():
    """The n=3, d=4 lift holds n^k d^2 = 3^12 * 16 cells per array at 1^12
    unchunked (about 260 MiB at m_max 12); a chunk holds at most two arrays
    of _CHUNK_CELLS cells at a time, whatever m_max."""
    rep = nilpotent_pair_rep(3)
    lift = coproduct_lift(rep, rep)
    bound = 3 * np.dtype(complex).itemsize * qgroups._CHUNK_CELLS
    for m_max in (10, 12):
        tracemalloc.start()
        try:
            pos = lattice_position(lift, m_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pos["m_scan"] == m_max
        assert peak < bound, (m_max, peak / 2**20, bound / 2**20)
