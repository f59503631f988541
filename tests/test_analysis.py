import itertools
import math

import numpy as np
import pytest

from polytoep.analysis import (
    asymptotic_decompose,
    asymptotic_sequence,
    compactness_profile,
    cross_term_profile,
    recover_symbol,
    section,
    toeplitz_defect,
)
from polytoep.lattice import Box, enumerate_basis, index_array, interior
from polytoep.operators import TruncatedOperator, block_rows, identity, toeplitz
from polytoep.symbols import from_coefficients, max_coeff_difference, random_symbol


def rank_one_corner(box: Box, p: int = 1) -> TruncatedOperator:
    M = np.zeros((p * box.dim, p * box.dim), dtype=complex)
    M[0, 0] = 1.0
    return TruncatedOperator(box, p, M)


def flip_operator(d: int) -> TruncatedOperator:
    return TruncatedOperator(Box((d,)), 1, np.eye(d + 1)[::-1].astype(complex))


def test_defect_zero_for_toeplitz():
    rng = np.random.default_rng(0)
    for caps, span in [((7, 7), 3), ((15,), 4), ((2, 2, 2), 1)]:
        T = toeplitz(random_symbol(len(caps), span, rng=rng), Box(caps))
        rep = toeplitz_defect(T)
        assert rep.overall == 0.0 and rep.verdict


def test_defect_rank_one_witness():
    rep = toeplitz_defect(rank_one_corner(Box((3,))))
    assert rep.defects == (1.0,)
    assert not rep.verdict
    assert rep.witness["base"] == [[0], [0]]
    assert rep.witness["shifted"] == [[1], [1]]


def test_defect_identity_zero():
    rep = toeplitz_defect(identity(Box((3, 3))))
    assert rep.overall == 0.0


def test_defect_detects_single_entry_perturbation():
    rng = np.random.default_rng(1)
    T = toeplitz(random_symbol(2, 2, rng=rng), Box((5, 5)))
    M = T.matrix.copy()
    M[7, 3] += 1e-3
    rep = toeplitz_defect(TruncatedOperator(T.box, 1, M))
    assert rep.overall >= 5e-4


def test_recover_round_trip():
    rng = np.random.default_rng(2)
    sym = random_symbol(2, 3, rng=rng)
    box = Box((7, 7))
    T = toeplitz(sym, box)
    rec = recover_symbol(T)
    assert rec.max_deviation == 0.0
    assert max_coeff_difference(rec.symbol, sym) < 1e-12
    rebuilt = toeplitz(rec.symbol, box)
    assert np.abs(rebuilt.matrix - T.matrix).max() < 1e-12


def test_recover_rank_one():
    N = 6
    rec = recover_symbol(rank_one_corner(Box((N - 1,))))
    assert rec.symbol.coeff((0,)).item() == pytest.approx(1 / N)
    assert rec.deviations[(0,)] == pytest.approx(1.0)


def test_recover_shift_matrix():
    from polytoep.operators import shift

    rec = recover_symbol(shift(Box((4,)), 0))
    assert rec.max_deviation == 0.0
    assert set(rec.symbol.coefficients) == {(1,)}
    assert rec.symbol.coeff((1,)).item() == 1.0


def test_sequence_toeplitz_constant():
    rng = np.random.default_rng(3)
    sym = random_symbol(2, 2, rng=rng)
    box = Box((6, 6))
    T = toeplitz(sym, box)
    seq = asymptotic_sequence(T, 0, 3, tol=1e-10)
    assert seq.step_norms == [0.0, 0.0, 0.0]
    assert seq.cauchy
    for m in range(4):
        inner = interior(box, m, (0,))
        want = toeplitz(sym, inner)
        assert np.abs(section(T, m, (0,)).matrix - want.matrix).max() == 0.0


def test_sequence_rank_one_settles_after_one_step():
    box = Box((9,))
    sym = from_coefficients(1, 1, [((1,), 1), ((-1,), 1)])
    T = toeplitz(sym, box) + rank_one_corner(box)
    seq = asymptotic_sequence(T, 0, 4, tol=1e-12)
    assert seq.step_norms[0] > 0.5
    assert seq.step_norms[1:] == [0.0, 0.0, 0.0]
    assert seq.cauchy


def test_sequence_flip_not_cauchy():
    seq = asymptotic_sequence(flip_operator(8), 0, 5, tol=1e-6)
    assert not seq.cauchy
    assert seq.step_norms[0] == pytest.approx(2 * math.cos(math.pi / 9), abs=1e-10)
    assert all(s >= 1.0 for s in seq.step_norms[:4])


def test_sequence_rejects_deep_m():
    with pytest.raises(ValueError):
        asymptotic_sequence(identity(Box((3,))), 0, 4)


def test_cross_terms_vanish_for_equal_operators():
    rng = np.random.default_rng(4)
    box = Box((4, 4))
    T = TruncatedOperator(box, 1, rng.standard_normal((25, 25)).astype(complex))
    prof = cross_term_profile(T - T, 0, 1, 3)
    assert prof.norms == [0.0, 0.0, 0.0]


def test_cross_terms_rank_one():
    K = rank_one_corner(Box((4, 4)))
    for i, j in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        prof = cross_term_profile(K, i, j, 4)
        assert prof.norms == [0.0] * 4


def test_cross_terms_identity_off_directions():
    prof = cross_term_profile(identity(Box((4, 4))), 0, 1, 4)
    for norm in prof.norms:
        assert norm == pytest.approx(1.0, abs=1e-12)


def test_compactness_rank_one():
    prof = compactness_profile(rank_one_corner(Box((5, 5))), 4, tol=1e-10)
    assert prof.values[0] == pytest.approx(1.0)
    assert prof.values[1:] == [0.0, 0.0, 0.0, 0.0]
    assert prof.verdict


def test_compactness_identity_plateau():
    prof = compactness_profile(identity(Box((3, 3))), 4, tol=1e-10)
    assert prof.values[:4] == [pytest.approx(1.0)] * 4
    assert prof.values[4] == 0.0
    assert prof.verdict  # hits zero exactly when the box runs out


def test_compactness_decaying_diagonal():
    N = 8
    diag = np.diag(1.0 / (np.arange(N) + 1)).astype(complex)
    T = TruncatedOperator(Box((N - 1,)), 1, diag)
    prof = compactness_profile(T, 6, tol=1e-10)
    for m, c in zip(prof.ms, prof.values):
        assert c == pytest.approx(1.0 / (m + 1), abs=1e-12)
    assert not prof.verdict


def test_compactness_monotone_support():
    rng = np.random.default_rng(5)
    box = Box((6, 6))
    for m0 in (1, 2, 3):
        M = np.zeros((49, 49), dtype=complex)
        low = [i for i, k in enumerate(enumerate_basis(box)) if max(k) < m0]
        for a in low:
            for b in low:
                M[a, b] = rng.standard_normal() + 1j * rng.standard_normal()
        prof = compactness_profile(TruncatedOperator(box, 1, M), 6, tol=1e-12)
        for m, c in zip(prof.ms, prof.values):
            if m >= m0:
                assert c == 0.0


def test_decompose_toeplitz_plus_rank_one():
    box = Box((15,))
    sym = from_coefficients(1, 1, [((-1,), 1), ((1,), 1)])
    T = toeplitz(sym, box) + rank_one_corner(box)
    res = asymptotic_decompose(T, tol=1e-8)
    assert res.verdict
    assert max_coeff_difference(res.symbol, sym) < 1e-12
    assert np.abs(res.remainder.matrix - rank_one_corner(box).matrix).max() < 1e-12
    assert res.remainder_profile.values[1] == pytest.approx(0.0, abs=1e-12)
    for ct in res.cross_terms:
        assert ct.final <= 1e-10
    assert np.abs((toeplitz(res.symbol, box) + res.remainder).matrix - T.matrix).max() == 0.0  # integer data: exact
    assert res.toeplitz_part_defect.overall == 0.0


@pytest.mark.parametrize("caps, p, depth", [((11, 11), 1, 3), ((63,), 2, 4), ((6, 6, 6), 1, 2)])
def test_decompose_corner_block_is_bit_exact(caps, p, depth):
    # Entry-shifted sections cancel the Toeplitz part exactly, so once every
    # constant diagonal is recovered as its representative the remainder is
    # the perturbation's support and nothing else.
    rng = np.random.default_rng(13)
    box = Box(caps)
    sym = random_symbol(box.n, 2, p=p, rng=rng)
    rows = block_rows(np.nonzero((index_array(box) < depth).all(axis=1))[0], p)
    K = np.zeros((p * box.dim,) * 2, dtype=complex)
    K[np.ix_(rows, rows)] = rng.standard_normal((rows.size,) * 2) + 1j * rng.standard_normal((rows.size,) * 2)
    res = asymptotic_decompose(toeplitz(sym, box) + TruncatedOperator(box, p, K))
    assert res.verdict
    for f in itertools.product(*(range(-(c - res.m_star), c - res.m_star + 1) for c in caps)):
        assert np.array_equal(res.symbol.coeff(f), sym.coeff(f)), f
    assert np.count_nonzero(res.remainder.matrix) == np.count_nonzero(K)
    for m, c in enumerate(res.remainder_profile.values):
        if m >= depth:
            assert c == 0.0, m


def test_decompose_pure_toeplitz():
    rng = np.random.default_rng(6)
    sym = random_symbol(2, 2, rng=rng)
    T = toeplitz(sym, Box((8, 8)))
    res = asymptotic_decompose(T, tol=1e-8)
    assert res.verdict
    assert np.abs(res.remainder.matrix).max() < 1e-12


def test_decompose_flip_verdict_false():
    res = asymptotic_decompose(flip_operator(8), tol=1e-6)
    assert not res.verdict
    assert res.witness["kind"] == "non_cauchy"
    assert res.witness["direction"] == 0
    assert res.witness["step_norm"] == pytest.approx(2 * math.cos(math.pi / 9), abs=1e-10)
    # steps 0 and 1 tie in exact arithmetic; the witness index is the first of them
    for d in (8, 16):
        assert asymptotic_decompose(flip_operator(d), tol=1e-6).witness["worst_m"] == 0
    # whatever the verdict, re-adding the Toeplitz part gives back the 0/1 entries
    total = toeplitz(res.symbol, Box((8,))).matrix + res.remainder.matrix
    assert np.abs(total - flip_operator(8).matrix).max() == 0.0


def test_decompose_identity_exact_for_random_operator():
    rng = np.random.default_rng(7)
    box = Box((5, 5))
    T = TruncatedOperator(box, 1, rng.standard_normal((36, 36)) + 1j * rng.standard_normal((36, 36)))
    res = asymptotic_decompose(T, tol=1e-6)
    scale = np.abs(T.matrix).max()
    assert np.abs((toeplitz(res.symbol, box) + res.remainder).matrix - T.matrix).max() <= 1e-15 * scale


def test_decompose_box_too_small():
    with pytest.raises(ValueError):
        asymptotic_decompose(identity(Box((1, 1))))


def test_feintuch_block_example():
    box = Box((11,))
    E12 = np.array([[0, 1], [0, 0]], dtype=complex)
    E21 = E12.T.copy()
    phi = from_coefficients(1, 2, [((0,), np.eye(2)), ((1,), E12)])
    T = toeplitz(phi, box)
    M = T.matrix.copy()
    M[0:2, 0:2] += E21
    res = asymptotic_decompose(TruncatedOperator(box, 2, M), tol=1e-8)
    assert res.verdict
    assert max_coeff_difference(res.symbol, phi) < 1e-12
    want_K = np.zeros_like(M)
    want_K[0:2, 0:2] = E21
    assert np.abs(res.remainder.matrix - want_K).max() < 1e-12


def test_feintuch_block_flip_fails():
    N = 9
    J = np.kron(np.eye(N)[::-1], np.eye(2)).astype(complex)
    res = asymptotic_decompose(TruncatedOperator(Box((N - 1,)), 2, J), tol=1e-6)
    assert not res.verdict
