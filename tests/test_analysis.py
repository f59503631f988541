import itertools
import math
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polytoep import analysis, operators
from polytoep.analysis import (
    _block_norm_grid,
    asymptotic_decompose,
    asymptotic_sequence,
    compactness_profile,
    cross_term_profile,
    recover_symbol,
    section,
    toeplitz_defect,
)
from polytoep.lattice import Box, interior
from polytoep.operators import TruncatedOperator, toeplitz
from polytoep.symbols import from_coefficients, random_symbol

import oracles
from oracles import enumerate_basis, max_coeff_difference, position, shift_oracle


def block_rows(positions, p: int) -> np.ndarray:
    """Matrix rows of the given monomial positions in block-major layout."""
    return (np.asarray(positions, dtype=np.int64)[:, None] * p + np.arange(p)).reshape(-1)


def identity(box: Box) -> TruncatedOperator:
    return TruncatedOperator(box, 1, np.eye(box.dim, dtype=complex))


def rank_one_corner(box: Box, p: int = 1) -> TruncatedOperator:
    M = np.zeros((p * box.dim, p * box.dim), dtype=complex)
    M[0, 0] = 1.0
    return TruncatedOperator(box, p, M)


def flip_operator(d: int) -> TruncatedOperator:
    return TruncatedOperator(Box((d,)), 1, np.eye(d + 1)[::-1].astype(complex))


def toeplitz_plus_corner(caps, p: int, depth: int, seed: int = 13) -> TruncatedOperator:
    """A span-2 Toeplitz section plus a random block on the exponents-below-depth corner."""
    rng = np.random.default_rng(seed)
    box = Box(caps)
    rows = block_rows([i for i, k in enumerate(enumerate_basis(box)) if max(k) < depth], p)
    K = np.zeros((p * box.dim,) * 2, dtype=complex)
    K[np.ix_(rows, rows)] = rng.standard_normal((rows.size,) * 2) + 1j * rng.standard_normal((rows.size,) * 2)
    return toeplitz(random_symbol(box.n, 2, p=p, rng=rng), box) + TruncatedOperator(box, p, K)


def test_defect_zero_for_toeplitz():
    # every block is coeff(l - k), so each one-step difference is x - x = 0.0
    rng = np.random.default_rng(0)
    cases = [((7, 7), 3, 1), ((15,), 4, 1), ((2, 2, 2), 1, 1), ((9,), 3, 2), ((3, 3), 2, 3),
             ((0, 3), 2, 1), ((2, 0, 2), 1, 2), ((0, 3), 1, 3)]
    for caps, span, p in cases:
        T = toeplitz(random_symbol(len(caps), span, p=p, rng=rng), Box(caps))
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


# (caps, NaN block (l, k), finite unit corner at (0, 0)?, defects, witness direction, base);
# a block with a NaN part has norm inf, so its defect is the worst one
NAN_CASES = [
    ((3,), ((1,), (1,)), False, (math.inf,), 0, [[0], [0]]),
    ((2, 2), ((0, 0), (2, 0)), True, (1.0, math.inf), 1, [[0, 0], [2, 0]]),  # step 0 in direction 0 skips the block
    ((2, 2), ((0, 0), (0, 2)), True, (math.inf, 1.0), 0, [[0, 0], [0, 2]]),  # a later finite defect keeps the inf
]


@pytest.mark.parametrize("caps, nan_at, corner, defects, direction, base", NAN_CASES)
def test_defect_nan_entry_is_the_witness(caps, nan_at, corner, defects, direction, base):
    box = Box(caps)
    M = identity(box).matrix.copy()
    M[position(box, nan_at[0]), position(box, nan_at[1])] = math.nan
    if corner:
        M[0, 0] += 1.0
    rep = toeplitz_defect(TruncatedOperator(box, 1, M))
    assert rep.defects == defects
    assert rep.overall == math.inf and rep.verdict is False
    assert rep.witness["direction"] == direction and rep.witness["base"] == base
    assert rep.witness["defect"] == math.inf


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("caps", [(4, 3), (2, 3, 2)])
def test_defect_witness_names_the_perturbed_blocks(caps, p):
    rng = np.random.default_rng(len(caps) * 10 + p)
    box = Box(caps)
    T = toeplitz(random_symbol(box.n, 2, p=p, rng=rng), box)
    for j in range(box.n):
        # block (l0, k0) has a shifted partner in direction j only: in every
        # other direction l0 sits on the top layer and k0 on the bottom one
        l0 = tuple(int(rng.integers(c)) if i == j else c for i, c in enumerate(caps))
        k0 = tuple(int(rng.integers(c)) if i == j else 0 for i, c in enumerate(caps))
        M = T.matrix.copy()
        M[np.ix_(block_rows([position(box, l0)], p), block_rows([position(box, k0)], p))] += rng.standard_normal((p, p))
        op = TruncatedOperator(box, p, M)
        rep = toeplitz_defect(op)
        w = rep.witness
        assert w["direction"] == j
        assert w["defect"] == rep.overall == rep.defects[j] > 0.0
        assert all(d == 0.0 for i, d in enumerate(rep.defects) if i != j)
        base, shifted = [tuple(x) for x in w["base"]], [tuple(x) for x in w["shifted"]]
        for b, s in zip(base, shifted):
            assert s == tuple(x + (i == j) for i, x in enumerate(b))
        assert (l0, k0) in (tuple(base), tuple(shifted))
        diff = oracles._blk(op, *shifted) - oracles._blk(op, *base)
        norm = np.abs(diff).item() if p == 1 else np.linalg.norm(diff, ord=2)
        assert norm == w["defect"]


@pytest.mark.parametrize("caps", [(3, 0), (0,), (0, 0, 2)])
def test_defect_flat_directions(caps):
    rng = np.random.default_rng(9)
    box, p = Box(caps), 2
    d = p * box.dim
    op = TruncatedOperator(box, p, rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    rep = toeplitz_defect(op)
    want, overall = oracles.defect_oracle(op)
    for j, c in enumerate(caps):
        if c == 0:
            assert rep.defects[j] == 0.0 == want[j]
    assert np.allclose(rep.defects, want, rtol=0, atol=1e-12)
    assert abs(rep.overall - overall) <= 1e-12


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
    S = shift_oracle(Box((4,)), 0, 1)
    for matrix in (S, S.real):  # a real matrix reads the same
        rec = recover_symbol(TruncatedOperator(Box((4,)), 1, matrix))
        assert rec.max_deviation == 0.0
        assert set(rec.symbol.coefficients) == {(1,)}
        assert rec.symbol.coeff((1,)).item() == 1.0


def test_recover_nan_spread_propagates():
    T = toeplitz(from_coefficients(1, 1, [((0,), 1.0), ((1,), 2.0)]), Box((4,)))
    M = T.matrix.copy()
    M[2, 2] = np.nan                # one NaN on the main diagonal
    M[3, 0] = M[4, 1] = np.nan      # every entry of diagonal 3 is NaN
    M[1, 0] = complex(2.0, np.nan)  # a NaN imaginary part on diagonal 1
    rec = recover_symbol(TruncatedOperator(T.box, 1, M))
    nan = {(0,), (1,), (3,)}  # spread inf, as a block with a NaN part has norm inf; coefficient 0
    assert all(rec.deviations[f] == math.inf and f not in rec.symbol.coefficients for f in nan)
    assert all(s == 0.0 for f, s in rec.deviations.items() if f not in nan)
    assert rec.max_deviation == math.inf


def test_recover_inf_spread_is_quiet():
    # An infinite point on a diagonal of complex points spreads inf: the
    # point minus itself is not finite, so the pair's norm is inf.  Recovery
    # raises no warning for it, and every other spread is still its
    # diagonal's pairwise maximum.
    rng = np.random.default_rng(14)
    M = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    M[3, 1] = complex(math.inf, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rec = recover_symbol(TruncatedOperator(Box((5,)), 1, M))
    assert rec.deviations[(2,)] == math.inf
    for (f,), spread in rec.deviations.items():
        if f != 2:
            assert spread == pairwise_spread(np.diagonal(M, -f).reshape(-1, 1, 1)), f


def test_recover_inf_block_spread_is_quiet():
    # The p = 2 twin: a diagonal with an infinite entry spreads inf without a
    # warning, and every finite diagonal keeps its pairwise maximum.
    rng = np.random.default_rng(14)
    M = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    M[6, 2] = math.inf
    T = TruncatedOperator(Box((5,)), 2, M)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rec = recover_symbol(T)
    blocks = M.reshape(6, 2, 6, 2).transpose(0, 2, 1, 3)
    for (f,), spread in rec.deviations.items():
        if f == 2:
            assert spread == math.inf
        else:
            assert spread == pairwise_spread(np.diagonal(blocks, -f).transpose(2, 0, 1)), f
    assert rec.max_deviation == math.inf


@pytest.mark.parametrize("p", [1, 2])
def test_recover_spread_survives_an_overflowing_mean(p):
    # Finite entries near the top of the range: the diagonal's plain sum
    # meets +inf and -inf.  Its mean is still finite, summed at a smaller
    # power-of-two scale, and quiet; the spread is the pairwise maximum, inf,
    # also for p > 1, where no difference above the largest float reaches LAPACK.
    v = np.repeat([1.7e308, -1.7e308], 100) + 1j * np.arange(200.0)
    blocks = v[:, None, None] * np.eye(p)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rec = recover_symbol(TruncatedOperator(Box((199,)), p, np.kron(np.diag(v), np.eye(p))))
    with np.errstate(over="ignore"):
        want = pairwise_spread(blocks)
    coef = rec.symbol.coeff((0,))
    mean = coef[0, 0]
    assert np.array_equal(coef, mean * np.eye(p))
    assert mean.imag == 99.5 and abs(mean.real) <= v.size * np.finfo(float).eps * 1.7e308
    assert rec.deviations[(0,)] == want == math.inf


# How the entries of one diagonal vary about its base value.
DIAGONAL_KINDS = ("constant", "real", "imaginary", "line", "circle", "signed-zero", "zero", "tiny")


def diagonal_values(kind: str, base: complex, rng, shape) -> np.ndarray:
    t = rng.standard_normal(shape)
    if kind == "constant":
        return np.full(shape, base)
    if kind == "real":
        return base + t
    if kind == "imaginary":
        return base + 1j * t
    if kind == "line":  # dyadic values on the line x - y = const, duplicates included
        return np.round(4 * base) / 4 + (1 + 1j) * np.round(3 * t)
    if kind == "circle":  # every point a vertex of the hull
        return base + np.exp(2j * np.pi * rng.random(shape))
    if kind == "tiny":  # real parts vary 2^-700 times as far as the entries reach
        return 1j * base.imag + np.ldexp(t, -700)
    out = np.empty(shape, dtype=complex)  # constant up to the signs of zero parts
    out.real = base.real if kind == "signed-zero" else rng.choice([0.0, -0.0], shape)
    out.imag = rng.choice([0.0, -0.0], shape)
    return out


@st.composite
def diagonal_operators(draw):
    """An operator whose diagonals each follow one of DIAGONAL_KINDS, with its diagonals' blocks."""
    n, p = draw(st.integers(1, 3)), draw(st.sampled_from([1, 2, 3]))
    top = {1: {1: 10, 2: 3, 3: 2}, 2: {1: 8, 2: 2, 3: 1}, 3: {1: 5, 2: 1, 3: 1}}[p][n]
    box = Box(tuple(draw(st.lists(st.integers(0, top), min_size=n, max_size=n))))
    freqs = list(itertools.product(*(range(-c, c + 1) for c in box.caps)))
    kinds = draw(st.lists(st.sampled_from(DIAGONAL_KINDS), min_size=len(freqs), max_size=len(freqs)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    idx = np.array(enumerate_basis(box), dtype=np.int64).reshape(box.dim, box.n)
    pairs: dict[tuple, list] = {}
    for a, b in itertools.product(range(box.dim), repeat=2):  # each diagonal in increasing column
        pairs.setdefault(tuple(int(x) for x in idx[a] - idx[b]), []).append((a, b))
    M = np.empty((p * box.dim,) * 2, dtype=complex)
    blocks = {}
    for f, kind in zip(freqs, kinds):
        base = complex(*rng.standard_normal(2))
        blocks[f] = diagonal_values(kind, base, rng, (len(pairs[f]), p, p))
        for (a, b), blk in zip(pairs[f], blocks[f]):
            M[a * p : (a + 1) * p, b * p : (b + 1) * p] = blk
    return TruncatedOperator(box, p, M), blocks


def pairwise_spread(blocks: np.ndarray) -> float:
    """Largest distance over all pairs of finite blocks, with numpy's array norms.

    Two blocks whose difference has an infinite part are more than the
    largest float apart: inf.
    """
    diff = blocks[:, None] - blocks[None, :]
    if blocks.shape[-1] == 1:
        return float(np.abs(diff).max())
    if not np.isfinite(diff).all():
        return math.inf
    return float(np.linalg.norm(diff, ord=2, axis=(-2, -1)).max())


@settings(max_examples=200)
@given(diagonal_operators())
def test_recover_matches_pairwise_oracle(case):
    T, blocks = case
    coeffs, spreads = oracles.recover_oracle(T)
    rec = recover_symbol(T)
    assert rec.deviations == {f: pairwise_spread(b) for f, b in blocks.items()}
    assert rec.max_deviation == max(rec.deviations.values())
    scale = np.abs(T.matrix).max()
    for f, spread in spreads.items():
        assert abs(rec.deviations[f] - spread) <= 1e-12 * scale, f
    for f, want in coeffs.items():
        got = rec.symbol.coefficients.get(f)
        if spreads[f] == 0.0:  # constant: its first block, sign bits included
            first = blocks[f][0]
            if first.any():
                assert got.tobytes() == first.tobytes(), f
            else:
                assert got is None, f
        else:
            assert np.abs(rec.symbol.coeff(f) - want).max() <= 1e-12 * scale, f


@settings(max_examples=100)
@given(diagonal_operators(), st.sampled_from([600, -600, -1070]))
def test_recover_spreads_are_exact_at_extreme_scales(case, exponent):
    # Scaling by 2^+-600 is exact, and squared coordinates at that scale would
    # overflow or underflow; at 2^-1070 the entries are subnormal.  The prunes
    # must still keep every diameter's ends.
    T, blocks = case
    scaled = TruncatedOperator(T.box, T.p, np.ldexp(T.matrix.real, exponent) + 1j * np.ldexp(T.matrix.imag, exponent))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rec = recover_symbol(scaled)
    want = {f: pairwise_spread(np.ldexp(b.real, exponent) + 1j * np.ldexp(b.imag, exponent)) for f, b in blocks.items()}
    assert rec.deviations == want


def test_sequence_toeplitz_constant():
    rng = np.random.default_rng(3)
    sym = random_symbol(2, 2, rng=rng)
    box = Box((6, 6))
    T = toeplitz(sym, box)
    seq = asymptotic_sequence(T, (0,), 3, tol=1e-10)
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
    seq = asymptotic_sequence(T, (0,), 4, tol=1e-12)
    assert seq.step_norms[0] > 0.5
    assert seq.step_norms[1:] == [0.0, 0.0, 0.0]
    assert seq.cauchy


def test_sequence_flip_not_cauchy():
    seq = asymptotic_sequence(flip_operator(8), (0,), 5, tol=1e-6)
    assert not seq.cauchy
    assert seq.step_norms[0] == pytest.approx(2 * math.cos(math.pi / 9), abs=1e-10)
    assert all(s >= 1.0 for s in seq.step_norms[:4])


def test_sequence_rejects_deep_m():
    with pytest.raises(ValueError):
        asymptotic_sequence(identity(Box((3,))), (0,), 4)


def test_negative_depth_is_refused():
    T = toeplitz(from_coefficients(1, 1, [((1,), 1.0)]), Box((3,)))
    for m_max in (-1, -2):
        with pytest.raises(ValueError, match="nonnegative"):
            asymptotic_sequence(T, (0,), m_max)
        with pytest.raises(ValueError, match="nonnegative"):
            cross_term_profile(T, 0, 0, m_max)


def test_directions_out_of_range_are_refused():
    K = rank_one_corner(Box((3, 3)))
    for i, j in [(2, 0), (0, 2), (-1, 0), (0, -1)]:
        with pytest.raises(ValueError, match="directions"):
            cross_term_profile(K, i, j, 1)
    for directions in [(2,), (-1,), (0, 2), (-1, 1), (0, 0)]:
        with pytest.raises(ValueError, match="directions"):
            asymptotic_sequence(K, directions, 1)
        with pytest.raises(ValueError, match="directions"):
            section(K, 1, directions)


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
    assert prof.c_m[0] == pytest.approx(1.0)
    assert prof.c_m[1:] == [0.0, 0.0, 0.0, 0.0]
    assert prof.verdict


def test_compactness_identity_plateau():
    prof = compactness_profile(identity(Box((3, 3))), 4, tol=1e-10)
    assert prof.c_m[:4] == [pytest.approx(1.0)] * 4
    assert prof.c_m[4] == 0.0
    assert prof.verdict  # hits zero exactly when the box runs out


def test_compactness_decaying_diagonal():
    N = 8
    diag = np.diag(1.0 / (np.arange(N) + 1)).astype(complex)
    T = TruncatedOperator(Box((N - 1,)), 1, diag)
    prof = compactness_profile(T, 6, tol=1e-10)
    for m, c in zip(prof.m, prof.c_m):
        assert c == pytest.approx(1.0 / (m + 1), abs=1e-12)
    assert not prof.verdict


def test_compactness_verdict_rests_on_the_last_value():
    # Both the m = 1 and m = 2 windows hold an entry 2^40, so c_1 >= c_2 in
    # exact arithmetic, yet the eigensolver can return c_1 an ulp of 2^40
    # (more than 10 * tol) below c_2.  A profile that ends at 0.0 is compact
    # whatever rounding does between its values.
    d = np.ldexp([1.0, 1.0, 1 - 2**-52, 1 - 2**-53, 1 - 3 * 2**-53, 1.0, 1.0, 1.0, 1 - 2**-53], 40)
    prof = compactness_profile(TruncatedOperator(Box((2, 2)), 1, np.diag(d)), 3, tol=1e-6)
    assert prof.c_m[-1] == 0.0
    assert prof.verdict


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
        for m, c in zip(prof.m, prof.c_m):
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
    assert res.remainder_profile.c_m[1] == pytest.approx(0.0, abs=1e-12)
    assert cross_term_profile(res.remainder, 0, 0, res.m_max).norms[-1] <= 1e-10
    assert np.abs((toeplitz(res.symbol, box) + res.remainder).matrix - T.matrix).max() == 0.0  # integer data: exact
    assert toeplitz_defect(toeplitz(res.symbol, box)).overall == 0.0


@pytest.mark.parametrize("caps, p, depth", [((11, 11), 1, 3), ((63,), 2, 4), ((6, 6, 6), 1, 2)])
def test_decompose_corner_block_is_bit_exact(caps, p, depth):
    # Entry-shifted sections cancel the Toeplitz part exactly, so once every
    # constant diagonal is recovered as its representative the remainder is
    # the perturbation's support and nothing else.
    rng = np.random.default_rng(13)
    box = Box(caps)
    sym = random_symbol(box.n, 2, p=p, rng=rng)
    rows = block_rows([i for i, k in enumerate(enumerate_basis(box)) if max(k) < depth], p)
    K = np.zeros((p * box.dim,) * 2, dtype=complex)
    K[np.ix_(rows, rows)] = rng.standard_normal((rows.size,) * 2) + 1j * rng.standard_normal((rows.size,) * 2)
    res = asymptotic_decompose(toeplitz(sym, box) + TruncatedOperator(box, p, K))
    assert res.verdict
    for f in itertools.product(*(range(-(c - res.m_star), c - res.m_star + 1) for c in caps)):
        assert np.array_equal(res.symbol.coeff(f), sym.coeff(f)), f
    assert np.count_nonzero(res.remainder.matrix) == np.count_nonzero(K)
    for m, c in enumerate(res.remainder_profile.c_m):
        if m >= depth:
            assert c == 0.0, m


@pytest.mark.parametrize("caps, p, depth", [((19, 19), 1, 4), ((6, 6, 6), 1, 2), ((95,), 2, 4)])
def test_decompose_norms_stay_on_the_corner_block(monkeypatch, caps, p, depth):
    # Every step, cross term and c_m window is cropped to its share of the
    # support before its Gram block reaches the eigensolver, so no eigensolver
    # input outgrows the perturbed corner block, whatever the size of the
    # section.
    shapes = []
    top = operators._top_eigenvalue

    def spy(H):
        shapes.append(H.shape)
        return top(H)

    monkeypatch.setattr(operators, "_top_eigenvalue", spy)
    res = asymptotic_decompose(toeplitz_plus_corner(caps, p, depth))
    assert res.verdict
    assert shapes and max(max(s) for s in shapes) <= p * depth ** len(caps)


def test_decompose_computes_cross_terms_only_for_a_remainder_witness(monkeypatch):
    # A true verdict and a non-Cauchy witness read no cross term, so
    # decompose computes none for them.
    calls = []
    profile = analysis.cross_term_profile

    def spy(*args):
        calls.append(args[1:3])
        return profile(*args)

    monkeypatch.setattr(analysis, "cross_term_profile", spy)
    rng = np.random.default_rng(21)
    noisy = toeplitz(random_symbol(2, 2, rng=rng), Box((7, 7))) + TruncatedOperator(
        Box((7, 7)), 1, 1e-3 * rng.standard_normal((64, 64)).astype(complex)
    )
    for T, kind in ((toeplitz_plus_corner((11, 11), 1, 3), None), (noisy, "non_cauchy")):
        res = asymptotic_decompose(T)
        assert (res.witness or {}).get("kind") == kind
    assert calls == []
    swap = np.zeros((36, 36), dtype=complex)
    swap[6 * np.arange(6), np.arange(6)] = 1.0  # e_(0, k) -> e_(k, 0) on (5, 5)
    res = asymptotic_decompose(TruncatedOperator(Box((5, 5)), 1, swap))
    assert res.witness["kind"] == "remainder_not_compact" and res.witness["pair"] == [0, 1]
    assert calls == list(itertools.product(range(2), repeat=2))


@st.composite
def decompose_cases(draw):
    """Toeplitz on an n = 2 or 3 box, p = 1 or 2, plus dense noise, a few random entries or a face.

    A face perturbation is a Toeplitz section on the face {x_j = 0}: every
    final step, taken at depth 1 or more, misses it, yet it is not compact,
    so decompose gives a `remainder_not_compact` witness.
    """
    n, p = draw(st.integers(2, 3)), draw(st.sampled_from([1, 2]))
    kind = draw(st.sampled_from(["dense", "sparse", "face"]))
    low = 4 if kind == "face" else 2  # the default m_max is then 2, and the final steps sit at depth 1
    box = Box(tuple(draw(st.lists(st.integers(low, 5 if n == 2 else max(low, 3)), min_size=n, max_size=n))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    T = toeplitz(random_symbol(n, draw(st.integers(0, 2)), p=p, rng=rng), box)
    d = p * box.dim
    K = np.zeros((d, d), dtype=complex)
    if kind == "dense":
        K += draw(st.sampled_from([1e-3, 1.0])) * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    elif kind == "face":
        j = draw(st.integers(0, n - 1))
        face = Box(box.caps[:j] + box.caps[j + 1 :])
        rows = block_rows([i for i, k in enumerate(enumerate_basis(box)) if k[j] == 0], p)
        K[np.ix_(rows, rows)] = toeplitz(random_symbol(n - 1, 1, p=p, rng=rng), face).matrix
    else:
        for a, b in draw(st.lists(st.tuples(st.integers(0, d - 1), st.integers(0, d - 1)), min_size=1, max_size=6)):
            K[a, b] += complex(*rng.standard_normal(2))
    return T + TruncatedOperator(box, p, K)


@settings(max_examples=60)
@given(decompose_cases())
def test_cross_terms_are_bounded_by_the_next_c_m(T):
    # Cross term (i, j) at m is the remainder on {x_i >= m + 1} x
    # {x_j >= m + 1}, a sub-window of c_(m+1)'s, so it can exceed c_(m+1)
    # by the two norms' rounding only, and it cannot fail a verdict that
    # c_m passes.  Cutting c_(m_max)'s window by the first variable at depth
    # m_max of its rows and of its columns puts each of the n^2 pieces
    # inside one final term, so the witness's pair, the largest final term,
    # is at least c_(m_max) / n^2, again up to rounding.
    res = asymptotic_decompose(T)
    K, c_m, n = res.remainder, res.remainder_profile.c_m, T.box.n
    outer = oracles.compactness_windows(K, res.m_max)
    terms, slack = {}, oracles.gram_bound(outer[-1])
    for i, j in itertools.product(range(n), repeat=2):
        ct = cross_term_profile(K, i, j, res.m_max)
        windows = oracles.cross_windows(K, i, j, res.m_max)
        for m, (norm, W) in enumerate(zip(ct.norms, windows)):
            assert norm <= c_m[m + 1] + oracles.gram_bound(outer[m + 1]) + oracles.gram_bound(W), (i, j, m)
        terms[i, j] = asdict(ct)
        slack += oracles.gram_bound(windows[-1])
    assert res.witness is None or res.witness["kind"] in ("non_cauchy", "remainder_not_compact")
    if res.witness and res.witness["kind"] == "remainder_not_compact":
        assert res.witness["cross_terms"] == list(terms.values())
        finals = [t["norms"][-1] for t in terms.values()]
        assert res.witness["pair"] == list(list(terms)[finals.index(max(finals))])
        assert n * n * max(finals) >= c_m[-1] - slack


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("fill", ["sparse", "dense", "zero", "nan", "inf"])
def test_block_norm_grid_matches_every_block_norm(p, fill):
    rng = np.random.default_rng(p)
    R, C = 5, 4
    D = rng.standard_normal((R * p, C * p)) + 1j * rng.standard_normal((R * p, C * p))
    if fill != "dense":
        keep = np.kron(rng.random((R, C)) < 0.3, np.ones((p, p), dtype=bool))
        D[~keep] = 0.0
    if fill == "zero":
        D[:] = 0.0
    D[-1, -1] = -0.0
    if fill == "nan":
        D[:p, :p] = 0.0
    want = oracles.block_norm_grid_reference(D, p)
    # a block with a non-finite part is inf, with no LAPACK call, a NaN that
    # is its only nonzero entry included; every other block keeps LAPACK's value
    if fill == "nan":
        D[p - 1, 0] = math.nan
        want[0, 0] = math.inf
    if fill == "inf":
        D[p, 1] = complex(math.inf, 1.0)
        want[1, 0] = math.inf
    assert np.array_equal(_block_norm_grid(D, p), want)
    assert _block_norm_grid(D[:0], p).shape == (0, C)


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
