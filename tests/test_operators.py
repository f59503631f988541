import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polytoep import modelspace, operators
from polytoep.lattice import Box
from polytoep.operators import (
    TruncatedOperator,
    _exponents,
    _scan,
    apply_fast,
    compress,
    operator_norm,
    toeplitz,
)
from polytoep.symbols import from_coefficients, random_symbol

import oracles
from oracles import _blk, enumerate_basis, layer_projector_oracle, shift_oracle


def corner(box: Box, m: int, p: int = 1) -> np.ndarray:
    """Diagonal 0/1 matrix on the rows whose monomial has every exponent below m, read off `_exponents`."""
    return np.diag(_exponents(box, p).max(axis=0) < m).astype(float)


def test_toeplitz_constant_is_identity():
    one = from_coefficients(1, 1, [((0,), 1)])
    T = toeplitz(one, Box((2,)))
    assert np.array_equal(T.matrix, np.eye(3))


def test_toeplitz_entry_rule():
    sym = from_coefficients(2, 1, [((0, 0), 2), ((1, 0), 1), ((0, -1), 1)])
    T = toeplitz(sym, Box((1, 1)))
    assert _blk(T, (1, 0), (0, 0)).item() == 1
    assert _blk(T, (0, 0), (0, 1)).item() == 1
    for k in enumerate_basis(Box((1, 1))):
        assert _blk(T, k, k).item() == 2
    assert _blk(T, (0, 1), (1, 0)).item() == 0


def test_toeplitz_shift_symbol_is_subdiagonal():
    z = from_coefficients(1, 1, [((1,), 1)])
    T = toeplitz(z, Box((3,)))
    want = np.zeros((4, 4))
    want[1, 0] = want[2, 1] = want[3, 2] = 1
    assert np.array_equal(T.matrix, want)


def test_toeplitz_entries_depend_only_on_difference():
    rng = np.random.default_rng(11)
    for caps, span, p in [((3, 2), 2, 1), ((4,), 3, 2)]:
        box = Box(caps)
        sym = random_symbol(box.n, span, p=p, rng=rng)
        T = toeplitz(sym, box)
        for l in enumerate_basis(box):
            for k in enumerate_basis(box):
                f = tuple(a - b for a, b in zip(l, k))
                assert np.array_equal(_blk(T, l, k), sym.coeff(f))


def test_shift_equals_toeplitz_of_coordinate():
    box = Box((2, 3))
    for j in range(2):
        k = tuple(1 if i == j else 0 for i in range(2))
        sym = from_coefficients(2, 1, [(k, 1)])
        assert np.array_equal(toeplitz(sym, box).matrix, shift_oracle(box, j, 1))


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("caps", [(0,), (3,), (2, 0), (0, 3), (2, 3), (1, 0, 2)])
def test_shift_and_layer_projector_match_loop_oracles(caps, p):
    # the shift is the section of the coordinate symbol z_j I_p, the layer
    # projector the complement of c_m's window
    box = Box(caps)
    for j in range(box.n):
        z_j = from_coefficients(box.n, p, [(tuple(int(i == j) for i in range(box.n)), np.eye(p))])
        assert np.array_equal(toeplitz(z_j, box).matrix, shift_oracle(box, j, p))
    for m in range(min(caps) + 2):
        F = corner(box, m, p)
        assert np.array_equal(F, layer_projector_oracle(box, m, p))
        assert int(np.trace(F)) == p * m**box.n


def test_layer_projector_product_formula():
    box = Box((3, 4))
    for m in (1, 2, 3):
        prod = np.eye(box.dim, dtype=complex)
        for i in range(2):
            Sm = np.linalg.matrix_power(shift_oracle(box, i, 1), m)
            prod = prod @ (np.eye(box.dim) - Sm @ Sm.conj().T)
        assert np.abs(prod - corner(box, m)).max() == 0.0


def test_inclusion_exclusion_small():
    for caps in [(4,), (4, 4), (4, 4, 4)]:
        box = Box(caps)
        n = box.n
        for m in (1, 2):
            total = np.zeros((box.dim, box.dim), dtype=complex)
            for size in range(1, n + 1):
                for subset in itertools.combinations(range(n), size):
                    prod = np.eye(box.dim, dtype=complex)
                    for i in subset:
                        prod = prod @ shift_oracle(box, i, 1)
                    prod_m = np.linalg.matrix_power(prod, m)
                    total += (-1) ** (size + 1) * prod_m @ prod_m.conj().T
            lhs = np.eye(box.dim) - corner(box, m)
            assert np.abs(lhs - total).max() <= 1e-13


def test_apply_fast_identity_symbol():
    one = from_coefficients(2, 1, [((0, 0), 1)])
    T = toeplitz(one, Box((3, 3)))
    v = np.arange(16, dtype=complex)
    assert np.allclose(apply_fast(T, v), v, atol=1e-12)


def test_apply_fast_matches_dense():
    rng = np.random.default_rng(5)
    for caps, span, p in [((7, 7), 3, 1), ((31,), 5, 1), ((5, 5), 9, 1), ((7,), 2, 2)]:
        box = Box(caps)
        sym = random_symbol(box.n, span, p=p, rng=rng)
        T = toeplitz(sym, box)
        v = rng.standard_normal(T.dim) + 1j * rng.standard_normal(T.dim)
        dense = T.matrix @ v
        fast = apply_fast(T, v)
        assert np.linalg.norm(fast - dense) <= 1e-10 * np.linalg.norm(dense)


def test_apply_fast_shift_symbol():
    box = Box((4, 4))
    z1 = from_coefficients(2, 1, [((1, 0), 1)])
    T = toeplitz(z1, box)
    rng = np.random.default_rng(2)
    v = rng.standard_normal(T.dim)
    assert np.allclose(apply_fast(T, v), shift_oracle(box, 0, 1) @ v, atol=1e-12)


def test_apply_fast_requires_tag():
    box = Box((3,))
    op = TruncatedOperator(box, 1, np.eye(4, dtype=complex))
    with pytest.raises(ValueError, match="toeplitz"):
        apply_fast(op, np.ones(4))


def test_algebra_identities():
    box = Box((5,))
    S = shift_oracle(box, 0, 1)
    top = np.zeros((6, 6), dtype=complex)
    top[5, 5] = 1
    P = TruncatedOperator(box, 1, top)
    assert np.array_equal((TruncatedOperator(box, 1, S.conj().T @ S) + P).matrix, np.eye(6))
    rng = np.random.default_rng(9)
    T = TruncatedOperator(box, 1, rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    assert np.array_equal((T + T - T).matrix, T.matrix)


def test_algebra_rejects_mismatched_boxes():
    A = TruncatedOperator(Box((2,)), 1, np.eye(3, dtype=complex))
    B = TruncatedOperator(Box((3,)), 1, np.eye(4, dtype=complex))
    with pytest.raises(ValueError):
        _ = A + B


def test_operator_norm_examples():
    assert operator_norm(np.eye(5, dtype=complex)) == pytest.approx(1.0, abs=1e-12)
    e0 = np.zeros((5, 5), dtype=complex)
    e0[0, 0] = 1
    assert operator_norm(e0) == pytest.approx(1.0, abs=1e-12)
    proj = corner(Box((3, 3)), 2).astype(complex)
    assert abs(operator_norm(proj) - 1.0) <= 1e-12


def test_operator_norm_tridiagonal_section():
    sym = from_coefficients(1, 1, [((1,), 1), ((-1,), 1)])
    T = toeplitz(sym, Box((63,)))
    assert operator_norm(T.matrix) == pytest.approx(2 * np.cos(np.pi / 65), abs=1e-10)


@st.composite
def masked_matrices(draw):
    """Random real or complex matrix with random rows and columns zeroed."""
    r, c = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    keep_rows = np.array(draw(st.lists(st.booleans(), min_size=r, max_size=r)))
    keep_cols = np.array(draw(st.lists(st.booleans(), min_size=c, max_size=c)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    full = rng.standard_normal((r, c))
    if draw(st.booleans()):
        full = full + 1j * rng.standard_normal((r, c))
    full[~keep_rows, :] = 0
    full[:, ~keep_cols] = 0
    return full


@given(masked_matrices())
def test_operator_norm_crop_matches_full_svd(full):
    want = np.linalg.svd(full, compute_uv=False)[0]
    assert abs(operator_norm(full) - want) <= 1e-12 * want


def test_operator_norm_without_nonzero_entries_is_zero():
    assert operator_norm(np.zeros((4, 4), dtype=complex)) == 0.0
    for shape in [(0, 0), (0, 3), (3, 0)]:
        assert operator_norm(np.zeros(shape)) == 0.0


def test_operator_norm_single_entry_and_single_row():
    rng = np.random.default_rng(8)
    for a in rng.standard_normal(20) * 10.0 ** rng.uniform(-5, 5, 20):
        M = np.zeros((5, 7), dtype=complex)
        M[rng.integers(5), rng.integers(7)] = a
        assert operator_norm(M) == abs(a)
    M = np.zeros((5, 7), dtype=complex)
    M[3, 4] = 3 - 4j
    assert operator_norm(M) == 5.0
    M = np.zeros((5, 7), dtype=complex)
    M[2, [0, 3, 6]] = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    assert operator_norm(M) == pytest.approx(np.linalg.norm(M[2]), rel=1e-12)


def _nested(d: int) -> tuple:
    """Windows from 0..d-1 down to the last row and column alone."""
    return np.arange(d), np.arange(d), d


@pytest.mark.parametrize("scale", [1.0, 1e200, 1e-200, 5e-324])
@pytest.mark.parametrize("dtype", [float, complex])
def test_operator_norm_exact_cases(scale, dtype):
    rng = np.random.default_rng(11)
    M = np.zeros((6, 6), dtype=dtype)
    norms = operator_norm(M, _nested(6))
    assert norms == [0.0] * 6 and all(math.copysign(1.0, x) == 1.0 for x in norms)
    M[5, 5] = scale * complex(*rng.standard_normal(2)) if dtype is complex else -scale * 0.7
    M[1, 2] = scale * 3.0
    a, b = M[5, 5], M[1, 2]
    # windows from 2 on hold M[5, 5] alone; windows 0 and 1 hold both entries
    assert operator_norm(M, _nested(6)) == [abs(b), abs(b), abs(a), abs(a), abs(a), abs(a)]
    assert operator_norm(M[5:, 5:]) == abs(a)


def test_operator_norm_wide_range_keeps_the_svd():
    # squares of 1e-200 next to 1e200 would underflow after any common
    # scaling, so each window keeps a dense SVD of its nonzero rows x
    # columns, and the one entry of the last window is its modulus
    rng = np.random.default_rng(12)
    M = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    M[:4] *= 1e200
    M[4:] *= 1e-200
    assert _scan(M).exp is None
    for k, got in enumerate(operator_norm(M, _nested(8))):
        assert got == oracles.svd_fallback(M[k:, k:])


@st.composite
def depth_families(draw):
    """A real, real-valued complex or complex matrix with zeroed rows and columns, and a depth family on it.

    Depths run from -2 (in no window) to count + 2 (clipped into every
    window).  A wide matrix spans 1e200 to 1e-200 and takes the SVD fallback.
    """
    wide = draw(st.booleans())
    r, c = draw(st.integers(1 + wide, 12)), draw(st.integers(1, 12))
    count = draw(st.integers(0, 6))
    depths = st.integers(-2, count + 2)
    rdepth = np.array(draw(st.lists(depths, min_size=r, max_size=r)), dtype=np.int64)
    cdepth = np.array(draw(st.lists(depths, min_size=c, max_size=c)), dtype=np.int64)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    M = rng.standard_normal((r, c))
    kind = draw(st.sampled_from(["real", "real-valued complex", "complex"]))
    if kind != "real":
        M = M + 1j * (rng.standard_normal((r, c)) if kind == "complex" else 0.0)
    M[rng.random(r) < 0.3, :] = 0
    M[:, rng.random(c) < 0.3] = 0
    if wide:
        M *= 1e200
        M[0, 0], M[-1, 0] = 1e200, 1e-200
    return M, (rdepth, cdepth, count), wide


@settings(max_examples=300)
@given(depth_families())
def test_operator_norm_windows_are_the_depth_cuts(case):
    # window k is the rows and columns of depth >= k: each norm is its SVD's
    # within the Gram bound, and bit for bit `oracles.svd_fallback` on the
    # SVD fallback
    M, family, wide = case
    rdepth, cdepth, count = family
    assert (_scan(M).exp is None) == wide
    norms = operator_norm(M, family)
    assert len(norms) == count
    for k, got in enumerate(norms):
        W = M[np.ix_(rdepth >= k, cdepth >= k)]
        if wide:
            assert got == oracles.svd_fallback(W), k
        else:
            assert abs(got - oracles._norm(oracles.cropped(W))) <= oracles.gram_bound(W), k


@st.composite
def band_families(draw):
    """A matrix with a narrow-band or block-diagonal support under random row and column permutations, and a depth family.

    The support is a grid of p x p blocks, p = 1 or 2, on up to 48 block
    rows and columns: a band of half-width 0..3, or diagonal blocks of 1..4
    grid cells.  Entries are real or complex; depths run as in
    `depth_families`.
    """
    p, r, c = draw(st.integers(1, 2)), draw(st.integers(2, 48)), draw(st.integers(2, 48))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    i, j = np.indices((r, c))
    if draw(st.booleans()):
        grid = np.abs(i - j) <= draw(st.integers(0, 3))
    else:
        sizes = rng.integers(1, 5, size=max(r, c))
        label = np.repeat(np.arange(sizes.size), sizes)
        grid = label[i] == label[j]
    support = np.kron(grid, np.ones((p, p), dtype=bool))
    M = rng.standard_normal(support.shape)
    if draw(st.booleans()):
        M = M + 1j * rng.standard_normal(support.shape)
    M = np.where(support, M, 0)[rng.permutation(p * r)][:, rng.permutation(p * c)]
    count = draw(st.integers(1, 6))
    rdepth, cdepth = (rng.integers(-2, count + 3, size=n) for n in M.shape)
    return M, (rdepth, cdepth, count)


@settings(max_examples=150)
@given(band_families(), st.booleans())
def test_band_windows_are_the_depth_cuts(case, forced):
    # banded and block-diagonal supports under permutations, on the band path
    # wherever it fits (forced: on every window of two or more columns, and
    # then on no other eigensolver): each norm is within the Gram bound of
    # its SVD, and the deterministic ordering makes a rerun bit-identical
    M, family = case
    rdepth, cdepth, count = family
    with pytest.MonkeyPatch.context() as mp:
        if forced:
            oracles.force_band(mp)
        lanczos, lapack = _solver_sizes(mp)
        norms = operator_norm(M, family)
        assert operator_norm(M, family) == norms
    if forced:
        assert not lanczos and not lapack, (lanczos, lapack)
    for k, got in enumerate(norms):
        W = M[np.ix_(rdepth >= k, cdepth >= k)]
        assert abs(got - oracles._norm(oracles.cropped(W))) <= oracles.gram_bound(W), k


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_band_matrix_keeps_the_svd(value):
    # a NaN or inf entry leaves no Gram scaling, so even a forced band path
    # is never reached: every window takes `_svd_norm`, inf where it holds
    # the entry and the SVD's bits elsewhere
    M = np.diag(np.arange(1.0, 65.0)) + np.diag(np.ones(63), 1)
    M[40, 41] = value
    depth = np.arange(64)
    svd, band = [], []
    with pytest.MonkeyPatch.context() as mp:
        oracles.force_band(mp)
        norm, order = operators._svd_norm, operators._band_order
        mp.setattr(operators, "_svd_norm", lambda W: svd.append(W.shape) or norm(W))
        mp.setattr(operators, "_band_order", lambda *args: band.append(args) or order(*args))
        norms = operator_norm(M, (depth, depth, 64))
    assert svd and not band
    assert norms == [math.inf] * 41 + [oracles._norm(M[k:, k:]) for k in range(41, 64)]


def test_operator_norm_keeps_nan_entries():
    # cropping a NaN away would read 0.0; a window holding it has norm inf,
    # with no LAPACK call, and one without it 0.0
    M = np.zeros((4, 4))
    M[1, 2] = np.nan
    assert operator_norm(M) == math.inf
    assert operator_norm(M, _nested(4)) == [math.inf, math.inf, 0.0, 0.0]


def test_operator_norm_above_the_largest_float_is_inf():
    # the Gram path's scaled root is brought back by 2**exp; past the largest
    # float that is inf, quietly, on the eigensolver's path and the one-column one
    big = np.full((2, 2), 1.7e308)
    column = np.array([[1.7e308, 0.0], [1.7e308, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert operator_norm(big) == operator_norm(column) == math.inf
        assert operator_norm(big, _nested(2)) == [math.inf, 1.7e308]


def test_compress():
    box = Box((3,))
    T = shift_oracle(box, 0, 1)
    full = np.eye(4, dtype=complex)
    assert np.array_equal(compress(T, full), T)
    e0 = np.zeros((4, 1), dtype=complex)
    e0[0, 0] = 1
    assert compress(T, e0).item() == 0
    rng = np.random.default_rng(6)
    Q, _ = np.linalg.qr(rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))
    assert np.allclose(compress(np.eye(4, dtype=complex), Q), np.eye(2), atol=1e-12)
    with pytest.raises(ValueError, match="orthonormal"):
        compress(T, np.ones((4, 2)))


@settings(max_examples=300)
@given(depth_families())
def test_forced_lanczos_windows_are_the_depth_cuts(case):
    # with the crossover at two columns, every complex window the eigensolver
    # would see takes Lanczos, and real ones keep LAPACK: each norm stays
    # within the Gram bound of its SVD, and the seeded start makes a rerun
    # bit-identical
    M, family, wide = case
    rdepth, cdepth, count = family
    with pytest.MonkeyPatch.context() as mp:
        oracles.force_lanczos(mp)
        norms = operator_norm(M, family)
        assert operator_norm(M, family) == norms
    for k, got in enumerate(norms):
        W = M[np.ix_(rdepth >= k, cdepth >= k)]
        if wide:
            assert got == oracles.svd_fallback(W), k
        else:
            assert abs(got - oracles._norm(oracles.cropped(W))) <= oracles.gram_bound(W), k


def _solver_sizes(mp: pytest.MonkeyPatch) -> tuple[list[int], list[int]]:
    """Spy on both eigenvalue paths of the norm kernel: the orders of the matrices each one sees."""
    lanczos, lapack = [], []
    run, top = operators._lanczos_top, operators._top_eigenvalue

    def spy_run(H, start, budget):
        lanczos.append(H.shape[0])
        return run(H, start, budget)

    def spy_top(H):
        lapack.append(H.shape[0])
        return top(H)

    mp.setattr(operators, "_lanczos_top", spy_run)
    mp.setattr(operators, "_top_eigenvalue", spy_top)
    return lanczos, lapack


def _blocks_of_ones(sizes) -> np.ndarray:
    """Block-diagonal matrix of all-ones blocks: its Gram spectrum is the squared sizes and 0."""
    M = np.zeros((sum(sizes), sum(sizes)))
    at = 0
    for s in sizes:
        M[at : at + s, at : at + s] = 1.0
        at += s
    return M


def _identity_compression() -> np.ndarray:
    """C* C for the z1-shift C compressed to the z1^6 z2^6 model space on (24, 24), as the benchmark takes it."""
    ms = modelspace.model_basis(from_coefficients(2, 1, [((6, 6), 1.0)]), Box((24, 24)))
    C = modelspace.compressed_shift(ms, 0)
    return C.conj().T @ C


def test_lanczos_breakdown_on_invariant_krylov_spaces():
    # Gram matrices with a few distinct eigenvalues: the Krylov space is
    # invariant after as many steps, beta is roundoff, and only the breakdown
    # rule keeps the next vector from being roundoff over roundoff.  The
    # first two and C*C break down after one step, the blocks of ones (six
    # distinct eigenvalues with 0) after six, each between two stopping tests.
    # The factor 1j keeps each matrix complex, on the Lanczos side.
    rng = np.random.default_rng(19)
    perm = rng.permutation(300)
    partial = np.zeros((300, 300))
    partial[perm[:270], np.arange(270)] = 1.0  # a 0/1 partial isometry on 270 columns
    cases = [
        (0.25j * np.eye(300), 0.25),
        (1j * partial, 1.0),
        (1j * _blocks_of_ones([1, 2, 3, 4, 5] * 20), 5.0),
        (1j * _identity_compression(), 1.0),  # 239 columns
    ]
    for M, want in cases:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(operators, "_band_order", lambda *args: None)  # each support is sparse: keep it off the band path
            lanczos, lapack = _solver_sizes(mp)
            got = operator_norm(M)
        assert lanczos and not lapack, (lanczos, lapack)
        assert abs(got - want) <= oracles.gram_bound(M), (got, want)


def test_lanczos_start_reaches_columns_new_to_the_window():
    # the top singular value sits only in the outer shell's new columns:
    # the inner window's Ritz vector, padded with zeros, has no part in it
    rng = np.random.default_rng(20)
    M = np.zeros((240, 240), dtype=complex)
    M[:200, :200] = rng.standard_normal((200, 200)) + 1j * rng.standard_normal((200, 200))
    M[200:, 200:] = 10 * (rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40)))
    depth = np.repeat([1, 0], [200, 40])
    with pytest.MonkeyPatch.context() as mp:
        lanczos, lapack = _solver_sizes(mp)
        norms = operator_norm(M, (depth, depth, 2))
    assert lanczos == [200, 240] and not lapack
    for k, got in enumerate(norms):
        W = M[np.ix_(depth >= k, depth >= k)]
        assert abs(got - oracles._norm(W)) <= oracles.gram_bound(W), k


def test_lanczos_value_below_the_inner_window_is_recomputed(monkeypatch):
    # a window holds its inner window, so a Lanczos value below the inner
    # one is a missed eigenvalue: the window goes to LAPACK instead
    rng = np.random.default_rng(21)
    M = rng.standard_normal((240, 240)) + 1j * rng.standard_normal((240, 240))
    depth = np.repeat([1, 0], [200, 40])
    run = operators._lanczos_top

    def low(H, start, budget):
        out = run(H, start, budget)
        return (out[0] / 2, out[1]) if H.shape[0] == 240 else out

    monkeypatch.setattr(operators, "_lanczos_top", low)
    lanczos, lapack = _solver_sizes(monkeypatch)
    norms = operator_norm(M, (depth, depth, 2))
    assert lanczos == [200, 240] and lapack == [240]
    for k, got in enumerate(norms):
        W = M[np.ix_(depth >= k, depth >= k)]
        assert abs(got - oracles._norm(W)) <= oracles.gram_bound(W), k


def test_lanczos_budget_falls_back_on_clustered_spectra():
    # a 1-D Toeplitz section's top singular values cluster near the symbol's
    # maximum, so Lanczos needs more steps than the budget allows (about
    # 200 at c = 320) and the window's LAPACK call takes over
    rng = np.random.default_rng(22)
    tri = toeplitz(from_coefficients(1, 1, [((1,), 1.0), ((-1,), 1.0)]), Box((319,))).matrix
    M = tri + 1e-3 * (rng.standard_normal((320, 320)) + 1j * rng.standard_normal((320, 320)))
    with pytest.MonkeyPatch.context() as mp:
        lanczos, lapack = _solver_sizes(mp)
        got = operator_norm(M)
    assert lanczos == [320] and lapack == [320]
    assert abs(got - oracles._norm(M)) <= oracles.gram_bound(M)


@pytest.mark.parametrize("gap", [1e-4, 1e-8])
def test_lanczos_resolves_a_near_degenerate_top_pair(gap):
    # singular values 1 and 1 - gap above a spectrum in [0, 0.5]: the second
    # Ritz value lags the second eigenvalue, so a residual over the Ritz gap
    # would stop between the two; the residual rule waits for the top one
    rng = np.random.default_rng(23)

    def unitary():
        Q, _ = np.linalg.qr(rng.standard_normal((200, 200)) + 1j * rng.standard_normal((200, 200)))
        return Q

    s = np.concatenate([[1.0, 1.0 - gap], np.sort(rng.uniform(0, 0.5, 198))[::-1]])
    M = (unitary() * s) @ unitary().conj().T
    with pytest.MonkeyPatch.context() as mp:
        lanczos, lapack = _solver_sizes(mp)
        got = operator_norm(M)
    assert lanczos == [200] and not lapack
    assert abs(got - oracles._norm(M)) <= oracles.gram_bound(M), got


def test_real_windows_keep_lapack():
    # ?syevr costs about a quarter of ?heevr, and real windows take it at
    # every size; a real-valued complex matrix counts as real
    rng = np.random.default_rng(24)
    M = rng.standard_normal((300, 300))
    for A in (M, M.astype(complex)):
        with pytest.MonkeyPatch.context() as mp:
            lanczos, lapack = _solver_sizes(mp)
            got = operator_norm(A)
        assert not lanczos and lapack == [300]
        assert abs(got - oracles._norm(M)) <= oracles.gram_bound(M)
