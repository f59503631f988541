"""Production analysis paths against brute-force loop oracles."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polytoep import operators
from polytoep.analysis import (
    _step,
    asymptotic_sequence,
    compactness_profile,
    cross_term_profile,
    recover_symbol,
    section,
    toeplitz_defect,
)
from polytoep.lattice import Box
from polytoep.operators import TruncatedOperator, _exponents, toeplitz
from polytoep.symbols import random_symbol

import oracles

TOL = 1e-10


def random_operator(box: Box, p: int, rng) -> TruncatedOperator:
    d = p * box.dim
    M = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return TruncatedOperator(box, p, M)


def toeplitz_plus_noise(box: Box, p: int, rng) -> TruncatedOperator:
    T = toeplitz(random_symbol(box.n, min(box.caps), p=p, rng=rng), box)
    d = p * box.dim
    K = np.zeros((d, d), dtype=complex)
    K[: 2 * p, : 2 * p] = rng.standard_normal((2 * p, 2 * p))
    return TruncatedOperator(box, p, T.matrix + K)


def check_all_ops(T: TruncatedOperator, rng) -> None:
    box = T.box
    defects, overall = oracles.defect_oracle(T)
    rep = toeplitz_defect(T)
    assert np.allclose(rep.defects, defects, atol=TOL)
    assert abs(rep.overall - overall) <= TOL

    coeffs, spreads = oracles.recover_oracle(T)
    rec = recover_symbol(T)
    for f, want in coeffs.items():
        assert np.abs(rec.symbol.coeff(f) - want).max() <= TOL
        assert abs(rec.deviations[f] - spreads[f]) <= TOL

    m_cap = min(box.caps)
    if m_cap >= 1:
        m_max = min(2, m_cap)
        for j in range(box.n):
            seq = asymptotic_sequence(T, (j,), m_max, tol=1e-6)
            want_steps = oracles.step_norms_oracle(T, (j,), m_max)
            assert np.allclose(seq.step_norms, want_steps, atol=TOL)
            for m in range(m_max + 1):
                assert np.allclose(
                    section(T, m, (j,)).matrix,
                    oracles.section_oracle(T, m, (j,)),
                    atol=0,
                )
        A = toeplitz(rec.symbol, box)
        for i in range(box.n):
            for j in range(box.n):
                prof = cross_term_profile(T - A, i, j, m_max)
                assert np.allclose(
                    prof.norms, oracles.cross_norms_oracle(T, A, i, j, m_max), atol=TOL
                )

    m_max = min(box.caps) + 1
    prof = compactness_profile(T, m_max, tol=1e-6)
    assert np.allclose(prof.c_m, oracles.compactness_oracle(T, m_max), atol=TOL)


SAMPLED_BOXES = [
    ((5,), 1),
    ((63,), 1),
    ((15,), 2),
    ((3, 3), 1),
    ((7, 7), 1),
    ((1, 3), 2),
    ((2, 2, 2), 1),
    ((0, 3, 7), 1),
    ((1, 1, 1), 2),
]


@pytest.mark.parametrize("caps,p", SAMPLED_BOXES)
def test_oracle_equivalence_sampled(caps, p):
    rng = np.random.default_rng(hash((caps, p)) % 2**32)
    box = Box(caps)
    check_all_ops(random_operator(box, p, rng), rng)
    if min(box.caps) >= 1:
        check_all_ops(toeplitz_plus_noise(box, p, rng), rng)


@st.composite
def oracle_cases(draw):
    """A random operator, or a Toeplitz section perturbed on a random support, with p * N <= 16."""
    n, p = draw(st.integers(1, 3)), draw(st.sampled_from([1, 2]))
    room, caps = 16 // p, []
    for _ in range(n):  # zero caps included
        caps.append(draw(st.integers(0, room - 1)))
        room //= caps[-1] + 1
    box = Box(tuple(caps))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return random_operator(box, p, rng)
    T = toeplitz(random_symbol(n, draw(st.integers(0, max(caps))), p=p, rng=rng), box)
    d = p * box.dim
    M = T.matrix.copy()
    for a, b in draw(st.lists(st.tuples(st.integers(0, d - 1), st.integers(0, d - 1)), max_size=6)):
        M[a, b] += complex(*rng.standard_normal(2))
    return TruncatedOperator(box, p, M)


@settings(max_examples=300)
@given(oracle_cases())
def test_oracle_equivalence_property(T):
    check_all_ops(T, None)


def _eigensolver_spectra(mp: pytest.MonkeyPatch) -> list[np.ndarray]:
    """Spy on the norm kernel's eigensolvers: each input's full spectrum, taken before LAPACK overwrites it.

    A band solve's input is G on perm x perm, which must vanish more than b
    places off the diagonal.
    """
    seen = []
    top, band = operators._top_eigenvalue, operators._band_top

    def spy(H):
        seen.append(np.linalg.eigvalsh(H, UPLO="U"))
        return top(H)

    def spy_band(G, perm, b):
        H = G[np.ix_(perm, perm)]
        assert not np.triu(H, b + 1).any(), b
        seen.append(np.linalg.eigvalsh(H, UPLO="U"))
        return band(G, perm, b)

    mp.setattr(operators, "_top_eigenvalue", spy)
    mp.setattr(operators, "_band_top", spy_band)
    return seen


def check_family(norms, M: np.ndarray, windows, outer, seen: list) -> None:
    """One norm family of M against its reference windows, rebuilt one by one.

    Each value is within `oracles.gram_bound` of the window's own SVD, 0.0
    exactly on an empty window and |a| by numpy's array abs on a single
    entry a, as `oracles.svd_fallback` takes it.  The
    kernel walks from the innermost window outward, and each eigensolver
    input must be the Gram matrix, scaled by 4**-exp, of exactly the
    window's cropped support: as many rows and columns as the support has
    on the Gram side, and the support's squared singular values as its
    spectrum.  The Gram side is the one with fewer nonzero lines in outer,
    the (row, column) masks of the family's outermost window.  One-column
    and empty windows need no eigensolver.
    """
    scan = operators._scan(M)
    by_rows = np.count_nonzero(scan.rows & outer[0]) < np.count_nonzero(scan.cols & outer[1])
    solved = []
    for got, W in zip(norms, windows, strict=True):
        Wc = oracles.cropped(W)
        want = oracles._norm(Wc)
        assert abs(got - want) <= oracles.gram_bound(W), (got, want)
        if Wc.size == 0:
            assert got == 0.0 and math.copysign(1.0, got) == 1.0
        if Wc.size == 1 and scan.exp is not None:
            assert got == oracles.svd_fallback(W)
        if scan.exp is not None and Wc.shape[0 if by_rows else 1] > 1:
            solved.append(Wc)
    assert len(seen) == len(solved)
    for spectrum, Wc in zip(seen, reversed(solved)):
        side = Wc.shape[0 if by_rows else 1]
        assert spectrum.size == side
        Ws = Wc * 2.0 ** -scan.exp
        want = np.zeros(side)
        want[: min(Wc.shape)] = np.linalg.svd(Ws, compute_uv=False) ** 2
        want.sort()
        tol = oracles.gram_bound(Ws) * oracles._norm(Ws)
        assert np.abs(spectrum - want).max() <= tol
    seen.clear()


def norm_families(T: TruncatedOperator, with_remainder: bool = True):
    """(norms, matrix, reference windows, outer) of every step, cross-term and compactness family of T, and of its remainder.

    outer holds the row and column masks of the family's outermost window.

    A generator: each family's norms are taken when it is drawn, under
    whatever patches the caller holds at that moment.
    """
    box = T.box
    x = _exponents(box, T.p)
    matrices = [T]
    if with_remainder:
        matrices.append(T - toeplitz(recover_symbol(T).symbol, box))
    for dirs in [(j,) for j in range(box.n)] + [tuple(range(box.n))]:
        m_max = min(box.caps[j] for j in dirs)
        if m_max:
            D = _step(T, dirs)
            whole = (np.ones(D.shape[0], dtype=bool),) * 2
            yield asymptotic_sequence(T, dirs, m_max).step_norms, D, oracles.step_windows(T, dirs, m_max), whole
    for K in matrices:
        for i, j in itertools.product(range(box.n), repeat=2):
            m_max = min(box.caps[i], box.caps[j])
            outer = (x[i] >= 1, x[j] >= 1)
            yield cross_term_profile(K, i, j, m_max).norms, K.matrix, oracles.cross_windows(K, i, j, m_max), outer
        m_max = min(box.caps) + 1
        whole = (np.ones(K.dim, dtype=bool),) * 2
        yield compactness_profile(K, m_max).c_m, K.matrix, oracles.compactness_windows(K, m_max), whole


def check_families(T: TruncatedOperator, with_remainder: bool = True) -> None:
    """Every step, cross-term and compactness family of T, and of its remainder, by `check_family`."""
    with pytest.MonkeyPatch.context() as mp:
        seen = _eigensolver_spectra(mp)
        for norms, M, windows, outer in norm_families(T, with_remainder):
            check_family(norms, M, windows, outer, seen)


def check_values(norms, windows) -> None:
    """Each value within `oracles.gram_bound` of its reference window's SVD; no claim on the eigensolver's input."""
    for got, W in zip(norms, windows, strict=True):
        assert abs(got - oracles._norm(oracles.cropped(W))) <= oracles.gram_bound(W), got


@settings(max_examples=200)
@given(oracle_cases())
def test_sequences_equal_per_window_references(T):
    # Each sequence takes nested windows of one matrix through one Gram
    # matrix, summed in another order than a window's own SVD would see, so
    # the values agree within the Gram bound rather than bit for bit; the
    # support each eigenvalue is taken on is the reference window's, exactly.
    # The remainder after recovery is sparse on perturbed Toeplitz cases, the
    # section itself dense.
    check_families(T)


@st.composite
def kernel_cases(draw):
    """`oracle_cases` scaled by 1 or 1e+-200, real or complex, with rows, columns and entries zeroed.

    Scaling the first half of the rows by 1e-160 as well spreads the
    magnitudes too wide for one Gram matrix, which takes the SVD fallback.
    """
    T = draw(oracle_cases())
    M = T.matrix * draw(st.sampled_from([1.0, 1e200, 1e-200]))
    if draw(st.booleans()):
        M = M.real.astype(draw(st.sampled_from([float, complex])))
    d = M.shape[0]
    M[: d // 2] *= draw(st.sampled_from([1.0, 1e-160]))
    for axis, at in draw(st.lists(st.tuples(st.sampled_from([0, 1, 2]), st.integers(0, d - 1)), max_size=d)):
        if axis == 0:
            M[at, :] = 0
        elif axis == 1:
            M[:, at] = 0
        else:
            M[at, (at * 7 + 3) % d] = 0
    return TruncatedOperator(T.box, T.p, M)


@settings(max_examples=200)
@given(kernel_cases())
def test_norm_kernel_matches_svd_oracle(T):
    check_families(T, with_remainder=False)
    box = T.box
    m_max = min(box.caps) + 1
    first = compactness_profile(T, m_max).c_m
    assert compactness_profile(T, m_max).c_m == first  # reruns are bit-identical
    for i, j in itertools.product(range(box.n), repeat=2):
        m = min(box.caps[i], box.caps[j])
        assert cross_term_profile(T, i, j, m).norms == cross_term_profile(T, i, j, m).norms


@pytest.mark.nightly
def test_oracle_equivalence_exhaustive():
    rng = np.random.default_rng(2024)
    for box in oracles.all_boxes_up_to(64, max_n=3):
        T = random_operator(box, 1, rng)
        check_all_ops(T, rng)
        check_families(T)
        # a second pass with every complex window of two or more columns on Lanczos
        with pytest.MonkeyPatch.context() as mp:
            oracles.force_lanczos(mp)
            for norms, _, windows, _ in norm_families(T):
                check_values(norms, windows)
