"""Production analysis paths against brute-force loop oracles."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polytoep.analysis import (
    asymptotic_sequence,
    compactness_profile,
    cross_term_profile,
    recover_symbol,
    section,
    toeplitz_defect,
)
from polytoep.lattice import Box
from polytoep.operators import TruncatedOperator, toeplitz
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
    assert np.allclose(prof.values, oracles.compactness_oracle(T, m_max), atol=TOL)


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


@settings(max_examples=200)
@given(oracle_cases())
def test_sequences_equal_per_window_references(T):
    # Each sequence takes nested windows of one matrix cropped to its support;
    # the references rebuild every window from the section, so the SVD inputs
    # and hence the norms must be the same bit for bit.  The remainder after
    # recovery is sparse on perturbed Toeplitz cases, the section itself dense.
    box = T.box
    for dirs in [(j,) for j in range(box.n)] + [tuple(range(box.n))]:
        m_max = min(box.caps[j] for j in dirs)
        assert asymptotic_sequence(T, dirs, m_max).step_norms == oracles.step_norms_reference(T, dirs, m_max)
    remainder = T - toeplitz(recover_symbol(T).symbol, box)
    for K in (T, remainder):
        for i, j in itertools.product(range(box.n), repeat=2):
            m_max = min(box.caps[i], box.caps[j])
            assert cross_term_profile(K, i, j, m_max).norms == oracles.cross_norms_reference(K, i, j, m_max)
        m_max = min(box.caps) + 1
        assert compactness_profile(K, m_max).values == oracles.compactness_reference(K, m_max)


@pytest.mark.nightly
def test_oracle_equivalence_exhaustive():
    rng = np.random.default_rng(2024)
    for box in oracles.all_boxes_up_to(64, max_n=3):
        check_all_ops(random_operator(box, 1, rng), rng)
