"""Production analysis paths against brute-force loop oracles."""

import numpy as np
import pytest

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
            seq = asymptotic_sequence(T, j, m_max, tol=1e-6)
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


@pytest.mark.nightly
def test_oracle_equivalence_exhaustive():
    rng = np.random.default_rng(2024)
    for box in oracles.all_boxes_up_to(64, max_n=3):
        check_all_ops(random_operator(box, 1, rng), rng)
