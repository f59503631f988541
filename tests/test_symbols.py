import math
import sys

import numpy as np
import pytest

from polytoep.symbols import (
    _block_norms,
    blaschke_factor,
    default_grid,
    evaluate_grid,
    from_coefficients,
    is_inner,
    multiply,
    product_inner,
    random_symbol,
)

from oracles import allclose, max_coeff_difference, symbol_value_oracle

E12 = np.array([[0, 1], [0, 0]], dtype=complex)


def test_from_coefficients_basic():
    sym = from_coefficients(2, 1, [((0, 0), 2), ((1, 0), 1), ((0, -1), 1)])
    assert sym.coeff((0, 0)).item() == 2
    assert sym.coeff((1, 0)).item() == 1
    assert sym.coeff((5, 5)).item() == 0
    assert sym.tail_bound == 0.0


def test_from_coefficients_block():
    sym = from_coefficients(1, 2, [((1,), E12)])
    assert np.array_equal(sym.coeff((1,)), E12)


def test_from_coefficients_rejects_duplicates_and_mismatches():
    with pytest.raises(ValueError, match="duplicate"):
        from_coefficients(2, 1, [((0, 0), 1), ((0, 0), 2)])
    with pytest.raises(ValueError, match="length"):
        from_coefficients(2, 1, [((0,), 1)])
    with pytest.raises(ValueError, match="shape"):
        from_coefficients(1, 2, [((0,), np.eye(3))])


def _grid_error(sym, grid) -> float:
    """Largest block-norm gap between evaluate_grid and the pointwise oracle over the grid."""
    vals = evaluate_grid(sym, grid)
    worst = 0.0
    for t in np.ndindex(*grid):
        point = [2.0 * np.pi * ti / g for ti, g in zip(t, grid)]
        worst = max(worst, np.linalg.norm(vals[t] - symbol_value_oracle(sym, point), 2))
    return worst


def test_evaluate_pointwise():
    sym = from_coefficients(1, 1, [((0,), 2), ((1,), 1)])
    vals = evaluate_grid(sym, (2,))  # theta = 0 and pi
    for t, want in [(0, 3), (1, 1)]:
        assert vals[t].item() == pytest.approx(want)
        assert symbol_value_oracle(sym, (np.pi * t,)).item() == pytest.approx(want)
    blk = from_coefficients(1, 2, [((1,), E12)])
    assert np.allclose(evaluate_grid(blk, (2,))[0], E12)
    assert np.allclose(symbol_value_oracle(blk, (0.0,)), E12)


def test_samples_round_trip_exponential():
    sym = from_coefficients(1, 1, [((0,), 2), ((1,), 1)])
    assert _grid_error(sym, (8,)) <= 1e-12


def test_samples_constant():
    one = from_coefficients(2, 1, [((0, 0), 1)])
    assert np.allclose(evaluate_grid(one, (4, 4)), 1.0, atol=1e-15)
    assert _grid_error(one, (4, 4)) <= 1e-15


def test_dft_round_trip_random():
    rng = np.random.default_rng(7)
    for n, span, p in [(1, 3, 1), (2, 2, 1), (1, 2, 2), (3, 1, 1)]:
        sym = random_symbol(n, span, p=p, rng=rng)
        assert _grid_error(sym, default_grid(sym)) < 1e-12 * sym.sup_norm_estimate()


def test_multiply_polynomials():
    one_plus = from_coefficients(1, 1, [((0,), 1), ((1,), 1)])
    one_minus = from_coefficients(1, 1, [((0,), 1), ((1,), -1)])
    prod = multiply(one_plus, one_minus)
    want = from_coefficients(1, 1, [((0,), 1), ((2,), -1), ((1,), 0)])
    assert allclose(prod, want)


def test_multiply_identity_and_monomials():
    theta = from_coefficients(2, 1, [((1, 1), 1), ((2, 0), 0.5)])
    one = from_coefficients(2, 1, [((0, 0), 1)])
    assert allclose(multiply(theta, one), theta)
    za = from_coefficients(2, 1, [((1, 0), 1)])
    zb = from_coefficients(2, 1, [((0, 1), 1)])
    assert allclose(multiply(za, zb), from_coefficients(2, 1, [((1, 1), 1)]))


def test_multiply_commutative_associative_scalar():
    rng = np.random.default_rng(3)
    a = random_symbol(2, 1, rng=rng)
    b = random_symbol(2, 1, rng=rng)
    c = random_symbol(2, 1, rng=rng)
    assert max_coeff_difference(multiply(a, b), multiply(b, a)) < 1e-12
    assert (
        max_coeff_difference(multiply(multiply(a, b), c), multiply(a, multiply(b, c)))
        < 1e-10
    )


def test_multiply_dimension_mismatch():
    a = from_coefficients(1, 1, [((0,), 1)])
    b = from_coefficients(2, 1, [((0, 0), 1)])
    with pytest.raises(ValueError):
        multiply(a, b)


def test_blaschke_zero_center():
    sym = blaschke_factor(0.0, 5)
    assert allclose(sym, from_coefficients(1, 1, [((1,), 1)]))
    assert sym.tail_bound == 0.0


def test_blaschke_half():
    sym = blaschke_factor(0.5, 2)
    assert sym.coeff((0,)).item() == pytest.approx(-0.5)
    assert sym.coeff((1,)).item() == pytest.approx(0.75)
    assert sym.coeff((2,)).item() == pytest.approx(0.375)
    assert sym.tail_bound == pytest.approx(0.375)


def test_blaschke_rejects_boundary():
    with pytest.raises(ValueError):
        blaschke_factor(1.0, 4)


def test_blaschke_certificate_within_tail():
    for a, D in [(0.5, 12), (0.3 + 0.4j, 20), (0.9, 60)]:
        sym = blaschke_factor(a, D)
        cert = is_inner(sym, (256,), tol=0.0)
        assert cert.max_deviation <= sym.tail_bound * (1 + 1e-9) + 1e-14
        assert cert.passed


def test_product_inner():
    z = blaschke_factor(0.0, 1)
    prod = product_inner([z, z])
    assert allclose(prod, from_coefficients(2, 1, [((1, 1), 1)]))
    z2 = multiply(z, z)
    one = from_coefficients(1, 1, [((0,), 1)])
    assert allclose(product_inner([z2, one]), from_coefficients(2, 1, [((2, 0), 1)]))


def test_product_inner_with_blaschke_tail():
    b = blaschke_factor(0.5, 8)
    z = blaschke_factor(0.0, 1)
    prod = product_inner([b, z])
    assert prod.n == 2
    cert = is_inner(prod, (64, 8), tol=1e-10)
    assert cert.passed
    assert cert.tail_allowance > 0


def test_is_inner_examples():
    z1z2 = from_coefficients(2, 1, [((1, 1), 1)])
    cert = is_inner(z1z2, (16, 16), tol=1e-10)
    assert cert.passed and cert.max_deviation <= 1e-14

    cert = is_inner(blaschke_factor(0.5, 40), (64,), tol=1e-8)
    assert cert.passed

    bad = from_coefficients(1, 1, [((0,), 1), ((1,), 1)])
    cert = is_inner(bad, (16,), tol=1e-10)
    assert not cert.passed


def test_is_inner_requires_analytic():
    sym = from_coefficients(1, 1, [((-1,), 1)])
    with pytest.raises(ValueError, match="analytic"):
        is_inner(sym)


def test_exact_inner_block_is_unitary_on_grid():
    theta = from_coefficients(1, 2, [((1,), np.array([[0, 1], [1, 0]], dtype=complex))])
    cert = is_inner(theta, (32,), tol=0.0)
    assert cert.passed and cert.max_deviation < 1e-14


def test_default_grid_powers_of_two():
    sym = from_coefficients(1, 1, [((-3,), 1), ((5,), 1)])
    assert default_grid(sym) == (32,)  # span 8 -> 17 -> 32


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_block_norms_are_lapack_per_block(p, dtype):
    # one LAPACK call per nonzero block, whatever the stack around it; |b| for p = 1
    rng = np.random.default_rng(p)
    B = rng.standard_normal((6, 5, p, p)) + 1j * rng.standard_normal((6, 5, p, p))
    if dtype is float:
        B = B.real.copy()
    B[rng.random((6, 5)) < 0.3] = 0.0
    B[0, 0] = -0.0
    want = np.abs(B[..., 0, 0]) if p == 1 else np.array([[np.linalg.norm(b, ord=2) for b in row] for row in B])
    if dtype is complex:
        # a finite entry whose modulus is above the largest float: LAPACK's
        # SVD reads NaN there, and the block's norm is inf
        B[5, 4, 0, 0] = complex(sys.float_info.max, sys.float_info.max)
        want[5, 4] = math.inf
    assert np.array_equal(_block_norms(B), want)
    assert all(np.array_equal(_block_norms(b), w) for b, w in zip(B[1], want[1]))
