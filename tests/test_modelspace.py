import numpy as np
import pytest

from polytoep import modelspace
from polytoep.lattice import Box, enumerate_basis
from polytoep.modelspace import (
    compressed_shift,
    invariance_kernel,
    invariance_residual,
    model_basis,
    model_compactness_test,
)
from polytoep.operators import shift
from polytoep.symbols import blaschke_factor, from_coefficients, product_inner

from oracles import stacked_invariance_oracle


def monomial(n, k, p=1):
    return from_coefficients(n, p, [(tuple(k), np.eye(p))])


def test_model_basis_z_squared():
    ms = model_basis(monomial(1, (2,)), Box((5,)))
    assert ms.q == 2
    want = np.zeros((6, 2))
    want[0, 0] = want[1, 1] = 1
    assert np.array_equal(ms.basis, want)
    assert ms.safe_box.caps == (3,)


def test_model_basis_z1z2():
    ms = model_basis(monomial(2, (1, 1)), Box((3, 3)))
    assert ms.q == 16 - 9 == 7
    basis_rows = np.nonzero(ms.basis)[0]
    monomials = [enumerate_basis(Box((3, 3)))[r] for r in basis_rows]
    assert all(min(k) == 0 for k in monomials)


def test_model_basis_constant_theta():
    ms = model_basis(monomial(2, (0, 0)), Box((2, 2)))
    assert ms.q == 0
    assert ms.basis.shape == (9, 0)


def test_model_basis_rejects_non_inner():
    bad = from_coefficients(1, 1, [((0,), 1), ((1,), 1)])
    with pytest.raises(ValueError, match="inner"):
        model_basis(bad, Box((4,)))


def test_model_basis_rejects_oversized_theta():
    with pytest.raises(ValueError, match="safe box"):
        model_basis(monomial(1, (7,)), Box((5,)))


def test_model_basis_orthogonality_invariants():
    b = blaschke_factor(0.5, 6)  # tail 2^-6 * 1.5: must fit inside the box caps
    theta = product_inner([b, blaschke_factor(0.0, 1)])
    ms = model_basis(theta, Box((6, 4)), tol=2e-2)
    gram = ms.basis.conj().T @ ms.basis
    assert np.abs(gram - np.eye(ms.q)).max() < 1e-10
    # complement columns really annihilate the analytic columns
    from polytoep.modelspace import _analytic_columns

    cols = _analytic_columns(theta, Box((6, 4)), ms.safe_box)
    assert np.abs(ms.basis.conj().T @ cols).max() < 1e-10


def test_compressed_shift_jordan_block():
    ms = model_basis(monomial(1, (2,)), Box((5,)))
    C = compressed_shift(ms, 0)
    assert np.array_equal(C, np.array([[0, 0], [1, 0]], dtype=complex))


def test_compressed_shift_theta_z():
    ms = model_basis(monomial(1, (1,)), Box((4,)))
    assert ms.q == 1
    C = compressed_shift(ms, 0)
    assert C.shape == (1, 1) and C.item() == 0


def test_compressed_shift_contraction():
    theta = product_inner([blaschke_factor(0.5, 5), blaschke_factor(0.3, 5)])
    ms = model_basis(theta, Box((5, 5)), tol=5e-2)
    for i in range(2):
        C = compressed_shift(ms, i)
        assert np.linalg.norm(C, 2) <= 1 + 1e-10


def test_compressed_shift_adjoint_relation():
    # the adjoint of the compression is the compression of the adjoint
    ms = model_basis(monomial(2, (1, 1)), Box((3, 3)))
    for i in range(2):
        C = compressed_shift(ms, i)
        S = shift(ms.box, i, ms.p).matrix
        direct = ms.basis.conj().T @ S.conj().T @ ms.basis
        assert np.abs(C.conj().T - direct).max() < 1e-14


def test_invariance_residual_examples():
    ms = model_basis(monomial(1, (2,)), Box((5,)))
    assert invariance_residual(ms, np.zeros((2, 2))) == [0.0]
    res = invariance_residual(ms, np.eye(2))
    assert res[0] == pytest.approx(1.0, abs=1e-12)
    C = compressed_shift(ms, 0)
    res = invariance_residual(ms, C.conj().T @ C)
    assert res[0] == pytest.approx(1.0, abs=1e-12)


def test_invariance_kernel_nilpotent_exact():
    for N in range(2, 7):
        ms = model_basis(monomial(1, (N,)), Box((N + 2,)))
        rep = invariance_kernel(ms, tol=1e-8)
        assert rep.kernel_dim == 0
        assert rep.sigma_min >= 0.1
        assert rep.method == "dense-svd"


def test_invariance_kernel_trivial_shift():
    ms = model_basis(monomial(1, (1,)), Box((3,)))
    rep = invariance_kernel(ms)
    assert rep.kernel_dim == 0
    assert rep.sigma_min == pytest.approx(1.0, abs=1e-12)


def test_invariance_kernel_z1z2_matches_oracle():
    ms = model_basis(monomial(2, (1, 1)), Box((3, 3)))
    rep = invariance_kernel(ms, tol=1e-8)
    assert rep.kernel_dim == 0
    shifts = [compressed_shift(ms, i) for i in range(2)]
    L = stacked_invariance_oracle(shifts)
    sigma_oracle = np.linalg.svd(L, compute_uv=False)[-1]
    assert rep.sigma_min == pytest.approx(sigma_oracle, abs=1e-10)


def test_model_compactness_nilpotent():
    rng = np.random.default_rng(0)
    N = 4
    ms = model_basis(monomial(1, (N,)), Box((2 * N,)))
    T = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    rep = model_compactness_test(ms, T, m_max=N + 2, tol=1e-12)
    assert rep.norms[0][N - 1 :] == [0.0] * 3
    assert rep.verdict


def test_model_compactness_zero_operator():
    ms = model_basis(monomial(2, (1, 1)), Box((4, 4)))
    rep = model_compactness_test(ms, np.zeros((ms.q, ms.q)), m_max=3)
    assert all(n == 0.0 for seq in rep.norms for n in seq)
    assert rep.verdict


def test_model_compactness_identity_plateau():
    ms = model_basis(monomial(2, (1, 1)), Box((5, 5)))
    rep = model_compactness_test(ms, np.eye(ms.q), m_max=3, tol=1e-6)
    for seq in rep.norms:
        for v in seq:
            assert v == pytest.approx(1.0, abs=1e-10)
    assert not rep.verdict


def test_dimension_law_monomial_inner():
    for caps, alpha in [((3, 3), (1, 1)), ((4, 2), (2, 1)), ((5,), (3,)), ((2, 2, 2), (1, 2))]:
        if len(caps) != len(alpha):
            alpha = alpha + (0,) * (len(caps) - len(alpha))
        box = Box(caps)
        ms = model_basis(monomial(len(caps), alpha), box)
        want = box.dim - np.prod([c + 1 - a for c, a in zip(caps, alpha)])
        assert ms.q == want


def test_block_model_space():
    theta = monomial(1, (2,), p=2)
    ms = model_basis(theta, Box((4,)))
    assert ms.q == 2 * 5 - 2 * 3 == 4
    C = compressed_shift(ms, 0)
    # block Jordan structure: shifts the two C^2 layers, nilpotent of order 2
    assert np.abs(np.linalg.matrix_power(C, 2)).max() == 0.0
    rep = model_compactness_test(ms, np.eye(4), m_max=3, tol=1e-12)
    assert rep.norms[0][1] == 0.0
    kr = invariance_kernel(ms, tol=1e-8)
    assert kr.kernel_dim == 0


def test_invariance_kernel_lanczos_is_deterministic(monkeypatch):
    monkeypatch.setattr(modelspace, "DENSE_KERNEL_BUDGET", 0)
    ms = model_basis(monomial(2, (1, 1)), Box((4, 4)))
    first = invariance_kernel(ms, tol=1e-8).to_dict()
    assert first["method"] == "lanczos"
    assert first == invariance_kernel(ms, tol=1e-8).to_dict()
