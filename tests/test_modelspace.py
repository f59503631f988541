import itertools
import math
from dataclasses import asdict
from unittest import mock

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from polytoep import modelspace
from polytoep.lattice import Box
from polytoep.modelspace import (
    compressed_shift,
    invariance_kernel,
    model_basis,
    model_compactness_test,
)
from polytoep.operators import _gather
from polytoep.symbols import blaschke_factor, from_coefficients, product_inner

import oracles
from oracles import analytic_columns_oracle, enumerate_basis, shift_oracle, stacked_invariance_oracle


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
    cols = analytic_columns_oracle(theta, Box((6, 4)), ms.safe_box)
    assert np.abs(ms.basis.conj().T @ cols).max() < 1e-10


@pytest.mark.parametrize("theta, caps", [
    (blaschke_factor(0.5, 6), (9,)),
    (product_inner([blaschke_factor(0.5, 3), blaschke_factor(-0.25j, 2)]), (5, 4)),
    (monomial(2, (2, 1)), (4, 1)),
    (monomial(1, (3,)), (3,)),  # safe box (0,)
    (monomial(1, (2,), p=2), (4,)),
    (monomial(3, (1, 0, 2)), (2, 0, 3)),  # zero cap
])
def test_gathered_columns_match_loop_oracle(theta, caps):
    box = Box(caps)
    safe = modelspace._safe_box(theta, box)
    got, want = _gather(theta, box, safe), analytic_columns_oracle(theta, box, safe)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


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
        S = shift_oracle(ms.box, i, ms.p)
        direct = ms.basis.conj().T @ S.conj().T @ ms.basis
        assert np.abs(C.conj().T - direct).max() < 1e-14


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


@pytest.mark.parametrize("theta, caps, permutes", [
    (monomial(1, (3,)), (3,), True),  # a partial permutation: one nested family of T
    (blaschke_factor(0.5, 6), (9,), False),  # a dense compressed shift: the products
    (monomial(2, (1, 1)), (2, 2), True),
])
def test_model_compactness_non_finite_entry_is_inf_everywhere(theta, caps, permutes):
    # a NaN or infinite entry of T is an unbounded operator: inf at every m in
    # every direction, on either path, even where no I_m holds the entry
    ms = model_basis(theta, Box(caps))
    for i in range(ms.n):
        C = compressed_shift(ms, i)
        ones = np.isin(C, (0.0, 1.0)).all()
        assert permutes == (ones and np.count_nonzero(C, axis=0).max() <= 1 and np.count_nonzero(C, axis=1).max() <= 1)
    for bad in (math.inf, complex(0.0, -math.inf), math.nan):
        T = np.eye(ms.q, dtype=complex)
        T[0, 0] = bad
        for m_max in (1, 2):
            rep = model_compactness_test(ms, T, m_max)
            assert rep.norms == [[math.inf] * m_max] * ms.n and not rep.verdict


def monomial_theta(n, p, k, k2):
    """z^k I_p, or diag(z^k, z^k2) at p = 2."""
    if p == 1 or k == k2:
        return monomial(n, k, p)
    return from_coefficients(n, 2, [(tuple(k), np.diag([1.0, 0.0])), (tuple(k2), np.diag([0.0, 1.0]))])


OPERATOR_KINDS = ("complex", "real", "identity", "zero", "zero-rows")


def compactness_operator(kind, q, rng):
    if kind == "identity":
        return np.eye(q, dtype=complex)
    if kind == "zero":
        return np.zeros((q, q), dtype=complex)
    T = rng.standard_normal((q, q)) + (0.0 if kind == "real" else 1j * rng.standard_normal((q, q)))
    if kind == "zero-rows":
        T[rng.random(q) < 0.5] = 0
    return T


def check_model_compactness(ms, T, m_max):
    """Every norm within `oracles.gram_bound` of the dense product's SVD, and 0.0 exactly on a zero product.

    An empty space (theta constant) is refused, as `invariance_kernel` refuses it.
    """
    if ms.q == 0:
        with pytest.raises(ValueError, match="empty model space"):
            model_compactness_test(ms, T, m_max)
        return
    assert all(modelspace._partial_map(compressed_shift(ms, i)) is not None for i in range(ms.n))
    rep = model_compactness_test(ms, T, m_max)
    oracle = oracles.model_compactness_oracle(ms, T, m_max)
    for seq, wants, windows in zip(rep.norms, oracle, oracles.model_compactness_windows(ms, T, m_max), strict=True):
        for got, want, W in zip(seq, wants, windows, strict=True):
            assert abs(got - want) <= oracles.gram_bound(W), (got, want)
            if not W.any():  # an empty I_m, or T zero on it
                assert got == 0.0 and math.copysign(1.0, got) == 1.0


@st.composite
def monomial_compactness_cases(draw):
    """A monomial space over n, p <= 2 with m_max below and past nilpotency, and a T of each kind."""
    n, p = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    caps = tuple(draw(st.lists(st.integers(0, 7 if n == 1 else 3), min_size=n, max_size=n)))
    k, k2 = (tuple(draw(st.integers(0, c)) for c in caps) for _ in range(2))
    ms = model_basis(monomial_theta(n, p, k, k2), Box(caps))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    T = compactness_operator(draw(st.sampled_from(OPERATOR_KINDS)), ms.q, rng)
    return ms, T, draw(st.integers(1, max(caps) + 2))


@settings(max_examples=100)
@given(monomial_compactness_cases())
def test_model_compactness_matches_dense_products(case):
    check_model_compactness(*case)


@pytest.mark.nightly
def test_model_compactness_matches_dense_products_exhaustive():
    # every monomial space on caps up to 9 (n = 1) and (4, 4) (n = 2), at p = 1
    # and 2 (diag(z^k, z^k2) at n = 1), every kind of T, every m_max up to
    # two past the largest cap
    rng = np.random.default_rng(25)
    for n, top in ((1, 9), (2, 4)):
        for caps in itertools.product(range(top + 1), repeat=n):
            exps = list(itertools.product(*(range(c + 1) for c in caps)))
            thetas = [monomial_theta(n, p, k, k) for p in (1, 2) for k in exps]
            if n == 1:
                thetas += [monomial_theta(1, 2, k, k2) for k, k2 in itertools.combinations(exps, 2)]
            for theta in thetas:
                ms = model_basis(theta, Box(caps))
                for kind in OPERATOR_KINDS:
                    T = compactness_operator(kind, ms.q, rng)
                    for m_max in range(1, max(caps) + 3):
                        check_model_compactness(ms, T, m_max)


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


def test_invariance_kernel_lanczos_is_deterministic():
    ms = model_basis(monomial(2, (1, 1)), Box((6, 6)))
    assert ms.q == 13 > modelspace.DENSE_MAX_Q
    first = asdict(invariance_kernel(ms, tol=1e-8))
    assert first["method"] == "lanczos"
    assert first == asdict(invariance_kernel(ms, tol=1e-8))


def blaschke_pair(degree):
    return product_inner([blaschke_factor(0.5, degree), blaschke_factor(-0.5j, degree)])


# (theta, caps): q = 10, 16 (n = 1), 9, 16 (n = 2), 10, 14 (n = 3), one on each
# side of the dense/Lanczos crossover per dimension, and q = 14 at p = 2;
# z^16 and z1z2z3 have repeated singular values, b2*b2 has distinct ones, and
# the p = 2 space is two copies of z1z2's, so each of its values is fourfold.
PROBE_SPACES = [
    (monomial(1, (10,)), (12,)),
    (monomial(1, (16,)), (18,)),
    (monomial(2, (1, 1)), (4, 4)),
    (blaschke_pair(2), (4, 4)),
    (monomial(3, (1, 1, 1)), (2, 1, 1)),
    (monomial(3, (1, 1, 1)), (2, 2, 1)),
    (monomial(2, (1, 1), p=2), (3, 3)),
]


def oracle_singular_values(ms):
    shifts = [ms.basis.conj().T @ shift_oracle(ms.box, i, ms.p) @ ms.basis for i in range(ms.n)]
    return np.linalg.svd(stacked_invariance_oracle(shifts), compute_uv=False)


@pytest.mark.parametrize("theta, caps", PROBE_SPACES)
def test_invariance_kernel_matches_dense_oracle(theta, caps):
    ms = model_basis(theta, Box(caps))
    svals = oracle_singular_values(ms)
    rep = invariance_kernel(ms, tol=1e-8)
    dense = ms.q <= modelspace.DENSE_MAX_Q
    assert rep.method == ("dense-svd" if dense else "lanczos")
    assert abs(rep.sigma_min - svals[-1]) <= 1e-10
    assert rep.kernel_dim == 0
    assert (rep.matvecs == 0) == dense and (rep.residual == 0.0) == dense
    assert rep.residual <= 1e-8


@pytest.mark.parametrize("theta, caps, tol", [
    (blaschke_pair(2), (4, 4), 0.9),    # 14 distinct singular values below tol
    (monomial(1, (16,)), (18,), 0.7),   # 62, most of them in equal pairs
    (monomial(2, (2, 1)), (4, 4), 0.95),  # 11, in equal pairs but the first
])
def test_invariance_kernel_counts_every_sigma_within_tol(theta, caps, tol):
    ms = model_basis(theta, Box(caps))
    assert ms.q > modelspace.DENSE_MAX_Q
    svals = oracle_singular_values(ms)
    rep = invariance_kernel(ms, tol=tol)
    assert rep.method == "lanczos"
    assert rep.kernel_dim == int((svals <= tol).sum()) > 6
    assert abs(rep.sigma_min - svals[-1]) <= 1e-10


def test_compressed_shift_is_the_compression():
    spaces = [
        model_basis(blaschke_pair(3), Box((6, 6))),
        model_basis(monomial(1, (2,), p=2), Box((4,))),
        model_basis(monomial(2, (1, 0)), Box((3, 0))),  # flat direction 1: C_1 = 0
        model_basis(monomial(3, (1, 1, 1)), Box((2, 2, 1))),
    ]
    for ms in spaces:
        for i in range(ms.n):
            want = ms.basis.conj().T @ shift_oracle(ms.box, i, ms.p) @ ms.basis
            assert np.abs(compressed_shift(ms, i) - want).max() <= 1e-14
    assert not compressed_shift(spaces[2], 1).any()
    with pytest.raises(ValueError, match="out of range"):
        compressed_shift(spaces[0], 2)


def eigsh_operators(ms, tol=1e-8):
    """The operators `invariance_kernel` hands to eigsh, one per Lanczos run.

    Each applies the normal map plus a lift of the directions locked when
    the probe ended, none unless some singular value is within tol.
    """
    with mock.patch.object(scipy.sparse.linalg, "eigsh", wraps=scipy.sparse.linalg.eigsh) as spy:
        invariance_kernel(ms, tol=tol)
    return [call.args[0] for call in spy.call_args_list]


# q = 13 (n = 2), 14 (n = 3), 16 (n = 1, repeated singular values), 14 (p = 2)
HERMITIAN_SPACES = [
    model_basis(monomial(2, (1, 1)), Box((6, 6))),
    model_basis(monomial(3, (1, 1, 1)), Box((2, 2, 1))),
    model_basis(monomial(1, (16,)), Box((18,))),
    model_basis(monomial(2, (1, 1), p=2), Box((3, 3))),
]


def test_eigsh_gets_a_float64_operator():
    ms = model_basis(monomial(1, (16,)), Box((18,)))  # 62 sigma <= 0.7: several runs
    ops = eigsh_operators(ms, tol=0.7)
    assert len(ops) > 1
    for op in ops:
        assert op.dtype == np.float64 and op.shape == (ms.q**2, ms.q**2)
        assert op.matvec(np.ones(ms.q**2)).dtype == np.float64


@given(st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_hermitian_coordinates_are_an_isometry_onto_hermitian_matrices(q, seed):
    rng = np.random.default_rng(seed)
    X, Y = rng.standard_normal((2, q, q))
    A, B = modelspace._hermitian(X), modelspace._hermitian(Y)
    assert np.array_equal(A, A.conj().T)
    assert np.allclose(A.real + A.imag, X, rtol=0, atol=1e-15 * np.abs(X).max())
    inner = np.vdot(A, B).real  # Re tr(A* B)
    assert abs(inner - np.vdot(X, Y)) <= 1e-12 * np.linalg.norm(X) * np.linalg.norm(Y)
    H = rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q))
    H = H + H.conj().T  # any Hermitian matrix is the image of its own coordinates
    assert np.allclose(modelspace._hermitian(H.real + H.imag), H, rtol=0, atol=1e-15 * np.abs(H).max())


@given(st.sampled_from(range(len(HERMITIAN_SPACES))), st.integers(0, 2**32 - 1))
def test_normal_map_on_the_hermitian_half_is_symmetric(index, seed):
    ms = HERMITIAN_SPACES[index]
    normal = eigsh_operators(ms)[0].matvec
    x, y = np.random.default_rng(seed).standard_normal((2, ms.q**2))
    Nx, Ny = normal(x), normal(y)
    scale = max(np.linalg.norm(Nx) * np.linalg.norm(y), np.linalg.norm(Ny) * np.linalg.norm(x))
    assert abs(y @ Nx - x @ Ny) <= 1e-12 * scale


@pytest.mark.parametrize("index", range(len(HERMITIAN_SPACES)))
def test_hermitian_half_has_the_spectrum_of_the_normal_map(index):
    # L on H has the singular values of L on C^{q x q}, multiplicities included
    ms = HERMITIAN_SPACES[index]
    normal = eigsh_operators(ms)[0].matvec
    real = np.stack([normal(e) for e in np.eye(ms.q**2)], axis=1)
    want = oracle_singular_values(ms)[::-1] ** 2
    assert np.abs(np.linalg.eigvalsh((real + real.T) / 2) - want).max() <= 1e-12
