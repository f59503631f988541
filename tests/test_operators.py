import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from polytoep.lattice import Box, enumerate_basis
from polytoep.operators import (
    TruncatedOperator,
    apply_dense,
    apply_fast,
    compress,
    identity,
    layer_projector,
    operator_norm,
    shift,
    toeplitz,
)
from polytoep.symbols import from_coefficients, random_symbol

from oracles import _blk, layer_projector_oracle, shift_oracle


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


def test_shift_examples():
    box = Box((1, 1))
    S = shift(box, 0)
    assert _blk(S, (1, 0), (0, 0)).item() == 1
    assert _blk(S, (1, 1), (0, 1)).item() == 1
    assert np.abs(S.matrix[:, 2]).sum() == 0  # (1,0) has no room to shift
    assert np.abs(S.matrix[:, 3]).sum() == 0

    S1 = shift(Box((2,)), 0)
    assert np.array_equal(S1.matrix, np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=complex))


def test_shift_equals_toeplitz_of_coordinate():
    box = Box((2, 3))
    for j in range(2):
        k = tuple(1 if i == j else 0 for i in range(2))
        sym = from_coefficients(2, 1, [(k, 1)])
        assert np.array_equal(shift(box, j).matrix, toeplitz(sym, box).matrix)


def test_shift_adjoint_identity():
    box = Box((4,))
    S = shift(box, 0)
    top = np.zeros((5, 5))
    top[4, 4] = 1
    assert np.array_equal(S.matrix.conj().T @ S.matrix, np.eye(5) - top)


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("caps", [(0,), (3,), (2, 0), (0, 3), (2, 3), (1, 0, 2)])
def test_shift_and_layer_projector_match_loop_oracles(caps, p):
    box = Box(caps)
    for j in range(box.n):
        assert np.array_equal(shift(box, j, p).matrix, shift_oracle(box, j, p))
    for m in range(min(caps) + 2):
        assert np.array_equal(layer_projector(box, m, p).matrix, layer_projector_oracle(box, m, p))


def test_layer_projector_examples():
    box = Box((4,))
    F = layer_projector(box, 2)
    assert np.array_equal(F.matrix, np.diag([1.0, 1, 0, 0, 0]))
    assert np.array_equal(layer_projector(box, 0).matrix, np.zeros((5, 5)))
    with pytest.raises(ValueError):
        layer_projector(box, 6)


def test_layer_projector_rank():
    for caps, m, p in [((3, 3), 2, 1), ((3, 3), 3, 2), ((2, 2, 2), 1, 1)]:
        box = Box(caps)
        F = layer_projector(box, m, p=p)
        n = box.n
        assert int(np.trace(F.matrix).real) == p * m**n
        assert np.array_equal(F.matrix @ F.matrix, F.matrix)
        assert np.array_equal(F.matrix.conj().T, F.matrix)


def test_layer_projector_product_formula():
    box = Box((3, 4))
    for m in (1, 2, 3):
        F = layer_projector(box, m)
        prod = identity(box)
        for i in range(2):
            S = shift(box, i)
            Sm = np.linalg.matrix_power(S.matrix, m)
            prod = TruncatedOperator(box, 1, prod.matrix @ (np.eye(box.dim) - Sm @ Sm.conj().T))
        assert np.abs(prod.matrix - F.matrix).max() == 0.0


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
                        prod = prod @ shift(box, i).matrix
                    prod_m = np.linalg.matrix_power(prod, m)
                    total += (-1) ** (size + 1) * prod_m @ prod_m.conj().T
            lhs = np.eye(box.dim) - layer_projector(box, m).matrix
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
        dense = apply_dense(T, v)
        fast = apply_fast(T, v)
        assert np.linalg.norm(fast - dense) <= 1e-10 * np.linalg.norm(dense)


def test_apply_fast_shift_symbol():
    box = Box((4, 4))
    z1 = from_coefficients(2, 1, [((1, 0), 1)])
    T = toeplitz(z1, box)
    rng = np.random.default_rng(2)
    v = rng.standard_normal(T.dim)
    assert np.allclose(apply_fast(T, v), shift(box, 0).matrix @ v, atol=1e-12)


def test_apply_fast_requires_tag():
    box = Box((3,))
    op = TruncatedOperator(box, 1, np.eye(4, dtype=complex))
    with pytest.raises(ValueError, match="toeplitz"):
        apply_fast(op, np.ones(4))


def test_algebra_identities():
    box = Box((5,))
    S = shift(box, 0).matrix
    top = np.zeros((6, 6), dtype=complex)
    top[5, 5] = 1
    P = TruncatedOperator(box, 1, top)
    assert np.array_equal((TruncatedOperator(box, 1, S.conj().T @ S) + P).matrix, np.eye(6))
    rng = np.random.default_rng(9)
    T = TruncatedOperator(box, 1, rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    assert np.array_equal((T + T - T).matrix, T.matrix)


def test_algebra_rejects_mismatched_boxes():
    A = identity(Box((2,)))
    B = identity(Box((3,)))
    with pytest.raises(ValueError):
        _ = A + B


def test_operator_norm_examples():
    box = Box((4,))
    assert operator_norm(identity(box).matrix) == pytest.approx(1.0, abs=1e-12)
    e0 = np.zeros((5, 5), dtype=complex)
    e0[0, 0] = 1
    assert operator_norm(e0) == pytest.approx(1.0, abs=1e-12)
    proj = layer_projector(Box((3, 3)), 2)
    assert abs(operator_norm(proj.matrix) - 1.0) <= 1e-12


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


def test_operator_norm_keeps_nan_entries():
    # cropping a NaN away would read 0.0; LAPACK either fails or returns NaN
    M = np.zeros((4, 4))
    M[1, 2] = np.nan
    try:
        got = operator_norm(M)
    except np.linalg.LinAlgError:
        return
    assert np.isnan(got)


def test_compress():
    box = Box((3,))
    T = shift(box, 0).matrix
    full = np.eye(4, dtype=complex)
    assert np.array_equal(compress(T, full), T)
    e0 = np.zeros((4, 1), dtype=complex)
    e0[0, 0] = 1
    assert compress(T, e0).item() == 0
    rng = np.random.default_rng(6)
    Q, _ = np.linalg.qr(rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))
    assert np.allclose(compress(identity(box).matrix, Q), np.eye(2), atol=1e-12)
    with pytest.raises(ValueError, match="orthonormal"):
        compress(T, np.ones((4, 2)))
