"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Criterion 3 is split: the
flip operator's verdict is checked separately from its witness value.  The
witness is checked against its exact finite-section value 2cos(pi/(d+1)) on
caps (d,) and, over growing caps, against the limit 2.
"""

import itertools
import math
import time

import numpy as np

from polytoep.analysis import (
    asymptotic_decompose,
    compactness_profile,
    recover_symbol,
    toeplitz_defect,
)
from polytoep.lattice import Box, enumerate_basis
from polytoep.modelspace import (
    compressed_shift,
    invariance_kernel,
    model_basis,
    model_compactness_test,
)
from polytoep.operators import (
    TruncatedOperator,
    apply_dense,
    apply_fast,
    layer_projector,
    shift,
    toeplitz,
)
from polytoep.symbols import from_coefficients, random_symbol

import oracles
from test_oracles import check_all_ops, random_operator, toeplitz_plus_noise


def report(k, message):
    print(f"\nACCEPTANCE {k}: PASS - {message}")


def low_layer_noise(box: Box, m0: int, p: int, rng) -> np.ndarray:
    """Random operator supported on rows and columns with all exponents < m0."""
    d = p * box.dim
    K = np.zeros((d, d), dtype=complex)
    low = [i for i, k in enumerate(enumerate_basis(box)) if max(k) < m0]
    rows = [i * p + c for i in low for c in range(p)]
    vals = rng.standard_normal((len(rows), len(rows))) + 1j * rng.standard_normal(
        (len(rows), len(rows))
    )
    K[np.ix_(rows, rows)] = vals
    return K


def test_criterion_1_brown_halmos_soundness_completeness():
    rng = np.random.default_rng(101)
    box = Box((7, 7))
    N = box.dim
    basis = enumerate_basis(box)
    for _ in range(100):
        sym = random_symbol(2, 3, rng=rng)
        T = toeplitz(sym, box)
        rep = toeplitz_defect(T)
        assert rep.overall <= 1e-12
        rec = recover_symbol(T)
        rebuilt = toeplitz(rec.symbol, box)
        assert np.abs(rebuilt.matrix - T.matrix).max() <= 1e-12

        # one random detectable single-entry perturbation of magnitude 1e-3;
        # the four extreme corner-diagonal entries are the only singleton
        # diagonals, where any perturbation still yields an exactly Toeplitz
        # matrix and no test could see it
        while True:
            a, b = rng.integers(0, N, size=2)
            l, k = basis[a], basis[b]
            detectable = any(
                (l[j] < 7 and k[j] < 7) or (l[j] >= 1 and k[j] >= 1) for j in range(2)
            )
            if detectable:
                break
        M = T.matrix.copy()
        M[a, b] += 1e-3 * np.exp(2j * np.pi * rng.random())
        rep = toeplitz_defect(TruncatedOperator(box, 1, M))
        assert rep.overall >= 5e-4
    report(1, "defect 0 and exact round trip on 100 symbols; 1e-3 perturbations detected")


def test_criterion_2_compactness_profiles():
    rng = np.random.default_rng(102)
    box = Box((9, 9))
    for m0 in (1, 2, 3):
        for _ in range(4):
            K = low_layer_noise(box, m0, 1, rng)
            prof = compactness_profile(TruncatedOperator(box, 1, K), 6, tol=1e-12)
            for m, c in zip(prof.ms, prof.values):
                if m >= m0:
                    assert c == 0.0
            assert prof.values[m0 - 1] > 0

    N = 128
    diag = np.diag(1.0 / (np.arange(N) + 1.0)).astype(complex)
    T = TruncatedOperator(Box((127,)), 1, diag)
    prof = compactness_profile(T, 32, tol=1e-12)
    for m in range(33):
        assert abs(prof.values[m] - 1.0 / (m + 1)) <= 1e-12
    report(2, "c_m = 0 exactly past the support layer; diag decay matches 1/(m+1)")


def test_criterion_3_asymptotic_decomposition_random_instances():
    rng = np.random.default_rng(103)
    box = Box((11, 11))
    for _ in range(50):
        sym = random_symbol(2, 5, rng=rng)
        T = toeplitz(sym, box)
        M = T.matrix + low_layer_noise(box, 3, 1, rng)
        res = asymptotic_decompose(TruncatedOperator(box, 1, M))
        assert res.verdict, res.witness
        for f in itertools.product(range(-5, 6), repeat=2):
            diff = np.abs(res.symbol.coeff(f) - sym.coeff(f)).max()
            assert diff <= 1e-10
    report(3, "50 random Toeplitz + low-layer splits recovered exactly, verdict true")


def flip(d: int) -> TruncatedOperator:
    return TruncatedOperator(Box((d,)), 1, np.eye(d + 1)[::-1].astype(complex))


def test_criterion_3_flip_verdict_false():
    res = asymptotic_decompose(flip(8), tol=1e-6)
    assert not res.verdict
    assert res.witness["kind"] == "non_cauchy"
    assert res.witness["step_norm"] > 1.5
    report("3 (flip verdict)", "flip operator rejected as asymptotically Toeplitz")


def test_criterion_3_flip_witness_value_as_specified():
    # At step m = 0 the section B_1 - B_0 on caps (d,) is d x d; reversing its
    # columns gives the tridiagonal matrix with +1 above and -1 below the
    # diagonal, whose norm is 2cos(pi/(d+1)).  The specified value 2 is the
    # limit as the box grows, with 2 - 2cos(x) = 4sin(x/2)^2 <= x^2.
    J = flip(8)
    res = asymptotic_decompose(J, tol=1e-6)
    witness = res.witness["step_norm"]
    assert abs(witness - 2 * math.cos(math.pi / 9)) <= 1e-12
    assert abs(witness - max(oracles.step_norms_oracle(J, (0,), res.m_max))) <= 1e-12
    # even caps tie steps 0 and 1 in exact arithmetic; rounding picks worst_m
    assert res.witness["step_norms"][res.witness["worst_m"]] == witness

    previous = 0.0
    for d in (8, 16, 32, 64):
        witness = asymptotic_decompose(flip(d), tol=1e-6).witness["step_norm"]
        x = math.pi / (d + 1)
        assert abs(witness - 2 * math.cos(x)) <= 1e-12
        assert witness > previous
        assert 0 < 2 - witness <= x**2
        previous = witness
    report(
        "3 (flip witness value)",
        "witness 2cos(pi/(d+1)) to 1e-12 on caps (8,)..(64,), "
        f"rising to the limit 2 (gap {2 - previous:.2e} at d = 64)",
    )


def test_criterion_4_inclusion_exclusion_identity():
    for n in (1, 2, 3):
        box = Box((4,) * n)
        for m in (1, 2):
            total = np.zeros((box.dim, box.dim), dtype=complex)
            for size in range(1, n + 1):
                for subset in itertools.combinations(range(n), size):
                    prod = np.eye(box.dim, dtype=complex)
                    for i in subset:
                        prod = prod @ shift(box, i).matrix
                    prod_m = np.linalg.matrix_power(prod, m)
                    total += (-1) ** (size + 1) * (prod_m @ prod_m.conj().T)
            lhs = np.eye(box.dim) - layer_projector(box, m).matrix
            assert np.abs(lhs - total).max() <= 1e-13
    report(4, "corner projector inclusion-exclusion exact for n in 1..3, m in 1..2")


def test_criterion_5_model_space_rigidity():
    for N in range(2, 7):
        theta = from_coefficients(1, 1, [((N,), 1)])
        ms = model_basis(theta, Box((N + 2,)))
        rep = invariance_kernel(ms, tol=1e-8)
        assert rep.kernel_dim == 0
        assert rep.sigma_min >= 0.1

    theta = from_coefficients(2, 1, [((1, 1), 1)])
    ms = model_basis(theta, Box((4, 4)))
    rep = invariance_kernel(ms, tol=1e-8)
    assert rep.kernel_dim == 0
    shifts = [compressed_shift(ms, i) for i in range(2)]
    L = oracles.stacked_invariance_oracle(shifts)
    sigma_oracle = float(np.linalg.svd(L, compute_uv=False)[-1])
    assert abs(rep.sigma_min - sigma_oracle) <= 1e-10
    assert rep.sigma_min > 1e-8
    report(5, f"trivial kernels; sigma_min vs stacked oracle agrees ({rep.sigma_min:.3e})")


def test_criterion_6_model_compactness():
    rng = np.random.default_rng(106)
    for N in (2, 3, 4, 5, 6):
        theta = from_coefficients(1, 1, [((N,), 1)])
        ms = model_basis(theta, Box((N + 3,)))
        for _ in range(20):
            T = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
            rep = model_compactness_test(ms, T, m_max=N + 1, tol=1e-12)
            for m in range(N, N + 2):
                assert rep.norms[0][m - 1] == 0.0

    theta = from_coefficients(2, 1, [((1, 1), 1)])
    ms = model_basis(theta, Box((6, 6)))
    rep = model_compactness_test(ms, np.eye(ms.q), m_max=3, tol=1e-6)
    for seq in rep.norms:
        for v in seq:
            assert abs(v - 1.0) <= 1e-10
    assert not rep.verdict
    report(6, "nilpotent model shifts kill every operator exactly; identity plateaus at 1")


def test_criterion_7_block_layer():
    rng = np.random.default_rng(107)
    box = Box((31,))
    for _ in range(20):
        phi = random_symbol(1, 4, p=2, rng=rng)
        T = toeplitz(phi, box)
        rec = recover_symbol(T)
        assert rec.max_deviation <= 1e-12
        rebuilt = toeplitz(rec.symbol, box)
        assert np.abs(rebuilt.matrix - T.matrix).max() <= 1e-12

        M = T.matrix + low_layer_noise(box, 3, 2, rng)
        res = asymptotic_decompose(TruncatedOperator(box, 2, M))
        assert res.verdict, res.witness
        for f in range(-4, 5):
            assert np.abs(res.symbol.coeff((f,)) - phi.coeff((f,))).max() <= 1e-10
    report(7, "20 block (p=2) round trips and decompositions")


def test_criterion_8_fast_matvec_correctness_and_speed():
    rng = np.random.default_rng(108)
    pool = [
        ((31,), 6, 1),
        ((63,), 4, 1),
        ((127,), 3, 1),
        ((7, 7), 3, 1),
        ((11, 11), 2, 1),
        ((3, 3, 3), 2, 1),
        ((15,), 3, 2),
    ]
    for trial in range(100):
        caps, span, p = pool[trial % len(pool)]
        box = Box(caps)
        sym = random_symbol(box.n, span, p=p, rng=rng)
        T = toeplitz(sym, box)
        v = rng.standard_normal(T.dim) + 1j * rng.standard_normal(T.dim)
        dense = apply_dense(T, v)
        fast = apply_fast(T, v)
        assert np.linalg.norm(fast - dense) <= 1e-10 * np.linalg.norm(dense)

    box = Box((63, 63))
    sym = random_symbol(2, 2, rng=rng)
    T = toeplitz(sym, box)
    assert T.dim == 4096
    v = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
    apply_dense(T, v), apply_fast(T, v)  # warm both paths
    dense_times, fast_times = [], []
    for _ in range(20):
        t0 = time.perf_counter()
        apply_dense(T, v)
        t1 = time.perf_counter()
        apply_fast(T, v)
        t2 = time.perf_counter()
        dense_times.append(t1 - t0)
        fast_times.append(t2 - t1)
    dense_med = float(np.median(dense_times))
    fast_med = float(np.median(fast_times))
    assert fast_med * 10 <= dense_med, (dense_med, fast_med)
    report(
        8,
        f"100 matvecs within 1e-10; N=4096 speedup x{dense_med / fast_med:.1f} (>= x10)",
    )


def test_criterion_9_oracle_equivalence_sampled():
    rng = np.random.default_rng(109)
    boxes = [((5,), 1), ((63,), 1), ((15,), 2), ((7, 7), 1), ((3, 3), 2), ((2, 2, 2), 1)]
    for caps, p in boxes:
        box = Box(caps)
        check_all_ops(random_operator(box, p, rng), rng)
        check_all_ops(toeplitz_plus_noise(box, p, rng), rng)
    report(9, "production paths match loop oracles on N <= 64 sample (nightly: exhaustive)")
