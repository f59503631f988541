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
import pytest

from polytoep import operators
from polytoep.analysis import (
    asymptotic_decompose,
    compactness_profile,
    recover_symbol,
    toeplitz_defect,
)
from polytoep.lattice import Box
from polytoep.modelspace import (
    compressed_shift,
    invariance_kernel,
    model_basis,
    model_compactness_test,
)
from polytoep.operators import TruncatedOperator, apply_fast, toeplitz
from polytoep.symbols import from_coefficients, random_symbol

import oracles
from test_oracles import check_all_ops, random_operator, toeplitz_plus_noise


def report(k, message):
    print(f"\nACCEPTANCE {k}: PASS - {message}")


def low_layer_noise(box: Box, m0: int, p: int, rng) -> np.ndarray:
    """Random operator supported on rows and columns with all exponents < m0."""
    d = p * box.dim
    K = np.zeros((d, d), dtype=complex)
    low = [i for i, k in enumerate(oracles.enumerate_basis(box)) if max(k) < m0]
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
    basis = oracles.enumerate_basis(box)
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
            for m, c in zip(prof.m, prof.c_m):
                if m >= m0:
                    assert c == 0.0
            assert prof.c_m[m0 - 1] > 0

    N = 128
    diag = np.diag(1.0 / (np.arange(N) + 1.0)).astype(complex)
    T = TruncatedOperator(Box((127,)), 1, diag)
    prof = compactness_profile(T, 32, tol=1e-12)
    for m in range(33):
        assert abs(prof.c_m[m] - 1.0 / (m + 1)) <= 1e-12
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


def _eigensolver_calls(mp: pytest.MonkeyPatch) -> tuple[list[int], list[tuple[int, int]]]:
    """Spy on the norm kernel's dense and band eigensolvers: each dense order, and each band's order and half-width."""
    dense, band = [], []
    top, band_top = operators._top_eigenvalue, operators._band_top
    mp.setattr(operators, "_top_eigenvalue", lambda H: dense.append(H.shape[0]) or top(H))
    mp.setattr(operators, "_band_top", lambda G, perm, b: band.append((perm.size, b)) or band_top(G, perm, b))
    return dense, band


@pytest.mark.parametrize("d", [64, 128, 256])
def test_criterion_3_flip_families_take_the_band_path(d):
    # D_e of the flip has +1 and -1 on two anti-diagonals, so its Gram matrix
    # couples columns two apart: two paths, one per parity.  The remainder
    # is the flip less a multiple of I, whose Gram matrix couples column k
    # with column d - k only.  Both order into bands of half-width 1, so no
    # window of either family reaches the dense eigensolver.
    with pytest.MonkeyPatch.context() as mp:
        dense, band = _eigensolver_calls(mp)
        res = asymptotic_decompose(flip(d), tol=1e-6)
    assert abs(res.witness["step_norm"] - 2 * math.cos(math.pi / (d + 1))) <= 1e-12
    assert not dense and band and {b for _, b in band} == {1}, (dense, band)
    report("3 (flip on the band path)", f"d = {d}: {len(band)} band windows, no dense one")


def test_criterion_2_toeplitz_section_compactness_on_the_band_path():
    # The section of a span-2 symbol on (511,) is pentadiagonal, so its Gram
    # family is a band of half-width 4, and every window of 64 columns or
    # more (449 of them) takes the band solver, where a dense one would pay
    # c^3 on each
    T = toeplitz(random_symbol(1, 2, rng=np.random.default_rng(110)), Box((511,)))
    with pytest.MonkeyPatch.context() as mp:
        dense, band = _eigensolver_calls(mp)
        start = time.perf_counter()
        prof = compactness_profile(T, 512)
        elapsed = time.perf_counter() - start
    assert max(dense) < 64 and len(band) == 449 and {b for _, b in band} == {4}, (dense, band)
    assert elapsed < 6.0, elapsed
    for m in (0, 200, 460):  # c_0 is ||T||
        W = T.matrix[m:, m:]
        assert abs(prof.c_m[m] - oracles._norm(W)) <= oracles.gram_bound(W), m
    report(2, f"(511,) Toeplitz section: 513 c_m in {elapsed:.2f} s, 449 windows on the band path")


@pytest.mark.parametrize("p", [1, 2])
def test_criterion_3_remainder_witness_names_the_failing_pair(p):
    # Two operators on (15, 15), each shift-invariant in every direction
    # separately in the limit yet not Toeplitz + compact: T_(z + 1/z) in z1
    # on the face {x_2 = 0}, and the axis swap e_(0, k) -> e_(k, 0).  Every
    # final step is 0.0 and c_m plateaus, so the verdict fails on the
    # remainder; the witness names the cross term that carries the plateau,
    # (0, 0) for the face and (0, 1) for the swap, where every other final
    # term is 0.0.  At p = 2 each operator is tensored with I_2.
    box = Box((15, 15))
    face, swap = np.zeros((256, 256), dtype=complex), np.zeros((256, 256), dtype=complex)
    l1 = np.arange(15)
    face[16 * l1, 16 * (l1 + 1)] = face[16 * (l1 + 1), 16 * l1] = 1.0
    swap[16 * np.arange(16), np.arange(16)] = 1.0
    for K, pair, plateau in ((face, [0, 0], 2 * math.cos(math.pi / 10)), (swap, [0, 1], 1.0)):
        res = asymptotic_decompose(TruncatedOperator(box, p, np.kron(K, np.eye(p))))
        assert not res.verdict
        assert all(s.step_norms[-1] == 0.0 for s in res.sequences)
        w = res.witness
        assert w["kind"] == "remainder_not_compact" and w["pair"] == pair
        finals = {(ct["i"], ct["j"]): ct["norms"][-1] for ct in w["cross_terms"]}
        assert finals.pop(tuple(pair)) == pytest.approx(plateau, abs=1e-12)
        assert set(finals.values()) == {0.0}
        assert w["c_m"][-1] == pytest.approx(plateau, abs=1e-12)
    report(f"3 (remainder witness, p = {p})", "face and axis-swap operators name cross terms (0, 0) and (0, 1)")


def test_criterion_4_inclusion_exclusion_identity():
    for n in (1, 2, 3):
        box = Box((4,) * n)
        for m in (1, 2):
            total = np.zeros((box.dim, box.dim), dtype=complex)
            for size in range(1, n + 1):
                for subset in itertools.combinations(range(n), size):
                    prod = np.eye(box.dim, dtype=complex)
                    for i in subset:
                        prod = prod @ oracles.shift_oracle(box, i, 1)
                    prod_m = np.linalg.matrix_power(prod, m)
                    total += (-1) ** (size + 1) * (prod_m @ prod_m.conj().T)
            lhs = np.eye(box.dim) - oracles.layer_projector_oracle(box, m, 1)
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
        dense = T.matrix @ v
        fast = apply_fast(T, v)
        assert np.linalg.norm(fast - dense) <= 1e-10 * np.linalg.norm(dense)

    box = Box((63, 63))
    sym = random_symbol(2, 2, rng=rng)
    T = toeplitz(sym, box)
    assert T.dim == 4096
    v = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
    T.matrix @ v, apply_fast(T, v)  # warm both paths
    dense_times, fast_times = [], []
    for _ in range(20):
        t0 = time.perf_counter()
        T.matrix @ v
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
