"""Brute-force loop oracles for the analysis operations.

Everything here walks index pairs one at a time through position lookups and
takes norms with a full dense SVD, deliberately avoiding the vectorized
gather paths used by the production code.  The box layout is the oracles'
own too: `enumerate_basis` lists the monomials with `itertools.product` and
`position` counts a monomial's ordinal digit by digit, so no oracle shares
index arithmetic with `operators`.  The `*_windows` functions are the
exception: they rebuild each window of an m-indexed sequence from the
section, so the production sequences, which take every window of one fixed
matrix in one pass, can be held to each window's own SVD within
`gram_bound`; `force_lanczos` puts every complex window of those sequences
on the norm kernel's Lanczos path, which otherwise starts at 160 columns,
and `force_band` every window on its band path.
"""

from __future__ import annotations

import itertools

import numpy as np

from polytoep import operators
from polytoep.lattice import Box
from polytoep.operators import TruncatedOperator, _cut, _window
from polytoep.symbols import TorusSymbol

EPS = np.finfo(float).eps


def enumerate_basis(box: Box) -> list[tuple[int, ...]]:
    """All in-box multi-indices in row-major order (last coordinate fastest)."""
    return list(itertools.product(*(range(c + 1) for c in box.caps)))


def position(box: Box, k) -> int:
    """Ordinal of k in enumerate_basis(box), one mixed-radix digit per variable."""
    if len(k) != box.n:
        raise ValueError(f"index {k} has length {len(k)}, box has dimension {box.n}")
    if not all(0 <= ki <= ci for ki, ci in zip(k, box.caps)):
        raise ValueError(f"index {k} outside box caps {box.caps}")
    out = 0
    for ki, ci in zip(k, box.caps):
        out = out * (ci + 1) + ki
    return out


def _blk(T: TruncatedOperator, l, k) -> np.ndarray:
    p = T.p
    i, j = position(T.box, l), position(T.box, k)
    return T.matrix[i * p : (i + 1) * p, j * p : (j + 1) * p]


def _norm(M: np.ndarray) -> float:
    if M.size == 0:
        return 0.0
    return float(np.linalg.svd(M, compute_uv=False)[0])


def _bnorm(M: np.ndarray) -> float:
    """Spectral norm of a block: |b| by numpy's array abs for a 1 x 1 block, as `symbols._block_norms` takes it."""
    return float(np.linalg.svd(M, compute_uv=False)[0]) if M.size > 1 else float(np.abs(M).item())


def defect_oracle(T: TruncatedOperator) -> tuple[list[float], float]:
    caps = T.box.caps
    basis = enumerate_basis(T.box)
    defects = []
    for j in range(T.box.n):
        worst = 0.0
        for l in basis:
            if l[j] + 1 > caps[j]:
                continue
            for k in basis:
                if k[j] + 1 > caps[j]:
                    continue
                l1 = tuple(x + (1 if i == j else 0) for i, x in enumerate(l))
                k1 = tuple(x + (1 if i == j else 0) for i, x in enumerate(k))
                worst = max(worst, _bnorm(_blk(T, l1, k1) - _blk(T, l, k)))
        defects.append(worst)
    return defects, max(defects)


def recover_oracle(T: TruncatedOperator):
    caps = T.box.caps
    basis = enumerate_basis(T.box)
    groups: dict[tuple, list] = {}
    for l in basis:
        for k in basis:
            f = tuple(a - b for a, b in zip(l, k))
            groups.setdefault(f, []).append(_blk(T, l, k))
    coeffs, spreads = {}, {}
    for f, blocks in groups.items():
        mean = sum(blocks) / len(blocks)
        spread = 0.0
        for a in blocks:
            for b in blocks:
                spread = max(spread, _bnorm(a - b))
        coeffs[f] = mean
        spreads[f] = spread
    return coeffs, spreads


def section_oracle(T: TruncatedOperator, m: int, directions) -> np.ndarray:
    caps = list(T.box.caps)
    for j in directions:
        caps[j] -= m
    inner = Box(tuple(caps))
    basis = enumerate_basis(inner)
    p = T.p
    out = np.zeros((p * len(basis), p * len(basis)), dtype=complex)
    for a, l in enumerate(basis):
        ls = tuple(x + (m if i in directions else 0) for i, x in enumerate(l))
        for b, k in enumerate(basis):
            ks = tuple(x + (m if i in directions else 0) for i, x in enumerate(k))
            out[a * p : (a + 1) * p, b * p : (b + 1) * p] = _blk(T, ls, ks)
    return out


def step_norms_oracle(T: TruncatedOperator, directions, m_max: int) -> list[float]:
    p = T.p
    out = []
    for m in range(m_max):
        big = section_oracle(T, m, directions)
        small = section_oracle(T, m + 1, directions)
        caps_m = tuple(
            c - (m if i in directions else 0) for i, c in enumerate(T.box.caps)
        )
        caps_m1 = tuple(
            c - (m + 1 if i in directions else 0) for i, c in enumerate(T.box.caps)
        )
        inner_m, inner_m1 = Box(caps_m), Box(caps_m1)
        keep = [position(inner_m, k) for k in enumerate_basis(inner_m1)]
        rows = [pos * p + c for pos in keep for c in range(p)]
        out.append(_norm(small - big[np.ix_(rows, rows)]))
    return out


def cross_norms_oracle(T: TruncatedOperator, A: TruncatedOperator, i: int, j: int, m_max: int) -> list[float]:
    K = T.matrix - A.matrix
    Kop = TruncatedOperator(T.box, T.p, K)
    caps = T.box.caps
    p = T.p
    out = []
    for m in range(1, m_max + 1):
        rows_b = Box(tuple(c - (m if d == i else 0) for d, c in enumerate(caps)))
        cols_b = Box(tuple(c - (m if d == j else 0) for d, c in enumerate(caps)))
        rbasis, cbasis = enumerate_basis(rows_b), enumerate_basis(cols_b)
        sec = np.zeros((p * len(rbasis), p * len(cbasis)), dtype=complex)
        for a, l in enumerate(rbasis):
            ls = tuple(x + (m if d == i else 0) for d, x in enumerate(l))
            for b, k in enumerate(cbasis):
                ks = tuple(x + (m if d == j else 0) for d, x in enumerate(k))
                sec[a * p : (a + 1) * p, b * p : (b + 1) * p] = _blk(Kop, ls, ks)
        out.append(_norm(sec))
    return out


def compactness_oracle(T: TruncatedOperator, m_max: int) -> list[float]:
    basis = enumerate_basis(T.box)
    p = T.p
    out = []
    for m in range(m_max + 1):
        proj = np.zeros((T.dim, T.dim))
        for pos, k in enumerate(basis):
            if all(x <= m - 1 for x in k):
                for c in range(p):
                    proj[pos * p + c, pos * p + c] = 1.0
        comp = np.eye(T.dim) - proj
        out.append(_norm(comp @ T.matrix @ comp))
    return out


def step_windows(T: TruncatedOperator, directions, m_max: int) -> list[np.ndarray]:
    """B_(m+1) - B_m for m < m_max, each step the difference of two windows of T."""
    out = []
    for m in range(m_max):
        hi, lo = _cut(T.box, directions, m + 1, 0), _cut(T.box, directions, m, 1)
        out.append(_window(T, hi, hi) - _window(T, lo, lo))
    return out


def cross_windows(K: TruncatedOperator, i: int, j: int, m_max: int) -> list[np.ndarray]:
    """K on rows from m in direction i x columns from m in direction j, m = 1..m_max."""
    return [_window(K, _cut(K.box, (i,), m, 0), _cut(K.box, (j,), m, 0)) for m in range(1, m_max + 1)]


def compactness_windows(T: TruncatedOperator, m_max: int) -> list[np.ndarray]:
    """For m = 0..m_max, the principal submatrix outside the corner, copied whole."""
    out = []
    for m in range(m_max + 1):
        outside = np.repeat([max(k) >= m for k in enumerate_basis(T.box)], T.p)
        out.append(T.matrix[np.ix_(outside, outside)])
    return out


def cropped(W: np.ndarray) -> np.ndarray:
    """W on its nonzero rows x nonzero columns."""
    return W[np.ix_(W.any(axis=1), W.any(axis=0))]


def svd_fallback(W: np.ndarray) -> float:
    """The norm kernel's value on a window without Gram scaling: W cropped, a single entry |a| by numpy's array abs, else its SVD."""
    Wc = cropped(W)
    return float(np.abs(Wc).item()) if Wc.size == 1 else _norm(Wc)


def gram_bound(W: np.ndarray) -> float:
    """Bound on |operator_norm - _norm| for a window W, from the error of its Gram matrix.

    With r rows and c columns on W's support, the Gram sum carries at most
    r*eps/2 * ||abs(W)||^2 of rounding, and the eigensolver adds about
    c*eps*||W||^2.  The square root divides an error in ||W||^2 by at least
    ||W||, since |sqrt(a) - sqrt(b)| = |a - b| / (sqrt(a) + sqrt(b)), and
    the SVD oracle is off by about max(r, c)*eps*||W|| itself.  Together
    that stays below 4*max(r, c)*eps*||abs(W)||^2/||W||, which is
    4*max(r, c)*eps*||W|| for a nonnegative W.
    """
    Wc = cropped(W)
    if Wc.size == 0:
        return 0.0
    top = _norm(np.abs(Wc))
    return 4 * max(Wc.shape) * EPS * top * (top / _norm(Wc))  # in this order, nothing over- or underflows


def force_lanczos(mp) -> None:
    """Put the norm kernel's Lanczos crossover at two columns, through a pytest MonkeyPatch.

    Every complex window that would reach LAPACK's eigensolver then takes
    Lanczos, so the small cases the oracles afford check that path too; real
    windows keep LAPACK's ?syevr at every size.
    """
    mp.setattr(operators, "_LANCZOS_MIN_COLS", 2)


def force_band(mp) -> None:
    """Let the norm kernel's band path take every finite family and window, through a pytest MonkeyPatch.

    With no columns asked per unit of half-width, every support counts as
    sparse, every band ordering fits, and every window of two or more
    columns goes to `_band_top`.
    """
    mp.setattr(operators, "_BAND_COLS_PER_WIDTH", 0)


def block_norm_grid_reference(D: np.ndarray, p: int) -> np.ndarray:
    """Spectral norm of every (p, p) block of D, zero blocks included."""
    R, C = D.shape[0] // p, D.shape[1] // p
    return np.linalg.norm(D.reshape(R, p, C, p).transpose(0, 2, 1, 3), ord=2, axis=(-2, -1))


def analytic_columns_oracle(theta: TorusSymbol, box: Box, safe: Box) -> np.ndarray:
    """Columns theta * z^k (k in the safe box), one per block component."""
    p, N = theta.p, box.dim
    cols = np.zeros((p * N, p * safe.dim), dtype=complex)
    for ci, k in enumerate(enumerate_basis(safe)):
        for s, blk in theta.coefficients.items():
            target = tuple(ki + si for ki, si in zip(k, s))
            r = position(box, target) * p
            cols[r : r + p, ci * p : (ci + 1) * p] += blk
    return cols


def shift_oracle(box: Box, direction: int, p: int) -> np.ndarray:
    """Matrix of e_k -> e_(k + e_direction), built entry by entry; the top layer maps to 0."""
    out = np.zeros((p * box.dim, p * box.dim), dtype=complex)
    for k in enumerate_basis(box):
        target = tuple(x + (i == direction) for i, x in enumerate(k))
        if target[direction] <= box.caps[direction]:
            r, c = position(box, target) * p, position(box, k) * p
            for a in range(p):
                out[r + a, c + a] = 1.0
    return out


def model_compactness_windows(ms, T: np.ndarray, m_max: int) -> list[list[np.ndarray]]:
    """For each direction i, the dense products Cs^m . T . C^m for m = 1..m_max.

    C = V* S_i V with S_i from `shift_oracle`, and C^m a matrix power, so
    no production path forms either.
    """
    out = []
    for i in range(ms.n):
        C = ms.basis.conj().T @ shift_oracle(ms.box, i, ms.p) @ ms.basis
        powers = [np.linalg.matrix_power(C, m) for m in range(1, m_max + 1)]
        out.append([Cm.conj().T @ T @ Cm for Cm in powers])
    return out


def model_compactness_oracle(ms, T: np.ndarray, m_max: int) -> list[list[float]]:
    """||C_i*^m T C_i^m|| for each direction i and m = 1..m_max, each a full SVD of the dense product."""
    return [[_norm(W) for W in seq] for seq in model_compactness_windows(ms, T, m_max)]


def layer_projector_oracle(box: Box, m: int, p: int) -> np.ndarray:
    """Diagonal 0/1 matrix with a one on each row whose monomial has every exponent below m."""
    out = np.zeros((p * box.dim, p * box.dim), dtype=complex)
    for pos, k in enumerate(enumerate_basis(box)):
        if all(x < m for x in k):
            for a in range(p):
                out[pos * p + a, pos * p + a] = 1.0
    return out


def symbol_value_oracle(sym: TorusSymbol, point) -> np.ndarray:
    """Pointwise value sum_k coeff(k) * exp(i k.theta) as a (p, p) block, one term at a time."""
    out = np.zeros((sym.p, sym.p), dtype=complex)
    for k, blk in sym.coefficients.items():
        out += blk * np.exp(1j * float(np.dot(k, point)))
    return out


def max_coeff_difference(a: TorusSymbol, b: TorusSymbol) -> float:
    """Largest block-norm discrepancy over the union of supports."""
    out = 0.0
    for k in set(a.coefficients) | set(b.coefficients):
        out = max(out, _bnorm(a.coeff(k) - b.coeff(k)))
    return out


def allclose(a: TorusSymbol, b: TorusSymbol, tol: float = 1e-12) -> bool:
    """Coefficientwise comparison treating absent frequencies as zero."""
    return a.n == b.n and a.p == b.p and max_coeff_difference(a, b) <= tol


def stacked_invariance_oracle(shifts: list[np.ndarray]) -> np.ndarray:
    """Stacked invariance-map matrix built column by column from basis matrices."""
    q = shifts[0].shape[0]
    cols = []
    for a in range(q):
        for b in range(q):
            E = np.zeros((q, q), dtype=complex)
            E[a, b] = 1.0
            pieces = [E - C.conj().T @ E @ C for C in shifts]
            cols.append(np.concatenate([piece.reshape(-1) for piece in pieces]))
    return np.stack(cols, axis=1)


def all_boxes_up_to(max_dim: int, max_n: int = 3):
    """Every box with at most max_dim basis monomials, dimensions 1..max_n."""
    out = []
    for n in range(1, max_n + 1):
        for caps in itertools.product(range(max_dim), repeat=n):
            box = Box(caps) if all(c >= 0 for c in caps) else None
            if box is not None and box.dim <= max_dim:
                out.append(box)
    return out
