"""Truncated model spaces K_theta = H^2 minus theta H^2 and their compressed shifts.

There are three bases.  A theta with zeros (a scalar Blaschke-type theta,
`symbols.TorusSymbol.zeros`) gets the Takenaka-Malmquist-Walsh (TMW)
vectors of K_theta itself, cut at the caps and orthonormalized
(`_tmw_columns`): its dimension is that of K_theta on the box, whatever the
truncation degree of theta's table, and a unit vector of the span lies
within `ModelSpace.distance_bound` of K_theta, of the order of max |a|^(d+1)
per variable.  Every other theta is certified inner on a grid, and the
quotient is the orthogonal complement, inside the truncated basis, of the
exactly representable columns theta * z^k = T_theta e_k (k in the safe
sub-box where the whole product fits): a selection of monomials when theta
is monomial-type, else an SVD complement.  Near the box boundary these
columns undercount the untruncated quotient, so theorem tests should prefer
deep interiors.  Zeros all 0 give the monomial selection, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np
import scipy.sparse.linalg

from .analysis import LIMIT_TOL
from .lattice import Box, _check_directions
from .operators import _cut, _gather, _side, operator_norm
from .symbols import INNER_TOL, TorusSymbol, is_inner, tmw_series, tmw_tails

# Largest q whose invariance map takes the dense SVD when the compressed
# shifts are dense (a TMW or SVD basis); a selection basis takes the
# difference split at every q.  On TMW Blaschke spaces (|a| = 1/2, best of 3,
# alternating, one BLAS thread, 2-vCPU VM) at n = 2 the dense SVD took 0.56,
# 1.23, 3.48, 5.27, 7.42 and 39.9 ms at q = 7, 9, 11, 12, 13 and 19, Lanczos
# 2.89, 3.49, 4.57, 4.50, 4.71 and 7.52 ms; a rerun tied at q = 11 (3.96
# against 3.83 ms).  At n = 1 Lanczos converges more slowly and the dense
# SVD stays ahead up to q = 21 (50.5 against 57.5 ms at 21, 80.5 against
# 70.7 at 23); one constant serves both, set at the n = 2 crossover.
# sigma_min agreed within 5e-16.  At q = 1 eigsh has no Lanczos path (it
# needs k < q^2).
DENSE_MAX_Q = 11

# Smallest Krylov dimension of a Lanczos run in `invariance_kernel`.  On the
# TMW spaces of b_a(z1) b_b(z2), |a| = |b| = 1/2, on (6,6), (9,9), (12,12)
# and (15,15) (q = 13, 19, 25, 31) the probe takes 65, 81, 97 and 97
# matvecs at 32 against 71, 81, 91 and 101 at ARPACK's default 20, and the
# times are within about 12% either way (median of 15, alternating, one
# BLAS thread, 2-vCPU VM).  The default gains nothing, and 32 keeps the
# matvecs that b3*b3's report states.
NCV = 32

KERNEL_TOL = 1e-8  # singular values of the invariance map at most this count toward its kernel


@dataclass(eq=False)
class ModelSpace:
    """Orthonormal basis of the truncated quotient of theta on a box.

    Everything else is read off theta and the box: the block size, and the
    safe sub-box (caps minus theta's reach, `_safe_box`).
    """

    theta: TorusSymbol
    box: Box
    basis: np.ndarray

    @property
    def n(self) -> int:
        return self.box.n

    @property
    def p(self) -> int:
        return self.theta.p

    @property
    def q(self) -> int:
        return self.basis.shape[1]

    @cached_property
    def distance_bound(self) -> float | None:
        """For theta with zeros, how far a unit vector of the span may lie from K_theta; else None.

        A unit v = T c, T the columns of `_tmw_columns`, lies
        ||sum_j c_j t_j|| from the vector with each column's K_theta_i factor
        uncut, which is in K_theta; t_j is column j's cut-off part, of norm
        nu_j.  So the distance is at most ||nu||_2 ||c|| <= ||nu||_2 /
        sigma_min(T): of the order of max |a|^(d + 1) over the variables'
        zeros and caps.  It is 0 when every zero is 0.
        """
        if self.theta.zeros is None:
            return None
        T, nu = _tmw_columns(self.theta.zeros, self.box)
        if not nu.any():
            return 0.0
        return float(np.linalg.norm(nu) / np.linalg.svd(T, compute_uv=False)[-1])

    @cached_property
    def selection_rows(self) -> np.ndarray | None:
        """The row of each basis column on a selection basis, else None (`_selection_rows`).

        Read once, at first use; the basis is not to change after that.
        Every monomial theta's basis from `model_basis` is a selection, and
        so is that of a theta whose zeros are all 0.
        """
        return _selection_rows(self.basis)


def _safe_box(theta: TorusSymbol, box: Box) -> Box:
    """Caps minus theta's reach: its top frequency, or its number of zeros in each variable.

    For theta given by coefficients it holds the k for which theta * z^k
    fits the box; for theta with zeros, the exponents of the theta z^k
    parts of the TMW basis (`_tmw_columns`).  The two agree on z^m.
    """
    hi = tuple(int(h) for h in theta.freq_range()[1]) if theta.zeros is None else tuple(len(z) for z in theta.zeros)
    caps = tuple(int(c - h) for c, h in zip(box.caps, hi))
    if any(c < 0 for c in caps):
        raise ValueError(f"empty safe box: support reach {hi} does not fit caps {box.caps}")
    return Box(caps)


def _tmw_vectors(zeros, d: int) -> np.ndarray:
    """Columns j = 0..d: the first d + 1 TMW vectors of (zeros, 0, 0, ...) cut at z^d (`symbols.tmw_series`).

    The first len(zeros) span K_B, B the product of the zeros' factors, and
    the rest are B z^k.  Every zero 0 gives the identity, exactly.
    """
    return tmw_series((tuple(zeros) + (0j,) * (d + 1))[: d + 1], d)[0]


def _tmw_columns(zeros, box: Box) -> tuple[np.ndarray, np.ndarray]:
    """The spanning columns of a theta with zeros on the box, and the norm nu of each one's cut-off part.

    With m_i = len(zeros_i) <= d_i (`_safe_box`), K_theta is the orthogonal sum
    over i of (theta_1 H^2 x ... x theta_(i-1) H^2) x K_theta_i x H^2 x ...
    x H^2.  Cut at the caps, summand i is spanned by the tensor products of
    TMW vectors j_l >= m_l in each variable l < i (`_tmw_vectors`), one
    j_i < m_i in variable i and the monomials z^k in each variable after i:
    the multi-indices j with some j_l < m_l.  The columns come in the
    row-major order of j, which for zeros all 0 is the row order of the
    monomial selection basis.  Only the K_theta_i factor has a part that
    matters beyond the caps: every column with that factor uncut lies in
    K_theta, so nu is that part's norm (`symbols.tmw_tails`) times the
    norms of the other factors.
    """
    side = [d + 1 for d in box.caps]
    m = [len(z) for z in zeros]
    vectors = [_tmw_vectors(z, d) for z, d in zip(zeros, box.caps)]
    tails = [tmw_tails(z, d) for z, d in zip(zeros, box.caps)]
    cols, nus, labels = [], [], []
    for i in range(box.n):
        ranges = [np.arange(m[l] if l < i else 0, m[l] if l == i else side[l]) for l in range(box.n)]
        factors = [vectors[l][:, r] if l <= i else np.eye(side[l]) for l, r in enumerate(ranges)]
        norms = [
            np.linalg.norm(F, axis=0) if l < i else tails[l] if l == i else np.ones(side[l])
            for l, F in enumerate(factors)
        ]
        cols.append(reduce(np.kron, factors))
        nus.append(reduce(np.kron, norms))
        labels.append(np.ravel_multi_index(np.meshgrid(*ranges, indexing="ij"), side).reshape(-1))
    order = np.argsort(np.concatenate(labels))
    return np.hstack(cols)[:, order], np.concatenate(nus)[order]


def _selection_rows(V: np.ndarray) -> np.ndarray | None:
    """The row of each column when every column of V is a distinct standard basis vector; else None.

    Each column must hold exactly one nonzero entry, equal to 1.0, and no two
    columns share a row.  Such a V has V*V = I exactly, and every compressed
    shift V* S V is a partial permutation (`_shift_maps`).  Passed the support
    V != 0, it tests the support alone.
    """
    nonzero = V != 0  # a NaN entry counts as nonzero, so it is never a selection
    if not (nonzero.sum(axis=0) == 1).all():
        return None
    rows = nonzero.argmax(axis=0)
    if not (V[rows, np.arange(V.shape[1])] == 1.0).all() or np.unique(rows).size != rows.size:
        return None
    return rows


def _shift_maps(box: Box, p: int, rows: np.ndarray) -> list[np.ndarray]:
    """pi_i for every direction i of a selection basis whose column b sits on row rows[b].

    C_i[pi_i[b], b] = 1 is the only nonzero entry of column b of the
    compressed shift: row r of k goes to row r + stride_i of k + e_i, and
    pi_i[b] is the column on that row.  pi_i[b] = -1, a zero column, where
    k_i = d_i or that row is outside the basis.
    """
    side = _side(box, p)
    col = np.full(math.prod(side), -1)
    col[rows] = np.arange(rows.size)
    k = np.unravel_index(rows, side)
    maps = []
    for i, d in enumerate(box.caps):
        pi = np.full(rows.size, -1)
        up = k[i] < d
        pi[up] = col[rows[up] + math.prod(side[i + 1 :])]
        maps.append(pi)
    return maps


def model_basis(theta: TorusSymbol, box: Box, tol: float = INNER_TOL, grid_sizes=None) -> ModelSpace:
    """Construct the truncated model space of an inner theta.

    A theta with zeros is inner because every |a| < 1 (`TorusSymbol`), with
    no grid, and spans K_theta itself, cut at the caps (`_tmw_columns`):
    its dimension does not depend on the truncation degree of the table.
    The columns are orthonormalized by one QR, each phase set so that R
    has a positive diagonal; zeros all 0 give a selection, kept as it is.

    A theta given by coefficients alone must pass the grid certificate
    (`symbols.is_inner`), with a tail allowance no larger than tol: a
    larger one would certify anything.  Monomial-type symbols keep the
    canonical monomial complement (so nilpotent identities stay exact);
    anything else gets an SVD complement of the columns theta * z^k that
    fit the box.  theta is monomial-type when each such column has one
    nonzero entry, on a row of its own, whatever its unimodular value: the
    complement is then spanned by the rows no column reaches.
    """
    if theta.n != box.n:
        raise ValueError(f"symbol dimension {theta.n} != box dimension {box.n}")
    if theta.zeros is not None:
        _safe_box(theta, box)  # refuses more zeros than a cap
        cols = _tmw_columns(theta.zeros, box)[0]
        if _selection_rows(cols) is not None:
            return ModelSpace(theta=theta, box=box, basis=cols)
        Q, R = np.linalg.qr(cols)
        d = np.diagonal(R)
        return ModelSpace(theta=theta, box=box, basis=Q * (np.abs(d) / d))
    cert = is_inner(theta, grid_sizes=grid_sizes, tol=tol)
    if not cert.passed or cert.tail_allowance > tol:
        raise ValueError(
            f"inner certification failed: deviation {cert.max_deviation:.3e} at grid point "
            f"[{', '.join(f'{t:.6g}' for t in cert.worst_point)}], tolerance {cert.tolerance:.3e} "
            f"(requested {cert.requested_tol:.3e} + tail allowance {cert.tail_allowance:.3e}); "
            "the tail allowance may not exceed the requested tolerance"
        )
    cols = _gather(theta, box, _safe_box(theta, box))
    if _selection_rows(cols != 0) is not None:
        free = np.flatnonzero(~cols.any(axis=1))
        basis = np.zeros((cols.shape[0], free.size), dtype=complex)
        basis[free, np.arange(free.size)] = 1.0
    else:
        U, S, _ = np.linalg.svd(cols, full_matrices=True)
        cutoff = max(cols.shape) * np.finfo(float).eps * (S[0] if S.size else 0.0)
        rank = int((S > cutoff).sum())
        basis = U[:, rank:]
    return ModelSpace(theta=theta, box=box, basis=basis)


def compressed_shift(ms: ModelSpace, direction: int) -> np.ndarray:
    """The q x q compression V* S V of one coordinate shift to the model space.

    S sends the row of k to the row of k + e_direction and kills the top
    layer, so V* S V is the rows of k + e_direction against the rows of k:
    two slices of the basis read as a (d_1+1, ..., d_n+1, p, q) tensor.  The
    columns of V are orthonormal by construction (`model_basis`) or by the
    check in `io.load_modelspace`.
    """
    box = ms.box
    _check_directions(box, (direction,))
    V = ms.basis.reshape(_side(box, ms.p) + (ms.q,))
    src, dst = _cut(box, (direction,), 0, 1), _cut(box, (direction,), 1, 0)
    return V[dst].reshape(-1, ms.q).conj().T @ V[src].reshape(-1, ms.q)


@dataclass
class InvarianceKernelReport:
    """Smallest singular value of the stacked map A -> (A - C_i* A C_i)_i.

    method is "difference-split" (a selection basis), "dense-svd" or
    "lanczos".  matvecs counts the applications of the normal map and
    residual is that of Lanczos's smallest Ritz pair; both are 0 on the two
    exact paths.
    """

    sigma_min: float
    kernel_dim: int
    tol: float
    q: int
    method: str
    residual: float
    matvecs: int


def _hermitian(X: np.ndarray) -> np.ndarray:
    """Hermitian matrices with real coordinates X: (X + X^T)/2 + i (X - X^T)/2.

    An isometry of R^{q x q} onto the Hermitian q x q matrices, each taken
    with the real inner product Re tr(A* B); its inverse is A -> Re A + Im A.
    """
    Xt = np.swapaxes(X, -1, -2)
    A = np.empty(X.shape, dtype=complex)
    A.real = (X + Xt) / 2
    A.imag = (X - Xt) / 2
    return A


def _difference_split(box: Box, p: int, rows: np.ndarray) -> np.ndarray:
    """Every singular value of the stacked map on a selection basis, class by class.

    With pi_i from `_shift_maps`, L_i(A)[a, b] = A[a, b] - A[pi_i a, pi_i b],
    the second term 0 where pi_i a or pi_i b is -1.  pi_i moves both rows by
    e_i, so it keeps the class of the pair (a, b): the exponent difference
    x(a) - x(b) and the block components s(a), s(b).  So L is block
    diagonal over the classes, a class of m pairs giving an (n m) x m block
    of real 0 and +-1 entries, and the singular values of L are those of the
    blocks together, multiplicities included.  The class of (b, a) is the
    mirror of that of (a, b), and its block is the same up to the order of
    the pairs, so only the class of each mirror pair with the smaller key
    takes an SVD, its values counted twice unless it is its own mirror.
    The blocks of one size take one batched SVD.
    """
    q, n = rows.size, box.n
    maps = _shift_maps(box, p, rows)
    *x, s = np.unravel_index(rows, _side(box, p))
    key = np.zeros((q, q), dtype=np.int64)
    for xj, d in zip(x, box.caps):
        key = key * (2 * d + 1) + (xj[:, None] - xj[None, :] + d)
    key = (key * p + s[:, None]) * p + s[None, :]
    mirror = key.T.reshape(-1)  # the key of the pair b * q + a
    key = key.reshape(-1)  # of the pair a * q + b
    order = np.argsort(key, kind="stable")  # the pairs, class by class
    starts = np.flatnonzero(np.diff(key[order], prepend=-1))
    sizes = np.diff(starts, append=q * q)
    copies = np.sign(mirror[order[starts]] - key[order[starts]]) + 1  # 2, 1 (its own mirror) or 0
    local = np.empty(q * q, dtype=np.int64)  # each pair's place in its class
    local[order] = np.arange(q * q) - np.repeat(starts, sizes)
    targets = []  # local index of (pi_i a, pi_i b), -1 where either is -1
    for pi in maps:
        up = pi >= 0
        target = np.full((q, q), -1)
        target[np.ix_(up, up)] = local.reshape(q, q)[np.ix_(pi[up], pi[up])]
        targets.append(target.reshape(-1))
    svals = []
    for m in np.unique(sizes):
        chosen = (sizes == m) & (copies > 0)
        if not chosen.any():
            continue
        pairs = order[starts[chosen][:, None] + np.arange(m)]  # (classes, m)
        M = np.zeros((pairs.shape[0], n, m, m))
        M[:, :, np.arange(m), np.arange(m)] = 1.0
        for i, target in enumerate(targets):
            c, j = np.nonzero(target[pairs] >= 0)
            M[c, i, j, target[pairs[c, j]]] = -1.0
        values = np.linalg.svd(M.reshape(-1, n * m, m), compute_uv=False)
        svals.append(np.repeat(values, copies[chosen], axis=0).reshape(-1))
    return np.concatenate(svals)


def invariance_kernel(ms: ModelSpace, tol: float = KERNEL_TOL) -> InvarianceKernelReport:
    """Rigidity probe: sigma_min of the invariance map and how many sigma <= tol.

    On a selection basis (`ModelSpace.selection_rows`, every monomial
    theta) each C_i is a partial permutation and the stacked map splits by
    exponent difference (`_difference_split`): every singular value is computed, so
    sigma_min and kernel_dim are exact, with no Krylov run.

    A dense C_i (a TMW or SVD basis) takes one of two paths, both on the stacked
    map L on the Hermitian matrices H only.  For q <= DENSE_MAX_Q, a dense
    SVD of L on all q^2 coordinates of H.  Above it, Lanczos (`eigsh`,
    ARPACK's real symmetric `dsaupd`) on the normal map restricted to H,
    matrix-free and started from a fixed seeded vector so that reruns give
    identical reports.  That half is exact: L_i(A*) =
    L_i(A)*, so the normal map keeps H; C^{q x q} = H + iH is orthogonal in
    Re tr(A* B), and multiplying by i carries L on H onto L on iH, so L on H
    has the singular values of L, with the same multiplicities.  `_hermitian`
    gives H real coordinates, which makes L a real map on R^{q^2} and the
    normal map a real symmetric operator of size q^2.

    Each run asks for k eigenpairs, k = 1 first, from a Krylov space of
    dimension max(2k + 1, NCV).  The singular values are those of the
    stacked map on the orthonormalized Ritz vectors, not square roots of
    Ritz values, which would lose half the digits near zero.  The directions
    with sigma <= tol are locked and lifted out of the normal map, and the
    next run doubles k while all k were within tol.  The probe stops at the
    first run that finds none, so kernel_dim counts even the copies of a
    multiple singular value that one Krylov run misses.  The residual is
    that of the smallest Ritz pair of the first run.
    """
    q = ms.q
    if q < 1:
        raise ValueError("empty model space has no invariance map")
    rows = ms.selection_rows
    if rows is not None:
        svals = _difference_split(ms.box, ms.p, rows)
        return InvarianceKernelReport(float(svals.min()), int((svals <= tol).sum()), tol, q, "difference-split", 0.0, 0)
    S = np.stack([compressed_shift(ms, i) for i in range(ms.n)])
    SH = np.ascontiguousarray(S.conj().transpose(0, 2, 1))
    dim = q * q

    def stacked(A):  # (..., q, q) -> (..., n, q, q)
        A = A[..., None, :, :]
        return A - SH @ A @ S

    def image(W):  # the stacked map on the columns of W, coordinates in H, as a real [Re; Im] matrix
        R = stacked(_hermitian(W.T.reshape(-1, q, q))).reshape(W.shape[1], -1)
        return np.hstack([R.real, R.imag]).T

    if q <= DENSE_MAX_Q:
        svals = np.linalg.svd(image(np.eye(dim)), compute_uv=False)
        return InvarianceKernelReport(float(svals[-1]), int((svals <= tol).sum()), tol, q, "dense-svd", 0.0, 0)

    def normal(x):  # coordinates of A in H -> coordinates of N(A)
        R = stacked(_hermitian(x.reshape(q, q)))
        N = (R - S @ R @ SH).sum(axis=0)
        return (N.real + N.imag).reshape(-1)

    locked = np.zeros((dim, 0))  # orthonormal, each mapped within tol
    lift = 4.0 * ms.n  # >= ||normal map||, since every ||C_i|| <= 1
    matvecs = 0

    def deflated(x):
        nonlocal matvecs
        matvecs += 1
        return normal(x) + lift * (locked @ (locked.T @ x))

    op = scipy.sparse.linalg.LinearOperator((dim, dim), matvec=deflated, dtype=float)
    v0 = np.random.default_rng(0).standard_normal(dim)
    sigma_min, resid, k = np.inf, None, 1
    while True:
        ncv = min(dim - 1, max(2 * k + 1, NCV))
        vals, vecs = scipy.sparse.linalg.eigsh(
            op, k=k, which="SA", ncv=ncv, maxiter=20 * dim, tol=1e-10, v0=v0
        )
        if resid is None:
            j = int(np.argmin(vals))
            resid = float(np.linalg.norm(normal(vecs[:, j]) - vals[j] * vecs[:, j]))
        W = np.linalg.qr(vecs - locked @ (locked.T @ vecs))[0]
        _, sigma, Yh = np.linalg.svd(image(W), full_matrices=False)
        sigma_min = min(sigma_min, float(sigma[-1]))
        small = sigma <= tol
        locked = np.hstack([locked, W @ Yh[small].T])
        if not small.any() or k == dim - 2:
            break
        if small.all():
            k = min(2 * k, dim - 2)
    return InvarianceKernelReport(
        sigma_min=sigma_min,
        kernel_dim=locked.shape[1],
        tol=tol,
        q=q,
        method="lanczos",
        residual=resid,
        matvecs=matvecs,
    )


@dataclass
class ModelCompactnessReport:
    """Iterated-compression norms per direction with the decay verdict."""

    norms: list[list[float]]
    m_max: int
    tol: float
    verdict: bool


def _compression_norms(pi: np.ndarray, T: np.ndarray, m_max: int) -> list[float]:
    """||C*^m T C^m|| for m = 1..m_max, of a finite T, where C[pi(b), b] = 1 (`_shift_maps`).

    C*^m T C^m is T on I_m x I_m, I_m = pi^m(dom pi^m), with rows and
    columns relabelled by the one bijection pi^m, so the two have the same
    norm.  The I_m nest, so the sequence is one `operator_norm` family of T:
    depth(a) is the largest m <= m_max with a in I_m, 0 outside I_1, and
    window m - 1 holds the rows and columns of depth at least m.
    """
    depth = np.zeros(pi.size, dtype=np.int64)
    at = pi[pi >= 0]  # I_1
    for m in range(1, m_max + 1):
        if not at.size:
            break
        depth[at] = m
        at = pi[at]
        at = at[at >= 0]  # I_(m+1) = pi(I_m and dom pi)
    return operator_norm(T, (depth - 1, depth - 1, m_max))


def _product_norms(C: np.ndarray, T: np.ndarray, m_max: int) -> list[float]:
    """||C*^m T C^m|| for m = 1..m_max, of a finite T and a dense C: the products one m at a time."""
    Cs, X, norms = C.conj().T, T, []
    for _ in range(m_max):
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow, and inf * 0 after it: norm inf
            X = Cs @ X @ C
        norms.append(operator_norm(X))
    return norms


def model_compactness_test(
    ms: ModelSpace,
    T: np.ndarray,
    m_max: int,
    tol: float = LIMIT_TOL,
) -> ModelCompactnessReport:
    """Norm sequences ||C_i*^m T C_i^m||, m = 1..m_max, verdict: all decay to tol.

    The only possible norm limit of the iterated compressions is zero, so
    convergence is tested as decay; a plateau above tol is the finite-scale
    witness of non-compactness.

    A T with a NaN or infinite entry has norm inf at every m in every
    direction: the paper's operators are bounded, so such an entry can only
    mean unbounded, as `symbols._block_norms` reads it in a block.  A finite
    T takes each direction by `_compression_norms`: a compressed shift that
    is a partial permutation, as on every selection basis from
    `model_basis` (monomial theta, or zeros all 0), gives one nested norm
    family of T itself, and any other (a TMW basis, as for a Blaschke
    product with a zero off 0, or an SVD basis) the dense products.
    """
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    if ms.q < 1:
        raise ValueError("empty model space has no compressions")
    T = np.asarray(T, dtype=complex)
    if T.shape != (ms.q, ms.q):
        raise ValueError(f"operator shape {T.shape} does not match model dimension {ms.q}")
    rows = ms.selection_rows
    if not np.isfinite(T).all():
        norms = [[math.inf] * m_max for _ in range(ms.n)]
    elif rows is None:
        norms = [_product_norms(compressed_shift(ms, i), T, m_max) for i in range(ms.n)]
    else:
        norms = [_compression_norms(pi, T, m_max) for pi in _shift_maps(ms.box, ms.p, rows)]
    verdict = all(seq[-1] <= tol for seq in norms)
    return ModelCompactnessReport(norms=norms, m_max=m_max, tol=tol, verdict=verdict)
