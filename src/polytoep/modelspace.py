"""Truncated Beurling-type quotient spaces and their compressed shifts.

The quotient is realized as the orthogonal complement, inside the truncated
basis, of the exactly representable columns theta * z^k = T_theta e_k (k in
the safe sub-box where the whole product fits): the columns of T_theta on
that sub-box.  Near the box boundary these columns undercount the
untruncated quotient, so theorem tests should prefer deep interiors; every
model-space file carries a note to that effect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse.linalg

from .analysis import LIMIT_TOL
from .lattice import Box, _check_directions
from .operators import _cut, _gather, _side, operator_norm
from .symbols import INNER_TOL, TorusSymbol, is_inner

BOUNDARY_NOTE = (
    "truncated quotient: exact against columns that fit the box; "
    "near-boundary basis vectors may differ from the untruncated space"
)

# Largest q whose invariance map takes the dense SVD when the compressed
# shifts are dense (an SVD basis); a selection basis takes the difference
# split at every q.  On Blaschke spaces with q = 2, 7, 8 and 12 (best of 3,
# one BLAS thread, 2-vCPU VM) the dense SVD took 0.11, 0.57, 0.68 and
# 4.05 ms, Lanczos 0.57, 2.90, 5.09 and 10.6 ms, with sigma_min equal to
# 3e-16 relative; at q = 1 eigsh has no Lanczos path (it needs k < q^2).
# The crossover above 12 is unmeasured.
DENSE_MAX_Q = 12

# Smallest Krylov dimension of a Lanczos run in `invariance_kernel`.  At
# b7*b7 (q = 91, n = 2) the matvecs fall from 461 at 20 to 385 at 32 but
# only to 353 at 64, while each restart costs more; 28 and 32 were fastest
# (ncv ladder in CHANGES.md).
NCV = 32

KERNEL_TOL = 1e-8  # singular values of the invariance map at most this count toward its kernel


@dataclass(eq=False)
class ModelSpace:
    """Orthonormal basis of the truncated quotient of theta on a box.

    Everything else is read off theta and the box: the block size, the safe
    sub-box (caps minus theta's top frequency) and the tail bound.
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

    @property
    def safe_box(self) -> Box:
        return _safe_box(self.theta, self.box)

    @cached_property
    def selection_rows(self) -> np.ndarray | None:
        """The row of each basis column on a selection basis, else None (`_selection_rows`).

        Read once, at first use; the basis is not to change after that.
        Every monomial theta's basis from `model_basis` is a selection.
        """
        return _selection_rows(self.basis)


def _safe_box(theta: TorusSymbol, box: Box) -> Box:
    """Caps minus theta's top frequency: the k for which theta * z^k fits the box."""
    _, hi = theta.freq_range()
    caps = tuple(int(c - h) for c, h in zip(box.caps, hi))
    if any(c < 0 for c in caps):
        raise ValueError(f"empty safe box: support reach {hi} does not fit caps {box.caps}")
    return Box(caps)


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
    """Construct the truncated quotient for an inner-certified analytic symbol.

    Monomial-type symbols keep the canonical monomial complement (so nilpotent
    identities stay exact); anything else gets an SVD complement.  theta is
    monomial-type when each column theta * z^k has one nonzero entry, on a
    row of its own, whatever its unimodular value: the complement is then
    spanned by the rows no column reaches.
    """
    if theta.n != box.n:
        raise ValueError(f"symbol dimension {theta.n} != box dimension {box.n}")
    cert = is_inner(theta, grid_sizes=grid_sizes, tol=tol)
    if not cert.passed:
        raise ValueError(
            f"inner certification failed: deviation {cert.max_deviation:.3e} at grid point "
            f"[{', '.join(f'{t:.6g}' for t in cert.worst_point)}] > tolerance {cert.tolerance:.3e} "
            f"(requested {cert.requested_tol:.3e} + tail allowance {cert.tail_allowance:.3e})"
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
    blocks together, multiplicities included.  The blocks of one size take
    one batched SVD.
    """
    q, n = rows.size, box.n
    maps = _shift_maps(box, p, rows)
    *x, s = np.unravel_index(rows, _side(box, p))
    key = np.zeros((q, q), dtype=np.int64)
    for xj, d in zip(x, box.caps):
        key = key * (2 * d + 1) + (xj[:, None] - xj[None, :] + d)
    key = ((key * p + s[:, None]) * p + s[None, :]).reshape(-1)  # of the pair a * q + b
    order = np.argsort(key, kind="stable")  # the pairs, class by class
    starts = np.flatnonzero(np.diff(key[order], prepend=-1))
    sizes = np.diff(starts, append=q * q)
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
        pairs = order[starts[sizes == m][:, None] + np.arange(m)]  # (classes, m)
        M = np.zeros((pairs.shape[0], n, m, m))
        M[:, :, np.arange(m), np.arange(m)] = 1.0
        for i, target in enumerate(targets):
            c, j = np.nonzero(target[pairs] >= 0)
            M[c, i, j, target[pairs[c, j]]] = -1.0
        svals.append(np.linalg.svd(M.reshape(-1, n * m, m), compute_uv=False).reshape(-1))
    return np.concatenate(svals)


def invariance_kernel(ms: ModelSpace, tol: float = KERNEL_TOL) -> InvarianceKernelReport:
    """Rigidity probe: sigma_min of the invariance map and how many sigma <= tol.

    On a selection basis (`ModelSpace.selection_rows`, every monomial
    theta) each C_i is a partial permutation and the stacked map splits by
    exponent difference (`_difference_split`): every singular value is computed, so
    sigma_min and kernel_dim are exact, with no Krylov run.

    A dense C_i (an SVD basis) takes one of two paths, both on the stacked
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
    `model_basis` (monomial theta), gives one nested norm family of T
    itself, and any other (an SVD basis, as for a Blaschke product) the
    dense products.
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
