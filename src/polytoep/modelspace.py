"""Truncated Beurling-type quotient spaces and their compressed shifts.

The quotient is realized as the orthogonal complement, inside the truncated
basis, of the exactly representable columns theta * z^k = T_theta e_k (k in
the safe sub-box where the whole product fits): the columns of T_theta on
that sub-box.  Near the box boundary these columns undercount the
untruncated quotient, so theorem tests should prefer deep interiors; every
model-space file carries a note to that effect.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg

from .analysis import LIMIT_TOL
from .lattice import Box
from .operators import _check_directions, _cut, _gather, _side, operator_norm
from .symbols import INNER_TOL, TorusSymbol, is_inner

BOUNDARY_NOTE = (
    "truncated quotient: exact against columns that fit the box; "
    "near-boundary basis vectors may differ from the untruncated space"
)

# Largest q whose invariance map takes the dense SVD.  The matrix-free probe
# is faster from about q = 10 at n = 3, q = 11 at n = 2 and q = 16 at n = 1,
# where the dense SVD still wins by at most 7 ms (q ladder in CHANGES.md).
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

    @property
    def column_tail_bound(self) -> float:
        return self.theta.tail_bound


def _safe_box(theta: TorusSymbol, box: Box) -> Box:
    """Caps minus theta's top frequency: the k for which theta * z^k fits the box."""
    _, hi = theta.freq_range()
    caps = tuple(int(c - h) for c, h in zip(box.caps, hi))
    if any(c < 0 for c in caps):
        raise ValueError(f"empty safe box: support reach {hi} does not fit caps {box.caps}")
    return Box(caps)


def _is_selection(cols: np.ndarray) -> bool:
    """True when every column is exactly a distinct standard basis vector."""
    nz_rows, nz_cols = np.nonzero(cols)
    if nz_rows.size != cols.shape[1] or np.unique(nz_cols).size != cols.shape[1]:
        return False
    if np.unique(nz_rows).size != cols.shape[1]:
        return False
    return bool(np.all(cols[nz_rows, nz_cols] == 1.0))


def model_basis(theta: TorusSymbol, box: Box, tol: float = INNER_TOL, grid_sizes=None) -> ModelSpace:
    """Construct the truncated quotient for an inner-certified analytic symbol.

    Monomial-type symbols keep the canonical monomial complement (so nilpotent
    identities stay exact); anything else gets an SVD complement.
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
    if _is_selection(cols):
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

    matvecs counts the applications of the normal map (0 for the dense SVD).
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


def invariance_kernel(ms: ModelSpace, tol: float = KERNEL_TOL) -> InvarianceKernelReport:
    """Rigidity probe: sigma_min of the invariance map and how many sigma <= tol.

    Both paths take the stacked map L on the Hermitian matrices H only.  For
    q <= DENSE_MAX_Q, a dense SVD of L on all q^2 coordinates of H.  Above
    it, Lanczos (`eigsh`, ARPACK's real symmetric `dsaupd`) on the normal map
    restricted to H, matrix-free and started from a fixed seeded vector so
    that reruns give identical reports.  That half is exact: L_i(A*) =
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
    """
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    T = np.asarray(T, dtype=complex)
    if T.shape != (ms.q, ms.q):
        raise ValueError(f"operator shape {T.shape} does not match model dimension {ms.q}")
    norms: list[list[float]] = []
    for i in range(ms.n):
        C = compressed_shift(ms, i)
        Cs = C.conj().T
        X = T
        seq = []
        for _ in range(m_max):
            X = Cs @ X @ C
            seq.append(operator_norm(X))
        norms.append(seq)
    verdict = all(seq[-1] <= tol for seq in norms)
    return ModelCompactnessReport(norms=norms, m_max=m_max, tol=tol, verdict=verdict)
