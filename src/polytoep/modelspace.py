"""Truncated Beurling-type quotient spaces and their compressed shifts.

The quotient is realized as the orthogonal complement, inside the truncated
basis, of the exactly representable columns theta * z^k (k in the safe
sub-box where the whole product fits).  Near the box boundary these columns
undercount the untruncated quotient, so theorem tests should prefer deep
interiors; every model space carries a note to that effect.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg

from .lattice import Box, enumerate_basis, position
from .operators import compress, operator_norm, shift
from .symbols import TorusSymbol, is_inner

BOUNDARY_NOTE = (
    "truncated quotient: exact against columns that fit the box; "
    "near-boundary basis vectors may differ from the untruncated space"
)

# Dense SVD of the stacked invariance map needs n * q^4 complex entries.
DENSE_KERNEL_BUDGET = 2 * 1024**3


@dataclass(eq=False)
class ModelSpace:
    """Orthonormal basis of the truncated quotient and its bookkeeping."""

    theta: TorusSymbol
    box: Box
    p: int
    safe_box: Box
    basis: np.ndarray
    q: int
    column_tail_bound: float
    boundary_note: str = BOUNDARY_NOTE

    def __post_init__(self):
        if self.p < 1:
            raise ValueError(f"block size p = {self.p} must be at least 1")

    @property
    def n(self) -> int:
        return self.box.n


def _analytic_columns(theta: TorusSymbol, box: Box, safe: Box) -> np.ndarray:
    """Columns theta * z^k (k in the safe box), one per block component."""
    p, N = theta.p, box.dim
    cols = np.zeros((p * N, p * safe.dim), dtype=complex)
    for ci, k in enumerate(enumerate_basis(safe)):
        for s, blk in theta.coefficients.items():
            target = tuple(ki + si for ki, si in zip(k, s))
            r = position(box, target) * p
            cols[r : r + p, ci * p : (ci + 1) * p] += blk
    return cols


def _is_selection(cols: np.ndarray) -> bool:
    """True when every column is exactly a distinct standard basis vector."""
    nz_rows, nz_cols = np.nonzero(cols)
    if nz_rows.size != cols.shape[1] or np.unique(nz_cols).size != cols.shape[1]:
        return False
    if np.unique(nz_rows).size != cols.shape[1]:
        return False
    return bool(np.all(cols[nz_rows, nz_cols] == 1.0))


def model_basis(theta: TorusSymbol, box: Box, tol: float = 1e-10, grid_sizes=None) -> ModelSpace:
    """Construct the truncated quotient for an inner-certified analytic symbol.

    Monomial-type symbols keep the canonical monomial complement (so nilpotent
    identities stay exact); anything else gets an SVD complement.
    """
    if theta.n != box.n:
        raise ValueError(f"symbol dimension {theta.n} != box dimension {box.n}")
    cert = is_inner(theta, grid_sizes=grid_sizes, tol=tol)
    if not cert.passed:
        raise ValueError(
            f"inner certification failed: deviation {cert.max_deviation:.3e} "
            f"> tolerance {cert.tolerance:.3e}"
        )
    _, hi = theta.freq_range()
    safe_caps = tuple(c - h for c, h in zip(box.caps, hi))
    if any(s < 0 for s in safe_caps):
        raise ValueError(
            f"empty safe box: support reach {hi} does not fit caps {box.caps}"
        )
    safe = Box(safe_caps)
    cols = _analytic_columns(theta, box, safe)
    p, N = theta.p, box.dim
    if _is_selection(cols):
        used = set(np.nonzero(cols)[0].tolist())
        free = [r for r in range(p * N) if r not in used]
        basis = np.zeros((p * N, len(free)), dtype=complex)
        for j, r in enumerate(free):
            basis[r, j] = 1.0
        q = len(free)
    else:
        U, S, _ = np.linalg.svd(cols, full_matrices=True)
        cutoff = max(cols.shape) * np.finfo(float).eps * (S[0] if S.size else 0.0)
        rank = int((S > cutoff).sum())
        basis = U[:, rank:]
        q = basis.shape[1]
    return ModelSpace(
        theta=theta,
        box=box,
        p=p,
        safe_box=safe,
        basis=basis,
        q=q,
        column_tail_bound=theta.tail_bound,
    )


def compressed_shift(ms: ModelSpace, direction: int) -> np.ndarray:
    """The q x q compression of one coordinate shift to the model space."""
    return compress(shift(ms.box, direction, ms.p).matrix, ms.basis)


def invariance_residual(ms: ModelSpace, A: np.ndarray) -> list[float]:
    """Per-direction norms ||A - C_i* A C_i|| for a q x q operator."""
    A = np.asarray(A, dtype=complex)
    if A.shape != (ms.q, ms.q):
        raise ValueError(f"operator shape {A.shape} does not match model dimension {ms.q}")
    out = []
    for i in range(ms.n):
        C = compressed_shift(ms, i)
        out.append(operator_norm(A - C.conj().T @ A @ C))
    return out


@dataclass
class InvarianceKernelReport:
    """Smallest singular value of the stacked map A -> (A - C_i* A C_i)_i."""

    sigma_min: float
    kernel_dim: int
    tol: float
    q: int
    method: str
    residual: float

    def to_dict(self) -> dict:
        return {
            "sigma_min": self.sigma_min,
            "kernel_dim": self.kernel_dim,
            "tol": self.tol,
            "q": self.q,
            "method": self.method,
            "residual": self.residual,
        }


def _stacked_map_matrix(shifts: list[np.ndarray], q: int) -> np.ndarray:
    eye = np.eye(q * q, dtype=complex)
    blocks = [eye - np.kron(C.conj().T, C.T) for C in shifts]
    return np.vstack(blocks)


def invariance_kernel(ms: ModelSpace, tol: float = 1e-8) -> InvarianceKernelReport:
    """Rigidity probe: kernel dimension and sigma_min of the invariance map.

    Dense SVD of the stacked matrix when it fits DENSE_KERNEL_BUDGET,
    otherwise a matrix-free Lanczos estimate of the smallest eigenvalues of
    the normal operator (residual reported), started from a fixed seeded
    vector so that reruns give identical reports.
    """
    q = ms.q
    if q < 1:
        raise ValueError("empty model space has no invariance map")
    shifts = [compressed_shift(ms, i) for i in range(ms.n)]
    if ms.n * (q ** 4) * 16 <= DENSE_KERNEL_BUDGET:
        L = _stacked_map_matrix(shifts, q)
        svals = np.linalg.svd(L, compute_uv=False)
        sigma_min = float(svals[-1])
        kernel_dim = int((svals <= tol).sum())
        return InvarianceKernelReport(sigma_min, kernel_dim, tol, q, "dense-svd", 0.0)

    def normal_apply(x):
        A = x.reshape(q, q)
        out = np.zeros_like(A)
        for C in shifts:
            r = A - C.conj().T @ A @ C
            out += r - C @ r @ C.conj().T
        return out.reshape(-1)

    dim = q * q
    op = scipy.sparse.linalg.LinearOperator(
        (dim, dim),
        matvec=normal_apply,
        dtype=complex,
    )
    k = min(6, dim - 1)
    rng = np.random.default_rng(0)
    v0 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    vals, vecs = scipy.sparse.linalg.eigsh(op, k=k, which="SA", maxiter=20 * dim, tol=1e-10, v0=v0)
    vals = np.maximum(vals, 0.0)
    sigma = np.sqrt(vals)
    resid = float(
        np.linalg.norm(normal_apply(vecs[:, 0]) - vals[0] * vecs[:, 0])
    )
    return InvarianceKernelReport(
        sigma_min=float(sigma.min()),
        kernel_dim=int((sigma <= tol).sum()),
        tol=tol,
        q=q,
        method="lanczos",
        residual=resid,
    )


@dataclass
class ModelCompactnessReport:
    """Iterated-compression norms per direction with the decay verdict."""

    norms: list[list[float]]
    m_max: int
    tol: float
    verdict: bool

    def to_dict(self) -> dict:
        return {
            "norms": self.norms,
            "m_max": self.m_max,
            "tol": self.tol,
            "verdict": self.verdict,
        }


def model_compactness_test(
    ms: ModelSpace,
    T: np.ndarray,
    m_max: int,
    tol: float = 1e-6,
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
