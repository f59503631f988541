"""Dense (block) operators on a truncated monomial basis.

The matrix of an operator lives on C^(p*N) with block-major layout: row
index = p * position(l) + component.  Multilevel Toeplitz operators are
built directly from symbol coefficients (block (l, k) = coeff(l - k)), and
their matvec has a fast path through an n-dimensional circulant embedding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lattice import Box, index_array, strides
from .symbols import TorusSymbol, _next_pow2


@dataclass(eq=False)
class TruncatedOperator:
    """Finite section of an operator on the truncated (block) monomial basis.

    symbol is set only on a Toeplitz section built by `toeplitz` (or loaded
    with a verified symbol); it enables `apply_fast`.  Sums and differences
    carry no symbol.
    """

    box: Box
    p: int
    matrix: np.ndarray
    symbol: TorusSymbol | None = None
    _spectrum: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.p < 1:
            raise ValueError(f"block size p = {self.p} must be at least 1")
        want = self.p * self.box.dim
        if self.matrix.shape != (want, want):
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match p*N = {want} "
                f"for box {self.box.caps} with p = {self.p}"
            )

    @property
    def n(self) -> int:
        return self.box.n

    @property
    def dim(self) -> int:
        return self.p * self.box.dim

    def __add__(self, other):
        self._check_compatible(other)
        return TruncatedOperator(self.box, self.p, self.matrix + other.matrix)

    def __sub__(self, other):
        self._check_compatible(other)
        return TruncatedOperator(self.box, self.p, self.matrix - other.matrix)

    def _check_compatible(self, other):
        if not isinstance(other, TruncatedOperator):
            raise TypeError(f"expected TruncatedOperator, got {type(other).__name__}")
        if other.box != self.box or other.p != self.p:
            raise ValueError("operators live on different truncations")


def block_rows(positions: np.ndarray, p: int) -> np.ndarray:
    """Expand monomial positions to matrix row indices in block-major layout."""
    positions = np.asarray(positions, dtype=np.int64)
    if p == 1:
        return positions
    return (positions[:, None] * p + np.arange(p)[None, :]).reshape(-1)


def toeplitz(sym: TorusSymbol, box: Box) -> TruncatedOperator:
    """Finite section of the Toeplitz operator with the given symbol.

    Block entry at (row l, column k) is coeff(l - k); frequencies outside
    the difference range [-d, d] never enter the section and are dropped.
    """
    if sym.n != box.n:
        raise ValueError(f"symbol dimension {sym.n} != box dimension {box.n}")
    n, p, N = box.n, sym.p, box.dim
    caps = np.asarray(box.caps, dtype=np.int64)
    diff_shape = tuple(2 * c + 1 for c in box.caps)
    table = np.zeros(diff_shape + (p, p), dtype=complex)
    for f, blk in sym.coefficients.items():
        fa = np.asarray(f, dtype=np.int64)
        if np.all(np.abs(fa) <= caps):
            table[tuple(fa + caps)] += blk
    flat = table.reshape(-1, p, p)
    dstr = np.ones(n, dtype=np.int64)
    for i in range(n - 2, -1, -1):
        dstr[i] = dstr[i + 1] * diff_shape[i + 1]
    idx = index_array(box)
    matrix = np.empty((p * N, p * N), dtype=complex)
    col_lin = (idx * dstr).sum(axis=1)
    row_lin = ((idx + caps) * dstr).sum(axis=1)
    for i in range(N):
        blocks = flat[row_lin[i] - col_lin]  # (N, p, p): diffs idx[i] - idx[:]
        matrix[i * p : (i + 1) * p, :] = blocks.transpose(1, 0, 2).reshape(p, N * p)
    return TruncatedOperator(box, p, matrix, symbol=sym)


def shift(box: Box, direction: int, p: int = 1) -> TruncatedOperator:
    """Truncated coordinate shift: e_k -> e_(k + e_direction), top layer killed."""
    if direction < 0 or direction >= box.n:
        raise ValueError(f"direction {direction} out of range for dimension {box.n}")
    N = box.dim
    idx = index_array(box)
    keep = idx[:, direction] < box.caps[direction]
    src = np.nonzero(keep)[0]
    dst = src + strides(box)[direction]
    mat = np.zeros((N, N))
    mat[dst, src] = 1.0
    if p > 1:
        mat = np.kron(mat, np.eye(p))
    return TruncatedOperator(box, p, mat.astype(complex))


def layer_projector(box: Box, m: int, p: int = 1) -> TruncatedOperator:
    """Orthogonal projector onto monomials with every exponent below m.

    Rank is p * m^n while m - 1 stays within every cap; idempotent and
    self-adjoint exactly (diagonal 0/1 matrix).
    """
    if m < 0 or m > min(box.caps) + 1:
        raise ValueError(f"m = {m} outside [0, {min(box.caps) + 1}] for box {box.caps}")
    idx = index_array(box)
    diag = (idx < m).all(axis=1).astype(float)
    if p > 1:
        diag = np.repeat(diag, p)
    return TruncatedOperator(box, p, np.diag(diag).astype(complex))


def identity(box: Box, p: int = 1) -> TruncatedOperator:
    return TruncatedOperator(box, p, np.eye(p * box.dim, dtype=complex))


def _fast_spectrum(op: TruncatedOperator) -> tuple[np.ndarray, tuple[int, ...]]:
    """FFT of the multilevel circulant embedding of the operator's symbol."""
    caps = op.box.caps
    embed = tuple(_next_pow2(2 * c + 1) for c in caps)
    grid = np.zeros(embed + (op.p, op.p), dtype=complex)
    caps_arr = np.asarray(caps, dtype=np.int64)
    for f, blk in op.symbol.coefficients.items():
        fa = np.asarray(f, dtype=np.int64)
        if np.all(np.abs(fa) <= caps_arr):
            grid[tuple(fa % np.asarray(embed))] += blk
    return np.fft.fftn(grid, axes=tuple(range(op.box.n))), embed


def apply_fast(op: TruncatedOperator, v: np.ndarray) -> np.ndarray:
    """Toeplitz matvec through the circulant embedding, O(p^2 N log N).

    Embedding sizes are powers of two >= 2*d_i + 1, so no wraparound touches
    the box region and the result equals the dense matvec up to FFT roundoff.
    """
    if op.symbol is None:
        raise ValueError("fast matvec requires a toeplitz section carrying its symbol")
    v = np.asarray(v, dtype=complex)
    if v.shape != (op.dim,):
        raise ValueError(f"vector has shape {v.shape}, expected ({op.dim},)")
    if op._spectrum is None:
        # idempotent cache write; concurrent recomputation is safe
        op._spectrum = _fast_spectrum(op)
    spec, embed = op._spectrum
    n, p = op.box.n, op.p
    shape = tuple(c + 1 for c in op.box.caps)
    buf = np.zeros(embed + (p,), dtype=complex)
    region = tuple(slice(0, s) for s in shape)
    buf[region] = v.reshape(shape + (p,))
    vf = np.fft.fftn(buf, axes=tuple(range(n)))
    wf = np.einsum("...ab,...b->...a", spec, vf)
    w = np.fft.ifftn(wf, axes=tuple(range(n)))
    return w[region].reshape(-1)


def apply_dense(op: TruncatedOperator, v: np.ndarray) -> np.ndarray:
    """Reference matvec through the stored dense matrix."""
    return op.matrix @ np.asarray(v, dtype=complex)


def operator_norm(matrix: np.ndarray) -> float:
    """Largest singular value of a matrix.

    Dense SVD on the nonzero rows x columns; 0.0 when there are none (an
    all-zero or empty matrix).  Exact: deleting a zero row or column only
    drops a zero singular value, so the largest one is unchanged.  NaN counts
    as nonzero and stays in.
    """
    rows, cols = matrix.any(axis=1), matrix.any(axis=0)
    if not rows.any():
        return 0.0
    if not (rows.all() and cols.all()):
        matrix = matrix[np.ix_(rows, cols)]
    return float(np.linalg.svd(matrix, compute_uv=False)[0])


def compress(matrix: np.ndarray, basis: np.ndarray, check_tol: float = 1e-10) -> np.ndarray:
    """Compression basis* . matrix . basis onto the span of orthonormal columns."""
    basis = np.asarray(basis, dtype=complex)
    if basis.ndim != 2 or basis.shape[0] != matrix.shape[0]:
        raise ValueError(f"basis shape {basis.shape} incompatible with operator {matrix.shape}")
    q = basis.shape[1]
    gram = basis.conj().T @ basis
    if q and np.abs(gram - np.eye(q)).max() > check_tol:
        raise ValueError("basis columns are not orthonormal to the required tolerance")
    return basis.conj().T @ matrix @ basis
