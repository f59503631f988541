"""Dense (block) operators on a truncated monomial basis.

The matrix of an operator lives on C^(p*N) with block-major layout: row
index = p * position(l) + component.  This module owns that layout: the
matrix reads as a tensor with axes (d_1 + 1, ..., d_n + 1, p) on each side
(`_side`), a shifted sub-box is one slice per variable (`_cut`), a window of
the matrix is a slice of the tensor (`_window`), and a sub-box or the corner
of small exponents is a row mask (`_mask`, `_corner`).  The norms of a
nested family of windows of one matrix are taken in one call
(`_nested_norms`).  Multilevel Toeplitz operators are gathered directly from
symbol coefficients (block (l, k) = coeff(l - k), `_gather`), and their
matvec has a fast path through an n-dimensional circulant embedding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .lattice import Box
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


def _side(box: Box, p: int) -> tuple[int, ...]:
    """Shape of one side of the tensor view: (d_1 + 1, ..., d_n + 1, p)."""
    return tuple(c + 1 for c in box.caps) + (p,)


def _check_directions(box: Box, directions: tuple[int, ...]) -> None:
    if len(set(directions)) != len(directions) or any(not 0 <= j < box.n for j in directions):
        raise ValueError(
            f"directions {directions} out of range or repeated: need distinct axes in 0..{box.n - 1}"
        )


def _cut(box: Box, directions: tuple[int, ...], start: int, drop: int) -> tuple[slice, ...]:
    """One slice per variable: start..cap - drop in the selected directions, all of the rest."""
    return tuple(slice(start, c + 1 - drop) if j in directions else slice(None) for j, c in enumerate(box.caps))


def _view(T: TruncatedOperator, rows: tuple[slice, ...], cols: tuple[slice, ...]) -> np.ndarray:
    """T on the row sub-box × column sub-box as a tensor, row axes first: a view of T.matrix."""
    shape = _side(T.box, T.p)
    return T.matrix.reshape(shape + shape)[rows + (slice(None),) + cols]


def _flat(W: np.ndarray) -> np.ndarray:
    """Flat block-major matrix of a (row axes, column axes) tensor: a view if strides allow, else a copy."""
    half = W.ndim // 2
    return W.reshape(math.prod(W.shape[:half]), math.prod(W.shape[half:]))


def _window(T: TruncatedOperator, rows: tuple[slice, ...], cols: tuple[slice, ...]) -> np.ndarray:
    """Flat block-major matrix of T on the row sub-box × column sub-box.

    A view of T.matrix where the slices allow one, a copy otherwise.
    """
    return _flat(_view(T, rows, cols))


def _mask(box: Box, p: int, cut: tuple[slice, ...]) -> np.ndarray:
    """Block-major row mask of the sub-box cut out by one slice per variable."""
    mask = np.zeros(_side(box, p), dtype=bool)
    mask[cut] = True
    return mask.reshape(-1)


def _corner(box: Box, m: int, p: int) -> np.ndarray:
    """Block-major row mask of the monomials with every exponent below m."""
    return _mask(box, p, (slice(0, m),) * box.n)


def _gather(sym: TorusSymbol, rows: Box, cols: Box) -> np.ndarray:
    """Flat block-major matrix of the blocks coeff(l - k), l in rows and k in cols.

    Frequencies outside the difference range [-cols.caps, rows.caps] never
    enter the matrix and are dropped.
    """
    n, p = rows.n, sym.p
    lo, hi = np.asarray(cols.caps, dtype=np.int64), np.asarray(rows.caps, dtype=np.int64)
    table = np.zeros(tuple(hi + lo + 1) + (p, p), dtype=complex)
    for f, blk in sym.coefficients.items():
        fa = np.asarray(f, dtype=np.int64)
        if np.all((-lo <= fa) & (fa <= hi)):
            table[tuple(fa + lo)] += blk
    # open grids on the (l, a, k, b) axes of the matrix read as a tensor
    grids = np.ix_(*(np.arange(s) for s in _side(rows, p) + _side(cols, p)))
    l, a, k, b = grids[:n], grids[n], grids[n + 1 : -1], grids[-1]
    diff = tuple(li - ki + c for li, ki, c in zip(l, k, cols.caps))
    return table[diff + (a, b)].reshape(p * rows.dim, p * cols.dim)


def toeplitz(sym: TorusSymbol, box: Box) -> TruncatedOperator:
    """Finite section of the Toeplitz operator with the given symbol.

    Block entry at (row l, column k) is coeff(l - k); frequencies outside
    the difference range [-d, d] never enter the section and are dropped.
    """
    if sym.n != box.n:
        raise ValueError(f"symbol dimension {sym.n} != box dimension {box.n}")
    return TruncatedOperator(box, sym.p, _gather(sym, box, box), symbol=sym)


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
    side, axes = _side(op.box, op.p), tuple(range(op.box.n))
    vf = np.fft.fftn(v.reshape(side), s=embed, axes=axes)  # zero-padded to the embedding
    w = np.fft.ifftn(spec @ vf[..., None], axes=axes)
    return w[tuple(slice(s) for s in side[:-1])].reshape(-1)


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


def _nested_norms(M: np.ndarray, cuts) -> list[float]:
    """`operator_norm` of M on each (row mask, column mask) cut, in order.

    M's nonzero rows and columns are found once, and each cut is narrowed to
    them before it is copied out, so a cut costs its share of M's support
    rather than its full size.  Narrowing drops only rows and columns that
    are zero in the cut, and keeps the rest in order, so `operator_norm`
    crops every copy to the same matrix as the whole cut: the cut's own
    nonzero rows x columns.
    """
    rows, cols = M.any(axis=1), M.any(axis=0)
    return [operator_norm(M[np.ix_(r & rows, c & cols)]) for r, c in cuts]


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
