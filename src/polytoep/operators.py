"""Dense (block) operators on a truncated monomial basis.

The matrix of an operator lives on C^(p*N) with block-major layout: the
monomials z^l in row-major order (last variable fastest), each repeated for
the p components.  This module owns that layout: the matrix reads as a
tensor with axes (d_1 + 1, ..., d_n + 1, p) on each side (`_side`), a
shifted sub-box is one slice per variable (`_cut`), a window of the matrix
is a slice of the tensor (`_window`), and every other row set is read off
the exponents l of each row (`_exponents`).  The norms of a nested family
of windows of one matrix, window k holding the rows and columns of depth at
least k, are taken in one `operator_norm` call, each the root of one top
eigenvalue of a Gram matrix grown from the innermost window outward: from
LAPACK's band solver where a sparse support orders that matrix into a
narrow band, from Lanczos on a complex window above a measured column
count, from LAPACK's dense solver on every other.
A multilevel Toeplitz section is a read-only strided view of one table of
its symbol's coefficients (block (l, k) = coeff(l - k), `_section_view`):
`toeplitz` copies it once, and a caller that only subtracts or compares a
section reads the view.  The matvec has a fast path through an
n-dimensional circulant embedding.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import blas, lapack

from .lattice import Box
from .symbols import TorusSymbol, _block_norms, _next_pow2, _stacked


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


def _exponents(box: Box, p: int) -> np.ndarray:
    """Exponents of the monomial of each block-major row, as an (n, p*N) array."""
    return np.indices(_side(box, p))[:-1].reshape(box.n, -1)


def _table(sym: TorusSymbol, lo: tuple[int, ...], hi: tuple[int, ...]) -> np.ndarray:
    """Coefficient blocks at the frequencies -lo..hi, entry f + lo holding coeff(f); others are dropped.

    One scatter of the stacked frequencies and blocks (`symbols._stacked`),
    added into zeros, so a -0.0 part enters as 0.0.  Frequencies outside
    the range are dropped before lo is added to the rest.
    """
    lo, hi = np.asarray(lo, dtype=np.int64), np.asarray(hi, dtype=np.int64)
    table = np.zeros(tuple(hi + lo + 1) + (sym.p, sym.p), dtype=complex)
    keys, blocks = _stacked(sym)
    inside = np.all((-lo <= keys) & (keys <= hi), axis=1)
    table[tuple((keys[inside] + lo).T)] += blocks[inside]  # distinct frequencies: no entry is hit twice
    return table


def _section_view(sym: TorusSymbol, rows: Box, cols: Box) -> np.ndarray:
    """The blocks coeff(l - k), l in rows and k in cols, as a read-only (row axes, column axes) tensor.

    A strided view of one `_table` over the difference range [-cols.caps,
    rows.caps]: entry l - k + cols.caps is offset l of the window of
    rows.caps + 1 frequencies that starts at cols.caps - k, so the window
    starts, reversed, are the column axes.  Frequencies outside the range
    never enter and are dropped.
    """
    n = rows.n
    table = _table(sym, cols.caps, rows.caps)
    windows = sliding_window_view(table, tuple(c + 1 for c in rows.caps), axis=tuple(range(n)))
    # axes (starts..., a, b, offsets...) to (l..., a, k..., b)
    windows = windows[(slice(None, None, -1),) * n]
    return windows.transpose(*range(n + 2, 2 * n + 2), n, *range(n), n + 1)


def _gather(sym: TorusSymbol, rows: Box, cols: Box) -> np.ndarray:
    """Flat block-major matrix of the blocks coeff(l - k): one contiguous copy of `_section_view`."""
    return _section_view(sym, rows, cols).copy().reshape(sym.p * rows.dim, sym.p * cols.dim)


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
    grid[np.ix_(*(np.arange(-c, c + 1) % e for c, e in zip(caps, embed)))] = _table(op.symbol, caps, caps)
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
    import scipy.fft  # transforms several lines per pass, where numpy's takes one; no CLI verb loads it
    spec, embed = op._spectrum
    side, axes = _side(op.box, op.p), tuple(range(op.box.n))
    vf = scipy.fft.fftn(v.reshape(side), s=embed, axes=axes)  # zero-padded to the embedding
    w = scipy.fft.ifftn(np.einsum("...ij,...j->...i", spec, vf), axes=axes, overwrite_x=True)
    return w[tuple(slice(s) for s in side[:-1])].reshape(-1)


_SCAN_CHUNK = 1 << 16   # entries of the support read per step of `_scan`
_TINY = 2.0 ** -511     # smallest scaled magnitude whose square is still a normal number


@dataclass(frozen=True)
class _Scan:
    """What one read of a matrix tells the norm kernel.

    rows and cols mark the rows and columns with a nonzero entry.  exp is
    the power of two that brings every real and imaginary part below 1 in
    magnitude while keeping every nonzero one at least 2**-511, so that each
    square and product in a Gram matrix is a normal number; it is None when
    no such power exists or an entry is not finite, and each window then
    takes `_svd_norm`.  real means no entry has an imaginary part.
    sparse means at most one in `_BAND_COLS_PER_WIDTH` of the real and
    imaginary parts on the support is nonzero: only such a support is read
    again for a band ordering of its Gram matrix (`_band_order`).
    """

    rows: np.ndarray
    cols: np.ndarray
    exp: int | None
    real: bool
    sparse: bool


def _scan(M: np.ndarray) -> _Scan:
    """Support, finiteness, range, realness and sparsity of M in one read.

    Two `any` reductions find the nonzero rows and columns; the entries on
    them are then read a bounded chunk of rows at a time.
    """
    rows, cols = M.any(axis=1), M.any(axis=0)
    ri, ci = np.flatnonzero(rows), np.flatnonzero(cols)
    complex_ = np.iscomplexobj(M)
    real, hi, lo, nonzero = True, 0.0, math.inf, 0
    step = max(1, _SCAN_CHUNK // max(ci.size, 1))
    for a in range(0, ri.size, step):
        X = np.asarray(M[np.ix_(ri[a : a + step], ci)], dtype=complex if complex_ else float)
        real = real and not (complex_ and X.imag.any())
        parts = np.abs(X.view(float))
        top = parts.max()
        if not top < math.inf:  # not finite
            return _Scan(rows, cols, None, real, False)
        hi = max(hi, float(top))
        nz = parts > 0
        nonzero += np.count_nonzero(nz)
        lo = min(lo, float(parts.min(initial=math.inf, where=nz)))
    exp = math.frexp(hi)[1]
    if hi and math.ldexp(lo, -exp) < _TINY:
        exp = None
    sparse = bool(nonzero * _BAND_COLS_PER_WIDTH <= ri.size * ci.size * (2 if complex_ else 1))
    return _Scan(rows, cols, exp, real, sparse)


# Lanczos replaces ?heevr on a complex window of at least this many columns
# (`_krylov_window`); set by the crossover ladder in CHANGES.md.  Real
# windows keep ?syevr, about a quarter of ?heevr's cost at the same order.
_LANCZOS_MIN_COLS = 160
_LANCZOS_COLS_PER_STEP = 3  # step budget: the window's columns over this
_LANCZOS_CHECK = 4  # steps between stopping tests
_LANCZOS_SEED = 19

# A window whose Gram matrix, in its family's reverse Cuthill-McKee order,
# is a band of half-width b takes ?sbevx/?hbevx on that band (`_band_top`)
# when `_band_fits`; set by the crossover ladder in CHANGES.md.
_BAND_MIN_COLS = 32
_BAND_COLS_PER_WIDTH = 16


def _band_fits(b: int, c: int) -> bool:
    """Whether a Gram band of half-width b pays on c columns: b <= c / 16, and b <= 2 below 32 columns.

    Below `_BAND_MIN_COLS` columns either eigensolver call costs about the
    same 20 us, so a width that pays at that size is taken at any size.
    """
    return b * _BAND_COLS_PER_WIDTH <= max(c, _BAND_MIN_COLS)


def _svd_norm(window: np.ndarray) -> float:
    """`symbols._block_norms` of the window on its nonzero rows x columns; 0.0 without any."""
    rows, cols = window.any(axis=1), window.any(axis=0)
    if not (rows.all() and cols.all()):
        window = window[np.ix_(rows, cols)]
    return float(_block_norms(window)) if window.size else 0.0


def _top_eigenvalue(H: np.ndarray) -> float:
    """Largest eigenvalue of a Hermitian matrix, read from its upper triangle.

    H must be Fortran-ordered; LAPACK overwrites it.
    """
    n = H.shape[0]
    if np.iscomplexobj(H):
        # the default minimal workspace leaves zhetrd unblocked, 8-15% slower
        # at n = 128..400 with one BLAS thread
        work, rwork, iwork, _ = lapack.zheevr_lwork(n)
        sizes = {"lwork": int(work.real), "lrwork": int(rwork), "liwork": int(iwork)}
        w, _, _, _, info = lapack.zheevr(H, compute_v=0, range="I", il=n, iu=n, overwrite_a=1, **sizes)
    else:
        w, _, _, _, info = lapack.dsyevr(H, compute_v=0, range="I", il=n, iu=n, overwrite_a=1)
    if info:
        raise np.linalg.LinAlgError(f"eigenvalue solver failed (info = {info})")
    return float(w[0])


def _band_top(G: np.ndarray, perm: np.ndarray, b: int) -> float | None:
    """Largest eigenvalue of a Hermitian G on perm x perm, whose entries more than b apart in perm's order are 0.

    For b = 0 that is the largest diagonal entry, exactly.  Otherwise the
    band goes to LAPACK's ?sbevx/?hbevx in upper band storage: for c =
    perm.size, O(c^2 * b) for the band's reduction to tridiagonal form,
    where a dense solver pays O(c^3).  None when that call fails, and the
    caller takes another path.
    """
    c = perm.size
    b = min(b, c - 1)  # no two of c columns are further apart
    if not b:
        return float(G.diagonal()[perm].real.max())
    ab = np.zeros((b + 1, c), dtype=G.dtype, order="F")  # ab[b + i - j, j] = H[i, j] for j - b <= i <= j
    for s in range(b + 1):
        ab[b - s, s:] = G[perm[: c - s], perm[s:]]
    evx = lapack.zhbevx if np.iscomplexobj(G) else lapack.dsbevx
    w, _, _, _, info = evx(ab, 0.0, 0.0, c, c, compute_v=0, range=2)  # range 2: eigenvalues il..iu by index
    return None if info else float(w[0])


def _lanczos_top(H: np.ndarray, start: np.ndarray, budget: int) -> float | None:
    """Top eigenvalue of a positive semidefinite H by Lanczos from start; None past budget steps.

    H holds both triangles.  Each step is one `?gemv` and classical
    Gram-Schmidt twice against every earlier Lanczos vector, so the basis
    stays orthonormal to roundoff.  With c = H's order, tol = c*eps and the
    tridiagonal T_j's top Ritz pair (theta, s), the residual of the Ritz
    vector is rho = beta_j*|s_j|, so an eigenvalue of H lies within rho of
    theta.  The run stops on one of two rules:

    - breakdown, beta_j <= tol*||T_j||: the Krylov space is invariant to
      roundoff and theta is an eigenvalue of H.  Past that point the next
      vector would be roundoff divided by beta_j, no longer orthogonal to
      the basis, and the Ritz values could leave H's spectrum;
    - a small residual, rho <= tol*theta: an eigenvalue of H lies within
      tol*theta of theta.  A residual over the Ritz gap (Kato-Temple) is
      not used: the second Ritz value need not have resolved the second
      eigenvalue, and on a top pair 1e-8 apart that rule stopped within
      the pair, far outside tol*theta of the top one.

    What neither rule sees is an eigenvalue above theta whose eigenvector
    the Krylov space has not reached.  The caller's start is Gaussian for
    that: for a uniformly random start, Kuczynski & Wozniakowski (SIAM
    J. Matrix Anal. Appl. 13, 1992) bound the chance that theta after j
    steps is below (1 - e) times the top eigenvalue by
    1.648*sqrt(c)*exp(-sqrt(e)*(2j - 1)).  The caller adds interlacing
    across nested windows and recomputes with `_top_eigenvalue` when the
    budget runs out.
    """
    c = H.shape[0]
    tol = c * np.finfo(float).eps
    V = np.empty((budget + 1, c), dtype=H.dtype)  # Lanczos vectors as rows
    V[0] = start / np.linalg.norm(start)
    alpha, beta = np.empty(budget), np.empty(budget)
    top = 0.0  # Gershgorin bound on ||T_j||
    for j in range(budget):
        w = H @ V[j]
        Q = V[: j + 1]
        alpha[j] = 0.0
        for _ in range(2):
            h = np.conj(Q @ np.conj(w))  # <v_i, w>
            w -= h @ Q
            alpha[j] += h[j].real
        beta[j] = np.linalg.norm(w)
        top = max(top, abs(alpha[j]) + beta[j] + (beta[j - 1] if j else 0.0))
        broke = beta[j] <= tol * top
        if not broke and (j + 1) % _LANCZOS_CHECK and j + 1 < budget:
            V[j + 1] = w / beta[j]
            continue
        e = np.append(beta[:j], 0.0)
        _, theta, s, info = lapack.dstemr(alpha[: j + 1], e, 3, 0.0, 0.0, j + 1, j + 1)  # the top Ritz pair
        if info:
            return None
        if broke or beta[j] * abs(s[-1, 0]) <= tol * theta[0]:
            return float(theta[0])
        V[j + 1] = w / beta[j]
    return None


def _krylov_window(G: np.ndarray, keep: np.ndarray, inner: float) -> float | None:
    """Top eigenvalue of a complex G on keep x keep by `_lanczos_top`, or None.

    The start is a Gaussian vector seeded with `_LANCZOS_SEED`, so the
    value depends on this window's Gram block alone.  The budget is the
    number of steps that cost about what the window's ?heevr call does,
    c // 3, but at least 32 and at most c, the step at which the run breaks
    down in exact arithmetic.  None when the run does not converge within
    it, or when its value is below inner, the inner window's top
    eigenvalue, by more than c*eps of it: a window holds its inner window,
    so its norm is never smaller.  The caller then takes the window's
    `_top_eigenvalue`.
    """
    c = keep.size
    H = G[:c, :c] if keep[-1] == c - 1 else G[np.ix_(keep, keep)]  # a view when keep is a prefix
    start = np.random.default_rng(_LANCZOS_SEED).standard_normal(2 * c).view(complex)
    top = _lanczos_top(H, start, min(c, max(c // _LANCZOS_COLS_PER_STEP, 32)))
    if top is None or top < inner * (1 - c * np.finfo(float).eps):
        return None
    return top


def _unscale(root: float, exp: int) -> float:
    """root * 2**exp, exactly, or inf when that is above the largest float."""
    return math.ldexp(root, exp) if math.frexp(root)[1] + exp <= sys.float_info.max_exp else math.inf


def _band_order(M: np.ndarray, ri: np.ndarray, ci: np.ndarray) -> tuple[np.ndarray | None, int] | None:
    """Rank of each column in a band ordering of the Gram matrix of M on ri x ci, and its half-width b.

    G[a, b] = sum over rows r of conj(M[r, a]) * M[r, b] is 0 unless columns
    a and b share a nonzero row, so b is read off the support, never off
    G's values, which can cancel.  A window's support is part of the
    family's, so ordered by the same rank its Gram matrix is a band of
    half-width at most b too.  (None, 0) when no row holds two nonzeros: G
    is diagonal, and nothing is ordered or imported.  Otherwise the columns
    are ordered by reverse Cuthill-McKee (`scipy.sparse.csgraph`), which is
    deterministic.  None when b does not fit (`_band_fits`) even the
    family's widest window, all its columns.  A row with k nonzeros makes b
    at least k - 1, which can rule that out before ordering.
    """
    r = c = np.empty(0, dtype=np.intp)
    step = max(1, _SCAN_CHUNK // max(ci.size, 1))
    for a in range(0, ri.size, step):  # a bounded chunk of rows at a time, as `_scan` reads them
        i, j = np.nonzero(M[np.ix_(ri[a : a + step], ci)])
        r, c = np.concatenate([r, i + a]), np.concatenate([c, j])
    widest = np.bincount(r, minlength=1).max()
    if widest <= 1:
        return None, 0
    if not _band_fits(widest - 1, ci.size):
        return None
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    S = csr_array((np.ones(r.size), (r, c)), shape=(ri.size, ci.size))
    P = (S.T @ S).tocsr()
    order = reverse_cuthill_mckee(P, symmetric_mode=True)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size, dtype=order.dtype)
    i, j = P.nonzero()
    width = int(np.abs(rank[i] - rank[j]).max())
    return (rank, width) if _band_fits(width, ci.size) else None


def _gram_norms(M: np.ndarray, rdepth: np.ndarray, cdepth: np.ndarray, count: int, scan: _Scan) -> list[float]:
    """Each window's norm as the root of the top eigenvalue of one growing Gram matrix.

    Rows and columns of negative depth are in no window, so both sides are
    cropped to the nonzero ones of depth at least 0 first; every window is
    0.0 when either side is then empty.  The Gram matrix G = X* X is over
    the cropped columns (the cropped rows when they are fewer: the singular
    values of M.T are M's), deepest first, so every window's columns lead.
    Walking from the innermost window outward, each shell of new rows X is
    added as G += X* X by one `gemm` filling both triangles, so every entry
    is a plain sum of products, never a difference, and a Lanczos matvec
    reads G as it stands.  A window's squared norm is the top eigenvalue
    of G on its own nonzero columns, the ones whose diagonal entry is
    positive.  A window with one such column
    takes `_svd_norm` of that column instead, its rows in natural order:
    the fallback's per-window kernel on the same entries in the same order,
    so the two paths read the same bits.  On a sparse support (`_Scan`)
    the family's columns are ranked once (`_band_order`), and a window
    whose Gram block, in rank order, is a band that `_band_fits` takes it
    from `_band_top`.  Otherwise, or when that call fails, a complex window
    of at least `_LANCZOS_MIN_COLS` columns takes it from `_krylov_window`,
    and every other window from `_top_eigenvalue`.  Nothing but G, the rows
    added so far and the inner window's top eigenvalue (the interlacing
    guard) passes from one window to the next, so each value is computed
    from its own Gram block alone.  Entries are scaled by 2**-exp, exactly,
    first, and each root is scaled back (`_unscale`), to inf past the
    largest float.
    """
    rows, cols = scan.rows & (rdepth >= 0), scan.cols & (cdepth >= 0)
    if not (count and rows.any() and cols.any()):
        return [0.0] * count
    if np.count_nonzero(rows) < np.count_nonzero(cols):
        M, rdepth, cdepth, rows, cols = M.T, cdepth, rdepth, cols, rows
    src = M.real if scan.real and np.iscomplexobj(M) else M
    dtype = float if scan.real else complex
    rdepth, cdepth = np.minimum(rdepth, count - 1), np.minimum(cdepth, count - 1)
    ri = np.flatnonzero(rows)
    ri = ri[np.argsort(-rdepth[ri], kind="stable")]
    ci = np.flatnonzero(cols)
    ci = ci[np.argsort(-cdepth[ci], kind="stable")]
    levels = -np.arange(count)
    nrows = np.searchsorted(-rdepth[ri], levels, side="right")  # rows of window k: ri[:nrows[k]]
    ncols = np.searchsorted(-cdepth[ci], levels, side="right")  # its columns: the first ncols[k] of ci
    band = _band_order(src, ri, ci) if scan.sparse else None
    gemm = blas.dgemm if scan.real else blas.zgemm
    G = np.zeros((ci.size, ci.size), dtype=dtype, order="F")
    norms, done, inner = [0.0] * count, 0, 0.0  # inner: the last window's top eigenvalue
    for k in reversed(range(count)):
        if nrows[k] > done:
            X = np.asarray(src[np.ix_(ri[done : nrows[k]], ci)], dtype=dtype)
            np.ldexp(X.view(float), -scan.exp, out=X.view(float))
            # adds conj(X* X), in both triangles, with the same eigenvalues
            G = gemm(1.0, X.T, X.T, beta=1.0, c=G, trans_b=2, overwrite_c=1)
            done = nrows[k]
        keep = np.flatnonzero(G.diagonal()[: ncols[k]].real > 0)
        if keep.size == 1:
            inner = G[keep[0], keep[0]].real
            norms[k] = _svd_norm(src[np.ix_(np.sort(ri[:done]), ci[keep])])  # rows in the fallback's order
        elif keep.size:
            top = None
            if band is not None and _band_fits(band[1], keep.size):
                rank, b = band
                top = _band_top(G, keep if rank is None else keep[np.argsort(rank[keep])], b)
            if top is None and not scan.real and keep.size >= _LANCZOS_MIN_COLS:
                top = _krylov_window(G, keep, inner)
            if top is None:
                top = _top_eigenvalue(G.T[np.ix_(keep, keep)].T)  # a Fortran-ordered copy
            inner = top
            norms[k] = _unscale(math.sqrt(top), scan.exp)
    return norms


def operator_norm(matrix: np.ndarray, family: tuple[np.ndarray, np.ndarray, int] | None = None, scan: _Scan | None = None):
    """Largest singular value of a matrix, or of each of its nested windows.

    Without a family, the norm of the whole matrix as a float.  With a
    family (row depths, column depths, count), the list of the norms of
    windows k = 0..count - 1, window k being the rows and the columns of
    depth at least k: each window contains the next, a depth of count or
    more puts its row or column in every window, and a negative one in none.
    scan is `_scan(matrix)` when the caller already holds it.

    A window's norm is taken on its nonzero rows x columns and is 0.0 when
    there are none.  Each is the root of the top eigenvalue of one Gram
    matrix grown over all windows (`_gram_norms`), in real arithmetic when
    the matrix has no imaginary part; rows and columns of negative depth
    enter it on neither side, and it is built on the side with fewer
    nonzero lines left.  A window with one nonzero column (or
    row, where the Gram matrix is over rows) takes `symbols._block_norms`
    of its entries in natural order instead, as the fallback below does, so
    it reads the same bits on either path.  Where at most one in 16 of the
    support's parts is nonzero, the columns are ordered by reverse
    Cuthill-McKee, and a window whose Gram block is then a band of
    half-width b <= max(c, 32) / 16 on its c columns takes that eigenvalue
    from one LAPACK `?sbevx` or `?hbevx` call on the band, and a diagonal
    one (no row with two nonzeros) its largest diagonal entry.  Otherwise
    a complex window of at least `_LANCZOS_MIN_COLS` = 160 columns takes
    it from Lanczos with full reorthogonalization (`_lanczos_top`) from a
    seeded Gaussian start, which stops on breakdown or on a residual of at
    most c*eps of the eigenvalue, and falls back to LAPACK when it runs out
    of steps or reads below the inner window; every other window takes it
    from one LAPACK `?syevr` or `?heevr` call.  Every value stays within
    the Gram matrix's own error bound of the window's SVD and depends on
    its own window's Gram block alone, and reruns are bit-identical: the
    ordering is deterministic and the Lanczos start is seeded.  A matrix
    with a non-finite entry, or one whose nonzero magnitudes span too wide
    a range to square after scaling, takes each window from
    `symbols._block_norms` instead (`_svd_norm`): inf where the window
    holds a non-finite entry, a dense SVD elsewhere.
    """
    M = np.asarray(matrix)
    whole = family is None
    if whole:
        family = (np.zeros(M.shape[0], dtype=np.int64), np.zeros(M.shape[1], dtype=np.int64), 1)
    rdepth, cdepth, count = family
    if scan is None:
        scan = _scan(M)
    if scan.exp is None:
        norms = [_svd_norm(M[np.ix_((rdepth >= k) & scan.rows, (cdepth >= k) & scan.cols)]) for k in range(count)]
    else:
        norms = _gram_norms(M, rdepth, cdepth, count, scan)
    return norms[0] if whole else norms


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
