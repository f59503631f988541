"""Finitely supported Fourier representations of functions on the torus.

A symbol is a finite table of (block) Fourier coefficients together with a
sup-norm bound on whatever was truncated away (zero for exact trigonometric
polynomials).  All downstream certificates widen their tolerances by that
tail bound, so the arithmetic stays finite without silently pretending the
truncation is exact.

A scalar symbol may also carry the zeros of the inner function it
truncates, theta = prod_i prod_j b_{a_ij}(z_i) with b_a the disc automorphism
(z - a)/(1 - conj(a) z): one list per variable.  The table must agree with
them (`_zeros_distance`), so the two never tell different stories.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .lattice import MultiIndex

INNER_TOL = 1e-10  # requested deviation of an inner certificate, before its tail allowance


def _next_pow2(x: int) -> int:
    return 1 << max(0, int(x) - 1).bit_length() if x > 1 else 1


def _block_norms(B: np.ndarray) -> np.ndarray:
    """Spectral norm of each (r, c) block of a (..., r, c) stack.

    The one norm of a block: the norm of a 1 x 1 block is numpy's array
    abs |b| (to inf past the largest float), a zero block's 0.0 and every
    other block's LAPACK's SVD.  The one non-finite rule: the operators
    here are bounded, so a block with a NaN or infinite entry can only be
    unbounded, and its norm is inf, with no LAPACK call.
    """
    if B.shape[-2:] == (1, 1):
        norms = np.abs(B[..., 0, 0], out=np.empty(B.shape[:-2]))  # an array, even for one block
    else:
        axes = (-2, -1)
        finite = np.isfinite(B).all(axis=axes)
        norms = np.where(finite, 0.0, np.inf)
        rest = finite & B.any(axis=axes)
        norms[rest] = np.linalg.norm(B[rest], ord=2, axis=axes)
    norms[np.isnan(norms)] = np.inf
    return norms


def _norm_sum(blocks) -> float:
    """Sum of the blocks' spectral norms, in order, from one `_block_norms` call."""
    blocks = list(blocks)
    return sum(_block_norms(np.stack(blocks)).tolist()) if blocks else 0.0


def tmw_series(zeros, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """The Takenaka-Malmquist-Walsh vectors of the zeros and the product of their factors, cut at z^degree.

    Column j is e_j = sqrt(1 - |a_j|^2) / (1 - conj(a_j) z) prod_(i<j) b_(a_i)
    (Garcia, Mashreghi and Ross, Introduction to Model Spaces and their
    Operators, CUP 2016), an orthonormal basis of K_B for B = prod_j b_(a_j),
    the second return.  One division by 1 - conj(a) z per zero; every zero 0
    gives z^j and z^m exactly.
    """
    out = np.empty((degree + 1, len(zeros)), dtype=complex)
    B = np.zeros(degree + 1, dtype=complex)
    B[0] = 1.0
    for j, a in enumerate(zeros):
        g = _over_kernel(B, a)
        out[:, j] = math.sqrt(1.0 - abs(a) ** 2) * g
        B = np.concatenate(([0.0], g[:-1])) - a * g
    return out, B


def _over_kernel(f: np.ndarray, a: complex) -> np.ndarray:
    """f / (1 - conj(a) z), cut at the length of f: g_k = f_k + conj(a) g_(k-1)."""
    g, prev, ac = np.empty_like(f), 0j, complex(a).conjugate()
    for k, x in enumerate(f.tolist()):
        prev = x + ac * prev
        g[k] = prev
    return g


def tmw_shift(zeros) -> np.ndarray:
    """The compressed shift of K_B, B = prod_j b_{a_j}, in the Takenaka-Malmquist-Walsh basis.

    Lower triangular: a_i on the diagonal and, below it,
    sqrt(1 - |a_i|^2) sqrt(1 - |a_j|^2) prod_{j < l < i} (-conj(a_l))
    (Garcia, Mashreghi and Ross, as in `tmw_series`).  K_B is invariant
    under the backward shift, which acts there as the adjoint, so the part
    of the TMW vector e_j beyond z^d has the norm of row j of M^(d+1)
    (`tmw_tails`).
    """
    a = np.asarray(zeros, dtype=complex)
    m = a.size
    r = np.sqrt(1.0 - np.abs(a) ** 2)
    M = np.diag(a)
    for j in range(m):
        run = 1.0 + 0j
        for i in range(j + 1, m):
            M[i, j] = r[i] * r[j] * run
            run *= -np.conj(a[i])
    return M


def tmw_tails(zeros, degree: int) -> np.ndarray:
    """||e_j - (e_j cut at z^degree)|| for each TMW vector e_j of the zeros, with no cancellation."""
    M = tmw_shift(zeros)
    return np.linalg.norm(np.linalg.matrix_power(M, degree + 1), axis=1)


def _check_zeros(sym) -> tuple[tuple[complex, ...], ...]:
    """sym's zeros as tuples of complex, or ValueError where they are malformed or disagree with the table."""
    if sym.p != 1:
        raise ValueError(f"zeros describe a scalar theta; this symbol has p = {sym.p}")
    zeros = tuple(tuple(complex(a) for a in variable) for variable in sym.zeros)
    if len(zeros) != sym.n:
        raise ValueError(f"zeros has {len(zeros)} lists, expected one per variable (n = {sym.n})")
    for a in itertools.chain.from_iterable(zeros):
        if not abs(a) < 1:  # NaN fails too
            raise ValueError(f"a zero must be finite with |a| < 1, got {a!r}")
    if not sym.is_analytic():
        raise ValueError("a symbol with zeros is analytic: support must lie in Z_+^n")
    distance = _zeros_distance(sym.coefficients, zeros, sym.freq_range()[1])
    if not distance <= sym.tail_bound + INNER_TOL:
        raise ValueError(
            f"coefficients disagree with the zeros: L^2 distance {distance:.3e} "
            f"> tail bound {sym.tail_bound:.3e} + {INNER_TOL:.0e}"
        )
    return zeros


def _zeros_distance(coefficients, zeros, hi) -> float:
    """||table - B||_2 on the torus, B = prod_i B_i(z_i) the product of the zeros' factors.

    No more than the sup-norm distance, which tail_bound bounds.  Inside the
    box 0 <= k <= hi it compares coefficients; outside it only B has any,
    of squared norm 1 - prod_i (1 - t_i^2), t_i the part of B_i beyond
    z^hi_i: B_i is the TMW vector of (zeros, 0) after the zeros
    (`tmw_tails`).
    """
    B = np.ones((), dtype=complex)
    outside = np.zeros(len(zeros))  # t_i
    for i, (a, h) in enumerate(zip(zeros, hi)):
        B = np.multiply.outer(B, tmw_series(a, h)[1])
        outside[i] = tmw_tails(a + (0.0,), h)[-1]
    for k, blk in coefficients.items():
        B[k] -= blk[0, 0]
    with np.errstate(divide="ignore"):  # t_i = 1: nothing of B_i inside the box
        log_inside = np.log1p(-(outside**2)).sum()
    return math.sqrt(float(np.sum(np.abs(B) ** 2)) - math.expm1(log_inside))


@dataclass(eq=False)
class TorusSymbol:
    """Coefficient table of a (block) function on the n-torus.

    coefficients maps a frequency (tuple of n ints, negatives allowed) to a
    (p, p) complex block; scalars are stored as 1x1 blocks.  tail_bound is a
    sup-norm bound on the discarded remainder.  zeros, when given (p = 1
    only), lists the zeros of theta in each variable, every one finite with
    |a| < 1; a table further than tail_bound + INNER_TOL from their
    product in L^2 is refused (`_zeros_distance`).
    """

    n: int
    p: int
    coefficients: dict[MultiIndex, np.ndarray]
    tail_bound: float = 0.0
    zeros: tuple[tuple[complex, ...], ...] | None = None

    def __post_init__(self):
        if self.n < 1 or self.p < 1:
            raise ValueError("need n >= 1 and p >= 1")
        if not 0 <= self.tail_bound < math.inf:  # NaN fails too
            raise ValueError(f"tail_bound must be finite and nonnegative, got {self.tail_bound!r}")
        # sections and grids index frequencies as int64, negations included
        if max(map(abs, itertools.chain.from_iterable(self.coefficients)), default=0) >= 2**63:
            raise ValueError("a symbol frequency lies outside int64 (|k_i| < 2^63)")
        if self.zeros is not None:
            self.zeros = _check_zeros(self)

    def freq_range(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(per-variable min, per-variable max) over the support; zeros if empty."""
        if not self.coefficients:
            z = (0,) * self.n
            return z, z
        arr = np.array(list(self.coefficients.keys()), dtype=int)
        return tuple(arr.min(axis=0)), tuple(arr.max(axis=0))

    def is_analytic(self) -> bool:
        return all(min(k) >= 0 for k in self.coefficients) if self.coefficients else True

    def sup_norm_estimate(self) -> float:
        """Triangle-inequality bound sum ||coeff(k)|| + tail_bound."""
        return _norm_sum(self.coefficients.values()) + self.tail_bound

    def coeff(self, k: MultiIndex) -> np.ndarray:
        """Coefficient block at frequency k (zero block if absent)."""
        blk = self.coefficients.get(tuple(k))
        if blk is None:
            return np.zeros((self.p, self.p), dtype=complex)
        return blk


def _stacked(sym: TorusSymbol) -> tuple[np.ndarray, np.ndarray]:
    """The frequencies as an (m, n) int64 array and the blocks as an (m, p, p) complex one, in dict order."""
    keys = np.array(list(sym.coefficients), dtype=np.int64).reshape(-1, sym.n)
    blocks = np.array(list(sym.coefficients.values()), dtype=complex).reshape(-1, sym.p, sym.p)
    return keys, blocks


def from_coefficients(n: int, p: int, entries) -> TorusSymbol:
    """Build a symbol from (frequency, block) pairs; duplicates and non-finite entries are rejected."""
    coeffs: dict[MultiIndex, np.ndarray] = {}
    for k, value in entries:
        key = tuple(int(x) for x in k)
        if len(key) != n:
            raise ValueError(f"frequency {key} has length {len(key)}, expected n = {n}")
        if key in coeffs:
            raise ValueError(f"duplicate frequency {key}")
        blk = np.asarray(value, dtype=complex)
        if blk.ndim == 0:
            blk = blk.reshape(1, 1)
        if blk.shape != (p, p):
            raise ValueError(f"coefficient at {key} has shape {blk.shape}, expected ({p}, {p})")
        if not np.isfinite(blk).all():
            raise ValueError(f"coefficient at {key} has a non-finite entry")
        coeffs[key] = blk
    return TorusSymbol(n=n, p=p, coefficients=coeffs, tail_bound=0.0)


def default_grid(sym: TorusSymbol) -> tuple[int, ...]:
    """Per-variable grid size: next power of two >= twice the span plus one."""
    lo, hi = sym.freq_range()
    return tuple(_next_pow2(2 * (h - l) + 1) for l, h in zip(lo, hi))


def evaluate_grid(sym: TorusSymbol, grid_sizes) -> np.ndarray:
    """Values on the uniform grid theta_t = 2*pi*t/G, shape G1 x ... x Gn x p x p.

    Exact (to machine precision) for trigonometric polynomials: coefficients
    are placed at their aliased bins and inverted with an FFT.
    """
    grid = tuple(int(g) for g in grid_sizes)
    if len(grid) != sym.n or any(g < 1 for g in grid):
        raise ValueError(f"need {sym.n} positive grid sizes, got {grid_sizes}")
    placed = np.zeros(grid + (sym.p, sym.p), dtype=complex)
    for k, blk in sym.coefficients.items():
        bin_idx = tuple(ki % g for ki, g in zip(k, grid))
        placed[bin_idx] += blk
    vals = np.fft.ifftn(placed, axes=tuple(range(sym.n)))
    return vals * np.prod(grid)


def multiply(a: TorusSymbol, b: TorusSymbol) -> TorusSymbol:
    """Coefficient convolution; realizes the pointwise product of symbols.

    Supports add (Minkowski sum), blocks compose left-to-right, and the tail
    bound is propagated through the triangle inequality.  A product whose
    coefficient or tail bound overflows is refused, as `from_coefficients`
    and `TorusSymbol` refuse one.  The product of two symbols with zeros
    has both lists of zeros, variable by variable.
    """
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")
    if a.p != b.p:
        raise ValueError(f"block size mismatch: {a.p} vs {b.p}")
    coeffs: dict[MultiIndex, np.ndarray] = {}
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        for ka, blka in a.coefficients.items():
            for kb, blkb in b.coefficients.items():
                key = tuple(x + y for x, y in zip(ka, kb))
                prod = blka @ blkb
                if key in coeffs:
                    coeffs[key] = coeffs[key] + prod
                else:
                    coeffs[key] = prod
    product = from_coefficients(a.n, a.p, coeffs.items())
    # ||ab - a_tr b_tr||_inf <= ||a_tr|| tail_b + tail_a ||b_tr|| + tail_a tail_b
    sup_a, sup_b = _norm_sum(a.coefficients.values()), _norm_sum(b.coefficients.values())
    tail = sup_a * b.tail_bound + a.tail_bound * sup_b + a.tail_bound * b.tail_bound
    zeros = None
    if a.zeros is not None and b.zeros is not None:
        zeros = tuple(za + zb for za, zb in zip(a.zeros, b.zeros))
    return TorusSymbol(n=a.n, p=a.p, coefficients=product.coefficients, tail_bound=tail, zeros=zeros)


def blaschke_factor(a: complex, degree: int) -> TorusSymbol:
    """Degree-``degree`` truncation of the disc automorphism (z - a)/(1 - conj(a) z).

    Coefficients: -a at z^0 and (1 - |a|^2) conj(a)^(k-1) at z^k, k >= 1.
    The dropped tail has sup norm (1 - |a|^2) |a|^degree / (1 - |a|).  The
    symbol carries its zero a.
    """
    a = complex(a)
    if abs(a) >= 1:
        raise ValueError(f"Blaschke parameter must satisfy |a| < 1, got |a| = {abs(a)}")
    if degree < 0:
        raise ValueError("truncation degree must be nonnegative")
    entries: list[tuple[MultiIndex, complex]] = []
    if a != 0:
        entries.append(((0,), -a))
    r = 1.0 - abs(a) ** 2
    conj_pow = 1.0 + 0j
    for k in range(1, degree + 1):
        c = r * conj_pow
        if c != 0:
            entries.append(((k,), c))
        conj_pow *= a.conjugate()
    sym = from_coefficients(1, 1, entries)
    if a == 0:
        tail = 1.0 if degree == 0 else 0.0
    else:
        tail = r * abs(a) ** degree / (1.0 - abs(a))
    return TorusSymbol(1, 1, sym.coefficients, tail, zeros=((a,),))


def product_inner(factors: list[TorusSymbol]) -> TorusSymbol:
    """Tensor product of one-variable analytic symbols, factor i in variable i.

    The product carries zeros when every factor does, factor i's in variable i.
    """
    n = len(factors)
    if n < 1:
        raise ValueError("need at least one factor")
    lifted = []
    for i, f in enumerate(factors):
        if f.n != 1:
            raise ValueError(f"factor {i} is not one-variable (n = {f.n})")
        if not f.is_analytic():
            raise ValueError(f"factor {i} has negative frequencies; inner factors are analytic")
        coeffs = {}
        for (k,), blk in f.coefficients.items():
            key = tuple(k if j == i else 0 for j in range(n))
            coeffs[key] = np.array(blk)
        zeros = None if f.zeros is None else tuple(f.zeros[0] if j == i else () for j in range(n))
        lifted.append(TorusSymbol(n, f.p, coeffs, f.tail_bound, zeros))
    out = lifted[0]
    for f in lifted[1:]:
        out = multiply(out, f)
    return out


@dataclass
class InnerCertificate:
    """Grid check that a symbol is inner (unimodular / isometry-valued).

    tolerance is the effective bound: the requested tolerance plus the tail
    allowance implied by the symbol's truncation; the certificate passes iff
    max_deviation <= tolerance.
    """

    grid_sizes: tuple[int, ...]
    max_deviation: float
    tolerance: float
    requested_tol: float
    tail_allowance: float
    worst_point: tuple[float, ...]

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tolerance


def is_inner(sym: TorusSymbol, grid_sizes=None, tol: float = INNER_TOL) -> InnerCertificate:
    """Certify |theta| = 1 (scalar) or Theta*Theta = I (block) on a torus grid."""
    if not sym.is_analytic():
        raise ValueError("inner symbols are analytic: support must lie in Z_+^n")
    grid = default_grid(sym) if grid_sizes is None else tuple(int(g) for g in grid_sizes)
    vals = evaluate_grid(sym, grid)
    if sym.p == 1:
        dev = np.abs(np.abs(vals[..., 0, 0]) - 1.0)
        allowance = sym.tail_bound
    else:
        prods = np.einsum("...ba,...bc->...ac", vals.conj(), vals)
        dev = _block_norms(prods - np.eye(sym.p))
        allowance = sym.tail_bound * (2.0 + sym.tail_bound)
    flat = int(np.argmax(dev))
    worst = np.unravel_index(flat, dev.shape)
    point = tuple(2.0 * np.pi * t / g for t, g in zip(worst, grid))
    return InnerCertificate(
        grid_sizes=grid,
        max_deviation=float(dev.flat[flat]),
        tolerance=tol + allowance,
        requested_tol=tol,
        tail_allowance=allowance,
        worst_point=point,
    )


def random_symbol(
    n: int,
    span: int,
    p: int = 1,
    rng: np.random.Generator | None = None,
) -> TorusSymbol:
    """Random trig polynomial with full support on |k_i| <= span, iid complex Gaussian blocks."""
    rng = np.random.default_rng() if rng is None else rng
    coeffs = {}
    for k in itertools.product(*([range(-span, span + 1)] * n)):
        coeffs[k] = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
    return TorusSymbol(n, p, coeffs, 0.0)
