"""Finitely supported Fourier representations of functions on the torus.

A symbol is a finite table of (block) Fourier coefficients together with a
sup-norm bound on whatever was truncated away (zero for exact trigonometric
polynomials).  All downstream certificates widen their tolerances by that
tail bound, so the arithmetic stays finite without silently pretending the
truncation is exact.
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


@dataclass(eq=False)
class TorusSymbol:
    """Coefficient table of a (block) function on the n-torus.

    coefficients maps a frequency (tuple of n ints, negatives allowed) to a
    (p, p) complex block; scalars are stored as 1x1 blocks.  tail_bound is a
    sup-norm bound on the discarded remainder.
    """

    n: int
    p: int
    coefficients: dict[MultiIndex, np.ndarray]
    tail_bound: float = 0.0

    def __post_init__(self):
        if self.n < 1 or self.p < 1:
            raise ValueError("need n >= 1 and p >= 1")
        if not 0 <= self.tail_bound < math.inf:  # NaN fails too
            raise ValueError(f"tail_bound must be finite and nonnegative, got {self.tail_bound!r}")
        # sections and grids index frequencies as int64, negations included
        if max(map(abs, itertools.chain.from_iterable(self.coefficients)), default=0) >= 2**63:
            raise ValueError("a symbol frequency lies outside int64 (|k_i| < 2^63)")

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
    and `TorusSymbol` refuse one.
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
    return TorusSymbol(n=a.n, p=a.p, coefficients=product.coefficients, tail_bound=tail)


def blaschke_factor(a: complex, degree: int) -> TorusSymbol:
    """Degree-``degree`` truncation of the disc automorphism (z - a)/(1 - conj(a) z).

    Coefficients: -a at z^0 and (1 - |a|^2) conj(a)^(k-1) at z^k, k >= 1.
    The dropped tail has sup norm (1 - |a|^2) |a|^degree / (1 - |a|).
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
    return TorusSymbol(1, 1, sym.coefficients, tail)


def product_inner(factors: list[TorusSymbol]) -> TorusSymbol:
    """Tensor product of one-variable analytic symbols, factor i in variable i."""
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
        lifted.append(TorusSymbol(n, f.p, coeffs, f.tail_bound))
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
