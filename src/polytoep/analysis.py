"""Shift-invariance tests, symbol recovery, compactness profiles, decomposition.

Every m-indexed quantity here is realized by entry shifting into interior
sub-boxes rather than by multiplying truncated shift matrices.  Truncated
shifts fail to be isometries at the top layer, so the entry-shifted sections
are the exact finite forms of the infinite-dimensional identities; nothing
in this module is polluted by truncation artifacts.

The matrix is read as `operators`' tensor view, one axis per variable and
one for the block component on each side, so a shifted sub-box is one slice
per variable (`_cut`) and a window of the matrix is a slice of that tensor
(`_window`).  Each m-indexed norm sequence takes nested windows of one matrix
built once (the one-step difference D_e, or the remainder) in one
`operator_norm` call, each window's norm taken on its own nonzero rows and
columns; window m is the rows and columns of depth at least m, a depth read
off the rows' monomial exponents (`_exponents`).  Decompose reads the
remainder's support once (`_scan`) for c_m and, when the remainder is not
compact, for the cross terms of its witness.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .lattice import Box, MultiIndex, interior
from .operators import (
    TruncatedOperator,
    _cut,
    _exponents,
    _flat,
    _scan,
    _Scan,
    _section_view,
    _view,
    _window,
    operator_norm,
)
from .symbols import TorusSymbol, _block_norms

EXACT_TOL = 1e-10   # identities that hold in exact arithmetic on polynomial inputs
LIMIT_TOL = 1e-6    # finite surrogates for norm-limit statements
TIE_RTOL = 1e-12    # step norms this close to the largest, relative to it, count as tied
_CHUNK = 1 << 14    # blocks gathered, or block pairs compared, per step of recover_symbol
_PRUNE_RTOL = 1e-9  # relative slack of the diameter pruning bounds, far above their rounding


def _block_norm_grid(D: np.ndarray, p: int) -> np.ndarray:
    """Per-block spectral norms (`_block_norms`) of a (R*p, C*p) matrix as an (R, C) grid."""
    R, C = D.shape[0] // p, D.shape[1] // p
    return _block_norms(D.reshape(R, p, C, p).transpose(0, 2, 1, 3))


def _step(T: TruncatedOperator, directions: tuple[int, ...]) -> np.ndarray:
    """D_e = B_1 - B_0 on interior(1): T[l + e, k + e] - T[l, k].

    B_(m+1) - B_m is the window of D_e on its rows and columns from m in the
    directions of e (`asymptotic_sequence`).
    """
    hi, lo = _cut(T.box, directions, 1, 0), _cut(T.box, directions, 0, 1)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow and inf - inf: norm inf (`_block_norms`)
        return _flat(_view(T, hi, hi) - _view(T, lo, lo))  # one pass: the difference is contiguous


@dataclass
class DefectReport:
    """Outcome of the shift-invariance (diagonal-constancy) test."""

    defects: tuple[float, ...]
    overall: float
    tol: float
    verdict: bool
    witness: dict | None


def toeplitz_defect(T: TruncatedOperator, tol: float = EXACT_TOL) -> DefectReport:
    """Maximal violation of entry-block constancy under a one-step diagonal shift.

    For each direction j the defect is max ||T[l+e_j, k+e_j] - T[l, k]|| over
    all pairs whose shifts stay in the box.  Exactly zero iff the matrix is
    multilevel Toeplitz, with no contribution from top-layer truncation.
    """
    box, p = T.box, T.p
    defects: list[float] = []
    witness: dict | None = None
    overall = 0.0
    for j in range(box.n):
        grid = _block_norm_grid(_step(T, (j,)), p)  # empty in a flat direction
        dj = float(grid.max()) if grid.size else 0.0
        defects.append(dj)
        if dj > overall:
            overall = dj
            x = _exponents(interior(box, 1, (j,)), 1)
            r, c = np.unravel_index(int(np.argmax(grid)), grid.shape)
            l, k = x[:, r].tolist(), x[:, c].tolist()
            witness = {
                "direction": j,
                "base": [l, k],
                "shifted": [[x + (i == j) for i, x in enumerate(v)] for v in (l, k)],
                "defect": dj,
            }
    return DefectReport(
        defects=tuple(defects),
        overall=overall,
        tol=tol,
        verdict=overall <= tol,
        witness=witness,
    )


def _spans(sizes: np.ndarray):
    """Consecutive index ranges [lo, hi) whose sizes sum to at most _CHUNK (one item at least)."""
    done = np.cumsum(sizes)
    lo = 0
    while lo < len(sizes):
        hi = max(lo + 1, int(np.searchsorted(done, done[lo] - sizes[lo] + _CHUNK, side="right")))
        yield lo, hi
        lo = hi


def _segments(length: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start offsets of contiguous segments with these lengths, and the segment of each item."""
    return np.cumsum(length) - length, np.repeat(np.arange(length.size), length)


def _pairs(length: np.ndarray):
    """Index pairs i < j inside each contiguous segment, about _CHUNK pairs at a time."""
    starts, seg = _segments(length)
    g = np.arange(seg.size)
    later = starts[seg] + length[seg] - g - 1  # partners after g in its segment
    for lo, hi in _spans(later):
        cnt = later[lo:hi]
        i = np.repeat(g[lo:hi], cnt)
        yield seg[i], i, i + 1 + np.arange(i.size) - np.repeat(np.cumsum(cnt) - cnt, cnt)


def _frobenius(d: np.ndarray) -> np.ndarray:
    """Frobenius norm of each (p, p) block, overflow-free: np.abs of its entries, then of pairs of those.

    |x + iy| = hypot(x, y), so no square is formed, and for p = 1 this is |d|.
    """
    a = np.abs(d.reshape(d.shape[0], d.shape[1] * d.shape[2]))
    while a.shape[1] > 1:
        if a.shape[1] % 2:
            a = np.concatenate((a, np.zeros((a.shape[0], 1))), axis=1)
        a = np.abs(a.view(complex))
    return a[:, 0]


def _diameters(blocks: np.ndarray, length: np.ndarray, centre: np.ndarray) -> np.ndarray:
    """max ||B_i - B_j||_2 within each segment of finite (p, p) blocks, bit for bit.

    For any point C, ||B_i - B_j||_2 <= r_i + r_j with r_i = ||B_i - C||_F.
    With C the segment's centre and R its largest r_i, a block with
    r_i + R below an attained diameter D ends no diameter, so the pairwise
    maximum runs over the other blocks only, skipping the pairs with
    r_i + r_j below D, and the exact distance is taken only on the pairs
    whose Frobenius distance reaches D.  D is the distance from the block
    farthest from C to the block farthest from that one.  Each pair is taken
    in both orders, as the maximum over all ordered pairs does.
    """

    def dist(a, b):
        # b - a is -(a - b) but for the signs of zero entries, which can
        # still move LAPACK's result by an ulp
        return np.maximum(_block_norms(a - b), _block_norms(b - a))

    def first_argmax(v):
        return np.minimum.reduceat(np.where(v == np.maximum.reduceat(v, starts)[seg], at, at.size), starts)

    starts, seg = _segments(length)
    at = np.arange(seg.size)
    r = _frobenius(blocks - centre[seg])
    far = first_argmax(r)
    mate = first_argmax(_frobenius(blocks - blocks[far][seg]))
    diam = dist(blocks[far], blocks[mate])
    # the bounds carry rounding of a few ulps, or at a subnormal scale of a
    # few units of the smallest subnormal per entry
    need = diam * (1.0 - _PRUNE_RTOL) - 4 * blocks[0].size * np.finfo(float).smallest_subnormal
    keep = ~(r + np.maximum.reduceat(r, starts)[seg] < need[seg])
    survivors, rk = blocks[keep], r[keep]
    for s, i, j in _pairs(np.bincount(seg[keep], minlength=length.size)):
        ok = ~(rk[i] + rk[j] < need[s])  # the same bound, pair by pair
        s, i, j = s[ok], i[ok], j[ok]
        near = _frobenius(survivors[i] - survivors[j]) >= need[s]
        np.maximum.at(diam, s[near], dist(survivors[i[near]], survivors[j[near]]))
    return diam


def _recover_diagonals(B4: np.ndarray, f: np.ndarray, length: np.ndarray, side: np.ndarray):
    """Coefficients and spreads of the diagonals with frequencies f (one row each); side is caps + 1."""
    starts, seg = _segments(length)
    # column exponents along each diagonal in increasing order, so the first
    # block of a diagonal is the one in its lowest column
    j = np.arange(seg.size) - starts[seg]
    k = np.empty((side.size, seg.size), dtype=np.int64)
    for i in range(side.size - 1, -1, -1):
        radix = (side[i] - np.abs(f[:, i]))[seg]
        k[i] = j % radix + np.maximum(-f[:, i], 0)[seg]
        j //= radix
    col = np.ravel_multi_index(k, side)
    blocks = np.asarray(B4[np.ravel_multi_index(k + f.T[:, seg], side), :, col, :], dtype=complex)
    parts = blocks.reshape(seg.size, -1).view(float)  # real and imaginary parts of every entry
    lo, hi = np.minimum.reduceat(parts, starts), np.maximum.reduceat(parts, starts)
    bad = ~(np.isfinite(lo) & np.isfinite(hi)).all(axis=1)
    p = blocks.shape[1]
    flat = lo == hi
    const = flat.all(axis=1)
    spread = np.where(bad, np.inf, 0.0)
    vary = ~(const | bad)
    with np.errstate(over="ignore", invalid="ignore"):  # a finite diagonal whose sum overflows is redone below
        coef = np.add.reduceat(blocks, starts)
    coef.real /= length[:, None, None]
    coef.imag /= length[:, None, None]
    over = vary & ~np.isfinite(coef).all(axis=(1, 2))
    if over.any():  # summed again scaled by 2**-e, exactly, with 2**e above every length: no partial sum overflows
        e = int(length.max()).bit_length()
        sums = np.add.reduceat(np.ldexp(blocks[over[seg]].view(float), -e), _segments(length[over])[0])
        coef[over] = np.ldexp(sums / length[over, None, None], e).view(complex)
    # with one part of a scalar diagonal constant the pairwise maximum is the
    # other part's max - min, since rounding a difference is monotone
    line = vary & flat.any(axis=1) & (p == 1)
    rest = vary & ~line
    with np.errstate(over="ignore"):  # finite blocks farther apart than the largest float: inf is the pairwise answer
        spread[line] = (hi[line] - lo[line]).max(axis=1)  # only finite diagonals: inf - inf would warn
        if rest.any():
            spread[rest] = _diameters(blocks[rest[seg]], length[rest], coef[rest])
    coef[const] = blocks[starts[const]]
    coef[bad] = 0.0  # a bounded symbol has no non-finite coefficient, and the mean of inf and -inf is NaN
    return coef, spread


@dataclass
class SymbolRecovery:
    """Recovered symbol plus the per-diagonal spread witnessing non-Toeplitzness."""

    symbol: TorusSymbol
    deviations: dict[MultiIndex, float]
    max_deviation: float


def recover_symbol(T: TruncatedOperator) -> SymbolRecovery:
    """Read a candidate symbol off the matrix diagonals.

    The coefficient at frequency f is taken from the blocks with row - col = f:
    a constant finite diagonal yields its first block (lowest column), any
    other finite diagonal its (finite) mean, and a diagonal with a non-finite
    part 0, so T minus the rebuilt Toeplitz part keeps that part non-finite.
    The first two agree in exact arithmetic; taking the representative keeps
    a constant diagonal bit-exact, so a Toeplitz part rebuilt from the symbol
    cancels it entry by entry.  The deviation map records each diagonal's
    spread, the largest distance between two of its blocks in the spectral
    norm (`symbols._block_norms`): zero exactly on constant finite diagonals,
    and inf on a diagonal with a non-finite part, whose block minus itself
    is not finite.

    One pass over the matrix, a bounded chunk of diagonals at a time, so the
    working memory does not grow with the box.  Spreads are exact, equal bit
    for bit to the maximum over all pairs: a scalar diagonal whose real or
    imaginary parts are all equal spreads by the other part's range; every
    other diagonal goes to `_diameters`, which prunes by distance to the
    diagonal's mean the blocks that cannot end a diameter and evaluates the
    pairs of the rest.
    """
    box, p = T.box, T.p
    caps = np.asarray(box.caps, dtype=np.int64)
    freqs = _exponents(Box(tuple(2 * c for c in box.caps)), 1).T - caps
    length = np.prod(caps + 1 - np.abs(freqs), axis=1)
    B4 = T.matrix.reshape(box.dim, p, box.dim, p)
    coef = np.empty((len(freqs), p, p), dtype=complex)
    spread = np.empty(len(freqs))
    for lo, hi in _spans(length):
        coef[lo:hi], spread[lo:hi] = _recover_diagonals(B4, freqs[lo:hi], length[lo:hi], caps + 1)
    keys = [tuple(f) for f in freqs.tolist()]
    nonzero = coef.reshape(len(keys), -1).any(axis=1)
    coeffs = {f: coef[i] for i, f in enumerate(keys) if nonzero[i]}
    sym = TorusSymbol(box.n, p, coeffs, 0.0)
    return SymbolRecovery(symbol=sym, deviations=dict(zip(keys, spread.tolist())), max_deviation=float(spread.max()))


def section(T: TruncatedOperator, m: int, directions: tuple[int, ...]) -> TruncatedOperator:
    """Entry-shifted section B_m: entries T[l + m*e, k + m*e] on the interior box.

    e sums the unit vectors of the selected (distinct) directions.  The
    matrix may be a view of T.matrix.
    """
    inner = interior(T.box, m, directions)
    cut = _cut(T.box, directions, m, 0)
    return TruncatedOperator(inner, T.p, _window(T, cut, cut))


@dataclass
class AsymptoticSequence:
    """Norms of the successive differences of the entry-shifted sections B_m.

    step_norms[m] is ||B_(m+1) - B_m|| on their common sub-box, where B_m is
    `section(T, m, directions)`.  The Cauchy verdict is the finite surrogate
    "final step norm at most tol".
    """

    directions: tuple[int, ...]
    step_norms: list[float]
    cauchy: bool


def asymptotic_sequence(
    T: TruncatedOperator, directions: tuple[int, ...], m_max: int, tol: float = LIMIT_TOL
) -> AsymptoticSequence:
    """Sections of T under iterated simultaneous shifts in the given directions, m = 0..m_max.

    The directions and m_max are those of a nonempty `interior`.
    """
    interior(T.box, m_max, directions)
    # step m reads T[l + (m+1)e, k + (m+1)e] - T[l + m*e, k + m*e], which is
    # entry (l + m*e, k + m*e) of the one matrix D_e; D_e needs every cap in
    # the directions to be at least 1, which m_max >= 1 guarantees
    step_norms: list[float] = []
    if m_max:
        depth = _exponents(interior(T.box, 1, directions), T.p)[list(directions)].min(axis=0)
        step_norms = operator_norm(_step(T, directions), (depth, depth, m_max))
    cauchy = bool(step_norms) and step_norms[-1] <= tol
    return AsymptoticSequence(directions=directions, step_norms=step_norms, cauchy=cauchy)


@dataclass
class CrossTermProfile:
    """Norms of the mixed-direction sections of T - A."""

    i: int
    j: int
    norms: list[float]


def cross_term_profile(
    K: TruncatedOperator, i: int, j: int, m_max: int, scan: _Scan | None = None
) -> CrossTermProfile:
    """Exact finite sections of the cross compressions of K.

    Entry (l, k) of the m-th section is K[l + m*e_i, k + m*e_j] over the
    interior pairs for which both translates stay in the box; i may equal
    j, and m_max fits both caps (`interior`).  scan is
    `operators._scan(K.matrix)` when the caller already holds it.
    """
    interior(K.box, m_max, (i,) if i == j else (i, j))
    x = _exponents(K.box, K.p)
    norms = operator_norm(K.matrix, (x[i] - 1, x[j] - 1, m_max), scan)
    return CrossTermProfile(i=i, j=j, norms=norms)


@dataclass
class CompactnessProfile:
    """Sequence c_m = ||(I - F_m) T (I - F_m)|| with a scale-qualified verdict.

    F_m projects onto monomials with every exponent below m, so c_m is the
    norm of the principal submatrix outside that corner; the sequence is
    non-increasing by construction.  The verdict means "numerically compact
    at (box, tol)", never an absolute claim.
    """

    m: list[int]
    c_m: list[float]
    tol: float
    m_max: int
    verdict: bool


def compactness_profile(
    T: TruncatedOperator, m_max: int, tol: float = LIMIT_TOL, scan: _Scan | None = None
) -> CompactnessProfile:
    """Norms of T compressed outside growing corner projectors F_m, m = 0..m_max.

    Each window contains the next, so c_m cannot rise in exact arithmetic,
    and a check that the values fall could fail only through rounding.  The
    verdict is the last value within tol, with every value finite: a window
    holding a non-finite entry has norm inf.  scan is
    `operators._scan(T.matrix)` when the caller already holds it.
    """
    box, p = T.box, T.p
    if m_max < 0 or m_max > min(box.caps) + 1:
        raise ValueError(f"m_max = {m_max} outside [0, {min(box.caps) + 1}]")
    depth = _exponents(box, p).max(axis=0)
    c_m = operator_norm(T.matrix, (depth, depth, m_max + 1), scan)
    return CompactnessProfile(
        m=list(range(m_max + 1)),
        c_m=c_m,
        tol=tol,
        m_max=m_max,
        verdict=c_m[-1] <= tol and all(map(math.isfinite, c_m)),
    )


@dataclass
class DecompositionResult:
    """Toeplitz + remainder split with all supporting diagnostics.

    The remainder is T - toeplitz(symbol, box) as computed, whatever the
    verdict says.  Adding the Toeplitz part back reproduces T to rounding,
    and bit for bit where every recovered diagonal was constant.  The
    Toeplitz part puts coeff(l - k) on every block, so its defect is 0.0 by
    construction and is not computed.  The verdict certifies (at this box
    and tolerance) that the per-direction sequences settled and the
    remainder profile decayed: T is Toeplitz plus compact, theorem (ii).
    """

    symbol: TorusSymbol
    remainder: TruncatedOperator
    remainder_profile: CompactnessProfile
    sequences: list[AsymptoticSequence]
    diagonal: AsymptoticSequence
    m_star: int
    m_max: int
    verdict: bool
    witness: dict | None


def asymptotic_decompose(
    T: TruncatedOperator,
    tol: float = LIMIT_TOL,
    m_max: int | None = None,
) -> DecompositionResult:
    """Split T into a Toeplitz part and a remainder, certifying the split.

    Per-direction sections provide the Cauchy verdicts.  The candidate symbol
    is read off the diagonals (`recover_symbol`) of the deepest stabilized
    section of the simultaneous all-directions sequence, whose shift by
    (m, ..., m) mirrors the diagonal index used to define the limiting
    coefficients.  A false verdict carries one of two witnesses, never an
    exception: `non_cauchy` for the first direction whose steps have not
    settled, else `remainder_not_compact` with the profile c_m.  The
    non-Cauchy worst_m is the first m whose step norm is within a relative
    TIE_RTOL of the largest, so steps that tie in exact arithmetic resolve
    to the earliest index rather than to rounding; step_norm is the norm at
    that m.  Only `remainder_not_compact` computes cross terms, all n^2: term
    (i, j) at m is the remainder on {x_i >= m + 1} x {x_j >= m + 1}, inside
    c_(m+1)'s window, so it cannot decide the verdict, but it locates the
    failure.  Its pair is the first (i, j), row-major, with the largest final
    term: cutting c_(m_max)'s window by the first variable at depth m_max of
    each row and column puts each piece in one final term, so the pair's is
    at least c_(m_max) / n^2.
    """
    box = T.box
    if m_max is None:
        m_max = min(box.caps) // 2
    if m_max < 1:
        raise ValueError(
            f"box caps {box.caps} too small: need m_max >= 1 (got {m_max})"
        )
    interior(box, m_max)
    sequences = [asymptotic_sequence(T, (i,), m_max, tol) for i in range(box.n)]
    diagonal = sequences[0] if box.n == 1 else asymptotic_sequence(T, tuple(range(box.n)), m_max, tol)
    stabilized = [m for m, s in enumerate(diagonal.step_norms) if s <= tol]
    m_star = stabilized[-1] if stabilized else m_max
    symbol = recover_symbol(section(T, m_star, diagonal.directions)).symbol
    # T's tensor view minus the section's, in one pass into the one new matrix
    full = (slice(None),) * box.n
    remainder = TruncatedOperator(box, T.p, np.empty((T.dim, T.dim), dtype=complex))
    with np.errstate(over="ignore"):  # an entry past the largest float is inf, and so is its norm
        np.subtract(_view(T, full, full), _section_view(symbol, box, box), out=_view(remainder, full, full))
    scan = _scan(remainder.matrix)  # one read of the remainder serves all its norm families
    remainder_profile = compactness_profile(remainder, m_max, tol, scan)
    witness: dict | None = None
    for seq in sequences:
        if not seq.cauchy:
            norms = np.asarray(seq.step_norms)
            worst = int(np.argmax(norms >= norms.max() * (1.0 - TIE_RTOL)))
            witness = {
                "kind": "non_cauchy",
                "direction": seq.directions[0],
                "step_norm": seq.step_norms[worst],
                "worst_m": worst,
                "step_norms": list(seq.step_norms),
            }
            break
    if witness is None and not remainder_profile.verdict:
        cross_terms = [
            cross_term_profile(remainder, i, j, m_max, scan)
            for i, j in itertools.product(range(box.n), repeat=2)
        ]
        top = cross_terms[int(np.argmax([ct.norms[-1] for ct in cross_terms]))]
        witness = {
            "kind": "remainder_not_compact",
            "c_m": list(remainder_profile.c_m),
            "tol": tol,
            "pair": [top.i, top.j],
            "cross_terms": [asdict(ct) for ct in cross_terms],
        }
    verdict = witness is None
    return DecompositionResult(
        symbol=symbol,
        remainder=remainder,
        remainder_profile=remainder_profile,
        sequences=sequences,
        diagonal=diagonal,
        m_star=m_star,
        m_max=m_max,
        verdict=verdict,
        witness=witness,
    )
