"""Shift-invariance tests, symbol recovery, compactness profiles, decomposition.

Every m-indexed quantity here is realized by entry shifting into interior
sub-boxes rather than by multiplying truncated shift matrices.  Truncated
shifts fail to be isometries at the top layer, so the entry-shifted sections
are the exact finite forms of the infinite-dimensional identities; nothing
in this module is polluted by truncation artifacts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .lattice import Box, MultiIndex, index_array, interior, positions_of, strides
from .operators import TruncatedOperator, block_rows, operator_norm, toeplitz
from .symbols import TorusSymbol, _spectral

EXACT_TOL = 1e-10   # identities that hold in exact arithmetic on polynomial inputs
LIMIT_TOL = 1e-6    # finite surrogates for norm-limit statements
TIE_RTOL = 1e-12    # step norms this close to the largest, relative to it, count as tied


def _block_norm_grid(D: np.ndarray, p: int) -> np.ndarray:
    """Per-block spectral norms of a (R*p, C*p) matrix as an (R, C) grid."""
    if p == 1:
        return np.abs(D)
    R, C = D.shape[0] // p, D.shape[1] // p
    blocks = D.reshape(R, p, C, p).transpose(0, 2, 1, 3)
    return np.linalg.norm(blocks, ord=2, axis=(-2, -1))


def _shifted_positions(box: Box, m: int, directions: tuple[int, ...]) -> tuple[Box, np.ndarray]:
    """Interior sub-box for an m-fold shift and the in-box positions of its translate."""
    inner = interior(box, m, directions)
    idx = index_array(inner).copy()
    for j in directions:
        idx[:, j] += m
    return inner, positions_of(box, idx)


def _gather(matrix: np.ndarray, p: int, row_pos: np.ndarray, col_pos: np.ndarray) -> np.ndarray:
    return matrix[np.ix_(block_rows(row_pos, p), block_rows(col_pos, p))]


@dataclass
class DefectReport:
    """Outcome of the shift-invariance (diagonal-constancy) test."""

    defects: tuple[float, ...]
    overall: float
    tol: float
    verdict: bool
    witness: dict | None

    def to_dict(self) -> dict:
        return {
            "defects": list(self.defects),
            "overall": self.overall,
            "tol": self.tol,
            "verdict": self.verdict,
            "witness": self.witness,
        }


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
        if box.caps[j] == 0:
            defects.append(0.0)  # no shiftable pairs in a flat direction
            continue
        inner = interior(box, 1, (j,))
        idx = index_array(inner)
        pos0 = positions_of(box, idx)
        pos1 = pos0 + strides(box)[j]
        D = _gather(T.matrix, p, pos1, pos1) - _gather(T.matrix, p, pos0, pos0)
        grid = _block_norm_grid(D, p)
        dj = float(grid.max()) if grid.size else 0.0
        defects.append(dj)
        if dj > overall:
            overall = dj
            a, b = np.unravel_index(int(np.argmax(grid)), grid.shape)
            l, k = tuple(int(x) for x in idx[a]), tuple(int(x) for x in idx[b])
            ej = tuple(1 if i == j else 0 for i in range(box.n))
            witness = {
                "direction": j,
                "base": [list(l), list(k)],
                "shifted": [[x + e for x, e in zip(l, ej)], [x + e for x, e in zip(k, ej)]],
                "defect": dj,
            }
    return DefectReport(
        defects=tuple(defects),
        overall=overall,
        tol=tol,
        verdict=overall <= tol,
        witness=witness,
    )


def _diameter(blocks: np.ndarray, p: int) -> float:
    """Largest pairwise block distance along one diagonal (its Toeplitz spread)."""
    if p == 1:
        vals = np.unique(blocks.reshape(-1))
        if vals.size <= 1:
            return 0.0
        diff = np.abs(vals[:, None] - vals[None, :])
        return float(diff.max())
    flat = np.unique(blocks.reshape(blocks.shape[0], -1), axis=0)
    if flat.shape[0] <= 1:
        return 0.0
    diff = flat[:, None, :] - flat[None, :, :]
    diff = diff.reshape(-1, p, p)
    return float(np.linalg.norm(diff, ord=2, axis=(-2, -1)).max())


@dataclass
class SymbolRecovery:
    """Recovered symbol plus the per-diagonal spread witnessing non-Toeplitzness."""

    symbol: TorusSymbol
    deviations: dict[MultiIndex, float]
    max_deviation: float


def recover_symbol(T: TruncatedOperator) -> SymbolRecovery:
    """Read a candidate symbol off the matrix diagonals.

    The coefficient at frequency f is taken from the blocks with
    row - col = f: a constant diagonal yields its representative, any other
    diagonal its mean.  The two agree in exact arithmetic; taking the
    representative keeps a constant diagonal bit-exact, so a Toeplitz part
    rebuilt from the symbol cancels it entry by entry.  The deviation map
    records the largest spread among those blocks (zero exactly on diagonals
    that are already constant).
    """
    box, p = T.box, T.p
    caps = box.caps
    str_box = strides(box)
    B4 = T.matrix.reshape(box.dim, p, box.dim, p)
    coeffs: dict[MultiIndex, np.ndarray] = {}
    deviations: dict[MultiIndex, float] = {}
    max_dev = 0.0
    for f in itertools.product(*(range(-c, c + 1) for c in caps)):
        sub = Box(tuple(c - abs(fi) for c, fi in zip(caps, f)))
        idx = index_array(sub).copy()
        for i, fi in enumerate(f):
            if fi < 0:
                idx[:, i] -= fi
        pos_k = positions_of(box, idx)
        pos_l = pos_k + sum(fi * si for fi, si in zip(f, str_box))
        blocks = B4[pos_l, :, pos_k, :]
        spread = _diameter(blocks, p)
        # copy, so the stored coefficient does not keep the whole diagonal alive
        coeff = blocks[0].copy() if spread == 0.0 else blocks.mean(axis=0)
        deviations[f] = spread
        max_dev = max(max_dev, spread)
        if _spectral(coeff) != 0.0:
            coeffs[f] = coeff
    sym = TorusSymbol(box.n, p, coeffs, 0.0)
    return SymbolRecovery(symbol=sym, deviations=deviations, max_deviation=max_dev)


def section(T: TruncatedOperator, m: int, directions: tuple[int, ...]) -> TruncatedOperator:
    """Entry-shifted section B_m: entries T[l + m*e, k + m*e] on the interior box.

    e sums the unit vectors of the selected directions.
    """
    inner, pos = _shifted_positions(T.box, m, directions)
    return TruncatedOperator(inner, T.p, _gather(T.matrix, T.p, pos, pos))


@dataclass
class AsymptoticSequence:
    """Norms of the successive differences of the entry-shifted sections B_m.

    step_norms[m] is ||B_(m+1) - B_m|| on their common sub-box, where B_m is
    `section(T, m, directions)`.  The Cauchy verdict is the finite surrogate
    "final step norm at most tol".
    """

    directions: tuple[int, ...]
    tol: float
    step_norms: list[float]
    cauchy: bool


def _sequence(T: TruncatedOperator, directions: tuple[int, ...], m_max: int, tol: float) -> AsymptoticSequence:
    box, p = T.box, T.p
    for j in directions:
        if m_max > box.caps[j]:
            raise ValueError(
                f"m_max = {m_max} exceeds cap {box.caps[j]} in direction {j}"
            )
    step_norms: list[float] = []
    prev = section(T, 0, directions)
    for m in range(m_max):
        cur = section(T, m + 1, directions)
        sub = positions_of(prev.box, index_array(cur.box))
        rows = block_rows(sub, p)
        step_norms.append(operator_norm(cur.matrix - prev.matrix[np.ix_(rows, rows)]))
        prev = cur
    cauchy = bool(step_norms) and step_norms[-1] <= tol
    return AsymptoticSequence(
        directions=directions,
        tol=tol,
        step_norms=step_norms,
        cauchy=cauchy,
    )


def asymptotic_sequence(T: TruncatedOperator, direction: int, m_max: int, tol: float = LIMIT_TOL) -> AsymptoticSequence:
    """Sections of T under iterated shifts in one coordinate direction."""
    if direction < 0 or direction >= T.box.n:
        raise ValueError(f"direction {direction} out of range")
    return _sequence(T, (direction,), m_max, tol)


@dataclass
class CrossTermProfile:
    """Norms of the mixed-direction sections of T - A."""

    i: int
    j: int
    norms: list[float]

    @property
    def final(self) -> float:
        return self.norms[-1] if self.norms else 0.0


def cross_term_profile(
    T: TruncatedOperator,
    A: TruncatedOperator,
    i: int,
    j: int,
    m_max: int,
) -> CrossTermProfile:
    """Exact finite sections of the cross compressions of T - A.

    Entry (l, k) of the m-th section is (T - A)[l + m*e_i, k + m*e_j] over
    the interior pairs for which both translates stay in the box.
    """
    if T.box != A.box or T.p != A.p:
        raise ValueError("operators live on different truncations")
    box, p = T.box, T.p
    if m_max > min(box.caps[i], box.caps[j]):
        raise ValueError(f"m_max = {m_max} too deep for directions ({i}, {j})")
    K = T.matrix - A.matrix
    norms: list[float] = []
    for m in range(1, m_max + 1):
        _, rpos = _shifted_positions(box, m, (i,))
        if i == j:
            cpos = rpos
        else:
            _, cpos = _shifted_positions(box, m, (j,))
        norms.append(operator_norm(K[np.ix_(block_rows(rpos, p), block_rows(cpos, p))]))
    return CrossTermProfile(i=i, j=j, norms=norms)


@dataclass
class CompactnessProfile:
    """Sequence c_m = ||(I - F_m) T (I - F_m)|| with a scale-qualified verdict.

    F_m projects onto monomials with every exponent below m, so c_m is the
    norm of the principal submatrix outside that corner; the sequence is
    non-increasing by construction.  The verdict means "numerically compact
    at (box, tol)", never an absolute claim.
    """

    ms: list[int]
    values: list[float]
    tol: float
    m_max: int
    verdict: bool

    def to_dict(self) -> dict:
        return {
            "m": self.ms,
            "c_m": self.values,
            "tol": self.tol,
            "m_max": self.m_max,
            "verdict": self.verdict,
        }


def compactness_profile(T: TruncatedOperator, m_max: int, tol: float = LIMIT_TOL) -> CompactnessProfile:
    """Norms of T compressed outside growing corner projectors F_m, m = 0..m_max."""
    box, p = T.box, T.p
    if m_max < 0 or m_max > min(box.caps) + 1:
        raise ValueError(f"m_max = {m_max} outside [0, {min(box.caps) + 1}]")
    idx = index_array(box)
    values: list[float] = []
    for m in range(m_max + 1):
        outside = np.nonzero((idx >= m).any(axis=1))[0]
        rows = block_rows(outside, p)
        values.append(operator_norm(T.matrix[np.ix_(rows, rows)]))
    monotone = all(values[i + 1] <= values[i] + 10.0 * tol for i in range(len(values) - 1))
    verdict = values[-1] <= tol and monotone
    return CompactnessProfile(
        ms=list(range(m_max + 1)),
        values=values,
        tol=tol,
        m_max=m_max,
        verdict=verdict,
    )


@dataclass
class DecompositionResult:
    """Toeplitz + remainder split with all supporting diagnostics.

    The identity T = toeplitz_part + remainder holds exactly whatever the
    verdict says; the verdict certifies (at this box and tolerance) that the
    per-direction sequences settled, the remainder profile decayed, and all
    cross terms ended below tolerance.
    """

    symbol: TorusSymbol
    recovery: SymbolRecovery
    toeplitz_part: TruncatedOperator
    remainder: TruncatedOperator
    toeplitz_part_defect: DefectReport
    remainder_profile: CompactnessProfile
    sequences: list[AsymptoticSequence]
    diagonal: AsymptoticSequence
    cross_terms: list[CrossTermProfile]
    m_star: int
    m_max: int
    tol: float
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
    coefficients.  A non-Cauchy direction yields verdict False with a witness,
    never an exception.  Its worst_m is the first m whose step norm is within
    a relative TIE_RTOL of the largest, so steps that tie in exact arithmetic
    resolve to the earliest index rather than to rounding; step_norm is the
    norm at that m.
    """
    box = T.box
    if m_max is None:
        m_max = min(box.caps) // 2
    if m_max < 1:
        raise ValueError(
            f"box caps {box.caps} too small: need m_max >= 1 (got {m_max})"
        )
    if m_max > min(box.caps):
        raise ValueError(f"m_max = {m_max} exceeds min cap {min(box.caps)}")
    sequences = [_sequence(T, (i,), m_max, tol) for i in range(box.n)]
    diagonal = sequences[0] if box.n == 1 else _sequence(T, tuple(range(box.n)), m_max, tol)
    stabilized = [m for m, s in enumerate(diagonal.step_norms) if s <= tol]
    m_star = stabilized[-1] if stabilized else m_max
    recovery = recover_symbol(section(T, m_star, diagonal.directions))
    part = toeplitz(recovery.symbol, box)
    remainder = T - part
    part_defect = toeplitz_defect(part)
    profile_depth = min(m_max, min(box.caps) + 1)
    remainder_profile = compactness_profile(remainder, profile_depth, tol)
    cross_terms = [
        cross_term_profile(T, part, i, j, m_max)
        for i, j in itertools.product(range(box.n), repeat=2)
    ]
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
        witness = {
            "kind": "remainder_not_compact",
            "c_m": list(remainder_profile.values),
            "tol": tol,
        }
    if witness is None:
        for ct in cross_terms:
            if ct.final > tol:
                witness = {
                    "kind": "cross_term",
                    "directions": [ct.i, ct.j],
                    "final_norm": ct.final,
                    "norms": list(ct.norms),
                }
                break
    verdict = witness is None
    return DecompositionResult(
        symbol=recovery.symbol,
        recovery=recovery,
        toeplitz_part=part,
        remainder=remainder,
        toeplitz_part_defect=part_defect,
        remainder_profile=remainder_profile,
        sequences=sequences,
        diagonal=diagonal,
        cross_terms=cross_terms,
        m_star=m_star,
        m_max=m_max,
        tol=tol,
        verdict=verdict,
        witness=witness,
    )
