"""Multi-index arithmetic and truncation geometry for the monomial basis.

A multi-index is a plain tuple of ints.  Exponents of basis monomials are
nonnegative; symbol frequencies may be negative.  A :class:`Box` fixes
per-variable degree caps and therefore a finite section of the monomial
basis, enumerated in row-major order with the last variable fastest.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MultiIndex = tuple[int, ...]


@dataclass(frozen=True)
class Box:
    """Per-variable degree caps ``(d_1, ..., d_n)`` of a truncated basis."""

    caps: tuple[int, ...]

    def __post_init__(self):
        if len(self.caps) < 1:
            raise ValueError("box dimension must be >= 1")
        if any(isinstance(c, bool) or not isinstance(c, (int, np.integer)) or c < 0 for c in self.caps):
            raise ValueError(f"caps must be nonnegative integers, got {self.caps}")
        object.__setattr__(self, "caps", tuple(int(c) for c in self.caps))

    @property
    def n(self) -> int:
        return len(self.caps)

    @property
    def dim(self) -> int:
        """Number of basis monomials, prod(d_i + 1)."""
        out = 1
        for c in self.caps:
            out *= c + 1
        return out

    def contains(self, k: MultiIndex) -> bool:
        return len(k) == self.n and all(0 <= ki <= ci for ki, ci in zip(k, self.caps))


def enumerate_basis(box: Box) -> list[MultiIndex]:
    """All in-box multi-indices in row-major order (last coordinate fastest)."""
    return list(itertools.product(*(range(c + 1) for c in box.caps)))


@lru_cache(maxsize=256)
def index_array(box: Box) -> np.ndarray:
    """Enumeration as a read-only (N, n) int array, cached per box."""
    arr = np.array(enumerate_basis(box), dtype=np.int64).reshape(box.dim, box.n)
    arr.flags.writeable = False
    return arr


def strides(box: Box) -> tuple[int, ...]:
    """Mixed-radix weights so that position(k) = sum(k_i * stride_i)."""
    out = [1] * box.n
    for i in range(box.n - 2, -1, -1):
        out[i] = out[i + 1] * (box.caps[i + 1] + 1)
    return tuple(out)


def position(box: Box, k: MultiIndex) -> int:
    """Ordinal of ``k`` in enumerate_basis(box); inverse of enumeration."""
    if len(k) != box.n:
        raise ValueError(f"index {k} has length {len(k)}, box has dimension {box.n}")
    if not box.contains(k):
        raise ValueError(f"index {k} outside box caps {box.caps}")
    return int(sum(ki * si for ki, si in zip(k, strides(box))))


def interior(box: Box, m: int, directions: tuple[int, ...] | None = None) -> Box:
    """Sub-box with caps reduced by ``m`` in the selected directions.

    Directions are 0-based axes; ``None`` selects all of them.  This is the
    safe index set for an m-fold shift: ``k`` in the interior implies
    ``k + m*e_j`` stays in ``box`` for each selected ``j``.
    """
    if m < 0:
        raise ValueError("shift depth m must be nonnegative")
    dirs = tuple(range(box.n)) if directions is None else tuple(directions)
    if any(j < 0 or j >= box.n for j in dirs):
        raise ValueError(f"directions {dirs} out of range for dimension {box.n}")
    caps = list(box.caps)
    for j in dirs:
        caps[j] -= m
        if caps[j] < 0:
            raise ValueError(
                f"empty interior: m={m} exceeds cap {box.caps[j]} in direction {j}"
            )
    return Box(tuple(caps))


def positions_of(box: Box, indices: np.ndarray) -> np.ndarray:
    """Vectorized position() for an (M, n) array of in-box indices."""
    return indices @ np.asarray(strides(box), dtype=np.int64)
