"""Multi-index arithmetic and truncation geometry for the monomial basis.

A multi-index is a plain tuple of ints.  Exponents of basis monomials are
nonnegative; symbol frequencies may be negative.  A :class:`Box` fixes
per-variable degree caps and therefore a finite section of the monomial
basis; its layout as matrix rows belongs to `operators`.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _check_directions(box: Box, directions: tuple[int, ...]) -> None:
    if len(set(directions)) != len(directions) or any(not 0 <= j < box.n for j in directions):
        raise ValueError(
            f"directions {directions} out of range or repeated: need distinct axes in 0..{box.n - 1}"
        )


def interior(box: Box, m: int, directions: tuple[int, ...] | None = None) -> Box:
    """Sub-box with caps reduced by ``m`` in the selected directions.

    Directions are distinct 0-based axes; ``None`` selects all of them.
    This is the safe index set for an m-fold shift: ``k`` in the interior
    implies ``k + m*e_j`` stays in ``box`` for each selected ``j``.  The one
    check of a shifted sub-box: bad directions, a negative ``m`` and an
    ``m`` past a cap are refused here.
    """
    if m < 0:
        raise ValueError(f"shift depth m = {m} must be nonnegative")
    dirs = tuple(range(box.n)) if directions is None else tuple(directions)
    _check_directions(box, dirs)
    caps = list(box.caps)
    for j in dirs:
        caps[j] -= m
        if caps[j] < 0:
            raise ValueError(
                f"empty interior: m = {m} exceeds cap {box.caps[j]} in direction {j}"
            )
    return Box(tuple(caps))
