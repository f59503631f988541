"""Reference computations the benchmark checks reports against.

Nothing here calls polytoep: operator and model-space files are parsed with
numpy, and every norm, diagonal statistic and compressed shift is computed
from the matrix by a route other than the program's (tensor slicing, bincount
over all entries, an explicit Kronecker normal map).  A check returns a list
of problems; an empty list is a pass.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import numpy as np

EPS = np.finfo(float).eps


def read_matrix_file(path) -> tuple[dict, np.ndarray]:
    """Header and complex matrix of a binary `.op` or `.ms` file."""
    raw = Path(path).read_bytes()
    nl = raw.index(b"\n")
    header = json.loads(raw[:nl])
    flat = np.frombuffer(raw[nl + 1 :], dtype="<f8")
    rows = header["p"] * int(np.prod([c + 1 for c in header["caps"]]))
    cols = header.get("q", rows)
    pairs = flat.reshape(rows, cols, 2)
    return header, pairs[..., 0] + 1j * pairs[..., 1]


def basis_indices(caps) -> np.ndarray:
    """Row-major enumeration of the box, last variable fastest."""
    return np.array(list(itertools.product(*(range(c + 1) for c in caps))), dtype=np.int64).reshape(-1, len(caps))


def spectral(blocks: np.ndarray) -> np.ndarray:
    """Spectral norms of a stack of (p, p) blocks."""
    if blocks.shape[-1] == 1:
        return np.abs(blocks[..., 0, 0])
    return np.linalg.norm(blocks, ord=2, axis=(-2, -1))


def norm2(matrix: np.ndarray) -> float:
    if matrix.size == 0:
        return 0.0
    return float(np.linalg.svd(matrix, compute_uv=False)[0])


def symbol_table(report_symbol: dict) -> dict[tuple[int, ...], np.ndarray]:
    """A report's symbol JSON as {frequency: block}."""
    return {
        tuple(c["k"]): np.asarray(c["re"]) + 1j * np.asarray(c["im"])
        for c in report_symbol["coefficients"]
    }


def diagonal_stats(M: np.ndarray, caps, p: int):
    """Mean, radius about the mean and real-part range of every diagonal.

    Diagonal f collects the blocks at (row l, column k) with l - k = f.  All
    N^2 block pairs are binned at once with bincount, so the sums run in a
    different order from the program's per-diagonal means.  Returns
    (freqs, means (F, p, p), radius (F,), real_ptp (F,)), where real_ptp is
    max - min of the entries' real parts (meaningful for p = 1).
    """
    idx = basis_indices(caps)
    N, n = idx.shape
    span = np.array([2 * c + 1 for c in caps])
    weights = np.ones(n, dtype=np.int64)
    for i in range(n - 2, -1, -1):
        weights[i] = weights[i + 1] * span[i + 1]
    lin = (idx + np.array(caps)) @ weights  # row offset, so l - k + caps >= 0
    diag = (lin[:, None] - (idx @ weights)[None, :]).reshape(-1)
    F = int(np.prod(span))
    blocks = M.reshape(N, p, N, p).transpose(0, 2, 1, 3).reshape(N * N, p, p)
    counts = np.bincount(diag, minlength=F)
    means = np.empty((F, p, p), dtype=complex)
    for a in range(p):
        for b in range(p):
            re = np.bincount(diag, weights=blocks[:, a, b].real, minlength=F)
            im = np.bincount(diag, weights=blocks[:, a, b].imag, minlength=F)
            means[:, a, b] = (re + 1j * im) / counts
    radius = np.zeros(F)
    np.maximum.at(radius, diag, spectral(blocks - means[diag]))
    hi = np.full(F, -np.inf)
    lo = np.full(F, np.inf)
    np.maximum.at(hi, diag, blocks[:, 0, 0].real)
    np.minimum.at(lo, diag, blocks[:, 0, 0].real)
    freqs = [tuple(int(x) for x in f) for f in itertools.product(*(range(-c, c + 1) for c in caps))]
    return freqs, means, radius, hi - lo


def shift_defects(M: np.ndarray, caps, p: int) -> list[float]:
    """max ||T[l+e_j, k+e_j] - T[l, k]|| per direction, by tensor slicing."""
    n = len(caps)
    shape = tuple(c + 1 for c in caps)
    T = M.reshape(shape + (p,) + shape + (p,))
    out = []
    for j in range(n):
        if caps[j] == 0:
            out.append(0.0)
            continue
        hi = [slice(None)] * (2 * n + 2)
        lo = [slice(None)] * (2 * n + 2)
        hi[j] = hi[n + 1 + j] = slice(1, None)
        lo[j] = lo[n + 1 + j] = slice(0, -1)
        # move the row component axis last: blocks come out transposed,
        # which leaves their spectral norms unchanged
        D = np.moveaxis(T[tuple(hi)] - T[tuple(lo)], n, -1).reshape(-1, p, p)
        out.append(float(spectral(D).max()))
    return out


def compressed_shifts(basis: np.ndarray, caps) -> list[np.ndarray]:
    """V* S_i V for each coordinate shift S_i of the box (top layer killed)."""
    idx = basis_indices(caps)
    where = {tuple(k): r for r, k in enumerate(idx.tolist())}
    out = []
    for i in range(len(caps)):
        S = np.zeros((len(idx), len(idx)))
        for r, k in enumerate(idx.tolist()):
            if k[i] < caps[i]:
                k[i] += 1
                S[where[tuple(k)], r] = 1.0
        out.append(basis.conj().T @ S @ basis)
    return out


def invariance_sigma_min(shifts: list[np.ndarray]) -> float:
    """sigma_min of A -> (A - C_i* A C_i)_i from eigvalsh of its explicit normal map."""
    q = shifts[0].shape[0]
    normal = np.zeros((q * q, q * q), dtype=complex)
    for C in shifts:
        L = np.eye(q * q) - np.kron(C.conj().T, C.T)  # row-major vec(C* A C)
        normal += L.conj().T @ L
    lam = float(np.linalg.eigvalsh(normal)[0])
    return float(np.sqrt(max(lam, 0.0)))


def rayleigh_bound_at_identity(shifts: list[np.ndarray]) -> float:
    """||L(I)|| / ||I||_F, an upper bound on sigma_min of the invariance map."""
    q = shifts[0].shape[0]
    total = sum(np.linalg.norm(np.eye(q) - C.conj().T @ C) ** 2 for C in shifts)
    return float(np.sqrt(total / q))


def close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol
