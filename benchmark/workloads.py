"""The benchmark's workloads: seeded input files, CLI jobs and their checks.

Each workload builds its input files with the program's own `symbols`,
`operators`, `modelspace` and `io` functions, then lists the CLI jobs to run
on them.  A job carries the exit code its construction predicts and a check
that compares its JSON report with a reference computed apart from the
program (see `checks.py`).  Inputs depend only on the seed; the boxes, depths,
noise levels and model spaces are fixed, so every seed does the same work.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from polytoep import io, modelspace, operators, symbols
from polytoep.lattice import Box

import checks

SPAN = 2              # frequency span |k_i| <= 2 of every random symbol
NOISE = 1e-3          # entrywise standard deviation of the dense noise
INVARIANCE_TOL = 1e-8  # the CLI's default --tol for invariance
EXPLICIT_Q = 40       # largest q whose q^2 x q^2 normal map the checks build


@dataclass
class Job:
    """One CLI call.  `{out}` in argv is replaced by the job's output prefix."""

    name: str
    argv: list[str]
    expect: int
    check: Callable[[dict], list[str]]


@dataclass
class Setup:
    """Wall-clock time spent inside program calls while writing inputs."""

    seconds: float = 0.0
    _t0: float = field(default=0.0, repr=False)

    def __enter__(self):
        self._t0 = time.perf_counter()

    def __exit__(self, *exc):
        self.seconds += time.perf_counter() - self._t0


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed, *key])


def _gaussian(rng, shape, complex_: bool = True) -> np.ndarray:
    out = rng.standard_normal(shape).astype(complex)
    if complex_:
        out += 1j * rng.standard_normal(shape)
    return out


def _low_rows(box: Box, depth: int, p: int) -> np.ndarray:
    """Matrix rows of the monomials with every exponent below `depth`."""
    idx = checks.basis_indices(box.caps)
    low = np.nonzero((idx < depth).all(axis=1))[0]
    return (low[:, None] * p + np.arange(p)[None, :]).reshape(-1)


def _write_operator(clock: Setup, path: Path, sym, box: Box, extra: np.ndarray | None = None) -> None:
    with clock:
        op = operators.toeplitz(sym, box)
    if extra is not None:
        op = operators.TruncatedOperator(box, op.p, op.matrix + extra)
    with clock:
        io.save_operator(path, op)


def _symbol_problems(report: dict, truth, caps, m_star: int, scale: float) -> list[str]:
    """Recovered coefficients against the constructed ones on every in-box frequency."""
    rec = checks.symbol_table(report["symbol"])
    zero = np.zeros((truth.p, truth.p))
    worst = 0.0
    for f in np.ndindex(*(2 * (c - m_star) + 1 for c in caps)):
        f = tuple(int(x) - (c - m_star) for x, c in zip(f, caps))
        diff = rec.get(f, zero) - truth.coefficients.get(f, zero)
        worst = max(worst, float(checks.spectral(diff[None])[0]))
    if worst > 1e-10 * scale:
        return [f"recovered symbol off by {worst:.3e} (scale {scale:.3e})"]
    return []


# -- decompose-sparse ---------------------------------------------------------

# (caps, p, depth): a random span-2 symbol plus a random block on the monomials
# with every exponent below `depth`.  depth <= m_max - 1 with the CLI's default
# m_max = min(caps) // 2, so the deepest sections miss the perturbation and the
# verdict is True.
SPARSE = [
    ((11, 11), 1, 3),
    ((127,), 1, 8),
    ((5, 5, 5), 1, 1),
    ((63,), 2, 4),
    ((15, 15), 1, 4),
    ((95,), 2, 4),
    ((6, 6, 6), 1, 2),
    ((191,), 1, 8),
    ((19, 19), 1, 4),
]
FLIP_CAPS = (64, 128)
SPARSE_TINY = [((5, 5), 1, 1), ((15,), 1, 3), ((15,), 2, 2), ((3, 3, 3), 1, 0)]
FLIP_TINY = (8,)


def _check_sparse(truth, K: np.ndarray, caps, depth: int, scale: float):
    def check(report: dict) -> list[str]:
        problems = []
        if report["verdict"] is not True:
            problems.append(f"verdict {report['verdict']}, witness {report['witness']}")
        problems += _symbol_problems(report, truth, caps, report["m_star"], scale)
        c = report["remainder_profile"]["c_m"]
        want = checks.norm2(K)
        if not checks.close(c[0], want, 1e-10 * scale):
            problems.append(f"c_0 = {c[0]!r}, perturbation norm {want!r}")
        tol = report["remainder_profile"]["tol"]
        late = [v for m, v in enumerate(c) if m >= depth and v > tol]
        if late:
            problems.append(f"c_m above tol {tol} for m >= {depth}: {late}")
        return problems

    return check


def _check_flip(d: int):
    want = 2.0 * math.cos(math.pi / (d + 1))

    def check(report: dict) -> list[str]:
        w = report["witness"] or {}
        if report["verdict"] is not False or w.get("kind") != "non_cauchy":
            return [f"flip({d}): verdict {report['verdict']}, witness kind {w.get('kind')}"]
        if not checks.close(w["step_norm"], want, 1e-12):
            return [f"flip({d}) witness {w['step_norm']!r}, expected 2cos(pi/{d + 1}) = {want!r}"]
        return []

    return check


def decompose_sparse(workdir: Path, seed: int, clock: Setup, tiny: bool = False) -> list[Job]:
    jobs = []
    for i, (caps, p, depth) in enumerate(SPARSE_TINY if tiny else SPARSE):
        box = Box(caps)
        sym = symbols.random_symbol(box.n, SPAN, p=p, rng=_rng(seed, 0, i))
        rows = _low_rows(box, depth, p)
        block = _gaussian(_rng(seed, 1, i), (rows.size, rows.size))
        K = np.zeros((p * box.dim,) * 2, dtype=complex)
        K[np.ix_(rows, rows)] = block
        path = workdir / f"sparse{i}.op"
        _write_operator(clock, path, sym, box, K)
        scale = max(1.0, max(float(checks.spectral(b[None])[0]) for b in sym.coefficients.values()))
        verb = "block-decompose" if p > 1 else "decompose"
        argv = [verb, str(path)]
        if i == 1:  # one job also writes the CSV sequences and the symbol file
            argv += ["--csv", "{out}", "--symbol-out", "{out}.symbol.json"]
        jobs.append(Job(f"{verb}{list(caps)}p{p}", argv, 0, _check_sparse(sym, block, caps, depth, scale)))
    for d in FLIP_TINY if tiny else FLIP_CAPS:
        path = workdir / f"flip{d}.op"
        flip = operators.TruncatedOperator(Box((d,)), 1, np.eye(d + 1)[::-1].astype(complex))
        with clock:
            io.save_operator(path, flip)
        jobs.append(Job(f"decompose-flip[{d}]", ["decompose", str(path)], 1, _check_flip(d)))
    return jobs


# -- noisy-sections -----------------------------------------------------------

# (caps, p, complex noise, verbs): a random span-2 symbol plus dense Gaussian
# noise of entrywise size NOISE.  Boxes are cubes, so full-depth compactness
# ends on an empty complement (c = 0, verdict True).
ALL_VERBS = ("check-toeplitz", "recover", "compactness", "decompose")
NOISY = [
    ((7, 7), 2, False, ALL_VERBS),
    ((5, 5, 5), 1, True, ALL_VERBS),
    ((127,), 1, False, ALL_VERBS),
    ((63,), 2, True, ALL_VERBS),
    ((15, 15), 1, True, ALL_VERBS),
    ((19, 19), 1, False, ALL_VERBS[:3]),
    ((23, 23), 1, True, ALL_VERBS[:2]),
]
NOISY_TINY = [((4, 4), 2, False, ALL_VERBS), ((15,), 1, True, ALL_VERBS), ((5, 5), 1, False, ALL_VERBS)]


def _noise(seed: int, i: int, dim: int, complex_: bool) -> np.ndarray:
    return NOISE * _gaussian(_rng(seed, 3, i), (dim, dim), complex_)


def _check_noisy(verb: str, path: Path, seed: int, i: int, caps, p: int, complex_: bool):
    def check(report: dict) -> list[str]:
        _, M = checks.read_matrix_file(path)
        scale = float(np.abs(M).max())
        slack = 64 * checks.EPS * scale
        if verb == "check-toeplitz":
            want = checks.shift_defects(M, caps, p)
            got = report["defects"]
            if report["verdict"] is not False or not all(
                checks.close(a, b, slack) for a, b in zip(got, want)
            ):
                return [f"defects {got} (verdict {report['verdict']}), expected {want}"]
            return []
        if verb == "recover":
            # a mean of L entries, summed in another order, moves by up to L eps
            return _check_recover(report, M, caps, p, complex_, _noise(seed, i, M.shape[0], complex_), 1e-12 * scale)
        if verb == "compactness":
            c = report["c_m"]
            problems = []
            if any(b > a + slack * len(c) for a, b in zip(c, c[1:])):
                problems.append(f"c_m increases: {c}")
            want = checks.norm2(M)
            if not checks.close(c[0], want, 1e-12 * want):
                problems.append(f"c_0 = {c[0]!r}, ||T|| = {want!r}")
            return problems
        w = report["witness"] or {}
        bound = 2.0 * checks.norm2(_noise(seed, i, M.shape[0], complex_))
        if report["verdict"] is not False or w.get("kind") != "non_cauchy":
            return [f"decompose: verdict {report['verdict']}, witness kind {w.get('kind')}"]
        if not w["step_norm"] <= bound * (1 + 1e-12):
            return [f"step norm {w['step_norm']!r} above 2||noise|| = {bound!r}"]
        return []

    return check


def _check_recover(report, M, caps, p, complex_, noise, slack) -> list[str]:
    freqs, means, radius, real_ptp = checks.diagonal_stats(M, caps, p)
    coeffs = checks.symbol_table(report["symbol"])
    spreads = {tuple(d["f"]): d["spread"] for d in report["deviations"]}
    problems = []
    zero = np.zeros((p, p))
    mean_err = max(
        float(checks.spectral((coeffs.get(f, zero) - means[j])[None])[0]) for j, f in enumerate(freqs)
    )
    if mean_err > slack:
        problems.append(f"diagonal means off by {mean_err:.3e}")
    if set(spreads) != set(freqs):
        problems.append(f"{len(spreads)} spreads reported for {len(freqs)} diagonals")
        return problems
    s = np.array([spreads[f] for f in freqs])
    if np.any(s < radius - slack) or np.any(s > 2 * radius + slack):
        problems.append("a spread lies outside [max|x - mean|, 2 max|x - mean|]")
    if p == 1 and not complex_:
        if not np.array_equal(s, real_ptp):
            problems.append("a spread differs from the diagonal's real-part range")
        _, _, _, noise_ptp = checks.diagonal_stats(noise, caps, 1)
        if np.abs(s - noise_ptp).max() > slack:
            problems.append("a spread differs from the noise range on its diagonal")
    return problems


def noisy_sections(workdir: Path, seed: int, clock: Setup, tiny: bool = False) -> list[Job]:
    jobs = []
    for i, (caps, p, complex_, verbs) in enumerate(NOISY_TINY if tiny else NOISY):
        box = Box(caps)
        sym = symbols.random_symbol(box.n, SPAN, p=p, rng=_rng(seed, 2, i))
        path = workdir / f"noisy{i}.op"
        _write_operator(clock, path, sym, box, _noise(seed, i, p * box.dim, complex_))
        kind = "complex" if complex_ else "real"
        for verb in verbs:
            argv = [verb, str(path)]
            expect = 1 if verb in ("check-toeplitz", "decompose") else 0
            jobs.append(
                Job(f"{verb}{list(caps)}p{p}-{kind}", argv, expect, _check_noisy(verb, path, seed, i, caps, p, complex_))
            )
    return jobs


# -- model-rigidity -----------------------------------------------------------

def _blaschke_product(seed: int, i: int, degree: int):
    """b_a(z1) b_b(z2) with |a| = |b| = 1/2 and seed-drawn phases.

    Rotating a parameter is a unitary change of variable on the box, so every
    seed gives a unitarily equivalent model space and the same spectra.
    """
    phase = np.exp(2j * np.pi * _rng(seed, 4, i).random(2))
    return symbols.product_inner(
        [symbols.blaschke_factor(0.5 * phase[0], degree), symbols.blaschke_factor(-0.5j * phase[1], degree)]
    )


def _monomial(*k: int):
    return symbols.from_coefficients(len(k), 1, [(k, 1.0)])


# (label, theta builder, caps, jobs).  n = 2 with q <= 90 takes the dense SVD,
# q >= 91 the Lanczos path.  Model-compactness jobs are (operator, m_max,
# expected exit): "identity", "random" (a seeded q x q operator file), and the
# predictions follow from the space: monomials z1^a z2^b with b below the
# exponent of z2 in theta span a z1-shift-invariant subspace (and likewise for
# a Blaschke factor), so compressions of I or a random T stay away from 0,
# while on z^N the compressed shift is nilpotent of order N.
MODEL = [
    ("z1^2z2", lambda s, i: _monomial(2, 1), (6, 6), ["invariance"]),
    ("b2*b2", lambda s, i: _blaschke_product(s, i, 2), (5, 5), ["invariance"]),
    ("z^6", lambda s, i: _monomial(6), (12,), [("random", 8, 0)]),
    ("z1z2", lambda s, i: _monomial(1, 1), (20, 20), [("identity", 4, 1)]),
    ("b3*b3", lambda s, i: _blaschke_product(s, i, 3), (6, 6), ["invariance"]),
    ("b6*b6", lambda s, i: _blaschke_product(s, i, 6), (12, 12), [("identity", 4, 1), ("random", 4, 1)]),
    ("z1^6z2^6", lambda s, i: _monomial(6, 6), (24, 24), [("identity", 4, 1), ("random", 4, 1)]),
    ("b7*b7", lambda s, i: _blaschke_product(s, i, 7), (9, 9), ["invariance"]),
]
MODEL_TINY = [
    ("z1^2z2", lambda s, i: _monomial(2, 1), (4, 4), ["invariance", ("random", 3, 1)]),
    ("b1*b1", lambda s, i: _blaschke_product(s, i, 1), (3, 3), ["invariance"]),
    ("z^3", lambda s, i: _monomial(3), (6,), [("random", 4, 0)]),
    ("z1z2", lambda s, i: _monomial(1, 1), (5, 5), [("identity", 3, 1)]),
]


def _check_invariance(path: Path):
    def check(report: dict) -> list[str]:
        header, V = checks.read_matrix_file(path)
        problems = []
        if report["kernel_dim"] != 0 or report["q"] != V.shape[1]:
            problems.append(f"kernel_dim {report['kernel_dim']}, q {report['q']} (file q {V.shape[1]})")
        shifts = checks.compressed_shifts(V, header["caps"])
        sigma = report["sigma_min"]
        if V.shape[1] <= EXPLICIT_Q:
            want = checks.invariance_sigma_min(shifts)
            if not checks.close(sigma, want, 1e-10):
                problems.append(f"sigma_min {sigma!r}, eigvalsh of the normal map gives {want!r}")
        else:
            bound = checks.rayleigh_bound_at_identity(shifts)
            if report["residual"] > 1e-8 or sigma > bound + 1e-12 or sigma <= INVARIANCE_TOL:
                problems.append(
                    f"sigma_min {sigma!r} (Rayleigh bound {bound!r}), residual {report['residual']!r}"
                )
        return problems

    return check


def _check_model_compactness(label: str, T: np.ndarray | None, m_max: int):
    def check(report: dict) -> list[str]:
        top = 1.0 if T is None else checks.norm2(T)
        slack = 64 * checks.EPS * top
        problems = []
        for i, seq in enumerate(report["norms"]):
            if len(seq) != m_max or seq[0] > top + slack:
                problems.append(f"direction {i}: {len(seq)} values, first {seq[0]!r} vs ||T|| = {top!r}")
            if any(b > a + slack for a, b in zip(seq, seq[1:])):
                problems.append(f"direction {i}: norms increase: {seq}")
        if label == "z1z2" and T is None:
            if any(abs(v - 1.0) > 1e-10 for seq in report["norms"] for v in seq):
                problems.append(f"z1z2 identity norms differ from 1: {report['norms']}")
        if label.startswith("z^"):
            N = int(label[2:])
            if any(v != 0.0 for v in report["norms"][0][N - 1 :]):
                problems.append(f"z^{N}: norms not exactly 0 from m = {N} on: {report['norms'][0]}")
        return problems

    return check


def model_rigidity(workdir: Path, seed: int, clock: Setup, tiny: bool = False) -> list[Job]:
    jobs = []
    for i, (label, theta_of, caps, todo) in enumerate(MODEL_TINY if tiny else MODEL):
        theta = theta_of(seed, i)
        path = workdir / f"model{i}.ms"
        with clock:
            ms = modelspace.model_basis(theta, Box(caps))
            io.save_modelspace(path, ms)
        for item in todo:
            if item == "invariance":
                argv = ["invariance", "--modelspace", str(path)]
                jobs.append(Job(f"invariance[{label}]q{ms.q}", argv, 0, _check_invariance(path)))
                continue
            kind, m_max, expect = item
            argv = ["model-compactness", "--modelspace", str(path), "--m-max", str(m_max)]
            T = None
            if kind == "identity":
                argv.append("--identity")
            else:
                T = _gaussian(_rng(seed, 5, i), (ms.q, ms.q))
                op_path = workdir / f"model{i}-T.op"
                with clock:
                    io.save_operator(op_path, operators.TruncatedOperator(Box((ms.q - 1,)), 1, T))
                argv += ["--operator", str(op_path)]
            jobs.append(
                Job(f"model-compactness[{label}]q{ms.q}-{kind}", argv, expect, _check_model_compactness(label, T, m_max))
            )
    return jobs


WORKLOADS = {
    "decompose-sparse": decompose_sparse,
    "noisy-sections": noisy_sections,
    "model-rigidity": model_rigidity,
}
