"""Batch front door: build symbols and operators, run analyses, emit reports.

Exit codes: 0 = success, 1 = analysis ran and the property failed
(verdict-false is a result, not an error), 2 = input error, 3 = internal
error (an unexpected exception, reported on one stderr line).  Reports embed
the full configuration and are byte-identical across reruns with the same
inputs and flags.

`decompose` serves every dimension n >= 1; `block-decompose` runs the same
handler and refuses operators with n != 1 (exit 2).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import analysis, io, modelspace, operators, symbols
from .lattice import Box

EXIT_OK = 0
EXIT_VERDICT_FALSE = 1
EXIT_INPUT_ERROR = 2
EXIT_INTERNAL_ERROR = 3


def _parse_caps(text: str) -> Box:
    try:
        return Box(tuple(int(x) for x in text.split(",")))
    except ValueError as exc:
        raise ValueError(f"bad --caps {text!r}: {exc}") from exc


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _config(args, keys) -> dict:
    out = {"command": args.command}
    for key in keys:
        out[key] = getattr(args, key)
    return out


def _emit(args, report: dict) -> None:
    if args.out:
        io.write_report(args.out, report)
    else:
        sys.stdout.write(io.dumps(report) + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polytoep",
        description="Truncated Toeplitz analysis on the polydisc",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("symbol", help="write a symbol JSON file")
    g = sp.add_mutually_exclusive_group(required=True)
    g.add_argument("--coeffs", help="inline JSON or path of a coefficient table")
    g.add_argument("--blaschke", help="disc automorphism parameter a, |a| < 1 (complex literal)")
    g.add_argument("--monomial", help="exponents k1,k2,... for the monomial z^k")
    g.add_argument("--product", help="comma-separated one-variable symbol files, factor i in variable i")
    sp.add_argument("--n", type=int, help="dimension (with --coeffs when not in the JSON)")
    sp.add_argument("--p", type=int, default=1, help="block size")
    sp.add_argument("--degree", type=int, default=40, help="truncation degree for --blaschke")
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("toeplitz", help="build the finite Toeplitz section of a symbol")
    sp.add_argument("--symbol", required=True)
    sp.add_argument("--caps", required=True)
    sp.add_argument("--op-format", choices=("binary", "csv"), default="binary")
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("check-toeplitz", help="shift-invariance defect of an operator")
    sp.add_argument("operator")
    sp.add_argument("--tol", type=float, default=analysis.EXACT_TOL)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.add_argument("--out")

    sp = sub.add_parser("recover", help="read a symbol off the operator diagonals")
    sp.add_argument("operator")
    sp.add_argument("--symbol-out", help="write the recovered symbol JSON here")
    sp.add_argument("--out")

    for verb, text in (
        ("decompose", "split into Toeplitz part plus remainder"),
        ("block-decompose", "decompose, for one-variable (block) operators only"),
    ):
        sp = sub.add_parser(verb, help=text)
        sp.add_argument("operator")
        sp.add_argument("--tol", type=float, default=analysis.LIMIT_TOL)
        sp.add_argument("--m-max", type=int, default=None)
        sp.add_argument("--symbol-out")
        sp.add_argument("--csv", help="prefix for (m, value) CSV sequences")
        sp.add_argument("--out")

    sp = sub.add_parser("compactness", help="corner-compression norm profile")
    sp.add_argument("operator")
    sp.add_argument("--m-max", type=int, default=None)
    sp.add_argument("--tol", type=float, default=analysis.LIMIT_TOL)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.add_argument("--out")

    sp = sub.add_parser("modelspace", help="build a truncated quotient space")
    sp.add_argument("--theta", required=True)
    sp.add_argument("--caps", required=True)
    sp.add_argument("--tol", type=float, default=1e-10)
    sp.add_argument("--grid", help="inner-check grid sizes g1,g2,...")
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("invariance", help="rigidity of the compressed-shift invariance map")
    sp.add_argument("--modelspace", required=True)
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.add_argument("--out")

    sp = sub.add_parser("model-compactness", help="iterated compression decay on a model space")
    sp.add_argument("--modelspace", required=True)
    g = sp.add_mutually_exclusive_group()
    g.add_argument("--operator", help="q x q operator stored as an n=1, caps=[q-1] operator file")
    g.add_argument("--identity", action="store_true", help="test the identity on the model space")
    g.add_argument("--random", action="store_true", help="test a seeded random operator")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--m-max", type=int, required=True)
    sp.add_argument("--tol", type=float, default=analysis.LIMIT_TOL)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.add_argument("--out")

    return parser


def _bare_entries(data) -> list:
    """(frequency, block) pairs from a bare --coeffs list of {"k", "re", "im"} objects."""
    if not isinstance(data, list):
        raise ValueError("--coeffs must be a symbol object or a list of {k, re, im} entries")
    entries = []
    for i, item in enumerate(data):
        try:
            re = np.asarray(item["re"])
            entries.append((tuple(int(x) for x in item["k"]), re + 1j * np.asarray(item.get("im", 0.0))))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"--coeffs entry {i} is not a {{k, re, im}} object: {exc!r}") from exc
    return entries


def _cmd_symbol(args) -> int:
    if args.coeffs is not None:
        text = args.coeffs
        path = Path(text)
        if path.exists():
            text = path.read_text()
        data = json.loads(text)
        if isinstance(data, dict):
            sym = io.symbol_from_dict(data)
        else:
            if args.n is None:
                raise ValueError("--n is required when --coeffs is a bare coefficient list")
            sym = symbols.from_coefficients(args.n, args.p, _bare_entries(data))
    elif args.blaschke is not None:
        sym = symbols.blaschke_factor(complex(args.blaschke), args.degree)
    elif args.monomial is not None:
        k = _parse_ints(args.monomial)
        sym = symbols.from_coefficients(len(k), args.p, [(k, np.eye(args.p))])
    else:
        factors = [io.load_symbol(p) for p in args.product.split(",")]
        sym = symbols.product_inner(factors)
    io.save_symbol(args.out, sym)
    return EXIT_OK


def _cmd_toeplitz(args) -> int:
    sym = io.load_symbol(args.symbol)
    box = _parse_caps(args.caps)
    op = operators.toeplitz(sym, box)
    io.save_operator(args.out, op, fmt=args.op_format)
    return EXIT_OK


def _cmd_check_toeplitz(args) -> int:
    op = io.load_operator(args.operator)
    report = analysis.toeplitz_defect(op, tol=args.tol)
    payload = {
        "kind": "toeplitz_defect",
        "config": _config(args, ("operator", "tol")),
        **report.to_dict(),
    }
    if args.format == "csv":
        io.write_sequence_csv(
            args.out, list(enumerate(report.defects)), ("direction", "defect")
        )
    else:
        _emit(args, payload)
    if not report.verdict and report.witness is not None:
        w = report.witness
        sys.stdout.write(
            f"not Toeplitz: direction {w['direction']}, entry {w['base']} vs "
            f"{w['shifted']}, defect {w['defect']:.6e}\n"
        )
    return EXIT_OK if report.verdict else EXIT_VERDICT_FALSE


def _cmd_recover(args) -> int:
    op = io.load_operator(args.operator)
    rec = analysis.recover_symbol(op)
    if args.symbol_out:
        io.save_symbol(args.symbol_out, rec.symbol)
    payload = {
        "kind": "symbol_recovery",
        "config": _config(args, ("operator",)),
        "symbol": io.symbol_to_dict(rec.symbol),
        "max_deviation": rec.max_deviation,
        "sup_norm_estimate": rec.symbol.sup_norm_estimate(),
        "deviations": [
            {"f": list(f), "spread": s} for f, s in sorted(rec.deviations.items())
        ],
    }
    _emit(args, payload)
    return EXIT_OK


def _decompose_payload(args, result) -> dict:
    return {
        "kind": "asymptotic_decomposition",
        "config": _config(args, ("operator", "tol", "m_max")),
        "verdict": result.verdict,
        "witness": result.witness,
        "m_star": result.m_star,
        "symbol": io.symbol_to_dict(result.symbol),
        "toeplitz_part_defect": result.toeplitz_part_defect.to_dict(),
        "sequences": [
            {
                "directions": list(seq.directions),
                "step_norms": seq.step_norms,
                "cauchy": seq.cauchy,
            }
            for seq in result.sequences
        ],
        "diagonal_step_norms": result.diagonal.step_norms,
        "remainder_profile": result.remainder_profile.to_dict(),
        "cross_terms": [
            {"i": ct.i, "j": ct.j, "norms": ct.norms} for ct in result.cross_terms
        ],
    }


def _cmd_decompose(args) -> int:
    op = io.load_operator(args.operator)
    if args.command == "block-decompose" and op.box.n != 1:
        raise ValueError(f"block-decompose requires a one-variable operator, got n = {op.box.n}")
    result = analysis.asymptotic_decompose(op, tol=args.tol, m_max=args.m_max)
    if args.symbol_out:
        io.save_symbol(args.symbol_out, result.symbol)
    if args.csv:
        io.write_sequence_csv(
            f"{args.csv}.remainder.csv",
            list(zip(result.remainder_profile.ms, result.remainder_profile.values)),
            ("m", "c_m"),
        )
        io.write_sequence_csv(
            f"{args.csv}.diagonal.csv",
            list(enumerate(result.diagonal.step_norms)),
            ("m", "step_norm"),
        )
    _emit(args, _decompose_payload(args, result))
    return EXIT_OK if result.verdict else EXIT_VERDICT_FALSE


def _cmd_compactness(args) -> int:
    op = io.load_operator(args.operator)
    m_max = args.m_max if args.m_max is not None else min(op.box.caps) + 1
    profile = analysis.compactness_profile(op, m_max, tol=args.tol)
    if args.format == "csv":
        io.write_sequence_csv(args.out, list(zip(profile.ms, profile.values)), ("m", "c_m"))
    else:
        payload = {
            "kind": "compactness_profile",
            "config": _config(args, ("operator", "m_max", "tol")),
            **profile.to_dict(),
        }
        _emit(args, payload)
    return EXIT_OK if profile.verdict else EXIT_VERDICT_FALSE


def _cmd_modelspace(args) -> int:
    theta = io.load_symbol(args.theta)
    box = _parse_caps(args.caps)
    grid = _parse_ints(args.grid) if args.grid else None
    ms = modelspace.model_basis(theta, box, tol=args.tol, grid_sizes=grid)
    io.save_modelspace(args.out, ms)
    sys.stdout.write(f"model dimension q = {ms.q} on caps {list(box.caps)}\n")
    return EXIT_OK


def _cmd_invariance(args) -> int:
    ms = io.load_modelspace(args.modelspace)
    report = modelspace.invariance_kernel(ms, tol=args.tol)
    payload = {
        "kind": "invariance_kernel",
        "config": _config(args, ("modelspace", "tol")),
        **report.to_dict(),
    }
    _emit(args, payload)
    return EXIT_OK if report.kernel_dim == 0 else EXIT_VERDICT_FALSE


def _cmd_model_compactness(args) -> int:
    ms = io.load_modelspace(args.modelspace)
    if args.operator:
        op = io.load_operator(args.operator)
        T = op.matrix
    elif args.random:
        rng = np.random.default_rng(args.seed)
        T = rng.standard_normal((ms.q, ms.q)) + 1j * rng.standard_normal((ms.q, ms.q))
    else:
        T = np.eye(ms.q, dtype=complex)
    report = modelspace.model_compactness_test(ms, T, m_max=args.m_max, tol=args.tol)
    if args.format == "csv":
        rows = []
        for m in range(report.m_max):
            rows.append([m + 1] + [seq[m] for seq in report.norms])
        lines = [",".join(["m"] + [f"norm_dir{i}" for i in range(ms.n)])]
        for row in rows:
            lines.append(",".join([str(row[0])] + [repr(float(x)) for x in row[1:]]))
        Path(args.out).write_text("\n".join(lines) + "\n")
    else:
        payload = {
            "kind": "model_compactness",
            "config": _config(args, ("modelspace", "m_max", "tol", "seed")),
            **report.to_dict(),
        }
        _emit(args, payload)
    return EXIT_OK if report.verdict else EXIT_VERDICT_FALSE


_HANDLERS = {
    "symbol": _cmd_symbol,
    "toeplitz": _cmd_toeplitz,
    "check-toeplitz": _cmd_check_toeplitz,
    "recover": _cmd_recover,
    "decompose": _cmd_decompose,
    "block-decompose": _cmd_decompose,
    "compactness": _cmd_compactness,
    "modelspace": _cmd_modelspace,
    "invariance": _cmd_invariance,
    "model-compactness": _cmd_model_compactness,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT_ERROR if exc.code not in (0, None) else 0
    try:
        if getattr(args, "format", None) == "csv" and not args.out:
            raise ValueError("--format csv needs --out")
        return _HANDLERS[args.command](args)
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT_ERROR
    except Exception as exc:  # any other failure is a defect, never a verdict
        sys.stderr.write(f"internal error: {exc!r}\n")
        return EXIT_INTERNAL_ERROR


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
