"""File formats: symbol JSON, operator and model-space containers, reports.

Operator and model-space files start with one JSON header line followed by
the matrix payload, either raw little-endian float64 with interleaved
real/imaginary parts (row-major) or CSV with the same interleaving for
small matrices.  All JSON is emitted with sorted keys and repr-exact floats
so identical inputs produce bit-identical files.

An operator header carries a `symbol` only for a Toeplitz section; loading
refuses a file whose payload is not exactly that symbol's section, so the
symbol never disagrees with the matrix it travels with.  Likewise a
model-space header's n, p, safe_caps and column_tail_bound are read off
theta and the caps, and loading refuses a header that states other values.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .lattice import Box
from .modelspace import BOUNDARY_NOTE, ModelSpace
from .operators import TruncatedOperator, toeplitz
from .symbols import TorusSymbol, from_coefficients

ORTHONORMAL_TOL = 1e-10  # largest |V*V - I| entry a loaded model-space basis may have


def symbol_to_dict(sym: TorusSymbol) -> dict:
    coeffs = []
    for k in sorted(sym.coefficients):
        blk = sym.coefficients[k]
        coeffs.append(
            {
                "k": [int(x) for x in k],
                "re": blk.real.tolist(),
                "im": blk.imag.tolist(),
            }
        )
    return {
        "n": sym.n,
        "p": sym.p,
        "coefficients": coeffs,
        "tail_bound": float(sym.tail_bound),
    }


def symbol_from_dict(data: dict) -> TorusSymbol:
    """Read symbol JSON; also the reader of a bare `--coeffs` list.

    n, p and every frequency entry must be integers.  A coefficient's re and
    im are (p, p) nested lists, or numbers when p = 1, and a missing im is
    zero.  The parts are assigned rather than combined as re + 1j*im, which
    would lose a -0.0 real part and spread a NaN or infinite imaginary part
    into the real one.
    """
    try:
        n, p = _integer(data["n"]), _integer(data["p"])
        entries = []
        for item in data["coefficients"]:
            re = np.asarray(item["re"], dtype=float)
            blk = np.empty(re.shape, dtype=complex)
            blk.real, blk.imag = re, item.get("im", 0.0)
            entries.append((tuple(_integer(x) for x in item["k"]), blk))
        tail = float(data.get("tail_bound", 0.0))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed symbol JSON: {exc}") from exc
    return TorusSymbol(n, p, from_coefficients(n, p, entries).coefficients, tail)


def save_symbol(path, sym: TorusSymbol) -> None:
    Path(path).write_text(dumps(symbol_to_dict(sym)) + "\n")


def load_symbol(path) -> TorusSymbol:
    return symbol_from_dict(json.loads(Path(path).read_text()))


def _matrix_to_bytes(matrix: np.ndarray) -> bytes:
    return np.ascontiguousarray(matrix, dtype="<c16").tobytes()


def _matrix_from_bytes(buf: bytes, rows: int, cols: int) -> np.ndarray:
    if len(buf) != rows * cols * 16:
        raise ValueError(
            f"matrix payload holds {len(buf)} bytes, expected {rows * cols * 16}"
        )
    return np.frombuffer(buf, dtype="<c16").reshape(rows, cols).astype(complex)


def _matrix_to_csv(matrix: np.ndarray) -> str:
    floats = np.ascontiguousarray(matrix, dtype=complex).view(np.float64)
    return "".join(",".join(repr(float(x)) for x in row) + "\n" for row in floats)


def _matrix_from_csv(text: str, rows: int, cols: int) -> np.ndarray:
    out = np.zeros((rows, cols), dtype=complex)
    data_lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(data_lines) != rows:
        raise ValueError(f"CSV payload has {len(data_lines)} rows, expected {rows}")
    for i, line in enumerate(data_lines):
        vals = [float(x) for x in line.split(",")]
        if len(vals) != 2 * cols:
            raise ValueError(f"CSV row {i} has {len(vals)} fields, expected {2 * cols}")
        out[i] = np.asarray(vals).view(complex)
    return out


def save_operator(path, op: TruncatedOperator, fmt: str = "binary") -> None:
    if fmt not in ("binary", "csv"):
        raise ValueError(f"unknown operator format {fmt!r}")
    header = {
        "kind": "operator",
        "n": op.box.n,
        "p": op.p,
        "caps": list(op.box.caps),
        "format": fmt,
    }
    if op.symbol is not None:
        header["symbol"] = symbol_to_dict(op.symbol)
    head = dumps_header(header) + "\n"
    if fmt == "binary":
        with open(path, "wb") as fh:
            fh.write(head.encode())
            fh.write(_matrix_to_bytes(op.matrix))
    else:
        with open(path, "w") as fh:
            fh.write(head)
            fh.write(_matrix_to_csv(op.matrix))


def _read_header(path) -> tuple[dict, bytes]:
    raw = Path(path).read_bytes()
    nl = raw.find(b"\n")
    if nl < 0:
        raise ValueError(f"{path}: missing header line")
    try:
        header = json.loads(raw[:nl].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: malformed header: {exc}") from exc
    if not isinstance(header, dict):
        raise ValueError(f"{path}: header is not a JSON object")
    return header, raw[nl + 1 :]


def _integer(value) -> int:
    """A count or frequency; floats and booleans are refused rather than truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{value!r} is not an integer")
    return value


def load_operator(path) -> TruncatedOperator:
    """Read an operator file; keys other than those save_operator writes are ignored.

    A payload with a NaN entry is refused, naming the first one's (row,
    column): no verdict can rest on it.
    """
    header, payload = _read_header(path)
    if header.get("kind") != "operator":
        raise ValueError(f"{path}: not an operator file (kind={header.get('kind')!r})")
    try:
        box = Box(tuple(header["caps"]))
        p = _integer(header["p"])
        fmt = header["format"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed operator header: {exc}") from exc
    dim = p * box.dim
    if fmt == "binary":
        matrix = _matrix_from_bytes(payload, dim, dim)
    elif fmt == "csv":
        matrix = _matrix_from_csv(payload.decode(), dim, dim)
    else:
        raise ValueError(f"{path}: unknown payload format {fmt!r}")
    parts = matrix.view(float)
    if np.isnan(parts.min()):  # one pass: a NaN anywhere makes the minimum NaN
        row, col = np.argwhere(np.isnan(parts))[0]
        raise ValueError(f"{path}: entry ({row}, {col // 2}) is NaN")
    symbol = None
    if "symbol" in header:
        symbol = symbol_from_dict(header["symbol"])
        if (symbol.n, symbol.p) != (box.n, p):
            raise ValueError(
                f"{path}: header symbol has n = {symbol.n}, p = {symbol.p}; "
                f"the operator has n = {box.n}, p = {p}"
            )
        if not np.array_equal(matrix, toeplitz(symbol, box).matrix):
            raise ValueError(f"{path}: payload is not the Toeplitz section of the header symbol")
    return TruncatedOperator(box=box, p=p, matrix=matrix, symbol=symbol)


def save_modelspace(path, ms: ModelSpace) -> None:
    header = {
        "kind": "modelspace",
        "n": ms.box.n,
        "p": ms.p,
        "caps": list(ms.box.caps),
        "safe_caps": list(ms.safe_box.caps),
        "q": ms.q,
        "theta": symbol_to_dict(ms.theta),
        "column_tail_bound": ms.theta.tail_bound,
        "boundary_note": BOUNDARY_NOTE,
    }
    with open(path, "wb") as fh:
        fh.write((dumps_header(header) + "\n").encode())
        fh.write(_matrix_to_bytes(ms.basis))


def load_modelspace(path) -> ModelSpace:
    """Read a model-space file; a header field that disagrees with theta is refused.

    So is a basis whose Gram matrix V*V is off the identity by more than
    ORTHONORMAL_TOL in some entry.  A selection basis (every column a
    distinct standard basis vector with entry 1.0, `ModelSpace.selection_rows`)
    has V*V = I exactly and skips the q x q product.
    """
    header, payload = _read_header(path)
    if header.get("kind") != "modelspace":
        raise ValueError(f"{path}: not a model-space file")
    try:
        box = Box(tuple(header["caps"]))
        n, p, q = (_integer(header[key]) for key in ("n", "p", "q"))
        safe = [_integer(c) for c in header["safe_caps"]]
        theta = symbol_from_dict(header["theta"])
        tail = float(header.get("column_tail_bound", theta.tail_bound))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed model-space header: {exc}") from exc
    if (n, p) != (theta.n, theta.p) or box.n != theta.n:
        raise ValueError(
            f"{path}: header has n = {n}, p = {p} and {box.n} caps; theta has n = {theta.n}, p = {theta.p}"
        )
    if tail != theta.tail_bound:
        raise ValueError(f"{path}: column_tail_bound {tail!r} is not theta's tail bound {theta.tail_bound!r}")
    basis = _matrix_from_bytes(payload, p * box.dim, q)
    ms = ModelSpace(theta=theta, box=box, basis=basis)
    if safe != list(ms.safe_box.caps):
        raise ValueError(f"{path}: safe_caps {safe} are not the caps minus theta's top frequency, {list(ms.safe_box.caps)}")
    if ms.selection_rows is not None:  # V*V = I exactly, q = 0 included
        deviation = 0.0
    else:
        with np.errstate(over="ignore", invalid="ignore"):  # a huge or non-finite entry: inf or NaN, refused below
            deviation = np.abs(basis.conj().T @ basis - np.eye(q)).max()
    if not deviation <= ORTHONORMAL_TOL:  # NaN fails too
        raise ValueError(
            f"{path}: basis columns are not orthonormal (Gram deviation {deviation:.3e} "
            f"> {ORTHONORMAL_TOL:.0e})"
        )
    return ms


def dumps(obj) -> str:
    """Canonical JSON on one line: sorted keys, repr-exact floats.

    Without an indent the json module takes its C encoder, which writes a
    long report several times faster than the pure-Python one.
    """
    return json.dumps(obj, sort_keys=True)


def dumps_header(obj) -> str:
    """Single-line canonical JSON for file headers."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_report(path, report: dict) -> None:
    Path(path).write_text(dumps(report) + "\n")


def write_sequence_csv(path, rows, header: tuple[str, ...]) -> None:
    """CSV of (m, v_1, ..., v_k) rows under k + 1 column names, for external plotting."""
    lines = [",".join(header)]
    for m, *values in rows:
        lines.append(",".join([str(int(m))] + [repr(float(v)) for v in values]))
    Path(path).write_text("\n".join(lines) + "\n")
