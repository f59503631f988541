"""File formats: symbol JSON, operator and model-space containers, reports.

Operator and model-space files start with one JSON header line followed by
the matrix payload, either raw little-endian float64 with interleaved
real/imaginary parts (row-major) or CSV with the same interleaving for
small matrices.  All JSON is emitted with sorted keys and repr-exact floats
so identical inputs produce bit-identical files.

Both containers have one writer and one reader, and a header records only
what cannot be derived: an operator's kind, p, caps and format, plus the
symbol of a Toeplitz section, and a model space's kind, p, caps, q and
theta.  Loading refuses an operator whose payload is not exactly its header
symbol's section, and a model space whose p or number of caps is not
theta's or whose caps do not hold theta's reach, so no recorded value
disagrees with another.
"""

from __future__ import annotations

import json
import os
import stat
from pathlib import Path

import numpy as np

from .lattice import Box
from .modelspace import ModelSpace, _safe_box
from .operators import TruncatedOperator, _section_view, _side
from .symbols import TorusSymbol, _stacked, from_coefficients

ORTHONORMAL_TOL = 1e-10  # largest |V*V - I| entry a loaded model-space basis may have


def symbol_to_dict(sym: TorusSymbol) -> dict:
    """Symbol JSON, the coefficients in sorted frequency order, read off one stacked pass (`symbols._stacked`)."""
    keys, blocks = _stacked(sym)
    order = np.lexsort(keys.T[::-1])  # tuple order: the first variable is the primary key
    keys, blocks = keys[order], blocks[order]
    coeffs = [
        {"k": k, "re": re, "im": im}
        for k, re, im in zip(keys.tolist(), blocks.real.tolist(), blocks.imag.tolist())
    ]
    out = {
        "n": sym.n,
        "p": sym.p,
        "coefficients": coeffs,
        "tail_bound": float(sym.tail_bound),
    }
    if sym.zeros is not None:
        out["zeros"] = [
            {"re": [a.real for a in variable], "im": [a.imag for a in variable]} for variable in sym.zeros
        ]
    return out


def symbol_from_dict(data: dict) -> TorusSymbol:
    """Read symbol JSON; also the reader of a bare `--coeffs` list.

    n, p and every frequency entry must be integers.  A coefficient's re and
    im are (p, p) nested lists, or numbers when p = 1, and a missing im is
    zero.  The parts are assigned rather than combined as re + 1j*im, which
    would lose a -0.0 real part and spread a NaN or infinite imaginary part
    into the real one.  An optional zeros holds one {re, im} pair of
    equal-length lists per variable, as `symbol_to_dict` writes it.
    """
    try:
        n, p = _integer(data["n"]), _integer(data["p"])
        entries = []
        for item in data["coefficients"]:
            entries.append((tuple(_integer(x) for x in item["k"]), _complex_array(item)))
        tail = float(data.get("tail_bound", 0.0))
        zeros = data.get("zeros")
        if zeros is not None:
            zeros = [_complex_array(variable).reshape(-1).tolist() for variable in zeros]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed symbol JSON: {exc}") from exc
    return TorusSymbol(n, p, from_coefficients(n, p, entries).coefficients, tail, zeros)


def _complex_array(item: dict) -> np.ndarray:
    """item's re and im as one complex array, the parts assigned; a missing im is zero."""
    re = np.asarray(item["re"], dtype=float)
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, item.get("im", 0.0)
    return out


def save_symbol(path, sym: TorusSymbol) -> None:
    Path(path).write_text(dumps(symbol_to_dict(sym)) + "\n")


def load_symbol(path) -> TorusSymbol:
    return symbol_from_dict(json.loads(Path(path).read_text()))


def _matrix_payload(matrix: np.ndarray) -> np.ndarray:
    """The matrix as row-major little-endian complex128: the binary payload, written as its buffer."""
    return np.ascontiguousarray(matrix, dtype="<c16")


def _matrix_from_file(fh, rows: int, cols: int) -> np.ndarray:
    """The rest of an open file as a rows x cols binary payload, read once into its array.

    A file on disk whose remaining length is not the payload's is refused
    before anything is allocated.  A pipe's length shows only in the read,
    so a short one, or one with bytes left after the payload, is refused
    after it.
    """
    want = rows * cols * 16
    st = os.fstat(fh.fileno())
    size = st.st_size - fh.tell() if stat.S_ISREG(st.st_mode) else want
    if size == want:
        matrix = np.empty((rows, cols), dtype="<c16")
        size = fh.readinto(matrix) + len(fh.read())
    if size != want:
        raise ValueError(f"matrix payload holds {size} bytes, expected {want}")
    return matrix.astype(complex, copy=False)


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


def _write_container(path, header: dict, payload) -> None:
    """An `.op` or `.ms` file: the header as one canonical JSON line, then the payload.

    payload is bytes or a `_matrix_payload` array, whose buffer is written
    as it is.
    """
    with open(path, "wb") as fh:
        fh.write((dumps_header(header) + "\n").encode())
        fh.write(payload)


def _read_container(path, kind: str) -> tuple[dict, Box, int, np.ndarray]:
    """The header, box, block size p and payload matrix of an `.op` or `.ms` file.

    kind is "operator" or "modelspace", and the header must say so.  The
    payload has p times the box's dimension rows and, for an operator, as
    many columns, binary or CSV as its format says; for a model space, q
    columns in binary.  A binary payload is read once, straight into the
    matrix (`_matrix_from_file`), and one of any other length is refused.
    Other keys are the caller's to read, and a key no one reads is ignored:
    older files also record n, safe_caps, column_tail_bound, boundary_note,
    structure or direction.
    """
    with open(path, "rb") as fh:
        head = fh.readline()
        if not head.endswith(b"\n"):
            raise ValueError(f"{path}: missing header line")
        try:
            header = json.loads(head.decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"{path}: malformed header: {exc}") from exc
        if not isinstance(header, dict):
            raise ValueError(f"{path}: header is not a JSON object")
        if header.get("kind") != kind:
            raise ValueError(f"{path}: not a {kind} file (kind={header.get('kind')!r})")
        try:
            box = Box(tuple(header["caps"]))
            p = _integer(header["p"])
            rows = p * box.dim
            cols, fmt = (rows, header["format"]) if kind == "operator" else (_integer(header["q"]), "binary")
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: malformed {kind} header: {exc}") from exc
        if fmt == "binary":
            matrix = _matrix_from_file(fh, rows, cols)
        elif fmt == "csv":
            matrix = _matrix_from_csv(fh.read().decode(), rows, cols)
        else:
            raise ValueError(f"{path}: unknown payload format {fmt!r}")
    return header, box, p, matrix


def _integer(value) -> int:
    """A count or frequency; floats and booleans are refused rather than truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{value!r} is not an integer")
    return value


def save_operator(path, op: TruncatedOperator, fmt: str = "binary") -> None:
    """Write kind, p, caps, format, the symbol of a Toeplitz section, and the matrix.

    A binary matrix is written from its own buffer when it is already
    row-major complex128, and from one converted copy otherwise.
    """
    if fmt not in ("binary", "csv"):
        raise ValueError(f"unknown operator format {fmt!r}")
    header = {"kind": "operator", "p": op.p, "caps": list(op.box.caps), "format": fmt}
    if op.symbol is not None:
        header["symbol"] = symbol_to_dict(op.symbol)
    payload = _matrix_payload(op.matrix) if fmt == "binary" else _matrix_to_csv(op.matrix).encode()
    _write_container(path, header, payload)


def load_operator(path) -> TruncatedOperator:
    """Read an operator file (`_read_container`).

    A payload with a NaN entry is refused, naming the first one's (row,
    column): no verdict can rest on it.  A header symbol is checked against
    the payload through the section's view (`operators._section_view`), so
    no second matrix is built.
    """
    header, box, p, matrix = _read_container(path, "operator")
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
        side = _side(box, p)
        if not np.array_equal(matrix.reshape(side + side), _section_view(symbol, box, box)):
            raise ValueError(f"{path}: payload is not the Toeplitz section of the header symbol")
    return TruncatedOperator(box=box, p=p, matrix=matrix, symbol=symbol)


def save_modelspace(path, ms: ModelSpace) -> None:
    """Write kind, p, caps, q, theta and the basis."""
    header = {"kind": "modelspace", "p": ms.p, "caps": list(ms.box.caps), "q": ms.q, "theta": symbol_to_dict(ms.theta)}
    _write_container(path, header, _matrix_payload(ms.basis))


def load_modelspace(path) -> ModelSpace:
    """Read a model-space file (`_read_container`) whose p and caps fit its theta.

    A header whose p is not theta's, whose number of caps is not theta's n,
    or whose caps do not hold theta's reach (`modelspace._safe_box`, as
    `model_basis` refuses it) is refused.  So is a basis whose Gram matrix
    V*V is off the identity by more than ORTHONORMAL_TOL in some entry.  A
    selection basis (every column a distinct standard basis vector with
    entry 1.0, `ModelSpace.selection_rows`) has V*V = I exactly and skips
    the q x q product.
    """
    header, box, p, basis = _read_container(path, "modelspace")
    try:
        theta = symbol_from_dict(header["theta"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed modelspace header: {exc}") from exc
    if p != theta.p or box.n != theta.n:
        raise ValueError(f"{path}: header has p = {p} and {box.n} caps; theta has n = {theta.n}, p = {theta.p}")
    try:
        _safe_box(theta, box)  # refuses caps that do not hold theta's reach
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    ms = ModelSpace(theta=theta, box=box, basis=basis)
    if ms.selection_rows is not None:  # V*V = I exactly, q = 0 included
        deviation = 0.0
    else:
        with np.errstate(over="ignore", invalid="ignore"):  # a huge or non-finite entry: inf or NaN, refused below
            deviation = np.abs(basis.conj().T @ basis - np.eye(ms.q)).max()
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
