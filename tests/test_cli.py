"""End-to-end exercise of the command line verbs and the exit-code contract."""

import contextlib
import functools
import io as io_
import json
import math
import struct
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from polytoep import cli, io, operators
from polytoep.cli import main
from polytoep.lattice import Box
from polytoep.modelspace import model_basis
from polytoep.operators import TruncatedOperator, toeplitz
from polytoep.symbols import blaschke_factor, from_coefficients, product_inner

from oracles import rotated

PHI = {
    "n": 2,
    "p": 1,
    "tail_bound": 0.0,
    "coefficients": [
        {"k": [0, 0], "re": [[2.0]], "im": [[0.0]]},
        {"k": [1, 0], "re": [[1.0]], "im": [[0.0]]},
        {"k": [0, -1], "re": [[1.0]], "im": [[0.0]]},
    ],
}


def test_symbol_toeplitz_check_round_trip(tmp_path):
    phi = tmp_path / "phi.json"
    phi.write_text(json.dumps(PHI))
    T = tmp_path / "T.op"
    assert main(["toeplitz", "--symbol", str(phi), "--caps", "7,7", "--out", str(T)]) == 0
    report = tmp_path / "defect.json"
    assert main(["check-toeplitz", str(T), "--out", str(report)]) == 0
    data = json.loads(report.read_text())
    assert data["verdict"] is True and data["overall"] == 0.0


def test_check_toeplitz_rank_one_exit_one(tmp_path, capsys):
    box = Box((3,))
    M = np.zeros((4, 4), dtype=complex)
    M[0, 0] = 1
    io.save_operator(tmp_path / "rank1.op", TruncatedOperator(box, 1, M))
    code = main(["check-toeplitz", str(tmp_path / "rank1.op"), "--out", str(tmp_path / "r.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert "not Toeplitz" in err and "direction 0" in err


def test_check_toeplitz_stdout_stays_json(tmp_path, capsys):
    M = np.zeros((4, 4), dtype=complex)
    M[0, 0] = 1
    io.save_operator(tmp_path / "rank1.op", TruncatedOperator(Box((3,)), 1, M))
    assert main(["check-toeplitz", str(tmp_path / "rank1.op")]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["verdict"] is False
    assert captured.err.startswith("not Toeplitz: direction 0")


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize(
    "argv",
    [
        ["check-toeplitz"],
        ["recover"],
        ["compactness"],
        ["decompose"],
        ["block-decompose"],
        ["model-compactness", "--modelspace", "{ms}", "--m-max", "1", "--operator"],
    ],
    ids=lambda argv: argv[0],
)
def test_nan_entry_is_refused_by_every_verb(tmp_path, capsys, argv, p):
    # A NaN entry is refused on load with exit 2, naming the first NaN in row
    # order, and nothing reaches stdout: no verdict, and no exit 0 from
    # recover, rests on it.
    ms = tmp_path / "z3.ms"
    io.save_modelspace(ms, model_basis(io.symbol_from_dict(Z3), Box((6,))))
    M = np.eye(7 * p, dtype=complex)
    M[5, 1] = complex(1.0, math.nan)
    M[2, 3] = math.nan
    io.save_operator(tmp_path / "x.op", TruncatedOperator(Box((6,)), p, M))
    capsys.readouterr()
    args = [a.format(ms=ms) for a in argv] + [str(tmp_path / "x.op")]
    assert main(args) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.endswith("entry (2, 3) is NaN\n"), err


@pytest.mark.parametrize(
    "value, verb, code",
    [
        (math.nan, "compactness", 2),
        (math.nan, "decompose", 2),
        (math.inf, "compactness", 1),
        (math.inf, "decompose", 1),
    ],
)
def test_non_finite_entry_exit_codes(tmp_path, capsys, value, verb, code):
    # A NaN is refused on load (exit 2); an inf leaves finite or inf norms
    # and a false verdict (exit 1).
    M = np.eye(7, dtype=complex)
    M[2, 3] = value
    io.save_operator(tmp_path / "x.op", TruncatedOperator(Box((6,)), 1, M))
    assert main([verb, str(tmp_path / "x.op"), "--out", str(tmp_path / "r.json")]) == code
    if code == 2:
        assert "entry (2, 3) is NaN" in capsys.readouterr().err


def _tensor_eye(M: np.ndarray, p: int) -> np.ndarray:
    """M tensored with I_p, placed entry by entry: inf * 0 would be NaN."""
    B = np.zeros((M.shape[0] * p,) * 2, dtype=complex)
    for c in range(p):
        B[c::p, c::p] = M
    return B


@pytest.mark.parametrize("p", [1, 2])
def test_infinite_entry_is_an_infinite_norm(tmp_path, p):
    # eye(7) with one inf entry, and that operator tensored with I_2.  Every
    # block or window holding the entry has norm inf at both p, and the
    # verdict is false.
    M = np.eye(7, dtype=complex)
    M[2, 3] = math.inf
    io.save_operator(tmp_path / "x.op", TruncatedOperator(Box((6,)), p, _tensor_eye(M, p)))
    out = str(tmp_path / "r.json")
    assert main(["check-toeplitz", str(tmp_path / "x.op"), "--out", out]) == 1
    data = json.loads((tmp_path / "r.json").read_text())
    assert data["defects"] == [math.inf] and data["witness"]["base"] == [[1], [2]]
    assert main(["compactness", str(tmp_path / "x.op"), "--out", out]) == 1
    # window m holds row 2 and column 3 for m <= 2
    assert json.loads((tmp_path / "r.json").read_text())["c_m"] == [math.inf] * 3 + [1.0] * 4 + [0.0]


def _run_verbs(tmp_path, op: TruncatedOperator) -> list[tuple[str, int, str, str]]:
    """Every operator verb on op's file: (verb, exit code, written report or "", stderr).

    model-compactness reads the matrix as a q x q operator on the model space
    of z^q on caps (q,), whose basis is the q monomials below z^q.
    """
    path, out, ms = tmp_path / "x.op", tmp_path / "r.json", tmp_path / f"z{op.dim}.ms"
    io.save_operator(path, op)
    if not ms.exists():
        io.save_modelspace(ms, model_basis(from_coefficients(1, 1, [((op.dim,), 1.0)]), Box((op.dim,))))
    runs = []
    for argv in (
        ["check-toeplitz"], ["recover"], ["compactness"], ["decompose"], ["block-decompose"],
        ["model-compactness", "--modelspace", str(ms), "--m-max", "1", "--operator"],
    ):
        out.unlink(missing_ok=True)
        err = io_.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv + [str(path), "--out", str(out)])
        runs.append((argv[0], code, out.read_text() if out.exists() else "", err.getvalue()))
    return runs


@pytest.mark.parametrize("p", [1, 2])
def test_infinite_pair_on_one_diagonal_exits_one(tmp_path, p):
    # eye(8) with inf at (0, 0) and (1, 1), at p = 1 and tensored with I_2:
    # the step difference inf - inf is NaN, and a block or window holding it
    # has norm inf like one holding an inf.  So every verdict is false and
    # recover spreads inf; no report holds a NaN, and stderr holds only the
    # witness line.  model-compactness's compression meets inf * 0, also
    # with one inf entry alone.
    M = np.eye(8, dtype=complex)
    M[0, 0] = M[1, 1] = math.inf
    runs = _run_verbs(tmp_path, TruncatedOperator(Box((7,)), p, _tensor_eye(M, p)))
    want = {"check-toeplitz": 1, "recover": 0, "compactness": 1, "decompose": 1, "block-decompose": 1,
            "model-compactness": 1}
    for verb, code, report, err in runs:
        assert code == want[verb] and "NaN" not in report, (verb, code, err)
        assert err == ("" if verb != "check-toeplitz" else
                       "not Toeplitz: direction 0, entry [[0], [0]] vs [[1], [1]], defect inf\n"), verb
        data = json.loads(report)
        if verb == "recover":
            assert data["max_deviation"] == math.inf and data["deviations"][7]["spread"] == math.inf
        elif verb == "check-toeplitz":
            assert data["defects"] == [math.inf]
        elif verb == "compactness":
            assert data["c_m"][:2] == [math.inf] * 2
        elif verb == "model-compactness":
            assert data["norms"] == [[math.inf]]
        else:
            # steps 0 and 1 hold inf - inf and 1 - inf; the diagonal's coefficient is 0
            assert data["sequences"][0]["step_norms"] == [math.inf, math.inf, 0.0]
            assert data["witness"]["kind"] == "remainder_not_compact" and data["witness"]["c_m"][0] == math.inf
    E = np.eye(3, dtype=complex)
    E[1, 1] = math.inf
    verb, code, report, err = _run_verbs(tmp_path, TruncatedOperator(Box((2,)), 1, E))[-1]
    assert (verb, code, err) == ("model-compactness", 1, "")
    assert "NaN" not in report and json.loads(report)["norms"] == [[math.inf]]


# payload floats at the edges of the float range, among ordinary ones; a
# NaN is placed by `edge_operators`, since most payloads would hold one
EDGE_FLOATS = st.one_of(
    st.sampled_from([math.inf, -math.inf, 5e-324, -5e-324, 2.0**-1060, sys.float_info.max,
                     -sys.float_info.max, 0.0, -0.0]),
    st.floats(-2.0, 2.0),
)
# finite parts near the top of the range, and zeros
HUGE_FLOATS = st.one_of(st.just(0.0), st.floats(2.0**1020, sys.float_info.max).flatmap(lambda x: st.sampled_from([x, -x])))


@st.composite
def small_operators(draw, floats, min_cap=0):
    """A section over n <= 2, p <= 2 of at most 16 rows whose real and imaginary parts are drawn from floats."""
    p = draw(st.integers(1, 2))
    n = draw(st.integers(1, 2 if p * (min_cap + 1) ** 2 <= 16 else 1))
    box = Box(tuple(draw(st.lists(st.integers(min_cap, {1: 16 // p, 2: 4 // p}[n] - 1), min_size=n, max_size=n))))
    parts = draw(hnp.arrays(np.float64, (p * box.dim, p * box.dim, 2), elements=floats))
    return TruncatedOperator(box, p, parts.view(complex)[..., 0])


@st.composite
def edge_operators(draw):
    """`small_operators` on EDGE_FLOATS, with one NaN part in about one draw of four."""
    op = draw(small_operators(EDGE_FLOATS))
    if draw(st.integers(0, 3)) == 0:
        op.matrix.view(float).flat[draw(st.integers(0, 2 * op.matrix.size - 1))] = math.nan
    return op


def _check_op_payload(tmp_path, op):
    for verb, code, report, err in _run_verbs(tmp_path, op):
        assert code in (0, 1, 2), (verb, code, err)
        assert "NaN" not in report, verb


@settings(max_examples=25)
@given(edge_operators())
def test_op_payload_edges_never_exit_three(tmp_path_factory, op):
    # every operator verb exits 0, 1 or 2 (a NaN entry is refused on load),
    # never 3, and no written report holds a NaN
    _check_op_payload(tmp_path_factory.getbasetemp(), op)


@pytest.mark.nightly
@settings(max_examples=2000)
@given(edge_operators())
def test_op_payload_edges_never_exit_three_sweep(tmp_path_factory, op):
    _check_op_payload(tmp_path_factory.getbasetemp(), op)


# U diag(z^2, 1) U*, U a real rotation: inner, exactly, and given by its
# coefficients alone, whose columns are not monomial-type
_U = np.array([[0.6, -0.8], [0.8, 0.6]])
ROTATED_BLOCK = from_coefficients(1, 2, [((0,), _U @ np.diag([0.0, 1.0]) @ _U.T), ((2,), _U @ np.diag([1.0, 0.0]) @ _U.T)])
# (theta, caps) of the model spaces the .ms property corrupts: selection
# bases, whose compressed shifts are partial permutations, at n = 1, 2 and
# p = 2, an SVD basis and a TMW basis with dense ones; q = 3, 5, 4, 4 and 9
FUZZ_SPACES = [
    (from_coefficients(1, 1, [((3,), 1.0)]), (5,)),
    (from_coefficients(2, 1, [((1, 1), 1.0)]), (2, 2)),
    (from_coefficients(1, 2, [((2,), np.eye(2))]), (3,)),
    (ROTATED_BLOCK, (3,)),
    (product_inner([blaschke_factor(0.5, 6), blaschke_factor(-0.5j, 6)]), (4, 4)),
]
# payload parts: NaN, infinite, huge, subnormal
ODD_PARTS = [math.nan, math.inf, -math.inf, sys.float_info.max, -1e300, 1e300, 5e-324, 2.0**-1060]
MS_VERBS = (
    ["invariance"],
    ["model-compactness", "--identity", "--m-max", "3"],
    ["model-compactness", "--random", "--m-max", "3"],
)


@functools.cache
def _ms_bytes(tmp, index: int) -> bytes:
    """The .ms file of FUZZ_SPACES[index], written once under tmp."""
    theta, caps = FUZZ_SPACES[index]
    path = tmp / f"fuzz{index}.ms"
    io.save_modelspace(path, model_basis(theta, Box(caps)))
    return path.read_bytes()


@st.composite
def ms_corruptions(draw):
    """(space index, kind, how): 1-3 bit flips in the header line or in the payload, a truncation of either, or one odd payload part."""
    index = draw(st.integers(0, len(FUZZ_SPACES) - 1))
    kind = draw(st.sampled_from(["header", "payload", "truncate header", "truncate payload", "part"]))
    if kind == "part":
        return index, kind, (draw(st.floats(0.0, 1.0, exclude_max=True)), draw(st.sampled_from(ODD_PARTS)))
    return index, kind, draw(_corruption(kind))


def _corruption(kind: str):
    """The strategy for `_corrupt`'s how: 1-3 (position, bit) flips, or one truncation position."""
    where = st.floats(0.0, 1.0, exclude_max=True)
    if kind.startswith("truncate"):
        return where
    return st.lists(st.tuples(where, st.integers(0, 7)), min_size=1, max_size=3)


def _corrupt(raw: bytes, kind: str, how) -> bytes:
    """raw with the corruption applied; positions are fractions of the header line (its newline included) or payload.

    kind is "header" or "payload" (bit flips there), "truncate header" or
    "truncate payload" (everything from one position on cut), or "part" (one
    payload float replaced).
    """
    start = raw.index(b"\n") + 1
    lo, size = (0, start) if kind.endswith("header") else (start, len(raw) - start)
    data = bytearray(raw)
    if kind in ("header", "payload"):
        for where, bit in how:
            data[lo + int(where * size)] ^= 1 << bit
    elif kind.startswith("truncate"):
        del data[lo + int(how * size) :]
    else:
        where, value = how
        at = lo + 8 * int(where * (size // 8))
        data[at : at + 8] = struct.pack("<d", value)
    return bytes(data)


def _holds_nan(path) -> bool:
    """Whether a written file holds a NaN: in its text, or in the float64 payload after an .op or .ms header line."""
    raw = path.read_bytes()
    if path.suffix not in (".op", ".ms"):
        return b"NaN" in raw
    start = raw.index(b"\n") + 1
    return b"NaN" in raw[:start] or bool(np.isnan(np.frombuffer(raw[start:], dtype="<f8")).any())


def _run_corrupt(argv, out) -> None:
    """One CLI call on a corrupted input, writing out: exit 0, 1 or 2, and no NaN in out."""
    out.unlink(missing_ok=True)
    err = io_.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert not out.exists() or not _holds_nan(out), argv


def _check_ms_corruption(tmp_path, case):
    index, kind, how = case
    path, out = tmp_path / "bad.ms", tmp_path / "r.json"
    path.write_bytes(_corrupt(_ms_bytes(tmp_path, index), kind, how))
    for verb in MS_VERBS:
        _run_corrupt([verb[0], "--modelspace", str(path), *verb[1:], "--out", str(out)], out)


@settings(max_examples=25)
@given(ms_corruptions())
def test_corrupt_modelspace_never_exits_three(tmp_path_factory, case):
    # invariance and model-compactness on a corrupted .ms exit 0, 1 or 2
    # (most corruptions are refused on load), never 3, and write no NaN
    _check_ms_corruption(tmp_path_factory.getbasetemp(), case)


@pytest.mark.nightly
@settings(max_examples=2000)
@given(ms_corruptions())
def test_corrupt_modelspace_never_exits_three_sweep(tmp_path_factory, case):
    _check_ms_corruption(tmp_path_factory.getbasetemp(), case)


# operators the .op property corrupts: a Toeplitz section whose header
# carries its symbol, a dense n = 2 section and a p = 2 one, of at most 81
# entries.  A header flipped to name another box is refused by its binary
# payload's size before anything is allocated
FUZZ_OPERATORS = [
    toeplitz(from_coefficients(1, 1, [((0,), 2.0), ((1,), 1.0), ((-2,), 0.5j)]), Box((5,))),
    TruncatedOperator(Box((2, 2)), 1, np.random.default_rng(26).standard_normal((9, 9)) + 0.5j),
    TruncatedOperator(Box((3,)), 2, np.random.default_rng(27).standard_normal((8, 8)) * 1e-3 + np.eye(8)),
]
OP_VERBS = (["check-toeplitz"], ["recover"], ["compactness"], ["decompose"])


@functools.cache
def _op_bytes(tmp, index: int) -> bytes:
    """The .op file of FUZZ_OPERATORS[index], written once under tmp."""
    path = tmp / f"fuzz{index}.op"
    io.save_operator(path, FUZZ_OPERATORS[index])
    return path.read_bytes()


@st.composite
def op_corruptions(draw):
    """(operator index, kind, how): 1-3 bit flips in the header line, or a truncation in the header or payload."""
    kind = draw(st.sampled_from(["header", "truncate header", "truncate payload"]))
    return draw(st.integers(0, len(FUZZ_OPERATORS) - 1)), kind, draw(_corruption(kind))


def _check_op_corruption(tmp_path, case):
    index, kind, how = case
    path, out = tmp_path / "bad.op", tmp_path / "r.json"
    path.write_bytes(_corrupt(_op_bytes(tmp_path, index), kind, how))
    for verb in OP_VERBS:
        _run_corrupt([*verb, str(path), "--out", str(out)], out)


@settings(max_examples=25)
@given(op_corruptions())
def test_corrupt_operator_header_never_exits_three(tmp_path_factory, case):
    # the operator verbs on an .op file with a corrupted header, or cut
    # short, exit 0, 1 or 2 (most are refused on load), never 3, and write
    # no NaN
    _check_op_corruption(tmp_path_factory.getbasetemp(), case)


@pytest.mark.nightly
@settings(max_examples=2000)
@given(op_corruptions())
def test_corrupt_operator_header_never_exits_three_sweep(tmp_path_factory, case):
    _check_op_corruption(tmp_path_factory.getbasetemp(), case)


# (symbol, caps) of the symbol files the symbol property corrupts: one
# variable with negative frequencies, a Blaschke factor, one variable at
# p = 2, and two variables.  Frequencies of one digit and caps of at most 7
# keep every section and model space a flip can name small
FUZZ_SYMBOLS = [
    (from_coefficients(1, 1, [((0,), 2.0), ((1,), 1.0), ((-1,), 0.25j)]), "5"),
    (blaschke_factor(0.5, 6), "7"),
    (from_coefficients(1, 2, [((2,), np.eye(2)), ((0,), np.array([[0.0, 0.5], [0.5j, 0.0]]))]), "4"),
    (from_coefficients(2, 1, [((1, 1), 1.0), ((0, 2), 0.5)]), "3,3"),
]


@functools.cache
def _symbol_bytes(tmp, index: int) -> bytes:
    """The symbol JSON of FUZZ_SYMBOLS[index], written once under tmp."""
    path = tmp / f"fuzz{index}.json"
    io.save_symbol(path, FUZZ_SYMBOLS[index][0])
    return path.read_bytes()


# values a zero drawn into a symbol file may take: inside the disc, on or
# outside its boundary, and not finite
ZERO_VALUES = [0.5, 0.25, 0.0, -0.5j, 1.0, 0.6 + 0.8j, 2.0, math.nan, math.inf, complex(0.0, -math.inf)]


@st.composite
def symbol_corruptions(draw):
    """(symbol index, kind, how): 1-3 bit flips in the JSON line, a truncation of it, or zeros written in.

    The zeros are 0-3 lists of 0-2 values of ZERO_VALUES: a count that does
    not match n, a zero with |a| >= 1 or not finite, and zeros that
    disagree with the coefficients all occur.
    """
    kind = draw(st.sampled_from(["header", "truncate header", "zeros"]))
    if kind == "zeros":
        how = draw(st.lists(st.lists(st.sampled_from(ZERO_VALUES), max_size=2), max_size=3))
    else:
        how = draw(_corruption(kind))
    return draw(st.integers(0, len(FUZZ_SYMBOLS) - 1)), kind, how


def _with_zeros(raw: bytes, zeros) -> bytes:
    data = json.loads(raw)
    data["zeros"] = [{"re": [complex(a).real for a in z], "im": [complex(a).imag for a in z]} for z in zeros]
    return json.dumps(data).encode() + b"\n"  # NaN and Infinity as Python's json writes them


def _check_symbol_corruption(tmp_path, case):
    index, kind, how = case
    path, good = tmp_path / "bad.json", tmp_path / "good.json"
    raw = _symbol_bytes(tmp_path, index)
    path.write_bytes(_with_zeros(raw, how) if kind == "zeros" else _corrupt(raw, kind, how))
    if not good.exists():
        io.save_symbol(good, blaschke_factor(-0.5j, 4))
    op, ms, product = tmp_path / "s.op", tmp_path / "s.ms", tmp_path / "product.json"
    caps = FUZZ_SYMBOLS[index][1]
    _run_corrupt(["toeplitz", "--symbol", str(path), "--caps", caps, "--out", str(op)], op)
    _run_corrupt(["modelspace", "--theta", str(path), "--caps", caps, "--out", str(ms)], ms)
    _run_corrupt(["symbol", "--product", f"{path},{good}", "--out", str(product)], product)


@settings(max_examples=25)
@given(symbol_corruptions())
def test_corrupt_symbol_never_exits_three(tmp_path_factory, case):
    # toeplitz, modelspace and symbol --product on a corrupted symbol file
    # exit 0, 1 or 2, never 3, and write no file holding a NaN
    _check_symbol_corruption(tmp_path_factory.getbasetemp(), case)


@pytest.mark.nightly
@settings(max_examples=2000)
@given(symbol_corruptions())
def test_corrupt_symbol_never_exits_three_sweep(tmp_path_factory, case):
    _check_symbol_corruption(tmp_path_factory.getbasetemp(), case)


@settings(max_examples=25)
@given(small_operators(HUGE_FLOATS, min_cap=2))
def test_finite_entries_near_the_largest_float_make_no_nan(tmp_path_factory, op):
    # a difference or product of finite entries overflows to inf at worst,
    # and inf - inf or inf * 0 after that is read as inf: every verb gives a
    # verdict (exit 0 or 1; block-decompose refuses n = 2), no report holds a
    # NaN, and nothing but a witness line reaches stderr
    for verb, code, report, err in _run_verbs(tmp_path_factory.getbasetemp(), op):
        if verb == "block-decompose" and op.box.n != 1:
            assert code == 2, err
            continue
        assert code in (0, 1), (verb, code, err)
        assert "NaN" not in report, verb
        assert err == "" or (verb == "check-toeplitz" and err.startswith("not Toeplitz") and err.count("\n") == 1), err


@pytest.mark.parametrize("p", [1, 2])
def test_decompose_infinite_entry_anywhere_exits_one(tmp_path, capsys, p):
    # eye(16) on (3, 3) with one inf entry, at each of the 256 positions, and
    # that operator tensored with I_2.  Recovery gives the entry's diagonal
    # coefficient 0, so the remainder keeps the inf and c_0 is inf: a false
    # verdict, with nothing printed.
    op, out = str(tmp_path / "x.op"), str(tmp_path / "r.json")
    for pos in range(256):
        M = np.eye(16, dtype=complex)
        M[divmod(pos, 16)] = math.inf
        io.save_operator(op, TruncatedOperator(Box((3, 3)), p, _tensor_eye(M, p)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["decompose", op, "--out", out]) == 1, divmod(pos, 16)
        assert json.loads((tmp_path / "r.json").read_text())["remainder_profile"]["c_m"][0] == math.inf
    assert capsys.readouterr() == ("", "")


def test_box_too_large_for_memory_exits_two(tmp_path, capsys, monkeypatch):
    # the section of a (3000, 3000) box is 1.3 PB; the gather is stubbed to
    # refuse it as numpy does, so nothing is allocated
    def refuse(sym, rows, cols):
        raise MemoryError((3001, 3001, 1, 3001, 3001, 1), np.dtype(complex))

    monkeypatch.setattr(operators, "_gather", refuse)
    io.save_symbol(tmp_path / "s.json", from_coefficients(2, 1, [((1, 0), 1.0)]))
    argv = ["toeplitz", "--symbol", str(tmp_path / "s.json"), "--caps", "3000,3000", "--out", str(tmp_path / "x.op")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "x.op").exists()


def test_norm_above_the_largest_float_exits_one(tmp_path):
    # the norm 3.4e308 is inf, so the profile is not finite: verdict false, not an internal error
    io.save_operator(tmp_path / "big.op", TruncatedOperator(Box((1,)), 1, np.full((2, 2), 1.7e308, dtype=complex)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["compactness", str(tmp_path / "big.op"), "--out", str(tmp_path / "r.json")]) == 1
    data = json.loads((tmp_path / "r.json").read_text())
    assert data["c_m"][0] == math.inf and data["verdict"] is False


def test_malformed_input_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.op"
    bad.write_text("this is not an operator\n")
    assert main(["check-toeplitz", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_flag_exit_two(tmp_path, capsys):
    assert main(["check-toeplitz", "--bogus"]) == 2


def test_parser_is_built_once(monkeypatch):
    # main reuses one parser; a reused parser still maps bad input to exit 2
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    try:
        assert main(["check-toeplitz", "--bogus"]) == 2
        assert main(["no-such-verb"]) == 2
        assert main(["check-toeplitz", "--bogus"]) == 2
        assert len(built) == 1
    finally:
        cli._parser.cache_clear()


def test_decompose_round_trip(tmp_path):
    phi = from_coefficients(1, 1, [((-1,), 1.0), ((1,), 1.0)])
    box = Box((15,))
    T = toeplitz(phi, box)
    M = T.matrix.copy()
    M[0, 0] += 1.0
    io.save_operator(tmp_path / "T1.op", TruncatedOperator(box, 1, M))
    report = tmp_path / "dec.json"
    sym_out = tmp_path / "rec.json"
    code = main(
        [
            "decompose",
            str(tmp_path / "T1.op"),
            "--tol", "1e-8",
            "--out", str(report),
            "--symbol-out", str(sym_out),
            "--csv", str(tmp_path / "dec"),
        ]
    )
    assert code == 0
    data = json.loads(report.read_text())
    assert data["verdict"] is True
    rec = io.load_symbol(sym_out)
    assert abs(rec.coeff((1,)).item() - 1.0) < 1e-10
    assert (tmp_path / "dec.remainder.csv").exists()
    assert (tmp_path / "dec.diagonal.csv").exists()


def test_decompose_flip_exit_one(tmp_path):
    J = np.eye(9)[::-1].astype(complex)
    io.save_operator(tmp_path / "flip.op", TruncatedOperator(Box((8,)), 1, J))
    report = tmp_path / "flip.json"
    assert main(["decompose", str(tmp_path / "flip.op"), "--out", str(report)]) == 1
    data = json.loads(report.read_text())
    assert data["verdict"] is False and data["witness"]["kind"] == "non_cauchy"


def test_report_determinism(tmp_path):
    phi = tmp_path / "phi.json"
    phi.write_text(json.dumps(PHI))
    T = tmp_path / "T.op"
    main(["toeplitz", "--symbol", str(phi), "--caps", "6,6", "--out", str(T)])
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    main(["decompose", str(T), "--out", str(r1)])
    main(["decompose", str(T), "--out", str(r2)])
    assert r1.read_bytes() == r2.read_bytes()


def test_compactness_csv(tmp_path):
    box = Box((5,))
    M = np.zeros((6, 6), dtype=complex)
    M[0, 0] = 1
    io.save_operator(tmp_path / "K.op", TruncatedOperator(box, 1, M))
    out = tmp_path / "c.csv"
    code = main(
        ["compactness", str(tmp_path / "K.op"), "--m-max", "3", "--tol", "1e-8",
         "--format", "csv", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "m,c_m"
    assert len(lines) == 5


def test_modelspace_refusal_names_the_worst_point(tmp_path, capsys):
    # |(1 + z)/2| = |cos(t/2)| falls to 0 at t = pi, the worst point of the grid
    theta = tmp_path / "theta.json"
    theta.write_text(json.dumps({
        "n": 1, "p": 1, "tail_bound": 1e-3,
        "coefficients": [{"k": [0], "re": [[0.5]], "im": [[0.0]]}, {"k": [1], "re": [[0.5]], "im": [[0.0]]}],
    }))
    argv = ["modelspace", "--theta", str(theta), "--caps", "5", "--out", str(tmp_path / "Q.ms")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "at grid point [3.14159]" in err and "tail allowance 1.000e-03" in err
    assert not (tmp_path / "Q.ms").exists()


def test_modelspace_invariance_model_compactness(tmp_path, capsys):
    theta = tmp_path / "theta.json"
    assert main(["symbol", "--monomial", "1,1", "--out", str(theta)]) == 0
    ms_path = tmp_path / "Q.ms"
    assert main(["modelspace", "--theta", str(theta), "--caps", "3,3", "--out", str(ms_path)]) == 0
    assert "q = 7" in capsys.readouterr().out

    inv = tmp_path / "inv.json"
    assert main(["invariance", "--modelspace", str(ms_path), "--out", str(inv)]) == 0
    data = json.loads(inv.read_text())
    assert data["kernel_dim"] == 0

    mc = tmp_path / "mc.json"
    code = main(
        ["model-compactness", "--modelspace", str(ms_path), "--identity",
         "--m-max", "3", "--out", str(mc)]
    )
    assert code == 1  # identity plateaus: non-compact witness at scale
    data = json.loads(mc.read_text())
    assert data["verdict"] is False


def test_symbol_builders(tmp_path):
    b = tmp_path / "b.json"
    assert main(["symbol", "--blaschke", "0.5", "--degree", "12", "--out", str(b)]) == 0
    sym = io.load_symbol(b)
    assert sym.tail_bound > 0 and sym.zeros == ((0.5,),)
    z = tmp_path / "z.json"
    assert main(["symbol", "--monomial", "1", "--out", str(z)]) == 0
    prod = tmp_path / "prod.json"
    assert main(["symbol", "--product", f"{b},{z}", "--out", str(prod)]) == 0
    assert io.load_symbol(prod).n == 2 and io.load_symbol(prod).zeros is None
    assert main(["symbol", "--product", f"{b},{b}", "--out", str(prod)]) == 0
    assert io.load_symbol(prod).zeros == ((0.5,), (0.5,))


def test_blaschke_model_space_ignores_the_truncation_degree(tmp_path, capsys):
    # the default degree 40 is far past caps 9: the zeros give K_theta's 19 dimensions
    b = tmp_path / "b.json"
    assert main(["symbol", "--blaschke", "0.5", "--out", str(b)]) == 0
    prod, ms = tmp_path / "prod.json", tmp_path / "Q.ms"
    assert main(["symbol", "--product", f"{b},{b}", "--out", str(prod)]) == 0
    assert main(["modelspace", "--theta", str(prod), "--caps", "9,9", "--out", str(ms)]) == 0
    assert "q = 19" in capsys.readouterr().out
    assert main(["invariance", "--modelspace", str(ms)]) == 0


def test_vacuous_inner_certificate_is_refused(tmp_path, capsys):
    # 5z is not inner, and a tail bound of 1e300 would let the grid certify it
    theta = tmp_path / "theta.json"
    theta.write_text(json.dumps({
        "n": 1, "p": 1, "tail_bound": 1e300, "coefficients": [{"k": [1], "re": [[5.0]], "im": [[0.0]]}],
    }))
    assert main(["modelspace", "--theta", str(theta), "--caps", "4", "--out", str(tmp_path / "Q.ms")]) == 2
    assert "tail allowance 1.000e+300" in capsys.readouterr().err
    assert not (tmp_path / "Q.ms").exists()


def test_recover_cli(tmp_path):
    phi = tmp_path / "phi.json"
    phi.write_text(json.dumps(PHI))
    T = tmp_path / "T.op"
    main(["toeplitz", "--symbol", str(phi), "--caps", "4,4", "--out", str(T)])
    rep = tmp_path / "rec.json"
    sym_out = tmp_path / "sym.json"
    assert main(["recover", str(T), "--out", str(rep), "--symbol-out", str(sym_out)]) == 0
    data = json.loads(rep.read_text())
    assert data["max_deviation"] == 0.0
    back = io.load_symbol(sym_out)
    assert back.coeff((0, 0)).item() == 2.0


def test_block_decompose_rejects_multivariable(tmp_path, capsys):
    path = tmp_path / "I.op"
    io.save_operator(path, TruncatedOperator(Box((3, 3)), 1, np.eye(16, dtype=complex)))
    assert main(["block-decompose", str(path)]) == 2
    assert "one-variable" in capsys.readouterr().err


def test_decompose_refuses_mismatched_header_symbol(tmp_path, capsys):
    box = Box((7,))
    T = toeplitz(from_coefficients(1, 1, [((1,), 1.0)]), box)
    other = from_coefficients(1, 1, [((-1,), 1.0)])
    path = tmp_path / "T.op"
    io.save_operator(path, TruncatedOperator(box, 1, T.matrix, symbol=other))
    assert main(["decompose", str(path)]) == 2
    assert "payload" in capsys.readouterr().err


def test_symbol_bad_bare_entry_exit_two(tmp_path, capsys):
    out = tmp_path / "x.json"
    assert main(["symbol", "--coeffs", "[1]", "--n", "1", "--out", str(out)]) == 2
    assert main(["symbol", "--coeffs", '[{"k": [[1]], "re": 1}]', "--n", "1", "--out", str(out)]) == 2
    assert main(["symbol", "--coeffs", "3", "--n", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("error:") == 3
    assert not out.exists()
    assert main(["symbol", "--coeffs", '[{"k": [1], "re": 2}]', "--n", "1", "--out", str(out)]) == 0
    assert io.load_symbol(out).coeff((1,)).item() == 2.0


def test_symbol_long_inline_table(tmp_path):
    # over 255 bytes, the longest file name most file systems take
    entries = json.dumps([{"k": [k], "re": 1.0 / (k + 1), "im": -0.5 / (k + 1)} for k in range(20)])
    assert len(entries) > 255
    out = tmp_path / "x.json"
    assert main(["symbol", "--coeffs", entries, "--n", "1", "--out", str(out)]) == 0
    sym = io.load_symbol(out)
    assert all(sym.coeff((k,)).item() == complex(1.0 / (k + 1), -0.5 / (k + 1)) for k in range(20))


def test_symbol_nan_tail_bound_exit_two(tmp_path, capsys):
    # a NaN or infinite tail bound is no bound: refused, so no symbol file
    # carries one
    out = tmp_path / "x.json"
    for tail in ("NaN", "Infinity"):
        coeffs = f'{{"n": 1, "p": 1, "coefficients": [{{"k": [2], "re": 1.0}}], "tail_bound": {tail}}}'
        assert main(["symbol", "--coeffs", coeffs, "--out", str(out)]) == 2
        assert f"tail_bound must be finite and nonnegative, got {float(tail)}" in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_symbols_exit_two(tmp_path, capsys):
    # a symbol is a bounded function: a non-finite coefficient or tail bound
    # is refused, whether read from a file or made by a product that overflows
    a, theta = tmp_path / "a.json", tmp_path / "theta.json"
    assert main(["symbol", "--coeffs", '[{"k": [1], "re": 1e200}]', "--n", "1", "--out", str(a)]) == 0
    theta.write_text('{"n": 1, "p": 1, "coefficients": [{"k": [1], "re": 5.0}], "tail_bound": Infinity}')
    capsys.readouterr()
    probes = {
        "coefficient at (1, 1) has a non-finite entry": ["symbol", "--product", f"{a},{a}"],
        "coefficient at (1,) has a non-finite entry": ["symbol", "--coeffs", '[{"k": [1], "re": Infinity}]', "--n", "1"],
        "tail_bound must be finite and nonnegative, got inf": ["modelspace", "--theta", str(theta), "--caps", "4"],
    }
    for message, argv in probes.items():
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 2, argv  # a RuntimeWarning would be exit 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"
        assert not out.exists()


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
@pytest.mark.parametrize(
    "argv",
    [
        ["check-toeplitz", "{op}"],
        ["decompose", "{op}"],
        ["block-decompose", "{op}"],
        ["compactness", "{op}"],
        ["modelspace", "--theta", "{theta}", "--caps", "7", "--out", "{out}"],
        ["invariance", "--modelspace", "{ms}"],
        ["model-compactness", "--modelspace", "{ms}", "--identity", "--m-max", "1"],
    ],
    ids=lambda argv: argv[0],
)
def test_bad_tol_exit_two(tmp_path, capsys, argv, tol):
    # a tolerance is a finite number >= 0: NaN fails every comparison, a
    # negative one fails an exact section and inf passes any
    box = Box((7,))
    theta = from_coefficients(1, 1, [((1,), 1.0)])
    io.save_symbol(tmp_path / "theta.json", theta)
    io.save_operator(tmp_path / "T.op", toeplitz(theta, box))
    io.save_modelspace(tmp_path / "Q.ms", model_basis(theta, box))
    paths = {"op": tmp_path / "T.op", "theta": tmp_path / "theta.json", "ms": tmp_path / "Q.ms", "out": tmp_path / "out"}
    assert main([a.format(**paths) for a in argv] + ["--tol", tol]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --tol: tolerance must be a finite number >= 0, got '{tol}'" in captured.err
    assert not paths["out"].exists()


def test_symbol_bare_entries_read_like_symbol_json(tmp_path, capsys):
    out = tmp_path / "x.json"
    entries = '[{"k": [1], "re": 1.0, "im": -0.0}, {"k": [2], "re": -0.0, "im": 1.0}]'
    assert main(["symbol", "--coeffs", entries, "--n", "1", "--out", str(out)]) == 0
    sym = io.load_symbol(out)
    one, two = sym.coeff((1,)).item(), sym.coeff((2,)).item()
    assert one.real == 1.0 and math.copysign(1.0, one.imag) == -1.0
    assert math.copysign(1.0, two.real) == -1.0 and two.imag == 1.0
    out.unlink()
    entries = '[{"k": [1], "re": 1.0, "im": NaN}]'
    assert main(["symbol", "--coeffs", entries, "--n", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: coefficient at (1,) has a non-finite entry\n"
    for k in ("1.5", "true"):
        assert main(["symbol", "--coeffs", f'[{{"k": [{k}], "re": 1.0}}]', "--n", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err.count("is not an integer") == 2
    assert not out.exists()


def test_internal_error_exit_three(tmp_path, monkeypatch, capsys):
    def boom(args):
        raise RuntimeError("first line\nsecond line")

    monkeypatch.setitem(cli._HANDLERS, "recover", boom)
    assert main(["recover", str(tmp_path / "T.op")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: RuntimeError") and err.count("\n") == 1


OPERATOR_VERBS = ("check-toeplitz", "recover", "decompose", "compactness")
TOO_BIG = 99999999999999999999  # beyond int64
BIG_SYMBOL = {
    "n": 1, "p": 1, "tail_bound": 0.0,
    "coefficients": [{"k": [TOO_BIG], "re": [[1.0]], "im": [[0.0]]}],
}
OP = {"kind": "operator", "n": 1, "p": 1, "caps": [2], "format": "binary"}
MS = {"kind": "modelspace", "n": 1, "p": 1, "caps": [1], "safe_caps": [0], "q": 1,
      "theta": {"n": 1, "p": 1, "coefficients": [{"k": [1], "re": [[1.0]], "im": [[0.0]]}], "tail_bound": 0.0}}
ZEROS_3X3 = bytes(8 * 2 * 9)  # interleaved float64 (re, im) payload
E0 = np.array([1.0, 0.0, 0.0, 0.0]).tobytes()  # the 2 x 1 basis column e_0
# file name -> (header, payload); each would load, or crash, unrefused today
OP_FILES = {
    "op-header-list": ([1], ZEROS_3X3),
    "op-p-0": ({**OP, "p": 0}, b""),
    "op-caps-2.5": ({**OP, "caps": [2.5]}, ZEROS_3X3),
    "op-caps-true": ({**OP, "caps": [True, 2]}, bytes(8 * 2 * 36)),
    "op-symbol-beyond-int64": ({**OP, "symbol": BIG_SYMBOL}, ZEROS_3X3),
}
ENTRY = {"re": [[1.0]], "im": [[0.0]]}
# symbol file name -> symbol JSON whose counts or frequencies are not integers
BAD_SYMBOLS = {
    "k-1.5": {**BIG_SYMBOL, "coefficients": [{"k": [1.5], **ENTRY}]},
    "n-1.9-k-true": {**BIG_SYMBOL, "n": 1.9, "coefficients": [{"k": [True], **ENTRY}]},
    "p-true": {**BIG_SYMBOL, "p": True, "coefficients": [{"k": [1], **ENTRY}]},
}
MALFORMED = [
    pytest.param({"T.op": op}, [verb, "{d}/T.op"], id=f"{name}-{verb}")
    for name, op in OP_FILES.items()
    for verb in OPERATOR_VERBS
] + [
    pytest.param({"z.json": (sym, b"")}, ["toeplitz", "--symbol", "{d}/z.json", "--caps", "3", "--out", "{d}/T.op"],
                 id=f"toeplitz-symbol-{name}")
    for name, sym in BAD_SYMBOLS.items()
] + [
    pytest.param({"Q.ms": ([1], E0)}, ["invariance", "--modelspace", "{d}/Q.ms"], id="ms-header-list"),
    pytest.param({"Q.ms": ({**MS, "caps": [1.5]}, E0)}, ["invariance", "--modelspace", "{d}/Q.ms"], id="ms-caps-1.5"),
    pytest.param({}, ["symbol", "--monomial", str(TOO_BIG), "--out", "{d}/z.json"], id="monomial-beyond-int64"),
    pytest.param({"z.json": (BIG_SYMBOL, b"")}, ["toeplitz", "--symbol", "{d}/z.json", "--caps", "3", "--out", "{d}/T.op"],
                 id="toeplitz-symbol-beyond-int64"),
    pytest.param({"z.json": (BIG_SYMBOL, b"")}, ["modelspace", "--theta", "{d}/z.json", "--caps", "3", "--out", "{d}/Q.ms"],
                 id="modelspace-symbol-beyond-int64"),
]


@pytest.mark.parametrize("files, argv", MALFORMED)
def test_malformed_file_exit_two(tmp_path, capsys, files, argv):
    for name, (header, payload) in files.items():
        (tmp_path / name).write_bytes(json.dumps(header).encode() + b"\n" + payload)
    assert main([a.format(d=tmp_path) for a in argv]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("verb", ["invariance", "model-compactness"])
def test_non_orthonormal_modelspace_exit_two(tmp_path, capsys, verb):
    column = np.array([2.0, 0.0, 0.0, 0.0]).tobytes()  # 2 e_0: right size, not a unit vector
    (tmp_path / "Q.ms").write_bytes(json.dumps(MS).encode() + b"\n" + column)
    argv = [verb, "--modelspace", str(tmp_path / "Q.ms")]
    if verb == "model-compactness":
        argv += ["--identity", "--m-max", "1"]
    assert main(argv) == 2
    assert "not orthonormal" in capsys.readouterr().err


@pytest.mark.parametrize("top", [1e300, math.inf, -math.inf])
def test_huge_modelspace_entry_is_refused_quietly(tmp_path, capsys, top):
    # the orthonormality check overflows at 1e300 and meets inf * 0 at inf:
    # both are refused (exit 2) with one error line and no RuntimeWarning
    column = np.array([top, 0.0, 0.0, 0.0]).tobytes()
    (tmp_path / "Q.ms").write_bytes(json.dumps(MS).encode() + b"\n" + column)
    assert main(["invariance", "--modelspace", str(tmp_path / "Q.ms")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not orthonormal" in err and err.count("\n") == 1


Z3 = {"n": 1, "p": 1, "coefficients": [{"k": [3], "re": [[1.0]], "im": [[0.0]]}], "tail_bound": 0.0}


@pytest.mark.parametrize("field, value", [
    ("p", 2),
    pytest.param("theta", {**Z3, "n": 2, "coefficients": [{**Z3["coefficients"][0], "k": [3, 0]}]}, id="theta-value4"),
    pytest.param("theta", {**Z3, "coefficients": [{**Z3["coefficients"][0], "k": [7]}]}, id="theta-reach"),
])
def test_modelspace_header_must_match_theta(tmp_path, capsys, field, value):
    path = tmp_path / "Q.ms"
    io.save_modelspace(path, model_basis(io.symbol_from_dict(Z3), Box((6,))))
    header, payload = path.read_bytes().split(b"\n", 1)
    path.write_bytes(json.dumps({**json.loads(header), field: value}).encode() + b"\n" + payload)
    assert main(["invariance", "--modelspace", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_modelspace_p_must_be_thetas(tmp_path, capsys):
    # a p = 2 space under a scalar theta, the payload of the right size
    path = tmp_path / "Q.ms"
    io.save_modelspace(path, model_basis(from_coefficients(1, 2, [((3,), np.eye(2))]), Box((6,))))
    header, payload = path.read_bytes().split(b"\n", 1)
    path.write_bytes(json.dumps({**json.loads(header), "theta": Z3}).encode() + b"\n" + payload)
    assert main(["invariance", "--modelspace", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: header has p = 2 and 1 caps; theta has n = 1, p = 1\n"


# the boundary note every .ms file carried before headers dropped derived fields
OLD_BOUNDARY_NOTE = (
    "truncated quotient: with theta's zeros, the TMW basis of K_theta cut at the caps, "
    "within about max|a|^(d+1) of K_theta; else exact against columns that fit the box, "
    "and near-boundary basis vectors may differ from the untruncated space"
)


def _old_header(path, **stale) -> None:
    """Rewrite path's header as older files record it, byte for byte, with the stale values given.

    They also record n, and a model space's safe_caps (the caps minus
    theta's reach), column_tail_bound (theta's tail bound) and
    boundary_note.
    """
    head, payload = path.read_bytes().split(b"\n", 1)
    header = json.loads(head)
    header["n"] = len(header["caps"])
    if header["kind"] == "modelspace":
        theta = header["theta"]
        if "zeros" in theta:
            reach = [len(z["re"]) for z in theta["zeros"]]
        else:
            reach = [max(c["k"][i] for c in theta["coefficients"]) for i in range(header["n"])]
        header["safe_caps"] = [c - r for c, r in zip(header["caps"], reach)]
        header["column_tail_bound"] = theta["tail_bound"]
        header["boundary_note"] = OLD_BOUNDARY_NOTE
    path.write_bytes(io.dumps_header({**header, **stale}).encode() + b"\n" + payload)


@pytest.mark.parametrize("stale", [{}, {"n": 5, "safe_caps": [9, 9], "column_tail_bound": 0.5, "boundary_note": "x"}],
                         ids=["current", "stale"])
def test_files_with_derived_header_fields_load_and_report_the_same(tmp_path, stale):
    # .op and .ms files as headers recorded them before (n, safe_caps,
    # column_tail_bound, boundary_note), current or stale, load bit for bit
    # and give byte-identical reports: those keys are ignored
    box = Box((4, 4))
    theta = product_inner([blaschke_factor(0.5, 6), blaschke_factor(-0.5j, 6)])
    ms = model_basis(theta, box)
    T = TruncatedOperator(Box((ms.q - 1,)), 1, np.random.default_rng(30).standard_normal((ms.q, ms.q)) + 0j)
    files = {
        "S.op": lambda path: io.save_operator(path, toeplitz(from_coefficients(2, 1, [((1, 0), 1.0), ((0, -1), 0.5)]), box)),
        "K.op": lambda path: io.save_operator(path, TruncatedOperator(box, 1, np.eye(25)[::-1] + 0j), fmt="csv"),
        "T.op": lambda path: io.save_operator(path, T),
        "Q.ms": lambda path: io.save_modelspace(path, ms),
        "Z.ms": lambda path: io.save_modelspace(path, model_basis(from_coefficients(2, 1, [((1, 1), 1.0)]), box)),
    }
    runs = [
        ["check-toeplitz", "{d}/S.op"],
        ["check-toeplitz", "{d}/K.op"],
        ["invariance", "--modelspace", "{d}/Q.ms"],
        ["invariance", "--modelspace", "{d}/Z.ms"],
        ["model-compactness", "--modelspace", "{d}/Q.ms", "--operator", "{d}/T.op", "--m-max", "3"],
        ["model-compactness", "--modelspace", "{d}/Z.ms", "--identity", "--m-max", "3"],
    ]

    def outputs():  # each file's matrix bytes and symbol, then each run's exit code and report bytes
        loaded = []
        for name in files:
            if name.endswith(".op"):
                op = io.load_operator(tmp_path / name)
                loaded.append((op.matrix.tobytes(), op.symbol and io.symbol_to_dict(op.symbol)))
            else:
                ms = io.load_modelspace(tmp_path / name)
                loaded.append((ms.basis.tobytes(), io.symbol_to_dict(ms.theta)))
        reports = []
        for argv in runs:
            with contextlib.redirect_stderr(io_.StringIO()):
                code = main([a.format(d=tmp_path) for a in argv] + ["--out", str(tmp_path / "r.json")])
            reports.append((code, (tmp_path / "r.json").read_bytes()))
        return loaded, reports

    for name, save in files.items():
        save(tmp_path / name)
    current = outputs()
    for name, save in files.items():
        _old_header(tmp_path / name, **stale)
        assert b'"n":' in (tmp_path / name).read_bytes()
    assert outputs() == current
    assert [code for code, _ in current[1]] == [0, 1, 0, 0, 1, 1]


def test_headers_record_only_what_cannot_be_derived(tmp_path):
    def keys(path):
        return set(json.loads(path.read_bytes().split(b"\n", 1)[0]))

    box = Box((3,))
    io.save_operator(tmp_path / "T.op", toeplitz(from_coefficients(1, 1, [((1,), 1.0)]), box), fmt="csv")
    io.save_operator(tmp_path / "M.op", TruncatedOperator(box, 2, np.eye(8) + 0j))
    io.save_modelspace(tmp_path / "Q.ms", model_basis(blaschke_factor(0.5, 4), box))
    assert keys(tmp_path / "T.op") == {"kind", "p", "caps", "format", "symbol"}
    assert keys(tmp_path / "M.op") == {"kind", "p", "caps", "format"}
    assert keys(tmp_path / "Q.ms") == {"kind", "p", "caps", "q", "theta"}


def test_model_compactness_csv_bytes(tmp_path):
    io.save_modelspace(tmp_path / "Q.ms", model_basis(from_coefficients(2, 1, [((1, 1), 1.0)]), Box((2, 2))))
    out = tmp_path / "mc.csv"
    argv = ["model-compactness", "--modelspace", str(tmp_path / "Q.ms"), "--identity", "--m-max", "3"]
    assert main(argv + ["--format", "csv", "--out", str(out)]) == 0
    assert out.read_bytes() == b"m,norm_dir0,norm_dir1\n1,1.0,1.0\n2,1.0,1.0\n3,0.0,0.0\n"


@pytest.mark.parametrize("verb", ["check-toeplitz", "compactness", "model-compactness"])
def test_format_csv_needs_out(tmp_path, capsys, verb):
    box = Box((3,))
    io.save_operator(tmp_path / "T.op", toeplitz(from_coefficients(1, 1, [((1,), 1.0)]), box))
    io.save_modelspace(tmp_path / "Q.ms", model_basis(from_coefficients(1, 1, [((2,), 1.0)]), box))
    if verb == "model-compactness":
        argv = [verb, "--modelspace", str(tmp_path / "Q.ms"), "--identity", "--m-max", "1"]
    else:
        argv = [verb, str(tmp_path / "T.op")]
    assert main(argv + ["--format", "csv"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "--format csv needs --out" in out.err


REPORT_KEYS = {
    "check-toeplitz": ["config", "defects", "kind", "overall", "tol", "verdict", "witness"],
    "recover": ["config", "deviations", "kind", "max_deviation", "sup_norm_estimate", "symbol"],
    "decompose": [
        "config", "diagonal_step_norms", "kind", "m_star",
        "remainder_profile", "sequences", "symbol", "verdict", "witness",
    ],
    "compactness": ["c_m", "config", "kind", "m", "m_max", "tol", "verdict"],
    "invariance": ["config", "kernel_dim", "kind", "matvecs", "method", "q", "residual", "sigma_min", "tol"],
    "model-compactness": ["config", "kind", "m_max", "norms", "tol", "verdict"],
}
WITNESS_KEYS = {
    "non_cauchy": ["direction", "kind", "step_norm", "step_norms", "worst_m"],
    "remainder_not_compact": ["c_m", "cross_terms", "kind", "pair", "tol"],
}


def test_report_keys_are_pinned(tmp_path):
    def report(argv):
        out = tmp_path / "r.json"
        assert main(argv + ["--out", str(out)]) in (0, 1)
        return json.loads(out.read_text())

    def keys(verb, data):
        assert sorted(data) == REPORT_KEYS[verb], verb

    phi = tmp_path / "phi.json"
    phi.write_text(json.dumps(PHI))
    T2 = tmp_path / "T2.op"
    assert main(["toeplitz", "--symbol", str(phi), "--caps", "4,4", "--out", str(T2)]) == 0
    M = toeplitz(from_coefficients(1, 1, [((1,), 1.0)]), Box((6,))).matrix.copy()
    M[0, 0] = 1.0
    io.save_operator(tmp_path / "T1.op", TruncatedOperator(Box((6,)), 1, M))
    for verb in ("check-toeplitz", "recover", "compactness"):
        keys(verb, report([verb, str(T2)]))
    # the flip is not Cauchy; the axis swap e_(0, k) -> e_(k, 0) is, but its remainder is not compact
    io.save_operator(tmp_path / "flip.op", TruncatedOperator(Box((6,)), 1, np.eye(7, dtype=complex)[::-1]))
    swap = np.zeros((36, 36), dtype=complex)
    swap[6 * np.arange(6), np.arange(6)] = 1.0
    io.save_operator(tmp_path / "swap.op", TruncatedOperator(Box((5, 5)), 1, swap))
    witnesses = set()
    for verb, op in (("decompose", T2), ("block-decompose", "T1.op"), ("decompose", "flip.op"), ("decompose", "swap.op")):
        data = report([verb, str(tmp_path / op)])
        keys("decompose", data)
        assert all(sorted(s) == ["cauchy", "directions", "step_norms"] for s in data["sequences"])
        assert sorted(data["remainder_profile"]) == ["c_m", "m", "m_max", "tol", "verdict"]
        if data["witness"] is not None:
            kind = data["witness"]["kind"]
            witnesses.add(kind)
            assert sorted(data["witness"]) == WITNESS_KEYS[kind], kind
            assert all(sorted(ct) == ["i", "j", "norms"] for ct in data["witness"].get("cross_terms", []))
    assert witnesses == set(WITNESS_KEYS)
    # a monomial theta's selection basis takes the split; the same space on a
    # rotated basis takes the dense SVD (q = 7) or Lanczos (q = 16)
    for exponents, caps, method in (("1,1", "3,3", "dense-svd"), ("2,2", "4,4", "lanczos")):
        theta, ms = tmp_path / "theta.json", tmp_path / "Q.ms"
        assert main(["symbol", "--monomial", exponents, "--out", str(theta)]) == 0
        assert main(["modelspace", "--theta", str(theta), "--caps", caps, "--out", str(ms)]) == 0
        for want in ("difference-split", method):
            if want == method:
                io.save_modelspace(ms, rotated(io.load_modelspace(ms)))
            data = report(["invariance", "--modelspace", str(ms)])
            keys("invariance", data)
            assert data["method"] == want
    keys("model-compactness", report(["model-compactness", "--modelspace", str(ms), "--identity", "--m-max", "2"]))
