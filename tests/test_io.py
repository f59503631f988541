import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from polytoep import io
from polytoep.lattice import Box
from polytoep.modelspace import model_basis
from polytoep.operators import TruncatedOperator, toeplitz
from polytoep.symbols import TorusSymbol, from_coefficients, max_coeff_difference, random_symbol


def test_symbol_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    for n, span, p in [(2, 2, 1), (1, 3, 2)]:
        sym = random_symbol(n, span, p=p, rng=rng)
        path = tmp_path / f"sym_{n}_{p}.json"
        io.save_symbol(path, sym)
        back = io.load_symbol(path)
        assert back.n == n and back.p == p
        assert max_coeff_difference(back, sym) == 0.0  # repr floats round-trip exactly
        assert back.tail_bound == sym.tail_bound


def test_symbol_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 1}')
    with pytest.raises(ValueError, match="malformed"):
        io.load_symbol(path)
    path.write_text('{"n": 1, "p": 1, "coefficients": [{"k": [1, 2], "re": [[1.0]], "im": [[0.0]]}]}')
    with pytest.raises(ValueError, match="expected n = 1"):
        io.load_symbol(path)


def test_operator_round_trip_binary(tmp_path):
    rng = np.random.default_rng(1)
    sym = random_symbol(2, 2, rng=rng)
    op = toeplitz(sym, Box((3, 4)))
    path = tmp_path / "T.op"
    io.save_operator(path, op, fmt="binary")
    back = io.load_operator(path)
    assert back.box == op.box and back.p == op.p
    assert np.array_equal(back.matrix, op.matrix)
    assert back.symbol is not None
    assert max_coeff_difference(back.symbol, sym) == 0.0


def test_operator_round_trip_csv(tmp_path):
    rng = np.random.default_rng(2)
    sym = random_symbol(1, 2, p=2, rng=rng)
    op = toeplitz(sym, Box((3,)))
    path = tmp_path / "T.opcsv"
    io.save_operator(path, op, fmt="csv")
    back = io.load_operator(path)
    assert np.array_equal(back.matrix, op.matrix)


def test_operator_payload_size_check(tmp_path):
    sym = from_coefficients(1, 1, [((0,), 1)])
    op = toeplitz(sym, Box((3,)))
    path = tmp_path / "T.op"
    io.save_operator(path, op)
    data = path.read_bytes()
    (tmp_path / "short.op").write_bytes(data[:-16])
    with pytest.raises(ValueError, match="payload"):
        io.load_operator(tmp_path / "short.op")


def test_modelspace_round_trip(tmp_path):
    theta = from_coefficients(2, 1, [((1, 1), 1)])
    ms = model_basis(theta, Box((3, 3)))
    path = tmp_path / "Q.ms"
    io.save_modelspace(path, ms)
    back = io.load_modelspace(path)
    assert back.q == ms.q
    assert back.box == ms.box and back.safe_box == ms.safe_box
    assert np.array_equal(back.basis, ms.basis)
    assert max_coeff_difference(back.theta, theta) == 0.0


def test_report_determinism(tmp_path):
    report = {"b": 1.0 / 3.0, "a": [1, 2.5e-17], "nested": {"x": True}}
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    io.write_report(p1, report)
    io.write_report(p2, {"nested": {"x": True}, "a": [1, 2.5e-17], "b": 1.0 / 3.0})
    assert p1.read_bytes() == p2.read_bytes()


def test_sequence_csv(tmp_path):
    path = tmp_path / "seq.csv"
    io.write_sequence_csv(path, [(0, 1.0), (1, 0.5)], ("m", "c_m"))
    lines = path.read_text().splitlines()
    assert lines[0] == "m,c_m"
    assert lines[1] == "0,1.0"


def test_operator_symbol_must_match_payload(tmp_path):
    box = Box((3, 3))
    matrix = toeplitz(from_coefficients(2, 1, [((0, 0), 2.0), ((1, 0), 1.0)]), box).matrix
    path = tmp_path / "T.op"
    for other, message in [
        (from_coefficients(2, 1, [((0, 0), 2.0), ((0, 1), 1.0)]), "payload is not the Toeplitz section"),
        (from_coefficients(1, 1, [((0,), 2.0)]), "header symbol has n = 1"),
    ]:
        io.save_operator(path, TruncatedOperator(box, 1, matrix, symbol=other))
        with pytest.raises(ValueError, match=message):
            io.load_operator(path)


def test_operator_legacy_header_loads(tmp_path):
    sym = from_coefficients(1, 1, [((1,), 1.0)])
    op = toeplitz(sym, Box((4,)))
    path = tmp_path / "S.op"
    io.save_operator(path, op)
    raw = path.read_bytes()
    nl = raw.index(b"\n")
    header = dict(json.loads(raw[:nl]), structure="toeplitz", direction=0)
    path.write_bytes(io.dumps_header(header).encode() + raw[nl:])
    back = io.load_operator(path)
    assert np.array_equal(back.matrix, op.matrix)
    assert max_coeff_difference(back.symbol, sym) == 0.0


def test_operator_nan_symbol_round_trip(tmp_path):
    op = toeplitz(from_coefficients(1, 1, [((1,), np.nan)]), Box((3,)))
    path = tmp_path / "N.op"
    io.save_operator(path, op)
    assert np.array_equal(io.load_operator(path).matrix, op.matrix, equal_nan=True)


# CSV payloads and JSON symbols spell every NaN "nan", so draws use the one
# canonical NaN; every other float, signed zeros and infinities included,
# must come back bit for bit.
FLOATS = st.floats(allow_nan=True, allow_infinity=True).map(lambda x: math.nan if math.isnan(x) else x)


def complex_arrays(shape):
    """Complex arrays whose real and imaginary parts are drawn independently."""
    return hnp.arrays(np.float64, shape + (2,), elements=FLOATS).map(lambda a: a.view(complex).reshape(shape))


@st.composite
def operators(draw):
    """A random section over n <= 3, p <= 2, or the Toeplitz section of a random symbol."""
    n, p = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    box = Box(tuple(draw(st.lists(st.integers(0, 1 if n == 3 else 2), min_size=n, max_size=n))))
    if draw(st.booleans()):
        freqs = st.tuples(*(st.integers(-c - 1, c + 1) for c in box.caps))
        return toeplitz(TorusSymbol(n, p, draw(st.dictionaries(freqs, complex_arrays((p, p)), max_size=4))), box)
    return TruncatedOperator(box, p, draw(complex_arrays((p * box.dim,) * 2)))


@given(operators(), st.sampled_from(["binary", "csv"]))
def test_operator_save_load_is_bit_exact(tmp_path_factory, op, fmt):
    path = tmp_path_factory.getbasetemp() / "round-trip.op"
    io.save_operator(path, op, fmt=fmt)
    back = io.load_operator(path)
    assert back.box == op.box and back.p == op.p
    assert back.matrix.tobytes() == op.matrix.tobytes()
    if op.symbol is None:
        assert back.symbol is None
    else:
        assert back.symbol.coefficients.keys() == op.symbol.coefficients.keys()
        for k, blk in op.symbol.coefficients.items():
            assert back.symbol.coefficients[k].tobytes() == blk.tobytes(), k


@given(operators(), st.data())
def test_operator_file_prefixes_are_refused(tmp_path_factory, op, data):
    path = tmp_path_factory.getbasetemp() / "prefix.op"
    io.save_operator(path, op)
    raw = path.read_bytes()
    path.write_bytes(raw[: data.draw(st.integers(0, len(raw) - 1), label="cut")])
    with pytest.raises(ValueError):
        io.load_operator(path)
