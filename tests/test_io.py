import json
import math
import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from polytoep import io
from polytoep.lattice import Box
from polytoep.modelspace import ModelSpace, _safe_box, model_basis
from polytoep.operators import TruncatedOperator, toeplitz
from polytoep.symbols import TorusSymbol, blaschke_factor, from_coefficients, multiply, product_inner, random_symbol

from oracles import max_coeff_difference


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
    entry = '"re": [[1.0]], "im": [[0.0]]'
    for n, p, k in [("1", "1", "1.5"), ("1.9", "1", "true"), ("1", "true", "1"), ("true", "1", "1"), ("1", "1.0", "1")]:
        path.write_text(f'{{"n": {n}, "p": {p}, "coefficients": [{{"k": [{k}], {entry}}}]}}')
        with pytest.raises(ValueError, match="is not an integer"):
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


@pytest.mark.parametrize("cut, extra, size", [(1, b"", 63), (0, b"\0", 65), (0, bytes(32), 96)])
def test_operator_payload_of_another_length_is_refused(tmp_path, cut, extra, size):
    path = tmp_path / "T.op"
    io.save_operator(path, toeplitz(from_coefficients(1, 1, [((0,), 1)]), Box((1,))))
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - cut] + extra)
    with pytest.raises(ValueError, match=rf"^matrix payload holds {size} bytes, expected 64$"):
        io.load_operator(path)


@pytest.mark.parametrize("extra", [b"", b"\0"])
def test_operator_file_through_a_pipe(tmp_path, extra):
    # a pipe has no size to check first: the read itself finds the length
    op = toeplitz(from_coefficients(1, 1, [((1,), 2.0)]), Box((3,)))
    io.save_operator(tmp_path / "T.op", op)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=lambda: fifo.write_bytes((tmp_path / "T.op").read_bytes() + extra))
    writer.start()
    try:
        if extra:
            with pytest.raises(ValueError, match="payload holds 257 bytes, expected 256"):
                io.load_operator(fifo)
        else:
            assert np.array_equal(io.load_operator(fifo).matrix, op.matrix)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()


def test_binary_operator_load_peaks_at_about_one_payload(tmp_path):
    # The payload is read straight into the matrix, and the header symbol is
    # checked against the section's view: no file copy, no second matrix.
    op = toeplitz(random_symbol(2, 2, rng=np.random.default_rng(4)), Box((31, 31)))
    path = tmp_path / "T.op"
    io.save_operator(path, op)
    tracemalloc.start()
    try:
        back = io.load_operator(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back.symbol is not None and np.array_equal(back.matrix, op.matrix)
    assert peak <= op.matrix.nbytes * 9 // 8 + (1 << 20)


def test_modelspace_round_trip(tmp_path):
    theta = from_coefficients(2, 1, [((1, 1), 1)])
    ms = model_basis(theta, Box((3, 3)))
    path = tmp_path / "Q.ms"
    io.save_modelspace(path, ms)
    back = io.load_modelspace(path)
    assert back.q == ms.q
    assert back.box == ms.box
    assert np.array_equal(back.basis, ms.basis)
    assert max_coeff_difference(back.theta, theta) == 0.0


def test_zeros_survive_the_symbol_and_modelspace_files(tmp_path):
    theta = product_inner([blaschke_factor(0.5, 4), multiply(blaschke_factor(-0.5j, 3), blaschke_factor(0.3, 2))])
    io.save_symbol(tmp_path / "theta.json", theta)
    data = json.loads((tmp_path / "theta.json").read_text())
    assert data["zeros"] == [{"re": [0.5], "im": [0.0]}, {"re": [-0.0, 0.3], "im": [-0.5, 0.0]}]
    assert io.load_symbol(tmp_path / "theta.json").zeros == theta.zeros
    ms = model_basis(theta, Box((6, 5)))
    io.save_modelspace(tmp_path / "Q.ms", ms)
    back = io.load_modelspace(tmp_path / "Q.ms")
    assert back.theta.zeros == theta.zeros and back.basis.tobytes() == ms.basis.tobytes()
    assert _safe_box(back.theta, back.box).caps == (5, 3) and back.distance_bound == ms.distance_bound
    # a symbol without zeros writes no zeros key
    io.save_symbol(tmp_path / "z.json", from_coefficients(1, 1, [((1,), 1.0)]))
    assert "zeros" not in json.loads((tmp_path / "z.json").read_text())


@pytest.mark.parametrize("zeros", [0.5, [0.5], [{"re": [1.5]}], [{"im": [0.5]}], [{"re": ["x"]}], [{"re": [0.5], "im": [0.0, 1.0]}]])
def test_malformed_zeros_are_refused(tmp_path, zeros):
    data = io.symbol_to_dict(blaschke_factor(0.5, 8))
    (tmp_path / "bad.json").write_text(json.dumps({**data, "zeros": zeros}))
    with pytest.raises(ValueError):
        io.load_symbol(tmp_path / "bad.json")


@pytest.mark.parametrize("damage", ["scale", "nan", "duplicate"])
def test_modelspace_basis_must_be_orthonormal(tmp_path, damage):
    ms = model_basis(from_coefficients(2, 1, [((1, 1), 1)]), Box((3, 3)))
    if damage == "scale":
        ms.basis = ms.basis * (1 + 1e-9)
    elif damage == "nan":
        ms.basis[0, 0] = complex(math.nan, 0.0)
    else:
        ms.basis[:, 1] = ms.basis[:, 0]
    io.save_modelspace(tmp_path / "Q.ms", ms)
    with pytest.raises(ValueError, match="not orthonormal"):
        io.load_modelspace(tmp_path / "Q.ms")


def test_modelspace_theta_beyond_the_caps_is_refused_naming_the_file(tmp_path):
    path = tmp_path / "Q.ms"
    io.save_modelspace(path, model_basis(from_coefficients(1, 1, [((3,), 1.0)]), Box((6,))))
    raw = path.read_bytes()
    nl = raw.index(b"\n")
    header = dict(json.loads(raw[:nl]), theta=io.symbol_to_dict(from_coefficients(1, 1, [((7,), 1.0)])))
    path.write_bytes(io.dumps_header(header).encode() + raw[nl:])
    with pytest.raises(ValueError, match="empty safe box") as exc:
        io.load_modelspace(path)
    assert str(exc.value).startswith(f"{path}: ")


SELECTION_DAMAGE = ("none", "two on one row", "1 + 1e-9", "-1", "1j", "extra entry", "bit flip")


@st.composite
def near_selection_bases(draw):
    """A monomial space's selection basis, intact or with one column damaged."""
    n = draw(st.integers(1, 2))
    caps = tuple(draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)))
    k = tuple(draw(st.integers(0, c)) for c in caps)
    ms = model_basis(from_coefficients(n, 1, [(k, 1.0)]), Box(caps))
    if ms.q == 0:
        return ms, "none"
    damage = draw(st.sampled_from(SELECTION_DAMAGE))
    V, j = ms.basis, draw(st.integers(0, ms.q - 1))
    row = int(np.flatnonzero(V[:, j])[0])
    if damage == "two on one row":
        V[:, j] = V[:, (j + draw(st.integers(1, max(1, ms.q - 1)))) % ms.q]  # another column, when q > 1
    elif damage in ("1 + 1e-9", "-1", "1j"):
        V[row, j] = {"1 + 1e-9": 1 + 1e-9, "-1": -1.0, "1j": 1j}[damage]
    elif damage == "extra entry":
        V[draw(st.integers(0, V.shape[0] - 1)), j] += draw(st.sampled_from([1e-300, 1e-12, 1e-10, 1e-6]))
    elif damage == "bit flip":
        parts = V[row : row + 1, j].view(np.uint64)  # the real part, then the imaginary part
        parts[draw(st.integers(0, 1))] ^= np.uint64(1) << np.uint64(draw(st.integers(0, 63)))
    return ms, damage


@given(near_selection_bases())
def test_modelspace_load_accepts_exactly_the_orthonormal_bases(tmp_path_factory, case):
    # a selection basis skips the Gram product; the verdict and the message
    # are still those of the full check
    ms, _ = case
    path = tmp_path_factory.getbasetemp() / "near-selection.ms"
    io.save_modelspace(path, ms)
    V = ms.basis
    with np.errstate(over="ignore", invalid="ignore"):
        deviation = np.abs(V.conj().T @ V - np.eye(ms.q)).max() if ms.q else 0.0
    if deviation <= io.ORTHONORMAL_TOL:
        assert io.load_modelspace(path).basis.tobytes() == V.tobytes()
        return
    message = f"basis columns are not orthonormal (Gram deviation {deviation:.3e} > {io.ORTHONORMAL_TOL:.0e})"
    with pytest.raises(ValueError) as err:
        io.load_modelspace(path)
    assert str(err.value) == f"{path}: {message}"


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


def test_operator_nan_symbol_section_is_refused(tmp_path):
    # the section of a NaN coefficient holds NaN entries, refused on load
    op = toeplitz(TorusSymbol(1, 1, {(1,): np.array([[np.nan]])}), Box((3,)))
    path = tmp_path / "N.op"
    io.save_operator(path, op)
    with pytest.raises(ValueError, match=r"entry \(1, 0\) is NaN"):
        io.load_operator(path)


# CSV payloads and JSON symbols spell every NaN "nan", so draws use the one
# canonical NaN; every other float, signed zeros and infinities included,
# must come back bit for bit, or, in a symbol, be refused as non-finite.
FLOATS = st.floats(allow_nan=True, allow_infinity=True).map(lambda x: math.nan if math.isnan(x) else x)
TAILS = st.floats(min_value=0.0, allow_infinity=False)


def _finite(sym: TorusSymbol) -> bool:
    return all(np.isfinite(blk).all() for blk in sym.coefficients.values())


def complex_arrays(shape):
    """Complex arrays whose real and imaginary parts are drawn independently."""
    return hnp.arrays(np.float64, shape + (2,), elements=FLOATS).map(lambda a: a.view(complex).reshape(shape))


@st.composite
def symbols(draw):
    """A symbol over n <= 3, p <= 2 with frequencies anywhere in int64."""
    n, p = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    freqs = st.tuples(*[st.integers(-(2**63) + 1, 2**63 - 1)] * n)
    coeffs = draw(st.dictionaries(freqs, complex_arrays((p, p)), max_size=4))
    return TorusSymbol(n, p, coeffs, draw(TAILS))


@given(symbols())
def test_symbol_save_load_is_bit_exact(tmp_path_factory, sym):
    path = tmp_path_factory.getbasetemp() / "round-trip.json"
    io.save_symbol(path, sym)
    if not _finite(sym):  # a non-finite coefficient is refused instead
        with pytest.raises(ValueError, match="has a non-finite entry"):
            io.load_symbol(path)
        return
    back = io.load_symbol(path)
    assert (back.n, back.p, back.tail_bound) == (sym.n, sym.p, sym.tail_bound)
    assert list(back.coefficients) == sorted(sym.coefficients)
    for k, blk in sym.coefficients.items():
        assert back.coefficients[k].tobytes() == blk.tobytes(), k


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
    if np.isnan(op.matrix.view(float)).any():  # a NaN entry is refused instead
        with pytest.raises(ValueError, match="is NaN"):
            io.load_operator(path)
        return
    if op.symbol is not None and not _finite(op.symbol):  # and so is a non-finite symbol
        with pytest.raises(ValueError, match="has a non-finite entry"):
            io.load_operator(path)
        return
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


# A loaded basis must be orthonormal, so the drawn one is: q distinct rows
# hold a unit phase, every other entry is a signed zero.  Header floats go
# through JSON and use FLOATS.
SIGNED_ZEROS = st.sampled_from([0.0, -0.0])


@st.composite
def orthonormal_bases(draw, rows: int, q: int) -> np.ndarray:
    parts = draw(hnp.arrays(np.float64, (rows, q, 2), elements=SIGNED_ZEROS))
    basis = parts.view(complex)[..., 0].copy()
    for j, r in enumerate(draw(st.permutations(range(rows)))[:q]):
        phi = draw(st.floats(-math.pi, math.pi))
        basis[r, j] = complex(math.cos(phi), math.sin(phi))
    return basis


@st.composite
def modelspaces(draw):
    """A model space of an analytic theta that fits the box, with an orthonormal basis."""
    n, p = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    box = Box(tuple(draw(st.lists(st.integers(0, 1 if n == 3 else 2), min_size=n, max_size=n))))
    freqs = st.tuples(*(st.integers(0, c) for c in box.caps))
    coeffs = draw(st.dictionaries(freqs, complex_arrays((p, p)), max_size=4))
    theta = TorusSymbol(n, p, coeffs, draw(TAILS))
    q = draw(st.integers(0, min(3, p * box.dim)))
    return ModelSpace(theta=theta, box=box, basis=draw(orthonormal_bases(p * box.dim, q)))


@given(modelspaces())
def test_modelspace_save_load_is_bit_exact(tmp_path_factory, ms):
    path = tmp_path_factory.getbasetemp() / "round-trip.ms"
    io.save_modelspace(path, ms)
    if not _finite(ms.theta):  # a non-finite theta is refused instead
        with pytest.raises(ValueError, match="has a non-finite entry"):
            io.load_modelspace(path)
        return
    back = io.load_modelspace(path)
    assert (back.box, back.p, back.q) == (ms.box, ms.p, ms.q)
    assert np.float64(back.theta.tail_bound).tobytes() == np.float64(ms.theta.tail_bound).tobytes()
    assert back.basis.shape == ms.basis.shape and back.basis.tobytes() == ms.basis.tobytes()
    assert (back.theta.n, back.theta.p, back.theta.tail_bound) == (ms.theta.n, ms.theta.p, ms.theta.tail_bound)
    assert list(back.theta.coefficients) == sorted(ms.theta.coefficients)
    for k, blk in ms.theta.coefficients.items():
        assert back.theta.coefficients[k].tobytes() == blk.tobytes(), k


@given(modelspaces(), st.data())
def test_modelspace_file_prefixes_are_refused(tmp_path_factory, ms, data):
    path = tmp_path_factory.getbasetemp() / "prefix.ms"
    io.save_modelspace(path, ms)
    raw = path.read_bytes()
    path.write_bytes(raw[: data.draw(st.integers(0, len(raw) - 1), label="cut")])
    with pytest.raises(ValueError):
        io.load_modelspace(path)
