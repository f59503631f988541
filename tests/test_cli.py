"""End-to-end exercise of the command line verbs and the exit-code contract."""

import json

import numpy as np
import pytest

from polytoep import cli, io
from polytoep.cli import main
from polytoep.lattice import Box
from polytoep.modelspace import model_basis
from polytoep.operators import TruncatedOperator, toeplitz
from polytoep.symbols import from_coefficients

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
    out = capsys.readouterr().out
    assert "not Toeplitz" in out and "direction 0" in out


def test_malformed_input_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.op"
    bad.write_text("this is not an operator\n")
    assert main(["check-toeplitz", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_flag_exit_two(tmp_path, capsys):
    assert main(["check-toeplitz", "--bogus"]) == 2


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
    assert sym.tail_bound > 0
    z = tmp_path / "z.json"
    assert main(["symbol", "--monomial", "1", "--out", str(z)]) == 0
    prod = tmp_path / "prod.json"
    assert main(["symbol", "--product", f"{b},{z}", "--out", str(prod)]) == 0
    assert io.load_symbol(prod).n == 2


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
      "theta": {"n": 1, "p": 1, "coefficients": [], "tail_bound": 0.0}}
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
MALFORMED = [
    pytest.param({"T.op": op}, [verb, "{d}/T.op"], id=f"{name}-{verb}")
    for name, op in OP_FILES.items()
    for verb in OPERATOR_VERBS
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
