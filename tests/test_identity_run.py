"""tools/identity_run.py: two runs digest the same, and every job exits as its construction predicts."""

import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "identity_run.py"


def test_identity_run_is_reproducible(tmp_path):
    outs = [tmp_path / "a.txt", tmp_path / "b.txt"]
    for out in outs:
        proc = subprocess.run([sys.executable, str(TOOL), "--seed", "3", "--tiny", "--out", str(out)],
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
    lines = outs[0].read_text().splitlines()
    assert outs[1].read_text().splitlines() == lines
    assert {line.split()[0] for line in lines} == {"decompose-sparse", "noisy-sections", "model-rigidity"}
    for line in lines:
        exit_, expect = re.search(r" exit=(\S+) expect=(\S+) ", line).groups()
        assert exit_ == expect, line
        assert re.search(r" \.json=[0-9a-f]{64}", line), line
    # the one job that writes side files digests them too
    assert any(".symbol.json=" in line and ".remainder.csv=" in line for line in lines)
