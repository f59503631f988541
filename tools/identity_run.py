"""Digest one round of every benchmark workload, so two checkouts compare with one `diff`.

Run from the root of a checkout:

    python3 tools/identity_run.py --seed 0 --out identity.txt [--tiny]

For each workload, the jobs are built with `benchmark/workloads.py` in a
fresh work directory and run once through `benchmark/run.py`'s `run_rounds`,
in-process and with one BLAS thread.  Each job gives one line: the
workload, the job's index and name, its exit code, the exit code its
construction predicts, and the SHA-256 of every file it wrote (the report,
the `--csv` sequences, the `--symbol-out` symbol) with the work directory's
path replaced by `{work}`.  The input files are not digested: they are the
program's own output too, and a change to what a header records moves them
without moving any job's result.  Nothing under `benchmark/` is modified.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmark"))

import run  # noqa: E402  (benchmark/run.py of this checkout)


def digest_workload(name: str, seed: int, tiny: bool) -> list[str]:
    """One line per job of one round of workload `name`."""
    import workloads

    with tempfile.TemporaryDirectory(prefix="identity-") as tmp:
        workdir = Path(tmp)
        jobs = workloads.WORKLOADS[name](workdir, seed, workloads.Setup(), tiny=tiny)
        with contextlib.redirect_stderr(io.StringIO()):  # witness lines and tracebacks; the exit code records them
            phase = run.run_rounds(jobs, workdir, 0.0, 0)
        lines = []
        for rec in phase.records:
            job, stem = jobs[rec.job], rec.report.stem  # r<round>-j<job>; every file the job wrote is <stem>.*
            digests = " ".join(
                f.name[len(stem) :] + "=" + hashlib.sha256(f.read_bytes().replace(tmp.encode(), b"{work}")).hexdigest()
                for f in sorted(workdir.glob(stem + ".*"))
            )
            lines.append(f"{name} j{rec.job} {job.name} exit={rec.rc} expect={job.expect} {digests}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tiny", action="store_true", help="the workloads' tiny job lists, as the benchmark's own tests run them")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    run.use_checkout()
    lines = [line for name in run.WORKLOADS for line in digest_workload(name, args.seed, args.tiny)]
    args.out.write_text("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
