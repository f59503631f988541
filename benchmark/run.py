"""Verb-level benchmark of the polytoep command line.

Run one workload from the repository root; the last line of standard output
is one JSON object with `correct`, `attempted`, `failed` and `metrics`:

    python3 benchmark/run.py --workload decompose-sparse --seed 1 --seconds 20 --trace 0

`--workload all` runs every workload, each in a fresh process, and prints a
table.  With `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
untraced and traced rounds alternate, and the metrics are per layer.

Each workload is a closed loop: one process runs the CLI verbs in-process
through `polytoep.cli.main`, one job at a time, in whole rounds over a fixed
job list until the next round would pass `--seconds` (at least one round).
BLAS is pinned to one thread here, before numpy loads, because the thread
count moves the same job by 30-45% on a small shared machine.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("decompose-sparse", "noisy-sections", "model-rigidity")
SETUP_REPEATS = 9

END_TO_END = {"jobs_per_s": "1/s", "job_s_geomean": "s", "peak_rss_mb": "MB", "setup_s": "s"}
COUNT_METRICS = (
    "io.bytes_read",
    "operators.norm_calls",
    "operators.norm_entries",
    "operators.compress_calls",
    "modelspace.kernel_dense_calls",
    "modelspace.kernel_lanczos_calls",
)


def use_checkout() -> None:
    """Pin BLAS to one thread and import polytoep from this checkout's `src`."""
    if not (ROOT / "src" / "polytoep" / "cli.py").is_file():
        raise SystemExit(f"error: no polytoep sources under {ROOT / 'src'}; run from a full checkout")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    for path in (str(ROOT / "src"), str(BENCH)):
        if path not in sys.path:
            sys.path.insert(0, path)


@dataclass
class Record:
    job: int
    key: str
    rc: int | None
    seconds: float
    report: Path


@dataclass
class Phase:
    records: list[Record] = field(default_factory=list)
    round_seconds: list[float] = field(default_factory=list)
    wall: float = 0.0


def run_rounds(jobs, workdir: Path, seconds: float, first_round: int, tracer=None) -> Phase:
    """Whole rounds over `jobs` while the next round is expected to end within `seconds`."""
    from polytoep import cli

    phase = Phase()
    r = first_round
    t0 = time.perf_counter()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        while True:
            rt0 = time.perf_counter()
            for j, job in enumerate(jobs):
                prefix = str(workdir / f"r{r}-j{j}")
                argv = [a.replace("{out}", prefix) for a in job.argv] + ["--out", prefix + ".json"]
                key = f"r{r}-j{j}"
                if tracer is not None:
                    tracer.job = key
                jt0 = time.perf_counter()
                try:
                    rc = cli.main(argv)
                except Exception:
                    traceback.print_exc()
                    rc = None
                phase.records.append(Record(j, key, rc, time.perf_counter() - jt0, Path(prefix + ".json")))
            phase.round_seconds.append(time.perf_counter() - rt0)
            r += 1
            elapsed = time.perf_counter() - t0
            if elapsed + statistics.fmean(phase.round_seconds) > seconds:
                break
    phase.wall = time.perf_counter() - t0
    if tracer is not None:
        tracer.job = None
    return phase


def evaluate(jobs, records: list[Record]) -> tuple[int, int]:
    """(failed, wrong): crashes, exit 2 and wrong outputs; wrong outputs alone.

    Each distinct report text of a job is checked once, so repeated rounds
    that reproduce a report byte for byte cost nothing more.
    """
    failed = wrong = 0
    verdicts: dict[tuple[int, bytes], list[str]] = {}
    for rec in records:
        job = jobs[rec.job]
        if rec.rc is None or rec.rc == 2 or not rec.report.is_file():
            failed += 1
            print(f"FAILED {job.name} ({rec.key}): exit {rec.rc}", file=sys.stderr)
            continue
        if rec.rc != job.expect:
            problems = [f"exit {rec.rc}, construction predicts {job.expect}"]
        else:
            text = rec.report.read_bytes()
            if (rec.job, text) not in verdicts:
                try:
                    verdicts[rec.job, text] = job.check(json.loads(text))
                except Exception as exc:  # a malformed report fails its job
                    verdicts[rec.job, text] = [f"check raised {exc!r}"]
            problems = verdicts[rec.job, text]
        if problems:
            failed += 1
            wrong += 1
            print(f"WRONG {job.name} ({rec.key}): {'; '.join(problems)}", file=sys.stderr)
    return failed, wrong


def _median(values):
    return statistics.median(values) if values else 0.0


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False, workdir: Path | None = None) -> dict:
    import workloads

    build = workloads.WORKLOADS[name]
    own_dir = workdir is None
    if own_dir:
        workdir = BENCH / "_work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_times = []
        for _ in range(1 if tiny else SETUP_REPEATS):
            clock = workloads.Setup()
            jobs = build(workdir, seed, clock, tiny=tiny)
            setup_times.append(clock.seconds)

        # untimed warm-up: the first job of each verb fills lattice caches and
        # finishes lazy imports; its outputs are not counted
        first = {}
        for job in jobs:
            first.setdefault(job.argv[0], job)
        (workdir / "warmup").mkdir(exist_ok=True)
        run_rounds(list(first.values()), workdir / "warmup", 0.0, 0)

        if not trace:
            phase = run_rounds(jobs, workdir, seconds, 0)
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            failed, wrong = evaluate(jobs, phase.records)
            metrics = {
                "jobs_per_s": (len(phase.records) - failed) / phase.wall,
                "job_s_geomean": math.exp(statistics.fmean(math.log(rec.seconds) for rec in phase.records)),
                "peak_rss_mb": peak_mb,
                "setup_s": _median(setup_times),
            }
            units = END_TO_END
            records = phase.records
        else:
            out = BENCH / "results" if own_dir else workdir
            metrics, records = _traced(name, jobs, build, workdir, seed, seconds, tiny, out)
            failed, wrong = evaluate(jobs, records)
            units = {k: ("count" if k in COUNT_METRICS else "s") for k in metrics}
        return {
            "correct": wrong == 0,
            "attempted": len(records),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
    finally:
        if own_dir:
            shutil.rmtree(workdir, ignore_errors=True)


def _traced(name, jobs, build, workdir, seed, seconds, tiny, results: Path):
    """One traced set-up, then pairs of one untraced and one traced round.

    The order within a pair alternates, so a drift in machine speed during
    the run cancels from the overhead, traced minus untraced round time.
    """
    import tracing
    import workloads

    tracer = tracing.Tracer()
    tracer.install()
    try:
        build(workdir, seed, workloads.Setup(), tiny=tiny)
    finally:
        tracer.uninstall()
    plain, traced = [], []
    t0 = time.perf_counter()
    while True:
        pt0 = time.perf_counter()
        for with_trace in (False, True) if len(plain) % 2 == 0 else (True, False):
            r = len(plain) + len(traced)
            if not with_trace:
                plain.append(run_rounds(jobs, workdir, 0.0, r))
                continue
            tracer.install()
            try:
                traced.append(run_rounds(jobs, workdir, 0.0, r, tracer))
            finally:
                tracer.uninstall()
        pair = time.perf_counter() - pt0
        if time.perf_counter() - t0 + pair > seconds:
            break
    per_round = []
    for phase in traced:
        keys = {rec.key for rec in phase.records}
        values = tracing.layer_totals(
            [s for s in tracer.spans if s.job in keys], {rec.key: rec.seconds for rec in phase.records}
        )
        methods = [_report_field(rec.report, "method") for rec in phase.records if jobs[rec.job].argv[0] == "invariance"]
        values["modelspace.kernel_dense_calls"] = methods.count("dense-svd")
        values["modelspace.kernel_lanczos_calls"] = methods.count("lanczos")
        per_round.append(values)
    setup = tracing.layer_totals([s for s in tracer.spans if s.job is None], {})
    metrics = {k: setup.get(k, 0) + _median([v[k] for v in per_round]) for k in per_round[0]}
    metrics["trace.overhead_s"] = _median(
        [t.wall - p.wall for p, t in zip(plain, traced)]
    )
    results.mkdir(exist_ok=True)
    tracer.write(results / f"trace-{name}-seed{seed}.jsonl")
    return metrics, [rec for phase in plain + traced for rec in phase.records]


def _report_field(path: Path, key: str):
    try:
        return json.loads(path.read_text()).get(key)
    except (OSError, ValueError):
        return None


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in a fresh process, so peak RSS belongs to one workload."""
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}, no result")
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, correct {result['correct']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:34s} {m['value']:>16.6g} {m['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    use_checkout()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
