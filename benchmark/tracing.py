"""In-memory spans around the program's public functions, for per-layer metrics.

`Tracer.install()` replaces each traced function at every polytoep module
attribute that holds it (for example both `operators.operator_norm` and its
imports `analysis.operator_norm` and `modelspace.operator_norm`), so calls
from the CLI and calls between modules are all seen.  `uninstall()` restores
the originals.  A span records its name, job, start, duration, self time
(duration minus its traced children) and parent.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

# span name -> (module, function); the module is the one defining the function
TRACED = {
    "io.load_operator": ("io", "load_operator"),
    "io.load_modelspace": ("io", "load_modelspace"),
    "io.load_symbol": ("io", "load_symbol"),
    "io.save_operator": ("io", "save_operator"),
    "io.save_modelspace": ("io", "save_modelspace"),
    "io.save_symbol": ("io", "save_symbol"),
    "io.write_report": ("io", "write_report"),
    "io.write_sequence_csv": ("io", "write_sequence_csv"),
    "operators.operator_norm": ("operators", "operator_norm"),
    "operators.toeplitz": ("operators", "toeplitz"),
    "operators.compress": ("operators", "compress"),
    "analysis.asymptotic_decompose": ("analysis", "asymptotic_decompose"),
    "analysis.recover_symbol": ("analysis", "recover_symbol"),
    "analysis.toeplitz_defect": ("analysis", "toeplitz_defect"),
    "analysis.compactness_profile": ("analysis", "compactness_profile"),
    "analysis.cross_term_profile": ("analysis", "cross_term_profile"),
    "modelspace.model_basis": ("modelspace", "model_basis"),
    "modelspace.invariance_kernel": ("modelspace", "invariance_kernel"),
    "modelspace.model_compactness_test": ("modelspace", "model_compactness_test"),
}

LOADS = ("io.load_operator", "io.load_modelspace", "io.load_symbol")
WRITES = ("io.save_operator", "io.save_modelspace", "io.save_symbol", "io.write_report", "io.write_sequence_csv")


def _amount(name: str, args) -> int:
    """Work measured at the call: bytes of a loaded file, entries of a normed matrix."""
    if name in LOADS:
        return os.path.getsize(args[0])
    if name == "operators.operator_norm":
        return int(np.size(getattr(args[0], "matrix", args[0])))
    return 0


@dataclass
class Span:
    id: int
    parent: int | None
    job: str | None
    name: str
    start: float
    seconds: float
    self_seconds: float
    amount: int


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.job: str | None = None
        self._stack: list[list] = []  # [span id, traced child seconds]
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans) + len(self._stack)
            parent = self._stack[-1][0] if self._stack else None
            amount = _amount(name, args)
            frame = [sid, 0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += dt
                self.spans.append(Span(sid, parent, self.job, name, t0, dt, dt - frame[1], amount))

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "polytoep" or key.startswith("polytoep.")]
        for name, (mod, attr) in TRACED.items():
            fn = getattr(sys.modules[f"polytoep.{mod}"], attr)
            wrapper = self._wrap(name, fn)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._patched.append((module, key, fn))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, fn in reversed(self._patched):
            setattr(module, key, fn)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s.id):
                fh.write(json.dumps(s.__dict__) + "\n")


def layer_totals(spans: list[Span], job_seconds: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics over one group of spans and the wall times of its jobs."""
    total = defaultdict(float)
    calls = defaultdict(int)
    amount = defaultdict(int)
    self_s = defaultdict(float)
    top = defaultdict(float)
    for s in spans:
        total[s.name] += s.seconds
        calls[s.name] += 1
        amount[s.name] += s.amount
        self_s[s.name] += s.self_seconds
        if s.parent is None and s.job is not None:
            top[s.job] += s.seconds
    return {
        "cli.self_s": sum(t - top[job] for job, t in job_seconds.items()),
        "io.load_s": sum(total[n] for n in LOADS),
        "io.bytes_read": sum(amount[n] for n in LOADS),
        "io.write_s": sum(total[n] for n in WRITES),
        "operators.norm_calls": calls["operators.operator_norm"],
        "operators.norm_entries": amount["operators.operator_norm"],
        "operators.norm_s": total["operators.operator_norm"],
        "operators.toeplitz_s": total["operators.toeplitz"],
        "operators.compress_calls": calls["operators.compress"],
        "analysis.decompose_self_s": self_s["analysis.asymptotic_decompose"],
        "analysis.recover_s": total["analysis.recover_symbol"],
        "analysis.defect_s": total["analysis.toeplitz_defect"],
        "analysis.compactness_s": total["analysis.compactness_profile"],
        "analysis.cross_terms_s": total["analysis.cross_term_profile"],
        "modelspace.basis_s": total["modelspace.model_basis"],
        "modelspace.kernel_s": total["modelspace.invariance_kernel"],
        "modelspace.compactness_s": total["modelspace.model_compactness_test"],
    }
