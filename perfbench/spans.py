"""In-memory span tracing of calls into biload's public functions.

The tracer times each call by replacing module attributes from outside the
package: every module of ``biload`` that binds a traced function under any
name gets a wrapper, and ``remove`` puts the original objects back.  Nothing
under ``src/`` changes.  Spans stay in memory until the run ends.

A span is (name, start, end, parent, run id) plus a few counts read from the
call's arguments or result at the same boundary (sweeps of a solve, size of a
contracted operand).  A layer's self time is its span's duration minus the
durations of its direct children; calls are single-threaded and nested, so
children never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

#: (module, function) pairs that get a span, keyed by the module's layer name.
TRACED = (
    ("cli", "main"),
    ("optimize", "run_gd"),
    ("verify", "fd_directional"),
    ("verify", "dto_solve"),
    ("forward", "solve_forward"),
    ("forward", "sweep_map"),
    ("adjoint", "solve_costate"),
    ("adjoint", "partial_cache"),
    ("adjoint", "assemble_h_partials"),
    ("adjoint", "control_gradient"),
    ("state", "derive_slots"),
    ("kernels", "eval_kernel"),
    ("kernels", "forward_contract"),
    ("kernels", "transpose_contract"),
)


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "run", "info")

    def __init__(self, sid, name, start, parent, run):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.run = run
        self.info = None

    def as_dict(self) -> dict:
        out = {
            "id": self.sid,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "run": self.run,
        }
        if self.info:
            out.update(self.info)
        return out


def _solve_info(args, result, error):
    if error is not None:
        return {"failed": 1}
    _, report = result
    return {"sweeps": report.iterations, "failed": int(not report.converged)}


def _contract_info(operand_index):
    def info(args, result, error):
        if error is not None:
            return None
        operand = args[operand_index]
        moved = sum(a.nbytes for a in args if hasattr(a, "nbytes"))
        return {"elements": operand.size, "bytes": moved + result.nbytes}

    return info


def _run_gd_info(args, result, error):
    if error is not None:
        return None
    _, history = result
    accepted = len(history.rows) - 1
    failed = int(history.status == "line_search_failed")
    return {"accepted": accepted, "outer": accepted + failed}


_INFO = {
    "forward.solve_forward": _solve_info,
    "adjoint.solve_costate": _solve_info,
    "kernels.forward_contract": _contract_info(2),  # (mesh, kid, F)
    "kernels.transpose_contract": _contract_info(3),  # (mesh, kid, lam, P)
    "optimize.run_gd": _run_gd_info,
}


class Tracer:
    """Records spans for the functions in ``TRACED`` while installed.

    Use as a context manager; ``run`` tags the spans of one operation.
    """

    def __init__(self):
        self.spans: list = []
        self.run = 0
        self._stack: list = []
        self._patches: list = []

    def _wrap(self, name, fn):
        info = _INFO.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(len(spans), name, 0.0, stack[-1].sid if stack else None, self.run)
            spans.append(span)
            stack.append(span)
            result = error = None
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                span.end = clock()
                stack.pop()
                if info is not None:
                    span.info = info(args, result, error)

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "biload" or key.startswith("biload."))]
        for layer, func in TRACED:
            original = getattr(sys.modules[f"biload.{layer}"], func)
            wrapper = self._wrap(f"{layer}.{func}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def remove(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    def dump(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")


def self_times(spans) -> dict:
    """Span id -> duration minus the summed durations of its direct children."""
    out = {s.sid: s.end - s.start for s in spans}
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


def aggregate(spans) -> dict:
    """Per span name: calls, inclusive seconds ``s``, ``self_s``, and the sum
    of every info count."""
    own = self_times(spans)
    out: dict = defaultdict(lambda: defaultdict(float))
    for s in spans:
        row = out[s.name]
        row["calls"] += 1
        row["s"] += s.end - s.start
        row["self_s"] += own[s.sid]
        for key, value in (s.info or {}).items():
            row[key] += value
    return {name: dict(row) for name, row in out.items()}


def linesearch_trials(spans) -> int:
    """Forward solves made by run_gd after its initial solve."""
    gd = {s.sid for s in spans if s.name == "optimize.run_gd"}
    solves = sum(1 for s in spans if s.name == "forward.solve_forward" and s.parent in gd)
    return solves - len(gd)


def layer_metrics(spans, n_ops: int) -> dict:
    """The per-layer metrics of one traced run, as values per operation.

    Every metric is present; a layer the workload does not reach reads 0.
    """
    agg = aggregate(spans)

    def get(name, key):
        return agg.get(name, {}).get(key, 0.0) / n_ops

    trials = linesearch_trials(spans) / n_ops
    accepted = get("optimize.run_gd", "accepted")
    return {
        "state.derive_slots.calls": get("state.derive_slots", "calls"),
        "state.derive_slots.s": get("state.derive_slots", "s"),
        "kernels.eval_kernel.calls": get("kernels.eval_kernel", "calls"),
        "kernels.eval_kernel.s": get("kernels.eval_kernel", "s"),
        "kernels.forward_contract.s": get("kernels.forward_contract", "s"),
        "kernels.forward_contract.elements": get("kernels.forward_contract", "elements"),
        "kernels.forward_contract.bytes": get("kernels.forward_contract", "bytes"),
        "kernels.transpose_contract.s": get("kernels.transpose_contract", "s"),
        "kernels.transpose_contract.elements": get("kernels.transpose_contract", "elements"),
        "kernels.transpose_contract.bytes": get("kernels.transpose_contract", "bytes"),
        "forward.solve_forward.calls": get("forward.solve_forward", "calls"),
        "forward.solve_forward.sweeps": get("forward.solve_forward", "sweeps"),
        "forward.solve_forward.failed": get("forward.solve_forward", "failed"),
        "forward.sweep_map.self_s": get("forward.sweep_map", "self_s"),
        "adjoint.solve_costate.calls": get("adjoint.solve_costate", "calls"),
        "adjoint.solve_costate.sweeps": get("adjoint.solve_costate", "sweeps"),
        "adjoint.solve_costate.failed": get("adjoint.solve_costate", "failed"),
        "adjoint.assemble_h_partials.self_s": get("adjoint.assemble_h_partials", "self_s"),
        "adjoint.partial_cache.s": get("adjoint.partial_cache", "s"),
        "adjoint.control_gradient.s": get("adjoint.control_gradient", "s"),
        "verify.fd_directional.calls": get("verify.fd_directional", "calls"),
        "verify.fd_directional.s": get("verify.fd_directional", "s"),
        "verify.dto_solve.self_s": get("verify.dto_solve", "self_s"),
        "optimize.outer": get("optimize.run_gd", "outer"),
        "optimize.linesearch_trials": trials,
        "optimize.accept_ratio": accepted / trials if trials else 0.0,
        "optimize.run_gd.self_s": get("optimize.run_gd", "self_s"),
        "cli.self_s": get("cli.main", "self_s"),
    }
