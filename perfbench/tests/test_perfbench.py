"""Tests of the benchmark's own code: span arithmetic, failure accounting,
metric names, and that tracing changes neither outputs nor the package."""

import json
import re
import sys

import pytest

import biload
import spans
import worker
from spans import Span, Tracer, aggregate, layer_metrics, self_times
from workloads import ROOT, GradcheckBiload, GradientFire, OptimizeHeat, Outcome

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _span(sid, name, start, end, parent=None, info=None):
    span = Span(sid, name, start, parent, 0)
    span.end = end
    span.info = info
    return span


def test_self_time_subtracts_direct_children_only():
    tree = [
        _span(0, "a", 0.0, 10.0),
        _span(1, "b", 1.0, 4.0, parent=0),
        _span(2, "c", 2.0, 3.5, parent=1),
        _span(3, "b", 5.0, 9.0, parent=0),
        _span(4, "a", 11.0, 12.0),
    ]
    own = self_times(tree)
    assert own == pytest.approx({0: 3.0, 1: 1.5, 2: 1.5, 3: 4.0, 4: 1.0})
    agg = aggregate(tree)
    assert agg["a"]["calls"] == 2
    assert agg["a"]["s"] == pytest.approx(11.0)
    assert agg["a"]["self_s"] == pytest.approx(4.0)
    assert agg["b"]["self_s"] == pytest.approx(5.5)
    # self times add up to the root spans' wall time
    assert sum(own.values()) == pytest.approx(11.0)


def test_linesearch_counts_and_accept_ratio():
    tree = [
        _span(0, "optimize.run_gd", 0.0, 10.0, info={"accepted": 2, "outer": 3}),
        _span(1, "forward.solve_forward", 0.0, 1.0, parent=0),  # initial solve
        *(_span(2 + i, "forward.solve_forward", 1.0 + i, 2.0 + i, parent=0) for i in range(8)),
        _span(10, "forward.solve_forward", 11.0, 12.0),  # outside run_gd
    ]
    metrics = layer_metrics(tree, n_ops=1)
    assert metrics["optimize.linesearch_trials"] == 8
    assert metrics["optimize.outer"] == 3
    assert metrics["optimize.accept_ratio"] == pytest.approx(2 / 8)
    assert metrics["forward.solve_forward.calls"] == 10


def _outcome(attempted, failed):
    return Outcome(times={}, attempted=attempted, failed=failed, digest="")


def test_failed_share():
    assert worker.tally([_outcome(8, 1), _outcome(8, 1)]) == (16, 2, 0.125)
    assert worker.tally([_outcome(2, 0)]) == (2, 0, 0.0)


def test_line_search_accounting(tmp_path):
    (tmp_path / "history.csv").write_text(
        "iteration,J,gnorm,step,forward_iterations\n"
        "0,2.0,1.0,0.0,5\n1,1.5,1.0,0.5,5\n2,1.25,1.0,0.5,5\n"
    )
    heat = OptimizeHeat(0, tmp_path)
    failed = heat.read_outcome(tmp_path, 0, "optimize: status=line_search_failed J_final=1.25\n")
    assert (failed.attempted, failed.failed) == (3, 1)
    done = heat.read_outcome(tmp_path, 0, "optimize: status=max_outer J_final=1.25\n")
    assert (done.attempted, done.failed) == (2, 0)


def test_grad_check_entry_accounting(tmp_path):
    (tmp_path / "grad_check.csv").write_text(
        "block,direction,fd,adjoint,dto,err_adjoint,err_dto\n"
        "u,0,1.0,1.0,1.0,0.001,1e-09\n"
        "u,1,1.0,1.1,1.0,0.1,1e-09\n"
        "w,0,1.0,1.0,1.1,0.001,0.1\n"
    )
    outcome = GradcheckBiload(0, tmp_path).read_outcome(tmp_path, 1, "")
    assert (outcome.attempted, outcome.failed) == (3, 2)
    assert outcome.details["grad_gap_max"] == 0.1


def test_metric_names():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    names += [w["name"] for w in SPEC["workloads"]]
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert len(set(names)) == len(names)
    per_layer = set(layer_metrics([], n_ops=1)) | {"trace.overhead_s"}
    assert per_layer == {m["name"] for m in SPEC["per_layer"]}
    e2e = {"op_s", "solve_s", "gradient_s", "setup_s", "peak_rss_mb"}
    assert e2e == {m["name"] for m in SPEC["end_to_end"]}


def _attributes():
    return {
        (key, attr): value
        for key, module in list(sys.modules.items())
        if key == "biload" or key.startswith("biload.")
        for attr, value in vars(module).items()
    }


HEAT_SMALL = """\
[mesh]
T_final = 0.02
Nt = 8
x_a = 0.0
x_b = 1.0
Nx = 8

[model]
name = heat
K = 1.0
alpha = 0.1
gamma_w = 0.1

[solver]
tol = 1e-10
relax = auto

[optimize]
max_outer = 2
"""

BILOAD_SMALL = """\
[mesh]
T_final = 1.0
Nt = 4
x_a = 0.0
x_b = 1.0
Nx = 4

[model]
name = biload_demo
"""


def _small(name, tmp_path):
    if name == "gradient_fire":
        return GradientFire(3, tmp_path, N=8)
    text, cls = (HEAT_SMALL, OptimizeHeat) if name == "optimize_heat" else (
        BILOAD_SMALL, GradcheckBiload)
    config = tmp_path / "small.cfg"
    config.write_text(text)
    return cls(3, tmp_path, config=config)


@pytest.mark.parametrize("name", ["optimize_heat", "gradcheck_biload", "gradient_fire"])
def test_tracing_keeps_outputs_and_restores_attributes(name, tmp_path):
    workload = _small(name, tmp_path)
    workload.setup()
    before = _attributes()
    plain = workload.run_once(0)
    tracer = Tracer()
    traced = workload.run_once(1, tracer)
    assert _attributes() == before
    assert traced.digest == plain.digest
    assert (traced.attempted, traced.failed) == (plain.attempted, plain.failed)
    assert workload.check([plain, traced]) == []
    names = {s.name for s in tracer.spans}
    assert "forward.solve_forward" in names and "state.derive_slots" in names
    assert all(s.end >= s.start for s in tracer.spans)


def test_tracer_wraps_every_binding_and_unwraps():
    original = biload.forward.solve_forward
    with Tracer():
        assert biload.forward.solve_forward is not original
        assert biload.verify.solve_forward is biload.forward.solve_forward
        assert biload.solve_forward is biload.forward.solve_forward
    assert biload.forward.solve_forward is original
    assert biload.verify.solve_forward is original
    assert biload.solve_forward is original


def test_traced_functions_exist():
    for layer, func in spans.TRACED:
        assert callable(getattr(sys.modules[f"biload.{layer}"], func))


def test_speed_probe_restores_signal_state_and_scales():
    import signal

    import speed

    previous = signal.getsignal(signal.SIGALRM)
    result, scaled, wall = speed.timed(sum, range(10**6))
    assert result == sum(range(10**6))
    assert scaled > 0 and wall > 0
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    with speed.SpeedProbe() as probe:
        pass
    assert len(probe.samples) == 1  # shorter than one period: one sample at exit
