"""The Armijo ladder solved in doubling chunks against the sequential search.

`sequential_gd` below is the oracle of `optimize.run_gd`: the loop that
solves one trial step at a time, `step *= backtrack` from the first trial
down to STEP_FLOOR.  On the costate gradient each trial is a cold
`solve_forward` and the first trial is step0.  On the discrete gradient
each trial is a `fixed_point` from `optimize.predicted_start`, and the
first trial is the Barzilai-Borwein step <s,s>/<s,y> after the first
search, s the change in controls (so projected) and y the change in
gradient.  It only adds the count of trials per search and a record of
what became of each trial.  `run_gd` must agree with it bit for bit:
history rows, status, best controls, and the error raised, because the
benchmark's failure counts follow the floating-point bits.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from biload import cli, forward, models
from biload.adjoint import (
    block_pairing,
    control_gradient,
    gradient_norm2,
    partial_cache,
    solve_costate,
)
from biload.errors import DivergenceError, KernelEvalError
from biload.forward import SolverConfig, eval_cost, fixed_point, solve_forward, sweep_map
from biload.kernels import CostTerm, Kernel, Problem
from biload.mesh import build_mesh
from biload.optimize import (
    EXACT_GRADIENT_CAP,
    STEP_FLOOR,
    OptimizeHistory,
    OptimizeOptions,
    _descend,
    discrete_gradient,
    predicted_start,
    project,
    run_gd,
)
from biload.state import CONTROL_BLOCKS, derive_slots, zero_controls
from biload.verify import state_unknowns
from test_optimize import _quadratic_problem

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
MESH = build_mesh(1.0, 6, 0.0, 1.0, 6)


def sequential_gd(problem, mesh, controls0, opts=None, solver_cfg=None, use_dto=None):
    """run_gd as it was with one forward solve per trial step; returns (best
    controls, history, outcomes), outcomes listing per trial solved one of
    "diverged", "max_iter", "rejected" or "accepted"."""
    opts = opts or OptimizeOptions()
    solver_cfg = solver_cfg or SolverConfig()
    if use_dto is None:
        use_dto = state_unknowns(problem, mesh) <= EXACT_GRADIENT_CAP
    bounds = problem.bounds
    outcomes = []

    controls = project(controls0.copy(), bounds)
    state, rep = solve_forward(problem, mesh, controls, solver_cfg)
    if not rep.converged:
        raise DivergenceError("forward solve did not converge at the initial controls")
    slots = derive_slots(mesh, state)
    J = eval_cost(problem, mesh, state, slots, controls)

    history = OptimizeHistory()
    best_controls, best_J = controls.copy(), J

    def fresh_gradient():
        """The gradient and, on the discrete path, its linearization."""
        if use_dto:
            return discrete_gradient(problem, mesh, state, controls)
        cache = partial_cache(problem, mesh, (state, slots, controls))
        costate, crep = solve_costate(
            problem, mesh, state, slots, controls, solver_cfg, cache
        )
        if not crep.converged:
            raise DivergenceError("costate solve did not converge")
        return control_gradient(problem, mesh, state, slots, controls, costate, cache), None

    def trial_solve(trial):
        if dto is None:
            return solve_forward(problem, mesh, trial, solver_cfg)
        return fixed_point(lambda s: sweep_map(problem, mesh, s, trial),
                           predicted_start(dto, state, controls, trial), solver_cfg)

    grad, dto = fresh_gradient()
    gnorm2 = gradient_norm2(mesh, grad)
    gnorm = float(np.sqrt(gnorm2))
    history.rows.append((0, J, gnorm, 0.0, rep.iterations))

    first = opts.step0
    for outer in range(1, opts.max_outer + 1):
        if gnorm <= opts.gtol:
            history.status = "stationary"
            break

        step = first
        accepted = False
        trials = 0
        while step >= STEP_FLOOR:
            trials += 1
            trial = project(_descend(controls, grad, step), bounds)
            try:
                tstate, trep = trial_solve(trial)
            except DivergenceError:
                outcomes.append("diverged")
                step *= opts.backtrack
                continue
            if not trep.converged:
                outcomes.append("max_iter")
                step *= opts.backtrack
                continue
            tslots = derive_slots(mesh, tstate)
            tJ = eval_cost(problem, mesh, tstate, tslots, trial)
            if tJ <= J - opts.armijo_c * step * gnorm2:
                outcomes.append("accepted")
                accepted = True
                break
            outcomes.append("rejected")
            step *= opts.backtrack
        history.trials.append(trials)
        if not accepted:
            history.status = "line_search_failed"
            break

        prev, prev_grad = controls, grad
        controls, state, slots, J, rep = trial, tstate, tslots, tJ, trep
        if J < best_J:
            best_controls, best_J = controls.copy(), J
        grad, dto = fresh_gradient()
        gnorm2 = gradient_norm2(mesh, grad)
        gnorm = float(np.sqrt(gnorm2))
        history.rows.append((outer, J, gnorm, step, rep.iterations))
        if use_dto:
            ss = sy = 0.0
            for block in CONTROL_BLOCKS:
                s = getattr(controls, block) - getattr(prev, block)
                if s.size:
                    y = grad.block(block) - prev_grad.block(block)
                    ss += block_pairing(mesh, block, s, s)
                    sy += block_pairing(mesh, block, s, y)
            first = ss / sy if sy > 0 else opts.step0
    else:
        history.status = "max_outer"
    return best_controls, history, outcomes


def _assert_same(new, old):
    (best_new, h_new), (best_old, h_old, _) = new, old
    assert repr(h_new.rows) == repr(h_old.rows)
    assert h_new.status == h_old.status
    assert h_new.trials == h_old.trials
    assert len(h_new.members) == len(h_new.sweeps) == len(h_new.trials)
    assert all(m >= t for m, t in zip(h_new.members, h_new.trials))
    for a, b in zip(best_new.blocks(), best_old.blocks()):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def _both(problem, mesh, controls, opts, cfg, use_dto=None):
    args = problem, mesh, controls, opts, cfg, use_dto
    return run_gd(*args), sequential_gd(*args)


def _config(name):
    spec = cli.parse_config((CONFIGS / f"{name}.cfg").read_text(encoding="utf-8"))
    mesh = build_mesh(**spec.mesh)
    problem = models.make_model(spec.model)
    controls = cli.build_controls(spec, mesh, problem)
    return problem, mesh, controls, spec.optimize, cli._solver_cfg(spec, mesh)


@pytest.fixture(scope="module")
def heat():
    return _config("heat")


@pytest.mark.parametrize("name, trials", [("heat", 235), ("biload", 277)])
def test_shipped_configs_match_the_sequential_search(name, trials):
    # the costate path, where a search may end on the step floor
    new, old = _both(*_config(name), use_dto=False)
    _assert_same(new, old)
    assert new[1].status == "line_search_failed"
    assert sum(new[1].trials) == trials
    assert sum(new[1].members) > trials  # multi-member chunks ran


@pytest.mark.parametrize(
    "name, status, steps, trials, members",
    [("heat", "stationary", 8, 8, 8), ("biload", "max_outer", 25, 33, 35)],
)
def test_shipped_configs_by_default_match_the_sequential_search(
    name, status, steps, trials, members
):
    new, old = _both(*_config(name))
    _assert_same(new, old)
    history = new[1]
    assert history.status == status and len(history.rows) == steps + 1
    assert sum(history.trials) == trials and sum(history.members) == members
    costs = history.costs()
    assert all(b < a for a, b in zip(costs, costs[1:]))  # J falls at every row


@pytest.mark.parametrize("name, most", [("heat", 15), ("biload", 60)])
def test_predicted_starts_leave_about_a_sweep_per_member(name, most):
    # the forward sweeps of a run: its start solve, then every member of
    # every line search; 135 and 539 when each member started from zero
    _, history = run_gd(*_config(name))
    assert history.rows[0][4] + sum(history.sweeps) <= most
    if name == "heat":
        assert history.sweeps == [1] * 8
        assert [row[4] for row in history.rows[1:]] == [1] * 8


def test_clipped_trials_start_at_the_prediction_along_the_projected_change(heat):
    # u >= -0.1 clips the heat descent: the start of a clipped trial is one
    # sweep from its fixed point only along the projected change
    problem, mesh, controls, opts, cfg = heat
    problem = dataclasses.replace(problem, bounds={"u": (-0.1, 1.0)})
    new, old = _both(problem, mesh, controls, opts, cfg)
    _assert_same(new, old)
    assert np.min(new[0].u) == -0.1
    assert [row[4] for row in new[1].rows[1:]] == [1] * 8


def test_bounded_descent_takes_the_projected_change_as_s():
    # J = |u|^2 over u >= 0.05 on the left half: the first step clips the
    # left half at its bound, so the projected change differs from -step g;
    # the exact discrete gradient by default on this grid
    mesh = build_mesh(1.0, 8, 0.0, 1.0, 8)
    lo = np.where(mesh.x < 0.5, 0.05, -1.0)[None, :, None]
    problem = _quadratic_problem(bounds={"u": (lo, 1.0)})
    controls = zero_controls(mesh, 1, 0)
    controls.u[:] = np.random.default_rng(3).uniform(0.05, 1.0, controls.u.shape)
    opts = OptimizeOptions(max_outer=5)
    new, old = _both(problem, mesh, controls, opts, SolverConfig(tol=1e-12))
    _assert_same(new, old)
    history = new[1]
    assert [row[3] for row in history.rows[1:3]] == [1.0, 0.5]  # step0, then BB
    assert history.status == "line_search_failed"  # the left half sits on its bound


def test_cli_prints_the_ladder_after_the_status(tmp_path, capsys):
    rc = cli.main(["optimize", "--config", str(CONFIGS / "heat.cfg"),
                   "--out", str(tmp_path)])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2] == "optimize: status=stationary J_final=0.00809204758583893"
    assert lines[-1] == "optimize: trials=8 members=8 sweeps=8"


@pytest.mark.parametrize(
    "opts, status",
    [
        (OptimizeOptions(max_outer=8), "max_outer"),
        (OptimizeOptions(max_outer=3, backtrack=0.7), "max_outer"),
        (OptimizeOptions(max_outer=25, backtrack=0.3, step0=3.0), "line_search_failed"),
    ],
)
def test_biload_demo_at_6x6(opts, status):
    # the costate path, where the third set of options ends on the step floor
    problem = models.make_model(models.make_params("biload_demo"))
    controls = zero_controls(MESH, problem.m_u, problem.m_w)
    new, old = _both(problem, MESH, controls, opts, SolverConfig(tol=1e-10), use_dto=False)
    _assert_same(new, old)
    assert new[1].status == status


def test_large_steps_that_diverge_are_skipped(heat):
    problem, mesh, controls, opts, cfg = heat
    opts = dataclasses.replace(opts, step0=3e4, max_outer=3)
    cfg = dataclasses.replace(cfg, divergence_guard=10.0)
    new, old = _both(problem, mesh, controls, opts, cfg)
    _assert_same(new, old)
    outcomes = old[2]
    assert outcomes[:outcomes.index("accepted")].count("diverged") > 2  # some amid a chunk
    assert len(new[1].rows) > 1


def test_trials_that_stop_at_max_iter_are_rejected():
    # forest fire is nonlinear in its controls: from their predicted starts
    # the first trials of step0 = 1e4 need more sweeps than the start solve's 31
    params = models.make_params("forest_fire_minimal")
    problem = models.make_model(params)
    controls = zero_controls(MESH, problem.m_u, problem.m_w)
    opts = OptimizeOptions(max_outer=4, step0=1e4)
    cfg = SolverConfig(tol=1e-10, relax=models.picard_relax_hint(params, MESH), max_iter=31)
    new, old = _both(problem, MESH, controls, opts, cfg)
    _assert_same(new, old)
    assert "max_iter" in old[2]


def test_step0_below_the_floor_gives_an_empty_ladder(heat):
    problem, mesh, controls, opts, cfg = heat
    new, old = _both(problem, mesh, controls, dataclasses.replace(opts, step0=STEP_FLOOR / 2), cfg)
    _assert_same(new, old)
    assert new[1].status == "line_search_failed"
    assert new[1].trials == [0] and new[1].members == [0] and len(new[1].rows) == 1


def _nan_problem(lo, hi):
    """u' = 0 dynamics and cost |u|^2 from u = 1: step 1 gives u = -1 (no
    decrease), step 0.5 gives u = 0 (accepted, then stationary), step 0.25
    gives u = 0.5.  The kernel is NaN wherever lo < u < hi."""
    def f0(a):
        return np.where((a.u > lo) & (a.u < hi), np.nan, 1.0) + 0.0 * a.phi

    problem = Problem(
        n=1, m_u=1, m_w=0,
        kernels={"f0": Kernel(fn=f0, partials={"u": lambda a: 0.0})},
        cost_F1=CostTerm(fn=lambda a: (a.u**2).sum(-1), partials={"u": lambda a: 2.0 * a.u}),
    )
    controls = zero_controls(MESH, 1, 0)
    controls.u[:] = 1.0
    return problem, controls


def test_nan_beyond_the_accepted_member_is_never_seen(monkeypatch):
    problem, controls = _nan_problem(0.4, 0.6)  # the member at step 0.25
    opts, cfg = OptimizeOptions(), SolverConfig(tol=1e-12)
    rows = []  # the members each forward fixed_point starts

    def counted(sweep, x0, *args, **kwargs):
        rows.append(len(x0.flat) if x0.flat is not None and x0.flat.ndim == 2 else 1)
        return fixed_point(sweep, x0, *args, **kwargs)

    monkeypatch.setattr(forward, "fixed_point", counted)
    new = run_gd(problem, MESH, controls, opts, cfg)
    monkeypatch.undo()
    _assert_same(new, sequential_gd(problem, MESH, controls, opts, cfg))
    assert new[1].status == "stationary"
    assert new[1].trials == [2] and new[1].members == [3]  # chunks [1], [0.5, 0.25]
    # the initial solve, then each member of the line search once
    assert rows == [1, 1, 2] and sum(rows[1:]) == sum(new[1].members)
    controls.u[:] = 0.5  # the member at step 0.25 does raise on its own
    with pytest.raises(KernelEvalError):
        solve_forward(problem, MESH, controls, cfg)


def test_nan_before_the_accepted_member_raises_the_sequential_error():
    problem, controls = _nan_problem(-1.5, -0.5)  # the member at step 1
    opts, cfg = OptimizeOptions(step0=2.0), SolverConfig(tol=1e-12)  # chunks [2], [1, 0.5]
    with pytest.raises(KernelEvalError) as old:
        sequential_gd(problem, MESH, controls, opts, cfg)
    with pytest.raises(KernelEvalError) as new:
        run_gd(problem, MESH, controls, opts, cfg)
    assert str(new.value) == str(old.value)
    assert str(old.value).startswith("kernel f0")
