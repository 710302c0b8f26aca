import numpy as np
import pytest

from biload.errors import ConfigError
from biload.forward import SolverConfig, solve_forward, eval_cost
from biload.kernels import CostTerm, Kernel, Problem
from biload.mesh import build_mesh
from biload.models import make_model, make_params
from biload.optimize import OptimizeOptions, project, run_gd
from biload.state import derive_slots, zero_controls

MESH = build_mesh(1.0, 8, 0.0, 1.0, 8)
TIGHT = SolverConfig(tol=1e-12)


def _quadratic_problem(bounds=None):
    """Control-free dynamics with pure control energy: minimum J* = 0."""
    return Problem(
        n=1,
        m_u=1,
        m_w=0,
        kernels={"f0": Kernel(fn=lambda a: np.ones_like(a.phi))},
        cost_F1=CostTerm(
            fn=lambda a: (a.u**2).sum(-1), partials={"u": lambda a: 2.0 * a.u}
        ),
        bounds=bounds,
    )


def test_quadratic_reduces_cost_by_three_orders():
    prob = _quadratic_problem()
    rng = np.random.default_rng(0)
    controls = zero_controls(MESH, 1, 0)
    controls.u[:] = rng.standard_normal(controls.u.shape)
    best, history = run_gd(
        prob, MESH, controls, OptimizeOptions(max_outer=30), TIGHT
    )
    costs = history.costs()
    assert len(costs) <= 31
    assert costs[0] / max(costs[-1], 1e-300) >= 1e3
    assert np.max(np.abs(best.u)) < np.max(np.abs(controls.u))


def test_zero_cost_terminates_immediately():
    prob = Problem(
        n=1,
        m_u=1,
        m_w=0,
        kernels={"f0": Kernel(fn=lambda a: np.ones_like(a.phi))},
    )
    controls = zero_controls(MESH, 1, 0)
    controls.u[:] = 2.0
    best, history = run_gd(prob, MESH, controls, OptimizeOptions(), TIGHT)
    assert history.status == "stationary"
    assert len(history.rows) == 1
    np.testing.assert_allclose(best.u, 2.0)


def test_lq_tracking_descends_monotonically():
    prob = make_model(make_params("lq_volterra"))
    controls = zero_controls(MESH, 1, 0)
    best, history = run_gd(
        prob, MESH, controls, OptimizeOptions(max_outer=25), TIGHT
    )
    costs = history.costs()
    assert all(a >= b - 1e-14 for a, b in zip(costs, costs[1:]))
    gnorms = [r[2] for r in history.rows]
    assert gnorms[-1] <= 0.1 * gnorms[0]


def test_accepted_steps_satisfy_sufficient_decrease():
    prob = make_model(make_params("lq_volterra"))
    controls = zero_controls(MESH, 1, 0)
    opts = OptimizeOptions(max_outer=10)
    _, history = run_gd(prob, MESH, controls, opts, TIGHT)
    rows = history.rows
    for prev, row in zip(rows, rows[1:]):
        _, J_prev, gnorm_prev, _, _ = prev
        _, J_new, _, step, _ = row
        assert J_new <= J_prev - opts.armijo_c * step * gnorm_prev**2 + 1e-12


def test_project_identity_without_bounds():
    controls = zero_controls(MESH, 1, 1)
    controls.u[:] = 5.0
    out = project(controls, None)
    np.testing.assert_allclose(out.u, 5.0)


def test_project_clamps_and_validates():
    controls = zero_controls(MESH, 1, 1)
    controls.u[:] = 5.0
    controls.w[:] = -2.0
    out = project(controls, {"u": (0.0, 1.0), "w": (-1.0, 1.0)})
    np.testing.assert_allclose(out.u, 1.0)
    np.testing.assert_allclose(out.w, -1.0)
    inside = zero_controls(MESH, 1, 1)
    inside.u[:] = 0.5
    np.testing.assert_allclose(project(inside, {"u": (0.0, 1.0)}).u, 0.5)
    with pytest.raises(ConfigError):
        project(controls, {"u": (1.0, 0.0)})
    with pytest.raises(ConfigError):
        project(controls, {"v": (0.0, 1.0)})


def test_bounded_descent_stays_feasible():
    bounds = {"u": (-0.1, 0.1)}
    prob = _quadratic_problem(bounds=bounds)
    controls = zero_controls(MESH, 1, 0)
    controls.u[:] = 0.09
    best, history = run_gd(prob, MESH, controls, OptimizeOptions(max_outer=10), TIGHT)
    assert np.all(best.u >= -0.1 - 1e-15)
    assert np.all(best.u <= 0.1 + 1e-15)


def test_descent_from_nonstationary_point_improves():
    prob = make_model(make_params("lq_volterra"))
    controls = zero_controls(MESH, 1, 0)
    state, _ = solve_forward(prob, MESH, controls, TIGHT)
    slots = derive_slots(MESH, state)
    J0 = eval_cost(prob, MESH, state, slots, controls)
    _, history = run_gd(prob, MESH, controls, OptimizeOptions(max_outer=1), TIGHT)
    assert history.costs()[-1] < J0


def test_diffusion_descends_through_both_control_channels():
    # with an order-dx costate gradient the line search eventually stalls
    # near stationarity; until then descent is monotone and both the
    # distributed and boundary channels engage
    prob = make_model(make_params("heat", alpha=0.05, gamma_w=0.05))
    mesh = build_mesh(0.02, 8, 0.0, 1.0, 8)
    controls = zero_controls(mesh, 1, 1)
    best, history = run_gd(
        prob, mesh, controls, OptimizeOptions(max_outer=20, step0=2.0), TIGHT
    )
    costs = history.costs()
    assert all(a >= b - 1e-14 for a, b in zip(costs, costs[1:]))
    assert costs[-1] <= 0.99 * costs[0]
    assert history.status in ("line_search_failed", "max_outer", "stationary")
    assert np.max(np.abs(best.u)) > 1e-6
    assert np.max(np.abs(best.w)) > 1e-6


def test_options_validation():
    with pytest.raises(ConfigError):
        OptimizeOptions(armijo_c=0.0)
    with pytest.raises(ConfigError):
        OptimizeOptions(backtrack=1.0)
    with pytest.raises(ConfigError):
        OptimizeOptions(step0=-1.0)
    # a NaN or infinite first step, a NaN, infinite or negative gtol and a
    # negative max_outer are refused too, before any solve
    bad = [{"step0": v} for v in (np.nan, np.inf)]
    bad += [{"gtol": v} for v in (np.nan, np.inf, -1e-8)]
    bad += [{"max_outer": -3}]
    for kwargs in bad:
        with pytest.raises(ConfigError, match=next(iter(kwargs))):
            OptimizeOptions(**kwargs)
