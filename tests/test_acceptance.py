"""Acceptance suite.

One test per criterion, each printing a PASS line with the measured
numbers once its assertions hold.  Grids are chosen per model so the
plain-sweep iteration stays inside its stability envelope (running
diffusive terms impose a parabolic step restriction; the horizon per
family is set accordingly) and so every dense-oracle grid stays under
1500 unknowns.
"""

import time

import numpy as np
import pytest

from biload.forward import SolverConfig, solve_forward
from biload.kernels import CostTerm, Kernel, Problem, validate_partials
from biload.mesh import build_curve_mesh, build_mesh
from biload.models import (
    MODEL_NAMES,
    make_model,
    make_params,
    model_reference,
    picard_relax_hint,
)
from biload.optimize import OptimizeOptions, run_gd
from biload.state import zero_controls
from biload.verify import (
    gradient_check,
    ibp_residual,
    refinement_study,
    skew_adjoint_residual,
)
from biload.cli import main as cli_main

# per-model oracle/refinement setup: horizon, oracle grid, refinement base
# grid and level count, parameter overrides, gap-noise floor
MODEL_SETUP = {
    "volterra_exp": dict(T=1.0, oracle=8, base=8, levels=3, over={}),
    "lq_volterra": dict(T=1.0, oracle=8, base=8, levels=3, over={}),
    "heat": dict(T=5e-4, oracle=8, base=16, levels=3, over={}),
    "barenblatt": dict(T=2e-3, oracle=8, base=8, levels=3, over={"L": 1e-3}),
    "integral_cv": dict(T=5e-4, oracle=8, base=8, levels=3, over={}),
    "integral_cv_barenblatt": dict(T=2e-3, oracle=8, base=8, levels=3, over={"L": 1e-3}),
    "forest_fire_minimal": dict(T=1e-2, oracle=8, base=8, levels=3, over={}),
    "biload_demo": dict(T=1.0, oracle=8, base=16, levels=3, over={}),
}

GAP_FLOOR = 1e-4  # gaps below this are solver/probe noise; ratios carry no signal
ORDER_BAR = 0.95  # observed-order estimate for a first-order mechanism


def _cfg_maker(params):
    def make(mesh):
        return SolverConfig(
            tol=1e-12, relax=picard_relax_hint(params, mesh), max_iter=4000
        )

    return make


def test_criterion_1_forward_analytic_suite():
    t0 = time.time()
    # running exponential fixed point
    prob = make_model(make_params("volterra_exp"))
    mesh = build_mesh(1.0, 200, 0.0, 1.0, 4)
    state, rep = solve_forward(prob, mesh, zero_controls(mesh, 1, 0), SolverConfig(tol=1e-12))
    assert rep.converged
    ref = model_reference(make_params("volterra_exp"))(mesh.t, mesh.x)
    err_v = float(np.max(np.abs(state.phi[:, 1:-1, 0] - ref[:, 1:-1])))
    assert err_v <= 1e-4

    # diffusion against separation of variables, with one halving
    params = make_params("heat")
    prob = make_model(params)
    ref_fn = model_reference(params)
    errors = []
    for N in (32, 64):
        m = build_mesh(5e-4, N, 0.0, 1.0, N)
        st, rp = solve_forward(prob, m, zero_controls(m, 1, 1), SolverConfig(tol=1e-11))
        assert rp.converged
        errors.append(float(np.max(np.abs(st.phi[:, 1:-1, 0] - ref_fn(m.t, m.x)[:, 1:-1]))))
    ratio = errors[0] / errors[1]
    elapsed = time.time() - t0
    assert errors[1] <= 2e-2
    assert ratio >= 1.8
    assert elapsed <= 30.0
    print(
        f"\ncriterion 1: PASS  exp-error={err_v:.3e}  heat-error={errors[1]:.3e} "
        f"ratio={ratio:.2f}  [{elapsed:.1f}s]"
    )


def _active_blocks(problem):
    blocks = []
    for block in ("u", "w", "u0", "uT", "w0", "wT"):
        dim = problem.m_u if block in ("u", "u0", "uT") else problem.m_w
        if dim > 0:
            blocks.append(block)
    return blocks


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_criterion_2_gradient_triangle(name):
    setup = MODEL_SETUP[name]
    params = make_params(name, **setup["over"])
    problem = make_model(params)
    t0 = time.time()

    # dense oracle vs central differences, five directions per block
    N = setup["oracle"]
    mesh = build_mesh(setup["T"], N, 0.0, 1.0, N)
    controls = zero_controls(mesh, problem.m_u, problem.m_w)
    if name == "volterra_exp":
        controls.u[:] = 0.3  # decoupled gradient is zero at the origin
    cfg = _cfg_maker(params)(mesh)
    report = gradient_check(problem, mesh, controls, n_dirs=5, seed=13, cfg=cfg)
    worst_dto = max(e.err_dto for e in report.entries if e.err_dto is not None)
    assert worst_dto <= 1e-5
    # slice control blocks couple without derivative slots, so their
    # costate gradients already meet the finest-level bar here
    for e in report.entries:
        if e.block in ("u0", "uT", "w0", "wT"):
            assert e.err_adjoint <= 1e-2, (e.block, e.err_adjoint)

    # costate-gradient gap decays under refinement and ends small
    gaps = {}
    base = build_mesh(setup["T"], setup["base"], 0.0, 1.0, setup["base"])
    for block in ("u", "w"):
        dim = problem.m_u if block == "u" else problem.m_w
        if dim == 0:
            continue
        table = refinement_study(
            problem,
            base,
            setup["levels"],
            "gradient_gap",
            block=block,
            seed=5,
            cfg=_cfg_maker(params),
            costate_cfg=_cfg_maker(params),
        )
        values = table.values()
        finest = values[-1]
        assert finest <= 1e-2, (block, values)
        if finest > GAP_FLOOR:
            mean_order = float(np.mean(table.orders()))
            assert mean_order >= ORDER_BAR, (block, values, table.orders())
            gaps[block] = (finest, mean_order)
        else:
            gaps[block] = (finest, None)
    elapsed = time.time() - t0
    summary = " ".join(
        f"{b}:gap={g:.1e}" + (f",order={o:.2f}" if o else ",floor") for b, (g, o) in gaps.items()
    )
    print(f"\ncriterion 2 [{name}]: PASS  dto={worst_dto:.1e}  {summary}  [{elapsed:.1f}s]")


def test_criterion_2_total_runtime_budget():
    # the per-model checks above each run in seconds; spot-check the two
    # heaviest together stay well inside the five-minute budget
    t0 = time.time()
    for name in ("forest_fire_minimal", "biload_demo"):
        setup = MODEL_SETUP[name]
        params = make_params(name, **setup["over"])
        problem = make_model(params)
        base = build_mesh(setup["T"], setup["base"], 0.0, 1.0, setup["base"])
        refinement_study(
            problem,
            base,
            setup["levels"],
            "gradient_gap",
            block="u",
            seed=6,
            cfg=_cfg_maker(params),
            costate_cfg=_cfg_maker(params),
        )
    elapsed = time.time() - t0
    assert elapsed <= 300.0
    print(f"\ncriterion 2 [runtime]: PASS  heaviest-pair={elapsed:.1f}s")


def test_criterion_3_biload_coverage():
    # the two-way coupled model passes the full triangle: certified by the
    # parametrized criterion-2 case; re-assert the coupling is live here
    params = make_params("biload_demo")
    problem = make_model(params)
    assert {"f4", "f5", "g2", "g3"} <= set(problem.kernels)
    mesh = build_mesh(1.0, 8, 0.0, 1.0, 8)
    cfg = SolverConfig(tol=1e-12)
    ctrl = zero_controls(mesh, 1, 1)
    base, _ = solve_forward(problem, mesh, ctrl, cfg)
    cut_f4, _ = solve_forward(
        make_model(make_params("biload_demo", c4=0.0, d4=0.0)), mesh, ctrl, cfg
    )
    interior_shift = float(np.max(np.abs(base.phi[:, 1:-1] - cut_f4.phi[:, 1:-1])))
    cut_g2, _ = solve_forward(
        make_model(make_params("biload_demo", c2=0.0)), mesh, ctrl, cfg
    )
    boundary_shift = float(np.max(np.abs(base.phi_bd - cut_g2.phi_bd)))
    assert interior_shift > 1e-4
    assert boundary_shift > 1e-4
    print(
        f"\ncriterion 3: PASS  boundary->interior shift={interior_shift:.2e}  "
        f"interior->boundary shift={boundary_shift:.2e}"
    )


def test_criterion_4_integration_by_parts_suite():
    mesh = build_mesh(1.0, 8, 0.0, 1.0, 8)
    rng = np.random.default_rng(11)
    dphi = rng.standard_normal((mesh.Nt + 1, mesh.Nx + 1))
    zeros = np.zeros((mesh.Nt + 1, mesh.Nx + 1))
    r1, r2 = ibp_residual(mesh, zeros, zeros, dphi)
    assert r1 == 0.0 and r2 == 0.0

    prob = Problem(n=1, m_u=0, m_w=0, kernels={})
    table = refinement_study(prob, mesh, 3, "ibp_residual")
    orders = table.orders()
    assert all(o >= 1.0 for o in orders)
    print(
        f"\ncriterion 4: PASS  residuals={['%.2e' % v for v in table.values()]} "
        f"orders={['%.2f' % o for o in orders]}"
    )


def test_criterion_5_closed_curve_skew_pairing():
    rng = np.random.default_rng(21)
    worst = 0.0
    M = 8
    while M <= 256:
        curve = build_curve_mesh(M, 2.0 * np.pi)
        for _ in range(5):
            psi = rng.standard_normal(M)
            phi = rng.standard_normal(M)
            worst = max(worst, abs(skew_adjoint_residual(curve, psi, phi)))
        M *= 2
    assert worst <= 1e-13
    print(f"\ncriterion 5: PASS  worst residual={worst:.2e}")


def test_criterion_6_kernel_partial_validation():
    worst = 0.0
    for name in MODEL_NAMES:
        report = validate_partials(make_model(make_params(name)), probes=6, seed=17)
        assert report.passed, (name, [e for e in report.entries if not e[3]])
        worst = max(worst, report.worst())
    assert worst <= 1e-6

    # negative control: a deliberately wrong slot partial must be caught
    broken = Problem(
        n=1,
        m_u=0,
        m_w=0,
        kernels={
            "f1": Kernel(
                fn=lambda a: a.phi**2,
                partials={"phi": lambda a: 5.0 * a.phi[..., None]},
            )
        },
    )
    assert not validate_partials(broken, probes=4, seed=18).passed
    print(f"\ncriterion 6: PASS  worst partial error={worst:.2e}")


def test_criterion_7_optimization():
    # control-energy problem with control-free dynamics: huge reduction, on
    # the costate gradient (the grid's size would choose the discrete one)
    quadratic = Problem(
        n=1,
        m_u=1,
        m_w=0,
        kernels={"f0": Kernel(fn=lambda a: np.ones_like(a.phi))},
        cost_F1=CostTerm(
            fn=lambda a: (a.u**2).sum(-1), partials={"u": lambda a: 2.0 * a.u}
        ),
    )
    mesh = build_mesh(1.0, 8, 0.0, 1.0, 8)
    controls = zero_controls(mesh, 1, 0)
    rng = np.random.default_rng(23)
    controls.u[:] = rng.standard_normal(controls.u.shape)
    cfg = SolverConfig(tol=1e-12)
    _, history = run_gd(quadratic, mesh, controls, OptimizeOptions(max_outer=30), cfg, use_dto=False)
    costs = history.costs()
    reduction = costs[0] / max(costs[-1], 1e-300)
    assert len(costs) <= 31
    assert reduction >= 1e3

    # tracking problem with coupled dynamics: monotone descent, gradient
    # norm down an order of magnitude
    prob = make_model(make_params("lq_volterra"))
    _, hist = run_gd(
        prob, mesh, zero_controls(mesh, 1, 0), OptimizeOptions(max_outer=40), cfg, use_dto=False
    )
    lq_costs = hist.costs()
    assert all(a >= b - 1e-14 for a, b in zip(lq_costs, lq_costs[1:]))
    gnorms = [r[2] for r in hist.rows]
    assert gnorms[-1] <= 0.1 * gnorms[0]
    print(
        f"\ncriterion 7: PASS  quadratic reduction={reduction:.1e}  "
        f"lq gnorm ratio={gnorms[-1] / gnorms[0]:.2e}"
    )


def test_criterion_8_deterministic_outputs(tmp_path):
    cfg_text = """\
[mesh]
T_final = 1.0
Nt = 8
x_a = 0.0
x_b = 1.0
Nx = 8

[model]
name = biload_demo

[controls]
u = sin_t
w = 0.2
"""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(cfg_text, encoding="utf-8")
    digests = []
    for tag in ("first", "second"):
        out = tmp_path / tag
        assert cli_main(["solve", "--config", str(cfg), "--out", str(out), "--seed", "7"]) == 0
        code = cli_main(
            ["grad-check", "--config", str(cfg), "--out", str(out), "--seed", "7"]
        )
        assert code in (0, 1)
        blob = b"".join(
            sorted((p.name.encode() + p.read_bytes() for p in out.iterdir()))
        )
        digests.append(blob)
    assert digests[0] == digests[1]
    print("\ncriterion 8: PASS  byte-identical artifacts across repeated runs")
