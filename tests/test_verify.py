import numpy as np
import pytest

from biload.errors import ConfigError
from biload.forward import SolverConfig, sweep_map
from biload.kernels import CostTerm, Kernel, Problem, slot_tables
from biload.mesh import build_curve_mesh, build_mesh
from biload.models import make_model, make_params, model_reference, picard_relax_hint
from biload.state import derive_slots, pack, zero_controls
from biload.verify import (
    dto_solve,
    fd_directional,
    gradient_check,
    ibp_residual,
    refinement_study,
    skew_adjoint_residual,
    smooth_direction,
)

MESH = build_mesh(1.0, 8, 0.0, 1.0, 8)
TIGHT = SolverConfig(tol=1e-12)


def _control_cost_problem():
    """Dynamics free of controls; cost is the plain control energy."""
    return Problem(
        n=1,
        m_u=1,
        m_w=0,
        kernels={"f0": Kernel(fn=lambda a: np.ones_like(a.phi))},
        cost_F1=CostTerm(
            fn=lambda a: (a.u**2).sum(-1), partials={"u": lambda a: 2.0 * a.u}
        ),
    )


def test_fd_directional_zero_for_uncoupled_block():
    prob = _control_cost_problem()
    ctrl = zero_controls(MESH, 1, 0)
    ctrl.u[:] = 0.4
    rng = np.random.default_rng(0)
    direction = smooth_direction(MESH, "u0", 1, rng)
    assert abs(fd_directional(prob, MESH, ctrl, "u0", direction)) <= 1e-10


def test_fd_directional_exact_on_quadratic():
    prob = _control_cost_problem()
    ctrl = zero_controls(MESH, 1, 0)
    ctrl.u[:] = 0.7
    from biload.adjoint import block_pairing

    value = fd_directional(prob, MESH, ctrl, "u", ctrl.u.copy())
    expected = 2.0 * block_pairing(MESH, "u", ctrl.u, ctrl.u)
    assert abs(value - expected) <= 1e-9


def test_fd_directional_validates_inputs():
    prob = _control_cost_problem()
    ctrl = zero_controls(MESH, 1, 0)
    with pytest.raises(ConfigError):
        fd_directional(prob, MESH, ctrl, "u", ctrl.u.copy(), eps=0.0)
    with pytest.raises(ConfigError):
        fd_directional(prob, MESH, ctrl, "u", np.zeros(3))


def test_dto_gradient_decoupled_control_energy():
    prob = _control_cost_problem()
    ctrl = zero_controls(MESH, 1, 0)
    ctrl.u[:] = 0.9
    grad = dto_solve(prob, MESH, ctrl).grad
    expected = 2.0 * ctrl.u * MESH.wt[:, None, None] * MESH.wx[None, :, None]
    np.testing.assert_allclose(grad.g_u, expected, atol=1e-10)


@pytest.mark.parametrize("name", ["volterra_exp", "lq_volterra", "biload_demo"])
def test_dto_matches_fd(name):
    prob = make_model(make_params(name))
    ctrl = zero_controls(MESH, prob.m_u, prob.m_w)
    if name == "volterra_exp":
        ctrl.u[:] = 0.3  # make the decoupled gradient nonzero
    grad = dto_solve(prob, MESH, ctrl).grad
    rng = np.random.default_rng(1)
    for block in ("u", "w"):
        dim = prob.m_u if block == "u" else prob.m_w
        if dim == 0:
            continue
        direction = smooth_direction(MESH, block, dim, rng)
        fd = fd_directional(prob, MESH, ctrl, block, direction)
        dto = float(np.sum(grad.block(block) * direction))
        tol = 1e-6 if name == "volterra_exp" else 1e-5
        assert abs(dto - fd) <= tol * max(abs(fd), abs(dto), 1e-9)


def test_dto_size_cap():
    prob = make_model(make_params("lq_volterra"))
    mesh = build_mesh(1.0, 40, 0.0, 1.0, 40)
    with pytest.raises(ConfigError, match="limited to 1500 unknowns, grid has 1849"):
        dto_solve(prob, mesh, zero_controls(mesh, 1, 0))


def test_linearized_sweep_matches_fd_of_sweep_map():
    # nonlinear kernels: directional derivative of the sweep by central FD
    from biload.adjoint import partial_cache
    from biload.state import StateBundle
    from biload.verify import _linearized_sweep

    prob = make_model(make_params("forest_fire_minimal"))
    mesh = build_mesh(0.02, 5, 0.0, 1.0, 5)
    rng = np.random.default_rng(5)
    nt, nx = mesh.Nt + 1, mesh.Nx + 1
    state = StateBundle(
        phi=0.3 * rng.standard_normal((nt, nx, 1)),
        phi_bd=0.3 * rng.standard_normal((nt, 2, 1)),
        phi0=0.3 * rng.standard_normal((nx, 1)),
        phiT=0.3 * rng.standard_normal((nx, 1)),
        phi0_bd=0.3 * rng.standard_normal((2, 1)),
        phiT_bd=0.3 * rng.standard_normal((2, 1)),
    )
    dstate = StateBundle(
        phi=rng.standard_normal((nt, nx, 1)),
        phi_bd=rng.standard_normal((nt, 2, 1)),
        phi0=rng.standard_normal((nx, 1)),
        phiT=rng.standard_normal((nx, 1)),
        phi0_bd=rng.standard_normal((2, 1)),
        phiT_bd=rng.standard_normal((2, 1)),
    )
    ctrl = zero_controls(mesh, 1, 1)
    slots = derive_slots(mesh, state)
    cache = partial_cache(prob, mesh, slot_tables(state, slots, ctrl))
    lin, _ = _linearized_sweep(prob, mesh, cache, dstate, ctrl)

    eps = 1e-6
    up = StateBundle(*(s + eps * d for s, d in zip(state.blocks(), dstate.blocks())))
    dn = StateBundle(*(s - eps * d for s, d in zip(state.blocks(), dstate.blocks())))
    fd = (pack(sweep_map(prob, mesh, up, ctrl)) - pack(sweep_map(prob, mesh, dn, ctrl))) / (
        2.0 * eps
    )
    assert np.max(np.abs(pack(lin) - fd)) <= 1e-8


def test_ibp_residuals_vanish_without_fields():
    zeros = np.zeros((MESH.Nt + 1, MESH.Nx + 1))
    rng = np.random.default_rng(2)
    dphi = rng.standard_normal((MESH.Nt + 1, MESH.Nx + 1))
    r1, r2 = ibp_residual(MESH, zeros, zeros, dphi)
    assert r1 == 0.0 and r2 == 0.0


def test_ibp_first_identity_exact_on_linears():
    const = np.ones((MESH.Nt + 1, MESH.Nx + 1))
    linear = MESH.x[None, :] * np.ones((MESH.Nt + 1, 1))
    r1, _ = ibp_residual(MESH, const, np.zeros_like(const), linear)
    assert abs(r1) <= 1e-13


def test_ibp_residuals_decay_with_refinement():
    prob = Problem(n=1, m_u=0, m_w=0, kernels={})
    table = refinement_study(prob, build_mesh(1.0, 8, 0.0, 1.0, 8), 3, "ibp_residual")
    values = table.values()
    assert values[0] > values[1] > values[2]
    for order in table.orders():
        assert order >= 1.0


def test_skew_adjoint_residual_api():
    curve = build_curve_mesh(64, 2.0 * np.pi)
    rng = np.random.default_rng(3)
    psi = rng.standard_normal(64)
    assert abs(skew_adjoint_residual(curve, psi, np.ones(64))) <= 1e-14
    phi = rng.standard_normal(64)
    assert abs(skew_adjoint_residual(curve, psi, phi)) <= 1e-13
    assert abs(skew_adjoint_residual(curve, np.sin(curve.s), np.cos(curve.s))) <= 1e-13
    with pytest.raises(ConfigError):
        skew_adjoint_residual(curve, psi, np.ones(5))


def test_gradient_check_zero_cost_coupling_passes():
    prob = _control_cost_problem()
    ctrl = zero_controls(MESH, 1, 0)
    report = gradient_check(prob, MESH, ctrl, n_dirs=2, seed=0)
    assert report.passed
    for e in report.entries:
        if e.block != "u":
            assert e.fd == 0.0 and e.adjoint == 0.0


def test_gradient_check_lq_passes_and_is_deterministic():
    prob = make_model(make_params("lq_volterra"))
    ctrl = zero_controls(MESH, 1, 0)
    r1 = gradient_check(prob, MESH, ctrl, n_dirs=5, seed=4)
    r2 = gradient_check(prob, MESH, ctrl, n_dirs=5, seed=4)
    assert r1.passed
    assert [e.fd for e in r1.entries] == [e.fd for e in r2.entries]
    assert max(e.err_dto for e in r1.entries) <= 1e-5


def test_gradient_check_names_corrupted_block():
    # a wrong control partial poisons both the costate and dense oracles
    prob = make_model(make_params("lq_volterra"))
    f1 = prob.kernels["f1"]
    corrupted = Problem(
        n=1,
        m_u=1,
        m_w=0,
        kernels={
            "f0": prob.kernels["f0"],
            "f1": Kernel(
                fn=f1.fn,
                partials={"phi": f1.partials["phi"], "u": lambda a: 3.5},
            ),
        },
        cost_F1=prob.cost_F1,
    )
    report = gradient_check(corrupted, MESH, zero_controls(MESH, 1, 0), n_dirs=2, seed=4)
    assert not report.passed
    assert report.failing_blocks() == ["u"]


def test_refinement_study_forward_error_orders():
    prob = make_model(make_params("volterra_exp"))
    ref = model_reference(make_params("volterra_exp"))
    table = refinement_study(
        prob,
        build_mesh(1.0, 8, 0.0, 1.0, 8),
        3,
        "forward_error",
        reference=ref,
    )
    for order in table.orders():
        assert order >= 1.7  # running trapezoid converges at second order


def test_refinement_study_heat_forward_error():
    params = make_params("heat")
    prob = make_model(params)
    table = refinement_study(
        prob,
        build_mesh(5e-4, 16, 0.0, 1.0, 16),
        3,
        "forward_error",
        reference=model_reference(params),
        cfg=lambda m: SolverConfig(tol=1e-11, relax=picard_relax_hint(params, m)),
    )
    for order in table.orders():
        assert order >= 1.0


def test_refinement_study_gradient_gap_orders():
    params = make_params("heat")
    prob = make_model(params)
    table = refinement_study(
        prob,
        build_mesh(5e-4, 8, 0.0, 1.0, 8),
        3,
        "gradient_gap",
        block="w",
        seed=5,
    )
    values = table.values()
    assert values[-1] <= 1e-2
    for order in table.orders():
        assert order >= 1.0


def test_gradient_triangle_two_component_mixed_dims():
    # n = 2 state driven by a single control channel through a non-diagonal
    # coupling; any transposed component axis in the gradient chain breaks
    # the oracle agreement
    A = np.array([[-0.3, 0.8], [-0.8, -0.3]])
    B = np.array([[1.0], [0.4]])
    ref = np.array([0.4, -0.2])

    prob = Problem(
        n=2,
        m_u=1,
        m_w=0,
        kernels={
            "f0": Kernel(fn=lambda a: np.array([0.5, 0.1]) + 0.0 * a.phi),
            "f1": Kernel(
                fn=lambda a: np.einsum("cd,...d->...c", A, a.phi)
                + np.einsum("cd,...d->...c", B, a.u),
                partials={"phi": lambda a: A, "u": lambda a: B},
            ),
        },
        cost_F1=CostTerm(
            fn=lambda a: ((a.phi - ref) ** 2).sum(-1) + 0.1 * (a.u**2).sum(-1),
            partials={
                "phi": lambda a: 2.0 * (a.phi - ref),
                "u": lambda a: 0.2 * a.u,
            },
        ),
    )
    mesh = build_mesh(1.0, 6, 0.0, 1.0, 5)
    ctrl = zero_controls(mesh, 1, 0)
    report = gradient_check(prob, mesh, ctrl, n_dirs=3, seed=9)
    worst_dto = max(e.err_dto for e in report.entries)
    assert worst_dto <= 1e-8
    # the wall-inconsistent constant target makes the costate gradient's
    # coarse-mesh wall artifact large here; it only needs to be finite
    assert all(np.isfinite(e.adjoint) for e in report.entries)


def test_refinement_study_validates_arguments():
    prob = make_model(make_params("volterra_exp"))
    with pytest.raises(ConfigError):
        refinement_study(prob, MESH, 2, "ibp_residual")
    with pytest.raises(ConfigError):
        refinement_study(prob, MESH, 3, "spectral_radius")
    with pytest.raises(ConfigError):
        refinement_study(prob, MESH, 3, "forward_error")
