import numpy as np
import pytest

from biload.errors import ConfigError
from biload.forward import SolverConfig, solve_forward
from biload.kernels import kernel_args, validate_partials
from biload.mesh import apply_axis, build_mesh
from biload.models import (
    MODEL_NAMES,
    ModelParams,
    make_model,
    make_params,
    model_reference,
    picard_relax_hint,
    stiffness_gain,
)
from biload.state import derive_slots, zero_controls


def test_unknown_model_rejected():
    with pytest.raises(ConfigError):
        make_params("shallow_water")
    with pytest.raises(ConfigError, match="unknown model 'shallow_water'"):
        make_model(ModelParams("shallow_water", {}))


def test_unknown_parameter_rejected():
    with pytest.raises(ConfigError):
        make_params("heat", conductivity=2.0)


def test_volterra_exp_registers_only_the_running_pair():
    prob = make_model(make_params("volterra_exp"))
    assert set(prob.kernels) == {"f0", "f1"}


def test_volterra_exp_fixed_point():
    prob = make_model(make_params("volterra_exp"))
    mesh = build_mesh(1.0, 200, 0.0, 1.0, 4)
    state, rep = solve_forward(
        prob, mesh, zero_controls(mesh, 1, 0), SolverConfig(tol=1e-12)
    )
    assert rep.converged
    ref = model_reference(make_params("volterra_exp"))(mesh.t, mesh.x)
    err = np.max(np.abs(state.phi[:, 1:-1, 0] - ref[:, 1:-1]))
    assert err <= 1e-4


def test_heat_fixed_point_and_refinement():
    params = make_params("heat")
    prob = make_model(params)
    ref = model_reference(params)
    errors = []
    for N in (32, 64):
        mesh = build_mesh(5e-4, N, 0.0, 1.0, N)
        state, rep = solve_forward(
            prob, mesh, zero_controls(mesh, 1, 1), SolverConfig(tol=1e-11)
        )
        assert rep.converged
        errors.append(np.max(np.abs(state.phi[:, 1:-1, 0] - ref(mesh.t, mesh.x)[:, 1:-1])))
    assert errors[-1] <= 2e-2
    assert errors[0] / errors[1] >= 1.8


def test_heat_recast_differentiates_back_to_instant_flux():
    # time derivative of the running form recovers K q to stencil accuracy
    params = make_params("heat")
    prob = make_model(params)
    mesh = build_mesh(5e-4, 32, 0.0, 1.0, 32)
    controls = zero_controls(mesh, 1, 1)
    state, rep = solve_forward(prob, mesh, controls, SolverConfig(tol=1e-11))
    assert rep.converged
    slots = derive_slots(mesh, state)
    dphi_dt = apply_axis(mesh.d1_t, state.phi, 0)
    gap = np.abs(dphi_dt - params.values["K"] * slots.q)[:, 1:-1, :]
    scale = np.max(np.abs(slots.q))
    assert np.max(gap) <= 0.05 * scale * (mesh.dt + mesh.dx**2) / mesh.dx**2


def _point_eval(prob, kid, mesh, state, controls):
    slots = derive_slots(mesh, state)
    tables = (state, slots, controls)
    args = kernel_args(kid, mesh, tables)
    return prob.kernels[kid].fn(args), slots


def test_barenblatt_running_term_reads_both_derivative_slots():
    params = make_params("barenblatt", K=2.0, L=0.5, c_u=0.0)
    prob = make_model(params)
    mesh = build_mesh(1.0, 5, 0.0, 1.0, 5)
    rng = np.random.default_rng(3)
    from biload.state import StateBundle

    state = StateBundle(
        phi=rng.standard_normal((6, 6, 1)),
        phi_bd=rng.standard_normal((6, 2, 1)),
        phi0=rng.standard_normal((6, 1)),
        phiT=rng.standard_normal((6, 1)),
        phi0_bd=rng.standard_normal((2, 1)),
        phiT_bd=rng.standard_normal((2, 1)),
    )
    controls = zero_controls(mesh, 1, 1)
    value, slots = _point_eval(prob, "f1", mesh, state, controls)
    # producer layout of the running kernel: (consumer t, x, producer s, comp)
    expected = 2.0 * slots.q + 0.5 * slots.q_dot
    moved = np.transpose(expected, (1, 0, 2))[None, :, :, :]
    np.testing.assert_allclose(
        np.broadcast_to(value, (6, 6, 6, 1)),
        np.broadcast_to(moved, (6, 6, 6, 1)),
        atol=1e-12,
    )


def test_integral_cv_kernel_carries_relaxation_memory():
    params = make_params("integral_cv", K=1.5, A=2.0, c_u=0.0)
    prob = make_model(params)
    mesh = build_mesh(1.0, 5, 0.0, 1.0, 5)
    state = None
    rng = np.random.default_rng(4)
    from biload.state import StateBundle

    state = StateBundle(
        phi=rng.standard_normal((6, 6, 1)),
        phi_bd=rng.standard_normal((6, 2, 1)),
        phi0=rng.standard_normal((6, 1)),
        phiT=rng.standard_normal((6, 1)),
        phi0_bd=rng.standard_normal((2, 1)),
        phiT_bd=rng.standard_normal((2, 1)),
    )
    controls = zero_controls(mesh, 1, 1)
    value, slots = _point_eval(prob, "f1", mesh, state, controls)
    full = np.broadcast_to(value, (6, 6, 6, 1))
    relax = np.exp(-2.0 * (mesh.t[:, None, None, None] - mesh.t[None, None, :, None]))
    expected = 1.5 * relax * np.transpose(slots.q, (1, 0, 2))[None, :, :, :]
    np.testing.assert_allclose(full, expected, atol=1e-12)


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_every_builtin_passes_partial_validation(name):
    prob = make_model(make_params(name))
    report = validate_partials(prob, probes=5, seed=20)
    assert report.passed, [e for e in report.entries if not e[3]]


def test_biload_coupling_is_live_both_ways():
    mesh = build_mesh(1.0, 8, 0.0, 1.0, 8)
    cfg = SolverConfig(tol=1e-12)
    ctrl = zero_controls(mesh, 1, 1)
    base, _ = solve_forward(make_model(make_params("biload_demo")), mesh, ctrl, cfg)
    no_f4, _ = solve_forward(
        make_model(make_params("biload_demo", c4=0.0, d4=0.0)), mesh, ctrl, cfg
    )
    assert np.max(np.abs(base.phi[:, 1:-1] - no_f4.phi[:, 1:-1])) > 1e-4
    no_g2, _ = solve_forward(
        make_model(make_params("biload_demo", c2=0.0)), mesh, ctrl, cfg
    )
    assert np.max(np.abs(base.phi_bd - no_g2.phi_bd)) > 1e-4


def test_biload_final_slice_integrates_trajectory():
    mesh = build_mesh(1.0, 8, 0.0, 1.0, 8)
    prob = make_model(make_params("biload_demo"))
    state, rep = solve_forward(prob, mesh, zero_controls(mesh, 1, 1), SolverConfig(tol=1e-12))
    assert rep.converged
    # phiT equals the running-weight integral of cT phi along each column
    expected = 0.3 * np.einsum("k,kjn->jn", mesh.wt, state.phi)
    np.testing.assert_allclose(state.phiT, expected, atol=1e-10)


def test_relax_hint_backs_off_for_stiff_grids():
    params = make_params("heat")
    assert picard_relax_hint(params, build_mesh(5e-4, 32, 0.0, 1.0, 32)) == 1.0
    hint = picard_relax_hint(params, build_mesh(0.25, 32, 0.0, 1.0, 32))
    assert 0.0 < hint < 0.2


#: (N, model, stiffness gain, relax hint) as float.hex at N x N: T = 1 at
#: N = 8, T = 0.01 at N = 40 (the gradient_fire workload's grid).  Pinned bit
#: for bit because relax = auto applies the hint, so every solve's bits
#: follow it.
PINNED_GAINS = [
    (8, "volterra_exp", "0x0.0p+0", "0x1.0000000000000p+0"),
    (8, "lq_volterra", "0x0.0p+0", "0x1.0000000000000p+0"),
    (8, "heat", "0x1.0000000000000p+4", "0x1.e1e1e1e1e1e1ep-5"),
    (8, "barenblatt", "0x1.1eb851eb851ecp+4", "0x1.b0fb2103c9e09p-5"),
    (8, "integral_cv", "0x1.0000000000000p+4", "0x1.e1e1e1e1e1e1ep-5"),
    (8, "integral_cv_barenblatt", "0x1.1eb851eb851ecp+4", "0x1.b0fb2103c9e09p-5"),
    (8, "forest_fire_minimal", "0x1.b22d0e560418ap+1", "0x1.d24d67fc45034p-3"),
    (8, "biload_demo", "0x1.6666666666666p-1", "0x1.2d2d2d2d2d2d3p-1"),
    (40, "volterra_exp", "0x0.0p+0", "0x1.0000000000000p+0"),
    (40, "lq_volterra", "0x0.0p+0", "0x1.0000000000000p+0"),
    (40, "heat", "0x1.9999999999999p-1", "0x1.1c71c71c71c72p-1"),
    (40, "barenblatt", "0x1.8666666666665p+5", "0x1.48fef8cd9f5b9p-6"),
    (40, "integral_cv", "0x1.9999999999999p-1", "0x1.1c71c71c71c72p-1"),
    (40, "integral_cv_barenblatt", "0x1.8666666666665p+5", "0x1.48fef8cd9f5b9p-6"),
    (40, "forest_fire_minimal", "0x1.3d70a3d70a3d7p+2", "0x1.579fc90527845p-3"),
    (40, "biload_demo", "0x1.6666666666666p-1", "0x1.2d2d2d2d2d2d3p-1"),
]


@pytest.mark.parametrize("N, name, gain, hint", PINNED_GAINS)
def test_gain_and_hint_are_pinned(N, name, gain, hint):
    mesh = build_mesh(1.0 if N == 8 else 0.01, N, 0.0, 1.0, N)
    params = make_params(name)
    assert stiffness_gain(params, mesh).hex() == gain
    assert picard_relax_hint(params, mesh).hex() == hint


def test_every_builtin_has_pinned_gains():
    assert {(N, name) for N, name, *_ in PINNED_GAINS} == {
        (N, name) for N in (8, 40) for name in MODEL_NAMES
    }


def test_model_reference_matches_initial_profile():
    params = make_params("heat", amp=2.0)
    ref = model_reference(params)
    mesh = build_mesh(1.0, 4, 0.0, 1.0, 16)
    np.testing.assert_allclose(ref(mesh.t, mesh.x)[0], 2.0 * np.sin(np.pi * mesh.x))
