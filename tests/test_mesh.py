import numpy as np
import pytest

from biload.errors import ConfigError, ShapeError
from biload.mesh import (
    apply_axis,
    build_curve_mesh,
    build_mesh,
    curve_diff,
)
from biload.state import LAYOUT


def test_build_mesh_basic():
    mesh = build_mesh(1.0, 4, 0.0, 1.0, 4)
    assert mesh.dt == 0.25
    assert mesh.dx == 0.25
    np.testing.assert_allclose(mesh.t, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_build_mesh_normals_and_spacing():
    mesh = build_mesh(2.0, 8, -1.0, 1.0, 8)
    assert mesh.dx == 0.25
    assert mesh.normals[0] == -1.0
    assert mesh.normals[1] == 1.0
    assert abs(mesh.dt * mesh.Nt - mesh.T_final) < 1e-14
    assert abs(mesh.dx * mesh.Nx - (mesh.x_b - mesh.x_a)) < 1e-14


@pytest.mark.parametrize(
    "args",
    [
        (1.0, 3, 0.0, 1.0, 4),
        (1.0, 4, 0.0, 1.0, 3),
        (-1.0, 4, 0.0, 1.0, 4),
        (1.0, 4, 1.0, 0.0, 4),
        (float("nan"), 4, 0.0, 1.0, 4),
        (1.0, float("inf"), 0.0, 1.0, 4),
    ],
)
def test_build_mesh_rejects_bad_input(args):
    with pytest.raises(ConfigError):
        build_mesh(*args)


def test_build_mesh_counts_must_be_whole():
    # truncating Nt=4.5 would build Nt=4, dt=0.25: another grid than asked for
    for name, args in (("Nt", (1.0, 4.5, 0.0, 1.0, 8)), ("Nx", (1.0, 8, 0.0, 1.0, 8.5))):
        with pytest.raises(ConfigError, match=f"{name} must be a whole number"):
            build_mesh(*args)
    mesh = build_mesh(1.0, 8.0, 0.0, 1.0, 8.0)
    assert (mesh.Nt, mesh.Nx, mesh.dt) == (8, 8, 0.125)


@pytest.mark.parametrize("count,length", [(4, 1.0), (7, 2.5), (64, 0.125)])
def test_trapezoid_weights_sum_to_length(count, length):
    mesh = build_mesh(length, count, 0.0, length, count)
    assert abs(mesh.wt.sum() - length) < 1e-13 * max(1.0, length)
    assert abs(mesh.wx.sum() - length) < 1e-13 * max(1.0, length)


def test_quad_time_constant_exact():
    mesh = build_mesh(1.0, 10, 0.0, 1.0, 4)
    assert mesh.wt @ np.ones(11) == pytest.approx(1.0, abs=1e-15)
    # every running-integral row is the trapezoid rule on [0, t_i]
    np.testing.assert_allclose(mesh.volterra_lower @ np.ones(11), mesh.t, atol=1e-15)


def test_quad_time_linear_exact():
    mesh = build_mesh(1.0, 4, 0.0, 1.0, 4)
    assert mesh.wt @ mesh.t == pytest.approx(0.5, abs=1e-15)
    np.testing.assert_allclose(mesh.volterra_lower @ mesh.t, 0.5 * mesh.t**2, atol=1e-15)


def test_quad_time_exponential():
    mesh = build_mesh(1.0, 100, 0.0, 1.0, 4)
    val = mesh.volterra_lower[-1] @ np.exp(mesh.t)
    assert abs(val - (np.e - 1.0)) <= 2e-5


def test_quad_time_empty_range_and_errors():
    # the running integral over the empty range [0, t_0] is zero
    mesh = build_mesh(1.0, 4, 0.0, 1.0, 4)
    assert not mesh.volterra_lower[0].any()
    assert mesh.volterra_lower[0] @ mesh.t == 0.0


def test_quad_space_constant_and_sine():
    mesh = build_mesh(1.0, 4, 0.0, 1.0, 64)
    assert mesh.wx @ np.ones(65) == pytest.approx(1.0, abs=1e-15)
    val = mesh.wx @ np.sin(np.pi * mesh.x)
    assert abs(val - 2.0 / np.pi) <= 5e-4
    # the layout table integrates a slice density with the same weights
    assert LAYOUT["initial"].quad(mesh, np.sin(np.pi * mesh.x)) == pytest.approx(val, abs=1e-15)


def test_quad_boundary():
    # the wall pairs carry the counting measure: left + right
    mesh = build_mesh(1.0, 4, 0.0, 1.0, 4)
    quad = LAYOUT["initial_bd"].quad
    assert quad(mesh, np.array([1.0, 1.0])) == 2.0
    assert quad(mesh, np.array([0.0, 0.0])) == 0.0
    assert quad(mesh, np.array([3.0, -3.0])) == 0.0


def _grid_field(mesh, fn):
    return fn(mesh.t[:, None], mesh.x[None, :])[:, :, None]


def test_stencils_exact_on_polynomials():
    mesh = build_mesh(1.0, 6, 0.0, 1.0, 6)
    f_x = _grid_field(mesh, lambda t, x: x + 0.0 * t)
    np.testing.assert_allclose(
        apply_axis(mesh.d1_x, f_x, 1), np.ones_like(f_x), atol=1e-13
    )
    f_x2 = _grid_field(mesh, lambda t, x: x**2 + 0.0 * t)
    np.testing.assert_allclose(
        apply_axis(mesh.d2_x, f_x2, 1), 2.0 * np.ones_like(f_x2), atol=1e-12
    )
    f_tx2 = _grid_field(mesh, lambda t, x: t * x**2)
    np.testing.assert_allclose(
        apply_axis(mesh.d1_t, apply_axis(mesh.d2_x, f_tx2, 1), 0),
        2.0 * np.ones_like(f_tx2),
        atol=1e-12,
    )


def test_dt_on_sine():
    mesh = build_mesh(1.0, 200, 0.0, 1.0, 4)
    f = _grid_field(mesh, lambda t, x: np.sin(t) + 0.0 * x)
    expected = _grid_field(mesh, lambda t, x: np.cos(t) + 0.0 * x)
    err = np.max(np.abs(apply_axis(mesh.d1_t, f, 0) - expected))
    assert err <= 1e-3


def test_stencil_refinement_order_at_least_two():
    # halving both steps should cut smooth-field errors by >= 2^1.8
    errors = []
    for level in range(3):
        mesh = build_mesh(1.0, 16 * 2**level, 0.0, 1.0, 16 * 2**level)
        f = _grid_field(mesh, lambda t, x: np.sin(2.0 * x + 0.5) * np.cos(t))
        exact = _grid_field(mesh, lambda t, x: 2.0 * np.cos(2.0 * x + 0.5) * np.cos(t))
        err = np.max(np.abs(apply_axis(mesh.d1_x, f, 1) - exact))
        errors.append(err)
    for coarse, fine in zip(errors, errors[1:]):
        assert np.log2(coarse / fine) >= 1.8


def test_curve_mesh_and_diff():
    curve = build_curve_mesh(64, 2.0 * np.pi)
    const = np.ones(64)
    np.testing.assert_allclose(curve_diff(curve, const), 0.0, atol=1e-15)
    f = np.sin(curve.s)
    err = np.max(np.abs(curve_diff(curve, f) - np.cos(curve.s)))
    assert err <= 2e-3


def test_curve_mesh_validation():
    with pytest.raises(ConfigError):
        build_curve_mesh(2, 1.0)
    curve = build_curve_mesh(8, 1.0)
    with pytest.raises(ShapeError):
        curve_diff(curve, np.ones(5))


def test_curve_mesh_count_must_be_whole():
    with pytest.raises(ConfigError, match="M must be a whole number"):
        build_curve_mesh(8.5, 1.0)
    assert build_curve_mesh(8.0, 1.0).M == 8


def test_summation_by_parts_on_circle():
    curve = build_curve_mesh(64, 2.0 * np.pi)
    rng = np.random.default_rng(7)
    psi = rng.standard_normal(64)
    phi = rng.standard_normal(64)
    total = np.sum(psi * curve_diff(curve, phi) + curve_diff(curve, psi) * phi) * curve.ds
    assert abs(total) <= 1e-13
