import math

import numpy as np
import pytest

from biload.errors import ShapeError
from biload.mesh import build_mesh
from biload.kernels import SLOT_FAMILIES
from biload.state import (
    LAYOUTS,
    WALL_PAIRS,
    StateBundle,
    block_shapes,
    bundle_of,
    check_state_shapes,
    derive_slots,
    pack,
    zero_controls,
    zero_costate,
    zero_state,
)

MESH = build_mesh(1.0, 6, 0.0, 1.0, 5)


def _random_state(mesh, n=2, seed=0):
    rng = np.random.default_rng(seed)
    return StateBundle(
        phi=rng.standard_normal((mesh.Nt + 1, mesh.Nx + 1, n)),
        phi_bd=rng.standard_normal((mesh.Nt + 1, 2, n)),
        phi0=rng.standard_normal((mesh.Nx + 1, n)),
        phiT=rng.standard_normal((mesh.Nx + 1, n)),
        phi0_bd=rng.standard_normal((2, n)),
        phiT_bd=rng.standard_normal((2, n)),
    )


def test_derive_slots_exact_on_linear():
    state = zero_state(MESH, 1)
    state.phi[:] = MESH.x[None, :, None]
    state.phi_bd[:] = MESH.bd_x[None, :, None]
    slots = derive_slots(MESH, state)
    np.testing.assert_allclose(slots.p, 1.0, atol=1e-13)
    np.testing.assert_allclose(slots.q, 0.0, atol=1e-12)
    np.testing.assert_allclose(slots.phi_dot, 0.0, atol=1e-13)
    np.testing.assert_allclose(slots.p_bd, 1.0, atol=1e-13)


def test_derive_slots_exact_on_bilinear_quadratic():
    state = zero_state(MESH, 1)
    state.phi[:] = (MESH.t[:, None] * MESH.x[None, :] ** 2)[:, :, None]
    state.phi_bd[:] = (MESH.t[:, None] * MESH.bd_x[None, :] ** 2)[:, :, None]
    slots = derive_slots(MESH, state)
    ones = np.ones((MESH.Nt + 1, MESH.Nx + 1))
    np.testing.assert_allclose(slots.q[:, :, 0], 2.0 * MESH.t[:, None] * ones, atol=1e-12)
    np.testing.assert_allclose(slots.p_dot[:, :, 0], 2.0 * MESH.x[None, :] * ones, atol=1e-12)
    np.testing.assert_allclose(slots.q_dot, 2.0, atol=1e-11)


def test_derive_slots_matches_analytic_derivative():
    mesh = build_mesh(1.0, 64, 0.0, 1.0, 64)
    state = zero_state(mesh, 1)
    t, x = mesh.t[:, None], mesh.x[None, :]
    state.phi[:] = (np.exp(-np.pi**2 * t) * np.sin(np.pi * x))[:, :, None]
    state.phi_bd[:] = (np.exp(-np.pi**2 * t[:, [0, 0]]) * np.sin(np.pi * mesh.bd_x))[
        :, :, None
    ]
    slots = derive_slots(mesh, state)
    exact = np.pi * np.exp(-np.pi**2 * t) * np.cos(np.pi * x)
    assert np.max(np.abs(slots.p[:, :, 0] - exact)) <= 5e-3


def test_derive_slots_slices():
    state = zero_state(MESH, 1)
    state.phi0[:] = (MESH.x**2)[:, None]
    state.phi0_bd[:] = (MESH.bd_x**2)[:, None]
    slots = derive_slots(MESH, state)
    np.testing.assert_allclose(slots.p0[:, 0], 2.0 * MESH.x, atol=1e-12)
    np.testing.assert_allclose(slots.q0, 2.0, atol=1e-11)
    np.testing.assert_allclose(slots.p0_bd[:, 0], 2.0 * MESH.bd_x, atol=1e-12)


def test_derive_slots_is_linear():
    s1 = _random_state(MESH, seed=1)
    s2 = _random_state(MESH, seed=2)
    a, b = 0.7, -1.3
    combo = StateBundle(
        *(a * x + b * y for x, y in zip(s1.blocks(), s2.blocks()))
    )
    d1 = derive_slots(MESH, s1)
    d2 = derive_slots(MESH, s2)
    dc = derive_slots(MESH, combo)
    for name in ("p", "q", "p_dot", "q_dot", "p_bd", "p_bd_dot", "p0", "qT", "pT_bd"):
        lhs = getattr(dc, name)
        rhs = a * getattr(d1, name) + b * getattr(d2, name)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_derive_slots_shape_mismatch():
    state = _random_state(MESH)
    state.phi0 = state.phi0[:-1]
    with pytest.raises(ShapeError):
        derive_slots(MESH, state)


@pytest.mark.parametrize("m", [0, 1, 3])
@pytest.mark.parametrize("kind", ["state", "costate", "control"])
def test_pack_unpack_round_trip_bitwise(kind, m):
    # every bundle kind follows the layout table: block names, zero
    # shapes, the block shapes, and a bitwise pack/bundle_of round trip
    if kind == "control":
        m_w = (m + 1) % 4  # u- and w-controls may differ in width
        dims = tuple(m if L.space == "j" else m_w for L in LAYOUTS)
        zero = zero_controls(MESH, m, m_w)
    elif kind == "costate":
        dims = (m,) * len(LAYOUTS)
        zero = zero_costate(MESH, m)
    else:
        dims = (m,) * len(LAYOUTS)
        zero = zero_state(MESH, m)
        assert check_state_shapes(MESH, zero) == m
    shapes = block_shapes(MESH.Nt, MESH.Nx, dims)
    assert type(zero).names == tuple(getattr(L, kind) for L in LAYOUTS)
    nt, nx = MESH.Nt + 1, MESH.Nx + 1
    node_shapes = [(nt, nx), (nt, 2), (nx,), (nx,), (2,), (2,)]
    expected = [s + (d,) for s, d in zip(node_shapes, dims)]
    assert [b.shape for b in zero.blocks()] == expected == list(shapes) == list(zero.shapes())
    assert not zero.blocks()[0].any()
    rng = np.random.default_rng(5)
    bundle = type(zero)(*(rng.standard_normal(b.shape) for b in zero.blocks()))
    flat = pack(bundle)
    assert flat.shape == (sum(math.prod(s) for s in expected),)
    again = bundle_of(type(zero), flat, shapes)
    assert type(again) is type(bundle)
    for a, b in zip(bundle.blocks(), again.blocks()):
        assert np.array_equal(a, b)


def test_pack_zero_bundle_and_length():
    flat = pack(zero_state(MESH, 2))
    nt, nx, n = MESH.Nt + 1, MESH.Nx + 1, 2
    assert flat.shape == (nt * nx * n + 2 * nt * n + 2 * nx * n + 4 * n,)
    assert not flat.any()


def test_wall_pairs_name_every_state_slot():
    # the costate operators read the phi, p, q roles on the x nodes and the
    # phi, p roles at the walls, plus time derivatives where time runs
    pairs = [(L.costate, W.costate) for L, W in WALL_PAIRS]
    assert pairs == [("psi", "omega"), ("psi0", "omega0"), ("psiT", "omegaT")]
    for L, W in WALL_PAIRS:
        for layout, roles in ((L, ("phi", "p", "q")), (W, ("phi", "p"))):
            names = {layout.slot(role) for role in roles}
            if layout.time:
                names |= {layout.slot(role, dot=True) for role in roles}
            assert names == set(SLOT_FAMILIES[layout.family]) - {layout.control}
