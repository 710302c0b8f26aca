"""Lazy derivation and structural-zero skipping against the eager code
they replace.

The oracles below are the eager forms: `eager_slots` derives all fourteen
slots as `derive_slots` did when it computed every field up front, and
`full_theta` applies every costate stencil to every slot partial, zero or
not.  The lazy paths must agree with them bit for bit, because benchmark
failure counts follow the floating-point bits."""

from types import SimpleNamespace

import numpy as np
import pytest

from biload import models
from biload.adjoint import (
    _dt_star,
    _zero_partials,
    apply_theta,
    control_gradient,
    partial_cache,
    solve_costate,
)
from biload.forward import SolverConfig, solve_forward, sweep_map
from biload.kernels import SLOT_FAMILIES, TERMS, Problem, kernel_args
from biload.mesh import LEFT, RIGHT, apply_axis, build_mesh
from biload.state import (
    WALL_PAIRS,
    CoStateBundle,
    derive_slots,
    zero_controls,
    zero_state,
)
from test_full_table import _full_problem

DERIVED = (
    "p", "q", "phi_dot", "p_dot", "q_dot", "phi_bd_dot", "p_bd", "p_bd_dot",
    "p0", "q0", "pT", "qT", "p0_bd", "pT_bd",
)


def _edge(mesh, interior, wall):
    dx = mesh.dx
    left = (-1.5 * wall[..., LEFT, :] + 2.0 * interior[..., 1, :] - 0.5 * interior[..., 2, :]) / dx
    right = (1.5 * wall[..., RIGHT, :] - 2.0 * interior[..., -2, :] + 0.5 * interior[..., -3, :]) / dx
    return np.stack([left, right], axis=-2)


def eager_slots(mesh, state):
    """Every derived slot, computed up front."""
    p = apply_axis(mesh.d1_x, state.phi, 1)
    q = apply_axis(mesh.d2_x, state.phi, 1)
    p_bd = _edge(mesh, state.phi, state.phi_bd)
    return {
        "p": p,
        "q": q,
        "phi_dot": np.tensordot(mesh.d1_t, state.phi, axes=(1, 0)),
        "p_dot": np.tensordot(mesh.d1_t, p, axes=(1, 0)),
        "q_dot": np.tensordot(mesh.d1_t, q, axes=(1, 0)),
        "phi_bd_dot": np.tensordot(mesh.d1_t, state.phi_bd, axes=(1, 0)),
        "p_bd": p_bd,
        "p_bd_dot": np.tensordot(mesh.d1_t, p_bd, axes=(1, 0)),
        "p0": np.tensordot(mesh.d1_x, state.phi0, axes=(1, 0)),
        "q0": np.tensordot(mesh.d2_x, state.phi0, axes=(1, 0)),
        "pT": np.tensordot(mesh.d1_x, state.phiT, axes=(1, 0)),
        "qT": np.tensordot(mesh.d2_x, state.phiT, axes=(1, 0)),
        "p0_bd": _edge(mesh, state.phi0, state.phi0_bd),
        "pT_bd": _edge(mesh, state.phiT, state.phiT_bd),
    }


def eager_tables(state, slots, controls):
    """The (state, slots, controls) tables a term reads, with every
    derived slot of the dict slots already computed."""
    return state, SimpleNamespace(**slots), controls


def _random_inputs(mesh, problem, seed):
    rng = np.random.default_rng(seed)
    state = zero_state(mesh, problem.n)
    for block in state.blocks():
        block[...] = rng.standard_normal(block.shape)
    controls = zero_controls(mesh, problem.m_u, problem.m_w)
    for block in controls.blocks():
        block[...] = rng.standard_normal(block.shape)
    return state, controls


@pytest.mark.parametrize("Nt,Nx", [(6, 6), (9, 7)])
@pytest.mark.parametrize("n", [1, 2])
def test_derived_slots_equal_eager_expressions(Nt, Nx, n):
    mesh = build_mesh(0.7, Nt, -0.2, 1.1, Nx)
    state, _ = _random_inputs(mesh, Problem(n=n, m_u=0, m_w=0, kernels={}), Nt + Nx + n)
    want = eager_slots(mesh, state)
    # one access order, and its reverse, so p_dot may come before or after p
    for names in (DERIVED, DERIVED[::-1]):
        slots = derive_slots(mesh, state)
        for name in names:
            got = getattr(slots, name)
            assert got.shape == want[name].shape, name
            assert np.array_equal(got, want[name]), name
            assert getattr(slots, name) is got  # kept, not derived again


@pytest.mark.parametrize("name", [*models.MODEL_NAMES, "full_table"])
def test_lazy_kernel_args_equal_arrange(name):
    if name == "full_table":
        problem = _full_problem()
    else:
        problem = models.make_model(models.make_params(name))
    mesh = build_mesh(0.5, 6, 0.0, 1.0, 5)
    state, controls = _random_inputs(mesh, problem, 3)
    lazy = (state, derive_slots(mesh, state), controls)
    eager = eager_tables(state, eager_slots(mesh, state), controls)
    for term in problem.terms:
        shape = TERMS[term]
        args = kernel_args(term, mesh, lazy)
        for fam in shape.families:
            for slot in SLOT_FAMILIES[fam]:
                want = shape.arrange(slot, eager)
                got = getattr(args, slot)
                assert got.shape == want.shape, (term, slot)
                assert np.array_equal(got, want), (term, slot)


def test_heat_sweep_derives_only_what_heat_reads():
    problem = models.make_model(models.make_params("heat"))
    mesh = build_mesh(0.02, 8, 0.0, 1.0, 8)
    state, controls = _random_inputs(mesh, problem, 5)
    slots = derive_slots(mesh, state)
    sweep_map(problem, mesh, state, controls, slots)
    derived = set(vars(slots)) & set(DERIVED)
    assert derived == {"q"}
    for unread in ("p_bd_dot", "pT_bd", "p", "p_dot", "q_dot"):
        assert unread not in vars(slots)


def test_kernel_args_arrange_only_what_the_term_reads():
    mesh = build_mesh(0.5, 4, 0.0, 1.0, 4)
    problem = Problem(n=1, m_u=0, m_w=0, kernels={})
    state, controls = _random_inputs(mesh, problem, 0)
    slots = derive_slots(mesh, state)
    args = kernel_args("f3", mesh, (state, slots, controls))
    assert args.phi.shape == (1, 1, 5, 5, 1)  # read at (s, y)
    assert set(args._values) == {"t", "x", "s", "y", "phi"}
    assert not set(vars(slots)) & set(DERIVED)


@pytest.mark.parametrize("term", ["f3", "g4", "fT5", "F0", "G1"])
def test_unknown_kernel_argument_lists_every_name(term):
    mesh = build_mesh(0.5, 4, 0.0, 1.0, 4)
    problem = Problem(n=1, m_u=1, m_w=1, kernels={})
    state, controls = _random_inputs(mesh, problem, 0)
    tables = (state, derive_slots(mesh, state), controls)
    shape = TERMS[term]
    names = sorted(
        [arg for arg, _, _ in shape.coords]
        + [slot for fam in shape.families for slot in SLOT_FAMILIES[fam]]
    )
    want = f"kernel argument 'nope' not available here; have {names}"
    args = kernel_args(term, mesh, tables)
    for read in (None, SLOT_FAMILIES[shape.family][0]):
        if read is not None:
            getattr(args, read)
        with pytest.raises(AttributeError) as info:
            args.nope
        assert str(info.value) == want
    with pytest.raises(AttributeError):
        getattr(args, "w" if term in ("f3", "F0") else "u")


def full_theta(mesh, partials):
    """Every costate stencil applied to every slot partial."""
    nrm = mesh.normals[:, None]

    def bracket(L, role):
        A = partials[L.slot(role)]
        if L.time is None:
            return A
        return A + _dt_star(mesh, partials[L.slot(role, dot=True)])

    out = {}
    for L, W in WALL_PAIRS:
        x = L.letters.index("j")
        B_p, B_q = bracket(L, "p"), bracket(L, "q")
        out[L.costate] = (
            bracket(L, "phi")
            - apply_axis(mesh.d1_x, B_p, x)
            + apply_axis(mesh.d2_x, B_q, x)
        )
        flux = B_p - apply_axis(mesh.d1_x, B_q, x)
        out[W.costate] = (
            bracket(W, "phi")
            + nrm * bracket(W, "p")
            + nrm * np.take(flux, [0, -1], axis=x)
        )
    return CoStateBundle(**out)


@pytest.mark.parametrize("n", [1, 3])
def test_structural_zero_skip_equals_full_stencils_bytewise(n):
    mesh = build_mesh(0.3, 7, 0.0, 1.0, 6)
    partials = _zero_partials(Problem(n=n, m_u=0, m_w=0, kernels={}), mesh)
    slots = sorted(partials)
    rng = np.random.default_rng(n)
    for trial in range(60):
        # every subset size, from nothing produced to everything produced
        produced = set(rng.choice(slots, size=trial % (len(slots) + 1), replace=False))
        P = {
            slot: rng.standard_normal(arr.shape) if slot in produced else np.zeros(arr.shape)
            for slot, arr in partials.items()
        }
        got = apply_theta(mesh, P, produced)
        want = full_theta(mesh, P)
        for name, a, b in zip(got.names, got.blocks(), want.blocks()):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), (trial, name)
        everything = apply_theta(mesh, P)
        for name, a, b in zip(got.names, everything.blocks(), want.blocks()):
            assert a.tobytes() == b.tobytes(), (trial, name)


def test_gradient_from_the_costate_cache_is_bitwise():
    problem = models.make_model(models.make_params("biload_demo"))
    mesh = build_mesh(0.05, 6, 0.0, 1.0, 6)
    controls = zero_controls(mesh, problem.m_u, problem.m_w)
    cfg = SolverConfig(tol=1e-12, max_iter=2000)
    state, _ = solve_forward(problem, mesh, controls, cfg)
    slots = derive_slots(mesh, state)
    cache = partial_cache(problem, mesh, (state, slots, controls))
    co, _ = solve_costate(problem, mesh, state, slots, controls, cfg, cache)
    co_fresh, _ = solve_costate(problem, mesh, state, slots, controls, cfg)
    for a, b in zip(co.blocks(), co_fresh.blocks()):
        assert a.tobytes() == b.tobytes()
    cached = control_gradient(problem, mesh, state, slots, controls, co, cache)
    fresh = control_gradient(problem, mesh, state, slots, controls, co)
    for block in ("u", "w", "u0", "uT", "w0", "wT"):
        assert cached.block(block).tobytes() == fresh.block(block).tobytes()
