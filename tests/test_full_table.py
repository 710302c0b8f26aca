"""End-to-end certification with every kernel live at once.

A single problem registers all thirty kernels with small smooth couplings
(two state components, one distributed and two boundary control channels)
plus all four cost integrands.  The dense oracle differentiates the exact
discrete pipeline, so agreement with central differences certifies the
forward assembly and every registered partial in one shot; the costate
solve on top checks that the stationarity machinery digests the full
table."""

import zlib

import numpy as np

from biload.adjoint import control_gradient, solve_costate
from biload.forward import SolverConfig, solve_forward
from biload.kernels import (
    KERNEL_IDS,
    KERNEL_SHAPES,
    SLOT_FAMILIES,
    CostTerm,
    Kernel,
    Problem,
    validate_partials,
)
from biload.mesh import build_mesh
from biload.state import derive_slots, zero_controls
from biload.verify import gradient_check

N, M_U, M_W = 2, 1, 2

MESH = build_mesh(0.9, 6, 0.0, 1.0, 6)

# weak couplings keep the thirty-term fixed point well inside contraction;
# derivative slots are damped by their stencil magnitudes
GAIN = 0.04
_DX, _DT = MESH.dx, MESH.dt
_SLOT_SCALE = {
    "p": _DX,
    "q": _DX**2,
    "phi_dot": _DT,
    "p_dot": _DX * _DT,
    "q_dot": _DX**2 * _DT,
    "phi_bd_dot": _DT,
    "p_bd": _DX,
    "p_bd_dot": _DX * _DT,
    "p0": _DX,
    "q0": _DX**2,
    "pT": _DX,
    "qT": _DX**2,
    "p0_bd": _DX,
    "pT_bd": _DX,
}


def _coef(kid, slot, rows, cols):
    rng = np.random.default_rng(zlib.crc32(f"full/{kid}/{slot}".encode()))
    return GAIN * _SLOT_SCALE.get(slot, 1.0) * rng.standard_normal((rows, cols))


def _dim(slot):
    if slot in ("u", "u0", "uT"):
        return M_U
    if slot in ("w", "w0", "wT"):
        return M_W
    return N


def _source(kid, rng):
    """Smooth state-independent forcing so every equation is nonzero."""
    shift = rng.uniform(0.1, 0.5, size=N)

    def fn(a):
        factor = 1.0
        for name, coef in (("t", 0.3), ("x", 0.5), ("xi", 0.2), ("s", 0.1)):
            try:
                factor = factor + coef * np.sin(getattr(a, name))
            except AttributeError:
                pass
        return factor * shift

    return fn


def _full_problem():
    rng = np.random.default_rng(1234)
    kernels = {}
    for kid in KERNEL_IDS:
        fam = KERNEL_SHAPES[kid].family
        src = _source(kid, rng)
        mats = {slot: _coef(kid, slot, N, _dim(slot)) for slot in SLOT_FAMILIES[fam]}

        def fn(a, src=src, mats=mats):
            acc = src(a)
            for slot, A in mats.items():
                acc = acc + np.tensordot(getattr(a, slot), A.T, axes=(-1, 0))
            return acc

        partials = {slot: (lambda a, A=A: A) for slot, A in mats.items()}
        kernels[kid] = Kernel(fn=fn, partials=partials)

    window = lambda a: 4.0 * a.x * (1.0 - a.x)
    cost_F1 = CostTerm(
        fn=lambda a: (window(a) * (a.phi - 0.2) ** 2).sum(-1) + 0.1 * (a.u**2).sum(-1),
        partials={
            "phi": lambda a: 2.0 * window(a) * (a.phi - 0.2),
            "u": lambda a: 0.2 * a.u,
        },
    )
    cost_G1 = CostTerm(
        fn=lambda a: 0.3 * (a.phi_bd**2).sum(-1) + 0.1 * (a.w**2).sum(-1),
        partials={
            "phi_bd": lambda a: 0.6 * a.phi_bd,
            "w": lambda a: 0.2 * a.w,
        },
    )
    cost_F0 = CostTerm(
        fn=lambda a: 0.2 * (a.phi0**2).sum(-1)
        + 0.2 * ((a.phiT - 0.1) ** 2).sum(-1)
        + 0.05 * (a.u0**2).sum(-1)
        + 0.05 * (a.uT**2).sum(-1),
        partials={
            "phi0": lambda a: 0.4 * a.phi0,
            "phiT": lambda a: 0.4 * (a.phiT - 0.1),
            "u0": lambda a: 0.1 * a.u0,
            "uT": lambda a: 0.1 * a.uT,
        },
    )
    cost_G0 = CostTerm(
        fn=lambda a: 0.1 * (a.phi0_bd**2).sum(-1)
        + 0.1 * (a.phiT_bd**2).sum(-1)
        + 0.05 * (a.w0**2).sum(-1)
        + 0.05 * (a.wT**2).sum(-1),
        partials={
            "phi0_bd": lambda a: 0.2 * a.phi0_bd,
            "phiT_bd": lambda a: 0.2 * a.phiT_bd,
            "w0": lambda a: 0.1 * a.w0,
            "wT": lambda a: 0.1 * a.wT,
        },
    )
    return Problem(
        n=N,
        m_u=M_U,
        m_w=M_W,
        kernels=kernels,
        cost_F1=cost_F1,
        cost_G1=cost_G1,
        cost_F0=cost_F0,
        cost_G0=cost_G0,
    )


def test_full_table_partials_all_validate():
    report = validate_partials(_full_problem(), probes=3, seed=2)
    assert report.passed
    assert len(report.entries) > 100  # every kernel slot plus cost slots


def test_full_table_forward_converges_and_all_blocks_live():
    prob = _full_problem()
    ctrl = zero_controls(MESH, M_U, M_W)
    state, rep = solve_forward(prob, MESH, ctrl, SolverConfig(tol=1e-12))
    assert rep.converged
    for block in state.blocks():
        assert np.max(np.abs(block)) > 1e-3


def test_full_table_dense_oracle_matches_fd_on_every_block():
    prob = _full_problem()
    ctrl = zero_controls(MESH, M_U, M_W)
    report = gradient_check(prob, MESH, ctrl, n_dirs=2, seed=6)
    worst = max(e.err_dto for e in report.entries)
    blocks = {e.block for e in report.entries}
    assert blocks == {"u", "w", "u0", "uT", "w0", "wT"}
    assert worst <= 1e-7, [(e.block, e.err_dto) for e in report.entries]
    # every control block is genuinely coupled through the dynamics
    for e in report.entries:
        assert abs(e.fd) > 1e-10, (e.block, e.fd)


def test_full_table_costate_solves_and_derivative_free_blocks_align():
    prob = _full_problem()
    ctrl = zero_controls(MESH, M_U, M_W)
    state, rep = solve_forward(prob, MESH, ctrl, SolverConfig(tol=1e-13))
    slots = derive_slots(MESH, state)
    co, crep = solve_costate(prob, MESH, state, slots, ctrl, SolverConfig(tol=1e-13))
    assert crep.converged
    for block in co.blocks():
        assert np.all(np.isfinite(block))
        assert np.max(np.abs(block)) > 1e-6
    grad = control_gradient(prob, MESH, state, slots, ctrl, co)
    for name in ("u", "w", "u0", "uT", "w0", "wT"):
        assert np.all(np.isfinite(grad.block(name)))
