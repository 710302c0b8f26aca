"""Anderson acceleration in `forward.fixed_point` against relaxed Picard.

Depth 0 is the relaxed Picard loop the solver ran before, kept as the
oracle: where Picard converges, the accelerated solve must land on the same
fixed point to within ten times the tolerance, forward and costate.  Batched
members keep the bits of their own solves, also when one member's Anderson
history is singular."""

import numpy as np
import pytest

from biload import adjoint, forward, models, verify
from biload.errors import DivergenceError
from biload.forward import SolverConfig
from biload.kernels import Kernel, Problem
from biload.mesh import build_mesh
from biload.state import bundle_of, derive_slots, pack, stack, zero_controls, zero_state

#: horizon of each builtin, inside the envelope of relaxed Picard at 16x16
HORIZONS = {
    "volterra_exp": 1.0,
    "lq_volterra": 1.0,
    "heat": 5e-4,
    "barenblatt": 2e-3,
    "integral_cv": 5e-4,
    "integral_cv_barenblatt": 2e-3,
    "forest_fire_minimal": 1e-2,
    "biload_demo": 1.0,
}
TOL = 1e-11


def _solves(monkeypatch, depth, problem, mesh, controls, cfg):
    """Forward solve, then costate solve at that state, at Anderson depth."""
    monkeypatch.setattr(forward, "ANDERSON_DEPTH", depth)
    state, rep = forward.solve_forward(problem, mesh, controls, cfg)
    slots = derive_slots(mesh, state)
    costate, crep = adjoint.solve_costate(problem, mesh, state, slots, controls, cfg)
    return (state, rep), (costate, crep)


@pytest.mark.parametrize("N", [8, 16])
@pytest.mark.parametrize("name", models.MODEL_NAMES)
def test_anderson_agrees_with_picard(monkeypatch, name, N):
    params = models.make_params(name)
    problem = models.make_model(params)
    mesh = build_mesh(HORIZONS[name], N, 0.0, 1.0, N)
    controls = zero_controls(mesh, problem.m_u, problem.m_w)
    rng = np.random.default_rng(N)
    for block in controls.names:
        m = problem.slot_dim(block)
        if m:
            getattr(controls, block)[...] = 0.5 * verify.smooth_direction(mesh, block, m, rng)
    cfg = SolverConfig(tol=TOL, relax=models.picard_relax_hint(params, mesh), max_iter=4000)
    picard = _solves(monkeypatch, 0, problem, mesh, controls, cfg)
    anderson = _solves(monkeypatch, forward.ANDERSON_DEPTH, problem, mesh, controls, cfg)
    for (x_old, rep_old), (x_new, rep_new) in zip(picard, anderson):
        assert rep_old.converged and rep_new.converged
        assert rep_new.iterations <= rep_old.iterations
        assert np.max(np.abs(pack(x_new) - pack(x_old))) <= 10 * TOL


def test_heat_beyond_the_picard_envelope_converges(monkeypatch):
    # at N=32 and controls u = 0.5, w = 0.2, relaxed Picard stalls at
    # T=0.02 and diverges at T=0.1, at the hinted relaxation, in three times
    # the sweeps Anderson takes
    params = models.make_params("heat")
    problem = models.make_model(params)
    cases = []
    for T in (0.02, 0.1):
        mesh = build_mesh(T, 32, 0.0, 1.0, 32)
        controls = zero_controls(mesh, 1, 1)
        controls.u[...], controls.w[...] = 0.5, 0.2
        cfg = SolverConfig(relax=models.picard_relax_hint(params, mesh), max_iter=600)
        _, rep = forward.solve_forward(problem, mesh, controls, cfg)
        assert rep.converged, T
        cases.append((mesh, controls, SolverConfig(relax=cfg.relax, max_iter=3 * rep.iterations)))
    monkeypatch.setattr(forward, "ANDERSON_DEPTH", 0)
    (mesh, controls, cfg), diverging = cases
    assert not forward.solve_forward(problem, mesh, controls, cfg)[1].converged
    with pytest.raises(DivergenceError):
        forward.solve_forward(problem, *diverging)


def test_members_keep_their_bits_beside_a_singular_history():
    # phi <- u phi + 1 in the interior: at u = 1 a translation, whose residual
    # never changes, so its Gram matrices are singular; the other members
    # converge beside it
    problem = Problem(
        n=1,
        m_u=1,
        m_w=0,
        kernels={"f0": Kernel(fn=lambda a: a.u * a.phi + 1.0)},
    )
    mesh = build_mesh(1.0, 6, 0.0, 1.0, 6)
    members = []
    for u in (0.5, 1.0, 0.9, -0.3):
        controls = zero_controls(mesh, 1, 0)
        controls.u[...] = u
        members.append(controls)
    cfg = SolverConfig(max_iter=12)
    old = [forward.solve_forward(problem, mesh, c, cfg) for c in members]
    new = list(forward.solve_forward_many(problem, mesh, members, cfg))
    assert [rep.converged for _, rep in old] == [True, False, True, True]
    assert old[1][1].residual_history == [1.0] * 12
    for (x_new, rep_new), (x_old, rep_old) in zip(new, old):
        assert pack(x_new).tobytes() == pack(x_old).tobytes()
        assert repr(rep_new) == repr(rep_old)


def test_a_singular_shifted_gram_falls_back_to_least_squares(monkeypatch):
    # a member whose image is the constant 1 + 0.5 sin k at its k-th sweep
    # has residuals along one direction only, and at sweep 95 elimination
    # meets an exact zero pivot in its shifted Gram matrix.  The member
    # beside it takes x + r_k, r_k a fixed normal draw per sweep, and keeps
    # a regular Gram matrix
    mesh = build_mesh(1.0, 8, 0.0, 1.0, 8)
    x0 = zero_state(mesh, 1)
    shapes = x0.shapes()

    def sweeper():
        count = [0]

        def sweep(x, kind):
            count[0] += 1
            k = count[0]
            wander = np.random.default_rng(k).standard_normal(x.flat.shape[-1])
            image = np.where(kind.flat == 0.0, 1.0 + 0.5 * np.sin(k), x.flat + wander)
            return bundle_of(type(x), image, shapes)

        return sweep

    lstsq_calls = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: lstsq_calls.append(1) or lstsq(*a, **k))
    kinds = [x0, bundle_of(type(x0), np.ones_like(pack(x0)), shapes)]
    cfg = SolverConfig(max_iter=150)
    alone = [forward.fixed_point(sweeper(), stack([x0]), cfg, operands=(stack([kind]),))[0]
             for kind in kinds]
    assert lstsq_calls
    together = forward.fixed_point(sweeper(), stack([x0, x0]), cfg, operands=(stack(kinds),))
    for (x_alone, rep_alone), (x, rep) in zip(alone, together):
        assert rep.iterations == cfg.max_iter and rep.error is None
        assert np.all(np.isfinite(pack(x)))
        assert pack(x).tobytes() == pack(x_alone).tobytes()
        assert repr(rep) == repr(rep_alone)
