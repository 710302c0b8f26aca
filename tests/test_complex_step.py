"""The dense oracle's complex-step columns against their oracles.

`verify._linearized_columns` evaluates `sweep_map` at complex members that
perturb a whole color of unknowns, and `eval_cost` at one cost-only member
per unknown, and reads the derivatives off the imaginary parts.  One
complex member per unknown (`linearized.per_unknown_columns`) is its oracle
bit for bit, on every builtin at 8x8 and 16x16 and on the full-table
problem, at a solved state and off it.  The hand linearization
(`linearized.hand_columns`, from the registered partials) agrees bit for
bit on the builtins whose kernel bodies round as their partials do
(`linearized.EXACT`), and to 1e-14 relative on the others and on the
full-table problem.  Batched columns must keep the bits of one complex
sweep per column, as the real member axis keeps those of one solve per
member.
"""

import numpy as np
import pytest

from biload import forward, models, verify
from biload.forward import SolverConfig, eval_cost, solve_forward, sweep_map
from biload.kernels import CostTerm, Kernel, Problem, validate_partials
from biload.mesh import build_mesh
from biload.state import (
    CONTROL_BLOCKS,
    LAYOUTS,
    StateBundle,
    bundle_of,
    derive_slots,
    pack,
    zero_controls,
    zero_state,
)
from linearized import assert_agree, hand_columns, hand_dto, per_unknown_columns
from test_full_table import MESH as FULL_MESH
from test_full_table import _full_problem

MESH = build_mesh(0.05, 6, 0.0, 1.0, 6)


def _solved(name, mesh=MESH):
    """(problem, mesh, state, controls, cfg): a builtin at smooth nonzero
    controls on mesh, or the full-table problem at zero controls on its
    own mesh, and its solution."""
    if name == "full_table":
        problem, mesh = _full_problem(), FULL_MESH
        controls = zero_controls(mesh, problem.m_u, problem.m_w)
        cfg = SolverConfig(tol=1e-12)
    else:
        params = models.make_params(name)
        problem = models.make_model(params)
        controls = zero_controls(mesh, problem.m_u, problem.m_w)
        rng = np.random.default_rng(0)
        for block in CONTROL_BLOCKS:
            m = problem.slot_dim(block)
            if m:
                getattr(controls, block)[...] = 0.1 * verify.smooth_direction(mesh, block, m, rng)
        relax = models.picard_relax_hint(params, mesh)
        cfg = SolverConfig(tol=1e-12, relax=relax, max_iter=4000)
    state, report = solve_forward(problem, mesh, controls, cfg)
    assert report.converged
    return problem, mesh, state, controls, cfg


def _columns(problem, mesh, state, controls):
    """verify._linearized_columns at the state, then at the controls."""
    return [
        *verify._linearized_columns(problem, mesh, state, lambda s: (s, controls), 0),
        *verify._linearized_columns(problem, mesh, controls, lambda c: (state, c), 1),
    ]


@pytest.mark.parametrize("name", [*models.MODEL_NAMES, "full_table"])
def test_complex_step_columns_match_the_hand_linearization(name):
    problem, mesh, state, controls, cfg = _solved(name)
    for new, old in zip(_columns(problem, mesh, state, controls),
                        hand_columns(problem, mesh, state, controls)):
        assert new.shape == old.shape
        assert_agree(name, new, old)
    dto = verify.dto_solve(problem, mesh, state, controls)
    grad = np.concatenate([dto.grad.block(b).ravel() for b in CONTROL_BLOCKS])
    for new, old in zip((grad, pack(dto.multipliers)), hand_dto(problem, mesh, state, controls)):
        assert_agree(name, new, old)


def _moved(problem, mesh, state):
    """state plus a seeded smooth field on every block: a point off the
    fixed point."""
    rng = np.random.default_rng(3)
    smooth = StateBundle(**{L.state: verify.smooth_direction(mesh, L.control, problem.n, rng)
                            for L in LAYOUTS})
    return bundle_of(StateBundle, pack(state) + 0.1 * pack(smooth), state.shapes())


@pytest.mark.parametrize("name", [*models.MODEL_NAMES, "full_table"])
def test_the_dense_oracle_linearizes_the_state_it_is_given(name):
    # at the solved state and off it, along a seeded smooth field on every
    # block, gradient and multipliers are those of the hand linearization there
    problem, mesh, state, controls, _ = _solved(name, build_mesh(0.05, 5, 0.0, 1.0, 5))
    for at in (state, _moved(problem, mesh, state)):
        dto = verify.dto_solve(problem, mesh, at, controls)
        grad = np.concatenate([dto.grad.block(b).ravel() for b in CONTROL_BLOCKS])
        for new, old in zip((grad, pack(dto.multipliers)), hand_dto(problem, mesh, at, controls)):
            assert_agree(name, new, old)


@pytest.mark.parametrize("name,size", [(n, s) for s in (8, 16) for n in models.MODEL_NAMES]
                         + [("full_table", None)])
def test_colored_columns_equal_one_member_per_unknown(name, size):
    # A, B, dJ/dPhi and dJ/dU, at the solved state and off it
    mesh = MESH if size is None else build_mesh(0.05, size, 0.0, 1.0, size)
    problem, mesh, state, controls, _ = _solved(name, mesh)
    for at in (state, _moved(problem, mesh, state)):
        want = per_unknown_columns(problem, mesh, at, controls)
        for new, old in zip(_columns(problem, mesh, at, controls), want):
            assert np.array_equal(new, old)


def test_colors_follow_the_slots_a_body_reads_not_its_partials():
    # f1 names no partial, yet its running integral reads phi, q and u
    problem = Problem(n=1, m_u=1, m_w=0,
                      kernels={"f1": Kernel(fn=lambda a: 0.5 * a.phi * a.q + a.u)},
                      cost_F1=CostTerm(fn=lambda a: (a.phi**2).sum(-1)))
    controls = zero_controls(MESH, 1, 0)
    controls.u[...] = 0.3
    state = _moved(problem, MESH, zero_state(MESH, 1))
    columns = _columns(problem, MESH, state, controls)
    for new, old in zip(columns, per_unknown_columns(problem, MESH, state, controls)):
        assert np.array_equal(new, old)
    assert columns[0].any() and columns[2].any()  # A and B


#: Complex sweep members of A and B at 8x8, colored / per unknown.
MEMBERS_8X8 = {
    "volterra_exp": (9, 1),
    "lq_volterra": (9, 9),
    "heat": (27, 9),
    "barenblatt": (27, 9),
    "integral_cv": (27, 9),
    "integral_cv_barenblatt": (27, 9),
    "forest_fire_minimal": (81, 9),
    "biload_demo": (83, 11),
}


@pytest.mark.parametrize("name", models.MODEL_NAMES)
def test_colored_members_at_8x8(name):
    problem, mesh, state, controls, _ = _solved(name, build_mesh(0.05, 8, 0.0, 1.0, 8))
    dto = verify.dto_solve(problem, mesh, state, controls)
    a, b = MEMBERS_8X8[name]
    assert dto.members["A"] <= a and dto.members["B"] <= b
    unknowns = verify.state_unknowns(problem, mesh), pack(controls).size
    assert dto.members["cost"] == sum(unknowns)
    assert "members" not in repr(dto)


def _per_column(problem, mesh, base, at):
    """One unbatched complex sweep and cost per unit vector of the bundle
    base's flat space."""
    h = verify.CS_STEP
    images, costs = [], []
    real = pack(base)
    for k in range(real.size):
        flat = real.astype(complex)
        flat.imag[k] = h
        st, ct = at(bundle_of(type(base), flat, base.shapes()))
        slots = derive_slots(mesh, st)
        images.append(sweep_map(problem, mesh, st, ct, slots).flat.imag / h)
        costs.append(np.imag(eval_cost(problem, mesh, st, slots, ct)) / h)
    return np.array(images), np.array(costs)


@pytest.mark.parametrize("name", models.MODEL_NAMES)
def test_batched_columns_match_one_complex_sweep_per_column(monkeypatch, name):
    problem, mesh, state, controls, _ = _solved(name)
    want = [
        *_per_column(problem, mesh, state, lambda s: (s, controls)),
        *_per_column(problem, mesh, controls, lambda c: (state, c)),
    ]
    for budget in (forward.BATCH_BYTES, 40_000):  # one chunk, then several
        monkeypatch.setattr(forward, "BATCH_BYTES", budget)
        for new, old in zip(_columns(problem, mesh, state, controls), want):
            assert new.tobytes() == old.tobytes()


def test_member_chunks_count_the_element_size():
    problem = models.make_model(models.make_params("biload_demo"))
    real = forward.member_chunks(problem, MESH, 1000)
    packed = forward.member_chunks(problem, MESH, 1000, itemsize=16)
    assert len(packed[0]) == len(real[0]) // 2 < len(real[0])
    # cost-only members build no kernel array, only the cost terms'
    costs = forward.member_chunks(problem, MESH, 1000, itemsize=16,
                                  terms=[name for name, _ in problem.cost_terms()])
    assert len(costs[0]) > 10 * len(packed[0])


def test_fire_chunks_are_sized_from_the_raw_radiation_array(monkeypatch):
    # f3 is contracted from its raw array, (Nt+1) times smaller than its
    # full grid; sized from the full grid, every chunk below held one member
    params = models.make_params("forest_fire_minimal")
    problem = models.make_model(params)
    assert len(forward.member_chunks(problem, build_mesh(0.01, 24, 0.0, 1.0, 24), 4)[0]) == 2
    mesh = build_mesh(0.01, 16, 0.0, 1.0, 16)
    assert len(forward.member_chunks(problem, mesh, 1000, itemsize=16)[0]) == 3
    controls = zero_controls(mesh, 1, 1)
    controls.u[...] = 0.5
    cfg = SolverConfig(tol=1e-12, relax=models.picard_relax_hint(params, mesh), max_iter=4000)
    state, _ = solve_forward(problem, mesh, controls, cfg)
    together = verify.dto_solve(problem, mesh, state, controls)
    monkeypatch.setattr(forward, "BATCH_BYTES", 1)  # one column per complex sweep
    alone = verify.dto_solve(problem, mesh, state, controls)
    for block in CONTROL_BLOCKS:
        assert together.grad.block(block).tobytes() == alone.grad.block(block).tobytes()
    assert pack(together.multipliers).tobytes() == pack(alone.multipliers).tobytes()


def test_a_non_analytic_kernel_fails_the_dense_oracle():
    # |phi| has no complex extension that carries its derivative, so the
    # complex step drops the term while its hand partial stays right: the
    # dense oracle's precondition, shown failing loudly, never silently
    params = models.make_params("heat")
    heat = models.make_model(params)
    f1 = heat.kernels["f1"]
    kernels = dict(heat.kernels)
    kernels["f1"] = Kernel(
        fn=lambda a: f1.fn(a) + 3.0 * np.abs(a.phi),
        partials={**f1.partials, "phi": lambda a: 3.0 * np.sign(a.phi)[..., None]},
    )
    problem = Problem(
        n=1, m_u=1, m_w=1, kernels=kernels, cost_F1=heat.cost_F1, cost_G1=heat.cost_G1
    )
    assert validate_partials(problem).passed
    mesh = build_mesh(0.02, 8, 0.0, 1.0, 8)
    controls = zero_controls(mesh, 1, 1)
    controls.u[...] = 0.5
    cfg = SolverConfig(tol=1e-12, relax=models.picard_relax_hint(params, mesh), max_iter=4000)
    report = verify.gradient_check(problem, mesh, controls, n_dirs=2, seed=0, cfg=cfg)
    assert not report.passed
    assert max(e.err_dto for e in report.entries) > verify.TOL_DTO


@pytest.mark.parametrize("name", [*models.MODEL_NAMES, "full_table"])
def test_tangents_solve_the_linearized_fixed_point(name):
    # A t = -B d, each side from one complex sweep: A t is the derivative of
    # the defect sweep(x) - x along t, B d that of the sweep along d
    problem, mesh, state, controls, cfg = _solved(name)
    zero, h = zero_controls(mesh, problem.m_u, problem.m_w), verify.CS_STEP
    rng = np.random.default_rng(2)
    directions = [bundle_of(type(zero), rng.standard_normal(pack(zero).size), zero.shapes())
                  for _ in range(2)]
    tangents = verify.dto_solve(problem, mesh, state, controls).tangents(directions)
    assert len(tangents) == 2

    def along(base, step):
        return bundle_of(type(base), pack(base) + 1j * h * pack(step), base.shapes())

    for d, t in zip(directions, tangents):
        A_t = sweep_map(problem, mesh, along(state, t), controls).flat.imag / h - pack(t)
        B_d = sweep_map(problem, mesh, state, along(controls, d)).flat.imag / h
        assert np.max(np.abs(A_t + B_d)) <= 1e-12 * np.max(np.abs(B_d))
