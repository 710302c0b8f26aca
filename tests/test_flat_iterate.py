"""The flat-vector Picard loop and the per-mesh plans against the blockwise
code they replace.

`blockwise_fixed_point` below is the loop `forward.fixed_point` ran before
it kept its iterate as one flat vector: it relaxes, measures and guards
block by block.  At Anderson depth 0 the flat loop must agree with it bit
for bit, reports included, because benchmark failure counts follow the
floating-point bits."""

import numpy as np
import pytest

from biload import adjoint, forward, models, verify
from biload.adjoint import _zero_partials, partial_cache
from biload.errors import DivergenceError
from biload.forward import SolverConfig, SolveReport, sweep_map
from biload.kernels import Kernel, Problem, eval_kernel
from biload.mesh import build_mesh
from biload.state import (
    LAYOUTS,
    StateBundle,
    bundle_of,
    derive_slots,
    pack,
    zero_controls,
    zero_state,
)

MESH = build_mesh(1.0, 6, 0.0, 1.0, 6)


def blockwise_sup_distance(a, b) -> float:
    worst = 0.0
    for ba, bb in zip(a.blocks(), b.blocks()):
        if ba.size:
            worst = max(worst, float(np.max(np.abs(ba - bb))))
    return worst


def blockwise_fixed_point(sweep, x0, cfg, label=""):
    x = x0
    history = []
    converged = False
    residual = float("inf")
    theta = cfg.relax
    for _ in range(cfg.max_iter):
        target = sweep(x)
        residual = blockwise_sup_distance(target, x)
        if theta == 1.0:
            x = target
        else:
            x = type(x)(
                *(
                    (1.0 - theta) * old + theta * tgt
                    for old, tgt in zip(x.blocks(), target.blocks())
                )
            )
        history.append(residual)
        for name, block in zip(x.names, x.blocks()):
            if block.size and not np.all(np.abs(block) <= cfg.divergence_guard):
                raise DivergenceError(
                    f"{label}iteration diverged: block {name} exceeded guard "
                    f"{cfg.divergence_guard:g}"
                )
        if residual <= cfg.tol:
            converged = True
            break
    report = SolveReport(
        iterations=len(history),
        final_residual=residual,
        converged=converged,
        residual_history=history,
    )
    return x, report


def _outcome(solve):
    """(bundle, report) of solve(), or the DivergenceError text."""
    try:
        return solve()
    except DivergenceError as exc:
        return str(exc)


def _assert_same(new, old):
    if isinstance(old, str) or isinstance(new, str):
        assert new == old
        return
    (x_new, rep_new), (x_old, rep_old) = new, old
    assert type(x_new) is type(x_old)
    for a, b in zip(x_new.blocks(), x_old.blocks()):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert rep_new.residual_history == rep_old.residual_history
    assert rep_new.iterations == rep_old.iterations
    assert repr(rep_new) == repr(rep_old)


def _model(name):
    params = models.make_params(name)
    problem = models.make_model(params)
    controls = zero_controls(MESH, problem.m_u, problem.m_w)
    rng = np.random.default_rng(0)
    for block in controls.names:
        m = problem.slot_dim(block)
        if m:
            getattr(controls, block)[...] = 0.1 * verify.smooth_direction(MESH, block, m, rng)
    return params, problem, controls


@pytest.mark.parametrize("name", models.MODEL_NAMES)
@pytest.mark.parametrize("relax", ["one", "hint"])
def test_flat_loop_matches_blockwise_oracle(monkeypatch, name, relax):
    monkeypatch.setattr(forward, "ANDERSON_DEPTH", 0)
    params, problem, controls = _model(name)
    hint = models.picard_relax_hint(params, MESH)
    cfg = SolverConfig(tol=1e-12, relax=1.0 if relax == "one" else hint, max_iter=300)
    start = SolverConfig(tol=1e-12, relax=hint, max_iter=4000)
    state, rep = forward.solve_forward(problem, MESH, controls, start)
    assert rep.converged
    slots = derive_slots(MESH, state)

    def forward_solve():
        return forward.solve_forward(problem, MESH, controls, cfg)

    def costate_solve():
        return adjoint.solve_costate(problem, MESH, state, slots, controls, cfg)

    new = [_outcome(forward_solve), _outcome(costate_solve)]
    monkeypatch.setattr(forward, "fixed_point", blockwise_fixed_point)
    monkeypatch.setattr(adjoint, "fixed_point", blockwise_fixed_point)
    old = [_outcome(forward_solve), _outcome(costate_solve)]
    for a, b in zip(new, old):
        _assert_same(a, b)


@pytest.mark.parametrize("relax", [1.0, 0.5])
@pytest.mark.parametrize("with_flat", [True, False])
def test_divergence_names_the_first_block_like_the_oracle(relax, with_flat):
    def sweep(x):
        image = bundle_of(StateBundle, np.zeros(pack(x).size), x.shapes())
        image.phiT[2, 1] = 1e12  # two blocks past the guard: phiT comes first
        image.phiT_bd[0, 0] = -1e12
        return image if with_flat else StateBundle(*image.blocks())

    cfg = SolverConfig(relax=relax)
    x0 = zero_state(MESH, 2)
    new = _outcome(lambda: forward.fixed_point(sweep, x0, cfg, label="test "))
    old = _outcome(lambda: blockwise_fixed_point(sweep, x0, cfg, label="test "))
    assert new == old == "test iteration diverged: block phiT exceeded guard 1e+08"


def test_assembled_blocks_are_views_of_the_flat_image():
    params, problem, controls = _model("biload_demo")
    image = sweep_map(problem, MESH, zero_state(MESH, problem.n), controls)
    assert image.flat.shape == pack(zero_state(MESH, problem.n)).shape
    assert all(np.shares_memory(block, image.flat) for block in image.blocks())
    assert pack(image).tobytes() == image.flat.tobytes()
    # the flat vector is not part of the bundle's repr or equality
    assert "flat" not in repr(StateBundle(*(b[:0] for b in image.blocks())))
    twin = StateBundle(*image.blocks())
    assert twin.flat is None and twin == image


def test_full_shape_kernel_value_is_read_only():
    # a kernel returning its own slot argument hands back a view of the state
    problem = Problem(n=1, m_u=0, m_w=0, kernels={"f0": Kernel(lambda a: a.phi)})
    state = zero_state(MESH, 1)
    state.phi[...] = 1.0
    controls = zero_controls(MESH, 0, 0)
    tables = (state, derive_slots(MESH, state), controls)
    F = eval_kernel(problem, "f0", MESH, tables)
    assert F.shape == state.phi.shape and np.shares_memory(F, state.phi)
    assert not F.flags.writeable
    with pytest.raises(ValueError):
        F[0, 0, 0] = 2.0
    assert np.all(state.phi == 1.0)


@pytest.mark.parametrize("name", ["biload_demo", "forest_fire_minimal"])
def test_equal_meshes_give_byte_equal_sweeps(name):
    params, problem, controls = _model(name)
    twin = build_mesh(1.0, 6, 0.0, 1.0, 6)
    assert twin == MESH and twin is not MESH
    cfg = SolverConfig(relax=models.picard_relax_hint(params, MESH))
    state, _ = forward.solve_forward(problem, MESH, controls, cfg)
    images = [pack(sweep_map(problem, mesh, state, controls)) for mesh in (MESH, twin)]
    assert images[0].tobytes() == images[1].tobytes()
    slots = derive_slots(MESH, state)
    costate, _ = adjoint.solve_costate(problem, MESH, state, slots, controls, cfg)
    a, b = (
        adjoint.assemble_h_partials(problem, mesh, state, slots, controls, costate)
        for mesh in (MESH, twin)
    )
    assert a.keys() == b.keys()
    assert all(a[k].tobytes() == b[k].tobytes() for k in a)


def test_zero_partials_are_fresh_writable_zeros():
    problem = Problem(n=2, m_u=1, m_w=3, kernels={})
    first = _zero_partials(problem, MESH)
    for slot, arr in first.items():
        L = next(L for L in LAYOUTS if slot in adjoint.SLOT_FAMILIES[L.family])
        assert arr.shape == L.nodes(MESH) + (problem.slot_dim(slot),)
        assert arr.flags.writeable and arr.flags.c_contiguous and not arr.any()
        arr[...] = 7.0
    second = _zero_partials(problem, MESH)
    assert all(not arr.any() for arr in second.values())
    assert all(np.all(arr == 7.0) for arr in first.values())


def test_gradient_check_builds_one_partial_cache(monkeypatch):
    # with the dense oracle or without it: the oracle reads no partials
    params, problem, controls = _model("lq_volterra")
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return partial_cache(*args, **kwargs)

    monkeypatch.setattr(adjoint, "partial_cache", counted)
    cfg = SolverConfig(tol=1e-12, relax=models.picard_relax_hint(params, MESH), max_iter=2000)
    verify.gradient_check(problem, MESH, controls, n_dirs=1, cfg=cfg, use_dto=True, blocks=["u"])
    assert len(calls) == 1
    verify.gradient_check(problem, MESH, controls, n_dirs=1, cfg=cfg, use_dto=False, blocks=["u"])
    assert len(calls) == 2


def test_flat_iterate_keeps_gradient_check_entries():
    # one partial cache or two at the same snapshot: the same bits
    params, problem, controls = _model("biload_demo")
    cfg = SolverConfig(tol=1e-12, relax=models.picard_relax_hint(params, MESH), max_iter=2000)
    report = verify.gradient_check(problem, MESH, controls, n_dirs=1, cfg=cfg, blocks=["u"])
    state, _ = forward.solve_forward(problem, MESH, controls, cfg)
    slots = derive_slots(MESH, state)
    cache = partial_cache(problem, MESH, (state, slots, controls))
    costate, _ = adjoint.solve_costate(problem, MESH, state, slots, controls, cfg, cache)
    grad = adjoint.control_gradient(problem, MESH, state, slots, controls, costate, cache)
    assert report.grad.g_u.tobytes() == grad.g_u.tobytes()
    assert pack(report.costate).tobytes() == pack(costate).tobytes()
