"""Members solved together along a leading axis against the per-member code
they replace.

`per_member` below is the oracle of `forward.solve_forward_many`: one
`solve_forward` per member, in order, the order in which the batch yields
them.  The batch must agree with it bit for bit, reports and error messages
included, because benchmark failure counts follow the floating-point bits.  The dense oracle's batched columns are held
to the column-by-column loop `dto_solve` ran before, written out here."""

import numpy as np
import pytest

from biload import forward, kernels, models, verify
from biload.adjoint import partial_cache
from biload.errors import ConfigError, DivergenceError, KernelEvalError
from biload.forward import SolverConfig
from biload.kernels import Kernel, Problem, eval_kernel, forward_contract, slot_tables
from biload.mesh import build_mesh
from biload.state import (
    CONTROL_BLOCKS,
    StateBundle,
    bundle_of,
    control_index,
    derive_slots,
    flat_index,
    node_shape,
    pack,
    unpack,
    zero_controls,
    zero_state,
)

MESH = build_mesh(1.0, 6, 0.0, 1.0, 6)
#: control amplitude of each member: the larger, the later it converges
AMPLITUDES = (0.0, 0.1, 10.0, 1000.0)


def per_member(problem, mesh, controls_list, cfg):
    return [forward.solve_forward(problem, mesh, c, cfg) for c in controls_list]


def batched(monkeypatch, problem, mesh, controls_list, cfg):
    """solve_forward_many, failing if it falls back to one solve per member."""

    def no_fallback(*args):
        raise AssertionError("the batch raised and was solved member by member")

    with monkeypatch.context() as patch:
        patch.setattr(forward, "solve_forward", no_fallback)
        return list(forward.solve_forward_many(problem, mesh, controls_list, cfg))


def _members(name, amplitudes=AMPLITUDES):
    params = models.make_params(name)
    problem = models.make_model(params)
    members = []
    for k, amp in enumerate(amplitudes):
        controls = zero_controls(MESH, problem.m_u, problem.m_w)
        rng = np.random.default_rng(k)
        for block in controls.names:
            m = problem.slot_dim(block)
            if m:
                getattr(controls, block)[...] = amp * verify.smooth_direction(MESH, block, m, rng)
        members.append(controls)
    return params, problem, members


def _assert_same(new, old):
    assert len(new) == len(old)
    for (x_new, rep_new), (x_old, rep_old) in zip(new, old):
        for a, b in zip(x_new.blocks(), x_old.blocks()):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert rep_new.residual_history == rep_old.residual_history
        assert rep_new.iterations == rep_old.iterations
        assert repr(rep_new) == repr(rep_old)


def _error(solve) -> str:
    with pytest.raises((DivergenceError, KernelEvalError)) as info:
        solve()
    return f"{type(info.value).__name__}: {info.value}"


@pytest.mark.parametrize("name", models.MODEL_NAMES)
@pytest.mark.parametrize("scale", [1.0, 0.8])
def test_members_match_their_own_solves(monkeypatch, name, scale):
    params, problem, members = _members(name)
    relax = scale * models.picard_relax_hint(params, MESH)
    cfg = SolverConfig(tol=1e-10, relax=relax, max_iter=3000)
    old = per_member(problem, MESH, members, cfg)
    iters = [rep.iterations for _, rep in old]
    assert all(rep.converged for _, rep in old)
    _assert_same(batched(monkeypatch, problem, MESH, members, cfg), old)
    if name == "volterra_exp":  # no control enters its dynamics
        assert len(set(iters)) == 1
        return
    assert len(set(iters)) > 1, iters  # members leave the batch at different sweeps
    # the slowest member stops at max_iter while the others converge
    cut = SolverConfig(tol=1e-10, relax=relax, max_iter=max(iters) - 1)
    old = per_member(problem, MESH, members, cut)
    assert [rep.converged for _, rep in old].count(False) >= 1
    assert any(rep.converged for _, rep in old)
    _assert_same(batched(monkeypatch, problem, MESH, members, cut), old)


@pytest.mark.parametrize("name", ["heat", "biload_demo"])
def test_members_split_across_chunks(monkeypatch, name):
    params, problem, members = _members(name, AMPLITUDES + (0.7, 0.01, 1.5))
    cfg = SolverConfig(tol=1e-10, relax=models.picard_relax_hint(params, MESH), max_iter=3000)
    old = per_member(problem, MESH, members, cfg)
    assert len(forward.member_chunks(problem, MESH, len(members))) == 1
    largest = max(np.prod(node_shape(kernels.TERMS[k].full, MESH.Nt, MESH.Nx)) for k in problem.kernels)
    monkeypatch.setattr(forward, "BATCH_BYTES", 3 * 8 * problem.n * int(largest))
    chunks = forward.member_chunks(problem, MESH, len(members))
    assert [len(c) for c in chunks] == [3, 3, 1]
    _assert_same(batched(monkeypatch, problem, MESH, members, cfg), old)


def _loading_problem(fn0=lambda a: a.u, fn00=lambda a: a.u0) -> Problem:
    """phi and phi0 loaded directly by the controls, so one member can leave
    the guard or plant a NaN while the others converge."""
    return Problem(
        n=1,
        m_u=1,
        m_w=0,
        kernels={
            "f0": Kernel(fn=fn0),
            "f1": Kernel(fn=lambda a: 0.5 * a.phi),
            "f00": Kernel(fn=fn00),
        },
    )


def _constant_members(problem, values):
    members = []
    for u, u0 in values:
        controls = zero_controls(MESH, problem.m_u, problem.m_w)
        controls.u[...] = u
        controls.u0[...] = u0
        members.append(controls)
    return members


def test_a_member_leaving_the_guard_raises_as_alone(monkeypatch):
    problem = _loading_problem()
    # member 1 leaves the guard through phi0, member 2 through phi; the batch
    # sees phi first, a loop of solves stops at member 1
    members = _constant_members(problem, [(0.1, 0.2), (0.1, 1e9), (1e9, 0.0), (0.3, 0.1)])
    cfg = SolverConfig(tol=1e-12)
    old = _error(lambda: per_member(problem, MESH, members, cfg))
    assert old == "DivergenceError: iteration diverged: block phi0 exceeded guard 1e+08"
    assert _error(lambda: list(forward.solve_forward_many(problem, MESH, members, cfg))) == old
    # without the failing members the rest still solve bit for bit
    keep = [members[0], members[3]]
    _assert_same(batched(monkeypatch, problem, MESH, keep, cfg), per_member(problem, MESH, keep, cfg))


def test_a_member_planting_a_nan_raises_as_alone():
    problem = _loading_problem(fn0=lambda a: np.where(a.u > 5.0, np.nan, a.u) + 0.0 * a.t)
    members = _constant_members(problem, [(0.1, 0.2), (0.2, 0.1), (6.0, 0.0)])
    members[2].u[:3] = 0.0  # the first bad grid index is not the first node
    cfg = SolverConfig(tol=1e-12)
    old = _error(lambda: per_member(problem, MESH, members, cfg))
    assert old == "KernelEvalError: kernel f0 produced a non-finite value at grid index (3, 0, 0)"
    assert _error(lambda: list(forward.solve_forward_many(problem, MESH, members, cfg))) == old


def test_an_earlier_non_convergence_is_reported_before_a_later_raise():
    problem = _loading_problem(fn0=lambda a: np.where(a.u > 5.0, np.nan, a.u) + 0.0 * a.t)
    # member 0 stops at max_iter, member 1 plants a NaN on its first sweep
    members = _constant_members(problem, [(0.1, 0.2), (6.0, 0.0), (0.2, 0.1)])
    cfg = SolverConfig(tol=1e-12, max_iter=3)

    def costs(solved):  # as gradient_check takes them
        return [verify._fd_cost(problem, MESH, c, pair) for c, pair in zip(members, solved)]

    loop = (per_member(problem, MESH, [c], cfg)[0] for c in members)
    old = _error(lambda: costs(loop))
    assert old.startswith("DivergenceError: forward solve did not converge (residual ")
    assert _error(lambda: costs(forward.solve_forward_many(problem, MESH, members, cfg))) == old


def test_non_finite_fd_steps_are_refused():
    params, problem, (controls, *_) = _members("biload_demo")
    d = verify.smooth_direction(MESH, "u", 1, np.random.default_rng(0))
    for eps in (np.nan, np.inf, 0.0, -1e-5):
        with pytest.raises(ConfigError, match="eps must be positive and finite"):
            verify.fd_directional(problem, MESH, controls, "u", d, eps)


def test_an_empty_block_list_is_refused():
    params, problem, (controls, *_) = _members("biload_demo")
    with pytest.raises(ConfigError, match="at least one control block"):
        verify.gradient_check(problem, MESH, controls, blocks=[])


@pytest.mark.parametrize("name", ["heat", "biload_demo"])
def test_gradient_check_matches_the_per_direction_loop(monkeypatch, name):
    params, problem, (_, _, controls, _) = _members(name)
    cfg = SolverConfig(tol=1e-12, relax=models.picard_relax_hint(params, MESH), max_iter=4000)
    blocks = ["u", "w", "w0"] if name == "heat" else ["u", "uT", "wT"]
    with monkeypatch.context() as patch:
        patch.setattr(verify, "solve_forward_many", lambda *a: batched(monkeypatch, *a))
        report = verify.gradient_check(
            problem, MESH, controls, n_dirs=2, seed=3, cfg=cfg, blocks=blocks
        )
    rng = np.random.default_rng(3)
    fds = []
    for block in blocks:
        for _ in range(2):
            d = verify.smooth_direction(MESH, block, problem.slot_dim(block), rng)
            fds.append(verify.fd_directional(problem, MESH, controls, block, d, 1e-5, cfg))
    assert [e.fd for e in report.entries] == fds
    assert [(e.block, e.direction) for e in report.entries] == [
        (b, k) for b in blocks for k in range(2)
    ]


def per_column_dto(problem, mesh, controls, cfg):
    """dto_solve's column-by-column assembly: gradient and multipliers."""
    idx = flat_index(mesh, problem.n)
    state, _ = forward.solve_forward(problem, mesh, controls, cfg)
    cache = partial_cache(problem, mesh, slot_tables(state, derive_slots(mesh, state), controls))
    N = idx.total
    A, dJdPhi = np.empty((N, N)), np.empty(N)
    zctrl = zero_controls(mesh, problem.m_u, problem.m_w)
    basis = np.zeros(N)
    for col in range(N):
        basis[col] = 1.0
        dsw, dtables = verify._linearized_sweep(problem, mesh, cache, unpack(idx, basis), zctrl)
        A[:, col] = dsw.flat - basis
        dJdPhi[col] = verify._linearized_cost(problem, mesh, cache, dtables)
        basis[col] = 0.0
    cidx = control_index(mesh, problem.m_u, problem.m_w)
    M = cidx.total
    B, dJdU = np.empty((N, M)), np.empty(M)
    zst = zero_state(mesh, problem.n)
    cbasis = np.zeros(M)
    for col in range(M):
        cbasis[col] = 1.0
        dsw, dtables = verify._linearized_sweep(problem, mesh, cache, zst, unpack(cidx, cbasis))
        B[:, col] = dsw.flat
        dJdU[col] = verify._linearized_cost(problem, mesh, cache, dtables)
        cbasis[col] = 0.0
    lam = np.linalg.solve(A.T, -dJdPhi)
    return dJdU + B.T @ lam, lam


@pytest.mark.parametrize("name", ["biload_demo", "forest_fire_minimal", "integral_cv_barenblatt"])
def test_batched_dense_oracle_matches_the_column_loop(monkeypatch, name):
    params, problem, (_, _, controls, _) = _members(name)
    mesh = build_mesh(0.05, 5, 0.0, 1.0, 5)
    controls = zero_controls(mesh, problem.m_u, problem.m_w)
    controls.u[...] = 0.2
    cfg = SolverConfig(tol=1e-12, relax=models.picard_relax_hint(params, mesh), max_iter=4000)
    grad, lam = per_column_dto(problem, mesh, controls, cfg)
    for budget in (forward.BATCH_BYTES, 40_000):  # one chunk, then several
        monkeypatch.setattr(forward, "BATCH_BYTES", budget)
        dto = verify.dto_solve(problem, mesh, controls, cfg)
        assert np.concatenate([dto.grad.block(b).ravel() for b in CONTROL_BLOCKS]).tobytes() == grad.tobytes()
        assert pack(dto.multipliers).tobytes() == lam.tobytes()


def test_fire_radiation_term_keeps_the_raw_path_per_member(monkeypatch):
    problem = models.make_model(models.make_params("forest_fire_minimal"))
    mesh = build_mesh(0.01, 6, 0.0, 1.0, 6)
    rng = np.random.default_rng(4)
    idx = flat_index(mesh, 1)
    flat = 0.3 * rng.standard_normal((3, idx.total))
    batch = bundle_of(StateBundle, flat, idx.shapes)
    controls = zero_controls(mesh, problem.m_u, problem.m_w)
    raw = []
    monkeypatch.setattr(
        kernels, "_raw_contract", lambda *a, _f=kernels._raw_contract: raw.append(1) or _f(*a)
    )

    def contracted(state, lead):
        tables = slot_tables(state, derive_slots(mesh, state), controls)
        F = eval_kernel(problem, "f3", mesh, tables, lead=lead)
        assert F.shape[: len(lead)] == lead
        return forward_contract(mesh, "f3", F)

    together = contracted(batch, (3,))
    assert together.shape == (3, 7, 7, 1) and raw == [1]
    for k in range(3):
        alone = contracted(unpack(idx, flat[k].copy()), ())
        assert alone.tobytes() == together[k].tobytes()
    assert len(raw) == 4
