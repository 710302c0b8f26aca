"""Members solved together along a leading axis against the per-member code
they replace.

`per_member` below is the oracle of `forward.solve_forward_many`: one
`solve_forward` per member, in order, the order in which the batch yields
them.  The batch must agree with it bit for bit, reports included, and a
member whose own solve raises must end with that error in its report,
because benchmark failure counts follow the floating-point bits.  The dense
oracle's batched columns are held to the hand linearization run column by
column (`linearized.hand_dto`)."""

import numpy as np
import pytest

from biload import forward, kernels, models, verify
from biload.errors import ConfigError, DivergenceError, KernelEvalError, ShapeError
from biload.forward import SolverConfig
from biload.kernels import Kernel, Problem, eval_kernel, forward_contract
from biload.mesh import build_mesh
from biload.state import (
    CONTROL_BLOCKS,
    StateBundle,
    bundle_of,
    derive_slots,
    node_shape,
    pack,
    zero_controls,
    zero_state,
)
from linearized import assert_agree, hand_dto

MESH = build_mesh(1.0, 6, 0.0, 1.0, 6)
#: control amplitude of each member: the larger, the later it converges
AMPLITUDES = (0.0, 0.1, 10.0, 1000.0)
#: lq_volterra is linear, and Anderson takes the same sweeps on it up to
#: amplitude 1000; only a solution large against the absolute tolerance
#: takes more
LINEAR_AMPLITUDES = (0.0, 0.1, 1e4, 1e5)


def per_member(problem, mesh, controls_list, cfg):
    return [forward.solve_forward(problem, mesh, c, cfg) for c in controls_list]


def batched(problem, mesh, controls_list, cfg):
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


def _own_outcomes(problem, controls_list, cfg) -> list:
    """Each member's own solve_forward: (state, report), or its error text."""
    out = []
    for controls in controls_list:
        try:
            out.append(forward.solve_forward(problem, MESH, controls, cfg))
        except (DivergenceError, KernelEvalError) as exc:
            out.append(f"{type(exc).__name__}: {exc}")
    return out


def _assert_outcomes(new, old):
    """Batched (state, report) pairs against _own_outcomes: a member whose own
    solve raises carries that error, the others their own bits."""
    assert len(new) == len(old)
    for (x_new, rep_new), own in zip(new, old):
        if isinstance(own, str):
            assert f"{type(rep_new.error).__name__}: {rep_new.error}" == own
            assert not rep_new.converged
        else:
            assert rep_new.error is None
            _assert_same([(x_new, rep_new)], [own])


@pytest.mark.parametrize("name", models.MODEL_NAMES)
@pytest.mark.parametrize("scale", [1.0, 0.8])
def test_members_match_their_own_solves(name, scale):
    amplitudes = LINEAR_AMPLITUDES if name == "lq_volterra" else AMPLITUDES
    params, problem, members = _members(name, amplitudes)
    relax = scale * models.picard_relax_hint(params, MESH)
    cfg = SolverConfig(tol=1e-10, relax=relax, max_iter=3000)
    old = per_member(problem, MESH, members, cfg)
    iters = [rep.iterations for _, rep in old]
    assert all(rep.converged for _, rep in old)
    _assert_same(batched(problem, MESH, members, cfg), old)
    if name == "volterra_exp":  # no control enters its dynamics
        assert len(set(iters)) == 1
        return
    assert len(set(iters)) > 1, iters  # members leave the batch at different sweeps
    # the slowest member stops at max_iter while the others converge
    cut = SolverConfig(tol=1e-10, relax=relax, max_iter=max(iters) - 1)
    old = per_member(problem, MESH, members, cut)
    assert [rep.converged for _, rep in old].count(False) >= 1
    assert any(rep.converged for _, rep in old)
    _assert_same(batched(problem, MESH, members, cut), old)


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
    _assert_same(batched(problem, MESH, members, cfg), old)


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


def test_a_member_leaving_the_guard_raises_as_alone():
    problem = _loading_problem()
    # member 1 leaves the guard through phi0, member 2 through phi
    members = _constant_members(problem, [(0.1, 0.2), (0.1, 1e9), (1e9, 0.0), (0.3, 0.1)])
    cfg = SolverConfig(tol=1e-12)
    old = _own_outcomes(problem, members, cfg)
    assert old[1:3] == [
        "DivergenceError: iteration diverged: block phi0 exceeded guard 1e+08",
        "DivergenceError: iteration diverged: block phi exceeded guard 1e+08",
    ]
    _assert_outcomes(batched(problem, MESH, members, cfg), old)


def test_a_member_planting_a_nan_raises_as_alone():
    problem = _loading_problem(fn0=lambda a: np.where(a.u > 5.0, np.nan, a.u) + 0.0 * a.t)
    members = _constant_members(problem, [(0.1, 0.2), (0.2, 0.1), (6.0, 0.0)])
    members[2].u[:3] = 0.0  # the first bad grid index is not the first node
    cfg = SolverConfig(tol=1e-12)
    old = _own_outcomes(problem, members, cfg)
    assert old[2] == "KernelEvalError: kernel f0 produced a non-finite value at grid index (3, 0, 0)"
    _assert_outcomes(batched(problem, MESH, members, cfg), old)


def test_a_nan_shared_by_every_member_ends_each_as_alone():
    # the kernel reads no slot, so its value has stride 0 along the member axis
    problem = _loading_problem(fn0=lambda a: np.where(a.t > 0.5, np.nan, 1.0) + 0.0 * a.x)
    members = _constant_members(problem, [(0.1, 0.2), (0.2, 0.1), (6.0, 0.0)])
    cfg = SolverConfig(tol=1e-12)
    old = _own_outcomes(problem, members, cfg)
    assert old == ["KernelEvalError: kernel f0 produced a non-finite value at grid index (4, 0, 0)"] * 3
    _assert_outcomes(batched(problem, MESH, members, cfg), old)


#: The largest value of phi at the fixed point of _loading_problem at u = 6.
PHI_STAR = 9.895193387868261


def test_each_member_of_a_mixed_batch_ends_as_alone():
    # the member at u = 6 goes NaN where phi comes within 1e-10 of PHI_STAR:
    # on its ninth sweep, once its Anderson history has wrapped, so the others
    # sweep that iterate again without it
    problem = _loading_problem(fn0=lambda a: np.where(abs(a.phi - PHI_STAR) < 1e-10, np.nan, a.u))
    members = _constant_members(problem, [(0.1, 0.2), (6.0, 0.0), (1e5, 0.0), (1e9, 0.0), (0.3, 0.1)])
    cfg = SolverConfig(tol=1e-12, max_iter=11)
    old = _own_outcomes(problem, members, cfg)
    assert old[1] == "KernelEvalError: kernel f0 produced a non-finite value at grid index (6, 1, 0)"
    assert old[3] == "DivergenceError: iteration diverged: block phi exceeded guard 1e+08"
    assert [old[k][1].converged for k in (0, 2, 4)] == [True, False, True]  # member 2 at max_iter
    assert old[0][1].iterations == 9 and old[4][1].iterations == 10
    new = batched(problem, MESH, members, cfg)
    _assert_outcomes(new, old)
    assert new[1][1].iterations == 8 > forward.ANDERSON_DEPTH
def test_a_kernel_indexing_from_the_left_raises_shape_error_in_a_batch():
    # u[..., 0][:, :, None] puts the component axis back in third place: right
    # for a single solve, behind the member axis's grid axes in a batch
    problem = _loading_problem(fn0=lambda a: a.u[..., 0][:, :, None])
    members = _constant_members(problem, [(0.1, 0.2), (0.2, 0.1)])
    cfg = SolverConfig(tol=1e-12)
    assert all(rep.converged for _, rep in per_member(problem, MESH, members, cfg))
    with pytest.raises(ShapeError, match=r"kernel f0: shape \(2, 7, 1, 7\) does not broadcast to \(2, 7, 7, 1\)"):
        batched(problem, MESH, members, cfg)


def _member_cost(problem, mesh, controls, solved):
    """The cost of one member at its forward solution (state, report), or
    the solve's error: the per-member loop that verify._fd_costs batches."""
    state = verify._solved_state(solved)
    return forward.eval_cost(problem, mesh, state, derive_slots(mesh, state), controls)


def test_an_earlier_non_convergence_is_reported_before_a_later_raise():
    problem = _loading_problem(fn0=lambda a: np.where(a.u > 5.0, np.nan, a.u) + 0.0 * a.t)
    # member 0 stops at max_iter, member 1 plants a NaN on its first sweep
    members = _constant_members(problem, [(0.1, 0.2), (6.0, 0.0), (0.2, 0.1)])
    cfg = SolverConfig(tol=1e-12, max_iter=3)

    loop = (per_member(problem, MESH, [c], cfg)[0] for c in members)
    old = _error(lambda: [_member_cost(problem, MESH, c, pair) for c, pair in zip(members, loop)])
    assert old.startswith("DivergenceError: forward solve did not converge (residual ")
    # as gradient_check takes them
    solved = forward.solve_forward_many(problem, MESH, members, cfg)
    assert _error(lambda: verify._fd_costs(problem, MESH, members, solved)) == old


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


def _check_and_cold_loop(name, **kwargs):
    """gradient_check with kwargs, its FD members' iteration counts, and
    the cold per-direction loop's quotients for the same directions."""
    params, problem, (_, _, controls, _) = _members(name)
    cfg = SolverConfig(tol=1e-12, relax=models.picard_relax_hint(params, MESH), max_iter=4000)
    blocks = ["u", "w", "w0"] if name == "heat" else ["u", "uT", "wT"]
    sweeps = []

    def counted(*args):
        for state, report in forward.solve_forward_many(*args):
            sweeps.append(report.iterations)
            yield state, report

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "solve_forward_many", counted)
        report = verify.gradient_check(problem, MESH, controls, n_dirs=2, seed=3, cfg=cfg,
                                       blocks=blocks, **kwargs)
    assert [(e.block, e.direction) for e in report.entries] == [
        (b, k) for b in blocks for k in range(2)
    ]
    rng = np.random.default_rng(3)
    fds = []
    for block in blocks:
        for _ in range(2):
            d = verify.smooth_direction(MESH, block, problem.slot_dim(block), rng)
            fds.append(verify.fd_directional(problem, MESH, controls, block, d, 1e-5, cfg))
    return [e.fd for e in report.entries], sweeps, fds


@pytest.mark.parametrize("name", ["heat", "biload_demo"])
def test_gradient_check_matches_the_per_direction_loop(name):
    # without the dense oracle the members start from zero, as
    # fd_directional's solves do
    got, _, fds = _check_and_cold_loop(name, use_dto=False)
    assert got == fds


@pytest.mark.parametrize("name", ["heat", "biload_demo"])
def test_predicted_starts_agree_with_the_per_direction_loop(name):
    got, sweeps, fds = _check_and_cold_loop(name)
    _, cold, _ = _check_and_cold_loop(name, use_dto=False)
    np.testing.assert_allclose(got, fds, rtol=1e-6, atol=0.0)
    assert max(sweeps) <= 2 < min(cold)  # a first-order start is one or two sweeps from tol


@pytest.mark.parametrize("name", ["heat", "biload_demo"])
def test_a_zero_tangent_start_still_agrees_with_the_per_direction_loop(monkeypatch, name):
    # the members start at the base state itself: the quotient rests on
    # each member's own residual test, not on the tangent
    real = verify.DtoResult.tangents

    def zero_tangents(dto, directions):
        tangents = real(dto, directions)
        for tangent in tangents:
            tangent.flat[...] = 0.0
        return tangents

    monkeypatch.setattr(verify.DtoResult, "tangents", zero_tangents)
    got, _, fds = _check_and_cold_loop(name)
    np.testing.assert_allclose(got, fds, rtol=1e-6, atol=0.0)


@pytest.mark.parametrize("name", ["biload_demo", "forest_fire_minimal", "integral_cv_barenblatt"])
def test_batched_dense_oracle_matches_the_column_loop(monkeypatch, name):
    params, problem, (_, _, controls, _) = _members(name)
    mesh = build_mesh(0.05, 5, 0.0, 1.0, 5)
    controls = zero_controls(mesh, problem.m_u, problem.m_w)
    controls.u[...] = 0.2
    cfg = SolverConfig(tol=1e-12, relax=models.picard_relax_hint(params, mesh), max_iter=4000)
    state, _ = forward.solve_forward(problem, mesh, controls, cfg)
    want = hand_dto(problem, mesh, state, controls)
    for budget in (forward.BATCH_BYTES, 40_000):  # one chunk, then several
        monkeypatch.setattr(forward, "BATCH_BYTES", budget)
        dto = verify.dto_solve(problem, mesh, state, controls)
        got = np.concatenate([dto.grad.block(b).ravel() for b in CONTROL_BLOCKS]), pack(dto.multipliers)
        for new, old in zip(got, want):
            assert_agree(name, new, old)


def _member_inputs(problem, mesh, count, seed):
    """count random states and count random controls, each as one member
    bundle and as the list of its members."""
    rng = np.random.default_rng(seed)
    out = []
    for zero in (zero_state(mesh, problem.n), zero_controls(mesh, problem.m_u, problem.m_w)):
        cls, shapes = type(zero), zero.shapes()
        flat = 0.3 * rng.standard_normal((count, pack(zero).size))
        out += [bundle_of(cls, flat, shapes), [bundle_of(cls, row.copy(), shapes) for row in flat]]
    return out


@pytest.mark.parametrize("name", models.MODEL_NAMES)
def test_cost_of_a_member_bundle_matches_the_member_loop(name):
    problem = models.make_model(models.make_params(name))
    states, state_list, controls, control_list = _member_inputs(problem, MESH, 3, 7)
    cost = lambda st, ct: forward.eval_cost(problem, MESH, st, derive_slots(MESH, st), ct)
    # state and controls with the same member axis, or only one of them with it
    for st, ct, pairs in (
        (states, controls, list(zip(state_list, control_list))),
        (states, control_list[1], [(s, control_list[1]) for s in state_list]),
        (state_list[2], controls, [(state_list[2], c) for c in control_list]),
    ):
        together = cost(st, ct)
        assert together.shape == (3,)
        assert together.tobytes() == np.array([cost(s, c) for s, c in pairs]).tobytes()


@pytest.mark.parametrize("name", models.MODEL_NAMES)
def test_batched_fd_costs_match_the_member_loop(monkeypatch, name):
    problem = models.make_model(models.make_params(name))
    _, states, _, members = _member_inputs(problem, MESH, 5, 11)
    solved = [(s, forward.SolveReport(1, 0.0, True)) for s in states]
    want = [_member_cost(problem, MESH, c, pair) for c, pair in zip(members, solved)]
    largest = max(forward._built_size(problem, MESH, k) for k in problem.kernels)
    for budget, sizes in ((forward.BATCH_BYTES, [5]), (2 * 8 * problem.n * largest, [2, 2, 1])):
        monkeypatch.setattr(forward, "BATCH_BYTES", budget)
        assert [len(c) for c in forward.member_chunks(problem, MESH, 5)] == sizes
        assert verify._fd_costs(problem, MESH, members, solved) == want


def test_fire_radiation_term_keeps_the_raw_path_per_member(monkeypatch):
    problem = models.make_model(models.make_params("forest_fire_minimal"))
    mesh = build_mesh(0.01, 6, 0.0, 1.0, 6)
    rng = np.random.default_rng(4)
    zero = zero_state(mesh, 1)
    flat = 0.3 * rng.standard_normal((3, pack(zero).size))
    batch = bundle_of(StateBundle, flat, zero.shapes())
    controls = zero_controls(mesh, problem.m_u, problem.m_w)
    raw = []
    monkeypatch.setattr(
        kernels, "_raw_contract", lambda *a, _f=kernels._raw_contract: raw.append(1) or _f(*a)
    )

    def contracted(state, lead):
        tables = (state, derive_slots(mesh, state), controls)
        F = eval_kernel(problem, "f3", mesh, tables, lead=lead)
        assert F.shape[: len(lead)] == lead
        return forward_contract(mesh, "f3", F)

    together = contracted(batch, (3,))
    assert together.shape == (3, 7, 7, 1) and raw == [1]
    for k in range(3):
        alone = contracted(bundle_of(StateBundle, flat[k].copy(), zero.shapes()), ())
        assert alone.tobytes() == together[k].tobytes()
    assert len(raw) == 4
