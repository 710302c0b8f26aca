"""The raw-array contraction of consumer-time-stationary terms against the
broadcast einsum it replaces.

The oracles below are the one-call einsums over the (Nt+1)-fold broadcast
that `forward_contract` and `transpose_contract` ran for every term before
the raw path existed.  Every term must agree with them to 1e-13 relative;
terms that do not take the raw path (all of heat and biload_demo among
them) must agree bit for bit, because benchmark failure counts follow the
floating-point bits."""

import numpy as np
import pytest

from biload import forward, models, state
from biload.errors import KernelEvalError
from biload.kernels import (
    TERMS,
    Kernel,
    Problem,
    eval_kernel,
    eval_kernel_partial,
    forward_contract,
    transpose_contract,
)
from biload.mesh import build_mesh
from test_full_table import _full_problem

RTOL = 1e-13
BITWISE = ("heat", "biload_demo")


def oracle_forward(mesh, kid, F):
    """forward_contract as one einsum over the broadcast array F."""
    shape = TERMS[kid]
    ops, subs = [], []
    if shape.time_rel == "volterra":
        ops.append(mesh.volterra_lower)
        subs.append(shape.consumer[0] + "k")
    elif shape.time_rel == "full":
        ops.append(mesh.wt)
        subs.append("k")
    if shape.space_rel == "omega":
        ops.append(mesh.wx)
        subs.append("l")
    elif shape.space_rel == "gamma":
        ops.append(np.ones(2))
        subs.append("e")
    return np.einsum(
        ",".join(subs + [shape.full + "n"]) + "->" + shape.consumer + "n", *ops, F
    )


def oracle_transposed(mesh, kid, lam, P):
    """transpose_contract as one einsum over the broadcast partial P."""
    shape = TERMS[kid]
    ops, subs = [], []
    if shape.time_rel == "volterra":
        ops.append(mesh.volterra_upper)
        subs.append(shape.consumer[0] + "k")
    own = shape.slot_letters[shape.family]
    if "j" in shape.consumer and "j" not in own:
        ops.append(mesh.wx)
        subs.append("j")
    return np.einsum(
        ",".join([shape.consumer + "n", shape.full + "nd"] + subs)
        + "->" + "".join(own) + "d",
        lam, P, *ops,
    )


def _random_state(mesh, problem, rng):
    st = state.zero_state(mesh, problem.n)
    for block in st.blocks():
        block[...] = 0.1 * rng.standard_normal(block.shape)
    controls = state.zero_controls(mesh, problem.m_u, problem.m_w)
    for block in state.CONTROL_BLOCKS:
        arr = getattr(controls, block)
        arr[...] = 0.1 * rng.standard_normal(arr.shape)
    return (st, state.derive_slots(mesh, st), controls)


def _takes_raw_path(shape, arr):
    return shape.stationary_axis is not None and arr.strides[shape.stationary_axis] == 0


def _contractions(problem, mesh):
    """(label, engine result, oracle result, raw path taken) for the forward
    contraction and every partial's transpose of every kernel of problem at
    a random state."""
    rng = np.random.default_rng(7)
    tables = _random_state(mesh, problem, rng)
    for kid, kernel in problem.kernels.items():
        shape = TERMS[kid]
        lam = rng.standard_normal(
            state.node_shape(shape.consumer, mesh.Nt, mesh.Nx) + (problem.n,)
        )
        F = eval_kernel(problem, kid, mesh, tables)
        yield (f"{kid} forward", forward_contract(mesh, kid, F),
               oracle_forward(mesh, kid, F), _takes_raw_path(shape, F))
        for slot in kernel.partials:
            P = eval_kernel_partial(problem, kid, slot, mesh, tables)
            yield (f"{kid} partial wrt {slot}", transpose_contract(mesh, kid, lam, P),
                   oracle_transposed(mesh, kid, lam, P), _takes_raw_path(shape, P))


CASES = [(name, 24 if name == "forest_fire_minimal" else 16) for name in models.MODEL_NAMES]


def _problem(name):
    if name == "full_table":
        return _full_problem()
    return models.make_model(models.make_params(name))


@pytest.mark.parametrize("name,N", CASES + [("full_table", 16)])
def test_contractions_match_broadcast_oracle(name, N):
    mesh = build_mesh(0.05, N, 0.0, 1.0, N)
    for label, got, want, _ in _contractions(_problem(name), mesh):
        scale = max(np.max(np.abs(want)), np.finfo(float).tiny)
        assert np.max(np.abs(got - want)) <= RTOL * scale, (name, label)
        if name in BITWISE:
            assert np.array_equal(got, want), (name, label)


def test_only_fire_radiation_takes_the_raw_path():
    taken = set()
    for name, N in CASES:
        mesh = build_mesh(0.05, N, 0.0, 1.0, N)
        for label, got, want, raw in _contractions(_problem(name), mesh):
            if raw:
                taken.add((name, label))
            else:
                assert np.array_equal(got, want), (name, label)
    assert taken == {
        ("forest_fire_minimal", "f3 forward"),
        ("forest_fire_minimal", "f3 partial wrt phi"),
    }


def test_nan_in_stationary_kernel_keeps_the_first_bad_index():
    """A NaN planted in an f3-shaped raw array (no consumer-time axis) is
    reported at the first bad index of the broadcast, in C order."""
    mesh = build_mesh(0.05, 5, 0.0, 1.0, 6)

    def radiation(a):
        out = np.exp(-((a.x - a.y) ** 2)) * np.tanh(a.phi)
        out[0, 3, 2, 5, 0] = np.nan
        out[0, 1, 4, 0, 0] = np.inf
        return out

    problem = Problem(n=1, m_u=0, m_w=0, kernels={"f3": Kernel(fn=radiation)})
    controls = state.zero_controls(mesh, 0, 0)
    with pytest.raises(KernelEvalError) as info:
        forward.sweep_map(problem, mesh, state.zero_state(mesh, 1), controls)
    assert str(info.value) == "kernel f3 produced a non-finite value at grid index (0, 1, 4, 0, 0)"
