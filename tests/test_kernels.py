"""Engine checks: every kernel layout and contraction is compared against
hand-written loops over the defining quadrature formulas, on a grid with
pairwise-distinct axis lengths so any transposed or misplaced axis is
caught."""

import zlib

import numpy as np
import pytest

from biload.errors import ConfigError, KernelEvalError
from biload.kernels import (
    KERNEL_IDS,
    KERNEL_SHAPES,
    SLOT_FAMILIES,
    CostTerm,
    Kernel,
    Problem,
    eval_kernel,
    forward_contract,
    transpose_contract,
    validate_partials,
)
from biload.mesh import build_mesh
from biload.state import ControlBundle, StateBundle, derive_slots

N_DIM, M_U, M_W = 2, 1, 3
MESH = build_mesh(1.3, 5, -0.4, 0.8, 4)

_COORD_COEF = {"t": 2.0, "x": 3.0, "s": 5.0, "y": 7.0, "xi": 11.0, "eta": 13.0}


def _slot_dim(slot):
    if slot in ("u", "u0", "uT"):
        return M_U
    if slot in ("w", "w0", "wT"):
        return M_W
    return N_DIM


def _coef_matrix(kid, slot):
    rng = np.random.default_rng(zlib.crc32(f"{kid}/{slot}".encode()))
    return rng.standard_normal((N_DIM, _slot_dim(slot)))


def _make_kernel(kid):
    """Kernel value: (1 + sum coef * coord) * sum_slots A_slot sigma."""
    fam = KERNEL_SHAPES[kid].family
    slots = SLOT_FAMILIES[fam]
    mats = {slot: _coef_matrix(kid, slot) for slot in slots}

    def coord_factor(a):
        out = 1.0
        for name, coef in _COORD_COEF.items():
            try:
                out = out + coef * getattr(a, name)
            except AttributeError:
                pass
        return out

    def fn(a):
        acc = 0.0
        for slot, A in mats.items():
            acc = acc + np.tensordot(getattr(a, slot), A.T, axes=(-1, 0))
        return coord_factor(a) * acc

    partials = {
        slot: (lambda a, A=A: coord_factor(a)[..., None, :] * 0.0 + coord_factor(a)[..., None] * A)
        for slot, A in mats.items()
    }
    # simpler: factor times constant matrix, broadcast over grid axes
    partials = {
        slot: (lambda a, A=A: coord_factor(a)[..., None] * A) for slot, A in mats.items()
    }
    return Kernel(fn=fn, partials=partials), mats


def _random_inputs(seed=0):
    rng = np.random.default_rng(seed)
    nt, nx = MESH.Nt + 1, MESH.Nx + 1
    state = StateBundle(
        phi=rng.standard_normal((nt, nx, N_DIM)),
        phi_bd=rng.standard_normal((nt, 2, N_DIM)),
        phi0=rng.standard_normal((nx, N_DIM)),
        phiT=rng.standard_normal((nx, N_DIM)),
        phi0_bd=rng.standard_normal((2, N_DIM)),
        phiT_bd=rng.standard_normal((2, N_DIM)),
    )
    controls = ControlBundle(
        u=rng.standard_normal((nt, nx, M_U)),
        w=rng.standard_normal((nt, 2, M_W)),
        u0=rng.standard_normal((nx, M_U)),
        uT=rng.standard_normal((nx, M_U)),
        w0=rng.standard_normal((2, M_W)),
        wT=rng.standard_normal((2, M_W)),
    )
    return state, controls


STATE, CONTROLS = _random_inputs()
SLOTS = derive_slots(MESH, STATE)
TABLES = (STATE, SLOTS, CONTROLS)

KERNELS = {}
MATS = {}
for kid in KERNEL_IDS:
    KERNELS[kid], MATS[kid] = _make_kernel(kid)

PROBLEM = Problem(n=N_DIM, m_u=M_U, m_w=M_W, kernels=KERNELS)


# ---------------------------------------------------------------------------
# Brute-force reference machinery
# ---------------------------------------------------------------------------


def _slot_value(fam, slot, tk, sp):
    arr = next(getattr(src, slot) for src in (STATE, SLOTS, CONTROLS) if hasattr(src, slot))
    if fam in ("S", "S_bd"):
        return arr[tk, sp]
    return arr[sp]


def _formula(kid, coords, tk, sp):
    fam = KERNEL_SHAPES[kid].family
    factor = 1.0
    for name, coef in _COORD_COEF.items():
        if name in coords:
            factor += coef * coords[name]
    acc = np.zeros(N_DIM)
    for slot, A in MATS[kid].items():
        acc += A @ _slot_value(fam, slot, tk, sp)
    return factor * acc


def _formula_partial(kid, slot, coords):
    factor = 1.0
    for name, coef in _COORD_COEF.items():
        if name in coords:
            factor += coef * coords[name]
    return factor * MATS[kid][slot]


def _volterra_weights(i):
    if i == 0:
        return []
    w = [(k, MESH.dt) for k in range(i + 1)]
    w[0] = (0, MESH.dt / 2)
    w[-1] = (i, MESH.dt / 2)
    return w


def _full_weights():
    w = [(k, MESH.dt) for k in range(MESH.Nt + 1)]
    w[0] = (0, MESH.dt / 2)
    w[-1] = (MESH.Nt, MESH.dt / 2)
    return w


def _space_weights():
    w = [(l, MESH.dx) for l in range(MESH.Nx + 1)]
    w[0] = (0, MESH.dx / 2)
    w[-1] = (MESH.Nx, MESH.dx / 2)
    return w


def _consumers(eq):
    nt, nx = MESH.Nt + 1, MESH.Nx + 1
    if eq == "interior":
        return [(i, j) for i in range(nt) for j in range(nx)]
    if eq == "boundary":
        return [(i, b) for i in range(nt) for b in range(2)]
    if eq in ("initial", "final"):
        return [(j,) for j in range(nx)]
    return [(b,) for b in range(2)]


def _consumer_coords(eq, node):
    if eq == "interior":
        return {"t": MESH.t[node[0]], "x": MESH.x[node[1]]}
    if eq == "boundary":
        return {"t": MESH.t[node[0]], "xi": MESH.bd_x[node[1]]}
    if eq in ("initial", "final"):
        return {"x": MESH.x[node[0]]}
    return {"xi": MESH.bd_x[node[0]]}


def _producers(kid, node):
    """(tk, sp, weight, coords-extra) tuples for one consumer node."""
    shape = KERNEL_SHAPES[kid]
    eq, time_rel, space_rel = shape.eq, shape.time_rel, shape.space_rel
    has_time = eq in ("interior", "boundary")
    if time_rel == "same":
        times = [(node[0], 1.0, None)]
    elif time_rel == "volterra":
        times = [(k, w, MESH.t[k]) for k, w in _volterra_weights(node[0])]
    elif time_rel == "full":
        times = [(k, w, MESH.t[k]) for k, w in _full_weights()]
    else:
        times = [(None, 1.0, None)]
    cons_space = node[1] if has_time else node[0]
    if space_rel == "same":
        spaces = [(cons_space, 1.0, None, None)]
    elif space_rel == "omega":
        spaces = [(l, w, MESH.x[l], None) for l, w in _space_weights()]
    else:
        spaces = [(e, 1.0, None, MESH.bd_x[e]) for e in range(2)]
    out = []
    for tk, wt_, sval in times:
        for sp, wx_, yval, ev in spaces:
            extra = {}
            if sval is not None:
                extra["s"] = sval
            if yval is not None:
                extra["y"] = yval
            if ev is not None:
                extra["eta"] = ev
            out.append((tk, sp, wt_ * wx_, extra))
    return out


def brute_forward(kid):
    eq = KERNEL_SHAPES[kid].eq
    nodes = _consumers(eq)
    out = {}
    for node in nodes:
        coords = _consumer_coords(eq, node)
        total = np.zeros(N_DIM)
        for tk, sp, w, extra in _producers(kid, node):
            total += w * _formula(kid, {**coords, **extra}, tk, sp)
        out[node] = total
    return out


@pytest.mark.parametrize("kid", KERNEL_IDS)
def test_forward_contraction_matches_bruteforce(kid):
    F = eval_kernel(PROBLEM, kid, MESH, TABLES)
    engine = forward_contract(MESH, kid, F)
    reference = brute_forward(kid)
    for node, expected in reference.items():
        np.testing.assert_allclose(engine[node], expected, atol=1e-12, rtol=1e-10)


# ---------------------------------------------------------------------------
# Transpose accumulation
# ---------------------------------------------------------------------------

RNG_L = np.random.default_rng(99)
LAMBDAS = {
    "interior": RNG_L.standard_normal((MESH.Nt + 1, MESH.Nx + 1, N_DIM)),
    "boundary": RNG_L.standard_normal((MESH.Nt + 1, 2, N_DIM)),
    "initial": RNG_L.standard_normal((MESH.Nx + 1, N_DIM)),
    "final": RNG_L.standard_normal((MESH.Nx + 1, N_DIM)),
    "initial_bd": RNG_L.standard_normal((2, N_DIM)),
    "final_bd": RNG_L.standard_normal((2, N_DIM)),
}


def _producer_nodes(fam):
    nt, nx = MESH.Nt + 1, MESH.Nx + 1
    if fam == "S":
        return [(k, l) for k in range(nt) for l in range(nx)]
    if fam == "S_bd":
        return [(k, e) for k in range(nt) for e in range(2)]
    if fam in ("S0", "ST"):
        return [(l,) for l in range(nx)]
    return [(e,) for e in range(2)]


def brute_transpose(kid, slot):
    """Costate-weighted accumulation onto producer nodes, by definition:
    for running kernels the free consumer time carries the transposed
    running weight wt[i] V[i,k] / wt[k]; a free interior consumer
    coordinate carries the space quadrature; a free side carries the
    counting measure; pinned coordinates carry no weight."""
    shape = KERNEL_SHAPES[kid]
    fam = shape.family
    lam = LAMBDAS[shape.eq]
    has_time = shape.eq in ("interior", "boundary")
    V = MESH.volterra_lower
    out = {}
    for pnode in _producer_nodes(fam):
        acc = np.zeros(_slot_dim(slot))
        for cnode in _consumers(shape.eq):
            coords = _consumer_coords(shape.eq, cnode)
            # producer must be reachable from this consumer
            if fam in ("S", "S_bd"):
                tk, sp = pnode
            else:
                tk, sp = None, pnode[0]
            weight = 1.0
            if shape.time_rel == "same":
                if cnode[0] != tk:
                    continue
            elif shape.time_rel == "volterra":
                i = cnode[0]
                weight *= MESH.wt[i] * V[i, tk] / MESH.wt[tk]
                if weight == 0.0:
                    continue
                coords["s"] = MESH.t[tk]
            elif shape.time_rel == "full":
                coords["s"] = MESH.t[tk]
            cons_space = cnode[1] if has_time else cnode[0]
            if shape.space_rel == "same":
                if cons_space != sp:
                    continue
            elif shape.space_rel == "omega":
                weight *= MESH.wx[cons_space] if _cons_space_is_interior(shape.eq) else 1.0
                coords["y"] = MESH.x[sp]
            else:
                weight *= MESH.wx[cons_space] if _cons_space_is_interior(shape.eq) else 1.0
                coords["eta"] = MESH.bd_x[sp]
            acc += weight * (lam[cnode] @ _formula_partial(kid, slot, coords))
        out[pnode] = acc
    return out


def _cons_space_is_interior(eq):
    return eq in ("interior", "initial", "final")


TRANSPOSE_CASES = [
    (kid, slot)
    for kid in KERNEL_IDS
    for slot in SLOT_FAMILIES[KERNEL_SHAPES[kid].family][:2]
]


@pytest.mark.parametrize("kid,slot", TRANSPOSE_CASES)
def test_transpose_contraction_matches_bruteforce(kid, slot):
    from biload.kernels import eval_kernel_partial

    P = eval_kernel_partial(PROBLEM, kid, slot, MESH, TABLES)
    lam = LAMBDAS[KERNEL_SHAPES[kid].eq]
    engine = transpose_contract(MESH, kid, lam, P)
    reference = brute_transpose(kid, slot)
    for node, expected in reference.items():
        np.testing.assert_allclose(engine[node], expected, atol=1e-12, rtol=1e-9)


# ---------------------------------------------------------------------------
# Problem surface
# ---------------------------------------------------------------------------


def test_unknown_kernel_id_rejected():
    with pytest.raises(ConfigError):
        Problem(n=1, m_u=1, m_w=0, kernels={"f9": Kernel(fn=lambda a: a.phi)})


@pytest.mark.parametrize(
    "kwargs",
    [
        {"kernels": {"f0": Kernel(fn=lambda a: a.phi, partials={"w": lambda a: 1.0})}},
        {"kernels": {}, "cost_F1": CostTerm(fn=lambda a: 0.0, partials={"w": lambda a: 1.0})},
        {"kernels": {}, "cost_F0": CostTerm(fn=lambda a: 0.0, partials={"phi": lambda a: 1.0})},
    ],
    ids=["f0-w", "F1-w", "F0-phi"],
)
def test_partial_slot_must_belong_to_family(kwargs):
    with pytest.raises(ConfigError, match="is not in it"):
        Problem(n=1, m_u=1, m_w=0, **kwargs)


def test_absent_kernel_equals_zero_kernel():
    from biload.forward import sweep_map
    from biload.state import zero_controls, zero_state

    mesh = build_mesh(1.0, 5, 0.0, 1.0, 4)
    with_f1 = Problem(
        n=1,
        m_u=0,
        m_w=0,
        kernels={
            "f0": Kernel(fn=lambda a: np.ones_like(a.phi)),
            "f1": Kernel(fn=lambda a: 0.0 * a.phi, partials={"phi": lambda a: 0.0}),
        },
    )
    without = Problem(
        n=1, m_u=0, m_w=0, kernels={"f0": Kernel(fn=lambda a: np.ones_like(a.phi))}
    )
    state = zero_state(mesh, 1)
    state.phi[:] = 0.3
    ctrl = zero_controls(mesh, 0, 0)
    a = sweep_map(with_f1, mesh, state, ctrl)
    b = sweep_map(without, mesh, state, ctrl)
    for x, y in zip(a.blocks(), b.blocks()):
        assert np.array_equal(x, y)


def test_nonfinite_kernel_output_is_diagnosed():
    from biload.forward import sweep_map
    from biload.state import zero_controls, zero_state

    mesh = build_mesh(1.0, 4, 0.0, 1.0, 4)
    bad = Problem(
        n=1,
        m_u=0,
        m_w=0,
        kernels={"f0": Kernel(fn=lambda a: np.full_like(a.phi, np.nan))},
    )
    with pytest.raises(KernelEvalError, match="f0"):
        sweep_map(bad, mesh, zero_state(mesh, 1), zero_controls(mesh, 0, 0))


# ---------------------------------------------------------------------------
# Partial validation
# ---------------------------------------------------------------------------


def test_rhs_is_linear_for_linear_kernels():
    from biload.forward import sweep_map
    from biload.state import pack, zero_controls

    prob = Problem(
        n=1,
        m_u=0,
        m_w=0,
        kernels={
            "f1": Kernel(fn=lambda a: 0.7 * a.phi, partials={"phi": lambda a: 0.7}),
            "g2": Kernel(fn=lambda a: 0.4 * a.q, partials={"q": lambda a: 0.4}),
            "fT1": Kernel(fn=lambda a: 0.2 * a.p, partials={"p": lambda a: 0.2}),
        },
    )
    mesh = build_mesh(1.0, 5, 0.0, 1.0, 5)
    ctrl = zero_controls(mesh, 0, 0)
    rng = np.random.default_rng(31)

    def rand_state():
        return StateBundle(
            phi=rng.standard_normal((6, 6, 1)),
            phi_bd=rng.standard_normal((6, 2, 1)),
            phi0=rng.standard_normal((6, 1)),
            phiT=rng.standard_normal((6, 1)),
            phi0_bd=rng.standard_normal((2, 1)),
            phiT_bd=rng.standard_normal((2, 1)),
        )

    s1, s2 = rand_state(), rand_state()
    a, b = 1.7, -0.6
    combo = StateBundle(*(a * x + b * y for x, y in zip(s1.blocks(), s2.blocks())))
    lhs = pack(sweep_map(prob, mesh, combo, ctrl))
    rhs = a * pack(sweep_map(prob, mesh, s1, ctrl)) + b * pack(
        sweep_map(prob, mesh, s2, ctrl)
    )
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_validate_partials_linear_is_exact():
    prob = Problem(
        n=1,
        m_u=0,
        m_w=0,
        kernels={
            "f0": Kernel(fn=lambda a: 2.0 * a.phi, partials={"phi": lambda a: 2.0})
        },
    )
    report = validate_partials(prob, probes=4, seed=1)
    assert report.passed
    assert report.worst() <= 1e-12


def test_validate_partials_cubic():
    prob = Problem(
        n=1,
        m_u=0,
        m_w=0,
        kernels={
            "f0": Kernel(
                fn=lambda a: a.phi**3,
                partials={"phi": lambda a: 3.0 * (a.phi**2)[..., None]},
            )
        },
    )
    report = validate_partials(prob, probes=8, seed=2)
    assert report.passed
    assert report.worst() <= 1e-8


def test_validate_partials_catches_wrong_partial():
    prob = Problem(
        n=1,
        m_u=0,
        m_w=0,
        kernels={
            "f1": Kernel(
                fn=lambda a: a.phi**2,
                partials={"phi": lambda a: 3.0 * a.phi[..., None]},
            )
        },
    )
    report = validate_partials(prob, probes=4, seed=3)
    assert not report.passed


def test_validate_partials_covers_cost_terms():
    prob = Problem(
        n=1,
        m_u=1,
        m_w=0,
        kernels={},
        cost_F1=CostTerm(
            fn=lambda a: (a.phi**2).sum(-1) + (a.u**2).sum(-1),
            partials={"phi": lambda a: 2.0 * a.phi, "u": lambda a: 2.0 * a.u},
        ),
    )
    report = validate_partials(prob, probes=4, seed=4)
    assert report.passed
    names = {name for (name, _, _, _) in report.entries}
    assert names == {"F1"}


def test_validate_partials_needs_probes():
    with pytest.raises(ConfigError):
        validate_partials(PROBLEM, probes=0)


def test_validate_partials_rejects_a_fractional_probe_count():
    with pytest.raises(ConfigError, match="probes must be a whole number, got 2.5"):
        validate_partials(PROBLEM, probes=2.5)


def test_full_table_partials_validate():
    report = validate_partials(PROBLEM, probes=3, seed=5)
    assert report.passed, [e for e in report.entries if not e[3]]
