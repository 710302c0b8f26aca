"""The test oracles of the dense oracle's complex-step columns.

`verify.dto_solve` differentiates `sweep_map` and `eval_cost` themselves by
complex step, one member per color of unknowns.  `per_unknown_columns` runs
one complex member per unknown instead, sweep and cost together.  The hand
linearization takes the same columns from the kernels' registered partials:
the partial arrays at the base state (`partial_cache`) contracted with the
perturbed slot fields, one unit vector at a time.
"""

import numpy as np

from biload.adjoint import partial_cache
from biload.forward import assemble_sweep, eval_cost, member_chunks, sweep_map
from biload.kernels import TERMS, forward_contract
from biload.state import (
    LAYOUT,
    bundle_of,
    derive_slots,
    pack,
    zero_controls,
    zero_state,
)
from biload.verify import CS_STEP


def per_unknown_columns(problem, mesh, state, controls):
    """Sweep image (a row per unknown) and cost differential at the state's
    unknowns with the controls real, then at the controls' with the state
    real, as `verify._linearized_columns` returns them for each side, from
    one complex member per unknown, batched per member chunk: the members
    pack(base) + i*CS_STEP*e_k run sweep_map and eval_cost."""
    out = []
    for base, at in ((state, lambda s: (s, controls)), (controls, lambda c: (state, c))):
        real = pack(base)
        images, costs = [], []
        for rows in member_chunks(problem, mesh, real.size, itemsize=16):
            flat = np.zeros((len(rows), real.size), complex)
            flat.real = real
            flat.imag[range(len(rows)), rows] = CS_STEP
            st, ct = at(bundle_of(type(base), flat, base.shapes()))
            slots = derive_slots(mesh, st)
            images.append(sweep_map(problem, mesh, st, ct, slots).flat.imag / CS_STEP)
            cost = eval_cost(problem, mesh, st, slots, ct)
            costs.append(np.broadcast_to(np.imag(cost) / CS_STEP, len(rows)))
        out += [np.concatenate(images), np.concatenate(costs)]
    return out


#: Builtins whose complex-step columns round exactly as the hand columns do.
#: On the others a kernel body computes its derivative in another order than
#: its hand partial (barenblatt and integral_cv_barenblatt through L·q_dot,
#: forest_fire_minimal through K inside the memory factor and through tanh),
#: and the two agree to 1e-14 relative.
EXACT = ("volterra_exp", "lq_volterra", "heat", "integral_cv", "biload_demo")


def assert_agree(name, new, old):
    """new equals the hand oracle's old bit for bit on an EXACT builtin, and
    to 1e-14 relative (in the sup norm) otherwise."""
    if name in EXACT:
        assert new.tobytes() == old.tobytes()
    else:
        assert np.max(np.abs(new - old)) <= 1e-14 * np.max(np.abs(old))


def linearized_terms(problem, mesh, cache, dtables):
    """Differential of the right-hand-side accumulation: kernel partials
    at the base state contracted with perturbed slot fields."""
    for kid, kernel in problem.kernels.items():
        shape = TERMS[kid]
        dF = None
        for slot in kernel.partials:
            darr = shape.arrange(slot, dtables)
            term = np.einsum("...nd,...d->...n", cache[(kid, slot)], darr)
            dF = term if dF is None else dF + term
        if dF is not None:
            yield shape.eq, forward_contract(mesh, kid, dF)


def linearized_sweep(problem, mesh, cache, dstate, dcontrols):
    """The linearized sweep image along (dstate, dcontrols), and the
    perturbed slot tables it read."""
    dtables = (dstate, derive_slots(mesh, dstate), dcontrols)
    terms = linearized_terms(problem, mesh, cache, dtables)
    return assemble_sweep(mesh, problem.n, terms), dtables


def linearized_cost(problem, mesh, cache, dtables):
    dJ = 0.0
    for name, term in problem.cost_terms():
        shape = TERMS[name]
        for slot in term.partials:
            darr = shape.arrange(slot, dtables)
            dJ += LAYOUT[shape.eq].quad(mesh, cache[(name, slot)], darr, comp="d")
    return dJ


def hand_columns(problem, mesh, state, controls):
    """The sweep image (a row per column) and cost differential at every
    state unit vector, then at every control unit vector: the arrays
    `verify._linearized_columns` returns for the state and the controls."""
    cache = partial_cache(problem, mesh, (state, derive_slots(mesh, state), controls))
    zctrl = zero_controls(mesh, problem.m_u, problem.m_w)
    zst = zero_state(mesh, problem.n)
    out = []
    for zero, at in ((zst, lambda d: (d, zctrl)), (zctrl, lambda d: (zst, d))):
        basis = pack(zero)
        images, costs = np.empty((basis.size, pack(zst).size)), np.empty(basis.size)
        unit = bundle_of(type(zero), basis, zero.shapes())
        for col in range(basis.size):
            basis[col] = 1.0
            image, dtables = linearized_sweep(problem, mesh, cache, *at(unit))
            images[col], costs[col] = image.flat, linearized_cost(problem, mesh, cache, dtables)
            basis[col] = 0.0
        out += [images, costs]
    return out


def hand_dto(problem, mesh, state, controls):
    """The dense oracle's gradient (flat, in control-block order) and
    multipliers, from the hand columns, with dto_solve's linear algebra."""
    images, dJdPhi, cimages, dJdU = hand_columns(problem, mesh, state, controls)
    A = np.ascontiguousarray(images.T) - np.eye(len(dJdPhi))
    lam = np.linalg.solve(A.T, -dJdPhi)
    return dJdU + np.ascontiguousarray(cimages.T).T @ lam, lam
