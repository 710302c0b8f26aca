"""Problem definition: the term table, and the evaluation engine shared by
the forward sweep, the costate assembly, and the discrete adjoint oracle.

A problem consists of up to thirty kernels.  Six drive the trajectory
equation (f0..f5), six the boundary-trace equation (g0..g5), three each
the initial slices (f00/f02/f04, g00/g02/g04), and six each the final
slices (fT0..fT5, gT0..gT5).  Each kernel reads one slot bundle:

    S      = (phi, p, q, phi_dot, p_dot, q_dot, u)     on the grid
    S_bd   = (phi_bd, phi_bd_dot, p_bd, p_bd_dot, w)   on (0,T) x boundary
    S0     = (phi0, p0, q0, u0)                        initial slice
    ST     = (phiT, pT, qT, uT)                        final slice
    S0_bd  = (phi0_bd, p0_bd, w0)                      initial boundary
    ST_bd  = (phiT_bd, pT_bd, wT)                      final boundary

and is tagged with where its producer point sits relative to the consumer
node: the producer time may equal the consumer time ("same"), run through
a running integral from 0 to the consumer time ("volterra"), run over the
whole horizon ("full"), or be absent ("none"); the producer space may be
the consumer point ("same"), integrate over the interior ("omega"), or
sum over the two boundary points ("gamma").

The four cost integrands are terms of the same kind: F1 on the grid, G1 on
the wall strip, F0 on the initial slice (also reading the final slice) and
G0 on the initial wall pair (also reading the final pair), each with its
producer point at its consumer node and no value axis.  `TERMS` holds
every term's `KernelShape`, keyed by kernel id or cost name.  Each shape
works out its argument layout once, at import: the consumer and full axis
letters, the natural axis letters of every slot family it reads, and the
transpose and reshape that line those slot arrays up with the full axes.

Kernels and cost integrands are plain vectorized callables taking a
`KernelArgs` namespace.  Coordinate attributes (t, x, xi, s, y, eta) and
slot attributes (phi, q, u, ...) come pre-shaped so that numpy
broadcasting lines every axis up; a kernel body is ordinary array
arithmetic.  Kernel values must broadcast to shape (*grid_axes, n) and
cost densities to grid_axes; partial derivatives carry one more trailing
axis of the dimension d of the slot being differentiated (append
`[..., None]` when reusing coordinate or slot arrays inside a partial).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

import numpy as np

from .errors import ConfigError, KernelEvalError, ShapeError
from .mesh import Mesh
from .state import (
    CONTROL_BLOCKS,
    LAYOUT,
    ControlBundle,
    DerivedSlots,
    StateBundle,
    node_shape,
)

# ---------------------------------------------------------------------------
# Slot and term tables
# ---------------------------------------------------------------------------

SLOT_FAMILIES: Mapping[str, tuple] = {
    "S": ("phi", "p", "q", "phi_dot", "p_dot", "q_dot", "u"),
    "S_bd": ("phi_bd", "phi_bd_dot", "p_bd", "p_bd_dot", "w"),
    "S0": ("phi0", "p0", "q0", "u0"),
    "ST": ("phiT", "pT", "qT", "uT"),
    "S0_bd": ("phi0_bd", "p0_bd", "w0"),
    "ST_bd": ("phiT_bd", "pT_bd", "wT"),
}

SLOT_FAMILY_OF = {
    slot: fam for fam, slots in SLOT_FAMILIES.items() for slot in slots
}
#: Which of slot_tables' (state, slots, controls) holds each slot array.
_SLOT_SOURCE = {
    slot: 0 if slot in StateBundle.names else 2 if slot in CONTROL_BLOCKS else 1
    for slot in SLOT_FAMILY_OF
}

#: Kernel-argument name and mesh coordinate array of each axis letter (see
#: state.axis_sizes).
_COORDS = {
    "i": ("t", "t"),
    "j": ("x", "x"),
    "b": ("xi", "bd_x"),
    "k": ("s", "t"),
    "l": ("y", "x"),
    "e": ("eta", "bd_x"),
}
_PRODUCER_SPACE = {"omega": "l", "gamma": "e"}


@dataclass(frozen=True)
class KernelShape:
    """Where a term's producer point sits relative to its consumer node,
    and the argument layout that follows from it."""

    eq: str  # interior | boundary | initial | final | initial_bd | final_bd
    family: str  # slot bundle the term reads
    time_rel: str  # same | volterra | full | none
    space_rel: str  # same | omega | gamma
    more_families: tuple = ()  # further bundles a cost integrand reads
    values: str = "n"  # value axes: "n" for a kernel, none for a cost
    # worked out from the fields above:
    families: tuple = field(init=False, repr=False, compare=False)
    consumer: str = field(init=False, repr=False, compare=False)  # node axes
    full: str = field(init=False, repr=False, compare=False)  # + producer axes
    #: family -> natural axis letters of its slot arrays as this term reads them
    slot_letters: Mapping = field(init=False, repr=False, compare=False)
    #: (argument name, mesh attribute, reshape target) of each coordinate
    coords: tuple = field(init=False, repr=False, compare=False)
    #: family -> (axis permutation, source axis of each full letter or None)
    layouts: Mapping = field(init=False, repr=False, compare=False)
    #: full axis of the consumer time for a term with a running time integral
    #: and a producer-space integral, else None: when the evaluated array
    #: has stride 0 there, the contractions read its distinct values
    stationary_axis: Optional[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        node = LAYOUT[self.eq]
        running = self.time_rel in ("volterra", "full")
        space = _PRODUCER_SPACE.get(self.space_rel, node.space)
        full = node.letters + ("k" if running else "") + _PRODUCER_SPACE.get(
            self.space_rel, ""
        )
        families = (self.family, *self.more_families)
        letters = {}
        for fam in families:
            # slice families carry no time axis
            time = ("k" if running else node.time,) if LAYOUT[fam].time else ()
            letters[fam] = time + (space,)
        layouts = {}
        for fam, lets in letters.items():
            order = sorted(range(len(lets)), key=lambda a: full.index(lets[a]))
            pattern = tuple(lets.index(c) if c in lets else None for c in full)
            layouts[fam] = ((*order, len(lets)), pattern)
        coords = tuple(
            (*_COORDS[c], tuple(-1 if d == c else 1 for d in full) + (1,))
            for c in full
        )
        stationary = self.time_rel == "volterra" and self.space_rel != "same"
        for name, value in (
            ("families", families),
            ("consumer", node.letters),
            ("full", full),
            ("slot_letters", letters),
            ("coords", coords),
            ("layouts", layouts),
            ("stationary_axis", full.index(node.time) if stationary else None),
        ):
            object.__setattr__(self, name, value)

    def arrange(self, slot: str, tables: tuple) -> np.ndarray:
        """A slot's natural-layout array from tables (see slot_tables),
        moved so its axes land at their letter positions within the full
        axes, singleton elsewhere, component axis last.  Leading member
        axes stay in front."""
        arr = getattr(tables[_SLOT_SOURCE[slot]], slot)
        perm, target = _arrangement(self.layouts[SLOT_FAMILY_OF[slot]], arr.shape)
        return arr.transpose(perm).reshape(target)


@functools.lru_cache(maxsize=1024)
def _arrangement(layout: tuple, shape: tuple) -> tuple:
    """KernelShape.arrange's transpose and reshape for this slot shape."""
    perm, pattern = layout
    lead = len(shape) - len(perm)
    nodes = tuple(1 if a is None else shape[lead + a] for a in pattern)
    return (*range(lead), *(lead + a for a in perm)), shape[:lead] + nodes + shape[-1:]


KERNEL_SHAPES: Mapping[str, KernelShape] = {
    "f0": KernelShape("interior", "S", "same", "same"),
    "f1": KernelShape("interior", "S", "volterra", "same"),
    "f2": KernelShape("interior", "S", "same", "omega"),
    "f3": KernelShape("interior", "S", "volterra", "omega"),
    "f4": KernelShape("interior", "S_bd", "same", "gamma"),
    "f5": KernelShape("interior", "S_bd", "volterra", "gamma"),
    "g0": KernelShape("boundary", "S_bd", "same", "same"),
    "g1": KernelShape("boundary", "S_bd", "volterra", "same"),
    "g2": KernelShape("boundary", "S", "same", "omega"),
    "g3": KernelShape("boundary", "S", "volterra", "omega"),
    "g4": KernelShape("boundary", "S_bd", "same", "gamma"),
    "g5": KernelShape("boundary", "S_bd", "volterra", "gamma"),
    "f00": KernelShape("initial", "S0", "none", "same"),
    "f02": KernelShape("initial", "S0", "none", "omega"),
    "f04": KernelShape("initial", "S0_bd", "none", "gamma"),
    "fT0": KernelShape("final", "ST", "none", "same"),
    "fT1": KernelShape("final", "S", "full", "same"),
    "fT2": KernelShape("final", "ST", "none", "omega"),
    "fT3": KernelShape("final", "S", "full", "omega"),
    "fT4": KernelShape("final", "ST_bd", "none", "gamma"),
    "fT5": KernelShape("final", "S_bd", "full", "gamma"),
    "g00": KernelShape("initial_bd", "S0_bd", "none", "same"),
    "g02": KernelShape("initial_bd", "S0", "none", "omega"),
    "g04": KernelShape("initial_bd", "S0_bd", "none", "gamma"),
    "gT0": KernelShape("final_bd", "ST_bd", "none", "same"),
    "gT1": KernelShape("final_bd", "S_bd", "full", "same"),
    "gT2": KernelShape("final_bd", "ST", "none", "omega"),
    "gT3": KernelShape("final_bd", "S", "full", "omega"),
    "gT4": KernelShape("final_bd", "ST_bd", "none", "gamma"),
    "gT5": KernelShape("final_bd", "S_bd", "full", "gamma"),
}

KERNEL_IDS = tuple(KERNEL_SHAPES)
COST_NAMES = ("F1", "G1", "F0", "G0")

#: Every kernel and cost integrand, kernels first.
TERMS: Mapping[str, KernelShape] = {
    **KERNEL_SHAPES,
    "F1": KernelShape("interior", "S", "same", "same", values=""),
    "G1": KernelShape("boundary", "S_bd", "same", "same", values=""),
    "F0": KernelShape("initial", "S0", "none", "same", ("ST",), values=""),
    "G0": KernelShape("initial_bd", "S0_bd", "none", "same", ("ST_bd",), values=""),
}


def term_label(name: str) -> str:
    """"kernel f3" or "cost F1", for messages."""
    return f"{'cost' if name in COST_NAMES else 'kernel'} {name}"


# ---------------------------------------------------------------------------
# Argument namespaces
# ---------------------------------------------------------------------------


class KernelArgs:
    """Coordinate and slot arrays pre-shaped for broadcasting: values, plus
    each slot of shape's families arranged from tables on first access."""

    def __init__(self, values: dict, shape: "KernelShape" = None, tables: tuple = None):
        self._values, self._shape, self._tables = values, shape, tables

    def __getattr__(self, name):
        values, shape = self._values, self._shape
        if name not in values and shape and SLOT_FAMILY_OF.get(name) in shape.families:
            values[name] = shape.arrange(name, self._tables)
        if name in values:
            return values[name]
        slots = [s for fam in shape.families for s in SLOT_FAMILIES[fam]] if shape else []
        raise AttributeError(
            f"kernel argument {name!r} not available here; "
            f"have {sorted({*values, *slots})}"
        )


def slot_tables(state: StateBundle, slots: DerivedSlots, controls: ControlBundle) -> tuple:
    """The sources of the slot arrays, (state, slots, controls): each slot
    is read (and derived) from its source only when a term reads it."""
    return state, slots, controls


def kernel_args(name: str, mesh: Mesh, tables: tuple) -> KernelArgs:
    """Build the argument namespace of one kernel or cost integrand on
    this mesh; its slots are arranged when the term reads them."""
    shape = TERMS[name]
    coords = mesh.plan(("coords", name), lambda: {
        arg: getattr(mesh, coord).reshape(target) for arg, coord, target in shape.coords
    })
    return KernelArgs(dict(coords), shape, tables)


# ---------------------------------------------------------------------------
# Terms and problems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Kernel:
    """One registered kernel or cost integrand: its evaluation map and the
    partial of the output with respect to every slot it reads."""

    fn: Callable[[KernelArgs], np.ndarray]
    partials: Mapping[str, Callable[[KernelArgs], np.ndarray]] = field(
        default_factory=dict
    )


CostTerm = Kernel


@dataclass(frozen=True)
class Problem:
    """Immutable problem definition.

    Unregistered kernels behave exactly like zero kernels; missing cost
    terms contribute nothing.  bounds, when given, maps control block
    names to (lo, hi) boxes for the optimizer.  terms maps the name of
    every registered kernel and cost integrand to it, kernels first.
    """

    n: int
    m_u: int
    m_w: int
    kernels: Mapping[str, Kernel]
    cost_F1: Optional[Kernel] = None
    cost_G1: Optional[Kernel] = None
    cost_F0: Optional[Kernel] = None
    cost_G0: Optional[Kernel] = None
    bounds: Optional[Mapping[str, tuple]] = None
    terms: Mapping[str, Kernel] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1 or self.m_u < 0 or self.m_w < 0:
            raise ConfigError(
                f"bad dimensions n={self.n}, m_u={self.m_u}, m_w={self.m_w}"
            )
        for kid in self.kernels:
            if kid not in KERNEL_SHAPES:
                raise ConfigError(f"unknown kernel id {kid!r}")
        terms = dict(self.kernels)
        for name in COST_NAMES:
            if getattr(self, f"cost_{name}") is not None:
                terms[name] = getattr(self, f"cost_{name}")
        object.__setattr__(self, "terms", terms)
        for name, term in terms.items():
            families = TERMS[name].families
            for slot in term.partials:
                if SLOT_FAMILY_OF.get(slot) not in families:
                    raise ConfigError(
                        f"{term_label(name)} reads {'/'.join(families)}; "
                        f"slot {slot!r} is not in it"
                    )

    def cost_terms(self):
        return [(name, t) for name, t in self.terms.items() if name in COST_NAMES]

    def slot_dim(self, slot: str) -> int:
        if slot in CONTROL_BLOCKS:
            return LAYOUT[slot].control_dim(self.m_u, self.m_w)
        return self.n


# ---------------------------------------------------------------------------
# Evaluation and contraction
# ---------------------------------------------------------------------------


def _evaluate(problem: Problem, name: str, slot, mesh: Mesh, tables, args, lead=()):
    """The value (slot None) or one slot partial of a term on its full
    grid: shape (*lead member axes, *grid_axes, *value_axes[, slot_dim])."""
    shape = TERMS[name]
    term = problem.terms[name]
    if args is None:
        args = kernel_args(name, mesh, tables)
    dims = (problem.n,) * len(shape.values)
    if slot is None:
        raw = term.fn(args)
    else:
        raw = term.partials[slot](args)
        dims += (problem.slot_dim(slot),)
    raw = np.asarray(raw, dtype=float)
    target = lead + node_shape(shape.full, mesh.Nt, mesh.Nx) + dims
    if raw.shape == target:
        view = raw.view()
        view.flags.writeable = False  # like broadcast_to's: a returned slot view stays unwritten
        return view
    try:
        return np.broadcast_to(raw, target)
    except ValueError:
        what = term_label(name) + ("" if slot is None else f" partial wrt {slot}")
        raise ShapeError(
            f"{what}: shape {raw.shape} does not broadcast to {target}"
        ) from None


def eval_kernel(
    problem: Problem, kid: str, mesh: Mesh, tables: tuple, args: KernelArgs = None, lead=()
) -> np.ndarray:
    """Evaluate a kernel on the full consumer x producer grid, shape
    (*lead, *grid_axes, n), or a cost density on its nodes (kid a cost
    name); lead holds the member axes of the slots in tables."""
    return _evaluate(problem, kid, None, mesh, tables, args, lead)


def eval_kernel_partial(
    problem: Problem,
    kid: str,
    slot: str,
    mesh: Mesh,
    tables: tuple,
    args: KernelArgs = None,
) -> np.ndarray:
    """Evaluate d(term)/d(slot): shape (*grid_axes, *value_axes, slot_dim)."""
    return _evaluate(problem, kid, slot, mesh, tables, args)


def _contraction(shape: KernelShape, mesh: Mesh, transpose: bool, trail: str = ""):
    """Weight operands and their einsum subscripts for the producer axes,
    the einsum of the contraction and its output letters."""
    c_time, c_space = LAYOUT[shape.eq].time, LAYOUT[shape.eq].space
    ops, subs = [], []
    if shape.time_rel == "volterra":
        W = mesh.volterra_upper if transpose else mesh.volterra_lower
        ops.append(W)
        subs.append(c_time + "k")
    elif shape.time_rel == "full" and not transpose:
        ops.append(mesh.wt)
        subs.append("k")
    if shape.space_rel == "omega":
        if not transpose:
            ops.append(mesh.wx)
            subs.append("l")
    elif shape.space_rel == "gamma":
        if not transpose:
            ops.append(np.ones(2))
            subs.append("e")
    if not transpose:
        out = shape.consumer + "n"
        return ops, subs, ",".join(subs + ["..." + shape.full + "n"]) + "->..." + out, out
    # weight for each consumer axis left free by the producer point
    if c_space == "j" and c_space not in shape.slot_letters[shape.family]:
        ops.append(mesh.wx)
        subs.append("j")
    # a free boundary-side consumer carries counting weight one
    out = "".join(shape.slot_letters[shape.family]) + trail
    spec = ",".join([shape.consumer + "n", shape.full + "n" + trail] + subs) + "->" + out
    return ops, subs, spec, out


def _stationary(shape: KernelShape, arr: np.ndarray, lead: int = 0) -> bool:
    """True when arr (lead member axes, then the full axes) broadcasts a
    raw array free of the consumer time of a running, space-integrated term."""
    axis = shape.stationary_axis
    return axis is not None and arr.strides[lead + axis] == 0


@functools.lru_cache(maxsize=256)
def _einsum_path(spec: str, shapes: tuple) -> tuple:
    """Pairwise contraction order for spec at these operand shapes."""
    dummies = [np.broadcast_to(0.0, s) for s in shapes]
    return tuple(np.einsum_path(spec, *dummies, optimize="optimal")[0][1:])


def _raw_contract(subs: list, ops: list, arr: np.ndarray, letters: str, out: str):
    """einsum of ops (subscripts subs) and arr (axes letters) onto out,
    reading only the distinct values of the broadcast view arr.

    Every stride-0 axis of arr whose letter another operand carries is
    indexed at 0; the operands are then contracted pair by pair along a
    path found once per subscripts and one member's shapes, arr's leading
    member axes riding in front.  Each pair is a plain einsum, not BLAS,
    so the bits do not depend on the BLAS build or its thread count.
    """
    lead = arr.ndim - len(letters)
    carried = set("".join(subs))
    drop = [step == 0 and c in carried for c, step in zip(letters, arr.strides[lead:])]
    subs = subs + ["".join(c for c, gone in zip(letters, drop) if not gone)]
    ops = ops + [arr[(..., *(0 if gone else slice(None) for gone in drop))]]
    shapes = tuple(op.shape[op.ndim - len(sub):] for sub, op in zip(subs, ops))
    path = _einsum_path(",".join(subs) + "->" + out, shapes)
    for pair in path:
        picked = [(subs.pop(a), ops.pop(a)) for a in sorted(pair, reverse=True)]
        rest = "".join(subs)
        keep = out if not subs else "".join(
            dict.fromkeys(c for sub, _ in picked for c in sub if c in rest + out)
        )
        subs.append(keep)
        ops.append(
            np.einsum(",".join("..." + sub for sub, _ in picked) + "->..." + keep,
                      *(op for _, op in picked))
        )
    return ops[0]


def forward_contract(mesh: Mesh, kid: str, F: np.ndarray) -> np.ndarray:
    """Quadrature-contract a kernel value array onto its consumer nodes.

    A term with a running time integral and a producer-space integral
    whose value does not depend on the consumer time (stride 0 there; the
    radiation exchange f3 of forest_fire_minimal) is contracted from its
    raw array, an (Nt+1)-fold saving.  Every other term keeps the one
    einsum over the broadcast, and with it its floating-point bits.  The
    rule is that narrow on purpose: how many line searches and grad-check
    entries fail follows the bits, so moving them where nothing is gained
    can raise a failure count with no fault in the code.
    """
    shape = TERMS[kid]
    ops, subs, spec, out = mesh.plan(("forward", kid), _contraction, shape, mesh, False)
    if _stationary(shape, F, F.ndim - len(shape.full) - 1):
        return _raw_contract(subs, ops, F, shape.full + "n", out)
    return np.einsum(spec, *ops, F)


def _transposed(mesh: Mesh, kid: str, lam: np.ndarray, arr: np.ndarray, trail: str):
    """Pair lam with arr (axes full + "n" + trail) and accumulate onto the
    producer slot nodes of the kernel's own family.

    The rule of forward_contract applies, and for the same reason: only a
    term with a running time integral and a producer-space integral whose
    array has stride 0 along the consumer time takes the raw path, where
    the costate is contracted with the running and free-space weights
    first and that small array with the raw array.  Every other term keeps
    its einsum and its bits.
    """
    shape = TERMS[kid]
    key = ("transposed", kid, trail)
    ops, subs, spec, out = mesh.plan(key, _contraction, shape, mesh, True, trail)
    if _stationary(shape, arr):
        return _raw_contract(
            [shape.consumer + "n", *subs], [lam, *ops], arr, shape.full + "n" + trail, out
        )
    return np.einsum(spec, lam, arr, *ops)


def transpose_contract(
    mesh: Mesh, kid: str, lam: np.ndarray, P: np.ndarray
) -> np.ndarray:
    """Accumulate a costate-weighted kernel partial onto the producer
    slot nodes.

    lam lives on the consumer nodes of the kernel's equation; P is the
    (*grid_axes, n, d) partial array.  The consumer coordinates the
    producer point leaves free are integrated with the measure of the
    enclosing functional: a running upper-trapezoid in time for running
    kernels, the interior quadrature for a free interior coordinate, the
    counting measure for a free boundary side.
    """
    return _transposed(mesh, kid, lam, P, "d")


def costate_value_contract(
    mesh: Mesh, kid: str, lam: np.ndarray, F: np.ndarray
) -> np.ndarray:
    """Like transpose_contract but pairing costate with kernel values,
    attributing the scalar result to the producer nodes (used by the
    diagnostic per-node energy report)."""
    return _transposed(mesh, kid, lam, F, "")


def check_finite(name: str, arr: np.ndarray) -> None:
    """Raise KernelEvalError at the first non-finite entry of arr in C order.

    A broadcast view is scanned at index 0 of each stride-0 axis only:
    its values repeat along those axes, so the first bad index is the same.
    """
    if 0 in arr.strides:
        arr = arr[tuple(slice(0, 1) if step == 0 else slice(None) for step in arr.strides)]
    if not np.isfinite(arr).all():
        bad = np.argwhere(~np.isfinite(arr))
        raise KernelEvalError(
            f"{name} produced a non-finite value at grid index "
            f"{tuple(int(v) for v in bad[0])}"
        )


# ---------------------------------------------------------------------------
# Partial-derivative validation
# ---------------------------------------------------------------------------


#: validate_partials' pass threshold, and the (t_max, (x_lo, x_hi)) box its
#: probe points are drawn from.
PARTIALS_TOL = 1e-6
_PROBE_BOX = (1.0, (0.0, 1.0))


@dataclass
class PartialsReport:
    entries: list  # (name, slot, max_rel_err, ok)

    @property
    def passed(self) -> bool:
        return all(ok for (_, _, _, ok) in self.entries)

    def worst(self) -> float:
        return max((err for (_, _, err, _) in self.entries), default=0.0)


def _point_args(rng, shape: KernelShape, problem: Problem):
    """Random single-point KernelArgs for derivative probing."""
    t_hi, (x_lo, x_hi) = _PROBE_BOX
    rank = len(shape.full) + 1
    ones = (1,) * rank
    values: dict = {}
    for c in shape.full:
        if c in "ik":
            value = rng.uniform(0.0, t_hi)
        elif c in "jl":
            value = rng.uniform(x_lo, x_hi)
        else:
            value = rng.choice([x_lo, x_hi])
        values[_COORDS[c][0]] = np.full(ones, value)
    for fam in shape.families:
        for slot in SLOT_FAMILIES[fam]:
            d = problem.slot_dim(slot)
            values[slot] = rng.standard_normal((1,) * (rank - 1) + (d,))
    return KernelArgs(values)


def _dyadic_step(scale: float) -> float:
    # a power of two keeps central differences of linear maps exact
    base = 2.0 ** -17
    return base * max(1.0, 2.0 ** np.ceil(np.log2(max(abs(scale), 1.0))))


def _probe_one(fn, partial_fn, args: KernelArgs, slot: str, d: int, val_shape):
    """Max relative error of partial_fn vs central differences at args.

    val_shape is the canonical output shape of fn at this point; the
    partial broadcasts to val_shape + (d,).
    """
    ana = np.broadcast_to(
        np.asarray(partial_fn(args), dtype=float), val_shape + (d,)
    )
    worst = 0.0
    for c in range(d):
        sval = args._values[slot]
        h = _dyadic_step(float(np.max(np.abs(sval[..., c]))))
        up = dict(args._values)
        dn = dict(args._values)
        pert = np.zeros_like(sval)
        pert[..., c] = h
        up[slot] = sval + pert
        dn[slot] = sval - pert
        f_up = np.broadcast_to(
            np.asarray(fn(KernelArgs(up)), dtype=float), val_shape
        )
        f_dn = np.broadcast_to(
            np.asarray(fn(KernelArgs(dn)), dtype=float), val_shape
        )
        fd = (f_up - f_dn) / (2.0 * h)
        err = np.max(np.abs(ana[..., c] - fd) / np.maximum(1.0, np.abs(fd)))
        worst = max(worst, float(err))
    return worst


def validate_partials(problem: Problem, probes: int = 8, seed: int = 0) -> PartialsReport:
    """Check every registered kernel and cost partial against central
    finite differences at random probe points.

    The report lists the max relative error per (term, slot); it passes
    iff every entry is at or below PARTIALS_TOL.
    """
    if probes < 1:
        raise ConfigError("probes must be at least 1")
    rng = np.random.default_rng(seed)
    entries = []
    for name, term in problem.terms.items():
        shape = TERMS[name]
        val_shape = (1,) * len(shape.full) + (problem.n,) * len(shape.values)
        for slot, pfn in term.partials.items():
            d = problem.slot_dim(slot)
            worst = 0.0
            for _ in range(probes):
                args = _point_args(rng, shape, problem)
                worst = max(worst, _probe_one(term.fn, pfn, args, slot, d, val_shape))
            entries.append((name, slot, worst, worst <= PARTIALS_TOL))
    return PartialsReport(entries)
