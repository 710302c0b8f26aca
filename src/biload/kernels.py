"""Problem definition: kernel tables, cost integrands, and the evaluation
engine shared by the forward sweep, the costate assembly, and the discrete
adjoint oracle.

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

Kernels and cost integrands are plain vectorized callables taking a
`KernelArgs` namespace.  Coordinate attributes (t, x, xi, s, y, eta) and
slot attributes (phi, q, u, ...) come pre-shaped so that numpy
broadcasting lines every axis up; a kernel body is ordinary array
arithmetic.  Values must broadcast to shape (*grid_axes, n); partial
derivatives to (*grid_axes, n, d) where d is the dimension of the slot
being differentiated (note the extra trailing axis: append `[..., None]`
when reusing coordinate or slot arrays inside a partial).
"""

from __future__ import annotations

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
    axis_sizes,
)

# ---------------------------------------------------------------------------
# Slot and kernel tables
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

@dataclass(frozen=True)
class KernelShape:
    eq: str  # interior | boundary | initial | final | initial_bd | final_bd
    family: str  # slot bundle the kernel reads
    time_rel: str  # same | volterra | full | none
    space_rel: str  # same | omega | gamma


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


def _slot_letters(shape: KernelShape, family: str = None) -> tuple:
    """Axis letters of the slot arrays of one family (by default the
    kernel's own) as this kernel reads them, natural order."""
    c_time, c_space = LAYOUT[shape.eq].time, LAYOUT[shape.eq].space
    if LAYOUT[family or shape.family].time:
        time_letter = "k" if shape.time_rel in ("volterra", "full") else c_time
        if shape.space_rel == "omega":
            space_letter = "l"
        elif shape.space_rel == "gamma":
            space_letter = "e"
        else:
            space_letter = c_space
        return (time_letter, space_letter)
    # slice families carry no time axis
    if shape.space_rel == "omega":
        return ("l",)
    if shape.space_rel == "gamma":
        return ("e",)
    return (c_space,)


def _full_letters(shape: KernelShape) -> str:
    consumers = LAYOUT[shape.eq].letters
    extra = ""
    if shape.time_rel in ("volterra", "full"):
        extra += "k"
    if shape.space_rel == "omega":
        extra += "l"
    elif shape.space_rel == "gamma":
        extra += "e"
    return consumers + extra


def consumer_letters(shape: KernelShape) -> str:
    return LAYOUT[shape.eq].letters


# ---------------------------------------------------------------------------
# Argument namespaces
# ---------------------------------------------------------------------------


class KernelArgs:
    """Coordinate and slot arrays pre-shaped for broadcasting."""

    def __init__(self, values: dict):
        self._values = values

    def __getattr__(self, name):
        try:
            return self._values[name]
        except KeyError:
            raise AttributeError(
                f"kernel argument {name!r} not available here; "
                f"have {sorted(self._values)}"
            ) from None


@dataclass
class SlotTables:
    """Natural-layout slot arrays keyed by slot name, per family."""

    tables: Mapping[str, Mapping[str, np.ndarray]]

    def family(self, fam: str) -> Mapping[str, np.ndarray]:
        return self.tables[fam]


def slot_tables(
    state: StateBundle, slots: DerivedSlots, controls: ControlBundle
) -> SlotTables:
    return SlotTables(
        {
            "S": {
                "phi": state.phi,
                "p": slots.p,
                "q": slots.q,
                "phi_dot": slots.phi_dot,
                "p_dot": slots.p_dot,
                "q_dot": slots.q_dot,
                "u": controls.u,
            },
            "S_bd": {
                "phi_bd": state.phi_bd,
                "phi_bd_dot": slots.phi_bd_dot,
                "p_bd": slots.p_bd,
                "p_bd_dot": slots.p_dot_bd,
                "w": controls.w,
            },
            "S0": {
                "phi0": state.phi0,
                "p0": slots.p0,
                "q0": slots.q0,
                "u0": controls.u0,
            },
            "ST": {
                "phiT": state.phiT,
                "pT": slots.pT,
                "qT": slots.qT,
                "uT": controls.uT,
            },
            "S0_bd": {
                "phi0_bd": state.phi0_bd,
                "p0_bd": slots.p0_bd,
                "w0": controls.w0,
            },
            "ST_bd": {
                "phiT_bd": state.phiT_bd,
                "pT_bd": slots.pT_bd,
                "wT": controls.wT,
            },
        }
    )


def _place_coord(values: np.ndarray, letter: str, full: str) -> np.ndarray:
    shape = [1] * (len(full) + 1)
    shape[full.index(letter)] = values.shape[0]
    return values.reshape(shape)


def _arrange(arr: np.ndarray, arr_letters: tuple, full: str) -> np.ndarray:
    """Reshape a natural-layout slot array (axes arr_letters + component)
    so its axes land at their letter positions within `full`, singleton
    elsewhere, component axis last."""
    order = sorted(range(len(arr_letters)), key=lambda a: full.index(arr_letters[a]))
    moved = np.transpose(arr, [*order, len(arr_letters)])
    sorted_letters = [arr_letters[a] for a in order]
    shape = []
    pos = 0
    for letter in full:
        if pos < len(sorted_letters) and letter == sorted_letters[pos]:
            shape.append(moved.shape[pos])
            pos += 1
        else:
            shape.append(1)
    return moved.reshape(tuple(shape) + (moved.shape[-1],))


def _arg_spec(kid: str):
    """(shape, slot families read) of a kernel id or a cost name."""
    if kid in COST_SHAPES:
        return COST_SHAPES[kid]
    shape = KERNEL_SHAPES[kid]
    return shape, (shape.family,)


def kernel_args(kid: str, mesh: Mesh, tables: SlotTables) -> KernelArgs:
    """Build the argument namespace for one kernel, or one cost integrand
    when kid is a cost name (F1, G1, F0, G0), on this mesh."""
    shape, families = _arg_spec(kid)
    full = _full_letters(shape)
    values: dict = {}
    for c in full:
        name, coord = _COORDS[c]
        values[name] = _place_coord(getattr(mesh, coord), c, full)
    for fam in families:
        letters = _slot_letters(shape, fam)
        for slot, arr in tables.family(fam).items():
            values[slot] = _arrange(arr, letters, full)
    return KernelArgs(values)


def _full_shape(shape: KernelShape, mesh: Mesh) -> tuple:
    sizes = axis_sizes(mesh.Nt, mesh.Nx)
    return tuple(sizes[c] for c in _full_letters(shape))


# ---------------------------------------------------------------------------
# Kernel and cost containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Kernel:
    """One registered kernel: its evaluation map and the partial of the
    output with respect to every slot it reads."""

    fn: Callable[[KernelArgs], np.ndarray]
    partials: Mapping[str, Callable[[KernelArgs], np.ndarray]] = field(
        default_factory=dict
    )


@dataclass(frozen=True)
class CostTerm:
    """One cost integrand (scalar density) with its slot gradients."""

    fn: Callable[[KernelArgs], np.ndarray]
    partials: Mapping[str, Callable[[KernelArgs], np.ndarray]] = field(
        default_factory=dict
    )


#: Pseudo-shapes giving each cost integrand its consumer layout and the
#: slot families it may read.
COST_SHAPES = {
    "F1": (KernelShape("interior", "S", "same", "same"), ("S",)),
    "G1": (KernelShape("boundary", "S_bd", "same", "same"), ("S_bd",)),
    "F0": (KernelShape("initial", "S0", "none", "same"), ("S0", "ST")),
    "G0": (KernelShape("initial_bd", "S0_bd", "none", "same"), ("S0_bd", "ST_bd")),
}


@dataclass(frozen=True)
class Problem:
    """Immutable problem definition.

    Unregistered kernels behave exactly like zero kernels; missing cost
    terms contribute nothing.  bounds, when given, maps control block
    names to (lo, hi) boxes for the optimizer.
    """

    n: int
    m_u: int
    m_w: int
    kernels: Mapping[str, Kernel]
    cost_F1: Optional[CostTerm] = None
    cost_G1: Optional[CostTerm] = None
    cost_F0: Optional[CostTerm] = None
    cost_G0: Optional[CostTerm] = None
    bounds: Optional[Mapping[str, tuple]] = None

    def __post_init__(self):
        if self.n < 1 or self.m_u < 0 or self.m_w < 0:
            raise ConfigError(
                f"bad dimensions n={self.n}, m_u={self.m_u}, m_w={self.m_w}"
            )
        for kid, kernel in self.kernels.items():
            if kid not in KERNEL_SHAPES:
                raise ConfigError(f"unknown kernel id {kid!r}")
            fam = KERNEL_SHAPES[kid].family
            for slot in kernel.partials:
                if slot not in SLOT_FAMILIES[fam]:
                    raise ConfigError(
                        f"kernel {kid} reads bundle {fam}; "
                        f"slot {slot!r} is not in it"
                    )
        for name in ("F1", "G1", "F0", "G0"):
            term = getattr(self, f"cost_{name}")
            if term is None:
                continue
            allowed = set()
            for fam in COST_SHAPES[name][1]:
                allowed.update(SLOT_FAMILIES[fam])
            for slot in term.partials:
                if slot not in allowed:
                    raise ConfigError(f"cost {name}: slot {slot!r} not readable")

    def cost_terms(self):
        out = []
        for name in ("F1", "G1", "F0", "G0"):
            term = getattr(self, f"cost_{name}")
            if term is not None:
                out.append((name, term))
        return out

    def slot_dim(self, slot: str) -> int:
        if slot in CONTROL_BLOCKS:
            return LAYOUT[slot].control_dim(self.m_u, self.m_w)
        return self.n


# ---------------------------------------------------------------------------
# Evaluation and contraction
# ---------------------------------------------------------------------------


def eval_kernel(
    problem: Problem, kid: str, mesh: Mesh, tables: SlotTables, args: KernelArgs = None
) -> np.ndarray:
    """Evaluate a kernel on the full consumer x producer grid: shape
    (*grid_axes, n)."""
    shape = KERNEL_SHAPES[kid]
    if args is None:
        args = kernel_args(kid, mesh, tables)
    raw = np.asarray(problem.kernels[kid].fn(args), dtype=float)
    target = _full_shape(shape, mesh) + (problem.n,)
    try:
        return np.broadcast_to(raw, target)
    except ValueError:
        raise ShapeError(
            f"kernel {kid}: output shape {raw.shape} does not broadcast "
            f"to {target}"
        ) from None


def eval_kernel_partial(
    problem: Problem,
    kid: str,
    slot: str,
    mesh: Mesh,
    tables: SlotTables,
    args: KernelArgs = None,
) -> np.ndarray:
    """Evaluate d(kernel)/d(slot): shape (*grid_axes, n, slot_dim)."""
    shape = KERNEL_SHAPES[kid]
    if args is None:
        args = kernel_args(kid, mesh, tables)
    raw = np.asarray(problem.kernels[kid].partials[slot](args), dtype=float)
    target = _full_shape(shape, mesh) + (problem.n, problem.slot_dim(slot))
    try:
        return np.broadcast_to(raw, target)
    except ValueError:
        raise ShapeError(
            f"kernel {kid} partial wrt {slot}: shape {raw.shape} does not "
            f"broadcast to {target}"
        ) from None


def _weight_ops(shape: KernelShape, mesh: Mesh, transpose: bool):
    """Weight operands and einsum subscripts for the producer axes."""
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
    if transpose:
        # weight for each consumer axis left free by the producer point
        slot_set = set(_slot_letters(shape))
        if c_space == "j" and c_space not in slot_set:
            ops.append(mesh.wx)
            subs.append("j")
        # a free boundary-side consumer carries counting weight one
    return ops, subs


def forward_contract(mesh: Mesh, kid: str, F: np.ndarray) -> np.ndarray:
    """Quadrature-contract a kernel value array onto its consumer nodes."""
    shape = KERNEL_SHAPES[kid]
    cons = consumer_letters(shape)
    full = _full_letters(shape)
    ops, subs = _weight_ops(shape, mesh, transpose=False)
    return np.einsum(
        ",".join(subs + [full + "n"]) + "->" + cons + "n", *ops, F
    )


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
    shape = KERNEL_SHAPES[kid]
    cons = consumer_letters(shape)
    full = _full_letters(shape)
    out = "".join(_slot_letters(shape)) + "d"
    ops, subs = _weight_ops(shape, mesh, transpose=True)
    return np.einsum(
        ",".join([cons + "n", full + "nd"] + subs) + "->" + out,
        lam,
        P,
        *ops,
    )


def costate_value_contract(
    mesh: Mesh, kid: str, lam: np.ndarray, F: np.ndarray
) -> np.ndarray:
    """Like transpose_contract but pairing costate with kernel values,
    attributing the scalar result to the producer nodes (used by the
    diagnostic per-node energy report)."""
    shape = KERNEL_SHAPES[kid]
    cons = consumer_letters(shape)
    full = _full_letters(shape)
    out = "".join(_slot_letters(shape))
    ops, subs = _weight_ops(shape, mesh, transpose=True)
    return np.einsum(
        ",".join([cons + "n", full + "n"] + subs) + "->" + out,
        lam,
        F,
        *ops,
    )


def eval_cost_density(
    problem: Problem, which: str, mesh: Mesh, tables: SlotTables
) -> np.ndarray:
    """Evaluate one cost integrand over its consumer nodes (no weights)."""
    term = getattr(problem, f"cost_{which}")
    shape, _ = COST_SHAPES[which]
    args = kernel_args(which, mesh, tables)
    raw = np.asarray(term.fn(args), dtype=float)
    target = _full_shape(shape, mesh)
    try:
        return np.broadcast_to(raw, target)
    except ValueError:
        raise ShapeError(
            f"cost {which}: density shape {raw.shape} does not broadcast "
            f"to {target}"
        ) from None


def eval_cost_partial(
    problem: Problem, which: str, slot: str, mesh: Mesh, tables: SlotTables
) -> np.ndarray:
    term = getattr(problem, f"cost_{which}")
    shape, _ = COST_SHAPES[which]
    args = kernel_args(which, mesh, tables)
    raw = np.asarray(term.partials[slot](args), dtype=float)
    target = _full_shape(shape, mesh) + (problem.slot_dim(slot),)
    try:
        return np.broadcast_to(raw, target)
    except ValueError:
        raise ShapeError(
            f"cost {which} partial wrt {slot}: shape {raw.shape} does not "
            f"broadcast to {target}"
        ) from None


def check_finite(name: str, arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr)):
        bad = np.argwhere(~np.isfinite(arr))
        raise KernelEvalError(
            f"{name} produced a non-finite value at grid index "
            f"{tuple(int(v) for v in bad[0])}"
        )


# ---------------------------------------------------------------------------
# Partial-derivative validation
# ---------------------------------------------------------------------------


@dataclass
class PartialsReport:
    tol: float
    entries: list  # (name, slot, max_rel_err, ok)

    @property
    def passed(self) -> bool:
        return all(ok for (_, _, _, ok) in self.entries)

    def worst(self) -> float:
        return max((err for (_, _, err, _) in self.entries), default=0.0)


def _point_args(rng, shape: KernelShape, families, problem: Problem, box):
    """Random single-point KernelArgs for derivative probing."""
    t_hi, (x_lo, x_hi) = box
    full = _full_letters(shape)
    rank = len(full) + 1
    ones = (1,) * rank
    values: dict = {}
    for c in full:
        if c in "ik":
            value = rng.uniform(0.0, t_hi)
        elif c in "jl":
            value = rng.uniform(x_lo, x_hi)
        else:
            value = rng.choice([x_lo, x_hi])
        values[_COORDS[c][0]] = np.full(ones, value)
    for fam in families:
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


def validate_partials(
    problem: Problem,
    probes: int = 8,
    seed: int = 0,
    tol: float = 1e-6,
    box=(1.0, (0.0, 1.0)),
) -> PartialsReport:
    """Check every registered kernel and cost partial against central
    finite differences at random probe points.

    The report lists the max relative error per (kernel, slot); it passes
    iff every entry is at or below tol.
    """
    if probes < 1:
        raise ConfigError("probes must be at least 1")
    rng = np.random.default_rng(seed)
    entries = []
    for kid, kernel in problem.kernels.items():
        shape = KERNEL_SHAPES[kid]
        rank = len(_full_letters(shape)) + 1
        val_shape = (1,) * (rank - 1) + (problem.n,)
        for slot, pfn in kernel.partials.items():
            worst = 0.0
            for _ in range(probes):
                args = _point_args(rng, shape, (shape.family,), problem, box)
                worst = max(
                    worst,
                    _probe_one(
                        kernel.fn, pfn, args, slot, problem.slot_dim(slot), val_shape
                    ),
                )
            entries.append((kid, slot, worst, worst <= tol))
    for name, term in problem.cost_terms():
        shape, families = COST_SHAPES[name]
        rank = len(_full_letters(shape)) + 1
        val_shape = (1,) * (rank - 1)
        for slot, pfn in term.partials.items():
            worst = 0.0
            for _ in range(probes):
                args = _point_args(rng, shape, families, problem, box)
                worst = max(
                    worst,
                    _probe_one(
                        term.fn, pfn, args, slot, problem.slot_dim(slot), val_shape
                    ),
                )
            entries.append((name, slot, worst, worst <= tol))
    return PartialsReport(tol=tol, entries=entries)
