"""State, control, and costate containers, the layout table, and
derived-slot computation.

The unknown has six blocks: the trajectory phi on the full grid, its
boundary trace trajectory phi_bd (a separate unknown, reconciled with the
boundary columns of phi by the forward solver), and the four initial/final
slices phi0, phiT, phi0_bd, phiT_bd.  Initial and final slices are
deliberately independent of the first/last rows of phi: the system is
allowed to jump at t = 0 and t = T.

Each block lives on one of six node sets, and the control, the costate,
the equation family that contracts onto it and the slot family read there
live on the same set.  `LAYOUTS` states this once: per node set, its axis
letters (hence its block shape for a given component count, see
`block_shapes`), its quadrature measure (`Layout.quad`), the names of the
blocks and families on it, and its slots by role (`Layout.slot`).  The
bundles, zero constructors, shape checks, flat packing, pairings and CSV
writers all read it; `WALL_PAIRS` pairs each x node set with its walls.

derive_slots gives every derived field the kernels may read: spatial
derivatives p = Dx phi and q = Dxx phi, time derivatives of phi/p/q, the
boundary traces of p (one-sided stencils reading interior values plus the
governing boundary unknown at the wall), and the slice derivatives.  Each
is derived on first access and then kept, so a sweep derives only what its
terms read.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import ClassVar, Optional

import numpy as np

from .errors import ShapeError
from .mesh import LEFT, RIGHT, Mesh, apply_axis


@dataclass(frozen=True)
class Layout:
    """One of the six node sets and the blocks that live on it.

    time and space are the einsum letters of its node axes: "i" for the
    time nodes, "j" for the interior x nodes, "b" for the two walls.
    """

    time: Optional[str]
    space: str
    state: str
    costate: str
    control: str
    eq: str  # equation family whose kernels contract onto these nodes
    family: str  # slot family read at these nodes
    letters: str = field(init=False)  # node axes, e.g. "ij" on the grid

    def __post_init__(self):
        object.__setattr__(self, "letters", (self.time or "") + self.space)

    def nodes(self, mesh) -> tuple:
        """Shape of the node axes on this mesh."""
        return node_shape(self.letters, mesh.Nt, mesh.Nx)

    def slot(self, role: str, dot: bool = False) -> str:
        """Slot read on these nodes for role phi, p or q, e.g. "p0_bd";
        dot names its time derivative, e.g. "p_bd_dot"."""
        return self.state.replace("phi", role) + ("_dot" if dot else "")

    def control_dim(self, m_u: int, m_w: int) -> int:
        """Components of this layout's control: u-controls on x nodes,
        w-controls on the walls."""
        return m_u if self.space == "j" else m_w

    def quad(self, mesh: Mesh, *operands, comp: str = "") -> float:
        """Quadrature of the product of one or two operands over these
        nodes.

        Time and interior-x axes carry trapezoid weights; the walls carry
        the counting measure.  The einsum subscripts are the weighted
        letters, then each operand's node letters plus comp, e.g.
        "i,j,ij->" for a grid density and "i,j,ijm,ijm->" for a grid
        pairing with comp="m".  The wall pairs have no weighted axis and
        are a plain sum.  Operands with leading member axes give one value
        per member, as an array.
        """
        weights = {"i": mesh.wt, "j": mesh.wx}
        weighted = [c for c in self.letters if c in weights]
        if not weighted:
            prod = operands[0] if len(operands) == 1 else operands[0] * operands[1]
            out = np.sum(prod, axis=tuple(range(-len(self.letters + comp), 0)))
        else:
            subs = ",".join(weighted + ["..." + self.letters + comp] * len(operands))
            out = np.einsum(subs + "->...", *(weights[c] for c in weighted), *operands)
        return float(out) if out.ndim == 0 else out


def axis_sizes(Nt: int, Nx: int) -> dict:
    """Node count per axis letter: consumer time i, interior x j and wall
    side b, and their producer twins k, l and e."""
    return {"i": Nt + 1, "j": Nx + 1, "b": 2, "k": Nt + 1, "l": Nx + 1, "e": 2}


@functools.lru_cache(maxsize=256)
def node_shape(letters: str, Nt: int, Nx: int) -> tuple:
    """Sizes of the axes named by letters."""
    # cached: every sweep builds and checks block and kernel-grid shapes
    sizes = axis_sizes(Nt, Nx)
    return tuple(sizes[c] for c in letters)


@functools.lru_cache(maxsize=256)
def block_shapes(Nt: int, Nx: int, dims: tuple) -> tuple:
    """Shapes of the six blocks in table order, dims[k] components on
    layout k."""
    return tuple(node_shape(L.letters, Nt, Nx) + (m,) for L, m in zip(LAYOUTS, dims))


#: One column per node set: the grid, the wall strip, the initial and final
#: slices, and the initial and final wall pairs.  Block order everywhere
#: (bundle fields, packing, CSV files) is this column order.
_TABLE = {
    "time": ("i", "i", None, None, None, None),
    "space": ("j", "b", "j", "j", "b", "b"),
    "state": ("phi", "phi_bd", "phi0", "phiT", "phi0_bd", "phiT_bd"),
    "costate": ("psi", "omega", "psi0", "psiT", "omega0", "omegaT"),
    "control": ("u", "w", "u0", "uT", "w0", "wT"),
    "eq": ("interior", "boundary", "initial", "final", "initial_bd", "final_bd"),
    "family": ("S", "S_bd", "S0", "ST", "S0_bd", "ST_bd"),
}
LAYOUTS = tuple(
    Layout(**dict(zip(_TABLE, column))) for column in zip(*_TABLE.values())
)
#: Layout by any of its block, equation or family names (all distinct).
LAYOUT = {
    name: L
    for L in LAYOUTS
    for name in (L.state, L.costate, L.control, L.eq, L.family)
}
CONTROL_BLOCKS = _TABLE["control"]
#: Each x node set with the wall pair at the same times: the grid with the
#: wall strip, and each slice with its wall pair.
WALL_PAIRS = tuple((L, LAYOUT[L.state + "_bd"]) for L in LAYOUTS if L.space == "j")


@dataclass
class _Bundle:
    """Six blocks named by one column of the layout table; flat, when set,
    is the vector in `pack` order whose views the blocks are."""

    names: ClassVar[tuple]
    flat: Optional[np.ndarray] = field(default=None, repr=False, compare=False, kw_only=True)

    def blocks(self) -> tuple:
        return tuple(getattr(self, name) for name in self.names)

    def named(self) -> tuple:
        """(block name, layout, array) for each block."""
        return tuple(zip(self.names, LAYOUTS, self.blocks()))

    def copy(self):
        return type(self)(*(b.copy() for b in self.blocks()))


@dataclass
class StateBundle(_Bundle):
    names: ClassVar[tuple] = _TABLE["state"]
    phi: np.ndarray  # (Nt+1, Nx+1, n)
    phi_bd: np.ndarray  # (Nt+1, 2, n)
    phi0: np.ndarray  # (Nx+1, n)
    phiT: np.ndarray  # (Nx+1, n)
    phi0_bd: np.ndarray  # (2, n)
    phiT_bd: np.ndarray  # (2, n)

    @property
    def n(self) -> int:
        return self.phi.shape[2]


@dataclass
class ControlBundle(_Bundle):
    names: ClassVar[tuple] = _TABLE["control"]
    u: np.ndarray  # (Nt+1, Nx+1, m_u)
    w: np.ndarray  # (Nt+1, 2, m_w)
    u0: np.ndarray  # (Nx+1, m_u)
    uT: np.ndarray  # (Nx+1, m_u)
    w0: np.ndarray  # (2, m_w)
    wT: np.ndarray  # (2, m_w)

    @property
    def m_u(self) -> int:
        return self.u.shape[2]

    @property
    def m_w(self) -> int:
        return self.w.shape[2]


@dataclass
class CoStateBundle(_Bundle):
    names: ClassVar[tuple] = _TABLE["costate"]
    psi: np.ndarray  # (Nt+1, Nx+1, n)
    omega: np.ndarray  # (Nt+1, 2, n)
    psi0: np.ndarray  # (Nx+1, n)
    psiT: np.ndarray  # (Nx+1, n)
    omega0: np.ndarray  # (2, n)
    omegaT: np.ndarray  # (2, n)


def zero_state(mesh: Mesh, n: int) -> StateBundle:
    shapes = block_shapes(mesh.Nt, mesh.Nx, (n,) * len(LAYOUTS))
    return StateBundle(*map(np.zeros, shapes))


def zero_costate(mesh: Mesh, n: int) -> CoStateBundle:
    shapes = block_shapes(mesh.Nt, mesh.Nx, (n,) * len(LAYOUTS))
    return CoStateBundle(*map(np.zeros, shapes))


def zero_controls(mesh: Mesh, m_u: int, m_w: int) -> ControlBundle:
    dims = tuple(L.control_dim(m_u, m_w) for L in LAYOUTS)
    return ControlBundle(*map(np.zeros, block_shapes(mesh.Nt, mesh.Nx, dims)))


def check_state_shapes(mesh: Mesh, state: StateBundle) -> int:
    """Validate the six blocks past phi's member axes; returns the state dimension."""
    n = state.phi.shape[-1] if state.phi.ndim >= 3 else -1
    lead = state.phi.shape[:-3]
    expected = block_shapes(mesh.Nt, mesh.Nx, (n,) * len(LAYOUTS))
    for name, shape, block in zip(state.names, expected, state.blocks()):
        if block.shape != lead + shape:
            raise ShapeError(
                f"state block {name}: expected shape {lead + shape}, got {block.shape}"
            )
    return n


def _edge_gradient(mesh: Mesh, interior: np.ndarray, wall: np.ndarray) -> np.ndarray:
    """One-sided d/dx at the two walls, reading the wall unknown plus the
    two nearest interior columns.

    interior: (..., Nx+1, n) slice or field rows; wall: (..., 2, n).
    """
    dx = mesh.dx
    left = (-1.5 * wall[..., LEFT, :] + 2.0 * interior[..., 1, :] - 0.5 * interior[..., 2, :]) / dx
    right = (1.5 * wall[..., RIGHT, :] - 2.0 * interior[..., -2, :] + 0.5 * interior[..., -3, :]) / dx
    return np.stack([left, right], axis=-2)


#: Each derived slot from the mesh m, the state s and the kept slots d; the
#: stencils count axes from the end, so leading member axes ride along.
_DERIVED = {
    "p": lambda m, s, d: apply_axis(m.d1_x, s.phi, -2),
    "q": lambda m, s, d: apply_axis(m.d2_x, s.phi, -2),
    "phi_dot": lambda m, s, d: apply_axis(m.d1_t, s.phi, -3),
    "p_dot": lambda m, s, d: apply_axis(m.d1_t, d.p, -3),
    "q_dot": lambda m, s, d: apply_axis(m.d1_t, d.q, -3),
    "phi_bd_dot": lambda m, s, d: apply_axis(m.d1_t, s.phi_bd, -3),
    "p_bd": lambda m, s, d: _edge_gradient(m, s.phi, s.phi_bd),
    "p_bd_dot": lambda m, s, d: apply_axis(m.d1_t, d.p_bd, -3),
    "p0": lambda m, s, d: apply_axis(m.d1_x, s.phi0, -2),
    "q0": lambda m, s, d: apply_axis(m.d2_x, s.phi0, -2),
    "pT": lambda m, s, d: apply_axis(m.d1_x, s.phiT, -2),
    "qT": lambda m, s, d: apply_axis(m.d2_x, s.phiT, -2),
    "p0_bd": lambda m, s, d: _edge_gradient(m, s.phi0, s.phi0_bd),
    "pT_bd": lambda m, s, d: _edge_gradient(m, s.phiT, s.phiT_bd),
}


class DerivedSlots:
    """The derived fields the kernels and cost integrands may read, one
    attribute per name in `_DERIVED`, derived on first access and kept.

    phi_bd_dot is the time derivative of the governed boundary unknown
    phi_bd, not of the trace of phi.
    """

    def __init__(self, mesh: Mesh, state: StateBundle):
        self._mesh, self._state = mesh, state

    def __getattr__(self, name):
        if name not in _DERIVED:
            raise AttributeError(f"no derived slot {name!r}")
        value = _DERIVED[name](self._mesh, self._state, self)
        setattr(self, name, value)
        return value


def derive_slots(mesh: Mesh, state: StateBundle) -> DerivedSlots:
    """The derived slots of state.  Its blocks are read on first access of
    a slot, not here: do not write them while the result is still read."""
    check_state_shapes(mesh, state)
    return DerivedSlots(mesh, state)


@dataclass(frozen=True)
class FlatIndex:
    """Deterministic bijection between the six blocks of a bundle and a
    flat coordinate range.

    Blocks follow the layout table's order, each flattened in C order
    (phi: t-major, then x, then component).  dims holds the component
    count of each block.
    """

    Nt: int
    Nx: int
    dims: tuple
    bundle: type = StateBundle

    @property
    def shapes(self):
        return block_shapes(self.Nt, self.Nx, self.dims)

    @property
    def total(self) -> int:
        return flat_spans(self.shapes)[-1][1]


@functools.lru_cache(maxsize=256)
def flat_spans(shapes: tuple) -> tuple:
    """(start, stop, shape) of each block of these shapes in one flat vector."""
    spans, start = [], 0
    for shape in shapes:
        stop = start + math.prod(shape)
        spans.append((start, stop, shape))
        start = stop
    return tuple(spans)


def bundle_of(cls: type, flat: np.ndarray, shapes: tuple) -> _Bundle:
    """A bundle of class cls whose blocks are views of flat.  A 2-D flat
    holds one member per row, and every block gains that member axis."""
    lead = flat.shape[:-1]
    return cls(*(flat[..., a:b].reshape(lead + s) for a, b, s in flat_spans(shapes)), flat=flat)


def stack(bundles: list) -> _Bundle:
    """One bundle over a 2-D flat holding the given bundles as its rows."""
    shapes = tuple(b.shape for b in bundles[0].blocks())
    return bundle_of(type(bundles[0]), np.stack([pack(b) for b in bundles]), shapes)


def flat_index(mesh: Mesh, n: int) -> FlatIndex:
    return FlatIndex(Nt=mesh.Nt, Nx=mesh.Nx, dims=(n,) * len(LAYOUTS))


def control_index(mesh: Mesh, m_u: int, m_w: int) -> FlatIndex:
    dims = tuple(L.control_dim(m_u, m_w) for L in LAYOUTS)
    return FlatIndex(Nt=mesh.Nt, Nx=mesh.Nx, dims=dims, bundle=ControlBundle)


def pack(bundle: _Bundle) -> np.ndarray:
    return np.concatenate([b.ravel() for b in bundle.blocks()])


def unpack(idx: FlatIndex, flat: np.ndarray):
    flat = np.asarray(flat, dtype=float)
    if flat.shape != (idx.total,):
        raise ShapeError(f"expected flat length {idx.total}, got {flat.shape}")
    return bundle_of(idx.bundle, flat, idx.shapes)


def sup_distance(a: _Bundle, b: _Bundle) -> float:
    """Maximum absolute componentwise difference over all six blocks; NaN
    when any difference is NaN."""
    worst = [0.0]
    for ba, bb in zip(a.blocks(), b.blocks()):
        if ba.shape != bb.shape:
            raise ShapeError(f"mismatched block shapes {ba.shape} vs {bb.shape}")
        if ba.size:
            worst.append(np.max(np.abs(ba - bb)))
    return float(np.max(worst))
