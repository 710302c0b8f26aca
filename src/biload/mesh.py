"""Uniform space-time grid, quadrature weights, and difference stencils.

The grid covers the cylinder Q = (x_a, x_b) x (0, T_final) with Nt uniform
steps in time and Nx uniform cells in space.  The boundary consists of the
two endpoints, indexed 0 (left, outward normal -1) and 1 (right, normal +1).
All integrals are trapezoidal; the boundary "integral" is the plain sum of
the two endpoint values (counting measure).

Stencils are second order everywhere: centered three-point formulas at
interior nodes and one-sided three/four-point formulas at the four grid
edges.  Each is a dense matrix that `apply_axis` applies along one axis of
a node field; a mixed derivative is two such passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, ShapeError

LEFT, RIGHT = 0, 1
NORMALS = (-1.0, 1.0)


def _diff1_matrix(m: int, h: float) -> np.ndarray:
    """Dense first-derivative matrix on m uniform nodes with spacing h.

    Centered (f[k+1]-f[k-1])/2h inside, second-order one-sided rows at
    both ends.
    """
    D = np.zeros((m, m))
    for k in range(1, m - 1):
        D[k, k - 1] = -0.5 / h
        D[k, k + 1] = 0.5 / h
    D[0, 0:3] = np.array([-1.5, 2.0, -0.5]) / h
    D[m - 1, m - 3 : m] = np.array([0.5, -2.0, 1.5]) / h
    return D


def _diff2_matrix(m: int, h: float) -> np.ndarray:
    """Dense second-derivative matrix, second order including one-sided rows."""
    D = np.zeros((m, m))
    h2 = h * h
    for k in range(1, m - 1):
        D[k, k - 1 : k + 2] = np.array([1.0, -2.0, 1.0]) / h2
    D[0, 0:4] = np.array([2.0, -5.0, 4.0, -1.0]) / h2
    D[m - 1, m - 4 : m] = np.array([-1.0, 4.0, -5.0, 2.0]) / h2
    return D


def _trapezoid_weights(count: int, h: float) -> np.ndarray:
    w = np.full(count + 1, h)
    w[0] = 0.5 * h
    w[-1] = 0.5 * h
    return w


@dataclass(frozen=True)
class Mesh:
    """Immutable uniform grid over (x_a, x_b) x (0, T_final)."""

    T_final: float
    Nt: int
    x_a: float
    x_b: float
    Nx: int
    dt: float
    dx: float

    @cached_property
    def t(self) -> np.ndarray:
        return self.dt * np.arange(self.Nt + 1)

    @cached_property
    def x(self) -> np.ndarray:
        return self.x_a + self.dx * np.arange(self.Nx + 1)

    @cached_property
    def bd_x(self) -> np.ndarray:
        """Coordinates of the two boundary points (left, right)."""
        return np.array([self.x_a, self.x_b])

    @cached_property
    def normals(self) -> np.ndarray:
        return np.array(NORMALS)

    @cached_property
    def wt(self) -> np.ndarray:
        """Trapezoid weights over [0, T_final]; sum equals T_final."""
        return _trapezoid_weights(self.Nt, self.dt)

    @cached_property
    def wx(self) -> np.ndarray:
        """Trapezoid weights over [x_a, x_b]; sum equals x_b - x_a."""
        return _trapezoid_weights(self.Nx, self.dx)

    @cached_property
    def volterra_lower(self) -> np.ndarray:
        """V[i, k]: weight of node k in the trapezoid rule on [0, t_i].

        Row 0 is identically zero (empty range), so running integrals
        vanish at the initial row.
        """
        nt = self.Nt + 1
        V = np.zeros((nt, nt))
        for i in range(1, nt):
            V[i, : i + 1] = self.dt
            V[i, 0] = 0.5 * self.dt
            V[i, i] = 0.5 * self.dt
        return V

    @cached_property
    def volterra_upper(self) -> np.ndarray:
        """U[i, k]: costate-side weight of consumer node i against
        producer node k, the exact transpose of the running-integral
        weights under the time-quadrature inner product:
        U = wt V / wt (elementwise rows/columns).

        Away from the two diagonal corners this is precisely the
        trapezoid rule on [t_k, T]; at the corners it inherits the
        forward convention (the empty initial row transposes to an empty
        (0, 0) weight), which keeps discrete costates aligned with the
        dense-oracle multipliers to solver tolerance.
        """
        return self.wt[:, None] * self.volterra_lower / self.wt[None, :]

    @cached_property
    def d1_t(self) -> np.ndarray:
        return _diff1_matrix(self.Nt + 1, self.dt)

    @cached_property
    def d1_x(self) -> np.ndarray:
        return _diff1_matrix(self.Nx + 1, self.dx)

    @cached_property
    def d2_x(self) -> np.ndarray:
        return _diff2_matrix(self.Nx + 1, self.dx)

    @cached_property
    def _plans(self) -> dict:
        return {}

    def plan(self, key, build, *args):
        """build(*args), built on the first call with key and kept on this
        instance: keying on an equal mesh would hash its fields each call."""
        plans = self._plans
        if key not in plans:
            plans[key] = build(*args)
        return plans[key]


def build_mesh(T_final: float, Nt: int, x_a: float, x_b: float, Nx: int) -> Mesh:
    """Construct a mesh, rejecting out-of-range or non-finite parameters."""
    values = {"T_final": T_final, "Nt": Nt, "x_a": x_a, "x_b": x_b, "Nx": Nx}
    for name, value in values.items():
        if not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value!r}")
    for name in ("Nt", "Nx"):
        if values[name] != int(values[name]):
            raise ConfigError(f"{name} must be a whole number, got {values[name]!r}")
    if T_final <= 0:
        raise ConfigError(f"T_final must be positive, got {T_final}")
    if not x_a < x_b:
        raise ConfigError(f"need x_a < x_b, got x_a={x_a}, x_b={x_b}")
    if Nt < 4:
        raise ConfigError(f"Nt must be at least 4, got {Nt}")
    if Nx < 4:
        raise ConfigError(f"Nx must be at least 4, got {Nx}")
    return Mesh(
        T_final=float(T_final),
        Nt=int(Nt),
        x_a=float(x_a),
        x_b=float(x_b),
        Nx=int(Nx),
        dt=float(T_final) / int(Nt),
        dx=(float(x_b) - float(x_a)) / int(Nx),
    )


def apply_axis(matrix: np.ndarray, field: np.ndarray, axis: int) -> np.ndarray:
    """Apply a dense 1-D operator matrix along one axis of field."""
    moved = np.moveaxis(field, axis, 0)
    out = np.tensordot(matrix, moved, axes=(1, 0))
    return np.moveaxis(out, 0, axis)


@dataclass(frozen=True)
class CurveMesh:
    """Uniform periodic mesh on a closed curve of circumference L_c."""

    M: int
    L_c: float
    ds: float

    @cached_property
    def s(self) -> np.ndarray:
        return self.ds * np.arange(self.M)


def build_curve_mesh(M: int, L_c: float) -> CurveMesh:
    if not (math.isfinite(M) and M == int(M)):
        raise ConfigError(f"M must be a whole number, got {M!r}")
    if M < 8:
        raise ConfigError(f"curve mesh needs M >= 8 nodes, got {M}")
    if not (math.isfinite(L_c) and L_c > 0):
        raise ConfigError(f"circumference must be positive and finite, got {L_c!r}")
    return CurveMesh(M=int(M), L_c=float(L_c), ds=float(L_c) / int(M))


def curve_diff(curve: CurveMesh, field: np.ndarray) -> np.ndarray:
    """Periodic centered arclength derivative (f[k+1] - f[k-1]) / (2 ds)."""
    field = np.asarray(field, dtype=float)
    if field.shape[0] != curve.M:
        raise ShapeError(f"expected {curve.M} curve samples, got {field.shape[0]}")
    return (np.roll(field, -1, axis=0) - np.roll(field, 1, axis=0)) / (2.0 * curve.ds)
