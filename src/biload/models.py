"""Builtin model library.

Each builder recasts a conservation-law model into the integral form the
solver consumes, by integrating the evolution law once in time: the free
constant (the right-limit initial profile) becomes a state-independent f0
term, instantaneous flux divergences become f1 terms reading the second
spatial derivative at the running time, flux memory becomes an explicit
(t, s) dependence of f1, a nonlocal radiation exchange becomes an f3
term, distributed controls enter f1, and Dirichlet boundary data enters
g0 through the boundary control.

Spatial profiles in the builtins are written for the unit interval
(0, 1); run them on other domains at your own risk.  The time horizon is
free.

Models
------
volterra_exp            phi = 1 + running integral of phi; fixed point e^t
lq_volterra             scalar linear running dynamics, quadratic tracking cost
heat                    instantaneous diffusive flux (classical diffusion)
barenblatt              flux augmented with the gradient of the time derivative
integral_cv             memory flux with exponential relaxation
integral_cv_barenblatt  memory flux including the time-derivative term
forest_fire_minimal     memory flux + nonlocal radiation exchange + sink
biload_demo             two-way interior/boundary loading with all four
                        cross kernels (f4, f5, g2, g3) and live slice
                        couplings; exercises every costate block
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError
from .kernels import CostTerm, Kernel, Problem
from .mesh import Mesh


@dataclass(frozen=True)
class ModelParams:
    name: str
    values: dict


def _tracking_cost(ref, alpha, windowed: bool = False):
    """F1 = chi(x) |phi - ref(t, x)|^2 + alpha |u|^2 with slot gradients.

    With windowed=True the tracking weight chi = 4 x (1 - x) fades out at
    the walls, keeping the tracking term consistent with wall values
    governed by the trace equation.
    """
    if windowed:
        chi = lambda a: 4.0 * a.x * (1.0 - a.x)
    else:
        chi = lambda a: 1.0
    return CostTerm(
        fn=lambda a: (chi(a) * (a.phi - ref(a)) ** 2).sum(-1)
        + alpha * (a.u**2).sum(-1),
        partials={
            "phi": lambda a: 2.0 * chi(a) * (a.phi - ref(a)),
            "u": lambda a: 2.0 * alpha * a.u,
        },
    )


def _boundary_cost(beta, gamma):
    return CostTerm(
        fn=lambda a: beta * (a.phi_bd**2).sum(-1) + gamma * (a.w**2).sum(-1),
        partials={
            "phi_bd": lambda a: 2.0 * beta * a.phi_bd,
            "w": lambda a: 2.0 * gamma * a.w,
        },
    )


def _dirichlet_g0(d_w):
    """Boundary trace equals boundary control, scaled."""
    return Kernel(fn=lambda a: d_w * a.w, partials={"w": lambda a: d_w})


def _sin_profile(amp):
    return lambda a: amp * np.sin(np.pi * a.x)


def _volterra_exp(v: dict) -> Problem:
    ref = lambda a: 0.5 + 0.25 * np.tanh(a.t)
    return Problem(
        n=1,
        m_u=1,
        m_w=0,
        kernels={
            "f0": Kernel(fn=lambda a: np.ones_like(a.phi)),
            "f1": Kernel(fn=lambda a: a.phi, partials={"phi": lambda a: 1.0}),
        },
        cost_F1=_tracking_cost(ref, v["alpha"], windowed=True),
    )


def _lq_volterra(v: dict) -> Problem:
    a_, b_, c0 = v["a"], v["b"], v["c0"]
    ref = lambda a: 0.4 * np.sin(np.pi * a.x) + 0.2 * np.tanh(a.t)
    return Problem(
        n=1,
        m_u=1,
        m_w=0,
        kernels={
            "f0": Kernel(fn=lambda a: c0 * np.ones_like(a.phi)),
            "f1": Kernel(
                fn=lambda a: a_ * a.phi + b_ * a.u,
                partials={"phi": lambda a: a_, "u": lambda a: b_},
            ),
        },
        cost_F1=_tracking_cost(ref, v["alpha"], windowed=True),
    )


def _diffusive(v: dict, extra_kernels=None, sink=None) -> Problem:
    """Shared scaffolding of the diffusion-flux family.  A parameter A
    makes the flux an exponentially relaxing memory, a parameter L adds a
    time-derivative flux term, and a sink is subtracted from the running
    term last."""
    K, c_u = v["K"], v["c_u"]
    with_L = "L" in v
    L = v["L"] if with_L else 0.0
    init = _sin_profile(v["amp"])

    if "A" in v:
        A = v["A"]
        relax = lambda a: np.exp(-A * (a.t - a.s))
        def flux(a):
            return relax(a) * (K * a.q + (L * a.q_dot if with_L else 0.0))
        partials = {
            "q": lambda a: (K * relax(a))[..., None],
            "u": lambda a: c_u,
        }
        if with_L:
            partials["q_dot"] = lambda a: (L * relax(a))[..., None]
    else:
        def flux(a):
            return K * a.q + (L * a.q_dot if with_L else 0.0)
        partials = {"q": lambda a: K, "u": lambda a: c_u}
        if with_L:
            partials["q_dot"] = lambda a: L

    if sink is None:
        f1_fn = lambda a: flux(a) + c_u * a.u
    else:
        f1_fn = lambda a: flux(a) + c_u * a.u - sink
    kernels = {
        "f0": Kernel(fn=lambda a: init(a) * np.ones_like(a.phi)),
        "f1": Kernel(fn=f1_fn, partials=partials),
        "g0": _dirichlet_g0(v["d_w"]),
        "f00": Kernel(fn=lambda a: init(a) * np.ones_like(a.phi0)),
    }
    if extra_kernels:
        kernels.update(extra_kernels)
    zero_ref = lambda a: 0.0
    return Problem(
        n=1,
        m_u=1,
        m_w=1,
        kernels=kernels,
        cost_F1=_tracking_cost(zero_ref, v["alpha"]),
        cost_G1=_boundary_cost(0.0, v["gamma_w"]),
    )


def _forest_fire(v: dict) -> Problem:
    """The memory-flux model plus a nonlocal radiation exchange (f3) and a
    sink v0 in the running term."""
    c_R, ell = v["c_R"], v["ell"]

    def radiation(a):
        kxy = np.exp(-(((a.x - a.y) / ell) ** 2))
        return c_R * kxy * np.tanh(a.phi)

    def radiation_dphi(a):
        kxy = np.exp(-(((a.x - a.y) / ell) ** 2))
        return (c_R * kxy * (1.0 - np.tanh(a.phi) ** 2))[..., None]

    f3 = Kernel(fn=radiation, partials={"phi": radiation_dphi})
    return _diffusive(v, {"f3": f3}, sink=v["v0"])


def _biload_demo(v: dict) -> Problem:
    a1, b1 = v["a1"], v["b1"]
    c4, d4, c5 = v["c4"], v["d4"], v["c5"]
    cg0, e_bd, d0 = v["cg0"], v["e_bd"], v["d0"]
    c2, c3 = v["c2"], v["c3"]
    e0, cT, ew0, cTb = v["e0"], v["cT"], v["ew0"], v["cTb"]

    k4 = lambda a: 0.5 + 0.5 * a.x * a.eta
    k2 = lambda a: 0.5 + 0.5 * np.cos(np.pi * (a.y - a.xi))
    k3 = lambda a: np.exp(-(a.t - a.s)) * (0.5 + 0.3 * a.y)
    ref = lambda a: 0.4 * np.sin(np.pi * a.x) * (0.5 + 0.5 * a.t)

    kernels = {
        "f0": Kernel(fn=lambda a: v["c_f0"] * (1.0 + a.x * (1.0 - a.x)) * np.ones_like(a.phi)),
        "f1": Kernel(
            fn=lambda a: a1 * a.phi + b1 * (4.0 * a.x * (1.0 - a.x)) * a.u,
            partials={
                "phi": lambda a: a1,
                "u": lambda a: (b1 * 4.0 * a.x * (1.0 - a.x))[..., None],
            },
        ),
        "f4": Kernel(
            fn=lambda a: c4 * k4(a) * a.phi_bd + d4 * a.w,
            partials={
                "phi_bd": lambda a: (c4 * k4(a))[..., None],
                "w": lambda a: d4,
            },
        ),
        "f5": Kernel(
            fn=lambda a: c5 * np.exp(-(a.t - a.s)) * a.phi_bd,
            partials={"phi_bd": lambda a: (c5 * np.exp(-(a.t - a.s)))[..., None]},
        ),
        "g0": Kernel(
            fn=lambda a: cg0 * (0.4 + 0.3 * a.xi + 0.2 * np.sin(a.t))
            + e_bd * a.phi_bd
            + d0 * a.w,
            partials={"phi_bd": lambda a: e_bd, "w": lambda a: d0},
        ),
        "g2": Kernel(
            fn=lambda a: c2 * k2(a) * a.phi,
            partials={"phi": lambda a: (c2 * k2(a))[..., None]},
        ),
        "g3": Kernel(
            fn=lambda a: c3 * k3(a) * a.phi,
            partials={"phi": lambda a: (c3 * k3(a))[..., None]},
        ),
        "f00": Kernel(
            fn=lambda a: 0.3 * np.sin(np.pi * a.x) + e0 * a.u0,
            partials={"u0": lambda a: e0},
        ),
        "fT1": Kernel(fn=lambda a: cT * a.phi, partials={"phi": lambda a: cT}),
        "g00": Kernel(
            fn=lambda a: 0.2 + 0.1 * a.xi + ew0 * a.w0,
            partials={"w0": lambda a: ew0},
        ),
        "gT1": Kernel(fn=lambda a: cTb * a.phi_bd, partials={"phi_bd": lambda a: cTb}),
    }
    alpha = v["alpha"]
    cost_F0 = CostTerm(
        fn=lambda a: 0.5 * ((a.phi0 - 0.2) ** 2).sum(-1)
        + 0.5 * ((a.phiT - 0.3) ** 2).sum(-1)
        + 0.1 * (a.u0**2).sum(-1)
        + 0.1 * (a.uT**2).sum(-1),
        partials={
            "phi0": lambda a: 1.0 * (a.phi0 - 0.2),
            "phiT": lambda a: 1.0 * (a.phiT - 0.3),
            "u0": lambda a: 0.2 * a.u0,
            "uT": lambda a: 0.2 * a.uT,
        },
    )
    cost_G0 = CostTerm(
        fn=lambda a: 0.1 * (a.phi0_bd**2).sum(-1)
        + 0.1 * (a.phiT_bd**2).sum(-1)
        + 0.1 * (a.w0**2).sum(-1)
        + 0.1 * (a.wT**2).sum(-1),
        partials={
            "phi0_bd": lambda a: 0.2 * a.phi0_bd,
            "phiT_bd": lambda a: 0.2 * a.phiT_bd,
            "w0": lambda a: 0.2 * a.w0,
            "wT": lambda a: 0.2 * a.wT,
        },
    )
    return Problem(
        n=1,
        m_u=1,
        m_w=1,
        kernels=kernels,
        cost_F1=_tracking_cost(ref, alpha),
        cost_G1=_boundary_cost(v["beta_bd"], v["gamma_w"]),
        cost_F0=cost_F0,
        cost_G0=cost_G0,
    )


def _exp_reference(v: dict):
    return lambda t, x: np.exp(t)[:, None] * np.ones((1, x.shape[0]))


def _heat_reference(v: dict):
    K, amp = v["K"], v["amp"]
    return lambda t, x: amp * np.exp(-K * np.pi**2 * t)[:, None] * np.sin(
        np.pi * x
    )[None, :]


def _diffusive_gain(v: dict, mesh: Mesh) -> float:
    """The running diffusive term contributes K * lam * dt/2 through the
    implicit self-weight of the trapezoid rule (lam = 4/dx^2 bounds the
    second-difference spectrum); a time-derivative flux term contributes
    an instantaneous 0.75 * L * lam through the running integral's top
    end."""
    lam = 4.0 / mesh.dx**2
    gain = v["K"] * lam * mesh.dt / 2.0
    if "L" in v:
        gain += 0.75 * v["L"] * lam
    return gain


def _biload_gain(v: dict, mesh: Mesh) -> float:
    """The weights of the live cross-load couplings: c4 of f4 twice, c2 of
    g2 and the trace's self-coupling e_bd in g0."""
    return 2.0 * v["c4"] + v["c2"] + v["e_bd"]


def _flux_defaults(**leading) -> dict:
    """Defaults of a diffusion-flux model: its own parameters, then the
    control gains, initial amplitude and cost weights the family shares."""
    return {**leading, "c_u": 1.0, "d_w": 1.0, "amp": 1.0, "alpha": 0.1, "gamma_w": 0.1}


@dataclass(frozen=True)
class _Builtin:
    """A builtin model: its parameter defaults, its Problem builder
    (values -> Problem), its analytic reference builder (values ->
    callable (t_nodes, x_nodes) -> (Nt+1, Nx+1) array) if it has one, and
    its stiffness gain ((values, mesh) -> float, see stiffness_gain) if its
    sweeps have stiff content."""

    defaults: dict
    build: Callable
    reference: Callable = None
    gain: Callable = None


_BUILTINS = {
    "volterra_exp": _Builtin({"alpha": 0.1}, _volterra_exp, _exp_reference),
    "lq_volterra": _Builtin({"a": -0.6, "b": 1.0, "c0": 0.5, "alpha": 0.1}, _lq_volterra),
    "heat": _Builtin(_flux_defaults(K=1.0), _diffusive, _heat_reference, _diffusive_gain),
    "barenblatt": _Builtin(_flux_defaults(K=1.0, L=0.01), _diffusive, gain=_diffusive_gain),
    "integral_cv": _Builtin(_flux_defaults(K=1.0, A=1.0), _diffusive, gain=_diffusive_gain),
    "integral_cv_barenblatt": _Builtin(
        _flux_defaults(K=1.0, L=0.01, A=1.0), _diffusive, gain=_diffusive_gain
    ),
    "forest_fire_minimal": _Builtin(
        _flux_defaults(K=0.2, L=1e-3, A=1.0, c_R=0.3, ell=0.3, v0=0.05),
        _forest_fire,
        gain=_diffusive_gain,
    ),
    "biload_demo": _Builtin(
        {
            "a1": 0.3,
            "b1": 1.0,
            "c_f0": 0.2,
            "c4": 0.15,
            "d4": 0.2,
            "c5": 0.15,
            "cg0": 0.25,
            "e_bd": 0.2,
            "d0": 1.0,
            "c2": 0.2,
            "c3": 0.2,
            "e0": 1.0,
            "cT": 0.3,
            "ew0": 1.0,
            "cTb": 0.3,
            "alpha": 0.1,
            "beta_bd": 0.2,
            "gamma_w": 0.1,
        },
        _biload_demo,
        gain=_biload_gain,
    ),
}

MODEL_NAMES = tuple(_BUILTINS)


def _builtin(name: str) -> _Builtin:
    if name not in _BUILTINS:
        raise ConfigError(
            f"unknown model {name!r}; available: {', '.join(MODEL_NAMES)}"
        )
    return _BUILTINS[name]


def make_params(name: str, **overrides) -> ModelParams:
    """ModelParams with schema defaults and validated overrides."""
    values = dict(_builtin(name).defaults)
    for key, val in overrides.items():
        if key not in values:
            raise ConfigError(f"model {name!r} has no parameter {key!r}")
        values[key] = float(val)
        if not np.isfinite(values[key]):
            raise ConfigError(f"model {name!r} parameter {key!r} must be finite, got {values[key]}")
    return ModelParams(name=name, values=values)


def make_model(params: ModelParams) -> Problem:
    """Instantiate a builtin model as a mesh-independent Problem."""
    return _builtin(params.name).build(params.values)


def model_reference(params: ModelParams):
    """Analytic trajectory reference for models that have one, as a
    callable (t_nodes, x_nodes) -> (Nt+1, Nx+1) array; None otherwise."""
    reference = _builtin(params.name).reference
    return None if reference is None else reference(params.values)


def stiffness_gain(params: ModelParams, mesh: Mesh) -> float:
    """Crude spectral bound of the sweep map's stiff content, as the
    model's record declares it (the diffusive family's is
    _diffusive_gain); 0.0 for a model without one.  Values well below one
    mean plain sweeps contract."""
    gain = _builtin(params.name).gain
    return 0.0 if gain is None else gain(params.values, mesh)


def picard_relax_hint(params: ModelParams, mesh: Mesh) -> float:
    """Relaxation factor for the sweep iteration, the damping of its
    Anderson acceleration (forward.fixed_point).

    Plain sweeps are kept only while the stiff gain is well below one;
    beyond that the triangular running-integral structure amplifies
    roundoff through long non-normal transients even when the spectral
    radius is fine, so the hint backs off roughly like 1/(1 + gain).
    Horizons with gain beyond a few units are outside the practical
    envelope of relaxed Picard regardless of relaxation; Anderson
    acceleration reaches further (heat at N=32, T=0.1: gain 6.4), and
    beyond that, shorten the horizon or refine time instead.
    """
    gain = stiffness_gain(params, mesh)
    if gain <= 0.45:
        return 1.0
    return 1.0 / (1.0 + gain)
