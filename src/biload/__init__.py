"""Optimal control of biloaded Volterra-Fredholm integral state systems.

Forward fixed-point solution of a six-block integral system (trajectory,
boundary trace, and four initial/final slices, each loading the others
through running and nonlocal integrals), costate solution of the paired
stationarity system, adjoint control gradients, and independent
finite-difference and dense discrete-oracle verification.
"""

from .adjoint import (
    ControlGradient,
    apply_theta,
    assemble_h_partials,
    block_pairing,
    control_gradient,
    gradient_norm2,
    solve_costate,
)
from .errors import (
    ConfigError,
    DivergenceError,
    KernelEvalError,
    ShapeError,
    SingularSystemError,
)
from .forward import (
    SolveReport,
    SolverConfig,
    eval_cost,
    residual_flat,
    solve_forward,
    sweep_map,
)
from .kernels import (
    CostTerm,
    Kernel,
    KernelShape,
    KERNEL_IDS,
    KERNEL_SHAPES,
    Problem,
    SLOT_FAMILIES,
    validate_partials,
)
from .mesh import (
    CurveMesh,
    Mesh,
    build_curve_mesh,
    build_mesh,
    curve_diff,
)
from .models import (
    MODEL_NAMES,
    ModelParams,
    make_model,
    make_params,
    model_reference,
    picard_relax_hint,
)
from .optimize import OptimizeHistory, OptimizeOptions, project, run_gd
from .state import (
    LAYOUTS,
    ControlBundle,
    CoStateBundle,
    DerivedSlots,
    StateBundle,
    derive_slots,
    pack,
    zero_controls,
    zero_costate,
    zero_state,
)
from .verify import (
    GradCheckReport,
    RefinementTable,
    dto_solve,
    fd_directional,
    gradient_check,
    ibp_residual,
    refinement_study,
    skew_adjoint_residual,
    smooth_direction,
)

__version__ = "0.1.0"
