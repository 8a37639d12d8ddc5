"""Pseudo-spectral toolkit for damped variable-density incompressible Euler
flow on the periodic 2-torus, with dyadic-decomposition norms and the
associated condition and decay diagnostics."""

__version__ = "0.1.0"

from .fields import (
    GridSpec,
    ScalarField,
    VectorField,
    advect,
    curl2d,
    dealias,
    divergence,
    gradient,
    leray_project,
    lp_norm,
    perp_gradient,
)
from .littlewood_paley import (
    BesovIndex,
    DyadicFilterBank,
    besov_norm,
    build_filter_bank,
    commutator_damping_profile,
    dyadic_block,
    intersection_norm,
    low_cutoff,
    paraproduct,
    remainder,
)
from .elliptic import (
    CoefficientBounds,
    PressureSolveError,
    PressureSolveParams,
    lax_milgram_check,
    solve_pressure,
)
from .dynamics import (
    FluidState,
    ICRecipe,
    InvariantViolation,
    SimConfig,
    run_simulation,
    solve_linear_transport,
    step_rk4,
    vorticity_forcing,
)
from .diagnostics import (
    ConditionReport,
    DecayFit,
    DiagnosticsRecord,
    InitialNorms,
    SmallnessParams,
    beta0,
    bkm_report,
    energy_balance_residual,
    fit_decay_rate,
    smallness_gamma0_general,
    smallness_gamma1_2d,
    smallness_gamma1_general,
)
