"""Variable-coefficient pressure solve -div((1/rho) grad Pi) = div F.

The discrete operator is the dealiased pseudo-spectral one: derivatives are
spectral and the coefficient product is truncated with the 2/3 rule, which is
exactly the operator the momentum tendency needs so that its divergence
vanishes. The solve is a fixed-point iteration preconditioned by the constant
coefficient inverse Laplacian with the midpoint coefficient split. It
converged at every density contrast tried, but its iteration count grows
about linearly with the contrast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .fields import (
    ParameterError,
    ScalarField,
    VectorField,
    _fftn,
    _half_tables,
    _ifftn_real,
    _parseval_l2,
    dealiased_product,
    divergence,
    gradient,
    lp_norm,
)
from .littlewood_paley import BesovIndex, DyadicFilterBank, besov_norm


class PressureSolveError(RuntimeError):
    """Fixed-point iteration failed to reach tolerance."""

    def __init__(self, message, residual, iterations):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


@dataclass(frozen=True)
class PressureSolveParams:
    tol: float = 1e-10
    max_iter: int = 500

    def __post_init__(self):
        if not self.tol > 0:
            raise ParameterError("tol", f"must be positive, got {self.tol}")
        if not self.max_iter >= 1:
            raise ParameterError("max_iter", f"must be at least 1, got {self.max_iter}")


@dataclass(frozen=True)
class CoefficientBounds:
    """Range of the coefficient a = 1/rho."""

    a_star: float   # inf of 1/rho = 1/max(rho)
    a_upper: float  # sup of 1/rho = 1/min(rho)

    def __post_init__(self):
        if not 0.0 < self.a_star <= self.a_upper:
            raise ValueError("need 0 < a_star <= a_upper")

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.a_star + self.a_upper)

    @property
    def uniform(self) -> bool:
        """Constant coefficient up to rounding: the operator is diagonal."""
        return self.a_upper - self.a_star <= 1e-14 * self.a_upper


def coefficient_bounds(rho: ScalarField) -> CoefficientBounds:
    rho_min = float(rho.values.min())
    rho_max = float(rho.values.max())
    if not (rho_min > 0.0 and math.isfinite(rho_max)):  # a NaN minimum fails too
        raise ValueError(f"density not finite and positive: min {rho_min:.3e}, max {rho_max:.3e}")
    return CoefficientBounds(a_star=1.0 / rho_max, a_upper=1.0 / rho_min)


@dataclass(frozen=True)
class PressureSolution:
    pi: ScalarField
    grad_pi: VectorField
    iterations: int
    residual: float
    residual_history: tuple[float, ...] = field(default=())


def operator_residual(rho_inv, pi_hat, rhs_hat, grid):
    """Half spectrum of -div(dealias(a * grad Pi)) - rhs."""
    t = _half_tables(grid)
    gx = _ifftn_real(t.ddx * pi_hat)
    gy = _ifftn_real(t.ddy * pi_hat)
    ax_hat = _fftn(rho_inv * gx) * t.dealias_mask
    ay_hat = _fftn(rho_inv * gy) * t.dealias_mask
    return -(t.ddx * ax_hat + t.ddy * ay_hat) - rhs_hat


def solve_pressure(
    rho: ScalarField,
    F: VectorField,
    params: PressureSolveParams | None = None,
    initial_guess: ScalarField | None = None,
) -> PressureSolution:
    """Solve -div((1/rho) grad Pi) = div F with the zero-mean gauge for Pi.

    Returns the potential, its gradient, the iteration count, and the final
    relative L^2 residual. Raises PressureSolveError (carrying the residual)
    if the source is not finite or the tolerance is not reached within
    max_iter iterations. An initial_guess (for example the previous time
    step's potential) shortens the iteration but never changes the converged
    answer.
    """
    if params is None:
        params = PressureSolveParams()
    grid = rho.grid
    t = _half_tables(grid)
    bounds = coefficient_bounds(rho)
    a = 1.0 / rho.values
    abar = bounds.midpoint

    rhs_hat = divergence(F).spectrum * t.dealias_mask
    rhs_norm = _parseval_l2(rhs_hat)
    if not math.isfinite(rhs_norm):
        raise PressureSolveError(f"pressure source not finite: |div F| = {rhs_norm}", rhs_norm, 0)

    # below the rounding floor of the divergence computation the source is
    # zero and the gauge-fixed solution is identically zero
    noise_floor = 1e-12 * max(1.0, grid.k_max * lp_norm(F, 2))
    if rhs_norm <= noise_floor:
        zero = ScalarField.zero(grid)
        return PressureSolution(
            zero, VectorField((zero, zero)), 1, rhs_norm, (rhs_norm,)
        )

    # constant-coefficient initial guess: -abar * Lap(Pi) = rhs. Each pass
    # evaluates the residual res = -div(a grad Pi) - rhs and applies the
    # preconditioned correction Pi <- Pi - (-abar Lap)^{-1} res, which is
    # algebraically the midpoint-split fixed point
    # Pi <- (-Lap)^{-1} [ (rhs + div(dealias((a - abar) grad Pi))) / abar ].
    if initial_guess is not None:
        pi_hat = initial_guess.spectrum * t.dealias_mask
    else:
        pi_hat = rhs_hat * t.inv_neg_lap / abar
    history = []
    iterations = 0
    while True:
        iterations += 1
        if bounds.uniform:
            res_hat = abar * t.ksq * pi_hat - rhs_hat
        else:
            res_hat = operator_residual(a, pi_hat, rhs_hat, grid)
        residual = _parseval_l2(res_hat) / rhs_norm
        history.append(residual)
        if residual <= params.tol:
            break
        if iterations >= params.max_iter:
            raise PressureSolveError(
                f"pressure solve stalled at residual {residual:.3e} "
                f"after {iterations} iterations (tol {params.tol:.1e})",
                residual=residual,
                iterations=iterations,
            )
        pi_hat = pi_hat - res_hat * t.inv_neg_lap / abar

    pi_hat = pi_hat.copy()
    pi_hat.flat[0] = 0.0  # zero-mean gauge
    pi = ScalarField.from_spectrum(grid, pi_hat)
    grad_pi = gradient(pi)
    return PressureSolution(pi, grad_pi, iterations, residual, tuple(history))


def lax_milgram_check(rho: ScalarField, F: VectorField, grad_pi: VectorField) -> float:
    """Energy-bound ratio ||grad Pi||_{L^2} * a_star / ||F||_{L^2}.

    For a converged solve this cannot exceed one (up to the solve tolerance).
    """
    f_norm = lp_norm(F, 2)
    g_norm = lp_norm(grad_pi, 2)
    if f_norm == 0.0:
        if g_norm > 1e-12:
            raise ValueError(
                f"zero forcing but |grad Pi| = {g_norm:.3e}: inconsistent solve"
            )
        return 0.0
    return g_norm * coefficient_bounds(rho).a_star / f_norm


def besov_pressure_ratio(
    bank: DyadicFilterBank,
    rho: ScalarField,
    F: VectorField,
    grad_pi: VectorField,
    eta: float = 2.0,
) -> float:
    """Diagnostic ratio probing the higher-regularity pressure bound.

    Compares ||grad Pi||_{B^1_{inf,1}} against
    (1 + ||grad rho||_inf^eta) ||F||_{L^2} + ||rho div F||_{B^0_{inf,1}}.
    Reported, not asserted: the bound's constant is not quantitative.
    """
    num = besov_norm(bank, grad_pi, BesovIndex(1.0, math.inf, 1.0))
    grad_rho_inf = lp_norm(gradient(rho), math.inf)
    rho_divF = dealiased_product(rho, divergence(F))
    den = (1.0 + grad_rho_inf**eta) * lp_norm(F, 2) + besov_norm(
        bank, rho_divF, BesovIndex(0.0, math.inf, 1.0)
    )
    if den == 0.0:
        return 0.0
    return num / den
