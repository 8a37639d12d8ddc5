"""Variable-coefficient pressure solve -div((1/rho) grad Pi) = div F.

The discrete operator is the dealiased pseudo-spectral one: derivatives are
spectral and the coefficient product is truncated with the 2/3 rule, which is
exactly the operator the momentum tendency needs so that its divergence
vanishes; the solve also returns that tendency's pressure term dealias((1/rho)
grad Pi). Every solve is one preconditioned conjugate gradients loop, started
from the caller's guess or else cold from the preconditioned source; the
density contrast rho_max / rho_min picks the preconditioner:

- at or below CONCUS_GOLUB_CONTRAST, the constant-coefficient inverse
  Laplacian (-abar Lap)^{-1} (midpoint coefficient abar), which costs no
  transform; at uniform density the coefficient is the constant a_star, the
  operator is diagonal and this its exact inverse, so the cold start solves;
- above it, the symmetric Concus-Golub preconditioner (SIAM J. Numer. Anal.
  10, 1973), from -div(a grad p) = -a^{1/2} (Lap - q) a^{1/2} p:
  z = P[s F^-1((-Lap)^+ P[s F^-1 r])] with s = rho^{1/2}, F^-1 the inverse
  transform and P the forward transform then the dealias mask. It is
  self-adjoint in the Parseval inner product and costs 4 more transforms per
  iteration (8 in all).

Iterations of one cold solve (Gaussian bump, n = 64):

    contrast                1.2   2    4   10   31   100  1000
    (-abar Lap)^{-1}          8  14   21   35   63   116   371
    Concus-Golub              6   8   10   12   17    23    45

The constant, 3.375, is where the warm-started solves of a run, with the
extrapolated guesses of dynamics._Stepper, cross over in transforms per
solve: on the bump_contrast4_n64 benchmark workload at seed 0 cut to 50
steps (201 solves), with the bump amplitude varied, the constant-coefficient
preconditioner against Concus-Golub takes 13.69/14.33 at contrast 2.1,
13.95/14.33 at 3, 14.13/14.69 at 3.25, 14.19/14.65 at 3.35, 15.98/14.61 at
3.4, 16.10/14.61 at 3.5 and 16.24/14.65 at 3.98. The crossover moves with
the seed: the mean over seeds 0-9 and 17 crosses between 2.75 (13.80/13.91)
and 3 (14.18/13.92), and single seeds cross anywhere from below 2 to above
4. On one seed between contrast 2 and 4, either can cost up to a quarter
more than the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fields import (
    ParameterError,
    ScalarField,
    VectorField,
    _fftn,
    _half_tables,
    _ifftn_real,
    _parseval_dot,
    _parseval_l2,
    dealiased_product,
    divergence,
    gradient,
    lp_norm,
)
from .littlewood_paley import B1, BesovIndex, DyadicFilterBank, besov_norm


# density contrast above which the Concus-Golub preconditioner replaces
# (-abar Lap)^{-1}: the crossover in the module docstring
CONCUS_GOLUB_CONTRAST = 3.375


class PressureSolveError(RuntimeError):
    """Non-finite source, or no convergence within max_iter operator evaluations."""

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
    def contrast(self) -> float:
        """rho_max / rho_min."""
        return self.a_upper / self.a_star

    @property
    def uniform(self) -> bool:
        """Constant coefficient, an exact test with no tolerance: the operator
        is diagonal. Every density that dynamics.density_rhs leaves
        untransported (all samples equal) passes it."""
        return self.a_star == self.a_upper


def coefficient_bounds(rho: ScalarField) -> CoefficientBounds:
    rho_min = float(rho.values.min())
    rho_max = float(rho.values.max())
    if not (rho_min > 0.0 and math.isfinite(rho_max)):  # a NaN minimum fails too
        raise ValueError(f"density not finite and positive: min {rho_min:.3e}, max {rho_max:.3e}")
    return CoefficientBounds(a_star=1.0 / rho_max, a_upper=1.0 / rho_min)


@dataclass(frozen=True)
class PressureSolution:
    pi: ScalarField
    accel: VectorField  # dealias((1/rho) grad Pi): the tendency's pressure term
    iterations: int
    residual: float
    residual_history: tuple[float, ...] = field(default=())

    @property
    def grad_pi(self) -> VectorField:  # on demand: the stages need only pi and accel
        return gradient(self.pi)


def operator_residual(a, pi_hat, rhs_hat, grid):
    """Half spectra of -div(A) - rhs and of the flux A = dealias(a * grad Pi);
    a is the coefficient's samples, or a float: a constant, with no transform."""
    t = _half_tables(grid)
    if isinstance(a, float):
        ax_hat, ay_hat = (d * pi_hat * a * t.dealias_mask for d in (t.ddx, t.ddy))
    else:
        ax_hat, ay_hat = (_fftn(a * _ifftn_real(d * pi_hat)) * t.dealias_mask
                          for d in (t.ddx, t.ddy))
    return -(t.ddx * ax_hat + t.ddy * ay_hat) - rhs_hat, ax_hat, ay_hat


def preconditioner(rho: ScalarField, bounds: CoefficientBounds):
    """The solve's preconditioner, a map of half spectra r -> z: Concus-Golub
    above CONCUS_GOLUB_CONTRAST, else (-abar Lap)^{-1} (module docstring)."""
    t = _half_tables(rho.grid)
    if bounds.contrast <= CONCUS_GOLUB_CONTRAST:
        abar = bounds.midpoint
        return lambda r_hat: r_hat * t.inv_neg_lap / abar
    s = np.sqrt(rho.values)

    def concus_golub(r_hat):
        w_hat = _fftn(s * _ifftn_real(r_hat)) * t.dealias_mask
        return _fftn(s * _ifftn_real(w_hat * t.inv_neg_lap)) * t.dealias_mask

    return concus_golub


def solve_pressure(
    rho: ScalarField,
    F: VectorField,
    params: PressureSolveParams = PressureSolveParams(),
    initial_guess: ScalarField | None = None,
) -> PressureSolution:
    """Solve -div((1/rho) grad Pi) = div F with the zero-mean gauge for Pi.

    Returns the potential (its gradient on access), the acceleration
    dealias((1/rho) grad Pi), the iteration count and the final relative
    L^2 residual. Raises PressureSolveError (carrying the residual) if the
    source is not finite or the tolerance is not reached within max_iter
    iterations. An initial_guess (dynamics._Stepper extrapolates one from
    earlier potentials) shortens the iteration but never changes the
    converged answer; only its dealiased modes are read, and of its
    self-conjugate column k_y = 0 only the Hermitian part, which the inverse
    transform sees. At uniform density no guess is read.
    """
    grid = rho.grid
    t = _half_tables(grid)
    bounds = coefficient_bounds(rho)
    a = bounds.a_star if bounds.uniform else 1.0 / rho.values

    rhs_hat = divergence(F).spectrum * t.dealias_mask
    rhs_norm = _parseval_l2(rhs_hat)
    if not math.isfinite(rhs_norm):
        raise PressureSolveError(f"pressure source not finite: |div F| = {rhs_norm}", rhs_norm, 0)

    # below the rounding floor of the divergence computation the source is
    # zero and the gauge-fixed solution is identically zero
    noise_floor = 1e-12 * max(1.0, grid.k_max * lp_norm(F, 2))
    if rhs_norm <= noise_floor:
        zero = ScalarField.zero(grid)
        return PressureSolution(zero, VectorField((zero, zero)), 1, rhs_norm, (rhs_norm,))

    # preconditioned conjugate gradients on the Parseval inner product, from
    # the guess or the preconditioned source; res = -div(a grad Pi) - rhs and
    # the flux of Pi are updated recursively, one operator evaluation per
    # iteration. A constant coefficient a makes the operator diagonal and the
    # cold start exact (no guess is read), so the first evaluation returns.
    precondition = preconditioner(rho, bounds)
    if initial_guess is None or bounds.uniform:
        pi_hat = precondition(rhs_hat)
    else:
        # the inverse transform reads only the Hermitian part of the
        # self-conjugate column k_y = 0 (column n/2 is masked): the rest would
        # pass through the iteration unseen into pi.spectrum
        pi_hat = initial_guess.spectrum * t.dealias_mask
        col = pi_hat[:, 0]
        pi_hat[:, 0] = 0.5 * (col + np.conj(np.roll(col[::-1], 1)))
    res_hat, *flux = operator_residual(a, pi_hat, rhs_hat, grid)
    del rhs_hat  # the residual is updated without it from here on: peak memory
    iterations = 1
    residual = _parseval_l2(res_hat) / rhs_norm
    history = [residual]
    p_hat, rz = 0.0, 1.0  # a scalar zero: the first search direction is z
    while not residual <= params.tol:  # a NaN residual fails too
        if iterations >= params.max_iter:
            raise PressureSolveError(
                f"pressure solve stalled at residual {residual:.3e} "
                f"after {iterations} iterations (tol {params.tol:.1e})",
                residual=residual,
                iterations=iterations,
            )
        z_hat = precondition(res_hat)
        rz_old, rz = rz, _parseval_dot(res_hat, z_hat)
        p_hat *= rz / rz_old
        p_hat += z_hat
        del z_hat
        ap_hat, *flux_p = operator_residual(a, p_hat, 0.0, grid)
        step = -rz / _parseval_dot(p_hat, ap_hat)
        for x, dx in zip((res_hat, *flux), (ap_hat, *flux_p)):
            dx *= step
            x += dx
        del ap_hat, flux_p, dx  # free before the next evaluation: peak memory
        pi_hat += step * p_hat
        iterations += 1
        residual = _parseval_l2(res_hat) / rhs_norm
        history.append(residual)

    del a, res_hat, p_hat  # free before the outputs are built: peak memory
    pi_hat.flat[0] = 0.0  # zero-mean gauge; pi_hat is always a fresh array here
    pi = ScalarField(grid, spectrum=pi_hat)
    accel = VectorField(ScalarField(grid, spectrum=f) for f in flux)
    return PressureSolution(pi, accel, iterations, residual, tuple(history))


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
    num = besov_norm(bank, grad_pi, B1)
    grad_rho_inf = lp_norm(gradient(rho), math.inf)
    rho_divF = dealiased_product(rho, divergence(F))
    den = (1.0 + grad_rho_inf**eta) * lp_norm(F, 2) + besov_norm(
        bank, rho_divF, BesovIndex(0.0, math.inf, 1.0)
    )
    if den == 0.0:
        return 0.0
    return num / den
