"""Variable-coefficient pressure solve -div((1/rho) grad Pi) = div F.

The discrete operator is the dealiased pseudo-spectral one: derivatives are
spectral and the coefficient product is truncated with the 2/3 rule, which is
exactly the operator the momentum tendency needs so that its divergence
vanishes; the solve also returns that tendency's pressure term dealias((1/rho)
grad Pi). Every solve is one preconditioned conjugate gradients loop, started
from the caller's guess or else cold from the preconditioned source. It runs
on the lattice of its workspace (fields.Workspace): a field-API call on the
half lattice, the solves of dynamics._Stepper on the retained lattice of the
2/3 rule, where the same kernels give the same bits and the same iteration
counts. The density contrast rho_max / rho_min picks the preconditioner:

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
    Workspace,
    _divergence,
    _new_spectrum,
    _parseval_dot,
    _parseval_l2,
    _uniform,
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
    """Range of the coefficient a = 1/rho, and whether it is constant."""

    a_star: float   # inf of 1/rho = 1/max(rho)
    a_upper: float  # sup of 1/rho = 1/min(rho)
    # every density sample equal (fields._uniform, the test that
    # dynamics.density_rhs reads too): the operator is diagonal. Not
    # a_star == a_upper, which also holds for two adjacent doubles whose
    # reciprocals round alike.
    uniform: bool = False

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


def coefficient_bounds(rho: ScalarField | np.ndarray) -> CoefficientBounds:
    """The bounds of a density field, or of its samples."""
    values = rho.values if isinstance(rho, ScalarField) else rho
    rho_min = float(values.min())
    rho_max = float(values.max())
    if not (rho_min > 0.0 and math.isfinite(rho_max)):  # a NaN minimum fails too
        raise ValueError(f"density not finite and positive: min {rho_min:.3e}, max {rho_max:.3e}")
    return CoefficientBounds(a_star=1.0 / rho_max, a_upper=1.0 / rho_min, uniform=_uniform(rho_min, rho_max))


@dataclass(frozen=True)
class PressureSolution:
    pi: ScalarField | None  # None on the work= path, which leaves it in work
    # dealias((1/rho) grad Pi): the tendency's pressure term; a pair of
    # workspace spectra when the solve was given a workspace
    accel: VectorField | tuple[np.ndarray, np.ndarray]
    iterations: int
    residual: float
    residual_history: tuple[float, ...] = field(default=())

    @property
    def grad_pi(self) -> VectorField:  # on demand, of a field-API solve: the stages need only accel
        return gradient(self.pi)


def operator_residual(a, pi_hat, rhs_hat, grid):
    """Half spectra of -div(A) - rhs and of the flux A = dealias(a * grad Pi);
    a is the coefficient's samples, or a float: a constant, with no
    transform, when pi_hat must be dealiased (its flux is not masked again)."""
    work = Workspace(grid)
    res_hat, *flux = (_new_spectrum(grid) for _ in range(3))
    _operator(a, pi_hat, res_hat, flux, work)
    return np.subtract(res_hat, rhs_hat, out=res_hat), *flux


def preconditioner(rho: ScalarField, bounds: CoefficientBounds):
    """The solve's preconditioner, a map of half spectra r -> z: Concus-Golub
    above CONCUS_GOLUB_CONTRAST, else (-abar Lap)^{-1} (module docstring)."""
    work = Workspace(rho.grid)
    s = _preconditioner_samples(rho.values, bounds, work)
    return lambda r_hat: _precondition(r_hat, np.empty_like(r_hat), bounds, s, work)


def solve_pressure(
    rho: ScalarField | np.ndarray,
    F: VectorField | tuple[np.ndarray, np.ndarray],
    params: PressureSolveParams = PressureSolveParams(),
    initial_guess: ScalarField | np.ndarray | None = None,
    *,
    work: Workspace | None = None,
    bounds: CoefficientBounds | None = None,
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
    transform sees. At uniform density no guess is read. bounds, when
    given, are coefficient_bounds(rho), which the caller has formed already.

    dynamics._Stepper passes the workspace of its run as work, and arrays in
    place of the fields: rho the density samples, F the spectra of a
    dealiased forcing on work's lattice (so its divergence is not masked
    again) and initial_guess None or a spectrum on work's lattice. The solve
    runs on work's lattice in work's "potential" spectrum, where it copies
    the guess (the stepper writes its guess there, which saves the copy) and
    leaves the potential's spectrum; it returns no potential field then
    (pi is None). accel is the pair of work's "flux_x" and "flux_y"
    spectra, which the caller reads before the next kernel writes them.
    """
    field_api = work is None
    if field_api:
        grid, work = rho.grid, Workspace(rho.grid)
        rho = rho.values
        f_norm = lp_norm(F, 2)
        res_hat = divergence(F).spectrum * work.tables.dealias_mask
        flux = (_new_spectrum(grid), _new_spectrum(grid))
        pi_hat = _new_spectrum(grid)
        if initial_guess is not None:
            np.multiply(initial_guess.spectrum, work.tables.dealias_mask, out=pi_hat)
    else:
        grid, pi_hat = work.grid, work.spectrum("potential")
        f_norm = math.hypot(*(_parseval_l2(f) for f in F))
        res_hat = _divergence(*F, work.spectrum("residual"), work)
        flux = (work.spectrum("flux_x"), work.spectrum("flux_y"))
        if initial_guess is not None and initial_guess is not pi_hat:
            np.copyto(pi_hat, initial_guess)
    bounds = coefficient_bounds(rho) if bounds is None else bounds
    guessed = initial_guess is not None and not bounds.uniform
    a = bounds.a_star if bounds.uniform else np.divide(1.0, rho, out=work.samples("coefficient"))
    s = _preconditioner_samples(rho, bounds, work)
    iterations, residual, history = _pcg(a, bounds, s, res_hat, pi_hat, flux, f_norm, params, work, guessed)
    if not field_api:
        return PressureSolution(None, flux, iterations, residual, history)
    accel = VectorField(ScalarField(grid, spectrum=f) for f in flux)
    return PressureSolution(ScalarField(grid, spectrum=pi_hat), accel, iterations, residual, history)


# ---------------------------------------------------------------------------
# array kernels (see fields): spectra on the workspace's lattice in, results
# written into the buffers given


def _preconditioner_samples(rho: np.ndarray, bounds: CoefficientBounds, work: Workspace):
    """rho^{1/2}, the samples the Concus-Golub preconditioner multiplies by,
    into work's "sqrt_density" samples; None at or below
    CONCUS_GOLUB_CONTRAST, where (-abar Lap)^{-1} needs none."""
    if bounds.contrast <= CONCUS_GOLUB_CONTRAST:
        return None
    return np.sqrt(rho, out=work.samples("sqrt_density"))


def _precondition(r: np.ndarray, out: np.ndarray, bounds: CoefficientBounds, s, work: Workspace) -> np.ndarray:
    """The preconditioner applied to the spectrum r, into out; s is
    _preconditioner_samples. Concus-Golub writes the "product" samples."""
    t = work.tables
    if s is None:
        np.multiply(r, t.inv_neg_lap, out=out)
        out /= bounds.midpoint
        return out
    g = work.inverse(r, work.samples("product"))
    work.forward(np.multiply(s, g, out=g), out)
    work.inverse(np.multiply(out, t.inv_neg_lap, out=out), g)
    return work.forward(np.multiply(s, g, out=g), out)


def _operator(a, p: np.ndarray, out: np.ndarray, flux, work: Workspace) -> np.ndarray:
    """-div(A) into out and the flux A = dealias(a grad p) into the pair flux;
    a is the coefficient's samples, or a float: a constant, when p must be
    dealiased. Writes the "scratch" spectrum and the "product" samples."""
    t = work.tables
    for d, f in zip((t.ddx, t.ddy), flux):
        np.multiply(d, p, out=f)
        if isinstance(a, float):
            f *= a
        else:
            g = work.inverse(f, work.samples("product"))
            work.forward(np.multiply(a, g, out=g), f)
    return np.negative(_divergence(*flux, out, work), out=out)


def _pcg(a, bounds, s, res, pi, flux, f_norm, params, work, guessed) -> tuple[int, float, tuple]:
    """Preconditioned conjugate gradients on the Parseval inner product. On
    entry res holds the dealiased source div F, and pi the dealiased guess
    if guessed; on return pi holds the potential, flux its flux and res the
    residual -div(a grad Pi) - div F, which is updated recursively with the
    flux, one operator evaluation per iteration. A constant coefficient a
    makes the operator diagonal and the cold start exact (no guess is read),
    so the first evaluation returns. Writes the "search", "z", "flux_p_x"
    and "flux_p_y" spectra besides the scratch of _operator and _precondition."""
    rhs_norm = _parseval_l2(res)
    if not math.isfinite(rhs_norm):
        raise PressureSolveError(f"pressure source not finite: |div F| = {rhs_norm}", rhs_norm, 0)

    # below the rounding floor of the divergence computation the source is
    # zero and the gauge-fixed solution is identically zero
    if rhs_norm <= 1e-12 * max(1.0, work.grid.k_max * f_norm):
        for x in (pi, *flux):
            x.fill(0.0)
        return 1, rhs_norm, (rhs_norm,)

    z = work.spectrum("z")
    if not guessed:
        _precondition(res, pi, bounds, s, work)
    else:
        # the inverse transform reads only the Hermitian part of the
        # self-conjugate column k_y = 0 (column n/2 is masked): the rest would
        # pass through the iteration unseen into pi.spectrum
        col = pi[:, 0]
        pi[:, 0] = 0.5 * (col + np.conj(np.roll(col[::-1], 1)))
    np.subtract(_operator(a, pi, z, flux, work), res, out=res)
    iterations = 1
    residual = _parseval_l2(res) / rhs_norm
    history = [residual]
    p, rz = None, 1.0  # with p = 0, the first search direction is z
    while not residual <= params.tol:  # a NaN residual fails too
        if iterations >= params.max_iter:
            raise PressureSolveError(
                f"pressure solve stalled at residual {residual:.3e} "
                f"after {iterations} iterations (tol {params.tol:.1e})",
                residual=residual,
                iterations=iterations,
            )
        if p is None:  # the buffers of the loop, which a diagonal solve never enters
            p, flux_p = work.spectrum("search"), (work.spectrum("flux_p_x"), work.spectrum("flux_p_y"))
            p.fill(0.0)
        _precondition(res, z, bounds, s, work)
        rz_old, rz = rz, _parseval_dot(res, z)
        p *= rz / rz_old
        p += z
        ap = _operator(a, p, z, flux_p, work)
        step = -rz / _parseval_dot(p, ap)
        for x, dx in zip((res, *flux), (ap, *flux_p)):
            dx *= step
            x += dx
        pi += np.multiply(p, step, out=z)
        iterations += 1
        residual = _parseval_l2(res) / rhs_norm
        history.append(residual)

    pi.flat[0] = 0.0  # zero-mean gauge
    return iterations, residual, tuple(history)


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
