"""Time integration of the damped variable-density incompressible system.

The state (rho, u) evolves under

    d_t rho + u . grad rho = 0
    d_t u + u . grad u + (1/rho) grad Pi + alpha rho^(gamma-1) u = 0
    div u = 0

with the pressure gradient recovered each stage from the elliptic solve that
keeps the tendency divergence-free. Stepping is explicit RK4 with a Leray
projection after each accepted step; damping is integrated inside the
tendency (it is not stiff for the coefficient sizes of interest). A run's
stepper starts each pressure solve from the last potential solved, across
steps too; a state's first stage gives both its record's grad Pi and its step.
"""

from __future__ import annotations

import inspect
import math
import warnings
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .diagnostics import InitialNorms, initial_norms, make_record
from .elliptic import PressureSolveError, PressureSolveParams, coefficient_bounds, solve_pressure
from .fields import (
    GridSpec,
    ParameterError,
    ScalarField,
    VectorField,
    _number,
    advect,
    advect_vector,
    apply_multiplier,
    dealias,
    dealias_vector,
    divergence,
    gradient,
    leray_project,
    lp_norm,
    perp_gradient,
    scale_vector,
)
from .littlewood_paley import B1, BesovIndex, build_filter_bank

DENSITY_DRIFT_TOL = 1e-6
DIV_DRIFT_TOL = 1e-10


class InvariantViolation(RuntimeError):
    """A state invariant (density bounds, incompressibility) drifted too far."""


@dataclass(frozen=True)
class ICRecipe:
    """Initial-condition recipe: preset names plus their parameters."""

    u_preset: str = "taylor_green"
    u_params: dict | None = None
    rho_preset: str = "constant"
    rho_params: dict | None = None
    seed: int = 0


@dataclass(frozen=True)
class SimConfig:
    alpha: float
    gamma: int
    grid: GridSpec
    dt: float
    t_end: float
    ic: ICRecipe
    pressure: PressureSolveParams = PressureSolveParams()
    besov_indices: tuple[BesovIndex, ...] = (B1,)
    record_every: int = 1

    def __post_init__(self):
        if not self.alpha >= 0:
            raise ParameterError("alpha", f"must be >= 0, got {self.alpha}")
        if self.gamma not in (0, 1):
            raise ParameterError("gamma", f"must be 0 or 1, got {self.gamma}")
        _step_count(self.t_end, self.dt, self.record_every)


@dataclass(frozen=True)
class FluidState:
    """Snapshot (t, rho, u) with an optional cached pressure gradient.

    rho_bounds holds the initial density range; the transport equation
    preserves it up to spectral truncation drift, which step_rk4 asserts.
    """

    t: float
    rho: ScalarField
    u: VectorField
    grad_pi: VectorField | None = None
    rho_bounds: tuple[float, float] | None = None


# ---------------------------------------------------------------------------
# initial-condition presets


def taylor_green(grid: GridSpec, amplitude: float = 1.0) -> VectorField:
    """Cellular steady Euler flow (sin x cos y, -cos x sin y), scaled."""
    x, y = grid.nodes()
    return VectorField.from_arrays(
        grid,
        amplitude * np.sin(x) * np.cos(y),
        -amplitude * np.cos(x) * np.sin(y),
        divergence_free=True,
    )


def random_shell(grid: GridSpec, j: int = 2, amplitude: float = 1.0, seed: int = 0) -> VectorField:
    """Divergence-free random field spectrally confined to dyadic shell j."""
    bank = build_filter_bank(grid)
    if not 0 <= j <= bank.j_max:
        raise ValueError(f"shell index {j} outside [0, {bank.j_max}]")
    rng = np.random.default_rng(seed)
    white = [ScalarField(grid, values=rng.standard_normal(grid.shape)) for _ in range(2)]
    v = leray_project(VectorField(tuple(apply_multiplier(w, bank.phi_profiles[j]) for w in white)))
    norm = lp_norm(v, 2)
    if norm == 0.0:
        raise ValueError("degenerate random shell draw")
    return v * (amplitude / norm)


def swirl(grid: GridSpec, amplitude: float = 1.0) -> VectorField:
    """Grid-periodic swirl (-sin y, sin x): rigid rotation near the origin,
    hyperbolic stagnation points at (0, pi) and (pi, 0)."""
    x, y = grid.nodes()
    return VectorField.from_arrays(
        grid, -amplitude * np.sin(y), amplitude * np.sin(x), divergence_free=True
    )


def rho_constant(grid: GridSpec, value: float = 1.0) -> ScalarField:
    if value <= 0:
        raise ValueError("density must be positive")
    return ScalarField.constant(grid, value)


def rho_single_mode(grid: GridSpec, k: int = 1, amplitude: float = 0.1) -> ScalarField:
    """1 + amplitude * cos(k x); requires |amplitude| < 1 to avoid vacuum."""
    if abs(amplitude) >= 1.0:
        raise ValueError("|amplitude| must be < 1 to keep the density positive")
    x, _ = grid.nodes()
    return ScalarField(grid, values=1.0 + amplitude * np.cos(k * x))


def rho_gaussian_bump(grid: GridSpec, width: float = 0.5, amplitude: float = 0.2) -> ScalarField:
    """1 + amplitude * smooth periodic bump centered at (pi, pi)."""
    if amplitude <= -1.0:
        raise ValueError("amplitude must exceed -1 to keep the density positive")
    if width <= 0:
        raise ValueError("width must be positive")
    x, y = grid.nodes()
    # chordal distance keeps the bump smooth and periodic
    dsq = 4.0 * np.sin((x - np.pi) / 2) ** 2 + 4.0 * np.sin((y - np.pi) / 2) ** 2
    return ScalarField(grid, values=1.0 + amplitude * np.exp(-dsq / (2.0 * width**2)))


U_PRESETS = {"taylor_green": taylor_green, "random_shell": random_shell, "swirl": swirl}
RHO_PRESETS = {
    "constant": rho_constant,
    "single_mode": rho_single_mode,
    "gaussian_bump": rho_gaussian_bump,
}


def preset_factories(config: SimConfig) -> list[partial]:
    """The velocity and density preset factories of config.ic, with their
    parameters bound and checked by name; builds no arrays. Every parameter
    must be a finite number, and a whole number where the preset's default is
    an int (it is passed on as an int)."""
    ic = config.ic
    u_params = dict(ic.u_params or {})
    if ic.u_preset == "random_shell":
        u_params.setdefault("seed", ic.seed)
    factories = []
    for kind, table, preset, params in (
        ("u", U_PRESETS, ic.u_preset, u_params),
        ("rho", RHO_PRESETS, ic.rho_preset, ic.rho_params or {}),
    ):
        if preset not in table:
            raise ParameterError(f"{kind}_preset", f"unknown preset {preset!r}")
        signature = inspect.signature(table[preset])
        try:
            bound = signature.bind(config.grid, **params)
            for name, value in params.items():
                integer = isinstance(signature.parameters[name].default, int)
                bound.arguments[name] = _number(name, value, integer=integer)
        except (TypeError, ParameterError) as exc:
            raise ParameterError(f"{kind}_params", f"rejected by preset {preset!r}: {exc}") from None
        factories.append(partial(table[preset], *bound.args, **bound.kwargs))
    return factories


def initial_state(config: SimConfig) -> FluidState:
    """Build the t = 0 state from the config's preset recipe."""
    built = []
    for kind, factory in zip(("u", "rho"), preset_factories(config)):
        try:
            built.append(factory())
        except ValueError as exc:  # a parameter value the preset rejects
            raise ParameterError(f"{kind}_params", f"rejected by preset: {exc}") from None
    u = leray_project(dealias_vector(built[0]))
    u_max = lp_norm(u, math.inf)
    if not math.isfinite(u_max):
        raise ParameterError("u_params", f"initial velocity not finite: max |u| = {u_max}")
    rho = dealias(built[1])
    rho_min = float(rho.values.min())
    if not rho_min > 0.0:  # a NaN minimum fails too
        raise ParameterError("rho_params", f"initial density not positive: min = {rho_min:.3e}")

    cfl = config.dt * u_max * config.grid.n / config.grid.length
    if cfl > 0.5:
        warnings.warn(
            f"advisory: CFL number {cfl:.2f} exceeds 0.5; consider a smaller dt",
            stacklevel=2,
        )
    return FluidState(
        t=0.0,
        rho=rho,
        u=u,
        grad_pi=None,
        rho_bounds=(rho_min, float(rho.values.max())),
    )


# ---------------------------------------------------------------------------
# tendencies


def momentum_forcing(state: FluidState, config: SimConfig) -> VectorField:
    """F = u . grad u + alpha rho^(gamma-1) u, dealiased; div(d_t u) = 0 holds
    because the pressure solve uses div F as its source."""
    adv = advect_vector(state.u, state.u)
    if config.gamma == 1:
        damp = dealias_vector(state.u)
    else:
        damp = scale_vector(state.u, ScalarField(state.rho.grid, values=1.0 / state.rho.values))
    return adv + config.alpha * damp


def pressure_gradient(state: FluidState, config: SimConfig) -> VectorField:
    """Pressure gradient consistent with the current state."""
    stepper = _Stepper(config)
    stepper.velocity_tendency(state)
    return gradient(stepper.pi)


def momentum_rhs(state: FluidState, config: SimConfig) -> VectorField:
    """Velocity tendency -u . grad u - (1/rho) grad Pi - alpha rho^(gamma-1) u."""
    return _Stepper(config).velocity_tendency(state)


def density_rhs(state: FluidState) -> ScalarField:
    """Density tendency -u . grad rho."""
    return -advect(state.u, state.rho)


def vorticity_forcing(state: FluidState, config: SimConfig) -> ScalarField:
    """Source term of the planar vorticity equation in rescaled variables.

    Returns -perp_grad(1/rho) . exp(alpha t) grad Pi, which vanishes
    identically for constant density; the vorticity is then purely
    transported.
    """
    grad_pi = state.grad_pi
    if grad_pi is None:
        grad_pi = pressure_gradient(state, config)
    inv_rho = ScalarField(state.rho.grid, values=1.0 / state.rho.values)
    pg = perp_gradient(inv_rho)
    factor = math.exp(config.alpha * state.t)
    dot = (
        pg.components[0].values * grad_pi.components[0].values
        + pg.components[1].values * grad_pi.components[1].values
    )
    return dealias(ScalarField(state.rho.grid, values=-factor * dot))


def rescaled_view(state: FluidState, beta: float) -> tuple[VectorField, VectorField]:
    """Exponentially compensated fields (e^{beta t} u, e^{beta t} grad Pi)."""
    if beta < 0:
        raise ValueError("beta must be >= 0")
    if state.grad_pi is None:
        raise ValueError("state carries no pressure-gradient cache")
    factor = math.exp(beta * state.t)
    return state.u * factor, state.grad_pi * factor


# ---------------------------------------------------------------------------
# stepping


def _step_count(t_end: float, dt: float, record_every: int) -> int:
    """Number of steps of size dt to reach t_end, which must be a whole
    multiple of dt (to 1e-9 relative); also checks the record stride."""
    if not 0 < dt < math.inf:
        raise ParameterError("dt", f"must be positive and finite, got {dt}")
    if not 0 <= t_end < math.inf:
        raise ParameterError("t_end", f"must be >= 0 and finite, got {t_end}")
    ratio = t_end / dt
    n_steps = round(ratio)
    if abs(ratio - n_steps) > 1e-9 * ratio:
        raise ParameterError("t_end", f"{t_end:g} is not a whole number of steps of dt = {dt:g}")
    if not (record_every >= 1 and float(record_every).is_integer()):
        raise ParameterError("record_every", f"must be a whole number >= 1, got {record_every}")
    return n_steps


def _rk4(rhs, t: float, y: tuple, dt: float, k1: tuple) -> tuple:
    """One classical RK4 step of dy/dt = rhs(t, y) over a tuple of fields,
    before any truncation of the result, given the first stage k1 = rhs(t, y).
    The later stages are evaluated in order, so rhs may carry state from one
    stage to the next. Changing the operand order of the stage arithmetic
    changes the results in the last bits."""
    k2 = rhs(t + dt / 2, tuple(a + 0.5 * dt * k for a, k in zip(y, k1)))
    k3 = rhs(t + dt / 2, tuple(a + 0.5 * dt * k for a, k in zip(y, k2)))
    k4 = rhs(t + dt, tuple(a + dt * k for a, k in zip(y, k3)))
    return tuple(
        a + (dt / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)
    )


def _check_invariants(state: FluidState) -> None:
    lo, hi = state.rho_bounds
    rho_min = float(state.rho.values.min())
    rho_max = float(state.rho.values.max())
    if not (math.isfinite(rho_min) and math.isfinite(rho_max)):
        raise InvariantViolation(f"density not finite at t = {state.t:.6g}")
    if rho_min < lo * (1.0 - DENSITY_DRIFT_TOL) - DENSITY_DRIFT_TOL * hi:
        raise InvariantViolation(
            f"density minimum drifted below its initial bound: "
            f"{rho_min:.12g} < {lo:.12g} at t = {state.t:.6g}"
        )
    if rho_max > hi * (1.0 + DENSITY_DRIFT_TOL) + DENSITY_DRIFT_TOL * hi:
        raise InvariantViolation(
            f"density maximum drifted above its initial bound: "
            f"{rho_max:.12g} > {hi:.12g} at t = {state.t:.6g}"
        )
    u_norm = lp_norm(state.u, 2)
    div_norm = lp_norm(divergence(state.u), 2)
    if not (math.isfinite(u_norm) and math.isfinite(div_norm)):
        raise InvariantViolation(f"velocity not finite at t = {state.t:.6g}")
    if div_norm > DIV_DRIFT_TOL * max(u_norm, 1e-300):
        raise InvariantViolation(
            f"divergence drift {div_norm:.3e} exceeds {DIV_DRIFT_TOL:.0e} * |u| "
            f"at t = {state.t:.6g}"
        )


class _Stepper:
    """A run's stepping context. pi is the last potential solved, and the next
    pressure solve starts from it (the converged potential does not depend on
    the guess): a state's first stage from the last stage of the step before,
    each later stage from the stage before."""

    def __init__(self, config: SimConfig):
        self.config, self.pi = config, None

    def velocity_tendency(self, state: FluidState) -> VectorField:
        """d_t u at state; its solve starts from pi and leaves the new potential there."""
        try:
            coefficient_bounds(state.rho)
        except ValueError as exc:
            raise InvariantViolation(f"stage {exc} at t = {state.t:.6g}") from None
        forcing = momentum_forcing(state, self.config)
        sol = solve_pressure(state.rho, forcing, self.config.pressure, initial_guess=self.pi)
        self.pi = sol.pi
        return -(forcing + sol.accel)

    def tendency(self, state: FluidState) -> tuple[ScalarField, VectorField]:
        """(d_t rho, d_t u) at state."""
        velocity = self.velocity_tendency(state)  # first, so the old pi is freed: peak memory
        return density_rhs(state), velocity

    def step(self, state: FluidState, k1: tuple) -> FluidState:
        """One RK4 step from state, given its first stage k1 = tendency(state)."""
        bounds = state.rho_bounds or (float(state.rho.values.min()), float(state.rho.values.max()))
        rho_new, u_new = _rk4(lambda t, y: self.tendency(FluidState(t, *y, rho_bounds=bounds)),
                              state.t, (state.rho, state.u), self.config.dt, k1)
        new = FluidState(t=state.t + self.config.dt, rho=dealias(rho_new),
                         u=leray_project(dealias_vector(u_new)), rho_bounds=bounds)
        _check_invariants(new)
        return new


def step_rk4(state: FluidState, config: SimConfig) -> FluidState:
    """Advance one RK4 step with per-stage pressure solves.

    The first stage's solve is cold; each later stage starts from the
    previous stage's potential. The updated velocity is Leray-projected to
    absorb the O(dt^5) divergence drift, and the density/velocity stay
    truncated to retained modes. State invariants are asserted on the result.
    """
    stepper = _Stepper(config)
    return stepper.step(state, stepper.tendency(state))


# ---------------------------------------------------------------------------
# simulation driver


@dataclass(frozen=True)
class SimulationResult:
    records: list  # DiagnosticsRecord rows, in time order
    final_state: FluidState | None
    initial_norms: InitialNorms  # of the t = 0 state, for the condition reports
    failure: str | None = None

    @property
    def failed(self) -> bool:
        return self.failure is not None


def run_simulation(config: SimConfig) -> SimulationResult:
    """Integrate to t_end, emitting one diagnostics row every record_every
    steps (plus the final step). Deterministic for a fixed config and seed.

    On an invariant or solver failure the rows collected so far are returned
    with the failure recorded.
    """
    bank = build_filter_bank(config.grid)
    state = initial_state(config)
    norms = initial_norms(state, bank)
    n_steps = _step_count(config.t_end, config.dt, config.record_every)

    stepper, records, failure = _Stepper(config), [], None
    try:
        for step in range(n_steps + 1):
            if step:
                state = stepper.step(state, k1)
            k1 = stepper.tendency(state)
            if step % config.record_every == 0 or step == n_steps:
                state = replace(state, grad_pi=gradient(stepper.pi))
                records.append(make_record(state, config, bank, records[-1] if records else None))
    except (InvariantViolation, PressureSolveError) as exc:
        failure = str(exc)
    return SimulationResult(records, state, norms, failure)


def solve_linear_transport(
    velocity,
    f0: ScalarField,
    forcing=None,
    t_end: float = 1.0,
    dt: float = 1e-2,
    record_every: int = 1,
) -> list[tuple[float, ScalarField]]:
    """Integrate the passive transport equation d_t f + v . grad f = g.

    velocity maps t to a divergence-free VectorField; forcing maps t to a
    ScalarField (or is None). Returns [(t, f)] sampled every record_every
    steps. With g = 0 the L^2 norm is conserved up to the RK4 error.
    """

    def rhs(t: float, y: tuple[ScalarField]) -> tuple[ScalarField]:
        out = -advect(velocity(t), y[0])
        if forcing is not None:
            out = out + forcing(t)
        return (out,)

    n_steps = _step_count(t_end, dt, record_every)
    f = dealias(f0)
    trajectory = [(0.0, f)]
    t = 0.0
    for step in range(1, n_steps + 1):
        (f,) = _rk4(rhs, t, (f,), dt, rhs(t, (f,)))
        f = dealias(f)
        t = step * dt
        if step % record_every == 0 or step == n_steps:
            trajectory.append((t, f))
    return trajectory
