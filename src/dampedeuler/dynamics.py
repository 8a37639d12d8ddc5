"""Time integration of the damped variable-density incompressible system.

The state (rho, u) evolves under

    d_t rho + u . grad rho = 0
    d_t u + u . grad u + (1/rho) grad Pi + alpha rho^(gamma-1) u = 0
    div u = 0

with the pressure gradient recovered each stage from the elliptic solve that
keeps the tendency divergence-free. Stepping is explicit RK4 with a Leray
projection after each accepted step; damping is integrated inside the
tendency (it is not stiff for the coefficient sizes of interest). A run's
stepper (_Stepper) holds the run's state on the spectra of the modes that
the 2/3 rule retains, in buffers that it allocates once, and starts each
pressure solve from the last potential solved plus the increment that the
same RK4 stage added in the earlier steps, extrapolated; a state's first
stage gives both its record's grad Pi and its step. A FluidState is a state
outside a stepper, on the half lattice of the fields.
"""

from __future__ import annotations

import inspect
import math
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from .diagnostics import DiagnosticsRecord, InitialNorms, _record, csv_columns, initial_norms
from .elliptic import PressureSolveError, PressureSolveParams, coefficient_bounds, solve_pressure
from .fields import (
    TWO_PI,
    GridSpec,
    ParameterError,
    ScalarField,
    VectorField,
    Workspace,
    _divergence,
    _leray_project,
    _new_spectrum,
    _number,
    _parseval_l2,
    _product,
    _self_advection,
    _uniform,
    apply_multiplier,
    dealias,
    gradient,
    leray_project,
    lp_norm,
    perp_gradient,
)
from .fields import _advect as advect  # the array kernel: every density transport goes through this name
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
    """Snapshot (t, rho, u) with an optional cached pressure gradient: a
    state given to a stepper, or one that leaves it (_Stepper.state).

    rho_bounds holds the initial density range; the transport equation
    preserves it up to spectral truncation drift, which _check_invariants
    asserts on every state that _Stepper.step holds.
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
    )


def random_shell(grid: GridSpec, j: int = 2, amplitude: float = 1.0, seed: int = 0) -> VectorField:
    """Divergence-free random field spectrally confined to dyadic shell j."""
    bank = build_filter_bank(grid)
    if not 0 <= j <= bank.j_max:
        raise ValueError(f"shell index {j} outside [0, {bank.j_max}]")
    rng = np.random.default_rng(seed)
    white = [ScalarField(grid, values=rng.standard_normal(grid.shape)) for _ in range(2)]
    v = leray_project(apply_multiplier(VectorField(white), bank.block_profile(j)))
    norm = lp_norm(v, 2)
    if norm == 0.0:
        raise ValueError("degenerate random shell draw")
    return v * (amplitude / norm)


def swirl(grid: GridSpec, amplitude: float = 1.0) -> VectorField:
    """Grid-periodic swirl (-sin y, sin x): rigid rotation near the origin,
    hyperbolic stagnation points at (0, pi) and (pi, 0)."""
    x, y = grid.nodes()
    return VectorField.from_arrays(grid, -amplitude * np.sin(y), amplitude * np.sin(x))


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


def _rejected(kind: str, preset: str, reason) -> ParameterError:
    """A parameter value that the preset rejects, named by its config key."""
    return ParameterError(f"{kind}_params", f"rejected by preset {preset!r}: {reason}")


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
            raise _rejected(kind, preset, exc) from None
        factories.append(partial(table[preset], *bound.args, **bound.kwargs))
    return factories


def initial_state(config: SimConfig) -> FluidState:
    """Build the t = 0 state from the config's preset recipe. A field that
    overflows on the way (a finite but huge amplitude) is a ParameterError
    naming its preset parameters, raised before any warning is printed."""
    built = []
    for kind, name, factory, finish in zip(
        ("u", "rho"), ("velocity", "density"), preset_factories(config),
        (lambda v: leray_project(dealias(v)), dealias),
    ):
        try:
            with np.errstate(over="raise", invalid="raise"):
                field = finish(factory())
                built.append((field, lp_norm(field, math.inf)))  # |u| squares the components
        except ValueError as exc:  # a parameter value the preset rejects
            raise _rejected(kind, getattr(config.ic, f"{kind}_preset"), exc) from None
        except FloatingPointError as exc:
            raise ParameterError(f"{kind}_params", f"initial {name} overflows: {exc}") from None
    (u, u_max), (rho, _) = built
    if not math.isfinite(u_max):
        raise ParameterError("u_params", f"initial velocity not finite: max |u| = {u_max}")
    rho_min = float(rho.values.min())
    if not rho_min > 0.0:  # a NaN minimum fails too
        raise ParameterError("rho_params", f"initial density not positive: min = {rho_min:.3e}")

    cfl = config.dt * u_max * config.grid.n / TWO_PI
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


def _forcing(ux, uy, u_hat, rho, config: SimConfig, out, work: Workspace):
    """F = u . grad u + alpha rho^(gamma-1) u, dealiased, into the pair of
    spectra out on work's lattice (which may be u_hat), from the samples
    ux, uy and the spectra u_hat of a dealiased velocity and the density
    samples rho; u_hat is read as dealias(u). Writes the "coefficient" samples at gamma = 0,
    and the scratch of fields._self_advection. div(d_t u) = 0 holds because
    the pressure solve uses div F as its source.

    u . grad u is taken in flux form, div(u (x) u) (fields.self_advection),
    which equals it for a divergence-free u: states are Leray-projected, and
    a stage velocity adds tendencies whose divergence is the pressure solve's
    residual. The density is transported in convective form (density_rhs),
    so a constant density keeps a zero tendency, bit for bit."""
    if config.gamma == 1:
        for u, f in zip(u_hat, out):
            np.multiply(u, config.alpha, out=f)
    else:
        a = np.divide(1.0, rho, out=work.samples("coefficient"))
        for u, f in zip((ux, uy), out):
            _product(a, u, f, work)
            f *= config.alpha
    for adv, f in zip(_self_advection(ux, uy, work), out):
        np.add(adv, f, out=f)
    return out


def pressure_gradient(state: FluidState, config: SimConfig) -> VectorField:
    """Pressure gradient consistent with the current state."""
    stepper = _Stepper(config, state)
    stepper.tendency()
    return gradient(stepper.potential())


def momentum_rhs(state: FluidState, config: SimConfig) -> VectorField:
    """Velocity tendency -u . grad u - (1/rho) grad Pi - alpha rho^(gamma-1) u."""
    stepper = _Stepper(config, state)
    stepper.tendency()
    work = stepper.work
    return VectorField(ScalarField(config.grid, spectrum=work.scatter(work.spectrum(f"k1_{c}")))
                       for c in ("u_x", "u_y"))


def density_rhs(state: FluidState) -> ScalarField:
    """Density tendency -u . grad rho.

    When every sample of rho is equal (fields._uniform, an exact test with no
    tolerance) the tendency is zero, returned as samples without transport:
    convective transport gives the same zero bit for bit, and the stepper
    then keeps the state's own density at every RK4 stage. A density one ulp
    from constant is transported."""
    rho = state.rho
    if _uniform(rho.values.min(), rho.values.max()):
        return ScalarField.zero(rho.grid)
    ux, uy = (c.values for c in state.u.components)
    out = advect(ux, uy, rho.spectrum, _new_spectrum(rho.grid), Workspace(rho.grid))
    return ScalarField(rho.grid, spectrum=np.multiply(out, -1.0, out=out))


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
    if ratio == math.inf:
        raise ParameterError("t_end", f"{t_end:g} / dt = {dt:g} overflows the step count")
    n_steps = round(ratio)
    if abs(ratio - n_steps) > 1e-9 * ratio:
        raise ParameterError("t_end", f"{t_end:g} is not a whole number of steps of dt = {dt:g}")
    if not (record_every >= 1 and float(record_every).is_integer()):
        raise ParameterError("record_every", f"must be a whole number >= 1, got {record_every}")
    return n_steps


def _rk4(evaluate, t: float, a: tuple, dt: float, k: tuple, y: tuple, scratch: np.ndarray) -> None:
    """One classical RK4 step of dy/dt = f(t, y) over a tuple a of
    spectra, in place. On entry k holds the first stage f(t, a); on return
    it holds the new y, before any truncation. y is scratch of the same
    shape: evaluate(stage, t_s) reads the state of stage 2, 3 or 4 from y
    and writes its tendency over it, in that order, so it may carry state
    from one stage to the next; scratch is read between the stages only,
    so evaluate may write it too. The sum keeps the association
    ((b1 + 2 b2) + 2 b3) + b4, then * dt/6, then a + ...: another operand
    order changes the results in the last bits."""
    for x, ys, ks in zip(a, y, k):
        np.add(x, np.multiply(ks, 0.5 * dt, out=ys), out=ys)
    evaluate(2, t + dt / 2)
    for stage, c in ((3, 0.5 * dt), (4, dt)):
        for x, ys, ks in zip(a, y, k):
            ks += np.multiply(ys, 2.0, out=scratch)
            np.add(x, np.multiply(ys, c, out=ys), out=ys)
        evaluate(stage, t + c)
    for x, ys, ks in zip(a, y, k):
        ks += ys
        ks *= dt / 6.0
        np.add(x, ks, out=ks)


def _check_invariants(t: float, rho: np.ndarray, u_hat: tuple, rho_bounds: tuple, work: Workspace) -> None:
    """Abort on density samples rho outside rho_bounds, the initial range (to
    DENSITY_DRIFT_TOL), a non-finite state, or a divergence above
    DIV_DRIFT_TOL * |u|, where u_hat are the velocity's spectra on work's
    lattice; the divergence is formed in work's "residual" spectrum."""
    lo, hi = rho_bounds
    rho_min = float(rho.min())
    rho_max = float(rho.max())
    if not (math.isfinite(rho_min) and math.isfinite(rho_max)):
        raise InvariantViolation(f"density not finite at t = {t:.6g}")
    if rho_min < lo * (1.0 - DENSITY_DRIFT_TOL) - DENSITY_DRIFT_TOL * hi:
        raise InvariantViolation(
            f"density minimum drifted below its initial bound: "
            f"{rho_min:.12g} < {lo:.12g} at t = {t:.6g}"
        )
    if rho_max > hi * (1.0 + DENSITY_DRIFT_TOL) + DENSITY_DRIFT_TOL * hi:
        raise InvariantViolation(
            f"density maximum drifted above its initial bound: "
            f"{rho_max:.12g} > {hi:.12g} at t = {t:.6g}"
        )
    u_norm = math.hypot(*(_parseval_l2(u) for u in u_hat))
    div_norm = _parseval_l2(_divergence(*u_hat, work.spectrum("residual"), work))
    if not (math.isfinite(u_norm) and math.isfinite(div_norm)):
        raise InvariantViolation(f"velocity not finite at t = {t:.6g}")
    if div_norm > DIV_DRIFT_TOL * max(u_norm, 1e-300):
        raise InvariantViolation(
            f"divergence drift {div_norm:.3e} exceeds {DIV_DRIFT_TOL:.0e} * |u| "
            f"at t = {t:.6g}"
        )


class _Stepper:
    """A run's stepping context, which holds the run's state.

    It owns a Workspace (fields) on the retained lattice of the 2/3 rule,
    (2 k_max + 1, k_max + 1), that holds for the whole run the state's
    spectra ("state_*"), the spectra of the RK4 stages and the scratch of
    every kernel that a stage calls. The retained modes of the given state
    are gathered once; no other mode of it is read. The stepper also holds
    t, the initial density range rho_bounds and the density samples, which
    a step that changes the density copies into the "state_density"
    samples. Until a step changes them, the given fields stand for the held
    ones: state() returns them, and the first stage reads the velocity
    samples they hold. step advances the held state in place, so it
    allocates no array of the grid's size; state() scatters it into
    half-lattice fields where a state leaves the stepper. At a constant
    density (fields._uniform) the density is not stepped, every stage
    reuses the first stage's coefficient bounds, and the zero tendency is
    not formed.

    tendency evaluates the held state's first stage once, into the "k1"
    spectra and u_samples; record and step read it. Each solve leaves its
    potential in the "potential" spectrum, copied to "last_potential".

    Each pressure solve starts from a guess (the converged potential does
    not depend on it) built from the last potential solved: by a state's
    first stage, the last stage of the step before; by each later stage,
    the stage before. Stage s of step m starts from
    pi + 2 D_s(m-1) - D_s(m-2), where D_s(k) is the increment that stage s
    added to pi in step k; with one earlier step from pi + D_s(m-1), and
    before that from pi. The guess and the increments stay on the retained
    lattice, and are kept only while the solve reads its guess, which it
    never does at uniform density. solves, iterations and max_iterations
    count the converged solves."""

    def __init__(self, config: SimConfig, state: FluidState):
        self.config = config
        self.work = Workspace(config.grid, retained=True)
        self.increments = {}  # stage -> work spectra (D_s(m-1), D_s(m-2) or None)
        self.solves = self.iterations = self.max_iterations = 0
        self.t, self.rho, self.u = state.t, state.rho, state.u  # the given fields, until a step changes them
        self.density = state.rho.values
        lo, hi = float(self.density.min()), float(self.density.max())
        self.rho_bounds = state.rho_bounds or (lo, hi)
        self.uniform = _uniform(lo, hi)  # the held density is constant
        self.bounds = None  # its coefficient bounds, from the first stage
        for f, held in zip((state.rho, *state.u.components)[self.uniform:], self._spectra("state")):
            self.work.gather(f.spectrum, held)
        self.evaluated = False  # the "k1" spectra hold the held state's first stage
        self.u_samples = None  # the velocity samples of the last stage evaluated
        self.recorded = False  # a record has overwritten the first stage's own samples

    def _spectra(self, kind: str) -> tuple:
        """The work spectra of kind "state", "k1" or "stage": (rho, u_x, u_y),
        without rho at a constant density."""
        names = ("u_x", "u_y") if self.uniform else ("rho", "u_x", "u_y")
        return tuple(self.work.spectrum(f"{kind}_{name}") for name in names)

    def potential(self) -> ScalarField:
        """The last potential solved, after tendency the first-stage
        potential of the held state, as a half-lattice field of its own."""
        if not self.solves:
            raise ValueError("no pressure solve has been made")
        return ScalarField(self.config.grid, spectrum=self.work.scatter(self.work.spectrum("last_potential")))

    def state(self) -> FluidState:
        """The held state in half-lattice fields (the given ones until a step
        changes them), with the gradient of its first-stage potential once
        tendency has evaluated it, else with grad_pi None."""
        work, grid = self.work, self.config.grid
        rho = self.rho or ScalarField(grid, values=self.density.copy(),
                                      spectrum=work.scatter(work.spectrum("state_rho")))
        u = self.u or VectorField(ScalarField(grid, spectrum=work.scatter(c))
                                  for c in self._spectra("state")[-2:])
        grad_pi = gradient(self.potential()) if self.evaluated else None
        return FluidState(t=self.t, rho=rho, u=u, grad_pi=grad_pi, rho_bounds=self.rho_bounds)

    def guess(self, stage: int) -> np.ndarray | None:
        """The initial guess of the solve of RK4 stage 1..4, in work's
        "potential" spectrum, from the last potential, "last_potential";
        None before the first solve."""
        if not self.solves:
            return None
        pi, guess = self.work.spectrum("last_potential"), self.work.spectrum("potential")
        last, before = self.increments.get(stage, (None, None))
        if last is None:
            np.copyto(guess, pi)
        elif before is None:
            np.add(pi, last, out=guess)
        else:
            np.multiply(last, 2.0, out=guess)
            guess -= before
            np.add(pi, guess, out=guess)
        return guess

    def _evaluate(self, stage: int, t: float) -> None:
        """(d_t rho, d_t u) of RK4 stage 1..4 at time t. Stage 1 reads the
        held state and writes the "k1" spectra; a later stage reads its
        stage state from the "stage" spectra and writes its tendency over
        it. The solve starts from guess(stage) and leaves the new potential
        in "last_potential"."""
        work = self.work
        if stage > 1 and self.uniform:  # the held density, as at stage 1
            rho, bounds = self.density, self.bounds
        else:
            rho = (self.density if stage == 1
                   else work.inverse(work.spectrum("stage_rho"), work.samples("density")))
            try:
                bounds = coefficient_bounds(rho)
            except ValueError as exc:
                raise InvariantViolation(f"stage {exc} at t = {t:.6g}") from None
        if stage == 1:
            self.uniform, self.bounds = bounds.uniform, bounds
            a, out = self._spectra("state"), self._spectra("k1")
        else:
            a = out = self._spectra("stage")
        rho_hat, u_hat = None if self.uniform else a[0], a[-2:]
        given = (c.cached_values for c in self.u.components) if stage == 1 and self.u else (None, None)
        ux, uy = self.u_samples = tuple(work.inverse(u, work.samples(name)) if v is None else v
                                        for u, name, v in zip(u_hat, ("u_x", "u_y"), given))
        forcing = _forcing(ux, uy, u_hat, rho, self.config, out[-2:], work)
        warm = not bounds.uniform
        sol = solve_pressure(rho, forcing, self.config.pressure,
                             initial_guess=self.guess(stage) if warm else None, work=work, bounds=bounds)
        potential, last_potential = work.spectrum("potential"), work.spectrum("last_potential")
        if warm and self.solves:
            last, before = self.increments.get(stage, (None, None))
            new = before if before is not None else work.spectrum(f"increment{stage}_{last is not None:d}")
            np.subtract(potential, last_potential, out=new)
            self.increments[stage] = (new, last)
        np.copyto(last_potential, potential)
        self.solves += 1
        self.iterations += sol.iterations
        self.max_iterations = max(self.max_iterations, sol.iterations)
        for f, accel in zip(forcing, sol.accel):
            f += accel
            f *= -1.0
        if not self.uniform:
            np.multiply(advect(ux, uy, rho_hat, out[0], work), -1.0, out=out[0])

    def tendency(self) -> None:
        """Evaluate RK4 stage 1 at the held state, unless it is evaluated."""
        if not self.evaluated:
            self._evaluate(1, self.t)
            self.evaluated, self.recorded = True, False

    def step(self) -> None:
        """One RK4 step of the held state, from its first stage. The new
        state is held only once _check_invariants has passed it, so a step
        that fails leaves the last good state held."""
        self.tendency()
        self.evaluated = False  # the RK4 sum overwrites the first stage
        cfg, work = self.config, self.work
        k, y = self._spectra("k1"), self._spectra("stage")
        _rk4(self._evaluate, self.t, self._spectra("state"), cfg.dt, k, y, work.spectrum("scratch"))
        t = self.t + cfg.dt
        rho = self.density if self.uniform else work.inverse(k[0], work.samples("density"))
        # the velocity sum holds retained modes only, so it is dealiased already
        u = _leray_project(*k[-2:], *y[-2:], work)
        _check_invariants(t, rho, u, self.rho_bounds, work)
        for held, new in zip(self._spectra("state"), (*k[:-2], *u)):
            np.copyto(held, new)
        if not self.uniform:
            self.rho, self.density = None, work.samples("state_density")
            np.copyto(self.density, rho)
        self.t, self.u = t, None

    def record(self, bank, prev: DiagnosticsRecord | None) -> DiagnosticsRecord:
        """The diagnostics row of the held state (diagnostics._record), from
        its first stage: its velocity samples, and grad Pi from its
        potential, in the "flux_x" and "flux_y" spectra. A record overwrites
        the samples that the stepper formed (not a given field's), so a
        later record of the same state forms them again from the held
        spectra, with the same bits. An overflow or a non-finite value is an
        InvariantViolation that names the operation or the column, and t."""
        self.tendency()
        work, t = self.work, self.t
        if self.recorded:
            self.u_samples = tuple(work.inverse(u, v) if v.flags.writeable else v
                                   for u, v in zip(self._spectra("state")[-2:], self.u_samples))
        self.recorded = True
        try:
            with np.errstate(over="raise", invalid="raise"):
                g_hat = tuple(np.multiply(work.spectrum("last_potential"), d, out=work.spectrum(name))
                              for d, name in ((work.tables.ddx, "flux_x"), (work.tables.ddy, "flux_y")))
                record = _record(t, self.density, self.u_samples, self._spectra("state")[-2:], g_hat,
                                 self.config, bank, prev, work)
        except FloatingPointError as exc:
            raise InvariantViolation(f"diagnostics not finite at t = {t:.6g}: {exc}") from None
        for name, value in zip(csv_columns(len(self.config.besov_indices)), record.row()):
            if not math.isfinite(value):
                raise InvariantViolation(f"diagnostics not finite at t = {t:.6g}: {name} = {value}")
        return record

    def telemetry(self) -> dict:
        """The counts of the solves made, for the run's summary."""
        return {"pressure": {"solves": self.solves, "iterations": self.iterations,
                             "max_iterations": self.max_iterations}}


def step_rk4(state: FluidState, config: SimConfig) -> FluidState:
    """Advance one RK4 step with per-stage pressure solves.

    The step runs on a fresh stepper, which holds no increments: the first
    stage's solve is cold and each later stage starts from the previous
    stage's potential. The updated velocity is Leray-projected to absorb the
    O(dt^5) divergence drift, and the density/velocity stay truncated to
    retained modes. State invariants are asserted on the result.
    """
    stepper = _Stepper(config, state)
    stepper.step()
    return stepper.state()


# ---------------------------------------------------------------------------
# simulation driver


@dataclass(frozen=True)
class SimulationResult:
    """The rows of a run, with final_state, the last state that passed its
    invariants. final_state is formed on first access (_Stepper.state):
    until then the result holds the run's stepper in held, and with it the
    stepper's workspace, which it drops once the state is formed."""

    records: list  # DiagnosticsRecord rows, in time order
    held: FluidState | _Stepper | None  # final_state, or the stepper that holds it
    initial_norms: InitialNorms  # of the t = 0 state, for the condition reports
    failure: str | None = None
    telemetry: dict | None = None  # _Stepper.telemetry(): counts, no timings

    @property
    def final_state(self) -> FluidState | None:
        if isinstance(self.held, _Stepper):
            object.__setattr__(self, "held", self.held.state())
        return self.held

    @property
    def failed(self) -> bool:
        return self.failure is not None


def run_simulation(config: SimConfig) -> SimulationResult:
    """Integrate to t_end, emitting one diagnostics row every record_every
    steps (plus the final step). Deterministic for a fixed config and seed.

    On an invariant or solver failure the rows collected so far are returned
    with the failure recorded, and the final state is the last one that
    passed its invariants. The initial norms are read from the t = 0
    record and the initial state, which the stepper holds until its first
    step; no other state is formed unless final_state is read.
    """
    bank = build_filter_bank(config.grid)
    state = initial_state(config)  # kept until the initial norms are taken
    stepper = _Stepper(config, state)
    n_steps = _step_count(config.t_end, config.dt, config.record_every)

    records, failure = [], None
    try:
        for step in range(n_steps + 1):
            if step:
                stepper.step()
            if step % config.record_every == 0 or step == n_steps:
                records.append(stepper.record(bank, records[-1] if records else None))
                if step == 0:  # the initial norms are read from the t = 0 record
                    norms, state = initial_norms(state, bank, records[0], config.besov_indices), None
    except (InvariantViolation, PressureSolveError) as exc:
        failure = str(exc)
    if state is not None:  # the t = 0 record failed
        norms = initial_norms(state, bank)
    return SimulationResult(records, stepper, norms, failure, stepper.telemetry())


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
    steps. With g = 0 the L^2 norm is conserved up to the RK4 error. The
    steps run with _rk4 in buffers of one Workspace on the retained lattice
    (fields): only the retained modes of f0 and of each forcing(t) are read,
    and the trajectory is scattered back into half-lattice fields.
    """
    n_steps = _step_count(t_end, dt, record_every)
    grid = f0.grid
    work = Workspace(grid, retained=True)
    trajectory = [(0.0, dealias(f0))]
    f_hat, k, y = (work.spectrum(name) for name in ("f", "k1", "stage"))
    work.gather(f0.spectrum, f_hat)

    def evaluate(out: np.ndarray, t: float) -> None:
        """-v . grad f (+ g) at time t, from and into the spectrum out."""
        ux, uy = (c.values for c in velocity(t).components)
        np.multiply(advect(ux, uy, out, out, work), -1.0, out=out)
        if forcing is not None:
            out += work.gather(forcing(t).spectrum, work.spectrum("forcing"))

    for step in range(1, n_steps + 1):
        t = (step - 1) * dt
        np.copyto(k, f_hat)
        evaluate(k, t)
        _rk4(lambda stage, t_s: evaluate(y, t_s), t, (f_hat,), dt, (k,), (y,), work.spectrum("scratch"))
        f_hat, k = k, f_hat  # k holds the new f
        if step % record_every == 0 or step == n_steps:
            trajectory.append((step * dt, ScalarField(grid, spectrum=work.scatter(f_hat))))
    return trajectory
