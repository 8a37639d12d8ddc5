"""Norm tracking, decay-rate fitting, smallness conditions, and run reports.

The three smallness evaluators compute the left-hand sides of the global
existence conditions exactly as closed formulas of the initial norms, the
damping coefficient, and the tunable surrogate constant K. A left-hand side
that would overflow is evaluated in log space and reads inf, never NaN, and a
zero initial velocity gives a left-hand side of 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fields import ParameterError, ScalarField, Workspace, _grad_inf, _magnitude, _parseval_l2, lp_norm
from .littlewood_paley import B1, _b1_norm_of_samples, _besov_norms, besov_norm

LOG_HUGE = 700.0  # exp threshold before float overflow


def _safe_exp(x: float) -> float:
    return math.inf if x > LOG_HUGE else math.exp(x)


def _safe_pow(x: float, p: float) -> float:
    return x**p if x <= 1.0 or p * math.log(x) <= LOG_HUGE else math.inf


# ---------------------------------------------------------------------------
# per-step records


@dataclass(frozen=True)
class DiagnosticsRecord:
    t: float
    l2_u: float
    besov_u: tuple[float, ...]
    l2_grad_pi: float
    besov_grad_pi: tuple[float, ...]
    besov_rho_minus_1: float
    rho_min: float
    rho_max: float
    energy: float
    grad_u_inf: float
    bkm_running: float

    def row(self) -> list[float]:
        """The values in records.csv column order (csv_columns)."""
        return [self.t, self.l2_u, *self.besov_u, self.l2_grad_pi, *self.besov_grad_pi,
                self.besov_rho_minus_1, self.rho_min, self.rho_max, self.energy,
                self.grad_u_inf, self.bkm_running]


def csv_columns(n_indices: int) -> list[str]:
    """The records.csv column names of a run tracking n_indices Besov indices."""
    cols = ["t", "l2_u"]
    cols += [f"besov_u_{i}" for i in range(n_indices)]
    cols += ["l2_gradPi"]
    cols += [f"besov_gradPi_{i}" for i in range(n_indices)]
    cols += ["besov_rho_minus_1", "rho_min", "rho_max", "energy", "grad_u_inf", "bkm_running"]
    return cols


def make_record(state, config, bank, prev: DiagnosticsRecord | None) -> DiagnosticsRecord:
    """Evaluate the diagnostics row of state, whose grad_pi is set: _record
    on a new workspace on the retained lattice, into whose "state_u_*" and
    "flux_*" spectra the retained modes of u and grad Pi are gathered."""
    work = Workspace(config.grid, retained=True)
    u_hat, g_hat = (tuple(work.gather(c.spectrum, work.spectrum(f"{kind}_{x}"))
                          for c, x in zip(v.components, "xy"))
                    for v, kind in ((state.u, "state_u"), (state.grad_pi, "flux")))
    u_samples = tuple(c.values for c in state.u.components)
    return _record(state.t, state.rho.values, u_samples, u_hat, g_hat, config, bank, prev, work)


def _record(t, rho, u_samples, u_hat, g_hat, config, bank, prev: DiagnosticsRecord | None,
            work: Workspace) -> DiagnosticsRecord:
    """The diagnostics row at time t from the density samples rho, the
    velocity samples u_samples, and the spectra u_hat of u and g_hat of
    grad Pi on work's lattice; the BKM integral extends the previous row by
    the trapezoid rule.

    l2_u and energy are taken from u_samples, so a row does not depend on
    how the velocity was held. The row allocates no array of the grid's
    size (numpy's in-place axis-0 FFTs copy their operand for the length
    of the call). The squares of |u| and the energy are formed in work's
    "product" samples, overwriting u_samples[1] (first copied into the
    "u_y" samples if it is read-only, a given field's). The dyadic blocks
    of u and grad Pi, and grad u, are formed on work and transformed by
    its inverse, in its "scratch" and "residual" spectra and "u_x" and
    "u_y" samples. rho - 1 takes its blocks on the half lattice
    (_b1_norm_of_samples, in the "product" samples and work's half
    spectra): the forward transform of its samples holds roundoff beyond
    k_max, which its blocks see."""
    ux, uy = u_samples
    if not uy.flags.writeable:
        uy = work.samples("u_y")
        np.copyto(uy, u_samples[1])
    squares = _magnitude(ux, uy, work.samples("product"))
    np.square(squares, out=squares)
    l2_u = float(math.sqrt(np.mean(squares)))
    energy = 0.5 * float(np.mean(np.multiply(rho, squares, out=squares)))
    g_inf = _grad_inf(u_hat, work)
    if prev is None:
        bkm = 0.0
    else:
        bkm = prev.bkm_running + 0.5 * (t - prev.t) * (g_inf + prev.grad_u_inf)
    return DiagnosticsRecord(
        t=t,
        l2_u=l2_u,
        besov_u=_besov_norms(bank, u_hat, config.besov_indices, work),
        l2_grad_pi=math.hypot(*(_parseval_l2(g) for g in g_hat)),
        besov_grad_pi=_besov_norms(bank, g_hat, config.besov_indices, work),
        besov_rho_minus_1=_b1_norm_of_samples(bank, np.subtract(rho, 1.0, out=work.samples("product")), work),
        rho_min=float(rho.min()),
        rho_max=float(rho.max()),
        energy=energy,
        grad_u_inf=g_inf,
        bkm_running=bkm,
    )


# ---------------------------------------------------------------------------
# decay fitting


@dataclass(frozen=True)
class DecayFit:
    rate: float
    intercept: float
    r_squared: float
    window: tuple[float, float]


def fit_decay_rate(series, window=None) -> DecayFit:
    """Least-squares exponential rate from a (t, value) series.

    Fits a line to (t, log value) inside the window (default: trailing half)
    and returns minus its slope. Requires at least five strictly positive
    points in the window.
    """
    ts = np.asarray([t for t, _ in series], dtype=float)
    vs = np.asarray([v for _, v in series], dtype=float)
    if window is None:
        t_end = ts[-1] if len(ts) else 0.0
        window = (0.5 * t_end, t_end)
    lo, hi = window
    mask = (ts >= lo) & (ts <= hi)
    ts, vs = ts[mask], vs[mask]
    if len(ts) < 5:
        raise ValueError(f"need at least 5 points in window, got {len(ts)}")
    if np.any(vs <= 0.0):
        raise ValueError("series has nonpositive values in the fit window")
    logv = np.log(vs)
    slope, intercept = np.polyfit(ts, logv, 1)
    fitted = slope * ts + intercept
    ss_res = float(np.sum((logv - fitted) ** 2))
    ss_tot = float(np.sum((logv - logv.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return DecayFit(rate=-float(slope), intercept=float(intercept),
                    r_squared=r_squared, window=(float(lo), float(hi)))


# ---------------------------------------------------------------------------
# smallness conditions


@dataclass(frozen=True)
class SmallnessParams:
    """Tunable surrogates for the existential constants in the conditions.

    K stands in for the absolute constant; eta is the heterogeneity exponent,
    eta_2d its planar gamma = 1 counterpart, which must exceed 5 (any value
    arbitrarily close to 5 is admissible).
    """

    K: float = 1.0
    eta: float = 2.0
    eta_2d: float = 5.01

    def __post_init__(self):
        for name in ("K", "eta"):
            if not getattr(self, name) > 0:
                raise ParameterError(name, f"must be positive, got {getattr(self, name)}")
        if not self.eta_2d > 5.0:
            raise ParameterError("eta_2d", f"must exceed 5 (planar condition), got {self.eta_2d}")


@dataclass(frozen=True)
class InitialNorms:
    """The low-regularity norms of the initial data that the conditions use."""

    u_besov1: float       # ||u0||_{B^1_{inf,1}}
    u_l2: float           # ||u0||_{L^2}
    rho_besov1: float     # ||rho0 - 1||_{B^1_{inf,1}}

    @property
    def u_intersection(self) -> float:
        return self.u_l2 + self.u_besov1


def initial_norms(state, bank, record: DiagnosticsRecord | None = None, indices=()) -> InitialNorms:
    """The norms of the t = 0 state (rho, u) that the conditions use. Given
    the state's record, made with the Besov indices indices, they are read
    from it: its l2_u, its besov_rho_minus_1 and, when B1 is among indices,
    its B1 norm of u."""
    if record is None:
        rho_m1 = state.rho + ScalarField.constant(state.rho.grid, -1.0)
        return InitialNorms(
            u_besov1=besov_norm(bank, state.u, B1),
            u_l2=lp_norm(state.u, 2),
            rho_besov1=besov_norm(bank, rho_m1, B1),
        )
    u_besov1 = record.besov_u[list(indices).index(B1)] if B1 in indices else besov_norm(bank, state.u, B1)
    return InitialNorms(u_besov1=u_besov1, u_l2=record.l2_u, rho_besov1=record.besov_rho_minus_1)


@dataclass(frozen=True)
class ConditionReport:
    theorem_id: str
    lhs: tuple[float, ...]
    thresholds: tuple[float, ...]
    satisfied: bool
    inputs: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "theorem_id": self.theorem_id,
            "lhs": list(self.lhs),
            "thresholds": list(self.thresholds),
            "satisfied": self.satisfied,
            "inputs": dict(self.inputs),
        }


def _checked(alpha: float, params: SmallnessParams | None) -> SmallnessParams:
    if not alpha > 0:
        raise ParameterError("alpha", f"must be positive for the smallness conditions, got {alpha}")
    return params or SmallnessParams()


def _echo(norms: InitialNorms, alpha: float, params: SmallnessParams) -> dict:
    return {
        "alpha": alpha,
        "u_besov1": norms.u_besov1,
        "u_l2": norms.u_l2,
        "rho_besov1": norms.rho_besov1,
        "K": params.K,
    }


def smallness_gamma1_general(
    norms: InitialNorms, alpha: float, params: SmallnessParams | None = None
) -> ConditionReport:
    """Condition for gamma = 1 in general dimension:

        (1/alpha) ||u0||_B1 * exp((1 + ||rho0-1||_B1^eta) e^K (||u0||_L2/alpha + 1)) < 2
    """
    params = _checked(alpha, params)
    exponent = ((1.0 + _safe_pow(norms.rho_besov1, params.eta)) * _safe_exp(params.K)
                * (norms.u_l2 / alpha + 1.0))
    if norms.u_besov1 == 0.0:
        lhs = 0.0
    elif exponent <= LOG_HUGE:  # as written while the exponential is in range
        lhs = norms.u_besov1 / alpha * math.exp(exponent)
    else:
        lhs = _safe_exp(math.log(norms.u_besov1) - math.log(alpha) + exponent)
    return ConditionReport(
        "gamma1_general", (lhs,), (2.0,), lhs < 2.0,
        inputs=_echo(norms, alpha, params) | {"eta": params.eta},
    )


def smallness_gamma0_general(
    norms: InitialNorms, alpha: float, params: SmallnessParams | None = None
) -> ConditionReport:
    """Condition pair for gamma = 0, with R = 1 + ||rho0-1||_B1^eta:

        K R e^{K R} ||u0||_{L2 and B1} / alpha < 2
        K R^3 e^{K R} ||u0||_{L2 and B1}^2 / alpha < 4
    """
    params = _checked(alpha, params)
    big_r = 1.0 + _safe_pow(norms.rho_besov1, params.eta)
    u = norms.u_intersection
    if u == 0.0:
        lhs1 = lhs2 = 0.0
    else:  # in log space
        log_lhs1 = math.log(params.K * big_r) + params.K * big_r + math.log(u) - math.log(alpha)
        lhs1 = _safe_exp(log_lhs1)
        lhs2 = _safe_exp(log_lhs1 + 2.0 * math.log(big_r) + math.log(u))
    return ConditionReport(
        "gamma0_general", (lhs1, lhs2), (2.0, 4.0), lhs1 < 2.0 and lhs2 < 4.0,
        inputs=_echo(norms, alpha, params) | {"eta": params.eta, "R": big_r},
    )


def smallness_gamma1_2d(
    norms: InitialNorms, alpha: float, params: SmallnessParams | None = None
) -> ConditionReport:
    """Planar gamma = 1 condition, small heterogeneity but arbitrary velocity:

        ||rho0-1||_B1 (1 + ||rho0-1||_B1^eta) ||u0||_{L2 and B1}
            * Phi_K(||u0||_{L2 and B1}) < 4

    with Phi_K(z) = exp(2 K z / alpha) * exp(K exp(K z / alpha)); eta = eta_2d > 5.
    """
    params = _checked(alpha, params)
    eta = params.eta_2d
    u = norms.u_intersection
    if norms.rho_besov1 == 0.0 or u == 0.0:
        lhs = 0.0
    else:
        log_phi = 2.0 * params.K * u / alpha + params.K * _safe_exp(params.K * u / alpha)
        log_lhs = (
            math.log(norms.rho_besov1)
            + math.log1p(_safe_pow(norms.rho_besov1, eta))
            + math.log(u)
            + log_phi
        )
        lhs = _safe_exp(log_lhs)
    return ConditionReport(
        "gamma1_2d", (lhs,), (4.0,), lhs < 4.0,
        inputs=_echo(norms, alpha, params) | {"eta": eta},
    )


def beta0(alpha: float, rho_upper: float, s: float, d: int = 2, delta: float = 0.01) -> float:
    """Guaranteed decay rate for gamma = 0 in the high-regularity norms.

    With sigma = d/2 + delta and the interpolation exponent
    theta0 = 1/(s + sigma), returns theta0/(1 + theta0) * alpha/rho_upper,
    which always lies strictly between 0 and alpha/rho_upper.
    """
    if alpha <= 0 or rho_upper <= 0:
        raise ValueError("alpha and rho_upper must be positive")
    if s < 1:
        raise ValueError("s must be >= 1")
    if delta <= 0:
        raise ValueError("delta must be positive")
    sigma = d / 2.0 + delta
    theta0 = 1.0 / (s + sigma)
    return theta0 / (1.0 + theta0) * alpha / rho_upper


# ---------------------------------------------------------------------------
# run-level reports


def bkm_report(records) -> tuple[float, list[float]]:
    """Running continuation integral of ||grad u||_inf and its per-interval
    increments; geometric tail decay of the increments is the numerical hint
    of global regularity."""
    if len(records) < 2:
        raise ValueError("need at least two records")
    increments = [
        records[i].bkm_running - records[i - 1].bkm_running
        for i in range(1, len(records))
    ]
    return records[-1].bkm_running, increments


def bkm_tail_geometric(increments, tail: int = 5) -> bool:
    """Advisory verdict: do the last `tail` increments decay geometrically?"""
    if len(increments) < tail + 1:
        return False
    window = increments[-(tail + 1):]
    return all(b < a or b == 0.0 for a, b in zip(window, window[1:]))


def energy_balance_residual(records, gamma: int, alpha: float) -> float:
    """Max relative defect of the kinetic energy balance across the records.

    Uses centered differencing of the recorded energy against the damping
    dissipation alpha * avg(rho^gamma |u|^2), normalized by alpha * energy(0).
    Requires at least three uniformly spaced records.
    """
    if len(records) < 3:
        raise ValueError("need at least three records")
    ts = np.array([r.t for r in records])
    gaps = np.diff(ts)
    if np.max(np.abs(gaps - gaps[0])) > 1e-9 * max(gaps[0], 1e-300):
        raise ValueError("records are not uniformly spaced")
    dt = gaps[0]
    energy = np.array([r.energy for r in records])
    if gamma == 1:
        dissipation = 2.0 * energy
    else:
        dissipation = np.array([r.l2_u**2 for r in records])
    dedt = (energy[2:] - energy[:-2]) / (2.0 * dt)
    resid = np.abs(dedt + alpha * dissipation[1:-1])
    scale = alpha * energy[0]
    if scale == 0.0:
        return float(np.max(resid))
    return float(np.max(resid) / scale)
