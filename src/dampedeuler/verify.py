"""Self-verification suite: the cross-module identities runnable on demand.

Each check returns a CheckResult; `run_verification` bundles them into the
quick (N = 64) or full (adds N = 128 consistency, the dense elliptic
oracle at N = 16, contrast 1.5, 10, 100, 1000, and RK4 self-convergence of
variable-density runs at N = 32, initial contrast 3.98 and 83.95) levels of
`dampedeuler verify`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import dynamics, elliptic
from .diagnostics import energy_balance_residual
from .fields import (
    GridSpec,
    ScalarField,
    VectorField,
    _half_tables,
    apply_multiplier,
    dealias,
    dealiased_product,
    divergence,
    gradient,
    lp_norm,
)
from .littlewood_paley import (
    DyadicFilterBank,
    build_filter_bank,
    paraproduct,
    partition_residual,
    remainder,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float = 0.0


def random_dealiased_field(grid: GridSpec, rng) -> ScalarField:
    """Smooth random scalar: white spectrum shaped by exp(-|k|/4), dealiased."""
    white = ScalarField.from_values(grid, rng.standard_normal(grid.shape))
    return dealias(apply_multiplier(white, np.exp(-_half_tables(grid).k_mag / 4.0)))


def check_partition_of_unity(n: int = 64, bank: DyadicFilterBank | None = None) -> CheckResult:
    if bank is None:
        bank = build_filter_bank(GridSpec(n=n))
    residual = partition_residual(bank)
    return CheckResult(
        "partition_of_unity",
        residual == 0.0,
        f"max residual over retained modes = {residual:.3e}",
    )


def check_bony_identity(n: int = 64, pairs: int = 100, seed: int = 0) -> CheckResult:
    grid = GridSpec(n=n)
    bank = build_filter_bank(grid)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(pairs):
        u = random_dealiased_field(grid, rng)
        v = random_dealiased_field(grid, rng)
        product = dealiased_product(u, v)
        recon = paraproduct(bank, u, v) + paraproduct(bank, v, u) + remainder(bank, u, v)
        scale = lp_norm(u, math.inf) * lp_norm(v, math.inf)
        err = lp_norm(product - recon, math.inf) / max(scale, 1e-300)
        worst = max(worst, err)
    return CheckResult(
        "bony_identity",
        worst <= 1e-10,
        f"worst relative residual over {pairs} pairs = {worst:.3e}",
    )


def bernstein_ratios(n: int, seed: int = 0):
    """(j, p, ratio) samples of |grad f|_p / (2^j |f|_p) on annulus-supported
    random fields, for every block and p in {2, inf}."""
    grid = GridSpec(n=n)
    bank = build_filter_bank(grid)
    rng = np.random.default_rng(seed)
    out = []
    for j in range(0, bank.j_max + 1):
        white = ScalarField.from_values(grid, rng.standard_normal(grid.shape))
        f = dealias(apply_multiplier(white, bank.block_profile(j)))
        g = gradient(f)
        for p in (2.0, math.inf):
            out.append((j, p, lp_norm(g, p) / (2.0**j * lp_norm(f, p))))
    return out


def check_bernstein(ns=(64,), seed: int = 0) -> CheckResult:
    ratios = [r for n in ns for (_, _, r) in bernstein_ratios(n, seed)]
    ok = all(1.0 / 8.0 <= r <= 8.0 for r in ratios)
    return CheckResult(
        "bernstein",
        ok,
        f"range [{min(ratios):.3f}, {max(ratios):.3f}] over N in {tuple(ns)}",
    )


def check_lax_milgram(n: int = 32, instances: int = 10, seed: int = 0) -> CheckResult:
    grid = GridSpec(n=n)
    rng = np.random.default_rng(seed)
    x, _ = grid.nodes()
    worst = 0.0
    for i in range(instances):
        amp = 0.1 + 0.2 * rng.random()
        rho = dealias(ScalarField.from_values(grid, 1.0 + amp * np.cos(x + rng.random())))
        F = VectorField(
            (random_dealiased_field(grid, rng), random_dealiased_field(grid, rng))
        )
        sol = elliptic.solve_pressure(rho, F)
        worst = max(worst, elliptic.lax_milgram_check(rho, F, sol.grad_pi))
    return CheckResult(
        "lax_milgram",
        worst <= 1.0 + 1e-8,
        f"worst ratio over {instances} solves = {worst:.12f}",
    )


def check_tg_regression(n: int = 64, alpha: float = 0.5, t_end: float = 1.0, dt: float = 1e-3) -> CheckResult:
    """Exponential decay of the cellular steady flow under gamma = 1 damping."""
    config = dynamics.SimConfig(
        alpha=alpha, gamma=1, grid=GridSpec(n=n), dt=dt, t_end=t_end,
        ic=dynamics.ICRecipe(), record_every=10,
    )
    result = dynamics.run_simulation(config)
    if result.failed:
        return CheckResult("tg_regression", False, f"run failed: {result.failure}")
    final = result.records[-1]
    expected = math.exp(-alpha * final.t) * result.records[0].l2_u
    err = abs(final.l2_u - expected) / expected
    return CheckResult(
        "tg_regression",
        err <= 1e-6,
        f"relative decay error at t = {final.t:g}: {err:.3e}",
    )


def check_energy_balance(n: int = 64, alpha: float = 0.5, t_end: float = 1.0, dt: float = 2e-3) -> CheckResult:
    config = dynamics.SimConfig(
        alpha=alpha, gamma=0, grid=GridSpec(n=n), dt=dt, t_end=t_end,
        ic=dynamics.ICRecipe(rho_preset="single_mode", rho_params={"k": 1, "amplitude": 0.2}),
        record_every=1,
    )
    result = dynamics.run_simulation(config)
    if result.failed:
        return CheckResult("energy_balance", False, f"run failed: {result.failure}")
    resid = energy_balance_residual(result.records, gamma=0, alpha=alpha)
    return CheckResult(
        "energy_balance",
        resid <= 1e-5,
        f"max relative residual = {resid:.3e}",
    )


def check_dense_elliptic_oracle(n: int = 16, seed: int = 0, contrast: float = 1.5) -> CheckResult:
    """Conjugate-gradient pressure solve against a dense direct solve of the
    same discrete operator, on the density 1 + A cos(x) with max/min = contrast."""
    grid = GridSpec(n=n)
    rng = np.random.default_rng(seed)
    x, _ = grid.nodes()
    rho = dealias(ScalarField.from_values(grid, 1.0 + (contrast - 1.0) / (contrast + 1.0) * np.cos(x)))
    F = VectorField((random_dealiased_field(grid, rng), random_dealiased_field(grid, rng)))
    sol = elliptic.solve_pressure(rho, F)

    size = n * n
    a = 1.0 / rho.values

    def operator(vals):
        # restrict to retained modes: the pressure solve poses the problem on
        # the dealiased subspace, so the direct solve must as well
        pi_hat = dealias(ScalarField.from_values(grid, vals.reshape(grid.shape))).spectrum
        res_hat = elliptic.operator_residual(a, pi_hat, 0.0, grid)[0]
        return ScalarField.from_spectrum(grid, res_hat).values.ravel()

    matrix = np.empty((size, size))
    basis = np.zeros(size)
    for i in range(size):
        basis[i] = 1.0
        matrix[:, i] = operator(basis)
        basis[i] = 0.0
    rhs = dealias(divergence(F)).values.ravel()
    dense, *_ = np.linalg.lstsq(matrix, rhs, rcond=None)
    dense -= dense.mean()
    dense_pi = ScalarField.from_values(grid, dense.reshape(grid.shape))
    err = lp_norm(dense_pi - sol.pi, 2) / max(lp_norm(sol.pi, 2), 1e-300)
    return CheckResult(
        "dense_elliptic_oracle",
        err <= 1e-8,
        f"relative disagreement with dense solve at contrast {contrast:g} = {err:.3e}",
    )


def check_time_convergence(n: int = 32, contrast: float = 4.0, gamma: int = 0) -> CheckResult:
    """RK4 self-convergence of the full nonlinear solver at variable density.

    The swirl over a Gaussian bump of width 0.8 and amplitude contrast - 1 is
    integrated to t = 0.4 at dt = 0.04, 0.02, 0.01, 0.005. At that width the
    initial density contrast, after dealiasing, falls short of the nominal
    one (3.98 for 4, 83.95 for 100); the detail names the measured one. The
    max-norm differences of the final (rho, u) between successive dt must shrink by
    the fourth-order factor 16 (each ratio in [14, 18]). Needs no exact
    solution. The finest difference is about 1e-10 at contrast 4 and n = 32,
    just above the solve tolerance, so dt is not refined further.
    """
    ic = dynamics.ICRecipe(u_preset="swirl", rho_preset="gaussian_bump",
                           rho_params={"width": 0.8, "amplitude": contrast - 1.0})
    t_end, finals = 0.4, []
    for dt in (0.04, 0.02, 0.01, 0.005):
        config = dynamics.SimConfig(alpha=1.0, gamma=gamma, grid=GridSpec(n=n), dt=dt,
                                    t_end=t_end, ic=ic, record_every=round(t_end / dt))
        result = dynamics.run_simulation(config)
        if result.failed:
            return CheckResult("time_convergence", False, f"run at dt = {dt:g} failed: {result.failure}")
        finals.append((result.final_state.rho, *result.final_state.u.components))
    measured = elliptic.coefficient_bounds(dynamics.initial_state(config).rho).contrast
    diffs = [max(lp_norm(a - b, math.inf) for a, b in zip(coarse, fine))
             for coarse, fine in zip(finals, finals[1:])]
    ratios = [d / d_fine if d_fine else math.inf for d, d_fine in zip(diffs, diffs[1:])]
    return CheckResult(
        "time_convergence",
        all(14.0 <= r <= 18.0 for r in ratios),
        f"difference ratios {', '.join(f'{r:.2f}' for r in ratios)} at initial contrast "
        f"{measured:.2f} (bump amplitude {contrast - 1.0:g}), "
        f"gamma = {gamma} (finest difference {diffs[-1]:.2e})",
    )


def run_verification(level: str = "quick") -> list[CheckResult]:
    """Run the checks of one level, each timed into its CheckResult.seconds.
    A check that raises fails: its result, named after the check function
    as every result is, names the exception."""
    if level not in ("quick", "full"):
        raise ValueError(f"level must be 'quick' or 'full', got {level!r}")
    checks = [
        partial(check_partition_of_unity, 64),
        partial(check_bony_identity, 64, pairs=100),
        partial(check_bernstein, (64,)),
        partial(check_lax_milgram, 32, instances=10),
        partial(check_tg_regression),
        partial(check_energy_balance),
    ]
    if level == "full":
        checks.append(partial(check_partition_of_unity, 128))
        checks.append(partial(check_bernstein, (64, 128)))
        checks.extend(partial(check_dense_elliptic_oracle, 16, contrast=c) for c in (1.5, 10.0, 100.0, 1000.0))
        checks.extend(partial(check_time_convergence, 32, contrast=c, gamma=g)
                      for c in (4.0, 100.0) for g in (0, 1))
    results = []
    for check in checks:
        start = time.perf_counter()
        try:
            result = check()
        except Exception as exc:  # a failing check, not a crash of the suite
            name = check.func.__name__.removeprefix("check_")
            result = CheckResult(name, False, f"raised {type(exc).__name__}: {exc}")
        results.append(replace(result, seconds=time.perf_counter() - start))
    return results
