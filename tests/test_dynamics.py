import math

import numpy as np
import pytest

from dampedeuler.diagnostics import beta0, energy_balance_residual
from dampedeuler.dynamics import (
    FluidState,
    ICRecipe,
    InvariantViolation,
    SimConfig,
    density_rhs,
    initial_state,
    momentum_rhs,
    pressure_gradient,
    rescaled_view,
    rho_gaussian_bump,
    rho_single_mode,
    run_simulation,
    solve_linear_transport,
    step_rk4,
    swirl,
    taylor_green,
    vorticity_forcing,
)
from dampedeuler.fields import (
    GridSpec,
    ScalarField,
    VectorField,
    curl2d,
    lp_norm,
)
from dampedeuler.littlewood_paley import build_filter_bank

from conftest import fd_gradient6


def tg_config(alpha=0.5, gamma=1, n=64, dt=1e-3, t_end=1.0, amplitude=1.0, **kw):
    return SimConfig(
        alpha=alpha, gamma=gamma, grid=GridSpec(n=n), dt=dt, t_end=t_end,
        ic=ICRecipe(u_params={"amplitude": amplitude}), **kw,
    )


class TestTendencies:
    def test_zero_velocity_zero_tendency(self, grid64):
        cfg = tg_config()
        state = FluidState(
            t=0.0, rho=ScalarField.constant(grid64, 1.0), u=VectorField.zero(grid64),
            rho_bounds=(1.0, 1.0),
        )
        assert lp_norm(momentum_rhs(state, cfg), 2) == 0.0
        assert lp_norm(density_rhs(state), 2) == 0.0

    def test_cellular_vortex_decays_exactly(self, grid64):
        # steady Euler flow: pressure cancels advection, leaving -alpha u
        cfg = tg_config(alpha=0.5)
        state = initial_state(cfg)
        rhs = momentum_rhs(state, cfg)
        err = lp_norm(rhs + 0.5 * state.u, math.inf)
        assert err <= 1e-12

    def test_gamma_choice_irrelevant_for_uniform_density(self, grid64):
        for gamma in (0, 1):
            cfg = tg_config(alpha=0.7, gamma=gamma)
            state = initial_state(cfg)
            rhs = momentum_rhs(state, cfg)
            assert lp_norm(rhs + 0.7 * state.u, math.inf) <= 1e-12

    def test_density_translation(self, grid64):
        x, _ = grid64.nodes()
        u = VectorField.from_arrays(grid64, np.ones(grid64.shape), np.zeros(grid64.shape))
        rho = ScalarField.from_values(grid64, 1.0 + 0.1 * np.sin(x))
        state = FluidState(t=0.0, rho=rho, u=u, rho_bounds=(0.9, 1.1))
        out = density_rhs(state)
        assert np.abs(out.values + 0.1 * np.cos(x)).max() <= 1e-12


class TestStepping:
    def test_zero_field_stays_zero(self, grid64):
        cfg = tg_config()
        state = FluidState(
            t=0.0, rho=ScalarField.constant(grid64, 1.0), u=VectorField.zero(grid64),
            rho_bounds=(1.0, 1.0),
        )
        new = step_rk4(state, cfg)
        assert lp_norm(new.u, 2) == 0.0

    def test_one_step_matches_exponential(self, grid64):
        cfg = tg_config(alpha=0.5, dt=1e-3)
        state = initial_state(cfg)
        new = step_rk4(state, cfg)
        exact = state.u * math.exp(-0.5 * cfg.dt)
        assert lp_norm(new.u - exact, 2) <= 1e-12

    def test_undamped_vortex_is_stationary(self, grid64):
        cfg = tg_config(alpha=0.0, dt=1e-3)
        state = initial_state(cfg)
        new = step_rk4(state, cfg)
        assert lp_norm(new.u - state.u, 2) <= 1e-10

    def test_density_bound_violation_aborts(self, grid64):
        cfg = tg_config()
        rho = ScalarField.constant(grid64, 1.0)
        state = FluidState(
            t=0.0, rho=rho, u=initial_state(cfg).u, rho_bounds=(2.0, 3.0)
        )
        with pytest.raises(InvariantViolation):
            step_rk4(state, cfg)


class TestFailLoudly:
    def test_nan_velocity_fails_invariant_check(self, grid64):
        from dampedeuler.dynamics import _check_invariants

        state = initial_state(tg_config())
        vx = state.u.components[0].values.copy()
        vx[3, 5] = np.nan
        bad = FluidState(
            t=0.5, rho=state.rho, u=VectorField.from_arrays(grid64, vx, state.u.components[1].values),
            rho_bounds=state.rho_bounds,
        )
        with pytest.raises(InvariantViolation, match="velocity not finite at t = 0.5"):
            _check_invariants(bad)

    @pytest.mark.parametrize("bad_value", [np.nan, 0.0])
    def test_bad_stage_density_is_an_invariant_violation(self, grid64, bad_value):
        cfg = tg_config()
        values = np.ones(grid64.shape)
        values[7, 2] = bad_value
        state = FluidState(
            t=0.25, rho=ScalarField.from_values(grid64, values), u=initial_state(cfg).u,
            rho_bounds=(1.0, 1.0),
        )
        with pytest.raises(InvariantViolation, match="density .* at t = 0.25"):
            step_rk4(state, cfg)

    def test_t_end_must_be_whole_number_of_steps(self, grid64):
        with pytest.raises(ValueError, match="t_end"):
            tg_config(dt=0.003, t_end=0.01)
        with pytest.raises(ValueError, match="t_end"):
            solve_linear_transport(
                lambda t: VectorField.zero(grid64), ScalarField.zero(grid64), t_end=0.01, dt=0.003
            )


class TestTransformCount:
    """Real transforms in one RK4 step at n = 64, and no complex ones. These
    are the counts of the current design; lower them when a change saves
    transforms."""

    @pytest.mark.parametrize("gamma, ic, expected", [
        (1, ICRecipe(), 46),
        (0, ICRecipe(rho_preset="single_mode", rho_params={"k": 1, "amplitude": 0.2}), 238),
    ])
    def test_transforms_per_step(self, monkeypatch, gamma, ic, expected):
        cfg = SimConfig(alpha=1.0, gamma=gamma, grid=GridSpec(n=64), dt=1e-3, t_end=1e-3, ic=ic)
        state = initial_state(cfg)
        calls = dict.fromkeys(("rfftn", "irfftn", "fftn", "ifftn"), 0)
        for name in calls:
            def counted(*args, _name=name, _transform=getattr(np.fft, name), **kwargs):
                calls[_name] += 1
                return _transform(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        step_rk4(state, cfg)
        assert calls["fftn"] == calls["ifftn"] == 0
        assert calls["rfftn"] + calls["irfftn"] == expected


class TestRunSimulation:
    def test_zero_horizon_single_record(self):
        cfg = tg_config(t_end=0.0, n=32)
        res = run_simulation(cfg)
        assert not res.failed
        assert len(res.records) == 1
        assert res.records[0].t == 0.0

    def test_vortex_decay_over_horizon(self):
        cfg = tg_config(alpha=0.5, n=32, dt=2e-3, t_end=2.0, record_every=10)
        res = run_simulation(cfg)
        r0, rN = res.records[0], res.records[-1]
        expected = math.exp(-0.5 * rN.t) * r0.l2_u
        assert abs(rN.l2_u - expected) / expected <= 1e-6

    def test_record_thinning(self):
        base = dict(alpha=0.5, n=32, dt=2e-3, t_end=1.0)
        rows = [len(run_simulation(tg_config(record_every=k, **base)).records) for k in (10, 20)]
        assert abs(rows[0] - 2 * rows[1]) <= 2

    def test_deterministic_records(self):
        cfg = tg_config(alpha=0.5, n=32, dt=2e-3, t_end=0.5, record_every=5)
        a = run_simulation(cfg).records
        b = run_simulation(cfg).records
        assert a == b

    def test_random_shell_seed_determinism(self):
        ic = ICRecipe(u_preset="random_shell", u_params={"j": 2, "amplitude": 0.3}, seed=7)
        cfg = SimConfig(alpha=0.5, gamma=1, grid=GridSpec(n=32), dt=2e-3, t_end=0.1, ic=ic)
        a = run_simulation(cfg).records
        b = run_simulation(cfg).records
        assert a == b

    def test_failure_keeps_partial_records(self):
        # contrast 4 with a one-sweep iteration cap cannot converge
        ic = ICRecipe(rho_preset="single_mode", rho_params={"k": 1, "amplitude": 0.6})
        from dampedeuler.elliptic import PressureSolveParams

        cfg = SimConfig(
            alpha=0.5, gamma=0, grid=GridSpec(n=32), dt=2e-3, t_end=1.0, ic=ic,
            pressure=PressureSolveParams(tol=1e-10, max_iter=1),
        )
        res = run_simulation(cfg)
        assert res.failed
        assert res.failure
        assert len(res.records) == 0  # fails in the very first record's solve

    def test_cfl_warning(self):
        with pytest.warns(UserWarning, match="CFL"):
            initial_state(tg_config(n=64, dt=0.2, amplitude=1.0))


class TestRescaledView:
    def test_zero_beta_is_identity(self, grid64):
        cfg = tg_config()
        state = initial_state(cfg)
        state = FluidState(
            t=2.0, rho=state.rho, u=state.u,
            grad_pi=pressure_gradient(state, cfg), rho_bounds=state.rho_bounds,
        )
        u_r, g_r = rescaled_view(state, 0.0)
        assert lp_norm(u_r - state.u, 2) == 0.0
        assert lp_norm(g_r - state.grad_pi, 2) == 0.0

    def test_time_zero_is_identity(self, grid64):
        cfg = tg_config()
        state = initial_state(cfg)
        state = FluidState(
            t=0.0, rho=state.rho, u=state.u,
            grad_pi=pressure_gradient(state, cfg), rho_bounds=state.rho_bounds,
        )
        u_r, _ = rescaled_view(state, 3.0)
        assert lp_norm(u_r - state.u, 2) == 0.0

    def test_compensated_norm_constant_for_vortex(self):
        cfg = tg_config(alpha=0.5, n=32, dt=2e-3, t_end=2.0, record_every=20)
        res = run_simulation(cfg)
        vals = [math.exp(0.5 * r.t) * r.l2_u for r in res.records]
        assert max(vals) / min(vals) <= 1.0 + 1e-6

    def test_requires_pressure_cache(self, grid64):
        state = initial_state(tg_config())
        with pytest.raises(ValueError):
            rescaled_view(state, 1.0)


class TestLinearTransport:
    def test_zero_velocity_keeps_data(self, grid64):
        x, _ = grid64.nodes()
        f0 = ScalarField.from_values(grid64, np.sin(x))
        traj = solve_linear_transport(
            lambda t: VectorField.zero(grid64), f0, None, t_end=1.0, dt=0.05
        )
        assert lp_norm(traj[-1][1] - f0, math.inf) <= 1e-13

    def test_constants_are_transported(self, grid64):
        v = swirl(grid64, 1.0)
        f0 = ScalarField.constant(grid64, 2.0)
        traj = solve_linear_transport(lambda t: v, f0, None, t_end=1.0, dt=0.05)
        assert lp_norm(traj[-1][1] - f0, math.inf) <= 1e-12

    def test_l2_conserved_under_swirl(self):
        grid = GridSpec(n=128)
        x, y = grid.nodes()
        dsq = 4 * np.sin((x - 1.0) / 2) ** 2 + 4 * np.sin((y - 0.5) / 2) ** 2
        f0 = ScalarField.from_values(grid, np.exp(-dsq / (2 * 0.8**2)))
        traj = solve_linear_transport(
            lambda t: swirl(grid, 1.0), f0, None, t_end=2.0, dt=0.005, record_every=100
        )
        l0 = lp_norm(traj[0][1], 2)
        drift = abs(lp_norm(traj[-1][1], 2) - l0) / l0 / 2.0
        assert drift <= 1e-8

    def test_forcing_accumulates(self, grid64):
        forcing = ScalarField.constant(grid64, 1.0)
        f0 = ScalarField.zero(grid64)
        traj = solve_linear_transport(
            lambda t: VectorField.zero(grid64), f0, lambda t: forcing, t_end=1.0, dt=0.05
        )
        assert lp_norm(traj[-1][1] - ScalarField.constant(grid64, 1.0), math.inf) <= 1e-12


class TestVorticityForcing:
    def test_uniform_density_gives_zero(self, grid64):
        cfg = tg_config(alpha=0.5)
        state = initial_state(cfg)
        out = vorticity_forcing(state, cfg)
        assert lp_norm(out, math.inf) == 0.0

    def test_zero_pressure_gives_zero(self, grid64):
        rho = rho_single_mode(grid64, k=1, amplitude=0.2)
        state = FluidState(
            t=0.0, rho=rho, u=VectorField.zero(grid64),
            grad_pi=VectorField.zero(grid64), rho_bounds=(0.8, 1.2),
        )
        out = vorticity_forcing(state, tg_config(alpha=0.5))
        assert lp_norm(out, math.inf) == 0.0

    def test_matches_finite_difference_oracle(self, grid64):
        cfg = tg_config(alpha=0.5)
        base = initial_state(cfg)
        rho = rho_single_mode(grid64, k=1, amplitude=0.2)
        state = FluidState(t=0.3, rho=rho, u=base.u, rho_bounds=(0.8, 1.2))
        grad_pi = pressure_gradient(state, cfg)
        state = FluidState(
            t=0.3, rho=rho, u=base.u, grad_pi=grad_pi, rho_bounds=(0.8, 1.2)
        )
        out = vorticity_forcing(state, cfg)

        inv_rho = 1.0 / rho.values
        scale = math.exp(cfg.alpha * state.t)
        px = fd_gradient6(inv_rho, grid64.length, 0)
        py = fd_gradient6(inv_rho, grid64.length, 1)
        oracle = -scale * (
            -py * grad_pi.components[0].values + px * grad_pi.components[1].values
        )
        assert np.abs(out.values - oracle).max() <= 1e-6


class TestConservationLaws:
    def test_energy_balance_uniform_density(self):
        cfg = tg_config(alpha=0.5, n=32, dt=1e-3, t_end=1.0, record_every=1)
        res = run_simulation(cfg)
        assert energy_balance_residual(res.records, gamma=1, alpha=0.5) <= 1e-6

    def test_compensated_energy_constant_gamma1(self):
        # with gamma = 1 the weighted energy of the compensated velocity is
        # an exact invariant, uniform density or not
        ic = ICRecipe(rho_preset="single_mode", rho_params={"k": 1, "amplitude": 0.1})
        cfg = SimConfig(alpha=0.5, gamma=1, grid=GridSpec(n=32), dt=2e-3, t_end=2.0,
                        ic=ic, record_every=20)
        res = run_simulation(cfg)
        weighted = [
            math.exp(0.5 * r.t) * math.sqrt(2.0 * r.energy) for r in res.records
        ]
        assert max(weighted) / min(weighted) <= 1.0 + 1e-6

    def test_vorticity_l2_constant_for_uniform_density(self):
        cfg = tg_config(alpha=0.5, n=32, dt=2e-3, t_end=2.0)
        state = initial_state(cfg)
        w0 = lp_norm(curl2d(state.u), 2)
        steps = int(round(cfg.t_end / cfg.dt))
        for _ in range(steps):
            state = step_rk4(state, cfg)
        wT = lp_norm(curl2d(state.u), 2) * math.exp(0.5 * state.t)
        assert abs(wT - w0) / w0 <= 1e-6

    def test_gamma0_decay_beats_guaranteed_rate(self):
        # small-data run satisfying both gamma = 0 conditions at K = 1
        ic = ICRecipe(u_params={"amplitude": 0.2},
                      rho_preset="single_mode", rho_params={"k": 1, "amplitude": 0.2})
        cfg = SimConfig(alpha=1.0, gamma=0, grid=GridSpec(n=32), dt=2e-3, t_end=2.0,
                        ic=ic, record_every=5)
        res = run_simulation(cfg)
        series = [(r.t, r.l2_u + r.besov_u[0]) for r in res.records]
        from dampedeuler.diagnostics import fit_decay_rate

        fit = fit_decay_rate(series)
        guaranteed = beta0(alpha=1.0, rho_upper=1.2, s=1.0, d=2, delta=0.01)
        assert fit.rate >= 0.9 * guaranteed


class TestPresets:
    def test_gaussian_bump_positive(self, grid64):
        rho = rho_gaussian_bump(grid64, width=0.5, amplitude=-0.5)
        assert rho.values.min() > 0.0

    def test_single_mode_amplitude_guard(self, grid64):
        with pytest.raises(ValueError):
            rho_single_mode(grid64, k=1, amplitude=1.0)

    def test_unknown_preset_rejected(self):
        cfg = SimConfig(
            alpha=0.5, gamma=1, grid=GridSpec(n=32), dt=1e-3, t_end=0.1,
            ic=ICRecipe(u_preset="nonsense"),
        )
        with pytest.raises(ValueError):
            initial_state(cfg)

    def test_taylor_green_is_divergence_free(self, grid64):
        u = taylor_green(grid64)
        assert u.divergence_free

    def test_random_shell_lands_in_shell(self):
        from dampedeuler.dynamics import random_shell
        from dampedeuler.littlewood_paley import dyadic_block

        grid = GridSpec(n=64)
        bank = build_filter_bank(grid)
        u = random_shell(grid, j=2, amplitude=0.5, seed=3)
        assert lp_norm(u, 2) == pytest.approx(0.5, rel=1e-9)
        for j in bank.block_indices():
            if abs(j - 2) >= 2:
                blocked = VectorField(
                    tuple(dyadic_block(bank, c, j) for c in u.components)
                )
                assert lp_norm(blocked, 2) <= 1e-12
