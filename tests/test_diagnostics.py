import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dampedeuler.diagnostics import (
    InitialNorms,
    SmallnessParams,
    beta0,
    bkm_report,
    bkm_tail_geometric,
    energy_balance_residual,
    fit_decay_rate,
    smallness_gamma0_general,
    smallness_gamma1_2d,
    smallness_gamma1_general,
)
from dampedeuler.config import build_sim_config, resolve_config
from dampedeuler.dynamics import _Stepper, initial_state
from dampedeuler.littlewood_paley import build_filter_bank

from conftest import count_transforms, traced_peak


class TestFitDecayRate:
    def test_pure_exponential(self):
        ts = np.linspace(0.0, 3.0, 40)
        series = [(t, math.exp(-2.0 * t)) for t in ts]
        fit = fit_decay_rate(series, window=(0.0, 3.0))
        assert fit.rate == pytest.approx(2.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_constant_series(self):
        series = [(t, 5.0) for t in np.linspace(0.0, 1.0, 20)]
        fit = fit_decay_rate(series, window=(0.0, 1.0))
        assert fit.rate == pytest.approx(0.0, abs=1e-12)

    def test_default_window_is_trailing_half(self):
        # different rates in the two halves; the fit must see only the tail
        series = [(t, math.exp(-1.0 * t)) for t in np.linspace(0.0, 1.0, 30)]
        series += [(t, series[-1][1] * math.exp(-3.0 * (t - 1.0))) for t in np.linspace(1.05, 2.0, 30)]
        fit = fit_decay_rate(series)
        assert fit.rate == pytest.approx(3.0, abs=1e-6)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_decay_rate([(0.0, 1.0), (1.0, 0.5)], window=(0.0, 1.0))

    def test_nonpositive_values(self):
        series = [(t, 1.0 - t) for t in np.linspace(0.0, 2.0, 10)]
        with pytest.raises(ValueError):
            fit_decay_rate(series, window=(0.0, 2.0))


class TestSmallnessEvaluators:
    def test_gamma1_general_frozen_value(self):
        # K=1, eta=2, alpha=1, |u0|_B1=0.1, |u0|_L2=0.1, |rho0-1|=0
        norms = InitialNorms(u_besov1=0.1, u_l2=0.1, rho_besov1=0.0)
        report = smallness_gamma1_general(norms, alpha=1.0, params=SmallnessParams(K=1.0, eta=2.0))
        expected = 0.1 * math.exp(math.e * 1.1)
        assert report.lhs[0] == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(1.990, abs=2e-3)
        assert report.satisfied

    def test_gamma0_general_frozen_values(self):
        # K=1, rho0 = 1, alpha=1, |u0| intersection norm 0.5
        norms = InitialNorms(u_besov1=0.25, u_l2=0.25, rho_besov1=0.0)
        report = smallness_gamma0_general(norms, alpha=1.0, params=SmallnessParams(K=1.0))
        assert report.lhs[0] == pytest.approx(math.e * 0.5, rel=1e-12)
        assert report.lhs[1] == pytest.approx(math.e * 0.25, rel=1e-12)
        assert (report.lhs[0], report.lhs[1]) == pytest.approx((1.359, 0.680), abs=1e-3)
        assert report.satisfied

    def test_gamma1_2d_frozen_value(self):
        # K=1, alpha=1, |u0| = 1, |rho0-1| = 0.01, eta = 5.01
        norms = InitialNorms(u_besov1=0.5, u_l2=0.5, rho_besov1=0.01)
        report = smallness_gamma1_2d(norms, alpha=1.0, params=SmallnessParams(K=1.0, eta_2d=5.01))
        expected = 0.01 * (1.0 + 0.01**5.01) * 1.0 * (math.exp(2.0) * math.exp(math.e))
        assert report.lhs[0] == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(1.1195, abs=5e-4)
        assert report.satisfied

    def test_gamma1_2d_uniform_density_always_satisfied(self):
        norms = InitialNorms(u_besov1=50.0, u_l2=50.0, rho_besov1=0.0)
        report = smallness_gamma1_2d(norms, alpha=0.1)
        assert report.lhs[0] == 0.0
        assert report.satisfied

    def test_gamma1_2d_overflow_reports_infinite(self):
        norms = InitialNorms(u_besov1=5.0, u_l2=5.0, rho_besov1=1.0)
        report = smallness_gamma1_2d(norms, alpha=0.1)
        assert math.isinf(report.lhs[0])
        assert not report.satisfied

    def test_monotone_in_velocity_norm(self):
        lhs = [
            smallness_gamma1_general(
                InitialNorms(u_besov1=u, u_l2=u, rho_besov1=0.1), alpha=1.0
            ).lhs[0]
            for u in (0.1, 0.2, 0.4)
        ]
        assert lhs[0] < lhs[1] < lhs[2]

    def test_monotone_in_density_norm(self):
        for evaluator in (smallness_gamma1_general, smallness_gamma0_general, smallness_gamma1_2d):
            lhs = [
                evaluator(InitialNorms(u_besov1=0.3, u_l2=0.3, rho_besov1=r), alpha=1.0).lhs[0]
                for r in (0.1, 0.2, 0.4)
            ]
            assert lhs[0] < lhs[1] < lhs[2], evaluator.__name__

    def test_antimonotone_in_alpha(self):
        for evaluator in (smallness_gamma1_general, smallness_gamma0_general, smallness_gamma1_2d):
            lhs = [
                evaluator(
                    InitialNorms(u_besov1=0.3, u_l2=0.3, rho_besov1=0.2), alpha=a
                ).lhs[0]
                for a in (0.5, 1.0, 2.0)
            ]
            assert lhs[0] > lhs[1] > lhs[2], evaluator.__name__

    def test_alpha_must_be_positive(self):
        norms = InitialNorms(u_besov1=0.1, u_l2=0.1, rho_besov1=0.0)
        for evaluator in (smallness_gamma1_general, smallness_gamma0_general, smallness_gamma1_2d):
            with pytest.raises(ValueError):
                evaluator(norms, alpha=0.0)

    def test_planar_eta_guard(self):
        norms = InitialNorms(u_besov1=0.1, u_l2=0.1, rho_besov1=0.1)
        with pytest.raises(ValueError):
            smallness_gamma1_2d(norms, alpha=1.0, params=SmallnessParams(eta_2d=5.0))


class TestBeta0:
    def test_frozen_value(self):
        # alpha=1, rho*=1, s=2, d=2, delta=0.01 -> 1/4.01
        assert beta0(1.0, 1.0, 2.0, 2, 0.01) == pytest.approx(1.0 / 4.01, rel=1e-12)
        assert beta0(1.0, 1.0, 2.0, 2, 0.01) == pytest.approx(0.24938, abs=1e-5)

    def test_decreasing_in_density_ceiling(self):
        rates = [beta0(1.0, r, 2.0) for r in (1.0, 2.0, 4.0)]
        assert rates[0] > rates[1] > rates[2]

    @given(
        alpha=st.floats(min_value=1e-3, max_value=10.0),
        rho_upper=st.floats(min_value=0.1, max_value=10.0),
        s=st.floats(min_value=1.0, max_value=6.0),
        delta=st.floats(min_value=1e-4, max_value=1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_always_below_base_rate(self, alpha, rho_upper, s, delta):
        rate = beta0(alpha, rho_upper, s, 2, delta)
        assert 0.0 < rate < alpha / rho_upper

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            beta0(0.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            beta0(1.0, 1.0, 0.5)


class TestSatisfiedConditionRunBehavior:
    def test_planar_condition_run_decays_as_predicted(self):
        # a run whose planar condition holds must show a bounded compensated
        # velocity norm, pressure-gradient decay at about twice the damping
        # rate, and geometrically shrinking continuation increments
        from dampedeuler.cli import condition_reports, governing_report
        from dampedeuler.dynamics import ICRecipe, SimConfig, run_simulation
        from dampedeuler.fields import GridSpec

        cfg = SimConfig(
            alpha=1.0, gamma=1, grid=GridSpec(n=64), dt=5e-3, t_end=2.5,
            ic=ICRecipe(
                u_params={"amplitude": 0.25},
                rho_preset="single_mode", rho_params={"k": 1, "amplitude": 0.05},
            ),
            record_every=10,
        )
        governing = governing_report(condition_reports(cfg, SmallnessParams()), cfg.gamma)
        assert governing.satisfied

        res = run_simulation(cfg)
        assert not res.failed
        window = [r for r in res.records if r.t >= 0.5]
        compensated = [math.exp(cfg.alpha * r.t) * r.besov_u[0] for r in window]
        assert max(compensated) / min(compensated) <= 3.0

        fit = fit_decay_rate([(r.t, r.besov_grad_pi[0]) for r in res.records])
        assert abs(fit.rate - 2.0 * cfg.alpha) <= 0.2 * 2.0 * cfg.alpha

        _, increments = bkm_report(res.records)
        assert bkm_tail_geometric(increments)


class _Row:
    """Minimal record stub for report-level functions."""

    def __init__(self, t, grad_u_inf=0.0, bkm_running=0.0, energy=0.0, l2_u=0.0):
        self.t = t
        self.grad_u_inf = grad_u_inf
        self.bkm_running = bkm_running
        self.energy = energy
        self.l2_u = l2_u


class TestBkmReport:
    def test_damped_vortex_integral_approaches_closed_form(self):
        # |grad u(t)|_inf = e^{-alpha t} |grad u0|_inf for the cellular
        # vortex, so the full-line integral is 2 |grad u0|_inf at alpha = 1/2;
        # by t = 10 the tail plus trapezoid error is under one percent
        from dampedeuler.dynamics import ICRecipe, SimConfig, run_simulation
        from dampedeuler.fields import GridSpec

        cfg = SimConfig(alpha=0.5, gamma=1, grid=GridSpec(n=32), dt=5e-3,
                        t_end=10.0, ic=ICRecipe(), record_every=10)
        res = run_simulation(cfg)
        integral, increments = bkm_report(res.records)
        closed_form = 2.0 * res.records[0].grad_u_inf
        assert abs(integral - closed_form) / closed_form <= 0.01
        assert all(i >= 0.0 for i in increments)
        assert bkm_tail_geometric(increments)

    def test_zero_run(self):
        rows = [_Row(t, 0.0, 0.0) for t in np.linspace(0, 1, 6)]
        integral, increments = bkm_report(rows)
        assert integral == 0.0
        assert all(i == 0.0 for i in increments)

    def test_increments_nonnegative_and_consistent(self):
        ts = np.linspace(0.0, 2.0, 21)
        running = np.cumsum(np.full(len(ts), 0.1))
        rows = [_Row(t, 1.0, r) for t, r in zip(ts, running)]
        integral, increments = bkm_report(rows)
        assert integral == pytest.approx(running[-1])
        assert all(i >= 0.0 for i in increments)

    def test_tail_verdict(self):
        decaying = [1.0 * 0.5**k for k in range(10)]
        growing = [1.0 * 1.5**k for k in range(10)]
        assert bkm_tail_geometric(decaying)
        assert not bkm_tail_geometric(growing)

    def test_needs_two_records(self):
        with pytest.raises(ValueError):
            bkm_report([_Row(0.0)])


class TestEnergyBalanceResidual:
    def test_zero_field(self):
        rows = [_Row(t, energy=0.0, l2_u=0.0) for t in np.linspace(0, 1, 5)]
        assert energy_balance_residual(rows, gamma=0, alpha=1.0) == 0.0

    def test_exact_exponential_balance(self):
        # gamma=1 with uniform unit density: E' = -2 alpha E exactly; the
        # only residual is the centered-difference truncation
        alpha, dt = 0.5, 1e-3
        ts = np.arange(0, 1001) * dt
        rows = [_Row(t, energy=0.25 * math.exp(-2 * alpha * t), l2_u=0.0) for t in ts]
        resid = energy_balance_residual(rows, gamma=1, alpha=alpha)
        assert resid <= 1e-6

    def test_rejects_nonuniform_spacing(self):
        rows = [_Row(t, energy=1.0) for t in (0.0, 0.1, 0.3)]
        with pytest.raises(ValueError):
            energy_balance_residual(rows, gamma=0, alpha=1.0)

    def test_needs_three_records(self):
        rows = [_Row(0.0, energy=1.0), _Row(0.1, energy=1.0)]
        with pytest.raises(ValueError):
            energy_balance_residual(rows, gamma=0, alpha=1.0)


class TestRecordTransformCount:
    """2-D real transforms in one _Stepper.record of the t = 0 state after
    its first stage, on either lattice (conftest.count_transforms): the
    Besov norms of all tracked indices of u and grad Pi share one set of
    blocks. These are the counts of the current design; lower them when a
    change saves transforms."""

    TG_N256 = {
        "physics": {"alpha": 0.5, "gamma": 1},
        "grid": {"n": 256},
        "time": {"dt": 1e-3, "t_end": 0.04, "record_every": 40},
    }
    DENSE_N128 = {
        "grid": {"n": 128},
        "time": {"dt": 5e-3, "t_end": 0.15, "record_every": 1},
        "ic": {
            "u_preset": "random_shell",
            "u_params": {"j": 2, "amplitude": 0.25},
            "rho_preset": "single_mode",
            "rho_params": {"k": 1, "amplitude": 0.05},
        },
        "track": {"besov_indices": [[1, "inf", 1], [0, 2, 2], [2, 2, 1],
                                    [0.5, "inf", "inf"], [1, 2, 1], [1.5, "inf", 1]]},
    }

    @pytest.mark.parametrize("doc, expected", [(TG_N256, 45), (DENSE_N128, 40)],
                             ids=["tg_uniform_n256", "records_dense_n128"])
    def test_transforms_per_record(self, monkeypatch, doc, expected):
        config = build_sim_config(resolve_config(doc))
        stepper = _Stepper(config, initial_state(config))
        stepper.tendency()
        bank = build_filter_bank(config.grid)
        assert count_transforms(monkeypatch, lambda: stepper.record(bank, None)) == expected


class TestRecordAllocations:
    """A record of a run works in its stepper's workspace, on the state that
    the stepper holds, and allocates nothing of the grid's size: at n = 128
    its peak is about 0.38 half spectra. Multiplying and transforming every
    column of each block took it to about one, the velocity magnitude's
    squares and a fresh half-lattice pass over rho - 1 to about five, and a
    pass over fields of blocks to about eight."""

    def test_peak_is_a_few_half_spectra(self):
        config = build_sim_config(resolve_config(TestRecordTransformCount.DENSE_N128))
        stepper = _Stepper(config, initial_state(config))
        bank = build_filter_bank(config.grid)
        stepper.record(bank, None)  # the workspace's buffers are built
        stepper.step()
        stepper.tendency()
        assert traced_peak(lambda: stepper.record(bank, None)) <= 0.5 * 128 * 65 * 16
