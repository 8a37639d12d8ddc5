import json
import math
from dataclasses import replace

import numpy as np
import pytest

from dampedeuler import cli, dynamics, elliptic
from dampedeuler.config import build_sim_config, resolve_config
from dampedeuler.elliptic import (
    CONCUS_GOLUB_CONTRAST,
    CoefficientBounds,
    PressureSolveError,
    PressureSolveParams,
    besov_pressure_ratio,
    coefficient_bounds,
    lax_milgram_check,
    operator_residual,
    preconditioner,
    solve_pressure,
)
from dampedeuler.fields import (
    GridSpec,
    ScalarField,
    VectorField,
    _half_tables,
    _parseval_dot,
    _parseval_l2,
    dealias,
    divergence,
    gradient,
    hermitian_defect,
    leray_project,
    lp_norm,
    scale_vector,
)
from dampedeuler.littlewood_paley import build_filter_bank
from dampedeuler.verify import check_dense_elliptic_oracle, random_dealiased_field

from conftest import bump_run_doc, random_band_limited, random_band_limited_vector


def cosine_density(grid, amplitude=0.2):
    x, _ = grid.nodes()
    return dealias(ScalarField.from_values(grid, 1.0 + amplitude * np.cos(x)))


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            PressureSolveParams(tol=0.0)
        with pytest.raises(ValueError):
            PressureSolveParams(max_iter=0)

    def test_coefficient_bounds(self, grid64):
        rho = cosine_density(grid64, 0.2)
        b = coefficient_bounds(rho)
        assert b.a_star == pytest.approx(1.0 / 1.2, rel=1e-9)
        assert b.a_upper == pytest.approx(1.0 / 0.8, rel=1e-9)
        with pytest.raises(ValueError):
            CoefficientBounds(a_star=0.0, a_upper=1.0)

    def test_rejects_vacuum(self, grid64):
        rho = ScalarField.constant(grid64, -1.0)
        F = VectorField.zero(grid64)
        with pytest.raises(ValueError):
            solve_pressure(rho, F)

    def test_nan_forcing_fails_before_iterating(self, grid64):
        rng = np.random.default_rng(0)
        fx, fy = random_band_limited_vector(grid64, rng).components
        vx = fx.values.copy()
        vx[4, 4] = np.nan
        F = VectorField((ScalarField.from_values(grid64, vx), fy))
        with pytest.raises(PressureSolveError, match="not finite") as info:
            solve_pressure(cosine_density(grid64, 0.2), F)
        assert info.value.iterations <= 1


class TestHomogeneousCases:
    def test_divergence_free_forcing(self, grid64):
        rng = np.random.default_rng(0)
        F = leray_project(random_band_limited_vector(grid64, rng))
        sol = solve_pressure(ScalarField.constant(grid64, 1.0), F)
        assert sol.iterations == 1
        assert lp_norm(sol.grad_pi, 2) == 0.0

    def test_gradient_forcing_inverts_exactly(self, grid64):
        rng = np.random.default_rng(1)
        g = random_band_limited(grid64, rng)
        g = g - ScalarField.constant(grid64, g.mean())
        sol = solve_pressure(ScalarField.constant(grid64, 1.0), gradient(g))
        assert sol.iterations == 1
        assert lp_norm(sol.pi + g, math.inf) <= 1e-10 * lp_norm(g, math.inf)

    def test_constant_density_is_one_diagonal_evaluation(self, grid64, monkeypatch):
        # the solve's first evaluation, with the constant coefficient a_star,
        # cold or warm; rho holds samples and F spectra, so no transform is due
        rng = np.random.default_rng(15)

        def spectral_field():
            return ScalarField.from_spectrum(grid64, random_dealiased_field(grid64, rng).spectrum)

        rho = ScalarField.constant(grid64, 2.5)
        F, guess = VectorField((spectral_field(), spectral_field())), spectral_field()
        for name in ("rfftn", "irfftn"):
            def refuse(*args, _name=name, **kwargs):
                raise AssertionError(f"{_name} called")

            monkeypatch.setattr(np.fft, name, refuse)
        a_star = coefficient_bounds(rho).a_star
        for initial_guess in (None, guess):
            sol = solve_pressure(rho, F, initial_guess=initial_guess)
            assert sol.iterations == 1
            expected = gradient(sol.pi) * a_star
            for got, want in zip(sol.accel.components, expected.components):
                assert np.all(got.spectrum == want.spectrum)


class TestVariableCoefficient:
    def test_matches_dense_direct_solve(self):
        result = check_dense_elliptic_oracle(16)
        assert result.passed, result.detail

    @pytest.mark.parametrize("contrast", [10.0, 100.0, 1000.0])
    def test_matches_dense_direct_solve_at_high_contrast(self, contrast):
        result = check_dense_elliptic_oracle(16, contrast=contrast)
        assert result.passed, result.detail

    @pytest.mark.parametrize("contrast", [4.0, 100.0])
    def test_reports_the_true_residual_and_flux(self, contrast):
        # the residual and the flux are updated recursively in the solve; they
        # must agree with a fresh evaluation of the operator on the answer
        grid = GridSpec(n=64)
        rng = np.random.default_rng(12)
        F = VectorField((random_dealiased_field(grid, rng), random_dealiased_field(grid, rng)))
        rho = dynamics.rho_gaussian_bump(grid, amplitude=contrast - 1.0)
        sol = solve_pressure(rho, F)
        t = _half_tables(grid)
        rhs_hat = divergence(F).spectrum * t.dealias_mask
        res_hat, *flux = operator_residual(1.0 / rho.values, sol.pi.spectrum, rhs_hat, grid)
        true_residual = _parseval_l2(res_hat) / _parseval_l2(rhs_hat)
        assert max(sol.residual, true_residual) <= PressureSolveParams().tol
        assert sol.residual == pytest.approx(true_residual, rel=1e-3)
        flux = VectorField(ScalarField.from_spectrum(grid, f) for f in flux)
        assert lp_norm(sol.accel - flux, math.inf) <= 1e-13 * lp_norm(flux, math.inf)

    def test_residual_monotone_for_moderate_contrast(self, grid64):
        rng = np.random.default_rng(2)
        rho = cosine_density(grid64, 0.2)  # contrast 1.5
        F = random_band_limited_vector(grid64, rng)
        sol = solve_pressure(rho, F)
        hist = sol.residual_history
        assert all(b <= a * (1.0 + 1e-12) for a, b in zip(hist, hist[1:]))
        assert sol.iterations <= 50

    def test_solution_invariant_under_constant_forcing_shift(self, grid64):
        rng = np.random.default_rng(3)
        rho = cosine_density(grid64, 0.2)
        F = random_band_limited_vector(grid64, rng)
        shifted = VectorField(
            (
                F.components[0] + ScalarField.constant(grid64, 0.8),
                F.components[1] - ScalarField.constant(grid64, 0.4),
            )
        )
        a = solve_pressure(rho, F)
        b = solve_pressure(rho, shifted)
        assert lp_norm(a.pi - b.pi, math.inf) <= 1e-9 * max(lp_norm(a.pi, math.inf), 1e-30)

    def test_warm_start_reaches_same_answer(self, grid64):
        rng = np.random.default_rng(4)
        rho = cosine_density(grid64, 0.2)
        F = random_band_limited_vector(grid64, rng)
        cold = solve_pressure(rho, F)
        warm = solve_pressure(rho, F, initial_guess=cold.pi)
        assert warm.iterations <= 2
        assert lp_norm(warm.pi - cold.pi, math.inf) <= 1e-9 * lp_norm(cold.pi, math.inf)

    def test_warm_start_drops_the_invisible_part_of_the_guess(self, grid64):
        # 5j at rows 3 and -3 of column k_y = 0 is anti-Hermitian there: the
        # inverse transform cannot see it, so it must not reach the potential
        rng = np.random.default_rng(0)
        F = VectorField((random_dealiased_field(grid64, rng), random_dealiased_field(grid64, rng)))
        rho = dynamics.rho_gaussian_bump(grid64, amplitude=3.0)  # contrast 4
        cold = solve_pressure(rho, F)
        spectrum = cold.pi.spectrum.copy()
        spectrum[[3, -3], 0] += 5j
        warm = solve_pressure(rho, F, initial_guess=ScalarField.from_spectrum(grid64, spectrum))
        assert hermitian_defect(warm.pi) <= 1e-15
        samples = ScalarField.from_values(grid64, warm.pi.values)
        assert lp_norm(gradient(warm.pi), 2) == pytest.approx(lp_norm(gradient(samples), 2), rel=1e-12)
        assert lp_norm(warm.pi - cold.pi, math.inf) <= 1e-9 * lp_norm(cold.pi, math.inf)

    @pytest.mark.parametrize("amplitude", [0.0, 0.2])
    def test_accel_is_the_dealiased_flux(self, grid64, amplitude):
        rng = np.random.default_rng(11)
        rho = cosine_density(grid64, amplitude)
        sol = solve_pressure(rho, random_band_limited_vector(grid64, rng))
        flux = scale_vector(sol.grad_pi, ScalarField.from_values(grid64, 1.0 / rho.values))
        assert lp_norm(sol.accel - flux, math.inf) <= 1e-14 * lp_norm(flux, math.inf)

    def test_nonconvergence_reports_residual(self, grid64):
        rng = np.random.default_rng(5)
        x, _ = grid64.nodes()
        # contrast 4 with a single Jacobi-type sweep cannot reach 1e-10
        rho = dealias(ScalarField.from_values(grid64, 1.0 + 0.6 * np.cos(x)))
        F = random_band_limited_vector(grid64, rng)
        with pytest.raises(PressureSolveError) as info:
            solve_pressure(rho, F, PressureSolveParams(tol=1e-10, max_iter=1))
        assert info.value.residual > 1e-10
        assert info.value.iterations == 1


class TestPreconditioner:
    def test_contrast(self):
        assert CoefficientBounds(a_star=0.25, a_upper=1.0).contrast == 4.0

    def test_constant_coefficient_path_at_low_contrast(self, grid64):
        # contrast 1.5 and 2.5, below the seed-0 crossover of a run's
        # warm-started solves (module docstring)
        for amplitude, contrast in ((0.2, 1.5), (3.0 / 7.0, 2.5)):
            rho = cosine_density(grid64, amplitude)
            bounds = coefficient_bounds(rho)
            assert bounds.contrast == pytest.approx(contrast, rel=1e-12)
            r_hat = random_dealiased_field(grid64, np.random.default_rng(14)).spectrum
            expected = r_hat * _half_tables(grid64).inv_neg_lap / bounds.midpoint
            assert np.array_equal(preconditioner(rho, bounds)(r_hat), expected)

    def test_uniform_is_exact(self, grid64):
        # an exact test with no tolerance, as in dynamics._Stepper
        x, _ = grid64.nodes()
        near = ScalarField.from_values(grid64, 1.0 + 1e-15 * np.cos(x))
        assert not coefficient_bounds(near).uniform
        assert coefficient_bounds(ScalarField.constant(grid64, 1.3)).uniform

    def test_adjacent_doubles_with_equal_reciprocals_are_not_uniform(self, grid64):
        # uniform reads the density samples, as dynamics._Stepper does:
        # a_star == a_upper would call this density constant
        lo = 1.5000000000000002
        hi = np.nextafter(lo, 2.0)
        assert 1.0 / lo == 1.0 / hi
        values = np.full(grid64.shape, lo)
        values[5, 9] = hi
        assert not coefficient_bounds(ScalarField.from_values(grid64, values)).uniform

    def test_concus_golub_is_self_adjoint_and_positive(self, grid64):
        rho = cosine_density(grid64, 9.0 / 11.0)  # contrast 10
        bounds = coefficient_bounds(rho)
        assert bounds.contrast > CONCUS_GOLUB_CONTRAST
        precondition = preconditioner(rho, bounds)
        rng = np.random.default_rng(13)

        def residual():  # dealiased and mean-zero, like the solve's residuals
            r_hat = random_dealiased_field(grid64, rng).spectrum.copy()
            r_hat[0, 0] = 0.0
            return r_hat

        for _ in range(5):
            r1, r2 = residual(), residual()
            m1, m2 = precondition(r1), precondition(r2)
            scale = math.sqrt(_parseval_dot(m1, m1) * _parseval_dot(r2, r2))
            assert abs(_parseval_dot(m1, r2) - _parseval_dot(r1, m2)) <= 1e-14 * scale
            assert _parseval_dot(m1, r1) > 0.0


class TestLaxMilgram:
    def test_zero_for_divergence_free(self, grid64):
        rng = np.random.default_rng(6)
        F = leray_project(random_band_limited_vector(grid64, rng))
        rho = ScalarField.constant(grid64, 1.0)
        sol = solve_pressure(rho, F)
        assert lax_milgram_check(rho, F, sol.grad_pi) == 0.0

    def test_equality_for_pure_gradient(self, grid64):
        rng = np.random.default_rng(7)
        g = random_band_limited(grid64, rng)
        g = g - ScalarField.constant(grid64, g.mean())
        rho = ScalarField.constant(grid64, 1.0)
        F = gradient(g)
        sol = solve_pressure(rho, F)
        assert lax_milgram_check(rho, F, sol.grad_pi) == pytest.approx(1.0, abs=1e-9)

    def test_bound_on_random_instances(self, grid64):
        rng = np.random.default_rng(8)
        rho = cosine_density(grid64, 0.2)
        for _ in range(10):
            F = random_band_limited_vector(grid64, rng)
            sol = solve_pressure(rho, F)
            assert lax_milgram_check(rho, F, sol.grad_pi) <= 1.0 + 1e-8

    def test_flags_inconsistent_solution(self, grid64):
        rng = np.random.default_rng(9)
        rho = ScalarField.constant(grid64, 1.0)
        bogus = random_band_limited_vector(grid64, rng)
        with pytest.raises(ValueError):
            lax_milgram_check(rho, VectorField.zero(grid64), bogus)


class TestBesovPressureProbe:
    def test_ratio_finite_and_reported(self, grid64):
        bank = build_filter_bank(grid64)
        rng = np.random.default_rng(10)
        ratios = []
        for _ in range(5):
            rho = cosine_density(grid64, 0.1 + 0.1 * rng.random())
            F = random_band_limited_vector(grid64, rng)
            sol = solve_pressure(rho, F)
            r = besov_pressure_ratio(bank, rho, F, sol.grad_pi)
            assert math.isfinite(r) and r >= 0.0
            ratios.append(r)
        # bounded-ratio probe: report the spread, no sharp constant asserted
        assert max(ratios) < 100.0


def bump_run_config(amplitude):
    """The bump_contrast4_n64 benchmark workload with the given bump
    amplitude, cut to ten steps."""
    return build_sim_config(resolve_config(bump_run_doc(amplitude)))


@pytest.fixture
def solve_counts(monkeypatch):
    """The iteration count of every pressure solve that dynamics makes."""
    counts = []

    def counted(*args, **kwargs):
        sol = solve_pressure(*args, **kwargs)
        counts.append(sol.iterations)
        return sol

    monkeypatch.setattr(dynamics, "solve_pressure", counted)
    return counts


class TestIterationPins:
    """Pressure iterations of the current solver. Lower these pins when a
    solver change lands; never raise them to make a change pass."""

    @pytest.mark.parametrize("contrast, expected", [
        (1.2, 8), (2.0, 14), (4.0, 10), (10.0, 12), (31.0, 17), (100.0, 23), (1000.0, 45),
    ])
    def test_gaussian_bump_solve(self, contrast, expected):
        grid = GridSpec(n=64)
        rng = np.random.default_rng(0)
        F = VectorField((random_dealiased_field(grid, rng), random_dealiased_field(grid, rng)))
        rho = dynamics.rho_gaussian_bump(grid, amplitude=contrast - 1.0)
        assert solve_pressure(rho, F).iterations == expected

    def test_bump_contrast4_run(self, solve_counts):
        # the bump_contrast4_n64 benchmark workload, cut to ten steps
        result = dynamics.run_simulation(bump_run_config(3.0))
        assert not result.failed
        assert (len(solve_counts), sum(solve_counts)) == (41, 110)
        assert result.telemetry == {"pressure": {
            "solves": len(solve_counts), "iterations": sum(solve_counts),
            "max_iterations": max(solve_counts)}}

    def test_record_costs_no_solve(self, solve_counts):
        # the records_dense_n128 benchmark workload, cut to three steps with a
        # record after each: 4 solves per step and one for the final state, as
        # a record takes its grad Pi from the first stage of the state's step
        config = build_sim_config(resolve_config({
            "physics": {"alpha": 1.0, "gamma": 1},
            "grid": {"n": 128},
            "time": {"dt": 5e-3, "t_end": 0.015, "record_every": 1},
            "ic": {
                "u_preset": "random_shell", "u_params": {"j": 2, "amplitude": 0.25},
                "rho_preset": "single_mode", "rho_params": {"k": 1, "amplitude": 0.05},
                "seed": 0,
            },
        }))
        result = dynamics.run_simulation(config)
        assert not result.failed and len(result.records) == 4
        assert (len(solve_counts), sum(solve_counts)) == (13, 55)


class TestWorkingRange:
    """Ten steps of the bump_contrast4_n64 benchmark workload at higher density
    contrast: every pressure solve converges and no invariant aborts the run.
    Each test is named after the contrast of its initial density (after
    dealiasing), which it asserts, so that the name cannot drift."""

    @staticmethod
    def run_bump(amplitude, contrast):
        config = bump_run_config(amplitude)
        bounds = coefficient_bounds(dynamics.initial_state(config).rho)
        assert bounds.contrast == pytest.approx(contrast, rel=1e-2)
        result = dynamics.run_simulation(config)
        assert not result.failed, result.failure
        assert [r.t for r in result.records] == pytest.approx([0.0, 0.02])

    def test_bump_contrast84_run(self, solve_counts):
        self.run_bump(99.0, 84.0)
        assert (len(solve_counts), sum(solve_counts)) == (41, 145)

    def test_bump_contrast341_run(self, solve_counts):
        self.run_bump(999.0, 341.0)
        assert (len(solve_counts), sum(solve_counts)) == (41, 156)


class TestBreakdown:
    """A search direction without positive curvature, which the operator,
    definite on the zero-mean modes of the source, never gives, ends the
    solve with a PressureSolveError that names it: a failed run, and exit
    code 2 from run. Here the operator returns zero after its first
    evaluation."""

    MESSAGE = "pressure solve broke down: curvature <p, Ap> = 0.000e+00 after 1 iterations"

    @pytest.fixture
    def zero_operator(self, monkeypatch):
        evaluations, operator = [], elliptic._operator

        def zero_after_first(*args):
            out = operator(*args)
            if evaluations:
                out.fill(0.0)
            evaluations.append(args)
            return out

        monkeypatch.setattr(elliptic, "_operator", zero_after_first)

    def test_run_fails_naming_the_breakdown(self, zero_operator):
        result = dynamics.run_simulation(bump_run_config(3.0))
        assert result.failure == self.MESSAGE
        assert result.records == []

    def test_cli_run_exits_2_naming_the_breakdown(self, zero_operator, tmp_path):
        config, out = tmp_path / "bump.json", tmp_path / "out"
        config.write_text(json.dumps(bump_run_doc(3.0)))
        assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 2
        assert json.loads((out / "summary.json").read_text())["failure"] == self.MESSAGE


class TestExtrapolatedGuesses:
    def test_potentials_stay_hermitian_over_300_steps(self, monkeypatch):
        # 300 steps of the bump_contrast4_n64 benchmark workload, where each
        # solve starts from an extrapolation of earlier potentials: no
        # potential may gather a part that the inverse transform cannot see.
        # A stepper's solve leaves its potential retained, in the
        # "last_potential" spectrum; it is scattered into a field after each
        # stage
        defects = []
        evaluate = dynamics._Stepper._evaluate

        def checked(stepper, *args):
            evaluate(stepper, *args)
            potential = stepper.work.scatter(stepper.work.spectrum("last_potential"))
            defects.append(hermitian_defect(ScalarField(stepper.config.grid, spectrum=potential)))

        monkeypatch.setattr(dynamics._Stepper, "_evaluate", checked)
        result = dynamics.run_simulation(replace(bump_run_config(3.0), t_end=0.6))
        assert not result.failed, result.failure
        assert len(defects) == 4 * 300 + 1
        assert max(defects) <= 1e-15
