import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dampedeuler.fields import (
    GridSpec,
    ParameterError,
    ScalarField,
    VectorField,
    _half_tables,
    advect,
    apply_multiplier,
    curl2d,
    dealias,
    divergence,
    gradient,
    hermitian_defect,
    leray_project,
    lp_norm,
    perp_gradient,
    tables,
)

from conftest import (
    fd_gradient,
    fd_gradient6,
    low_band_field,
    random_band_limited,
    random_band_limited_vector,
)


class TestGridSpec:
    def test_k_max_at_default_dealias(self):
        assert GridSpec(n=64).k_max == 21
        assert GridSpec(n=128).k_max == 42

    @pytest.mark.parametrize("n", [7, 12, 100, 4])
    def test_rejects_non_power_of_two(self, n):
        with pytest.raises(ValueError):
            GridSpec(n=n)

    def test_rejects_tiny_cutoff(self):
        with pytest.raises(ValueError):
            GridSpec(n=8, dealias_fraction=0.3)

    @pytest.mark.parametrize("length", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_length(self, length):
        with pytest.raises(ParameterError, match="^length: "):
            GridSpec(n=16, length=length)


class TestTransforms:
    def test_round_trip(self, grid64):
        rng = np.random.default_rng(0)
        values = rng.standard_normal(grid64.shape)
        f = ScalarField.from_values(grid64, values)
        back = ScalarField.from_spectrum(grid64, f.spectrum)
        assert np.abs(back.values - values).max() <= 1e-12 * np.abs(values).max()

    @pytest.mark.parametrize("shape, dtype, held", [
        ((16, 16), float, lambda g, a: ScalarField.from_values(g, a).values),
        ((16, 9), complex, lambda g, a: ScalarField.from_spectrum(g, a).spectrum),
        ((16, 16), float, lambda g, a: VectorField.from_arrays(g, a, a).components[0].values),
    ], ids=["from_values", "from_spectrum", "from_arrays"])
    def test_caller_array_stays_writeable(self, grid16, shape, dtype, held):
        a = np.zeros(shape, dtype)
        field_array = held(grid16, a)
        a[0, 0] = 1.0
        assert field_array[0, 0] == 0.0

    def test_spectrum_on_half_lattice(self, grid64):
        values = np.random.default_rng(2).standard_normal(grid64.shape)
        assert ScalarField.from_values(grid64, values).spectrum.shape == (64, 33)
        full = ScalarField.from_spectrum(grid64, np.fft.fftn(values))
        assert np.abs(full.values - values).max() <= 1e-12 * np.abs(values).max()
        with pytest.raises(ValueError):
            ScalarField.from_spectrum(grid64, np.zeros((64, 32), dtype=complex))

    @pytest.mark.parametrize("grid", [
        GridSpec(n=8, dealias_fraction=0.5),
        GridSpec(n=64),
        GridSpec(n=16, length=3.0),
    ], ids=["n8_half", "n64", "n16_length3"])
    def test_half_tables_are_the_first_columns_of_the_full_tables(self, grid):
        half, full = _half_tables(grid), tables(grid)
        for name, h, f in zip(half._fields, half, full):
            assert np.array_equal(h, f[:, : grid.n // 2 + 1]), name

    def test_multiplier_must_be_on_the_half_lattice(self, grid16):
        f = ScalarField.constant(grid16, 1.0)
        assert apply_multiplier(f, np.ones((16, 9))).mean() == 1.0
        with pytest.raises(ValueError, match="half lattice"):
            apply_multiplier(f, np.ones((16, 16)))

    def test_spectrum_hermitian(self, grid64):
        rng = np.random.default_rng(1)
        f = random_band_limited(grid64, rng)
        assert hermitian_defect(f) <= 1e-13
        assert hermitian_defect(gradient(f).components[0]) <= 1e-13

    @pytest.mark.parametrize("column", [0, -1])
    def test_broken_self_conjugate_column_detected(self, grid64, column):
        # columns k_y = 0 and k_y = n/2 must equal their own conjugate mirror
        spec = random_band_limited(grid64, np.random.default_rng(1)).spectrum.copy()
        spec[1, column] += 0.01 * np.abs(spec).max()
        assert hermitian_defect(ScalarField.from_spectrum(grid64, spec)) > 1e-3

    def test_fields_immutable(self, grid64):
        f = ScalarField.constant(grid64, 2.0)
        with pytest.raises(ValueError):
            f.values[0, 0] = 3.0


class TestGradient:
    def test_constant_gives_zero(self, grid64):
        g = gradient(ScalarField.constant(grid64, 3.0))
        assert lp_norm(g, math.inf) <= 1e-14

    def test_single_mode_exact(self, grid64):
        x, _ = grid64.nodes()
        g = gradient(ScalarField.from_values(grid64, np.sin(x)))
        assert np.abs(g.components[0].values - np.cos(x)).max() <= 1e-13
        assert np.abs(g.components[1].values).max() <= 1e-13

    def test_against_finite_differences(self):
        grid = GridSpec(n=256)
        x, y = grid.nodes()
        f = ScalarField.from_values(grid, np.sin(2 * x) * np.cos(3 * y))
        g = gradient(f)
        for axis in range(2):
            oracle = fd_gradient6(f.values, grid.length, axis)
            assert np.abs(g.components[axis].values - oracle).max() <= 1e-6

    def test_fd_error_is_fourth_order(self):
        # halving h must shrink the FD-vs-spectral gap by about 2^4
        errs = []
        for n in (64, 128):
            grid = GridSpec(n=n)
            x, y = grid.nodes()
            f = ScalarField.from_values(grid, np.exp(np.sin(x) + np.cos(y)))
            spectral = gradient(f).components[0].values
            fd = fd_gradient(f.values, grid.length, 0)
            errs.append(np.abs(spectral - fd).max())
        assert 8.0 <= errs[0] / errs[1] <= 32.0


class TestDivergence:
    def test_orthogonal_modes(self, grid64):
        x, y = grid64.nodes()
        v = VectorField.from_arrays(grid64, np.cos(y), np.sin(x))
        assert lp_norm(divergence(v), math.inf) <= 1e-13

    def test_div_grad_is_laplacian(self, grid64):
        x, _ = grid64.nodes()
        f = ScalarField.from_values(grid64, np.sin(x))
        lap = divergence(gradient(f))
        assert np.abs(lap.values + np.sin(x)).max() <= 1e-12

    def test_against_finite_differences(self):
        grid = GridSpec(n=256)
        rng = np.random.default_rng(7)
        v = VectorField((low_band_field(grid, rng), low_band_field(grid, rng)))
        oracle = fd_gradient6(v.components[0].values, grid.length, 0) + fd_gradient6(
            v.components[1].values, grid.length, 1
        )
        assert np.abs(divergence(v).values - oracle).max() <= 1e-6


class TestCurl:
    def test_single_mode(self, grid64):
        x, y = grid64.nodes()
        v = VectorField.from_arrays(grid64, np.cos(y), np.zeros(grid64.shape))
        assert np.abs(curl2d(v).values - np.sin(y)).max() <= 1e-13

    def test_cellular_vortex(self, grid64):
        # symbolic oracle: d_x(-cos x sin y) - d_y(sin x cos y)
        #   = sin x sin y + sin x sin y = 2 sin x sin y
        x, y = grid64.nodes()
        v = VectorField.from_arrays(
            grid64, np.sin(x) * np.cos(y), -np.cos(x) * np.sin(y)
        )
        assert np.abs(curl2d(v).values - 2.0 * np.sin(x) * np.sin(y)).max() <= 1e-12

    def test_curl_of_gradient_vanishes(self, grid64):
        rng = np.random.default_rng(3)
        f = random_band_limited(grid64, rng)
        assert lp_norm(curl2d(gradient(f)), math.inf) <= 1e-12 * lp_norm(f, math.inf)


class TestPerpGradient:
    def test_constant(self, grid64):
        assert lp_norm(perp_gradient(ScalarField.constant(grid64, 5.0)), math.inf) <= 1e-14

    def test_single_mode(self, grid64):
        x, _ = grid64.nodes()
        g = perp_gradient(ScalarField.from_values(grid64, np.sin(x)))
        assert np.abs(g.components[0].values).max() <= 1e-13
        assert np.abs(g.components[1].values - np.cos(x)).max() <= 1e-13

    def test_divergence_free(self, grid64):
        rng = np.random.default_rng(4)
        f = random_band_limited(grid64, rng)
        g = perp_gradient(f)
        assert lp_norm(divergence(g), 2) <= 1e-12 * lp_norm(g, 2)


class TestLerayProjection:
    def test_fixes_divergence_free_fields(self, grid64):
        rng = np.random.default_rng(5)
        v = perp_gradient(random_band_limited(grid64, rng))
        pv = leray_project(v)
        err = max(
            np.abs(a.values - b.values).max()
            for a, b in zip(v.components, pv.components)
        )
        assert err <= 1e-12 * lp_norm(v, math.inf)

    def test_kills_gradients(self, grid64):
        rng = np.random.default_rng(6)
        f = random_band_limited(grid64, rng)
        f = f - ScalarField.constant(grid64, f.mean())
        assert lp_norm(leray_project(gradient(f)), 2) <= 1e-12 * lp_norm(gradient(f), 2)

    def test_idempotent(self, grid64):
        rng = np.random.default_rng(7)
        v = random_band_limited_vector(grid64, rng)
        pv = leray_project(v)
        ppv = leray_project(pv)
        err = max(
            np.abs(a.values - b.values).max()
            for a, b in zip(pv.components, ppv.components)
        )
        assert err <= 1e-12 * lp_norm(pv, math.inf)

    def test_output_divergence_over_many_fields(self, grid64):
        rng = np.random.default_rng(8)
        for _ in range(100):
            v = random_band_limited_vector(grid64, rng)
            pv = leray_project(v)
            assert lp_norm(divergence(pv), 2) <= 1e-12 * lp_norm(pv, 2)


class TestLpNorm:
    @pytest.mark.parametrize("p", [1, 2, 3.5, math.inf])
    def test_constant(self, grid64, p):
        assert lp_norm(ScalarField.constant(grid64, -2.5), p) == pytest.approx(2.5, abs=1e-14)

    def test_sine_l2(self, grid64):
        x, _ = grid64.nodes()
        f = ScalarField.from_values(grid64, np.sin(x))
        assert lp_norm(f, 2) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-14)

    def test_sine_sup(self, grid64):
        # pi/2 is a grid node at n = 64, so the max is exact
        x, _ = grid64.nodes()
        f = ScalarField.from_values(grid64, np.sin(x))
        assert lp_norm(f, math.inf) >= 0.9988
        assert lp_norm(f, math.inf) == pytest.approx(1.0, abs=1e-14)

    def test_rejects_p_below_one(self, grid64):
        with pytest.raises(ValueError):
            lp_norm(ScalarField.constant(grid64, 1.0), 0.5)

    def test_rejects_nan_p(self, grid64):
        # unchecked, a NaN p gives 1.0 on a constant field and NaN on others
        x, _ = grid64.nodes()
        for values in (np.ones(grid64.shape), np.sin(x)):
            with pytest.raises(ValueError, match="p must be >= 1"):
                lp_norm(ScalarField.from_values(grid64, values), math.nan)

    def test_vector_parseval_matches_values_path(self, grid64):
        rng = np.random.default_rng(9)
        v = random_band_limited_vector(grid64, rng)
        spectral_only = VectorField(
            tuple(ScalarField.from_spectrum(grid64, c.spectrum) for c in v.components)
        )
        assert lp_norm(spectral_only, 2) == pytest.approx(
            math.sqrt(np.mean(v.magnitude() ** 2)), rel=1e-12
        )


class TestAdvect:
    def test_zero_velocity(self, grid64):
        rng = np.random.default_rng(10)
        f = random_band_limited(grid64, rng)
        assert lp_norm(advect(VectorField.zero(grid64), f), math.inf) == 0.0

    def test_constant_scalar(self, grid64):
        rng = np.random.default_rng(11)
        u = random_band_limited_vector(grid64, rng)
        assert lp_norm(advect(u, ScalarField.constant(grid64, 4.0)), math.inf) <= 1e-13

    def test_unit_translation(self, grid64):
        x, _ = grid64.nodes()
        u = VectorField.from_arrays(grid64, np.ones(grid64.shape), np.zeros(grid64.shape))
        out = advect(u, ScalarField.from_values(grid64, np.sin(x)))
        assert np.abs(out.values - np.cos(x)).max() <= 1e-13


class TestDealias:
    def test_band_limited_unchanged(self, grid64):
        rng = np.random.default_rng(12)
        f = random_band_limited(grid64, rng)
        assert np.abs(dealias(f).values - f.values).max() <= 1e-14 * lp_norm(f, math.inf)

    def test_high_mode_removed(self, grid64):
        x, _ = grid64.nodes()
        k_high = grid64.k_max + 3
        f = ScalarField.from_values(grid64, np.cos(k_high * x))
        assert lp_norm(dealias(f), math.inf) <= 1e-13

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_idempotent(self, seed):
        grid = GridSpec(n=16)
        rng = np.random.default_rng(seed)
        f = ScalarField.from_values(grid, rng.standard_normal(grid.shape))
        once = dealias(f)
        twice = dealias(once)
        assert np.abs(once.values - twice.values).max() <= 1e-14
