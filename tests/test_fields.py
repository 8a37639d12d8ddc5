import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dampedeuler import fields
from dampedeuler.elliptic import solve_pressure
from dampedeuler.fields import (
    TWO_PI,
    GridSpec,
    ScalarField,
    SpectralTables,
    VectorField,
    Workspace,
    _fftn,
    _half_tables,
    _ifftn_real,
    _parseval_dot,
    _parseval_l2,
    _retained_tables,
    _tables_for,
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
    self_advection,
    tables,
)
from dampedeuler.dynamics import taylor_green
from dampedeuler.littlewood_paley import _block, build_filter_bank
from dampedeuler.verify import random_dealiased_field

from conftest import (
    fd_gradient,
    fd_gradient6,
    low_band_field,
    random_band_limited,
    random_band_limited_vector,
)


class TestGridSpec:
    def test_k_max_at_default_dealias(self):
        assert GridSpec(n=8).k_max == 2
        assert GridSpec(n=64).k_max == 21
        assert GridSpec(n=128).k_max == 42
        assert GridSpec(n=256).k_max == 85

    @pytest.mark.parametrize("n", [7, 12, 100, 4])
    def test_rejects_non_power_of_two(self, n):
        with pytest.raises(ValueError):
            GridSpec(n=n)


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
        GridSpec(n=8),
        GridSpec(n=64),
    ], ids=["n8_half", "n64"])
    def test_half_tables_are_the_first_columns_of_the_full_tables(self, grid):
        n = grid.n
        half, full = _half_tables(grid), tables(grid)
        for name, h, f in zip(half._fields, half, full):
            h, f = np.broadcast_to(h, (n, n // 2 + 1)), np.broadcast_to(f, (n, n))
            assert np.array_equal(h, f[:, : n // 2 + 1]), name

    def test_multiplier_must_be_on_the_half_lattice(self, grid16):
        f = ScalarField.constant(grid16, 1.0)
        for shape in ((16, 9), (16, 1), (1, 9)):
            assert apply_multiplier(f, np.ones(shape)).mean() == 1.0
        v = VectorField.zero(grid16)
        for shape in ((16, 16), (1, 16), (16, 2), (1, 1), (9,), (16,), (1, 16, 9), (16, 9, 1), (2, 16, 9)):
            for field in (f, v):
                with pytest.raises(ValueError, match="half lattice"):
                    apply_multiplier(field, np.ones(shape))

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


def meshgrid_tables(n: int, cols: int) -> SpectralTables:
    """Every table as a 2-D array on columns 0..cols-1 of the (n, n) lattice,
    built with meshgrid as the solver built them before kx, ky, ddx and ddy
    became broadcast factors: the reference of TestBroadcastTables."""
    modes = (np.arange(n) + n // 2) % n - n // 2
    rx, ry = np.meshgrid(modes, modes[:cols], indexing="ij")
    k_mag = np.sqrt(rx**2 + ry**2)
    d1 = modes.astype(float)
    d1[n // 2] = 0.0
    kx, ky = np.meshgrid(d1, d1[:cols], indexing="ij")
    ksq = kx**2 + ky**2
    mx, my = np.meshgrid(np.abs(modes), np.abs(modes[:cols]), indexing="ij")
    dealias_mask = (mx <= n // 3) & (my <= n // 3)
    inv_neg_lap = np.divide(1.0, ksq, out=np.zeros_like(ksq), where=ksq > 0)
    return SpectralTables(kx, ky, k_mag, 1j * kx, 1j * ky, dealias_mask, inv_neg_lap)


SIZES = [8, 16, 32, 64, 128, 256, 512]


class TestBroadcastTables:
    """kx, ky, ddx and ddy are held as factors along the one axis each varies
    on; broadcast, every table and every operator keeps the bits of the 2-D
    meshgrid tables."""

    @pytest.mark.parametrize("n", SIZES)
    def test_tables_broadcast_to_the_reference(self, n):
        for cols in (n // 2 + 1, n):
            factor = {"kx": (n, 1), "ddx": (n, 1), "ky": (1, cols), "ddy": (1, cols)}
            for name, a, ref in zip(SpectralTables._fields, _tables_for(n, cols), meshgrid_tables(n, cols)):
                assert a.shape == factor.get(name, (n, cols)), name
                assert a.dtype == ref.dtype, name
                assert np.broadcast_to(a, (n, cols)).tobytes() == ref.tobytes(), name
                assert not a.flags.writeable, name

    @pytest.mark.parametrize("n", SIZES)
    def test_retained_tables_are_contiguous_with_the_reference_bytes(self, n):
        grid = GridSpec(n=n)
        k = grid.k_max
        rows = np.r_[0 : k + 1, n - k : n]
        for name, a, ref in zip(SpectralTables._fields, _retained_tables(grid),
                                meshgrid_tables(n, n // 2 + 1)):
            assert a.shape == (2 * k + 1, k + 1) and a.flags.c_contiguous, name
            assert a.dtype == ref.dtype, name
            assert a.tobytes() == ref[rows, : k + 1].tobytes(), name

    @pytest.mark.parametrize("n", SIZES)
    def test_operators_give_the_reference_bytes(self, n, monkeypatch):
        grid, rng = GridSpec(n=n), np.random.default_rng(n)
        f, g, h = (random_dealiased_field(grid, rng) for _ in range(3))
        v = VectorField((f, g))
        # contrast 1.5, on the (-abar Lap)^{-1} preconditioner, and 4, on Concus-Golub
        rhos = [ScalarField.from_values(grid, 1.0 + c * (h.values - h.values.min()) / np.ptp(h.values))
                for c in (0.5, 3.0)]

        def spectra():
            out = [*gradient(f).components, *perp_gradient(f).components, curl2d(v),
                   divergence(v), *leray_project(v).components]
            for rho in rhos:
                sol = solve_pressure(rho, v)
                out += [sol.pi, *sol.accel.components]
            return [a.spectrum.tobytes() for a in out]

        held = spectra()
        ref = meshgrid_tables(n, n // 2 + 1)
        fs, gs = f.spectrum, g.spectrum
        direct = [fs * ref.ddx, fs * ref.ddy, fs * -ref.ddy, fs * ref.ddx, ref.ddx * gs - ref.ddy * fs]
        assert held[:5] == [a.tobytes() for a in direct]
        monkeypatch.setattr(fields, "_half_tables", lambda grid: ref)
        assert held == spectra()

    def test_table_bytes_at_n1024(self):
        # _half_tables and tables() at n = 1024, built uncached so that the
        # test keeps no tables alive: 25.60 MiB (97.56 MiB as 2-D arrays)
        n = 1024
        held = sum(a.nbytes for cols in (n // 2 + 1, n) for a in _tables_for.__wrapped__(n, cols))
        assert held <= 26.8 * 2**20


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
            oracle = fd_gradient6(f.values, TWO_PI, axis)
            assert np.abs(g.components[axis].values - oracle).max() <= 1e-6

    def test_fd_error_is_fourth_order(self):
        # halving h must shrink the FD-vs-spectral gap by about 2^4
        errs = []
        for n in (64, 128):
            grid = GridSpec(n=n)
            x, y = grid.nodes()
            f = ScalarField.from_values(grid, np.exp(np.sin(x) + np.cos(y)))
            spectral = gradient(f).components[0].values
            fd = fd_gradient(f.values, TWO_PI, 0)
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
        oracle = fd_gradient6(v.components[0].values, TWO_PI, 0) + fd_gradient6(
            v.components[1].values, TWO_PI, 1
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


class TestSelfAdvection:
    @staticmethod
    def convective(u):
        """(u . grad) u from products of samples of u and of its gradients."""
        ux, uy = (c.values for c in u.components)
        return [
            dealias(ScalarField(u.grid, values=ux * gx.values + uy * gy.values))
            for gx, gy in (gradient(c).components for c in u.components)
        ]

    def test_matches_convective_form_on_solenoidal_fields(self, grid64):
        rng = np.random.default_rng(31)
        for _ in range(3):
            u = leray_project(VectorField(tuple(random_dealiased_field(grid64, rng) for _ in range(2))))
            for flux, conv in zip(self_advection(u).components, self.convective(u)):
                scale = np.abs(conv.values).max()
                assert np.abs(flux.values - conv.values).max() <= 1e-13 * scale

    def test_taylor_green_advection_is_a_gradient(self, grid64):
        # steady Euler flow: (u . grad) u = -grad(p), so its solenoidal part vanishes
        adv = self_advection(taylor_green(grid64))
        assert lp_norm(leray_project(adv), 2) <= 1e-13 * lp_norm(adv, 2)


class TestParsevalDot:
    @staticmethod
    def reference(x, y):
        return (2.0 * np.vdot(x, y) - np.vdot(x[:, 0], y[:, 0]) - np.vdot(x[:, -1], y[:, -1])).real

    @pytest.mark.parametrize("n", [8, 64, 256])
    def test_matches_the_vdot_sum(self, n):
        rng = np.random.default_rng(n)
        x, y = (np.fft.rfftn(rng.standard_normal((n, n))) for _ in range(2))
        for a, b in ((x, x), (x, y), (y, x)):
            scale = math.sqrt(self.reference(a, a) * self.reference(b, b))
            assert abs(_parseval_dot(a, b) - self.reference(a, b)) <= 1e-13 * scale

    def test_overflow_is_inf_without_a_flag(self):
        # einsum overflows to inf unflagged; the sum must not go on to inf - inf
        x = np.fft.rfftn(np.full((8, 8), 1e160))
        with np.errstate(over="raise", invalid="raise"):
            assert _parseval_dot(x, x) == math.inf


class TestMagnitude:
    @pytest.mark.parametrize("size", [1e-300, 1.0, 1e200])
    def test_matches_hypot_at_every_size(self, grid64, size):
        rng = np.random.default_rng(32)
        vx, vy = (size * rng.standard_normal(grid64.shape) for _ in range(2))
        mag = VectorField.from_arrays(grid64, vx, vy).magnitude()
        np.testing.assert_allclose(mag, np.hypot(vx, vy), rtol=1e-15, atol=0.0)

    def test_subnormal_components(self, grid64):
        # the scale of the largest component, 2^1029 here, would overflow
        x, y = grid64.nodes()
        vx, vy = -1e-310 * np.sin(y), 1e-310 * np.sin(x)
        mag = VectorField.from_arrays(grid64, vx, vy).magnitude()
        np.testing.assert_allclose(mag, np.hypot(vx, vy), rtol=1e-4, atol=0.0)


class TestTransformsIntoBuffers:
    @pytest.mark.parametrize("n", [8, 64, 256])
    def test_out_is_returned_bitwise_equal_to_the_allocating_call(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal((n, n))
        spectrum = np.empty((n, n // 2 + 1), complex)
        assert _fftn(x, out=spectrum) is spectrum
        assert spectrum.tobytes() == _fftn(x).tobytes()
        samples = np.empty((n, n))
        assert _ifftn_real(spectrum, out=samples) is samples
        assert samples.tobytes() == _ifftn_real(spectrum).tobytes()


class TestRetainedLattice:
    """A workspace on the retained lattice gives the bits of the half lattice
    on dealiased spectra: its transform pair, and the Parseval sum."""

    @staticmethod
    def dealiased(grid, rng):
        return _fftn(rng.standard_normal(grid.shape)) * _half_tables(grid).dealias_mask

    @pytest.mark.parametrize("n", [8, 64, 128, 256, 512])
    def test_pair_matches_the_masked_half_lattice_pair(self, n):
        # n = 128 and 512 are the sizes of the records_dense_n128 workload
        # and of the larger-n working range; each inverse after the first
        # reuses a buffer that the one before filled
        grid, rng = GridSpec(n=n), np.random.default_rng(n)
        work = Workspace(grid, retained=True)
        for _ in range(3):
            x = rng.standard_normal(grid.shape)
            forward = work.forward(x, work.spectrum("out"))
            half = _fftn(x) * _half_tables(grid).dealias_mask
            assert forward.shape == (2 * grid.k_max + 1, grid.k_max + 1)
            assert forward.tobytes() == work.gather(half, np.empty_like(forward)).tobytes()
            assert np.array_equal(work.scatter(forward), half)
            samples = work.inverse(forward, work.samples("out"))
            assert samples.tobytes() == _ifftn_real(half).tobytes()

    @pytest.mark.parametrize("n", [8, 64, 256])
    def test_block_profiles_apply_at_the_retained_modes(self, n):
        # the block kernel gives the half-lattice product with the profile
        # at every retained mode, with its bits up to the sign of a zero
        # (adding +0.0 clears it), and zero in the columns it does not count
        grid, rng = GridSpec(n=n), np.random.default_rng(n)
        work, half = Workspace(grid, retained=True), self.dealiased(grid, rng)
        bank = build_filter_bank(grid)
        for j in bank.block_indices():
            out = work.spectrum("out")
            cols = _block(bank, j, work.gather(half, work.spectrum("in")), out)
            expected = work.gather(half * bank.block_profile(j), np.empty_like(out))
            assert (out + 0.0).tobytes() == (expected + 0.0).tobytes()
            assert cols == (grid.k_max + 1 if j == bank.j_max else bank.boxes[j + 1].shape[1])
            assert not out[:, cols:].any()

    @pytest.mark.parametrize("n", [8, 16, 32, 64, 128, 256, 512])
    def test_parseval_sums_match_the_half_lattice(self, n):
        grid, rng = GridSpec(n=n), np.random.default_rng(n)
        work = Workspace(grid, retained=True)
        x, y = self.dealiased(grid, rng), self.dealiased(grid, rng)
        xr, yr = (work.gather(a, work.spectrum(name)) for a, name in ((x, "x"), (y, "y")))
        for a, b, ar, br in ((x, y, xr, yr), (x, x, xr, xr), (y, x, yr, xr)):
            assert _parseval_dot(ar, br).hex() == _parseval_dot(a, b).hex()
        assert _parseval_l2(xr).hex() == _parseval_l2(x).hex()

    @pytest.mark.parametrize("n", [8, 16, 32, 64, 128, 256, 512])
    def test_round_trip_of_a_constant_is_exact(self, n):
        # what lets the stepper keep a constant density's own field: the
        # masked transform of constant samples is its mean mode alone, and
        # the inverse gives the same samples back
        grid, rng = GridSpec(n=n), np.random.default_rng(n)
        constants = [1.0, -1.0, 0.1, math.pi, 1e-300, 1e300, *rng.uniform(-1e3, 1e3, 12),
                     *np.exp(rng.uniform(-30.0, 30.0, 12))]
        for c in constants:
            values = np.full(grid.shape, c)
            spectrum = _fftn(values) * _half_tables(grid).dealias_mask
            assert np.count_nonzero(spectrum) == 1 and spectrum[0, 0] != 0.0
            assert _ifftn_real(spectrum).tobytes() == values.tobytes()


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
