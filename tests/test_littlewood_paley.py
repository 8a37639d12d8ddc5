import math

import numpy as np
import pytest

from dampedeuler.fields import (
    GridSpec,
    ScalarField,
    VectorField,
    _half_tables,
    dealias,
    gradient,
    lp_norm,
)
from dampedeuler.littlewood_paley import (
    B1,
    BesovIndex,
    besov_norm,
    besov_norms,
    build_filter_bank,
    commutator_damping_profile,
    dyadic_block,
    intersection_norm,
    low_cutoff,
    paraproduct,
    partition_residual,
    remainder,
)
from dampedeuler.verify import bernstein_ratios

from conftest import random_band_limited, random_band_limited_vector


@pytest.fixture(scope="module")
def bank64(grid64):
    return build_filter_bank(grid64)


class TestFilterBank:
    def test_block_count_at_64(self, bank64):
        # 1.9 * 2^4 = 30.4 covers k_max * sqrt(2) = 29.7; 2^3 does not
        assert bank64.grid.k_max == 21
        assert bank64.j_max == 4

    def test_partition_of_unity_exact(self, bank64):
        assert partition_residual(bank64) == 0.0

    def test_profiles_on_half_lattice(self, bank64):
        for j in bank64.block_indices():
            assert bank64.block_profile(j).shape == (64, 33)

    def test_profile_is_one_on_block_center(self, bank64):
        t = _half_tables(bank64.grid)
        for j in range(bank64.j_max):  # the top block has no outer edge
            center = np.isclose(t.k_mag, 2.0**j)
            assert np.all(bank64.phi_profiles[j][center] == 1.0)

    def test_annulus_support(self, bank64):
        t = _half_tables(bank64.grid)
        for j in range(bank64.j_max):
            prof = bank64.phi_profiles[j]
            outside = (t.k_mag < 0.55 * 2**j - 1e-12) | (t.k_mag > 1.9 * 2**j + 1e-12)
            assert np.all(prof[outside] == 0.0)

    def test_minimal_grid_still_hosts_a_block(self):
        bank = build_filter_bank(GridSpec(n=8, dealias_fraction=0.5))  # k_max = 2
        assert bank.j_max >= 1
        assert partition_residual(bank) == 0.0


class TestDyadicBlocks:
    def test_constant_lives_in_low_block(self, bank64):
        f = ScalarField.constant(bank64.grid, 3.0)
        assert lp_norm(dyadic_block(bank64, f, -1), math.inf) == pytest.approx(3.0, abs=1e-13)
        for j in range(0, bank64.j_max + 1):
            assert lp_norm(dyadic_block(bank64, f, j), math.inf) <= 1e-13

    def test_cos4x_in_block_two(self, bank64):
        x, _ = bank64.grid.nodes()
        f = ScalarField.from_values(bank64.grid, np.cos(4 * x))
        blk = dyadic_block(bank64, f, 2)
        assert np.abs(blk.values - f.values).max() <= 1e-12
        for j in bank64.block_indices():
            if j != 2:
                assert lp_norm(dyadic_block(bank64, f, j), math.inf) <= 1e-13

    def test_reconstruction(self, bank64):
        rng = np.random.default_rng(0)
        f = random_band_limited(bank64.grid, rng)
        total = dyadic_block(bank64, f, -1)
        for j in range(0, bank64.j_max + 1):
            total = total + dyadic_block(bank64, f, j)
        assert lp_norm(total - f, math.inf) <= 1e-12 * lp_norm(f, math.inf)

    def test_block_index_bounds(self, bank64):
        f = ScalarField.constant(bank64.grid, 1.0)
        with pytest.raises(ValueError):
            dyadic_block(bank64, f, bank64.j_max + 1)

    def test_quasi_orthogonality(self, bank64):
        rng = np.random.default_rng(1)
        f = random_band_limited(bank64.grid, rng)
        for j in bank64.block_indices():
            for k in bank64.block_indices():
                if abs(j - k) >= 2:
                    twice = dyadic_block(bank64, dyadic_block(bank64, f, k), j)
                    assert lp_norm(twice, math.inf) <= 1e-12 * lp_norm(f, math.inf)


class TestLowCutoff:
    def test_s0_is_low_block(self, bank64):
        rng = np.random.default_rng(2)
        f = random_band_limited(bank64.grid, rng)
        assert lp_norm(low_cutoff(bank64, f, 0) - dyadic_block(bank64, f, -1), math.inf) <= 1e-14

    def test_full_sum_is_identity(self, bank64):
        rng = np.random.default_rng(3)
        f = random_band_limited(bank64.grid, rng)
        assert lp_norm(low_cutoff(bank64, f, bank64.j_max + 1) - f, math.inf) <= 1e-12 * lp_norm(
            f, math.inf
        )

    def test_cos4x_cutoffs(self, bank64):
        x, _ = bank64.grid.nodes()
        f = ScalarField.from_values(bank64.grid, np.cos(4 * x))
        assert lp_norm(low_cutoff(bank64, f, 2), math.inf) <= 1e-13
        assert lp_norm(low_cutoff(bank64, f, 4) - f, math.inf) <= 1e-13

    def test_negative_index_rejected(self, bank64):
        with pytest.raises(ValueError):
            low_cutoff(bank64, ScalarField.constant(bank64.grid, 1.0), -1)


class TestBesovNorm:
    def test_constant(self, bank64):
        f = ScalarField.constant(bank64.grid, 3.0)
        for idx in (B1, BesovIndex(2.0, 2.0, 1.0), BesovIndex(0.5, math.inf, math.inf)):
            assert besov_norm(bank64, f, idx) == pytest.approx(2.0 ** (-idx.s) * 3.0, rel=1e-12)

    def test_single_mode(self, bank64):
        x, _ = bank64.grid.nodes()
        f = ScalarField.from_values(bank64.grid, np.cos(4 * x))
        assert besov_norm(bank64, f, B1) == pytest.approx(4.0, rel=1e-12)

    def test_zero(self, bank64):
        assert besov_norm(bank64, ScalarField.zero(bank64.grid), B1) == 0.0

    def test_intersection_norm(self, bank64):
        grid = bank64.grid
        assert intersection_norm(bank64, ScalarField.zero(grid), B1) == 0.0
        assert intersection_norm(bank64, ScalarField.constant(grid, 1.0), B1) == pytest.approx(
            1.5, rel=1e-12
        )
        x, _ = grid.nodes()
        f = ScalarField.from_values(grid, np.cos(4 * x))
        assert intersection_norm(bank64, f, B1) == pytest.approx(
            1.0 / math.sqrt(2.0) + 4.0, rel=1e-12
        )

    def test_embedding_monotone_in_s(self, bank64):
        # lowering s by eps can grow the norm by at most 2^eps
        rng = np.random.default_rng(4)
        for _ in range(10):
            f = random_band_limited(bank64.grid, rng)
            for eps in (0.25, 1.0):
                lower = besov_norm(bank64, f, BesovIndex(1.0 - eps, math.inf, 1.0))
                upper = besov_norm(bank64, f, B1)
                assert lower <= 2.0**eps * upper * (1.0 + 1e-12)

    @pytest.mark.parametrize("vector", [False, True])
    def test_one_pass_equals_one_index_at_a_time(self, bank64, vector):
        # L^inf first: a pass that took the norms in list order would read
        # L^2 from the samples of a block instead of its spectrum, which moves
        # the last bits on some of these draws
        rng = np.random.default_rng(5)
        idx = [B1, BesovIndex(0.0, 2.0, 2.0), BesovIndex(1.0, 3.0, 1.0)]
        for _ in range(10):
            f = (random_band_limited_vector if vector else random_band_limited)(bank64.grid, rng)
            assert besov_norms(bank64, f, idx) == tuple(besov_norm(bank64, f, i) for i in idx)


class TestBesovIndex:
    @pytest.mark.parametrize(
        "s,p,r,expected",
        [
            (2.0, 2.0, 1.0, True),    # s = 1 + d/p with r = 1
            (1.0, math.inf, 1.0, True),
            (1.0, math.inf, 2.0, False),
            (2.5, 2.0, math.inf, True),
            (1.5, 2.0, 1.0, False),
        ],
    )
    def test_lipschitz_embedding(self, s, p, r, expected):
        assert BesovIndex(s, p, r).lipschitz_embedding(dim=2) is expected

    def test_rejects_bad_integrability(self):
        with pytest.raises(ValueError):
            BesovIndex(1.0, 0.5, 1.0)


class TestBony:
    def test_paraproduct_with_constant_low_factor(self, bank64):
        rng = np.random.default_rng(5)
        v = random_band_limited(bank64.grid, rng)
        c = ScalarField.constant(bank64.grid, 2.0)
        expected = ScalarField.zero(bank64.grid)
        for j in range(1, bank64.j_max + 1):
            expected = expected + dyadic_block(bank64, v, j)
        out = paraproduct(bank64, c, v)
        assert lp_norm(out - 2.0 * expected, math.inf) <= 1e-12 * lp_norm(v, math.inf)

    def test_paraproduct_onto_constant_vanishes(self, bank64):
        rng = np.random.default_rng(6)
        u = random_band_limited(bank64.grid, rng)
        out = paraproduct(bank64, u, ScalarField.constant(bank64.grid, 3.0))
        assert lp_norm(out, math.inf) <= 1e-13

    def test_remainder_of_constants(self, bank64):
        out = remainder(
            bank64,
            ScalarField.constant(bank64.grid, 2.0),
            ScalarField.constant(bank64.grid, -1.5),
        )
        assert lp_norm(out - ScalarField.constant(bank64.grid, -3.0), math.inf) <= 1e-13

    def test_remainder_of_separated_blocks_vanishes(self, bank64):
        x, y = bank64.grid.nodes()
        u = ScalarField.from_values(bank64.grid, np.cos(4 * x))
        v = ScalarField.from_values(bank64.grid, np.cos(16 * y))
        assert lp_norm(remainder(bank64, u, v), math.inf) <= 1e-13

    def test_identity_on_random_pairs(self, bank64):
        rng = np.random.default_rng(7)
        for _ in range(100):
            u = random_band_limited(bank64.grid, rng)
            v = random_band_limited(bank64.grid, rng)
            product = dealias(ScalarField.from_values(bank64.grid, u.values * v.values))
            recon = (
                paraproduct(bank64, u, v)
                + paraproduct(bank64, v, u)
                + remainder(bank64, u, v)
            )
            scale = lp_norm(u, math.inf) * lp_norm(v, math.inf)
            assert lp_norm(product - recon, math.inf) <= 1e-10 * scale


class TestBernstein:
    @pytest.mark.parametrize("n", [64, 128])
    def test_derivative_block_scaling(self, n):
        for j, p, ratio in bernstein_ratios(n, seed=12):
            assert 1.0 / 8.0 <= ratio <= 8.0, (n, j, p, ratio)


class TestGagliardoNirenberg:
    def test_dilation_family_ratio_bounded(self, grid64):
        # scaling-forced exponent 1/2 in two dimensions
        x, y = grid64.nodes()
        base = np.exp(np.cos(x) + np.sin(y))
        base = base - base.mean()
        ratios = []
        for lam in (1, 2, 4):
            f = ScalarField.from_values(grid64, np.exp(np.cos(lam * x) + np.sin(lam * y)))
            f = f - ScalarField.constant(grid64, f.mean())
            g = gradient(f)
            ratios.append(
                lp_norm(f, math.inf)
                / math.sqrt(lp_norm(f, 2) * lp_norm(g, math.inf))
            )
        assert max(ratios) <= 10.0
        # on the torus the dilation only shrinks the ratio
        assert ratios[0] >= ratios[1] >= ratios[2]


class TestCommutatorProfile:
    def test_constant_multiplier_commutes(self, bank64):
        rng = np.random.default_rng(8)
        v = random_band_limited_vector(bank64.grid, rng)
        rows = commutator_damping_profile(
            bank64, ScalarField.constant(bank64.grid, 2.0), v, BesovIndex(2.0, 2.0, 1.0)
        )
        for _, lhs, _ in rows:
            assert lhs <= 1e-12 * lp_norm(v, math.inf)

    def test_zero_field(self, bank64):
        rng = np.random.default_rng(9)
        f = random_band_limited(bank64.grid, rng)
        rows = commutator_damping_profile(
            bank64, f, VectorField.zero(bank64.grid), BesovIndex(2.0, 2.0, 1.0)
        )
        assert all(lhs == 0.0 for _, lhs, _ in rows)

    def test_two_resolution_consistency(self):
        # the commutator-to-envelope ratio is a grid-independent quantity:
        # evaluating the same smooth data at N = 64 and N = 128 moves the
        # supremum by less than 20 percent
        idx = BesovIndex(2.0, 2.0, 1.0)
        sups = []
        for n in (64, 128):
            grid = GridSpec(n=n)
            bank = build_filter_bank(grid)
            x, _ = grid.nodes()
            f = ScalarField.from_values(grid, 1.0 + 0.3 * np.cos(x))
            rng = np.random.default_rng(99)
            white = rng.standard_normal((2, 17, 17))
            comps = []
            for w in white:
                vals = np.zeros(grid.shape)
                for kx in range(-8, 9):
                    for ky in range(-8, 9):
                        vals += w[kx + 8, ky + 8] * np.cos(
                            kx * grid.nodes()[0] + ky * grid.nodes()[1]
                        )
                comps.append(ScalarField.from_values(grid, vals))
            v = VectorField(tuple(comps))
            rows = commutator_damping_profile(bank, f, v, idx)
            sups.append(max(lhs / env for _, lhs, env in rows if env > 0))
        assert abs(sups[0] - sups[1]) / sups[0] < 0.2
