"""Dyadic frequency decomposition, Besov norms, and paraproduct machinery.

The filter bank splits the retained spectrum into a low-frequency block
(index -1) and dyadic annular blocks j = 0..j_max, built from one smooth
radial cutoff so that the profiles telescope and sum exactly to one on every
grid mode. Block j is centered on |k| ~ 2^j: its profile equals one on
0.95*2^j <= |k| <= 1.1*2^j and is supported in 0.55*2^j <= |k| <= 1.9*2^j.

The top block keeps the inner edge of that annulus but extends flat to the
grid corner: the corner modes retained by the 2/3 rule fall inside what would
be the top block's outer transition, and closing the partition there is what
makes reconstruction exact on the whole retained set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import (
    Field,
    GridSpec,
    ParameterError,
    ScalarField,
    VectorField,
    _half_tables,
    apply_multiplier,
    dealias,
    gradient,
    lp_norm,
    scale_vector,
)

# radial cutoff: one below FLAT_EDGE, zero above ZERO_EDGE
FLAT_EDGE = 1.1
ZERO_EDGE = 1.9


def smooth_step(t: np.ndarray) -> np.ndarray:
    """C^inf monotone step: 0 for t <= 0, 1 for t >= 1.

    Built from the bump quotient h(t)/(h(t) + h(1-t)) with h(t) = exp(-1/t).
    """
    t = np.asarray(t, dtype=float)
    lo = t <= 0.0
    hi = t >= 1.0
    mid = ~(lo | hi)
    out = np.zeros(t.shape)
    out[hi] = 1.0
    tm = t[mid]
    h = np.exp(-1.0 / tm)
    h1 = np.exp(-1.0 / (1.0 - tm))
    out[mid] = h / (h + h1)
    return out


def radial_cutoff(r: np.ndarray) -> np.ndarray:
    """Smooth nonincreasing profile: 1 for r <= 1.1, 0 for r >= 1.9."""
    return 1.0 - smooth_step((np.asarray(r, dtype=float) - FLAT_EDGE) / (ZERO_EDGE - FLAT_EDGE))


@dataclass(frozen=True)
class BesovIndex:
    """Regularity/integrability/summability triple (s, p, r)."""

    s: float
    p: float
    r: float

    def __post_init__(self):
        for name in ("p", "r"):
            if not getattr(self, name) >= 1:
                raise ParameterError(name, f"must be >= 1 (inf allowed), got {getattr(self, name)}")

    def lipschitz_embedding(self, dim: int = 2) -> bool:
        """Whether this index guarantees a globally Lipschitz field."""
        threshold = 1.0 + (0.0 if math.isinf(self.p) else dim / self.p)
        return self.s > threshold or (self.s == threshold and self.r == 1)


B1 = BesovIndex(1.0, math.inf, 1.0)  # B^1_{inf,1}, the space of the smallness conditions


@dataclass(frozen=True)
class DyadicFilterBank:
    """Fourier multipliers for the dyadic blocks on one grid.

    chi_profile is the block -1 (low-pass) multiplier; phi_profiles[j] is the
    block-j multiplier. All profiles are real arrays over the half lattice
    (n, n//2 + 1) of the spectra they multiply.
    """

    grid: GridSpec
    j_max: int
    chi_profile: np.ndarray
    phi_profiles: tuple[np.ndarray, ...]

    def block_profile(self, j: int) -> np.ndarray:
        if j < -1 or j > self.j_max:
            raise ValueError(f"block index {j} outside [-1, {self.j_max}]")
        return self.chi_profile if j == -1 else self.phi_profiles[j]

    def block_indices(self) -> range:
        return range(-1, self.j_max + 1)


def build_filter_bank(grid: GridSpec) -> DyadicFilterBank:
    """Construct the dyadic filter bank for a grid.

    j_max is the smallest J with 1.9 * 2^J >= k_max * sqrt(2), so the top
    annulus reaches the largest retained wavenumber.
    """
    k_corner = grid.k_max * math.sqrt(2)
    j_max = 0
    while ZERO_EDGE * 2**j_max < k_corner:
        j_max += 1
    if j_max < 1:
        raise ValueError(f"grid n={grid.n} too small to host a dyadic block")

    r = _half_tables(grid).k_mag
    chi = radial_cutoff(2.0 * r)
    low = [radial_cutoff(2.0 ** (-j + 1) * r) for j in range(j_max + 1)]
    phis = [low[j + 1] - low[j] for j in range(j_max)]
    # top block: inner edge as usual, flat to the grid corner (see module doc)
    phis.append(1.0 - low[j_max])

    for arr in (chi, *phis):
        arr.setflags(write=False)
    bank = DyadicFilterBank(grid, j_max, chi, tuple(phis))

    residual = np.abs(chi + np.sum(phis, axis=0) - 1.0).max()
    if residual > 1e-14:
        raise AssertionError(f"partition of unity failed: residual {residual:.3e}")
    return bank


def partition_residual(bank: DyadicFilterBank) -> float:
    """Max deviation of chi + sum(phi_j) from one over the retained modes."""
    total = bank.chi_profile + np.sum(bank.phi_profiles, axis=0)
    return float(np.abs(total - 1.0)[_half_tables(bank.grid).dealias_mask].max())


def _multiply(f: Field, mult: np.ndarray) -> Field:
    """Apply one Fourier multiplier to a scalar field or to each component."""
    if isinstance(f, ScalarField):
        return apply_multiplier(f, mult)
    return VectorField(tuple(apply_multiplier(c, mult) for c in f.components))


def dyadic_block(bank: DyadicFilterBank, f: Field, j: int):
    """Frequency-localized piece of f at dyadic scale 2^j (j = -1 is low-pass).

    The blocks reconstruct: summing over j = -1..j_max returns f exactly on
    retained modes.
    """
    return _multiply(f, bank.block_profile(j))


def low_cutoff(bank: DyadicFilterBank, f: Field, j: int):
    """Cumulative low-pass: the sum of blocks k <= j - 1."""
    if j < 0:
        raise ValueError("low_cutoff index must be >= 0")
    top = min(j - 1, bank.j_max)
    mult = bank.chi_profile.copy()
    for k in range(0, top + 1):
        mult = mult + bank.phi_profiles[k]
    return _multiply(f, mult)


def besov_norms(bank: DyadicFilterBank, f: Field, indices) -> tuple[float, ...]:
    """besov_norm of f for each index, from one pass over the blocks of f:
    each block is formed once and every index reads its L^p norm from it."""
    # L^2 first: lp_norm takes it by Parseval while the block has no samples
    ps = sorted({idx.p for idx in indices}, key=lambda p: p != 2)
    terms = [[] for _ in indices]
    for j in bank.block_indices():
        block = _multiply(f, bank.block_profile(j))
        norms = {p: lp_norm(block, p) for p in ps}
        del block  # free before the next block is formed: peak memory
        for idx, t in zip(indices, terms):
            t.append(2.0 ** (j * idx.s) * norms[idx.p])
    out = []
    for idx, t in zip(indices, terms):
        if math.isinf(idx.r):
            out.append(max(t))
        elif idx.r == 1:
            out.append(float(sum(t)))
        else:
            out.append(float(sum(x ** idx.r for x in t) ** (1.0 / idx.r)))
    return tuple(out)


def besov_norm(bank: DyadicFilterBank, f: Field, idx: BesovIndex) -> float:
    """l^r over blocks of 2^{j s} * ||block_j f||_{L^p}."""
    return besov_norms(bank, f, (idx,))[0]


def intersection_norm(bank: DyadicFilterBank, f: Field, idx: BesovIndex) -> float:
    """Norm of the L^2-with-Besov intersection space: sum of both norms."""
    return lp_norm(f, 2) + besov_norm(bank, f, idx)


def paraproduct(bank: DyadicFilterBank, u: ScalarField, v: ScalarField) -> ScalarField:
    """Low-times-high interaction sum of S_{j-1} u with block j of v, dealiased."""
    grid = bank.grid
    acc = np.zeros(grid.shape)
    for j in range(1, bank.j_max + 1):
        low = low_cutoff(bank, u, j - 1)
        blk = dyadic_block(bank, v, j)
        acc = acc + low.values * blk.values
    return dealias(ScalarField(grid, values=acc))


def remainder(bank: DyadicFilterBank, u: ScalarField, v: ScalarField) -> ScalarField:
    """Diagonal interaction sum over block pairs within one scale, dealiased.

    Together with the two paraproducts this reproduces the pointwise product
    exactly on retained modes: every block pair (j, k) lands in exactly one of
    the three terms.
    """
    grid = bank.grid
    blocks_u = [dyadic_block(bank, u, j).values for j in bank.block_indices()]
    blocks_v = [dyadic_block(bank, v, j).values for j in bank.block_indices()]
    nblocks = len(blocks_u)
    acc = np.zeros(grid.shape)
    for j in range(nblocks):
        for k in range(max(0, j - 1), min(nblocks, j + 2)):
            acc = acc + blocks_u[j] * blocks_v[k]
    return dealias(ScalarField(grid, values=acc))


def commutator_damping_profile(
    bank: DyadicFilterBank,
    f: ScalarField,
    v: VectorField,
    idx: BesovIndex,
) -> list[tuple[int, float, float]]:
    """Per-block commutator sizes [f, block_j] v against their norm envelope.

    Returns (j, lhs_j, envelope) triples with
    lhs_j = 2^{j s} ||f * block_j(v) - block_j(f v)||_{L^p} and the
    j-independent envelope
    ||f||_{B^1_{inf,1}} ||v||_{B^{s-1}_{p,r}} + ||grad f||_{B^{s-1}_{p,r}} ||v||_{L^inf}.
    The caller checks that sup_j lhs_j / envelope stays bounded across
    resolutions.
    """
    lower = BesovIndex(idx.s - 1.0, idx.p, idx.r)
    envelope = (besov_norm(bank, f, B1) * besov_norm(bank, v, lower)
                + besov_norm(bank, gradient(f), lower) * lp_norm(v, math.inf))

    fv = scale_vector(v, f)
    out = []
    for j in bank.block_indices():
        comm = scale_vector(dyadic_block(bank, v, j), f) - dyadic_block(bank, fv, j)
        out.append((j, 2.0 ** (j * idx.s) * lp_norm(comm, idx.p), envelope))
    return out
