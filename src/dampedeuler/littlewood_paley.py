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

The bank holds each profile on its box only, the modes |k_x|, k_y <= K_j
outside which the profile is constant: zero for block j < j_max, where
K_j = ceil(1.9 * 2^j) - 1, and one for the top block, where
K = ceil(0.95 * 2^j_max) - 1. A block is formed on its box (_block), and the
inverse transform of a block runs its axis-0 pass on the box's columns only.
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
    Workspace,
    _half_tables,
    _lp_norms,
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

    boxes[j + 1] is the block-j profile (j = -1 is the low-pass block) on
    its box: shape (2 K_j + 1, K_j + 1), rows k_x = 0..K_j then -K_j..-1 (the
    FFT order) and columns k_y = 0..K_j. Outside its box a profile is zero,
    except the top block's, which is one there (see the module doc).
    block_profile(j) is the profile over the half lattice (n, n//2 + 1).
    """

    grid: GridSpec
    j_max: int
    boxes: tuple[np.ndarray, ...]

    def block_profile(self, j: int) -> np.ndarray:
        if j < -1 or j > self.j_max:
            raise ValueError(f"block index {j} outside [-1, {self.j_max}]")
        n, box = self.grid.n, self.boxes[j + 1]
        profile = (np.ones if j == self.j_max else np.zeros)((n, n // 2 + 1))
        for p, b in zip(_box_views(profile, box.shape[1] - 1), _box_views(box, box.shape[1] - 1)):
            p[...] = b
        return profile

    def block_indices(self) -> range:
        return range(-1, self.j_max + 1)


def _box_views(a: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The views of a spectrum-shaped array a (half lattice, retained
    lattice or box) at the modes |k_x| <= k, k_y <= k: rows 0..k, then rows
    -k..-1, the last k of a; a holds those modes."""
    rows = a.shape[0]
    return a[: k + 1, : k + 1], a[rows - k:, : k + 1]


def build_filter_bank(grid: GridSpec) -> DyadicFilterBank:
    """Construct the dyadic filter bank for a grid.

    j_max is the smallest J with 1.9 * 2^J >= k_max * sqrt(2), so the top
    annulus reaches the largest retained wavenumber. Block j < j_max
    vanishes where |k| >= 1.9 * 2^j, and the top block is one where
    |k| >= 0.95 * 2^j_max; each box is the square of integer modes inside
    that radius. 2^j_max is n/4, so every box lies inside the retained
    lattice (K_j <= ceil(0.2375 n) - 1 < k_max).
    """
    k_corner = grid.k_max * math.sqrt(2)
    j_max = 0
    while ZERO_EDGE * 2**j_max < k_corner:
        j_max += 1
    if j_max < 1:
        raise ValueError(f"grid n={grid.n} too small to host a dyadic block")

    k_mag = _half_tables(grid).k_mag
    boxes = []
    for j in range(-1, j_max + 1):
        k = math.ceil(ZERO_EDGE * 2.0 ** min(j, j_max - 1)) - 1
        r = np.concatenate(_box_views(k_mag, k))
        if j == -1:
            box = radial_cutoff(2.0 * r)
        elif j < j_max:
            box = radial_cutoff(2.0 ** (-j) * r) - radial_cutoff(2.0 ** (-j + 1) * r)
        else:  # top block: inner edge as usual, flat to the grid corner (see module doc)
            box = 1.0 - radial_cutoff(2.0 ** (-j + 1) * r)
        box.setflags(write=False)
        boxes.append(box)
    bank = DyadicFilterBank(grid, j_max, tuple(boxes))

    # every box lies in the top block's, outside which the sum is the top
    # block's one alone: this is the residual over every half-lattice mode
    total = np.zeros(boxes[-1].shape)
    for box in (*boxes[1:], boxes[0]):
        for t, b in zip(_box_views(total, box.shape[1] - 1), _box_views(box, box.shape[1] - 1)):
            t += b
    residual = np.abs(total - 1.0).max()
    if residual > 1e-14:
        raise AssertionError(f"partition of unity failed: residual {residual:.3e}")
    return bank


def partition_residual(bank: DyadicFilterBank) -> float:
    """Max deviation of chi + sum(phi_j) from one over the retained modes,
    from the half-lattice profiles."""
    phis = [bank.block_profile(j) for j in range(bank.j_max + 1)]
    total = bank.block_profile(-1) + np.sum(phis, axis=0)
    return float(np.abs(total - 1.0)[_half_tables(bank.grid).dealias_mask].max())


def _block(bank: DyadicFilterBank, j: int, spectrum: np.ndarray, out: np.ndarray) -> int:
    """Block j of a spectrum on either lattice (half or retained, each of
    which holds every box), into out: out is zeroed (the top block's is a
    copy of spectrum), and spectrum times the profile is written at the
    box's modes. Returns the number of leading columns that hold the
    block's nonzero modes, the columns that Workspace.inverse then
    transforms."""
    box = bank.boxes[j + 1]
    k = box.shape[1] - 1
    if j == bank.j_max:
        np.copyto(out, spectrum)
    else:
        out.fill(0.0)
    for s, b, o in zip(_box_views(spectrum, k), _box_views(box, k), _box_views(out, k)):
        np.multiply(s, b, out=o)
    return out.shape[1] if j == bank.j_max else k + 1


def dyadic_block(bank: DyadicFilterBank, f: Field, j: int):
    """Frequency-localized piece of f at dyadic scale 2^j (j = -1 is low-pass).

    The blocks reconstruct: summing over j = -1..j_max returns f exactly on
    retained modes.
    """
    return apply_multiplier(f, bank.block_profile(j))


def low_cutoff(bank: DyadicFilterBank, f: Field, j: int):
    """Cumulative low-pass: the sum of blocks k <= j - 1."""
    if j < 0:
        raise ValueError("low_cutoff index must be >= 0")
    top = min(j - 1, bank.j_max)
    mult = bank.block_profile(-1)
    for k in range(0, top + 1):
        mult = mult + bank.block_profile(k)
    return apply_multiplier(f, mult)


def _pow2(x: float) -> float:
    """2^x, or inf where that overflows (a record then names the column)."""
    try:
        return 2.0**x
    except OverflowError:
        return math.inf


def besov_norms(bank: DyadicFilterBank, f: Field, indices) -> tuple[float, ...]:
    """besov_norm of f for each index, from one pass over the blocks of f
    (_besov_norms, on a half-lattice workspace)."""
    spectra = (f.spectrum,) if isinstance(f, ScalarField) else tuple(c.spectrum for c in f.components)
    return _besov_norms(bank, spectra, indices, Workspace(f.grid))


def _besov_norms(bank: DyadicFilterBank, spectra: tuple, indices, work: Workspace) -> tuple[float, ...]:
    """besov_norms of the scalar field (one spectrum) or vector field (two)
    whose spectra on work's lattice are given: each block is formed once, in
    the "scratch" (and "residual") spectrum (_block), and every index reads
    its L^p norm from it (fields._lp_norms, which writes the "u_x" and "u_y"
    samples, transforming the block's columns only)."""
    ps = {idx.p for idx in indices}
    blocks = tuple(work.spectrum(name) for name in ("scratch", "residual")[: len(spectra)])
    terms = [[] for _ in indices]
    for j in bank.block_indices():
        cols = max(_block(bank, j, s, b) for s, b in zip(spectra, blocks))
        norms = _lp_norms(blocks, ps, work, cols)
        for idx, t in zip(indices, terms):
            t.append(_pow2(j * idx.s) * norms[idx.p])
    out = []
    for idx, t in zip(indices, terms):
        if math.isinf(idx.r):
            out.append(max(t))
        elif idx.r == 1:
            out.append(float(sum(t)))
        else:
            out.append(float(sum(x ** idx.r for x in t) ** (1.0 / idx.r)))
    return tuple(out)


def _b1_norm_of_samples(bank: DyadicFilterBank, values: np.ndarray, work: Workspace) -> float:
    """besov_norm(bank, ScalarField(bank.grid, values=values), B1), with the
    same bits, from the samples values, which it overwrites with each
    block's samples. rfftn and each block's irfftn run as the 1-D passes
    they make, on every mode of the half lattice (the spectrum of samples
    holds roundoff beyond k_max, which the blocks see), in work's
    "transform" (the spectrum) and "scattered" (a block, _block) half
    spectra, and each block's axis-0 pass runs on its box's columns only;
    the columns of "scattered" above k_max are zeroed again at the end, as
    Workspace.inverse reads them."""
    n, k = bank.grid.n, bank.grid.k_max
    spectrum = np.fft.rfft(values, axis=1, out=work.half_spectrum("transform"))
    np.fft.fft(spectrum, axis=0, out=spectrum)
    block = work.half_spectrum("scattered")
    terms = []
    for j in bank.block_indices():
        lines = block[:, : _block(bank, j, spectrum, block)]
        np.fft.ifft(lines, axis=0, out=lines)
        np.fft.irfft(block, n, axis=1, out=values)
        terms.append(_pow2(j * B1.s) * float(np.max(np.abs(values, out=values))))
    block[:, k + 1:] = 0.0
    return float(sum(terms))


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
