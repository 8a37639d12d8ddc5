"""Real scalar and vector fields on a periodic 2-D grid, with spectral calculus.

Differential operators act through the real FFT, so they are exact for
band-limited fields. The samples are real, so a spectrum is held on the half
lattice (n, n//2 + 1): columns k_y = 0..n/2 of the full (n, n) spectrum, whose
other columns are the complex conjugates of these mirrored through the origin.
Nonlinear products are truncated with the 2/3 rule before they re-enter any
derivative. Norms use the normalized measure (grid averages), so the L^p norm
of a constant c equals |c| at every resolution.

Fields are immutable snapshots: every operation returns a new field that owns
its arrays, marked read-only (from_values and from_spectrum copy the caller's
array), so fields are safe to share across threads.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

TWO_PI = 2.0 * math.pi


class ParameterError(ValueError):
    """A parameter out of range, raised by the type that owns it; name names it."""

    def __init__(self, name: str, message: str):
        super().__init__(name, message)  # both args, so the error pickles
        self.name, self.message = name, message

    def __str__(self) -> str:
        return f"{self.name}: {self.message}"


def _number(name: str, value, integer: bool = False, inf_ok: bool = False) -> float | int:
    """value as a finite float, or, where integer is set, as an int if it is a
    whole number; with inf_ok, "inf" and Infinity also pass, as math.inf.
    Anything else, bools and strings included, raises ParameterError(name, ...)."""
    if inf_ok and value in ("inf", math.inf):
        return math.inf
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        expected = 'a finite number or "inf"' if inf_ok else "a finite number"
        raise ParameterError(name, f"expected {expected}, got {value!r}")
    if integer and int(value) != value:
        raise ParameterError(name, f"expected an integer, got {value!r}")
    return int(value) if integer else float(value)


@dataclass(frozen=True)
class GridSpec:
    """Uniform n-by-n periodic grid on [0, length)^2.

    Parameters
    ----------
    n : int
        Points per dimension; must be a power of two, at least 8.
    length : float
        Domain period (default 2*pi, so grid wavenumbers are integers).
    dealias_fraction : float
        Fraction of modes retained by the 2/3-rule truncation.
    """

    n: int
    length: float = TWO_PI
    dealias_fraction: float = 2.0 / 3.0

    def __post_init__(self):
        if not (self.n >= 8 and (self.n & (self.n - 1)) == 0):
            raise ParameterError("n", f"must be a power of two >= 8, got {self.n}")
        if not 0.0 < self.length < math.inf:
            raise ParameterError("length", f"must be positive and finite, got {self.length}")
        if not 0.0 < self.dealias_fraction <= 1.0:
            raise ParameterError("dealias_fraction", "must lie in (0, 1]")
        if self.k_max < 2:
            raise ParameterError("dealias_fraction", f"gives cutoff k_max = {self.k_max} < 2")

    @property
    def k_max(self) -> int:
        """Largest retained wavenumber component (integer mode index)."""
        return int(self.dealias_fraction * (self.n // 2))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.n)

    def nodes(self):
        """Coordinate arrays (x, y), 'ij'-indexed."""
        x = np.arange(self.n) * (self.length / self.n)
        return np.meshgrid(x, x, indexing="ij")


class SpectralTables(NamedTuple):
    """Wavenumber tables over the half lattice (n, n//2 + 1) of the spectra
    (_half_tables); tables(grid) spans the full (n, n) lattice."""

    kx: np.ndarray          # derivative wavenumber, axis 0 (Nyquist zeroed)
    ky: np.ndarray          # derivative wavenumber, axis 1 (Nyquist zeroed)
    k_mag: np.ndarray       # |k| of the raw lattice (for radial filters)
    ksq: np.ndarray         # kx^2 + ky^2 in the derivative convention
    ddx: np.ndarray         # i*kx
    ddy: np.ndarray         # i*ky
    dealias_mask: np.ndarray
    inv_neg_lap: np.ndarray  # multiplier for (-Laplace)^{-1}, zero mean mode


@lru_cache(maxsize=32)
def _tables_for(n: int, length: float, dealias_fraction: float, cols: int) -> SpectralTables:
    """The tables on columns 0..cols-1 (FFT order) of the (n, n) lattice."""
    modes = (np.arange(n) + n // 2) % n - n // 2  # integer mode indices, FFT order
    scale = TWO_PI / length
    raw = scale * modes
    rx, ry = np.meshgrid(raw, raw[:cols], indexing="ij")
    k_mag = np.sqrt(rx**2 + ry**2)

    # Odd derivatives of the (unpaired) Nyquist mode are sign-ambiguous;
    # zeroing it keeps derivative spectra Hermitian. The projector and the
    # inverse Laplacian use the same convention so that div(leray(v)) = 0
    # holds mode by mode.
    d1 = raw.copy()
    d1[n // 2] = 0.0
    kx, ky = np.meshgrid(d1, d1[:cols], indexing="ij")
    ksq = kx**2 + ky**2
    ddx, ddy = 1j * kx, 1j * ky

    k_max = int(dealias_fraction * (n // 2))
    mx, my = np.meshgrid(np.abs(modes), np.abs(modes[:cols]), indexing="ij")
    dealias_mask = (mx <= k_max) & (my <= k_max)

    inv_neg_lap = np.zeros_like(ksq)
    nonzero = ksq > 0
    inv_neg_lap[nonzero] = 1.0 / ksq[nonzero]

    for arr in (kx, ky, k_mag, ksq, ddx, ddy, dealias_mask, inv_neg_lap):
        arr.setflags(write=False)
    return SpectralTables(kx, ky, k_mag, ksq, ddx, ddy, dealias_mask, inv_neg_lap)


def tables(grid: GridSpec) -> SpectralTables:
    """The tables over the full (n, n) lattice, for callers that index a full
    spectrum; the package itself reads only _half_tables."""
    return _tables_for(grid.n, grid.length, grid.dealias_fraction, grid.n)


def _half_tables(grid: GridSpec) -> SpectralTables:
    """The tables over the half lattice (n, n//2 + 1), where every spectrum lives."""
    return _tables_for(grid.n, grid.length, grid.dealias_fraction, grid.n // 2 + 1)


def _fftn(values: np.ndarray) -> np.ndarray:
    """Half spectrum of real grid samples; every transform in the package goes
    through this pair, which looks numpy.fft up at call time."""
    return np.fft.rfftn(values)


def _ifftn_real(spectrum: np.ndarray) -> np.ndarray:
    """Inverse of _fftn: the real samples of a half spectrum. Columns 0 and
    n/2 are read as self-conjugate (see hermitian_defect)."""
    n = spectrum.shape[0]
    return np.fft.irfftn(spectrum, s=(n, n), axes=(0, 1))


def _parseval_dot(x: np.ndarray, y: np.ndarray) -> float:
    """n^4 times the L^2 inner product (normalized measure) of the real samples
    of two half spectra. Columns 1..n/2-1 stand for their mirror columns too
    and count twice; the self-conjugate columns 0 and n/2 count once."""
    return (2.0 * np.vdot(x, y) - np.vdot(x[:, 0], y[:, 0]) - np.vdot(x[:, -1], y[:, -1])).real


def _parseval_l2(spectrum: np.ndarray) -> float:
    """L^2 norm (normalized measure) of the real samples of a half spectrum."""
    return math.sqrt(_parseval_dot(spectrum, spectrum)) / spectrum.shape[0] ** 2


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


class ScalarField:
    """Real samples on a GridSpec, paired with a lazily computed spectrum.

    Either representation may be supplied; the other is derived on first use
    and cached. The pair stays consistent because fields are never mutated.
    The spectrum is held on the half lattice (n, n//2 + 1); from_spectrum
    also takes a full-lattice (n, n) spectrum of real samples. The
    constructor takes ownership of the array it is given.
    """

    __slots__ = ("grid", "_values", "_spectrum")

    def __init__(self, grid: GridSpec, values=None, spectrum=None):
        if values is None and spectrum is None:
            raise ValueError("need values or spectrum")
        self.grid = grid
        self._values = None if values is None else _freeze(np.asarray(values, dtype=float))
        if self._values is not None and self._values.shape != grid.shape:
            raise ValueError(f"array shape {self._values.shape} != grid shape {grid.shape}")
        self._spectrum = None if spectrum is None else _freeze(np.asarray(spectrum, dtype=complex))
        if self._spectrum is not None and self._spectrum.shape != (grid.n, grid.n // 2 + 1):
            raise ValueError(f"spectrum shape {self._spectrum.shape} is not the half lattice of n = {grid.n}")

    @classmethod
    def from_values(cls, grid: GridSpec, values) -> "ScalarField":
        return cls(grid, values=np.array(values, dtype=float))

    @classmethod
    def from_spectrum(cls, grid: GridSpec, spectrum) -> "ScalarField":
        """A half spectrum, or the full (n, n) spectrum of real samples, whose
        columns 0..n/2 are kept."""
        spectrum = np.asarray(spectrum, dtype=complex)
        if spectrum.shape == grid.shape:
            spectrum = spectrum[:, : grid.n // 2 + 1]
        return cls(grid, spectrum=np.array(spectrum))

    @classmethod
    def constant(cls, grid: GridSpec, c: float) -> "ScalarField":
        return cls(grid, values=np.full(grid.shape, float(c)))

    @classmethod
    def zero(cls, grid: GridSpec) -> "ScalarField":
        return cls.constant(grid, 0.0)

    @property
    def values(self) -> np.ndarray:
        # columns 0 and n/2 stay self-conjugate by construction (real samples,
        # real-even or imaginary-odd multipliers); see hermitian_defect
        if self._values is None:
            self._values = _freeze(_ifftn_real(self._spectrum))
        return self._values

    @property
    def spectrum(self) -> np.ndarray:
        if self._spectrum is None:
            self._spectrum = _freeze(_fftn(self._values))
        return self._spectrum

    def mean(self) -> float:
        if self._spectrum is not None:
            return self._spectrum.flat[0].real / self.grid.n**2
        return float(np.mean(self._values))

    # field algebra (pointwise, no truncation); products go through
    # dealiased_product so the 2/3 rule is explicit at call sites. Linear
    # operations run in whichever representation both operands already have,
    # avoiding FFT round-trips in stage arithmetic.
    def _combine(self, other: "ScalarField", op) -> "ScalarField":
        if self._values is not None and other._values is not None:
            return ScalarField(self.grid, values=op(self._values, other._values))
        if self._spectrum is not None and other._spectrum is not None:
            return ScalarField(self.grid, spectrum=op(self._spectrum, other._spectrum))
        return ScalarField(self.grid, values=op(self.values, other.values))

    def __add__(self, other: "ScalarField") -> "ScalarField":
        return self._combine(other, np.add)

    def __sub__(self, other: "ScalarField") -> "ScalarField":
        return self._combine(other, np.subtract)

    def __mul__(self, scalar: float) -> "ScalarField":
        scalar = float(scalar)
        if self._values is not None:
            return ScalarField(self.grid, values=self._values * scalar)
        return ScalarField(self.grid, spectrum=self._spectrum * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "ScalarField":
        return self * (-1.0)

    def __repr__(self):
        return f"ScalarField(n={self.grid.n})"


class VectorField:
    """Pair of ScalarField components, optionally asserted divergence-free."""

    __slots__ = ("components", "divergence_free")

    DIV_FREE_TOL = 1e-10

    def __init__(self, components, divergence_free: bool = False, check: bool = True):
        components = tuple(components)
        if len(components) != 2:
            raise ValueError("VectorField needs exactly two components")
        if components[0].grid is not components[1].grid and components[0].grid != components[1].grid:
            raise ValueError("components live on different grids")
        self.components = components
        self.divergence_free = bool(divergence_free)
        # check=False is for constructions that are divergence-free mode by
        # mode (projection, perp gradient), where a relative check would
        # reject near-zero outputs made of rounding dust
        if self.divergence_free and check:
            vnorm = lp_norm(self, 2)
            dnorm = lp_norm(divergence(self), 2)
            if dnorm > self.DIV_FREE_TOL * max(vnorm, 1e-300):
                raise ValueError(
                    f"divergence-free assertion violated: |div v| = {dnorm:.3e}, "
                    f"|v| = {vnorm:.3e}"
                )

    @classmethod
    def from_arrays(cls, grid: GridSpec, vx, vy, divergence_free=False) -> "VectorField":
        return cls(
            (ScalarField.from_values(grid, vx), ScalarField.from_values(grid, vy)),
            divergence_free=divergence_free,
        )

    @classmethod
    def zero(cls, grid: GridSpec) -> "VectorField":
        return cls((ScalarField.zero(grid), ScalarField.zero(grid)), divergence_free=True)

    @property
    def grid(self) -> GridSpec:
        return self.components[0].grid

    def magnitude(self) -> np.ndarray:
        vx, vy = (c.values for c in self.components)
        return np.sqrt(vx**2 + vy**2)

    def __add__(self, other: "VectorField") -> "VectorField":
        return VectorField(tuple(a + b for a, b in zip(self.components, other.components)))

    def __sub__(self, other: "VectorField") -> "VectorField":
        return VectorField(tuple(a - b for a, b in zip(self.components, other.components)))

    def __mul__(self, scalar: float) -> "VectorField":
        return VectorField(tuple(c * scalar for c in self.components))

    __rmul__ = __mul__

    def __neg__(self) -> "VectorField":
        return self * (-1.0)

    def __repr__(self):
        return f"VectorField(n={self.grid.n}, divergence_free={self.divergence_free})"


Field = ScalarField | VectorField


def hermitian_defect(f: ScalarField) -> float:
    """Deviation of the self-conjugate columns k_y = 0 and k_y = n/2 of the
    half spectrum from X[k, c] = conj(X[-k, c]), relative to the largest
    coefficient. The inverse transform reads only their Hermitian part, so a
    defect there is lost; zero-ish for any field with real samples."""
    spec = f.spectrum
    cols = spec[:, [0, -1]]
    mirrored = np.conj(np.roll(cols[::-1], 1, axis=0))
    scale = float(np.abs(spec).max())
    if scale == 0.0:
        return 0.0
    return float(np.abs(cols - mirrored).max()) / scale


def apply_multiplier(f: ScalarField, mult: np.ndarray) -> ScalarField:
    """Multiply the spectrum by mult, an array over the half lattice."""
    if mult.shape != (f.grid.n, f.grid.n // 2 + 1):
        raise ValueError(f"multiplier shape {mult.shape} is not the half lattice of n = {f.grid.n}")
    return ScalarField(f.grid, spectrum=f.spectrum * mult)


def gradient(f: ScalarField) -> VectorField:
    """Spectral gradient; exact for band-limited fields."""
    t = _half_tables(f.grid)
    return VectorField((apply_multiplier(f, t.ddx), apply_multiplier(f, t.ddy)))


def divergence(v: VectorField) -> ScalarField:
    t = _half_tables(v.grid)
    spec = t.ddx * v.components[0].spectrum + t.ddy * v.components[1].spectrum
    return ScalarField(v.grid, spectrum=spec)


def curl2d(v: VectorField) -> ScalarField:
    """Scalar curl d_x(v_y) - d_y(v_x) of a planar field."""
    t = _half_tables(v.grid)
    spec = t.ddx * v.components[1].spectrum - t.ddy * v.components[0].spectrum
    return ScalarField(v.grid, spectrum=spec)


def perp_gradient(f: ScalarField) -> VectorField:
    """Rotated gradient (-d_y f, d_x f); always divergence-free."""
    t = _half_tables(f.grid)
    return VectorField(
        (apply_multiplier(f, -t.ddy), apply_multiplier(f, t.ddx)),
        divergence_free=True,
        check=False,
    )


def leray_project(v: VectorField) -> VectorField:
    """Remove the gradient part of v, leaving its divergence-free part.

    The scalar potential is inverted with the zero-mean convention, so the
    grid mean of v is preserved.
    """
    t = _half_tables(v.grid)
    vx_hat = v.components[0].spectrum
    vy_hat = v.components[1].spectrum
    helm = (t.kx * vx_hat + t.ky * vy_hat) * t.inv_neg_lap
    return VectorField(
        (
            ScalarField(v.grid, spectrum=vx_hat - t.kx * helm),
            ScalarField(v.grid, spectrum=vy_hat - t.ky * helm),
        ),
        divergence_free=True,
        check=False,
    )


def lp_norm(f: Field, p: float) -> float:
    """L^p norm with normalized measure; p = inf gives the grid max.

    Vector fields are measured through their pointwise Euclidean magnitude.
    """
    if not p >= 1:  # a NaN p fails too
        raise ValueError(f"p must be >= 1, got {p}")
    if p == 2:
        # Parseval: avoids inverse transforms when only spectra exist
        if isinstance(f, ScalarField):
            if f._values is None:
                return _parseval_l2(f._spectrum)
        elif any(c._values is None for c in f.components):
            return math.hypot(*(_parseval_l2(c.spectrum) for c in f.components))
    mag = np.abs(f.values) if isinstance(f, ScalarField) else f.magnitude()
    if math.isinf(p):
        return float(np.max(mag))
    if p == 1:
        return float(np.mean(mag))
    if p == 2:
        return float(math.sqrt(np.mean(mag**2)))
    return float(np.mean(mag**p) ** (1.0 / p))


def dealias(f: ScalarField) -> ScalarField:
    """Zero every mode with any wavenumber component above k_max; idempotent."""
    t = _half_tables(f.grid)
    return ScalarField(f.grid, spectrum=f.spectrum * t.dealias_mask)


def dealias_vector(v: VectorField) -> VectorField:
    return VectorField(
        tuple(dealias(c) for c in v.components), divergence_free=v.divergence_free
    )


def dealiased_product(f: ScalarField, g: ScalarField) -> ScalarField:
    """Pointwise product truncated with the 2/3 rule."""
    return dealias(ScalarField(f.grid, values=f.values * g.values))


def scale_vector(v: VectorField, f: ScalarField) -> VectorField:
    """Componentwise dealiased product f * v."""
    return VectorField(tuple(dealiased_product(f, c) for c in v.components))


def advect(u: VectorField, f: ScalarField) -> ScalarField:
    """Transport term u . grad(f), dealiased."""
    gx, gy = gradient(f).components
    conv = (
        u.components[0].values * gx.values
        + u.components[1].values * gy.values
    )
    return dealias(ScalarField(f.grid, values=conv))


def advect_vector(u: VectorField, v: VectorField) -> VectorField:
    """Componentwise transport (u . grad) v, dealiased."""
    return VectorField(tuple(advect(u, c) for c in v.components))


def grad_inf(v: VectorField) -> float:
    """Sup norm of the Jacobian: max over components of |grad v_i|."""
    return max(lp_norm(gradient(c), math.inf) for c in v.components)
