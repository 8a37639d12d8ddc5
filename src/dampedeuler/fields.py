"""Real scalar and vector fields on a periodic 2-D grid, with spectral calculus.

Differential operators act through the real FFT, so they are exact for
band-limited fields. The samples are real, so a spectrum is held on the half
lattice (n, n//2 + 1): columns k_y = 0..n/2 of the full (n, n) spectrum, whose
other columns are the complex conjugates of these mirrored through the origin.
Nonlinear products are truncated with the 2/3 rule before they re-enter any
derivative: a scalar is transported in convective form (advect), and the
self-transport of a divergence-free velocity is taken in flux form
(self_advection), which costs half the transforms. Norms use the normalized
measure (grid averages), so the L^p norm of a constant c equals |c| at every
resolution; the Parseval sum behind L^2 norms and inner products makes no
BLAS call.

Each operator is an array kernel (a private function such as _advect) that
writes its result into a given buffer, through its Workspace's transform
pair forward/inverse, and takes its scratch arrays from that workspace by
name. The owner of a workspace chooses its lattice, and one set of kernels
serves both: the field functions are thin wrappers over the kernels on
half-lattice workspaces, while the stepper of dynamics keeps one workspace
on the retained lattice of the 2/3 rule, (2 k_max + 1, k_max + 1), for a
whole run. There the pair prunes the axis-0 pass to the k_max + 1 retained
columns and gathers or scatters the retained rows, so the truncation costs
no mask multiply, and the Parseval sum pads its column sums to the half
lattice's width, so that both lattices give the same bits.

Ownership: every array a ScalarField holds is its own and read-only (the
constructor freezes what it is given; from_values and from_spectrum copy the
caller's array), so fields are immutable snapshots, safe to share across
threads. A workspace's buffers belong to its owner and never become a
field's: a field-API call makes its own workspace and returns fresh arrays.
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
    """Uniform n-by-n periodic grid on [0, 2*pi)^2: wavenumbers are integers.

    Parameters
    ----------
    n : int
        Points per dimension; must be a power of two, at least 8.

    Quadratic terms are alias-free only under the 2/3 rule (Orszag, J.
    Atmos. Sci. 28, 1971), so the truncation is fixed: the retained modes
    are |k_i| <= k_max = n // 3, at least 2 on the smallest grid.
    """

    n: int

    def __post_init__(self):
        if not (self.n >= 8 and (self.n & (self.n - 1)) == 0):
            raise ParameterError("n", f"must be a power of two >= 8, got {self.n}")

    @property
    def k_max(self) -> int:
        """Largest retained wavenumber component (integer mode index)."""
        return self.n // 3

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.n)

    def nodes(self):
        """Coordinate arrays (x, y), 'ij'-indexed."""
        x = np.arange(self.n) * (TWO_PI / self.n)
        return np.meshgrid(x, x, indexing="ij")


class SpectralTables(NamedTuple):
    """Wavenumber tables over the half lattice (n, n//2 + 1) of the spectra
    (_half_tables); _retained_tables spans the retained lattice of a
    Workspace, and tables(grid) the full (n, n) lattice. On the half and full
    lattices kx and ddx are (n, 1) columns and ky and ddy (1, cols) rows,
    which broadcast to the lattice; the retained tables are all 2-D."""

    kx: np.ndarray          # derivative wavenumber, axis 0 (Nyquist zeroed)
    ky: np.ndarray          # derivative wavenumber, axis 1 (Nyquist zeroed)
    k_mag: np.ndarray       # |k| of the raw lattice (for radial filters)
    ddx: np.ndarray         # i*kx
    ddy: np.ndarray         # i*ky
    dealias_mask: np.ndarray
    inv_neg_lap: np.ndarray  # multiplier for (-Laplace)^{-1}, zero mean mode


@lru_cache(maxsize=32)
def _tables_for(n: int, cols: int) -> SpectralTables:
    """The tables on columns 0..cols-1 (FFT order) of the (n, n) lattice."""
    modes = (np.arange(n) + n // 2) % n - n // 2  # integer mode indices, FFT order
    rx, ry = modes[:, None], modes[None, :cols]
    k_mag = np.sqrt(rx**2 + ry**2)

    # Odd derivatives of the (unpaired) Nyquist mode are sign-ambiguous;
    # zeroing it keeps derivative spectra Hermitian. The projector and the
    # inverse Laplacian use the same convention so that div(leray(v)) = 0
    # holds mode by mode.
    d1 = modes.astype(float)
    d1[n // 2] = 0.0
    kx, ky = d1[:, None], d1[None, :cols]
    ksq = kx**2 + ky**2
    ddx, ddy = 1j * kx, 1j * ky

    k_max = GridSpec(n).k_max
    dealias_mask = (np.abs(rx) <= k_max) & (np.abs(ry) <= k_max)

    inv_neg_lap = np.divide(1.0, ksq, out=np.zeros_like(ksq), where=ksq > 0)

    for arr in (kx, ky, k_mag, ddx, ddy, dealias_mask, inv_neg_lap):
        arr.setflags(write=False)
    return SpectralTables(kx, ky, k_mag, ddx, ddy, dealias_mask, inv_neg_lap)


def tables(grid: GridSpec) -> SpectralTables:
    """The tables over the full (n, n) lattice, for callers that index a full
    spectrum; the package itself reads only _half_tables."""
    return _tables_for(grid.n, grid.n)


def _half_tables(grid: GridSpec) -> SpectralTables:
    """The tables over the half lattice (n, n//2 + 1), where every spectrum lives."""
    return _tables_for(grid.n, grid.n // 2 + 1)


@lru_cache(maxsize=32)
def _retained_tables(grid: GridSpec) -> SpectralTables:
    """The tables over the retained lattice (Workspace): the half tables at
    rows k_x = 0..k_max, -k_max..-1 and columns k_y = 0..k_max, each a
    C-contiguous 2-D array (the stages multiply by them, and a broadcast
    operand makes numpy's complex multiply more than twice as slow). Its
    dealias_mask is all True."""
    k, half = grid.k_max, (grid.n, grid.n // 2 + 1)
    rows = np.r_[0 : k + 1, grid.n - k : grid.n]
    retained = [np.ascontiguousarray(np.broadcast_to(a, half)[rows, : k + 1]) for a in _half_tables(grid)]
    for arr in retained:
        arr.setflags(write=False)
    return SpectralTables(*retained)


def _fftn(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Half spectrum of real grid samples, written into out when it is given
    (numpy makes the same calls either way, so the bits are the same); every
    transform in the package goes through this pair, which looks numpy.fft up
    at call time."""
    return np.fft.rfftn(values, out=out)


def _ifftn_real(spectrum: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Inverse of _fftn: the real samples of a half spectrum, written into out
    when it is given. Columns 0 and n/2 are read as self-conjugate (see
    hermitian_defect)."""
    n = spectrum.shape[0]
    return np.fft.irfftn(spectrum, s=(n, n), axes=(0, 1), out=out)


def _uniform(lo: float, hi: float) -> bool:
    """Whether samples whose minimum is lo and maximum hi are all equal: an
    exact test with no tolerance (a NaN fails it). The one test of a
    constant density, read by elliptic.coefficient_bounds and
    dynamics._Stepper, which pass the extremes they have taken."""
    return bool(lo == hi)


class Workspace:
    """Scratch arrays of one grid for the array kernels, on one of two
    lattices that its owner chooses: the half lattice (n, n//2 + 1) of the
    fields, or the retained lattice (2 k_max + 1, k_max + 1) of the modes
    that the 2/3 rule keeps, rows k_x = 0..k_max then -k_max..-1 and columns
    k_y = 0..k_max. tables holds the wavenumber tables of that lattice,
    shape its shape, and every kernel runs on either.

    Each spectrum or sample array is allocated, zeroed, on the first request
    of its name and handed out again on every later one. The kernels
    document which names they write, so that a caller can keep its own data
    in other buffers.

    forward and inverse are the kernels' transform pair. On the retained
    lattice they are the 1-D passes of rfftn/irfftn, pruned: the axis-0
    pass runs on the k_max + 1 retained columns only, and the retained rows
    are gathered from it (forward) or scattered into zeros for it (inverse),
    all in buffers of the workspace. Each 1-D transform is the one that
    rfftn/irfftn make on that line, so a retained mode has the same bits.
    Given the number of leading columns that hold a spectrum's nonzero
    modes, such as a dyadic block's, the retained inverse runs its axis-0
    pass on those columns only."""

    __slots__ = ("grid", "retained", "tables", "shape", "_arrays")

    def __init__(self, grid: GridSpec, retained: bool = False):
        self.grid, self.retained, self._arrays = grid, retained, {}
        self.tables = _retained_tables(grid) if retained else _half_tables(grid)
        self.shape = self.tables.k_mag.shape

    def spectrum(self, name: str) -> np.ndarray:
        return self._get(name, self.shape, complex)

    def samples(self, name: str) -> np.ndarray:
        return self._get(name, self.grid.shape, float)

    def half_spectrum(self, name: str) -> np.ndarray:
        """A spectrum on the half lattice, on either lattice of the
        workspace; the retained pair writes "transform" and "scattered"."""
        n = self.grid.n
        return self._get(name, (n, n // 2 + 1), complex)

    def _get(self, name: str, shape: tuple[int, int], dtype) -> np.ndarray:
        key = (name, dtype)
        if key not in self._arrays:
            self._arrays[key] = np.zeros(shape, dtype)
        return self._arrays[key]

    def forward(self, values: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The spectrum of the samples values truncated with the 2/3 rule,
        into out; writes the "transform" buffer."""
        if not self.retained:
            _fftn(values, out=out)
            out *= self.tables.dealias_mask
            return out
        half = np.fft.rfft(values, axis=1, out=self.half_spectrum("transform"))
        cols = half[:, : self.grid.k_max + 1]
        np.fft.fft(cols, axis=0, out=cols)
        return self.gather(half, out)

    def inverse(self, spectrum: np.ndarray, out: np.ndarray, cols: int | None = None) -> np.ndarray:
        """The real samples of a spectrum, into out, given that its columns
        from cols on (default: none) are zero; writes the "scattered"
        buffer, a half spectrum whose columns above k_max it reads as zero
        (a caller that writes them zeroes them again). The
        rows are scattered into its first cols columns, zero between
        them, and the axis-0 pass runs there in place; the columns from cols
        to k_max are zeroed, and irfft then reads all n//2 + 1 columns, as a
        half spectrum holds them. Given only the k_max + 1 columns, irfft
        pads them itself, with the same bits at a higher cost. A column
        skipped is all zero, whose transform is zero, so a sample can differ
        only in the sign of an exact zero. The half lattice transforms every
        column."""
        if not self.retained:
            return _ifftn_real(spectrum, out=out)
        n, k = self.grid.n, self.grid.k_max
        cols = k + 1 if cols is None else cols
        padded = self.half_spectrum("scattered")
        lines = padded[:, :cols]
        lines[k + 1 : n - k] = 0.0
        self._scatter_rows(spectrum[:, :cols], lines)
        padded[:, cols : k + 1] = 0.0
        np.fft.ifft(lines, axis=0, out=lines)
        return np.fft.irfft(padded, n, axis=1, out=out)

    def gather(self, half: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The retained modes of a half spectrum, into out on the retained
        lattice (a retained-lattice workspace only)."""
        k = self.grid.k_max
        out[: k + 1] = half[: k + 1, : k + 1]
        out[k + 1:] = half[-k:, : k + 1]
        return out

    def scatter(self, spectrum: np.ndarray) -> np.ndarray:
        """A fresh half spectrum of a retained one, zero at every other mode
        (a retained-lattice workspace only)."""
        return self._scatter_rows(spectrum, np.zeros((self.grid.n, self.grid.n // 2 + 1), complex))

    def _scatter_rows(self, spectrum: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The retained rows of spectrum into the first k_max + 1 columns of
        out, a half spectrum (or its first columns, as many as spectrum
        has); its other entries are left as they are."""
        k = self.grid.k_max
        out[: k + 1, : k + 1] = spectrum[: k + 1]
        out[-k:, : k + 1] = spectrum[k + 1:]
        return out


def _lattice_n(spectrum: np.ndarray) -> int:
    """The grid size n of a spectrum on either lattice: n rows on the half
    lattice, 2 k_max + 1 on the retained one. There 3 k_max is n - 1 or
    n - 2, so n is the power of two of its bit length."""
    rows = spectrum.shape[0]
    return rows if rows % 2 == 0 else 1 << (3 * (rows // 2)).bit_length()


def _parseval_dot(x: np.ndarray, y: np.ndarray) -> float:
    """n^4 times the L^2 inner product (normalized measure) of the real samples
    of two spectra on one lattice. Columns 1..n/2-1 stand for their mirror
    columns too and count twice; the self-conjugate columns 0 and n/2 count
    once.

    Re(conj(x) y) is summed over the float views (re, im interleaved), with
    no BLAS call: a threaded BLAS dot spins a helper thread at large n.
    Each column is summed over its rows in order, and a retained spectrum's
    column sums are padded with zeros to the width of the half lattice. So
    on dealiased spectra both lattices give the same bits: the weighted sum
    below is a pairwise sum, whose grouping depends on the length summed.
    einsum overflows to inf without raising the floating-point flag; the
    plain sum of the column sums is returned then, so that the result is
    inf rather than the NaN (and the invalid flag) of inf - inf."""
    cols = np.einsum("ij,ij->j", x.view(float), y.view(float))
    n = _lattice_n(x)
    if cols.size < n + 2:
        cols = np.concatenate((cols, np.zeros(n + 2 - cols.size)))
    if np.isinf(cols).any():
        return float(cols.sum())
    return float(2.0 * cols.sum() - cols[:2].sum() - cols[-2:].sum())


def _parseval_l2(spectrum: np.ndarray) -> float:
    """L^2 norm (normalized measure) of the real samples of a spectrum on
    either lattice."""
    return math.sqrt(_parseval_dot(spectrum, spectrum)) / _lattice_n(spectrum) ** 2


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
    def cached_values(self) -> np.ndarray | None:
        """The samples if the field holds them, else None; no transform."""
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
    """Pair of ScalarField components on one grid. Whether a field is
    divergence-free is not recorded here: the stepper asserts it of every
    state it holds (dynamics._check_invariants)."""

    __slots__ = ("components",)

    def __init__(self, components):
        components = tuple(components)
        if len(components) != 2:
            raise ValueError("VectorField needs exactly two components")
        if components[0].grid is not components[1].grid and components[0].grid != components[1].grid:
            raise ValueError("components live on different grids")
        self.components = components

    @classmethod
    def from_arrays(cls, grid: GridSpec, vx, vy) -> "VectorField":
        return cls((ScalarField.from_values(grid, vx), ScalarField.from_values(grid, vy)))

    @classmethod
    def zero(cls, grid: GridSpec) -> "VectorField":
        return cls((ScalarField.zero(grid), ScalarField.zero(grid)))

    @property
    def grid(self) -> GridSpec:
        return self.components[0].grid

    def magnitude(self) -> np.ndarray:
        """Pointwise Euclidean length (_magnitude), as a fresh array."""
        vx, vy = (c.values for c in self.components)
        return _magnitude(vx, vy.copy(), np.empty(vx.shape))

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
        return f"VectorField(n={self.grid.n})"


Field = ScalarField | VectorField


def _magnitude_exponent(vx: np.ndarray, vy: np.ndarray) -> int:
    """The binary exponent of the largest component size; it stops at
    sys.float_info.min_exp for a subnormal size, so that 2^-e stays finite."""
    return max(math.frexp(max(vx.max(), -vx.min(), vy.max(), -vy.min()))[1], sys.float_info.min_exp)


def _magnitude(vx: np.ndarray, vy: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Pointwise Euclidean length of the samples vx, vy, into out (which may
    be vx), overwriting vy. The components are scaled by a power of two
    near their largest size, which is exact, so the squares overflow only
    where the length does; np.hypot does the same at several times the
    cost."""
    e = _magnitude_exponent(vx, vy)
    s = math.ldexp(1.0, -e)
    np.square(np.multiply(vx, s, out=out), out=out)
    out += np.square(np.multiply(vy, s, out=vy), out=vy)
    return np.ldexp(np.sqrt(out, out=out), e, out=out)


def _max_magnitude(vx: np.ndarray, vy: np.ndarray) -> float:
    """The maximum of _magnitude(vx, vy), with the same bits, overwriting vx
    and vy: sqrt and the power-of-two scaling are monotone, so the maximum
    of the scaled squares is taken first and square-rooted once."""
    e = _magnitude_exponent(vx, vy)
    s = math.ldexp(1.0, -e)
    for v in (vx, vy):
        v *= s
        np.square(v, out=v)
    vx += vy
    return float(np.ldexp(np.sqrt(vx.max()), e))


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


def apply_multiplier(f: Field, mult: np.ndarray) -> Field:
    """Multiply the spectrum of a scalar field, or of each component of a
    vector field, by mult: an array over the half lattice, or an (n, 1)
    column or (1, n//2 + 1) row that broadcasts to it."""
    n, cols = f.grid.n, f.grid.n // 2 + 1
    if mult.shape not in ((n, cols), (n, 1), (1, cols)):
        raise ValueError(f"multiplier shape {mult.shape} does not broadcast to the half lattice of n = {n}")
    if isinstance(f, VectorField):
        return VectorField(apply_multiplier(c, mult) for c in f.components)
    return ScalarField(f.grid, spectrum=f.spectrum * mult)


def gradient(f: ScalarField) -> VectorField:
    """Spectral gradient; exact for band-limited fields."""
    t = _half_tables(f.grid)
    return VectorField((apply_multiplier(f, t.ddx), apply_multiplier(f, t.ddy)))


def divergence(v: VectorField) -> ScalarField:
    vx, vy = (c.spectrum for c in v.components)
    return ScalarField(v.grid, spectrum=_divergence(vx, vy, _new_spectrum(v.grid), Workspace(v.grid)))


def curl2d(v: VectorField) -> ScalarField:
    """Scalar curl d_x(v_y) - d_y(v_x) of a planar field."""
    t = _half_tables(v.grid)
    spec = t.ddx * v.components[1].spectrum - t.ddy * v.components[0].spectrum
    return ScalarField(v.grid, spectrum=spec)


def perp_gradient(f: ScalarField) -> VectorField:
    """Rotated gradient (-d_y f, d_x f); divergence-free mode by mode."""
    t = _half_tables(f.grid)
    return VectorField((apply_multiplier(f, -t.ddy), apply_multiplier(f, t.ddx)))


def leray_project(v: VectorField) -> VectorField:
    """Remove the gradient part of v, leaving its divergence-free part.

    The scalar potential is inverted with the zero-mean convention, so the
    grid mean of v is preserved.
    """
    out = (_new_spectrum(v.grid), _new_spectrum(v.grid))
    _leray_project(*(c.spectrum for c in v.components), *out, Workspace(v.grid))
    return VectorField(ScalarField(v.grid, spectrum=o) for o in out)


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
    return _norm_of_magnitude(np.abs(f.values) if isinstance(f, ScalarField) else f.magnitude(), p)


def _norm_of_magnitude(mag: np.ndarray, p: float) -> float:
    """The L^p norm of the pointwise magnitude mag of a field."""
    if math.isinf(p):
        return float(np.max(mag))
    if p == 1:
        return float(np.mean(mag))
    if p == 2:
        return float(math.sqrt(np.mean(mag**2)))
    return float(np.mean(mag**p) ** (1.0 / p))


def dealias(f: Field) -> Field:
    """Zero every mode of a scalar field, or of each component of a vector
    field, with any wavenumber component above k_max (the 2/3 rule);
    idempotent."""
    return apply_multiplier(f, _half_tables(f.grid).dealias_mask)


def dealiased_product(f: ScalarField, g: ScalarField) -> ScalarField:
    """Pointwise product truncated with the 2/3 rule."""
    return ScalarField(f.grid, spectrum=_product(f.values, g.values, _new_spectrum(f.grid), Workspace(f.grid)))


def scale_vector(v: VectorField, f: ScalarField) -> VectorField:
    """Componentwise dealiased product f * v."""
    return VectorField(tuple(dealiased_product(f, c) for c in v.components))


def advect(u: VectorField, f: ScalarField) -> ScalarField:
    """Transport term u . grad(f), dealiased."""
    ux, uy = (c.values for c in u.components)
    return ScalarField(f.grid, spectrum=_advect(ux, uy, f.spectrum, _new_spectrum(f.grid), Workspace(f.grid)))


def self_advection(u: VectorField) -> VectorField:
    """Self-transport (u . grad) u of a divergence-free u, dealiased, in flux
    form div(u (x) u): the three dealiased products ux^2, ux uy, uy^2 cost 3
    forward transforms, where the convective form costs 4 inverse and 2
    forward. The two forms differ by u div(u), so u must be solenoidal."""
    ux, uy = (c.values for c in u.components)
    return VectorField(ScalarField(u.grid, spectrum=f.copy()) for f in _self_advection(ux, uy, Workspace(u.grid)))


def grad_inf(v: VectorField) -> float:
    """Sup norm of the Jacobian: max over components of |grad v_i|."""
    return _grad_inf(tuple(c.spectrum for c in v.components), Workspace(v.grid))


# ---------------------------------------------------------------------------
# array kernels: spectra on the workspace's lattice and samples in, results
# written into the buffers given; scratch comes from the workspace under the
# names each kernel lists (its transforms write the buffers that
# Workspace.forward and inverse name). An output may not be a buffer that
# the kernel writes as scratch, nor an input unless the kernel says so.


def _new_spectrum(grid: GridSpec) -> np.ndarray:
    return np.empty((grid.n, grid.n // 2 + 1), complex)


def _lp_norms(spectra: tuple, ps, work: Workspace, cols: int | None = None) -> dict:
    """lp_norm for each p in ps of the scalar field (one spectrum) or vector
    field (two) whose spectra on work's lattice are given: L^2 by Parseval,
    any other p from the samples, which it writes into the "u_x" and "u_y"
    samples (work.inverse, given that the columns from cols on are zero). A
    vector's sup norm alone takes _max_magnitude."""
    norms = {2: math.hypot(*(_parseval_l2(s) for s in spectra))} if 2 in ps else {}
    others = [p for p in ps if p != 2]
    if others:
        v = [work.inverse(s, work.samples(name), cols) for s, name in zip(spectra, ("u_x", "u_y"))]
        if len(v) == 2 and others == [math.inf]:
            norms[math.inf] = _max_magnitude(*v)
        else:
            mag = np.abs(v[0], out=v[0]) if len(v) == 1 else _magnitude(*v, v[0])
            norms.update((p, _norm_of_magnitude(mag, p)) for p in others)
    return norms


def _grad_inf(spectra: tuple, work: Workspace) -> float:
    """grad_inf of the vector field whose spectra on work's lattice are
    given; writes the "scratch" and "residual" spectra, and the samples that
    _lp_norms writes."""
    t, gx, gy = work.tables, work.spectrum("scratch"), work.spectrum("residual")
    norms = (_lp_norms((np.multiply(c, t.ddx, out=gx), np.multiply(c, t.ddy, out=gy)), {math.inf}, work)
             for c in spectra)
    return max(n[math.inf] for n in norms)


def _product(f: np.ndarray, g: np.ndarray, out: np.ndarray, work: Workspace) -> np.ndarray:
    """Spectrum of the 2/3-truncated product of the samples f and g,
    into out; writes the "product" samples."""
    return work.forward(np.multiply(f, g, out=work.samples("product")), out)


def _divergence(vx: np.ndarray, vy: np.ndarray, out: np.ndarray, work: Workspace) -> np.ndarray:
    """Spectrum of div v from the spectra of v, into out (which may
    be vx); writes the "scratch" spectrum."""
    t = work.tables
    np.multiply(t.ddx, vx, out=out)
    out += np.multiply(t.ddy, vy, out=work.spectrum("scratch"))
    return out


def _leray_project(vx: np.ndarray, vy: np.ndarray, out_x: np.ndarray, out_y: np.ndarray,
                   work: Workspace) -> tuple[np.ndarray, np.ndarray]:
    """Spectra of the divergence-free part of v, into out_x and out_y;
    writes the "scratch" spectrum."""
    t = work.tables
    helm = np.multiply(t.kx, vx, out=out_y)
    helm += np.multiply(t.ky, vy, out=work.spectrum("scratch"))
    helm *= t.inv_neg_lap
    np.subtract(vx, np.multiply(t.kx, helm, out=work.spectrum("scratch")), out=out_x)
    np.subtract(vy, np.multiply(t.ky, helm, out=work.spectrum("scratch")), out=out_y)
    return out_x, out_y


def _advect(ux: np.ndarray, uy: np.ndarray, f: np.ndarray, out: np.ndarray, work: Workspace) -> np.ndarray:
    """Spectrum of u . grad f, dealiased, from the samples ux, uy and the
    spectrum f, into out (which may be f); writes the "scratch" spectrum
    and the "product" and "gradient" samples."""
    t = work.tables
    gx = work.inverse(np.multiply(f, t.ddx, out=work.spectrum("scratch")), work.samples("product"))
    gy = work.inverse(np.multiply(f, t.ddy, out=work.spectrum("scratch")), work.samples("gradient"))
    np.multiply(ux, gx, out=gx)
    gx += np.multiply(uy, gy, out=gy)
    return work.forward(gx, out)


def _self_advection(ux: np.ndarray, uy: np.ndarray, work: Workspace) -> tuple[np.ndarray, np.ndarray]:
    """Spectra of (u . grad) u in flux form, dealiased, from the samples
    of a divergence-free u (self_advection); returned in the "flux_x" and
    "flux_y" spectra. Writes the "scratch" spectrum and "product" samples."""
    t = work.tables
    fx, fy, yy = work.spectrum("flux_x"), work.spectrum("flux_y"), work.spectrum("scratch")
    _product(ux, ux, fx, work)
    _product(ux, uy, fy, work)
    np.multiply(t.ddx, fx, out=fx)
    fx += np.multiply(t.ddy, fy, out=yy)  # div(xx, xy)
    _product(uy, uy, yy, work)
    np.multiply(t.ddy, yy, out=yy)
    np.multiply(t.ddx, fy, out=fy)
    fy += yy  # div(xy, yy)
    return fx, fy
