import tracemalloc

import numpy as np
import pytest

from dampedeuler.fields import GridSpec, ScalarField, VectorField
from dampedeuler.verify import random_dealiased_field


@pytest.fixture(scope="session")
def grid64():
    return GridSpec(n=64)


@pytest.fixture(scope="session")
def grid16():
    return GridSpec(n=16)


def fd_gradient(values, length, axis):
    """Fourth-order centered finite differences on the periodic grid."""
    n = values.shape[axis]
    h = length / n

    def shift(k):
        return np.roll(values, -k, axis=axis)

    return (-shift(2) + 8 * shift(1) - 8 * shift(-1) + shift(-2)) / (12 * h)


def fd_gradient6(values, length, axis):
    """Sixth-order centered finite differences (tight oracle for smooth data)."""
    n = values.shape[axis]
    h = length / n

    def shift(k):
        return np.roll(values, -k, axis=axis)

    return (
        shift(3) - 9 * shift(2) + 45 * shift(1) - 45 * shift(-1) + 9 * shift(-2) - shift(-3)
    ) / (60 * h)


def low_band_field(grid, rng, k_cut=5):
    """Random real field with spectrum confined to |k_i| <= k_cut."""
    white = np.fft.fftn(rng.standard_normal(grid.shape))
    modes = np.fft.fftfreq(grid.n, d=1.0 / grid.n)
    mx, my = np.meshgrid(np.abs(modes), np.abs(modes), indexing="ij")
    mask = (mx <= k_cut) & (my <= k_cut)
    f = ScalarField.from_spectrum(grid, white * mask)
    peak = np.abs(f.values).max()
    return ScalarField.from_values(grid, f.values / peak)


def random_band_limited(grid, rng):
    """Smooth random scalar with spectrally decaying, dealiased content."""
    return random_dealiased_field(grid, rng)


def random_band_limited_vector(grid, rng):
    return VectorField((random_band_limited(grid, rng), random_band_limited(grid, rng)))


def bump_run_doc(amplitude):
    """The run configuration of the bump_contrast4_n64 benchmark workload
    with the given bump amplitude, cut to ten steps."""
    return {
        "physics": {"alpha": 1.0, "gamma": 0},
        "grid": {"n": 64},
        "time": {"dt": 2e-3, "t_end": 0.02, "record_every": 10},
        "ic": {
            "u_preset": "random_shell", "u_params": {"j": 2, "amplitude": 0.25},
            "rho_preset": "gaussian_bump", "rho_params": {"width": 0.8, "amplitude": amplitude},
            "seed": 0,
        },
    }


def count_transforms(monkeypatch, action) -> int:
    """The 2-D real transforms that action() makes, on either lattice: an
    rfftn or irfftn, or the pruned pair of a retained-lattice workspace,
    which makes one 1-D rfft or irfft per 2-D transform. action() may make
    no complex 2-D transform."""
    calls = dict.fromkeys(("rfftn", "irfftn", "rfft", "irfft", "fftn", "ifftn"), 0)
    for name in calls:
        def counted(*args, _name=name, _transform=getattr(np.fft, name), **kwargs):
            calls[_name] += 1
            return _transform(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    action()
    monkeypatch.undo()
    assert calls["fftn"] == calls["ifftn"] == 0
    return calls["rfftn"] + calls["irfftn"] + calls["rfft"] + calls["irfft"]


def traced_peak(fn) -> int:
    """The peak bytes that tracemalloc traces above its baseline while fn()
    runs."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
