"""Span tracing of the dampedeuler layers from outside the package.

While a `Tracer` is installed, every public function of the layer modules
(`fields`, `littlewood_paley`, `elliptic`, `dynamics`, `diagnostics`, `cli`,
`config`) is replaced by a wrapper that records a span, and so are
`numpy.fft.fftn` and `numpy.fft.ifftn`, which the package looks up at call
time. A function is rebound in every `dampedeuler.*` namespace that holds the
same object, because modules import each other's functions by name (for
example `dynamics` binds `solve_pressure`). Calls made through private
helpers or preset tables reach wrapped functions only below them, so their
own work counts as the self time of the nearest wrapped caller.

A span is (name, start, end, parent); spans are kept in memory and written
out when the benchmark ends. A span's self time is its duration minus the
time its child spans cover. The program is single-threaded at the Python
level, so child spans nest inside their parent and never overlap.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time

import numpy as np

LAYERS = ("fields", "littlewood_paley", "elliptic", "dynamics", "diagnostics", "cli", "config")
FFT_NAMES = ("numpy.fft.fftn", "numpy.fft.ifftn")
SOLVE = "elliptic.solve_pressure"
STEP = "dynamics.step_rk4"
RECORD_SOLVE_PARENT = "dynamics.pressure_gradient"


class Tracer:
    """Records spans of the wrapped functions between install() and uninstall()."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.iterations: dict[int, int] = {}  # solve span -> PressureSolution.iterations
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, func):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self._stack,
        )
        clock = time.perf_counter
        iterations = self.iterations if name == SOLVE else None

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = func(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if iterations is not None:
                iterations[idx] = result.iterations
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        originals = {}
        for layer in LAYERS:
            module = importlib.import_module(f"dampedeuler.{layer}")
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    originals[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "dampedeuler" and not mod_name.startswith("dampedeuler."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(module, attr, hit[1])
        for attr in ("fftn", "ifftn"):
            self._patch(np.fft, attr, self._wrap(f"numpy.fft.{attr}", getattr(np.fft, attr)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


class Spans:
    """A finished trace as arrays, with self times."""

    def __init__(self, tracer: Tracer):
        self.names = list(tracer.names)
        self.name_id = np.asarray(tracer.name_id, dtype=np.int64)
        self.parent = np.asarray(tracer.parent, dtype=np.int64)
        self.start = np.asarray(tracer.start, dtype=float)
        self.end = np.asarray(tracer.end, dtype=float)
        self.duration = self.end - self.start
        child = self.parent >= 0
        covered = np.bincount(
            self.parent[child], weights=self.duration[child], minlength=len(self.duration)
        )
        self.self_time = self.duration - covered
        self.iterations = np.full(len(self.duration), -1, dtype=np.int64)
        for idx, its in tracer.iterations.items():
            self.iterations[idx] = its

    def is_named(self, *names: str) -> np.ndarray:
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.name_id, ids)

    def nearest_ancestor(self, *names: str) -> np.ndarray:
        """Index of each span's nearest strict ancestor named in names, or -1."""
        target = self.is_named(*names)
        out = np.full(len(self.parent), -1, dtype=np.int64)
        cursor = self.parent.copy()
        pending = cursor >= 0
        # one pass per tree level: move every unresolved cursor to its parent
        while pending.any():
            hit = pending & target[np.maximum(cursor, 0)]
            out[hit] = cursor[hit]
            pending &= ~hit
            cursor[pending] = self.parent[cursor[pending]]
            pending &= cursor >= 0
        return out

    def inclusive_s(self, name: str) -> float:
        """Time under spans of one name, not counting a span nested in another of that name."""
        outer = self.is_named(name) & (self.nearest_ancestor(name) < 0)
        return float(self.duration[outer].sum())

    def self_s(self, *names: str) -> float:
        return float(self.self_time[self.is_named(*names)].sum())

    def root_s(self) -> float:
        return float(self.duration[self.parent < 0].sum())

    def layer_self_s(self) -> dict[str, float]:
        """Self time per layer; transforms count as `fields` time."""
        per_name = np.bincount(self.name_id, weights=self.self_time, minlength=len(self.names))
        out = {layer: 0.0 for layer in LAYERS}
        for name, seconds in zip(self.names, per_name.tolist()):
            out["fields" if name in FFT_NAMES else name.split(".")[0]] += seconds
        return out

    def save(self, path) -> None:
        t0 = self.start.min() if len(self.start) else 0.0
        np.savez_compressed(
            path, names=np.asarray(self.names), name_id=self.name_id, parent=self.parent,
            start=self.start - t0, end=self.end - t0, iterations=self.iterations,
        )


def _ms_percentile(durations: np.ndarray, q: float) -> float:
    return float(np.percentile(durations, q)) * 1e3 if len(durations) else 0.0


def _mean(values: np.ndarray) -> float:
    return float(values.mean()) if len(values) else 0.0


def run_metrics(spans: Spans) -> dict[str, float]:
    """Per-layer metrics of one traced `dampedeuler run`."""
    fft = spans.is_named(*FFT_NAMES)
    steps = spans.is_named(STEP)
    solves = spans.is_named(SOLVE)
    records = spans.is_named("diagnostics.make_record")
    n_steps = int(steps.sum())

    # a solve belongs to the nearer of an enclosing step and record solve
    site = spans.nearest_ancestor(STEP, RECORD_SOLVE_PARENT)
    has_site = solves & (site >= 0)
    site = np.maximum(site, 0)
    iters = spans.iterations
    iters_step = iters[has_site & spans.is_named(STEP)[site]]
    iters_record = iters[has_site & spans.is_named(RECORD_SOLVE_PARENT)[site]]

    metrics = {
        "fields.fft_calls": int(fft.sum()),
        "fields.fft_per_step": (
            int((fft & (spans.nearest_ancestor(STEP) >= 0)).sum()) / n_steps if n_steps else 0.0
        ),
        "fields.fft_self_s": spans.self_s(*FFT_NAMES),
        "fields.advect_s": spans.self_s("fields.advect"),
        "fields.dealias_s": spans.self_s("fields.dealias"),
        "fields.gradient_s": spans.self_s("fields.gradient"),
        "fields.lp_norm_s": spans.self_s("fields.lp_norm"),
        "elliptic.solves": int(solves.sum()),
        "elliptic.iters_step": _mean(iters_step),
        "elliptic.iters_record": _mean(iters_record),
        "elliptic.iters_step_total": int(iters_step.sum()),
        "elliptic.iters_record_total": int(iters_record.sum()),
        "elliptic.iters_max": int(iters[solves].max()) if solves.any() else 0,
        "elliptic.solve_s": spans.inclusive_s(SOLVE),
        "elliptic.solve_self_s": spans.self_s(SOLVE),
        "elliptic.fft_calls": int((fft & (spans.nearest_ancestor(SOLVE) >= 0)).sum()),
        "dynamics.steps": n_steps,
        "dynamics.step_ms_p50": _ms_percentile(spans.duration[steps], 50),
        "dynamics.step_ms_p90": _ms_percentile(spans.duration[steps], 90),
        "dynamics.step_self_s": spans.self_s(STEP),
        "dynamics.momentum_forcing_s": spans.inclusive_s("dynamics.momentum_forcing"),
        "dynamics.density_rhs_s": spans.inclusive_s("dynamics.density_rhs"),
        "diagnostics.records": int(records.sum()),
        "diagnostics.make_record_ms_p50": _ms_percentile(spans.duration[records], 50),
        "diagnostics.record_s": (
            spans.inclusive_s("diagnostics.make_record")
            + spans.inclusive_s(RECORD_SOLVE_PARENT)
        ),
        "littlewood_paley.besov_norm_calls": int(spans.is_named("littlewood_paley.besov_norm").sum()),
        "littlewood_paley.besov_norm_s": spans.inclusive_s("littlewood_paley.besov_norm"),
        "littlewood_paley.build_filter_bank_s": spans.inclusive_s("littlewood_paley.build_filter_bank"),
        "config.load_s": spans.inclusive_s("config.load_config"),
        "cli.write_records_csv_s": spans.inclusive_s("cli.write_records_csv"),
        "cli.build_summary_s": spans.inclusive_s("cli.build_summary"),
    }
    for layer, seconds in spans.layer_self_s().items():
        metrics[f"{layer}.self_s"] = seconds
    return metrics


# counts that must repeat exactly between runs of one source tree and seed
DETERMINISTIC = (
    "fields.fft_calls",
    "elliptic.solves",
    "elliptic.iters_step_total",
    "elliptic.iters_record_total",
    "elliptic.iters_max",
    "elliptic.fft_calls",
    "dynamics.steps",
    "diagnostics.records",
    "littlewood_paley.besov_norm_calls",
    "elliptic.iters_contrast_1.2",
    "elliptic.iters_contrast_2",
    "elliptic.iters_contrast_4",
    "elliptic.iters_contrast_10",
    "dynamics.fft_per_step_uniform_n64",
    "dynamics.fft_per_step_variable_n64",
)


def _smooth_random_vector(grid, rng):
    """Seeded forcing for the pressure probes: white noise shaped by exp(-|k|/4), dealiased."""
    from dampedeuler.fields import ScalarField, VectorField, dealias, tables

    k_mag = tables(grid).k_mag
    comps = []
    for _ in range(2):
        white = np.fft.fftn(rng.standard_normal(grid.shape))
        comps.append(dealias(ScalarField.from_spectrum(grid, white * np.exp(-k_mag / 4.0))))
    return VectorField(comps)


def _fft_pair_us(n: int, rng) -> float:
    """Median time of one fftn + ifftn pair on real n x n data, in microseconds."""
    x = rng.standard_normal((n, n))
    np.fft.ifftn(np.fft.fftn(x)).real  # plan caches
    t0 = time.perf_counter()
    np.fft.ifftn(np.fft.fftn(x)).real
    reps = max(1, int(0.02 / max(time.perf_counter() - t0, 1e-7)))
    blocks = []
    for _ in range(9):
        t0 = time.perf_counter()
        for _ in range(reps):
            np.fft.ifftn(np.fft.fftn(x)).real
        blocks.append((time.perf_counter() - t0) / reps)
    return float(np.median(blocks)) * 1e6


def probe_metrics(seed: int) -> dict[str, float]:
    """Layer probes by direct call, outside any `run`."""
    from dampedeuler import dynamics, elliptic
    from dampedeuler.fields import GridSpec

    rng = np.random.default_rng(seed)
    grid = GridSpec(n=64)
    metrics = {}
    forcing = _smooth_random_vector(grid, rng)
    for contrast in (1.2, 2.0, 4.0, 10.0):
        rho = dynamics.rho_gaussian_bump(grid, amplitude=contrast - 1.0)
        solution = elliptic.solve_pressure(rho, forcing)
        metrics[f"elliptic.iters_contrast_{contrast:g}"] = solution.iterations

    for label, gamma, ic in (
        ("uniform", 1, dynamics.ICRecipe()),
        ("variable", 0, dynamics.ICRecipe(rho_preset="single_mode",
                                          rho_params={"k": 1, "amplitude": 0.2})),
    ):
        config = dynamics.SimConfig(alpha=1.0, gamma=gamma, grid=grid, dt=1e-3, t_end=1e-3, ic=ic)
        state = dynamics.initial_state(config)
        with Tracer() as tracer:
            dynamics.step_rk4(state, config)
        metrics[f"dynamics.fft_per_step_{label}_n64"] = int(Spans(tracer).is_named(*FFT_NAMES).sum())

    for n in (64, 128, 256):
        metrics[f"fields.fft_pair_us_n{n}"] = _fft_pair_us(n, rng)
    return metrics
