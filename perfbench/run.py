"""Benchmark of `dampedeuler run` on fixed workloads.

Run from the repository root:

    python3 perfbench/run.py --workload tg_uniform_n256 --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 40 --trace 0

The package is imported from `src/` of the tree the script sits in; nothing
is installed. Load model: closed loop with one client. Each run is a fresh
interpreter (one_run.py) that sets up and then makes one in-process
`cli.main(["run", ...])` call; runs follow one another, never overlapping,
with no pool and no extra threads. BLAS keeps the machine's default thread
setting. Runs are repeated while the next one, at the median length so far,
still fits in `--seconds` (at least one), and the figures are medians over
the runs.

`--trace 0` reports the end-to-end metrics:

    run_s        wall seconds of the `run` call: stepping, records,
                 records.csv and summary.json
    run_cpu_s    process CPU seconds over the same call, all threads, so a
                 BLAS helper thread counts
    setup_s      importing dampedeuler, parsing the config and building the
                 initial state, filter bank and spectral tables, before the
                 timed call
    peak_rss_mb  peak resident set of the run's process
    fail_share   failed runs / attempted runs; a run fails if it does not
                 exit 0 or fails its output check (printed, and carried by
                 "failed" and "attempted" in the result line)

`--trace 1` makes untraced runs for half of `--seconds`, then one traced run
followed by the layer probes of tracing.py, and reports the per-layer
metrics. `trace.overhead` is the traced run's wall time over the untraced
median, minus one.

Output checks: Taylor-Green's final l2_u must equal exp(-alpha t) l2_u(0)
to 1e-6 relative. The other workloads must complete, their energy must not
increase from record to record, and rho_min/rho_max must stay inside the
initial range. Every run of one source tree at one seed must write the same
records.csv bytes; the sha256 is kept in perfbench/out/ and compared across
benchmark processes too. The deterministic counters of traced runs are kept
the same way, and any that differ are flagged.

Each run leaves its outputs, a result file with the run metadata and, when
traced, the spans (spans.npz) under perfbench/out/<workload>/seed<seed>/.
The last line of standard output is the JSON result
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracing import DETERMINISTIC, LAYERS
from workloads import WORKLOADS, run_config

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
RUN_TIMEOUT_S = 150
DECAY_RTOL = 1e-6
# the solver's own density watchdog bound (dynamics.DENSITY_DRIFT_TOL, in
# the README): spectral truncation moves the extremes at rounding level
DENSITY_RTOL = 1e-6
END_TO_END = (("run_s", "s"), ("run_cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


@dataclass
class RunOutcome:
    wall_s: float  # the whole child process, for pacing
    report: dict  # one_run.py's JSON line, empty if it printed none
    records_sha256: str | None = None
    problems: list[str] = field(default_factory=list)


def source_digest() -> str:
    """sha256 over the package sources: identifies the program under test."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "dampedeuler").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        capture_output=True, text=True, check=False,
    )
    return proc.stdout.strip() if proc.returncode == 0 else None


def blas_library() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def run_metadata(workload: str, seed: int, trace: int, seconds: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "blas": blas_library(),
        "blas_threads": {
            var: os.environ.get(var, "default")
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        },
    }


def read_records(path: Path) -> list[dict[str, float]]:
    with open(path, newline="") as handle:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(handle)]


def check_outputs(check: str, alpha: float, out_dir: Path) -> list[str]:
    """Problems found in one run's records.csv and summary.json."""
    with open(out_dir / "summary.json") as handle:
        summary = json.load(handle)
    if not summary["completed"]:
        return [f"run did not complete: {summary['failure']}"]
    rows = read_records(out_dir / "records.csv")
    if len(rows) < 2:
        return [f"expected at least 2 records, got {len(rows)}"]
    first, last = rows[0], rows[-1]
    problems = []
    if check == "exact_decay":
        expected = math.exp(-alpha * last["t"]) * first["l2_u"]
        err = abs(last["l2_u"] - expected) / expected
        if err > DECAY_RTOL:
            problems.append(f"final l2_u off exp(-alpha t) l2_u(0) by {err:.3e} relative")
    elif check == "dissipative":
        for a, b in zip(rows, rows[1:]):
            if b["energy"] > a["energy"]:
                problems.append(f"energy increased at t = {b['t']:.6g}")
                break
        lo, hi = first["rho_min"], first["rho_max"]
        rho_min = min(r["rho_min"] for r in rows)
        rho_max = max(r["rho_max"] for r in rows)
        if rho_min < lo - DENSITY_RTOL * hi or rho_max > hi * (1.0 + DENSITY_RTOL):
            problems.append(
                f"density range [{rho_min:.17g}, {rho_max:.17g}] left [{lo:.17g}, {hi:.17g}]"
            )
    else:
        raise ValueError(f"unknown check {check!r}")
    return problems


def one_run(config_path: Path, out_dir: Path, check: str, alpha: float,
            traced: tuple[Path, int] | None = None) -> RunOutcome:
    """One run in a fresh interpreter, then its output checks."""
    shutil.rmtree(out_dir, ignore_errors=True)
    cmd = [sys.executable, str(BENCH_DIR / "one_run.py"), str(SRC), str(config_path), str(out_dir)]
    if traced is not None:
        cmd += [str(traced[0]), str(traced[1])]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        return RunOutcome(time.perf_counter() - start, {}, problems=["run timed out"])
    outcome = RunOutcome(time.perf_counter() - start, {})
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        outcome.problems.append(f"run process exited with {proc.returncode}")
        return outcome
    outcome.report = json.loads(lines[-1])
    if outcome.report["exit_code"] != 0:
        outcome.problems.append(f"dampedeuler run exit code {outcome.report['exit_code']}")
        return outcome
    outcome.records_sha256 = hashlib.sha256((out_dir / "records.csv").read_bytes()).hexdigest()
    outcome.problems += check_outputs(check, alpha, out_dir)
    return outcome


def timed_runs(config_path: Path, run_dir: Path, seconds: float, check: str,
               alpha: float) -> list[RunOutcome]:
    """Runs back to back while the next one, at the median length so far, fits
    in `seconds`; at least one."""
    deadline = time.perf_counter() + seconds
    outcomes = []
    while not outcomes or (
        time.perf_counter() + statistics.median(o.wall_s for o in outcomes) <= deadline
    ):
        outcomes.append(one_run(config_path, run_dir / f"run{len(outcomes)}", check, alpha))
    return outcomes


def load_expected(path: Path) -> dict:
    if path.exists():
        with open(path) as handle:
            return json.load(handle)
    return {}


def check_rerun_identity(outcomes: list[RunOutcome], expected: dict) -> None:
    """Every passing run must match the records.csv bytes of the first one
    ever seen for this source tree and seed."""
    for outcome in outcomes:
        if outcome.problems or outcome.records_sha256 is None:
            continue
        reference = expected.setdefault("records_sha256", outcome.records_sha256)
        if outcome.records_sha256 != reference:
            outcome.problems.append(
                f"records.csv sha256 {outcome.records_sha256} != {reference} of an earlier run"
            )


def flag_counters(layer: dict, expected: dict) -> list[str]:
    stored = expected.setdefault("counters", {})
    flags = []
    for name in DETERMINISTIC:
        if name in stored and stored[name] != layer[name]:
            flags.append(f"{name}: {layer[name]} != {stored[name]} of an earlier run")
        stored.setdefault(name, layer[name])
    return flags


def unit_of(metric: str) -> str:
    if metric.endswith(("_ms_p50", "_ms_p90")):
        return "ms"
    if metric.endswith("_s"):
        return "s"
    if "_us_" in metric:
        return "us"
    if metric.endswith("_bytes"):
        return "bytes"
    if metric == "trace.overhead":
        return "ratio"
    return "count"


def layer_metrics(report: dict, out_dir: Path, untraced_run_s: float) -> dict:
    layer = dict(report["layer"])
    layer["cli.output_bytes"] = sum(
        (out_dir / name).stat().st_size for name in ("records.csv", "summary.json")
    )
    layer["trace.overhead"] = layer["trace.run_s"] / untraced_run_s - 1.0
    self_sum = sum(layer[f"{name}.self_s"] for name in LAYERS)
    if abs(self_sum - layer["trace.run_s"]) > 1e-6 * layer["trace.run_s"]:
        raise SystemExit(f"layer self times {self_sum} s do not add up to the "
                         f"traced run {layer['trace.run_s']} s")
    print(f"layer self times sum to {self_sum:.4f} s = traced run_s "
          f"{layer['trace.run_s']:.4f} s; untraced median {untraced_run_s:.4f} s")
    return layer


def benchmark(workload_name: str, seed: int, seconds: int, trace: int) -> int:
    workload = WORKLOADS[workload_name]
    run_dir = OUT / workload_name / f"seed{seed}"
    run_dir.mkdir(parents=True, exist_ok=True)
    config_doc = run_config(workload, seed)
    config_path = run_dir / "config.json"
    with open(config_path, "w") as handle:
        json.dump(config_doc, handle, indent=2)
    alpha = float(config_doc["physics"]["alpha"])
    meta = run_metadata(workload_name, seed, trace, seconds)
    expected_path = run_dir / f"expected_{meta['src_sha256'][:16]}.json"
    expected = load_expected(expected_path)

    # a traced benchmark keeps the traced run and the probes inside --seconds
    untraced_s = seconds if trace == 0 else seconds / 2
    outcomes = timed_runs(config_path, run_dir, untraced_s, workload.check, alpha)
    reports = [o.report for o in outcomes if o.report]
    if not reports:
        raise SystemExit("no run reported: " + "; ".join(outcomes[0].problems))
    meta["config"] = reports[0]["config"]
    print("meta " + json.dumps(meta, sort_keys=True), flush=True)
    flags = []
    if trace == 0:
        metrics = {
            name: (statistics.median(r[name] for r in reports), unit)
            for name, unit in END_TO_END
        }
    else:
        traced = one_run(config_path, run_dir / "traced", workload.check, alpha,
                         traced=(run_dir / "spans.npz", seed))
        outcomes.append(traced)
        if not traced.report:
            raise SystemExit("the traced run reported nothing: " + "; ".join(traced.problems))
        layer = layer_metrics(traced.report, run_dir / "traced",
                              statistics.median(r["run_s"] for r in reports))
        flags = flag_counters(layer, expected)
        metrics = {name: (value, unit_of(name)) for name, value in layer.items()}

    check_rerun_identity(outcomes, expected)
    with open(expected_path, "w") as handle:
        json.dump(expected, handle, indent=2, sort_keys=True)

    failed = sum(1 for o in outcomes if o.problems)
    for i, o in enumerate(outcomes):
        for problem in o.problems:
            print(f"run {i} FAILED: {problem}", file=sys.stderr)
    for flag in flags:
        print(f"FLAG deterministic counter differs: {flag}", file=sys.stderr)

    walls = [round(r["run_s"], 4) for r in reports]
    print(f"{workload_name} seed={seed} trace={trace}: {len(outcomes)} runs; untraced run_s {walls}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:.6g} {unit}")
    print(f"  {'fail_share':<40} {failed / len(outcomes):.6g} ({failed} of {len(outcomes)} runs)")

    result = {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(run_dir / f"result_trace{trace}.json", "w") as handle:
        json.dump({"meta": meta, "result": result, "counter_flags": flags,
                   "runs": [{"process_wall_s": o.wall_s, "problems": o.problems,
                             "records_sha256": o.records_sha256,
                             **{k: o.report.get(k) for k, _ in END_TO_END}}
                            for o in outcomes]},
                  handle, indent=2)
    print(json.dumps(result))
    return 0


def all_workloads(seed: int, seconds: int, trace: int) -> int:
    """Every workload in its own benchmark process, one after another."""
    table = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(line for line in lines[:-1] if not line.startswith("meta ")))
        if proc.returncode != 0:
            print(f"{name}: benchmark exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        table[name] = json.loads(lines[-1])
    metric_names = list(dict.fromkeys(m for r in table.values() for m in r["metrics"]))
    print(f"\n{'metric':<40}" + "".join(f"{w:>22}" for w in table))
    for metric in metric_names:
        cells = []
        for r in table.values():
            m = r["metrics"].get(metric)
            cells.append(f"{m['value']:.6g} {m['unit']}" if m else "-")
        print(f"{metric:<40}" + "".join(f"{c:>22}" for c in cells))
    shares = "".join(f"{r['failed'] / r['attempted']:>22.6g}" for r in table.values())
    print(f"{'fail_share':<40}{shares}")
    print(json.dumps(table))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "dampedeuler" / "__init__.py").is_file():
        print(f"no dampedeuler sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return all_workloads(args.seed, args.seconds, args.trace)
    return benchmark(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
