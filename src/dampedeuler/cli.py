"""Command-line entry points: run, check, verify, sweep.

Exit codes: 0 success, 1 configuration error (or an output that already
exists, or a bad THREADS), 2 runtime invariant abort (partial output is
kept), 3 a checked condition does not hold (check: the governing smallness
condition; verify: a self-check). sweep writes one directory <param>=<value>
per value, with the value in %g form when that reads back exactly and in
repr form otherwise. Outputs are never overwritten: run and sweep refuse,
before any simulation starts, when an output path or a non-directory --out exists.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys

from . import __version__
from .config import (ConfigError, build_sim_config, load_config, named_keys, resolve_config,
                     smallness_params)
from .diagnostics import (
    InitialNorms,
    bkm_report,
    bkm_tail_geometric,
    csv_columns,
    energy_balance_residual,
    fit_decay_rate,
    initial_norms,
    smallness_gamma0_general,
    smallness_gamma1_2d,
    smallness_gamma1_general,
)
from .dynamics import initial_state, run_simulation
from .littlewood_paley import build_filter_bank

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_ABORT = 2
EXIT_NOT_SATISFIED = 3


def _fmt(x: float) -> str:
    return f"{x:.16e}"


def write_records_csv(path: str, records, n_indices: int) -> None:
    with open(path, "w", newline="\n") as out:
        out.write(",".join(csv_columns(n_indices)) + "\n")
        for r in records:
            out.write(",".join(_fmt(x) for x in r.row()) + "\n")


def condition_reports(config, params, norms: InitialNorms | None = None) -> list:
    """The smallness reports for config, from norms or else its initial state."""
    if norms is None:
        norms = initial_norms(initial_state(config), build_filter_bank(config.grid))
    reports = [smallness_gamma1_general(norms, config.alpha, params)]
    if config.gamma == 1:
        reports.append(smallness_gamma1_2d(norms, config.alpha, params))
    else:
        reports.append(smallness_gamma0_general(norms, config.alpha, params))
    return reports


def governing_report(reports, gamma: int):
    """The report whose verdict decides `check`: the planar condition for
    gamma = 1, the general pair for gamma = 0."""
    wanted = "gamma1_2d" if gamma == 1 else "gamma0_general"
    return next(r for r in reports if r.theorem_id == wanted)


def _fit_or_none(records, attr, index=None):
    series = []
    for r in records:
        value = getattr(r, attr)
        if index is not None:
            value = value[index]
        series.append((r.t, value))
    try:
        fit = fit_decay_rate(series)
    except ValueError:
        return None
    return {"rate": fit.rate, "intercept": fit.intercept,
            "r_squared": fit.r_squared, "window": list(fit.window)}


def build_summary(resolved: dict, config, result) -> dict:
    summary = {
        "version": __version__,
        "config": resolved,
        "completed": not result.failed,
        "failure": result.failure,
        "conditions": [],
        "decay_fits": {},
        "energy_balance_residual": None,
        "bkm": None,
        "telemetry": result.telemetry,
    }
    if config.alpha > 0:
        params = smallness_params(resolved)
        reports = condition_reports(config, params, result.initial_norms)
        summary["conditions"] = [r.as_dict() for r in reports]
    records = result.records
    if len(records) >= 5:
        summary["decay_fits"]["l2_u"] = _fit_or_none(records, "l2_u")
        summary["decay_fits"]["l2_gradPi"] = _fit_or_none(records, "l2_grad_pi")
        for i in range(len(config.besov_indices)):
            summary["decay_fits"][f"besov_u_{i}"] = _fit_or_none(records, "besov_u", i)
    if len(records) >= 3:
        try:
            summary["energy_balance_residual"] = energy_balance_residual(
                records, config.gamma, config.alpha
            )
        except ValueError:
            pass
    if len(records) >= 2:
        integral, increments = bkm_report(records)
        summary["bkm"] = {
            "integral": integral,
            "tail_increments": increments[-10:],
            "tail_geometric": bkm_tail_geometric(increments),
        }
    return summary


def _run_outputs(out_dir: str) -> tuple[str, str]:
    """The records.csv and summary.json paths of a run into out_dir."""
    return os.path.join(out_dir, "records.csv"), os.path.join(out_dir, "summary.json")


def _refuse_existing(command: str, out_dir: str, paths) -> bool:
    """Report an out_dir whose nearest existing ancestor (out_dir itself
    included) is not a directory, or else the first of paths that exists;
    True if either."""
    target = base = os.path.abspath(out_dir)
    while not os.path.lexists(base):  # stops at the root at the latest
        base = os.path.dirname(base)
    if not os.path.isdir(base):
        below = "" if base == target else f"lies below {base}, which "
        print(f"{command} error: --out {out_dir} {below}exists and is not a directory",
              file=sys.stderr)
        return True
    existing = next((p for p in paths if os.path.exists(p)), None)
    if existing is not None:
        print(f"{command} error: {existing} exists; refusing to overwrite it", file=sys.stderr)
    return existing is not None


def _run_to_dir(resolved: dict, out_dir: str) -> dict:
    """Run one resolved config into out_dir (records.csv, summary.json) and
    return the summary; out_dir is made only once the run has ended."""
    config = build_sim_config(resolved)
    with named_keys():
        result = run_simulation(config)
    os.makedirs(out_dir, exist_ok=True)
    records_path, summary_path = _run_outputs(out_dir)
    write_records_csv(records_path, result.records, len(config.besov_indices))
    summary = build_summary(resolved, config, result)
    with open(summary_path, "w") as out:
        json.dump(summary, out, indent=2)
        out.write("\n")
    return summary


def cmd_run(config_path: str, out_dir: str) -> int:
    if _refuse_existing("run", out_dir, _run_outputs(out_dir)):
        return EXIT_CONFIG
    summary = _run_to_dir(load_config(config_path), out_dir)
    if not summary["completed"]:
        print(f"run aborted: {summary['failure']}", file=sys.stderr)
        return EXIT_ABORT
    return EXIT_OK


def cmd_check(config_path: str) -> int:
    resolved = load_config(config_path)
    config = build_sim_config(resolved)
    with named_keys():
        reports = condition_reports(config, smallness_params(resolved))
    print(json.dumps([r.as_dict() for r in reports], indent=2))
    verdict = governing_report(reports, config.gamma)
    return EXIT_OK if verdict.satisfied else EXIT_NOT_SATISFIED


def run_verification(level: str) -> list:
    """verify.run_verification, imported on the first call, so that the
    other commands do not load the self-checks."""
    from .verify import run_verification

    return run_verification(level)


def cmd_verify(level: str) -> int:
    checks = run_verification(level)
    width = max(len(c.name) for c in checks)
    all_ok = True
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        all_ok &= c.passed
        print(f"{c.name:<{width}}  {status}  ({c.seconds:6.2f}s)  {c.detail}")
    print(f"verification {'passed' if all_ok else 'FAILED'} at level {level!r}")
    return EXIT_OK if all_ok else EXIT_NOT_SATISFIED


def _set_config_key(doc: dict, dotted: str, value) -> None:
    *parents, last = dotted.split(".")
    node = doc
    for part in parents:
        node = node.get(part) if isinstance(node, dict) else None
    if not isinstance(node, dict) or last not in node:
        raise ConfigError(dotted, "unknown config key")
    node[last] = value


def _parse_value(text: str):
    """A sweep value: int when the text is an integer, float otherwise."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def _value_label(value) -> str:
    short = f"{value:g}"
    return short if float(short) == value else repr(value)


def cmd_sweep(config_path: str, param: str, values: list, out_dir: str) -> int:
    if not values:
        print("sweep error: empty value list", file=sys.stderr)
        return EXIT_CONFIG
    labels = [_value_label(v) for v in values]
    if len(set(labels)) != len(labels):
        print(f"sweep error: duplicate values in {labels}", file=sys.stderr)
        return EXIT_CONFIG
    workers = os.environ.get("THREADS", "")
    if workers and not (workers.strip().isdecimal() and int(workers) > 0):
        print(f"sweep error: THREADS must be a positive integer, got {workers!r}", file=sys.stderr)
        return EXIT_CONFIG
    resolved = load_config(config_path)
    docs = []
    for value in values:  # reject every bad value before any run starts
        doc = copy.deepcopy(resolved)
        _set_config_key(doc, param, value)
        docs.append(resolve_config(doc))
    dirs = [os.path.join(out_dir, f"{param}={label}") for label in labels]
    summary_path = os.path.join(out_dir, "sweep_summary.json")
    if _refuse_existing("sweep", out_dir, [*dirs, summary_path]):
        return EXIT_CONFIG
    os.makedirs(out_dir, exist_ok=True)

    max_workers = int(workers) if workers else (os.cpu_count() or 1)
    max_workers = max(1, min(max_workers, len(docs)))
    if max_workers == 1:
        summaries = [_run_to_dir(doc, d) for doc, d in zip(docs, dirs)]
    else:
        from concurrent.futures import ProcessPoolExecutor  # loaded by sweep alone

        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            summaries = list(pool.map(_run_to_dir, docs, dirs))

    sweep_summary = {
        "param": param,
        "values": values,
        "runs": dict(zip(labels, summaries)),
    }
    with open(summary_path, "w") as out:
        json.dump(sweep_summary, out, indent=2)
        out.write("\n")
    failed = any(not s["completed"] for s in summaries)
    return EXIT_ABORT if failed else EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dampedeuler",
        description="Pseudo-spectral damped variable-density Euler solver",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate one configuration")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)

    p_check = sub.add_parser("check", help="evaluate the smallness conditions")
    p_check.add_argument("--config", required=True)

    p_verify = sub.add_parser("verify", help="run the self-verification suite")
    p_verify.add_argument("--level", choices=("quick", "full"), default="quick")

    p_sweep = sub.add_parser("sweep", help="run one config over a parameter list")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--param", required=True, help="dotted config key, e.g. physics.alpha")
    p_sweep.add_argument("--values", required=True, help="comma-separated numbers")
    p_sweep.add_argument("--out", required=True)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    if args.command == "verify":
        return cmd_verify(args.level)
    try:
        if args.command == "run":
            return cmd_run(args.config, args.out)
        if args.command == "check":
            return cmd_check(args.config)
        if args.command == "sweep":
            try:
                values = [_parse_value(v) for v in args.values.split(",") if v.strip() != ""]
            except ValueError:
                print(f"sweep error: cannot parse values {args.values!r}", file=sys.stderr)
                return EXIT_CONFIG
            return cmd_sweep(args.config, args.param, values, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
