"""The benchmark's workloads: fixed `dampedeuler run` configurations.

Each workload is one JSON run configuration. The benchmark's `--seed` becomes
`ic.seed`, which seeds the `random_shell` velocity (the Taylor-Green workload
has no random input, so its seed changes nothing). The three workloads stress
different layers, so that a change to one layer shows on one workload and
leaves another unchanged:

* `tg_uniform_n256` bypasses the iterative pressure solve (uniform density
  takes the diagonal path) and records only at its two ends, so transforms
  and stage arithmetic in `fields` and `dynamics` dominate.
* `bump_contrast4_n64` spends most of its time in the iterative
  `elliptic.solve_pressure` at density contrast about 4.
* `records_dense_n128` records every step with six Besov indices, so
  `diagnostics`, `littlewood_paley.besov_norm`, the cold per-record pressure
  solve and the CSV/JSON output dominate.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict
    # "exact_decay": final l2_u must equal exp(-alpha t) * l2_u(0);
    # "dissipative": energy never increases and density stays in range
    check: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="tg_uniform_n256",
            why="uniform density at n=256: transforms and stage arithmetic dominate, "
                "the pressure solve is diagonal; the exact exp(-alpha t) decay is the oracle",
            config={
                "physics": {"alpha": 0.5, "gamma": 1},
                "grid": {"n": 256},
                "time": {"dt": 1e-3, "t_end": 0.04, "record_every": 40},
                "ic": {"u_preset": "taylor_green", "rho_preset": "constant"},
            },
            check="exact_decay",
        ),
        Workload(
            name="bump_contrast4_n64",
            why="density contrast 4 at n=64: the iterative pressure solve takes most "
                "of the time; pressure-solver changes show here and not on tg_uniform_n256",
            config={
                "physics": {"alpha": 1.0, "gamma": 0},
                "grid": {"n": 64},
                "time": {"dt": 2e-3, "t_end": 0.2, "record_every": 100},
                "ic": {
                    "u_preset": "random_shell",
                    "u_params": {"j": 2, "amplitude": 0.25},
                    "rho_preset": "gaussian_bump",
                    "rho_params": {"width": 0.8, "amplitude": 3.0},
                },
            },
            check="dissipative",
        ),
        Workload(
            name="records_dense_n128",
            why="a record every step with six Besov indices at n=128: diagnostics, "
                "Besov norms, cold record solves and CSV/JSON output dominate",
            config={
                "physics": {"alpha": 1.0, "gamma": 1},
                "grid": {"n": 128},
                "time": {"dt": 5e-3, "t_end": 0.15, "record_every": 1},
                "ic": {
                    "u_preset": "random_shell",
                    "u_params": {"j": 2, "amplitude": 0.25},
                    "rho_preset": "single_mode",
                    "rho_params": {"k": 1, "amplitude": 0.05},
                },
                "track": {
                    "besov_indices": [
                        [1, "inf", 1], [0, 2, 2], [2, 2, 1],
                        [0.5, "inf", "inf"], [1, 2, 1], [1.5, "inf", 1],
                    ]
                },
            },
            check="dissipative",
        ),
    )
}


def run_config(workload: Workload, seed: int) -> dict:
    """The workload's run configuration with `ic.seed` set to the seed."""
    doc = copy.deepcopy(workload.config)
    doc["ic"]["seed"] = seed
    return doc
