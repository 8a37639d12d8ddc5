"""The package entry points that the benchmark (perfbench/) calls: the
set-up of one_run.py on each workload, and the layer probes of tracing.py,
whose contrast probes are deterministic pressure iteration counts."""

import json
from pathlib import Path

import pytest

from dampedeuler import config, dynamics, fields, littlewood_paley

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads

    return tracing, workloads


def test_one_run_setup_on_every_workload(perfbench, tmp_path):
    _, workloads = perfbench
    for name, workload in workloads.WORKLOADS.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(workloads.run_config(workload, 0)))
        sim = config.build_sim_config(config.load_config(str(path)))
        dynamics.initial_state(sim)
        littlewood_paley.build_filter_bank(sim.grid)
        fields.tables(sim.grid)


def test_probe_metrics(perfbench):
    tracing, _ = perfbench
    metrics = tracing.probe_metrics(0)
    contrasts = [metrics[f"elliptic.iters_contrast_{c:g}"] for c in (1.2, 2.0, 4.0, 10.0)]
    assert contrasts == [8, 14, 10, 12]
