"""One `dampedeuler run` in a fresh interpreter, timed.

Usage: python3 one_run.py <src-dir> <config.json> <out-dir> [<spans.npz> <seed>]

First the set-up: importing `dampedeuler` (and with it numpy), parsing the
config, building the initial state, the filter bank and the spectral
tables. Then the timed run: `cli.main(["run", ...])` in this process. With
a spans path, the run is traced (see tracing.py), the spans are written
there and the layer probes follow the run. Prints one JSON line with the
exit code, the resolved config, setup_s, run_s, run_cpu_s, peak_rss_mb and,
when traced, the per-layer metrics.
"""

import json
import resource
import sys
import time


def main() -> int:
    src, config_path, out_dir = sys.argv[1:4]
    spans_path = sys.argv[4] if len(sys.argv) > 4 else None
    sys.path.insert(0, src)
    start = time.perf_counter()
    from dampedeuler import cli, config, dynamics, fields, littlewood_paley

    resolved = config.load_config(config_path)
    sim = config.build_sim_config(resolved)
    dynamics.initial_state(sim)
    littlewood_paley.build_filter_bank(sim.grid)
    fields.tables(sim.grid)
    setup_s = time.perf_counter() - start

    tracer = None
    if spans_path is not None:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        code = cli.main(["run", "--config", config_path, "--out", out_dir])
    finally:
        run_s, run_cpu_s = time.perf_counter() - wall0, time.process_time() - cpu0
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "exit_code": code,
        "config": resolved,
        "setup_s": setup_s,
        "run_s": run_s,
        "run_cpu_s": run_cpu_s,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        spans = tracing.Spans(tracer)
        spans.save(spans_path)
        layer = tracing.run_metrics(spans)
        layer["trace.run_s"] = spans.root_s()
        layer.update(tracing.probe_metrics(int(sys.argv[5])))
        result["layer"] = layer
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
