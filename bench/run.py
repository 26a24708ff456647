"""Sweep benchmark of groupnets.

    python3 bench/run.py --workload desk_heavy --seed 1 --seconds 15 --trace 0

Runs one workload (see ``workloads.py``) in this process with one worker,
running its pipeline in rounds until ``--seconds`` of pipeline time have
been measured, then checks the outputs against computations made
apart from the program (``checks.py``).  The last line of standard output
is one JSON object: ``correct``, records ``attempted`` and ``failed``
(failed means an empty ``n_actual``), and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones: ``setup_s``
(median over fresh processes of start until the program, numpy and scipy
are imported and the config is built), ``records_per_s`` and
``pipeline_s`` (medians over rounds) and ``peak_rss_mb``.  The times are
scaled to a nominal host speed sampled during each round and after each
set-up (``reference.py``).  With ``--trace 1`` every public function of the
package is timed from outside (``tracer.py``) and the per-layer metrics are
reported per round instead, with the traced run's own ``records_per_s``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import source

source.prepare()

import checks  # noqa: E402  (the imports below need the source path set up above)
import workloads  # noqa: E402
from reference import NOMINAL_S, HostSpeed  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
OUT_DIR = BENCH / "out"
SETUP_PROBES = 7
# a repeated config (the traced run's memory round) must reproduce its rows to this
ROUND_RTOL = 1e-9


def measure_setup(workload: str, seed: int) -> float:
    """Median nominal seconds from process start to a built config, over fresh processes."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        ready, reference_s = map(float, proc.stdout.split()[-2:])
        samples.append((ready - t0) * NOMINAL_S / reference_s)
    return statistics.median(samples)


def same_rows(rows: list[dict], reference: list[dict]) -> bool:
    if len(rows) != len(reference):
        return False
    for row, ref in zip(rows, reference):
        for col, value in row.items():
            expected = ref[col]
            if isinstance(value, float) and isinstance(expected, float):
                if not math.isclose(value, expected, rel_tol=ROUND_RTOL):
                    return False
            elif value != expected:
                return False
    return True


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    name = args.workload
    spec = workloads.WORKLOADS[name]
    setup_s = None if args.trace else measure_setup(name, args.seed)
    speed = HostSpeed()

    OUT_DIR.mkdir(exist_ok=True)
    outputs = workloads.outputs_for(name, OUT_DIR)
    workloads.warm_up()

    pipeline_times, rates = [], []  # nominal seconds and records per nominal second
    measured_s = 0.0
    distinct = {}  # config JSON -> (config, rows of its first round)
    latest_rows = []
    attempted = failed = 0
    problems = []

    def one_round(cfg, tracer: Tracer | None) -> tuple[float, float]:
        nonlocal attempted, failed, latest_rows
        if tracer:
            tracer.install()
        try:
            sweep_s, pipeline_s = workloads.run_round(name, cfg, outputs)
        finally:
            if tracer:
                tracer.uninstall()
        rows = latest_rows = checks.read_rows(outputs.csv)
        completed = sum(1 for r in rows if r["n_actual"] is not None)
        attempted += len(rows)
        failed += len(rows) - completed
        key = cfg.to_json_text()
        if key not in distinct:
            distinct[key] = (cfg, rows)
        elif not same_rows(rows, distinct[key][1]):
            problems.append(f"a repeated round's records differ from its first run ({cfg})")
        return completed / sweep_s, pipeline_s

    tracer = Tracer() if args.trace else None
    while (not pipeline_times or measured_s < args.seconds
           or len(pipeline_times) % spec.cycle):
        with speed.sampling():
            rate, pipeline_s = one_round(spec.config(args.seed, len(pipeline_times)), tracer)
        measured_s += pipeline_s
        rates.append(rate / speed.scale())
        pipeline_times.append(pipeline_s * speed.scale())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        # one more round for the per-call peak memory, kept out of the times
        memory = Tracer(memory=True)
        one_round(spec.config(args.seed, 0), memory)

    configs = list(distinct.values())
    # row positions that get the oracle checks, per config; None means all
    samples = [None] * len(configs)
    if spec.oracle != "every":
        first = len(configs[:spec.cycle])
        samples = [None] * first + [()] * (len(configs) - first)
    if spec.oracle == "sparsest":
        # twice the edge count of each completed record of the first cycle
        edges = {(i, pos): row["avg_degree"] * row["n_actual"]
                 for i, (_, rows) in enumerate(configs[:spec.cycle])
                 for pos, row in enumerate(rows) if row["n_actual"] is not None}
        samples = [()] * len(configs)
        if edges:
            i, pos = min(edges, key=edges.get)
            samples[i] = (pos,)
    for (cfg, rows), sample in zip(configs, samples):
        problems += checks.check_records(rows, cfg, sample)
    # the regression and the chart on disk come from the last round
    for metric, path in outputs.fits.items():
        problems += checks.check_fit(latest_rows, metric, path)
    if outputs.svg is not None:
        problems += checks.check_svg(outputs.svg, latest_rows, workloads.PLOT_METRIC)

    rounds = len(pipeline_times)
    if tracer:
        metrics = tracer.metrics(rounds)
        metrics.update((k, v) for k, v in memory.metrics(1).items() if k.endswith(".peak_mb"))
        metrics["traced_records_per_s"] = (statistics.median(rates), "records/s")
        metrics["trace.top_level_share"] = (tracer.top_level_seconds / measured_s, "ratio")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "records_per_s": (statistics.median(rates), "records/s"),
            "pipeline_s": (statistics.median(pipeline_times), "s"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
        }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if tracer:
        trace_path = OUT_DIR / f"{name}-seed{args.seed}-trace.json"
        trace_path.write_text(json.dumps(
            {"workload": name, "seed": args.seed, "rounds": rounds, **result},
            indent=2) + "\n", encoding="utf-8")

    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"{name} seed {args.seed}: {rounds} rounds, {attempted} records attempted, "
          f"{failed} failed, checks {'passed' if not problems else 'FAILED'}")
    print(f"  {measured_s:.3g} s of pipeline measured; reference pass mean "
          f"{1e3 * statistics.fmean(speed.samples):.4g} ms, nominal {1e3 * NOMINAL_S:.4g} ms")
    for key, (value, unit) in metrics.items():
        print(f"  {key} = {value:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
