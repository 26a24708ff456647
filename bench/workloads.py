"""The three sweep workloads and the pipeline one round of each runs.

A workload turns the benchmark seed into the ``SweepConfig`` of each
round, new records every round; the program sees only those configs.

* ``desk_heavy`` - the paper's comparative grid (sizes 100..500, all four
  modalities, delta_ss on every record) through the ``groupnets`` command
  line: sweep, regress for tau_asym and delta_ss, plot.  Its time is
  spread over generation, ARPACK rho2 and the dense Kemeny-Snell solve.
* ``large_light`` - records at n = 2000 with delta_ss off, one per round,
  through the library.  The dense n-by-n distance matrix, the dense W and
  its validation and Lanczos rho2 dominate its time and memory.
* ``small_many`` - thousands of records at n = 10..50 with delta_ss on,
  through the library.  Per-call Python overhead dominates, and n < 33
  runs the power-iteration branch of ``second_eigenvalue_modulus``.
"""

from __future__ import annotations

import contextlib
import io
import time
from dataclasses import dataclass
from pathlib import Path

import groupnets.cli
import groupnets.experiments
from groupnets.experiments import SweepConfig
from groupnets.generators import MODALITIES


@dataclass(frozen=True)
class Workload:
    sizes: tuple[int, ...]
    replications: int
    heavy_metrics_max_n: int
    via_cli: bool
    # a round sweeps one modality only, in turn
    one_modality_per_round: bool = False
    # the records that get the networkx and eigendecomposition checks:
    # "every" record, those of the "first" cycle of rounds, or the
    # "sparsest" record of the first cycle (networkx path lengths on a graph
    # with a giant group at n = 2000 take minutes); the other checks cover
    # every record
    oracle: str = "every"

    @property
    def cycle(self) -> int:
        """Rounds that make up one whole pass over the workload's inputs."""
        return len(MODALITIES) if self.one_modality_per_round else 1

    def config(self, seed: int, round_index: int) -> SweepConfig:
        modalities = MODALITIES
        if self.one_modality_per_round:
            modalities = (sorted(MODALITIES)[round_index % self.cycle],)
        # every cycle of rounds sweeps new records, so that a run averages
        # over many inputs: a few records cost up to a tenth of a 500-record
        # sweep, and one config repeated per seed made the seed, not the
        # program, set the rate
        master_seed = seed * 1_000_000 + round_index // self.cycle
        return SweepConfig(
            sizes=self.sizes,
            replications=self.replications,
            modalities=modalities,
            master_seed=master_seed,
            heavy_metrics_max_n=self.heavy_metrics_max_n,
        )


WORKLOADS = {
    # networkx path lengths cost about 0.2 s a record here, so only the
    # first round gets the oracle
    "desk_heavy": Workload(
        sizes=(100, 200, 300, 400, 500), replications=3, heavy_metrics_max_n=1000,
        via_cli=True, oracle="first",
    ),
    # one record per round: its cost is heavy-tailed (a rare giant group
    # costs several times the usual), so the median over many single-record
    # rounds is steady where the mean over a few multi-record sweeps is not
    "large_light": Workload(
        sizes=(2000,), replications=1, heavy_metrics_max_n=0, via_cli=False,
        one_modality_per_round=True, oracle="sparsest",
    ),
    "small_many": Workload(
        sizes=(10, 20, 30, 40, 50), replications=25, heavy_metrics_max_n=1000,
        via_cli=False,
    ),
}

# the regression responses and the plotted metric of the command-line pipeline
REGRESS_METRICS = ("tau_asym", "delta_ss")
PLOT_METRIC = "delta_ss"


@dataclass(frozen=True)
class Outputs:
    config: Path
    csv: Path
    fits: dict[str, Path]
    svg: Path | None


def outputs_for(name: str, out_dir: Path) -> Outputs:
    config, csv = out_dir / f"{name}-config.json", out_dir / f"{name}.csv"
    if not WORKLOADS[name].via_cli:
        return Outputs(config=config, csv=csv, fits={}, svg=None)
    return Outputs(
        config=config,
        csv=csv,
        fits={m: out_dir / f"{name}-fit-{m}.json" for m in REGRESS_METRICS},
        svg=out_dir / f"{name}-{PLOT_METRIC}.svg",
    )


def _cli(argv: list[str]) -> None:
    # the command line prints its tables; keep them off the result line
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        code = groupnets.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"groupnets {argv[0]} exited {code}: {err.getvalue().strip()}")


def run_round(name: str, cfg: SweepConfig, out: Outputs) -> tuple[float, float]:
    """One pass of the workload's pipeline on ``cfg``; returns (sweep_s, pipeline_s)."""
    if WORKLOADS[name].via_cli:
        out.config.write_text(cfg.to_json_text(), encoding="utf-8")
        t0 = time.perf_counter()
        _cli(["sweep", "--config", str(out.config), "--workers", "1", "--out", str(out.csv)])
        t1 = time.perf_counter()
        for metric, path in out.fits.items():
            _cli(["regress", "--in", str(out.csv), "--metric", metric, "--out", str(path)])
        _cli(["plot", "--in", str(out.csv), "--metric", PLOT_METRIC, "--out", str(out.svg)])
        t2 = time.perf_counter()
    else:
        t0 = time.perf_counter()
        records = groupnets.experiments.run_sweep(cfg, workers=1)
        t1 = time.perf_counter()
        groupnets.experiments.write_records_csv(records, out.csv)
        t2 = time.perf_counter()
    return t1 - t0, t2 - t0


def warm_up() -> None:
    """Load the lazily imported solver paths once, outside every timing."""
    groupnets.experiments.run_sweep(
        SweepConfig(sizes=(20, 40), replications=1, heavy_metrics_max_n=1000)
    )
