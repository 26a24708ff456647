"""Monte-Carlo sweep harness: generate, measure, summarize.

A sweep walks the grid (modality, size, replication) in lexicographic
order, derives one independent random stream per cell by hashing
``(master_seed, modality, size, rep)``, and records every metric as one
CSV row.  Output is a pure function of the configuration: at a fixed BLAS
thread count the same config produces byte-identical CSV whether run
serially or on a worker pool.  Across thread counts the solver results
move in their last digits, ``delta_ss`` and ``tau_asym`` by up to
about 1e-11 relative.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from numbers import Real
from statistics import mean, stdev
from typing import Iterable

from .dynamics import (
    ConvergenceError,
    NoiseModel,
    consensus_spectrum,
    convergence_time,
    spectral_radius,
)
from .generators import MODALITIES, GenerationError, ModalityParams, generate
from .graphs import Graph, average_clustering, average_shortest_path
from .partition import MIN_POPULATION

__all__ = [
    "SweepConfig",
    "MetricsRecord",
    "SummaryRow",
    "METRIC_FIELDS",
    "CSV_FIELDS",
    "replication_seed",
    "measure",
    "compute_record",
    "run_sweep",
    "summarize",
    "write_records_csv",
    "read_records_csv",
]

METRIC_FIELDS = (
    "avg_shortest_path",
    "avg_degree",
    "density",
    "clustering",
    "lambda_max",
    "rho2",
    "tau_asym",
    "delta_ss",
)

CSV_FIELDS = ("modality", "n_requested", "n_actual", "seed", "group_count") + METRIC_FIELDS


@dataclass(frozen=True)
class SweepConfig:
    """Full description of one Monte-Carlo sweep."""

    sizes: tuple[int, ...]
    replications: int
    modalities: tuple[str, ...] = MODALITIES
    master_seed: int = 0
    params: ModalityParams = field(default_factory=ModalityParams)
    noise: NoiseModel = field(default_factory=NoiseModel)
    heavy_metrics_max_n: int = 600

    def __post_init__(self) -> None:
        if not self.sizes:
            raise ValueError("sizes must be nonempty")
        if any(a >= b for a, b in zip(self.sizes, self.sizes[1:])):
            raise ValueError("sizes must be strictly ascending")
        if self.sizes[0] < MIN_POPULATION:
            raise ValueError(f"sizes must be at least {MIN_POPULATION}, got {self.sizes[0]}")
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        unknown = [m for m in self.modalities if m not in MODALITIES]
        if unknown:
            raise ValueError(f"unknown modalities: {unknown}")
        if self.master_seed < 0:
            raise ValueError("master_seed must be nonnegative")
        sigma2 = self.noise.sigma2
        if not isinstance(sigma2, Real):
            # n_actual differs between records (liaison adds nodes)
            raise ValueError("a sweep takes one scalar noise variance, not per-node values")
        if not 0.0 <= sigma2 < math.inf:
            raise ValueError(f"noise variance must be finite and nonnegative, got {sigma2}")

    def to_json_text(self) -> str:
        payload = {
            "sizes": list(self.sizes),
            "replications": self.replications,
            "modalities": list(self.modalities),
            "master_seed": self.master_seed,
            "params": {
                "epsilon": self.params.epsilon,
                "bundle_scale": self.params.bundle_scale,
                "comember_inclusion": self.params.comember_inclusion,
                "branching_pmf": {str(k): v for k, v in self.params.branching_pmf.items()},
            },
            "noise": {"sigma2": self.noise.sigma2},
            "heavy_metrics_max_n": self.heavy_metrics_max_n,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json_text(cls, text: str) -> "SweepConfig":
        return cls.from_payload(json.loads(text))

    @classmethod
    def from_payload(cls, payload) -> "SweepConfig":
        """The config a parsed JSON document describes, every key checked."""
        if type(payload) is not dict:
            raise ValueError(f"config must be a JSON object, got {payload!r}")
        missing = [key for key in ("sizes", "replications") if key not in payload]
        if missing:
            raise ValueError(f"config is missing required keys: {missing}")
        params = payload.get("params", {})
        noise = payload.get("noise", {})
        for where, section, known in (
            ("config", payload, cls),
            ("params", params, ModalityParams),
            ("noise", noise, NoiseModel),
        ):
            if type(section) is not dict:
                raise ValueError(f"{where} must be a JSON object, got {section!r}")
            unknown = sorted(set(section) - {f.name for f in fields(known)})
            if unknown:
                raise ValueError(f"unknown {where} keys: {unknown}")
        # exact types: JSON true and false load as bools, a subclass of int
        number = (int, float)
        for section, key, kinds, what in (
            (payload, "sizes", (list,), "a list"),
            (payload, "modalities", (list,), "a list"),
            (payload, "replications", (int,), "an integer"),
            (payload, "master_seed", (int,), "an integer"),
            (payload, "heavy_metrics_max_n", (int,), "an integer"),
            (params, "epsilon", number, "a number"),
            (params, "bundle_scale", number, "a number"),
            (params, "comember_inclusion", number + (type(None),), "a number or null"),
            (params, "branching_pmf", (dict,), "an object"),
        ):
            if key in section and type(section[key]) not in kinds:
                raise ValueError(f"{key} must be {what}, got {section[key]!r}")
        if any(type(s) is not int for s in payload["sizes"]):
            raise ValueError(f"sizes must be integers, got {payload['sizes']!r}")
        kwargs = {k: float(params[k]) for k in ("epsilon", "bundle_scale") if k in params}
        if params.get("comember_inclusion") is not None:
            kwargs["comember_inclusion"] = float(params["comember_inclusion"])
        if "branching_pmf" in params:
            pmf = params["branching_pmf"]
            if not all(k.isdecimal() and type(v) in number for k, v in pmf.items()):
                raise ValueError(
                    f"branching_pmf must map integer strings to numbers, got {pmf!r}"
                )
            kwargs["branching_pmf"] = {int(k): float(v) for k, v in pmf.items()}
        sigma2 = noise.get("sigma2", 1.0)
        return cls(
            sizes=tuple(payload["sizes"]),
            replications=payload["replications"],
            modalities=tuple(payload.get("modalities", MODALITIES)),
            master_seed=payload.get("master_seed", 0),
            params=ModalityParams(**kwargs),
            noise=NoiseModel(tuple(sigma2) if isinstance(sigma2, list) else sigma2),
            heavy_metrics_max_n=payload.get("heavy_metrics_max_n", 600),
        )


@dataclass(frozen=True)
class MetricsRecord:
    """One experiment row; metric fields are None when not computed."""

    modality: str
    n_requested: int
    seed: int
    n_actual: int | None = None
    group_count: int | None = None
    avg_shortest_path: float | None = None
    avg_degree: float | None = None
    density: float | None = None
    clustering: float | None = None
    lambda_max: float | None = None
    rho2: float | None = None
    tau_asym: float | None = None
    delta_ss: float | None = None


@dataclass(frozen=True)
class SummaryRow:
    modality: str
    n: int
    metric: str
    mean: float
    std_error: float | None
    ci95: float | None
    count: int


def replication_seed(master_seed: int, modality: str, size: int, rep: int) -> int:
    """Stable 63-bit stream seed for one replication cell."""
    key = f"{master_seed}:{modality}:{size}:{rep}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big") >> 1


def measure(g: Graph, noise: NoiseModel, with_delta: bool) -> dict[str, float | None]:
    """The ``METRIC_FIELDS`` of a connected graph; delta_ss is None unless ``with_delta``.

    rho2 and delta_ss come from one ``consensus_spectrum`` call.  Raises
    ValueError on a disconnected graph before any other work.
    """
    # consensus_spectrum checks connectivity first, so it runs first
    rho2, delta = consensus_spectrum(g, noise if with_delta else None)
    m = g.edge_count
    return {
        "avg_shortest_path": average_shortest_path(g),
        "avg_degree": 2.0 * m / g.n,
        "density": 2.0 * m / (g.n * (g.n - 1)),
        "clustering": average_clustering(g),
        "lambda_max": spectral_radius(g),
        "rho2": rho2,
        "tau_asym": convergence_time(rho2),
        "delta_ss": delta,
    }


def compute_record(
    modality: str,
    size: int,
    rep: int,
    cfg: SweepConfig,
) -> MetricsRecord:
    """Generate one graph and measure it; failures yield a bare record.

    delta_ss is computed when the requested size is at most
    ``heavy_metrics_max_n``, so every replication of a cell gets it.
    """
    seed = replication_seed(cfg.master_seed, modality, size, rep)
    try:
        mg = generate(modality, size, cfg.params, seed)
        metrics = measure(mg.graph, cfg.noise, size <= cfg.heavy_metrics_max_n)
    except (GenerationError, ConvergenceError):
        # keep replication counts honest: record the failure, never resample
        return MetricsRecord(modality=modality, n_requested=size, seed=seed)
    return MetricsRecord(
        modality=modality,
        n_requested=size,
        seed=seed,
        n_actual=mg.graph.n,
        group_count=mg.group_count,
        **metrics,
    )


def _worker(task: tuple) -> MetricsRecord:
    cfg, modality, size, rep = task
    return compute_record(modality, size, rep, cfg)


def run_sweep(cfg: SweepConfig, workers: int = 1) -> list[MetricsRecord]:
    """All records of the sweep, ordered by (modality, size, rep)."""
    tasks = [
        (cfg, modality, size, rep)
        for modality in sorted(set(cfg.modalities))
        for size in cfg.sizes
        for rep in range(cfg.replications)
    ]
    if workers <= 1:
        return [_worker(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunk = max(1, len(tasks) // (4 * workers))
        return list(pool.map(_worker, tasks, chunksize=chunk))


def summarize(records: Iterable[MetricsRecord]) -> list[SummaryRow]:
    """Per (modality, n, metric) mean, standard error and 95% CI half-width."""
    cells: dict[tuple[str, int, str], list[float]] = {}
    order: list[tuple[str, int, str]] = []
    for rec in records:
        for metric in METRIC_FIELDS:
            value = getattr(rec, metric)
            if value is None:
                continue
            key = (rec.modality, rec.n_requested, metric)
            if key not in cells:
                cells[key] = []
                order.append(key)
            cells[key].append(value)
    rows = []
    for key in sorted(order):
        values = cells[key]
        if len(values) >= 2:
            sd = stdev(values)
            se = sd / len(values) ** 0.5
            ci = 1.96 * se
        else:
            se = None
            ci = None
        rows.append(
            SummaryRow(
                modality=key[0],
                n=key[1],
                metric=key[2],
                mean=mean(values),
                std_error=se,
                ci95=ci,
                count=len(values),
            )
        )
    return rows


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def write_records_csv(records: Iterable[MetricsRecord], path) -> None:
    """UTF-8, LF line endings, header fixed, missing values empty."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_FIELDS)
        for rec in records:
            writer.writerow([_format_cell(getattr(rec, f)) for f in CSV_FIELDS])


def read_records_csv(path) -> list[MetricsRecord]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != CSV_FIELDS:
            raise ValueError(f"unexpected CSV header: {header}")
        records = []
        for row in reader:
            vals = dict(zip(CSV_FIELDS, row))
            records.append(
                MetricsRecord(
                    modality=vals["modality"],
                    n_requested=int(vals["n_requested"]),
                    seed=int(vals["seed"]),
                    n_actual=int(vals["n_actual"]) if vals["n_actual"] else None,
                    group_count=int(vals["group_count"]) if vals["group_count"] else None,
                    **{
                        f: float(vals[f]) if vals[f] else None
                        for f in METRIC_FIELDS
                    },
                )
            )
    return records
