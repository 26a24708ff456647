"""Command-line surface: gen, metrics, sweep, regress, plot.

Batch tool; every subcommand reads and writes declared files only and is
deterministic given ``--seed``.  Exit codes: 0 success, 1 usage error,
2 computation error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .dynamics import NoiseModel
from .experiments import (
    METRIC_FIELDS,
    SweepConfig,
    measure,
    read_records_csv,
    run_sweep,
    write_records_csv,
)
from .generators import MODALITIES, ModalityParams, generate
from .graphs import GraphDocument, write_edge_list
from .partition import MIN_POPULATION
from .regression import build_design, fit_ols, fit_to_json_dict, format_fit_table
from .svgplot import PlotSpec, plot_file

__all__ = ["main", "build_parser"]


class _UsageError(Exception):
    def __init__(self, message: str, parser: argparse.ArgumentParser):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse API
        raise _UsageError(message, self)


def _population(text: str) -> int:
    n = int(text)
    if n < MIN_POPULATION:
        raise argparse.ArgumentTypeError(f"must be at least {MIN_POPULATION}, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="groupnets",
        description="Generate multi-group networks and measure their dynamics.",
    )
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p_gen = sub.add_parser("gen", help="generate one graph and write it to a file")
    p_gen.add_argument("--modality", required=True, choices=MODALITIES)
    p_gen.add_argument("--n", required=True, type=_population, help="number of group members")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--eps", type=float, default=0.1,
                       help="intra-group edge absence probability (default 0.1)")
    p_gen.add_argument("--bundle-scale", type=float, default=0.05,
                       help="edge-bundle size coefficient (default 0.05)")
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--format", choices=("json", "edges", "dot"), default="json")
    p_gen.set_defaults(func=_cmd_gen)

    p_met = sub.add_parser("metrics", help="compute metrics of a stored graph")
    p_met.add_argument("--in", dest="input", required=True, help="JSON graph document")
    p_met.add_argument("--out", default=None, help="output JSON (default stdout)")
    p_met.add_argument("--heavy-max-n", type=int, default=600,
                       help="skip delta_ss above this node count (default 600)")
    p_met.set_defaults(func=_cmd_metrics)

    p_sweep = sub.add_parser("sweep", help="run a Monte-Carlo sweep to CSV")
    p_sweep.add_argument("--config", default=None, help="SweepConfig JSON file")
    p_sweep.add_argument("--sizes", default=None, help="comma-separated sizes")
    p_sweep.add_argument("--reps", type=int, default=None)
    p_sweep.add_argument("--seed", type=int, default=None, help="master seed")
    p_sweep.add_argument("--eps", type=float, default=None)
    p_sweep.add_argument("--bundle-scale", type=float, default=None)
    p_sweep.add_argument("--heavy-max-n", type=int, default=None)
    p_sweep.add_argument("--workers", type=int, default=1)
    p_sweep.add_argument("--out", required=True)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_reg = sub.add_parser("regress", help="fit the comparative model on sweep CSV")
    p_reg.add_argument("--in", dest="input", required=True, help="records CSV")
    p_reg.add_argument("--metric", required=True, choices=METRIC_FIELDS,
                       help="response metric")
    p_reg.add_argument("--out", default=None, help="write the fit as JSON here")
    p_reg.set_defaults(func=_cmd_regress)

    p_plot = sub.add_parser("plot", help="render an SVG line chart from sweep CSV")
    p_plot.add_argument("--in", dest="input", required=True, help="records CSV")
    p_plot.add_argument("--metric", required=True, choices=METRIC_FIELDS)
    p_plot.add_argument("--out", required=True, help="output SVG path")
    p_plot.set_defaults(func=_cmd_plot)

    return parser


def _cmd_gen(args) -> None:
    params = ModalityParams(epsilon=args.eps, bundle_scale=args.bundle_scale)
    mg = generate(args.modality, args.n, params, args.seed)
    doc = mg.to_document()
    if args.format == "json":
        doc.write(args.out)
    elif args.format == "edges":
        write_edge_list(mg.graph, args.out)
    else:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(doc.to_dot())


def _cmd_metrics(args) -> None:
    doc = GraphDocument.read(args.input)
    g = doc.to_graph()
    payload = {
        "modality": doc.modality,
        "seed": doc.seed,
        "n_actual": g.n,
        "group_count": len(doc.groups),
        **measure(g, NoiseModel(1.0), g.n <= args.heavy_max_n),
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_sweep(args) -> None:
    payload = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            payload = json.loads(fh.read())
    elif args.sizes is None or args.reps is None:
        raise ValueError("without --config, both --sizes and --reps are required")
    # the flags override the file's keys and go through the same checks
    if type(payload) is dict:
        sizes = None if args.sizes is None else [int(s) for s in args.sizes.split(",")]
        flags = {"sizes": sizes, "replications": args.reps, "master_seed": args.seed,
                 "heavy_metrics_max_n": args.heavy_max_n}
        payload.update((k, v) for k, v in flags.items() if v is not None)
        params = {"epsilon": args.eps, "bundle_scale": args.bundle_scale}
        params = {k: v for k, v in params.items() if v is not None}
        if params and type(payload.setdefault("params", {})) is dict:
            payload["params"].update(params)
    cfg = SweepConfig.from_payload(payload)
    records = run_sweep(cfg, workers=args.workers)
    write_records_csv(records, args.out)
    failed = sum(1 for r in records if r.n_actual is None)
    sys.stderr.write(f"wrote {len(records)} records to {args.out}")
    if failed:
        sys.stderr.write(f" ({failed} failed)")
    sys.stderr.write("\n")


def _cmd_regress(args) -> None:
    records = read_records_csv(args.input)
    X, y = build_design(records, args.metric)
    fit = fit_ols(X, y, response=args.metric)
    sys.stdout.write(format_fit_table(fit))
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(json.dumps(fit_to_json_dict(fit), indent=2, sort_keys=True) + "\n")


def _cmd_plot(args) -> None:
    plot_file(PlotSpec(metric=args.metric, input_path=args.input, output_path=args.out))


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        exc.parser.print_usage(sys.stderr)
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    if getattr(args, "func", None) is None:
        parser.print_help(sys.stderr)
        return 1
    try:
        args.func(args)
    except (ValueError, KeyError, OSError, RuntimeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
