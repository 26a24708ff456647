"""Minimal SVG line charts: one series per modality, 95% CI bands.

No plotting dependency; the chart is a fixed 800x500 viewBox with
linear axes, built directly as SVG text so output is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .experiments import METRIC_FIELDS, MetricsRecord, SummaryRow, read_records_csv, summarize

__all__ = ["PlotSpec", "MODALITY_COLORS", "render_line_chart", "plot_metric"]

# convention: red bridge, purple edge bundle, green co-membership, blue liaison
MODALITY_COLORS = {
    "bridge": "#d62728",
    "edge_bundle": "#9467bd",
    "comembership": "#2ca02c",
    "liaison": "#1f77b4",
}

_W, _H = 800, 500
_ML, _MR, _MT, _MB = 70, 150, 40, 60


@dataclass(frozen=True)
class PlotSpec:
    metric: str
    input_path: str
    output_path: str

    def __post_init__(self) -> None:
        if self.metric not in METRIC_FIELDS:
            raise ValueError(
                f"metric {self.metric!r} is not a sweep CSV column; "
                f"expected one of {METRIC_FIELDS}"
            )


def _nice_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    step = 10 ** math.floor(math.log10(span / target))
    for mult in (1, 2, 5, 10):
        if span / (step * mult) <= target:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * span:
        ticks.append(round(t, 10))
        t += step
    return ticks


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _fmt_tick(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return f"{x:g}"


def render_line_chart(summaries: Sequence[SummaryRow], metric: str) -> str:
    """SVG text for per-modality mean curves of one metric with CI bands."""
    rows = [r for r in summaries if r.metric == metric]
    if not rows:
        raise ValueError(f"no summary rows carry the metric {metric!r}")
    series: dict[str, list[SummaryRow]] = {}
    for r in rows:
        series.setdefault(r.modality, []).append(r)
    for mod in series:
        series[mod].sort(key=lambda r: r.n)

    xs = sorted({r.n for r in rows})
    y_lo = min(r.mean - (r.ci95 or 0.0) for r in rows)
    y_hi = max(r.mean + (r.ci95 or 0.0) for r in rows)
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad
    x_lo, x_hi = min(xs), max(xs)
    if x_hi == x_lo:
        x_hi = x_lo + 1

    def sx(x: float) -> float:
        return _ML + (x - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def sy(y: float) -> float:
        return _H - _MB - (y - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_W} {_H}" '
        f'font-family="sans-serif" font-size="13">',
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
    ]
    # axes
    parts.append(
        f'<line x1="{_ML}" y1="{_H-_MB}" x2="{_W-_MR}" y2="{_H-_MB}" stroke="black"/>'
    )
    parts.append(f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H-_MB}" stroke="black"/>')
    for t in _nice_ticks(x_lo, x_hi):
        if t < x_lo or t > x_hi:
            continue
        x = sx(t)
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{_H-_MB}" x2="{_fmt(x)}" y2="{_H-_MB+5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_fmt(x)}" y="{_H-_MB+20}" text-anchor="middle">{_fmt_tick(t)}</text>'
        )
    for t in _nice_ticks(y_lo, y_hi):
        if t < y_lo or t > y_hi:
            continue
        y = sy(t)
        parts.append(
            f'<line x1="{_ML-5}" y1="{_fmt(y)}" x2="{_ML}" y2="{_fmt(y)}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_ML-8}" y="{_fmt(y+4)}" text-anchor="end">{_fmt_tick(t)}</text>'
        )
    parts.append(
        f'<text x="{(_ML + _W - _MR)/2:.1f}" y="{_H-15}" text-anchor="middle">network size</text>'
    )
    parts.append(
        f'<text x="18" y="{(_MT + _H - _MB)/2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 18 {(_MT + _H - _MB)/2:.1f})">{metric}</text>'
    )

    for mod in sorted(series):
        color = MODALITY_COLORS.get(mod, "black")
        pts = series[mod]
        banded = [r for r in pts if r.ci95 is not None]
        if len(banded) >= 2:
            upper = [(sx(r.n), sy(r.mean + r.ci95)) for r in banded]
            lower = [(sx(r.n), sy(r.mean - r.ci95)) for r in reversed(banded)]
            path = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in upper + lower)
            parts.append(f'<polygon points="{path}" fill="{color}" fill-opacity="0.15"/>')
        path = " ".join(f"{_fmt(sx(r.n))},{_fmt(sy(r.mean))}" for r in pts)
        parts.append(
            f'<polyline points="{path}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        for r in pts:
            parts.append(
                f'<circle cx="{_fmt(sx(r.n))}" cy="{_fmt(sy(r.mean))}" r="3" fill="{color}"/>'
            )

    # legend, top-right
    lx = _W - _MR + 15
    ly = _MT + 10
    for i, mod in enumerate(sorted(series)):
        color = MODALITY_COLORS.get(mod, "black")
        y = ly + 22 * i
        parts.append(
            f'<line x1="{lx}" y1="{y}" x2="{lx+24}" y2="{y}" stroke="{color}" stroke-width="3"/>'
        )
        parts.append(f'<text x="{lx+30}" y="{y+4}">{mod}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def plot_metric(records: Iterable[MetricsRecord], metric: str, out_path) -> None:
    svg = render_line_chart(summarize(records), metric)
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(svg)


def plot_file(spec: PlotSpec) -> None:
    """Render a sweep CSV straight to an SVG file."""
    plot_metric(read_records_csv(spec.input_path), spec.metric, spec.output_path)
