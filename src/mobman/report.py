"""Render condition-comparison metrics as markdown tables and SVG charts.

Input is one or more per-episode metrics CSV files (as written by the
simulate command). Output is a markdown summary — condition table, a 2x2
ablation matrix when both axes are present — plus deterministic SVG bar
charts. Everything is a pure function of the parsed rows, so identical
inputs always produce identical bytes.
"""
from __future__ import annotations

import csv
import math
import re
from collections import defaultdict
from pathlib import Path

import numpy as np

from .jsonl import fields_of


def _finite_nonnegative(v: float) -> bool:
    return math.isfinite(v) and v >= 0.0


# metric column -> (parser, domain check, what the check asks)
_METRIC_FIELDS = {
    "success": (int, lambda v: v in (0, 1), "0 or 1"),
    "completion_time_s": (float, _finite_nonnegative, "finite and >= 0"),
    "rollbacks": (int, lambda v: v >= 0, ">= 0"),
    "jitter": (int, lambda v: v >= 0, ">= 0"),
    "i_star_mean": (float, _finite_nonnegative, "finite and >= 0"),
}


def load_metrics(paths) -> list[dict]:
    """The rows of metrics CSVs; a value outside its column's domain is a
    MalformedInputError naming the file."""
    rows = []
    for path in paths:
        with open(path, newline="", encoding="utf-8") as fh, fields_of(path):
            for rec in csv.DictReader(fh):
                row = {"condition": rec["condition"], "scenario": rec.get("scenario", "")}
                for name, (parse, ok, rule) in _METRIC_FIELDS.items():
                    row[name] = parse(rec[name])
                    if not ok(row[name]):
                        raise ValueError(f"{name} must be {rule}, got {rec[name]}")
                rows.append(row)
    return rows


def aggregate_rows(rows: list[dict]) -> dict[str, dict]:
    by_cond: dict[str, list[dict]] = defaultdict(list)
    for r in rows:
        by_cond[r["condition"]].append(r)
    agg = {}
    for cond in sorted(by_cond):
        rs = by_cond[cond]
        agg[cond] = {
            "trials": len(rs),
            "success_rate": sum(r["success"] for r in rs) / len(rs),
            "mean_time_s": float(np.mean([r["completion_time_s"] for r in rs])),
            "mean_rollbacks": float(np.mean([r["rollbacks"] for r in rs])),
            "mean_jitter": float(np.mean([r["jitter"] for r in rs])),
            "i_star_mean": float(np.mean([r["i_star_mean"] for r in rs])),
        }
    return agg


# ---------------------------------------------------------------------------
# Markdown
# ---------------------------------------------------------------------------

_MATRIX_AXES = {
    ("on", "relative"),
    ("on", "global"),
    ("off", "relative"),
    ("off", "global"),
}
_AXES_NAME = re.compile(r"match_(on|off)_label_(relative|global)")


def _condition_axes(name: str) -> tuple[str, str] | None:
    """(matching, label frame) of a 'match_<on|off>_label_<relative|global>'
    name, the form simulate writes; None for any other name."""
    m = _AXES_NAME.fullmatch(name)
    return m.groups() if m else None


def markdown_report(rows: list[dict], title: str = "Condition comparison") -> str:
    agg = aggregate_rows(rows)
    lines = [f"# {title}", ""]
    scenarios = sorted({r["scenario"] for r in rows if r["scenario"]})
    if scenarios:
        lines.append(f"Scenario(s): {', '.join(scenarios)}")
        lines.append("")
    lines.append(
        "| condition | trials | success | mean time [s] | rollbacks | jitter | mean i* |"
    )
    lines.append("|---|---|---|---|---|---|---|")
    for cond, a in agg.items():
        lines.append(
            f"| {cond} | {a['trials']} | {a['success_rate']:.1%} "
            f"| {a['mean_time_s']:.2f} | {a['mean_rollbacks']:.2f} "
            f"| {a['mean_jitter']:.2f} | {a['i_star_mean']:.2f} |"
        )
    lines.append("")

    # 2x2 ablation matrix when the conditions are exactly its four cells
    cells = {_condition_axes(cond): a["success_rate"] for cond, a in agg.items()}
    if set(cells) == _MATRIX_AXES:
        lines.append("## Ablation matrix (success rate)")
        lines.append("")
        lines.append("| | chest-relative labels | global labels |")
        lines.append("|---|---|---|")
        lines.append(
            f"| matching on | {cells[('on', 'relative')]:.1%} | {cells[('on', 'global')]:.1%} |"
        )
        lines.append(
            f"| matching off | {cells[('off', 'relative')]:.1%} | {cells[('off', 'global')]:.1%} |"
        )
        lines.append("")
    lines.append(
        "Jitter counts the proxy metric: forward-velocity sign reversals in the "
        "half second after a chunk splice."
    )
    lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# SVG charts (hand-rolled; no plotting dependency, byte-deterministic)
# ---------------------------------------------------------------------------

_COLORS = ("#4878a8", "#b85450", "#82b366", "#9673a6", "#d6b656", "#76608a")


def _svg_text(text: str) -> str:
    """text as SVG character data: &, < and > escaped. Not xml.sax.saxutils,
    whose import pulls in urllib.request and adds to every CLI start-up."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _svg(width: int, height: int, body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
    )
    style = (
        "<style>text{font-family:monospace;font-size:11px;fill:#333}"
        ".t{font-size:13px}</style>"
    )
    return "\n".join([head, style, *body, "</svg>"]) + "\n"


def bar_chart_svg(
    title: str,
    groups: list[str],
    series: dict[str, list[float]],
    y_label: str = "",
) -> str:
    """Grouped vertical bar chart. groups = x categories, series = legend.
    Every text is escaped, so a name may hold any character."""
    width, height = 560, 300
    left, right, top, bottom = 60, 20, 40, 60
    plot_w, plot_h = width - left - right, height - top - bottom
    vmax = max((max(v) for v in series.values() if v), default=1.0)
    vmax = vmax if vmax > 0 else 1.0
    n_g, n_s = max(len(groups), 1), max(len(series), 1)
    slot = plot_w / n_g
    bar_w = slot * 0.8 / n_s
    body = [f'<text class="t" x="{left}" y="20">{_svg_text(title)}</text>']
    if y_label:
        body.append(f'<text x="6" y="{top - 8}">{_svg_text(y_label)}</text>')
    body.append(
        f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" '
        f'y2="{top + plot_h}" stroke="#999"/>'
    )
    for frac in (0.0, 0.5, 1.0):
        y = top + plot_h * (1 - frac)
        body.append(
            f'<text x="{left - 54}" y="{y + 4:.1f}">{vmax * frac:.3g}</text>'
        )
        body.append(
            f'<line x1="{left - 4}" y1="{y:.1f}" x2="{left}" y2="{y:.1f}" stroke="#999"/>'
        )
    for si, (name, values) in enumerate(series.items()):
        color = _COLORS[si % len(_COLORS)]
        body.append(
            f'<rect x="{left + plot_w - 150}" y="{26 + 14 * si}" width="10" '
            f'height="10" fill="{color}"/>'
        )
        body.append(
            f'<text x="{left + plot_w - 136}" y="{35 + 14 * si}">{_svg_text(name)}</text>'
        )
        for gi, v in enumerate(values):
            h = plot_h * min(v, vmax) / vmax
            x = left + gi * slot + slot * 0.1 + si * bar_w
            y = top + plot_h - h
            body.append(
                f'<rect x="{x:.2f}" y="{y:.2f}" width="{bar_w:.2f}" '
                f'height="{h:.2f}" fill="{color}"/>'
            )
    for gi, g in enumerate(groups):
        x = left + gi * slot + slot / 2
        body.append(
            f'<text x="{x:.1f}" y="{top + plot_h + 16}" text-anchor="middle">{_svg_text(g)}</text>'
        )
    return _svg(width, height, body)


def i_star_histogram_svg(rows: list[dict]) -> str:
    """Histogram of per-episode mean splice offsets, one series per condition."""
    by_cond: dict[str, list[float]] = defaultdict(list)
    for r in rows:
        by_cond[r["condition"]].append(r["i_star_mean"])
    edges = np.arange(0.0, 6.5, 0.5)
    groups = [f"{edges[i]:.1f}" for i in range(len(edges) - 1)]
    series = {}
    for cond in sorted(by_cond):
        hist, _ = np.histogram(by_cond[cond], bins=edges)
        series[cond] = [float(h) for h in hist]
    return bar_chart_svg(
        "mean splice offset i* per episode", groups, series, y_label="episodes"
    )


def counts_bars_svg(rows: list[dict]) -> str:
    agg = aggregate_rows(rows)
    groups = list(agg)
    series = {
        "rollbacks": [agg[c]["mean_rollbacks"] for c in groups],
        "jitter": [agg[c]["mean_jitter"] for c in groups],
    }
    return bar_chart_svg("mean rollback / jitter events per episode", groups, series)


# the files write_report writes, in the order it returns them
REPORT_FILES = ("report.md", "i_star_hist.svg", "event_counts.svg")


def write_report(rows: list[dict], out_dir, title: str = "Condition comparison") -> list[Path]:
    """Write report.md plus the SVG charts; returns the written paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    texts = (markdown_report(rows, title), i_star_histogram_svg(rows), counts_bars_svg(rows))
    written = [out / name for name in REPORT_FILES]
    for path, text in zip(written, texts):
        path.write_text(text, encoding="utf-8")
    return written
