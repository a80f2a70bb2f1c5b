"""Deterministic file outputs: JSON, RFC-4180-style CSV, and static SVG.

Identical inputs must produce byte-identical files, so everything here
avoids timestamps, dict-order dependence, and float formatting drift.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path


def _sanitize(obj):
    """JSON has no inf/nan; sentinel values become strings."""
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            return "nan"
        return obj
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


def write_json(path, obj) -> None:
    text = json.dumps(_sanitize(obj), sort_keys=True, indent=2, allow_nan=False)
    Path(path).write_text(text + "\n", encoding="utf-8")


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while True:
            block = fh.read(1 << 20)
            if not block:
                break
            h.update(block)
    return h.hexdigest()


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def spectrum_csv_rows(spectrum):
    header = ["index", "exponent", "std_error"]
    rows = [
        [i, _fmt(float(e)), _fmt(float(s))]
        for i, (e, s) in enumerate(zip(spectrum.exponents, spectrum.std_error))
    ]
    return header, rows


def entropy_csv_rows(estimates):
    header = ["method", "value", "std_error"]
    rows = [[e.method, _fmt(e.value), _fmt(e.std_error)] for e in estimates]
    return header, rows


def sweep_csv_rows(result):
    header = ["t", "method", "value", "std_error", "weak_star_prev", "flags"]
    rows = []
    for row in result.rows:
        if not row.ok:
            rows.append([_fmt(row.t), "", "", "", "", f"error:{row.error}"])
            continue
        for method in sorted(row.estimates):
            est = row.estimates[method]
            rows.append([
                _fmt(row.t), method, _fmt(est.value), _fmt(est.std_error),
                _fmt(row.weak_star_prev), "",
            ])
    return header, rows


# ---------------------------------------------------------------------------
# Minimal static SVG line chart (hand-rolled for byte determinism)
# ---------------------------------------------------------------------------

_SVG_W, _SVG_H = 640, 420
_MARGIN = 56
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")


def _ticks(lo: float, hi: float, n: int = 5):
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    raw = span / max(n - 1, 1)
    mag = 10.0 ** int(f"{raw:e}".split("e")[1])
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    else:
        step = raw
    start = step * math.floor(lo / step)
    ticks = []
    t = start
    while t <= hi + 1e-12 * span:
        if t >= lo - 1e-12 * span:
            ticks.append(t)
        t += step
    return ticks


def svg_line_chart(path, series, title: str, xlabel: str, ylabel: str) -> None:
    """series: list of (label, xs, ys, errs or None)."""
    xs_all = [x for _, xs, _, _ in series for x in xs]
    ys_all = []
    for _, _, ys, errs in series:
        ys_all.extend(ys)
        if errs is not None:
            ys_all.extend(y + e for y, e in zip(ys, errs))
            ys_all.extend(y - e for y, e in zip(ys, errs))
    if not xs_all or not ys_all:
        raise ValueError("nothing to plot")
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad
    w, h, m = _SVG_W, _SVG_H, _MARGIN

    def px(x):
        return m + (x - x_lo) / (x_hi - x_lo) * (w - 2 * m)

    def py(y):
        return h - m - (y - y_lo) / (y_hi - y_lo) * (h - 2 * m)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<text x="{w / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
    ]
    # axes
    out.append(
        f'<line x1="{m}" y1="{h - m}" x2="{w - m}" y2="{h - m}" stroke="black"/>'
    )
    out.append(f'<line x1="{m}" y1="{m}" x2="{m}" y2="{h - m}" stroke="black"/>')
    for tx in _ticks(x_lo, x_hi):
        out.append(
            f'<line x1="{px(tx):.2f}" y1="{h - m}" x2="{px(tx):.2f}" '
            f'y2="{h - m + 5}" stroke="black"/>'
        )
        out.append(
            f'<text x="{px(tx):.2f}" y="{h - m + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{tx:.6g}</text>'
        )
    for ty in _ticks(y_lo, y_hi):
        out.append(
            f'<line x1="{m - 5}" y1="{py(ty):.2f}" x2="{m}" y2="{py(ty):.2f}" '
            f'stroke="black"/>'
        )
        out.append(
            f'<text x="{m - 8}" y="{py(ty):.2f}" text-anchor="end" dy="4" '
            f'font-family="sans-serif" font-size="11">{ty:.6g}</text>'
        )
    out.append(
        f'<text x="{w / 2:.1f}" y="{h - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{xlabel}</text>'
    )
    out.append(
        f'<text x="16" y="{h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 16 {h / 2:.1f})">{ylabel}</text>'
    )
    for idx, (label, xs, ys, errs) in enumerate(series):
        color = _COLORS[idx % len(_COLORS)]
        if errs is not None:
            for x, y, e in zip(xs, ys, errs):
                out.append(
                    f'<line x1="{px(x):.2f}" y1="{py(y - e):.2f}" '
                    f'x2="{px(x):.2f}" y2="{py(y + e):.2f}" '
                    f'stroke="{color}" stroke-width="1"/>'
                )
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
        for x, y in zip(xs, ys):
            out.append(
                f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="2.5" '
                f'fill="{color}"/>'
            )
        out.append(
            f'<text x="{w - m - 4}" y="{m + 16 + 16 * idx}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12" fill="{color}">{label}</text>'
        )
    out.append("</svg>")
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")
