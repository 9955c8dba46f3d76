"""Small self-contained SVG plotter for experiment outputs.

Generates static line and polar plots without any plotting dependency,
numpy included; output is deterministic (no timestamps, no randomness)
so repeated runs produce identical files.  Both plots draw their body
inside one document frame: the SVG head, a white background, the body,
the legend and the closing tag.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

__all__ = ["line_plot_svg", "polar_plot_svg", "write_svg"]

# Okabe-Ito palette, readable for most color-vision deficiencies.
_COLORS = (
    "#0072b2",
    "#d55e00",
    "#009e73",
    "#cc79a7",
    "#e69f00",
    "#56b4e9",
    "#000000",
    "#f0e442",
)

_W, _H = 760, 500
_ML, _MR, _MT, _MB = 72, 24, 40, 56


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _nice_ticks(lo: float, hi: float) -> List[float]:
    if not math.isfinite(lo) or not math.isfinite(hi):
        return []
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / 6
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


def _polyline(points: Sequence[Tuple[float, float]], color: str) -> str:
    coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
    return (
        f'<polyline fill="none" stroke="{color}" stroke-width="1.8" '
        f'points="{coords}"/>'
    )


def _text(x: float, y: float, s: str, size: int = 13, anchor: str = "middle") -> str:
    return (
        f'<text x="{x:.1f}" y="{y:.1f}" font-size="{size}" '
        f'font-family="sans-serif" text-anchor="{anchor}">{s}</text>'
    )


def _legend(labels: Sequence[str], x0: float, y0: float) -> List[str]:
    parts = []
    for i, label in enumerate(labels):
        color = _COLORS[i % len(_COLORS)]
        y = y0 + 18 * i
        parts.append(
            f'<line x1="{x0:.1f}" y1="{y:.1f}" x2="{x0 + 22:.1f}" y2="{y:.1f}" '
            f'stroke="{color}" stroke-width="2.5"/>'
        )
        parts.append(_text(x0 + 28, y + 4, label, size=12, anchor="start"))
    return parts


def _document(body: List[str], series: Sequence[tuple], legend_x: float) -> str:
    """The SVG document around ``body``: head, white background, body, legend, closing tag."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_W} {_H}" '
        f'width="{_W}" height="{_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        *body,
        *_legend([label for label, _, _ in series], legend_x, _MT + 16),
        "</svg>",
    ]
    return "\n".join(parts) + "\n"


def line_plot_svg(
    series: Sequence[Tuple[str, Sequence[float], Sequence[float]]],
    xlabel: str,
    ylabel: str,
    title: str,
) -> str:
    """Render labelled (x, y) series as one SVG line plot.

    NaN samples break the polyline, so flagged sweep points show up as
    gaps rather than interpolated segments.
    """
    finite_x = [float(v) for _, x, _ in series for v in x if math.isfinite(v)]
    finite_y = [float(v) for _, _, y in series for v in y if math.isfinite(v)]
    x_lo, x_hi = (min(finite_x), max(finite_x)) if finite_x else (0.0, 1.0)
    y_lo, y_hi = (min(finite_y), max(finite_y)) if finite_y else (0.0, 1.0)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    def sx(x: float) -> float:
        return _ML + (x - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def sy(y: float) -> float:
        return _H - _MB - (y - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    parts = []
    for t in _nice_ticks(x_lo, x_hi):
        x = sx(t)
        parts.append(
            f'<line x1="{x:.1f}" y1="{_MT}" x2="{x:.1f}" y2="{_H - _MB}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(_text(x, _H - _MB + 18, _fmt(t), size=12))
    for t in _nice_ticks(y_lo, y_hi):
        y = sy(t)
        parts.append(
            f'<line x1="{_ML}" y1="{y:.1f}" x2="{_W - _MR}" y2="{y:.1f}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(_text(_ML - 8, y + 4, _fmt(t), size=12, anchor="end"))
    parts.append(
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
        f'height="{_H - _MT - _MB}" fill="none" stroke="#333333"/>'
    )
    for i, (label, x, y) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        run: List[Tuple[float, float]] = []
        for xi, yi in zip(x, y):
            if math.isfinite(xi) and math.isfinite(yi):
                run.append((sx(float(xi)), sy(float(yi))))
            elif run:
                if len(run) > 1:
                    parts.append(_polyline(run, color))
                run = []
        if len(run) > 1:
            parts.append(_polyline(run, color))
    parts.append(_text(_W / 2, 24, title, size=15))
    parts.append(_text(_W / 2, _H - 16, xlabel, size=13))
    parts.append(
        f'<text x="18" y="{_H / 2:.1f}" font-size="13" font-family="sans-serif" '
        f'text-anchor="middle" transform="rotate(-90 18 {_H / 2:.1f})">{ylabel}</text>'
    )
    return _document(parts, series, _W - _MR - 170)


def polar_plot_svg(
    series: Sequence[Tuple[str, Sequence[float], Sequence[float]]],
    title: str,
) -> str:
    """Render labelled (angle_deg, radius) series as a half polar plot.

    Zero degrees points up; angles run clockwise to 180 degrees at the
    bottom, covering the half plane the receive line lives in.
    """
    cx, cy = 330.0, 260.0
    radius = 200.0

    def to_xy(theta_deg: float, r: float) -> Tuple[float, float]:
        ang = math.radians(theta_deg)
        scale = radius * min(r, 1.0)
        return cx + scale * math.sin(ang), cy - scale * math.cos(ang)

    parts = []
    for frac in (0.25, 0.5, 0.75, 1.0):
        parts.append(
            f'<circle cx="{cx}" cy="{cy}" r="{radius * frac:.1f}" fill="none" '
            f'stroke="#dddddd"/>'
        )
        parts.append(
            _text(cx + 4, cy - radius * frac + 12, _fmt(frac), size=11,
                  anchor="start")
        )
    for deg in range(0, 181, 30):
        x, y = to_xy(deg, 1.0)
        parts.append(
            f'<line x1="{cx}" y1="{cy}" x2="{x:.1f}" y2="{y:.1f}" '
            f'stroke="#dddddd"/>'
        )
        lx, ly = to_xy(deg, 1.09)
        parts.append(_text(lx, ly + 4, f"{deg}&#176;", size=12))
    for i, (label, theta_deg, r) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        pts = [
            to_xy(float(t), float(v))
            for t, v in zip(theta_deg, r)
            if math.isfinite(t) and math.isfinite(v)
        ]
        if len(pts) > 1:
            parts.append(_polyline(pts, color))
    parts.append(_text(_W / 2, 24, title, size=15))
    return _document(parts, series, _W - _MR - 150)


def write_svg(path: str, svg_text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        out.write(svg_text)
