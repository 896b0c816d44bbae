"""Minimal SVG line plots, no plotting dependency.

Produces a fixed-size chart with axes, tick labels and a legend. Good
enough for eyeballing profiles and snapshots next to the CSV output.
"""

import numpy as np

__all__ = ["line_plot"]

_W, _H = 760, 440
_ML, _MR, _MT, _MB = 72, 24, 40, 52
_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
_MAX_POINTS = 1600


def _escape(text):
    return (str(text).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


def line_plot(path, curves, title="", xlabel="", ylabel=""):
    """Write a line chart; curves is a list of (label, x, y) triples."""
    pw = _W - _ML - _MR
    ph = _H - _MT - _MB
    xs = np.concatenate([np.asarray(x, dtype=float) for _, x, _ in curves])
    ys = np.concatenate([np.asarray(y, dtype=float) for _, _, y in curves])
    xmin, xmax = float(np.min(xs)), float(np.max(xs))
    ymin, ymax = float(np.min(ys)), float(np.max(ys))
    if xmax == xmin:
        xmin, xmax = xmin - 1.0, xmax + 1.0
    if ymax == ymin:
        ymin, ymax = ymin - 1.0, ymax + 1.0
    pad = 0.05 * (ymax - ymin)
    ymin, ymax = ymin - pad, ymax + pad

    # screen coordinates of a value or, elementwise, of an array
    def sx(v):
        return _ML + (v - xmin) / (xmax - xmin) * pw

    def sy(v):
        return _MT + (ymax - v) / (ymax - ymin) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" fill="none" '
        f'stroke="#444" stroke-width="1"/>',
    ]
    if title:
        parts.append(f'<text x="{_W / 2:.1f}" y="24" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="15">'
                     f'{_escape(title)}</text>')
    for i in range(5):
        xv = xmin + i * (xmax - xmin) / 4
        px = sx(xv)
        parts.append(f'<line x1="{px:.1f}" y1="{_MT + ph}" x2="{px:.1f}" '
                     f'y2="{_MT + ph + 5}" stroke="#444"/>')
        parts.append(f'<text x="{px:.1f}" y="{_MT + ph + 20}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="11">{xv:.4g}</text>')
    for i in range(5):
        yv = ymin + i * (ymax - ymin) / 4
        py = sy(yv)
        parts.append(f'<line x1="{_ML - 5}" y1="{py:.1f}" x2="{_ML}" '
                     f'y2="{py:.1f}" stroke="#444"/>')
        parts.append(f'<text x="{_ML - 8}" y="{py + 4:.1f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">{yv:.4g}</text>')
    if xlabel:
        parts.append(f'<text x="{_ML + pw / 2:.1f}" y="{_H - 14}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="12">{_escape(xlabel)}</text>')
    if ylabel:
        parts.append(f'<text x="18" y="{_MT + ph / 2:.1f}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="12" transform="rotate(-90 18 '
                     f'{_MT + ph / 2:.1f})">{_escape(ylabel)}</text>')

    for idx, (label, x, y) in enumerate(curves):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.size > _MAX_POINTS:
            stride = int(np.ceil(x.size / _MAX_POINTS))
            x, y = x[::stride], y[::stride]
        color = _COLORS[idx % len(_COLORS)]
        pts = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(
            sx(x).tolist(), sy(y).tolist()))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        ly = _MT + 16 + 16 * idx
        parts.append(f'<line x1="{_ML + pw - 120}" y1="{ly - 4}" '
                     f'x2="{_ML + pw - 96}" y2="{ly - 4}" stroke="{color}" '
                     f'stroke-width="2"/>')
        parts.append(f'<text x="{_ML + pw - 90}" y="{ly}" '
                     f'font-family="sans-serif" font-size="11">'
                     f'{_escape(label)}</text>')
    parts.append("</svg>\n")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(parts))
