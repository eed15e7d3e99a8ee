"""Minimal SVG rendering for pipeline artifacts.

Pure view layer: every figure is drawn from the same data that lands in
the sibling JSON artifact.  Output is deterministic (fixed float
formatting, no timestamps).

Each call of `SvgCanvas.points` is one point layer, drawn as one `<path>`
rather than one element per point: every point is a zero-length subpath
`M x y h0`, which a round line cap paints as a disk of the stroke width
(SVG 1.1 section 11.4), in the JSON points' order and at their absolute
coordinates.  The JSON artifacts beside the SVGs are compact one-line JSON
with sorted keys (`config.dump_json`).
"""
from __future__ import annotations

import numpy as np

_PALETTE = [
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
]


def color(i: int) -> str:
    return _PALETTE[i % len(_PALETTE)]


def _fmt(v: float) -> str:
    return f"{v:.4f}"


class SvgCanvas:
    """Fixed-size canvas mapping world (x, y) to SVG pixels, y up."""

    def __init__(self, bounds, size=640, margin=30):
        lo = np.asarray(bounds[0], dtype=float)
        hi = np.asarray(bounds[1], dtype=float)
        span = np.maximum(hi - lo, 1e-9)
        self.scale = (size - 2 * margin) / float(span.max())
        self.lo = lo
        self.margin = margin
        self.width = int(span[0] * self.scale) + 2 * margin
        self.height = int(span[1] * self.scale) + 2 * margin
        self.parts: list[str] = []

    def _xy(self, p):
        x = self.margin + (p[0] - self.lo[0]) * self.scale
        y = self.height - self.margin - (p[1] - self.lo[1]) * self.scale
        return x, y

    def points(self, pts, radius=1.5, fill="#333333"):
        """One path of round dots of `radius`, one `M x y h0` per point, in
        order; an empty point set adds nothing."""
        pts = np.asarray(pts, dtype=float)
        if pts.size == 0:
            return
        d = "".join(f"M{_fmt(x)} {_fmt(y)}h0"
                    for x, y in (self._xy(p) for p in np.atleast_2d(pts)))
        self.parts.append(
            f'<path d="{d}" stroke="{fill}" stroke-width="{_fmt(2 * radius)}" '
            f'stroke-linecap="round"/>')

    def line(self, a, b, stroke="#000000", width=1.5):
        x1, y1 = self._xy(a)
        x2, y2 = self._xy(b)
        self.parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{stroke}" stroke-width="{width}"/>')

    def arrow(self, a, b, stroke="#d62728", width=2.0):
        """Line with a small arrowhead at b, for route ordering."""
        self.line(a, b, stroke=stroke, width=width)
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        d = b - a
        n = np.linalg.norm(d)
        if n < 1e-12:
            return
        d = d / n
        perp = np.array([-d[1], d[0]])
        tip = b
        size = 8.0 / self.scale
        for side in (1, -1):
            tail = tip - size * d + side * 0.5 * size * perp
            self.line(tail, tip, stroke=stroke, width=width)

    def polyline(self, pts, stroke="#2ca02c", width=1.0):
        coords = " ".join(
            f"{_fmt(x)},{_fmt(y)}" for x, y in (self._xy(p) for p in np.atleast_2d(pts)))
        self.parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{stroke}" '
            f'stroke-width="{width}"/>')

    def text(self, p, label, size=12, fill="#000000"):
        x, y = self._xy(p)
        self.parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="{size}" '
            f'fill="{fill}">{label}</text>')

    def render(self) -> str:
        body = "\n".join(self.parts)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
            f'height="{self.height}" viewBox="0 0 {self.width} {self.height}">\n'
            f'<rect width="100%" height="100%" fill="#ffffff"/>\n{body}\n</svg>\n'
        )


def bounds_of(pts, pad=0.05):
    pts = np.atleast_2d(pts)
    lo = pts.min(axis=0)[:2]
    hi = pts.max(axis=0)[:2]
    span = np.maximum(hi - lo, 1e-9)
    return lo - pad * span, hi + pad * span
