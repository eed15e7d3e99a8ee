"""Minimal SVG rendering for pipeline artifacts.

Pure view layer: every figure is drawn from the same data that lands in
the sibling JSON artifact.  Output is deterministic (integer coordinates,
no timestamps).

A canvas draws in integer user units of 1/100 px: `width` and `height` are
pixels and the `viewBox` is 100 times larger, so a position in units is
`np.rint(100 * px)` of its pixel position, and stroke widths and font
sizes are scaled by 100 too.  Path data is SVG 1.1 path syntax (section
8.3) with integers only; a number's sign separates it from the one
before.

- A point layer (one `points` call) is one `<path>` of zero-length round-
  capped subpaths, each painted as a disk of the stroke width (section
  11.4): an absolute `M x±y h0` for the first dot, then a relative
  `m dx±dy h0` per dot.  The dots run in a fixed spatial order (8 px bands
  from the top, left to right and right to left in turn), not in the JSON
  points' order, so the moves stay short.
- A polyline is one path `M x±y l±dx±dy±dx±dy...`.
- Consecutive `line` and `arrow` calls of one stroke style share one
  `<path fill="none">`, each segment a move then an `l` draw.

To read a figure back, walk the path data keeping the current point: `M`
sets it, `m` and `l` add to it, `h0` leaves it, and each value divided by
100 is the pixel position.  The JSON artifacts beside the SVGs are compact
one-line JSON with sorted keys (`config.dump_json`).
"""
from __future__ import annotations

import numpy as np

_PALETTE = [
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
]
UNITS_PER_PX = 100
_SIZE = 640  # px, the longer side of a canvas
_MARGIN = 30  # px around the drawing
_BAND = 8 * UNITS_PER_PX  # height of one row of a point layer's dot order


def color(i: int) -> str:
    return _PALETTE[i % len(_PALETTE)]


def _units(v: float) -> int:
    """A pixel size (stroke width, font size) in user units."""
    return round(UNITS_PER_PX * v)


def _pairs(xy: np.ndarray, cmd: str, tail: str = "") -> str:
    """`cmd`, x, signed y and `tail` for each integer row of `xy`; the sign
    separates the two numbers."""
    return (f"{cmd}%d%+d{tail}" * len(xy)) % tuple(xy.ravel().tolist())


class SvgCanvas:
    """Fixed-size canvas mapping world (x, y) to SVG pixels, y up."""

    def __init__(self, bounds):
        lo = np.asarray(bounds[0], dtype=float)
        hi = np.asarray(bounds[1], dtype=float)
        span = np.maximum(hi - lo, 1e-9)
        self.scale = (_SIZE - 2 * _MARGIN) / float(span.max())
        self.lo = lo
        self.width = int(span[0] * self.scale) + 2 * _MARGIN
        self.height = int(span[1] * self.scale) + 2 * _MARGIN
        self.parts: list[str] = []
        self._pen = None  # (stroke, width, segments) of the open stroke path

    def _xy(self, p):
        x = _MARGIN + (p[0] - self.lo[0]) * self.scale
        y = self.height - _MARGIN - (p[1] - self.lo[1]) * self.scale
        return x, y

    def _at(self, pts) -> np.ndarray:
        """(n, 2) integer user units of world points."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return np.rint(UNITS_PER_PX * np.column_stack(self._xy(pts.T))).astype(np.int64)

    def _add(self, part: str):
        self._close_pen()
        self.parts.append(part)

    def _close_pen(self):
        if self._pen is not None:
            stroke, width, segments = self._pen
            # the pen's stops: each segment's start, then its end
            stops = np.array(segments).reshape(-1, 2)
            steps = "m%d%+d".join(["l%d%+d"] * len(segments))
            d = _pairs(stops[:1], "M") + steps % tuple(np.diff(stops, axis=0).ravel().tolist())
            self.parts.append(f'<path d="{d}" fill="none" stroke="{stroke}" '
                              f'stroke-width="{_units(width)}"/>')
            self._pen = None

    def points(self, pts, radius=1.5, fill="#333333"):
        """One path of round dots of `radius` in spatial order; an empty
        point set adds nothing."""
        pts = np.asarray(pts, dtype=float)
        if pts.size == 0:
            return
        xy = self._at(pts)
        band = xy[:, 1] // _BAND
        xy = xy[np.lexsort((np.where(band % 2 == 0, xy[:, 0], -xy[:, 0]), band))]
        d = _pairs(xy[:1], "M", "h0") + _pairs(np.diff(xy, axis=0), "m", "h0")
        self._add(f'<path d="{d}" stroke="{fill}" '
                  f'stroke-width="{_units(2 * radius)}" stroke-linecap="round"/>')

    def line(self, a, b, stroke="#000000", width=1.5):
        if self._pen is None or self._pen[:2] != (stroke, width):
            self._close_pen()
            self._pen = (stroke, width, [])
        self._pen[2].append(self._at([a, b]))

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
        xy = self._at(pts)
        steps = np.diff(xy, axis=0).ravel()
        d = _pairs(xy[:1], "M") + "l" + ("%+d" * len(steps)) % tuple(steps.tolist())
        self._add(f'<path d="{d}" fill="none" '
                  f'stroke="{stroke}" stroke-width="{_units(width)}"/>')

    def text(self, p, label, size=12, fill="#000000"):
        x, y = self._at(p)[0].tolist()
        self._add(f'<text x="{x}" y="{y}" font-size="{_units(size)}" '
                  f'fill="{fill}">{label}</text>')

    def render(self) -> str:
        self._close_pen()
        body = "\n".join(self.parts)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
            f'height="{self.height}" viewBox="0 0 {UNITS_PER_PX * self.width} '
            f'{UNITS_PER_PX * self.height}">\n'
            f'<rect width="100%" height="100%" fill="#ffffff"/>\n{body}\n</svg>\n'
        )


def bounds_of(pts):
    """The (lo, hi) corners of the points' x and y, padded by 5 % of the span."""
    pts = np.atleast_2d(pts)
    lo = pts.min(axis=0)[:2]
    hi = pts.max(axis=0)[:2]
    span = np.maximum(hi - lo, 1e-9)
    return lo - 0.05 * span, hi + 0.05 * span
