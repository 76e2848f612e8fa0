"""Minimal SVG emission for reproduction figures.

Coordinates are data coordinates (rotation-vector plane, distance curves);
the y axis is flipped once at the document level so callers never think
about screen conventions.  Output is deterministic: fixed float formatting
and no timestamps unless a metadata comment is supplied explicitly.
"""

from __future__ import annotations


def _fmt(x: float) -> str:
    return f"{x:.6g}"


class SvgCanvas:
    """Collects shapes in data coordinates and serializes one <svg>."""

    def __init__(self, xmin: float, ymin: float, xmax: float, ymax: float, *,
                 size: int = 640, meta: str | None = None):
        if xmax <= xmin or ymax <= ymin:
            raise ValueError("empty view box")
        pad_x = 0.05 * (xmax - xmin)
        pad_y = 0.05 * (ymax - ymin)
        self.xmin = xmin - pad_x
        self.xmax = xmax + pad_x
        self.ymin = ymin - pad_y
        self.ymax = ymax + pad_y
        self.size = size
        self.meta = meta
        self.elements: list[str] = []

    def _pt(self, x: float, y: float) -> str:
        return f"{_fmt(x)},{_fmt(-y)}"  # y flipped: math orientation

    def polygon(self, points, *, stroke: str = "#000000", fill: str = "none",
                width: float = 0.01, dashed: bool = False):
        pts = " ".join(self._pt(x, y) for x, y in points)
        dash = f' stroke-dasharray="{_fmt(4 * width)} {_fmt(3 * width)}"' if dashed else ""
        self.elements.append(
            f'<polygon points="{pts}" fill="{fill}" stroke="{stroke}"'
            f' stroke-width="{_fmt(width)}"{dash}/>'
        )

    def polyline(self, points, *, stroke: str = "#000000", width: float = 0.01):
        pts = " ".join(self._pt(x, y) for x, y in points)
        self.elements.append(
            f'<polyline points="{pts}" fill="none" stroke="{stroke}"'
            f' stroke-width="{_fmt(width)}"/>'
        )

    def circle(self, x: float, y: float, r: float, *, fill: str = "#000000"):
        self.elements.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(-y)}" r="{_fmt(r)}" fill="{fill}"/>'
        )

    def tostring(self) -> str:
        w = self.xmax - self.xmin
        h = self.ymax - self.ymin
        head = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.size}"'
            f' height="{_fmt(self.size * h / w)}"'
            f' viewBox="{_fmt(self.xmin)} {_fmt(-self.ymax)} {_fmt(w)} {_fmt(h)}">',
        ]
        if self.meta:
            head.append(f"<!-- {self.meta} -->")
        return "\n".join(head + self.elements + ["</svg>"]) + "\n"


def rotation_set_svg(inner, outer, *, reference_box: float | None = None,
                     meta: str | None = None) -> str:
    """Overlay of inner/outer rotation-set hulls with an optional dashed
    reference square [0, n]^2."""
    pts = [v.as_floats() for v in outer.vertices] + [v.as_floats() for v in inner.vertices]
    if reference_box is not None:
        pts += [(0.0, 0.0), (reference_box, reference_box)]
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    span = max(max(xs) - min(xs), max(ys) - min(ys), 1e-6)
    canvas = SvgCanvas(min(xs), min(ys), min(xs) + span, min(ys) + span, meta=meta)
    lw = 0.004 * span
    if reference_box is not None:
        b = reference_box
        canvas.polygon([(0, 0), (b, 0), (b, b), (0, b)], stroke="#888888",
                       width=lw, dashed=True)
    canvas.polygon([v.as_floats() for v in outer.vertices], stroke="#c03020", width=lw)
    canvas.polygon([v.as_floats() for v in inner.vertices], stroke="#2040c0",
                   fill="#2040c018", width=lw)
    return canvas.tostring()


def series_svg(xs, ys, *, meta: str | None = None) -> str:
    """Simple polyline plot of a distance series (e.g. floor vs distance)."""
    if len(xs) != len(ys) or not xs:
        raise ValueError("need matching non-empty series")
    xspan = max(max(xs) - min(xs), 1e-9)
    yspan = max(max(ys) - min(ys), 1e-9)
    canvas = SvgCanvas(min(xs), min(ys), min(xs) + xspan, min(ys) + yspan, meta=meta)
    canvas.polyline(list(zip(xs, ys)), stroke="#2040c0", width=0.01 * xspan)
    for x, y in zip(xs, ys):
        canvas.circle(x, y, 0.012 * xspan, fill="#c03020")
    return canvas.tostring()


def scatter_svg(points, *, meta: str | None = None) -> str:
    """Scatter of (width, length-bound) samples; no boundary is claimed."""
    if not points:
        raise ValueError("need at least one point")
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    xspan = max(max(xs) - min(xs), 1.0)
    yspan = max(max(ys) - min(ys), 1.0)
    canvas = SvgCanvas(min(xs), min(ys), min(xs) + xspan, min(ys) + yspan, meta=meta)
    for x, y in points:
        canvas.circle(x, y, 0.008 * max(xspan, yspan), fill="#2040c0")
    return canvas.tostring()
