"""Static SVG rendering of a traced root locus.

Pure string assembly, no drawing dependencies: trajectories become
polylines, plant poles/zeros and branch points become markers, and the
region boundary is a dashed vertical line. Output bytes are deterministic
for a fixed result. The plane points of every polyline come from the sigma
and omega columns of its trajectory's array (a mirror image's rows are its
original's with omega negated), mapped to pixels in one array pass, and one
% call formats the polylines of both passes.
"""

from __future__ import annotations

import math

import numpy as np

from .tracer import RootLocusResult

_WIDTH = 800.0
_HEIGHT = 600.0
_MARGIN_LEFT = 62.0
_MARGIN_RIGHT = 18.0
_MARGIN_TOP = 18.0
_MARGIN_BOTTOM = 46.0

_STYLE = (
    "text{font:11px sans-serif;fill:#444}"
    ".axis{stroke:#444;stroke-width:1}"
    ".grid{stroke:#ddd;stroke-width:0.5}"
    ".boundary{stroke:#999;stroke-width:1.2;stroke-dasharray:6 4}"
    ".trajectory{fill:none;stroke:#1668b4;stroke-width:1.4}"
    ".trajectory.negative{stroke:#c43b3b}"
    ".pole{stroke:#111;stroke-width:1.6}"
    ".zero{stroke:#111;stroke-width:1.6;fill:none}"
    ".branch{fill:#7b2d8b;stroke:none}"
)


def _fmt(v: float) -> str:
    s = format(v, ".2f")
    return "0.00" if s == "-0.00" else s


def _label(v: float) -> str:
    s = format(v, ".6g")
    return "0" if s == "-0" else s


def _nice_step(span: float, target: int) -> float:
    raw = span / max(target, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for m in (1.0, 2.0, 5.0):
        if raw <= m * mag * (1.0 + 1e-12):
            return m * mag
    return 10.0 * mag  # raw / mag lies in [1, 10) up to rounding


def _ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    step = _nice_step(hi - lo, target)
    first = math.ceil(lo / step - 1e-9) * step
    out = []
    v = first
    while v <= hi + 1e-9 * (hi - lo):
        out.append(0.0 if abs(v) < 0.5 * step * 1e-9 else v)
        v += step
    return out


def render_svg(result: RootLocusResult) -> str:
    passes = [(result.trajectories, "")]
    if result.negative is not None:
        passes.append((result.negative.trajectories, " negative"))
    # one polyline format per trajectory, and its start marker's row
    arrays, fmts, markers, at = [], [], [], 0
    for trajectories, extra in passes:
        for t in trajectories:
            arrays.append(t.array)
            m = t.start_marker
            if m is not None:
                markers.append((at, m))
            at += len(t.array)
            fmts.append(f'<polyline class="trajectory{extra}" points="'
                        + " ".join(["%.2f,%.2f"] * (len(t.array) + (m is not None)))
                        + f'" data-mirrored="{str(t.mirrored).lower()}"/>')
    plane = np.concatenate(arrays)[:, :2] if arrays else np.empty((0, 2))
    if markers:
        plane = np.insert(plane, [i for i, _ in markers], [(m.real, m.imag) for _, m in markers],
                          axis=0)
    sigma0 = result.region.sigma0
    if len(plane):
        (xmin, ymin), (xmax, ymax) = plane.min(axis=0).tolist(), plane.max(axis=0).tolist()
        xmin, xmax = min(xmin, sigma0), max(xmax, sigma0)
    else:
        xmin, xmax, ymin, ymax = sigma0 - 1.0, sigma0 + 1.0, -1.0, 1.0
    # 10% margin, never a zero-thickness box: a zero span is 1, or 1e-9 |x| where rounding eats 0.1
    dx = (xmax - xmin) or max(1.0, 1e-9 * abs(xmin))
    dy = (ymax - ymin) or max(1.0, 1e-9 * abs(ymin))
    xmin -= 0.1 * dx
    xmax += 0.1 * dx
    ymin -= 0.1 * dy
    ymax += 0.1 * dy

    px0, px1 = _MARGIN_LEFT, _WIDTH - _MARGIN_RIGHT
    py0, py1 = _HEIGHT - _MARGIN_BOTTOM, _MARGIN_TOP

    sx, wx = xmax - xmin, px1 - px0
    sy, wy = ymax - ymin, py1 - py0

    def X(x):
        return px0 + (x - xmin) / sx * wx

    def Y(y):
        return py0 + (y - ymin) / sy * wy

    # X and Y of every point at once, in their operation order; in place, as
    # a fresh array per step raised a large plot's peak memory
    plane -= (xmin, ymin)
    plane /= (sx, sy)
    plane *= (wx, wy)
    pixels = np.add((px0, py0), plane, out=plane).ravel()

    parts = [
        (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(_WIDTH)}" '
            f'height="{int(_HEIGHT)}" viewBox="0 0 {int(_WIDTH)} {int(_HEIGHT)}" '
            f'data-sigma0="{format(sigma0, ".17g")}">'
        ),
        f"<style>{_STYLE}</style>",
        f'<rect x="{_fmt(px0)}" y="{_fmt(py1)}" width="{_fmt(px1 - px0)}" '
        f'height="{_fmt(py0 - py1)}" fill="#fff" stroke="none"/>',
    ]

    for v in _ticks(xmin, xmax):
        x = _fmt(X(v))
        parts.append(f'<line class="grid" x1="{x}" y1="{_fmt(py1)}" x2="{x}" y2="{_fmt(py0)}"/>')
        parts.append(
            f'<text x="{x}" y="{_fmt(py0 + 16)}" text-anchor="middle">{_label(v)}</text>'
        )
    for v in _ticks(ymin, ymax):
        y = _fmt(Y(v))
        parts.append(f'<line class="grid" x1="{_fmt(px0)}" y1="{y}" x2="{_fmt(px1)}" y2="{y}"/>')
        parts.append(
            f'<text x="{_fmt(px0 - 6)}" y="{y}" text-anchor="end" dy="4">{_label(v)}</text>'
        )
    parts.append(
        f'<rect class="axis" x="{_fmt(px0)}" y="{_fmt(py1)}" width="{_fmt(px1 - px0)}" '
        f'height="{_fmt(py0 - py1)}" fill="none"/>'
    )
    parts.append(
        f'<text x="{_fmt(0.5 * (px0 + px1))}" y="{_fmt(_HEIGHT - 10)}" '
        f'text-anchor="middle">Re(s)</text>'
    )
    parts.append(
        f'<text x="14" y="{_fmt(0.5 * (py0 + py1))}" text-anchor="middle" '
        f'transform="rotate(-90 14 {_fmt(0.5 * (py0 + py1))})">Im(s)</text>'
    )

    bx = _fmt(X(sigma0))
    parts.append(
        f'<line class="boundary" x1="{bx}" y1="{_fmt(py1)}" x2="{bx}" y2="{_fmt(py0)}"/>'
    )

    if fmts:  # one format per point; a "-0.00" can only be a whole coordinate
        parts.append(("\n".join(fmts) % tuple(pixels.tolist())).replace("-0.00", "0.00"))

    for p in result.plant.poles:
        x, y = X(p.real), Y(p.imag)
        parts.append(
            f'<path class="pole" d="M{_fmt(x - 4.5)} {_fmt(y - 4.5)}L{_fmt(x + 4.5)} '
            f'{_fmt(y + 4.5)}M{_fmt(x - 4.5)} {_fmt(y + 4.5)}L{_fmt(x + 4.5)} {_fmt(y - 4.5)}"/>'
        )
    for z in result.plant.zeros:
        parts.append(
            f'<circle class="zero" cx="{_fmt(X(z.real))}" cy="{_fmt(Y(z.imag))}" r="4.5"/>'
        )
    for b in result.branch_points:
        x, y = X(b.s.real), Y(b.s.imag)
        parts.append(
            f'<path class="branch" d="M{_fmt(x)} {_fmt(y - 5.5)}L{_fmt(x + 5.5)} {_fmt(y)}'
            f'L{_fmt(x)} {_fmt(y + 5.5)}L{_fmt(x - 5.5)} {_fmt(y)}Z"/>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
