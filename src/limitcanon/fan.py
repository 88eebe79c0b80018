"""Graphic emission of the weight-space decomposition (delta 2 and 3).

Scaling a weight vector does not change its stratum, so the decomposition
of the positive orthant descends to the chart normalizing the last
coordinate to 1: a marked line for delta = 2 and a plane figure for
delta = 3.  Top-dimensional strata project to points, which are marked and
classed by which of the two one-sided decompositions they saturate
("xmark" when the focus-X locus is full, "starmark" for focus-Y, "bothmark"
for both, "crossmark" for neither); for delta = 3 the one-dimensional cells
of the focus-X (resp. focus-Y) decomposition are drawn as solid (resp.
dashed) segments.  A cell has one free quantity on the chart, so its
segment is written down in closed form: the level, when the last node is
off the locus, or else the off-locus node within its node interval
(``strata._node_interval``), clipped to the drawing box.

All classification is exact; floating point appears only when rational
chart coordinates are rendered to 12 significant digits for display.
"""

from __future__ import annotations

from fractions import Fraction
from .model import CurveConfig
from .strata import _node_interval, _search, enumerate_strata, stratum_dim, stratum_key

__all__ = ["fan_data", "emit_fan_svg"]


def _mark_class(config, s):
    full_x = len(s.I) == config.delta and s.alpha_total > config.g_y
    full_y = len(s.J) == config.delta and s.beta_total > config.g_x
    if full_x and full_y:
        return "bothmark"
    if full_x:
        return "xmark"
    if full_y:
        return "starmark"
    return "crossmark"


def _marks(config, strata):
    out = []
    for s in strata:
        if stratum_dim(config, s)["dim"] != config.delta - 1:
            continue
        base = s.witness_mu[config.delta - 1]
        coords = tuple(m / base for m in s.witness_mu[: config.delta - 1])
        out.append((coords, _mark_class(config, s), stratum_key(config, s)))
    out.sort(key=lambda m: (m[0], m[1]))
    return out


def _cell_segment(weights, locus, box):
    """Endpoints of one chart line cell, clipped to the box, or None.

    On the chart mu_3 = 1 (index 2) the cell has one free quantity.  With
    node 3 off the locus it is the level c, in (w_3, w_3 + 1), and the locus
    nodes sit at c/w_p.  Otherwise the level is w_3, the other locus node p
    sits at w_3/w_p, and the off-locus node ranges over its node interval.
    """
    if 2 not in locus:
        w0, w1, w2 = weights
        top = min(Fraction(w2 + 1), box * w0, box * w1)
        if w2 >= top:
            return None
        return tuple((Fraction(c) / w0, Fraction(c) / w1) for c in (w2, top))
    p = min(locus)
    fixed = Fraction(weights[2], weights[p])
    w = weights[1 - p]
    scale = w * (w + 1) or 1  # w and w + 1 divide the scaled level
    lo, hi = _node_interval(weights[2] * scale, w)
    lo, hi = Fraction(lo, scale), box if hi is None else min(Fraction(hi, scale), box)
    if fixed > box or lo >= hi:
        return None
    # endpoint order of the figure: u1 rising when p = 0, u0 falling when p = 1
    return ((fixed, lo), (fixed, hi)) if p == 0 else ((hi, fixed), (lo, fixed))


def fan_data(config: CurveConfig, strata=None) -> dict:
    """Exact geometric data behind the figure (marks, and segments for delta 3)."""
    if config.delta not in (2, 3):
        raise ValueError("fan emission supports delta 2 or 3 only")
    if strata is None:
        strata = enumerate_strata(config)
    marks = _marks(config, strata)
    if config.delta == 2:
        return {"delta": 2, "marks": marks}
    coords = [c for m in marks for c in m[0]]
    box = max(coords) * Fraction(5, 4) + 1 if coords else Fraction(2)
    solid, dashed = [], []
    for bound, segments in ((config.g_y, solid), (config.g_x, dashed)):
        # one side's (weights, locus) pairs: the search with the other genus 0
        for weights, locus, *_ in _search(CurveConfig(g_x=0, g_y=bound, delta=3)):
            # a locus of two nodes above the saturation bound is a line cell
            if len(locus) == 2 and sum(weights) > bound:
                seg = _cell_segment(weights, locus, box)
                if seg:
                    segments.append(seg)
        segments.sort()
    return {"delta": 3, "marks": marks, "solid": solid, "dashed": dashed, "box": box}


def _fmt(x) -> str:
    return f"{float(x):.12g}"


_GLYPHS = {"xmark": "×", "starmark": "∗", "bothmark": "×∗", "crossmark": "·"}


def emit_fan_svg(config: CurveConfig, strata=None) -> str:
    """Deterministic standalone SVG for the chart decomposition."""
    data = fan_data(config, strata)
    lines = []
    if data["delta"] == 2:
        width, height = 760, 220
        positions = [m[0][0] for m in data["marks"]]
        xmax = max(positions) * Fraction(6, 5) + Fraction(1, 2) if positions else Fraction(2)

        def px(x):
            return 40 + 680 * x / xmax

        lines.append(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">'
        )
        lines.append('<style>.axis{stroke:#000}.mark{stroke:#000;fill:#fff}</style>')
        lines.append('<line class="axis" x1="40" y1="120" x2="720" y2="120"/>')
        for (pos,), cls, _key in data["marks"]:
            x = _fmt(px(pos))
            lines.append(f'<circle class="mark {cls}" cx="{x}" cy="120" r="4"/>')
            lines.append(f'<text class="glyph" x="{x}" y="105" text-anchor="middle">{_GLYPHS[cls]}</text>')
            lines.append(
                f'<text class="pos" x="{x}" y="145" text-anchor="middle">'
                f"{pos.numerator}/{pos.denominator}</text>"
            )
    else:
        width = height = 640
        box = data["box"]

        def px(u):
            return 40 + 560 * u / box

        def py(v):
            return 600 - 560 * v / box

        lines.append(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">'
        )
        lines.append(
            "<style>.ux{stroke:#000}.uy{stroke:#555;stroke-dasharray:6 4}"
            ".mark{stroke:#000;fill:#fff}</style>"
        )
        for (a, b) in data["solid"]:
            lines.append(
                f'<line class="ux" x1="{_fmt(px(a[0]))}" y1="{_fmt(py(a[1]))}" '
                f'x2="{_fmt(px(b[0]))}" y2="{_fmt(py(b[1]))}"/>'
            )
        for (a, b) in data["dashed"]:
            lines.append(
                f'<line class="uy" x1="{_fmt(px(a[0]))}" y1="{_fmt(py(a[1]))}" '
                f'x2="{_fmt(px(b[0]))}" y2="{_fmt(py(b[1]))}"/>'
            )
        for coords, cls, _key in data["marks"]:
            lines.append(
                f'<circle class="mark {cls}" cx="{_fmt(px(coords[0]))}" '
                f'cy="{_fmt(py(coords[1]))}" r="5"/>'
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
