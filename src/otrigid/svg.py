"""Deterministic SVG rendering of a 2D instance and its transport plan.

Sources are red circles, targets blue; each support entry is drawn as a line
segment whose stroke width is 4 times the fraction of its source's mass it
carries.  Byte output is identical across runs for identical inputs.
"""
from __future__ import annotations

import numpy as np

from .instance import Instance
from .solver import TransportPlan, check_shape

VIEWPORT = 800.0
MARGIN = 0.05


def _fmt(x):
    return f"{x:.3f}"


def svg_document(inst: Instance, plan: TransportPlan) -> str:
    check_shape(inst, plan)
    if inst.geometry is None:
        raise ValueError("instance has no geometry to plot")
    src = inst.geometry.sources.points
    tgt = inst.geometry.targets.points
    if src.shape[1] != 2:
        raise ValueError("SVG plotting requires 2-dimensional geometry")

    pts = np.vstack([src, tgt])
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    inner = VIEWPORT * (1.0 - 2.0 * MARGIN)

    frac = (pts - lo) / span
    frac[:, 1] = 1.0 - frac[:, 1]  # y up in data coords
    xy = (VIEWPORT * MARGIN + frac * inner).tolist()
    src_xy, tgt_xy = xy[: len(src)], xy[len(src):]

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{VIEWPORT:.0f}" '
        f'height="{VIEWPORT:.0f}" viewBox="0 0 {VIEWPORT:.0f} {VIEWPORT:.0f}">',
        f'<rect width="{VIEWPORT:.0f}" height="{VIEWPORT:.0f}" fill="white"/>',
    ]
    for i, j, f in plan.flows:
        width = 4.0 * f * plan.m / plan.scale  # fraction of source i's mass
        x1, y1 = src_xy[i]
        x2, y2 = tgt_xy[j]
        parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="black" stroke-width="{_fmt(width)}" stroke-opacity="0.6"/>'
        )
    for x, y in src_xy:
        parts.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="5" fill="red"/>')
    for x, y in tgt_xy:
        parts.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="3" fill="blue"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_svg(inst: Instance, plan: TransportPlan, path):
    doc = svg_document(inst, plan)
    with open(path, "w", newline="\n") as fh:
        fh.write(doc)
