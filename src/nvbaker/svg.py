"""Deterministic SVG pictures of two-dimensional elements.

The layout is fixed so output is byte-stable: two 512-unit squares (domain
left, range right) separated by a 64-unit gap with an arrow, inside a
32-unit margin; 1-unit black strokes, no fill; pair indices centered in
matching bricks at font size 24. The y axis points up, so bricks are
flipped when mapped to SVG coordinates. Coordinates are exact: dyadic
rationals have finite decimal expansions, emitted in full with trailing
zeros stripped.

The element is coarsened before drawing. Coarsening is not canonical: two
presentations of one map, even one a refinement of the other, can reduce
to different presentations and then render to different bytes.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import RenderError
from .elements import Element, coarsen
from .geometry import Brick

SQUARE = 512
GAP = 64
MARGIN = 32
FONT = 24

WIDTH = 2 * MARGIN + 2 * SQUARE + GAP
HEIGHT = 2 * MARGIN + SQUARE


def _decimal(value: Fraction) -> str:
    """Exact decimal text for a nonnegative dyadic rational."""
    whole, part = divmod(value, 1)
    if part == 0:
        return str(whole)
    exponent = part.denominator.bit_length() - 1
    digits = str(part.numerator * 5**exponent).rjust(exponent, "0").rstrip("0")
    return f"{whole}.{digits}"


def _rect(brick: Brick, left: int) -> str:
    xcell, ycell = brick.cells
    x = _decimal(left + SQUARE * xcell.lo)
    y = _decimal(MARGIN + SQUARE * (1 - ycell.hi))
    w = _decimal(SQUARE * xcell.length)
    h = _decimal(SQUARE * ycell.length)
    return f'<rect x="{x}" y="{y}" width="{w}" height="{h}"/>'


def _label(index: int, brick: Brick, left: int) -> str:
    xcell, ycell = brick.cells
    cx = _decimal(left + SQUARE * (xcell.lo + xcell.hi) / 2)
    cy = _decimal(MARGIN + SQUARE * (1 - (ycell.lo + ycell.hi) / 2))
    return f'<text x="{cx}" y="{cy}">{index}</text>'


def render_svg(e: Element) -> str:
    """The element as a standalone SVG document string."""
    if e.dimension != 2:
        raise RenderError(f"can only render dimension 2, got {e.dimension}")
    e = coarsen(e)
    domain_left = MARGIN
    range_left = MARGIN + SQUARE + GAP
    mid = HEIGHT // 2
    arrow_from = MARGIN + SQUARE + 8
    arrow_to = MARGIN + SQUARE + GAP - 8

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        '<g fill="none" stroke="black" stroke-width="1">',
    ]
    for p in e.pairs:
        lines.append(_rect(p.domain, domain_left))
    for p in e.pairs:
        lines.append(_rect(p.range, range_left))
    lines.append(
        f'<path d="M {arrow_from} {mid} L {arrow_to} {mid} '
        f'M {arrow_to - 10} {mid - 6} L {arrow_to} {mid} L {arrow_to - 10} {mid + 6}"/>'
    )
    lines.append("</g>")
    lines.append(
        '<g fill="black" font-family="sans-serif" '
        f'font-size="{FONT}" text-anchor="middle" dominant-baseline="central">'
    )
    for index, p in enumerate(e.pairs):
        lines.append(_label(index, p.domain, domain_left))
    for index, p in enumerate(e.pairs):
        lines.append(_label(index, p.range, range_left))
    lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
