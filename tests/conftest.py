"""Shared test helpers.

The helpers here deliberately avoid the library's parsing and evaluation
code paths: bricks are built straight from raw constructors and images are
recomputed from first principles with Fractions, so tests that use them
check the library against an independent route.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from nvbaker import Brick, Cell, Element, Pair, Word

import _acceptance_log


def brick(text: str) -> Brick:
    """Build a brick from 'k/2^e,k/2^e' text without the formats module."""
    cells = []
    for part in text.split(","):
        numerator, exponent = part.split("/2^")
        cells.append(Cell(int(exponent), int(numerator)))
    return Brick(tuple(cells))


def interval(cell: Cell) -> tuple[Fraction, Fraction]:
    return (
        Fraction(cell.numerator, 1 << cell.exponent),
        Fraction(cell.numerator + 1, 1 << cell.exponent),
    )


def affine_image(
    point: tuple[Fraction, ...], domain: Brick, range_: Brick
) -> tuple[Fraction, ...]:
    """Image of a point under the canonical map, recomputed from scratch."""
    out = []
    for x, dc, rc in zip(point, domain.cells, range_.cells):
        dlo, dhi = interval(dc)
        rlo, rhi = interval(rc)
        out.append(rlo + (x - dlo) * (rhi - rlo) / (dhi - dlo))
    return tuple(out)


def element_image(e: Element, point: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    """Image of a point under an element, recomputed from scratch."""
    for p in e.pairs:
        if all(
            lo <= x < hi
            for x, (lo, hi) in zip(point, (interval(c) for c in p.domain.cells))
        ):
            return affine_image(point, p.domain, p.range)
    raise AssertionError(f"no domain brick contains {point}")


def grid_points(dimension: int, resolution: int):
    """All points k/2^resolution componentwise, as Fraction tuples."""
    side = [Fraction(k, 1 << resolution) for k in range(1 << resolution)]
    return itertools.product(side, repeat=dimension)


def all_cells(max_exponent: int) -> list[Cell]:
    return [
        Cell(e, k) for e in range(max_exponent + 1) for k in range(1 << e)
    ]


def chain_sides(splits: int, side: str, seed: int) -> list[bool]:
    """Which half each split of a chain keeps as a leaf: True for the upper.

    `side` is "lower", "upper", or "mixed" for a seeded coin per split.
    """
    if side == "mixed":
        rng = random.Random(seed)
        return [rng.random() < 0.5 for _ in range(splits)]
    return [side == "upper"] * splits


def chain_axis(split: int, dimension: int) -> int:
    """Chains split their axes in descending order, over and over."""
    return dimension - 1 - split % dimension


def chain(splits: int, dimension: int, side: str, seed: int) -> list[Brick]:
    """The leaves of one chain of nested splits, in seeded shuffled order.

    Each split halves the current brick along the next axis of `chain_axis`,
    keeps one half as a leaf (see `chain_sides`) and splits the other on,
    so the leaves partition the cube and nest ever deeper into one corner.
    A k-d descent that halves the lowest axis first copies every leaf that
    is coarse there into both halves, level after level, on this shape.
    """
    cells = [Cell(0, 0)] * dimension
    leaves = []
    for k, upper in enumerate(chain_sides(splits, side, seed)):
        axis = chain_axis(k, dimension)
        e, n = cells[axis].exponent + 1, 2 * cells[axis].numerator
        lower, higher = Cell(e, n), Cell(e, n + 1)
        leaf, cells = list(cells), list(cells)
        leaf[axis], cells[axis] = (higher, lower) if upper else (lower, higher)
        leaves.append(Brick(tuple(leaf)))
    leaves.append(Brick(tuple(cells)))
    random.Random(seed).shuffle(leaves)
    return leaves


def _ladder(deepest: int, head: Cell, slices: list[Cell]) -> Element:
    """The 1-D element taking [0, 2^-deepest) onto head, then each
    [2^-k, 2^-(k-1)), k = deepest down to 1, onto the next of slices."""
    cells = [(Cell(deepest, 0), head), *zip((Cell(k, 1) for k in range(deepest, 0, -1)), slices)]
    return Element.from_pairs([Pair(Brick((d,)), Brick((r,))) for d, r in cells])


def exponent_71_word() -> Word:
    """A 1-D word (g1, g2) whose product cuts a cell of exponent 71.

    g1 takes [0, 2^-10) onto [0, 1/8), a scale of 2^7, and its next eight
    pieces onto the depth-6 slices of [1/8, 1/4); it fixes [1/4, 1). g2
    takes [0, 2^-64) onto [0, 1/2), and its 64 pieces onto the depth-7
    slices of [1/2, 1). Every cell of either factor is within the limit,
    but g1 then g2 takes [0, 2^-71) onto [0, 1/2).
    """
    g1 = _ladder(10, Cell(3, 0), [Cell(6, n) for n in range(8, 16)] + [Cell(2, 1), Cell(1, 1)])
    g2 = _ladder(64, Cell(1, 0), [Cell(7, n) for n in range(64, 128)])
    return Word(1, (g1, g2))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_log.RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_log.RESULTS:
            terminalreporter.write_line(line)
