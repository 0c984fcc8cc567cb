"""Dyadic intervals, bricks, and partitions of the unit n-cube.

All geometry is exact: a cell is the half-open interval [k/2^e, (k+1)/2^e)
stored as the integer pair (e, k), and a brick is a product of one cell per
axis. Two dyadic cells are always nested or disjoint, which is what makes
partition refinement and the rest of the library purely combinatorial.

Fractions appear only at the boundary (reporting endpoints, measures, point
membership); every decision procedure runs on integers, and so do the sort
keys: a cell sorts by its left endpoint scaled by 2^MAX_EXPONENT, an exact
integer, then by its exponent.

`brick_meets` and `tile_complement` descend from the unit cube like a k-d
tree (Bentley 1975), on an explicit stack of integer regions. They share
the column and halving helpers, not the split rule: `tile_complement` halves
along the lowest axis where a live hole is finer, which pins its tiles.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import (
    DimensionMismatchError,
    ExponentLimitError,
    GeometryError,
    PartitionError,
)

# Hard ceilings on cell exponents and on axes. Cells deepen only through Cell
# and a bare dimension becomes cells only in `unit_brick`, so one check in
# each guards the whole library against runaway work.
MAX_EXPONENT = 64
MAX_DIMENSION = 64


class CellRelation(Enum):
    DISJOINT = "disjoint"
    EQUAL = "equal"
    A_INSIDE_B = "a_inside_b"
    B_INSIDE_A = "b_inside_a"


@dataclass(frozen=True)
class Cell:
    """Half-open dyadic interval [numerator/2^exponent, (numerator+1)/2^exponent)."""

    exponent: int
    numerator: int

    def __post_init__(self) -> None:
        if self.exponent < 0:
            raise GeometryError(f"cell exponent must be >= 0, got {self.exponent}")
        if self.exponent > MAX_EXPONENT:
            raise ExponentLimitError(
                f"cell exponent {self.exponent} exceeds the limit {MAX_EXPONENT}"
            )
        if not 0 <= self.numerator < (1 << self.exponent):
            raise GeometryError(
                f"cell numerator {self.numerator} out of range for exponent {self.exponent}"
            )

    @property
    def lo(self) -> Fraction:
        return Fraction(self.numerator, 1 << self.exponent)

    @property
    def hi(self) -> Fraction:
        return Fraction(self.numerator + 1, 1 << self.exponent)

    @property
    def length(self) -> Fraction:
        return Fraction(1, 1 << self.exponent)

    def split(self) -> tuple["Cell", "Cell"]:
        """Halve into (lower, upper) children."""
        e, k = self.exponent + 1, self.numerator * 2
        return Cell(e, k), Cell(e, k + 1)

    def double(self) -> "Cell":
        """The parent cell one level up."""
        if self.exponent == 0:
            raise GeometryError("the unit interval has no parent cell")
        return Cell(self.exponent - 1, self.numerator >> 1)

    def sibling(self) -> "Cell":
        """The other child of this cell's parent."""
        if self.exponent == 0:
            raise GeometryError("the unit interval has no sibling")
        return Cell(self.exponent, self.numerator ^ 1)

    @property
    def is_lower_child(self) -> bool:
        if self.exponent == 0:
            raise GeometryError("the unit interval is not a child")
        return self.numerator % 2 == 0

    def contains_value(self, x: Fraction) -> bool:
        return self.lo <= x < self.hi

    def sort_key(self) -> tuple[int, int]:
        """Orders cells exactly as (lo, exponent) does, without a Fraction."""
        return (self.numerator << (MAX_EXPONENT - self.exponent), self.exponent)

    def __str__(self) -> str:
        return f"{self.numerator}/2^{self.exponent}"


def cell_relation(a: Cell, b: Cell) -> CellRelation:
    """Classify two dyadic cells. They are never partially overlapping."""
    if a.exponent == b.exponent:
        return CellRelation.EQUAL if a.numerator == b.numerator else CellRelation.DISJOINT
    if a.exponent > b.exponent:
        # a is the finer cell; it sits inside b iff truncating matches.
        inside = (a.numerator >> (a.exponent - b.exponent)) == b.numerator
        return CellRelation.A_INSIDE_B if inside else CellRelation.DISJOINT
    inside = (b.numerator >> (b.exponent - a.exponent)) == a.numerator
    return CellRelation.B_INSIDE_A if inside else CellRelation.DISJOINT


@dataclass(frozen=True)
class Brick:
    """Product of one dyadic cell per axis: a half-open box in [0,1)^n."""

    cells: tuple[Cell, ...]

    def __post_init__(self) -> None:
        if not self.cells:
            raise GeometryError("a brick needs at least one axis")

    @property
    def dimension(self) -> int:
        return len(self.cells)

    @property
    def measure(self) -> Fraction:
        m = Fraction(1)
        for c in self.cells:
            m *= c.length
        return m

    @property
    def diameter(self) -> Fraction:
        """Longest side (the l-infinity diameter)."""
        return max(c.length for c in self.cells)

    @property
    def is_unit(self) -> bool:
        return all(c.exponent == 0 for c in self.cells)

    def split(self, axis: int) -> tuple["Brick", "Brick"]:
        """Halve along one axis into (lower, upper)."""
        self._check_axis(axis)
        lo, hi = self.cells[axis].split()
        return self.replace(axis, lo), self.replace(axis, hi)

    def double(self, axis: int) -> "Brick":
        self._check_axis(axis)
        return self.replace(axis, self.cells[axis].double())

    def sibling(self, axis: int) -> "Brick":
        self._check_axis(axis)
        return self.replace(axis, self.cells[axis].sibling())

    def replace(self, axis: int, cell: Cell) -> "Brick":
        self._check_axis(axis)
        cells = list(self.cells)
        cells[axis] = cell
        return Brick(tuple(cells))

    def contains_point(self, point: Sequence[Fraction]) -> bool:
        if len(point) != self.dimension:
            raise DimensionMismatchError(
                f"point has {len(point)} coordinates, brick has {self.dimension}"
            )
        return all(c.contains_value(x) for c, x in zip(self.cells, point))

    def contains_brick(self, other: "Brick") -> bool:
        _check_same_dimension(self, other)
        return all(
            cell_relation(oc, sc) in (CellRelation.EQUAL, CellRelation.A_INSIDE_B)
            for oc, sc in zip(other.cells, self.cells)
        )

    def sort_key(self) -> tuple[int, ...]:
        key: tuple[int, ...] = ()
        for c in self.cells:
            key += c.sort_key()
        return key

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.cells)

    def _check_axis(self, axis: int) -> None:
        if not 0 <= axis < self.dimension:
            raise GeometryError(
                f"axis {axis} out of range for dimension {self.dimension}"
            )


def _check_same_dimension(a: Brick, b: Brick) -> None:
    if a.dimension != b.dimension:
        raise DimensionMismatchError(
            f"bricks of dimensions {a.dimension} and {b.dimension}"
        )


def brick_intersect(a: Brick, b: Brick) -> Brick | None:
    """Intersection of two bricks, or None when they are disjoint.

    Per axis the cells are nested or disjoint, so the intersection is the
    finer cell on every axis or empty.
    """
    _check_same_dimension(a, b)
    cells = []
    for ca, cb in zip(a.cells, b.cells):
        rel = cell_relation(ca, cb)
        if rel is CellRelation.DISJOINT:
            return None
        cells.append(ca if rel in (CellRelation.EQUAL, CellRelation.A_INSIDE_B) else cb)
    return Brick(tuple(cells))


def bricks_disjoint(a: Brick, b: Brick) -> bool:
    return brick_intersect(a, b) is None


def brick_meets(
    xs: Sequence[Brick], ys: Sequence[Brick]
) -> list[tuple[int, int, Brick]]:
    """Every nonempty meet xs[i] & ys[j], as (i, j, meet), each pair once.

    The lists may be any bricks of one dimension: partitions of any shape,
    or lists that overlap themselves or repeat a brick. The order of the
    result is unspecified. The cost follows the number of meets found, not
    len(xs) * len(ys).

    The method is a two-sided k-d descent (Bentley 1975) from the unit cube
    that relies on one invariant: on each axis two dyadic cells are nested
    or disjoint. A region keeps the bricks of each list that meet it. When
    the region is halved along an axis, a brick finer than the region on
    that axis lies in exactly one half (its next bit says which), and a
    brick no finer lies across both. When no live brick is finer than the
    region on any axis, every live brick contains the region, so every
    live pair meets there. Such leaf regions are disjoint and a meet may
    span several of them, so a pair is reported only at the leaf holding
    the lowest corner of its meet. Each candidate is confirmed, and its
    meet built, by `brick_intersect`.
    """
    if not xs or not ys:
        return []
    dim = xs[0].dimension
    bricks = [*xs, *ys]
    for b in bricks:
        if b.dimension != dim:
            raise DimensionMismatchError(f"bricks of dimensions {dim} and {b.dimension}")
    nx = len(xs)  # bricks are numbered xs first, then ys
    exps, nums = _columns(bricks, dim)
    out: list[tuple[int, int, Brick]] = []
    # A region is its cell exponents and numerators by axis, with the live
    # bricks of each list.
    root = (0,) * dim
    stack = [(root, root, list(range(nx)), list(range(nx, len(bricks))))]
    while stack:
        r_exps, r_nums, live_x, live_y = stack.pop()
        axis = _split_axis(exps, r_exps, itertools.chain(live_x, live_y))
        if axis is None:
            # On each axis the meet's lowest corner is the region's exactly
            # when the meet's cell there (the finer of the two) is at least
            # as fine as the coarsest cell sharing the region's left end,
            # whose exponent drops the trailing zero bits of the numerator.
            corner = [
                e - (n & -n).bit_length() + 1 if n else 0 for e, n in zip(r_exps, r_nums)
            ]
            for i in live_x:
                for j in live_y:
                    if all(max(ea[i], ea[j]) >= c for ea, c in zip(exps, corner)):
                        out.append((i, j - nx, brick_intersect(bricks[i], bricks[j])))
            continue
        e = r_exps[axis]
        lo_x, hi_x = _halve(live_x, exps[axis], nums[axis], e)
        lo_y, hi_y = _halve(live_y, exps[axis], nums[axis], e)
        lo, hi = _halve_region(r_exps, r_nums, axis)
        for half, half_x, half_y in ((hi, hi_x, hi_y), (lo, lo_x, lo_y)):
            if half_x and half_y:
                stack.append((*half, half_x, half_y))
    return out


def _columns(bricks: Sequence[Brick], dim: int) -> tuple[list, list]:
    """exps[a][k] and nums[a][k] are the integers of brick k's cell on axis a."""
    exps = [[b.cells[a].exponent for b in bricks] for a in range(dim)]
    return exps, [[b.cells[a].numerator for b in bricks] for a in range(dim)]


def _halve_region(r_exps: tuple, r_nums: tuple, axis: int) -> tuple[tuple, tuple]:
    """The (lower, upper) halves of a region along an axis, each (exps, nums)."""
    exps = r_exps[:axis] + (r_exps[axis] + 1,) + r_exps[axis + 1 :]
    n, before, after = r_nums[axis] << 1, r_nums[:axis], r_nums[axis + 1 :]
    return (exps, before + (n,) + after), (exps, before + (n | 1,) + after)


def _split_axis(
    exps: list[list[int]], r_exps: tuple[int, ...], live: Iterable[int]
) -> int | None:
    """An axis on which some live brick is finer than the region, if any."""
    for k in live:
        for a, e in enumerate(r_exps):
            if exps[a][k] > e:
                return a
    return None


def _halve(
    live: list[int], exps: list[int], nums: list[int], e: int
) -> tuple[list[int], list[int]]:
    """Send live bricks to the halves of a region cell of exponent e they meet.

    `exps` and `nums` are the bricks' cells on the axis being halved.
    """
    lo: list[int] = []
    hi: list[int] = []
    for k in live:
        finer = exps[k] - e
        if finer <= 0:
            lo.append(k)
            hi.append(k)
        elif (nums[k] >> (finer - 1)) & 1:
            hi.append(k)
        else:
            lo.append(k)
    return lo, hi


def _overlaps(bricks: Sequence[Brick]) -> list[tuple[int, int]]:
    """Index pairs i < j of overlapping bricks, in ascending order."""
    if len(bricks) < 2:
        return []
    return sorted((i, j) for i, j, _ in brick_meets(bricks, bricks) if i < j)


@dataclass(frozen=True)
class Partition:
    """A set of pairwise-disjoint bricks covering [0,1)^n, stored sorted."""

    bricks: tuple[Brick, ...]

    def __post_init__(self) -> None:
        if not self.bricks:
            raise PartitionError("a partition needs at least one brick")
        object.__setattr__(
            self, "bricks", tuple(sorted(self.bricks, key=Brick.sort_key))
        )
        dim = self.bricks[0].dimension
        for b in self.bricks:
            if b.dimension != dim:
                raise DimensionMismatchError("bricks of mixed dimensions in a partition")

    @property
    def dimension(self) -> int:
        return self.bricks[0].dimension

    def __len__(self) -> int:
        return len(self.bricks)

    def __iter__(self) -> Iterator[Brick]:
        return iter(self.bricks)

    def __contains__(self, brick: Brick) -> bool:
        return brick in self.bricks


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a partition check; falsy when problems were found."""

    ok: bool
    problems: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def partition_validate(bricks: Iterable[Brick]) -> ValidationReport:
    """Check disjointness and total measure 1, naming each violation."""
    items = list(bricks)
    problems: list[str] = []
    if not items:
        return ValidationReport(False, ("no bricks given",))
    dim = items[0].dimension
    for b in items[1:]:
        if b.dimension != dim:
            problems.append(f"mixed dimensions: {dim} and {b.dimension}")
            return ValidationReport(False, tuple(problems))
    for i, j in _overlaps(items):
        problems.append(f"bricks overlap: {items[i]} and {items[j]}")
    # A brick's measure is 2^-depth, its depth the sum of its exponents, so
    # the total is an exact integer count of cells at the deepest depth.
    depths = [sum(c.exponent for c in b.cells) for b in items]
    deepest = max(depths)
    total = sum(1 << (deepest - d) for d in depths)
    if total != 1 << deepest:
        problems.append(f"total measure is {Fraction(total, 1 << deepest)}, expected 1")
    return ValidationReport(not problems, tuple(problems))


def unit_brick(dimension: int) -> Brick:
    if not 1 <= dimension <= MAX_DIMENSION:
        raise GeometryError(f"dimension must be in 1..{MAX_DIMENSION}, got {dimension}")
    return Brick(tuple(Cell(0, 0) for _ in range(dimension)))


def unit_partition(dimension: int) -> Partition:
    return Partition((unit_brick(dimension),))


def common_refinement(p: Partition, q: Partition) -> Partition:
    """The coarsest partition refining both: all nonempty pairwise meets."""
    if p.dimension != q.dimension:
        raise DimensionMismatchError(
            f"partitions of dimensions {p.dimension} and {q.dimension}"
        )
    return Partition(tuple(meet for _, _, meet in brick_meets(p.bricks, q.bricks)))


def peel_to_unit(brick: Brick) -> list[Brick]:
    """Tile the complement of a brick with its successive doubling siblings.

    Walk the brick up to the unit cube; at each step double along the axis
    whose cell is currently finest (ties broken by the lowest axis index) and
    emit the sibling that the doubling absorbs. The emitted bricks tile
    [0,1)^n minus the input exactly.
    """
    out: list[Brick] = []
    cur = brick
    while not cur.is_unit:
        axis = max(
            range(cur.dimension),
            key=lambda a: (cur.cells[a].exponent, -a),
        )
        out.append(cur.sibling(axis))
        cur = cur.double(axis)
    return out


def tile_complement(dimension: int, holes: Sequence[Brick]) -> list[Brick]:
    """Tile [0,1)^n minus the given disjoint holes with dyadic bricks.

    Explicit-stack descent from the unit cube: a region meeting no hole is
    emitted whole; otherwise it is halved along the lowest axis on which a
    live hole is finer, lower half first, a rule that pins the tiles and
    their order. With no such axis, its one live hole contains it: dropped.
    """
    for b in holes:
        if b.dimension != dimension:
            raise DimensionMismatchError(
                f"hole of dimension {b.dimension} in a {dimension}-cube"
            )
    overlaps = _overlaps(holes)
    if overlaps:
        i, j = overlaps[0]
        raise GeometryError(f"holes overlap: {holes[i]} and {holes[j]}")
    exps, nums = _columns(holes, dimension)
    out: list[Brick] = []
    root = (0,) * dimension
    stack = [(root, root, list(range(len(holes))))]
    while stack:
        r_exps, r_nums, live = stack.pop()
        if not live:
            out.append(Brick(tuple(map(Cell, r_exps, r_nums))))
            continue
        for axis, e in enumerate(r_exps):
            if any(exps[axis][k] > e for k in live):
                break
        else:  # the region lies inside its one live hole
            continue
        lo_live, hi_live = _halve(live, exps[axis], nums[axis], e)
        lo, hi = _halve_region(r_exps, r_nums, axis)
        stack += ((*hi, hi_live), (*lo, lo_live))
    return out
