"""Dyadic intervals, bricks, and partitions of the unit n-cube.

All geometry is exact: a cell is the half-open interval [k/2^e, (k+1)/2^e),
the pair (e, k) of a `Cell`, and a brick is a product of one cell per axis.
Two dyadic cells are always nested or disjoint, which is what makes
partition refinement and the rest of the library purely combinatorial.

A `Brick` stores each cell as one int, ``(1 << e) | k``: the cell's binary
string, so halving appends a bit, its ancestors are its prefixes, a longer
int is a finer cell, and two cells meet exactly when one is a prefix of the
other. Every brick primitive runs on these ints; `Brick.cells` builds
`Cell`s only for readers. Fractions appear only at the boundary (endpoints,
measures, point membership), and the sort keys are integers too: a cell
sorts by its left endpoint scaled by 2^MAX_EXPONENT, then by its exponent.

One `_RangeIndex` over such bricks answers every "which bricks meet this
one" question: `_meets` (composition and equality, on cell ints), the
overlap check of `partition_validate` and `tile_complement`, and the
one-pass verifier in `elements`. It files brick ids as bits of int masks
under each cell and its prefixes, and a query ANDs one mask per axis.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

from .errors import (
    DimensionMismatchError,
    ExponentLimitError,
    GeometryError,
    PartitionError,
)

# Hard ceilings on cell exponents and on axes, each checked in one place so
# that no input sets off runaway work. Cells deepen only through `Cell`,
# `_halves` (the cut of `Brick.split` and of the one-pass verifier) and
# `elements._carry`, which all call `_check_exponent`; bricks get their axes
# only from `Brick(cells)` and `unit_brick`, which call `_check_dimension`.
# Bricks derived from such bricks (`Brick._of`) are trusted.
MAX_EXPONENT = 64
MAX_DIMENSION = 64


def _check_exponent(exponent: int) -> None:
    if exponent > MAX_EXPONENT:
        raise ExponentLimitError(f"cell exponent {exponent} exceeds the limit {MAX_EXPONENT}")


def _check_dimension(dimension: int) -> None:
    if not 1 <= dimension <= MAX_DIMENSION:
        raise GeometryError(f"dimension must be in 1..{MAX_DIMENSION}, got {dimension}")


class _Record:
    """An immutable record over its `__slots__`, behaving as a frozen dataclass.

    `repr`, equality (with records of the same class only) and hashing read
    the public slots in order, so ``hash(r) == hash((r.a, r.b, ...))``. A
    slot named with a leading underscore is a private cache: pickling and
    copying keep it, nothing else reads it. Setting or deleting any
    attribute raises `dataclasses.FrozenInstanceError`; `dataclasses` is
    imported only then, so importing the library does not load it.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        # `_fields` names the public slots; `_values(record)` reads them as one tuple.
        fields = cls._fields = cls.__match_args__ = tuple(n for n in cls.__slots__ if n[0] != "_")
        get = attrgetter(*fields)  # gives a bare value for one name, so that case is wrapped
        cls._values = staticmethod(get if len(fields) > 1 else lambda record: (get(record),))

    def _set(self, *values: object) -> None:
        """Fill the slots in order, bypassing the frozen `__setattr__`."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __getstate__(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setstate__(self, state: tuple) -> None:
        self._set(*state)

    def __setattr__(self, name: str, value: object) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")


class Cell(_Record):
    """Half-open dyadic interval [numerator/2^exponent, (numerator+1)/2^exponent)."""

    __slots__ = ("exponent", "numerator")

    def __init__(self, exponent: int, numerator: int) -> None:
        # Set directly, not by `_set`: that call costs as much again, per cell.
        object.__setattr__(self, "exponent", exponent)
        object.__setattr__(self, "numerator", numerator)
        if self.exponent < 0:
            raise GeometryError(f"cell exponent must be >= 0, got {self.exponent}")
        _check_exponent(self.exponent)
        if not 0 <= self.numerator < (1 << self.exponent):
            raise GeometryError(
                f"cell numerator {self.numerator} out of range for exponent {self.exponent}"
            )

    @classmethod
    def _of(cls, exponent: int, numerator: int) -> "Cell":
        """A cell of a valid (exponent, numerator), as `Brick.cells` reads them: unchecked."""
        cell = object.__new__(cls)
        object.__setattr__(cell, "exponent", exponent)
        object.__setattr__(cell, "numerator", numerator)
        return cell

    @property
    def lo(self) -> Fraction:
        return Fraction(self.numerator, 1 << self.exponent)

    @property
    def hi(self) -> Fraction:
        return Fraction(self.numerator + 1, 1 << self.exponent)

    @property
    def length(self) -> Fraction:
        return Fraction(1, 1 << self.exponent)

    def contains_value(self, x: Fraction) -> bool:
        return self.lo <= x < self.hi

    def __str__(self) -> str:
        return f"{self.numerator}/2^{self.exponent}"


class Brick(_Record):
    """Product of one dyadic cell per axis: a half-open box in [0,1)^n.

    `Brick(cells)` takes 1..MAX_DIMENSION checked `Cell`s, one per axis, and
    stores one cell int per axis.
    The sort key is computed at most once, on first use, and kept in `_key`;
    equality and hashing read `ints` alone, in methods of their own, as
    bricks are compared and hashed far more often than any other record.
    """

    __slots__ = ("ints", "_key")

    def __init__(self, cells: Sequence[Cell]) -> None:
        _check_dimension(len(cells))
        self._set(tuple((1 << c.exponent) | c.numerator for c in cells), None)

    @classmethod
    def _of(cls, ints: tuple[int, ...]) -> "Brick":
        """A brick from valid cell ints, as the library derives them: unchecked."""
        brick = object.__new__(cls)
        object.__setattr__(brick, "ints", ints)
        object.__setattr__(brick, "_key", None)
        return brick

    @property
    def cells(self) -> tuple[Cell, ...]:
        return tuple(Cell._of(*_cell_of(c)) for c in self.ints)

    @property
    def dimension(self) -> int:
        return len(self.ints)

    @property
    def measure(self) -> Fraction:
        return Fraction(*_cell_count([self.ints]))

    @property
    def diameter(self) -> Fraction:
        """Longest side (the l-infinity diameter)."""
        return Fraction(1, 1 << _cell_of(min(self.ints))[0])

    @property
    def is_unit(self) -> bool:
        return max(self.ints) == 1

    def split(self, axis: int) -> tuple["Brick", "Brick"]:
        """Halve along one axis into (lower, upper)."""
        self._at(axis)  # refuses a bad axis
        lo, hi = _halves(self.ints, axis)
        return Brick._of(lo), Brick._of(hi)

    def double(self, axis: int) -> "Brick":
        if self._at(axis) == 1:
            raise GeometryError("the unit interval has no parent cell")
        return Brick._of(_with(self.ints, axis, self.ints[axis] >> 1))

    def sibling(self, axis: int) -> "Brick":
        if self._at(axis) == 1:
            raise GeometryError("the unit interval has no sibling")
        return Brick._of(_with(self.ints, axis, self.ints[axis] ^ 1))

    def contains_point(self, point: Sequence[Fraction]) -> bool:
        if len(point) != self.dimension:
            raise DimensionMismatchError(
                f"point has {len(point)} coordinates, brick has {self.dimension}"
            )
        return all(c.contains_value(x) for c, x in zip(self.cells, point))

    def contains_brick(self, other: "Brick") -> bool:
        _check_same_dimension(self, other)
        return all(_inside(o, s) for o, s in zip(other.ints, self.ints))

    def sort_key(self) -> tuple[int, ...]:
        """Orders bricks as their cells' (lo, exponent) pairs do, axis by axis."""
        if self._key is None:
            object.__setattr__(self, "_key", _sort_key(self.ints))
        return self._key

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.ints == other.ints
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.ints,))

    def __str__(self) -> str:
        return ",".join("{1}/2^{0}".format(*_cell_of(c)) for c in self.ints)

    def _at(self, axis: int) -> int:
        """The cell int on an axis, once the axis is checked."""
        if not 0 <= axis < self.dimension:
            raise GeometryError(f"axis {axis} out of range for dimension {self.dimension}")
        return self.ints[axis]


def _sort_key(ints: tuple[int, ...]) -> tuple[int, ...]:
    """`Brick.sort_key` of cell ints: each cell's scaled left end, then exponent."""
    key: tuple[int, ...] = ()
    for c in ints:
        e = c.bit_length() - 1
        key += ((c ^ (1 << e)) << (MAX_EXPONENT - e), e)
    return key


def _halves(ints: tuple[int, ...], axis: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """`Brick.split` of cell ints along a valid axis: the lower and upper halves."""
    c = ints[axis] << 1
    _check_exponent(c.bit_length() - 1)
    return _with(ints, axis, c), _with(ints, axis, c | 1)


def _with(ints: tuple[int, ...], axis: int, c: int) -> tuple[int, ...]:
    """The cell ints with the one on an axis replaced by c."""
    return ints[:axis] + (c,) + ints[axis + 1 :]


def _cell_of(c: int) -> tuple[int, int]:
    """The (exponent, numerator) of a cell int."""
    e = c.bit_length() - 1
    return e, c ^ (1 << e)


def _inside(x: int, y: int) -> bool:
    """Whether cell int x lies inside cell int y: y is a prefix of x."""
    shift = x.bit_length() - y.bit_length()
    return shift >= 0 and x >> shift == y


def _check_same_dimension(a: Brick, b: Brick) -> None:
    if a.dimension != b.dimension:
        raise DimensionMismatchError(
            f"bricks of dimensions {a.dimension} and {b.dimension}"
        )


def brick_intersect(a: Brick, b: Brick) -> Brick | None:
    """Intersection of two bricks, or None when they are disjoint.

    Per axis the cells are nested or disjoint, so the intersection is the
    finer cell, the larger int, on every axis or empty.
    """
    _check_same_dimension(a, b)
    if all(_inside(max(x, y), min(x, y)) for x, y in zip(a.ints, b.ints)):
        return Brick._of(tuple(map(max, a.ints, b.ints)))
    return None


def bricks_disjoint(a: Brick, b: Brick) -> bool:
    return brick_intersect(a, b) is None


def _meets(
    xs: Sequence[tuple[int, ...]], ys: Sequence[tuple[int, ...]]
) -> Iterator[tuple[int, int, tuple[int, ...]]]:
    """Yield every nonempty meet xs[i] & ys[j] as (i, j, meet), each pair once.

    The lists hold cell-int bricks of one dimension, xs nonempty, unchecked;
    they may overlap themselves or repeat a brick. The bricks of xs go into
    a `_RangeIndex`, and each brick of ys in turn asks it for the ids of the
    bricks it meets, so the meets come lazily in (j, i) order. The index
    proves each meet, so the meet is just the finer cell, the larger int, on
    every axis, and no failed candidate is built. A query ORs one id mask
    per prefix of its cell on each axis and ANDs the axes, so it costs its
    cells' total depth in mask operations, each as wide as xs is long, plus
    one step per meet found.
    """
    index = _RangeIndex(xs)
    for j, y in enumerate(ys):
        for i in index.meeting(y):
            yield i, j, tuple(map(max, xs[i], y))


def _overlaps(cells: Sequence[tuple[int, ...]]) -> list[tuple[int, int]]:
    """Index pairs i < j of overlapping cell-int bricks, in ascending order.

    Bricks share cells, so each distinct cell's nested mask is taken once
    per axis, and each brick ANDs the masks of its cells.
    """
    if len(cells) < 2:
        return []
    found = [-1] * len(cells)
    for axis, (exact, under) in enumerate(_RangeIndex(cells).axes):
        nested = {c: _nested(exact, under, c) for c in exact}
        found = [m & nested[c[axis]] for m, c in zip(found, cells)]
    # Each brick meets itself; only the partners after it are kept.
    return [(i, j) for i, m in enumerate(found) for j in _ids(m & -(2 << i))]


def _nested(exact: dict[int, int], under: dict[int, int], h: int) -> int:
    """The mask of the ids on one axis whose cells are nested with cell int h."""
    nested = under.get(h, 0)
    h >>= 1
    while h:
        nested |= exact.get(h, 0)
        h >>= 1
    return nested


def _ids(mask: int) -> list[int]:
    """The ids of a mask's set bits, lowest first."""
    ids = []
    while mask:
        low = mask & -mask
        ids.append(low.bit_length() - 1)
        mask ^= low
    return ids


class _RangeIndex:
    """Bricks as their cell ints (`Brick.ints`), by id, found through their cells.

    Two bricks meet exactly when their cells are nested on every axis, and
    two cell ints are nested exactly when one is a prefix, a right shift,
    of the other. So per axis the index files each id twice, as bit i of an
    int mask: in `exact` under its cell c, and in `under` under c and each
    prefix of c, from ``c >> 1`` up to the unit cell 1. The ids nested with
    a cell h are then ``under[h]``, the cells inside h, and ``exact`` at each
    proper prefix of h, the cells around it. A query ORs these masks on one
    axis, ANDs the axes together and stops at the first empty one: a bitmap
    index (O'Neil and Quass, SIGMOD 1997) over a hashed dyadic trie in the
    spirit of Finkel and Bentley's quad trees. It reads the ids out of the
    mask lowest bit first, so every answer is in ascending id order.

    The constructor files its bricks in bulk: per axis, one mask for each
    distinct cell, ORed into that cell's prefixes once, so bricks that share
    cells, as the bricks of a partition do, share the prefix walks.

    `remove` frees an id for the next `add` at once, so a mask is never
    wider than the most ids in use at once. The index keeps one mask per
    cell and prefix ever filed, at most MAX_EXPONENT + 1 per cell and axis,
    and an emptied mask is the int 0. So its memory grows with the distinct
    cells filed times the ids in use, not with each brick's cell depth.
    The bricks must be nonempty and of one dimension.
    """

    def __init__(self, bricks: Sequence[tuple[int, ...]]) -> None:
        self.bricks: dict[int, tuple[int, ...]] = dict(enumerate(bricks))
        self.free: list[int] = []  # removed ids, ready for reuse
        self.axes: list[tuple[dict[int, int], dict[int, int]]] = []
        for axis in range(len(bricks[0])):
            exact: dict[int, int] = {}
            for i, b in enumerate(bricks):
                exact[b[axis]] = exact.get(b[axis], 0) | 1 << i
            under: dict[int, int] = {}
            for c, mask in exact.items():
                while c:
                    under[c] = under.get(c, 0) | mask
                    c >>= 1
            self.axes.append((exact, under))

    def add(self, b: tuple[int, ...]) -> int:
        """Index one more brick and return its id."""
        i = self.free.pop() if self.free else len(self.bricks)
        self.bricks[i] = b
        bit = 1 << i
        for (exact, under), c in zip(self.axes, b):
            exact[c] = exact.get(c, 0) | bit
            while c:
                under[c] = under.get(c, 0) | bit
                c >>= 1
        return i

    def meeting(self, d: tuple[int, ...]) -> list[int]:
        """The ids of the indexed bricks that meet brick d, in ascending order."""
        found = -1  # every id, until an axis narrows it
        for (exact, under), h in zip(self.axes, d):
            found &= _nested(exact, under, h)
            if not found:
                return []
        return _ids(found)

    def remove(self, i: int) -> tuple[int, ...]:
        """Remove the brick with id i and return it."""
        b = self.bricks.pop(i)
        self.free.append(i)
        bit = 1 << i
        for (exact, under), c in zip(self.axes, b):
            exact[c] ^= bit
            while c:
                under[c] ^= bit
                c >>= 1
        return b


class Partition(_Record):
    """Bricks of a partition of [0,1)^n, given in any iterable, stored sorted.

    The constructor checks only that there are bricks and that they share
    one dimension. That they are disjoint and cover the cube is checked by
    `partition_validate`, `make_transposition` and the parsers.
    """

    __slots__ = ("bricks",)

    def __init__(self, bricks: Iterable[Brick]) -> None:
        self._set(tuple(sorted(bricks, key=Brick.sort_key)))
        if not self.bricks:
            raise PartitionError("a partition needs at least one brick")
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


class ValidationReport(_Record):
    """Outcome of a partition check; falsy when problems were found."""

    __slots__ = ("ok", "problems")

    def __init__(self, ok: bool, problems: tuple[str, ...]) -> None:
        self._set(ok, problems)

    def __bool__(self) -> bool:
        return self.ok


def partition_validate(bricks: Iterable[Brick]) -> ValidationReport:
    """Check disjointness and total measure 1, naming each violation."""
    items = list(bricks)
    if not items:
        return ValidationReport(False, ("no bricks given",))
    dim = items[0].dimension
    for b in items[1:]:
        if b.dimension != dim:
            return ValidationReport(False, (f"mixed dimensions: {dim} and {b.dimension}",))
    problems = tuple(_partition_problems([b.ints for b in items]))
    return ValidationReport(not problems, problems)


def _partition_problems(cells: Sequence[tuple[int, ...]]) -> list[str]:
    """`partition_validate`'s overlap and measure problems of nonempty cell-int bricks."""
    problems = [
        f"bricks overlap: {Brick._of(cells[i])} and {Brick._of(cells[j])}"
        for i, j in _overlaps(cells)
    ]
    count, cube = _cell_count(cells)
    if count != cube:
        problems.append(f"total measure is {Fraction(count, cube)}, expected 1")
    return problems


def _cell_count(bricks: Sequence[tuple[int, ...]]) -> tuple[int, int]:
    """The total measure of bricks given as cell ints, as (n, 2^e) for n / 2^e.

    A brick's measure is 2^-depth, its depth the sum of its exponents, so
    the sum is an exact integer count n of cells at the deepest depth e.
    """
    depths = [sum(c.bit_length() for c in b) - len(b) for b in bricks]
    deepest = max(depths)
    return sum(1 << (deepest - d) for d in depths), 1 << deepest


def unit_brick(dimension: int) -> Brick:
    _check_dimension(dimension)
    return Brick._of((1,) * dimension)


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
            key=lambda a: (cur.ints[a].bit_length(), -a),
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
    cells = [b.ints for b in holes]
    overlaps = _overlaps(cells)
    if overlaps:
        i, j = overlaps[0]
        raise GeometryError(f"holes overlap: {holes[i]} and {holes[j]}")
    return [Brick._of(c) for c in _tile_cells(unit_brick(dimension).ints, cells)]


def _tile_cells(
    region: tuple[int, ...], holes: list[tuple[int, ...]]
) -> list[tuple[int, ...]]:
    """`tile_complement`'s descent on cell ints, from a region the holes lie in: unchecked."""
    out: list[tuple[int, ...]] = []
    # Each live hole rides with its cells' bit lengths, taken once.
    stack = [(region, [(h, [c.bit_length() for c in h]) for h in holes])]
    while stack:
        region, live = stack.pop()
        if not live:
            out.append(region)
            continue
        axis = _finer_axis(region, live)
        if axis is None:  # the region lies inside its one live hole
            continue
        # A hole finer than the region on the axis lies in the half its
        # next bit names; any other live hole lies across both halves. The
        # upper half is pushed first, so the lower half is tiled first.
        r = region[axis]
        n = r.bit_length()
        lower, upper = [], []
        for hole in live:
            h, depths = hole
            below = depths[axis] - n - 1
            if below < 0:
                lower.append(hole)
                upper.append(hole)
            elif h[axis] >> below & 1:
                upper.append(hole)
            else:
                lower.append(hole)
        stack.append((_with(region, axis, r << 1 | 1), upper))
        stack.append((_with(region, axis, r << 1), lower))
    return out


def _finer_axis(region: tuple[int, ...], live: list) -> int | None:
    """The lowest axis on which some live hole's cell is finer than the region's."""
    for axis, r in enumerate(region):
        n = r.bit_length()
        for _, depths in live:
            if depths[axis] > n:
                return axis
    return None
