"""Constructors and recognizers for the two generator families.

A transposition swaps two bricks of an ambient partition by the canonical
affine map and fixes every other brick pointwise; it is proper when the
ambient partition has more than two bricks (so some point is fixed).

A baker's map halves its support along a split axis, stacks the two halves
along a merge axis (lower onto lower), and fixes the complement. The support,
the two axes, and the complement tiling determine the element exactly.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import GeometryError, PartitionError
from .geometry import Brick, Partition, _Record, _partition_problems, peel_to_unit
from .elements import Element, Pair, coarsen


class TranspositionSpec(_Record):
    """An ambient partition with two designated bricks to swap."""

    __slots__ = ("ambient", "a", "b")

    def __init__(self, ambient: Partition, a: Brick, b: Brick) -> None:
        self._set(ambient, a, b)
        if self.a not in self.ambient or self.b not in self.ambient:
            raise GeometryError("swapped bricks must be members of the ambient partition")
        if self.a == self.b:
            raise GeometryError("swapped bricks must be distinct")

    @property
    def proper(self) -> bool:
        return len(self.ambient) > 2


def make_transposition(spec: TranspositionSpec) -> Element:
    ambient = spec.ambient
    _check_ambient([b.ints for b in ambient])
    return _swaps(ambient.dimension, ambient.bricks, [(spec.a.ints, spec.b.ints)])[0]


def _check_ambient(cells: Sequence[tuple[int, ...]]) -> None:
    """Refuse cell-int bricks that do not partition the cube, naming each problem."""
    problems = _partition_problems(cells)
    if problems:
        raise PartitionError(f"ambient is not a partition: {'; '.join(problems)}")


def _swaps(
    dimension: int,
    ordered: Sequence[Brick],
    swaps: Iterable[tuple[tuple[int, ...], tuple[int, ...]]],
) -> list[Element]:
    """The transposition of each (x, y), as cell ints, inside one checked ambient.

    The ambient is sorted by sort key, the order of an element's pairs, so
    each transposition maps it in place: x -> y, y -> x and the rest fixed.
    The fixed pairs are built once and shared.
    """
    cells = [b.ints for b in ordered]
    fixed = [Pair._of(b, b) for b in ordered]
    out = []
    for x, y in swaps:
        i, j = cells.index(x), cells.index(y)
        pairs = fixed.copy()
        pairs[i], pairs[j] = Pair._of(ordered[i], ordered[j]), Pair._of(ordered[j], ordered[i])
        out.append(Element._of(dimension, tuple(pairs)))
    return out


class BakerSpec(_Record):
    """A baker's map: halve `support` along `split_axis`, restack along `merge_axis`."""

    __slots__ = ("support", "split_axis", "merge_axis")

    def __init__(self, support: Brick, split_axis: int, merge_axis: int) -> None:
        self._set(support, split_axis, merge_axis)
        dim = self.support.dimension
        for name, axis in (("split_axis", self.split_axis), ("merge_axis", self.merge_axis)):
            if not 0 <= axis < dim:
                raise GeometryError(f"{name} {axis} out of range for dimension {dim}")
        if self.split_axis == self.merge_axis:
            raise GeometryError("split and merge axes must differ")

    @property
    def dimension(self) -> int:
        return self.support.dimension


def make_baker(spec: BakerSpec) -> Element:
    """The baker's map as an element, identity outside the support.

    The complement is tiled by peeling the support up to the unit cube
    (finest axis first); each peeled brick becomes an identity pair.
    """
    lo_i, hi_i = spec.support.split(spec.split_axis)
    lo_j, hi_j = spec.support.split(spec.merge_axis)
    pairs = [Pair._of(lo_i, lo_j), Pair._of(hi_i, hi_j)]
    for brick in peel_to_unit(spec.support):
        pairs.append(Pair._of(brick, brick))
    return Element(spec.dimension, pairs)


def is_transposition_form(f: Element) -> tuple[bool, TranspositionSpec | None]:
    """Recognize transpositions from the coarsened presentation.

    Returns (recognized, spec). The spec's ambient is the domain partition
    of `coarsen(f)`, which depends on f's presentation: two presentations
    of one transposition can report different ambients. Its `proper` flag
    does not: the reduced form keeps an identity pair exactly when the map
    fixes some point.
    """
    moved = _two_moved(f)
    if moved is None:
        return False, None
    g, p, q = moved
    if p.domain != q.range or p.range != q.domain:
        return False, None
    spec = TranspositionSpec(g.domain_partition, p.domain, p.range)
    return True, spec


def is_baker_form(f: Element) -> tuple[bool, BakerSpec | None]:
    """Recognize baker's maps from the coarsened presentation."""
    moved = _two_moved(f)
    if moved is None:
        return False, None
    _g, p, q = moved
    split_axis = _sibling_axis(p.domain, q.domain)
    merge_axis = _sibling_axis(p.range, q.range)
    if split_axis is None or merge_axis is None or split_axis == merge_axis:
        return False, None
    support = p.domain.double(split_axis)
    if support != p.range.double(merge_axis):
        return False, None
    # Orientation: the lower split half must land on the lower merge half.
    # A child cell int ends in 0 exactly when it is the lower child.
    lower_dom = p if p.domain.ints[split_axis] & 1 == 0 else q
    if lower_dom.range.ints[merge_axis] & 1:
        return False, None
    # The moved pairs now pin the map exactly (pairs glue canonically and the
    # remaining pairs are identities), so no further comparison is needed.
    return True, BakerSpec(support, split_axis, merge_axis)


def _two_moved(f: Element) -> tuple[Element, Pair, Pair] | None:
    """coarsen(f) and its two non-identity pairs, if it has exactly two."""
    g = coarsen(f)
    moved = [p for p in g.pairs if not p.is_identity]
    return (g, *moved) if len(moved) == 2 else None


def _sibling_axis(a: Brick, b: Brick) -> int | None:
    """The axis along which a and b are sibling halves, if there is one."""
    axis = None
    for i, (ca, cb) in enumerate(zip(a.ints, b.ints)):
        if ca == cb:
            continue
        if axis is not None or ca ^ cb != 1:  # siblings differ in the last bit only
            return None
        axis = i
    return axis
