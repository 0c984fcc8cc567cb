from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nvbaker.geometry
from nvbaker import (
    MAX_DIMENSION,
    Brick,
    Cell,
    DimensionMismatchError,
    ExponentLimitError,
    GeometryError,
    Partition,
    PartitionError,
    RandomElementSpec,
    brick_intersect,
    bricks_disjoint,
    partition_validate,
    peel_to_unit,
    random_element,
    tile_complement,
    unit_brick,
)

from conftest import all_cells, brick, interval


class TestCell:
    def test_basic_values(self):
        c = Cell(2, 3)
        assert c.lo == Fraction(3, 4)
        assert c.hi == Fraction(1)
        assert c.length == Fraction(1, 4)
        assert str(c) == "3/2^2"

    def test_unit_interval(self):
        c = Cell(0, 0)
        assert c.lo == 0 and c.hi == 1 and c.length == 1

    def test_validation(self):
        with pytest.raises(GeometryError):
            Cell(-1, 0)
        with pytest.raises(GeometryError):
            Cell(1, 2)
        with pytest.raises(GeometryError):
            Cell(1, -1)

    def test_exponent_limit(self):
        Cell(64, 0)
        with pytest.raises(ExponentLimitError):
            Cell(65, 0)

    def test_exponent_limit_is_patchable(self, monkeypatch):
        monkeypatch.setattr(nvbaker.geometry, "MAX_EXPONENT", 8)
        Cell(8, 0)
        with pytest.raises(ExponentLimitError):
            Cell(9, 0)

    # Halving, doubling, siblings and sort keys live on `Brick`; these run
    # them on one-axis bricks, one cell each.
    def test_split_children(self):
        lo, hi = Brick((Cell(1, 1),)).split(0)
        assert lo.cells == (Cell(2, 2),)
        assert hi.cells == (Cell(2, 3),)

    def test_double_and_sibling(self):
        c = Brick((Cell(2, 2),))
        assert c.double(0) == Brick((Cell(1, 1),))
        assert c.sibling(0) == Brick((Cell(2, 3),))
        assert c.sibling(0).sibling(0) == c
        for child in Brick((Cell(3, 5),)).split(0):
            assert child.double(0) == Brick((Cell(3, 5),))

    def test_root_has_no_parent(self):
        with pytest.raises(GeometryError):
            unit_brick(1).double(0)
        with pytest.raises(GeometryError):
            unit_brick(1).sibling(0)

    def test_contains_value(self):
        c = Cell(1, 0)
        assert c.contains_value(Fraction(0))
        assert c.contains_value(Fraction(1, 4))
        assert not c.contains_value(Fraction(1, 2))

    def test_sort_key_orders_by_left_end_then_exponent(self):
        cells = all_cells(6)
        for e in (63, 64):
            top = 1 << e
            for k in (0, 1, 2, top // 2 - 1, top // 2, top // 2 + 1, top - 2, top - 1):
                cells.append(Cell(e, k))
        expected = sorted(cells, key=lambda c: (Fraction(c.numerator, 1 << c.exponent), c.exponent))
        bricks = [Brick((c,)) for c in cells]
        assert [b.cells[0] for b in sorted(bricks, key=Brick.sort_key)] == expected
        assert [b.cells[0] for b in sorted(reversed(bricks), key=Brick.sort_key)] == expected
        assert all(isinstance(v, int) for b in bricks for v in b.sort_key())


def cell_relation(a: Cell, b: Cell) -> str:
    """How two cells relate, read from `brick_intersect` on one-axis bricks."""
    x, y = Brick((a,)), Brick((b,))
    meet = brick_intersect(x, y)
    if meet is None:
        return "disjoint"
    if x == y:
        return "equal"
    return "a_inside_b" if meet == x else "b_inside_a"


class TestCellRelation:
    def test_frozen_cases(self):
        assert cell_relation(Cell(1, 0), Cell(1, 0)) == "equal"
        assert cell_relation(Cell(1, 0), Cell(1, 1)) == "disjoint"
        assert cell_relation(Cell(2, 1), Cell(1, 0)) == "a_inside_b"
        assert cell_relation(Cell(1, 0), Cell(2, 1)) == "b_inside_a"
        assert cell_relation(Cell(2, 2), Cell(1, 0)) == "disjoint"

    def test_exhaustive_against_interval_arithmetic(self):
        # Every pair of cells with exponent <= 3, classified by raw interval
        # comparison as the independent route.
        cells = all_cells(3)
        for a in cells:
            for b in cells:
                alo, ahi = interval(a)
                blo, bhi = interval(b)
                if ahi <= blo or bhi <= alo:
                    expected = "disjoint"
                elif alo == blo and ahi == bhi:
                    expected = "equal"
                elif blo <= alo and ahi <= bhi:
                    expected = "a_inside_b"
                else:
                    assert alo <= blo and bhi <= ahi
                    expected = "b_inside_a"
                assert cell_relation(a, b) == expected, (a, b)


class TestBrick:
    def test_measure_diameter_unit(self):
        b = brick("1/2^1,2/2^2")
        assert b.dimension == 2
        assert b.measure == Fraction(1, 8)
        assert b.diameter == Fraction(1, 2)
        assert not b.is_unit
        assert unit_brick(3).is_unit
        assert str(b) == "1/2^1,2/2^2"

    def test_split_double_sibling(self):
        b = brick("1/2^1,0/2^0")
        lo, hi = b.split(1)
        assert lo == brick("1/2^1,0/2^1")
        assert hi == brick("1/2^1,1/2^1")
        assert b.double(0) == brick("0/2^0,0/2^0")
        assert b.sibling(0) == brick("0/2^1,0/2^0")

    def test_axes_are_bounded(self):
        assert Brick((Cell(0, 0),) * MAX_DIMENSION).dimension == MAX_DIMENSION
        for axes in (0, MAX_DIMENSION + 1):
            with pytest.raises(GeometryError, match="dimension must be in"):
                Brick((Cell(0, 0),) * axes)

    def test_axis_out_of_range(self):
        b = unit_brick(2)
        for bad in (-1, 2):
            with pytest.raises(GeometryError):
                b.split(bad)

    def test_contains_point(self):
        b = brick("1/2^1,0/2^1")
        assert b.contains_point((Fraction(1, 2), Fraction(0)))
        assert b.contains_point((Fraction(3, 4), Fraction(499, 1000)))
        assert not b.contains_point((Fraction(1, 4), Fraction(0)))
        with pytest.raises(DimensionMismatchError):
            b.contains_point((Fraction(0),))

    def test_contains_brick(self):
        outer = brick("0/2^1,0/2^0")
        assert outer.contains_brick(outer)
        assert outer.contains_brick(brick("1/2^2,0/2^1"))
        assert not outer.contains_brick(brick("1/2^1,0/2^0"))
        assert not brick("1/2^2,0/2^1").contains_brick(outer)

    def test_unit_brick_validation(self):
        with pytest.raises(GeometryError):
            unit_brick(0)

    def test_unit_brick_dimension_is_bounded(self):
        assert unit_brick(MAX_DIMENSION).dimension == MAX_DIMENSION
        # Refused before a cell is built, so a huge dimension costs nothing.
        for dimension in (MAX_DIMENSION + 1, 10**8):
            with pytest.raises(GeometryError, match="dimension must be in"):
                unit_brick(dimension)


class TestBrickIntersect:
    def test_frozen_cases(self):
        assert brick_intersect(brick("0/2^1,0/2^0"), brick("0/2^0,0/2^1")) == brick(
            "0/2^1,0/2^1"
        )
        assert brick_intersect(brick("0/2^1,0/2^0"), brick("1/2^1,0/2^0")) is None
        assert bricks_disjoint(brick("0/2^1,0/2^0"), brick("1/2^1,0/2^0"))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            brick_intersect(unit_brick(2), unit_brick(3))

    def test_exhaustive_against_interval_arithmetic(self):
        cells = all_cells(2)
        bricks = [Brick((a, b)) for a in cells for b in cells]
        for x in bricks:
            for y in bricks:
                got = brick_intersect(x, y)
                expected_axes = []
                empty = False
                for cx, cy in zip(x.cells, y.cells):
                    lo = max(interval(cx)[0], interval(cy)[0])
                    hi = min(interval(cx)[1], interval(cy)[1])
                    if lo >= hi:
                        empty = True
                        break
                    expected_axes.append((lo, hi))
                if empty:
                    assert got is None, (x, y)
                else:
                    assert got is not None, (x, y)
                    for cell, (lo, hi) in zip(got.cells, expected_axes):
                        assert interval(cell) == (lo, hi), (x, y)


class TestPartition:
    def test_sorted_storage(self):
        p = Partition((brick("1/2^1,0/2^0"), brick("0/2^1,0/2^0")))
        assert [str(b) for b in p] == ["0/2^1,0/2^0", "1/2^1,0/2^0"]
        assert len(p) == 2
        assert brick("1/2^1,0/2^0") in p

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionMismatchError):
            Partition((unit_brick(2), unit_brick(3)))

    def test_empty_rejected(self):
        with pytest.raises(PartitionError):
            Partition(())

    def test_any_iterable_is_sorted_then_checked(self):
        with pytest.raises(PartitionError):
            Partition(iter(()))
        halves = unit_brick(1).split(0)
        p = Partition(b for b in reversed(halves))
        assert p.bricks == halves and p == Partition(list(halves))


class TestPartitionValidate:
    def test_valid(self):
        report = partition_validate([brick("0/2^1,0/2^0"), brick("1/2^1,0/2^0")])
        assert report
        assert report.problems == ()

    def test_overlap_named(self):
        report = partition_validate([brick("0/2^0,0/2^0"), brick("1/2^1,0/2^0")])
        assert not report
        assert any("overlap" in p for p in report.problems)
        assert any("1/2^1,0/2^0" in p for p in report.problems)

    def test_measure_deficit(self):
        report = partition_validate([brick("0/2^1,0/2^0")])
        assert not report
        assert any("measure" in p and "1/2" in p for p in report.problems)

    def test_problems_text_and_order(self):
        items = [
            brick("1/2^1,0/2^0"),
            brick("0/2^0,0/2^0"),
            brick("1/2^2,1/2^1"),
            brick("1/2^1,0/2^0"),
        ]
        assert partition_validate(items).problems == (
            "bricks overlap: 1/2^1,0/2^0 and 0/2^0,0/2^0",
            "bricks overlap: 1/2^1,0/2^0 and 1/2^1,0/2^0",
            "bricks overlap: 0/2^0,0/2^0 and 1/2^2,1/2^1",
            "bricks overlap: 0/2^0,0/2^0 and 1/2^1,0/2^0",
            "total measure is 17/8, expected 1",
        )

    def test_empty(self):
        assert not partition_validate([])


def common_refinement(p: Partition, q: Partition) -> Partition:
    """All nonempty meets of a brick of p with a brick of q, from `_meets`."""
    meets = nvbaker.geometry._meets([b.ints for b in p], [b.ints for b in q])
    return Partition([Brick._of(meet) for _, _, meet in meets])


class TestCommonRefinement:
    def test_frozen(self):
        halves_x = Partition(tuple(unit_brick(2).split(0)))
        halves_y = Partition(tuple(unit_brick(2).split(1)))
        quads = common_refinement(halves_x, halves_y)
        assert [str(b) for b in quads] == [
            "0/2^1,0/2^1",
            "0/2^1,1/2^1",
            "1/2^1,0/2^1",
            "1/2^1,1/2^1",
        ]

    def test_refines_both_and_has_measure_one(self):
        p = Partition((brick("0/2^1,0/2^0"), brick("1/2^1,0/2^1"), brick("1/2^1,1/2^1")))
        q = Partition((brick("0/2^0,0/2^1"), brick("0/2^0,1/2^1")))
        r = common_refinement(p, q)
        assert partition_validate(r.bricks)
        for piece in r:
            assert any(b.contains_brick(piece) for b in p)
            assert any(b.contains_brick(piece) for b in q)


class TestPeelToUnit:
    def test_unit_peels_to_nothing(self):
        assert peel_to_unit(unit_brick(2)) == []

    def test_frozen_walk(self):
        # Finest-axis-first with ties to the lowest axis: pinned order.
        got = peel_to_unit(brick("1/2^1,2/2^2"))
        assert [str(b) for b in got] == [
            "1/2^1,3/2^2",
            "0/2^1,1/2^1",
            "0/2^0,0/2^1",
        ]

    def test_tie_breaks_to_lowest_axis(self):
        got = peel_to_unit(brick("1/2^1,1/2^1"))
        assert [str(b) for b in got] == ["0/2^1,1/2^1", "0/2^0,0/2^1"]

    def test_tiles_complement(self):
        for text in ("1/2^1,2/2^2", "0/2^2,3/2^2", "1/2^1,1/2^1"):
            b = brick(text)
            assert partition_validate([b, *peel_to_unit(b)])
        b3 = Brick((Cell(2, 1), Cell(0, 0), Cell(1, 1)))
        assert partition_validate([b3, *peel_to_unit(b3)])


class TestTileComplement:
    def test_no_holes(self):
        assert tile_complement(2, []) == [unit_brick(2)]

    def test_unit_hole(self):
        assert tile_complement(2, [unit_brick(2)]) == []

    def test_partitions_around_holes(self):
        holes = [brick("0/2^1,0/2^1"), brick("1/2^2,2/2^2")]
        tiles = tile_complement(2, holes)
        assert partition_validate(holes + tiles)
        for t in tiles:
            for h in holes:
                assert bricks_disjoint(t, h)

    def test_three_dimensional(self):
        holes = [Brick((Cell(1, 0), Cell(1, 1), Cell(0, 0)))]
        tiles = tile_complement(3, holes)
        assert partition_validate(holes + tiles)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            tile_complement(3, [unit_brick(2)])

    def test_overlapping_holes_detected(self):
        with pytest.raises(GeometryError):
            tile_complement(2, [unit_brick(2), brick("0/2^1,0/2^1")])

    def test_deep_hole_in_many_axes(self):
        # Each of the 1,200 splits adds a level of descent, past the
        # recursion limit a recursive descent would hit.
        hole = Brick((Cell(60, 1),) * 20)
        tiles = tile_complement(20, [hole])
        assert len(tiles) == 1200
        assert partition_validate([hole, *tiles])


def recursive_tile_complement(dimension, holes):
    """The recursive descent `tile_complement` replaced, kept as a reference.

    A region disjoint from every hole is emitted whole, a region inside a
    hole is dropped, anything else is halved along the first axis where
    some intersecting hole is strictly thinner than the region, lower half
    first.
    """
    out = []

    def descend(region, parent_live):
        live = [h for h in parent_live if brick_intersect(region, h) is not None]
        if not live:
            out.append(region)
            return
        if any(h.contains_brick(region) for h in live):
            return
        for axis in range(dimension):
            if any(h.cells[axis].exponent > region.cells[axis].exponent for h in live):
                lo, hi = region.split(axis)
                descend(lo, live)
                descend(hi, live)
                return
        raise AssertionError(f"unreachable: no split axis for {region}")

    descend(unit_brick(dimension), holes)
    return out


@settings(deadline=None)
@given(st.data())
def test_tile_complement_matches_recursive_reference(data):
    # Holes are a random subset of a random element's domain partition, so
    # they are disjoint and of any shape the generator draws.
    dim = data.draw(st.integers(1, 4))
    spec = RandomElementSpec(dim, data.draw(st.integers(0, 5)), data.draw(st.integers(0, 2**32)))
    domain = [p.domain for p in random_element(spec).pairs]
    holes = data.draw(st.lists(st.sampled_from(domain), unique=True, max_size=len(domain)))
    holes = data.draw(st.permutations(holes))
    assert tile_complement(dim, holes) == recursive_tile_complement(dim, holes)
