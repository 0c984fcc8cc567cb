"""`Brick`'s cell-int form against a `Cell` reference.

A brick stores one int ``(1 << e) | k`` per axis and runs every primitive
on those ints. The references below work on the (exponent, numerator)
pairs of `Cell`s instead, as bricks once did: meets from the per-axis
relation of those pairs, transport by the affine formula on them, halving,
doubling and siblings by their arithmetic, and sort keys from Fractions.

A brick also keeps its sort key once computed. The tests at the end check
that the kept key is invisible: to equality, hashing, printing, copying and
pickling. They also count key computations through `geometry._sort_key`.
"""

import copy
import pickle
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvbaker import (
    MAX_EXPONENT,
    BakerSpec,
    Brick,
    Cell,
    ElementError,
    GeometryError,
    NvError,
    Partition,
    TranspositionSpec,
    brick_intersect,
    bricks_disjoint,
    coarsen,
    factor_baker,
    is_transposition_form,
    make_transposition,
    unit_brick,
)
from nvbaker import elements, geometry


def reference_relation(a: Cell, b: Cell) -> str:
    """"equal", "a_inside_b", "b_inside_a" or "disjoint"."""
    if a.exponent == b.exponent:
        return "equal" if a.numerator == b.numerator else "disjoint"
    if a.exponent > b.exponent:
        inside = (a.numerator >> (a.exponent - b.exponent)) == b.numerator
        return "a_inside_b" if inside else "disjoint"
    inside = (b.numerator >> (b.exponent - a.exponent)) == a.numerator
    return "b_inside_a" if inside else "disjoint"


def reference_intersect(a: Brick, b: Brick) -> Brick | None:
    cells = []
    for ca, cb in zip(a.cells, b.cells):
        rel = reference_relation(ca, cb)
        if rel == "disjoint":
            return None
        cells.append(ca if rel in ("equal", "a_inside_b") else cb)
    return Brick(tuple(cells))


def reference_map_cell(sub: Cell, src: Cell, dst: Cell) -> Cell:
    shift = sub.exponent - src.exponent
    if shift < 0 or (sub.numerator >> shift) != src.numerator:
        raise ElementError(f"cell {sub} is not inside {src}")
    offset = sub.numerator - (src.numerator << shift)
    return Cell(dst.exponent + shift, (dst.numerator << shift) + offset)


def reference_map(sub: Brick, src: Brick, dst: Brick) -> Brick:
    return Brick(
        tuple(reference_map_cell(*cells) for cells in zip(sub.cells, src.cells, dst.cells))
    )


def reference_step(b: Brick, axis: int, step: str) -> Brick | tuple[Brick, Brick]:
    """`Brick.split`, `double` or `sibling` on the axis's (exponent, numerator)."""
    if not 0 <= axis < len(b.cells):
        raise GeometryError(f"axis {axis} out of range")
    cells = b.cells
    e, k = cells[axis].exponent, cells[axis].numerator

    def put(cell: Cell) -> Brick:
        return Brick(cells[:axis] + (cell,) + cells[axis + 1 :])

    if step == "split":
        return put(Cell(e + 1, 2 * k)), put(Cell(e + 1, 2 * k + 1))
    if e == 0:
        raise GeometryError("the unit interval has no parent cell or sibling")
    if step == "double":
        return put(Cell(e - 1, k // 2))
    return put(Cell(e, k + 1 if k % 2 == 0 else k - 1))


def outcome(call):
    """A call's result, or the type of the library error it raised."""
    try:
        return call()
    except NvError as exc:
        return type(exc)


@st.composite
def cells(draw, lo: int = 0, hi: int = MAX_EXPONENT) -> Cell:
    """A cell with exponent in lo..hi, the end exponents drawn often."""
    hi = min(hi, MAX_EXPONENT)
    e = draw(st.integers(lo, hi) | st.sampled_from([lo, hi]))
    return Cell(e, draw(st.integers(0, (1 << e) - 1)))


@st.composite
def near(draw, c: Cell) -> Cell:
    """A cell related to c: itself, an ancestor, a descendant or any cell."""
    kind = draw(st.sampled_from(["same", "ancestor", "descendant", "any"]))
    if kind == "ancestor":
        up = draw(st.integers(0, c.exponent))
        return Cell(c.exponent - up, c.numerator >> up)
    if kind == "descendant":
        return draw(inside(c))
    return c if kind == "same" else draw(cells())


@st.composite
def inside(draw, c: Cell) -> Cell:
    down = draw(st.integers(0, MAX_EXPONENT - c.exponent))
    below = draw(st.integers(0, (1 << down) - 1))
    return Cell(c.exponent + down, (c.numerator << down) | below)


@st.composite
def brick_pairs(draw, dimension: int | None = None) -> tuple[Brick, Brick]:
    """Two bricks of one dimension (1 to 4) whose cells are often nested."""
    first = [draw(cells()) for _ in range(dimension or draw(st.integers(1, 4)))]
    second = [draw(near(c)) for c in first]
    return Brick(tuple(first)), Brick(tuple(second))


@settings(deadline=None)
@given(brick_pairs())
def test_cells_round_trip(pair):
    for b in pair:
        again = Brick(b.cells)
        assert again == b and hash(again) == hash(b)
        assert again.cells == b.cells
        assert str(b) == ",".join(str(c) for c in b.cells)
    a, b = pair
    assert (a == b) == (a.cells == b.cells)


def test_cells_are_read_without_the_checked_constructor(monkeypatch):
    # A brick's cell ints are valid, so `Brick.cells` builds its cells unchecked.
    parts = [(2, 3), (0, 0), (MAX_EXPONENT, 5)]
    b = Brick(tuple(Cell(*p) for p in parts))
    calls = [0]
    checked = Cell.__init__

    def counted(self, *args):
        calls[0] += 1
        checked(self, *args)

    monkeypatch.setattr(Cell, "__init__", counted)
    read = b.cells
    assert calls[0] == 0
    assert read == tuple(Cell(*p) for p in parts) and calls[0] == len(parts)
    assert [(c.exponent, c.numerator) for c in read] == parts


@settings(deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(brick_pairs(n), min_size=1, max_size=8)))
def test_sort_key_orders_as_left_ends_then_exponents(pairs):
    bricks = [b for pair in pairs for b in pair]

    def by_fractions(b: Brick) -> tuple:
        return tuple((Fraction(c.numerator, 1 << c.exponent), c.exponent) for c in b.cells)

    for b in bricks:
        # Each left end, scaled by 2^MAX_EXPONENT, is an integer.
        scaled = sum(((lo * 2**MAX_EXPONENT, e) for lo, e in by_fractions(b)), ())
        assert b.sort_key() == scaled
    assert sorted(bricks, key=Brick.sort_key) == sorted(bricks, key=by_fractions)


@settings(deadline=None)
@given(brick_pairs())
def test_meets_agree_with_the_cell_relation(pair):
    a, b = pair
    for ca, cb in zip(a.cells, b.cells):
        # On one-axis bricks the meet is the finer cell, or None when disjoint.
        x, y = Brick((ca,)), Brick((cb,))
        one = brick_intersect(x, y)
        got = "disjoint" if one is None else "equal" if x == y else (
            "a_inside_b" if one == x else "b_inside_a"
        )
        assert got == reference_relation(ca, cb)
    meet = reference_intersect(a, b)
    assert brick_intersect(a, b) == meet
    assert bricks_disjoint(a, b) == (meet is None)
    assert a.contains_brick(b) == (meet == b)
    assert b.contains_brick(a) == (meet == a)


@settings(deadline=None)
@given(brick_pairs(), st.data())
def test_map_through_agrees_with_the_cell_formula(pair, data):
    # `elements._carry` takes a sub-brick of src, which it does not check.
    src = pair[0]
    sub = data.draw(st.tuples(*map(inside, src.cells)).map(Brick))

    def landing(c: Cell, s: Cell) -> Cell:
        # Often where c, carried from s, lands at the limit or one past it.
        depth = max(c.exponent - s.exponent, 0)
        return data.draw(cells() | cells(MAX_EXPONENT - depth, MAX_EXPONENT - depth + 1))

    dst = Brick(tuple(map(landing, sub.cells, src.cells)))
    expected = outcome(lambda: reference_map(sub, src, dst).ints)
    assert outcome(lambda: elements._carry(sub.ints, src.ints, dst.ints)) == expected


@settings(deadline=None)
@given(brick_pairs(), st.integers(-1, 4), st.sampled_from(["split", "double", "sibling"]))
def test_steps_agree_with_the_cell_methods(pair, axis, step):
    for b in pair:
        assert outcome(lambda: getattr(b, step)(axis)) == outcome(
            lambda: reference_step(b, axis, step)
        )


def built_bricks(b: Brick) -> list[Brick]:
    """Bricks equal to b, or derived from it, through every way a brick is made."""
    out = [Brick(b.cells), Brick._of(b.ints)]
    for axis, c in enumerate(b.ints):
        if c.bit_length() - 1 < MAX_EXPONENT:
            out.extend(b.split(axis))
        if c != 1:
            out += [b.sibling(axis), b.double(axis)]
    return out


@settings(deadline=None)
@given(brick_pairs())
def test_kept_key_is_invisible(pair):
    for b in pair:
        fresh, keyed = built_bricks(b), built_bricks(b)
        for k in keyed:
            k.sort_key()
        for x, y in zip(fresh, keyed):
            assert x == y and hash(x) == hash(y)
            assert repr(x) == repr(y) == f"Brick(ints={x.ints!r})"
            assert str(x) == str(y)
            assert x._key is None and y._key is not None
            # A kept key equals one computed afresh from the cells.
            assert y.sort_key() == x.sort_key() == geometry._sort_key(Brick(y.cells).ints)
            for z in (copy.deepcopy(x), copy.deepcopy(y), *pickle.loads(pickle.dumps((x, y)))):
                assert z == x and hash(z) == hash(x) and z.sort_key() == y.sort_key()


def test_bricks_stay_frozen():
    b = unit_brick(2).split(0)[1]
    for keyed in (False, True):
        if keyed:
            b.sort_key()
        for name in ("ints", "_key"):
            with pytest.raises(FrozenInstanceError):
                setattr(b, name, (3, 1))
    assert b.ints == (3, 1) and b.sort_key() == geometry._sort_key((3, 1))


@pytest.fixture
def key_count(monkeypatch):
    """How many sort keys were computed since the fixture was set up."""
    calls = [0]
    compute = geometry._sort_key

    def counted(ints):
        calls[0] += 1
        return compute(ints)

    monkeypatch.setattr(geometry, "_sort_key", counted)
    return calls


def test_coarsening_a_built_irreducible_element_computes_no_key(key_count):
    lower, upper = unit_brick(2).split(0)
    a, b = lower.split(1)
    t = make_transposition(TranspositionSpec(Partition([a, b, upper]), a, b))
    key_count[0] = 0
    assert coarsen(t).pairs == t.pairs
    assert key_count[0] == 0


def test_factoring_and_auditing_the_unit_square_key_count(key_count):
    # Each brick's key is computed at most once, so these counts repeat
    # exactly; 747 keys were computed before bricks kept them, 98 before
    # each small baker made one brick per distinct cell ints, and 82 while
    # the verifier sorted the target's inverse.
    factors = factor_baker(BakerSpec(unit_brick(2), 0, 1)).word.factors
    assert len(factors) == 31
    assert key_count[0] == 80
    assert all(is_transposition_form(f)[0] for f in factors)
    assert key_count[0] == 94
