"""Property tests of the meet engine, `geometry._meets` on cell ints, against
brute-force all-pairs references."""

import itertools
import time
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from nvbaker import (
    Brick,
    Cell,
    RandomElementSpec,
    brick_intersect,
    partition_validate,
    peel_to_unit,
    random_element,
    tile_complement,
)
from nvbaker import geometry

from conftest import brick, chain

MAX_DEPTH = 5


def meets(xs, ys):
    """`geometry._meets` on the bricks' cell ints, which needs xs nonempty."""
    return list(geometry._meets([x.ints for x in xs], [y.ints for y in ys])) if xs else []


def all_pairs_meets(xs, ys):
    """Every nonempty meet by testing every brick against every brick."""
    out = []
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            meet = brick_intersect(x, y)
            if meet is not None:
                out.append((i, j, meet.ints))
    return out


def all_pairs_problems(items):
    """partition_validate's problems, built pair by pair with Fractions."""
    problems = []
    for i, j in itertools.combinations(range(len(items)), 2):
        if brick_intersect(items[i], items[j]) is not None:
            problems.append(f"bricks overlap: {items[i]} and {items[j]}")
    total = Fraction(0)
    for b in items:
        total += b.measure
    if total != 1:
        problems.append(f"total measure is {total}, expected 1")
    return tuple(problems)


def assert_same_meets(xs, ys):
    got = meets(xs, ys)
    keys = [(i, j) for i, j, _ in got]
    assert len(keys) == len(set(keys)), "a pair was reported twice"
    assert keys == sorted(keys, key=lambda k: (k[1], k[0])), "not in (query, id) order"
    assert sorted(got, key=lambda m: m[:2]) == all_pairs_meets(xs, ys)


@st.composite
def cells(draw):
    e = draw(st.integers(0, MAX_DEPTH))
    return Cell(e, draw(st.integers(0, (1 << e) - 1)))


@st.composite
def brick_lists(draw, dim):
    """Arbitrary bricks: they may overlap, nest, or repeat."""
    one_brick = st.lists(cells(), min_size=dim, max_size=dim).map(lambda cs: Brick(tuple(cs)))
    bricks = draw(st.lists(one_brick, max_size=10))
    if bricks:
        repeats = draw(st.lists(st.sampled_from(bricks), max_size=3))
        bricks += repeats
        bricks = draw(st.permutations(bricks))
    return list(bricks)


@st.composite
def element_partitions(draw, dim):
    """The domain and range bricks of a random element: two partitions."""
    spec = RandomElementSpec(dim, draw(st.integers(0, 4)), draw(st.integers(0, 2**32)))
    e = random_element(spec)
    return [p.domain for p in e.pairs], [p.range for p in e.pairs]


@st.composite
def index_cells(draw):
    """A cell of exponent at most 4, or one inside it at exponent 64."""
    e = draw(st.integers(0, 4))
    k = draw(st.integers(0, (1 << e) - 1))
    if draw(st.booleans()):
        return Cell(64, k << (64 - e) | draw(st.integers(0, (1 << (64 - e)) - 1)))
    return Cell(e, k)


@st.composite
def index_runs(draw):
    """Starting bricks and a run of (operation, brick) steps, one dimension."""
    dim = draw(dims)
    one_brick = st.lists(index_cells(), min_size=dim, max_size=dim).map(
        lambda cs: Brick(tuple(cs))
    )
    start = draw(st.lists(one_brick, min_size=1, max_size=6))
    ops = st.sampled_from(["add", "meeting", "pop", "remove"])
    return start, draw(st.lists(st.tuples(ops, one_brick, st.integers(0, 15)), max_size=12))


def pinwheel():
    """Quadrants cut into strips that turn around the centre.

    No line through the whole square separates these strips except the two
    midlines; any partition of the square into dyadic bricks can be cut
    that way, since a brick crossing one midline of a region spans the
    region on that axis and would meet any brick crossing the other.
    """
    return [
        brick("0/2^2,0/2^1"),
        brick("1/2^2,0/2^1"),
        brick("1/2^1,0/2^2"),
        brick("1/2^1,1/2^2"),
        brick("2/2^2,1/2^1"),
        brick("3/2^2,1/2^1"),
        brick("0/2^1,2/2^2"),
        brick("0/2^1,3/2^2"),
    ]


@st.composite
def deep_bricks(draw):
    """One brick in up to 6 axes, its exponents summing to at most 24."""
    dim = draw(st.integers(1, 6))
    exps = draw(st.lists(st.integers(0, 12), min_size=dim, max_size=dim))
    while sum(exps) > 24:
        exps[exps.index(max(exps))] -= 1
    return Brick(tuple(Cell(e, draw(st.integers(0, (1 << e) - 1))) for e in exps))


@st.composite
def grids(draw, dim):
    """Every brick of a uniform grid with at most 2^6 bricks."""
    exps = draw(st.lists(st.integers(0, 3), min_size=dim, max_size=dim))
    while sum(exps) > 6:
        exps[exps.index(max(exps))] -= 1
    axes = [[Cell(e, k) for k in range(1 << e)] for e in exps]
    return [Brick(cs) for cs in itertools.product(*axes)]


dims = st.integers(1, 4)


@settings(deadline=None)
@given(st.data())
def test_partitions_of_random_elements(data):
    dim = data.draw(dims)
    f_domain, f_range = data.draw(element_partitions(dim))
    g_domain, _ = data.draw(element_partitions(dim))
    assert_same_meets(f_range, g_domain)
    assert_same_meets(f_domain, f_range)


@settings(deadline=None)
@given(st.data())
def test_arbitrary_brick_lists(data):
    dim = data.draw(dims)
    assert_same_meets(data.draw(brick_lists(dim)), data.draw(brick_lists(dim)))


@settings(deadline=None)
@given(st.data())
def test_pinwheel_against_random_partitions(data):
    _, other = data.draw(element_partitions(2))
    assert partition_validate(pinwheel())
    assert_same_meets(pinwheel(), other)
    assert_same_meets(other, pinwheel())
    assert_same_meets(pinwheel(), pinwheel())


@settings(deadline=None)
@given(st.data())
def test_validate_matches_all_pairs(data):
    dim = data.draw(dims)
    domains = element_partitions(dim).map(lambda p: p[0])
    items = data.draw(st.one_of(brick_lists(dim), domains))
    if items:
        assert partition_validate(items).problems == all_pairs_problems(items)


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_complement_chains(data):
    # A brick with its peeled or tiled complement is a chain of nested
    # splits, the shape that copies coarse bricks into both halves.
    b = data.draw(deep_bricks())
    peeled = [b, *peel_to_unit(b)]
    tiled = [b, *tile_complement(b.dimension, [b])]
    grid = data.draw(grids(b.dimension))
    assert_same_meets(peeled, peeled)
    assert_same_meets(tiled, tiled)
    for xs, ys in ((peeled, tiled), (peeled, grid), (tiled, grid)):
        assert_same_meets(xs, ys)
        assert_same_meets(ys, xs)


def test_pair_coarse_on_split_axis_in_both_lists_reported_once():
    # The first brick of xs is thin on axis 0; the second brick of each
    # list spans axis 0, so their meet is found through ancestor lookups on
    # that axis while the thin brick is found by the scan for descendants.
    xs = [brick("0/2^2,1/2^1"), brick("0/2^0,0/2^1")]
    ys = [brick("0/2^0,0/2^0"), brick("0/2^0,0/2^1")]
    got = sorted(meets(xs, ys), key=lambda m: m[:2])
    assert got == [
        (0, 0, xs[0].ints),
        (1, 0, xs[1].ints),
        (1, 1, brick("0/2^0,0/2^1").ints),
    ]


def test_empty_lists_have_no_meets():
    assert list(geometry._meets([brick("0/2^0,0/2^0").ints], [])) == []


def test_ids_come_in_ascending_order():
    # A set of the ids 3 and 9 iterates 9 first; the index answers 3, 9.
    xs = [brick(f"{k}/2^4,0/2^1") for k in range(16)]
    xs[3], xs[9] = brick("3/2^4,1/2^1"), brick("9/2^4,1/2^1")
    query = brick("0/2^0,1/2^1")
    assert geometry._RangeIndex([x.ints for x in xs]).meeting(query.ints) == [3, 9]
    assert meets(xs, [query]) == [(3, 0, xs[3].ints), (9, 0, xs[9].ints)]


@settings(deadline=None, max_examples=25)
@given(st.integers(1, 20), st.integers(0, 2**32), st.data())
def test_shuffled_chains(dim, seed, data):
    splits = data.draw(st.integers(1, min(80, 64 * dim)))  # cells stay within MAX_EXPONENT
    sides = st.sampled_from(["lower", "upper", "mixed"])
    leaves = chain(splits, dim, data.draw(sides), seed)
    other = chain(splits, dim, data.draw(sides), seed + 1)
    grid = data.draw(grids(dim))
    assert partition_validate(leaves)
    assert_same_meets(leaves, leaves)
    for xs, ys in ((leaves, other), (leaves, grid)):
        assert_same_meets(xs, ys)
        assert_same_meets(ys, xs)


def test_deep_chains_meet_only_themselves():
    # 300 splits over 20 axes, for each choice of the half kept.
    for side in ("lower", "upper", "mixed"):
        leaves = chain(300, 20, side, 7)
        assert partition_validate(leaves)
        assert sorted((i, j) for i, j, _ in meets(leaves, leaves)) == [
            (i, i) for i in range(len(leaves))
        ]


def test_one_intersection_per_meet(monkeypatch):
    # The index proves every meet, so each meet is taken straight from the
    # cell ints: no brick is built and no candidate goes to brick_intersect.
    calls, built = [], [0]
    build = Brick._of.__func__

    def counted(a, b):
        calls.append((a, b))
        return brick_intersect(a, b)

    def counted_build(cls, ints):
        built[0] += 1
        return build(cls, ints)

    monkeypatch.setattr(geometry, "brick_intersect", counted)
    leaves = chain(60, 6, "mixed", 3)
    grid = [brick(f"{i}/2^2,{j}/2^1" + ",0/2^0" * 4) for i in range(4) for j in range(2)]
    for xs, ys in ((leaves, grid), (grid, leaves), (leaves, leaves), (pinwheel(), pinwheel())):
        calls.clear()
        built[0] = 0
        with monkeypatch.context() as m:
            m.setattr(Brick, "_of", classmethod(counted_build))
            found = meets(xs, ys)
        assert calls == []
        assert built[0] == 0 < len(found)
    calls.clear()
    assert partition_validate(leaves)
    assert partition_validate(grid)
    assert tile_complement(6, leaves[:5])
    assert calls == []


@settings(deadline=None)
@given(index_runs())
def test_range_index_matches_a_live_model(run):
    # The index against a dict of live bricks: adds, queries, pops and
    # single removals in any order, cells as deep as the exponent limit
    # (65-bit cell ints). A pop is the verifier's: `meeting`, then `remove`
    # of each id found. A removed id is free for the next add at once, so
    # no id reaches the most bricks live at once.
    start, steps = run
    index = geometry._RangeIndex([b.ints for b in start])
    live = dict(enumerate(start))
    most = len(live)
    probes = start + [b for _, b, _ in steps]

    def expected(d):
        return {i for i, b in live.items() if brick_intersect(b, d) is not None}

    for op, b, k in steps:
        d = b.ints
        if op == "add":
            i = index.add(d)
            assert i not in live
            live[i] = b
            most = max(most, len(live))
            assert i < most
        elif op == "meeting":
            assert index.meeting(d) == sorted(expected(b))
        elif op == "remove":
            if live:
                i = sorted(live)[k % len(live)]
                assert index.remove(i) == live.pop(i).ints
        else:
            found = index.meeting(d)
            assert found == sorted(expected(b))
            for i in found:
                assert index.remove(i) == live.pop(i).ints
        assert {i: x.ints for i, x in live.items()} == index.bricks
        for probe in probes:
            assert index.meeting(probe.ints) == sorted(expected(probe))


def test_thousand_split_chain_validates_within_a_second():
    # Each query ANDs one id mask per axis. Gathering the ids nested with
    # a leaf on each axis alone would cost about n^2 * d on this chain.
    leaves = chain(1000, 20, "lower", 7)
    start = time.perf_counter()
    assert partition_validate(leaves)
    assert time.perf_counter() - start <= 1.0
