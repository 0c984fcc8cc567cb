import functools
import hashlib
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nvbaker
from nvbaker import (
    BakerSpec,
    Brick,
    Cell,
    MAX_EXPONENT,
    DimensionMismatchError,
    Element,
    ElementError,
    ExponentLimitError,
    Pair,
    RandomElementSpec,
    Word,
    apply_point,
    coarsen,
    equals,
    equals_witness,
    identity,
    inverse,
    make_baker,
    partition_validate,
    product_equals,
    random_element,
    support,
    then,
    unit_brick,
)
from nvbaker import elements, geometry
from nvbaker.elements import _product_pieces
from nvbaker.formats import serialize_element
from nvbaker.factorization import factor_baker

from conftest import brick, element_image, exponent_71_word, grid_points


def unit_baker() -> Element:
    return make_baker(BakerSpec(unit_brick(2), 0, 1))


def map_through(sub: Brick, src: Brick, dst: Brick) -> Brick:
    """The image of a sub-brick of src under the map of src onto dst."""
    return Brick._of(elements._carry(sub.ints, src.ints, dst.ints))


class TestMapThrough:
    """`elements._carry`, the transport of a sub-brick, on cell ints."""

    def test_frozen(self):
        sub = brick("1/2^2,0/2^1")
        src = brick("0/2^1,0/2^0")
        dst = brick("0/2^0,0/2^1")
        assert map_through(sub, src, dst) == brick("1/2^1,0/2^2")

    def test_whole_brick(self):
        src = brick("0/2^1,0/2^0")
        dst = brick("0/2^0,0/2^1")
        assert map_through(src, src, dst) == dst

    def test_exponent_limit(self):
        # sub lies 63 levels inside src, so it lands at exponent 64 in a dst of
        # exponent 1 and at 65, past the limit, in one of exponent 2.
        sub, src = brick(f"0/2^{MAX_EXPONENT},0/2^0"), brick("0/2^1,0/2^0")
        assert map_through(sub, src, brick("1/2^1,0/2^0")).ints[0].bit_length() == 65
        with pytest.raises(ExponentLimitError):
            map_through(sub, src, brick("1/2^2,0/2^0"))

    def test_matches_pointwise_affine_map(self):
        # The image brick is exactly the set of pointwise images.
        from conftest import affine_image

        sub = brick("5/2^3,1/2^1")
        src = brick("1/2^1,0/2^0")
        dst = brick("0/2^1,2/2^2")
        img = map_through(sub, src, dst)
        for pt in [(Fraction(5, 8), Fraction(1, 2)), (Fraction(11, 16), Fraction(7, 8))]:
            image = affine_image(pt, src, dst)
            assert img.contains_point(image)


class TestElementConstruction:
    def test_pairs_sorted_by_domain(self):
        a = Pair(brick("1/2^1,0/2^0"), brick("0/2^0,1/2^1"))
        b = Pair(brick("0/2^1,0/2^0"), brick("0/2^0,0/2^1"))
        e = Element(2, (a, b))
        assert e.pairs == (b, a)

    def test_from_pairs_validates_domain(self):
        with pytest.raises(ElementError, match="domain"):
            Element.from_pairs(
                [
                    Pair(brick("0/2^1,0/2^0"), brick("0/2^0,0/2^1")),
                    Pair(brick("0/2^1,0/2^0"), brick("0/2^0,1/2^1")),
                ]
            )

    def test_from_pairs_validates_range(self):
        with pytest.raises(ElementError, match="range"):
            Element.from_pairs(
                [
                    Pair(brick("0/2^1,0/2^0"), brick("0/2^0,0/2^1")),
                    Pair(brick("1/2^1,0/2^0"), brick("0/2^0,0/2^1")),
                ]
            )

    def test_from_pairs_rejects_empty(self):
        with pytest.raises(ElementError):
            Element.from_pairs([])

    def test_pair_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            Pair(unit_brick(2), unit_brick(3))


class TestApplyPoint:
    def test_frozen_baker_values(self):
        b = unit_baker()
        assert apply_point(b, (Fraction(1, 4), Fraction(1, 2))) == (
            Fraction(1, 2),
            Fraction(1, 4),
        )
        assert apply_point(b, (Fraction(3, 4), Fraction(0))) == (
            Fraction(1, 2),
            Fraction(1, 2),
        )

    def test_outside_cube(self):
        with pytest.raises(ElementError):
            apply_point(identity(2), (Fraction(1), Fraction(0)))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            apply_point(identity(2), (Fraction(0),))

    def test_matches_independent_evaluator(self):
        e = random_element(RandomElementSpec(2, 4, 31))
        for pt in grid_points(2, 3):
            assert apply_point(e, pt) == element_image(e, pt)


class TestThen:
    def test_identity_laws(self):
        b = unit_baker()
        assert then(b, identity(2)).pairs == b.pairs
        assert then(identity(2), b).pairs == b.pairs

    def test_frozen_baker_squared(self):
        # Recomputed by hand: the composite quarters the x axis; the strip
        # [0,1/4) x [0,1) lands on the full-width band [0,1) x [0,1/4).
        bb = then(unit_baker(), unit_baker())
        assert [str(p) for p in bb.pairs] == [
            "0/2^2,0/2^0 -> 0/2^0,0/2^2",
            "1/2^2,0/2^0 -> 0/2^0,2/2^2",
            "2/2^2,0/2^0 -> 0/2^0,1/2^2",
            "3/2^2,0/2^0 -> 0/2^0,3/2^2",
        ]

    def test_pointwise_against_independent_evaluator(self):
        f = random_element(RandomElementSpec(2, 4, 7))
        g = random_element(RandomElementSpec(2, 4, 8))
        fg = then(f, g)
        for pt in grid_points(2, 3):
            assert element_image(fg, pt) == element_image(g, element_image(f, pt))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            then(identity(2), identity(3))


class TestInverse:
    def test_involution_structural(self):
        e = random_element(RandomElementSpec(2, 4, 11))
        assert inverse(inverse(e)).pairs == e.pairs

    def test_composes_to_identity(self):
        for seed in (1, 2, 3):
            e = random_element(RandomElementSpec(2, 5, seed))
            assert equals(then(e, inverse(e)), identity(2))
            assert equals(then(inverse(e), e), identity(2))

    def test_pointwise(self):
        e = unit_baker()
        inv = inverse(e)
        for pt in grid_points(2, 3):
            assert element_image(inv, element_image(e, pt)) == pt


class TestEquals:
    def test_presentation_independent(self):
        b = unit_baker()
        refined = then(then(b, identity(2)), identity(2))
        assert equals(b, refined)
        # A genuinely refined presentation of the same map:
        strips = [
            Pair(brick(f"{k}/2^2,0/2^0"), t)
            for k, t in (
                (0, brick("0/2^1,0/2^1")),
                (1, brick("1/2^1,0/2^1")),
                (2, brick("0/2^1,1/2^1")),
                (3, brick("1/2^1,1/2^1")),
            )
        ]
        assert equals(b, Element.from_pairs(strips))

    def test_unequal(self):
        assert not equals(unit_baker(), identity(2))
        assert not equals(unit_baker(), inverse(unit_baker()))

    def test_dimension_mismatch_is_not_equal(self):
        assert not equals(identity(2), identity(3))


def slab_identity(axis: int, exponent: int, swap_last: bool = False) -> Element:
    """The square cut into 2^exponent slabs across one axis, each mapped to itself.

    With `swap_last`, the last two slabs trade places instead.
    """
    slabs = [
        Brick(tuple(Cell(exponent, k) if a == axis else Cell(0, 0) for a in range(2)))
        for k in range(1 << exponent)
    ]
    images = slabs[:-2] + slabs[:-3:-1] if swap_last else slabs
    return Element(2, tuple(Pair(d, r) for d, r in zip(slabs, images)))


class TestEqualsWitness:
    def test_none_for_equal(self):
        assert equals_witness(unit_baker(), unit_baker()) is None

    def test_frozen_offset_case(self):
        w = equals_witness(unit_baker(), identity(2))
        assert w == (Fraction(1, 4), Fraction(1, 2))

    def test_frozen_scale_case(self):
        w = equals_witness(unit_baker(), inverse(unit_baker()))
        assert w == (Fraction(1, 4), Fraction(1, 4))

    def test_witness_actually_separates(self):
        cases = [
            (unit_baker(), identity(2)),
            (unit_baker(), inverse(unit_baker())),
            (
                random_element(RandomElementSpec(2, 4, 5)),
                random_element(RandomElementSpec(2, 4, 6)),
            ),
        ]
        for f, g in cases:
            w = equals_witness(f, g)
            assert w is not None
            assert element_image(f, w) != element_image(g, w)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            equals_witness(identity(2), identity(3))

    def test_slab_walk_holds_one_piece_at_a_time(self):
        # 2^8 slabs across each axis meet in 2^16 pieces, about 13 MB as a
        # list. The walk holds the two elements' pieces and the index, one
        # meet at a time, and stops at the first differing piece.
        f, g = slab_identity(0, 8), slab_identity(1, 8)
        tracemalloc.start()
        try:
            assert equals_witness(f, g) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        swapped = slab_identity(1, 8, swap_last=True)
        assert equals_witness(f, swapped) == (0, Fraction(127, 128))

    def test_witness_is_first_in_pair_order(self):
        # The witness comes from the first differing piece in (f-pair,
        # g-pair) order; the digest pins that choice over a seeded corpus.
        lines = []
        for dim in (2, 3):
            for s in range(200):
                a = random_element(RandomElementSpec(dim, 4, s))
                b = random_element(RandomElementSpec(dim, 4, s + 1000))
                w = equals_witness(a, b)
                lines.append("none" if w is None else ",".join(str(x) for x in w))
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "d79ca2741519af3039ecce182ac0239f00f632cb4ce82a7c21c35cc183565165"


class TestSupport:
    def test_identity_has_empty_support(self):
        assert support(identity(2)) == ()

    def test_baker_support_is_its_brick(self):
        spec = BakerSpec(brick("1/2^1,2/2^2"), 0, 1)
        assert support(make_baker(spec)) == (brick("1/2^1,2/2^2"),)

    def test_unit_baker_support_is_cube(self):
        assert support(unit_baker()) == (unit_brick(2),)

    def test_merges_moved_siblings(self):
        # Swapping two sibling halves moves every point of their union.
        left, right = unit_brick(2).split(0)
        e = Element.from_pairs([Pair(left, right), Pair(right, left)])
        assert support(e) == (unit_brick(2),)

    def test_disjoint_moved_regions(self):
        bl = brick("0/2^1,0/2^1")
        tr = brick("1/2^1,1/2^1")
        tl = brick("0/2^1,1/2^1")
        br = brick("1/2^1,0/2^1")
        e = Element.from_pairs(
            [Pair(bl, tr), Pair(tr, bl), Pair(tl, tl), Pair(br, br)]
        )
        assert support(e) == (bl, tr)


class TestCoarsen:
    def test_reduces_refined_identity(self):
        quads = [b for half in unit_brick(2).split(0) for b in half.split(1)]
        e = Element.from_pairs([Pair(b, b) for b in quads])
        assert coarsen(e).pairs == identity(2).pairs

    def test_reduces_refined_baker(self):
        b = unit_baker()
        refined = then(then(b, b), inverse(b))
        assert len(refined) > len(b)
        assert coarsen(refined).pairs == b.pairs

    def test_idempotent(self):
        e = random_element(RandomElementSpec(2, 4, 17))
        once = coarsen(e)
        assert coarsen(once).pairs == once.pairs

    def test_preserves_map(self):
        for seed in (21, 22, 23):
            e = random_element(RandomElementSpec(2, 5, seed))
            assert equals(coarsen(e), e)

    def test_requires_same_axis_and_orientation(self):
        # Domain halves split along x but range halves along y: not a
        # single affine piece, so coarsening must leave it alone.
        left, right = unit_brick(2).split(0)
        bottom, top = unit_brick(2).split(1)
        e = Element.from_pairs([Pair(left, bottom), Pair(right, top)])
        assert coarsen(e).pairs == e.pairs
        # Orientation-reversing on the split axis: also not mergeable.
        f = Element.from_pairs([Pair(left, right), Pair(right, left)])
        assert coarsen(f).pairs == f.pairs


class TestWord:
    def test_empty_word_is_identity(self):
        assert Word(2, ()).product().pairs == identity(2).pairs

    def test_single_factor(self):
        b = unit_baker()
        assert Word(2, (b,)).product().pairs == b.pairs
        assert Word(2, (b,)).product() is b

    def test_fold_shape_independence(self):
        factors = tuple(
            random_element(RandomElementSpec(2, 3, 100 + k)) for k in range(5)
        )
        balanced = Word(2, factors).product()
        left_fold = functools.reduce(then, factors)
        assert balanced.pairs == left_fold.pairs

    def test_dimension_checked(self):
        with pytest.raises(DimensionMismatchError):
            Word(2, (identity(3),))

    def test_factors_are_stored_as_a_tuple(self):
        fs = (unit_baker(), identity(2))
        from_generator, from_list = Word(2, (f for f in fs)), Word(2, list(fs))
        for w in (from_generator, from_list):
            assert w.factors == fs and len(w) == 2
            assert w == Word(2, fs) and hash(w) == hash(Word(2, fs))


# sha256 of serialize_element of products, pinned from the fold over sorted
# Elements of checked bricks that composition used before it ran on cell ints.
QUARTER_PRODUCT_SHA256 = "1b444aea72506dc7e641d7c6e52e5ff2ffd613a34aee26e3e0fa91baccb38c26"
RANDOM_PRODUCTS_SHA256 = "f2c1f04e83a9fcdd6a5df70cec51ba1cbd1b24910fa9a064580022981dcc89a1"


@pytest.fixture(scope="module")
def quarter_word():
    return factor_baker(BakerSpec(unit_brick(2), 0, 1), Fraction(1, 4)).word


class TestProductBytes:
    def test_quarter_word_product(self, quarter_word):
        assert len(quarter_word) == 511
        text = serialize_element(quarter_word.product())
        assert hashlib.sha256(text.encode()).hexdigest() == QUARTER_PRODUCT_SHA256

    def test_random_word_products(self):
        # 20 words of 1-6 seeded factors in each dimension 1-4.
        digest = hashlib.sha256()
        for dim in (1, 2, 3, 4):
            for s in range(20):
                factors = tuple(
                    random_element(RandomElementSpec(dim, 3, 50 * dim + 7 * s + k))
                    for k in range(1 + s % 6)
                )
                digest.update(serialize_element(Word(dim, factors).product()).encode())
        assert digest.hexdigest() == RANDOM_PRODUCTS_SHA256

    def test_product_builds_one_element_and_intersects_no_bricks(self, monkeypatch, quarter_word):
        # The fold runs on cell ints: the index proves every meet, and the
        # sorted Element is built once, from the final pieces.
        built, intersections = [0], [0]
        init, intersect = Element.__init__, geometry.brick_intersect

        def counted_init(self, dimension, pairs):
            built[0] += 1
            init(self, dimension, pairs)

        def counted_intersect(a, b):
            intersections[0] += 1
            return intersect(a, b)

        monkeypatch.setattr(Element, "__init__", counted_init)
        for owner in (geometry, elements):
            monkeypatch.setattr(owner, "brick_intersect", counted_intersect)
        quarter_word.product()
        assert built[0] == 1
        assert intersections[0] == 0


@st.composite
def same_dimension_elements(draw, count):
    """`count` seeded random elements of one drawn dimension, 1 to 4."""
    dim = draw(st.integers(1, 4))
    seeds = st.integers(0, 2**32)
    return [
        random_element(RandomElementSpec(dim, draw(st.integers(0, 3)), draw(seeds)))
        for _ in range(count)
    ]


class TestGroupLaws:
    @settings(deadline=None, max_examples=60)
    @given(same_dimension_elements(1))
    def test_identity(self, operands):
        (f,) = operands
        e = identity(f.dimension)
        assert then(e, f).pairs == f.pairs
        assert then(f, e).pairs == f.pairs

    @settings(deadline=None, max_examples=60)
    @given(same_dimension_elements(1))
    def test_inverse(self, operands):
        (f,) = operands
        e = identity(f.dimension)
        for composite in (then(f, inverse(f)), then(inverse(f), f)):
            assert all(p.is_identity for p in composite.pairs)
            assert equals(composite, e)

    @settings(deadline=None, max_examples=60)
    @given(same_dimension_elements(3))
    def test_associativity(self, operands):
        f, g, h = operands
        assert then(then(f, g), h).pairs == then(f, then(g, h)).pairs

    @settings(deadline=None, max_examples=60)
    @given(st.integers(1, 6).flatmap(same_dimension_elements))
    def test_product_is_the_fold_of_then(self, factors):
        product = Word(factors[0].dimension, tuple(factors)).product()
        assert product.pairs == functools.reduce(then, factors).pairs


def test_star_import_gives_the_public_names_and_no_submodule():
    names: dict = {}
    exec("from nvbaker import *", names)
    del names["__builtins__"]
    assert len(names) == 65
    assert {"then", "Word", "brick_intersect", "grid_equals", "render_svg"} <= set(names)
    assert not {"elements", "geometry", "oracle", "formats", "svg"} & set(names)
    removed = ("CellRelation", "cell_relation", "brick_meets", "common_refinement",
               "unit_partition", "map_through")
    for name in removed:
        assert not hasattr(nvbaker, name)
        with pytest.raises(ImportError):
            exec(f"from nvbaker import {name}", {})


def _brick(cells: tuple[int, ...]):
    """The brick of a tuple of cell ints, (1 << e) | k per axis."""
    return Brick(tuple(Cell(c.bit_length() - 1, c ^ (1 << (c.bit_length() - 1))) for c in cells))


def _word_then_inverse(word: Word, target: Element) -> list:
    """`_product_pieces` of the word, then of the target read backwards."""
    steps = [elements._pieces(f) for f in word.factors]
    steps.append([(r, d) for d, r in elements._pieces(target)])
    return _product_pieces(word.dimension, steps)


@st.composite
def words_and_targets(draw):
    """A word of 0-5 random elements and a target: its product, the
    product without the first factor, or an unrelated element."""
    dim = draw(st.integers(1, 4))
    seeds = st.integers(0, 2**32)
    factors = tuple(
        random_element(RandomElementSpec(dim, draw(st.integers(0, 4)), draw(seeds)))
        for _ in range(draw(st.integers(0, 5)))
    )
    kind = draw(st.sampled_from(["product", "drop_first", "unrelated"]))
    if kind == "unrelated":
        target = random_element(RandomElementSpec(dim, draw(st.integers(0, 4)), draw(seeds)))
    else:
        target = Word(dim, factors[kind == "drop_first" :]).product()
    return Word(dim, factors), target


class TestProductEquals:
    @settings(deadline=None, max_examples=150)
    @given(words_and_targets())
    def test_agrees_with_the_fold(self, case):
        word, target = case
        assert product_equals(word, target) == equals(word.product(), target)

    @settings(deadline=None, max_examples=60)
    @given(words_and_targets())
    def test_final_domains_partition_the_cube(self, case):
        word, target = case
        pieces = _word_then_inverse(word, target)
        assert partition_validate([_brick(dom) for dom, _ in pieces])
        assert partition_validate([_brick(rng) for _, rng in pieces])

    def test_true_verdicts_occur(self):
        factors = tuple(random_element(RandomElementSpec(3, 4, 40 + k)) for k in range(4))
        word = Word(3, factors)
        assert product_equals(word, word.product())
        assert product_equals(Word(3, (*factors, *map(inverse, reversed(factors)))), identity(3))
        assert not product_equals(word, Word(3, factors[1:]).product())

    def test_dimension_mismatch_is_unequal(self):
        word = Word(2, (unit_baker(),))
        assert not equals(word.product(), identity(3))
        assert not product_equals(word, identity(3))
        assert not product_equals(Word(3, ()), identity(2))

    def test_empty_word_equals_only_the_identity(self):
        for dim in (1, 2, 4):
            assert product_equals(Word(dim, ()), identity(dim))
        assert not product_equals(Word(2, ()), unit_baker())
        assert not product_equals(Word(2, ()), random_element(RandomElementSpec(2, 3, 5)))

    def test_exponent_limit_fails_as_the_fold_does(self):
        # Each factor halves the piece at 0, so n factors reach exponent n + 1.
        shrink = Element.from_pairs(
            [
                Pair(brick("0/2^1"), brick("0/2^2")),
                Pair(brick("2/2^2"), brick("1/2^2")),
                Pair(brick("3/2^2"), brick("1/2^1")),
            ]
        )
        deepest = Word(1, (shrink,) * (MAX_EXPONENT - 1))
        assert product_equals(deepest, deepest.product())
        word = Word(1, (shrink,) * MAX_EXPONENT)
        with pytest.raises(ExponentLimitError):
            equals(word.product(), identity(1))
        with pytest.raises(ExponentLimitError):
            product_equals(word, identity(1))

    def test_a_cut_past_the_exponent_limit_fails_as_the_fold_does(self):
        # No cell of either factor passes the limit, but their product
        # cuts the domain [0, 2^-71) out of [0, 2^-10).
        word = exponent_71_word()
        with pytest.raises(ExponentLimitError):
            equals(word.product(), identity(1))
        with pytest.raises(ExponentLimitError):
            product_equals(word, identity(1))

    def test_steps_are_read_once_from_any_iterable(self):
        factors = [random_element(RandomElementSpec(2, 4, 60 + k)) for k in range(4)]
        steps = [elements._pieces(f) for f in factors]
        read = []

        def one_shot():
            for k, step in enumerate(steps):
                read.append(k)
                yield iter(step)

        assert _product_pieces(2, one_shot()) == _product_pieces(2, steps)
        assert read == [0, 1, 2, 3]

    def test_presentation_does_not_matter(self):
        b = unit_baker()
        refined = then(then(b, b), inverse(b))
        assert len(refined) > len(b)
        assert product_equals(Word(2, (b,)), refined)
        assert product_equals(Word(2, (refined, inverse(b))), identity(2))

    def test_merges_only_sibling_domains_lower_onto_lower(self):
        # Swapping the halves of [0,1) moves two pieces with sibling
        # domains and sibling ranges, but lower onto upper: no merge.
        swap = Element.from_pairs(
            [Pair(brick("0/2^1"), brick("1/2^1")), Pair(brick("1/2^1"), brick("0/2^1"))]
        )
        word = Word(1, (swap,))
        assert not product_equals(word, identity(1))
        assert sorted(_word_then_inverse(word, identity(1))) == [((2,), (3,)), ((3,), (2,))]
        # [3/4,1) lands on [1/4,1/2), the range sibling of the fixed [0,1/4)
        # and on the same side, but the two domains are not siblings.
        g = Element.from_pairs(
            [
                Pair(brick("0/2^2"), brick("0/2^2")),
                Pair(brick("1/2^2"), brick("2/2^2")),
                Pair(brick("2/2^2"), brick("3/2^2")),
                Pair(brick("3/2^2"), brick("1/2^2")),
            ]
        )
        assert product_equals(Word(1, (g,)), g)
        pieces = _word_then_inverse(Word(1, (g,)), identity(1))
        assert sorted(pieces) == sorted((p.domain.ints, p.range.ints) for p in g.pairs)
        # A baker and its inverse leave two halves mapped to themselves,
        # which merge back into the cube.
        b = unit_baker()
        assert _word_then_inverse(Word(2, (b, inverse(b))), identity(2)) == [((1, 1), (1, 1))]

    @pytest.mark.parametrize("pieces", [[(2, 1)], [(1, 1), (2, 1)]], ids=["lost", "duplicated"])
    def test_a_lost_or_duplicated_piece_is_not_an_equal_product(self, monkeypatch, pieces):
        # Every piece is an identity pair, so only the measure check sees
        # that half the cube is missing or covered twice.
        fake = [(d, d) for d in pieces]
        monkeypatch.setattr(elements, "_product_pieces", lambda word, target: fake)
        assert not product_equals(Word(2, ()), identity(2))

    def test_verifier_work_is_pinned(self, monkeypatch):
        # Exact work counts of the one-pass check of the eps = 1/8 word:
        # the pieces filed in the index, the cube it starts from included,
        # and the most live at once.
        added, peak = [0], [0]

        class Counted(elements._RangeIndex):
            def __init__(self, bricks):
                super().__init__(bricks)
                added[0] += len(bricks)
                peak[0] = max(peak[0], len(self.bricks))

            def add(self, b):
                i = super().add(b)
                added[0] += 1
                peak[0] = max(peak[0], len(self.bricks))
                return i

        monkeypatch.setattr(elements, "_RangeIndex", Counted)
        report = factor_baker(BakerSpec(unit_brick(2), 0, 1), Fraction(1, 8))
        assert report.verified and len(report.word) == 2047
        assert (added[0], peak[0]) == (7232, 22)

    def test_verifier_carries_the_reduced_map(self, monkeypatch):
        # An exact work count: the most pieces the one-pass check of the
        # eps = 1/16 word holds at once. 32 are measured; without merging
        # it would hold the word's refinement, 5,120 pieces.
        peak = [0]

        class Counted(elements._RangeIndex):
            def add(self, b):
                i = super().add(b)
                peak[0] = max(peak[0], len(self.bricks))
                return i

        monkeypatch.setattr(elements, "_RangeIndex", Counted)
        report = factor_baker(BakerSpec(unit_brick(2), 0, 1), Fraction(1, 16))
        assert report.verified and len(report.word) == 8191
        assert peak[0] <= 64
