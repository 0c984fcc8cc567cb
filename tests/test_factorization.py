import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvbaker import (
    BakerSpec,
    Brick,
    Cell,
    Element,
    FactorizationError,
    GridSpec,
    PartitionError,
    Word,
    cancel_disjoint_pair,
    equals,
    factor_baker,
    factor_small_baker,
    factorization,
    grid_equals,
    identity,
    inverse,
    is_transposition_form,
    make_baker,
    product_equals,
    serialize_element,
    serialize_word,
    shrink,
    split_baker,
    then,
    unit_brick,
    verify_word,
)

from conftest import brick

UNIT2 = BakerSpec(unit_brick(2), 0, 1)
SECONDARY = BakerSpec(brick("1/2^1,2/2^2"), 0, 1)


def compose_sequence(sequence) -> Element:
    """Left-to-right product of a mixed sequence of specs and elements."""
    out = identity(sequence[0].dimension if sequence else 2)
    for item in sequence:
        factor = make_baker(item) if isinstance(item, BakerSpec) else item
        out = then(out, factor)
    return out


def all_proper(factors) -> bool:
    flags = []
    for t in factors:
        ok, spec = is_transposition_form(t)
        flags.append(ok and spec.proper)
    return all(flags)


class TestSplitBaker:
    def test_domain_split_transposition_frozen(self):
        t, lo, hi = split_baker(UNIT2, "domain")
        assert lo == BakerSpec(brick("0/2^1,0/2^0"), 0, 1)
        assert hi == BakerSpec(brick("1/2^1,0/2^0"), 0, 1)
        assert serialize_element(t) == (
            "NV 2\n"
            "0/2^1,0/2^1 -> 0/2^1,0/2^1\n"
            "0/2^1,1/2^1 -> 1/2^1,0/2^1\n"
            "1/2^1,0/2^1 -> 0/2^1,1/2^1\n"
            "1/2^1,1/2^1 -> 1/2^1,1/2^1\n"
        )

    def test_range_split_transposition_frozen(self):
        t, lo, hi = split_baker(UNIT2, "range")
        assert lo == BakerSpec(brick("0/2^0,0/2^1"), 0, 1)
        assert hi == BakerSpec(brick("0/2^0,1/2^1"), 0, 1)
        assert serialize_element(t) == (
            "NV 2\n"
            "0/2^0,0/2^2 -> 0/2^0,0/2^2\n"
            "0/2^0,1/2^2 -> 0/2^0,2/2^2\n"
            "0/2^0,2/2^2 -> 0/2^0,1/2^2\n"
            "0/2^0,3/2^2 -> 0/2^0,3/2^2\n"
        )

    @pytest.mark.parametrize("along", ["domain", "range"])
    @pytest.mark.parametrize(
        "spec",
        [
            UNIT2,
            SECONDARY,
            BakerSpec(unit_brick(2), 1, 0),
            BakerSpec(unit_brick(3), 0, 2),
            BakerSpec(brick("0/2^1,1/2^1,0/2^0"), 2, 0),
        ],
    )
    def test_recombines(self, spec, along):
        t, lo, hi = split_baker(spec, along)
        product = then(then(make_baker(lo), make_baker(hi)), t)
        assert equals(product, make_baker(spec))

    def test_split_halves_expected_axis(self):
        _, lo, hi = split_baker(SECONDARY, "domain")
        assert (lo.support, hi.support) == tuple(
            BakerSpec(s, 0, 1).support for s in SECONDARY.support.split(0)
        )
        _, lo, hi = split_baker(SECONDARY, "range")
        assert lo.support == SECONDARY.support.split(1)[0]
        assert hi.support == SECONDARY.support.split(1)[1]

    def test_transposition_proper_on_partial_support(self):
        t, _, _ = split_baker(SECONDARY, "domain")
        ok, spec = is_transposition_form(t)
        assert ok and spec.proper

    def test_unknown_kind_rejected(self):
        with pytest.raises(FactorizationError, match="split kind"):
            split_baker(UNIT2, "diagonal")


class TestShrink:
    def test_unit_epsilon_one(self):
        result = shrink(UNIT2, Fraction(1))
        assert len(result.small_bakers) == 4
        assert len(result.transpositions) == 3
        kinds = [
            "B" if isinstance(x, BakerSpec) else "E" for x in result.sequence
        ]
        assert kinds == ["B", "B", "E", "B", "B", "E", "E"]
        assert all(b.support.diameter < 1 for b in result.small_bakers)
        assert equals(compose_sequence(result.sequence), make_baker(UNIT2))

    def test_unit_epsilon_quarter(self):
        result = shrink(UNIT2, Fraction(1, 4))
        assert len(result.small_bakers) == 64
        assert len(result.transpositions) == 63
        assert all(
            b.support.diameter < Fraction(1, 4) for b in result.small_bakers
        )
        assert equals(compose_sequence(result.sequence), make_baker(UNIT2))

    def test_unit_epsilon_eighth_counts(self):
        result = shrink(UNIT2, Fraction(1, 8))
        assert len(result.small_bakers) == 256
        assert len(result.transpositions) == 255
        assert all(
            b.support.diameter < Fraction(1, 8) for b in result.small_bakers
        )

    def test_small_input_needs_no_work(self):
        result = shrink(SECONDARY, Fraction(1))
        assert result.sequence == (SECONDARY,)

    def test_epsilon_must_be_positive(self):
        with pytest.raises(FactorizationError, match="positive"):
            shrink(UNIT2, Fraction(0))
        with pytest.raises(FactorizationError, match="positive"):
            shrink(UNIT2, Fraction(-1, 2))

    def test_epsilon_below_exponent_limit(self):
        with pytest.raises(FactorizationError, match="too small"):
            shrink(UNIT2, Fraction(1, 1 << 64))

    def test_off_plane_axis_blocks(self):
        spec = BakerSpec(unit_brick(3), 0, 1)
        with pytest.raises(FactorizationError, match="axis 2"):
            shrink(spec, Fraction(1, 2))


class TestCancelDisjointPair:
    def test_product_identity(self):
        a = BakerSpec(brick("0/2^1,0/2^1"), 0, 1)
        b = BakerSpec(brick("1/2^1,1/2^1"), 0, 1)
        word = cancel_disjoint_pair(a, b)
        assert len(word.factors) == 3
        target = then(make_baker(a), inverse(make_baker(b)))
        assert equals(word.product(), target)
        assert all_proper(word.factors)

    def test_complementary_halves_third_factor_improper(self):
        a = BakerSpec(brick("0/2^1,0/2^0"), 0, 1)
        b = BakerSpec(brick("1/2^1,0/2^0"), 0, 1)
        word = cancel_disjoint_pair(a, b)
        target = then(make_baker(a), inverse(make_baker(b)))
        assert equals(word.product(), target)
        flags = []
        for t in word.factors:
            ok, spec = is_transposition_form(t)
            assert ok
            flags.append(spec.proper)
        assert flags == [True, True, False]

    def test_three_dimensional(self):
        a = BakerSpec(brick("0/2^1,0/2^1,0/2^0"), 0, 1)
        b = BakerSpec(brick("1/2^1,1/2^1,0/2^0"), 0, 1)
        word = cancel_disjoint_pair(a, b)
        target = then(make_baker(a), inverse(make_baker(b)))
        assert equals(word.product(), target)
        assert all_proper(word.factors)

    def test_requires_matching_axes(self):
        a = BakerSpec(brick("0/2^1,0/2^1"), 0, 1)
        b = BakerSpec(brick("1/2^1,1/2^1"), 1, 0)
        with pytest.raises(FactorizationError, match="matching"):
            cancel_disjoint_pair(a, b)

    def test_requires_disjoint_supports(self):
        a = BakerSpec(unit_brick(2), 0, 1)
        b = BakerSpec(brick("1/2^1,1/2^1"), 0, 1)
        with pytest.raises(FactorizationError, match="disjoint"):
            cancel_disjoint_pair(a, b)

    def test_requires_equal_dimension(self):
        a = BakerSpec(brick("0/2^1,0/2^1"), 0, 1)
        b = BakerSpec(brick("1/2^1,1/2^1,0/2^0"), 0, 1)
        with pytest.raises(FactorizationError, match="dimension"):
            cancel_disjoint_pair(a, b)


class TestFactorSmallBaker:
    @pytest.mark.parametrize(
        "support",
        [
            "0/2^1,0/2^1",  # lower child along the split axis
            "1/2^1,0/2^1",  # upper child along the split axis
            "0/2^1,1/2^1",
            "1/2^1,1/2^1",
            "0/2^2,0/2^2",
            "3/2^2,1/2^1",
            "1/2^1,2/2^2",
        ],
    )
    def test_seven_proper_factors(self, support):
        spec = BakerSpec(brick(support), 0, 1)
        word = factor_small_baker(spec)
        assert len(word.factors) == 7
        assert all_proper(word.factors)
        assert verify_word(word, spec)

    def test_reversed_axes(self):
        spec = BakerSpec(brick("2/2^2,1/2^1"), 1, 0)
        word = factor_small_baker(spec)
        assert len(word.factors) == 7
        assert all_proper(word.factors)
        assert verify_word(word, spec)

    def test_three_dimensional(self):
        spec = BakerSpec(brick("0/2^1,1/2^1,0/2^0"), 0, 1)
        word = factor_small_baker(spec)
        assert len(word.factors) == 7
        assert all_proper(word.factors)
        assert verify_word(word, spec)

    def test_rejects_long_sides(self):
        with pytest.raises(FactorizationError, match="too large"):
            factor_small_baker(UNIT2)
        with pytest.raises(FactorizationError, match="too large"):
            factor_small_baker(BakerSpec(brick("0/2^0,0/2^1"), 0, 1))


class TestFactorBaker:
    def test_unit_report(self):
        report = factor_baker(UNIT2)
        assert report.verified
        assert len(report.word.factors) == 31
        assert len(report.small_bakers) == 4
        assert len(report.split_transpositions) == 3
        assert report.epsilon is None
        assert all_proper(report.word.factors)

    def test_unit_levels_frozen(self):
        report = factor_baker(UNIT2)
        shown = [
            [str(b.support) for b in level] for level in report.levels
        ]
        assert shown == [
            ["0/2^0,0/2^0"],
            ["0/2^1,0/2^0", "1/2^1,0/2^0"],
            ["0/2^1,0/2^1", "0/2^1,1/2^1", "1/2^1,0/2^1", "1/2^1,1/2^1"],
        ]

    def test_secondary_is_already_small(self):
        report = factor_baker(SECONDARY)
        assert report.verified
        assert len(report.word.factors) == 7
        assert report.levels == ((SECONDARY,),)
        assert report.split_transpositions == ()

    def test_word_length_formula(self):
        # Seven per small baker plus one per binary split.
        for epsilon, pieces in [(Fraction(1), 4), (Fraction(1, 2), 16)]:
            report = factor_baker(UNIT2, epsilon)
            assert len(report.small_bakers) == pieces
            assert len(report.word.factors) == 7 * pieces + (pieces - 1)
            assert report.verified

    def test_epsilon_quarter(self):
        report = factor_baker(UNIT2, Fraction(1, 4))
        assert len(report.word.factors) == 511
        assert report.verified
        assert all(
            b.support.diameter < Fraction(1, 4) for b in report.small_bakers
        )

    def test_three_dimensional_leaves_other_axes_whole(self):
        report = factor_baker(BakerSpec(unit_brick(3), 0, 1))
        assert report.verified
        assert len(report.word.factors) == 31
        for level in report.levels:
            for b in level:
                assert b.support.cells[2].exponent == 0

    def test_epsilon_validated(self):
        with pytest.raises(FactorizationError, match="positive"):
            factor_baker(UNIT2, Fraction(-1))

    def test_eighth_epsilon_word_is_pinned(self):
        word = factor_baker(UNIT2, Fraction(1, 8)).word
        assert len(word.factors) == 2047
        assert hashlib.sha256(serialize_word(word).encode()).hexdigest() == (
            "838ad214031aa48d0b0aacef1eae266c148d02651b5358a665c72420320df76d"
        )

    def test_eighth_epsilon_splits_each_node_once(self, split_calls):
        # The 255 splits of the tree; the 256 small bakers split on cell
        # ints, not through `split_baker`.
        factor_baker(UNIT2, Fraction(1, 8))
        assert split_calls[0] == 255

    def test_split_depth_is_bounded(self, split_calls):
        # 1/2^6 needs depth 14 (131,071 factors); 1/2^7 would need 16.
        epsilon = Fraction(1, 1 << 7)
        with pytest.raises(FactorizationError, match=r"2\^17 - 1 = 131,071 factors"):
            factor_baker(UNIT2, epsilon)
        assert split_calls[0] == factorization.MAX_SPLIT_DEPTH
        with pytest.raises(FactorizationError, match="past depth 14"):
            shrink(UNIT2, epsilon)


@pytest.fixture
def split_calls(monkeypatch):
    """How many times `split_baker` ran since the fixture was set up."""
    calls = [0]
    real = factorization.split_baker

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(factorization, "split_baker", counted)
    return calls


@st.composite
def reachable_bakers(draw):
    """A baker spec on a random support in dimensions 2 to 4, with no
    epsilon or a dyadic one at most 1 that splitting can reach."""
    dim = draw(st.integers(2, 4))
    i, j = draw(st.permutations(range(dim)))[:2]
    exponents = [draw(st.integers(0, 3)) for _ in range(dim)]
    cells = [Cell(e, draw(st.integers(0, (1 << e) - 1))) for e in exponents]
    spec = BakerSpec(Brick(tuple(cells)), i, j)
    off_plane = [e for axis, e in enumerate(exponents) if axis not in (i, j)]
    finest = min([2, *(e - 1 for e in off_plane)])  # epsilon must pass every off-plane side
    if finest < 0 or draw(st.booleans()):
        return spec, None
    return spec, Fraction(1, 1 << draw(st.integers(0, finest)))


@settings(deadline=None, max_examples=40)
@given(reachable_bakers())
def test_split_tree_is_complete(case):
    spec, epsilon = case
    report = factor_baker(spec, epsilon)
    depth = len(report.levels) - 1
    assert [len(level) for level in report.levels] == [1 << r for r in range(depth + 1)]
    assert report.small_bakers == report.levels[-1]
    assert len(report.word) == (1 << depth + 3) - 1
    if epsilon is not None:  # at most 1, so shrink splits exactly the same bakers
        result = shrink(spec, epsilon)
        assert len(result.sequence) == (1 << depth + 1) - 1
        assert result.small_bakers == report.small_bakers


def _drop(tiles):
    return tiles[1:]


def _duplicate(tiles):
    return tiles + tiles[:1]


def _parent(tiles):
    if not tiles:
        return tiles
    first = tiles[0]
    axis = next(a for a, c in enumerate(first) if c != 1)
    return [Brick._of(first).double(axis).ints, *tiles[1:]]


def _swap_equal_measure(tiles):
    """Drop one tile and duplicate another of the same measure: the total
    measure stays 1, so only the overlap check can see it."""
    for k, x in enumerate(tiles):
        for y in tiles[k + 1 :]:
            if Brick._of(x).measure == Brick._of(y).measure:
                return [t for t in tiles if t != y] + [x]
    return tiles


@pytest.mark.parametrize("mutant", [_drop, _duplicate, _parent, _swap_equal_measure])
def test_complement_mutants_never_give_a_report(monkeypatch, mutant):
    """A wrong complement tiling must stop the factorization before any
    transposition is built from it. The tiles are cell ints."""
    real = factorization._tile_cells
    changed = []

    def broken(region, holes):
        tiles = real(region, holes)
        out = mutant(list(tiles))
        changed.append(out != tiles)
        return out

    monkeypatch.setattr(factorization, "_tile_cells", broken)
    with pytest.raises(PartitionError, match="ambient is not a partition"):
        factor_baker(UNIT2)
    assert any(changed)


@st.composite
def small_bakers(draw):
    """Baker specs in dimensions 2 to 4 with both in-plane sides at most
    1/2, shaped like the benchmark's audited jobs."""
    dim = draw(st.integers(2, 4))
    i, j = draw(st.permutations(range(dim)))[:2]
    cells = []
    for axis in range(dim):
        e = draw(st.integers(1, 4) if axis in (i, j) else st.integers(0, 3))
        cells.append(Cell(e, draw(st.integers(0, (1 << e) - 1))))
    return BakerSpec(Brick(tuple(cells)), i, j)


def _seeded_small_bakers(count: int, seed: int) -> list[BakerSpec]:
    """Small baker specs in dimensions 3 and 4, drawn as `small_bakers` draws them."""
    rng = random.Random(seed)
    specs = []
    for k in range(count):
        dim = 3 + k % 2
        i, j = rng.sample(range(dim), 2)
        cells = []
        for axis in range(dim):
            e = rng.randint(1, 4) if axis in (i, j) else rng.randint(0, 3)
            cells.append(Cell(e, rng.randrange(1 << e)))
        specs.append(BakerSpec(Brick(tuple(cells)), i, j))
    return specs


def test_small_baker_words_in_three_and_four_dimensions_are_pinned():
    # Every word at no epsilon, and at 1/4 wherever splitting can reach it
    # (every off-plane side below 1/4); taken before the words were built on
    # cell ints, so the bytes did not move.
    digest = hashlib.sha256()
    cases = 0
    for spec in _seeded_small_bakers(60, 2009):
        plane = (spec.split_axis, spec.merge_axis)
        off_plane = [c for a, c in enumerate(spec.support.ints) if a not in plane]
        for epsilon in (None, Fraction(1, 4)):
            if epsilon is not None and min(off_plane) < 8:  # cell int 8 is exponent 3
                continue
            report = factor_baker(spec, epsilon)
            assert report.verified
            digest.update(serialize_word(report.word).encode())
            cases += 1
    assert cases == 74
    assert digest.hexdigest() == (
        "acba6a1b984da268117a63e0edda817d8532344e6120f9792bd187d6a8a5d512"
    )


@settings(deadline=None, max_examples=40)
@given(small_bakers())
def test_small_baker_factors_are_proper_and_agree_with_the_oracle(spec):
    word = factor_baker(spec).word
    for f in word.factors:
        assert Element.from_pairs(f.pairs) == f
        ok, t = is_transposition_form(f)
        assert ok and t.proper
    if spec.dimension == 2:
        product, baker = word.product(), make_baker(spec)
        finest = max(
            c.bit_length() - 1
            for e in (product, baker)
            for p in e.pairs
            for b in (p.domain, p.range)
            for c in b.ints
        )
        assert grid_equals(product, baker, GridSpec(finest + 1))


class TestVerifyWord:
    def test_accepts_true_factorization(self):
        word = factor_small_baker(SECONDARY)
        assert verify_word(word, SECONDARY)

    def test_rejects_truncated_word(self):
        word = factor_small_baker(SECONDARY)
        shorter = Word(word.dimension, word.factors[:-1])
        assert not verify_word(shorter, SECONDARY)

    def test_rejects_wrong_target(self):
        word = factor_small_baker(SECONDARY)
        assert not verify_word(word, BakerSpec(brick("0/2^1,0/2^1"), 0, 1))


def test_quarter_word_mutants_get_the_dense_verdict():
    """The one-pass check agrees with the fold on the epsilon = 1/4 word
    with a factor dropped or duplicated and with neighbours swapped."""
    factors = factor_baker(UNIT2, Fraction(1, 4)).word.factors
    mutants = {
        "original": factors,
        "dropped": factors[:200] + factors[201:],
        "duplicated": factors[:321] + factors[320:],
    }
    for k in (0, 137):  # a commuting and a non-commuting neighbour pair
        mutants[f"swap {k}"] = factors[:k] + (factors[k + 1], factors[k]) + factors[k + 2 :]
    target = make_baker(UNIT2)
    verdicts = {}
    for name, mutant in mutants.items():
        word = Word(2, mutant)
        verdicts[name] = product_equals(word, target)
        assert verdicts[name] == equals(word.product(), target), name
    assert verdicts["original"] and verdicts["swap 0"]
    assert not (verdicts["dropped"] or verdicts["duplicated"] or verdicts["swap 137"])
