from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvbaker import (
    BakerSpec,
    Brick,
    Cell,
    Element,
    GridSpec,
    Lcg64,
    Pair,
    RandomElementSpec,
    ResolutionError,
    apply_point,
    equals,
    grid_equals,
    grid_witness,
    identity,
    inverse,
    make_baker,
    partition_validate,
    random_element,
    then,
    unit_brick,
)

from conftest import brick

BAKER = make_baker(BakerSpec(unit_brick(2), 0, 1))


def reference_lcg(seed: int, count: int) -> list[int]:
    """The MMIX recurrence written out longhand."""
    mask = (1 << 64) - 1
    state = seed & mask
    out = []
    for _ in range(count):
        state = (6364136223846793005 * state + 1442695040888963407) & mask
        out.append(state)
    return out


def dyadic_ruler_1d(finest: int) -> list[Brick]:
    """Partition [0, 1) as [0, 2^-finest) plus doubling steps back up."""
    out = [Brick((Cell(finest, 0),))]
    out.extend(Brick((Cell(e, 1),)) for e in range(finest, 0, -1))
    return out


class TestLcg64:
    def test_matches_recurrence(self):
        for seed in (0, 1, 42, 2**64 - 1, 12345678901234567890):
            rng = Lcg64(seed)
            assert [rng.next_u64() for _ in range(6)] == reference_lcg(seed, 6)

    def test_frozen_values(self):
        rng = Lcg64(0)
        assert rng.next_u64() == 1442695040888963407
        assert rng.next_u64() == 1876011003808476466
        rng = Lcg64(42)
        assert rng.next_u64() == 10481999410520546993

    def test_below_multiply_shift(self):
        rng = Lcg64(7)
        expected = [(u * 10) >> 64 for u in reference_lcg(7, 8)]
        assert [rng.below(10) for _ in range(8)] == expected
        assert all(0 <= v < 10 for v in expected)

    def test_below_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Lcg64(0).below(0)

    def test_shuffle_frozen(self):
        rng = Lcg64(3)
        items = list(range(8))
        rng.shuffle(items)
        assert items == [7, 3, 5, 6, 1, 4, 2, 0]
        assert sorted(items) == list(range(8))

    def test_shuffle_matches_fisher_yates(self):
        rng = Lcg64(99)
        items = list("abcdef")
        rng.shuffle(items)
        draws = reference_lcg(99, 5)
        expected = list("abcdef")
        for k, u in zip(range(5, 0, -1), draws):
            j = (u * (k + 1)) >> 64
            expected[k], expected[j] = expected[j], expected[k]
        assert items == expected


class TestGridEquals:
    def test_agrees_on_identities(self):
        assert grid_equals(identity(2), identity(2), GridSpec(3))

    def test_presentation_independent(self):
        refined = Element.from_pairs(
            [
                Pair(d, r)
                for p in BAKER.pairs
                for d, r in zip(p.domain.split(1), p.range.split(1))
            ]
        )
        assert len(refined) > len(BAKER)
        assert grid_equals(BAKER, refined, GridSpec(4))

    def test_distinguishes_baker_from_identity(self):
        assert not grid_equals(BAKER, identity(2), GridSpec(2))

    def test_distinguishes_baker_from_inverse(self):
        assert not grid_equals(BAKER, inverse(BAKER), GridSpec(2))

    def test_resolution_must_cover_finest_cell(self):
        pieces = [
            brick("0/2^3,0/2^0"),
            brick("1/2^3,0/2^0"),
            brick("1/2^2,0/2^0"),
            brick("1/2^1,0/2^0"),
        ]
        e = Element.from_pairs([Pair(b, b) for b in pieces])
        with pytest.raises(ResolutionError):
            grid_equals(e, identity(2), GridSpec(2))
        assert grid_equals(e, identity(2), GridSpec(3))

    def test_dimension_mismatch(self):
        with pytest.raises(ResolutionError):
            grid_equals(identity(2), identity(3), GridSpec(2))

    def test_scale_limit_blocks_huge_grids(self):
        e = Element.from_pairs([Pair(b, b) for b in dyadic_ruler_1d(32)])
        with pytest.raises(ResolutionError):
            grid_equals(e, identity(1), GridSpec(32))

    def test_resolution_below_finest_cell_rejected(self):
        e = Element.from_pairs([Pair(b, b) for b in dyadic_ruler_1d(32)])
        with pytest.raises(ResolutionError):
            grid_equals(e, identity(1), GridSpec(31))


class TestGridWitness:
    def test_frozen_first_disagreement(self):
        point = grid_witness(BAKER, identity(2), GridSpec(2))
        assert point == (Fraction(0), Fraction(1, 4))
        assert apply_point(BAKER, point) != point

    def test_none_when_equal(self):
        assert grid_witness(BAKER, BAKER, GridSpec(3)) is None

    def test_witness_is_genuine(self):
        g = inverse(BAKER)
        point = grid_witness(BAKER, g, GridSpec(3))
        assert point is not None
        assert apply_point(BAKER, point) != apply_point(g, point)


class TestRandomElement:
    def test_reproducible(self):
        spec = RandomElementSpec(2, 5, 42)
        assert random_element(spec) == random_element(spec)

    def test_seed_changes_output(self):
        base = random_element(RandomElementSpec(2, 5, 0))
        assert any(
            random_element(RandomElementSpec(2, 5, s)) != base
            for s in range(1, 6)
        )

    def test_valid_partitions(self):
        for seed in range(12):
            e = random_element(RandomElementSpec(2, 5, seed))
            assert partition_validate([p.domain for p in e.pairs]).ok
            assert partition_validate([p.range for p in e.pairs]).ok

    @settings(deadline=None)
    @given(st.integers(1, 4), st.integers(0, 6), st.integers(0, 2**64 - 1))
    def test_partitions_for_any_spec(self, dimension, depth, seed):
        # random_element builds its element unchecked, trusting the halving.
        e = random_element(RandomElementSpec(dimension, depth, seed))
        assert partition_validate([p.domain for p in e.pairs])
        assert partition_validate([p.range for p in e.pairs])

    def test_depth_bound_respected(self):
        for seed in range(12):
            e = random_element(RandomElementSpec(2, 4, seed))
            for p in e.pairs:
                for cell in (*p.domain.cells, *p.range.cells):
                    assert cell.exponent <= 4

    def test_dimensions(self):
        for n in (1, 2, 3, 4):
            e = random_element(RandomElementSpec(n, 3, 7))
            assert e.dimension == n

    def test_depth_zero_gives_identity(self):
        assert random_element(RandomElementSpec(2, 0, 5)) == identity(2)

    def test_not_all_trivial(self):
        elements = [
            random_element(RandomElementSpec(2, 5, s)) for s in range(10)
        ]
        assert any(len(e) > 1 for e in elements)
        assert any(not equals(e, identity(2)) for e in elements)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            RandomElementSpec(0, 3, 1)
        with pytest.raises(ValueError):
            RandomElementSpec(2, -1, 1)

    def test_oracle_agrees_on_sample(self):
        grid = GridSpec(6)
        for seed in range(8):
            e = random_element(RandomElementSpec(2, 4, seed))
            f = random_element(RandomElementSpec(2, 4, seed + 100))
            assert grid_equals(e, f, grid) == equals(e, f)
            assert grid_equals(e, e, grid)


@st.composite
def oracle_cases(draw):
    """Two elements of dimension 1 or 2: the same map in a finer presentation,
    the first followed by another element, or an unrelated element."""
    dim = draw(st.integers(1, 2))
    seeds = st.integers(0, 2**32)
    f = random_element(RandomElementSpec(dim, draw(st.integers(0, 3)), draw(seeds)))
    h = random_element(RandomElementSpec(dim, draw(st.integers(0, 2)), draw(seeds)))
    kind = draw(st.sampled_from(["refined", "composed", "unrelated"]))
    if kind == "refined":
        return f, then(f, then(h, inverse(h)))
    if kind == "composed":
        return f, then(f, h)
    return f, h


@settings(deadline=None, max_examples=100)
@given(oracle_cases())
def test_grid_agrees_with_equals_one_level_finer(case):
    f, g = case
    finest = max(
        c.exponent for e in (f, g) for p in e.pairs for b in (p.domain, p.range) for c in b.cells
    )
    assert grid_equals(f, g, GridSpec(finest + 1)) == equals(f, g)
