import sys
from fractions import Fraction

import pytest

from nvbaker import (
    BakerSpec,
    Element,
    NvError,
    Pair,
    ParseError,
    Partition,
    Word,
    equals,
    factor_baker,
    identity,
    inverse,
    load_element,
    make_baker,
    parse_brick,
    parse_dyadic,
    parse_element,
    parse_partition,
    parse_tree_pair,
    parse_word,
    random_element,
    RandomElementSpec,
    serialize_element,
    serialize_partition,
    serialize_word,
    unit_brick,
)

from conftest import brick

BAKER_TEXT = "NV 2\n0/2^1,0/2^0 -> 0/2^0,0/2^1\n1/2^1,0/2^0 -> 0/2^0,1/2^1\n"


class TestParseDyadic:
    def test_integers(self):
        assert parse_dyadic("0") == 0
        assert parse_dyadic("3") == 3

    def test_dyadic_fractions(self):
        assert parse_dyadic("1/2^2") == Fraction(1, 4)
        assert parse_dyadic("5/2^3") == Fraction(5, 8)

    def test_rejects_other_shapes(self):
        for bad in ("1/3", "1/2^", "2^3", "-1/2^2", "a", ""):
            with pytest.raises(ParseError, match="syntax error"):
                parse_dyadic(bad)

    def test_refuses_oversized_numbers_before_building_them(self):
        assert parse_dyadic("1/2^64") == Fraction(1, 1 << 64)
        for bad in ("1/2^65", "1/2^10000000000", "1/2^" + "9" * 5000, "9" * 5000 + "/2^3"):
            with pytest.raises(ParseError, match="semantic error"):
                parse_dyadic(bad)


class TestParseBrick:
    def test_basic(self):
        b = parse_brick("1/2^1,2/2^2")
        assert str(b) == "1/2^1,2/2^2"
        assert b.dimension == 2

    def test_whitespace_tolerated(self):
        assert parse_brick(" 1/2^1 , 2/2^2 ") == brick("1/2^1,2/2^2")

    def test_dimension_checked_when_given(self):
        with pytest.raises(ParseError, match="semantic error"):
            parse_brick("0/2^1,0/2^1", dimension=3)

    def test_out_of_range_numerator(self):
        with pytest.raises(ParseError, match="semantic error"):
            parse_brick("2/2^1,0/2^1")

    def test_bad_cell_syntax(self):
        with pytest.raises(ParseError, match="syntax error"):
            parse_brick("0/2^1,zebra")


class TestParseElement:
    def test_golden_baker(self):
        e = parse_element(BAKER_TEXT)
        assert e == make_baker(BakerSpec(unit_brick(2), 0, 1))

    def test_serialize_golden_baker(self):
        e = make_baker(BakerSpec(unit_brick(2), 0, 1))
        assert serialize_element(e) == BAKER_TEXT

    def test_round_trip_bytes(self):
        for seed in range(6):
            e = random_element(RandomElementSpec(2, 4, seed))
            text = serialize_element(e)
            assert serialize_element(parse_element(text)) == text

    def test_round_trip_structural(self):
        for seed in range(6):
            e = random_element(RandomElementSpec(3, 3, seed))
            assert parse_element(serialize_element(e)) == e

    def test_comments_and_blank_lines(self):
        text = (
            "# a two-piece element\n"
            "\n"
            "NV 2   # header\n"
            "0/2^1,0/2^0 -> 0/2^0,0/2^1  # first pair\n"
            "\n"
            "1/2^1,0/2^0 -> 0/2^0,1/2^1\n"
        )
        assert parse_element(text) == parse_element(BAKER_TEXT)

    def test_crlf_tolerated(self):
        assert parse_element(BAKER_TEXT.replace("\n", "\r\n")) == parse_element(
            BAKER_TEXT
        )

    def test_pair_order_ignored(self):
        lines = BAKER_TEXT.split("\n")
        swapped = "\n".join([lines[0], lines[2], lines[1]]) + "\n"
        assert serialize_element(parse_element(swapped)) == BAKER_TEXT

    def test_missing_header(self):
        with pytest.raises(ParseError, match="NV"):
            parse_element("0/2^1,0/2^0 -> 0/2^0,0/2^1\n")

    def test_empty_input(self):
        with pytest.raises(ParseError, match="empty"):
            parse_element("# nothing here\n")

    def test_syntax_error_carries_position(self):
        text = "NV 2\n0/2^1,0/2^0 -> 0/2^0,0/2^1\n1/2^1,0/2^0 -> 0/2^0;1/2^1\n"
        with pytest.raises(ParseError) as info:
            parse_element(text)
        assert info.value.line == 3
        assert "syntax error" in str(info.value)

    def test_column_points_at_range_side(self):
        text = "NV 2\n0/2^1,0/2^0 -> 0/2^0,7/2^1\n1/2^1,0/2^0 -> 0/2^0,1/2^1\n"
        with pytest.raises(ParseError) as info:
            parse_element(text)
        assert info.value.line == 2
        assert info.value.column > len("0/2^1,0/2^0 -> ")

    def test_semantic_error_overlapping_domains(self):
        text = "NV 2\n0/2^0,0/2^0 -> 0/2^0,0/2^0\n0/2^1,0/2^0 -> 1/2^1,0/2^0\n"
        with pytest.raises(ParseError, match="semantic error"):
            parse_element(text)

    def test_semantic_error_wrong_dimension_cells(self):
        text = "NV 3\n0/2^1,0/2^0 -> 0/2^0,0/2^1\n1/2^1,0/2^0 -> 0/2^0,1/2^1\n"
        with pytest.raises(ParseError, match="semantic error"):
            parse_element(text)


class TestWordFiles:
    def test_round_trip_factorization(self):
        report = factor_baker(BakerSpec(brick("1/2^1,2/2^2"), 0, 1))
        text = serialize_word(report.word)
        back = parse_word(text)
        assert back == report.word
        assert serialize_word(back) == text

    def test_block_separator_shape(self):
        report = factor_baker(BakerSpec(brick("1/2^1,2/2^2"), 0, 1))
        text = serialize_word(report.word)
        assert text.count("\n--\n") == len(report.word.factors) - 1

    def test_single_factor(self):
        word = Word(2, (identity(2),))
        assert parse_word(serialize_word(word)) == word

    def test_order_preserved(self):
        b = make_baker(BakerSpec(unit_brick(2), 0, 1))
        word = Word(2, (b, inverse(b)))
        back = parse_word(serialize_word(word))
        assert back.factors[0] == b
        assert back.factors[1] == inverse(b)

    def test_empty_file_rejected(self):
        with pytest.raises(ParseError, match="empty"):
            parse_word("# no blocks\n")

    def test_empty_word_not_serializable(self):
        with pytest.raises(NvError):
            serialize_word(Word(2, ()))

    def test_mixed_dimensions_rejected(self):
        text = serialize_element(identity(2)) + "--\n" + serialize_element(identity(3))
        with pytest.raises(ParseError, match="dimension"):
            parse_word(text)

    def test_comments_between_blocks(self):
        text = (
            "# factor one\n" + BAKER_TEXT + "--\n# factor two\n" + BAKER_TEXT
        )
        word = parse_word(text)
        assert len(word.factors) == 2


class TestTreePairs:
    def test_secondary_baker_tree(self):
        text = (
            "(S1 L0 (S0 L1 (S1 (S0 L2 L3) L4)))\n"
            "=>\n"
            "(S1 L0 (S0 L1 (S1 (S1 L2 L3) L4)))\n"
        )
        e = parse_tree_pair(text)
        assert e == make_baker(BakerSpec(brick("1/2^1,2/2^2"), 0, 1))

    def test_primary_baker_tree(self):
        e = parse_tree_pair("(S0 L0 L1) => (S1 L0 L1)")
        assert e == make_baker(BakerSpec(unit_brick(2), 0, 1))

    def test_permuted_leaves(self):
        # Range labels reversed: the left half lands on the top band.
        e = parse_tree_pair("(S0 L0 L1) => (S1 L1 L0)")
        left, right = unit_brick(2).split(0)
        bottom, top = unit_brick(2).split(1)
        assert e == Element.from_pairs([Pair(left, top), Pair(right, bottom)])
        assert not equals(e, make_baker(BakerSpec(unit_brick(2), 0, 1)))

    def test_dimension_inferred(self):
        assert parse_tree_pair("(S2 L0 L1) => (S2 L1 L0)").dimension == 3

    def test_dimension_widening(self):
        e = parse_tree_pair("(S0 L0 L1) => (S0 L1 L0)", dimension=3)
        assert e.dimension == 3

    def test_dimension_too_narrow(self):
        with pytest.raises(ParseError, match="axis 2"):
            parse_tree_pair("(S2 L0 L1) => (S2 L1 L0)", dimension=2)

    def test_splitless_tree_needs_dimension(self):
        with pytest.raises(ParseError, match="infer"):
            parse_tree_pair("L0 => L0")
        assert parse_tree_pair("L0 => L0", dimension=2) == identity(2)

    def test_leaf_labels_must_be_dfs_ordered(self):
        with pytest.raises(ParseError, match="depth-first"):
            parse_tree_pair("(S0 L1 L0) => (S0 L0 L1)")

    def test_range_labels_must_permute_domain(self):
        with pytest.raises(ParseError, match="permutation"):
            parse_tree_pair("(S0 L0 L1) => (S0 L0 L2)")

    def test_leaf_count_mismatch(self):
        with pytest.raises(ParseError, match="permutation"):
            parse_tree_pair("(S0 L0 L1) => (S0 L0 (S0 L1 L2))")

    def test_missing_close_paren(self):
        with pytest.raises(ParseError, match="syntax error"):
            parse_tree_pair("(S0 L0 L1 => (S0 L0 L1)")

    def test_trailing_tokens(self):
        with pytest.raises(ParseError, match="trailing"):
            parse_tree_pair("(S0 L0 L1) L9 => (S0 L0 L1)")

    def test_double_arrow_required(self):
        with pytest.raises(ParseError, match="=>"):
            parse_tree_pair("(S0 L0 L1)")
        with pytest.raises(ParseError, match="=>"):
            parse_tree_pair("L0 => L0 => L0")

    def test_comments_allowed(self):
        e = parse_tree_pair("# a swap\n(S0 L0 L1)  # domain\n=> (S0 L1 L0)\n")
        assert e == parse_tree_pair("(S0 L0 L1) => (S0 L1 L0)")

    def test_one_dimensional_inference(self):
        assert parse_tree_pair("(S0 L0 L1) => (S0 L1 L0)").dimension == 1

    @staticmethod
    def _chain(depth: int, dimension: int) -> str:
        """A tree splitting its lower half `depth` times, cycling the axes."""
        opens = "".join(f"(S{k % dimension} " for k in range(depth))
        return opens + "L0" + "".join(f" L{k})" for k in range(1, depth + 1))

    def test_nesting_past_the_recursion_limit_fails_closed(self):
        # 3,000 splits of one axis: too fine for a cell, never a RecursionError.
        with pytest.raises(NvError):
            parse_tree_pair(f"{self._chain(3000, 1)} => L0")

    def test_nesting_past_the_recursion_limit_reaches_the_label_check(self):
        depth = sys.getrecursionlimit() + 100
        with pytest.raises(ParseError, match="permutation"):
            parse_tree_pair(f"{self._chain(depth, 20)} => L0")


class TestPartitionFiles:
    def test_round_trip_preserves_file_order(self):
        text = "NV 2\n1/2^1,0/2^0\n0/2^1,1/2^1\n0/2^1,0/2^1\n"
        dimension, bricks = parse_partition(text)
        assert dimension == 2
        assert [str(b) for b in bricks] == [
            "1/2^1,0/2^0",
            "0/2^1,1/2^1",
            "0/2^1,0/2^1",
        ]

    def test_serialize(self):
        p = Partition(tuple(unit_brick(2).split(0)))
        assert serialize_partition(p) == "NV 2\n0/2^1,0/2^0\n1/2^1,0/2^0\n"

    def test_invalid_partition_rejected(self):
        with pytest.raises(ParseError, match="semantic error"):
            parse_partition("NV 2\n0/2^1,0/2^0\n0/2^1,0/2^0\n")

    def test_incomplete_partition_rejected(self):
        with pytest.raises(ParseError, match="semantic error"):
            parse_partition("NV 2\n0/2^1,0/2^0\n")


class TestLoadElement:
    def test_sniffs_pair_format(self):
        assert load_element(BAKER_TEXT) == parse_element(BAKER_TEXT)

    def test_sniffs_tree_format(self):
        e = load_element("(S0 L0 L1) => (S1 L0 L1)")
        assert e == make_baker(BakerSpec(unit_brick(2), 0, 1))

    def test_arrow_inside_comment_does_not_trigger_trees(self):
        text = "# not a tree: a => b\n" + BAKER_TEXT
        assert load_element(text) == parse_element(BAKER_TEXT)
