import hashlib
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvbaker import (
    BakerSpec,
    Brick,
    Cell,
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
    partition_validate,
    random_element,
    RandomElementSpec,
    serialize_element,
    serialize_partition,
    serialize_word,
    unit_brick,
)

from nvbaker import elements, formats, geometry

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


LONG = "9" * 5000


@pytest.mark.parametrize(
    "parse, text, line, column",
    [
        (parse_element, f"NV {LONG}\n0/2^0 -> 0/2^0\n", 1, 4),
        (parse_element, f"NV 1\n0/2^0 -> {LONG}/2^3\n", 2, 9),
        (parse_element, f"NV 1\n0/2^{LONG} -> 0/2^0\n", 2, 1),
        (parse_word, f"NV 1\n0/2^0 -> 0/2^0\n--\nNV 1\n{LONG}/2^3 -> 0/2^0\n", 5, 1),
        (parse_partition, f"NV 2\n0/2^1,{LONG}/2^1\n", 2, 7),
        (parse_tree_pair, f"(S{LONG} L0 L1) => (S0 L1 L0)\n", 1, 2),
        (parse_tree_pair, f"(S0 L0 L1) =>\n(S0 L1 L{LONG})\n", 2, 8),
        # Indentation counts towards the column.
        (parse_element, f"  NV {LONG}\n0/2^0 -> 0/2^0\n", 1, 6),
        (parse_element, f"NV 1\n   0/2^0 -> {LONG}/2^3\n", 2, 12),
    ],
)
def test_oversized_numbers_fail_at_their_position(parse, text, line, column):
    with pytest.raises(ParseError, match="too many digits") as info:
        parse(text)
    assert (info.value.line, info.value.column) == (line, column)


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

    def test_axes_past_the_dimension_limit(self):
        text = ",".join(["0/2^0"] * 65)
        with pytest.raises(ParseError, match="dimension must be in 1..64, got 65") as info:
            parse_brick(text)
        assert (info.value.line, info.value.column) == (1, 1)
        # In a file, the brick fails on its own line.
        with pytest.raises(ParseError) as info:
            parse_element(f"NV 2\n0/2^0,0/2^0 -> 0/2^0,0/2^0\n{text} -> 0/2^0,0/2^0\n")
        assert info.value.line == 3


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


@st.composite
def split_trees(draw, leaves, dimension):
    """Text of a random split tree with `leaves` leaves, each written L{}."""
    if leaves == 1:
        return "L{}"
    lower = draw(st.integers(1, leaves - 1))
    axis = draw(st.integers(0, dimension - 1))
    halves = draw(split_trees(lower, dimension)), draw(split_trees(leaves - lower, dimension))
    return f"(S{axis} {halves[0]} {halves[1]})"


@settings(deadline=None)
@given(st.integers(1, 4), st.integers(1, 24), st.data())
def test_tree_pairs_partition_the_cube(dimension, leaves, data):
    # parse_tree_pair builds its element unchecked, trusting the trees.
    labels = data.draw(st.permutations(range(leaves)))
    domain = data.draw(split_trees(leaves, dimension)).format(*range(leaves))
    range_ = data.draw(split_trees(leaves, dimension)).format(*labels)
    e = parse_tree_pair(f"{domain} => {range_}", dimension)
    assert len(e) == leaves
    assert partition_validate([p.domain for p in e.pairs])
    assert partition_validate([p.range for p in e.pairs])
    text = serialize_element(e)
    assert parse_element(text) == e
    assert serialize_element(parse_element(text)) == text


def _leaf_cells(tree: str, dimension: int) -> list[tuple[int, tuple[Cell, ...]]]:
    """(label, cells) of each leaf of a `split_trees` text, found by halving `Cell`s."""
    tokens = tree.replace("(", " ( ").replace(")", " ) ").split()
    leaves = []

    def walk(pos: int, cells: tuple[Cell, ...]) -> int:
        if tokens[pos] != "(":
            leaves.append((int(tokens[pos][1:]), cells))
            return pos + 1
        axis = int(tokens[pos + 1][1:])
        c, pos = cells[axis], pos + 2
        for bit in (0, 1):
            half = Cell(c.exponent + 1, 2 * c.numerator + bit)
            pos = walk(pos, cells[:axis] + (half,) + cells[axis + 1 :])
        return pos + 1  # past the ')'

    walk(0, (Cell(0, 0),) * dimension)
    return leaves


@settings(deadline=None)
@given(st.integers(1, 4), st.integers(1, 24), st.data())
def test_tree_pair_labels_map_to_the_bricks_their_trees_name(dimension, leaves, data):
    labels = data.draw(st.permutations(range(leaves)))
    domain = data.draw(split_trees(leaves, dimension)).format(*range(leaves))
    range_ = data.draw(split_trees(leaves, dimension)).format(*labels)
    e = parse_tree_pair(f"{domain} => {range_}", dimension)
    image = dict(_leaf_cells(range_, dimension))
    expected = {(cells, image[label]) for label, cells in _leaf_cells(domain, dimension)}
    assert {(p.domain.cells, p.range.cells) for p in e.pairs} == expected
    assert len(e) == leaves


seeds = st.integers(0, 2**64 - 1)


@settings(deadline=None)
@given(st.integers(1, 4), st.integers(0, 6), seeds)
def test_random_elements_round_trip(dimension, depth, seed):
    e = random_element(RandomElementSpec(dimension, depth, seed))
    text = serialize_element(e)
    assert parse_element(text) == e
    assert serialize_element(parse_element(text)) == text


@settings(deadline=None)
@given(st.integers(1, 4), st.lists(st.tuples(st.integers(0, 4), seeds), min_size=1, max_size=4))
def test_random_words_round_trip(dimension, shapes):
    factors = tuple(random_element(RandomElementSpec(dimension, d, s)) for d, s in shapes)
    word = Word(dimension, factors)
    text = serialize_word(word)
    assert parse_word(text) == word
    assert serialize_word(parse_word(text)) == text


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

    def test_axis_past_the_dimension_limit_fails_at_its_split(self):
        with pytest.raises(ParseError, match="dimension 65") as info:
            parse_tree_pair("(S0 L0 L1) =>\n  (S0 L1 (S64 L0 L1))\n")
        assert (info.value.line, info.value.column) == (2, 11)

    def test_nesting_past_the_exponent_limit_fails_at_its_split(self):
        with pytest.raises(ParseError, match="exponent limit") as info:
            parse_tree_pair(f"{self._chain(65, 1)} => L0")
        # The S token of the 65th split of axis 0.
        assert (info.value.line, info.value.column) == (1, 2 + 4 * 64)
        # 64 splits are allowed through to the label check.
        with pytest.raises(ParseError, match="permutation"):
            parse_tree_pair(f"{self._chain(64, 1)} => L0")

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


# A word repeats its bricks and partitions: parsing, checking and printing
# are done once per distinct brick text, multiset of bricks and brick.
QUARTER_WORD_SHA256 = "80ab210dba57c9315b79eec1cb5aab70a45ce139258150588e60f98c5ebb4e6e"


@pytest.fixture(scope="module")
def quarter_word():
    return factor_baker(BakerSpec(unit_brick(2), 0, 1), Fraction(1, 4)).word


def count_calls(monkeypatch, name, *owners):
    """Wrap `name` in each owner (the modules binding it) and count its calls."""
    original, calls = getattr(owners[0], name), [0]

    def counted(*args):
        calls[0] += 1
        return original(*args)

    for owner in owners:
        monkeypatch.setattr(owner, name, counted)
    return calls


def test_parse_word_checks_each_distinct_partition_once(monkeypatch, quarter_word):
    text = serialize_word(quarter_word)
    validations = count_calls(monkeypatch, "partition_validate", geometry, elements, formats)
    cells = count_calls(monkeypatch, "_parse_cell", formats)
    assert parse_word(text) == quarter_word
    sides = {
        tuple(sorted(b.ints for b in bricks))
        for f in quarter_word.factors
        for bricks in ([p.domain for p in f.pairs], [p.range for p in f.pairs])
    }
    assert len(sides) == 239
    assert validations[0] <= len(sides)  # 1,022 with both sides of every factor checked
    assert cells[0] <= 772  # 17,912 parsing every side, 1,544 keyed by the raw text


def test_serialize_word_formats_each_distinct_brick_once(monkeypatch, quarter_word):
    texts = count_calls(monkeypatch, "__str__", Brick)
    text = serialize_word(quarter_word)
    assert texts[0] == 386  # 8,956 bricks in all
    assert hashlib.sha256(text.encode()).hexdigest() == QUARTER_WORD_SHA256


A, B, C = "0/2^1,0/2^0", "1/2^1,0/2^1", "1/2^1,1/2^1"
THREE_TEXT = f"NV 2\n{A} -> {A}\n{B} -> {C}\n{C} -> {B}\n"
TWO_BAKERS_TEXT = BAKER_TEXT + "--\n" + BAKER_TEXT
BAD_BAKER_TEXT = BAKER_TEXT.replace("0/2^0,1/2^1", "0/2^0,3/2^1")

# (type, message, line, column) of each broken file's error, as the parser
# gave them before it shared parses and checks between occurrences.
BROKEN_FILES = {
    "bad_cell_in_block_3": (
        parse_word,
        TWO_BAKERS_TEXT + f"--\nNV 2\n{A} -> 0/2^0,0/2^1\n1/2^1,0/2^0 -> 0/2^0,2/2^1\n",
        ("ParseError", "semantic error: cell numerator 2 out of range for exponent 1", 11, 22),
    ),
    "bad_domain_syntax_in_block_3": (
        parse_word,
        TWO_BAKERS_TEXT + f"--\nNV 2\n{A} -> 0/2^0,0/2^1\n1/2^1,0/2^0;x -> 0/2^0,1/2^1\n",
        (
            "ParseError",
            "syntax error: expected cell 'numerator/2^exponent', got '0/2^0;x'",
            11,
            7,
        ),
    ),
    "indented_bad_cell_after_seen_text": (
        parse_word,
        BAKER_TEXT + f"--\nNV 2\n   {A} ->  0/2^0,4/2^2\n1/2^1,0/2^0 -> 0/2^0,1/2^1\n",
        ("ParseError", "semantic error: cell numerator 4 out of range for exponent 2", 6, 26),
    ),
    "nv2_text_in_nv3_block": (
        parse_word,
        BAKER_TEXT + f"--\nNV 3\n{A} -> 0/2^0,0/2^1\n",
        ("ParseError", "semantic error: brick has 2 axes, header says 3", 6, None),
    ),
    "nv2_range_text_in_nv3_block": (
        parse_word,
        BAKER_TEXT + f"--\nNV 3\n{A},0/2^0 -> 0/2^0,0/2^1\n",
        ("ParseError", "semantic error: brick has 2 axes, header says 3", 6, None),
    ),
    "overlapping_range_after_domain_passed": (
        parse_word,
        BAKER_TEXT + f"--\nNV 2\n{A} -> 0/2^0,0/2^1\n1/2^1,0/2^0 -> 0/2^0,0/2^0\n",
        (
            "ParseError",
            "semantic error: range bricks do not partition the cube: bricks overlap: "
            "0/2^0,0/2^1 and 0/2^0,0/2^0; total measure is 3/2, expected 1",
            None,
            None,
        ),
    ),
    "overlapping_domain_after_range_passed": (
        parse_word,
        BAKER_TEXT + f"--\nNV 2\n0/2^0,0/2^0 -> 0/2^0,0/2^1\n{A} -> 0/2^0,1/2^1\n",
        (
            "ParseError",
            "semantic error: domain bricks do not partition the cube: bricks overlap: "
            "0/2^0,0/2^0 and 0/2^1,0/2^0; total measure is 3/2, expected 1",
            None,
            None,
        ),
    ),
    "repeated_domain_brick_after_partition_passed": (
        parse_word,
        THREE_TEXT + f"--\nNV 2\n{A} -> {A}\n{A} -> {A}\n{B} -> {B}\n{C} -> {C}\n",
        (
            "ParseError",
            "semantic error: domain bricks do not partition the cube: bricks overlap: "
            "0/2^1,0/2^0 and 0/2^1,0/2^0; total measure is 3/2, expected 1",
            None,
            None,
        ),
    ),
    "same_bad_cell_in_two_blocks": (
        parse_word,
        BAD_BAKER_TEXT + "--\n" + BAD_BAKER_TEXT,
        ("ParseError", "semantic error: cell numerator 3 out of range for exponent 1", 3, 22),
    ),
    "header_only_block": (
        parse_word,
        BAKER_TEXT + "--\nNV 2\n--\n" + BAKER_TEXT,
        ("ParseError", "semantic error: an element needs at least one pair", None, None),
    ),
    "mixed_dimensions_after_valid_blocks": (
        parse_word,
        BAKER_TEXT + "--\nNV 3\n0/2^0,0/2^0,0/2^0 -> 0/2^0,0/2^0,0/2^0\n",
        ("ParseError", "semantic error: word mixes dimensions 2 and 3", None, None),
    ),
    "element_repeated_text": (
        parse_element,
        f"NV 2\n{A} -> {A}\n{A} -> {A}\n{B} -> {B}\n{C} -> {C}\n",
        (
            "ParseError",
            "semantic error: domain bricks do not partition the cube: bricks overlap: "
            "0/2^1,0/2^0 and 0/2^1,0/2^0; total measure is 3/2, expected 1",
            None,
            None,
        ),
    ),
    "partition_repeated_line": (
        parse_partition,
        f"NV 2\n{A}\n{B}\n{A}\n{C}\n",
        (
            "ParseError",
            "semantic error: bricks overlap: 0/2^1,0/2^0 and 0/2^1,0/2^0; "
            "total measure is 3/2, expected 1",
            None,
            None,
        ),
    ),
    "partition_text_seen_under_wrong_header": (
        parse_partition,
        f"NV 3\n{A},0/2^0\n{A}\n",
        ("ParseError", "semantic error: brick has 2 axes, header says 3", 3, None),
    ),
}


@pytest.mark.parametrize(
    "parse, text, expected", BROKEN_FILES.values(), ids=BROKEN_FILES.keys()
)
def test_broken_files_fail_as_before(parse, text, expected):
    with pytest.raises(NvError) as info:
        parse(text)
    error = info.value
    assert (type(error).__name__, error.message, error.line, error.column) == expected


@pytest.mark.parametrize(
    "parse, text, line, column",
    [
        (parse_element, "NV 1\n0/2^65 -> 0/2^0\n", 2, 1),
        (parse_word, BAKER_TEXT + "--\nNV 2\n0/2^1,0/2^0 -> 0/2^0,0/2^65\n", 6, 22),
        (parse_partition, "NV 1\n1/2^99\n", 2, 1),
    ],
)
def test_exponent_past_the_limit_fails_at_its_position(parse, text, line, column):
    with pytest.raises(ParseError, match="exceeds the limit 64") as info:
        parse(text)
    assert (info.value.line, info.value.column) == (line, column)


# Parser fuzzing: valid texts of every syntax, mutated.
FACTORED_WORDS = [
    factor_baker(BakerSpec(brick(support), 0, 1)).word
    for support in ("0/2^0,0/2^0", "1/2^1,2/2^2")
]


@st.composite
def words(draw):
    if draw(st.booleans()):
        return draw(st.sampled_from(FACTORED_WORDS))
    dimension = draw(st.integers(1, 3))
    shapes = draw(st.lists(st.tuples(st.integers(0, 4), seeds), min_size=1, max_size=4))
    factors = tuple(random_element(RandomElementSpec(dimension, d, s)) for d, s in shapes)
    return Word(dimension, factors)


@st.composite
def valid_texts(draw):
    kind = draw(st.sampled_from(("element", "word", "tree")))
    if kind == "word":
        return serialize_word(draw(words()))
    dimension = draw(st.integers(1, 3))
    if kind == "element":
        spec = RandomElementSpec(dimension, draw(st.integers(0, 4)), draw(seeds))
        return serialize_element(random_element(spec))
    leaves = draw(st.integers(1, 12))
    labels = draw(st.permutations(range(leaves)))
    domain = draw(split_trees(leaves, dimension)).format(*range(leaves))
    return f"{domain} =>\n{draw(split_trees(leaves, dimension)).format(*labels)}\n"


FUZZ_CHARACTERS = "0123456789/^,-> \n#NVSL()=x"


@st.composite
def mutated_texts(draw):
    """A valid text with characters or lines deleted, duplicated or replaced,
    or two ``--`` blocks swapped."""
    text = draw(valid_texts())
    for _ in range(draw(st.integers(1, 4))):
        unit = draw(st.sampled_from(("character", "line", "block")))
        separator = {"character": "", "line": "\n", "block": "--\n"}[unit]
        pieces = list(text) if unit == "character" else text.split(separator)
        if not pieces:
            continue
        i, j = (draw(st.integers(0, len(pieces) - 1)) for _ in range(2))
        edit = draw(st.sampled_from(("delete", "duplicate", "replace")))
        if unit == "block":
            pieces[i], pieces[j] = pieces[j], pieces[i]
        elif edit == "delete":
            del pieces[i]
        elif edit == "duplicate":
            pieces.insert(i, pieces[i])
        elif unit == "character":
            pieces[i] = draw(st.sampled_from(FUZZ_CHARACTERS))
        else:
            pieces[i] = pieces[j]
        text = separator.join(pieces)
    return text


@settings(deadline=None, max_examples=200)
@given(mutated_texts())
def test_parsers_raise_only_parse_errors(text):
    for parse in (parse_element, parse_word, parse_tree_pair, load_element):
        try:
            parse(text)
        except ParseError:
            pass


@settings(deadline=None, max_examples=50)
@given(words())
def test_words_round_trip_factor_by_factor(word):
    back = parse_word(serialize_word(word))
    assert back.dimension == word.dimension
    assert len(back.factors) == len(word.factors)
    for got, want in zip(back.factors, word.factors):
        assert got == want
