"""Text formats: elements, words, tree pairs, partitions.

Element files:

    # comment to end of line
    NV 2
    0/2^1,0/2^0 -> 0/2^0,0/2^1
    1/2^1,0/2^0 -> 0/2^0,1/2^1

The header gives the dimension; each following line is one pair, a brick
being a comma-separated list of cells ``numerator/2^exponent``, one per
axis. Serialization is canonical: pairs sorted by domain brick, LF endings.

Word files are element blocks separated by lines containing exactly ``--``;
the top block is the factor applied first.

Tree pairs are an alternative element syntax: two binary split trees over
the cube, ``(S<axis> <lower> <upper>)`` for a split and ``L<label>`` for a
leaf, joined by ``=>``. Domain leaf labels must read 0..k-1 in depth-first
lower-half-first order; range labels are a permutation saying where each
domain leaf goes.

Partition files are an NV header plus one brick per line; parsing preserves
file order so positional references stay meaningful.

Errors are reported as ParseError with 1-based line (and column where it
helps), message prefixed "syntax error" or "semantic error".
"""

from __future__ import annotations

import re

from .errors import ElementError, GeometryError, NvError, ParseError, PartitionError
from .geometry import MAX_EXPONENT, Brick, Cell, Partition, partition_validate, unit_brick
from .elements import Element, Pair, Word

_CELL_RE = re.compile(r"(\d+)/2\^(\d+)")
_HEADER_RE = re.compile(r"NV\s+(\d+)\s*$")

Line = tuple[int, str]


def _significant_lines(text: str) -> list[Line]:
    """(1-based line number, content) with comments and blanks dropped."""
    out = []
    for number, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((number, line))
    return out


def parse_dyadic(text: str):
    """A dyadic scalar: an integer like ``3`` or a cell-style ``3/2^4``."""
    from fractions import Fraction

    text = text.strip()
    m = re.fullmatch(r"(\d+)(?:/2\^(\d+))?", text)
    if not m:
        raise ParseError(f"syntax error: expected 'k' or 'k/2^e', got {text!r}")
    try:
        numerator, exponent = int(m.group(1)), int(m.group(2) or 0)
    except ValueError as exc:  # more digits than int() converts
        raise ParseError("semantic error: number has too many digits") from exc
    if exponent > MAX_EXPONENT:
        raise ParseError(
            f"semantic error: exponent {exponent} exceeds the limit {MAX_EXPONENT}"
        )
    return Fraction(numerator, 1 << exponent)


def _parse_cell(text: str, line: int, column: int) -> Cell:
    m = _CELL_RE.fullmatch(text.strip())
    if not m:
        raise ParseError(
            f"syntax error: expected cell 'numerator/2^exponent', got {text.strip()!r}",
            line,
            column,
        )
    try:
        return Cell(int(m.group(2)), int(m.group(1)))
    except GeometryError as exc:
        raise ParseError(f"semantic error: {exc}", line, column) from exc


def _parse_brick(
    text: str, line: int, dimension: int | None, base_column: int = 1
) -> Brick:
    parts = text.split(",")
    cells = []
    column = base_column
    for part in parts:
        cells.append(_parse_cell(part, line, column))
        column += len(part) + 1
    brick = Brick(tuple(cells))
    if dimension is not None and brick.dimension != dimension:
        raise ParseError(
            f"semantic error: brick has {brick.dimension} axes, header says {dimension}",
            line,
        )
    return brick


def parse_brick(text: str, dimension: int | None = None) -> Brick:
    """A standalone brick, e.g. ``0/2^1,0/2^0``."""
    return _parse_brick(text.strip(), 1, dimension)


def _parse_header(lines: list[Line]) -> int:
    if not lines:
        raise ParseError("syntax error: empty input, expected an NV header")
    number, content = lines[0]
    m = _HEADER_RE.fullmatch(content)
    if not m:
        raise ParseError(
            f"syntax error: expected header 'NV <dimension>', got {content!r}", number
        )
    dimension = int(m.group(1))
    if dimension < 1:
        raise ParseError(f"semantic error: dimension must be >= 1, got {dimension}", number)
    return dimension


def _parse_element_lines(lines: list[Line]) -> Element:
    dimension = _parse_header(lines)
    pairs = []
    for number, content in lines[1:]:
        sides = content.split("->")
        if len(sides) != 2:
            raise ParseError(
                "syntax error: expected one '->' between domain and range bricks",
                number,
            )
        domain = _parse_brick(sides[0], number, dimension)
        range_ = _parse_brick(sides[1], number, dimension, len(sides[0]) + 3)
        pairs.append(Pair(domain, range_))
    try:
        return Element.from_pairs(pairs)
    except (ElementError, PartitionError) as exc:
        raise ParseError(f"semantic error: {exc}") from exc


def parse_element(text: str) -> Element:
    return _parse_element_lines(_significant_lines(text))


def serialize_element(e: Element) -> str:
    lines = [f"NV {e.dimension}"]
    lines.extend(f"{p.domain} -> {p.range}" for p in e.pairs)
    return "\n".join(lines) + "\n"


def parse_word(text: str) -> Word:
    """A word file: element blocks separated by ``--`` lines, top block first."""
    blocks: list[list[Line]] = [[]]
    for line in _significant_lines(text):
        if line[1] == "--":
            blocks.append([])
        else:
            blocks[-1].append(line)
    blocks = [b for b in blocks if b]
    if not blocks:
        raise ParseError("syntax error: empty word file")
    factors = [_parse_element_lines(b) for b in blocks]
    dimension = factors[0].dimension
    for f in factors[1:]:
        if f.dimension != dimension:
            raise ParseError(
                f"semantic error: word mixes dimensions {dimension} and {f.dimension}"
            )
    return Word(dimension, tuple(factors))


def serialize_word(word: Word) -> str:
    if not word.factors:
        raise NvError("cannot serialize an empty word")
    return "--\n".join(serialize_element(f) for f in word.factors)


def parse_partition(text: str) -> tuple[int, list[Brick]]:
    """A partition file; returns (dimension, bricks in file order)."""
    lines = _significant_lines(text)
    dimension = _parse_header(lines)
    bricks = [_parse_brick(content, number, dimension) for number, content in lines[1:]]
    report = partition_validate(bricks)
    if not report:
        raise ParseError(f"semantic error: {'; '.join(report.problems)}")
    return dimension, bricks


def serialize_partition(p: Partition) -> str:
    lines = [f"NV {p.dimension}"]
    lines.extend(str(b) for b in p)
    return "\n".join(lines) + "\n"


_TOKEN_RE = re.compile(r"\(|\)|=>|S\d+|L\d+|\S+")


def _tokenize_tree(text: str) -> list[tuple[str, int, int]]:
    tokens = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        body = line.split("#", 1)[0]
        for m in _TOKEN_RE.finditer(body):
            tokens.append((m.group(0), lineno, m.start() + 1))
    return tokens


def _parse_tree(tokens: list[tuple[str, int, int]], pos: int):
    """One tree starting at tokens[pos], and the position after it.

    A tree is a leaf label (an int) or a split (axis, lower, upper). Open
    splits wait on an explicit stack, so nesting depth is not bounded by the
    interpreter's recursion limit.
    """
    stack: list[tuple[int, int, int, list]] = []  # axis, '(' line and column, children
    while True:
        if pos >= len(tokens):
            raise ParseError("syntax error: unexpected end of tree")
        tok, line, col = tokens[pos]
        if tok == "(":
            if pos + 1 >= len(tokens):
                raise ParseError("syntax error: unexpected end of tree", line, col)
            stok, sline, scol = tokens[pos + 1]
            if not (stok.startswith("S") and stok[1:].isdigit()):
                raise ParseError(
                    f"syntax error: expected split 'S<axis>' after '(', got {stok!r}",
                    sline,
                    scol,
                )
            stack.append((int(stok[1:]), line, col, []))
            pos += 2
            continue
        if not (tok.startswith("L") and tok[1:].isdigit()):
            raise ParseError(
                f"syntax error: expected a leaf 'L<n>' or '(', got {tok!r}", line, col
            )
        node, pos = int(tok[1:]), pos + 1
        # Hand the finished node to its parent, closing every split it completes.
        while stack:
            stack[-1][3].append(node)
            if len(stack[-1][3]) < 2:
                break
            axis, line, col, (lower, upper) = stack.pop()
            if pos >= len(tokens) or tokens[pos][0] != ")":
                where = tokens[pos][1:] if pos < len(tokens) else (line, col)
                raise ParseError("syntax error: expected ')' closing a split", *where)
            node, pos = (axis, lower, upper), pos + 1
        else:
            return node, pos


def _tree_leaves(tree, brick: Brick) -> list[tuple[int, Brick]]:
    """(label, brick) of every leaf in depth-first lower-half-first order."""
    out = []
    todo = [(tree, brick)]
    while todo:
        node, brick = todo.pop()
        if isinstance(node, int):
            out.append((node, brick))
        else:
            axis, lower, upper = node
            lo, hi = brick.split(axis)
            todo += ((upper, hi), (lower, lo))
    return out


def parse_tree_pair(text: str, dimension: int | None = None) -> Element:
    """An element written as two split trees joined by ``=>``.

    The dimension is inferred as the largest split axis plus one unless
    given explicitly (which may only widen it).
    """
    tokens = _tokenize_tree(text)
    split_at = [k for k, (tok, _, _) in enumerate(tokens) if tok == "=>"]
    if len(split_at) != 1:
        raise ParseError("syntax error: expected exactly one '=>' between two trees")
    dom_tokens, ran_tokens = tokens[: split_at[0]], tokens[split_at[0] + 1 :]

    dom_tree, used = _parse_tree(dom_tokens, 0)
    if used != len(dom_tokens):
        tok, line, col = dom_tokens[used]
        raise ParseError(f"syntax error: trailing {tok!r} after the domain tree", line, col)
    ran_tree, used = _parse_tree(ran_tokens, 0)
    if used != len(ran_tokens):
        tok, line, col = ran_tokens[used]
        raise ParseError(f"syntax error: trailing {tok!r} after the range tree", line, col)

    # Both trees used every token, so the S tokens are exactly the splits.
    axes = [int(tok[1:]) for tok, _, _ in tokens if tok[0] == "S"]
    inferred = max(axes, default=-1) + 1
    if dimension is None:
        if inferred == 0:
            raise ParseError(
                "semantic error: cannot infer the dimension of a tree with no splits"
            )
        dimension = inferred
    elif dimension < inferred:
        raise ParseError(
            f"semantic error: trees use axis {inferred - 1}, beyond dimension {dimension}"
        )

    cube = unit_brick(dimension)
    dom_leaves = _tree_leaves(dom_tree, cube)
    ran_leaves = _tree_leaves(ran_tree, cube)

    labels = [label for label, _ in dom_leaves]
    if labels != list(range(len(labels))):
        raise ParseError(
            "semantic error: domain leaves must be labeled 0..k-1 in depth-first order"
        )
    if sorted(label for label, _ in ran_leaves) != labels:
        raise ParseError(
            "semantic error: range leaf labels must be a permutation of the domain labels"
        )
    by_label = {label: brick for label, brick in ran_leaves}
    pairs = [Pair(brick, by_label[label]) for label, brick in dom_leaves]
    try:
        return Element.from_pairs(pairs)
    except (ElementError, PartitionError) as exc:
        raise ParseError(f"semantic error: {exc}") from exc


def load_element(text: str, dimension: int | None = None) -> Element:
    """Parse either element syntax, sniffing tree pairs by their ``=>``."""
    if any("=>" in content for _, content in _significant_lines(text)):
        return parse_tree_pair(text, dimension)
    return parse_element(text)
