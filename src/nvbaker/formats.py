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
from fractions import Fraction

from .errors import ElementError, GeometryError, NvError, ParseError
from .geometry import (
    MAX_DIMENSION,
    MAX_EXPONENT,
    Brick,
    Cell,
    Partition,
    partition_validate,
    unit_brick,
)
from .elements import Element, Pair, Word, _from_pairs

_CELL_RE = re.compile(r"(\d+)/2\^(\d+)")
_HEADER_RE = re.compile(r"NV\s+(\d+)\s*$")

Line = tuple[int, str, int]


def _significant_lines(text: str) -> list[Line]:
    """(1-based line number, stripped content, indentation width), with
    comments and blank lines dropped."""
    out = []
    for number, raw in enumerate(text.split("\n"), start=1):
        body = raw.split("#", 1)[0]
        line = body.strip()
        if line:
            out.append((number, line, len(body) - len(body.lstrip())))
    return out


def _int(digits: str, line: int | None = None, column: int | None = None) -> int:
    """The value of a run of digits, refusing more than int() converts."""
    try:
        return int(digits)
    except ValueError as exc:
        message = "semantic error: number has too many digits"
        raise ParseError(message, line, column) from exc


def parse_dyadic(text: str) -> Fraction:
    """A dyadic scalar: an integer like ``3`` or a cell-style ``3/2^4``."""
    text = text.strip()
    m = re.fullmatch(r"(\d+)(?:/2\^(\d+))?", text)
    if not m:
        raise ParseError(f"syntax error: expected 'k' or 'k/2^e', got {text!r}")
    numerator, exponent = _int(m.group(1)), _int(m.group(2) or "0")
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
    exponent, numerator = _int(m.group(2), line, column), _int(m.group(1), line, column)
    try:
        return Cell(exponent, numerator)
    except NvError as exc:  # the cell's exponent or numerator is out of range
        raise ParseError(f"semantic error: {exc}", line, column) from exc


def _parse_brick(
    text: str, line: int, dimension: int | None, base_column: int, seen: dict[str, Brick]
) -> Brick:
    """A side's brick, its text parsed once per `seen`; the header is checked every time.

    `seen` is keyed by the stripped text, so a brick's domain text ``"X "``
    and range text ``" X"`` share one parse; a miss parses the raw text, so
    an error's column counts from the side's first character.
    """
    key = text.strip()
    brick = seen.get(key)
    if brick is None:
        cells = []
        column = base_column
        for part in text.split(","):
            cells.append(_parse_cell(part, line, column))
            column += len(part) + 1
        try:
            brick = seen[key] = Brick(tuple(cells))
        except GeometryError as exc:  # too many axes
            raise ParseError(f"semantic error: {exc}", line, base_column) from exc
    if dimension is not None and brick.dimension != dimension:
        raise ParseError(
            f"semantic error: brick has {brick.dimension} axes, header says {dimension}",
            line,
        )
    return brick


def parse_brick(text: str, dimension: int | None = None) -> Brick:
    """A standalone brick, e.g. ``0/2^1,0/2^0``."""
    return _parse_brick(text.strip(), 1, dimension, 1, {})


def _parse_header(lines: list[Line]) -> int:
    if not lines:
        raise ParseError("syntax error: empty input, expected an NV header")
    number, content, indent = lines[0]
    m = _HEADER_RE.fullmatch(content)
    if not m:
        raise ParseError(
            f"syntax error: expected header 'NV <dimension>', got {content!r}", number
        )
    dimension = _int(m.group(1), number, indent + m.start(1) + 1)
    if not 1 <= dimension <= MAX_DIMENSION:
        raise ParseError(
            f"semantic error: dimension must be in 1..{MAX_DIMENSION}, got {dimension}", number
        )
    return dimension


def _parse_element_lines(lines: list[Line], seen: dict[str, Brick], passed: set) -> Element:
    """One element block, its sides checked by `elements._from_pairs` against `passed`."""
    dimension = _parse_header(lines)
    pairs = []
    for number, content, indent in lines[1:]:
        sides = content.split("->")
        if len(sides) != 2:
            raise ParseError(
                "syntax error: expected one '->' between domain and range bricks",
                number,
            )
        domain = _parse_brick(sides[0], number, dimension, indent + 1, seen)
        range_ = _parse_brick(sides[1], number, dimension, indent + len(sides[0]) + 3, seen)
        pairs.append(Pair._of(domain, range_))
    try:
        return _from_pairs(pairs, passed)
    except ElementError as exc:
        raise ParseError(f"semantic error: {exc}") from exc


def parse_element(text: str) -> Element:
    return _parse_element_lines(_significant_lines(text), {}, set())


def _element_text(e: Element, texts: dict[tuple[int, ...], str]) -> str:
    """`serialize_element`, building each brick's text once per `texts`."""
    def text(b: Brick) -> str:
        return texts.get(b.ints) or texts.setdefault(b.ints, str(b))

    lines = [f"NV {e.dimension}"]
    lines.extend(f"{text(p.domain)} -> {text(p.range)}" for p in e.pairs)
    return "\n".join(lines) + "\n"


def serialize_element(e: Element) -> str:
    return _element_text(e, {})


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
    seen, passed = {}, set()  # shared by the blocks: see _parse_element_lines
    factors = [_parse_element_lines(b, seen, passed) for b in blocks]
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
    texts: dict[tuple[int, ...], str] = {}
    return "--\n".join(_element_text(f, texts) for f in word.factors)


def parse_partition(text: str) -> tuple[int, list[Brick]]:
    """A partition file; returns (dimension, bricks in file order)."""
    lines = _significant_lines(text)
    dimension = _parse_header(lines)
    seen: dict[str, Brick] = {}
    bricks = [
        _parse_brick(content, number, dimension, indent + 1, seen)
        for number, content, indent in lines[1:]
    ]
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
    """One tree starting at tokens[pos] as its leaves, and the position after it.

    Each leaf is (label, region) in depth-first lower-half-first order, its
    region mapping every axis the tree splits above it to the leaf's cell
    int there. Open splits wait on an explicit stack, each with its upper
    half's region, so nesting depth is not bounded by the interpreter's
    recursion limit. An axis past `MAX_DIMENSION`, or a split whose halves
    would pass `MAX_EXPONENT`, fails at the split's S token.
    """
    leaves: list[tuple[int, dict[int, int]]] = []
    stack: list[list] = []  # '(' line and column, and the upper half's region or None
    region: dict[int, int] = {}
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
            axis = _int(stok[1:], sline, scol)
            if axis >= MAX_DIMENSION:
                raise ParseError(
                    f"semantic error: split axis {axis} needs dimension {axis + 1}, "
                    f"above the limit {MAX_DIMENSION}",
                    sline,
                    scol,
                )
            cell = region.get(axis, 1)
            if cell.bit_length() > MAX_EXPONENT:  # its halves' exponent, one past its own
                raise ParseError(
                    f"semantic error: splits of axis {axis} nest past the exponent "
                    f"limit {MAX_EXPONENT}",
                    sline,
                    scol,
                )
            stack.append([line, col, {**region, axis: cell << 1 | 1}])
            region = {**region, axis: cell << 1}
            pos += 2
            continue
        if not (tok.startswith("L") and tok[1:].isdigit()):
            raise ParseError(
                f"syntax error: expected a leaf 'L<n>' or '(', got {tok!r}", line, col
            )
        leaves.append((_int(tok[1:], line, col), region))
        pos += 1
        # Close every split whose upper half the leaf ends, then begin the next upper half.
        while stack and stack[-1][2] is None:
            line, col, _ = stack.pop()
            if pos >= len(tokens) or tokens[pos][0] != ")":
                where = tokens[pos][1:] if pos < len(tokens) else (line, col)
                raise ParseError("syntax error: expected ')' closing a split", *where)
            pos += 1
        if not stack:
            return leaves, pos
        region = stack[-1][2]
        stack[-1][2] = None  # the upper half is begun


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

    dom_leaves, used = _parse_tree(dom_tokens, 0)
    if used != len(dom_tokens):
        tok, line, col = dom_tokens[used]
        raise ParseError(f"syntax error: trailing {tok!r} after the domain tree", line, col)
    ran_leaves, used = _parse_tree(ran_tokens, 0)
    if used != len(ran_tokens):
        tok, line, col = ran_tokens[used]
        raise ParseError(f"syntax error: trailing {tok!r} after the range tree", line, col)

    # Every split has a leaf below it, so the leaves' regions name every split axis.
    inferred = max((axis + 1 for _, r in dom_leaves + ran_leaves for axis in r), default=0)
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

    cube = unit_brick(dimension).ints

    def brick(region: dict[int, int]) -> Brick:
        return Brick._of(tuple(region.get(axis, c) for axis, c in enumerate(cube)))

    labels = [label for label, _ in dom_leaves]
    if labels != list(range(len(labels))):
        raise ParseError(
            "semantic error: domain leaves must be labeled 0..k-1 in depth-first order"
        )
    if sorted(label for label, _ in ran_leaves) != labels:
        raise ParseError(
            "semantic error: range leaf labels must be a permutation of the domain labels"
        )
    by_label = dict(ran_leaves)
    # Both trees split one unit brick: their leaves partition the cube, unchecked.
    return Element(
        dimension, tuple(Pair._of(brick(r), brick(by_label[label])) for label, r in dom_leaves)
    )


def load_element(text: str) -> Element:
    """Parse either element syntax, sniffing tree pairs by their ``=>``."""
    if any("=>" in content for _, content, _ in _significant_lines(text)):
        return parse_tree_pair(text)
    return parse_element(text)
