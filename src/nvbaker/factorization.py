"""Rewriting baker's maps as words of proper transpositions.

The pipeline:

  split_baker          one baker's map -> two half-support baker's maps
                       plus a correcting transposition (the support halved
                       along the split axis or along the merge axis)
  shrink               one recursive walk of splits (`_split_tree`: lower
                       half, upper half, then the transposition) until every
                       support's diameter is below a requested bound
  cancel_disjoint_pair three transpositions multiplying to
                       baker(a) . baker(b)^-1 for disjoint same-axes supports
  factor_small_baker   one baker's map with small support -> seven proper
                       transpositions, via a doubled support and a cancel
                       in each direction
  factor_baker         full pipeline with verification: split until small,
                       expand each piece, check the product equals the input
                       (`verify_word`: one pass that applies each factor only
                       where it moves points, not a fold of the whole word)

Every stage builds its transpositions on cell ints (`Brick.ints`) through
`_transpositions`. Each ambient is the tiles of the complement of some
holes plus the holes, whole or halved; the tiles are checked once with
their holes, which covers every ambient built from them. Within a small
baker each distinct brick is one `Brick`, whose sort key is computed once,
and each ambient is sorted once for all its swaps. The public
`make_transposition` still validates its ambient in full.

The split tree is complete: whether a baker is too big, and along which
axis it halves, depend only on its support's depths, and both halves have
the same depths. So every baker at one depth splits or none does, a tree
of depth D has 2^D small bakers and a word of 2^(D+3) - 1 factors, and
`MAX_SPLIT_DEPTH` bounds the work before it grows.

Throughout, words multiply left to right: the first factor applies first.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Literal

from .errors import FactorizationError
from .geometry import (
    MAX_EXPONENT,
    Brick,
    _Record,
    _halves,
    _tile_cells,
    _with,
    bricks_disjoint,
)
from .elements import (
    Element,
    Word,
    equals,  # noqa: F401 (a binding perfbench/test_tracer.py checks)
    product_equals,
)
from .generators import BakerSpec, _check_ambient, _swaps, make_baker

SplitKind = Literal["domain", "range"]
Cells = tuple[int, ...]

# The deepest split tree `_split_tree` builds. A complete tree of depth D
# gives 2^(D+3) - 1 factors, so a word has at most 131,071; the CLI's
# `factor-baker` of that size took 33-37 s and peaked at 801 MB on a 2-vCPU
# machine, and each level of the tree doubles both.
MAX_SPLIT_DEPTH = 14


def split_baker(
    spec: BakerSpec, along: SplitKind = "domain"
) -> tuple[Element, BakerSpec, BakerSpec]:
    """Split one baker's map into two on half supports plus a transposition.

    With support S, split axis i and merge axis j, halve S into lower and
    upper along i (``along="domain"``) or along j (``along="range"``); the
    sub-maps are the baker's maps on those halves with the same axes. Cut
    each half in two along j, giving quarters q0, q1, q2, q3 in that order;
    the correcting transposition t swaps q1 with q2 and fixes the rest, and

        baker(S) = baker(lower) . baker(upper) . t

    with factors applied left to right. For "domain" q1 and q2 are the two
    off-diagonal (i, j)-quarters of S; for "range" they are its middle two
    j-quarter slabs.
    """
    i, j = spec.split_axis, spec.merge_axis
    if along not in ("domain", "range"):
        raise FactorizationError(f"unknown split kind: {along!r}")
    axis = i if along == "domain" else j
    t, lo, hi = _split(spec.dimension, spec.support.ints, axis, j, _Bricks())
    return t, BakerSpec(Brick._of(lo), i, j), BakerSpec(Brick._of(hi), i, j)


def _split(
    dimension: int, support: Cells, axis: int, j: int, bricks: _Bricks
) -> tuple[Element, Cells, Cells]:
    """`split_baker` on cell ints, halving along `axis`: t, lower and upper."""
    lo, hi = _halves(support, axis)
    quarters = (*_halves(lo, j), *_halves(hi, j))
    (t,) = _transpositions(
        dimension, (support,), [(quarters, [(quarters[1], quarters[2])])], bricks
    )
    return t, lo, hi


def _transpositions(
    dimension: int, holes: tuple[Cells, ...], ambients: list, bricks: _Bricks
) -> list[Element]:
    """The swaps (x, y) of each ambient (pieces, swaps): the pieces plus the
    tiles of the cube minus the holes, checked once with the holes."""
    tiles = _tile_cells((1,) * dimension, list(holes))
    _check_ambient([*holes, *tiles])
    out: list[Element] = []
    for pieces, swaps in ambients:
        ambient = sorted([bricks[c] for c in (*pieces, *tiles)], key=Brick.sort_key)
        out += _swaps(dimension, ambient, swaps)
    return out


class _Bricks(dict):
    """One `Brick` per distinct cell ints, made on first use; shared by the
    ambients of one small baker, so each brick's sort key is computed once."""

    def __missing__(self, c: Cells) -> Brick:
        b = self[c] = Brick._of(c)
        return b


class ShrinkResult(_Record):
    """A baker's map rewritten as small baker's maps and transpositions.

    ``sequence`` holds the factors in application order (first factor
    first); erasing the transpositions leaves the small baker's maps in the
    order their composite acts.
    """

    __slots__ = ("input", "epsilon", "sequence")

    def __init__(
        self, input: BakerSpec, epsilon: Fraction | None, sequence: tuple[BakerSpec | Element, ...]
    ) -> None:
        self._set(input, epsilon, sequence)

    @property
    def small_bakers(self) -> tuple[BakerSpec, ...]:
        return tuple(x for x in self.sequence if isinstance(x, BakerSpec))

    @property
    def transpositions(self) -> tuple[Element, ...]:
        return tuple(x for x in self.sequence if isinstance(x, Element))


def shrink(spec: BakerSpec, epsilon: Fraction) -> ShrinkResult:
    """Split until every baker's support has diameter strictly below epsilon."""
    epsilon = Fraction(epsilon)
    _check_reachable(spec, epsilon)
    sequence, _levels = _split_tree(spec, lambda b: b.support.diameter >= epsilon)
    return ShrinkResult(spec, epsilon, tuple(sequence))


def _check_reachable(spec: BakerSpec, epsilon: Fraction) -> None:
    """Fail fast on diameter targets that splitting can never meet.

    Splitting shrinks only the split and merge axes, so every other axis
    must already be below the target; and no side can drop below the cell
    exponent limit.
    """
    if epsilon <= 0:
        raise FactorizationError(f"epsilon must be positive, got {epsilon}")
    if epsilon <= Fraction(1, 1 << MAX_EXPONENT):
        raise FactorizationError(
            f"epsilon too small: sides cannot drop below 2^-{MAX_EXPONENT}"
        )
    i, j = spec.split_axis, spec.merge_axis
    for axis, c in enumerate(spec.support.ints):
        side = Fraction(1, 1 << (c.bit_length() - 1))
        if axis not in (i, j) and side >= epsilon:
            raise FactorizationError(
                f"epsilon too small: axis {axis} has side {side}, which "
                f"splitting never shrinks (only axes {i} and {j} are split)"
            )


def _split_tree(
    spec: BakerSpec, too_big: Callable[[BakerSpec], bool]
) -> tuple[list[BakerSpec | Element], list[list[BakerSpec]]]:
    """Split each oversized baker, lower half first, until none remains.

    Returns the sequence, with each split baker replaced by (lower, upper,
    t), and the bakers at each depth. Every baker at a depth splits or none
    does (see the module docstring), so the last depth is the small bakers.
    """
    sequence: list[BakerSpec | Element] = []
    levels: dict[int, list[BakerSpec]] = {}  # first visits come in depth order

    def walk(b: BakerSpec, depth: int) -> None:
        levels.setdefault(depth, []).append(b)
        if not too_big(b):
            sequence.append(b)
            return
        if depth == MAX_SPLIT_DEPTH:
            raise FactorizationError(
                f"support {b.support} needs splitting past depth "
                f"{MAX_SPLIT_DEPTH}: the word would exceed the limit of "
                f"2^{MAX_SPLIT_DEPTH + 3} - 1 = {(1 << MAX_SPLIT_DEPTH + 3) - 1:,} factors"
            )
        t, lower, upper = split_baker(b, _wider_axis_kind(b))
        walk(lower, depth + 1)
        walk(upper, depth + 1)
        sequence.append(t)

    walk(spec, 0)
    return sequence, list(levels.values())


def _wider_axis_kind(spec: BakerSpec) -> SplitKind:
    """Halve whichever in-plane side is longer; ties go to the split axis."""
    depth_i = spec.support.ints[spec.split_axis].bit_length()  # the finer, the shorter
    depth_j = spec.support.ints[spec.merge_axis].bit_length()
    return "domain" if depth_i <= depth_j else "range"


def cancel_disjoint_pair(a: BakerSpec, b: BakerSpec) -> Word:
    """Three transpositions multiplying to baker(a) . baker(b)^-1.

    Requires disjoint supports and identical split and merge axes. With
    A = a.support halved along the split axis into A0, A1 and
    B = b.support halved along the merge axis into B0, B1, the word is

        swap(A0, B0) . swap(A1, B1) . swap(A, B)

    applied left to right: on A the three swaps chain A0 -> B0 -> A's lower
    merge half and A1 -> B1 -> A's upper merge half, which is baker(a); on B
    they chain the merge halves back to split halves, which is the inverse
    of baker(b); everything else is fixed.

    The first two factors are proper whenever anything lies outside the two
    swapped bricks, which always holds; the last is proper unless A and B
    are complementary halves of the cube.
    """
    if a.split_axis != b.split_axis or a.merge_axis != b.merge_axis:
        raise FactorizationError("cancel requires matching split and merge axes")
    if a.support.dimension != b.support.dimension:
        raise FactorizationError("cancel requires supports of equal dimension")
    i, j, dim = a.split_axis, a.merge_axis, a.support.dimension
    return Word(dim, _cancel(dim, a.support.ints, b.support.ints, i, j, _Bricks()))


def _cancel(
    dimension: int, a: Cells, b: Cells, i: int, j: int, bricks: _Bricks
) -> list[Element]:
    """`cancel_disjoint_pair` on the cell ints of the supports."""
    if not bricks_disjoint(bricks[a], bricks[b]):
        raise FactorizationError(
            f"cancel requires disjoint supports, got {bricks[a]} and {bricks[b]}"
        )
    a0, a1 = _halves(a, i)
    b0, b1 = _halves(b, j)
    fine = ((a0, a1, b0, b1), [(a0, b0), (a1, b1)])
    return _transpositions(dimension, (a, b), [fine, ((a, b), [(a, b)])], bricks)


def factor_small_baker(spec: BakerSpec) -> Word:
    """Seven proper transpositions multiplying to the given baker's map.

    Requires both in-plane sides of the support to be at most half the
    cube's side. The support R doubles along the split axis into A (never
    the whole cube, since the merge-axis side stays short); S is the
    sibling of R inside A; B is a brick disjoint from A in the same plane.
    Then, applied left to right,

        baker(R) = cancel(A, B) . t . cancel(B, S)

    where t is the correcting transposition of splitting baker(A): the
    first cancel leaves baker(A) times an inverse baker parked on B, the
    middle transposition turns baker(A) into baker(R) . baker(S), and the
    second cancel flushes the parked factor against baker(S).
    """
    i, j = spec.split_axis, spec.merge_axis
    r = spec.support.ints
    if r[i] == 1 or r[j] == 1:  # cell int 1 is the whole side
        raise FactorizationError(
            f"support {spec.support} is too large: both in-plane sides must be at most 1/2"
        )
    a = _with(r, i, r[i] >> 1)
    s = _with(r, i, r[i] ^ 1)
    b = _disjoint_partner(a, j)
    bricks = _Bricks()
    t, _lower, _upper = _split(spec.dimension, a, i, j, bricks)
    first = _cancel(spec.dimension, a, b, i, j, bricks)
    last = _cancel(spec.dimension, b, s, i, j, bricks)
    return Word(spec.dimension, (*first, t, *last))


def _disjoint_partner(a: Cells, j: int) -> Cells:
    """Cell ints of a brick disjoint from a to park a baker's map on.

    The sibling along the merge axis, unless together they fill the cube;
    then its lower half along the merge axis, so that swapping the pair
    always fixes something and every emitted transposition stays proper.
    """
    sibling = _with(a, j, a[j] ^ 1)
    if max(_with(a, j, a[j] >> 1)) == 1:  # a and its sibling fill the cube
        return _halves(sibling, j)[0]
    return sibling


class FactorizationReport(_Record):
    """Everything factor_baker did: the word, the stages, and the check."""

    __slots__ = (
        "input", "epsilon", "word", "levels", "small_bakers", "split_transpositions", "verified"
    )

    def __init__(
        self,
        input: BakerSpec,
        epsilon: Fraction | None,
        word: Word,
        levels: tuple[tuple[BakerSpec, ...], ...],
        small_bakers: tuple[BakerSpec, ...],
        split_transpositions: tuple[Element, ...],
        verified: bool,
    ) -> None:
        self._set(input, epsilon, word, levels, small_bakers, split_transpositions, verified)


def factor_baker(
    spec: BakerSpec, epsilon: Fraction | None = None
) -> FactorizationReport:
    """Rewrite a baker's map as a verified word of proper transpositions.

    Splits the map until every support has in-plane sides at most 1/2
    (additionally: diameter below ``epsilon`` when one is given), expands
    each small piece into seven transpositions, and verifies that the
    word's product equals the input map exactly.
    """
    if epsilon is not None:
        epsilon = Fraction(epsilon)
        _check_reachable(spec, epsilon)

    def too_big(b: BakerSpec) -> bool:
        if b.support.ints[b.split_axis] == 1 or b.support.ints[b.merge_axis] == 1:
            return True
        return epsilon is not None and b.support.diameter >= epsilon

    sequence, levels = _split_tree(spec, too_big)
    factors: list[Element] = []
    for item in sequence:
        if isinstance(item, BakerSpec):
            factors.extend(factor_small_baker(item).factors)
        else:
            factors.append(item)
    word = Word(spec.dimension, tuple(factors))
    return FactorizationReport(
        input=spec,
        epsilon=epsilon,
        word=word,
        levels=tuple(map(tuple, levels)),
        small_bakers=tuple(levels[-1]),
        split_transpositions=tuple(x for x in sequence if isinstance(x, Element)),
        verified=verify_word(word, spec),
    )


def verify_word(word: Word, spec: BakerSpec) -> bool:
    """Check that a word's product is exactly the given baker's map.

    Runs `product_equals`, one pass that applies each factor only to the
    pieces its moved bricks meet, rather than folding the whole word.
    """
    return product_equals(word, make_baker(spec))
