"""Rewriting baker's maps as words of proper transpositions.

The pipeline:

  split_baker          one baker's map -> two half-support baker's maps
                       plus a correcting transposition (the support halved
                       along the split axis or along the merge axis)
  shrink               iterate splits until every support's diameter is
                       below a requested bound
  cancel_disjoint_pair three transpositions multiplying to
                       baker(a) . baker(b)^-1 for disjoint same-axes supports
  factor_small_baker   one baker's map with small support -> seven proper
                       transpositions, via a doubled support and a cancel
                       in each direction
  factor_baker         full pipeline with verification: split until small,
                       expand each piece, check the product equals the input

Throughout, words multiply left to right: the first factor applies first.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Literal

from .errors import FactorizationError
from .geometry import MAX_EXPONENT, Brick, Partition, bricks_disjoint, tile_complement
from .elements import Element, Word, equals
from .generators import (
    BakerSpec,
    TranspositionSpec,
    make_baker,
    make_transposition,
)

SplitKind = Literal["domain", "range"]


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
    lo, hi = spec.support.split(i if along == "domain" else j)
    pattern = (*lo.split(j), *hi.split(j))
    outside = tile_complement(spec.dimension, [spec.support])
    t = _swap((*pattern, *outside), pattern[1], pattern[2])
    return t, BakerSpec(lo, i, j), BakerSpec(hi, i, j)


def _swap(bricks: tuple[Brick, ...], a: Brick, b: Brick) -> Element:
    """The transposition of a and b inside the ambient partition `bricks`."""
    return make_transposition(TranspositionSpec(Partition(bricks), a, b))


@dataclass(frozen=True)
class ShrinkResult:
    """A baker's map rewritten as small baker's maps and transpositions.

    ``sequence`` holds the factors in application order (first factor
    first); erasing the transpositions leaves the small baker's maps in the
    order their composite acts.
    """

    input: BakerSpec
    epsilon: Fraction | None
    sequence: tuple[BakerSpec | Element, ...]

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
    sequence, _levels = _split_rounds(
        spec, lambda b: b.support.diameter >= epsilon
    )
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
    for axis, cell in enumerate(spec.support.cells):
        if axis in (i, j):
            continue
        if cell.length >= epsilon:
            raise FactorizationError(
                f"epsilon too small: axis {axis} has side {cell.length}, which "
                f"splitting never shrinks (only axes {i} and {j} are split)"
            )


def _split_rounds(
    spec: BakerSpec, too_big: Callable[[BakerSpec], bool]
) -> tuple[list[BakerSpec | Element], list[tuple[BakerSpec, ...]]]:
    """Split every oversized baker once per round until none remain.

    Each split replaces the baker in place with (lower, upper, transposition),
    preserving the product. Returns the final sequence and the per-round
    supports, including the input as round zero.
    """
    sequence: list[BakerSpec | Element] = [spec]
    levels: list[tuple[BakerSpec, ...]] = [(spec,)]
    while True:
        big = [
            k
            for k, x in enumerate(sequence)
            if isinstance(x, BakerSpec) and too_big(x)
        ]
        if not big:
            return sequence, levels
        for k in reversed(big):
            item = sequence[k]
            assert isinstance(item, BakerSpec)
            t, lower, upper = split_baker(item, _wider_axis_kind(item))
            sequence[k : k + 1] = [lower, upper, t]
        levels.append(tuple(x for x in sequence if isinstance(x, BakerSpec)))


def _wider_axis_kind(spec: BakerSpec) -> SplitKind:
    """Halve whichever in-plane side is longer; ties go to the split axis."""
    side_i = spec.support.cells[spec.split_axis].length
    side_j = spec.support.cells[spec.merge_axis].length
    return "domain" if side_i >= side_j else "range"


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
    if not bricks_disjoint(a.support, b.support):
        raise FactorizationError(
            f"cancel requires disjoint supports, got {a.support} and {b.support}"
        )
    i, j = a.split_axis, a.merge_axis
    a0, a1 = a.support.split(i)
    b0, b1 = b.support.split(j)
    outside = tile_complement(a.support.dimension, [a.support, b.support])
    fine = (a0, a1, b0, b1, *outside)
    swaps = (_swap(fine, a0, b0), _swap(fine, a1, b1))
    last = _swap((a.support, b.support, *outside), a.support, b.support)
    return Word(a.support.dimension, (*swaps, last))


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
    r = spec.support
    if r.cells[i].exponent < 1 or r.cells[j].exponent < 1:
        raise FactorizationError(
            f"support {r} is too large: both in-plane sides must be at most 1/2"
        )
    a = BakerSpec(r.double(i), i, j)
    s = BakerSpec(r.sibling(i), i, j)
    b = BakerSpec(_disjoint_partner(a.support, j), i, j)

    t, _lower, _upper = split_baker(a, "domain")
    first = cancel_disjoint_pair(a, b)
    last = cancel_disjoint_pair(b, s)
    return Word(spec.dimension, first.factors + (t,) + last.factors)


def _disjoint_partner(a_brick: Brick, j: int) -> Brick:
    """A brick disjoint from a_brick to park a baker's map on.

    The sibling along the merge axis, unless together they fill the cube;
    then its lower half along the merge axis, so that swapping the pair
    always fixes something and every emitted transposition stays proper.
    """
    sibling = a_brick.sibling(j)
    if a_brick.double(j).is_unit:
        return sibling.split(j)[0]
    return sibling


@dataclass(frozen=True)
class FactorizationReport:
    """Everything factor_baker did: the word, the stages, and the check."""

    input: BakerSpec
    epsilon: Fraction | None
    word: Word
    levels: tuple[tuple[BakerSpec, ...], ...]
    small_bakers: tuple[BakerSpec, ...]
    split_transpositions: tuple[Element, ...]
    verified: bool


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
        if b.support.cells[b.split_axis].exponent < 1:
            return True
        if b.support.cells[b.merge_axis].exponent < 1:
            return True
        return epsilon is not None and b.support.diameter >= epsilon

    sequence, levels = _split_rounds(spec, too_big)
    shrunk = ShrinkResult(spec, epsilon, tuple(sequence))
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
        levels=tuple(levels),
        small_bakers=shrunk.small_bakers,
        split_transpositions=shrunk.transpositions,
        verified=verify_word(word, spec),
    )


def verify_word(word: Word, spec: BakerSpec) -> bool:
    """Check that a word's product is exactly the given baker's map."""
    return equals(word.product(), make_baker(spec))
