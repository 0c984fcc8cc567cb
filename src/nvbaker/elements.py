"""Elements of the n-dimensional dyadic rearrangement groups.

An element is a bijection of [0,1)^n given by two partitions into dyadic
bricks and a pairing between them; each pair is glued by the canonical
affine map (axis-aligned, orientation-preserving, power-of-2 scale on each
axis, no axis permutation). Composition refines partitions as needed, so
elements form a group under `then` / `inverse`.

Pair transport never leaves integer arithmetic. On cell ints (see
`geometry`), a subcell x of a source cell y lands in the destination cell z
at x ^ ((y ^ z) << depth), depth being how much finer x is than y: the bits
below y's are kept and y's prefix is replaced by z's.

`then`, `equals_witness` and `Word.product` run on pieces, a pair's
(domain, range) cell ints: they take the meets from `geometry._meets`,
carry them with `_carry`, and build `Brick`s, `Pair`s and the sorted
`Element` once, from the final pieces. `Word.product` is the balanced fold
of `then` on pieces, refining against every factor's whole partition.

`product_equals` checks a word against a target without building the
product: it carries pieces of the identity through the word's pieces, and
then through the target's pieces read backwards, applying each step only
where it moves points, with the pieces found by their range cells in the
same `geometry._RangeIndex` that serves `_meets`. Each carried piece merges
with its sibling pieces by `coarsen`'s rule, so the pass holds a reduced
presentation of the prefix product, not the word's refinement.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from itertools import chain
from typing import Iterable, Sequence

from .errors import DimensionMismatchError, ElementError
from .geometry import (
    Brick,
    Partition,
    brick_intersect,  # noqa: F401 (a binding perfbench/test_tracer.py checks)
    _RangeIndex,
    _Record,
    _cell_count,
    _check_exponent,
    _halves,
    _meets,
    _sort_key,
    partition_validate,
    unit_brick,
)


class Pair(_Record):
    """One brick of the domain partition and its image brick."""

    __slots__ = ("domain", "range")

    def __init__(self, domain: Brick, range: Brick) -> None:
        self._set(domain, range)
        if self.domain.dimension != self.range.dimension:
            raise DimensionMismatchError(
                f"pair mixes dimensions {self.domain.dimension} and {self.range.dimension}"
            )

    @classmethod
    def _of(cls, domain: Brick, range: Brick) -> "Pair":
        """A pair of bricks of one dimension, as the library builds them: unchecked."""
        pair = object.__new__(cls)
        object.__setattr__(pair, "domain", domain)
        object.__setattr__(pair, "range", range)
        return pair

    @property
    def is_identity(self) -> bool:
        return self.domain == self.range

    def __str__(self) -> str:
        return f"{self.domain} -> {self.range}"


def _carry(sub: tuple[int, ...], src: tuple[int, ...], dst: tuple[int, ...]) -> tuple[int, ...]:
    """Cell ints of sub, inside src, carried onto dst (see the module docstring).

    A carried cell can be finer than every operand's, so it is refused past
    the exponent limit here, as `Cell` refuses one.
    """
    if sub == src:  # the whole of src lands on the whole of dst
        return dst
    image = tuple(
        x ^ ((y ^ z) << (x.bit_length() - y.bit_length())) for x, y, z in zip(sub, src, dst)
    )
    _check_exponent(max(image).bit_length() - 1)
    return image


class Element(_Record):
    """A dyadic rearrangement, stored as pairs sorted by domain brick.

    The constructor sorts the pairs (any sequence) into a tuple but does not
    validate; use `from_pairs` for checked construction from untrusted data.
    Operations inside the library build elements correct by construction,
    and `_of` takes pairs already in domain order without sorting them.
    """

    __slots__ = ("dimension", "pairs")

    def __init__(self, dimension: int, pairs: Iterable[Pair]) -> None:
        # Set directly, not by `_set`: that call costs as much again, per element.
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "pairs", tuple(sorted(pairs, key=lambda p: p.domain.sort_key())))

    @classmethod
    def _of(cls, dimension: int, pairs: tuple[Pair, ...]) -> "Element":
        """An element of pairs already sorted by domain sort key, as the library builds them."""
        element = object.__new__(cls)
        object.__setattr__(element, "dimension", dimension)
        object.__setattr__(element, "pairs", pairs)
        return element

    @staticmethod
    def from_pairs(pairs: Iterable[Pair]) -> "Element":
        return _from_pairs(tuple(pairs), set())

    @property
    def domain_partition(self) -> Partition:
        return Partition([p.domain for p in self.pairs])

    def __len__(self) -> int:
        return len(self.pairs)


def _from_pairs(items: Sequence[Pair], passed: set) -> Element:
    """`Element.from_pairs`, skipping each side whose sorted cell ints are in `passed`.

    A side that passes is added, so a range with its domain's bricks, or a
    side repeated across the blocks of one word file, is checked once.
    """
    if not items:
        raise ElementError("an element needs at least one pair")
    dim = items[0].domain.dimension
    for p in items:
        if p.domain.dimension != dim:
            raise DimensionMismatchError("pairs of mixed dimensions")
    for side, bricks in (
        ("domain", [p.domain for p in items]),
        ("range", [p.range for p in items]),
    ):
        key = tuple(sorted(b.ints for b in bricks))
        if key in passed:
            continue
        report = partition_validate(bricks)
        if not report:
            detail = "; ".join(report.problems)
            raise ElementError(f"{side} bricks do not partition the cube: {detail}")
        passed.add(key)
    return Element(dim, items)


def identity(dimension: int) -> Element:
    cube = unit_brick(dimension)
    return Element(dimension, (Pair._of(cube, cube),))


def then(f: Element, g: Element) -> Element:
    """The composite applying f first, then g."""
    if f.dimension != g.dimension:
        raise DimensionMismatchError(
            f"cannot compose elements of dimensions {f.dimension} and {g.dimension}"
        )
    return _element(f.dimension, _then(_pieces(f), _pieces(g)))


_Piece = tuple[tuple[int, ...], tuple[int, ...]]


def _pieces(f: Element) -> list[_Piece]:
    """The element's pairs as (domain, range) cell ints."""
    return [(p.domain.ints, p.range.ints) for p in f.pairs]


def _element(dimension: int, pieces: Iterable[_Piece]) -> Element:
    """The element of pieces derived inside the library: built unchecked."""
    return Element(dimension, [Pair._of(Brick._of(d), Brick._of(r)) for d, r in pieces])


def _then(f: Sequence[_Piece], g: Sequence[_Piece]) -> list[_Piece]:
    """`then` on pieces: each meet of an f range and a g domain, carried back and on.

    The meet lies inside both operands, so it is carried unchecked.
    """
    return [
        (_carry(meet, f[i][1], f[i][0]), _carry(meet, g[j][0], g[j][1]))
        for i, j, meet in _meets([r for _, r in f], [d for d, _ in g])
    ]


def inverse(f: Element) -> Element:
    return Element(f.dimension, [Pair._of(p.range, p.domain) for p in f.pairs])


def apply_point(f: Element, point: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Image of a point of [0,1)^n under the element."""
    pt = tuple(Fraction(x) for x in point)
    if len(pt) != f.dimension:
        raise DimensionMismatchError(
            f"point has {len(pt)} coordinates, element has dimension {f.dimension}"
        )
    if not all(0 <= x < 1 for x in pt):
        raise ElementError(f"point {pt} is outside the unit cube")
    for p in f.pairs:
        if p.domain.contains_point(pt):
            return tuple(
                cr.lo + (x - cd.lo) * (cr.length / cd.length)
                for x, cd, cr in zip(pt, p.domain.cells, p.range.cells)
            )
    raise ElementError(f"no domain brick contains {pt}")


def equals(f: Element, g: Element) -> bool:
    """Whether two elements are the same map (presentations may differ)."""
    return f.dimension == g.dimension and equals_witness(f, g) is None


def equals_witness(f: Element, g: Element) -> tuple[Fraction, ...] | None:
    """None when equal, else a point where the two maps disagree.

    The domains' common refinement is walked in (f-pair, g-pair) order,
    which fixes the witness. `_meets` yields it in that order, one piece at
    a time, so the walk stops at the first piece where the maps differ. On
    a refinement piece both restrictions are canonical affine maps, so they
    differ exactly when their image bricks differ: at the piece's corner
    when the image corners differ, otherwise (equal corners, some axis
    scale differs) at the piece's midpoint.
    """
    if f.dimension != g.dimension:
        raise DimensionMismatchError(
            f"cannot compare elements of dimensions {f.dimension} and {g.dimension}"
        )
    fp, gp = _pieces(f), _pieces(g)
    for j, i, piece in _meets([d for d, _ in gp], [d for d, _ in fp]):
        fi, gi = _carry(piece, *fp[i]), _carry(piece, *gp[j])
        if fi == gi:
            continue
        cells = Brick._of(piece).cells
        # A sort key holds each cell's scaled left end, then its exponent.
        if _sort_key(fi)[::2] != _sort_key(gi)[::2]:
            return tuple(c.lo for c in cells)
        return tuple(c.lo + c.length / 2 for c in cells)
    return None


def support(f: Element) -> tuple[Brick, ...]:
    """Maximal bricks covering the moved set, in sorted order.

    The domain bricks of the non-identity pairs, merged by `coarsen` as
    identity pairs (so any two sibling bricks merge). Identity pairs never
    overlap the moved set, so this is exact for elements in any
    presentation.
    """
    moved = [Pair._of(p.domain, p.domain) for p in f.pairs if not p.is_identity]
    return tuple(p.domain for p in coarsen(Element(f.dimension, moved)).pairs)


def coarsen(f: Element) -> Element:
    """A reduced presentation of the same map.

    Merges two pairs whose domain bricks are sibling halves along some axis
    a and whose range bricks are siblings along a, lower half carrying lower
    half; only such merges preserve the map. Until none applies, the pair
    with the lowest domain key that is the lower half of such a sibling pair
    merges along its highest such axis (the partner with the lowest key). A
    heap of (domain key, domain) finds that pair: a pair enters it when it
    appears and again when its partner appears. Live pairs are filed by
    domain cell ints; only the heap reads keys, each computed at most once.

    The result depends on the presentation, not only on the map: merges
    compete for bricks, so two presentations of one map can reduce to
    different, equally irreducible presentations.
    """
    live = {p.domain.ints: p for p in f.pairs}
    heap = [(p.domain.sort_key(), d) for d, p in live.items()]
    heapq.heapify(heap)
    while heap:
        d = heapq.heappop(heap)[1]
        p = live.get(d)
        if p is None:
            continue
        r = p.range.ints
        for axis in reversed(range(f.dimension)):
            # Both cells must be lower children: a unit cell, 1, is odd too.
            if (d[axis] | r[axis]) & 1:
                continue
            partner = d[:axis] + (d[axis] | 1,) + d[axis + 1 :]
            q = live.get(partner)
            if q is None or q.range.ints != r[:axis] + (r[axis] | 1,) + r[axis + 1 :]:
                continue
            del live[d], live[partner]
            d = d[:axis] + (d[axis] >> 1,) + d[axis + 1 :]
            r = r[:axis] + (r[axis] >> 1,) + r[axis + 1 :]
            joined = live[d] = Pair._of(Brick._of(d), Brick._of(r))
            heapq.heappush(heap, (joined.domain.sort_key(), d))
            for a, c in enumerate(d):
                lower = c & 1 and c != 1 and live.get(d[:a] + (c ^ 1,) + d[a + 1 :])
                if lower:
                    heapq.heappush(heap, (lower.domain.sort_key(), lower.domain.ints))
            break
    return Element(f.dimension, list(live.values()))


class Word(_Record):
    """A finite sequence of elements, applied first factor first."""

    __slots__ = ("dimension", "factors")

    def __init__(self, dimension: int, factors: Iterable[Element]) -> None:
        self._set(dimension, tuple(factors))
        for e in self.factors:
            if e.dimension != self.dimension:
                raise DimensionMismatchError("word factor of wrong dimension")

    def __len__(self) -> int:
        return len(self.factors)

    def product(self) -> Element:
        """Compose all factors; the empty word is the identity.

        Fold shape does not change the resulting presentation, and balanced
        folding keeps intermediate pair counts near the final size instead of
        accumulating refinement piece by piece.
        """
        if not self.factors:
            return identity(self.dimension)
        if len(self.factors) == 1:
            return self.factors[0]
        return _element(self.dimension, _fold(self.factors, 0, len(self.factors)))


def _fold(factors: Sequence[Element], lo: int, hi: int) -> list[_Piece]:
    """The pieces of factors[lo:hi]'s product, folded with `_then`."""
    if hi - lo == 1:
        return _pieces(factors[lo])
    mid = (lo + hi) // 2
    return _then(_fold(factors, lo, mid), _fold(factors, mid, hi))


def product_equals(word: Word, target: Element) -> bool:
    """Whether the word's product is exactly `target`; `equals` without the fold.

    One pass carries pieces of the identity through every factor, then
    through the target's pieces reversed (no inverse `Element` is built),
    touching only the pieces that each moved brick meets (see
    `_product_pieces`). The product equals the target exactly when every
    final piece is an identity pair, whatever the presentation. Different
    dimensions compare unequal, as in `equals`.
    """
    if word.dimension != target.dimension:
        return False
    backwards = [(p.range.ints, p.domain.ints) for p in target.pairs]
    steps = chain(map(_pieces, word.factors), [backwards])
    pieces = _product_pieces(word.dimension, steps)
    # The domains are cut from the cube, so their measures add up to 1
    # unless a piece was lost or duplicated.
    count, cube = _cell_count([dom for dom, _ in pieces])
    return count == cube and all(dom == rng for dom, rng in pieces)


def _product_pieces(dimension: int, steps: Iterable[Iterable[_Piece]]) -> list[_Piece]:
    """The pieces (domain, range) of the product of steps, each a map's pieces.

    Steps are read once, in order. From the cube mapped to itself, each
    moved piece d -> r of a step takes the pieces whose range meets d out
    of the index. `_halves` cuts each such range, with its domain, on every
    axis where it is coarser than d, one level at a time; the half missing
    d returns to the index, as a later piece of the step may move it. The
    part inside d is carried to r by `_carry` and rejoins the index,
    through `_merge_in`, once the whole step is applied, so the pieces
    follow the reduced map rather than the word's refinement.
    """
    cube = (1,) * dimension
    index = _RangeIndex([cube])  # indexes the ranges
    live = {cube: (0, cube)}  # each piece's range: its id in the index, its domain
    for step in steps:
        moved = []
        for d, r in step:
            if d == r:
                continue
            # The ids still to come stay in use, so no half filed here takes one.
            for i in index.meeting(d):
                rng = index.remove(i)
                dom = live.pop(rng)[1]
                for a, y in enumerate(d):
                    for j in reversed(range(y.bit_length() - rng[a].bit_length())):
                        keep = y >> j & 1
                        doms, rngs = _halves(dom, a), _halves(rng, a)
                        live[rngs[keep ^ 1]] = (index.add(rngs[keep ^ 1]), doms[keep ^ 1])
                        dom, rng = doms[keep], rngs[keep]
                moved.append((dom, _carry(rng, d, r)))
        for dom, rng in moved:
            _merge_in(index, live, dom, rng)
    return [(dom, rng) for rng, (_, dom) in live.items()]


def _merge_in(
    index: _RangeIndex,
    live: dict[tuple[int, ...], tuple[int, tuple[int, ...]]],
    dom: tuple[int, ...],
    rng: tuple[int, ...],
) -> None:
    """File a piece, first merged with its live siblings for as long as one fits.

    `coarsen`'s rule: a piece merges with the piece whose range is its
    range's sibling along an axis a when that piece's domain is its
    domain's sibling along a, lower range half carrying lower domain half.
    The two are then one canonical affine piece, so the map is unchanged.
    """
    a = len(rng)
    while a:
        a -= 1
        x, y = rng[a], dom[a]
        # Both cells must be halves on the same side: a unit cell, 1, is odd too.
        if x == 1 or y == 1 or (x ^ y) & 1:
            continue
        sibling = rng[:a] + (x ^ 1,) + rng[a + 1 :]
        other = live.get(sibling)
        if other is None or other[1] != dom[:a] + (y ^ 1,) + dom[a + 1 :]:
            continue
        index.remove(other[0])
        del live[sibling]
        rng = rng[:a] + (x >> 1,) + rng[a + 1 :]
        dom = dom[:a] + (y >> 1,) + dom[a + 1 :]
        a = len(rng)
    live[rng] = (index.add(rng), dom)
