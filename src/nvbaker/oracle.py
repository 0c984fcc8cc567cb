"""Independent checks and generators for randomized testing.

The grid oracle compares two elements by evaluating both on every point of
the lattice {k/2^m} without touching the composition or refinement code:
each pair's affine image is computed directly from raw (exponent, numerator)
data in scaled integer arithmetic. Agreement on a grid one level finer than
every cell in play pins both the offset and the per-axis scale of every
piece, so it is a genuinely separate route to element equality.

The random generator is a small explicit linear congruential generator, so
corpora are reproducible across platforms and processes.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import ResolutionError
from .elements import Element, Pair
from .geometry import Brick, Cell, _Record, unit_brick

# numpy is imported inside the grid functions, so importing the library (and
# the CLI) does not pay for it.
if TYPE_CHECKING:
    import numpy as np


class GridSpec(_Record):
    """A comparison lattice: all points with coordinates k/2^resolution."""

    __slots__ = ("resolution",)

    def __init__(self, resolution: int) -> None:
        self._set(resolution)
        if self.resolution < 0:
            raise ResolutionError(f"resolution must be >= 0, got {self.resolution}")


def _grid_images(
    pairs: list[tuple[tuple[Cell, ...], tuple[Cell, ...]]], n: int, m: int, scale: int
) -> np.ndarray:
    """Scaled integer images of every grid point under an n-dimensional element.

    Takes the element's pairs as (domain cells, range cells). Returns an
    int64 array of shape (n, 2^m, ..., 2^m) whose entry [axis][index] is
    2^scale times the axis coordinate of the image of the point
    index / 2^m. Grid points inside a domain brick form an index box, so
    each pair is one sliced affine assignment.
    """
    import numpy as np

    side = 1 << m
    idx = np.indices((side,) * n, dtype=np.int64)
    out = np.empty_like(idx)
    for dom, rng in pairs:
        box = tuple(
            slice(c.numerator << (m - c.exponent), (c.numerator + 1) << (m - c.exponent))
            for c in dom
        )
        for axis, (cd, cr) in enumerate(zip(dom, rng)):
            # image = r.lo + (x - d.lo) * 2^(ed - er), all times 2^scale
            base = cr.numerator << (scale - cr.exponent)
            step = scale - m + cd.exponent - cr.exponent
            offset = idx[axis][box] - (cd.numerator << (m - cd.exponent))
            out[(axis,) + box] = base + (offset << step)
    return out


def _prepare(f: Element, g: Element, grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    if f.dimension != g.dimension:
        raise ResolutionError("grid comparison needs elements of equal dimension")
    # Each pair's cells are read once, for the finest exponent and the images.
    fc = [(p.domain.cells, p.range.cells) for p in f.pairs]
    gc = [(p.domain.cells, p.range.cells) for p in g.pairs]
    m = grid.resolution
    finest = max(c.exponent for pair in fc + gc for side in pair for c in side)
    if m < finest:
        raise ResolutionError(
            f"resolution 2^-{m} is coarser than the finest cell 2^-{finest}"
        )
    scale = m + finest
    if scale > 62:
        raise ResolutionError(
            f"scale 2^{scale} exceeds the 64-bit integer budget"
        )
    return _grid_images(fc, f.dimension, m, scale), _grid_images(gc, f.dimension, m, scale)


def grid_equals(f: Element, g: Element, grid: GridSpec) -> bool:
    """Whether f and g agree on every point of the grid.

    Agreement at resolution m is conclusive for element equality when m is
    strictly finer than every cell of both presentations: each refinement
    piece then contains two distinct grid coordinates per axis, which pin
    the affine map on it. At m equal to the finest cell the check can only
    certify disagreement.
    """
    import numpy as np

    fi, gi = _prepare(f, g, grid)
    return bool(np.array_equal(fi, gi))


def grid_witness(
    f: Element, g: Element, grid: GridSpec
) -> tuple[Fraction, ...] | None:
    """None when the grids agree, else the first grid point that differs."""
    import numpy as np

    fi, gi = _prepare(f, g, grid)
    diff = np.argwhere((fi != gi).any(axis=0))
    if diff.size == 0:
        return None
    first = diff[0]
    return tuple(Fraction(int(k), 1 << grid.resolution) for k in first)


class Lcg64:
    """Deterministic 64-bit linear congruential generator.

    state' = (a * state + c) mod 2^64 with the multiplier and increment
    from Knuth's MMIX; outputs are the successive states. Not for
    cryptography or statistics, only for reproducible test corpora.
    """

    MULTIPLIER = 6364136223846793005
    INCREMENT = 1442695040888963407
    _MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self._MASK

    def next_u64(self) -> int:
        self.state = (self.MULTIPLIER * self.state + self.INCREMENT) & self._MASK
        return self.state

    def below(self, n: int) -> int:
        """Uniform-ish integer in [0, n) by the multiply-shift reduction."""
        if n <= 0:
            raise ValueError(f"need a positive bound, got {n}")
        return (self.next_u64() * n) >> 64

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates."""
        for k in range(len(items) - 1, 0, -1):
            j = self.below(k + 1)
            items[k], items[j] = items[j], items[k]


class RandomElementSpec(_Record):
    """Shape of a random element: dimension, split depth bound, and seed."""

    __slots__ = ("dimension", "max_depth", "seed")

    def __init__(self, dimension: int, max_depth: int, seed: int) -> None:
        self._set(dimension, max_depth, seed)
        if self.dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")
        if self.max_depth < 0:
            raise ValueError(f"max_depth must be >= 0, got {self.max_depth}")


def random_element(spec: RandomElementSpec) -> Element:
    """A reproducible random element.

    The domain partition comes from recursive splitting (each brick above
    the depth floor splits with probability 3/4 along a uniform axis, down
    to max_depth). The range partition splits uniformly chosen bricks until
    the counts match, and a uniform shuffle pairs them up.
    """
    rng = Lcg64(spec.seed)
    domain: list[Brick] = []

    def grow(brick: Brick, depth: int) -> None:
        if depth >= spec.max_depth or rng.below(4) == 0:
            domain.append(brick)
            return
        lo, hi = brick.split(rng.below(spec.dimension))
        grow(lo, depth + 1)
        grow(hi, depth + 1)

    grow(unit_brick(spec.dimension), 0)

    ranges = [unit_brick(spec.dimension)]
    while len(ranges) < len(domain):
        open_axes: list[tuple[int, int]] = [
            (k, axis)
            for k, b in enumerate(ranges)
            for axis, c in enumerate(b.ints)
            if c.bit_length() - 1 < spec.max_depth
        ]
        k, axis = open_axes[rng.below(len(open_axes))]
        lo, hi = ranges.pop(k).split(axis)
        ranges.extend((lo, hi))

    # Both sides come from halving the cube, so they partition it.
    rng.shuffle(ranges)
    return Element(spec.dimension, tuple(Pair._of(d, r) for d, r in zip(domain, ranges)))
