"""Exact arithmetic on dyadic rearrangements of the unit n-cube.

The library models bijections of [0,1)^n built from dyadic brick
partitions, provides the baker's map and brick-transposition generator
families, and factors any baker's map into a machine-verified word of
proper transpositions.
"""

from types import ModuleType as _Module

from .errors import (
    DimensionMismatchError,
    ElementError,
    ExponentLimitError,
    FactorizationError,
    GeometryError,
    NvError,
    ParseError,
    PartitionError,
    RenderError,
    ResolutionError,
)
from .geometry import (
    MAX_DIMENSION,
    MAX_EXPONENT,
    Brick,
    Cell,
    Partition,
    ValidationReport,
    brick_intersect,
    bricks_disjoint,
    partition_validate,
    peel_to_unit,
    tile_complement,
    unit_brick,
)
from .elements import (
    Element,
    Pair,
    Word,
    apply_point,
    coarsen,
    equals,
    equals_witness,
    identity,
    inverse,
    product_equals,
    support,
    then,
)
from .generators import (
    BakerSpec,
    TranspositionSpec,
    is_baker_form,
    is_transposition_form,
    make_baker,
    make_transposition,
)
from .factorization import (
    FactorizationReport,
    ShrinkResult,
    cancel_disjoint_pair,
    factor_baker,
    factor_small_baker,
    shrink,
    split_baker,
    verify_word,
)
from .oracle import (
    GridSpec,
    Lcg64,
    RandomElementSpec,
    grid_equals,
    grid_witness,
    random_element,
)
from .formats import (
    load_element,
    parse_brick,
    parse_dyadic,
    parse_element,
    parse_partition,
    parse_tree_pair,
    parse_word,
    serialize_element,
    serialize_partition,
    serialize_word,
)
from .svg import render_svg

__version__ = "0.1.0"

# Every name imported above is public; the submodules are not.
__all__ = [
    name for name, value in list(globals().items())
    if not name.startswith("_") and not isinstance(value, _Module)
]
