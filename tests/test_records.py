"""The library's records behave exactly as the frozen dataclasses they replace.

Each record class is checked against a reference built by
`dataclasses.make_dataclass` with the same name, fields and frozen flag:
`repr`, `==` and `hash` agree on seeded instances, and construction by
keyword, the frozen errors, pickling and copying behave the same.
"""

import copy
import dataclasses
import pickle
import random
from fractions import Fraction

import pytest

from nvbaker import (
    BakerSpec,
    Brick,
    Cell,
    Element,
    FactorizationReport,
    GridSpec,
    Pair,
    Partition,
    RandomElementSpec,
    ShrinkResult,
    TranspositionSpec,
    ValidationReport,
    Word,
    factor_baker,
    partition_validate,
    random_element,
    shrink,
    unit_brick,
)

# Every record class with its fields in order; equality, hashing and
# `repr` skip `Brick._key`, the brick's kept sort key.
FIELDS = {
    Cell: ("exponent", "numerator"),
    Brick: ("ints", "_key"),
    Partition: ("bricks",),
    ValidationReport: ("ok", "problems"),
    Pair: ("domain", "range"),
    Element: ("dimension", "pairs"),
    Word: ("dimension", "factors"),
    TranspositionSpec: ("ambient", "a", "b"),
    BakerSpec: ("support", "split_axis", "merge_axis"),
    ShrinkResult: ("input", "epsilon", "sequence"),
    FactorizationReport: (
        "input", "epsilon", "word", "levels", "small_bakers", "split_transpositions", "verified"
    ),
    GridSpec: ("resolution",),
    RandomElementSpec: ("dimension", "max_depth", "seed"),
}
HIDDEN = dataclasses.field(compare=False, repr=False)
REFERENCES = {
    cls: dataclasses.make_dataclass(
        cls.__name__,
        [(n, object, HIDDEN) if n.startswith("_") else (n, object) for n in names],
        frozen=True,
    )
    for cls, names in FIELDS.items()
}


def reference(record):
    """The reference dataclass instance holding the record's field values."""
    cls = type(record)
    return REFERENCES[cls](*(getattr(record, n) for n in FIELDS[cls]))


def records(seed: int) -> list:
    """Seeded instances of every record class; equal seeds build equal records."""
    rng = random.Random(seed)
    dim = rng.randrange(1, 4)
    e = random_element(RandomElementSpec(dim, 3, seed))
    f = random_element(RandomElementSpec(dim, rng.randrange(4), seed + 1))
    keyed = e.pairs[-1].range
    keyed.sort_key()
    part = e.domain_partition
    axes = rng.sample(range(2), 2)
    spec = BakerSpec(unit_brick(2).split(rng.randrange(2))[rng.randrange(2)], *axes)
    epsilon = rng.choice((None, Fraction(1, 4)))
    out = [
        Cell(rng.randrange(4), 0),
        Cell(3, rng.randrange(8)),
        keyed,
        e.pairs[0].domain,
        part,
        f.domain_partition,
        partition_validate(part),
        partition_validate(part.bricks[1:]),
        *e.pairs[:3],
        e,
        f,
        Word(dim, (e, f)),
        Word(dim, ()),
        spec,
        shrink(spec, Fraction(1, 4)),
        factor_baker(spec, epsilon),
        GridSpec(rng.randrange(4)),
        RandomElementSpec(dim, 3, seed),
    ]
    if len(part) > 1:
        out.append(TranspositionSpec(part, part.bricks[0], part.bricks[-1]))
    return out


SEEDS = range(6)


def test_seeds_cover_every_record_class():
    assert {type(x) for s in SEEDS for x in records(s)} == set(FIELDS)


@pytest.mark.parametrize("seed", SEEDS)
def test_repr_eq_and_hash_match_the_dataclass(seed):
    xs, ys, zs = records(seed), records(seed), records(seed + 10)
    for x, y in zip(xs, ys):
        assert x is not y and x == y and not x != y and hash(x) == hash(y)
    everything = xs + ys + zs
    for x in everything:
        ref = reference(x)
        assert repr(x) == repr(ref)
        assert hash(x) == hash(ref)
        # Another class, the reference's included, is not comparable.
        assert x.__eq__(ref) is NotImplemented and x != ref
        for y in everything:
            if type(y) is type(x):
                assert (x == y) is (ref == reference(y))
                assert (x != y) is (ref != reference(y))
            else:
                assert x.__eq__(y) is NotImplemented and x != y


@pytest.mark.parametrize("seed", SEEDS)
def test_keyword_and_positional_construction(seed):
    for x in records(seed):
        cls = type(x)
        if cls is Brick:  # a brick is built from its cells, not its ints
            kwargs = {"cells": x.cells}
        else:
            kwargs = {n: getattr(x, n) for n in FIELDS[cls]}
        for y in (cls(**kwargs), cls(*kwargs.values())):
            assert type(y) is cls and y == x and repr(y) == repr(x)


@pytest.mark.parametrize("seed", SEEDS)
def test_setting_or_deleting_any_attribute_fails_as_in_the_dataclass(seed):
    for x in records(seed):
        ref = reference(x)
        before = repr(x)
        for name in (*FIELDS[type(x)], "other"):
            for obj in (x, ref):
                with pytest.raises(dataclasses.FrozenInstanceError) as set_error:
                    setattr(obj, name, 1)
                with pytest.raises(dataclasses.FrozenInstanceError) as del_error:
                    delattr(obj, name)
                assert str(set_error.value) == f"cannot assign to field {name!r}"
                assert str(del_error.value) == f"cannot delete field {name!r}"
        assert repr(x) == before


@pytest.mark.parametrize("seed", SEEDS)
def test_pickle_and_copy_round_trip(seed):
    for x in records(seed):
        copies = [pickle.loads(pickle.dumps(x, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
        copies += [copy.copy(x), copy.deepcopy(x)]
        for y in copies:
            assert type(y) is type(x) and y == x and hash(y) == hash(x)
            assert repr(y) == repr(x)
            assert [getattr(y, n) for n in FIELDS[type(x)]] == [
                getattr(x, n) for n in FIELDS[type(x)]
            ]
