"""Tests of the benchmark's tracer: python3 -m pytest -q perfbench"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import nvbaker
from nvbaker import BakerSpec, cli, elements, factorization, geometry, unit_brick

from tracer import TARGETS, Tracer

# Bindings the traced run must reach: each defining module plus the copies
# other modules import, which internal calls go through.
BINDINGS = [
    (geometry, "brick_intersect"),
    (elements, "brick_intersect"),
    (nvbaker, "brick_intersect"),
    (elements, "equals"),
    (factorization, "equals"),
    (nvbaker, "equals"),
    (elements, "then"),
    (cli, "then"),
    (cli, "equals"),
    (cli, "equals_witness"),
    (cli, "factor_baker"),
    (cli, "load_element"),
    (cli, "parse_word"),
    (cli, "serialize_element"),
    (cli, "serialize_word"),
    (cli, "make_baker"),
    (cli, "make_transposition"),
    (cli, "render_svg"),
    (cli, "main"),
    (elements.Element, "from_pairs"),
    (elements.Word, "product"),
]


def _module_bindings() -> dict[tuple[str, str], object]:
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name.split(".")[0] == "nvbaker"
        for attr, value in vars(module).items()
    }


def test_every_binding_wrapped_then_restored():
    before = {(owner, attr): vars(owner)[attr] for owner, attr in BINDINGS}
    traced = {
        id(getattr(sys.modules[t.module], t.attr)) for t in TARGETS if "." not in t.attr
    }
    bindings = _module_bindings()
    with Tracer():
        for (owner, attr), original in before.items():
            assert vars(owner)[attr] is not original, f"{owner.__name__}.{attr} not wrapped"
        for (name, attr), value in _module_bindings().items():
            assert id(value) not in traced, f"{name}.{attr} not wrapped"
    for (owner, attr), original in before.items():
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr} not restored"
    assert _module_bindings() == bindings


def test_meet_count_repeats_exactly():
    spec = BakerSpec(unit_brick(2), 0, 1)
    counts = []
    for _ in range(2):
        with Tracer() as tracer:
            assert nvbaker.factor_baker(spec).verified
        counts.append(tracer.metrics()["geometry.brick_intersect.calls"][0])
    assert counts[0] == counts[1] > 0


def test_self_time_excludes_child_spans():
    spec = BakerSpec(unit_brick(2), 0, 1)
    with Tracer() as tracer:
        nvbaker.factor_baker(spec)
    stats = tracer.stats
    outer = stats["factorization.factor_baker"]
    assert outer.calls == 1
    assert 0 <= outer.self_s <= outer.total_s
    # Spans nest inside factor_baker, so self times add up to its duration.
    total_self = sum(stat.self_s for stat in stats.values())
    assert abs(total_self - outer.total_s) < 1e-6
    assert {t.name for t in TARGETS} == set(stats)
