"""Function-boundary tracing for the benchmark's traced runs.

The tracer replaces library functions with wrappers for the duration of a
`with Tracer():` block and restores the originals on exit. A function is
usually bound in several modules (``from .geometry import brick_intersect``
copies the binding into ``elements``), so every binding in every loaded
``nvbaker`` module is patched, or internal calls would go uncounted.

Each wrapped function is either a span (calls, inclusive time, self time,
and work counters) or, for the meet test that runs millions of times, a
bare counter of calls and hits. Self time is a span's duration minus the
time of the spans it called directly. Statistics are aggregated in memory
as spans close; nothing is written while tracing.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

# A work counter: name, unit, and f(args, result) -> amount for one call.
Counter = tuple[str, str, Callable[[tuple, Any], int]]

PRODUCT = "elements.Word.product"
FACTOR_BAKER = "factorization.factor_baker"
VERIFY_CHILDREN = (PRODUCT, "elements.equals")


@dataclass(frozen=True)
class Target:
    """One traced function: metric prefix, defining module, attribute path."""

    name: str
    module: str
    attr: str
    counters: tuple[Counter, ...] = ()
    counter_only: bool = False


LINES: Counter = ("lines", "lines", lambda a, r: a[0].count("\n"))
BYTES: Counter = ("bytes", "bytes", lambda a, r: len(r.encode("utf-8")))
PAIRS_OUT: Counter = ("pairs_out", "pairs", lambda a, r: len(r))

TARGETS = (
    Target("geometry.brick_intersect", "nvbaker.geometry", "brick_intersect", counter_only=True),
    Target("geometry.partition_validate", "nvbaker.geometry", "partition_validate",
           (("bricks", "bricks", lambda a, r: len(a[0])),)),
    Target("geometry.tile_complement", "nvbaker.geometry", "tile_complement",
           (("bricks_out", "bricks", lambda a, r: len(r)),)),
    Target("elements.then", "nvbaker.elements", "then",
           (("pairs_in", "pairs", lambda a, r: len(a[0]) + len(a[1])), PAIRS_OUT)),
    Target(PRODUCT, "nvbaker.elements", "Word.product"),
    Target("elements.equals", "nvbaker.elements", "equals"),
    Target("elements.equals_witness", "nvbaker.elements", "equals_witness"),
    Target("elements.coarsen", "nvbaker.elements", "coarsen",
           (("pairs_in", "pairs", lambda a, r: len(a[0])), PAIRS_OUT)),
    Target("elements.from_pairs", "nvbaker.elements", "Element.from_pairs",
           (("pairs", "pairs", lambda a, r: len(r)),)),
    Target("generators.make_transposition", "nvbaker.generators", "make_transposition",
           (("ambient_bricks", "bricks", lambda a, r: len(a[0].ambient)),)),
    Target("generators.make_baker", "nvbaker.generators", "make_baker"),
    Target("generators.is_transposition_form", "nvbaker.generators", "is_transposition_form"),
    Target("generators.is_baker_form", "nvbaker.generators", "is_baker_form"),
    Target("factorization.split_baker", "nvbaker.factorization", "split_baker"),
    Target("factorization.factor_small_baker", "nvbaker.factorization", "factor_small_baker"),
    Target(FACTOR_BAKER, "nvbaker.factorization", "factor_baker"),
    Target("formats.parse_word", "nvbaker.formats", "parse_word", (LINES,)),
    Target("formats.parse_element", "nvbaker.formats", "parse_element", (LINES,)),
    Target("formats.load_element", "nvbaker.formats", "load_element", (LINES,)),
    Target("formats.serialize_word", "nvbaker.formats", "serialize_word", (BYTES,)),
    Target("formats.serialize_element", "nvbaker.formats", "serialize_element", (BYTES,)),
    Target("oracle.grid_equals", "nvbaker.oracle", "grid_equals",
           (("points", "points", lambda a, r: 1 << (a[2].resolution * a[0].dimension)),)),
    Target("svg.render_svg", "nvbaker.svg", "render_svg"),
    Target("cli.main", "nvbaker.cli", "main"),
)


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    work: dict[str, int] = field(default_factory=dict)


def _library_modules() -> list[Any]:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if name == "nvbaker" or name.startswith("nvbaker.")
    ]


class Tracer:
    """Patches every target for the life of a ``with`` block."""

    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {t.name: Stat() for t in TARGETS}
        self.hits = 0
        self.peak_product_pairs = 0
        self.verify_s = 0.0
        self._stack: list[list] = []
        # (owner, attribute, original value) for every binding replaced.
        self._patches: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> "Tracer":
        try:
            for target in TARGETS:
                self._install(target)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc: object) -> None:
        self._restore()

    def _install(self, target: Target) -> None:
        module = sys.modules[target.module]
        if "." in target.attr:
            # A method or static method: the class attribute is the one binding.
            cls_name, attr = target.attr.split(".")
            owner = getattr(module, cls_name)
            raw = vars(owner)[attr]
            if isinstance(raw, staticmethod):
                replacement = staticmethod(self._wrap(target, raw.__func__))
            else:
                replacement = self._wrap(target, raw)
            self._patch(owner, attr, raw, replacement)
            return
        original = getattr(module, target.attr)
        wrapper = self._wrap(target, original)
        for owner in _library_modules():
            for attr, value in list(vars(owner).items()):
                if value is original:
                    self._patch(owner, attr, original, wrapper)

    def _patch(self, owner: Any, attr: str, original: Any, replacement: Any) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def _restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        if target.counter_only:
            return self._counter(target, fn)
        return self._span(target, fn)

    def _counter(self, target: Target, fn: Callable) -> Callable:
        stat = self.stats[target.name]

        def counted(*args: Any, **kwargs: Any) -> Any:
            result = fn(*args, **kwargs)
            stat.calls += 1
            if result is not None:
                self.hits += 1
            return result

        counted.__wrapped__ = fn
        return counted

    def _span(self, target: Target, fn: Callable) -> Callable:
        stat = self.stats[target.name]
        stack = self._stack
        clock = time.perf_counter
        name, counters = target.name, target.counters
        is_then = name == "elements.then"

        def spanned(*args: Any, **kwargs: Any) -> Any:
            frame = [0.0, name]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - frame[0]
                if stack:
                    parent = stack[-1]
                    parent[0] += elapsed
                    if parent[1] == FACTOR_BAKER and name in VERIFY_CHILDREN:
                        self.verify_s += elapsed
            for key, _, count in counters:
                stat.work[key] = stat.work.get(key, 0) + count(args, result)
            if is_then and any(open_frame[1] == PRODUCT for open_frame in stack):
                self.peak_product_pairs = max(self.peak_product_pairs, len(result))
            return result

        spanned.__wrapped__ = fn
        return spanned

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric of one traced section, as (value, unit)."""
        s = self.stats
        out: dict[str, tuple[float, str]] = {}
        meets = s["geometry.brick_intersect"].calls
        out["geometry.brick_intersect.calls"] = (meets, "count")
        out["geometry.brick_intersect.hits"] = (self.hits, "count")
        out["geometry.meet_hit_ratio"] = (self.hits / meets if meets else 0.0, "ratio")
        out[f"{PRODUCT}.peak_pairs"] = (self.peak_product_pairs, "pairs")
        factor_s = s[FACTOR_BAKER].total_s
        out["factorization.verify_share"] = (
            self.verify_s / factor_s if factor_s else 0.0,
            "ratio",
        )
        for target in TARGETS:
            if target.counter_only:
                continue
            stat = s[target.name]
            out[f"{target.name}.calls"] = (stat.calls, "count")
            out[f"{target.name}.self_s"] = (stat.self_s, "s")
            for key, unit, _ in target.counters:
                out[f"{target.name}.{key}"] = (stat.work.get(key, 0), unit)
        return out

