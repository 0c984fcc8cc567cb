"""Command line interface.

Exit codes: 0 for success (and for "yes" answers), 1 for a check that ran
and answered "no" (equal, verify, or a factorization whose self-check
failed), 2 for usage or data errors.

Output files are written atomically (temp file plus rename) and only after
all computation finished, so a failing invocation never leaves partial
results behind.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from fractions import Fraction

from .errors import NvError
from .elements import Element, equals, equals_witness, inverse, then
from .factorization import FactorizationReport, factor_baker
from .formats import (
    load_element,
    parse_brick,
    parse_dyadic,
    parse_partition,
    parse_word,
    serialize_element,
    serialize_word,
)
from .generators import BakerSpec, TranspositionSpec, make_baker, make_transposition
from .geometry import Partition, unit_brick
from .oracle import RandomElementSpec, random_element
from .svg import render_svg

# `random` bounds, checked before any work: file names run to element-9999.nv
# and all texts are held in memory; size grows fast with depth, and the
# range partition of `random_element` costs its square.
_MAX_RANDOM_COUNT = 10_000
_MAX_RANDOM_DEPTH = 12


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".nvbaker-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_element_file(path: str) -> Element:
    return load_element(_read(path))


def _int_pair(text: str, flag: str) -> tuple[int, int]:
    """Two comma-separated integers, as given to --axes and --swap."""
    parts = text.split(",")
    if len(parts) != 2:
        raise NvError(f"{flag} expects two comma-separated integers, got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise NvError(f"{flag} values must be integers, got {text!r}") from exc


def _baker_spec(args: argparse.Namespace) -> BakerSpec:
    split_axis, merge_axis = _int_pair(args.axes, "--axes")
    if args.support is not None:
        support = parse_brick(args.support)
        if args.dim is not None and support.dimension != args.dim:
            raise NvError(
                f"--support has {support.dimension} axes but --dim is {args.dim}"
            )
    elif args.dim is not None:
        support = unit_brick(args.dim)
    else:
        raise NvError("give --support, --dim, or both")
    return BakerSpec(support, split_axis, merge_axis)


def _cmd_compose(args: argparse.Namespace) -> int:
    f = _load_element_file(args.first)
    g = _load_element_file(args.second)
    _write_atomic(args.output, serialize_element(then(f, g)))
    return 0


def _cmd_inverse(args: argparse.Namespace) -> int:
    f = _load_element_file(args.element)
    _write_atomic(args.output, serialize_element(inverse(f)))
    return 0


def _cmd_equal(args: argparse.Namespace) -> int:
    f = _load_element_file(args.first)
    g = _load_element_file(args.second)
    witness = equals_witness(f, g)
    if witness is None:
        print("equal")
        return 0
    print("not equal")
    if args.witness:
        point = ", ".join(str(x) for x in witness)
        print(f"witness: ({point})")
    return 1


def _cmd_baker(args: argparse.Namespace) -> int:
    spec = _baker_spec(args)
    _write_atomic(args.output, serialize_element(make_baker(spec)))
    return 0


def _cmd_transpose(args: argparse.Namespace) -> int:
    _dimension, bricks = parse_partition(_read(args.ambient))
    p, q = _int_pair(args.swap, "--swap")
    for index in (p, q):
        if not 0 <= index < len(bricks):
            raise NvError(
                f"--swap index {index} out of range: the ambient file has "
                f"{len(bricks)} bricks"
            )
    spec = TranspositionSpec(Partition(tuple(bricks)), bricks[p], bricks[q])
    _write_atomic(args.output, serialize_element(make_transposition(spec)))
    return 0


def _report_json(report: FactorizationReport) -> str:
    payload = {
        "dimension": report.input.dimension,
        "support": str(report.input.support),
        "split_axis": report.input.split_axis,
        "merge_axis": report.input.merge_axis,
        "epsilon": None if report.epsilon is None else str(Fraction(report.epsilon)),
        "levels": [[str(b.support) for b in level] for level in report.levels],
        "counts": {
            "factors": len(report.word),
            "small_bakers": len(report.small_bakers),
            "split_transpositions": len(report.split_transpositions),
        },
        "verified": report.verified,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _cmd_factor_baker(args: argparse.Namespace) -> int:
    spec = _baker_spec(args)
    epsilon = None if args.epsilon is None else parse_dyadic(args.epsilon)
    report = factor_baker(spec, epsilon)
    _write_atomic(args.output, serialize_word(report.word))
    if args.report is not None:
        _write_atomic(args.report, _report_json(report))
    if not report.verified:
        print("factorization self-check failed", file=sys.stderr)
        return 1
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    word = parse_word(_read(args.word))
    target = _load_element_file(args.target)
    if equals(word.product(), target):
        print("verified")
        return 0
    print("mismatch")
    return 1


def _cmd_render(args: argparse.Namespace) -> int:
    f = _load_element_file(args.element)
    _write_atomic(args.output, render_svg(f))
    return 0


def _cmd_random(args: argparse.Namespace) -> int:
    if not 1 <= args.count <= _MAX_RANDOM_COUNT:
        raise NvError(f"--count must be in 1..{_MAX_RANDOM_COUNT}, got {args.count}")
    if args.depth > _MAX_RANDOM_DEPTH:
        raise NvError(f"--depth must be at most {_MAX_RANDOM_DEPTH}, got {args.depth}")
    try:
        specs = [
            RandomElementSpec(args.dim, args.depth, args.seed + i) for i in range(args.count)
        ]
    except ValueError as exc:
        raise NvError(str(exc)) from exc
    texts = [serialize_element(random_element(spec)) for spec in specs]
    if args.count == 1 and not os.path.isdir(args.output):
        _write_atomic(args.output, texts[0])
        return 0
    os.makedirs(args.output, exist_ok=True)
    for index, text in enumerate(texts):
        _write_atomic(os.path.join(args.output, f"element-{index:04d}.nv"), text)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nvbaker",
        description="Exact arithmetic on dyadic rearrangements of the unit cube.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compose", help="compose two elements (first applied first)")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("inverse", help="invert an element")
    p.add_argument("element")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_inverse)

    p = sub.add_parser("equal", help="test whether two elements are the same map")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument(
        "--witness",
        action="store_true",
        help="when not equal, print a point where the maps disagree",
    )
    p.set_defaults(func=_cmd_equal)

    p = sub.add_parser("baker", help="write a baker's map element")
    _add_baker_arguments(p)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_baker)

    p = sub.add_parser("transpose", help="write a transposition element")
    p.add_argument(
        "--ambient", required=True, help="partition file listing the ambient bricks"
    )
    p.add_argument(
        "--swap",
        required=True,
        metavar="P,Q",
        help="swap the bricks at these 0-based positions in the ambient file",
    )
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_transpose)

    p = sub.add_parser(
        "factor-baker", help="factor a baker's map into proper transpositions"
    )
    _add_baker_arguments(p)
    p.add_argument("-o", "--output", required=True, help="word file to write")
    p.add_argument("--report", help="also write a JSON report here")
    p.add_argument(
        "--epsilon",
        help="also split supports below this diameter (a dyadic like 1/2^3)",
    )
    p.set_defaults(func=_cmd_factor_baker)

    p = sub.add_parser("verify", help="check a word's product against an element")
    p.add_argument("word", help="word file")
    p.add_argument("target", help="element file the product should equal")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("render", help="draw a two-dimensional element as SVG")
    p.add_argument("element")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("random", help="generate reproducible random elements")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--depth", type=int, required=True, help="split depth bound")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument(
        "-o",
        "--output",
        required=True,
        help="output file, or a directory when --count is above 1",
    )
    p.set_defaults(func=_cmd_random)

    return parser


def _add_baker_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--support",
        help="support brick like 0/2^1,0/2^0 (default: the whole cube)",
    )
    p.add_argument("--dim", type=int, help="dimension (when --support is omitted)")
    p.add_argument(
        "--axes",
        required=True,
        metavar="I,J",
        help="split axis and merge axis, comma separated",
    )


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (NvError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
