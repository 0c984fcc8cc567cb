"""The benchmark's workloads: seeded inputs, one timed pass, exact checks.

Every workload is built from a seed by ``WORKLOADS[name](seed, workdir)``
and then runs passes. A pass performs the workload once and checks every
output exactly; it returns one `Job` per operation, so a failed check is
counted against the operations attempted. The seed moves positions, axes
and orderings; the sizes that set the amount of work are fixed, so runs on
different seeds cost nearly the same (audit_batch's meet count varies by
about 3% between seeds).
"""

from __future__ import annotations

import hashlib
import io
import os
import random
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

# Library functions are called as `nv.<name>`, looked up at each call, so
# that the traced run's wrappers on the package see them.
import nvbaker as nv
from nvbaker import (
    BakerSpec,
    Brick,
    Cell,
    Element,
    GridSpec,
    Pair,
    RandomElementSpec,
    cli,
)

# The word and report files of `factor-baker --dim 2 --axes 0,1 --epsilon 1/2^2`.
EPS4_WORD_SHA256 = "80ab210dba57c9315b79eec1cb5aab70a45ce139258150588e60f98c5ebb4e6e"
EPS4_REPORT_SHA256 = "66be62fa84d33c2a086c0c68d9c700b04a95a45b564bbb562319f5e3f12894b7"


@dataclass
class Job:
    """One operation of a pass: its latency and whether its checks held."""

    name: str
    seconds: float
    ok: bool
    detail: str = ""
    peak_rss_kb: int = 0


def _finest(*elements: Element) -> int:
    return max(
        c.exponent
        for e in elements
        for p in e.pairs
        for b in (p.domain, p.range)
        for c in b.cells
    )


class AuditBatch:
    """Many small verified factorizations, each audited four ways.

    Jobs are the two reference bakers (unit square; 3-cube on axes 0,1)
    plus `SMALL_JOBS` bakers with both in-plane sides at most 1/2 in
    dimensions 2 to 4. Each job factors its baker, checks every factor is a
    proper transposition, round-trips the baker through the recogniser and,
    in dimension 2, compares product and baker on the grid oracle one level
    finer than the finest cell. Operands are many and small, so `coarsen`
    and per-object construction dominate.
    """

    SMALL_JOBS = 100
    # 2-D supports stay coarse enough that the oracle grid has at most
    # 2^18 points.
    MAX_EXPONENT_2D = 6
    MAX_EXPONENT = 8
    MAX_OFF_PLANE = 4

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        jobs = [(BakerSpec(nv.unit_brick(2), 0, 1), 31), (BakerSpec(nv.unit_brick(3), 0, 1), 31)]
        for k in range(self.SMALL_JOBS):
            # The exponents follow from k alone, so every seed does the same
            # work; the seed picks the axes and the support's position.
            dim = 2 + k % 3
            cap = self.MAX_EXPONENT_2D if dim == 2 else self.MAX_EXPONENT
            exponents = [0] * dim
            i, j = rng.sample(range(dim), 2)
            exponents[i] = 1 + k % cap
            exponents[j] = 1 + (3 * k + 1) % cap
            others = [a for a in range(dim) if a not in (i, j)]
            for n, axis in enumerate(others):
                exponents[axis] = (k + 2 * n) % (self.MAX_OFF_PLANE + 1)
            support = Brick(tuple(Cell(e, rng.randrange(1 << e)) for e in exponents))
            jobs.append((BakerSpec(support, i, j), 7))
        rng.shuffle(jobs)
        self.jobs = jobs

    def run_pass(self, inprocess: bool = False) -> list[Job]:
        return [self._job(spec, factors) for spec, factors in self.jobs]

    @staticmethod
    def _job(spec: BakerSpec, factors: int) -> Job:
        start = time.perf_counter()
        problems = []
        report = nv.factor_baker(spec)
        if not report.verified:
            problems.append("word does not verify")
        if len(report.word) != factors:
            problems.append(f"{len(report.word)} factors, expected {factors}")
        for index, factor in enumerate(report.word.factors):
            recognised, t = nv.is_transposition_form(factor)
            if not (recognised and t.proper):
                problems.append(f"factor {index} is not a proper transposition")
        baker = nv.make_baker(spec)
        if nv.is_baker_form(baker) != (True, spec):
            problems.append("recogniser does not return the spec")
        if spec.dimension == 2:
            product = report.word.product()
            grid = GridSpec(_finest(product, baker) + 1)
            if not nv.grid_equals(product, baker, grid):
                problems.append("grid oracle disagrees")
        seconds = time.perf_counter() - start
        name = f"{spec.support} axes {spec.split_axis},{spec.merge_axis}"
        return Job(name, seconds, not problems, "; ".join(problems))


@dataclass
class Command:
    """One CLI invocation and everything its run must show."""

    name: str
    argv: list[str]
    code: int
    stdout: str = ""
    # Output path -> expected sha256 of its bytes ("" means: not written).
    files: dict[str, str] | None = None
    # An element file every pair of which must map a brick to itself.
    identity: str | None = None


def _sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _grid_permutation(exponents: tuple[int, int], rng: random.Random) -> Element:
    """A seeded element permuting the bricks of a uniform 2-D grid."""
    bricks = [
        Brick((Cell(exponents[0], x), Cell(exponents[1], y)))
        for x in range(1 << exponents[0])
        for y in range(1 << exponents[1])
    ]
    images = bricks[:]
    rng.shuffle(images)
    return Element.from_pairs(Pair(d, r) for d, r in zip(bricks, images))


def _halved(e: Element) -> Element:
    """The same map presented with every pair halved along axis 0."""
    pairs = []
    for p in e.pairs:
        pairs.extend(Pair(d, r) for d, r in zip(p.domain.split(0), p.range.split(0)))
    return Element.from_pairs(pairs)


class CliSession:
    """A fixed script of `nvbaker` commands on seeded input files.

    This is what a file-to-file user pays: interpreter start and import per
    command, parsing and serialization, validation in `Element.from_pairs`
    and atomic writes, including a 511-factor word of about 5,500 lines
    written by `factor-baker` and read back by `verify`. Commands run one
    child process at a time; the traced run executes the same commands
    in-process through `cli.main`.
    """

    RANDOM_COUNT = 8

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.root = Path(__file__).resolve().parent.parent
        self.inputs = workdir / "inputs"
        self.outputs = workdir / "outputs"
        self.inputs.mkdir(parents=True)
        self.outputs.mkdir(parents=True)
        i, o = self.inputs, self.outputs

        a = _grid_permutation((2, 3), rng)
        b = _grid_permutation((3, 2), rng)
        while nv.equals_witness(a, b) is None:
            b = _grid_permutation((3, 2), rng)
        square = nv.make_baker(BakerSpec(nv.unit_brick(2), 0, 1))
        support = Brick((Cell(2, rng.randrange(4)), Cell(3, rng.randrange(8))))
        split, merge = rng.sample(range(2), 2)
        small = nv.make_baker(BakerSpec(support, split, merge))
        composite = nv.then(a, b)
        loop = nv.then(composite, nv.inverse(composite))
        witness = ", ".join(str(x) for x in nv.equals_witness(a, b))
        random_seed = rng.randrange(1 << 32)

        for path, element in (("a.nv", a), ("b.nv", b), ("square.nv", square)):
            (i / path).write_text(nv.serialize_element(element), encoding="utf-8")
        (i / "a-halved.nv").write_text(nv.serialize_element(_halved(a)), encoding="utf-8")
        # The second range brick overlaps the first: a data error, exit 2.
        (i / "bad.nv").write_text(
            "NV 2\n0/2^1,0/2^0 -> 0/2^0,0/2^1\n1/2^1,0/2^0 -> 0/2^1,0/2^1\n",
            encoding="utf-8",
        )
        randoms = {
            str(o / "random" / f"element-{n:04d}.nv"): _sha256_text(
                nv.serialize_element(nv.random_element(RandomElementSpec(2, 5, random_seed + n)))
            )
            for n in range(self.RANDOM_COUNT)
        }

        def sha(element: Element) -> str:
            return _sha256_text(nv.serialize_element(element))

        self.commands = [
            Command("baker", ["baker", "--support", str(support), "--axes",
                              f"{split},{merge}", "-o", str(o / "small.nv")], 0,
                    files={str(o / "small.nv"): sha(small)}),
            Command("factor-baker", ["factor-baker", "--dim", "2", "--axes", "0,1",
                                     "--epsilon", "1/2^2", "-o", str(o / "word.nvw"),
                                     "--report", str(o / "report.json")], 0,
                    files={str(o / "word.nvw"): EPS4_WORD_SHA256,
                           str(o / "report.json"): EPS4_REPORT_SHA256}),
            Command("verify", ["verify", str(o / "word.nvw"), str(i / "square.nv")], 0,
                    "verified\n"),
            Command("compose", ["compose", str(i / "a.nv"), str(i / "b.nv"),
                                "-o", str(o / "ab.nv")], 0,
                    files={str(o / "ab.nv"): sha(composite)}),
            Command("inverse", ["inverse", str(o / "ab.nv"), "-o", str(o / "ab-inv.nv")], 0,
                    files={str(o / "ab-inv.nv"): sha(nv.inverse(composite))}),
            Command("compose-back", ["compose", str(o / "ab.nv"), str(o / "ab-inv.nv"),
                                     "-o", str(o / "loop.nv")], 0,
                    files={str(o / "loop.nv"): sha(loop)}, identity=str(o / "loop.nv")),
            Command("equal-yes", ["equal", str(i / "a.nv"), str(i / "a-halved.nv"),
                                  "--witness"], 0, "equal\n"),
            Command("equal-no", ["equal", str(i / "a.nv"), str(i / "b.nv"), "--witness"], 1,
                    f"not equal\nwitness: ({witness})\n"),
            Command("render", ["render", str(i / "a.nv"), "-o", str(o / "a.svg")], 0,
                    files={str(o / "a.svg"): _sha256_text(nv.render_svg(a))}),
            Command("random", ["random", "--dim", "2", "--depth", "5", "--seed",
                               str(random_seed), "--count", str(self.RANDOM_COUNT),
                               "-o", str(o / "random")], 0, files=randoms),
            Command("malformed", ["inverse", str(i / "bad.nv"), "-o", str(o / "bad-inv.nv")],
                    2, files={str(o / "bad-inv.nv"): ""}),
        ]

    def run_pass(self, inprocess: bool = False) -> list[Job]:
        for path in self.outputs.rglob("*"):
            if path.is_file():
                path.unlink()
        run = self._run_inprocess if inprocess else self._run_child
        jobs = []
        for command in self.commands:
            seconds, code, out, err, rss_kb = run(command.argv)
            problems = self._check(command, code, out, err)
            jobs.append(Job(command.name, seconds, not problems, "; ".join(problems), rss_kb))
        return jobs

    @staticmethod
    def _check(command: Command, code: int, out: str, err: str) -> list[str]:
        problems = []
        if code != command.code:
            problems.append(f"exit {code}, expected {command.code}")
        if out != command.stdout:
            problems.append(f"stdout {out!r}, expected {command.stdout!r}")
        if "Traceback" in err:
            problems.append("printed a traceback")
        if command.code == 2 and not err.startswith("error: "):
            problems.append(f"stderr {err!r} lacks an 'error:' line")
        if command.code != 2 and err:
            problems.append(f"unexpected stderr {err!r}")
        for path, expected in (command.files or {}).items():
            written = Path(path)
            if not expected:
                if written.exists():
                    problems.append(f"{written.name} written by a failing command")
            elif not written.is_file():
                problems.append(f"{written.name} missing")
            elif _sha256_file(written) != expected:
                problems.append(f"{written.name} differs from the expected bytes")
        if command.identity and Path(command.identity).is_file():
            # Checked on the text, independently of the library's `then`.
            lines = Path(command.identity).read_text(encoding="utf-8").splitlines()[1:]
            if any(len(set(line.split(" -> "))) != 1 for line in lines):
                problems.append("composing with the inverse is not the identity")
        return problems

    def _run_child(self, argv: list[str]) -> tuple[float, int, str, str, int]:
        """Run `nvbaker` in a child process and reap it with its own rusage."""
        out_path, err_path = self.outputs / ".stdout", self.outputs / ".stderr"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(self.root / "src"), env.get("PYTHONPATH")])
        )
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o600),
            (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o600),
        ]
        full = [sys.executable, "-m", "nvbaker.cli", *argv]
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, full, env, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        seconds = time.perf_counter() - start
        code = os.waitstatus_to_exitcode(status)
        out = out_path.read_text(encoding="utf-8")
        err = err_path.read_text(encoding="utf-8")
        out_path.unlink()
        err_path.unlink()
        return seconds, code, out, err, usage.ru_maxrss

    @staticmethod
    def _run_inprocess(argv: list[str]) -> tuple[float, int, str, str, int]:
        """Run `cli.main` in this process, as the child would run it."""
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except Exception:
                traceback.print_exc()
                code = 1
        seconds = time.perf_counter() - start
        return seconds, code, out.getvalue(), err.getvalue(), 0


WORKLOADS = {
    "audit_batch": AuditBatch,
    "cli_session": CliSession,
}
