"""nvbaker benchmark: one workload per run, outputs checked exactly.

Run from the repository root:

    python3 perfbench/run.py --workload audit_batch --seed 1 --seconds 50 --trace 0

Workloads are defined in `workloads.py`. A run first times `SETUP_PROBES`
fresh interpreters that import nvbaker and build the workload's seeded
inputs, then builds the inputs itself and repeats passes over the workload
until ``--seconds`` have passed, checking every output of every pass.

``--trace 0`` prints the end-to-end metrics (medians over passes):
``wall_s`` (one pass, set-up done to checks passed), ``setup_s``,
``peak_rss_mb`` (this process, or the largest child command for
cli_session), ``job_p50_s`` and ``job_p90_s`` (per operation).

``--trace 1`` prints the per-layer metrics instead. Half the time runs
untraced passes and half runs passes under `tracer.Tracer`, which wraps the
library's functions from outside; ``trace.*`` compares the two. cli_session
runs its commands in-process through ``cli.main`` for both halves, after
one pass of child processes that ``cli.startup_s`` is taken from.

The last line of standard output is the JSON result; the lines before it
give each metric with its unit and the environment. A failed check prints
its reason, counts in ``failed``, and contributes no timing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOAD_NAMES = ("audit_batch", "cli_session")
DEFAULT_SEED = 1
SETUP_PROBES = 5


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Run one nvbaker benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help="workload seed; seed 7 is held out, so check a claimed gain on it too",
    )
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def _p90(values: list[float]) -> float | None:
    if len(values) < 2:
        return values[0] if values else None
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def _setup_seconds(args: argparse.Namespace, workdir: Path) -> list[float]:
    """Wall time of fresh interpreters that import nvbaker and build inputs."""
    times = []
    for probe in range(SETUP_PROBES):
        argv = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed),
            "--setup-only", str(workdir / f"probe-{probe}"),
        ]
        start = time.perf_counter()
        subprocess.run(argv, check=True, timeout=120)
        times.append(time.perf_counter() - start)
    return times


def _run_passes(workload, seconds: float, inprocess: bool, traced: bool = False):
    """Repeat passes for about `seconds`; (wall, jobs, tracer) per pass.

    Another pass starts while more than half of the last one's wall time is
    left, so a run overshoots or falls short by at most half a pass.
    """
    from workloads import Job

    results = []
    deadline = time.perf_counter() + seconds
    while True:
        tracer = Tracer() if traced else None
        start = time.perf_counter()
        try:
            if tracer is None:
                jobs = workload.run_pass(inprocess)
            else:
                with tracer:
                    jobs = workload.run_pass(inprocess)
        except Exception as exc:
            traceback.print_exc()
            jobs = [Job("pass", 0.0, False, f"raised {exc!r}")]
        wall = time.perf_counter() - start
        results.append((wall, jobs, tracer))
        if time.perf_counter() + wall / 2 >= deadline:
            return results


def _ok_passes(results):
    return [r for r in results if all(job.ok for job in r[1])]


Metrics = dict[str, tuple[float | None, str]]


def _end_to_end(args, workload, setup: list[float]) -> tuple[Metrics, list]:
    results = _run_passes(workload, args.seconds, inprocess=False)
    ok = _ok_passes(results)
    latencies = [job.seconds for _, jobs, _ in ok for job in jobs]
    if args.workload == "cli_session":
        peak_kb = max((job.peak_rss_kb for _, jobs, _ in ok for job in jobs), default=0)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "wall_s": (_median([wall for wall, _, _ in ok]), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_kb / 1024 if ok else None, "MB"),
        "job_p50_s": (_median(latencies), "s"),
        "job_p90_s": (_p90(latencies), "s"),
    }
    return metrics, results


def _per_layer(args, workload) -> tuple[Metrics, list]:
    children = []
    if args.workload == "cli_session":
        # Child wall per command, to subtract the in-process main time from.
        children = _run_passes(workload, 0, inprocess=False)
    untraced = _run_passes(workload, args.seconds / 2, inprocess=True)
    traced = _run_passes(workload, args.seconds / 2, inprocess=True, traced=True)
    results = children + untraced + traced
    startup = []
    if _ok_passes(children) and _ok_passes(untraced):
        for index, child in enumerate(children[0][1]):
            main_s = statistics.median(r[1][index].seconds for r in _ok_passes(untraced))
            startup.append(child.seconds - main_s)

    ok_traced = _ok_passes(traced)
    per_pass = [tracer.metrics() for _, _, tracer in ok_traced]
    metrics: Metrics = {}
    for name, (_, unit) in Tracer().metrics().items():
        metrics[name] = (_median([m[name][0] for m in per_pass]), unit)
    metrics["cli.startup_s"] = (statistics.median(startup) if startup else 0.0, "s")
    traced_wall = _median([wall for wall, _, _ in ok_traced])
    untraced_wall = _median([wall for wall, _, _ in _ok_passes(untraced)])
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.overhead_ratio"] = (
        traced_wall / untraced_wall if traced_wall and untraced_wall else None,
        "ratio",
    )
    return metrics, results


def _git_commit() -> str | None:
    """HEAD's commit, read from the checkout's own .git if there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _environment() -> dict[str, object]:
    return {
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "src_lines": sum(
            len(path.read_text(encoding="utf-8").splitlines())
            for path in sorted(SRC.rglob("*.py"))
        ),
    }


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    if not (SRC / "nvbaker" / "__init__.py").is_file():
        print(f"error: no nvbaker sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import nvbaker

    if not Path(nvbaker.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported nvbaker from {nvbaker.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.setup_only:
        WORKLOADS[args.workload](args.seed, Path(args.setup_only))
        return 0

    shutil.rmtree(WORK, ignore_errors=True)
    try:
        if args.trace:
            workload = WORKLOADS[args.workload](args.seed, WORK / "run")
            metrics, results = _per_layer(args, workload)
        else:
            setup = _setup_seconds(args, WORK)
            workload = WORKLOADS[args.workload](args.seed, WORK / "run")
            metrics, results = _end_to_end(args, workload, setup)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    jobs = [job for _, pass_jobs, _ in results for job in pass_jobs]
    failed = [job for job in jobs if not job.ok]
    for job in failed:
        print(f"FAILED {job.name}: {job.detail}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    env = _environment()
    env.update(workload=args.workload, seed=args.seed, passes=len(results), jobs=len(jobs))
    print("env " + json.dumps(env, sort_keys=True))
    correct = bool(jobs) and not failed
    result = {
        "correct": correct,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
