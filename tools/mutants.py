"""A mutation gate for the exact core: every listed mutant must be killed.

Each row of `mutants.json` names a file under `src/nvbaker`, an exact old
text, the new text that replaces it, and the tests that must fail once it
does. For each row the script copies `src/` to a temporary directory,
applies the one edit there, and runs the row's tests in a child process
with the copy first on the path, so the checkout is never edited. First it
runs every named test on an unedited copy: they must all pass, or a failure
would say nothing about a mutant.

    python3 tools/mutants.py            # every row
    python3 tools/mutants.py 3 11       # rows 3 and 11, counted from 1

Exit status: 0 when every mutant is killed, 1 when one survives, 2 when a
row does not apply (its old text does not occur exactly once), a named test
does not run, or the unedited copy fails. The gate is not under pytest's
`testpaths`, so the Tier-1 suite does not collect it.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ROWS = Path(__file__).with_name("mutants.json")


def _copy_src(tmp: Path) -> Path:
    """A fresh copy of the checkout's `src/` under tmp, returning its package dir."""
    src = tmp / "src"
    if src.exists():
        shutil.rmtree(src)
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src / "nvbaker"


def _occurrences(package: Path, row: dict) -> int:
    """How many times the row's old text occurs in its file."""
    return (package / row["file"]).read_text(encoding="utf-8").count(row["old"])


def _apply(package: Path, row: dict) -> None:
    """Replace the row's old text, known to occur once, by its new text."""
    path = package / row["file"]
    path.write_text(path.read_text(encoding="utf-8").replace(row["old"], row["new"]),
                    encoding="utf-8")


def _pytest(tmp: Path, tests: list[str]) -> int:
    """Run tests against the copy in tmp; pytest's exit status."""
    env = dict(os.environ, PYTHONPATH=str(tmp / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
            "-o", f"pythonpath={tmp / 'src'}", *tests]
    done = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL)
    return done.returncode


def main(argv: list[str]) -> int:
    rows = json.loads(ROWS.read_text(encoding="utf-8"))
    chosen = [int(a) for a in argv] or list(range(1, len(rows) + 1))
    stale = [k for k in chosen if _occurrences(ROOT / "src" / "nvbaker", rows[k - 1]) != 1]
    for k in stale:
        print(f"error: row {k} ({rows[k - 1]['name']}): its old text does not occur "
              f"exactly once in {rows[k - 1]['file']}")
    if stale:
        return 2
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="nvbaker-mutants-") as name:
        tmp = Path(name)
        _copy_src(tmp)
        # The child must import the copy, not the checkout or an installed package.
        probe = subprocess.run(
            [sys.executable, "-c", "import nvbaker; print(nvbaker.__file__)"],
            cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(tmp / "src")),
            capture_output=True, text=True,
        )
        if not probe.stdout.startswith(str(tmp)):
            print(f"error: the child imports nvbaker from {probe.stdout.strip()!r}")
            return 2
        tests = sorted({t for k in chosen for t in rows[k - 1]["tests"]})
        if _pytest(tmp, tests) != 0:
            print("error: the named tests do not all pass on the unedited copy")
            return 2
        survived = errors = 0
        for k in chosen:
            row = rows[k - 1]
            _apply(_copy_src(tmp), row)
            status = _pytest(tmp, row["tests"])
            # pytest exits 1 when a test failed; anything else is no verdict.
            verdict = {0: "SURVIVED", 1: "killed"}.get(status, f"ERROR (pytest exit {status})")
            survived += status == 0
            errors += status not in (0, 1)
            print(f"{k:3d} {verdict:8s} {row['file']:18s} {row['name']}", flush=True)
    seconds = time.perf_counter() - start
    killed = len(chosen) - survived - errors
    print(f"{killed} of {len(chosen)} mutants killed, {survived} survived, "
          f"{errors} errors, in {seconds:.1f} s")
    return 2 if errors else 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
