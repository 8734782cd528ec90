"""Census of the engine's executable lines that a test run never runs.

    python3 tools/line_census.py --out FILE [PYTEST_ARGS ...]

Runs pytest in this process, by default on the tier-1 suite (``tests/``),
with a ``sys.settrace`` hook that records line events in the modules of
``src/bqt`` only.  The engine is imported from ``src`` after the hook is
installed, so module-level lines count as run when a test imports them.
A line is executable when the compiled module lists it in the line table of
some code object (the module, its classes, functions, lambdas and
comprehensions).  The census is written as JSON, ``{module: [unrun
executable lines]}`` with every module of ``bqt`` as a key, to FILE; a
summary goes to stderr.  The exit code is pytest's.

Known blind spots, whose lines are listed as unrun unless another test runs
them:

- code that runs only in forked pool workers, because a worker's line
  events stay in the worker: the worker loop ``schedule._serve`` and what a
  ``bqt check --jobs N`` task runs there;
- the rest of a test after it hits the recursion limit: CPython turns the
  trace hook off when calling it raises, so the census turns it back on
  before the next test, and the stderr summary says how often.

Tracing makes the run about four times slower (300 s against 72 s for
tier-1 on a 2-core host with Python 3.11), so the census stays out of
tier-1 itself.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "bqt"
DEFAULT_PYTEST_ARGS = ["tests", "-q", "-p", "no:cacheprovider"]
BLIND_SPOTS = {"bqt.schedule": "_serve runs only in forked pool workers"}


def executable_lines(path: Path) -> set[int]:
    """Line numbers that the line tables of the module's code objects name."""
    lines: set[int] = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


class Census:
    """The lines of the bqt modules run while the hook is on; also a pytest
    plugin that turns the hook back on before each test."""

    def __init__(self):
        self.modules = {str(p): f"bqt.{p.stem}" for p in sorted(PACKAGE.glob("*.py"))}
        self.hits: dict[str, set[int]] = {f: set() for f in self.modules}
        self.rearmed = 0

    def _local(self, frame, event, arg):
        if event == "line":
            self.hits[frame.f_code.co_filename].add(frame.f_lineno)
        return self._local

    def _global(self, frame, event, arg):
        return self._local if frame.f_code.co_filename in self.hits else None

    def start(self) -> None:
        sys.settrace(self._global)

    def pytest_runtest_setup(self, item) -> None:
        if sys.gettrace() is None:
            self.rearmed += 1
            self.start()

    def unrun(self) -> dict[str, list[int]]:
        return {m: sorted(executable_lines(Path(f)) - self.hits[f]) for f, m in self.modules.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0], allow_abbrev=False)
    parser.add_argument("--out", required=True, help="census JSON file")
    args, pytest_args = parser.parse_known_args(argv)
    import pytest

    sys.path.insert(0, str(SRC))
    census = Census()
    census.start()
    try:
        code = pytest.main(pytest_args or DEFAULT_PYTEST_ARGS, plugins=[census])
    finally:
        sys.settrace(None)
    unrun = census.unrun()
    text = "{\n" + ",\n".join(f" {json.dumps(m)}: {json.dumps(v)}" for m, v in unrun.items()) + "\n}"
    Path(args.out).write_text(text + "\n")
    total = sum(len(executable_lines(Path(f))) for f in census.modules)
    missed = sum(len(lines) for lines in unrun.values())
    print(f"line census: {missed} of {total} executable lines unrun; the hook was turned "
          f"back on before {census.rearmed} tests", file=sys.stderr)
    for module, why in BLIND_SPOTS.items():
        print(f"known blind spot: {module}: {why}", file=sys.stderr)
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
