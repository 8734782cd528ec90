"""tools/line_census.py: the unrun executable lines of two quick test targets.

The census itself runs outside tier-1; here it traces two fast tests in a
fresh interpreter, so the engine is imported under the trace hook as it is
in a full census.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("line_census", ROOT / "tools" / "line_census.py")
line_census = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(line_census)

# the first test hits the recursion limit, which turns the trace hook off;
# the census turns it back on for the second
TARGETS = [
    "tests/test_cli.py::test_deeply_nested_input_exits_2_with_message[coeff_parentheses]",
    "tests/test_lspaces.py::test_row_basis_rank_and_membership",
]


def line_of(path: Path, text: str) -> int:
    """The number of the line of the module that holds text; exactly one does."""
    (number,) = [i for i, line in enumerate(path.read_text().splitlines(), 1) if text in line]
    return number


def test_census_of_one_test_lists_what_it_did_not_run(tmp_path):
    out = tmp_path / "census.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "line_census.py"), "--out", str(out),
         *TARGETS, "-q", "-p", "no:cacheprovider"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "the hook was turned back on before 1 tests" in proc.stderr
    assert "known blind spot: bqt.schedule" in proc.stderr
    unrun = json.loads(out.read_text())
    modules = sorted(f"bqt.{p.stem}" for p in line_census.PACKAGE.glob("*.py"))
    assert sorted(unrun) == modules
    linalg = line_census.PACKAGE / "linalg.py"
    executable = line_census.executable_lines(linalg)
    assert set(unrun["bqt.linalg"]) < executable
    # the test reads the rank of a RowBasis, and never solves for a vector
    rank = line_of(linalg, "return len(self.rows)")
    solve = line_of(linalg, "return {j: -c for j, c in coords.items()")
    assert {rank, solve} <= executable
    assert rank not in unrun["bqt.linalg"] and solve in unrun["bqt.linalg"]
    # a forked worker's lines are never seen
    serve = line_of(line_census.PACKAGE / "schedule.py", "with writer:")
    assert serve in unrun["bqt.schedule"]
