"""tools/memo_census.py: the census of the memo entries a pass leaves behind."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from bqt.keyed import KeyedRealization
from bqt.limits import CompatSeqSpec, limit_component

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("memo_census", ROOT / "tools" / "memo_census.py")
memo_census = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(memo_census)


def test_census_of_a_limit_cell_sums_every_entry_by_builder():
    seq = CompatSeqSpec("polynomial")
    limit_component(seq, 1, 3)
    realizations = list(seq._realizations.values())
    entries = [(b.__qualname__, e) for R in realizations for (b, _, _), e in R._memo.items()]
    got = memo_census.census(realizations)
    assert set(got) == {name for name, _ in entries} | {"total"}
    for name in set(got) - {"total"}:
        mine = [e for n, e in entries if n == name]
        assert got[name]["entries"] == len(mine)
        assert got[name]["pairs"] == sum(len(keys) for keys, _ in mine)
    for field in ("entries", "pairs", "bytes"):
        assert got["total"][field] == sum(row[field] for n, row in got.items() if n != "total")
    found = memo_census.live_realizations(KeyedRealization)
    assert all(any(F is R for F in found) for R in realizations)


def test_an_entry_counts_its_pairs_and_its_three_tuples():
    key, c = (1, 0), object()
    assert memo_census.entry_size(((key,), (c,))) == (
        1, sys.getsizeof(((), ())) + 2 * sys.getsizeof((key,)))
    assert memo_census.entry_size(((), ()))[0] == 0


def test_one_pass_of_limit_pol_prints_the_census():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "memo_census.py"), "--workload", "limit_pol"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert (out["workload"], out["seed"], out["failures"]) == ("limit_pol", 1, [])
    assert out["realizations"] > 0
    builders = out["builders"]
    assert {"eps_stage", "tinv_entry", "derived(dminus_chain)"} <= set(builders)
    assert "ti_entry" not in builders
    assert builders["total"]["pairs"] >= builders["total"]["entries"] > 0
