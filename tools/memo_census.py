"""Census of what the realizations' memos hold after one pass of a workload.

    python3 tools/memo_census.py --workload NAME [--seed N]

Runs one pass of a perfbench workload in this process, with bqt imported
from ``./src`` and the workload read from ``perfbench/workloads.py``: its
set-up, then every unit in the seeded order.  It then finds every keyed
realization the process still holds and prints one JSON object: for each
builder of the memo (named as ``keyed.derived`` names it), the entries, the
(key, scalar) pairs they store and the ``sys.getsizeof`` bytes of the entry
tuples, summed over all realizations, and the same under ``total``; it
also lists the units that failed their gate or raised.  The
bytes count the tuples of each entry and not the keys or scalars in them,
which the memo shares with the pool, the basis and the other entries.

``daha_murnaghan_jobs2`` is not offered: its units build their memos in
pool workers, which return reports and no realization.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS_IN_PROCESS = ("daha_murnaghan", "bqt_poly", "limit_pol")


def entry_size(entry: tuple) -> tuple[int, int]:
    """The pairs an entry (keys, scalars) stores and the bytes of its three tuples."""
    keys, scalars = entry
    return len(keys), sys.getsizeof(entry) + sys.getsizeof(keys) + sys.getsizeof(scalars)


def census(realizations) -> dict:
    """builder name -> {"entries", "pairs", "bytes"} over the realizations' memos,
    with their sums under "total"."""
    out: dict[str, dict[str, int]] = {}
    total = {"entries": 0, "pairs": 0, "bytes": 0}
    for M in realizations:
        for (build, _, _), entry in M._memo.items():
            pairs, size = entry_size(entry)
            row = out.setdefault(build.__qualname__, {"entries": 0, "pairs": 0, "bytes": 0})
            for acc in (row, total):
                acc["entries"] += 1
                acc["pairs"] += pairs
                acc["bytes"] += size
    return {**dict(sorted(out.items())), "total": total}


def live_realizations(keyed_realization: type) -> list:
    """Every instance of the realization class that the collector tracks."""
    return [o for o in gc.get_objects() if isinstance(o, keyed_realization)]


def run(workload: str, seed: int) -> dict:
    """One seeded pass of the workload, then the census and the units that failed
    their gate or raised."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import bqt
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]
    ctx = wl.build(bqt, False)
    failures = []
    for unit in wl.ordered_units(seed):
        try:
            ok, detail, _ = wl.check(unit, wl.call(bqt, ctx, unit))
        except Exception as exc:  # a raising unit is a failed unit, as in perfbench
            ok, detail = False, f"raised {exc!r}"
        if not ok:
            failures.append(f"{unit}: {detail}")
    found = live_realizations(bqt.keyed.KeyedRealization)
    return {"workload": workload, "seed": seed, "failures": failures,
            "realizations": len(found), "builders": census(found)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0], allow_abbrev=False)
    parser.add_argument("--workload", required=True, choices=WORKLOADS_IN_PROCESS)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    print(json.dumps(run(args.workload, args.seed), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
