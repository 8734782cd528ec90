"""Write the report goldens that pin the relation suites' JSON output.

    PYTHONPATH=src python tests/goldens/make_report_goldens.py

Each case is one CLI call run with --jobs 1 --no-timing, whose stdout is
stored verbatim, or one library call whose reports are serialized with
their millis zeroed.  The files go to tests/goldens/reports/ and
tests/test_report_goldens.py compares against them byte for byte.

The script also writes tests/goldens/catalogs.json: every entry of the
daha and aux identity catalogs at ranks 1..5 and of the bqt catalog at
ranks 1..5 and flavors 0..n, with anchors, instance labels and both sides,
so the catalogs are pinned at ranks the report goldens do not reach.

Rerun this script only when a report or catalog is meant to change, and
review the diff.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

REPORT_DIR = Path(__file__).parent / "reports"
CATALOG_PATH = Path(__file__).parent / "catalogs.json"
CATALOG_RANKS = range(1, 6)

_CLI_FLAGS = ["--jobs", "1", "--no-timing"]

# name -> (CLI argv, or the name of a library call; expected exit code)
CASES = {
    "daha_poly_n3_d2": ("check daha --module poly --n 3 --dmax 2", 0),
    "daha_murnaghan1_n3_d1": ("check daha --module murnaghan --shape 1 --n 3 --dmax 1", 0),
    "bqt_poly_n3_k3_d3": ("check bqt --module poly --n 3 --kmax 3 --dmax 3", 0),
    "bqt_murnaghan1_n3_k2_d2": (
        "check bqt --module murnaghan --shape 1 --n 3 --kmax 2 --dmax 2",
        0,
    ),
    "aux_poly_n3_d2": ("check aux --module poly --n 3 --dmax 2", 0),
    "aux_murnaghan1_n3_d1": ("check aux --module murnaghan --shape 1 --n 3 --dmax 1", 0),
    "compat_poly_n3_d2": ("check compat --module poly --n 3 --dmax 2", 0),
    "compat_murnaghan1_n3_d2": (
        "check compat --module murnaghan --shape 1 --n 3 --dmax 2",
        0,
    ),
    "daha_poly_n2_d2_demazure_broken": (
        "check daha --module poly --n 2 --dmax 2 --demazure q-1",
        1,
    ),
    "bqt_poly_n3_k2_d2_demazure_broken": (
        "check bqt --module poly --n 3 --kmax 2 --dmax 2 --demazure q-1",
        1,
    ),
    "bqt_poly_n3_k2_d2_probabilistic_seed3": (
        "check bqt --module poly --n 3 --kmax 2 --dmax 2 --probabilistic --seed 3",
        0,
    ),
    "compat_poly_n3_d2_broken_connector": ("library", None),
    "towers_polynomial_k1_d2": ("library", None),
}


def _library_reports(name: str) -> list:
    from bqt.limits import CompatSeqSpec
    from bqt.relations import check_bqt_relations_on_towers, check_compatibility

    if name == "compat_poly_n3_d2_broken_connector":
        return check_compatibility(CompatSeqSpec("polynomial"), 3, 2, broken_connector=True)
    if name == "towers_polynomial_k1_d2":
        return check_bqt_relations_on_towers(CompatSeqSpec("polynomial"), 1, 2)
    raise KeyError(name)


def render(name: str) -> tuple[int | None, str]:
    """Exit code (None for library calls) and the exact text to compare."""
    spec, _ = CASES[name]
    if spec == "library":
        objs = [r.to_obj() for r in _library_reports(name)]
        for obj in objs:
            obj["millis"] = 0.0
        return None, json.dumps(objs, indent=2, sort_keys=True) + "\n"
    from bqt.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = main(spec.split() + _CLI_FLAGS)
    return rc, out.getvalue()


def golden_path(name: str) -> Path:
    return REPORT_DIR / f"{name}.json"


def render_catalogs() -> str:
    """The exact text of catalogs.json: a JSON object from "suite n=.. [k=..]"
    to its catalog, with one line per relation header and per instance."""
    from bqt.relations import aux_identities, bqt_identities, daha_identities
    from bqt.scalars import QT

    def side(expr):
        return [[str(coeff), [list(sym) for sym in word]] for coeff, word in expr]

    catalogs = {}
    for n in CATALOG_RANKS:
        catalogs[f"daha n={n}"] = daha_identities(n, QT)
        catalogs[f"aux n={n}"] = aux_identities(n, QT)
        for k in range(n + 1):
            catalogs[f"bqt n={n} k={k}"] = bqt_identities(n, k, QT)
    blocks = []
    for key, catalog in catalogs.items():
        entries = []
        for rel_id, anchor, items in catalog:
            head = json.dumps({"relation_id": rel_id, "anchor": anchor})[:-1]
            insts = ",".join(
                "\n   " + json.dumps({"label": it.label, "lhs": side(it.lhs), "rhs": side(it.rhs)})
                for it in items
            )
            entries.append(f'  {head}, "instances": [{insts}\n  ]}}')
        blocks.append(f" {json.dumps(key)}: [\n" + ",\n".join(entries) + "\n ]")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main() -> int:
    REPORT_DIR.mkdir(exist_ok=True)
    for name, (_, expected_rc) in CASES.items():
        rc, text = render(name)
        if rc != expected_rc:
            print(f"{name}: exit code {rc}, expected {expected_rc}", file=sys.stderr)
            return 1
        golden_path(name).write_text(text)
        print(f"wrote {golden_path(name)}")
    CATALOG_PATH.write_text(render_catalogs())
    print(f"wrote {CATALOG_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
