"""Relation-suite reports are byte-identical to the committed goldens.

The report and catalog goldens are written by
tests/goldens/make_report_goldens.py and never by this test: a missing
golden is a failure.
"""

import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).parent / "goldens" / "make_report_goldens.py"
_spec = importlib.util.spec_from_file_location("make_report_goldens", _SCRIPT)
goldens = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(goldens)


@pytest.mark.parametrize("name", sorted(goldens.CASES))
def test_report_matches_golden(name):
    path = goldens.golden_path(name)
    assert path.exists(), f"golden {path} is missing; write it with {_SCRIPT}"
    rc, text = goldens.render(name)
    assert rc == goldens.CASES[name][1]
    assert text.encode() == path.read_bytes()


def test_catalogs_match_golden():
    path = goldens.CATALOG_PATH
    assert path.exists(), f"golden {path} is missing; write it with {_SCRIPT}"
    assert goldens.render_catalogs().encode() == path.read_bytes()
