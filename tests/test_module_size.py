"""Every module of the engine stays below the size at which CPython's parser
grows its token buffer.

The parser doubles that buffer when a module passes 8,192 tokenize tokens.
The benchmark compiles src/bqt in every pass, so a module past that size
raises each workload's peak_rss_mb by about 5 % with no change in the work.
"""

import tokenize
from pathlib import Path

import pytest

TOKEN_LIMIT = 8192
SRC = Path(__file__).resolve().parents[1] / "src" / "bqt"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_stays_below_the_token_buffer(path):
    with path.open("rb") as fh:
        n = sum(1 for _ in tokenize.tokenize(fh.readline))
    assert n < TOKEN_LIMIT, (
        f"{path.name} has {n} tokenize tokens, at least {TOKEN_LIMIT}: see the FOUND line in "
        "CHANGES.md on how compiling the largest module sets peak_rss_mb"
    )
