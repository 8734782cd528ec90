"""The keyed generator-table engine: per-key Y_i tables and the scalar pool.

The tabled Y_i is checked against the primitive word it stands for, applied
generator by generator through apply_word, on random vectors of all three
realizations over Q(q,t) and over a prime field.  Table application, which
sums the products landing on one key through ring.lincomb, is checked against
adding the products one by one.
"""

from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from bqt.induced import InducedRealization
from bqt.keyed import accumulate
from bqt.polyrep import PolyRealization, apply_word, apply_Y
from bqt.relations import check_daha_relations
from bqt.scalars import QT, ModPField
from bqt.tableaux import SeedRealization

RINGS = {"qt": QT, "modp": ModPField(2**31 - 1, 5, 7)}

# (kind, shape, rank, largest degree of the random vectors)
MODULES = [
    ("poly", (), 1, 2),
    ("poly", (), 3, 2),
    ("poly", (), 4, 1),
    ("seed", (1,), 3, 0),
    ("seed", (1, 1), 4, 0),
    ("seed", (2,), 4, 0),
    ("induced", (1,), 2, 2),
    ("induced", (1, 1), 3, 1),
]


@lru_cache(maxsize=None)
def realization(kind: str, lam: tuple, n: int, ring_name: str):
    ring = RINGS[ring_name]
    if kind == "poly":
        return PolyRealization(n, ring)
    if kind == "seed":
        return SeedRealization(lam, n, ring)
    return InducedRealization(lam, n, ring)


def y_word(n: int, i: int, ring) -> tuple:
    """The primitive word of Y_i: q^(n-i+1) T_{i-1}..T_1 Pi T_{n-1}^{-1}..T_i^{-1}."""
    return (
        (("Scalar", ring.q_power(n - i + 1)),)
        + tuple(("T", j) for j in range(i - 1, 0, -1))
        + (("Pi",),)
        + tuple(("Tinv", j) for j in range(n - 1, i - 1, -1))
    )


@st.composite
def module_vectors(draw):
    kind, lam, n, dmax = draw(st.sampled_from(MODULES))
    ring_name = draw(st.sampled_from(sorted(RINGS)))
    M = realization(kind, lam, n, ring_name)
    ring = M.ring
    basis = [b for d in range(dmax + 1) for b in M.basis(d)]
    picks = draw(st.lists(st.sampled_from(basis), min_size=1, max_size=4))
    v = M.zero()
    for b in picks:
        c = ring.from_int(draw(st.integers(-3, 3))) * ring.q_power(draw(st.integers(-1, 1)))
        v = v.add(b.scale(c))
    i = draw(st.integers(1, n))
    return M, v, i


@given(module_vectors())
@settings(max_examples=60, deadline=None)
def test_tabled_Y_equals_its_primitive_word(case):
    M, v, i = case
    assert apply_Y(M, v, i) == apply_word(M, v, y_word(M.n, i, M.ring))


def fold_table(M, v, table, *args):
    """The linear extension of a table, adding each product c * m in turn."""
    out: dict = {}
    for key, c in v.coeffs.items():
        for k2, m in table(*args, key):
            accumulate(out, k2, c * m)
    return M._vec(out)


@given(module_vectors())
@settings(max_examples=40, deadline=None)
def test_table_application_equals_the_product_by_product_sum(case):
    M, v, i = case
    tables = [(M._y_table, i)]
    if i < M.n:
        tables += [(M._ti_table, i), (M._tinv_table, i)]
    for table, *args in tables:
        got = M._apply_table(v, table, *args)
        assert got == fold_table(M, v, table, *args)
        assert str(got) == str(fold_table(M, v, table, *args))


def test_equal_table_scalars_are_one_object():
    for ring in RINGS.values():
        M = InducedRealization((1,), 3, ring)
        assert all(r.status == "pass" for r in check_daha_relations(M, 1))
        assert M._y_memo
        for R in (M, M.seed):
            tables = (R._ti_memo, R._tinv_memo, R._pi_memo, R._y_memo)
            scalars = [c for t in tables for entry in t.values() for _, c in entry]
            objects_by_text: dict = {}
            for c in scalars:
                objects_by_text.setdefault(str(c), set()).add(id(c))
            assert all(len(ids) == 1 for ids in objects_by_text.values())
            assert len(objects_by_text) < len(scalars)
