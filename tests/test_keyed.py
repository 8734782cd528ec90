"""The keyed generator-table engine: derived-operator tables and the scalar pool.

Each tabled operator is checked against the primitive word it stands for,
applied generator by generator through apply_word: Y_i on random vectors of
all three realizations, and z_i, d_+ and d_- on flavored spanning vectors of
polynomial modules, over Q(q,t) and over a prime field.  A bad index or
flavor must raise before any table entry is stored.  Table application,
which sums the products landing on one key through ring.lincomb, is checked
against adding the products one by one.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bqt.errors import FlavorAtMax, IndexOutOfRange
from bqt.induced import InducedRealization
from bqt.keyed import accumulate
from bqt.lspaces import (
    FLAVORED_ALPHABET,
    LVector,
    d_minus,
    d_plus,
    lk_spanning_set,
    t_action,
    z_action,
)
from bqt.polyrep import PolyRealization, apply_word, apply_Y, y_chain
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
    tables = [(M._derived_table, y_chain, i)]
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
        assert any(op is y_chain for op, _, _ in M._derived_memo)
        for R in (M, M.seed):
            tables = (R._ti_memo, R._tinv_memo, R._pi_memo, R._derived_memo)
            scalars = [c for t in tables for entry in t.values() for _, c in entry]
            objects_by_text: dict = {}
            for c in scalars:
                objects_by_text.setdefault(str(c), set()).add(id(c))
            assert all(len(ids) == 1 for ids in objects_by_text.values())
            assert len(objects_by_text) < len(scalars)


def z_word(n: int, i: int, ring) -> tuple:
    return (("Scalar", ring.q_power(-1) * ring.t_power(-1)),) + y_word(n, i, ring)


def dplus_word(k: int, ring) -> tuple:
    """q^k X_1 T_1^{-1} .. T_k^{-1}."""
    return (("Scalar", ring.q_power(k)), ("X", 1)) + tuple(("Tinv", j) for j in range(1, k + 1))


def dminus_words(n: int, k: int, ring) -> list:
    """(q-1) q^r T_{k+r-1}^{-1} .. T_k^{-1} for r = 0 .. n-k; d_- is their sum."""
    qm1 = ring.q - ring.one
    return [
        (("Scalar", qm1 * ring.q_power(r)),) + tuple(("Tinv", j) for j in range(k + r - 1, k - 1, -1))
        for r in range(n - k + 1)
    ]


@st.composite
def flavored_vectors(draw):
    n = draw(st.integers(1, 4))
    ring_name = draw(st.sampled_from(sorted(RINGS)))
    M = realization("poly", (), n, ring_name)
    ring = M.ring
    k = draw(st.integers(0, n))
    d = k + draw(st.integers(0, 1 if n == 4 else 2))
    span = lk_spanning_set(M, k, d)
    picks = draw(st.lists(st.sampled_from(span), min_size=1, max_size=3))
    payload = M.zero()
    for lv in picks:
        c = ring.from_int(draw(st.integers(-3, 3))) * ring.q_power(draw(st.integers(-1, 1)))
        payload = payload.add(lv.payload.scale(c))
    return M, LVector(k, payload)


@given(flavored_vectors())
@settings(max_examples=60, deadline=None)
def test_tabled_flavored_operators_equal_their_primitive_words(case):
    M, lv = case
    n, k, ring, v = M.n, lv.k, M.ring, lv.payload
    for i in range(1, k + 1):
        assert z_action(M, lv, i) == LVector(k, apply_word(M, v, z_word(n, i, ring)))
    if k < n:
        assert d_plus(M, lv) == LVector(k + 1, apply_word(M, v, dplus_word(k, ring)))
    if k >= 1:
        total = M.zero()
        for word in dminus_words(n, k, ring):
            total = total.add(apply_word(M, v, word))
        assert d_minus(M, lv) == LVector(k - 1, total)


def test_bad_index_or_flavor_raises_before_any_table_entry():
    for ring in RINGS.values():
        M = PolyRealization(3, ring)
        (e,) = [b for b in M.basis(2) if b.coeffs == {(1, 1, 0): ring.one}]
        lv = LVector(2, e)
        bad = [
            (IndexOutOfRange, lambda: z_action(M, lv, 3)),
            (IndexOutOfRange, lambda: z_action(M, lv, 0)),
            (IndexOutOfRange, lambda: t_action(M, lv, 2)),
            (IndexOutOfRange, lambda: apply_word(M, lv, (("Tinv", 2),), FLAVORED_ALPHABET)),
            (IndexOutOfRange, lambda: apply_Y(M, e, 4)),
            (FlavorAtMax, lambda: d_plus(M, LVector(3, e))),
        ]
        for error, call in bad:
            with pytest.raises(error):
                call()
        assert not (M._ti_memo or M._tinv_memo or M._pi_memo or M._derived_memo)
        assert not M._pool
        d_minus(M, lv)
        assert M._derived_memo and M._tinv_memo
