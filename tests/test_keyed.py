"""The keyed generator-table engine: derived-operator tables and the scalar pool.

Each tabled operator is checked against the primitive word it stands for,
applied generator by generator through apply_word: Y_i on random vectors of
all three realizations, and z_i, d_+ and d_- on flavored spanning vectors of
polynomial modules, over Q(q,t) and over a prime field.  A bad index or
flavor must raise before any table entry is stored.  Table application,
which sums the products landing on one key through ring.lincomb, is checked
against adding the products one by one.

Table application and scale compute one scalar result per distinct
coefficient value inside one call when at least half of the call's
coefficients are objects seen earlier in it, and add and sub one sum per
distinct pair of values.  They are checked against the plain
product-by-product fold on vectors whose coefficients are some shared
objects and some distinct objects of equal value, value keys are checked to
be equal exactly when the scalars are, and a repeated application must leave
every table, the pool and the realization's attributes as they were.  Every
per-key table of a realization is one memo keyed by (builder, argument,
key), so an application on warm tables that adds any entry at all shows a
builder or an argument made afresh on each call.  After the bqt suite and a
z tower word, every memo key holds one of the module-level builders and an
int or None, and no entry is a copy of a Y_i entry rescaled for z_i, which
reads the Y_i table itself.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bqt.errors import FlavorAtMax, IndexOutOfRange
from bqt.induced import InducedRealization
from bqt.keyed import _repeats, accumulate, pi_entry, ti_entry, tinv_entry
from bqt.limits import CompatSeqSpec, apply_tower_word, limit_component
from bqt.lspaces import (
    FLAVORED_ALPHABET,
    d_minus,
    d_plus,
    dminus_entry,
    dplus_entry,
    lk_spanning_set,
    phi_entry,
    resolve,
    t_action,
    z_action,
)
from bqt.polyrep import (
    PolyRealization,
    apply_epsilon,
    apply_word,
    apply_Y,
    eps_image,
    eps_stage,
    y_entry,
)
from bqt.relations import all_passed, check_bqt_relations, check_daha_relations
from bqt.scalars import QT, ModPField, parse_scalar
from bqt.tableaux import SeedRealization, StandardTableau

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
    tables = [(M._table, y_entry, i), (M._table, pi_entry, None)]
    if i < M.n:
        tables += [(M._table, ti_entry, i), (M._table, tinv_entry, i)]
    for table, *args in tables:
        got = M._apply_table(v, table, *args)
        assert got == fold_table(M, v, table, *args)
        assert str(got) == str(fold_table(M, v, table, *args))


ONE_KEY_MODULES = [("poly", (), 3, 2), ("seed", (1, 1), 4, 0), ("induced", (1, 1), 3, 1)]


@pytest.mark.parametrize("ring_name", sorted(RINGS))
@pytest.mark.parametrize("kind, lam, n, dmax", ONE_KEY_MODULES)
def test_a_one_key_application_is_the_keys_entry(kind, lam, n, dmax, ring_name):
    M = realization(kind, lam, n, ring_name)
    ring = M.ring
    keys = [k for d in range(dmax + 1) for b in M.basis(d) for k in b.coeffs]
    tables = [(pi_entry, None)] + [(y_entry, i) for i in range(1, n + 1)]
    tables += [(b, i) for i in range(1, n) for b in (ti_entry, tinv_entry)]
    for key in keys:
        for c in (ring.one, ring.from_int(-2) * ring.q_power(-1), fresh_scalar(ring, "t/(1+q)")):
            v = M._vec({key: c})
            ops = [(lambda build=build, arg=arg: M.apply_entries(v, build, arg),
                    (M._table, build, arg)) for build, arg in tables]
            ops += [(lambda k=k: apply_epsilon(M, v, k), (eps_image, M, k))
                    for k in range(n + 1)]
            ops += [(lambda: M.apply_Ti(v, 1), (M._table, ti_entry, 1)),
                    (lambda: M.apply_Ti_inv(v, n - 1), (M._table, tinv_entry, n - 1)),
                    (lambda: M.apply_pi(v), (M._table, pi_entry, None)),
                    (lambda: apply_Y(M, v, n), (M._table, y_entry, n))]
            for op, (table, *args) in ops:
                got = op()
                assert_same(got, fold_table(M, v, table, *args))
                if c.is_one():
                    entry = dict(table(*args, key))
                    assert all(x is entry[k2] for k2, x in got.coeffs.items())
                    assert all(id(x) in M._pool_ids for x in got.coeffs.values())


def test_a_table_entry_holds_no_zero_scalar():
    # at q = 2 mod 7, a cube root of 1, the seminormal T_4 image of this
    # tableau has a zero coefficient; the entry drops it, as the fold would
    M = SeedRealization((1,), 5, ModPField(7, 2, 3))
    tau = StandardTableau(((1, 2, 3, 5), (4,)))
    assert any(c.is_zero() for _, c in M._ti_image(4, tau))
    for c in (M.ring.one, M.ring.from_int(3)):
        v = M._vec({tau: c})
        got = M.apply_Ti(v, 4)
        assert_same(got, fold_table(M, v, M._table, ti_entry, 4))
        assert not any(x.is_zero() for x in got.coeffs.values())
    assert not any(c.is_zero() for _, c in M._table(ti_entry, 4, tau))


def test_each_derived_builder_is_named_after_its_operator():
    builders = (y_entry, dplus_entry, dminus_entry, phi_entry)
    names = [b.__name__ for b in builders]
    assert len(set(names)) == 4 and len({b.__qualname__ for b in builders}) == 4
    assert names == ["derived(y_chain)", "derived(dplus_chain)", "derived(dminus_chain)",
                     "derived(phi_chain)"]


def test_equal_table_scalars_are_one_object():
    for ring in RINGS.values():
        M = InducedRealization((1,), 3, ring)
        assert all(r.status == "pass" for r in check_daha_relations(M, 1))
        assert any(b is y_entry for b, _, _ in M._memo)
        for R in (M, M.seed):
            scalars = [c for entry in R._memo.values() for _, c in entry]
            objects_by_text: dict = {}
            for c in scalars:
                objects_by_text.setdefault(str(c), set()).add(id(c))
            assert all(len(ids) == 1 for ids in objects_by_text.values())
            assert len(objects_by_text) < len(scalars)


def test_tinv_entries_equal_the_quadratic_relation_and_memo_ids_are_pooled():
    """Each T_i^{-1} entry is q^{-1}(T_i + (q-1)) multiplied out afresh, and every
    id the realization keys a memo by is the id of an object its pool holds."""
    for ring in RINGS.values():
        M = InducedRealization((1,), 3, ring)
        assert all(r.status == "pass" for r in check_daha_relations(M, 1))
        for R in (M, M.seed):
            tinv = {(i, key): e for (b, i, key), e in R._memo.items() if b is tinv_entry}
            assert tinv
            qinv = ring.q_power(-1)
            for (i, key), entry in tinv.items():
                want = {k: c * qinv for k, c in R._ti_image(i, key)}
                accumulate(want, key, (ring.q - ring.one) * qinv)
                assert dict(entry) == want
            pooled = {id(c) for c in R._pool.values()}
            assert R._pool_ids == pooled
            assert set(R._over_q) <= pooled
            assert all(id(m) in pooled for m in R._over_q.values())


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
    v = M.zero()
    for w in picks:
        c = ring.from_int(draw(st.integers(-3, 3))) * ring.q_power(draw(st.integers(-1, 1)))
        v = v.add(w.scale(c))
    return M, v, k


@given(flavored_vectors())
@settings(max_examples=60, deadline=None)
def test_tabled_flavored_operators_equal_their_primitive_words(case):
    M, v, k = case
    n, ring = M.n, M.ring
    for i in range(1, k + 1):
        assert z_action(M, v, k, i) == apply_word(M, v, z_word(n, i, ring))
    if k < n:
        assert d_plus(M, v, k) == apply_word(M, v, dplus_word(k, ring))
    if k >= 1:
        total = M.zero()
        for word in dminus_words(n, k, ring):
            total = total.add(apply_word(M, v, word))
        assert d_minus(M, v, k) == total


def test_bad_index_or_flavor_raises_before_any_table_entry():
    for ring in RINGS.values():
        M = PolyRealization(3, ring)
        (e,) = [b for b in M.basis(2) if b.coeffs == {(1, 1, 0): ring.one}]
        bad = [
            (IndexOutOfRange, lambda: z_action(M, e, 2, 3)),
            (IndexOutOfRange, lambda: z_action(M, e, 2, 0)),
            (IndexOutOfRange, lambda: t_action(M, e, 2, 2)),
            (IndexOutOfRange,
             lambda: apply_word(M, e, resolve((("Tinv", 2),), 2)[0], FLAVORED_ALPHABET)),
            (IndexOutOfRange, lambda: apply_Y(M, e, 4)),
            (FlavorAtMax, lambda: d_plus(M, e, 3)),
        ]
        for error, call in bad:
            with pytest.raises(error):
                call()
        assert not M._memo
        assert not M._pool
        d_minus(M, e, 2)
        built = {b for b, _, _ in M._memo}
        assert dminus_entry in built and tinv_entry in built


# equal values in different forms, numerators shared across denominators,
# and a denominator outside the factored base
VALUE_TEXTS = [
    "1", "q/q", "-1", "t", "t/q", "t/(1 + q)", "t*q/(q + q^2)", "q - 1", "(q^2 - 1)/(q + 1)",
    "1/(q + 1)", "(q^2 - t)/(1 - q*t)", "(t - q^2)/(q*t - 1)", "(q^2 - t)/(1 + q)",
]


def fresh_scalar(ring, text: str):
    """A new scalar object of the given value, never one shared with another call."""
    s = parse_scalar(text)
    return s if ring is QT else ring.convert(s)


@st.composite
def twin_coefficient_vectors(draw):
    """(M, v, w, c, i): v and w share keys; equal coefficients may or may not be one object."""
    kind, lam, n, dmax = draw(st.sampled_from(MODULES))
    M = realization(kind, lam, n, draw(st.sampled_from(sorted(RINGS))))
    basis = sorted({k for d in range(dmax + 1) for b in M.basis(d) for k in b.coeffs}, key=repr)
    texts = st.sampled_from(VALUE_TEXTS)

    def vec():
        keys = draw(st.lists(st.sampled_from(basis), min_size=1, max_size=6, unique=True))
        # few objects make most coefficients repeat one; fresh ones may be equal in value
        objects = [fresh_scalar(M.ring, draw(texts)) for _ in range(draw(st.integers(1, len(keys))))]
        return M._vec({k: draw(st.sampled_from(objects)) for k in keys})

    return M, vec(), vec(), fresh_scalar(M.ring, draw(texts)), draw(st.integers(1, n))


def folded(v, items):
    """dict(v.coeffs) with each (key, scalar) of items added by accumulate."""
    out = dict(v.coeffs)
    for k, c in items:
        accumulate(out, k, c)
    return v._like(out)


def assert_same(got, want):
    assert got == want
    assert str(got) == str(want)


@given(twin_coefficient_vectors())
@settings(max_examples=80, deadline=None)
def test_memoized_vector_ops_equal_the_plain_fold(case):
    M, v, w, c, i = case
    assert_same(v.scale(c), v._like({k: x * c for k, x in v.coeffs.items()}))
    assert_same(v.add(w), folded(v, w.coeffs.items()))
    assert_same(v.sub(w), folded(v, ((k, -x) for k, x in w.coeffs.items())))
    assert_same(v.sub(v), M.zero())
    tables = [(M._table, y_entry, i), (M._table, pi_entry, None)]
    if i < M.n:
        tables += [(M._table, ti_entry, i), (M._table, tinv_entry, i)]
    for table, *args in tables:
        assert_same(M._apply_table(v, table, *args), fold_table(M, v, table, *args))
    # one product per distinct value of a repeating input: equal products are one object
    if not c.is_one() and _repeats(v.coeffs):
        scaled = v.scale(c).coeffs.values()
        assert len({id(x) for x in scaled}) == len({str(x) for x in scaled})


@given(st.sampled_from(VALUE_TEXTS), st.sampled_from(VALUE_TEXTS), st.sampled_from(sorted(RINGS)))
@settings(max_examples=200, deadline=None)
def test_value_and_pool_keys_are_equal_exactly_when_the_values_are(a, b, ring_name):
    ring = RINGS[ring_name]
    x, y = fresh_scalar(ring, a), fresh_scalar(ring, b)
    assert (x.value_key() == y.value_key()) == (x == y)
    assert (x.pool_key() == y.pool_key()) == (x == y)
    if ring is QT:
        assert (x == y) == (str(x) == str(y))


def table_state(M) -> list:
    """Sizes of every table and pool of M (and of its seed), and M's attribute names."""
    out = []
    for R in (M, getattr(M, "seed", None)):
        if R is not None:
            memos = (R._memo, R._pool, R._over_q, R.cache)
            out += [sorted(vars(R)), [len(t) for t in memos]]
    return out


@given(twin_coefficient_vectors())
@settings(max_examples=40, deadline=None)
def test_application_on_warm_tables_leaves_the_realization_as_it_was(case):
    M, v, w, c, i = case
    ops = [
        lambda: apply_Y(M, v, i),
        lambda: v.scale(c).add(w).sub(v),
        lambda: M.apply_pi(v),
        lambda: apply_epsilon(M, v, i - 1),
    ]
    if i < M.n:
        ops += [lambda: M.apply_Ti(v, i), lambda: M.apply_Ti_inv(v, i)]
    # the flavored letters, each by its action and by its per-key table
    letters = [("z", i, i), ("dminus", i)]
    if M.kind != "seed":  # d_+ and phi multiply by X_1
        letters.append(("dplus", i - 1))
        if i < M.n:
            letters.append(("phi", i))
    for sym in letters:
        entry = FLAVORED_ALPHABET[sym[0]]
        ops += [
            lambda sym=sym: apply_word(M, v, (sym,), FLAVORED_ALPHABET),
            lambda sym=sym, entry=entry: M._apply_table(v, entry.table(M, v, *sym[1:])),
        ]
    for op in ops:
        first = op()
        before = table_state(M)
        assert_same(op(), first)
        assert table_state(M) == before


GENERATOR_BUILDERS = {ti_entry, tinv_entry, pi_entry, eps_stage}
MODULE_LEVEL_BUILDERS = GENERATOR_BUILDERS | {
    y_entry, dplus_entry, dminus_entry, phi_entry,
}


def test_memo_keys_hold_a_module_level_builder_and_no_z_copy_of_a_y_entry():
    M = PolyRealization(4)
    assert all_passed(check_bqt_relations(M, 4, 4))
    seq = CompatSeqSpec("polynomial")
    tower = limit_component(seq, 1, 2).towers[0]
    out = apply_tower_word(seq, tower, (("z", 1),))
    assert not out.is_zero()
    for n in out.components:  # z_1 read the Y_1 table of every rank of the tower
        assert any(build is y_entry for build, _, _ in seq.realization(n)._memo)
    qt_inv = QT.q_power(-1) * QT.t_power(-1)
    for R in (M, *seq._realizations.values()):
        y_over_qt = {
            (i, key): {k: c * qt_inv for k, c in entry}
            for (build, i, key), entry in R._memo.items()
            if build is y_entry
        }
        for (build, arg, key), entry in R._memo.items():
            assert build in MODULE_LEVEL_BUILDERS
            assert arg is None or type(arg) is int
            assert R.contains_key(key)
            # a T_i-fixed key's T_i entry, or a stage-n entry, is the key alone,
            # as Y_i/(qt) of a monomial can be; a z copy would be a derived entry
            if build not in GENERATOR_BUILDERS:
                assert dict(entry) != y_over_qt.get((arg, key))
    z = FLAVORED_ALPHABET["z"]
    for k in range(1, 5):
        for d in range(k, 5):
            for v in lk_spanning_set(M, k, d):
                for i in range(1, k + 1):
                    want = apply_Y(M, v, i).scale(qt_inv)
                    assert z_action(M, v, k, i) == want
                    fused = M._apply_table(v, z.table(M, v, k, i))
                    assert fused.scale(z.factor(M)) == want
