"""Differential oracle: exact words against the same words over a prime field.

Evaluation at (q, t) = (q0, t0) mod p is a ring homomorphism, and every
operator is defined by the same generator formulas over both rings.  So a
word applied to a vector over Q(q,t) and then evaluated must give what the
same word gives on the evaluated vector over ModPField.  Hypothesis draws
words from the full module alphabet and the full flavored alphabet and
applies them to random vectors of all three realizations.  A word that
raises must raise the same error class over both rings.  The check never
reaches the gcd kernel on the prime-field side, so it also guards the
operator tables and the exact scalar kernel against each other.

The relation suites decide a word identity by one fused residual, lhs - rhs
summed per output key.  Its verdict is compared with lhs == rhs of the
two-sided evaluation on every catalog identity, over the module alphabet
and over the flavored one, and on random word pairs, over both rings, and
an identity whose word raises gets the same fail report either way.
"""

from functools import lru_cache
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bqt.errors import BqtError
from bqt.induced import InducedRealization
from bqt.lspaces import FLAVORED_ALPHABET, LVector, lk_spanning_set
from bqt.polyrep import WORD_ALPHABET, PolyRealization, apply_word
from bqt.relations import (
    Identity,
    _eval_expr,
    _module_identity_reports,
    _residual_vanishes,
    _sides,
    aux_identities,
    bqt_identities,
    check_bqt_relations,
    daha_identities,
    make_realization,
)
from bqt.scalars import QT, ModPField, parse_scalar
from bqt.tableaux import SeedRealization

F = ModPField(2**31 - 1, 5, 7)

# (kind, shape, rank, largest degree of the random vectors)
MODULES = [
    ("poly", (), 2, 2),
    ("poly", (), 3, 1),
    ("poly", (), 4, 1),
    ("seed", (1,), 3, 0),
    ("seed", (1, 1), 4, 0),
    ("induced", (1,), 2, 1),
    ("induced", (1, 1), 3, 1),
]

SCALARS = ["2", "-q", "t/q", "q - 1", "1/(q + 1)", "(q^2 - t)/(1 - q*t)"]


@lru_cache(maxsize=None)
def realizations(kind: str, lam: tuple, n: int) -> tuple:
    """The module over Q(q,t) and over F, each with its own tables."""
    if kind == "poly":
        return PolyRealization(n, QT), PolyRealization(n, F)
    if kind == "seed":
        return SeedRealization(lam, n, QT), SeedRealization(lam, n, F)
    return InducedRealization(lam, n, QT), InducedRealization(lam, n, F)


def evaluated(Mp, v):
    """The image of an exact module vector under evaluation at F's point."""
    coeffs = {k: F.convert(c) for k, c in v.coeffs.items()}
    return Mp._vec({k: c for k, c in coeffs.items() if not c.is_zero()})


def evaluated_word(word: tuple) -> tuple:
    return tuple(("Scalar", F.convert(s[1])) if s[0] == "Scalar" else s for s in word)


def outcome(M, v, word, alphabet):
    """The word's result on v, or the class of the BqtError it raised."""
    try:
        return apply_word(M, v, word, alphabet)
    except BqtError as err:
        return type(err)


def draw_vector(draw, M, dmax: int):
    basis = [b for d in range(dmax + 1) for b in M.basis(d)]
    v = M.zero()
    for b in draw(st.lists(st.sampled_from(basis), min_size=1, max_size=3)):
        v = v.add(b.scale(QT.from_int(draw(st.integers(-3, 3)))))
    return v


def draw_scalar(draw):
    return ("Scalar", parse_scalar(draw(st.sampled_from(SCALARS))))


def draw_word(draw, n: int) -> tuple:
    """One to three letters of the module alphabet with indices for rank n."""
    word = []
    for _ in range(draw(st.integers(1, 3))):
        tag = draw(st.sampled_from(sorted(WORD_ALPHABET)))
        if tag == "Scalar":
            word.append(draw_scalar(draw))
        elif WORD_ALPHABET[tag].arity == 0:
            word.append((tag,))
        else:
            lo, hi = {"T": (1, n - 1), "Tinv": (1, n - 1), "Eps": (0, n)}.get(tag, (1, n))
            word.append((tag, draw(st.integers(lo, max(lo, hi)))))
    return tuple(word)


@st.composite
def module_words(draw):
    kind, lam, n, dmax = draw(st.sampled_from(MODULES))
    M, Mp = realizations(kind, lam, n)
    return M, Mp, draw_vector(draw, M, dmax), draw_word(draw, n)


@st.composite
def flavored_words(draw):
    """A flavored vector and a word whose letters fit the flavor they act on.

    On modules with polynomial variables the vector is a combination of
    flavored spanning vectors; the seed module has none, so there a module
    vector is tagged with a flavor.  The word is built from its rightmost
    letter, tracking the flavor each letter meets.
    """
    kind, lam, n, dmax = draw(st.sampled_from(MODULES))
    M, Mp = realizations(kind, lam, n)
    k = draw(st.integers(0, n))
    if kind == "seed":
        payload = draw_vector(draw, M, 0)
    else:
        span = lk_spanning_set(M, k, k + draw(st.integers(0, dmax)))
        picks = draw(st.lists(st.sampled_from(span), min_size=1, max_size=2)) if span else []
        payload = M.zero()
        for lv in picks:
            payload = payload.add(lv.payload.scale(QT.from_int(draw(st.integers(-3, 3)))))
    lv = LVector(k, payload)
    word = []
    flavor = k
    for _ in range(draw(st.integers(1, 3))):
        tags = ["Scalar"]
        if flavor >= 2:
            tags += ["T", "Tinv"]
        if flavor >= 1:
            tags += ["z", "dminus"]
        if flavor < n:
            tags += ["dplus"]
        if 1 <= flavor < n:
            tags += ["phi"]
        tag = draw(st.sampled_from(tags))
        if tag == "Scalar":
            sym = draw_scalar(draw)
        elif tag in ("T", "Tinv"):
            sym = (tag, draw(st.integers(1, flavor - 1)))
        elif tag == "z":
            sym = (tag, draw(st.integers(1, flavor)))
        else:
            sym = (tag,)
        word.insert(0, sym)
        flavor += FLAVORED_ALPHABET[tag].flavor_shift
    return M, Mp, lv, tuple(word)


@given(module_words())
@settings(max_examples=80, deadline=None)
def test_module_words_commute_with_evaluation(case):
    M, Mp, v, word = case
    exact = outcome(M, v, word, WORD_ALPHABET)
    modp = outcome(Mp, evaluated(Mp, v), evaluated_word(word), WORD_ALPHABET)
    if isinstance(exact, type):
        assert modp is exact
    else:
        assert modp == evaluated(Mp, exact)


@given(flavored_words())
@settings(max_examples=60, deadline=None)
def test_flavored_words_commute_with_evaluation(case):
    M, Mp, lv, word = case
    exact = outcome(M, lv, word, FLAVORED_ALPHABET)
    modp_in = LVector(lv.k, evaluated(Mp, lv.payload))
    modp = outcome(Mp, modp_in, evaluated_word(word), FLAVORED_ALPHABET)
    if isinstance(exact, type):
        assert modp is exact
    else:
        assert modp == LVector(exact.k, evaluated(Mp, exact.payload))


# -- the fused residual against the two-sided evaluation --------------------


def fused_verdict(M, ident, v, alphabet=WORD_ALPHABET):
    """Whether lhs - rhs vanishes on v by the fused residual; "raises" on a BqtError."""
    try:
        return _residual_vanishes(M, ident, v, alphabet)
    except BqtError:
        return "raises"


def two_sided_verdict(M, ident, v, alphabet=WORD_ALPHABET):
    """Whether both sides, each evaluated and normalized, are equal; "raises" on a BqtError."""

    def apply(M, w, word):
        return apply_word(M, w, word, alphabet)

    try:
        return _eval_expr(apply, M, v, ident.lhs) == _eval_expr(apply, M, v, ident.rhs)
    except BqtError:
        return "raises"


def catalog_items(n: int, ring) -> list:
    return [
        ident
        for catalog in (daha_identities(n, ring), aux_identities(n, ring))
        for _, _, items in catalog
        for ident in items
    ]


# (kind, shape, rank, largest degree); "broken" is the q-1 negative control
CATALOG_MODULES = [
    ("poly", (), 3, 2),
    ("broken", (), 3, 1),
    ("seed", (1,), 3, 0),
    ("seed", (1, 1), 4, 0),
    ("induced", (1,), 3, 1),
    ("induced", (1, 1), 3, 1),
]


@pytest.mark.parametrize(
    "kind, lam, n, dmax",
    CATALOG_MODULES,
    ids=[f"{kind}{''.join(map(str, lam))}_n{n}" for kind, lam, n, _ in CATALOG_MODULES],
)
def test_fused_verdict_equals_two_sided_on_catalog_identities(kind, lam, n, dmax):
    if kind == "broken":
        modules = [PolyRealization(n, ring, "q-1") for ring in (QT, F)]
    else:
        modules = realizations(kind, lam, n)
    for M in modules:
        items = catalog_items(n, M.ring)
        for d in range(dmax + 1):
            for v in M.basis(d):
                for ident in items:
                    assert fused_verdict(M, ident, v) == two_sided_verdict(M, ident, v), ident


@st.composite
def word_pairs(draw):
    kind, lam, n, dmax = draw(st.sampled_from(MODULES))
    M, Mp = realizations(kind, lam, n)
    v = draw_vector(draw, M, dmax)
    a, b = draw_scalar(draw)[1], draw_scalar(draw)[1]
    return M, Mp, v, a, b, draw_word(draw, n), draw_word(draw, n)


def pair_identities(one, a, b, w1, w2) -> list:
    """w1 = w2 (rarely true), one that holds unless a word raises, and a swap."""
    return [
        Identity("", ((one, w1),), ((one, w2),)),
        Identity("", ((a + b, w1), (b, w2)), ((a, w1), (b, w1), (b, w2))),
        Identity("", ((a, w1), (b, w2)), ((a, w2), (b, w1))),
    ]


@given(word_pairs())
@settings(max_examples=60, deadline=None)
def test_fused_verdict_equals_two_sided_on_random_word_pairs(case):
    M, Mp, v, a, b, w1, w2 = case
    exact = pair_identities(QT.one, a, b, w1, w2)
    modp = pair_identities(
        F.one, F.convert(a), F.convert(b), evaluated_word(w1), evaluated_word(w2)
    )
    vp = evaluated(Mp, v)
    for ident, ident_p in zip(exact, modp):
        assert fused_verdict(M, ident, v) == two_sided_verdict(M, ident, v)
        assert fused_verdict(Mp, ident_p, vp) == two_sided_verdict(Mp, ident_p, vp)


def test_raising_identity_gives_the_two_sided_fail_report():
    one = QT.one
    catalog = [
        (
            "raises",
            "out-of-range indices",
            [
                # the left word's leftmost letter, read through its table, raises
                Identity("head", ((one, (("T", 9), ("X", 1))),), ((one, (("X", 1),)),)),
                # a right-side letter below the leftmost one raises
                Identity("rest", ((one, (("X", 1),)),), ((one, (("Y", 1), ("Tinv", 0))),)),
            ],
        )
    ]
    M = PolyRealization(3, QT)

    def report():
        (rep,) = _module_identity_reports(M, catalog, 1, None, False)
        return {k: v for k, v in rep.to_obj().items() if k != "millis"}

    fused = report()
    with patch(
        "bqt.relations._word_sides", lambda M, ident, v: _sides(apply_word, M, ident, v)
    ):
        two_sided = report()
    assert fused == two_sided
    assert fused["status"] == "fail" and fused["vectors_checked"] == 8
    assert fused["counterexample"] == {
        "error": "IndexOutOfRange",
        "message": "T index 9 outside 1..2",
        "instance": "head",
        "vector": "(1)",
    }


# -- the flavored bqt suite: fused against two-sided --------------------------

# module, largest flavor and largest degree
BQT_MODULES = {
    "poly_n3": ({"module": "poly", "n": 3}, 3, 3),
    "murnaghan1_n3": ({"module": "murnaghan", "shape": [1], "n": 3}, 2, 2),
}
RINGS = {"QT": QT, "modp": F}


def bqt_report_objs(desc, ring, k_max, d_max, two_sided: bool) -> list[dict]:
    """The bqt suite's report objects without millis; with two_sided, every case
    goes to the two-sided evaluation."""
    M = make_realization(desc, ring)
    if not two_sided:
        reports = check_bqt_relations(M, k_max, d_max)
    else:
        with patch("bqt.relations._residual_vanishes", lambda *args: False):
            reports = check_bqt_relations(M, k_max, d_max)
    return [{k: v for k, v in r.to_obj().items() if k != "millis"} for r in reports]


def bqt_verdicts(M, k_max, d_max):
    """(fused, two-sided) verdicts of every bqt catalog identity on every spanning vector."""
    for k in range(min(k_max, M.n) + 1):
        for _, _, items in bqt_identities(M.n, k, M.ring):
            for ident in items:
                for d in range(k, d_max + 1):
                    for lv in lk_spanning_set(M, k, d):
                        yield (fused_verdict(M, ident, lv, FLAVORED_ALPHABET),
                               two_sided_verdict(M, ident, lv, FLAVORED_ALPHABET))


@pytest.mark.parametrize("ring", sorted(RINGS))
@pytest.mark.parametrize("module", sorted(BQT_MODULES))
def test_fused_bqt_verdicts_equal_the_two_sided_ones(module, ring):
    desc, k_max, d_max = BQT_MODULES[module]
    verdicts = list(bqt_verdicts(make_realization(desc, RINGS[ring]), k_max, d_max))
    assert all(got == (True, True) for got in verdicts)
    fused = bqt_report_objs(desc, RINGS[ring], k_max, d_max, False)
    assert fused == bqt_report_objs(desc, RINGS[ring], k_max, d_max, True)
    assert len(verdicts) == sum(r["vectors_checked"] for r in fused) > 0


# cases whose fused and two-sided verdicts differ, of all cases, when the
# fused path sums the Y_i table for z_i without z's factor (qt)^{-1}
DROPPED_Z_FACTOR_DIFFERS = {"poly_n3": (46, 114), "murnaghan1_n3": (26, 67)}


@pytest.mark.parametrize("ring", sorted(RINGS))
@pytest.mark.parametrize("module", sorted(BQT_MODULES))
def test_fused_bqt_verdicts_catch_a_dropped_z_factor(module, ring):
    desc, k_max, d_max = BQT_MODULES[module]
    dropped = {"z": FLAVORED_ALPHABET["z"]._replace(factor=None)}
    with patch.dict(FLAVORED_ALPHABET, dropped):
        with pytest.raises(AssertionError):
            test_fused_bqt_verdicts_equal_the_two_sided_ones(module, ring)
        verdicts = list(bqt_verdicts(make_realization(desc, RINGS[ring]), k_max, d_max))
    assert set(verdicts) == {(True, True), (False, True)}
    differ = sum(fused != two_sided for fused, two_sided in verdicts)
    assert (differ, len(verdicts)) == DROPPED_Z_FACTOR_DIFFERS[module]


@pytest.mark.parametrize("ring", sorted(RINGS))
def test_fused_bqt_suite_under_the_sign_flip_gives_the_two_sided_counterexamples(ring):
    desc = {"module": "poly", "n": 3, "demazure_coefficient": "q-1"}
    verdicts = list(bqt_verdicts(make_realization(desc, RINGS[ring]), 3, 3))
    assert all(fused == two_sided for fused, two_sided in verdicts)
    assert (False, False) in verdicts
    fused = bqt_report_objs(desc, RINGS[ring], 3, 3, False)
    assert fused == bqt_report_objs(desc, RINGS[ring], 3, 3, True)
    failed = [r for r in fused if r["status"] == "fail"]
    assert failed and all("counterexample" in r for r in failed)
