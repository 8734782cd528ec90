"""Exact field arithmetic: normalization, gcd, field axioms, text format.

sympy serves as the independent oracle for fraction reduction; hypothesis
drives the random-algebra properties.
"""

import functools
import random
import time
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from bqt.errors import DivisionByZero, ExactDivisionError, PoleAtPoint, ZeroDenominator
from bqt.factored import cancel_by_fac, packed_sum
from bqt.relations import check_daha_relations, make_realization
from bqt.scalars import (
    _FACTORED,
    _P_ONE,
    ONE,
    Q,
    QT,
    T,
    ZERO,
    MAX_POWER_BITS,
    IntPoly2,
    ModPField,
    QtScalar,
    _fac,
    _from_fac,
    _poly_divexact_generic,
    _poly_gcd_generic,
    parse_scalar,
    poly_divexact,
    poly_gcd,
)

_sq, _st_ = sympy.symbols("q t")


def sp(poly: IntPoly2):
    return sum(c * _sq**eq * _st_**et for (eq, et), c in poly.terms.items())


def poly_of(expr_text: str) -> IntPoly2:
    s = parse_scalar(expr_text)
    assert s.den_is_one()
    return s.num


@st.composite
def polys(draw, max_terms=5, max_exp=4, max_coeff=9):
    n = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n):
        eq = draw(st.integers(0, max_exp))
        et = draw(st.integers(0, max_exp))
        c = draw(st.integers(-max_coeff, max_coeff))
        if c:
            terms[(eq, et)] = c
    return IntPoly2.from_terms(terms)


@st.composite
def scalars(draw):
    num = draw(polys())
    den = draw(polys(max_terms=3).filter(lambda p: not p.is_zero()))
    return QtScalar.fraction(num, den)


# -- normalization ----------------------------------------------------------


def test_normalize_cancels_polynomial_factor():
    assert QtScalar.fraction(poly_of("q^2 - 1"), poly_of("q - 1")) == parse_scalar("q + 1")


def test_normalize_zero_numerator():
    s = QtScalar.fraction(IntPoly2.const(0), poly_of("q - t"))
    assert s == ZERO and str(s) == "0"


def test_normalize_common_factor_with_t():
    assert QtScalar.fraction(poly_of("q*t - q"), poly_of("t - 1")) == Q


def test_normalize_zero_denominator_rejected():
    with pytest.raises(ZeroDenominator):
        QtScalar.fraction(IntPoly2.const(1), IntPoly2.const(0))


@given(polys(), polys(max_terms=3))
@settings(max_examples=60, deadline=None)
def test_normalize_idempotent(num, den):
    if den.is_zero():
        return
    s = QtScalar.fraction(num, den)
    again = QtScalar.fraction(s.num, s.den)
    assert again == s


@given(polys(), polys(max_terms=3), polys(max_terms=2))
@settings(max_examples=60, deadline=None)
def test_normalize_insensitive_to_common_factor(num, den, extra):
    if den.is_zero() or extra.is_zero():
        return
    assert QtScalar.fraction(num * extra, den * extra) == QtScalar.fraction(num, den)


@given(polys(), polys(max_terms=3))
@settings(max_examples=40, deadline=None)
def test_reduction_agrees_with_sympy(num, den):
    if den.is_zero():
        return
    ours = QtScalar.fraction(num, den)
    theirs = sympy.cancel(sympy.Rational(1) * sp(num) / sp(den))
    # cross-multiplied comparison avoids depending on sympy's sign canon
    lhs = sympy.expand(sp(ours.num) * sympy.fraction(theirs)[1])
    rhs = sympy.expand(sp(ours.den) * sympy.fraction(theirs)[0])
    assert lhs == rhs


# -- gcd / exact division kernel -------------------------------------------


@given(polys(max_terms=4, max_exp=3), polys(max_terms=4, max_exp=3))
@settings(max_examples=60, deadline=None)
def test_divexact_inverts_multiplication(a, b):
    if b.is_zero():
        return
    assert poly_divexact(a * b, b) == a


@given(polys(max_terms=3, max_exp=2), polys(max_terms=3, max_exp=2), polys(max_terms=2, max_exp=2))
@settings(max_examples=40, deadline=None)
def test_gcd_divides_both_and_captures_common_factor(a, b, c):
    g = poly_gcd(a * c, b * c)
    if (a * c).is_zero() and (b * c).is_zero():
        assert g.is_zero()
        return
    # g divides both inputs (divexact raises otherwise) ...
    poly_divexact(a * c, g)
    poly_divexact(b * c, g)
    # ... and the planted common factor divides g
    if not c.is_zero() and (not a.is_zero() or not b.is_zero()):
        poly_divexact(g, c)


# (weight of q, weight of t) of each operand kind
KINDS = {"q": (1, 0), "t": (0, 1), "qt": (1, 1)}


@st.composite
def kernel_polys(draw, kinds=tuple(KINDS)):
    """A nonzero polynomial in q only, t only or both, times an integer of
    either sign (content > 1 included) and a monomial in its variables."""
    wq, wt = KINDS[draw(st.sampled_from(kinds))]
    exps = st.tuples(st.integers(0, 3 * wq), st.integers(0, 3 * wt))
    terms = draw(st.dictionaries(exps, st.integers(-9, 9).filter(bool), min_size=1, max_size=4))
    c = draw(st.sampled_from([1, 2, 3, 6])) * draw(st.sampled_from([1, -1]))
    mono = IntPoly2.monomial(draw(st.integers(0, 2 * wq)), draw(st.integers(0, 2 * wt)), c)
    return fresh(IntPoly2(terms) * mono)


@given(kernel_polys(), kernel_polys(), kernel_polys(kinds=("q", "t")))
@settings(max_examples=60, deadline=None)
def test_generic_kernel_against_sympy_at_both_levels(a, b, d):
    # the dense gcd at level 1 (bivariate), at level 0 (a univariate
    # operand) and on the constants and monomials stripped before either
    for x, y in ((a, b), (a * d, b * d), (a * b, b * d)):
        got = _poly_gcd_generic(x, y)
        assert got.leading_coeff() > 0
        expected = sympy.gcd(sp(x), sp(y))
        assert sympy.expand(sp(got) - expected) == 0 or sympy.expand(sp(got) + expected) == 0
    # exact division by any divisor, q-only and t-only ones included
    assert _poly_divexact_generic(a * d, d) == a
    assert _poly_divexact_generic(a * b, b) == a
    # a remainder the leading terms never see, unless d is a unit
    if abs(d.leading_coeff()) != 1 or d.total_degree():
        with pytest.raises(ExactDivisionError):
            _poly_divexact_generic(a * d + IntPoly2.const(1), d)
    # any other pair: a quotient only when it is exact
    try:
        quo = _poly_divexact_generic(a, b)
    except ExactDivisionError:
        return
    assert quo * b == a


# -- the factored base c q^a t^b prod Phi_m(q)^e ------------------------------

def test_generic_gcd_with_a_t_power_times_a_q_only_operand():
    # t^2 times a q-only polynomial, against operands without that t-power:
    # with each operand's own monomial stripped the gcd runs on q-slices
    # (the dense bivariate sequence took seconds on the first pair)
    r = poly_of("4*q^3*t^4 + 2*q^4 - 7*q^3*t + 9*t^3 + q")
    g = poly_of("3*t^2*(q^4 + q^3 + q^2 + q + 1)^3*(q^6 + q^3 + 1)^2")
    for a, b in ((r, g), (r * g, g * g), (g, r * IntPoly2.monomial(2, 1))):
        got, expected = sp(_poly_gcd_generic(a, b)), sympy.gcd(sp(a), sp(b))
        assert sympy.expand(got - expected) == 0 or sympy.expand(got + expected) == 0


@functools.cache
def cyclo(m: int) -> IntPoly2:
    """Phi_m from sympy, so the tests do not lean on bqt.factored."""
    poly = sympy.Poly(sympy.cyclotomic_poly(m, _sq), _sq)
    return IntPoly2.from_terms({(e, 0): int(c) for (e,), c in poly.terms()})


def fresh(p: IntPoly2) -> IntPoly2:
    """The same terms with the factorization unknown, so only generic code sees it."""
    return IntPoly2(dict(p.terms))


def factored(p: IntPoly2) -> IntPoly2:
    out = fresh(p)
    assert _fac(out)
    return out


@st.composite
def factored_polys(draw):
    """c q^a t^b prod Phi_m^e (m <= 12, e <= 3), multiplied out by the generic product."""
    c = draw(st.integers(-6, 6).filter(bool))
    p = IntPoly2({(draw(st.integers(0, 3)), draw(st.integers(0, 3))): c})
    for m in draw(st.lists(st.integers(1, 12), max_size=3, unique=True)):
        for _ in range(draw(st.integers(1, 3))):
            p = p * cyclo(m)
    return fresh(p)


@given(factored_polys(), factored_polys(), polys())
@settings(max_examples=60, deadline=None)
def test_factored_fast_paths_match_generic(f, g, r):
    ff, fg = factored(f), factored(g)
    # factored x factored: exponent minima, sums and differences
    assert poly_gcd(ff, fg).terms == _poly_gcd_generic(f, g).terms
    prod = ff * fg
    assert prod.terms == (f * g).terms
    assert prod.fac == factored(prod).fac  # the one factorization, as trial division finds it
    assert poly_divexact(prod, fg).terms == _poly_divexact_generic(f * g, g).terms
    # numerator x factored: trial division of the numerator's q-slices, also
    # where the numerator holds a Phi_m to a higher power than the divisor
    assert poly_gcd(fresh(prod), fg).terms == _poly_gcd_generic(f * g, g).terms
    assert poly_gcd(fresh(prod), ff).terms == _poly_gcd_generic(f * g, f).terms
    assert poly_gcd(r, fg).terms == _poly_gcd_generic(r, g).terms
    rg = fresh(r) * g
    assert poly_gcd(rg, fg).terms == _poly_gcd_generic(rg, g).terms
    assert poly_divexact(rg, fg).terms == _poly_divexact_generic(rg, g).terms


@given(polys(), factored_polys(), polys(), factored_polys())
@settings(max_examples=30, deadline=None)
def test_factored_scalar_ops_agree_with_sympy_and_modp(n1, d1, n2, d2):
    a, b = QtScalar.fraction(n1, d1), QtScalar.fraction(n2, d2)
    oracle_a = sympy.Rational(1) * sp(n1) / sp(d1)
    oracle_b = sympy.Rational(1) * sp(n2) / sp(d2)
    for ours, exact in ((a * b, oracle_a * oracle_b), (a + b, oracle_a + oracle_b)):
        theirs = sympy.cancel(exact)
        lhs = sympy.expand(sp(ours.num) * sympy.fraction(theirs)[1])
        rhs = sympy.expand(sp(ours.den) * sympy.fraction(theirs)[0])
        assert lhs == rhs
    f = ModPField(P, 1234567, 7654321)
    try:
        fa, fb = f.convert(a), f.convert(b)
    except PoleAtPoint:
        return
    assert f.convert(a * b) == fa * fb
    assert f.convert(a + b) == fa + fb


def test_factored_divexact_inexact_raises():
    q1, q2 = cyclo(2), cyclo(2) * cyclo(2)
    cases = [
        (factored(q1), factored(q2)),  # Phi_2 / Phi_2^2
        (factored(q1 * IntPoly2.const(2)), factored(q1 * IntPoly2.const(3))),  # content
        (factored(q1), IntPoly2.monomial(1, 0)),  # q-power
        (poly_of("q + t"), factored(q1)),  # numerator against Phi_2
        (poly_of("q*t + t"), factored(q1 * IntPoly2.monomial(0, 2))),  # t-power
        (poly_of("3*q + 3"), factored(q1 * IntPoly2.const(2))),  # content
    ]
    for a, b in cases:
        with pytest.raises(ExactDivisionError):
            poly_divexact(a, b)
        with pytest.raises(ExactDivisionError):
            _poly_divexact_generic(fresh(a), fresh(b))


@given(polys().filter(lambda p: not p.is_zero()), factored_polys())
@settings(max_examples=60, deadline=None)
def test_cancel_by_fac_matches_generic_gcd_then_divexact(r, g):
    # r alone, r times g (a gcd of g at least) and r times g^2 (Phi_m to a
    # higher power than the divisor holds)
    for p in (r, fresh(r * g), fresh(r * g * g)):
        gcd, quo = cancel_by_fac(p.terms, factored(g).fac)
        expected = _poly_gcd_generic(p, g)
        assert _from_fac(gcd).terms == expected.terms
        if expected.is_one():
            assert quo is None
        else:
            assert quo == _poly_divexact_generic(p, expected).terms


@st.composite
def factored_scalars(draw):
    """Scalars over a factored denominator, as the seminormal tables hold."""
    return QtScalar.fraction(draw(polys()), factored(draw(factored_polys())))


@st.composite
def lincomb_groups(draw, min_size=1, scalars=factored_scalars()):
    """min_size-4 (c, m) pairs; sometimes with each product's negation, so the sum is 0."""
    pairs = draw(st.lists(st.tuples(scalars, scalars), min_size=min_size, max_size=4))
    if draw(st.booleans()):
        pairs = draw(st.permutations(pairs + [(-c, m) for c, m in pairs]))
    return pairs


def fold(pairs):
    out = ZERO
    for c, m in pairs:
        out = out + c * m
    return out


@given(lincomb_groups())
@settings(max_examples=60, deadline=None)
def test_lincomb_equals_the_sequential_fold(pairs):
    got = QT.lincomb(pairs)
    assert got == fold(pairs)
    assert str(got) == str(fold(pairs))


# the interned unit polynomial, and a fresh one that no identity test matches
UNITS = [lambda: _P_ONE, lambda: IntPoly2({(0, 0): 1})]


@st.composite
def unit_scalars(draw):
    """Polynomials over a unit denominator, the interned 1 or a fresh one."""
    num = draw(polys().filter(lambda p: not p.is_zero()))
    return QtScalar(num, draw(st.sampled_from(UNITS))())


@given(lincomb_groups(min_size=2, scalars=st.one_of(unit_scalars(), factored_scalars())))
@settings(max_examples=60, deadline=None)
def test_lincomb_with_unit_factors_equals_the_sequential_fold(pairs):
    # a unit factor of a pair's denominator, or a pair whose denominator is
    # the lcm, skips a table lookup; the sum is the fold's all the same
    got = QT.lincomb(pairs)
    assert got == fold(pairs)
    assert str(got) == str(fold(pairs))


def test_lincomb_outside_the_base_takes_the_fold(monkeypatch):
    # packed_sum runs exactly once for each group lifted to its lcm
    lifts = []
    monkeypatch.setattr("bqt.scalars.packed_sum",
                        lambda triples: lifts.append(triples) or packed_sum(triples))
    a, b = parse_scalar("(q + 1)/(q^2 + q + 1)"), parse_scalar("q/(q + 1)^2")
    mixed = parse_scalar("(q^2 - t)/(1 - q*t)")
    assert QT.lincomb([(a, b), (b, a)]) == fold([(a, b), (b, a)])
    assert len(lifts) == 1
    for pairs in ([(a, b), (mixed, a)], [(a, mixed), (b, a), (-a, mixed)]):
        assert QT.lincomb(pairs) == fold(pairs)
        assert str(QT.lincomb(pairs)) == str(fold(pairs))
    assert QT.lincomb([(mixed, a), (-mixed, a)]) == ZERO
    assert len(lifts) == 1


@st.composite
def wide_lincomb_groups(draw):
    """lincomb_groups with every c scaled by one integer, so that the group's
    1-norm bound lies below 2^32, between 2^32 and 2^63, or past 2^63."""
    scale = QT.from_int(draw(st.sampled_from([1, -(2**35), 2**62, 3 * 2**61])))
    nonzero = factored_scalars().filter(lambda s: not s.is_zero())
    return [(c * scale, m) for c, m in draw(lincomb_groups(2, nonzero))]


@given(wide_lincomb_groups())
@settings(max_examples=80, deadline=None)
def test_packed_lincomb_equals_the_fold(pairs):
    got, expected = QT.lincomb(pairs), fold(pairs)
    assert got == expected
    assert str(got) == str(expected)


def test_lincomb_past_the_slot_bound_takes_the_fold(monkeypatch):
    sums = []
    monkeypatch.setattr("bqt.scalars.packed_sum",
                        lambda triples: sums.append(packed_sum(triples)) or sums[-1])
    # k/q + k/(q + 1) = (2k*q + k)/(q^2 + q), lifted by the cofactors q + 1 and
    # q, so the bound is 3k; the last k gives the sum a coefficient of 2^63
    for k, packs in (((2**63 - 1) // 3, True), (2**63 // 3 + 1, False), (2**62, False)):
        pairs = [(QT.from_int(k), QT.q_power(-1)), (QT.from_int(k), parse_scalar("1/(q + 1)"))]
        got = QT.lincomb(pairs)
        assert (sums[-1] is not None) is packs
        assert got == QtScalar(IntPoly2({(1, 0): 2 * k, (0, 0): k}), poly_of("q^2 + q"))
        assert got == fold(pairs)
        assert str(got) == str(fold(pairs))
    assert len(sums) == 3


@given(lincomb_groups())
@settings(max_examples=30, deadline=None)
def test_modp_convert_commutes_with_lincomb(pairs):
    f = ModPField(P, 1234567, 7654321)
    try:
        converted = [(f.convert(c), f.convert(m)) for c, m in pairs]
    except PoleAtPoint:
        return
    assert f.convert(QT.lincomb(pairs)) == f.lincomb(converted)


def test_interned_factorizations_expand_to_their_terms():
    M = make_realization({"module": "murnaghan", "shape": [1, 1], "n": 3})
    assert all(r.status == "pass" for r in check_daha_relations(M, 2))
    assert len(_FACTORED) > 10
    for fac, p in _FACTORED.items():
        c, a, b, exps = fac
        expected = IntPoly2({(a, b): c})  # no factorization: the generic product
        for m, e in exps:
            for _ in range(e):
                expected = expected * cyclo(m)
        assert p.fac == fac
        assert p.terms == expected.terms


# -- field arithmetic -------------------------------------------------------


@st.composite
def class_scalars(draw):
    """A scalar whose denominator is 1 (interned or fresh), a monomial, in the
    factored base, or a small one in q and t outside it."""
    kind = draw(st.sampled_from(["one", "monomial", "factored", "mixed"]))
    num = draw(polys(max_terms=3, max_exp=3).filter(lambda p: not p.is_zero()))
    if kind == "one":
        return QtScalar(num, draw(st.sampled_from(UNITS))())
    if kind == "monomial":
        e = (draw(st.integers(0, 3)), draw(st.integers(0, 3)))
        den = IntPoly2({e: draw(st.sampled_from([1, -2, 3]))})
    elif kind == "factored":
        den = draw(factored_polys())
    else:
        den = draw(kernel_polys())
    return QtScalar.fraction(num, den)


@given(class_scalars(), class_scalars())
@settings(max_examples=120, deadline=None)
def test_a_product_is_canonical_without_a_sign_fix(a, b):
    # the product of two canonical fractions is the reduced fraction of the
    # products, term for term, and its denominator leads positively
    got = a * b
    want = QtScalar.fraction(a.num * b.num, a.den * b.den)
    assert (got.num.terms, got.den.terms) == (want.num.terms, want.den.terms)
    assert got.den.leading_coeff() > 0
    assert got == b * a


@given(class_scalars(), class_scalars())
@settings(max_examples=25, deadline=None)
def test_a_product_agrees_with_sympy(a, b):
    got = a * b
    value = sp(a.num) * sp(b.num) / (sp(a.den) * sp(b.den))
    assert sympy.cancel(sp(got.num) / sp(got.den) - value) == 0
    assert sympy.gcd(sp(got.num), sp(got.den)) in (1, -1)


@pytest.mark.parametrize("text", ["q^2 - 1", "t/(1 + q)", "(q + 1)/q^2", "(q^2 - t)/(1 - q*t)",
                                  "6/(2 + 2*q)", "3"])
def test_a_fresh_unit_denominator_multiplies_as_the_interned_one(text):
    other = parse_scalar(text)
    num = poly_of("2*q^2 - 2")
    fresh_unit, interned = QtScalar(num, IntPoly2({(0, 0): 1})), QtScalar(num, _P_ONE)
    want = QtScalar.fraction(num * other.num, other.den)
    for a in (fresh_unit, interned):
        for got in (a * other, other * a):
            assert (got.num.terms, got.den.terms) == (want.num.terms, want.den.terms)
            assert got.den.leading_coeff() > 0


def test_add_examples():
    assert Q + ONE == parse_scalar("q + 1")
    assert parse_scalar("1/(q-1)") * parse_scalar("(q-1)") == ONE
    with pytest.raises(DivisionByZero):
        ONE / ZERO


@pytest.mark.parametrize("base, k", [("q", 200), ("1 + q", 20), ("(q - t)/(1 - q*t)", 7),
                                     ("2", 65), ("0", 3), ("q", 0)])
def test_a_power_by_squaring_equals_repeated_multiplication(base, k):
    b, want = parse_scalar(base), ONE
    for _ in range(k):
        want = want * b
    got = parse_scalar(f"({base})^{k}")
    assert got == want and str(got) == str(want)


@pytest.mark.parametrize("text", ["q^99999999", "q^1000000", "2^600000", "(1 + q + t)^101",
                                  "(q^2 - t)^99999999/(1 - q*t)"])
def test_a_power_past_the_size_limit_is_refused_at_once(text):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="passes the size limit"):
        parse_scalar(text)
    assert time.perf_counter() - start < 1.0


def test_a_power_at_the_size_limit_parses():
    # (k*dq + 1)(k*dt + 1) k b for base^k: the largest k on each side of MAX_POWER_BITS
    assert MAX_POWER_BITS == 1 << 20
    assert parse_scalar("q^1023") == QT.q_power(1023)
    with pytest.raises(ValueError):
        parse_scalar("q^1024")
    assert parse_scalar("(1 + q + t)^100").num.terms[(50, 50)] > 0
    with pytest.raises(ValueError):
        parse_scalar("(1 + q + t)^101")


@given(scalars(), scalars(), scalars())
@settings(max_examples=50, deadline=None)
def test_distributivity(a, b, c):
    assert (a + b) * c == a * c + b * c


@given(scalars(), scalars())
@settings(max_examples=50, deadline=None)
def test_commutativity_and_inverses(a, b):
    assert a + b == b + a
    assert a * b == b * a
    assert a - a == ZERO
    if not b.is_zero():
        assert (a / b) * b == a


@given(scalars())
@settings(max_examples=30, deadline=None)
def test_neg_and_double_neg(a):
    assert -(-a) == a
    assert a + (-a) == ZERO
    assert -ONE * a == -a


# -- evaluation over a prime field ------------------------------------------


P = 2**31 - 1


def test_eval_simple():
    assert parse_scalar("q + t").eval_mod(2, 3, P) == 5
    with pytest.raises(PoleAtPoint):
        parse_scalar("1/(q-1)").eval_mod(1, 5, P)


@given(polys(max_terms=20, max_exp=6, max_coeff=50), polys(max_terms=3).filter(lambda p: not p.is_zero()))
@settings(max_examples=40, deadline=None)
def test_eval_reduced_equals_unreduced(num, den):
    s = QtScalar.fraction(num, den)
    rng = random.Random(7)
    for _ in range(4):
        q0 = rng.randrange(2, P)
        t0 = rng.randrange(2, P)
        dv = den.eval_mod(q0, t0, P)
        if dv == 0:
            continue
        unreduced = num.eval_mod(q0, t0, P) * pow(dv, P - 2, P) % P
        assert s.eval_mod(q0, t0, P) == unreduced


@given(scalars(), scalars())
@settings(max_examples=30, deadline=None)
def test_eval_is_ring_homomorphism(a, b):
    rng = random.Random(13)
    for _ in range(3):
        q0 = rng.randrange(2, P)
        t0 = rng.randrange(2, P)
        try:
            ea, eb = a.eval_mod(q0, t0, P), b.eval_mod(q0, t0, P)
            eab = (a * b).eval_mod(q0, t0, P)
            es = (a + b).eval_mod(q0, t0, P)
        except PoleAtPoint:
            continue
        assert eab == ea * eb % P
        assert es == (ea + eb) % P
        if eb != 0 and not b.is_zero():
            assert (a / b).eval_mod(q0, t0, P) == ea * pow(eb, P - 2, P) % P


def test_modp_field_matches_eval():
    f = ModPField(P, 12345, 67890)
    s = parse_scalar("(q^2 - t)/(1 - q*t)")
    assert f.convert(s).value == s.eval_mod(12345, 67890, P)
    assert (f.convert(Q) * f.convert(T)).value == 12345 * 67890 % P


# -- q-integers -------------------------------------------------------------


def test_q_integer_values():
    assert QT.q_integer(0) == ZERO
    assert QT.q_integer(1) == ONE
    assert QT.q_integer(3) == parse_scalar("1 + q + q^2")
    assert QT.q_integer(4) == parse_scalar("1 + q + q^2 + q^3")


# -- text format -------------------------------------------------------------


def test_parse_examples():
    assert parse_scalar("(q^2 - t)/(1 - q*t)") == QtScalar.fraction(
        poly_of("q^2 - t"), poly_of("1 - q*t")
    )
    assert parse_scalar("-q^2") == -(Q * Q)
    assert parse_scalar("2*q*t - 3") == QT.from_int(2) * Q * T - QT.from_int(3)


@given(scalars())
@settings(max_examples=80, deadline=None)
def test_format_parse_round_trip(s):
    assert parse_scalar(str(s)) == s


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_scalar("q +")
    with pytest.raises(ValueError):
        parse_scalar("x1")
    with pytest.raises(ValueError):
        parse_scalar("(q")
