"""Primitive and derived operator actions on the polynomial module.

The T_i action, divided difference included, is cross-checked against an
independent sympy implementation up to rank 4 and degree 4; derived
examples are frozen literals.
"""

import pytest
import sympy

from bqt.errors import IndexOutOfRange
from bqt.polyrep import (
    PolyRealization,
    PolyVector,
    apply_Y,
    apply_epsilon,
    apply_pi_tilde,
    apply_word,
    monomials_of_degree,
    word_from_json,
)
from bqt.keyed import pi_entry
from bqt.scalars import ONE, QT, ModPField, parse_scalar

sq, st_ = sympy.symbols("q t")


def mono(n, *exps):
    return PolyVector.monomial(n, tuple(exps), ONE)


def scaled(s, v):
    return v.scale(parse_scalar(s))


def to_sympy(v: PolyVector):
    xs = sympy.symbols(f"x1:{v.n + 1}")
    if v.n == 1:
        xs = (xs[0],) if isinstance(xs, tuple) else (xs,)
    total = sympy.Integer(0)
    for e, c in v.coeffs.items():
        term = sympy.Rational(1)
        for i, k in enumerate(e):
            term *= xs[i] ** k
        num = sum(cc * sq**eq * st_**et for (eq, et), cc in c.num.terms.items())
        den = sum(cc * sq**eq * st_**et for (eq, et), cc in c.den.terms.items())
        total += term * num / den
    return sympy.together(total)


def sympy_Ti(expr, i, n):
    xs = sympy.symbols(f"x1:{n + 1}")
    swapped = expr.subs({xs[i - 1]: xs[i], xs[i]: xs[i - 1]}, simultaneous=True)
    out = swapped + (1 - sq) * xs[i - 1] * (expr - swapped) / (xs[i - 1] - xs[i])
    return sympy.cancel(out)


# -- primitive actions --------------------------------------------------------


def test_Ti_fixed_point_and_examples():
    M = PolyRealization(2)
    assert M.apply_Ti(M.one(), 1) == M.one()
    assert M.apply_Ti(mono(2, 1, 0), 1) == mono(2, 0, 1).add(scaled("1 - q", mono(2, 1, 0)))
    assert M.apply_Ti(mono(2, 0, 1), 1) == scaled("q", mono(2, 1, 0))


def test_Ti_against_sympy_oracle():
    # rank 4 up to degree 4 holds exponent gaps of 4 in both directions
    for n, dmax in ((2, 3), (3, 3), (4, 4)):
        M = PolyRealization(n)
        for d in range(dmax + 1):
            for e in monomials_of_degree(n, d):
                v = PolyVector(n, {e: ONE})
                for i in range(1, n):
                    ours = to_sympy(M.apply_Ti(v, i))
                    theirs = sympy_Ti(to_sympy(v), i, n)
                    assert sympy.simplify(ours - theirs) == 0


def test_quadratic_relation_exact():
    for n in (2, 3):
        M = PolyRealization(n)
        for d in range(4):
            for b in M.basis(d):
                for i in range(1, n):
                    tv = M.apply_Ti(b, i)
                    lhs = M.apply_Ti(tv, i).add(tv.scale(parse_scalar("q - 1")))
                    assert lhs == b.scale(parse_scalar("q"))


def test_Ti_inverse_is_inverse():
    M = PolyRealization(3)
    assert M.apply_Ti_inv(M.one(), 1) == M.one()
    assert M.apply_Ti_inv(mono(3, 1, 0, 0), 1) == scaled("1/q", mono(3, 0, 1, 0))
    sym = mono(3, 1, 1, 0)
    assert M.apply_Ti_inv(sym, 1) == sym
    for d in range(4):
        for b in M.basis(d):
            for i in (1, 2):
                assert M.apply_Ti(M.apply_Ti_inv(b, i), i) == b
                assert M.apply_Ti_inv(M.apply_Ti(b, i), i) == b


def pi_oracle(n: int, exps: tuple, ring) -> dict:
    """f(x_2, ..., x_n, t x_1) for f = x^exps: x_j -> x_{j+1} for j < n, x_n -> t x_1."""
    out = [0] * n
    c = ring.one
    for j, a in enumerate(exps):
        if j + 1 < n:
            out[j + 1] += a
        else:
            out[0] += a
            for _ in range(a):
                c = c * ring.convert(parse_scalar("t"))
    return {tuple(out): c}


def test_pi_substitution():
    M = PolyRealization(3)
    assert M.apply_pi(mono(3, 1, 0, 0)) == mono(3, 0, 1, 0)
    assert M.apply_pi(mono(3, 0, 0, 1)) == scaled("t", mono(3, 1, 0, 0))
    # pi^n scales every monomial by t^degree
    v = mono(3, 2, 1, 0)
    w = v
    for _ in range(3):
        w = M.apply_pi(w)
    assert w == scaled("t^3", v)
    # pi is a table entry per monomial; each equals the substitution, read
    # from the table and applied to the basis vector, over Q(q,t) and F_p
    for ring in (QT, ModPField(2**31 - 1, 5, 7)):
        for n in range(1, 6):
            M = PolyRealization(n, ring)
            for e in (e for d in range(5) for e in monomials_of_degree(n, d)):
                want = pi_oracle(n, e, ring)
                assert dict(zip(*M._table(pi_entry, None, e))) == want
                assert M.apply_pi(PolyVector(n, {e: ring.one})) == PolyVector(n, want)


def _mult(a: PolyVector, b: PolyVector) -> PolyVector:
    out = PolyVector.zero(a.n)
    for e1, c1 in a.coeffs.items():
        for e2, c2 in b.coeffs.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out = out.add(PolyVector(a.n, {e: c1 * c2}))
    return out


def test_pi_is_ring_map_on_products():
    M = PolyRealization(2)
    f, g = mono(2, 1, 0), mono(2, 0, 2)
    assert M.apply_pi(_mult(f, g)) == _mult(M.apply_pi(f), M.apply_pi(g))


def test_Xi_and_index_errors():
    M = PolyRealization(2)
    assert M.apply_Xi(M.one(), 1) == mono(2, 1, 0)
    assert M.apply_Xi(mono(2, 0, 1), 2) == mono(2, 0, 2)
    with pytest.raises(IndexOutOfRange):
        M.apply_Xi(M.one(), 3)
    with pytest.raises(IndexOutOfRange):
        M.apply_Ti(M.one(), 2)


# -- derived operators --------------------------------------------------------


def test_Y_examples():
    M1 = PolyRealization(1)
    assert apply_Y(M1, mono(1, 1), 1) == scaled("q*t", mono(1, 1))
    for n in (1, 2, 3):
        M = PolyRealization(n)
        assert apply_Y(M, M.one(), 1) == M.one().scale(parse_scalar(f"q^{n}"))
    M3 = PolyRealization(3)
    assert apply_Y(M3, M3.one(), 2) == M3.one().scale(parse_scalar("q^2"))


def test_Y_commute():
    M = PolyRealization(3)
    for b in M.basis(2):
        y1 = apply_Y(M, b, 1)
        y2 = apply_Y(M, b, 2)
        assert apply_Y(M, y2, 1) == apply_Y(M, y1, 2)


def test_epsilon_examples():
    M = PolyRealization(2)
    v = mono(2, 1, 0)
    assert apply_epsilon(M, v, 2) == v
    sym = mono(2, 1, 0).add(mono(2, 0, 1))
    assert apply_epsilon(M, v, 0) == sym.scale(parse_scalar("1/(1+q)"))
    assert apply_epsilon(M, sym, 0) == sym


def test_epsilon_idempotent_and_T_fixed():
    M = PolyRealization(3)
    for b in M.basis(2):
        for k in range(4):
            e = apply_epsilon(M, b, k)
            assert apply_epsilon(M, e, k) == e
            for i in range(k + 1, 3):
                assert M.apply_Ti(e, i) == e


def test_pi_tilde_matches_word():
    M = PolyRealization(3)
    for b in M.basis(2):
        via_word = apply_word(M, b, (("X", 1), ("Tinv", 1), ("Tinv", 2)))
        assert apply_pi_tilde(M, b) == via_word


# -- words --------------------------------------------------------------------


def test_word_application_examples():
    M = PolyRealization(2)
    v = mono(2, 1, 0)
    assert apply_word(M, v, ()) == v
    assert apply_word(M, v, (("X", 1), ("Tinv", 1))) == scaled("1/q", mono(2, 1, 1))
    assert apply_word(M, v, (("Pi",), ("Pi",))) == scaled("t", v)


def test_word_validation_and_json():
    M = PolyRealization(3)
    v = mono(3, 1, 0, 0)
    apply_word(M, v, (("T", 1), ("Eps", 2), ("Pi",)))
    with pytest.raises(IndexOutOfRange):
        apply_word(M, v, (("T", 3),))
    with pytest.raises(IndexOutOfRange):
        apply_word(M, v, (("Eps", 4),))
    word = (("T", 1), ("Scalar", parse_scalar("q^2 - 1")), ("PiTilde",))
    assert word_from_json([["T", 1], ["Scalar", str(word[1][1])], ["PiTilde"]]) == word
    with pytest.raises(ValueError, match="JSON list of symbols"):
        word_from_json({"T": 1})
    with pytest.raises(ValueError, match="not scalar text"):
        word_from_json([["Scalar", 2]])


def test_rank_zero_monomials_the_zero_vector_and_bad_module_arguments():
    assert monomials_of_degree(0, 0) == [()]
    assert monomials_of_degree(0, 2) == []
    assert PolyVector.zero(3).degree() == -1
    with pytest.raises(ValueError, match="disagrees with rank"):
        PolyVector.monomial(3, (1, 0), ONE)
    with pytest.raises(ValueError, match="demazure_coefficient"):
        PolyRealization(3, demazure_coefficient="1+q")


def test_sign_flipped_variant_breaks_quadratic():
    M = PolyRealization(2, demazure_coefficient="q-1")
    v = mono(2, 1, 0)
    tv = M.apply_Ti(v, 1)
    lhs = M.apply_Ti(tv, 1).add(tv.scale(parse_scalar("q - 1")))
    assert lhs != v.scale(parse_scalar("q"))
