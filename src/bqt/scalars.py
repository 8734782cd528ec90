"""Exact arithmetic in the fraction field Q(q,t).

A polynomial in Z[q,t] is stored sparsely as a dict mapping exponent pairs
(e_q, e_t) to nonzero arbitrary-precision integer coefficients.  A scalar is
a fully reduced fraction of two such polynomials with a sign-canonical
denominator, so equal scalars have equal representations and zero tests are
dictionary comparisons.

Canonical form of a scalar num/den:

  * gcd(num, den) is constant 1 (content included),
  * the graded-lex leading coefficient of den is positive,
  * zero is 0/1.

Exponents are never negative: Laurent-like scalars such as q^-3 live in the
fraction as 1/q^3.

The gcd kernel knows a factored base (bqt.factored): polynomials
c * q^a * t^b * prod Phi_m(q)^e_m, which covers every denominator the
seminormal modules produce.  An IntPoly2 carries its factorization in the
``fac`` slot, filled in on first use by trial division against cyclotomics
(False outside the base), and one interned polynomial stands for each
factorization.  poly_gcd, poly_divexact and IntPoly2.__mul__ each take one
fast path when the divisor (for a product: both factors) lies in the base:
exponent minima, differences or sums when both operands are factored, and
univariate trial division of the other operand's q-slices by each Phi_m
otherwise.  Results are the same polynomials the generic code gives, so
the canonical form, str(), pool_key() and equality are unchanged.
QtScalar.__mul__ cancels each cross pair (a numerator against the other
operand's denominator) with one trial division that yields the gcd and the
quotient together (factored.cancel_by_fac), and skips the pair when that
denominator is the interned 1.  It never fixes the product's sign: every
gcd the kernel divides by leads with a positive coefficient, so the
cofactors of two canonical denominators do, and so does their product.

Both rings have lincomb(pairs), the sum of c * m over (c, m) pairs, which is
how a generator table is applied (bqt.keyed).  Over Q(q,t), when every
denominator lies in the base, the products are lifted to the lcm of their
denominators, summed over packed q-rows (factored.packed_sum) and reduced
once by QtScalar.fraction, which hands the decoded rows on to
cancel_by_fac.  The one exact fallback adds the products one by one: it
takes any other denominator, and a group whose 1-norm bound does not
certify the packed slots.  The denominator bookkeeping is read from the
memo tables of bqt.factored: each pair's product from PRODUCT, the lcm
folded pairwise through LCM and each cofactor from QUOTIENT.  A product of
factored polynomials reads PRODUCT and a cancellation of two factored
ones, as in QtScalar.__mul__, reads CANCEL.  QtScalar.__add__ lifts both
fractions to b * (d/g) for g = gcd(b, d) and hands the sum to
QtScalar.fraction unless g is 1.

Scalars are made by the rings: QT.from_int, QT.q_power, QT.t_power and
QT.q_integer, the constants ZERO, ONE, Q and T, parse_scalar, and
QtScalar.fraction for any num/den.

The generic kernel (_poly_gcd_generic, _poly_divexact_generic) runs when
the divisor lies outside the base, as for parsed input such as
(q^2 - t)/(1 - q*t) or 1/(2q + 1), and is the reference the fast paths are
tested against; no benchmark workload reaches it.  Past monomial factors
and univariate operands (a gcd of slices), it works in Z[t][q] with one set
of dense routines written once for every nesting level: trim, negation,
sum, product, exact quotient, pseudo-remainder, content and the primitive
pseudo-remainder gcd, each recursing on its coefficient ring down to Z.

There is a second scalar ring, ModPField, whose elements are evaluations of
q,t at fixed points of a prime field.  It carries the same arithmetic
surface as the exact field and backs the probabilistic pre-filter mode of
the relation checker.
"""

from __future__ import annotations

from math import gcd as igcd

from .errors import (
    DivisionByZero,
    ExactDivisionError,
    PoleAtPoint,
    ZeroDenominator,
)
from .factored import (
    CANCEL,
    PRODUCT,
    QUOTIENT,
    cancel_by_fac,
    cyclotomic,
    fac_gcd,
    factor,
    lcm_fold,
    packed_sum,
)

# ---------------------------------------------------------------------------
# dense recursive polynomials: level 0 is a little-endian list of ints, level
# u a little-endian list of level-(u-1) polynomials, and an int is level -1.
# No trailing zero entries; [] is zero at every level.  Every routine takes
# the level and recurses on the coefficient ring (Brown 1971; Knuth, TAOCP
# vol. 2, 4.6.1).  None mutates its arguments.
# ---------------------------------------------------------------------------


def _trim(f: list) -> list:
    while f and not f[-1]:
        f.pop()
    return f


def _const(c: int, u: int):
    """The constant c at level u."""
    return c if u < 0 else [_const(c, u - 1)] if c else []


def _lead(f, u: int) -> int:
    """The leading coefficient of the leading coefficient ... of a nonzero
    level-u polynomial, down to an integer."""
    for _ in range(u + 1):
        f = f[-1]
    return f


def _neg(f, u: int):
    return -f if u < 0 else [_neg(c, u - 1) for c in f]


def _add(f, g, u: int):
    if u < 0:
        return f + g
    if len(f) < len(g):
        f, g = g, f
    out = f[:]
    for i, c in enumerate(g):
        out[i] = _add(out[i], c, u - 1)
    return _trim(out)


def _mul(f, g, u: int):
    if u < 0:
        return f * g
    if not f or not g:
        return []
    out = [_const(0, u - 1)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = _add(out[i + j], _mul(a, b, u - 1), u - 1)
    return out


def _divexact(f, g, u: int):
    """Quotient f/g at level u; raises ExactDivisionError unless g divides f."""
    if u < 0:
        quo, rem = divmod(f, g)
        if rem:
            raise ExactDivisionError("inexact integer division")
        return quo
    if not g:
        raise ExactDivisionError("division by zero polynomial")
    dg = len(g) - 1
    quot = [_const(0, u - 1)] * max(len(f) - dg, 0)
    f = f[:]
    while len(f) > dg:
        off = len(f) - 1 - dg
        qc = quot[off] = _divexact(f[-1], g[-1], u - 1)
        nq = _neg(qc, u - 1)
        for i, c in enumerate(g):
            f[off + i] = _add(f[off + i], _mul(nq, c, u - 1), u - 1)
        _trim(f)
    if f:
        raise ExactDivisionError("nonzero remainder in exact division")
    return _trim(quot)


def _prem(f, g, u: int):
    """Pseudo-remainder of f by a nonzero g at level u."""
    dg = len(g) - 1
    while len(f) > dg:
        off = len(f) - 1 - dg
        nf = _neg(f[-1], u - 1)
        f = [_mul(c, g[-1], u - 1) for c in f]
        for i, c in enumerate(g):
            f[off + i] = _add(f[off + i], _mul(nf, c, u - 1), u - 1)
        _trim(f)
    return f


def _content(f, u: int):
    """gcd of the coefficients of a level-u polynomial, at level u-1."""
    g, one = _const(0, u - 1), _const(1, u - 1)
    for c in f:
        g = _gcd(g, c, u - 1)
        if g == one:
            break
    return g


def _primitive(f, u: int):
    """(content, primitive part) of a level-u polynomial."""
    c = _content(f, u)
    return c, [_divexact(x, c, u - 1) for x in f] if f else f


def _gcd(f, g, u: int):
    """gcd at level u by the primitive pseudo-remainder sequence, content
    included, with a positive leading integer; gcd(0, 0) = 0."""
    if u < 0:
        return igcd(f, g)
    if f and g:
        (cf, f), (cg, g) = _primitive(f, u), _primitive(g, u)
        c = _gcd(cf, cg, u - 1)
        if len(f) < len(g):
            f, g = g, f
        while g:
            f, g = g, _primitive(_prem(f, g, u), u)[1]
        f = [_mul(c, x, u - 1) for x in f]
    else:
        f = f or g
    return _neg(f, u) if f and _lead(f, u) < 0 else f


def _dense(terms: dict[tuple[int, int], int], axis: int) -> list[list[int]]:
    """terms as a level-1 polynomial in q (axis 0) or t (axis 1) over Z[the other]."""
    f: list[list[int]] = []
    for e, c in terms.items():
        i, j = e[axis], e[1 - axis]
        if len(f) <= i:
            f.extend([] for _ in range(i + 1 - len(f)))
        row = f[i]
        if len(row) <= j:
            row.extend([0] * (j + 1 - len(row)))
        row[j] = c
    return f


def _sparse(f: list[list[int]], axis: int) -> dict[tuple[int, int], int]:
    """The terms of a level-1 polynomial in q (axis 0) or t (axis 1)."""
    return {((i, j) if axis == 0 else (j, i)): c
            for i, row in enumerate(f) for j, c in enumerate(row) if c}


# ---------------------------------------------------------------------------
# sparse integer polynomials in q, t
# ---------------------------------------------------------------------------

def _grlex_key(e: tuple[int, int]) -> tuple[int, int]:
    # graded-lex: total degree first, then q-exponent
    return (e[0] + e[1], e[0])


class IntPoly2:
    """Sparse polynomial in Z[q,t]; terms maps (e_q, e_t) to nonzero ints.

    Instances are immutable by convention: the terms dict is never mutated
    after construction and may be shared.
    """

    __slots__ = ("terms", "fac", "rows")

    def __init__(self, terms: dict[tuple[int, int], int], fac=None):
        self.terms = terms
        # factorization (c, a, b, ((m, e), ...)) over the factored base,
        # False outside it, None while not yet known
        self.fac = fac
        # the packed rows of factored.packed, None until first asked for
        self.rows = None

    @classmethod
    def from_terms(cls, terms: dict[tuple[int, int], int]) -> "IntPoly2":
        return cls({e: c for e, c in terms.items() if c})

    @classmethod
    def const(cls, c: int) -> "IntPoly2":
        return cls({(0, 0): c}, (c, 0, 0, ())) if c else _P_ZERO

    @classmethod
    def monomial(cls, eq: int, et: int, c: int = 1) -> "IntPoly2":
        if eq < 0 or et < 0:
            raise ValueError("stored exponents must be nonnegative")
        return cls({(eq, et): c}, (c, eq, et, ())) if c else _P_ZERO

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == _ONE_TERMS

    def sorted_terms(self) -> list[tuple[tuple[int, int], int]]:
        """Terms in descending graded-lex order (leading term first)."""
        return sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0]), reverse=True)

    def leading_coeff(self) -> int:
        if not self.terms:
            return 0
        e = max(self.terms, key=_grlex_key)
        return self.terms[e]

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(eq + et for eq, et in self.terms)

    def __neg__(self) -> "IntPoly2":
        f = self.fac
        if f:
            return _from_fac((-f[0],) + f[1:])
        return IntPoly2({e: -c for e, c in self.terms.items()}, f)

    def __add__(self, other: "IntPoly2") -> "IntPoly2":
        if not self.terms:
            return other
        if not other.terms:
            return self
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                del out[e]
        return IntPoly2(out)

    def __mul__(self, other: "IntPoly2") -> "IntPoly2":
        if not self.terms or not other.terms:
            return _P_ZERO
        if other.terms == _ONE_TERMS:
            return self
        if self.terms == _ONE_TERMS:
            return other
        if self.fac and other.fac:
            return _from_fac(PRODUCT[self.fac, other.fac])
        out: dict[tuple[int, int], int] = {}
        for (aq, at), ac in self.terms.items():
            for (bq, bt), bc in other.terms.items():
                e = (aq + bq, at + bt)
                s = out.get(e, 0) + ac * bc
                if s:
                    out[e] = s
                else:
                    del out[e]
        return IntPoly2(out)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntPoly2) and self.terms == other.terms

    __hash__ = None  # type: ignore[assignment]

    def eval_mod(self, q0: int, t0: int, p: int) -> int:
        v = 0
        for (eq, et), c in self.terms.items():
            v = (v + c * pow(q0, eq, p) * pow(t0, et, p)) % p
        return v

    def __str__(self) -> str:
        return _poly_str(self)

    def __repr__(self) -> str:
        return f"IntPoly2({_poly_str(self)!r})"


_P_ZERO = IntPoly2({}, False)
_P_ONE = IntPoly2.const(1)
_P_Q = IntPoly2.monomial(1, 0)
_P_T = IntPoly2.monomial(0, 1)
_ONE_TERMS = _P_ONE.terms


# intern table of the factored base: one polynomial per factorization
_FACTORED: dict[tuple, IntPoly2] = {p.fac: p for p in (_P_ONE, _P_Q, _P_T)}
_ONE_FAC = _P_ONE.fac


def _fac(p: IntPoly2) -> tuple | bool:
    """The factorization of p over the base, computed on first use."""
    fac = p.fac
    if fac is None:
        fac = p.fac = factor(p.terms)
        if fac:
            _FACTORED.setdefault(fac, p)
    return fac


def _from_fac(fac: tuple) -> IntPoly2:
    """The interned polynomial with the given factorization."""
    p = _FACTORED.get(fac)
    if p is None:
        c, a, b, exps = fac
        dense = [c]
        for m, e in exps:
            for _ in range(e):
                dense = _mul(dense, cyclotomic(m), 0)
        p = _FACTORED[fac] = IntPoly2({(a + i, b): x for i, x in enumerate(dense) if x}, fac)
    return p


def poly_gcd(a: IntPoly2, b: IntPoly2) -> IntPoly2:
    """gcd in Z[q,t] with deterministic sign; gcd(0,0) = 0.

    Against a b in the factored base the gcd is read off exponents (both
    operands factored) or found by trial division of a by the Phi_m of b.
    """
    if a.terms:
        fb = _fac(b)
        if fb:
            fa = a.fac
            return _from_fac(fac_gcd(fa, fb) if fa else cancel_by_fac(a.terms, fb)[0])
    return _poly_gcd_generic(a, b)


def _strip_monomial(terms: dict) -> tuple[int, int, dict]:
    """(i, j, terms of p / (q^i t^j)) for the largest monomial q^i t^j dividing p."""
    i = min(eq for eq, _ in terms)
    j = min(et for _, et in terms)
    if i or j:
        terms = {(eq - i, et - j): c for (eq, et), c in terms.items()}
    return i, j, terms


def _poly_gcd_generic(a: IntPoly2, b: IntPoly2) -> IntPoly2:
    """gcd by pseudo-remainder sequences; the reference for poly_gcd."""
    da, db = a.terms, b.terms
    if not da and not db:
        return _P_ZERO
    if not da:
        return b if b.leading_coeff() > 0 else -b
    if not db:
        return a if a.leading_coeff() > 0 else -a
    # q and t are prime: the gcd is q^vq t^vt times the gcd of the parts
    # free of monomial factors, and stripping each operand's own monomial
    # leaves t^b times a q-only polynomial on the univariate paths below
    aq, at, da = _strip_monomial(da)
    bq, bt, db = _strip_monomial(db)
    vq, vt = min(aq, bq), min(at, bt)
    if len(da) == 1:
        # a constant after extraction: only integer content remains
        g = 0
        for c in (*da.values(), *db.values()):
            g = igcd(g, c)
        return IntPoly2({(vq, vt): g})
    # univariate fast paths: when either operand involves a single variable
    # the gcd does too, so it is the gcd of the slices along the other one
    for axis in (0, 1):
        if all(e[1 - axis] == 0 for e in da) or all(e[1 - axis] == 0 for e in db):
            other = 1 - axis
            g = _sparse([_content(_dense(da, other) + _dense(db, other), 1)], other)
            break
    else:
        g = da if da == db else _sparse(_gcd(_dense(da, 0), _dense(db, 0), 1), 0)
    g = IntPoly2({(eq + vq, et + vt): c for (eq, et), c in g.items()})
    return g if g.leading_coeff() > 0 else -g


def poly_divexact(a: IntPoly2, b: IntPoly2) -> IntPoly2:
    """Exact quotient a/b in Z[q,t]; ExactDivisionError on any remainder.

    A b in the factored base is divided out factor by factor: exponent
    differences when a is factored too, else the trial division of a's
    q-slices that cancel_by_fac makes, which must find b as the gcd.
    """
    fb = _fac(b)
    if fb and a.terms:
        fa = a.fac
        if fa:
            return _from_fac(QUOTIENT[fa, fb])
        # b divides a exactly when gcd(a, b) is b up to its sign
        c = fb[0]
        g, quo = cancel_by_fac(a.terms, fb)
        if g != (abs(c),) + fb[1:]:
            raise ExactDivisionError("inexact division in the factored base")
        quo = a if quo is None else IntPoly2(quo)
        return -quo if c < 0 else quo
    return _poly_divexact_generic(a, b)


def _poly_divexact_generic(a: IntPoly2, b: IntPoly2) -> IntPoly2:
    """Exact quotient by dense division; the reference for poly_divexact."""
    quo = _divexact(_dense(a.terms, 0), _dense(b.terms, 0), 1)
    return IntPoly2(_sparse(quo, 0)) if quo else _P_ZERO


def _cancel(a: IntPoly2, b: IntPoly2, rows=None) -> tuple[IntPoly2, IntPoly2]:
    """a / g and b / g for g = gcd(a, b) and a nonzero; a and b themselves when g = 1."""
    fb = _fac(b)
    if not fb:
        g = poly_gcd(a, b)
        return (a, b) if g.is_one() else (poly_divexact(a, g), poly_divexact(b, g))
    fa = a.fac
    if fa:
        pair = CANCEL[fa, fb]
        return (a, b) if pair is None else (_from_fac(pair[0]), _from_fac(pair[1]))
    g, quo = cancel_by_fac(a.terms, fb, rows)
    return (a, b) if quo is None else (IntPoly2(quo), _from_fac(QUOTIENT[fb, g]))


# ---------------------------------------------------------------------------
# the exact field Q(q,t)
# ---------------------------------------------------------------------------


class QtScalar:
    """Reduced fraction num/den of IntPoly2 with sign-canonical denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: IntPoly2, den: IntPoly2):
        # trusted constructor: arguments must already be canonical
        self.num = num
        self.den = den

    @classmethod
    def fraction(cls, num: IntPoly2, den: IntPoly2, rows=None) -> "QtScalar":
        """num/den in canonical form; rows as for factored.cancel_by_fac."""
        if den.is_zero():
            raise ZeroDenominator("denominator is the zero polynomial")
        if num.is_zero():
            return ZERO
        num, den = _cancel(num, den, rows)
        if den.leading_coeff() < 0:
            num, den = -num, -den
        return cls(num, den)

    def den_is_one(self) -> bool:
        return self.den.terms == _ONE_TERMS

    def is_zero(self) -> bool:
        return not self.num.terms

    def is_one(self) -> bool:
        return self.num.terms == _ONE_TERMS and self.den.terms == _ONE_TERMS

    def __add__(self, other: "QtScalar") -> "QtScalar":
        if not self.num.terms:
            return other
        if not other.num.terms:
            return self
        if self.den_is_one() and other.den_is_one():
            s = self.num + other.num
            return QtScalar(s, _P_ONE) if s.terms else ZERO
        if self.den == other.den:
            return QtScalar.fraction(self.num + other.num, self.den)
        # a/b + c/d = (a (d/g) + c (b/g)) / (b (d/g)) for g = gcd(b, d); when g
        # is 1 that is (a d + c b) / (b d), already reduced, with a positive
        # leading denominator
        g = poly_gcd(self.den, other.den)
        if g.is_one():
            num = self.num * other.den + other.num * self.den
            return QtScalar(num, self.den * other.den) if num.terms else ZERO
        db = poly_divexact(other.den, g)
        num = self.num * db + other.num * poly_divexact(self.den, g)
        return QtScalar.fraction(num, self.den * db)

    def __neg__(self) -> "QtScalar":
        if not self.num.terms:
            return self
        return QtScalar(-self.num, self.den)

    def __sub__(self, other: "QtScalar") -> "QtScalar":
        return self + (-other)

    def __mul__(self, other: "QtScalar") -> "QtScalar":
        if not self.num.terms or not other.num.terms:
            return ZERO
        if self.is_one():
            return other
        if other.is_one():
            return self
        # a cancel against the unit denominator is (a, 1): it is skipped
        b_den, a_den = other.den, self.den
        a_num = self.num
        if b_den is not _P_ONE:
            a_num, b_den = _cancel(a_num, b_den)
        b_num = other.num
        if a_den is not _P_ONE:
            b_num, a_den = _cancel(b_num, a_den)
        # No sign fix: both denominators lead with a positive coefficient, and
        # each gcd divided out leads with a positive one too (fac_gcd and
        # cancel_by_fac give a positive content, _poly_gcd_generic a positive
        # leading coefficient), so both cofactors do.  The graded-lex order is
        # a monomial order, so the leading term of their product is the
        # product of their leading terms, positive.
        return QtScalar(a_num * b_num, a_den * b_den)

    def inverse(self) -> "QtScalar":
        if not self.num.terms:
            raise DivisionByZero("inverse of zero")
        num, den = self.den, self.num
        if den.leading_coeff() < 0:
            num, den = -num, -den
        return QtScalar(num, den)

    def __truediv__(self, other: "QtScalar") -> "QtScalar":
        if not other.num.terms:
            raise DivisionByZero("division by the zero scalar")
        return self * other.inverse()

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, QtScalar)
            and self.num.terms == other.num.terms
            and self.den.terms == other.den.terms
        )

    __hash__ = None  # type: ignore[assignment]

    def pool_key(self) -> tuple:
        """Hashable key, equal exactly when the scalars are equal.

        One flat tuple, the smallest such key to keep: the numerator's term
        count, then (eq, et, coeff) of each numerator and each denominator
        term in sorted order.  It keys the long-lived table pool; the
        per-call memos use value_key(), quicker to build but larger.
        """
        key = [len(self.num.terms)]
        for poly in (self.num, self.den):
            for (eq, et), c in sorted(poly.terms.items()):
                key += (eq, et, c)
        return tuple(key)

    def value_key(self):
        """Hashable key, equal exactly when the scalars are equal.

        The numerator's terms as a set, and the denominator's factorization
        over the factored base, or its terms as a set outside the base.
        """
        den = self.den
        return (frozenset(self.num.terms.items()), _fac(den) or frozenset(den.terms.items()))

    def pivot_cost(self) -> tuple[int, int]:
        """Row-reduction footprint: numerator total degree and term count."""
        return (self.num.total_degree(), len(self.num.terms))

    def eval_mod(self, q0: int, t0: int, p: int) -> int:
        d = self.den.eval_mod(q0, t0, p)
        if d == 0:
            raise PoleAtPoint(f"denominator vanishes at q={q0}, t={t0} mod {p}")
        return self.num.eval_mod(q0, t0, p) * pow(d, p - 2, p) % p

    def __str__(self) -> str:
        if self.den_is_one():
            return _poly_str(self.num)
        return f"({_poly_str(self.num)})/({_poly_str(self.den)})"

    def __repr__(self) -> str:
        return f"QtScalar({str(self)!r})"


ZERO = QtScalar(_P_ZERO, _P_ONE)
ONE = QtScalar(_P_ONE, _P_ONE)
Q = QtScalar(_P_Q, _P_ONE)
T = QtScalar(_P_T, _P_ONE)


# ---------------------------------------------------------------------------
# text format: integer coefficients, q, t, + - * / ^ ( )
# ---------------------------------------------------------------------------


def _poly_str(p: IntPoly2) -> str:
    if not p.terms:
        return "0"
    parts: list[str] = []
    for (eq, et), c in p.sorted_terms():
        mono = []
        if eq == 1:
            mono.append("q")
        elif eq > 1:
            mono.append(f"q^{eq}")
        if et == 1:
            mono.append("t")
        elif et > 1:
            mono.append(f"t^{et}")
        mag = abs(c)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = "*".join(mono)
        else:
            body = "*".join([str(mag)] + mono)
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


class _Tokens:
    def __init__(self, text: str):
        self.toks: list[str] = []
        i = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
            elif ch.isdigit():
                j = i
                while j < len(text) and text[j].isdigit():
                    j += 1
                self.toks.append(text[i:j])
                i = j
            elif ch in "qt+-*/^()":
                self.toks.append(ch)
                i += 1
            else:
                raise ValueError(f"unexpected character {ch!r} in scalar text")
        self.pos = 0

    def peek(self) -> str | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of scalar text")
        self.pos += 1
        return tok


def parse_scalar(text: str) -> QtScalar:
    """Parse the scalar grammar; result is canonical.

    Round-trips with str(): parse_scalar(str(s)) == s for every scalar s.
    Text nested past the recursion limit raises ValueError.
    """
    toks = _Tokens(text)
    try:
        val = _parse_expr(toks)
    except RecursionError:
        raise ValueError("scalar text is nested too deeply") from None
    if toks.peek() is not None:
        raise ValueError(f"trailing input at token {toks.peek()!r}")
    return val


def _parse_expr(toks: _Tokens) -> QtScalar:
    val = _parse_term(toks)
    while toks.peek() in ("+", "-"):
        op = toks.next()
        rhs = _parse_term(toks)
        val = val + rhs if op == "+" else val - rhs
    return val


def _parse_term(toks: _Tokens) -> QtScalar:
    val = _parse_factor(toks)
    while toks.peek() in ("*", "/"):
        op = toks.next()
        rhs = _parse_factor(toks)
        val = val * rhs if op == "*" else val / rhs
    return val


def _parse_factor(toks: _Tokens) -> QtScalar:
    if toks.peek() == "-":
        toks.next()
        return -_parse_factor(toks)
    base = _parse_base(toks)
    if toks.peek() == "^":
        toks.next()
        e = toks.next()
        if not e.isdigit():
            raise ValueError("exponent must be a nonnegative integer")
        return _power(base, int(e))
    return base


# The largest result a power in scalar text may have: (k*dq + 1)(k*dt + 1)
# terms of k*b bits for base^k, where dq, dt and b are the largest q-degree,
# t-degree and coefficient bit length of the base's numerator and denominator.
MAX_POWER_BITS = 1 << 20


def _power(base: QtScalar, k: int) -> QtScalar:
    """base^k by repeated squaring; ValueError when the result passes MAX_POWER_BITS."""
    terms = [*base.num.terms.items(), *base.den.terms.items()]
    dq = max(e[0] for e, _ in terms)
    dt = max(e[1] for e, _ in terms)
    b = max(abs(c).bit_length() for _, c in terms)
    if (k * dq + 1) * (k * dt + 1) * k * b > MAX_POWER_BITS:
        raise ValueError(f"power ^{k} of a base of degree ({dq}, {dt}) passes the size limit")
    out = ONE
    while k:
        if k & 1:
            out = out * base
        k >>= 1
        if k:
            base = base * base
    return out


def _parse_base(toks: _Tokens) -> QtScalar:
    tok = toks.next()
    if tok == "q":
        return Q
    if tok == "t":
        return T
    if tok == "(":
        val = _parse_expr(toks)
        if toks.next() != ")":
            raise ValueError("unbalanced parenthesis")
        return val
    if tok.isdigit():
        return QT.from_int(int(tok))
    raise ValueError(f"unexpected token {tok!r}")


# ---------------------------------------------------------------------------
# coefficient rings: the exact field and prime-field evaluations
# ---------------------------------------------------------------------------


class QtField:
    """The exact coefficient field Q(q,t).  Stateless; use the QT singleton."""

    name = "exact"

    zero = ZERO
    one = ONE
    q = Q
    t = T

    @staticmethod
    def from_int(c: int) -> QtScalar:
        return QtScalar(IntPoly2.const(c), _P_ONE) if c else ZERO

    @staticmethod
    def q_power(e: int) -> QtScalar:
        if e >= 0:
            return QtScalar(IntPoly2.monomial(e, 0), _P_ONE)
        return QtScalar(_P_ONE, IntPoly2.monomial(-e, 0))

    @staticmethod
    def t_power(e: int) -> QtScalar:
        if e >= 0:
            return QtScalar(IntPoly2.monomial(0, e), _P_ONE)
        return QtScalar(_P_ONE, IntPoly2.monomial(0, -e))

    @staticmethod
    def convert(s: QtScalar) -> QtScalar:
        return s

    @staticmethod
    def q_integer(m: int) -> QtScalar:
        """[m]_q = 1 + q + ... + q^(m-1)."""
        if m < 0:
            raise ValueError("q-integer of a negative integer")
        return QtScalar(IntPoly2({(i, 0): 1 for i in range(m)}), _P_ONE) if m else ZERO

    @staticmethod
    def lincomb(pairs: list) -> QtScalar:
        """Sum of c * m over the (c, m) pairs.

        When every denominator lies in the factored base the products are
        lifted to the lcm of their denominators, added as packed q-rows and
        reduced once.  Otherwise, and when the rows' 1-norm bound does not
        certify the packed sum, the products are added one by one.  The
        product denominators, their lcm and the cofactors come from the
        tables of bqt.factored, so a group whose denominators recur costs
        lookups.  A pair with one unit denominator factor has the other as
        its product, and a product equal to the lcm has the cofactor 1;
        neither is looked up.
        """
        if len(pairs) > 1:
            dens = [(_fac(c.den), _fac(m.den)) for c, m in pairs]
            if all(f and g for f, g in dens):
                facs = [g if f == _ONE_FAC else f if g == _ONE_FAC else PRODUCT[f, g]
                        for f, g in dens]
                lcm = lcm_fold(facs)
                summed = packed_sum([(c.num, m.num, _P_ONE if f == lcm else
                                      _from_fac(QUOTIENT[lcm, f]))
                                     for (c, m), f in zip(pairs, facs)])
                if summed:
                    terms, rows = summed
                    return QtScalar.fraction(IntPoly2(terms), _from_fac(lcm), rows)
        c, m = pairs[0]
        out = c * m
        for c, m in pairs[1:]:
            out = out + c * m
        return out


QT = QtField()


class ModPScalar:
    """Element of F_p arising from evaluating scalars at fixed (q0, t0)."""

    __slots__ = ("value", "field")

    def __init__(self, value: int, field: "ModPField"):
        self.value = value
        self.field = field

    def is_zero(self) -> bool:
        return self.value == 0

    def is_one(self) -> bool:
        return self.value == 1

    def __add__(self, other: "ModPScalar") -> "ModPScalar":
        return ModPScalar((self.value + other.value) % self.field.p, self.field)

    def __sub__(self, other: "ModPScalar") -> "ModPScalar":
        return ModPScalar((self.value - other.value) % self.field.p, self.field)

    def __neg__(self) -> "ModPScalar":
        return ModPScalar(-self.value % self.field.p, self.field)

    def __mul__(self, other: "ModPScalar") -> "ModPScalar":
        return ModPScalar(self.value * other.value % self.field.p, self.field)

    def inverse(self) -> "ModPScalar":
        if self.value == 0:
            raise PoleAtPoint("zero divisor hit at the evaluation point")
        p = self.field.p
        return ModPScalar(pow(self.value, p - 2, p), self.field)

    def __truediv__(self, other: "ModPScalar") -> "ModPScalar":
        return self * other.inverse()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ModPScalar) and self.value == other.value

    __hash__ = None  # type: ignore[assignment]

    def pool_key(self) -> int:
        """Hashable key, equal exactly when the scalars (of one field) are equal."""
        return self.value

    value_key = pool_key

    def pivot_cost(self) -> tuple[int, int]:
        """Row-reduction footprint: prime-field scalars are all equally cheap."""
        return (0, 0)

    def __str__(self) -> str:
        return str(self.value)

    def __repr__(self) -> str:
        return f"ModPScalar({self.value})"


class ModPField:
    """Evaluation ring: scalars reduced at q=q0, t=t0 over F_p."""

    name = "modp"

    def __init__(self, p: int, q0: int, t0: int):
        self.p = p
        self.q0 = q0 % p
        self.t0 = t0 % p
        self.zero = ModPScalar(0, self)
        self.one = ModPScalar(1, self)
        self.q = ModPScalar(self.q0, self)
        self.t = ModPScalar(self.t0, self)

    def from_int(self, c: int) -> ModPScalar:
        return ModPScalar(c % self.p, self)

    def q_power(self, e: int) -> ModPScalar:
        if e >= 0:
            return ModPScalar(pow(self.q0, e, self.p), self)
        return ModPScalar(pow(self.q0, -e, self.p), self).inverse()

    def t_power(self, e: int) -> ModPScalar:
        if e >= 0:
            return ModPScalar(pow(self.t0, e, self.p), self)
        return ModPScalar(pow(self.t0, -e, self.p), self).inverse()

    def q_integer(self, m: int) -> ModPScalar:
        v = 0
        for i in range(m):
            v = (v + pow(self.q0, i, self.p)) % self.p
        return ModPScalar(v, self)

    def convert(self, s: QtScalar) -> ModPScalar:
        return ModPScalar(s.eval_mod(self.q0, self.t0, self.p), self)

    def lincomb(self, pairs: list) -> ModPScalar:
        """Sum of c * m over the (c, m) pairs, reduced mod p once."""
        return ModPScalar(sum(c.value * m.value for c, m in pairs) % self.p, self)
