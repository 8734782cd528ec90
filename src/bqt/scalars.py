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
quotient together (factored.cancel_by_fac).

Both rings have lincomb(pairs), the sum of c * m over (c, m) pairs, which is
how a generator table is applied (bqt.keyed).  Over Q(q,t), when every
denominator lies in the base, the products are lifted to the lcm of their
denominators (exponent maxima, factored.fac_lcm), added as polynomials and
reduced once by QtScalar.fraction, instead of being reduced after every
term; any other denominator makes it add the products one by one.

The generic kernel (_poly_gcd_generic, _poly_divexact_generic) still runs
when the divisor lies outside the base: mixed q,t denominators such as
parsed input (q^2 - t)/(1 - q*t), row-reduction pivots with bivariate
numerators, and univariate ones that are not products of cyclotomics such
as 2q + 1.  It works on a dense recursive representation (polynomials in q
whose coefficients are integer polynomials in t) using the primitive
pseudo-remainder sequence; sparse dicts are converted on entry.

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
    cancel_by_fac,
    cyclotomic,
    divexact_by_fac,
    fac_div,
    fac_gcd,
    fac_lcm,
    fac_mul,
    factor,
)

# ---------------------------------------------------------------------------
# dense univariate helpers: a "tpoly" is a little-endian list of ints with no
# trailing zeros; [] is zero.
# ---------------------------------------------------------------------------


def _t_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _t_neg(a: list[int]) -> list[int]:
    return [-c for c in a]


def _t_mul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return _t_trim(out)


def _t_icontent(a: list[int]) -> int:
    g = 0
    for c in a:
        g = igcd(g, c)
    return g


def _t_idiv(a: list[int], c: int) -> list[int]:
    return [x // c for x in a]


def _t_prem(a: list[int], b: list[int]) -> list[int]:
    # pseudo-remainder of a by b over Z; b nonzero
    a = a[:]
    lb = b[-1]
    db = len(b) - 1
    while a and len(a) - 1 >= db:
        la = a[-1]
        off = len(a) - 1 - db
        a = [lb * c for c in a]
        for i, bc in enumerate(b):
            a[off + i] -= la * bc
        _t_trim(a)
    return a


def _t_gcd(a: list[int], b: list[int]) -> list[int]:
    """gcd in Z[t], content included, positive leading coefficient."""
    if not a:
        a, b = b, a
    if not b:
        if not a:
            return []
        return _t_neg(a) if a[-1] < 0 else a[:]
    ca, cb = _t_icontent(a), _t_icontent(b)
    c = igcd(ca, cb)
    a, b = _t_idiv(a, ca), _t_idiv(b, cb)
    while b:
        r = _t_prem(a, b)
        if r:
            r = _t_idiv(r, _t_icontent(r))
        a, b = b, r
    if a[-1] < 0:
        a = _t_neg(a)
    return [c * x for x in a]


def _t_divexact(a: list[int], b: list[int]) -> list[int]:
    """Quotient a/b in Z[t]; raises unless the division is exact."""
    if not b:
        raise ExactDivisionError("division by zero polynomial")
    if not a:
        return []
    if len(b) == 1:
        c = b[0]
        if any(x % c for x in a):
            raise ExactDivisionError("inexact constant division in Z[t]")
        return [x // c for x in a]
    a = a[:]
    db = len(b) - 1
    lb = b[-1]
    quot = [0] * (len(a) - db)
    while a and len(a) - 1 >= db:
        la = a[-1]
        if la % lb:
            raise ExactDivisionError("inexact division in Z[t]")
        qc = la // lb
        off = len(a) - 1 - db
        quot[off] = qc
        for i, bc in enumerate(b):
            a[off + i] -= qc * bc
        _t_trim(a)
    if a:
        raise ExactDivisionError("nonzero remainder in Z[t] division")
    return _t_trim(quot)


# ---------------------------------------------------------------------------
# dense bivariate helpers: a "qpoly" is a little-endian list of tpolys with
# no trailing zero entries; [] is zero.
# ---------------------------------------------------------------------------


def _q_trim(f: list[list[int]]) -> list[list[int]]:
    while f and not f[-1]:
        f.pop()
    return f


def _q_content(f: list[list[int]]) -> list[int]:
    g: list[int] = []
    for c in f:
        if c:
            g = _t_gcd(g, c)
            if len(g) == 1 and g[0] == 1:
                break
    return g


def _q_divexact_t(f: list[list[int]], c: list[int]) -> list[list[int]]:
    return [_t_divexact(x, c) if x else [] for x in f]


def _q_mul_t(f: list[list[int]], c: list[int]) -> list[list[int]]:
    return [_t_mul(x, c) if x else [] for x in f]


def _q_prem(f: list[list[int]], g: list[list[int]]) -> list[list[int]]:
    f = [x[:] for x in f]
    lg = g[-1]
    dg = len(g) - 1
    while f and len(f) - 1 >= dg:
        lf = f[-1]
        off = len(f) - 1 - dg
        f = [_t_mul(x, lg) for x in f]
        for i, gc in enumerate(g):
            if gc:
                prod = _t_mul(lf, gc)
                cur = f[off + i]
                m = max(len(cur), len(prod))
                cur = cur + [0] * (m - len(cur))
                for j, pj in enumerate(prod):
                    cur[j] -= pj
                f[off + i] = _t_trim(cur)
        _q_trim(f)
    return f


def _q_gcd(f: list[list[int]], g: list[list[int]]) -> list[list[int]]:
    """gcd in Z[q,t] of dense operands, content included."""
    if not f:
        f, g = g, f
    if not g:
        if not f:
            return []
        if f[-1][-1] < 0:
            f = [_t_neg(x) for x in f]
        return f
    cf, cg = _q_content(f), _q_content(g)
    c = _t_gcd(cf, cg)
    f = _q_divexact_t(f, cf)
    g = _q_divexact_t(g, cg)
    if len(f) < len(g):
        f, g = g, f
    while g:
        r = _q_prem(f, g)
        if r:
            r = _q_divexact_t(r, _q_content(r))
        f, g = g, r
    if f[-1][-1] < 0:
        f = [_t_neg(x) for x in f]
    return _q_mul_t(f, c)


def _q_divexact(f: list[list[int]], g: list[list[int]]) -> list[list[int]]:
    if not g:
        raise ExactDivisionError("division by zero polynomial")
    if not f:
        return []
    f = [x[:] for x in f]
    lg = g[-1]
    dg = len(g) - 1
    quot: list[list[int]] = [[] for _ in range(len(f) - dg)]
    while f and len(f) - 1 >= dg:
        qc = _t_divexact(f[-1], lg)
        off = len(f) - 1 - dg
        quot[off] = qc
        for i, gc in enumerate(g):
            if gc:
                prod = _t_mul(qc, gc)
                cur = f[off + i]
                m = max(len(cur), len(prod))
                cur = cur + [0] * (m - len(cur))
                for j, pj in enumerate(prod):
                    cur[j] -= pj
                f[off + i] = _t_trim(cur)
        _q_trim(f)
    if f:
        raise ExactDivisionError("nonzero remainder in Z[q,t] division")
    return _q_trim(quot)


def _to_dense(terms: dict[tuple[int, int], int]) -> list[list[int]]:
    if not terms:
        return []
    dq = max(eq for eq, _ in terms)
    cols: list[list[int]] = [[] for _ in range(dq + 1)]
    for (eq, et), c in terms.items():
        col = cols[eq]
        if len(col) <= et:
            col.extend([0] * (et + 1 - len(col)))
        col[et] = c
    return _q_trim([_t_trim(col) for col in cols])


def _to_sparse(f: list[list[int]]) -> dict[tuple[int, int], int]:
    out: dict[tuple[int, int], int] = {}
    for eq, col in enumerate(f):
        for et, c in enumerate(col):
            if c:
                out[(eq, et)] = c
    return out


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

    __slots__ = ("terms", "fac")

    def __init__(self, terms: dict[tuple[int, int], int], fac=None):
        self.terms = terms
        # factorization (c, a, b, ((m, e), ...)) over the factored base,
        # False outside it, None while not yet known
        self.fac = fac

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
        t = self.terms
        return len(t) == 1 and t.get((0, 0)) == 1

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

    def __sub__(self, other: "IntPoly2") -> "IntPoly2":
        if not other.terms:
            return self
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) - c
            if s:
                out[e] = s
            else:
                del out[e]
        return IntPoly2(out)

    def __mul__(self, other: "IntPoly2") -> "IntPoly2":
        if not self.terms or not other.terms:
            return _P_ZERO
        if other.is_one():
            return self
        if self.is_one():
            return other
        if self.fac and other.fac:
            return _from_fac(fac_mul(self.fac, other.fac))
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


# intern table of the factored base: one polynomial per factorization
_FACTORED: dict[tuple, IntPoly2] = {p.fac: p for p in (_P_ONE, _P_Q, _P_T)}


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
                dense = _t_mul(dense, cyclotomic(m))
        p = _FACTORED[fac] = IntPoly2({(a + i, b): x for i, x in enumerate(dense) if x}, fac)
    return p


def _slicewise_gcd(da: dict, db: dict, axis: int) -> list[int]:
    """gcd when at least one operand is univariate along the given axis.

    Slices both polynomials by the other exponent and folds dense integer
    gcds; valid because any common divisor must itself be univariate.
    """
    g: list[int] = []
    for terms in (da, db):
        slices: dict[int, dict[int, int]] = {}
        for (eq, et), c in terms.items():
            main, other = (eq, et) if axis == 0 else (et, eq)
            slices.setdefault(other, {})[main] = c
        for sl in slices.values():
            dense = [0] * (max(sl) + 1)
            for e, c in sl.items():
                dense[e] = c
            g = _t_gcd(g, dense)
            if len(g) == 1 and g[0] == 1:
                return g
    return g


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
    if da == db:
        g = IntPoly2({(eq + vq, et + vt): c for (eq, et), c in da.items()})
        return g if g.leading_coeff() > 0 else -g
    # univariate fast paths: when either operand involves a single variable
    # the gcd does too, so slicewise dense gcds over Z suffice
    a_q_only = all(et == 0 for _, et in da)
    b_q_only = all(et == 0 for _, et in db)
    if a_q_only or b_q_only:
        g = _slicewise_gcd(da, db, axis=0)
        return IntPoly2({(e + vq, vt): c for e, c in enumerate(g) if c})
    a_t_only = all(eq == 0 for eq, _ in da)
    b_t_only = all(eq == 0 for eq, _ in db)
    if a_t_only or b_t_only:
        g = _slicewise_gcd(da, db, axis=1)
        return IntPoly2({(vq, e + vt): c for e, c in enumerate(g) if c})
    res = _q_gcd(_to_dense(da), _to_dense(db))
    out = _to_sparse(res)
    if vq or vt:
        out = {(eq + vq, et + vt): c for (eq, et), c in out.items()}
    g = IntPoly2(out)
    return g if g.leading_coeff() > 0 else -g


def poly_divexact(a: IntPoly2, b: IntPoly2) -> IntPoly2:
    """Exact quotient a/b in Z[q,t]; ExactDivisionError on any remainder.

    A b in the factored base is divided out factor by factor: exponent
    differences when a is factored too, else trial division of a's q-slices.
    """
    fb = _fac(b)
    if fb and a.terms:
        fa = a.fac
        if fa:
            return _from_fac(fac_div(fa, fb))
        return IntPoly2(divexact_by_fac(a.terms, fb))
    return _poly_divexact_generic(a, b)


def _poly_divexact_generic(a: IntPoly2, b: IntPoly2) -> IntPoly2:
    """Exact quotient by dense division; the reference for poly_divexact."""
    if b.is_zero():
        raise ExactDivisionError("division by zero polynomial")
    if a.is_zero():
        return _P_ZERO
    # univariate divisor: divide each slice of the dividend independently
    for axis in (0, 1):
        if all(e[1 - axis] == 0 for e in b.terms):
            dense_b = [0] * (max(e[axis] for e in b.terms) + 1)
            for e, c in b.terms.items():
                dense_b[e[axis]] = c
            slices: dict[int, dict[int, int]] = {}
            for e, c in a.terms.items():
                slices.setdefault(e[1 - axis], {})[e[axis]] = c
            out = {}
            for other, sl in slices.items():
                dense_a = [0] * (max(sl) + 1)
                for e, c in sl.items():
                    dense_a[e] = c
                quot = _t_divexact(dense_a, dense_b)
                for e, c in enumerate(quot):
                    if c:
                        out[(e, other) if axis == 0 else (other, e)] = c
            return IntPoly2(out)
    return IntPoly2(_to_sparse(_q_divexact(_to_dense(a.terms), _to_dense(b.terms))))


def _cancel(a: IntPoly2, b: IntPoly2) -> tuple[IntPoly2, IntPoly2]:
    """a / g and b / g for g = gcd(a, b) and a nonzero; a and b themselves when g = 1."""
    fb = _fac(b)
    if not fb:
        g = poly_gcd(a, b)
        return (a, b) if g.is_one() else (poly_divexact(a, g), poly_divexact(b, g))
    fa = a.fac
    if fa:
        g = fac_gcd(fa, fb)
        if g == _P_ONE.fac:
            return a, b
        return _from_fac(fac_div(fa, g)), _from_fac(fac_div(fb, g))
    g, quo = cancel_by_fac(a.terms, fb)
    return (a, b) if quo is None else (IntPoly2(quo), _from_fac(fac_div(fb, g)))


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
    def fraction(cls, num: IntPoly2, den: IntPoly2) -> "QtScalar":
        if den.is_zero():
            raise ZeroDenominator("denominator is the zero polynomial")
        if num.is_zero():
            return ZERO
        num, den = _cancel(num, den)
        if den.leading_coeff() < 0:
            num, den = -num, -den
        return cls(num, den)

    @classmethod
    def from_int(cls, c: int) -> "QtScalar":
        if c == 0:
            return ZERO
        return cls(IntPoly2.const(c), _P_ONE)

    def den_is_one(self) -> bool:
        t = self.den.terms
        return len(t) == 1 and t.get((0, 0)) == 1

    def is_zero(self) -> bool:
        return not self.num.terms

    def is_one(self) -> bool:
        return self.num.is_one() and self.den_is_one()

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
        g = poly_gcd(self.den, other.den)
        if g.is_one():
            num = self.num * other.den + other.num * self.den
            if not num.terms:
                return ZERO
            return QtScalar(num, self.den * other.den)
        db = poly_divexact(other.den, g)
        da = poly_divexact(self.den, g)
        num = self.num * db + other.num * da
        if not num.terms:
            return ZERO
        g2 = poly_gcd(num, g)
        if not g2.is_one():
            num = poly_divexact(num, g2)
            g = poly_divexact(g, g2)
        den = self.den * db if g2.is_one() else poly_divexact(self.den, g2) * db
        return QtScalar(num, den) if den.leading_coeff() > 0 else QtScalar(-num, -den)

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
        a_num, b_den = _cancel(self.num, other.den)
        b_num, a_den = _cancel(other.num, self.den)
        num = a_num * b_num
        den = a_den * b_den
        if den.leading_coeff() < 0:
            num, den = -num, -den
        return QtScalar(num, den)

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
        term in sorted order.
        """
        key = [len(self.num.terms)]
        for poly in (self.num, self.den):
            for (eq, et), c in sorted(poly.terms.items()):
                key += (eq, et, c)
        return tuple(key)

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
MINUS_ONE = QtScalar(IntPoly2.const(-1), _P_ONE)


def scalar_normalize(num: IntPoly2, den: IntPoly2) -> QtScalar:
    """Canonical reduced representative of num/den (idempotent)."""
    return QtScalar.fraction(num, den)


def q_power(e: int) -> QtScalar:
    if e >= 0:
        return QtScalar(IntPoly2.monomial(e, 0), _P_ONE)
    return QtScalar(_P_ONE, IntPoly2.monomial(-e, 0))


def t_power(e: int) -> QtScalar:
    if e >= 0:
        return QtScalar(IntPoly2.monomial(0, e), _P_ONE)
    return QtScalar(_P_ONE, IntPoly2.monomial(0, -e))


def q_integer(m: int) -> QtScalar:
    """[m]_q = 1 + q + ... + q^(m-1)."""
    if m < 0:
        raise ValueError("q-integer of a negative integer")
    return QtScalar(IntPoly2({(i, 0): 1 for i in range(m)}), _P_ONE) if m else ZERO

def q_factorial(m: int) -> QtScalar:
    """[m]_q! as a polynomial scalar (denominator 1)."""
    if m < 0:
        raise ValueError("q-factorial of a negative integer")
    acc = _P_ONE
    for i in range(2, m + 1):
        acc = acc * IntPoly2({(j, 0): 1 for j in range(i)})
    return QtScalar(acc, _P_ONE)


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
    """
    toks = _Tokens(text)
    val = _parse_expr(toks)
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
        k = int(e)
        out = ONE
        for _ in range(k):
            out = out * base
        return out
    return base


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
        return QtScalar.from_int(int(tok))
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
        return QtScalar.from_int(c)

    @staticmethod
    def q_power(e: int) -> QtScalar:
        return q_power(e)

    @staticmethod
    def t_power(e: int) -> QtScalar:
        return t_power(e)

    @staticmethod
    def convert(s: QtScalar) -> QtScalar:
        return s

    @staticmethod
    def q_integer(m: int) -> QtScalar:
        return q_integer(m)

    @staticmethod
    def lincomb(pairs: list) -> QtScalar:
        """Sum of c * m over the (c, m) pairs.

        When every denominator lies in the factored base the products are
        lifted to the lcm of their denominators, added as polynomials and
        reduced once; otherwise the products are added one by one.
        """
        if len(pairs) > 1:
            dens = [(_fac(c.den), _fac(m.den)) for c, m in pairs]
            if all(f and g for f, g in dens):
                facs = [fac_mul(f, g) for f, g in dens]
                lcm = fac_lcm(facs)
                total: dict = {}
                for (c, m), f in zip(pairs, facs):
                    for e, x in (c.num * m.num * _from_fac(fac_div(lcm, f))).terms.items():
                        total[e] = total.get(e, 0) + x
                return QtScalar.fraction(IntPoly2.from_terms(total), _from_fac(lcm))
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
