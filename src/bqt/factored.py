"""The factored base of Z[q,t]: c * q^a * t^b * prod Phi_m(q)^e_m.

Every denominator the seminormal modules produce has this form: [m]_q is
the product of Phi_d(q) over the divisors d > 1 of m, q^c - q^c' is a signed
q-power times the Phi_d(q) with d dividing |c - c'|, and products and
quotients of such stay in the base.  Z[q] is a unique factorization domain
and the Phi_m are pairwise distinct monic irreducibles prime to q, so a
polynomial of the base has exactly one factorization

    (c, a, b, ((m, e), ...))      c a nonzero integer, m increasing, e > 0,

and its integer content is |c| (each Phi_m is primitive).  Two factorizations
multiply, divide and take gcds by exponent sums, differences and minima.
The gcd of any polynomial with one of the base, and the quotient by that
gcd, follow from one univariate trial division of its q-slices by each
Phi_m (cancel_by_fac): Phi_m(q) divides p(q, t) exactly when it divides
the coefficient of every t^j.  The quotient is exact when the gcd is the
divisor itself.

Polynomials are plain terms dicts here, {(e_q, e_t): coefficient}, except
in packed and packed_sum, which take IntPoly2 objects for their cache; the
scalar module owns IntPoly2 and keeps one interned polynomial per
factorization.  _CYCLOTOMIC and _FAC_OF are memos of pure functions,
bounded by the distinct cyclotomics and univariate denominators a process
meets.  Four Table memos hold the operations on factorizations: PRODUCT,
pairwise LCM, QUOTIENT and CANCEL, the quotients of two factorizations by
their gcd.  Each is keyed by the pair of argument tuples, never by a
polynomial or an id(), so with F the distinct factorizations a process
meets each holds at most F^2 entries; _SHARED keeps one tuple per
factorization for all of them.  A quotient that raises stores nothing.

Sums of products a * b * c, the numerators of a lifted lincomb group, run
on packed rows (packed, packed_sum): the q-coefficients of each power of t
sit in SLOT = 64-bit slots of one Python int, so a row product and a row sum
are single big-int operations, the trick of FLINT's coefficient packing
(Hart, ICMS 2010).  Exactness is certified, not probable: every coefficient
of the sum is at most the sum over the triples of the products of their
1-norms, and only when that bound is below 2^63 is each row decoded, with
C-level steps: ((row + bias) ^ bias).to_bytes(...) read as int64 through a
memoryview.  Otherwise packed_sum returns None and the caller adds the
products one by one.  An IntPoly2 caches its packed rows, 1-norm and top
q-degree in its own ``rows`` slot, so the cache goes when the polynomial
does; interned and pooled polynomials, which recur in many groups, keep it.
"""

from __future__ import annotations

import sys
from math import gcd as igcd, lcm

from .errors import ExactDivisionError

_CYCLOTOMIC: dict[int, list[int]] = {}
# factorization of each univariate-in-q polynomial factored so far, by value
_FAC_OF: dict[frozenset, tuple | bool] = {}

# bits per packed coefficient, the width of a C long long ("q" memoryview format)
SLOT = 64
# the slots decode through a native-order memoryview of little-endian bytes
_LITTLE = sys.byteorder == "little"


def cyclotomic(m: int) -> list[int]:
    """Dense little-endian Phi_m(q), from q^m - 1 = prod over d | m of Phi_d(q)."""
    phi = _CYCLOTOMIC.get(m)
    if phi is None:
        phi = [-1] + [0] * (m - 1) + [1]
        for d in range(1, m):
            if m % d == 0:
                phi = _quo_monic(phi, cyclotomic(d))
        _CYCLOTOMIC[m] = phi
    return phi


def _totient(m: int) -> int:
    out, n, p = m, m, 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            out -= out // p
        p += 1
    return out - out // n if n > 1 else out


def _quo_monic(a: list[int], b: list[int]) -> list[int] | None:
    """a / b for dense nonzero a and monic b; None unless b divides a."""
    db = len(b) - 1
    if len(a) <= db:
        return None
    a = a[:]
    quot = [0] * (len(a) - db)
    for off in range(len(a) - 1 - db, -1, -1):
        qc = a[off + db]
        if qc:
            quot[off] = qc
            for i in range(db):
                a[off + i] -= qc * b[i]
    return None if any(a[:db]) else quot


def factor(terms: dict) -> tuple | bool:
    """The factorization of the polynomial with these terms, or False outside the base."""
    if not terms:
        return False
    b = next(iter(terms))[1]
    if any(et != b for _, et in terms):
        return False
    key = frozenset(terms.items())
    fac = _FAC_OF.get(key)
    if fac is None:
        a = min(eq for eq, _ in terms)
        r = [0] * (max(eq for eq, _ in terms) - a + 1)
        for (eq, _), c in terms.items():
            r[eq - a] = c
        c = r[-1]
        fac = False
        # every Phi_m is monic with Phi_m(0) = +-1
        if abs(r[0]) == abs(c) and not any(x % c for x in r):
            r = [x // c for x in r]
            exps = []
            m = 1
            # totient(m) >= sqrt(m/2): no Phi_m with m > 2 deg^2 can divide r
            while len(r) > 1 and m <= 2 * (len(r) - 1) ** 2:
                if _totient(m) < len(r):
                    phi, e = cyclotomic(m), 0
                    while (quo := _quo_monic(r, phi)) is not None:
                        r, e = quo, e + 1
                    if e:
                        exps.append((m, e))
                m += 1
            if len(r) == 1:
                fac = (c, a, b, tuple(exps))
        _FAC_OF[key] = fac
    return fac


def fac_mul(f: tuple, g: tuple) -> tuple:
    """The factorization of f * g."""
    exps = dict(f[3])
    for m, e in g[3]:
        exps[m] = exps.get(m, 0) + e
    return (f[0] * g[0], f[1] + g[1], f[2] + g[2], tuple(sorted(exps.items())))


def fac_div(f: tuple, g: tuple) -> tuple:
    """The factorization of f / g; ExactDivisionError unless g divides f."""
    exps = dict(f[3])
    for m, e in g[3]:
        left = exps.get(m, 0) - e
        if left < 0:
            raise ExactDivisionError("inexact division in the factored base")
        if left:
            exps[m] = left
        else:
            del exps[m]
    if f[0] % g[0] or f[1] < g[1] or f[2] < g[2]:
        raise ExactDivisionError("inexact division in the factored base")
    return (f[0] // g[0], f[1] - g[1], f[2] - g[2], tuple(sorted(exps.items())))


def fac_gcd(f: tuple, g: tuple) -> tuple:
    """The factorization of gcd(f, g), positive content."""
    ge = dict(g[3])
    exps = tuple((m, min(e, ge[m])) for m, e in f[3] if m in ge)
    return (igcd(f[0], g[0]), min(f[1], g[1]), min(f[2], g[2]), exps)


def fac_cancel(f: tuple, g: tuple) -> tuple | None:
    """(f / d, g / d) for d = gcd(f, g); None when d is 1."""
    d = fac_gcd(f, g)
    if d == (1, 0, 0, ()):
        return None
    return fac_div(f, d), fac_div(g, d)


def _q_rows(terms: dict) -> tuple[int, list[tuple[int, list[int]]]]:
    """Lowest e_q of p, and for each e_t the dense q-coefficients from there on."""
    lo = min(eq for eq, _ in terms)
    width = max(eq for eq, _ in terms) - lo + 1
    rows: dict[int, list[int]] = {}
    for (eq, et), c in terms.items():
        row = rows.get(et)
        if row is None:
            row = rows[et] = [0] * width
        row[eq - lo] = c
    return lo, list(rows.items())


def _rows_quo(rows: list, phi: list[int]) -> list | None:
    # Phi_m is prime to q, so it divides a q-shifted row as it does the row
    out = []
    for et, row in rows:
        quo = _quo_monic(row, phi)
        if quo is None:
            return None
        out.append((et, quo))
    return out


def fac_lcm(facs) -> tuple:
    """The factorization of the lcm of nonzero factorizations, positive content."""
    c, a, b, exps = 1, 0, 0, {}
    for f in facs:
        c = lcm(c, f[0])
        a, b = max(a, f[1]), max(b, f[2])
        for m, e in f[3]:
            if e > exps.get(m, 0):
                exps[m] = e
    return (c, a, b, tuple(sorted(exps.items())))


class Table(dict):
    """A memo of fn, a pure function of factorizations: table[f, g] is fn(f, g),
    computed on the first lookup and keyed by the argument tuple itself.  A
    call that raises stores nothing, so it raises again on every lookup."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, key: tuple):
        out = self[_shared(key)] = _shared(self.fn(*key))
        return out


def _shared(x):
    """x with each factorization in it replaced by the equal one in _SHARED,
    so the tables hold one tuple per factorization; x is a factorization, a
    tuple of them or None."""
    if x is None:
        return x
    if type(x[0]) is tuple:
        return tuple(map(_shared, x))
    return _SHARED.setdefault(x, x)


_SHARED: dict[tuple, tuple] = {}
PRODUCT = Table(fac_mul)
LCM = Table(lambda f, g: fac_lcm((f, g)))
QUOTIENT = Table(fac_div)
CANCEL = Table(fac_cancel)


def lcm_fold(facs: list) -> tuple:
    """fac_lcm(facs) for a nonempty list of positive-content factorizations,
    folded pairwise through LCM, skipping each factor equal to the lcm so far."""
    out = facs[0]
    for f in facs[1:]:
        if f != out:
            out = LCM[out, f]
    return out


def packed(p) -> tuple:
    """(1-norm, top q-degree, ((e_t, row), ...)) of the polynomial p.

    Each row packs the q-coefficients of one power of t into SLOT-bit slots
    of one int, the coefficient of q^i scaled by 2^(SLOT*i).  The tuple is
    cached in p's ``rows`` slot, so it lives exactly as long as p does.
    """
    r = p.rows
    if r is None:
        terms = p.terms
        rows: dict[int, int] = {}
        for (eq, et), c in terms.items():
            rows[et] = rows.get(et, 0) + (c << SLOT * eq)
        r = p.rows = (sum(map(abs, terms.values())), max((eq for eq, _ in terms), default=0),
                      tuple(rows.items()))
    return r


def packed_sum(triples) -> tuple | None:
    """(terms, rows) of the sum of a * b * c over (a, b, c) polynomial triples,
    or None unless the bound certifies its slots; rows are the sum's nonzero
    q-slices from q^0 on, [(e_t, [coefficient, ...]), ...].

    A coefficient of the sum is at most the bound, the sum over the triples
    of the products of their 1-norms, in absolute value; while the bound is
    below 2^(SLOT-1) every slot of a row sum holds its coefficient exactly,
    so adding 2^(SLOT-1) to each slot borrows nothing from the next one, and
    flipping that bit back leaves each slot in two's complement.
    """
    bound = top = 0
    total: dict[int, int] = {}
    for a, b, c in triples:
        na, ta, ra = a.rows or packed(a)
        nb, tb, rb = b.rows or packed(b)
        nc, tc, rc = c.rows or packed(c)
        bound += na * nb * nc
        if ta + tb + tc > top:
            top = ta + tb + tc
        for ea, x in ra:
            for eb, y in rb:
                xy = x * y
                for ec, z in rc:
                    e = ea + eb + ec
                    total[e] = total.get(e, 0) + xy * z
    if bound >> SLOT - 1 or not _LITTLE:
        return None
    width = top + 1
    # 2^(SLOT-1) in each of the width slots: a base-2^SLOT repunit, shifted
    bias = ((1 << SLOT * width) - 1) // ((1 << SLOT) - 1) << SLOT - 1
    out, rows = {}, []
    for et, row in total.items():
        if row:
            row = memoryview(((row + bias) ^ bias).to_bytes(width * SLOT // 8, "little"))
            row = row.cast("q").tolist()
            rows.append((et, row))
            for eq, x in enumerate(row):
                if x:
                    out[eq, et] = x
    return out, rows


def cancel_by_fac(terms: dict, g: tuple, rows=None) -> tuple:
    """gcd(p, g) as a factorization and the terms of p / gcd, for nonzero p with these terms.

    One trial division of p's q-slices finds both; the quotient is None when
    the gcd is 1.  rows, when given, are p's nonzero q-slices from q^0 on, as
    packed_sum decodes them.
    """
    c, a, b, exps = g
    c = abs(c)
    if c != 1:
        for x in terms.values():
            c = igcd(c, x)
            if c == 1:
                break
    if a:
        a = min(a, min(eq for eq, _ in terms))
    if b:
        b = min(b, min(et for _, et in terms))
    common = []
    if exps:
        lo, rows = _q_rows(terms) if rows is None else (0, rows)
        for m, e in exps:
            phi, k = cyclotomic(m), 0
            while k < e and (quo := _rows_quo(rows, phi)) is not None:
                rows, k = quo, k + 1
            if k:
                common.append((m, k))
    gcd = (c, a, b, tuple(common))
    if c == 1 and not (a or b or common):
        return gcd, None
    if not common:
        return gcd, {(eq - a, et - b): x // c for (eq, et), x in terms.items()}
    return gcd, {
        (lo - a + i, et - b): x // c for et, row in rows for i, x in enumerate(row) if x
    }
