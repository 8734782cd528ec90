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

Polynomials are plain terms dicts here, {(e_q, e_t): coefficient}; the
scalar module owns IntPoly2 and keeps one interned polynomial per
factorization.  The two tables below are memos of pure functions, bounded
by the distinct cyclotomics and univariate denominators a process meets.
"""

from __future__ import annotations

from math import gcd as igcd, lcm

from .errors import ExactDivisionError

_CYCLOTOMIC: dict[int, list[int]] = {}
# factorization of each univariate-in-q polynomial factored so far, by value
_FAC_OF: dict[frozenset, tuple | bool] = {}


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


def cancel_by_fac(terms: dict, g: tuple) -> tuple:
    """gcd(p, g) as a factorization and the terms of p / gcd, for nonzero p with these terms.

    One trial division of p's q-slices finds both; the quotient is None when
    the gcd is 1.
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
        lo, rows = _q_rows(terms)
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
