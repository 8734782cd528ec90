"""Polynomial modules over Q(q,t) and the shared operator-word machinery.

PolyVector holds an element of Q(q,t)[x_1..x_n] as a sparse map from
exponent vectors to scalars.  PolyRealization equips that space with the
primitive generator actions

    T_i(f)  = s_i(f) + (1-q) x_i (f - s_i(f)) / (x_i - x_{i+1})
    pi(f)   = f(x_2, ..., x_n, t x_1)
    X_i(f)  = x_i f

by supplying the T_i and pi images of one monomial to the table engine
(bqt.keyed), which applies them, derives T_i^{-1} = q^{-1}(T_i + (q-1))
from the quadratic relation, and gives X_i.  The divided difference of a
monomial is a closed sum of monomials with coefficients +-dl
(demazure_terms, shared with bqt.induced); no polynomial division is
carried out.  pi of x^e is the one monomial t^(e_n) x^(e_n, e_1, ..,
e_{n-1}).

Everything above the primitives is generic over any realization exposing
the same surface: Y_i (read from the realization's memo, whose builder
y_entry = derived(y_chain) runs the generator chain on first use; the
flavored z_i of bqt.lspaces reads the same entries), the partial
symmetrizers eps_k, the affine intertwiner word X_1 T_1^{-1} ... and formal
generator words applied right to left.

eps_k is the telescoping right-to-left recursion, not the factorial-size
coset sum, run once per stage and tail.  Stage j, eps_stage(M, j, key), is
eps_j of a key whose first j exponents are zero; it is the stage j+1 entry
of the key with exponent j+1 zeroed, times x_{j+1} to that exponent, pushed
through tinv_chain_sum and divided by [n-j]_q.  eps_stage is the builder of
those entries in the realization's memo, and eps_k of a key is the stage k
entry of its tail shifted by its head (bqt.keyed).  Stage 0 of a partition
key on the polynomial module (demazure_coefficient "1-q") is built in
closed form instead, as a multiple of the Hall-Littlewood polynomial P_mu
at t = q (eps0_partition; Macdonald, Symmetric Functions and Hall
Polynomials, III (5.11')), which tests/test_epsilon.py checks against the
recursion; every other stage, key and module keeps the recursion.

The realization's coefficient ring is pluggable (exact Q(q,t) or a prime
field evaluation); all scalar constants are built through ring methods.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from typing import Callable, Iterable, NamedTuple

from .errors import IndexOutOfRange, UnsupportedOperation
from .keyed import KeyedRealization, SparseVec, accumulate, coeffs_from_entries, strict_int
from .keyed import derived, pi_entry, ti_entry, tinv_entry
from .scalars import QT, parse_scalar

Exponents = tuple[int, ...]


def monomials_of_degree(n: int, d: int) -> list[Exponents]:
    """All exponent vectors of length n and total degree d, lex descending."""
    if n == 0:
        return [()] if d == 0 else []
    out: list[Exponents] = []

    def rec(prefix: list[int], remaining: int, slots: int) -> None:
        if slots == 1:
            out.append(tuple(prefix + [remaining]))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + [e], remaining - e, slots - 1)

    rec([], d, n)
    return out


def monomials_up_to_degree(n: int, d: int) -> list[Exponents]:
    out: list[Exponents] = []
    for dd in range(d + 1):
        out.extend(monomials_of_degree(n, dd))
    return out


def monomial_str(e: Exponents) -> str:
    return "*".join(f"x{i+1}^{k}" if k > 1 else f"x{i+1}" for i, k in enumerate(e) if k)


class PolyVector(SparseVec):
    """Sparse element of the rank-n polynomial space, keyed by exponent vectors."""

    __slots__ = ()

    def __init__(self, n: int, coeffs: dict[Exponents, object]):
        self.meta = (n,)
        self.coeffs = coeffs

    @classmethod
    def zero(cls, n: int) -> "PolyVector":
        return cls(n, {})

    @classmethod
    def monomial(cls, n: int, exps: Exponents, coeff) -> "PolyVector":
        if len(exps) != n:
            raise ValueError("exponent vector length disagrees with rank")
        return cls(n, {tuple(exps): coeff} if not coeff.is_zero() else {})

    def degree(self) -> int:
        if not self.coeffs:
            return -1
        return max(sum(e) for e in self.coeffs)

    def sorted_items(self):
        return sorted(self.coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)

    def _term(self, e: Exponents, c) -> str:
        mono = monomial_str(e)
        if not mono:
            return f"({c})"
        return mono if c.is_one() else f"({c})*{mono}"

    def to_obj(self) -> dict:
        return {
            "rank": self.n,
            "entries": [
                {"exponents": list(e), "coeff": str(c)} for e, c in self.sorted_items()
            ],
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "PolyVector":
        n = strict_int(obj["rank"], "rank")
        return cls(n, coeffs_from_entries(obj["entries"], lambda e: tuple(e["exponents"])))


# ---------------------------------------------------------------------------
# Demazure-Lusztig kernels on exponent vectors
# ---------------------------------------------------------------------------


def is_exponent_vector(exps, n: int) -> bool:
    """Whether exps is a tuple of n nonnegative ints."""
    return (
        type(exps) is tuple
        and len(exps) == n
        and all(type(a) is int and a >= 0 for a in exps)
    )


def swap_exponents(exps: Exponents, i: int) -> Exponents:
    # i is 1-based; swaps positions i, i+1
    lst = list(exps)
    lst[i - 1], lst[i] = lst[i], lst[i - 1]
    return tuple(lst)


def dl_coeffs(ring, demazure_coefficient: str = "1-q") -> dict:
    """The scalar dl on the divided difference in T_i, and -dl, keyed by sign."""
    if demazure_coefficient == "1-q":
        dl = ring.one - ring.q
    elif demazure_coefficient == "q-1":
        dl = ring.q - ring.one
    else:
        raise ValueError("demazure_coefficient must be '1-q' or 'q-1'")
    return {1: dl, -1: -dl}


def demazure_terms(exps: Exponents, i: int, coeffs: dict) -> list[tuple[Exponents, object]]:
    """dl x_i (x^e - s_i x^e)/(x_i - x_{i+1}) for one monomial, as (exponents, scalar) pairs.

    With a = e_i > b = e_{i+1} it is dl times the sum of x_i^k x_{i+1}^(a+b-k)
    over b < k <= a; with a < b it is -dl times the sum over a < k <= b; with
    a = b it is zero.  coeffs is dl_coeffs(...).  Terms come in increasing
    powers of x_i.
    """
    a, b = exps[i - 1], exps[i]
    c = coeffs[1 if a > b else -1]
    head, tail = exps[: i - 1], exps[i + 1 :]
    return [(head + (k, a + b - k) + tail, c) for k in range(min(a, b) + 1, max(a, b) + 1)]


class PolyRealization(KeyedRealization):
    """The rank-n polynomial representation over the given coefficient ring.

    demazure_coefficient selects the scalar multiplying the divided
    difference in T_i; the default (1-q) is the one satisfying the quadratic
    relation.  Passing "q-1" yields the deliberately broken variant used as
    a negative control by the relation checker.
    """

    kind = "poly"
    vector_type = PolyVector

    def __init__(self, n: int, ring=QT, demazure_coefficient: str = "1-q"):
        if n < 1:
            raise ValueError("rank must be positive")
        super().__init__(n, ring, (n,))
        self.demazure_coefficient = demazure_coefficient
        self._dl_coeffs = dl_coeffs(ring, demazure_coefficient)

    def descriptor(self) -> dict:
        d = {"module": "poly", "n": self.n}
        if self.demazure_coefficient != "1-q":
            d["demazure_coefficient"] = self.demazure_coefficient
        return d

    def one(self) -> PolyVector:
        return PolyVector(self.n, {(0,) * self.n: self.ring.one})

    def contains_key(self, exps) -> bool:
        return is_exponent_vector(exps, self.n)

    def basis(self, degree: int) -> list[PolyVector]:
        return [v for _, v in self.basis_with_exponents(degree)]

    def basis_with_exponents(self, degree: int) -> list[tuple[Exponents, PolyVector]]:
        one = self.ring.one
        return [
            (e, PolyVector(self.n, {e: one})) for e in monomials_of_degree(self.n, degree)
        ]

    def _head(self, exps: Exponents, k: int) -> Exponents:
        return exps[:k]

    def _join_head(self, head: Exponents, exps: Exponents) -> Exponents:
        return head + exps[len(head):]

    def _ti_image(self, i: int, exps: Exponents) -> tuple:
        one = self.ring.one
        if exps[i - 1] == exps[i]:
            return ((exps, one),)
        out: dict[Exponents, object] = {swap_exponents(exps, i): one}
        for e, c in demazure_terms(exps, i, self._dl_coeffs):
            accumulate(out, e, c)
        return tuple(out.items())

    def _pi_image(self, exps: Exponents) -> tuple:
        """x^e -> t^(e_n) x^(e_n, e_1, .., e_{n-1})."""
        last = exps[-1]
        return (((last,) + exps[:-1], self.ring.t_power(last)),)

    # bound on the class itself too, where perfbench's tracer wraps them
    apply_Ti = KeyedRealization.apply_Ti
    apply_Ti_inv = KeyedRealization.apply_Ti_inv
    apply_pi = KeyedRealization.apply_pi
    apply_Xi = KeyedRealization.apply_Xi


# ---------------------------------------------------------------------------
# derived operators, generic over any realization
# ---------------------------------------------------------------------------


def y_chain(M: KeyedRealization, v, i: int):
    """q^(n-i+1) T_{i-1}..T_1 pi T_{n-1}^{-1}..T_i^{-1} v, generator by generator."""
    w = v
    for j in range(i, M.n):
        w = M.apply_Ti_inv(w, j)
    w = M.apply_pi(w)
    for j in range(1, i):
        w = M.apply_Ti(w, j)
    return w.scale(M.ring.q_power(M.n - i + 1))


y_entry = derived(y_chain)


def _y_index(M: KeyedRealization, i: int) -> int:
    if not 1 <= i <= M.n:
        raise IndexOutOfRange(f"Y index {i} outside 1..{M.n}")
    return i


def apply_Y(M: KeyedRealization, v, i: int):
    """Y_i, through the per-key table of y_chain."""
    return M.apply_entries(v, y_entry, _y_index(M, i))


def apply_epsilon(M: KeyedRealization, v, k: int):
    """Partial trivial idempotent eps_k, by linear extension of eps_image."""
    n = M.n
    if not 0 <= k <= n:
        raise IndexOutOfRange(f"idempotent index {k} outside 0..{n}")
    return M._apply_table(v, eps_image, M, k)


def eps_image(M: KeyedRealization, k: int, key) -> tuple:
    """eps_k of one key, as an entry: the stage k entry of its tail, its keys
    shifted by the head and its scalars tuple the stage's own."""
    head = M._head(key, k)
    stage = M._table(eps_stage, k, M._join_head((0,) * len(head), key))
    if not any(head):
        return stage
    keys, scalars = stage
    return tuple(M._join_head(head, k2) for k2 in keys), scalars


def eps_stage(M: KeyedRealization, j: int, key):
    """eps_j of a key whose first j exponents are zero: the builder of stage j entries.

    Stage j rewrites eps_j = (sum_r q^r T_{j+r}^{-1}..T_{j+1}^{-1}) eps_{j+1}
    normalized by [n-j]_q.  eps_{j+1} is built from T_{j+2}..T_{n-1}, which
    commute with x_1..x_{j+1}, so eps_{j+1} of the key is x_{j+1}^a times
    the stage j+1 entry of the key with its exponent j+1 (that is a)
    zeroed.  Stage n is the key itself.  Stage 0 of a partition on the
    polynomial module (demazure_coefficient "1-q") is the Hall-Littlewood
    closed form eps0_partition instead; the recursion stays for every
    other stage, key and module.
    """
    n = M.n
    if j == n:
        return ((key, M.ring.one),)
    if (j == 0 and isinstance(M, PolyRealization) and M.demazure_coefficient == "1-q"
            and all(a >= b for a, b in zip(key, key[1:]))):
        return eps0_partition(M, key)
    head = M._head(key, j + 1)
    keys, scalars = M._table(eps_stage, j + 1, M._join_head((0,) * len(head), key))
    w = M._vec({M._join_head(head, k2): m for k2, m in zip(keys, scalars)})
    ring = M.ring
    return tinv_chain_sum(M, w, j + 1).scale(ring.one / ring.q_integer(n - j)).coeffs.items()


def eps0_partition(M: PolyRealization, mu: Exponents) -> list:
    """eps_0 x^mu of a partition mu (padded with zeros to length n), in closed form.

    eps_0 x^mu = (prod_i [m_i]_q! / [n]_q!) P_mu(x_1..x_n; t = q), m_i the
    number of parts of mu equal to i, zeros counted.  P_mu is the
    Hall-Littlewood polynomial, sum over semistandard tableaux T of shape mu
    of psi_T(q) x^T (Macdonald, Symmetric Functions and Hall Polynomials,
    2nd ed., III (5.11')).  The coefficient of x^beta depends only on the
    sorted beta, so it is computed once per dominant weight (hl_coefficient)
    and every rearrangement of that weight gets the one scalar object.
    tests/test_epsilon.py checks it against the T^{-1} recursion.
    """
    ring = M.ring
    norm = eps0_normalizer(ring, mu)
    shape = tuple(a for a in mu if a)
    psi_factors = [ring.one - ring.q_power(m) for m in range(len(shape) + 1)]
    out = []
    # every lam <= mu in dominance has a tableau of shape mu and weight lam
    for lam in partitions_dominated_by(mu):
        c = norm * hl_coefficient(ring, shape, lam, psi_factors)
        if not c.is_zero():
            c = M._pooled(c)
            out.extend((beta, c) for beta in rearrangements(lam))
    return out


def eps0_normalizer(ring, mu: Exponents):
    """prod_i [m_i]_q! / [n]_q!, m_i the multiplicity of i in mu, zeros counted."""
    num = den = ring.one
    for m in Counter(mu).values():
        for r in range(2, m + 1):
            num = num * ring.q_integer(r)
    for r in range(2, len(mu) + 1):
        den = den * ring.q_integer(r)
    return num / den


def partitions_dominated_by(mu: Exponents) -> list[Exponents]:
    """Weakly decreasing lam of len(mu) parts and |mu| boxes with lam <= mu in dominance."""
    out: list[Exponents] = []
    total = sum(mu)
    bounds = [sum(mu[: i + 1]) for i in range(len(mu))]

    def rec(prefix: tuple, room: int, top: int) -> None:
        i = len(prefix)
        if i == len(mu):
            if not room:
                out.append(prefix)
            return
        for a in range(min(top, room), -1, -1):
            if total - room + a <= bounds[i] and a * (len(mu) - i) >= room:
                rec(prefix + (a,), room - a, a)

    rec((), total, total)
    return out


def hl_coefficient(ring, shape: Exponents, lam: Exponents, psi_factors: list):
    """sum of psi_T(q) over the semistandard tableaux T of shape and weight lam.

    A dynamic program over the chains of partitions 0 = nu_0 < nu_1 < .. <
    nu_len(lam) = shape, each nu_i / nu_(i-1) a horizontal strip of lam_i
    boxes; psi_factors[m] is 1 - q^m.
    """
    states = {(0,) * len(shape): ring.one}
    for size in lam:
        nxt: dict = {}
        for nu, acc in states.items():
            for kappa in horizontal_strips(nu, shape, size):
                val = times_strip_psi(acc, nu, kappa, psi_factors)
                cur = nxt.get(kappa)
                nxt[kappa] = val if cur is None else cur + val
        states = nxt
    return states[shape]


def times_strip_psi(val, nu: Exponents, kappa: Exponents, psi_factors: list):
    """val times psi of the horizontal strip kappa/nu: the product of
    (1 - q^(m_j(nu))) over the columns j >= 1 that the strip misses while it
    fills column j+1."""
    cols = {c for a, b in zip(nu, kappa) for c in range(a + 1, b + 1)}
    for c in cols:
        if c > 1 and c - 1 not in cols:
            val = val * psi_factors[nu.count(c - 1)]
    return val


def horizontal_strips(nu: Exponents, shape: Exponents, size: int) -> list[Exponents]:
    """The kappa inside shape with kappa / nu a horizontal strip of size boxes."""
    out: list[Exponents] = []

    def rec(i: int, prefix: tuple, room: int) -> None:
        if i == len(nu):
            if not room:
                out.append(prefix)
            return
        top = shape[i] if i == 0 else min(shape[i], nu[i - 1])
        for b in range(nu[i], min(top, nu[i] + room) + 1):
            rec(i + 1, prefix + (b,), room - (b - nu[i]))

    rec(0, (), size)
    return out


def rearrangements(lam: Exponents) -> list[Exponents]:
    """The distinct permutations of lam, in lexicographic order (Knuth, TAOCP 7.2.1.2, Algorithm L)."""
    a = sorted(lam)
    out = [tuple(a)]
    while True:
        i = len(a) - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return out
        j = len(a) - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1:] = reversed(a[i + 1:])
        out.append(tuple(a))


def tinv_chain_sum(M: KeyedRealization, v, a: int):
    """v + q T_a^{-1} v + q^2 T_{a+1}^{-1} T_a^{-1} v + ... up to T_{n-1}^{-1}."""
    ring = M.ring
    acc = u = v
    qpow = ring.one
    for j in range(a, M.n):
        u = M.apply_Ti_inv(u, j)
        qpow = qpow * ring.q
        acc = acc.add(u.scale(qpow))
    return acc


def apply_x1_tinv_chain(M: KeyedRealization, v, m: int):
    """X_1 T_1^{-1} ... T_m^{-1} applied right to left; m = 0 is plain X_1."""
    w = v
    for j in range(m, 0, -1):
        w = M.apply_Ti_inv(w, j)
    return M.apply_Xi(w, 1)


def apply_pi_tilde(M: KeyedRealization, v):
    return apply_x1_tinv_chain(M, v, M.n - 1)


# formal generator words: tuples of symbols applied right to left.  An
# alphabet maps each tag to its Letter: argument count, action act(M, w, *args)
# (looking its operator up when called), flavor and degree shifts, and for a
# letter that reads a per-key table of a keyed realization, table(M, w, *args):
# the image function key -> (keys, scalars), an entry, of the table it applies to
# the vector w, after the same index check as act.  Where table is None the
# letter has no per-key table and only act applies it.  A letter whose act is
# its table's image times a scalar gives factor(M), that scalar.


class Letter(NamedTuple):
    arity: int
    act: Callable
    flavor_shift: int = 0
    degree_shift: int = 0
    table: Callable | None = None
    factor: Callable | None = None


WORD_ALPHABET = {
    "T": Letter(1, lambda M, w, i: M.apply_Ti(w, i),
                table=lambda M, w, i: partial(M._table, ti_entry, M._t_index(i))),
    "Tinv": Letter(1, lambda M, w, i: M.apply_Ti_inv(w, i),
                   table=lambda M, w, i: partial(M._table, tinv_entry, M._t_index(i))),
    "X": Letter(1, lambda M, w, i: M.apply_Xi(w, i)),
    "Y": Letter(1, lambda M, w, i: apply_Y(M, w, i),
                table=lambda M, w, i: partial(M._table, y_entry, _y_index(M, i))),
    "Eps": Letter(1, lambda M, w, k: apply_epsilon(M, w, k)),
    "Pi": Letter(0, lambda M, w: M.apply_pi(w),
                 table=lambda M, w: partial(M._table, pi_entry, None)),
    "PiTilde": Letter(0, lambda M, w: apply_pi_tilde(M, w)),
    "Scalar": Letter(1, lambda M, w, c: w.scale(c)),
}
PI, PITILDE = ("Pi",), ("PiTilde",)


def letter(alphabet: dict, sym: tuple) -> Letter:
    """The alphabet's entry for the symbol's tag; UnsupportedOperation if none."""
    entry = alphabet.get(sym[0])
    if entry is None:
        raise UnsupportedOperation(f"word symbol {sym!r}")
    return entry


def apply_word(M: KeyedRealization, v, word: Iterable[tuple], alphabet: dict = WORD_ALPHABET):
    """Apply a word right to left (the empty word is the identity); operators check indices."""
    w = v
    for sym in reversed(list(word)):
        w = letter(alphabet, sym).act(M, w, *sym[1:])
    return w


def word_to_json(word: Iterable[tuple]) -> list:
    out = []
    for sym in word:
        if sym[0] == "Scalar":
            out.append(["Scalar", str(sym[1])])
        else:
            out.append(list(sym))
    return out


def word_from_json(data, alphabet: dict = WORD_ALPHABET) -> tuple:
    """Parse a JSON word such as [["X", 1], ["Pi"], ["Scalar", "q - 1"]].

    Every symbol is a list of a tag of the alphabet and as many arguments as
    the alphabet gives it: an int index, or the text of a Scalar, parsed
    over Q(q,t).  Anything else raises ValueError.
    """
    if not isinstance(data, list):
        raise ValueError(f"a word is a JSON list of symbols, got {data!r}")
    word = []
    for sym in data:
        tag = sym[0] if isinstance(sym, list) and sym else None
        arity = alphabet[tag].arity if isinstance(tag, str) and tag in alphabet else None
        if arity is None or len(sym) != 1 + arity:
            arities = {t: entry.arity for t, entry in alphabet.items()}
            raise ValueError(f"malformed word symbol {sym!r}; tags and arities: {arities}")
        if tag == "Scalar":
            if not isinstance(sym[1], str):
                raise ValueError(f"Scalar argument {sym[1]!r} is not scalar text")
            word.append(("Scalar", parse_scalar(sym[1])))
        elif arity and type(sym[1]) is not int:
            raise ValueError(f"index in word symbol {sym!r} is not an integer")
        else:
            word.append(tuple(sym))
    return tuple(word)
