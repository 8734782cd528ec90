"""Polynomial modules over Q(q,t) and the shared operator-word machinery.

PolyVector holds an element of Q(q,t)[x_1..x_n] as a sparse map from
exponent vectors to scalars.  PolyRealization equips that space with the
primitive generator actions

    T_i(f)  = s_i(f) + (1-q) x_i (f - s_i(f)) / (x_i - x_{i+1})
    pi(f)   = f(x_2, ..., x_n, t x_1)
    X_i(f)  = x_i f

where the divided difference is an exact polynomial division (a nonzero
remainder raises, it is never truncated).  T_i^{-1} comes from the quadratic
relation as q^{-1}(T_i + (q-1)).

Everything above the primitives is generic over any realization exposing
the same surface: the derived operators Y_i, the partial symmetrizers
eps_k (computed by the telescoping right-to-left recursion, not the
factorial-size coset sum), the affine intertwiner word X_1 T_1^{-1} ... and
formal generator words applied right to left.

The realization's coefficient ring is pluggable (exact Q(q,t) or a prime
field evaluation); all scalar constants are built through ring methods.
"""

from __future__ import annotations

from typing import Iterable, Protocol

from .errors import ExactDivisionError, IndexOutOfRange, UnsupportedOperation
from .keyed import KeyedRealization, SparseVec, accumulate
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
        n = int(obj["rank"])
        vec = cls.zero(n)
        for entry in obj["entries"]:
            c = parse_scalar(entry["coeff"])
            vec = vec.add(cls.monomial(n, tuple(entry["exponents"]), c))
        return vec


class ModuleRealization(Protocol):
    """Contract every module realization satisfies (duck-typed)."""

    n: int
    ring: object
    kind: str

    def basis(self, degree: int) -> list: ...
    def zero(self): ...
    def apply_Ti(self, v, i: int): ...
    def apply_Ti_inv(self, v, i: int): ...
    def apply_pi(self, v): ...
    def apply_Xi(self, v, i: int): ...


# ---------------------------------------------------------------------------
# Demazure-Lusztig kernels on raw coefficient maps
# ---------------------------------------------------------------------------


def swap_exponents(exps: Exponents, i: int) -> Exponents:
    # i is 1-based; swaps positions i, i+1
    lst = list(exps)
    lst[i - 1], lst[i] = lst[i], lst[i - 1]
    return tuple(lst)


def divexact_by_var_difference(coeffs: dict[Exponents, object], i: int) -> dict:
    """Exact quotient of a polynomial by (x_i - x_{i+1}), remainder asserted zero.

    Synthetic (Horner) division in x_i treating all other variables as
    inert: group terms on the remaining exponents, divide each bivariate
    block, and recombine.
    """
    groups: dict[tuple, dict[tuple[int, int], object]] = {}
    for e, c in coeffs.items():
        ctx = e[: i - 1] + e[i + 1 :]
        groups.setdefault(ctx, {})[(e[i - 1], e[i])] = c
    out: dict[Exponents, object] = {}
    for ctx, block in groups.items():
        da = max(a for a, _ in block)
        # columns[a] = coefficient of x_i^a as a map x_{i+1}-exponent -> scalar
        columns: list[dict[int, object]] = [{} for _ in range(da + 1)]
        for (a, b), c in block.items():
            columns[a][b] = c
        quot: list[dict[int, object]] = [{} for _ in range(da)]
        carry: dict[int, object] = {}
        for a in range(da, 0, -1):
            cur = dict(columns[a])
            for b, c in carry.items():
                s = cur.get(b)
                cur[b] = c if s is None else s + c
            cur = {b: c for b, c in cur.items() if not c.is_zero()}
            quot[a - 1] = cur
            carry = {b + 1: c for b, c in cur.items()}
        remainder = dict(columns[0])
        for b, c in carry.items():
            s = remainder.get(b)
            remainder[b] = c if s is None else s + c
        if any(not c.is_zero() for c in remainder.values()):
            raise ExactDivisionError(
                "divided difference left a nonzero remainder (convention bug)"
            )
        for a, col in enumerate(quot):
            for b, c in col.items():
                e = ctx[: i - 1] + (a, b) + ctx[i - 1 :]
                out[e] = c
    return out


def divided_difference(coeffs: dict[Exponents, object], i: int) -> dict:
    """x_i (f - s_i f)/(x_i - x_{i+1}) on a raw coefficient map."""
    diff: dict[Exponents, object] = {}
    for e, c in coeffs.items():
        se = swap_exponents(e, i)
        if se == e:
            continue
        s = diff.get(e)
        diff[e] = c if s is None else s + c
        s = diff.get(se)
        diff[se] = -c if s is None else s - c
    diff = {e: c for e, c in diff.items() if not c.is_zero()}
    if not diff:
        return {}
    quot = divexact_by_var_difference(diff, i)
    return {e[: i - 1] + (e[i - 1] + 1,) + e[i:]: c for e, c in quot.items()}


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
        if demazure_coefficient == "1-q":
            self._dl_coeff = ring.one - ring.q
        elif demazure_coefficient == "q-1":
            self._dl_coeff = ring.q - ring.one
        else:
            raise ValueError("demazure_coefficient must be '1-q' or 'q-1'")

    def descriptor(self) -> dict:
        d = {"module": "poly", "n": self.n}
        if self.demazure_coefficient != "1-q":
            d["demazure_coefficient"] = self.demazure_coefficient
        return d

    def one(self) -> PolyVector:
        return PolyVector(self.n, {(0,) * self.n: self.ring.one})

    def basis(self, degree: int) -> list[PolyVector]:
        return [v for _, v in self.basis_with_exponents(degree)]

    def basis_with_exponents(self, degree: int) -> list[tuple[Exponents, PolyVector]]:
        one = self.ring.one
        return [
            (e, PolyVector(self.n, {e: one})) for e in monomials_of_degree(self.n, degree)
        ]

    def _ti_image(self, i: int, exps: Exponents) -> tuple:
        one = self.ring.one
        if exps[i - 1] == exps[i]:
            return ((exps, one),)
        out: dict[Exponents, object] = {swap_exponents(exps, i): one}
        for e, c in divided_difference({exps: one}, i).items():
            accumulate(out, e, c * self._dl_coeff)
        return tuple(out.items())

    def apply_Ti(self, v: PolyVector, i: int) -> PolyVector:
        return self._apply_table(v, self._ti_table, self._t_index(i))

    def apply_Ti_inv(self, v: PolyVector, i: int) -> PolyVector:
        return self._apply_table(v, self._tinv_table, self._t_index(i))

    def apply_pi(self, v: PolyVector) -> PolyVector:
        ring = self.ring
        out: dict[Exponents, object] = {}
        for e, c in v.coeffs.items():
            last = e[-1]
            out[(last,) + e[:-1]] = c * ring.t_power(last) if last else c
        return PolyVector(self.n, out)

    def apply_Xi(self, v: PolyVector, i: int) -> PolyVector:
        if not 1 <= i <= self.n:
            raise IndexOutOfRange(f"X index {i} outside 1..{self.n}")
        out = {e[: i - 1] + (e[i - 1] + 1,) + e[i:]: c for e, c in v.coeffs.items()}
        return PolyVector(self.n, out)


# ---------------------------------------------------------------------------
# derived operators, generic over any realization
# ---------------------------------------------------------------------------


def apply_Y(M: ModuleRealization, v, i: int):
    """Y_i as the word q^(n-i+1) T_{i-1}..T_1 pi T_{n-1}^{-1}..T_i^{-1}."""
    n = M.n
    if not 1 <= i <= n:
        raise IndexOutOfRange(f"Y index {i} outside 1..{n}")
    w = v
    for j in range(i, n):
        w = M.apply_Ti_inv(w, j)
    w = M.apply_pi(w)
    for j in range(1, i):
        w = M.apply_Ti(w, j)
    return w.scale(M.ring.q_power(n - i + 1))


def apply_epsilon(M: ModuleRealization, v, k: int):
    """Partial trivial idempotent eps_k via the telescoping recursion.

    Stage j rewrites eps_j = (sum_r q^r T_{j+r}^{-1}..T_{j+1}^{-1}) eps_{j+1}
    normalized by [n-j]_q; iterating j = n-1 .. k costs O((n-k)^2) braid
    applications instead of the (n-k)! coset sum.
    """
    n = M.n
    if not 0 <= k <= n:
        raise IndexOutOfRange(f"idempotent index {k} outside 0..{n}")
    ring = M.ring
    w = v
    for j in range(n - 1, k - 1, -1):
        w = tinv_chain_sum(M, w, j + 1).scale(ring.one / ring.q_integer(n - j))
    return w


def tinv_chain_sum(M: ModuleRealization, v, a: int):
    """v + q T_a^{-1} v + q^2 T_{a+1}^{-1} T_a^{-1} v + ... up to T_{n-1}^{-1}."""
    ring = M.ring
    acc = u = v
    qpow = ring.one
    for j in range(a, M.n):
        u = M.apply_Ti_inv(u, j)
        qpow = qpow * ring.q
        acc = acc.add(u.scale(qpow))
    return acc


def apply_x1_tinv_chain(M: ModuleRealization, v, m: int):
    """X_1 T_1^{-1} ... T_m^{-1} applied right to left; m = 0 is plain X_1."""
    w = v
    for j in range(m, 0, -1):
        w = M.apply_Ti_inv(w, j)
    return M.apply_Xi(w, 1)


def apply_pi_tilde(M: ModuleRealization, v):
    return apply_x1_tinv_chain(M, v, M.n - 1)


# formal generator words: tuples of symbols, applied right to left; the
# alphabet maps each tag to its argument count

WORD_ALPHABET = {"T": 1, "Tinv": 1, "X": 1, "Y": 1, "Eps": 1, "Pi": 0, "PiTilde": 0, "Scalar": 1}


def validate_word(word: Iterable[tuple], n: int) -> None:
    for sym in word:
        tag = sym[0]
        if tag not in WORD_ALPHABET:
            raise ValueError(f"unknown word symbol {sym!r}")
        if tag in ("T", "Tinv"):
            if not 1 <= sym[1] <= n - 1:
                raise IndexOutOfRange(f"{tag} index {sym[1]} outside 1..{n - 1}")
        elif tag in ("X", "Y"):
            if not 1 <= sym[1] <= n:
                raise IndexOutOfRange(f"{tag} index {sym[1]} outside 1..{n}")
        elif tag == "Eps":
            if not 0 <= sym[1] <= n:
                raise IndexOutOfRange(f"Eps index {sym[1]} outside 0..{n}")


def apply_word(M: ModuleRealization, v, word: Iterable[tuple]):
    """Apply a generator word right to left; the empty word is the identity."""
    w = v
    for sym in reversed(list(word)):
        tag = sym[0]
        if tag == "T":
            w = M.apply_Ti(w, sym[1])
        elif tag == "Tinv":
            w = M.apply_Ti_inv(w, sym[1])
        elif tag == "X":
            w = M.apply_Xi(w, sym[1])
        elif tag == "Pi":
            w = M.apply_pi(w)
        elif tag == "Y":
            w = apply_Y(M, w, sym[1])
        elif tag == "Eps":
            w = apply_epsilon(M, w, sym[1])
        elif tag == "PiTilde":
            w = apply_pi_tilde(M, w)
        elif tag == "Scalar":
            w = w.scale(sym[1])
        else:
            raise UnsupportedOperation(f"word symbol {sym!r}")
    return w


def word_to_json(word: Iterable[tuple]) -> list:
    out = []
    for sym in word:
        if sym[0] == "Scalar":
            out.append(["Scalar", str(sym[1])])
        else:
            out.append(list(sym))
    return out


def word_from_json(data, alphabet: dict = WORD_ALPHABET, ring=QT) -> tuple:
    """Parse a JSON word such as [["X", 1], ["Pi"], ["Scalar", "q - 1"]].

    Every symbol is a list of a tag of the alphabet and as many arguments as
    the alphabet gives it: an int index, or the text of a Scalar.  Anything
    else raises ValueError.
    """
    if not isinstance(data, list):
        raise ValueError(f"a word is a JSON list of symbols, got {data!r}")
    word = []
    for sym in data:
        tag = sym[0] if isinstance(sym, list) and sym else None
        arity = alphabet.get(tag) if isinstance(tag, str) else None
        if arity is None or len(sym) != 1 + arity:
            raise ValueError(f"malformed word symbol {sym!r}; tags and arities: {alphabet}")
        if tag == "Scalar":
            if not isinstance(sym[1], str):
                raise ValueError(f"Scalar argument {sym[1]!r} is not scalar text")
            word.append(("Scalar", ring.convert(parse_scalar(sym[1]))))
        elif arity and type(sym[1]) is not int:
            raise ValueError(f"index in word symbol {sym!r} is not an integer")
        else:
            word.append(tuple(sym))
    return tuple(word)
