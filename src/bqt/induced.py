"""Induced modules: polynomials tensored with a tableau seed.

An element is a sparse map from (exponent vector, tableau) pairs to scalars.
The realization supplies the T_i and pi images of one monomial (x) tableau
key, and the table engine (bqt.keyed) does the rest:

    X_i  multiplies the polynomial factor,
    T_i  splits into swap (x) T_i(seed), read from the seed's T table, plus
         the polynomial divided difference (bqt.polyrep.demazure_terms,
         with (1-q) and q-1 formed once per realization) tensored with the
         untouched seed vector,
    pi   rotates exponents with a t-twist and hits the seed through the
         seed's pi, its finite pullback word.

The rank n connector kills every key carrying x_{n+1} and pushes the seed
factor through the tableau restriction map; the polynomial tower uses the
plain truncation x_{n+1} -> 0.  A deliberately wrong truncation that
substitutes x_{n+1} -> x_n instead of killing it is provided as the
negative control for the compatibility checker.
"""

from __future__ import annotations

from .errors import ShapeMismatch
from .keyed import KeyedRealization, SparseVec, accumulate, coeffs_from_entries, strict_int
from .keyed import ti_entry
from .polyrep import (
    Exponents,
    PolyVector,
    demazure_terms,
    dl_coeffs,
    is_exponent_vector,
    monomial_str,
    monomials_of_degree,
    swap_exponents,
)
from .scalars import QT
from .tableaux import (
    SeedRealization,
    SeedVector,
    Shape,
    StandardTableau,
    check_shape,
    kappa_connect,
    min_rank,
)

IndKey = tuple[Exponents, StandardTableau]


class IndVector(SparseVec):
    """Sparse element of polynomials tensor seed at rank n, shape lam."""

    __slots__ = ()

    def __init__(self, n: int, lam: Shape, coeffs: dict[IndKey, object]):
        self.meta = (n, lam)
        self.coeffs = coeffs

    @property
    def lam(self) -> Shape:
        return self.meta[1]

    def degree(self) -> int:
        if not self.coeffs:
            return -1
        return max(sum(e) for e, _ in self.coeffs)

    def sorted_items(self):
        return sorted(
            self.coeffs.items(),
            key=lambda kv: (sum(kv[0][0]), kv[0][0], kv[0][1].row_word()),
            reverse=True,
        )

    def _term(self, key: IndKey, c) -> str:
        e, tau = key
        mono = monomial_str(e)
        body = f"{mono}(x)e{list(tau.row_word())}" if mono else f"e{list(tau.row_word())}"
        return body if c.is_one() else f"({c})*{body}"

    def __repr__(self) -> str:
        return f"IndVector(n={self.n}, lam={self.lam}, {self})"

    def to_obj(self) -> dict:
        return {
            "rank": self.n,
            "shape": list(self.lam),
            "entries": [
                {"exponents": list(e), "tableau": tau.to_obj(), "coeff": str(c)}
                for (e, tau), c in self.sorted_items()
            ],
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "IndVector":
        n = strict_int(obj["rank"], "rank")
        lam = check_shape(tuple(obj.get("shape", ())))
        coeffs = coeffs_from_entries(
            obj["entries"], lambda e: (tuple(e["exponents"]), StandardTableau(e["tableau"]))
        )
        return cls(n, lam, coeffs)


class InducedRealization(KeyedRealization):
    """Rank-n induced module over the seed attached to lam."""

    kind = "murnaghan"
    vector_type = IndVector

    def __init__(self, lam: Shape, n: int, ring=QT):
        self.lam = check_shape(lam)
        super().__init__(n, ring, (n, self.lam))
        self.seed = SeedRealization(self.lam, n, ring)
        self.tableaux = self.seed.tableaux
        self._dl_coeffs = dl_coeffs(ring)

    def descriptor(self) -> dict:
        return {"module": "murnaghan", "shape": list(self.lam), "n": self.n}

    def vector(self, exps: Exponents, tau: StandardTableau, coeff=None) -> IndVector:
        c = self.ring.one if coeff is None else coeff
        return IndVector(self.n, self.lam, {(tuple(exps), tau): c})

    def contains_key(self, key) -> bool:
        e, tau = key
        return is_exponent_vector(e, self.n) and self.seed.contains_key(tau)

    def basis(self, degree: int) -> list[IndVector]:
        return [v for _, v in self.basis_with_exponents(degree)]

    def basis_with_exponents(self, degree: int) -> list[tuple[Exponents, IndVector]]:
        return [
            (e, self.vector(e, tau))
            for e in monomials_of_degree(self.n, degree)
            for tau in self.tableaux
        ]

    def _head(self, key: IndKey, k: int) -> Exponents:
        return key[0][:k]

    def _join_head(self, head: Exponents, key: IndKey) -> IndKey:
        e, tau = key
        return (head + e[len(head):], tau)

    def _ti_image(self, i: int, key: IndKey) -> tuple:
        """swap (x) T_i(seed) plus (1-q) times the divided difference (x) seed."""
        e, tau = key
        se = swap_exponents(e, i)
        out: dict[IndKey, object] = {}
        keys, scalars = self.seed._table(ti_entry, i, tau)
        for s, m in zip(keys, scalars):
            accumulate(out, (se, s), m)
        if se != e:
            for de, c in demazure_terms(e, i, self._dl_coeffs):
                accumulate(out, (de, tau), c)
        return tuple(out.items())

    def _pi_image(self, key: IndKey) -> tuple:
        """t^(a_n) X_1^(a_n) X_2^(a_1) .. X_n^(a_{n-1})  (x)  pi(seed factor)."""
        e, tau = key
        last = e[-1]
        ne = (last,) + e[:-1]
        tpow = self.ring.t_power(last)
        img = self.seed.apply_pi(self.seed.basis_vector(tau))
        return tuple(((ne, s), m * tpow if last else m) for s, m in img.coeffs.items())

    # bound on the class itself too, where perfbench's tracer wraps them
    apply_Ti = KeyedRealization.apply_Ti
    apply_Ti_inv = KeyedRealization.apply_Ti_inv
    apply_pi = KeyedRealization.apply_pi
    apply_Xi = KeyedRealization.apply_Xi


def pi_connect(v: IndVector, lam: Shape) -> IndVector:
    """Connector of the induced tower: indicator on x_{n+1} then kappa."""
    lam = check_shape(lam)
    if v.lam != lam:
        raise ShapeMismatch(f"vector shape {v.lam} differs from {lam}")
    m = v.n
    n = m - 1
    if n < min_rank(lam):
        raise ShapeMismatch(f"target rank {n} below the padding threshold of {lam}")
    coeffs: dict[IndKey, object] = {}
    for (e, tau), c in v.coeffs.items():
        if e[-1] != 0:
            continue
        img = kappa_connect(SeedVector(m, lam, {tau: c}), lam)
        for s, cc in img.coeffs.items():
            accumulate(coeffs, (e[:-1], s), cc)
    return IndVector(n, lam, coeffs)


def xi_truncate(f: PolyVector) -> PolyVector:
    """Polynomial tower connector: kill monomials containing the top variable."""
    n = f.n - 1
    out = {e[:-1]: c for e, c in f.coeffs.items() if e[-1] == 0}
    return PolyVector(n, out)


def xi_truncate_broken(f: PolyVector) -> PolyVector:
    """Negative control: substitutes x_{n+1} -> x_n instead of killing it."""
    n = f.n - 1
    out: dict[Exponents, object] = {}
    for e, c in f.coeffs.items():
        accumulate(out, e[: n - 1] + (e[n - 1] + e[n],), c)
    return PolyVector(n, out)


def trivial_to_poly(v: IndVector) -> PolyVector:
    """Canonical identification for the empty shape: drop the seed factor."""
    if v.lam != ():
        raise ShapeMismatch("identification defined for the empty shape only")
    return PolyVector(v.n, {e: c for (e, _), c in v.coeffs.items()})
