"""Young diagrams, standard tableaux, and the seminormal seed modules.

A diagram is a plain tuple of weakly decreasing positive parts; () is the
empty diagram.  The seed module attached to a partition lam at rank n lives
on the padded shape (n - |lam|, lam) and has basis e_tau indexed by standard
tableaux of that shape.  The realization supplies the T_i and pi images of
one tableau to the table engine (bqt.keyed): T_i through the four-case
seminormal formula driven by contents (content of a box = column - row,
1-based), and the affine generator pi through the finite word
T_1^{-1} ... T_{n-1}^{-1}, making the space a module for the Y/T
subalgebra only: there is no X action here, X arrives after induction.

Tableaux are ordered by their row-reading word; every enumeration and
basis listing follows that order.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import (
    EntryOutOfRange,
    NotAnEigenvector,
    RankTooSmall,
    ShapeMismatch,
    UnsupportedOperation,
)
from .keyed import KeyedRealization, SparseVec, strict_int
from .polyrep import apply_word
from .scalars import QT

Shape = tuple[int, ...]


def check_shape(parts: Shape) -> Shape:
    parts = tuple(strict_int(p, "diagram part") for p in parts)
    if any(p <= 0 for p in parts):
        raise ValueError(f"diagram parts must be positive: {parts}")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError(f"diagram parts must weakly decrease: {parts}")
    return parts


def min_rank(lam: Shape) -> int:
    """Smallest rank at which lam can be padded: |lam| + lam_1."""
    lam = check_shape(lam)
    return sum(lam) + (lam[0] if lam else 0)


def pad_shape(lam: Shape, n: int) -> Shape:
    """(n - |lam|, lam), defined for n at or above the padding threshold."""
    lam = check_shape(lam)
    if n < min_rank(lam):
        raise RankTooSmall(f"rank {n} below threshold {min_rank(lam)} for {lam}")
    return (n - sum(lam),) + lam


class StandardTableau:
    """Standard filling of a Young diagram by 1..size, stored by rows."""

    __slots__ = ("rows", "_hash")

    def __init__(self, rows):
        rows = tuple(tuple(strict_int(v, "tableau entry") for v in row) for row in rows)
        shape = tuple(len(row) for row in rows)
        check_shape(shape)
        size = sum(shape)
        seen = sorted(v for row in rows for v in row)
        if seen != list(range(1, size + 1)):
            raise ValueError("entries must be exactly 1..size")
        for row in rows:
            if any(row[j] >= row[j + 1] for j in range(len(row) - 1)):
                raise ValueError("rows must strictly increase")
        for r in range(len(rows) - 1):
            for c in range(len(rows[r + 1])):
                if rows[r][c] >= rows[r + 1][c]:
                    raise ValueError("columns must strictly increase")
        self.rows = rows
        # every induced-module key hashes its tableau on each table, group
        # and coefficient lookup
        self._hash = hash(rows)

    @property
    def shape(self) -> Shape:
        return tuple(len(row) for row in self.rows)

    @property
    def size(self) -> int:
        return sum(len(row) for row in self.rows)

    def position(self, entry: int) -> tuple[int, int]:
        """1-based (row, column) of the box holding entry."""
        if not 1 <= entry <= self.size:
            raise EntryOutOfRange(f"entry {entry} outside 1..{self.size}")
        for r, row in enumerate(self.rows):
            for c, v in enumerate(row):
                if v == entry:
                    return (r + 1, c + 1)
        raise EntryOutOfRange(f"entry {entry} missing")  # unreachable

    def content(self, entry: int) -> int:
        r, c = self.position(entry)
        return c - r

    def row_word(self) -> tuple[int, ...]:
        return tuple(v for row in self.rows for v in row)

    def swap(self, i: int) -> "StandardTableau":
        """Tableau with entries i, i+1 exchanged (caller checks standardness)."""
        sub = {i: i + 1, i + 1: i}
        return StandardTableau(tuple(tuple(sub.get(v, v) for v in row) for row in self.rows))

    def restrict(self) -> "StandardTableau":
        """Drop the box holding the largest entry."""
        m = self.size
        return StandardTableau(
            tuple(row for row in (tuple(v for v in row if v != m) for row in self.rows) if row)
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, StandardTableau) and self.rows == other.rows

    def __lt__(self, other) -> bool:
        return self.row_word() < other.row_word()

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"StandardTableau({[list(r) for r in self.rows]})"

    def to_obj(self) -> list[list[int]]:
        return [list(r) for r in self.rows]


@lru_cache(maxsize=None)
def enumerate_syt(shape: Shape) -> tuple[StandardTableau, ...]:
    """All standard tableaux of the shape, sorted by row-reading word."""
    shape = check_shape(shape)
    if not shape:
        return ()
    size = sum(shape)

    results: list[StandardTableau] = []

    def grow(filling: list[list[int]], entry: int) -> None:
        if entry > size:
            results.append(StandardTableau([row for row in filling if row]))
            return
        for r in range(len(shape)):
            c = len(filling[r])
            if c < shape[r] and (r == 0 or len(filling[r - 1]) > c):
                filling[r].append(entry)
                grow(filling, entry + 1)
                filling[r].pop()

    grow([[] for _ in shape], 1)
    return tuple(sorted(results))


class SeedVector(SparseVec):
    """Element of the seed module: sparse map from tableaux to scalars."""

    __slots__ = ()

    def __init__(self, n: int, lam: Shape, coeffs: dict[StandardTableau, object]):
        self.meta = (n, lam)
        self.coeffs = coeffs

    @property
    def lam(self) -> Shape:
        return self.meta[1]

    def degree(self) -> int:
        return 0 if self.coeffs else -1

    def sorted_items(self):
        return sorted(self.coeffs.items(), key=lambda kv: kv[0].row_word())

    def _term(self, tau: StandardTableau, c) -> str:
        return f"({c})*e{list(tau.row_word())}"


class SeedRealization(KeyedRealization):
    """Seminormal module on the padded shape of lam at rank n.

    Exposes the shared realization surface; apply_Xi raises since the seed
    carries no polynomial part.  Degree grading is concentrated in 0.
    """

    kind = "seed"
    vector_type = SeedVector

    def __init__(self, lam: Shape, n: int, ring=QT):
        self.lam = check_shape(lam)
        super().__init__(n, ring, (n, self.lam))
        self.shape = pad_shape(self.lam, n)
        self.tableaux = enumerate_syt(self.shape)

    def descriptor(self) -> dict:
        return {"module": "seed", "shape": list(self.lam), "n": self.n}

    def basis_vector(self, tau: StandardTableau) -> SeedVector:
        return SeedVector(self.n, self.lam, {tau: self.ring.one})

    def contains_key(self, tau) -> bool:
        return isinstance(tau, StandardTableau) and tau.shape == self.shape

    def basis(self, degree: int) -> list[SeedVector]:
        if degree != 0:
            return []
        return [self.basis_vector(t) for t in self.tableaux]

    def _head(self, tau: StandardTableau, k: int) -> tuple:
        return ()  # the seed's keys carry no exponents

    def _join_head(self, head: tuple, tau: StandardTableau) -> StandardTableau:
        return tau

    def _ti_image(self, i: int, tau: StandardTableau) -> tuple:
        """The four-case seminormal formula."""
        ring = self.ring
        r1, c1 = tau.position(i)
        r2, c2 = tau.position(i + 1)
        if r1 == r2:
            return ((tau, ring.one),)
        if c1 == c2:
            return ((tau, -ring.q),)
        ci, cj = c1 - r1, c2 - r2
        diag = (ring.one - ring.q) * ring.q_power(ci) / (ring.q_power(ci) - ring.q_power(cj))
        other = tau.swap(i)
        if ci - cj > 1:
            return ((other, ring.one), (tau, diag))
        num = (ring.q_power(cj + 1) - ring.q_power(ci)) * (
            ring.q_power(ci + 1) - ring.q_power(cj)
        )
        den = (ring.q_power(cj) - ring.q_power(ci)) * (
            ring.q_power(cj) - ring.q_power(ci)
        )
        return ((other, -(num / den)), (tau, diag))

    def _pi_image(self, tau: StandardTableau) -> tuple:
        """pi through the pullback word T_1^{-1} ... T_{n-1}^{-1}."""
        img = self.basis_vector(tau)
        for j in range(self.n - 1, 0, -1):
            img = self.apply_Ti_inv(img, j)
        return tuple(img.coeffs.items())

    # bound on the class itself too, where perfbench's tracer wraps them
    apply_Ti = KeyedRealization.apply_Ti
    apply_Ti_inv = KeyedRealization.apply_Ti_inv
    apply_pi = KeyedRealization.apply_pi

    def apply_Xi(self, v: SeedVector, i: int):
        raise UnsupportedOperation("seed modules carry no X action before induction")


def kappa_connect(v: SeedVector, lam: Shape) -> SeedVector:
    """Connecting map between consecutive seed ranks.

    Keeps exactly the tableaux whose top entry n+1 sits in the box added by
    the padding step and restricts them; every other basis vector dies.
    """
    lam = check_shape(lam)
    m = v.n  # rank n+1
    n = m - 1
    if n < min_rank(lam):
        raise RankTooSmall(f"target rank {n} below threshold for {lam}")
    expected = pad_shape(lam, m)
    box_col = expected[0]  # the added box is (1, n+1-|lam|)
    out: dict[StandardTableau, object] = {}
    for tau, c in v.coeffs.items():
        if tau.shape != expected:
            raise ShapeMismatch(f"tableau shape {tau.shape} is not the padded shape {expected}")
        if tau.rows[0][box_col - 1] == m:
            out[tau.restrict()] = c
    return SeedVector(n, lam, out)


def theta_scalar(tau: StandardTableau, entry: int, n: int, realization=None):
    """Eigenvalue of the reversed Cherednik word on e_tau.

    Applies q^(i-1) T_{i-1}^{-1} .. T_1^{-1} pi T_{n-1} .. T_i and demands
    the output be proportional to e_tau; the scalar, in the realization's
    ring, is returned.  Any partition shape is the padded shape of its own
    tail, so the seed module is rebuilt from tau over Q(q,t) (or taken from
    the realization argument when many entries of the same module are
    checked).
    """
    if tau.size != n:
        raise ShapeMismatch(f"tableau size {tau.size} differs from rank {n}")
    if not 1 <= entry <= n:
        raise EntryOutOfRange(f"entry {entry} outside 1..{n}")
    M = realization if realization is not None else SeedRealization(tau.shape[1:], n)
    if M.shape != tau.shape:
        raise ShapeMismatch(f"realization shape {M.shape} differs from tableau {tau.shape}")
    word = (
        (("Scalar", M.ring.q_power(entry - 1)),)
        + tuple(("Tinv", j) for j in range(entry - 1, 0, -1))
        + (("Pi",),)
        + tuple(("T", j) for j in range(n - 1, entry - 1, -1))
    )
    v = apply_word(M, M.basis_vector(tau), word)
    if set(v.coeffs) != {tau}:
        raise NotAnEigenvector(f"theta_{entry} image of {tau!r} is not diagonal")
    return v.coeffs[tau]
