"""Flavored subspaces of a module and the raising/lowering operator family.

The flavor-k space of a rank-n module is spanned by X_1..X_k eps_k(b) over
a degree basis b; its vectors are multiplication-symmetric in the tail
(T_i-fixed for i > k) and carry the payload degree as grading.  On these
spaces live

    T_i            for 1 <= i <= k-1   (flavor preserved)
    z_i = Y_i/(qt) for 1 <= i <= k     (flavor preserved)
    d_plus         flavor k -> k+1, degree +1
    d_minus        flavor k -> k-1, degree preserved

with d_plus the scaled word q^k X_1 T_1^{-1} .. T_k^{-1} and d_minus the
geometric sum (q-1)(1 + q T_k^{-1} + ... + q^{n-k} T_{n-1}^{-1}..T_k^{-1}).
The degree-raising endomorphism phi is computed as the commutator
[d_plus, d_minus]/(q-1) and cross-checked on every call against its closed
form q^{k-1} X_1 T_1^{-1} .. T_{k-1}^{-1}; disagreement raises.

Spanning sets are cached per realization.  The tail_sorted variant keeps
only basis monomials whose tail exponents weakly decrease; straightening
by the tail braid action shows the span is unchanged, and
spanning_reduction_agrees re-proves that equality exactly at any given
size (the stable-limit module relies on the reduced sets).
"""

from __future__ import annotations

from .errors import (
    DegreeTooSmall,
    FlavorAtMax,
    FlavorAtMin,
    FlavorOutOfRange,
    IndexOutOfRange,
    InconsistentFlavors,
    InternalCheckFailed,
    UnsupportedOperation,
)
from .linalg import RowBasis
from .polyrep import apply_Y, apply_epsilon, apply_x1_tinv_chain, tinv_chain_sum


class LVector:
    """A module vector tagged with its flavor index."""

    __slots__ = ("k", "payload")

    def __init__(self, k: int, payload):
        self.k = k
        self.payload = payload

    def degree(self) -> int:
        return self.payload.degree()

    def is_zero(self) -> bool:
        return self.payload.is_zero()

    def add(self, other: "LVector") -> "LVector":
        if self.k != other.k:
            raise InconsistentFlavors(f"flavors {self.k} and {other.k}")
        return LVector(self.k, self.payload.add(other.payload))

    def sub(self, other: "LVector") -> "LVector":
        if self.k != other.k:
            raise InconsistentFlavors(f"flavors {self.k} and {other.k}")
        return LVector(self.k, self.payload.sub(other.payload))

    def scale(self, c) -> "LVector":
        return LVector(self.k, self.payload.scale(c))

    def __eq__(self, other) -> bool:
        return isinstance(other, LVector) and self.k == other.k and self.payload == other.payload

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"LVector(k={self.k}, {self.payload})"


def _tail_sorted(exps, k: int) -> bool:
    tail = exps[k:]
    return all(tail[j] >= tail[j + 1] for j in range(len(tail) - 1))


def lk_spanning_set(M, k: int, d: int, tail_sorted: bool = False) -> list[LVector]:
    """Spanning vectors X_1..X_k eps_k(b) of the degree-d flavor-k space.

    Zero images are dropped; results are cached on the realization.
    """
    n = M.n
    if not 0 <= k <= n:
        raise FlavorOutOfRange(f"flavor {k} outside 0..{n}")
    if d < k:
        raise DegreeTooSmall(f"degree {d} below flavor {k}")
    key = ("span", k, d, tail_sorted)
    hit = M.cache.get(key)
    if hit is not None:
        return hit
    out: list[LVector] = []
    for exps, b in M.basis_with_exponents(d - k):
        if tail_sorted and not _tail_sorted(exps, k):
            continue
        w = apply_epsilon(M, b, k)
        for i in range(1, k + 1):
            w = M.apply_Xi(w, i)
        if not w.is_zero():
            out.append(LVector(k, w))
    M.cache[key] = out
    return out


class GradedBasis:
    """Independent family extracted from same-flavor spanning vectors."""

    def __init__(self, k: int, degree: int):
        self.k = k
        self.degree = degree
        self.vectors: list[LVector] = []
        self._rows = RowBasis()
        self._accepted: list[int] = []

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def offer(self, lv: LVector) -> bool:
        idx = self._rows.count
        if self._rows.insert(lv.payload.coeffs):
            self.vectors.append(lv)
            self._accepted.append(idx)
            return True
        return False

    def contains(self, lv: LVector) -> bool:
        return self._rows.contains(lv.payload.coeffs)

    def coordinates(self, lv: LVector):
        """Coefficients on the accepted vectors, or None outside the span."""
        sol = self._rows.solve(lv.payload.coeffs)
        if sol is None:
            return None
        return [sol.get(j) for j in self._accepted]


def extract_basis(vectors: list[LVector]) -> GradedBasis:
    """Row-reduce a same-flavor, same-degree family to an independent one."""
    if not vectors:
        return GradedBasis(-1, -1)
    k = vectors[0].k
    d = vectors[0].degree()
    for v in vectors:
        if v.k != k or (not v.is_zero() and v.degree() != d):
            raise InconsistentFlavors("mixed flavors or degrees in basis extraction")
    gb = GradedBasis(k, d)
    for v in vectors:
        gb.offer(v)
    return gb


def is_tail_symmetric(M, payload, k: int) -> bool:
    """T_i-fixedness for k+1 <= i <= n-1, the cheap half of the invariant."""
    for i in range(k + 1, M.n):
        if M.apply_Ti(payload, i) != payload:
            return False
    return True


def certify_flavor_membership(M, lv: LVector, tail_sorted: bool = False) -> bool:
    """Both halves of the flavor invariant: tail symmetry and span membership."""
    if lv.is_zero():
        return True
    if not is_tail_symmetric(M, lv.payload, lv.k):
        return False
    span = lk_spanning_set(M, lv.k, lv.degree(), tail_sorted=tail_sorted)
    return extract_basis(span).contains(lv)


def spanning_reduction_agrees(M, k: int, d: int) -> bool:
    """Exact proof, at this size, that tail-sorted generators span everything."""
    full = lk_spanning_set(M, k, d, tail_sorted=False)
    reduced = lk_spanning_set(M, k, d, tail_sorted=True)
    gb = extract_basis(reduced)
    return all(gb.contains(v) for v in full)


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


def t_action(M, lv: LVector, i: int, inverse: bool = False) -> LVector:
    """T_i, or T_i^{-1} when inverse, on a flavor-k vector (1 <= i <= k-1)."""
    if not 1 <= i <= lv.k - 1:
        raise IndexOutOfRange(f"T index {i} outside 1..{lv.k - 1} on flavor {lv.k}")
    apply = M.apply_Ti_inv if inverse else M.apply_Ti
    return LVector(lv.k, apply(lv.payload, i))


def z_action(M, lv: LVector, i: int) -> LVector:
    if not 1 <= i <= lv.k:
        raise IndexOutOfRange(f"z index {i} outside 1..{lv.k}")
    ring = M.ring
    w = apply_Y(M, lv.payload, i)
    return LVector(lv.k, w.scale(ring.q_power(-1) * ring.t_power(-1)))


def d_plus(M, lv: LVector) -> LVector:
    k = lv.k
    if k >= M.n:
        raise FlavorAtMax(f"no flavor {k + 1} inside rank {M.n}")
    w = apply_x1_tinv_chain(M, lv.payload, k)
    return LVector(k + 1, w.scale(M.ring.q_power(k)))


def d_minus(M, lv: LVector) -> LVector:
    k = lv.k
    if k == 0:
        raise FlavorAtMin("lowering operator undefined at flavor 0")
    ring = M.ring
    return LVector(k - 1, tinv_chain_sum(M, lv.payload, k).scale(ring.q - ring.one))


def phi_sides(M, lv: LVector) -> tuple[LVector, LVector]:
    """[d_plus, d_minus]/(q-1) on lv, and its closed form q^{k-1} X_1 T_1^{-1}..T_{k-1}^{-1}."""
    ring = M.ring
    k = lv.k
    comm = d_plus(M, d_minus(M, lv)).sub(d_minus(M, d_plus(M, lv)))
    comm = comm.scale(ring.one / (ring.q - ring.one))
    closed = LVector(k, apply_x1_tinv_chain(M, lv.payload, k - 1).scale(ring.q_power(k - 1)))
    return comm, closed


def phi_action(M, lv: LVector) -> LVector:
    """[d_plus, d_minus]/(q-1), verified against the closed form on the fly."""
    k = lv.k
    if not 1 <= k <= M.n - 1:
        raise FlavorOutOfRange(f"phi undefined on flavor {k} at rank {M.n}")
    comm, closed = phi_sides(M, lv)
    if comm != closed:
        raise InternalCheckFailed(
            "phi commutator disagrees with its closed form; operator conventions broken"
        )
    return closed


# flavored words: symbols ("T", i) ("Tinv", i) ("z", i) ("dplus",)
# ("dminus",) ("phi",) ("Scalar", c), applied right to left

FLAVORED_ALPHABET = {"T": 1, "Tinv": 1, "z": 1, "dplus": 0, "dminus": 0, "phi": 0, "Scalar": 1}


def apply_flavored_word(M, lv: LVector, word) -> LVector:
    w = lv
    for sym in reversed(list(word)):
        tag = sym[0]
        if tag == "T":
            w = t_action(M, w, sym[1])
        elif tag == "Tinv":
            w = t_action(M, w, sym[1], inverse=True)
        elif tag == "z":
            w = z_action(M, w, sym[1])
        elif tag == "dplus":
            w = d_plus(M, w)
        elif tag == "dminus":
            w = d_minus(M, w)
        elif tag == "phi":
            w = phi_action(M, w)
        elif tag == "Scalar":
            w = w.scale(sym[1])
        else:
            raise UnsupportedOperation(f"flavored word symbol {sym!r}")
    return w
