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
[d_plus, d_minus]/(q-1) and cross-checked against its closed form
q^{k-1} X_1 T_1^{-1} .. T_{k-1}^{-1}; disagreement raises.

d_plus, d_minus and phi are linear maps on the whole module, so each is
applied through the realization's one memo (see bqt.keyed): dplus_chain,
dminus_chain and phi_chain give an operator on whole vectors, and their
builders dplus_entry, dminus_entry and phi_entry, each made once by
keyed.derived, run it once per basis key and flavor.  z_i has no table of
its own: z_action is apply_Y scaled by z_factor = (qt)^{-1}, and the z
letter reads the Y_i table itself, with that factor on the term that
applies it rather than on each entry.  phi's closed form is dplus_chain at
k-1, so it reads the same entries.  phi keeps its own table because
phi_chain makes the cross-check, once per basis key and flavor, when that
key's entry is built.  Both sides are linear, so agreement on every key of
a vector implies agreement on the vector; the check per key is at least as
strict as one per vector, and no cancellation inside a vector can hide a
disagreement.  Every public operator checks its index or flavor before
it reaches a table, so a bad argument stores nothing.  Each letter of the
flavored alphabet names the per-key table it applies to a vector of a
given flavor, after the same check (bqt.relations reads it for the
leftmost letter of a word).

eps_k reads the stage entries of the same memo (bqt.polyrep.eps_stage): basis
monomials that differ only in their first k exponents share one stage
image, and flavor k builds on the stages of flavor k+1, so the spanning
sets of all flavors of one realization share their T^{-1} chains.

Spanning sets are cached per realization.  The tail_sorted variant keeps
only basis monomials whose tail exponents weakly decrease; straightening
by the tail braid action shows the span is unchanged, and
spanning_reduction_agrees re-proves that equality exactly at any given
size (the stable-limit module relies on the reduced sets).
"""

from __future__ import annotations

from functools import partial

from .errors import (
    DegreeTooSmall,
    FlavorAtMax,
    FlavorAtMin,
    FlavorOutOfRange,
    IndexOutOfRange,
    InconsistentFlavors,
    InternalCheckFailed,
)
from .linalg import RowBasis
from .keyed import derived, ti_entry, tinv_entry
from .polyrep import Letter, apply_Y, apply_epsilon, apply_x1_tinv_chain, tinv_chain_sum
from .polyrep import _y_index, y_entry


class LVector:
    """A module vector tagged with its flavor index."""

    __slots__ = ("k", "payload")

    def __init__(self, k: int, payload):
        self.k = k
        self.payload = payload

    @property
    def coeffs(self) -> dict:
        """The payload's coefficients, so a fused residual reads LVectors as module vectors."""
        return self.payload.coeffs

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

    def to_obj(self) -> dict:
        return {"flavor": self.k, "vector": self.payload.to_obj()}


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

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def offer(self, lv: LVector) -> bool:
        if self._rows.insert(lv.payload.coeffs):
            self.vectors.append(lv)
            return True
        return False

    def contains(self, lv: LVector) -> bool:
        return self._rows.contains(lv.payload.coeffs)


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


def certify_flavor_membership(M, lv: LVector) -> bool:
    """Both halves of the flavor invariant: tail symmetry and span membership.

    Membership is decided degree by degree, each homogeneous part in the
    span of its own graded piece, cut out by the full spanning set.
    """
    if not 0 <= lv.k <= M.n:
        raise FlavorOutOfRange(f"flavor {lv.k} outside 0..{M.n}")
    if lv.is_zero():
        return True
    if not is_tail_symmetric(M, lv.payload, lv.k):
        return False
    return all(
        extract_basis(lk_spanning_set(M, lv.k, d)).contains(LVector(lv.k, part))
        for d, part in lv.payload.homogeneous_parts().items()
    )


def spanning_reduction_agrees(M, k: int, d: int) -> bool:
    """Exact proof, at this size, that tail-sorted generators span everything."""
    full = lk_spanning_set(M, k, d, tail_sorted=False)
    reduced = lk_spanning_set(M, k, d, tail_sorted=True)
    gb = extract_basis(reduced)
    return all(gb.contains(v) for v in full)


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


def _t_index(lv: LVector, i: int) -> int:
    if not 1 <= i <= lv.k - 1:
        raise IndexOutOfRange(f"T index {i} outside 1..{lv.k - 1} on flavor {lv.k}")
    return i


def _z_index(lv: LVector, i: int) -> int:
    if not 1 <= i <= lv.k:
        raise IndexOutOfRange(f"z index {i} outside 1..{lv.k}")
    return i


def _raised(M, lv: LVector) -> int:
    """The flavor d_plus leaves, checked to have a flavor above it."""
    if lv.k >= M.n:
        raise FlavorAtMax(f"no flavor {lv.k + 1} inside rank {M.n}")
    return lv.k


def _lowered(lv: LVector) -> int:
    """The flavor d_minus leaves, checked to have a flavor below it."""
    if lv.k == 0:
        raise FlavorAtMin("lowering operator undefined at flavor 0")
    return lv.k


def _phi_flavor(M, lv: LVector) -> int:
    if not 1 <= lv.k <= M.n - 1:
        raise FlavorOutOfRange(f"phi undefined on flavor {lv.k} at rank {M.n}")
    return lv.k


def t_action(M, lv: LVector, i: int) -> LVector:
    """T_i on a flavor-k vector (1 <= i <= k-1)."""
    return LVector(lv.k, M.apply_Ti(lv.payload, _t_index(lv, i)))


def z_factor(M):
    """(qt)^{-1}, formed once per realization: z_i is the Y_i table's image times it."""
    if "z_factor" not in M.cache:
        M.cache["z_factor"] = M.ring.q_power(-1) * M.ring.t_power(-1)
    return M.cache["z_factor"]


def dplus_chain(M, v, k: int):
    """q^k X_1 T_1^{-1}..T_k^{-1} v: d_plus from flavor k, phi's closed form on flavor k+1."""
    return apply_x1_tinv_chain(M, v, k).scale(M.ring.q_power(k))


def dminus_chain(M, v, k: int):
    """(q-1)(v + q T_k^{-1} v + ... + q^(n-k) T_{n-1}^{-1}..T_k^{-1} v)."""
    ring = M.ring
    return tinv_chain_sum(M, v, k).scale(ring.q - ring.one)


def phi_chain(M, v, k: int):
    """phi on v read as a flavor-k vector: the closed form, once the commutator agrees."""
    comm, closed = phi_sides(M, LVector(k, v))
    if comm != closed:
        raise InternalCheckFailed(
            "phi commutator disagrees with its closed form; operator conventions broken"
        )
    return closed.payload


dplus_entry = derived(dplus_chain)
dminus_entry = derived(dminus_chain)
phi_entry = derived(phi_chain)


def z_action(M, lv: LVector, i: int) -> LVector:
    """z_i = Y_i/(qt) on a flavor-k vector (1 <= i <= k)."""
    return LVector(lv.k, apply_Y(M, lv.payload, _z_index(lv, i)).scale(z_factor(M)))


def d_plus(M, lv: LVector) -> LVector:
    return LVector(lv.k + 1, M.apply_entries(lv.payload, dplus_entry, _raised(M, lv)))


def d_minus(M, lv: LVector) -> LVector:
    return LVector(lv.k - 1, M.apply_entries(lv.payload, dminus_entry, _lowered(lv)))


def phi_sides(M, lv: LVector) -> tuple[LVector, LVector]:
    """[d_plus, d_minus]/(q-1) on lv, and its closed form q^{k-1} X_1 T_1^{-1}..T_{k-1}^{-1}."""
    ring = M.ring
    k = lv.k
    comm = d_plus(M, d_minus(M, lv)).sub(d_minus(M, d_plus(M, lv)))
    comm = comm.scale(ring.one / (ring.q - ring.one))
    return comm, LVector(k, M.apply_entries(lv.payload, dplus_entry, k - 1))


def phi_action(M, lv: LVector) -> LVector:
    """[d_plus, d_minus]/(q-1), through the per-key table of phi_chain."""
    return LVector(lv.k, M.apply_entries(lv.payload, phi_entry, _phi_flavor(M, lv)))


# the flavored alphabet: d_plus raises flavor and degree, d_minus lowers the
# flavor, phi raises the degree; the degree-raising letters need rank >= k+1.
# A letter's table depends on the flavor of the vector it acts on, so
# table(M, lv, *args) reads lv.k, after the same check as the letter's act.
# z reads the Y_i table, its act being that image times z_factor.

FLAVORED_ALPHABET = {
    "T": Letter(1, lambda M, lv, i: t_action(M, lv, i),
                table=lambda M, lv, i: partial(M._table, ti_entry, M._t_index(_t_index(lv, i)))),
    "Tinv": Letter(
        1, lambda M, lv, i: LVector(lv.k, M.apply_Ti_inv(lv.payload, _t_index(lv, i))),
        table=lambda M, lv, i: partial(M._table, tinv_entry, M._t_index(_t_index(lv, i))),
    ),
    "z": Letter(
        1, lambda M, lv, i: z_action(M, lv, i), factor=z_factor,
        table=lambda M, lv, i: partial(M._table, y_entry, _y_index(M, _z_index(lv, i))),
    ),
    "dplus": Letter(
        0, lambda M, lv: d_plus(M, lv), flavor_shift=1, degree_shift=1,
        table=lambda M, lv: partial(M._table, dplus_entry, _raised(M, lv)),
    ),
    "dminus": Letter(
        0, lambda M, lv: d_minus(M, lv), flavor_shift=-1,
        table=lambda M, lv: partial(M._table, dminus_entry, _lowered(lv)),
    ),
    "phi": Letter(
        0, lambda M, lv: phi_action(M, lv), degree_shift=1,
        table=lambda M, lv: partial(M._table, phi_entry, _phi_flavor(M, lv)),
    ),
    "Scalar": Letter(1, lambda M, lv, c: lv.scale(c)),
}
DPLUS, DMINUS, PHI = ("dplus",), ("dminus",), ("phi",)
