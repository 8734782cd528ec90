"""Flavored subspaces of a module and the raising/lowering operator family.

The flavor-k space of a rank-n module is spanned by X_1..X_k eps_k(b) over
a degree basis b; its vectors are multiplication-symmetric in the tail
(T_i-fixed for i > k) and carry the module degree as grading.  On these
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

A flavored vector is a plain module vector; every operator takes it
together with the flavor k it is read in (d_plus(M, v, k), z_action(M, v,
k, i), ...), and spanning sets and bases hold module vectors.  The flavor
at each letter of a word is fixed by the input flavor and the letters, so
the flavor arithmetic lives in one place, the alphabet's flavor shifts:
resolve(word, k) writes into each symbol the flavor of the vector it acts
on and returns the flavor the word leaves.

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
flavored alphabet names the per-key table it applies at the flavor of a
resolved symbol, after the same check (bqt.relations reads it for the
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
from .polyrep import Letter, apply_Y, apply_epsilon, apply_x1_tinv_chain, letter, tinv_chain_sum
from .polyrep import _y_index, y_entry


def _tail_sorted(exps, k: int) -> bool:
    tail = exps[k:]
    return all(tail[j] >= tail[j + 1] for j in range(len(tail) - 1))


def lk_spanning_set(M, k: int, d: int, tail_sorted: bool = False) -> list:
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
    out = []
    for exps, b in M.basis_with_exponents(d - k):
        if tail_sorted and not _tail_sorted(exps, k):
            continue
        w = apply_epsilon(M, b, k)
        for i in range(1, k + 1):
            w = M.apply_Xi(w, i)
        if not w.is_zero():
            out.append(w)
    M.cache[key] = out
    return out


class GradedBasis:
    """Independent family extracted from spanning vectors of one graded piece."""

    def __init__(self):
        self.vectors: list = []
        self._rows = RowBasis()

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def offer(self, v) -> bool:
        if self._rows.insert(v.coeffs):
            self.vectors.append(v)
            return True
        return False

    def contains(self, v) -> bool:
        return self._rows.contains(v.coeffs)


def extract_basis(vectors: list) -> GradedBasis:
    """Row-reduce a same-degree family to an independent one."""
    if len({v.degree() for v in vectors if not v.is_zero()}) > 1:
        raise InconsistentFlavors("mixed degrees in basis extraction")
    gb = GradedBasis()
    for v in vectors:
        gb.offer(v)
    return gb


def is_tail_symmetric(M, v, k: int) -> bool:
    """T_i-fixedness for k+1 <= i <= n-1, the cheap half of the invariant."""
    for i in range(k + 1, M.n):
        if M.apply_Ti(v, i) != v:
            return False
    return True


def certify_flavor_membership(M, v, k: int) -> bool:
    """Both halves of the flavor-k invariant of v: tail symmetry and span membership.

    Membership is decided degree by degree, each homogeneous part in the
    span of its own graded piece, cut out by the full spanning set.
    """
    if not 0 <= k <= M.n:
        raise FlavorOutOfRange(f"flavor {k} outside 0..{M.n}")
    if v.is_zero():
        return True
    if not is_tail_symmetric(M, v, k):
        return False
    return all(
        extract_basis(lk_spanning_set(M, k, d)).contains(part)
        for d, part in v.homogeneous_parts().items()
    )


def spanning_reduction_agrees(M, k: int, d: int) -> bool:
    """Exact proof, at this size, that tail-sorted generators span everything."""
    full = lk_spanning_set(M, k, d, tail_sorted=False)
    reduced = lk_spanning_set(M, k, d, tail_sorted=True)
    gb = extract_basis(reduced)
    return all(gb.contains(v) for v in full)


# ---------------------------------------------------------------------------
# operators: each takes a module vector and the flavor k it is read in
# ---------------------------------------------------------------------------


def _t_index(k: int, i: int) -> int:
    if not 1 <= i <= k - 1:
        raise IndexOutOfRange(f"T index {i} outside 1..{k - 1} on flavor {k}")
    return i


def _z_index(k: int, i: int) -> int:
    if not 1 <= i <= k:
        raise IndexOutOfRange(f"z index {i} outside 1..{k}")
    return i


def _raised(M, k: int) -> int:
    """The flavor d_plus leaves, checked to have a flavor above it."""
    if k >= M.n:
        raise FlavorAtMax(f"no flavor {k + 1} inside rank {M.n}")
    return k


def _lowered(k: int) -> int:
    """The flavor d_minus leaves, checked to have a flavor below it."""
    if k == 0:
        raise FlavorAtMin("lowering operator undefined at flavor 0")
    return k


def _phi_flavor(M, k: int) -> int:
    if not 1 <= k <= M.n - 1:
        raise FlavorOutOfRange(f"phi undefined on flavor {k} at rank {M.n}")
    return k


def t_action(M, v, k: int, i: int):
    """T_i on a flavor-k vector (1 <= i <= k-1)."""
    return M.apply_Ti(v, _t_index(k, i))


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
    comm, closed = phi_sides(M, v, k)
    if comm != closed:
        raise InternalCheckFailed(
            "phi commutator disagrees with its closed form; operator conventions broken"
        )
    return closed


dplus_entry = derived(dplus_chain)
dminus_entry = derived(dminus_chain)
phi_entry = derived(phi_chain)


def z_action(M, v, k: int, i: int):
    """z_i = Y_i/(qt) on a flavor-k vector (1 <= i <= k)."""
    return apply_Y(M, v, _z_index(k, i)).scale(z_factor(M))


def d_plus(M, v, k: int):
    """d_plus on a flavor-k vector; the image has flavor k+1."""
    return M.apply_entries(v, dplus_entry, _raised(M, k))


def d_minus(M, v, k: int):
    """d_minus on a flavor-k vector; the image has flavor k-1."""
    return M.apply_entries(v, dminus_entry, _lowered(k))


def phi_sides(M, v, k: int) -> tuple:
    """[d_plus, d_minus]/(q-1) on a flavor-k vector, and its closed form
    q^{k-1} X_1 T_1^{-1}..T_{k-1}^{-1}."""
    ring = M.ring
    comm = d_plus(M, d_minus(M, v, k), k - 1).sub(d_minus(M, d_plus(M, v, k), k + 1))
    comm = comm.scale(ring.one / (ring.q - ring.one))
    return comm, M.apply_entries(v, dplus_entry, k - 1)


def phi_action(M, v, k: int):
    """[d_plus, d_minus]/(q-1) on a flavor-k vector, through the per-key table of phi_chain."""
    return M.apply_entries(v, phi_entry, _phi_flavor(M, k))


# the flavored alphabet: d_plus raises flavor and degree, d_minus lowers the
# flavor, phi raises the degree; the degree-raising letters need rank >= k+1.
# Its words are written without flavors; resolve writes into each symbol the
# flavor k of the vector it acts on, so a resolved symbol is (tag, k, *args)
# and each letter's act(M, v, k, *args) and table(M, k, *args) read k
# first, the table after the same check as the act.  z reads the Y_i table,
# its act being that image times z_factor.

FLAVORED_ALPHABET = {
    "T": Letter(1, lambda M, v, k, i: t_action(M, v, k, i),
                table=lambda M, k, i: partial(M._table, ti_entry, M._t_index(_t_index(k, i)))),
    "Tinv": Letter(
        1, lambda M, v, k, i: M.apply_Ti_inv(v, _t_index(k, i)),
        table=lambda M, k, i: partial(M._table, tinv_entry, M._t_index(_t_index(k, i))),
    ),
    "z": Letter(
        1, lambda M, v, k, i: z_action(M, v, k, i), factor=z_factor,
        table=lambda M, k, i: partial(M._table, y_entry, _y_index(M, _z_index(k, i))),
    ),
    "dplus": Letter(
        0, lambda M, v, k: d_plus(M, v, k), flavor_shift=1, degree_shift=1,
        table=lambda M, k: partial(M._table, dplus_entry, _raised(M, k)),
    ),
    "dminus": Letter(
        0, lambda M, v, k: d_minus(M, v, k), flavor_shift=-1,
        table=lambda M, k: partial(M._table, dminus_entry, _lowered(k)),
    ),
    "phi": Letter(
        0, lambda M, v, k: phi_action(M, v, k), degree_shift=1,
        table=lambda M, k: partial(M._table, phi_entry, _phi_flavor(M, k)),
    ),
    "Scalar": Letter(1, lambda M, v, k, c: v.scale(c)),
}
DPLUS, DMINUS, PHI = ("dplus",), ("dminus",), ("phi",)


def resolve(word, k: int) -> tuple[tuple, int]:
    """A flavored word resolved against input flavor k, and the flavor it leaves.

    Walking right to left, each symbol (tag, *args) becomes (tag, k', *args)
    with k' the flavor of the vector it acts on, which then moves by the
    letter's flavor_shift.  Nothing is checked here: the letters check their
    flavors and indices when they act.
    """
    out = []
    for sym in reversed(tuple(word)):
        out.append((sym[0], k, *sym[1:]))
        k += letter(FLAVORED_ALPHABET, sym).flavor_shift
    return tuple(reversed(out)), k
