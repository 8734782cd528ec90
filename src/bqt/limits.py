"""Degreewise stable limits of flavored spaces along tower connectors.

A compatible sequence pairs a rank-indexed family of modules with
degree-preserving connectors (truncation for the polynomial family,
indicator-plus-restriction for the induced families).  A tower is a
finite window of components, one per rank, each mapping to the one below
under the connector; it stands for an element of the inverse limit, with
the truncation to a window reported rather than hidden.

limit_component watches the flavored dimensions and the transition ranks
grow with the rank and declares stabilization once both are constant and
the transitions are bijective across a window; towers are then spanned by
pushing a top-rank basis down the window.  Operators act on towers
componentwise (the connectors intertwine them), with the window advanced
by exact linear lifting whenever a raising operator needs more room.
"""

from __future__ import annotations

from .errors import InconsistentFlavors, InternalCheckFailed, NoStabilization
from .induced import InducedRealization, pi_connect, xi_truncate
from .linalg import RowBasis, solve_combination
from .lspaces import DPLUS, FLAVORED_ALPHABET, LVector, extract_basis, lk_spanning_set
from .polyrep import PolyRealization, apply_word, letter
from .tableaux import check_shape, min_rank

DEFAULT_WINDOW = 2
DEFAULT_N_CAP = 8


class CompatSeqSpec:
    """Selector of a compatible sequence: the polynomial tower or the
    induced tower of a partition."""

    def __init__(self, kind: str, shape=()):
        if kind not in ("polynomial", "murnaghan"):
            raise ValueError(f"unknown sequence kind {kind!r}")
        self.kind = kind
        self.shape = check_shape(tuple(shape)) if kind == "murnaghan" else ()
        self._realizations: dict[int, object] = {}

    @property
    def n_start(self) -> int:
        if self.kind == "polynomial":
            return 1
        return max(1, min_rank(self.shape))

    def descriptor(self) -> dict:
        if self.kind == "polynomial":
            return {"sequence": "polynomial"}
        return {"sequence": "murnaghan", "shape": list(self.shape)}

    def realization(self, n: int):
        M = self._realizations.get(n)
        if M is None:
            if self.kind == "polynomial":
                M = PolyRealization(n)
            else:
                M = InducedRealization(self.shape, n)
            self._realizations[n] = M
        return M

    def connect(self, v):
        """Connector from the rank of v down one step."""
        if self.kind == "polynomial":
            return xi_truncate(v)
        return pi_connect(v, self.shape)

    def connect_flavored(self, lv: LVector) -> LVector:
        return LVector(lv.k, self.connect(lv.payload))


class Tower:
    """Window of connector-compatible components at fixed flavor and degree."""

    __slots__ = ("k", "degree", "lo", "hi", "components")

    def __init__(self, k: int, degree: int, components: dict[int, LVector]):
        self.k = k
        self.degree = degree
        self.lo = min(components)
        self.hi = max(components)
        if set(components) != set(range(self.lo, self.hi + 1)):
            raise ValueError("tower window must be a contiguous rank range")
        self.components = components

    def component(self, n: int) -> LVector:
        return self.components[n]

    def window(self) -> tuple[int, int]:
        return (self.lo, self.hi)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components.values())

    def add(self, other: "Tower") -> "Tower":
        if (self.k, self.degree, self.window()) != (other.k, other.degree, other.window()):
            raise InconsistentFlavors("towers disagree in flavor, degree, or window")
        comps = {n: v.add(other.components[n]) for n, v in self.components.items()}
        return Tower(self.k, self.degree, comps)

    def scale(self, c) -> "Tower":
        return Tower(self.k, self.degree, {n: v.scale(c) for n, v in self.components.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Tower)
            and (self.k, self.degree, self.lo, self.hi)
            == (other.k, other.degree, other.lo, other.hi)
            and self.components == other.components
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Tower(k={self.k}, d={self.degree}, window={self.lo}..{self.hi})"

    def check_compatible(self, seq: CompatSeqSpec) -> None:
        for n in range(self.lo, self.hi):
            if seq.connect(self.components[n + 1].payload) != self.components[n].payload:
                raise InternalCheckFailed(
                    f"tower components at ranks {n + 1}->{n} are not connector-compatible"
                )


class LimitCell:
    """Outcome of one (flavor, degree) stable-limit computation."""

    def __init__(self, k: int, degree: int, dim: int, n_stabilized: int, towers: list[Tower]):
        self.k = k
        self.degree = degree
        self.dim = dim
        self.n_stabilized = n_stabilized
        self.towers = towers


def limit_component(
    seq: CompatSeqSpec,
    k: int,
    d: int,
    window: int = DEFAULT_WINDOW,
    n_cap: int = DEFAULT_N_CAP,
) -> LimitCell:
    """Stabilized dimension and spanning towers of one graded piece.

    Raises NoStabilization if dimensions or transition ranks keep moving
    up to the rank cap.
    """
    if window < 2:
        raise ValueError("window length must be at least 2")
    if d < k:
        return LimitCell(k, d, 0, seq.n_start, [])
    n0 = max(seq.n_start, k, 1)
    dims: dict[int, int] = {}
    bases: dict[int, object] = {}
    bijective: dict[int, bool] = {}  # n -> transition from n+1 onto n is a bijection

    def get_basis(n: int):
        if n not in bases:
            M = seq.realization(n)
            bases[n] = extract_basis(lk_spanning_set(M, k, d, tail_sorted=True))
            dims[n] = bases[n].dim
        return bases[n]

    for top in range(n0 + window - 1, n_cap + 1):
        lo = top - window + 1
        for n in range(lo, top + 1):
            get_basis(n)
        if len({dims[n] for n in range(lo, top + 1)}) != 1:
            continue
        ok = True
        for n in range(lo, top):
            if n not in bijective:
                upper = get_basis(n + 1)
                images = RowBasis()
                for lv in upper.vectors:
                    images.insert(seq.connect(lv.payload).coeffs)
                bijective[n] = images.rank == dims[n] and dims[n + 1] == dims[n]
            if not bijective[n]:
                ok = False
                break
        if not ok:
            continue
        towers = []
        for lv in get_basis(top).vectors:
            comps = {top: lv}
            cur = lv
            for n in range(top - 1, lo - 1, -1):
                cur = seq.connect_flavored(cur)
                comps[n] = cur
            towers.append(Tower(k, d, comps))
        return LimitCell(k, d, dims[top], lo, towers)
    raise NoStabilization(
        f"flavor {k} degree {d} of {seq.descriptor()} not stabilized by rank {n_cap}"
    )


def extend_tower(seq: CompatSeqSpec, tower: Tower, lo: int, hi: int) -> Tower:
    """Re-window a tower, lifting components upward by exact linear solves.

    The new window may start above the tower's but not below it.
    """
    if lo < tower.lo:
        raise ValueError(f"window start {lo} below the tower's {tower.lo}")
    comps = dict(tower.components)
    top = tower.hi
    while top < hi:
        target = comps[top].payload
        M = seq.realization(top + 1)
        span = lk_spanning_set(M, tower.k, tower.degree, tail_sorted=True)
        images = [seq.connect(lv.payload).coeffs for lv in span]
        sol = solve_combination(images, target.coeffs)
        if sol is None:
            raise NoStabilization(
                f"no lift of a flavor-{tower.k} tower component from rank {top} to {top + 1}"
            )
        lifted = M.zero()
        for c, lv in zip(sol, span):
            if c is not None and not c.is_zero():
                lifted = lifted.add(lv.payload.scale(c))
        comps[top + 1] = LVector(tower.k, lifted)
        top += 1
    comps = {n: v for n, v in comps.items() if lo <= n <= hi}
    return Tower(tower.k, tower.degree, comps)


def _word_rank_floor(word, k_in: int, n_start: int) -> int:
    """Smallest window rank at which every step of the word is defined."""
    req = max(n_start, k_in, 1)
    k = k_in
    for sym in reversed(list(word)):
        entry = letter(FLAVORED_ALPHABET, sym)
        req = max(req, k + entry.degree_shift)
        k += entry.flavor_shift
        req = max(req, k)
    return req


def widen_for_words(seq: CompatSeqSpec, tower: Tower, words) -> Tower:
    """The tower moved up, window length kept, until every word is defined."""
    floor = max(_word_rank_floor(word, tower.k, seq.n_start) for word in words)
    if tower.lo < floor:
        tower = extend_tower(seq, tower, floor, floor + tower.hi - tower.lo)
    return tower


def apply_tower_word(seq: CompatSeqSpec, tower: Tower, word) -> Tower:
    """A flavored operator word applied componentwise to a tower, checked compatible.

    The window is advanced (exact lifts) before application so that every
    step is defined at every rank in the window.
    """
    tower = widen_for_words(seq, tower, (word,))
    out_comps = {
        n: apply_word(seq.realization(n), lv, word, FLAVORED_ALPHABET)
        for n, lv in tower.components.items()
    }
    # the flavor is tracked by the components
    d_out = tower.degree + sum(letter(FLAVORED_ALPHABET, sym).degree_shift for sym in word)
    out = Tower(out_comps[tower.lo].k, d_out, out_comps)
    out.check_compatible(seq)
    return out


def dim_table(
    seq: CompatSeqSpec,
    k_max: int,
    d_max: int,
    window: int = DEFAULT_WINDOW,
    n_cap: int = DEFAULT_N_CAP,
) -> dict:
    """Stabilized dimensions of every graded piece up to the bounds.

    Unresolved cells are reported as such rather than extrapolated.
    """
    cells = []
    for k in range(k_max + 1):
        for d in range(d_max + 1):
            entry: dict = {"k": k, "d": d, "mode": "exact"}
            try:
                cell = limit_component(seq, k, d, window=window, n_cap=n_cap)
                entry["dim"] = cell.dim
                entry["n_stabilized"] = cell.n_stabilized
            except NoStabilization as exc:
                entry["dim"] = None
                entry["unresolved"] = str(exc)
            cells.append(entry)
    return {
        **seq.descriptor(),
        "window": window,
        "n_cap": n_cap,
        "cells": cells,
    }


def d_plus_power_rank(seq: CompatSeqSpec, k: int, d: int, window: int = DEFAULT_WINDOW,
                      n_cap: int = DEFAULT_N_CAP) -> tuple[int, int]:
    """(dim of flavor-0 degree-d piece, rank of its image under d_plus^k)."""
    cell = limit_component(seq, 0, d, window=window, n_cap=n_cap)
    word = (DPLUS,) * k
    images = RowBasis()
    for tw in cell.towers:
        out = apply_tower_word(seq, tw, word)
        images.insert(out.component(out.hi).payload.coeffs)
    return cell.dim, images.rank
