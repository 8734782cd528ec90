"""Relation and identity suites as data, with machine-readable verdicts.

Each suite enumerates identities as pairs of operator expressions (linear
combinations of generator words), applies both sides to every basis or
spanning vector in the requested range, and records an exact verdict.  The
anchor carried by every item is the identity itself written out in
operator notation, so a report is a self-contained audit of what was
checked where.

The word suites (daha, aux and the Jucys-Murphy check over the module
alphabet, bqt over the flavored one) decide each case by one fused zero
residual.  The bqt suite first resolves each selected identity against its
flavor (bqt.lspaces.resolve), once per flavor, so every flavored symbol
carries the flavor it acts on.  The leftmost letter of every word is read
from its per-key table, a flavored one after the flavor and index check
its action makes, and the pairs of both sides, the right side negated, are
summed once per output key.  A letter whose table is another operator's
carries the scalar between the two as its factor: z_i reads the Y_i table,
and (qt)^{-1} is folded into the coefficient of each term that z_i leads,
one multiply per term and none per pair.  The case holds exactly when
every sum is zero, and a zero sum is found before any gcd.  Only a case
that fails, or raises, is evaluated again side by side, so its
counterexample and error report are those of the two sides.  The tower
suite compares the two sides' normalized towers: applying a word to a
tower checks the compatibility of the output tower, which a fused residual
would skip.

Every check applies operators through apply_word, the one word interpreter:
the catalogs' words, the closed forms' chains, the theta word (through
tableaux.theta_scalar) and the compatibility axioms, five of which are
cases (x, index, upper word, lower word) of one evaluator comparing
connector(upper word x) with lower word connector(x).  The aux suite on a
Murnaghan module also checks the theta eigenvalues of its seed.

Quantification policy: "for all vectors" means all spanning vectors of the
stated graded pieces, which suffices by linearity; reports list the ranges.

Verdicts are exact by default.  In probabilistic mode the daha, bqt and aux
evaluations run over prime-field specializations of (q, t) at seeded random
points; agreement there is reported with mode "probabilistic" and is a
pre-filter, never the final word.  The compatibility and tower suites are
exact only.
"""

from __future__ import annotations

import random
import time
from typing import NamedTuple

from .errors import BqtError, PoleAtPoint
from .induced import InducedRealization, xi_truncate_broken
from .limits import (
    DEFAULT_N_CAP, DEFAULT_WINDOW, CompatSeqSpec, apply_tower_word, limit_component,
    widen_for_words,
)
from .lspaces import DMINUS, DPLUS, FLAVORED_ALPHABET, PHI, d_minus, lk_spanning_set, phi_sides
from .lspaces import resolve
from .polyrep import PI, PITILDE, WORD_ALPHABET, PolyRealization, apply_word, letter
from .polyrep import apply_epsilon  # noqa: F401  (re-exported; perfbench's tracer wraps it)
from .scalars import QT, ModPField
from .tableaux import SeedRealization, check_shape, kappa_connect, theta_scalar

PRIME = 2**31 - 1


# ---------------------------------------------------------------------------
# realization registry
# ---------------------------------------------------------------------------


def make_realization(desc: dict, ring=QT):
    module = desc["module"]
    n = int(desc["n"])
    if module == "poly":
        return PolyRealization(
            n, ring, demazure_coefficient=desc.get("demazure_coefficient", "1-q")
        )
    if module == "murnaghan":
        return InducedRealization(check_shape(tuple(desc.get("shape", ()))), n, ring)
    raise ValueError(f"unknown module kind {module!r}")


# ---------------------------------------------------------------------------
# report model and the one suite loop
# ---------------------------------------------------------------------------


class RelationReport:
    """The verdict of one relation on one realization, filled in as its suite runs."""

    __slots__ = ("relation_id", "anchor", "realization", "ranges", "status",
                 "vectors_checked", "counterexample", "millis", "mode", "flavor")

    def __init__(self, relation_id: str, anchor: str, realization: dict, ranges: dict,
                 status: str = "pass", vectors_checked: int = 0,
                 counterexample: dict | None = None, millis: float = 0.0,
                 mode: str = "exact", flavor: int | None = None):
        self.relation_id = relation_id
        self.anchor = anchor
        self.realization = realization
        self.ranges = ranges
        self.status = status
        self.vectors_checked = vectors_checked
        self.counterexample = counterexample
        self.millis = millis
        self.mode = mode
        self.flavor = flavor

    def to_obj(self) -> dict:
        out = {
            "relation_id": self.relation_id,
            "anchor": self.anchor,
            "realization": self.realization,
            "ranges": self.ranges,
            "status": self.status,
            "vectors_checked": self.vectors_checked,
            "millis": round(self.millis, 3),
            "mode": self.mode,
        }
        if self.flavor is not None:
            out["flavor"] = self.flavor
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


def all_passed(reports: list[RelationReport]) -> bool:
    return all(r.status == "pass" for r in reports)


def run_suite(cases, evaluate, describe, **fields) -> RelationReport:
    """One timed report: evaluate every case, count it, keep the first failure.

    evaluate(case) returns None when the case holds and the offending values
    otherwise; describe(case, values) turns the first failing case into the
    counterexample.  A case whose evaluation raises a BqtError fails too:
    describe(case, None) locates it and the counterexample names the error.
    A PoleAtPoint still propagates, since it condemns the evaluation point
    rather than the case.  fields are the RelationReport fields.
    """
    start = time.perf_counter()
    rep = RelationReport(**fields)
    for case in cases:
        error = None
        try:
            bad = evaluate(case)
        except PoleAtPoint:
            raise
        except BqtError as exc:
            bad = error = exc
        rep.vectors_checked += 1
        if bad is not None and rep.counterexample is None:
            rep.status = "fail"
            if error is None:
                rep.counterexample = describe(case, bad)
            else:
                rep.counterexample = {
                    "error": type(error).__name__,
                    "message": str(error),
                    **describe(case, None),
                }
    rep.millis = (time.perf_counter() - start) * 1000
    return rep


# ---------------------------------------------------------------------------
# operator expressions: linear combinations of words
# ---------------------------------------------------------------------------


def _eval_expr(apply, M, v, expr):
    """Sum of scaled word applications apply(M, v, word) over the expression."""
    out = None
    for coeff, word in expr:
        w = apply(M, v, word).scale(coeff)
        out = w if out is None else out.add(w)
    return out


def _shown(got) -> dict:
    """Both sides of a mismatch as text; nothing when the evaluation raised."""
    return {} if got is None else {"lhs": str(got[0]), "rhs": str(got[1])}


def _mismatch(lhs, rhs):
    return None if lhs == rhs else (lhs, rhs)


def _sides(apply, M, ident, v):
    """None when both sides of the identity agree on v, else (lhs, rhs)."""
    return _mismatch(_eval_expr(apply, M, v, ident.lhs), _eval_expr(apply, M, v, ident.rhs))


def _word_sides(M, ident, v, alphabet=WORD_ALPHABET):
    """_sides of the identity's words over the alphabet on v, decided first by
    one fused residual.

    When lhs - rhs vanishes on v that is the verdict.  Only a nonzero
    residual, or a BqtError raised on the way, evaluates the two sides,
    which give the same counterexample or raise the same error as ever.
    """
    try:
        if _residual_vanishes(M, ident, v, alphabet):
            return None
    except BqtError:
        pass
    return _sides(lambda M, w, word: apply_word(M, w, word, alphabet), M, ident, v)


def _residual_vanishes(M, ident, v, alphabet=WORD_ALPHABET) -> bool:
    """Whether lhs - rhs of a word identity is zero on v, with one lincomb per output key.

    Each term (coeff, word) applies its word without the leftmost letter,
    scales by coeff (and by -1 on the right side), and gathers the pairs
    (c, m) of that letter's per-key table into one group per output key;
    the letter's factor, if it has one, joins coeff.  A letter without a
    per-key table, or an empty word, is applied in full and its
    coefficients join as (c, 1).  A zero lincomb is found before any cancel
    or gcd, so the output coefficients of a holding case are never
    normalized.  Over the flavored alphabet the identity comes resolved
    (bqt.lspaces.resolve): each symbol carries the flavor it acts on, and
    every term of a catalog identity leaves the same flavor, so the module
    vectors' keys are summed as they are.
    """
    units = (M.ring.one,)
    groups: dict = {}
    for expr, negate in ((ident.lhs, False), (ident.rhs, True)):
        for coeff, word in expr:
            w, image = v, None
            if word:
                head, args = letter(alphabet, word[0]), word[0][1:]
                w = apply_word(M, v, word[1:], alphabet)
                image = head.table and head.table(M, w, *args)
                if image is None:
                    w = head.act(M, w, *args)
                elif head.factor:
                    coeff = coeff * head.factor(M)
            M.gather(groups, _term_coeffs(w, coeff, negate), image or (lambda key: ((key,), units)))
    return not M.group_sums(groups)


def _term_coeffs(w, coeff, negate: bool) -> dict:
    """The coefficients of coeff * w, negated for a right-side term."""
    coeffs = w.scale(coeff).coeffs
    return {k: -c for k, c in coeffs.items()} if negate else coeffs


class Identity(NamedTuple):
    label: str
    lhs: tuple
    rhs: tuple


def _catalog_reports(catalog, flavors, d_max, graded, evaluate, describe, realization,
                     only=None, keep_empty=False, at_flavor=None,
                     **extra_ranges) -> list[RelationReport]:
    """One report per relation of catalog(k), for each flavor k in flavors.

    The flavor None stands for an unflavored module suite.  graded(k) lists
    the (degree, vector) pairs of degrees k..d_max the flavor's identities
    run on; it is built only when a selected relation has instances at k.
    keep_empty also reports relations without instances.  at_flavor(ident,
    k), when given, rewrites each selected identity for flavor k before its
    cases run.  evaluate(ident, v) is None when the identity holds on v,
    else the values that describe(k, degree, v, values) turns into the
    counterexample; extra_ranges join the degrees and the instance count in
    each report's ranges.
    """
    reports = []
    for k in flavors:
        vectors = None
        for rel_id, anchor, items in catalog(k):
            if (only is not None and rel_id != only) or not (items or keep_empty):
                continue
            if vectors is None and items:
                vectors = graded(k)
            if at_flavor is not None:
                items = [at_flavor(ident, k) for ident in items]
            reports.append(
                run_suite(
                    ((ident, d, v) for ident in items for d, v in vectors),
                    lambda case: evaluate(case[0], case[2]),
                    lambda case, got: {
                        "instance": case[0].label,
                        **describe(k, case[1], case[2], got),
                    },
                    relation_id=rel_id,
                    anchor=anchor,
                    realization=realization,
                    ranges={
                        "degrees": list(range(k or 0, d_max + 1)),
                        "instances": len(items),
                        **extra_ranges,
                    },
                    flavor=k,
                )
            )
    return reports


def _module_identity_reports(M, catalog, d_max, only, keep_empty) -> list[RelationReport]:
    """A catalog's identities on every basis vector of degree <= d_max."""
    return _catalog_reports(
        lambda _: catalog,
        (None,),
        d_max,
        lambda _: [(d, v) for d in range(d_max + 1) for v in M.basis(d)],
        lambda ident, v: _word_sides(M, ident, v),
        lambda _k, _d, v, got: {"vector": str(v), **_shown(got)},
        M.descriptor(),
        only,
        keep_empty,
    )


# ---------------------------------------------------------------------------
# relation families shared by the catalogs
# ---------------------------------------------------------------------------


def _equal(one, label: str, lhs: tuple, rhs: tuple) -> Identity:
    """The identity lhs = rhs of two words."""
    return Identity(label, ((one, lhs),), ((one, rhs),))


def _swaps(one, a: str, b: str, pairs, label: str = "i={},j={}") -> list[Identity]:
    """a_x b_y = b_y a_x for each index pair (x, y); None marks an unindexed symbol."""
    out = []
    for x, y in pairs:
        ax = (a,) if x is None else (a, x)
        by = (b,) if y is None else (b, y)
        indices = [j for j in (x, y) if j is not None]
        out.append(_equal(one, label.format(*indices), (ax, by), (by, ax)))
    return out


def _shifts(one, g: str, a: str, indices) -> list[Identity]:
    """g a_i = a_{i+1} g for each index i."""
    return [_equal(one, f"i={i}", ((g,), (a, i)), ((a, i + 1), (g,))) for i in indices]


def _ordered_pairs(m: int):
    """(i, j) with 1 <= i < j <= m."""
    return ((i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1))


def _far_pairs(n: int):
    """(i, j) with 1 <= i <= n-1, 1 <= j <= n and j not in {i, i+1}."""
    return ((i, j) for i in range(1, n) for j in range(1, n + 1) if j not in (i, i + 1))


def hecke_identities(prefix: str, m: int, ring) -> list[tuple[str, str, list[Identity]]]:
    """Quadratic, braid and far-commutation relations of T_1..T_{m-1}.

    The rank-n algebra uses them at m = n and flavor k of the flavored
    algebra at m = k.
    """
    one, q = ring.one, ring.q
    quadratic = [
        Identity(f"i={i}", ((one, (("T", i), ("T", i))),), ((one - q, (("T", i),)), (q, ())))
        for i in range(1, m)
    ]
    braid = []
    for i in range(1, m - 1):
        ti, tj = ("T", i), ("T", i + 1)
        braid.append(_equal(one, f"i={i}", (ti, tj, ti), (tj, ti, tj)))
    far = ((i, j) for i in range(1, m) for j in range(i + 2, m))
    return [
        (f"{prefix}_quadratic", "(T_i - 1)(T_i + q) = 0", quadratic),
        (f"{prefix}_braid", "T_i T_{i+1} T_i = T_{i+1} T_i T_{i+1}", braid),
        (f"{prefix}_T_commute", "T_i T_j = T_j T_i for |i-j| > 1", _swaps(one, "T", "T", far)),
    ]


# ---------------------------------------------------------------------------
# the eleven defining relations of the rank-n algebra
# ---------------------------------------------------------------------------


def daha_identities(n: int, ring) -> list[tuple[str, str, list[Identity]]]:
    one, q = ring.one, ring.q
    txt = [
        Identity(
            f"i={i}",
            ((one, (("Tinv", i), ("X", i), ("Tinv", i))),),
            ((ring.q_power(-1), (("X", i + 1),)),),
        )
        for i in range(1, n)
    ]
    tyt = [
        Identity(f"i={i}", ((one, (("T", i), ("Y", i), ("T", i))),), ((q, (("Y", i + 1),)),))
        for i in range(1, n)
    ]
    ytx = _equal(one, "i=1", (("Y", 1), ("T", 1), ("X", 1)), (("X", 2), ("Y", 1), ("T", 1)))
    xs = tuple(("X", i) for i in range(1, n + 1))
    y_xchain = Identity("", ((one, (("Y", 1),) + xs),), ((ring.t, xs + (("Y", 1),)),))
    return (
        hecke_identities("daha", n, ring)
        + [
            ("daha_TXT", "T_i^{-1} X_i T_i^{-1} = q^{-1} X_{i+1}", txt),
            (
                "daha_TX_commute",
                "T_i X_j = X_j T_i for j not in {i, i+1}",
                _swaps(one, "T", "X", _far_pairs(n)),
            ),
            ("daha_X_commute", "X_i X_j = X_j X_i", _swaps(one, "X", "X", _ordered_pairs(n))),
            ("daha_TYT", "T_i Y_i T_i = q Y_{i+1}", tyt),
            (
                "daha_TY_commute",
                "T_i Y_j = Y_j T_i for j not in {i, i+1}",
                _swaps(one, "T", "Y", _far_pairs(n)),
            ),
            ("daha_Y_commute", "Y_i Y_j = Y_j Y_i", _swaps(one, "Y", "Y", _ordered_pairs(n))),
        ]
        + ([("daha_YTX", "Y_1 T_1 X_1 = X_2 Y_1 T_1", [ytx])] if n >= 2 else [])
        + [("daha_Y_Xchain", "Y_1 X_1..X_n = t X_1..X_n Y_1", [y_xchain])]
    )


def check_daha_relations(
    M, d_max: int, only: str | None = None
) -> list[RelationReport]:
    """All defining relations on every basis vector of degree <= d_max."""
    return _module_identity_reports(
        M, daha_identities(M.n, M.ring), d_max, only, keep_empty=True
    )


# ---------------------------------------------------------------------------
# the fifteen relations of the flavored algebra
# ---------------------------------------------------------------------------


def bqt_identities(n: int, k: int, ring) -> list[tuple[str, str, list[Identity]]]:
    """Relation instances applicable on the flavor-k component at rank n.

    Each relation is read as an identity of maps out of flavor k and is
    instantiated exactly where every constituent operator is defined.
    """
    one, q = ring.one, ring.q
    qt = q * ring.t
    raises = k <= n - 1  # d_+ is defined on flavor k

    def when(cond, ident):
        return [ident] if cond else []

    tzt = [
        Identity(
            f"i={i}",
            ((one, (("Tinv", i), ("z", i + 1), ("Tinv", i))),),
            ((ring.q_power(-1), (("z", i),)),),
        )
        for i in range(1, k)
    ]
    zt_pairs = ((i, j) for i in range(1, k + 1) for j in range(1, k) if i not in (j, j + 1))
    dminus_sq = _equal(one, "", (DMINUS, DMINUS, ("T", k - 1)), (DMINUS, DMINUS))
    t1_dplus_sq = _equal(one, "", (("T", 1), DPLUS, DPLUS), (DPLUS, DPLUS))
    phi_dminus = Identity("", ((q, (PHI, DMINUS)),), ((one, (DMINUS, PHI, ("T", k - 1))),))
    phi_dplus = Identity("", ((one, (("T", 1), PHI, DPLUS)),), ((q, (DPLUS, PHI)),))
    z1_commutator = Identity(
        "",
        ((q, (("z", 1), DPLUS, DMINUS)), (-one, (("z", 1), DMINUS, DPLUS))),
        ((qt, (DPLUS, DMINUS, ("z", k))), (-qt, (DMINUS, DPLUS, ("z", k)))),
    )
    return hecke_identities("bqt", k, ring) + [
        ("bqt_TzT", "T_i^{-1} z_{i+1} T_i^{-1} = q^{-1} z_i", tzt),
        (
            "bqt_zT_commute",
            "z_i T_j = T_j z_i for i not in {j, j+1}",
            _swaps(one, "z", "T", zt_pairs),
        ),
        ("bqt_z_commute", "z_i z_j = z_j z_i", _swaps(one, "z", "z", _ordered_pairs(k))),
        ("bqt_dminus_sq", "d_-^2 T_{k-1} = d_-^2 for k >= 2", when(k >= 2, dminus_sq)),
        (
            "bqt_dminus_T",
            "d_- T_i = T_i d_- for i <= k-2",
            _swaps(one, "dminus", "T", ((None, i) for i in range(1, k - 1)), "i={}"),
        ),
        ("bqt_T1_dplus_sq", "T_1 d_+^2 = d_+^2", when(k <= n - 2, t1_dplus_sq)),
        (
            "bqt_dplus_T",
            "d_+ T_i = T_{i+1} d_+ for i <= k-1",
            _shifts(one, "dplus", "T", range(1, k) if raises else ()),
        ),
        (
            "bqt_phi_dminus",
            "q phi d_- = d_- phi T_{k-1} for k >= 2",
            when(2 <= k <= n - 1, phi_dminus),
        ),
        ("bqt_phi_dplus", "T_1 phi d_+ = q d_+ phi for k >= 1", when(1 <= k <= n - 2, phi_dplus)),
        (
            "bqt_z_dminus",
            "z_i d_- = d_- z_i",
            _swaps(one, "z", "dminus", ((i, None) for i in range(1, k)), "i={}"),
        ),
        (
            "bqt_dplus_z",
            "d_+ z_i = z_{i+1} d_+",
            _shifts(one, "dplus", "z", range(1, k + 1) if raises else ()),
        ),
        (
            "bqt_z1_commutator",
            "z_1 (q d_+ d_- - d_- d_+) = qt (d_+ d_- - d_- d_+) z_k for k >= 1",
            when(1 <= k <= n - 1, z1_commutator),
        ),
    ]


def check_bqt_relations(
    M, k_max: int, d_max: int, only: str | None = None
) -> list[RelationReport]:
    """The fifteen-relation suite on spanning vectors of every flavor <= k_max."""
    return _catalog_reports(
        lambda k: bqt_identities(M.n, k, M.ring),
        range(0, min(k_max, M.n) + 1),
        d_max,
        lambda k: [(d, v) for d in range(k, d_max + 1) for v in lk_spanning_set(M, k, d)],
        lambda ident, v: _word_sides(M, ident, v, FLAVORED_ALPHABET),
        lambda k, d, v, got: {"flavor": k, "degree": d, "vector": str(v), **_shown(got)},
        M.descriptor(),
        only,
        at_flavor=_resolved,
    )


def _resolved(ident: Identity, k: int) -> Identity:
    """The identity with each word resolved against flavor k (bqt.lspaces.resolve)."""
    lhs, rhs = (tuple((c, resolve(w, k)[0]) for c, w in side) for side in (ident.lhs, ident.rhs))
    return Identity(ident.label, lhs, rhs)


# ---------------------------------------------------------------------------
# auxiliary identities
# ---------------------------------------------------------------------------


def aux_identities(n: int, ring) -> list[tuple[str, str, list[Identity]]]:
    one = ring.one
    eps_absorbs_t = [
        _equal(one, f"k={k},i={i} ({side})", word, (("Eps", k),))
        for k in range(0, n + 1)
        for i in range(k + 1, n)
        for side, word in (("right", (("Eps", k), ("T", i))), ("left", (("T", i), ("Eps", k))))
    ]
    eps_t_pairs = ((i, k) for k in range(0, n + 1) for i in range(1, k))
    pitilde_ty = Identity("", ((ring.t, (PITILDE, ("Y", n))),), ((one, (("Y", 1), PITILDE)),))

    def square_twist(g):
        """g^2 T_{n-1} = T_1 g^2."""
        return [_equal(one, "", (g, g, ("T", n - 1)), (("T", 1), g, g))] if n >= 2 else []

    return [
        (
            "aux_eps_idempotent",
            "eps_k^2 = eps_k",
            [_equal(one, f"k={k}", (("Eps", k), ("Eps", k)), (("Eps", k),)) for k in range(n + 1)],
        ),
        (
            "aux_eps_product",
            "eps_k eps_l = eps_min(k,l)",
            [
                _equal(one, f"k={k},l={l}", (("Eps", k), ("Eps", l)), (("Eps", min(k, l)),))
                for k in range(0, n + 1)
                for l in range(0, n + 1)
                if k != l
            ],
        ),
        ("aux_eps_absorbs_T", "eps_k T_i = T_i eps_k = eps_k for k+1 <= i <= n-1", eps_absorbs_t),
        (
            "aux_eps_commutes_T",
            "T_i eps_k = eps_k T_i for i <= k-1",
            _swaps(one, "T", "Eps", eps_t_pairs, "k={1},i={0}"),
        ),
        ("aux_pi_X", "pi X_i = X_{i+1} pi for i <= n-1", _shifts(one, "Pi", "X", range(1, n))),
        ("aux_pi_T", "pi T_i = T_{i+1} pi for i <= n-2", _shifts(one, "Pi", "T", range(1, n - 1))),
        ("aux_pi_sq_T", "pi^2 T_{n-1} = T_1 pi^2", square_twist(PI)),
        (
            "aux_pitilde_Y",
            "pitilde Y_i = Y_{i+1} pitilde for i <= n-1",
            _shifts(one, "PiTilde", "Y", range(1, n)),
        ),
        ("aux_pitilde_tY", "pitilde t Y_n = Y_1 pitilde", [pitilde_ty]),
        (
            "aux_pitilde_T",
            "pitilde T_i = T_{i+1} pitilde for i <= n-2",
            _shifts(one, "PiTilde", "T", range(1, n - 1)),
        ),
        ("aux_pitilde_sq_T", "pitilde^2 T_{n-1} = T_1 pitilde^2", square_twist(PITILDE)),
    ]


def _aux_checks(M) -> list:
    """(relation id, check(M, d_max, rel_id)) of the aux suite beyond its
    identity catalog, in report order; a Murnaghan module adds theta on its seed."""
    checks = [
        ("aux_jucys_murphy", _check_jucys_murphy),
        ("aux_phi_closed_form", _check_phi_closed_form),
        ("aux_dminus_closed_form", _check_dminus_closed_form),
    ]
    if M.kind == "murnaghan":
        checks.append(
            ("aux_theta_eigen", lambda M, *_: check_theta_eigenvalues(M.lam, M.n, M.ring))
        )
    return checks


def check_aux_identities(M, d_max: int, only: str | None = None) -> list[RelationReport]:
    """Idempotent laws, intertwiner conjugations, the braid-to-sum expansion,
    the closed forms of the lowering and degree-raising operators, and on a
    Murnaghan module the theta eigenvalues of its seed."""
    reports = _module_identity_reports(
        M, aux_identities(M.n, M.ring), d_max, only, keep_empty=False
    )
    for rel_id, check in _aux_checks(M):
        if only is None or only == rel_id:
            reports.append(check(M, d_max, rel_id))
    return reports


def relation_ids(suite: str, M) -> list[str]:
    """Relation ids of the daha, bqt or aux suite on M, in report order."""
    if suite == "daha":
        return [rid for rid, _, _ in daha_identities(M.n, QT)]
    if suite == "bqt":
        return [rid for rid, _, _ in bqt_identities(M.n, 0, QT)]
    return [rid for rid, _, _ in aux_identities(M.n, QT)] + [rid for rid, _ in _aux_checks(M)]


def _flavored_spans(M, flavors, d_max: int):
    """(flavor, degree, spanning vector) over the flavors and degrees <= d_max."""
    for k in flavors:
        for d in range(k, d_max + 1):
            for v in lk_spanning_set(M, k, d):
                yield k, d, v


def _closed_form_report(M, d_max, rel_id, anchor, flavors, cases, evaluate) -> RelationReport:
    """One report over cases (flavor, degree, vector, ...) of the given flavors."""
    return run_suite(
        cases,
        evaluate,
        lambda case, _: {"flavor": case[0], "degree": case[1], "vector": str(case[2])},
        relation_id=rel_id,
        anchor=anchor,
        realization=M.descriptor(),
        ranges={"flavors": list(flavors), "degrees": list(range(d_max + 1))},
    )


def _check_jucys_murphy(M, d_max: int, rel_id: str) -> RelationReport:
    """Braid-square expansion on tail-symmetric vectors.

    The displayed identity is not one of abstract algebra elements under
    this quadratic convention; it holds on the flavor-k vectors it is ever
    applied to (fixed by T_i for i > k), so that is the quantifier here.
    """
    ring = M.ring
    one, q = ring.one, ring.q
    n = M.n
    idents = {}
    for k in range(1, n + 1):
        ascending = tuple(("Tinv", j) for j in range(k, n))
        descending = tuple(("Tinv", j) for j in range(n - 1, k - 1, -1))
        rhs_terms: list = [(one, ())]
        qpow = one
        for j in range(k, n):
            word = tuple(("Tinv", m) for m in range(j, k - 1, -1))
            rhs_terms.append(((q - one) * qpow, word))
            qpow = qpow * q
        lhs = ((ring.q_power(n - k), ascending + descending),)
        idents[k] = Identity("", lhs, tuple(rhs_terms))
    flavors = range(1, n + 1)
    return _closed_form_report(
        M, d_max, rel_id,
        "q^(n-k) T_k^{-1}..T_{n-1}^{-1} T_{n-1}^{-1}..T_k^{-1} = "
        "1 + (q-1) sum_j q^(j-k) T_j^{-1}..T_k^{-1} on flavor-k vectors",
        flavors,
        _flavored_spans(M, flavors, d_max),
        lambda case: _word_sides(M, idents[case[0]], case[2]),
    )


def _check_phi_closed_form(M, d_max: int, rel_id: str) -> RelationReport:
    flavors = range(1, M.n)
    return _closed_form_report(
        M, d_max, rel_id,
        "[d_+, d_-]/(q-1) = q^(k-1) X_1 T_1^{-1}..T_{k-1}^{-1} on flavor k",
        flavors,
        _flavored_spans(M, flavors, d_max),
        lambda case: _mismatch(*phi_sides(M, case[2], case[0])),
    )


def _check_dminus_closed_form(M, d_max: int, rel_id: str) -> RelationReport:
    ring = M.ring

    def x_eps(k):
        """The word X_1..X_k eps_k."""
        return tuple(("X", i) for i in range(1, k + 1)) + (("Eps", k),)

    def evaluate(case):
        k, _, w = case
        lhs = d_minus(M, apply_word(M, w, x_eps(k)), k)
        scale = ("Scalar", ring.q_power(M.n - k + 1) - ring.one)
        return _mismatch(lhs, apply_word(M, w, x_eps(k - 1) + (scale, ("X", k))))

    flavors = range(1, M.n + 1)
    return _closed_form_report(
        M, d_max, rel_id,
        "d_-(X_1..X_k eps_k(w)) = X_1..X_{k-1} eps_{k-1}((q^(n-k+1)-1) X_k w)",
        flavors,
        ((k, d, w) for k in flavors for d in range(k, d_max + 1) for w in M.basis(d - k)),
        evaluate,
    )


def check_theta_eigenvalues(lam, n: int, ring=QT) -> RelationReport:
    """Diagonal action with eigenvalue q^content on every seed basis vector."""
    lam = check_shape(tuple(lam))
    M = SeedRealization(lam, n, ring)

    def evaluate(case):
        tau, i = case
        got = theta_scalar(tau, i, n, realization=M)
        return None if got == ring.q_power(tau.content(i)) else {"scalar": str(got)}

    return run_suite(
        ((tau, i) for tau in M.tableaux for i in range(1, n + 1)),
        evaluate,
        lambda case, got: {"tableau": case[0].to_obj(), "entry": case[1], **(got or {})},
        relation_id="aux_theta_eigen",
        anchor="theta_i(e_tau) = q^(content of i in tau) e_tau",
        realization={"module": "seed", "shape": list(lam), "n": n},
        ranges={"entries": n, "tableaux": len(M.tableaux)},
    )


# ---------------------------------------------------------------------------
# compatibility axioms
# ---------------------------------------------------------------------------


def check_compatibility(
    seq: CompatSeqSpec, n: int, d_max: int, broken_connector: bool = False
) -> list[RelationReport]:
    """The five tower axioms at one rank step, on a full degree basis.

    Degree preservation and the top-variable kill are checked on connector
    images.  The other three axioms, and for induced sequences the two seed
    axioms (restriction is a braid module map and intertwines the affine
    twist), are cases (x, index, upper word, lower word) of one statement:
    connector(upper word x) = lower word connector(x), words applied by
    apply_word.  The broken_connector flag swaps in a truncation that keeps
    top-variable terms; it exists so the suite can demonstrate its own
    sensitivity.
    """
    if n < seq.n_start:
        raise ValueError(f"rank {n} below the sequence start {seq.n_start}")
    hi, lo = seq.realization(n + 1), seq.realization(n)

    def connect(v):
        if broken_connector:
            if seq.kind != "polynomial":
                raise ValueError("broken connector variant exists for the polynomial tower")
            return xi_truncate_broken(v)
        return seq.connect(v)

    desc = {**seq.descriptor(), "n": n}
    if broken_connector:
        desc["broken_connector"] = True
    reports = []
    graded = [(d, v) for d in range(d_max + 1) for v in hi.basis(d)]
    vectors = [v for _, v in graded]

    def report(rel_id, anchor, cases, evaluate, describe):
        reports.append(run_suite(cases, evaluate, describe, relation_id=rel_id, anchor=anchor,
                                 realization=desc, ranges={"degrees": list(range(d_max + 1))}))

    def intertwines(rel_id, anchor, cases, conn, up, down, describe):
        """The axiom conn(w_up x) = w_lo conn(x) on every case (x, index, w_up, w_lo)."""

        def evaluate(case):
            x, _, w_up, w_lo = case
            return _mismatch(conn(apply_word(up, x, w_up)), apply_word(down, conn(x), w_lo))

        report(rel_id, anchor, cases, evaluate, describe)

    def equivariance(tag, indices, xs):
        return ((x, i, ((tag, i),), ((tag, i),)) for x in xs for i in indices)

    def twist(xs):
        return ((x, None, (PI, ("T", n)), (PI,)) for x in xs)

    def off_degree(case):
        img = connect(case[1])
        return img if not img.is_zero() and img.degree() != case[0] else None

    def top_image(case):
        img = connect(apply_word(hi, case[1], (("X", n + 1),)))
        return None if img.is_zero() else img

    def with_image(case, img):
        return {"vector": str(case[1]), **({} if img is None else {"image": str(img)})}

    def with_index(case, _):
        return {"vector": str(case[0]), "index": case[1]}

    report("compat_degree_preserving", "deg(Pi(v)) = deg(v) or Pi(v) = 0", graded,
           off_degree, with_image)
    intertwines("compat_T_equivariance", "Pi T_i = T_i Pi for 1 <= i <= n-1",
                equivariance("T", range(1, n), vectors), connect, hi, lo, with_index)
    intertwines("compat_X_equivariance", "Pi X_i = X_i Pi for 1 <= i <= n",
                equivariance("X", range(1, n + 1), vectors), connect, hi, lo, with_index)
    report("compat_kills_top_X", "Pi X_{n+1} = 0", graded, top_image, with_image)
    intertwines("compat_pi_intertwine", "Pi pi^(n+1) T_n = pi^(n) Pi", twist(vectors),
                connect, hi, lo, lambda c, got: {"vector": str(c[0]), **_shown(got)})

    if seq.kind == "murnaghan" and not broken_connector:
        seed_hi = hi.seed
        basis = [seed_hi.basis_vector(tau) for tau in seed_hi.tableaux]

        def kappa(v):
            return kappa_connect(v, seq.shape)

        def at_tableau(case, _):
            (tau,) = case[0].coeffs
            return {"tableau": tau.to_obj(), **({} if case[1] is None else {"index": case[1]})}

        intertwines("precompat_kappa_T", "kappa T_i = T_i kappa for 1 <= i <= n-1",
                    equivariance("T", range(1, n), basis), kappa, seed_hi, lo.seed, at_tableau)
        intertwines("precompat_kappa_pi", "kappa pi^(n+1) T_n = pi^(n) kappa", twist(basis),
                    kappa, seed_hi, lo.seed, at_tableau)

    return reports


# ---------------------------------------------------------------------------
# tower-level suite
# ---------------------------------------------------------------------------


def check_bqt_relations_on_towers(
    seq: CompatSeqSpec, k_max: int, d_max: int
) -> list[RelationReport]:
    """The fifteen-relation suite run on stable-limit towers.

    Both sides of each identity act componentwise; the shared input tower
    is pre-widened so that both words are defined at every window rank, and
    outputs are compared component by component (their own compatibility is
    re-checked inside the word application).
    """
    n_ref = max(seq.n_start + k_max + 2, d_max + 2)

    def towers(k):
        return [
            (d, tower)
            for d in range(k, d_max + 1)
            for tower in limit_component(seq, k, d).towers
        ]

    def evaluate(ident, tower):
        base = widen_for_words(seq, tower, [word for _, word in ident.lhs + ident.rhs])
        return None if _sides(apply_tower_word, seq, ident, base) is None else base

    return _catalog_reports(
        lambda k: bqt_identities(n_ref, k, QT),
        range(0, k_max + 1),
        d_max,
        towers,
        evaluate,
        lambda k, d, tower, base: {
            "flavor": k,
            "degree": d,
            "window": list((base or tower).window()),
        },
        {**seq.descriptor(), "level": "towers"},
        window=DEFAULT_WINDOW,
        n_cap=DEFAULT_N_CAP,
    )


# ---------------------------------------------------------------------------
# probabilistic pre-filter
# ---------------------------------------------------------------------------


# evaluation points per probabilistic run, and redraws allowed for points at poles
PROBABILISTIC_POINTS = 2
PROBABILISTIC_REDRAWS = 5


def run_probabilistic(suite, seed: int):
    """Run a suite callable over PROBABILISTIC_POINTS random prime-field specializations.

    The callable receives a coefficient ring and returns reports.  Points
    where some denominator specializes to zero are redrawn, at most
    PROBABILISTIC_REDRAWS times.  Reports are merged conjunctively and
    tagged with the probabilistic mode.
    """
    merged: list[RelationReport] | None = None
    done = 0
    attempt = 0
    while done < PROBABILISTIC_POINTS:
        attempt += 1
        if attempt > PROBABILISTIC_POINTS + PROBABILISTIC_REDRAWS:
            raise PoleAtPoint("too many evaluation points hit poles; use exact mode")
        rng = random.Random(seed + attempt * 7919)
        ring = ModPField(PRIME, rng.randrange(2, PRIME - 1), rng.randrange(2, PRIME - 1))
        try:
            reports = suite(ring)
        except PoleAtPoint:
            continue
        done += 1
        if merged is None:
            merged = reports
        else:
            for acc, new in zip(merged, reports):
                acc.vectors_checked += new.vectors_checked
                acc.millis += new.millis
                if new.status == "fail" and acc.status == "pass":
                    acc.status = "fail"
                    acc.counterexample = new.counterexample
    assert merged is not None
    for rep in merged:
        rep.mode = "probabilistic"
    return merged
