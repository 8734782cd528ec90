"""Relation and identity suites as data, with machine-readable verdicts.

Each suite enumerates identities as pairs of operator expressions (linear
combinations of generator words), applies both sides to every basis or
spanning vector in the requested range, and records an exact zero-residual
verdict.  The anchor carried by every item is the identity itself written
out in operator notation, so a report is a self-contained audit of what
was checked where.

Quantification policy: "for all vectors" means all spanning vectors of the
stated graded pieces, which suffices by linearity; reports list the ranges.

Verdicts are exact by default.  In probabilistic mode the same evaluations
run over prime-field specializations of (q, t) at seeded random points;
agreement there is reported with mode "probabilistic" and is a pre-filter,
never the final word.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from .errors import PoleAtPoint
from .induced import InducedRealization, xi_truncate_broken
from .limits import CompatSeqSpec, apply_tower_word, limit_component, widen_for_words
from .lspaces import FLAVORED_ALPHABET, LVector, d_minus, lk_spanning_set, phi_sides
from .polyrep import PolyRealization, apply_epsilon, apply_word
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


@dataclass
class RelationReport:
    relation_id: str
    anchor: str
    realization: dict
    ranges: dict
    status: str = "pass"
    vectors_checked: int = 0
    counterexample: dict | None = None
    millis: float = 0.0
    mode: str = "exact"
    flavor: int | None = None

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
    counterexample.  fields are the RelationReport fields.
    """
    start = time.perf_counter()
    rep = RelationReport(**fields)
    for case in cases:
        bad = evaluate(case)
        rep.vectors_checked += 1
        if bad is not None and rep.counterexample is None:
            rep.status = "fail"
            rep.counterexample = describe(case, bad)
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


def _apply_flavored(M, lv, word):
    return apply_word(M, lv, word, FLAVORED_ALPHABET)


def _mismatch(lhs, rhs):
    return None if lhs == rhs else (lhs, rhs)


def _sides(apply, M, ident, v):
    """None when both sides of the identity agree on v, else (lhs, rhs)."""
    return _mismatch(_eval_expr(apply, M, v, ident.lhs), _eval_expr(apply, M, v, ident.rhs))


@dataclass
class Identity:
    label: str
    lhs: tuple
    rhs: tuple


def _catalog_reports(catalog, flavors, d_max, graded, evaluate, describe, realization,
                     only=None, keep_empty=False, **extra_ranges) -> list[RelationReport]:
    """One report per relation of catalog(k), for each flavor k in flavors.

    The flavor None stands for an unflavored module suite.  graded(k) lists
    the (degree, vector) pairs of degrees k..d_max the flavor's identities
    run on; it is built only when a selected relation has instances at k.
    keep_empty also reports relations without instances.  evaluate(ident, v)
    is None when the identity holds on v, else the values that
    describe(degree, v, values) turns into the counterexample; extra_ranges
    join the degrees and the instance count in each report's ranges.
    """
    reports = []
    for k in flavors:
        vectors = None
        for rel_id, anchor, items in catalog(k):
            if (only is not None and rel_id != only) or not (items or keep_empty):
                continue
            if vectors is None and items:
                vectors = graded(k)
            reports.append(
                run_suite(
                    ((ident, d, v) for ident in items for d, v in vectors),
                    lambda case: evaluate(case[0], case[2]),
                    lambda case, got: {
                        "instance": case[0].label,
                        **describe(case[1], case[2], got),
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
        lambda ident, v: _sides(apply_word, M, ident, v),
        lambda _, v, got: {"vector": str(v), "lhs": str(got[0]), "rhs": str(got[1])},
        M.descriptor(),
        only,
        keep_empty,
    )


# ---------------------------------------------------------------------------
# relation families shared by the catalogs
# ---------------------------------------------------------------------------

DPLUS, DMINUS, PHI, PI, PITILDE = ("dplus",), ("dminus",), ("phi",), ("Pi",), ("PiTilde",)


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
        lambda k: [(d, lv) for d in range(k, d_max + 1) for lv in lk_spanning_set(M, k, d)],
        lambda ident, lv: _sides(_apply_flavored, M, ident, lv),
        lambda d, lv, got: {
            "flavor": lv.k,
            "degree": d,
            "vector": str(lv.payload),
            "lhs": str(got[0].payload),
            "rhs": str(got[1].payload),
        },
        M.descriptor(),
        only,
    )


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


# checks of check_aux_identities beyond the identity catalog, in report order
AUX_CLOSED_FORMS = ("aux_jucys_murphy", "aux_phi_closed_form", "aux_dminus_closed_form")


def check_aux_identities(M, d_max: int, only: str | None = None) -> list[RelationReport]:
    """Idempotent laws, intertwiner conjugations, the braid-to-sum expansion,
    and the closed forms of the lowering and degree-raising operators."""
    reports = _module_identity_reports(
        M, aux_identities(M.n, M.ring), d_max, only, keep_empty=False
    )
    checks = (_check_jucys_murphy, _check_phi_closed_form, _check_dminus_closed_form)
    for rel_id, check in zip(AUX_CLOSED_FORMS, checks):
        if only is None or only == rel_id:
            reports.append(check(M, d_max, rel_id))
    return reports


def relation_ids(suite: str, n: int) -> list[str]:
    """Relation ids of the daha, bqt or aux suite at rank n, in report order."""
    if suite == "daha":
        return [rid for rid, _, _ in daha_identities(n, QT)]
    if suite == "bqt":
        return [rid for rid, _, _ in bqt_identities(n, 0, QT)]
    return [rid for rid, _, _ in aux_identities(n, QT)] + list(AUX_CLOSED_FORMS)


def _flavored_spans(M, flavors, d_max: int):
    """(flavor, degree, spanning vector) over the flavors and degrees <= d_max."""
    for k in flavors:
        for d in range(k, d_max + 1):
            for lv in lk_spanning_set(M, k, d):
                yield k, d, lv


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
    return run_suite(
        _flavored_spans(M, range(1, n + 1), d_max),
        lambda case: _sides(apply_word, M, idents[case[0]], case[2].payload),
        lambda case, _: {"flavor": case[0], "degree": case[1], "vector": str(case[2].payload)},
        relation_id=rel_id,
        anchor="q^(n-k) T_k^{-1}..T_{n-1}^{-1} T_{n-1}^{-1}..T_k^{-1} = "
        "1 + (q-1) sum_j q^(j-k) T_j^{-1}..T_k^{-1} on flavor-k vectors",
        realization=M.descriptor(),
        ranges={"flavors": list(range(1, n + 1)), "degrees": list(range(d_max + 1))},
    )


def _check_phi_closed_form(M, d_max: int, rel_id: str) -> RelationReport:
    return run_suite(
        _flavored_spans(M, range(1, M.n), d_max),
        lambda case: _mismatch(*phi_sides(M, case[2])),
        lambda case, _: {"flavor": case[0], "degree": case[1], "vector": str(case[2].payload)},
        relation_id=rel_id,
        anchor="[d_+, d_-]/(q-1) = q^(k-1) X_1 T_1^{-1}..T_{k-1}^{-1} on flavor k",
        realization=M.descriptor(),
        ranges={"flavors": list(range(1, M.n)), "degrees": list(range(d_max + 1))},
    )


def _check_dminus_closed_form(M, d_max: int, rel_id: str) -> RelationReport:
    ring = M.ring

    def evaluate(case):
        k, _, w = case
        lhs_payload = apply_epsilon(M, w, k)
        for i in range(1, k + 1):
            lhs_payload = M.apply_Xi(lhs_payload, i)
        lhs = d_minus(M, LVector(k, lhs_payload))
        scaled = M.apply_Xi(w, k).scale(ring.q_power(M.n - k + 1) - ring.one)
        rhs = apply_epsilon(M, scaled, k - 1)
        for i in range(1, k):
            rhs = M.apply_Xi(rhs, i)
        return _mismatch(lhs.payload, rhs)

    return run_suite(
        (
            (k, d, w)
            for k in range(1, M.n + 1)
            for d in range(k, d_max + 1)
            for w in M.basis(d - k)
        ),
        evaluate,
        lambda case, _: {"flavor": case[0], "degree": case[1], "vector": str(case[2])},
        relation_id=rel_id,
        anchor="d_-(X_1..X_k eps_k(w)) = X_1..X_{k-1} eps_{k-1}((q^(n-k+1)-1) X_k w)",
        realization=M.descriptor(),
        ranges={"flavors": list(range(1, M.n + 1)), "degrees": list(range(d_max + 1))},
    )


def check_theta_eigenvalues(lam, n: int, ring=QT) -> RelationReport:
    """Diagonal action with eigenvalue q^content on every seed basis vector."""
    lam = check_shape(tuple(lam))
    M = SeedRealization(lam, n, ring)

    def evaluate(case):
        tau, i = case
        try:
            got = theta_scalar(tau, i, n, ring=ring, realization=M)
        except Exception as exc:  # NotAnEigenvector or arithmetic issue
            return {"error": str(exc)}
        return None if got == ring.q_power(tau.content(i)) else {"scalar": str(got)}

    return run_suite(
        ((tau, i) for tau in M.tableaux for i in range(1, n + 1)),
        evaluate,
        lambda case, got: {"tableau": case[0].to_obj(), "entry": case[1], **got},
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

    For induced sequences the two seed-level axioms (restriction is a braid
    module map and intertwines the affine twist) are checked as well.  The
    broken_connector flag swaps in a truncation that keeps top-variable
    terms; it exists so the suite can demonstrate its own sensitivity.
    """
    if n < seq.n_start:
        raise ValueError(f"rank {n} below the sequence start {seq.n_start}")
    hi = seq.realization(n + 1)
    lo = seq.realization(n)

    def connect(v):
        if broken_connector:
            if seq.kind != "polynomial":
                raise ValueError("broken connector variant exists for the polynomial tower")
            return xi_truncate_broken(v)
        return seq.connect(v)

    desc = {**seq.descriptor(), "n": n, "broken_connector": broken_connector}
    if not broken_connector:
        del desc["broken_connector"]
    reports = []
    graded = [(d, v) for d in range(d_max + 1) for v in hi.basis(d)]

    def report(rel_id, anchor, cases, evaluate, describe):
        reports.append(
            run_suite(
                cases,
                evaluate,
                describe,
                relation_id=rel_id,
                anchor=anchor,
                realization=desc,
                ranges={"degrees": list(range(d_max + 1))},
            )
        )

    def off_degree(case):
        d, v = case
        img = connect(v)
        return img if not img.is_zero() and img.degree() != d else None

    def top_image(case):
        img = connect(hi.apply_Xi(case[1], n + 1))
        return None if img.is_zero() else img

    def with_image(case, img):
        return {"vector": str(case[1]), "image": str(img)}

    def with_index(case, _):
        return {"vector": str(case[0]), "index": case[1]}

    def pi_sides(case):
        v = case[1]
        return _mismatch(connect(hi.apply_pi(hi.apply_Ti(v, n))), lo.apply_pi(connect(v)))

    report("compat_degree_preserving", "deg(Pi(v)) = deg(v) or Pi(v) = 0", graded,
           off_degree, with_image)
    report(
        "compat_T_equivariance",
        "Pi T_i = T_i Pi for 1 <= i <= n-1",
        ((v, i) for _, v in graded for i in range(1, n)),
        lambda c: _mismatch(connect(hi.apply_Ti(*c)), lo.apply_Ti(connect(c[0]), c[1])),
        with_index,
    )
    report(
        "compat_X_equivariance",
        "Pi X_i = X_i Pi for 1 <= i <= n",
        ((v, i) for _, v in graded for i in range(1, n + 1)),
        lambda c: _mismatch(connect(hi.apply_Xi(*c)), lo.apply_Xi(connect(c[0]), c[1])),
        with_index,
    )
    report("compat_kills_top_X", "Pi X_{n+1} = 0", graded, top_image, with_image)
    report(
        "compat_pi_intertwine",
        "Pi pi^(n+1) T_n = pi^(n) Pi",
        graded,
        pi_sides,
        lambda c, got: {"vector": str(c[1]), "lhs": str(got[0]), "rhs": str(got[1])},
    )

    if seq.kind == "murnaghan" and not broken_connector:
        seed_hi, seed_lo = hi.seed, lo.seed

        def kappa(v):
            return kappa_connect(v, seq.shape)

        def kappa_T(case):
            tau, i = case
            e = seed_hi.basis_vector(tau)
            return _mismatch(kappa(seed_hi.apply_Ti(e, i)), seed_lo.apply_Ti(kappa(e), i))

        def kappa_pi(tau):
            e = seed_hi.basis_vector(tau)
            lhs = kappa(seed_hi.apply_pi(seed_hi.apply_Ti(e, n)))
            return _mismatch(lhs, seed_lo.apply_pi(kappa(e)))

        report(
            "precompat_kappa_T",
            "kappa T_i = T_i kappa for 1 <= i <= n-1",
            ((tau, i) for tau in seed_hi.tableaux for i in range(1, n)),
            kappa_T,
            lambda c, _: {"tableau": c[0].to_obj(), "index": c[1]},
        )
        report(
            "precompat_kappa_pi",
            "kappa pi^(n+1) T_n = pi^(n) kappa",
            seed_hi.tableaux,
            kappa_pi,
            lambda tau, _: {"tableau": tau.to_obj()},
        )

    return reports


# ---------------------------------------------------------------------------
# tower-level suite
# ---------------------------------------------------------------------------


def check_bqt_relations_on_towers(
    seq: CompatSeqSpec,
    k_max: int,
    d_max: int,
    window: int = 2,
    n_cap: int = 8,
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
            for tower in limit_component(seq, k, d, window=window, n_cap=n_cap).towers
        ]

    def evaluate(ident, tower):
        base = widen_for_words(seq, tower, [word for _, word in ident.lhs + ident.rhs])
        return None if _sides(apply_tower_word, seq, ident, base) is None else base

    return _catalog_reports(
        lambda k: bqt_identities(n_ref, k, seq.ring),
        range(0, k_max + 1),
        d_max,
        towers,
        evaluate,
        lambda d, _, base: {"flavor": base.k, "degree": d, "window": [base.lo, base.hi]},
        {**seq.descriptor(), "level": "towers"},
        window=window,
        n_cap=n_cap,
    )


# ---------------------------------------------------------------------------
# probabilistic pre-filter
# ---------------------------------------------------------------------------


def run_probabilistic(suite, seed: int, points: int = 2, attempts: int = 5):
    """Run a suite callable over random prime-field specializations.

    The callable receives a coefficient ring and returns reports.  Points
    where some denominator specializes to zero are redrawn.  Reports are
    merged conjunctively and tagged with the probabilistic mode.
    """
    merged: list[RelationReport] | None = None
    done = 0
    attempt = 0
    while done < points:
        attempt += 1
        if attempt > points + attempts:
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
