"""Relation suites: positive runs, negative controls, and report shape."""

from unittest.mock import patch

import pytest

import bqt.relations
from bqt.errors import NotAnEigenvector, PoleAtPoint
from bqt.limits import CompatSeqSpec
from bqt.lspaces import FLAVORED_ALPHABET, resolve
from bqt.relations import (
    PROBABILISTIC_POINTS,
    RelationReport,
    all_passed,
    bqt_identities,
    check_aux_identities,
    check_bqt_relations,
    check_bqt_relations_on_towers,
    check_compatibility,
    check_daha_relations,
    check_theta_eigenvalues,
    make_realization,
    run_probabilistic,
)
from bqt.relations import _sides, _term_coeffs
from bqt.scalars import QT


def test_daha_suite_poly_n2():
    M = make_realization({"module": "poly", "n": 2})
    reports = check_daha_relations(M, 2)
    assert all_passed(reports)
    assert {r.relation_id for r in reports} == {
        "daha_quadratic",
        "daha_braid",
        "daha_T_commute",
        "daha_TXT",
        "daha_TX_commute",
        "daha_X_commute",
        "daha_TYT",
        "daha_TY_commute",
        "daha_Y_commute",
        "daha_YTX",
        "daha_Y_Xchain",
    }
    assert all(r.mode == "exact" for r in reports)


def test_daha_suite_poly_n1_degenerate():
    M = make_realization({"module": "poly", "n": 1})
    reports = check_daha_relations(M, 3)
    assert all_passed(reports)


def test_daha_suite_murnaghan():
    M = make_realization({"module": "murnaghan", "shape": [1], "n": 3})
    assert all_passed(check_daha_relations(M, 2))


def test_daha_negative_control_sign_flip():
    M = make_realization({"module": "poly", "n": 2, "demazure_coefficient": "q-1"})
    reports = check_daha_relations(M, 2, only="daha_quadratic")
    (rep,) = reports
    assert rep.status == "fail"
    assert rep.counterexample is not None
    assert "x1" in rep.counterexample["vector"]


def test_bqt_suite_poly_n2():
    M = make_realization({"module": "poly", "n": 2})
    reports = check_bqt_relations(M, 2, 3)
    assert reports and all_passed(reports)
    seen = {r.relation_id for r in reports}
    assert "bqt_z1_commutator" in seen
    assert "bqt_dplus_z" in seen


def test_bqt_suite_murnaghan_small():
    M = make_realization({"module": "murnaghan", "shape": [1], "n": 3})
    reports = check_bqt_relations(M, 2, 2)
    assert reports and all_passed(reports)


def test_aux_suite_poly_n3():
    M = make_realization({"module": "poly", "n": 3})
    reports = check_aux_identities(M, 2)
    assert reports and all_passed(reports)
    ids = {r.relation_id for r in reports}
    assert {
        "aux_eps_idempotent",
        "aux_eps_product",
        "aux_pi_X",
        "aux_pitilde_tY",
        "aux_jucys_murphy",
        "aux_phi_closed_form",
        "aux_dminus_closed_form",
    } <= ids


def test_theta_report():
    rep = check_theta_eigenvalues((1,), 4)
    assert rep.status == "pass"
    assert rep.vectors_checked == 3 * 4


def test_theta_error_is_a_fail_report(monkeypatch):
    def planted(tau, entry, n, realization):
        raise NotAnEigenvector(f"planted at entry {entry}")

    monkeypatch.setattr(bqt.relations, "theta_scalar", planted)
    rep = check_theta_eigenvalues((1,), 4).to_obj()
    assert rep["status"] == "fail"
    assert rep["vectors_checked"] == 3 * 4
    cex = rep["counterexample"]
    assert cex["error"] == "NotAnEigenvector"
    assert cex["message"] == "planted at entry 1"
    assert cex["entry"] == 1 and "tableau" in cex and "scalar" not in cex


def test_compatibility_polynomial():
    seq = CompatSeqSpec("polynomial")
    reports = check_compatibility(seq, 2, 3)
    assert all_passed(reports)
    assert {r.relation_id for r in reports} == {
        "compat_degree_preserving",
        "compat_T_equivariance",
        "compat_X_equivariance",
        "compat_kills_top_X",
        "compat_pi_intertwine",
    }


def test_compatibility_murnaghan_includes_seed_axioms():
    seq = CompatSeqSpec("murnaghan", (1,))
    reports = check_compatibility(seq, 3, 2)
    assert all_passed(reports)
    ids = {r.relation_id for r in reports}
    assert "precompat_kappa_T" in ids and "precompat_kappa_pi" in ids


def test_compatibility_negative_control():
    seq = CompatSeqSpec("polynomial")
    reports = check_compatibility(seq, 2, 2, broken_connector=True)
    by_id = {r.relation_id: r for r in reports}
    assert by_id["compat_kills_top_X"].status == "fail"
    assert by_id["compat_kills_top_X"].counterexample is not None


# axiom -> (the rank-n object holding the fault, the generator the fault
# scales by q, the reports that must fail)
PLANTED_COMPAT_FAULTS = {
    "compat_T_equivariance": (lambda lo: lo, "apply_Ti", {"compat_T_equivariance"}),
    "compat_X_equivariance": (lambda lo: lo, "apply_Xi", {"compat_X_equivariance"}),
    "compat_pi_intertwine": (lambda lo: lo, "apply_pi", {"compat_pi_intertwine"}),
    "precompat_kappa_T": (lambda lo: lo.seed, "apply_Ti", {"precompat_kappa_T"}),
    # the induced pi reads the seed's pi, so this fault breaks both pi axioms
    "precompat_kappa_pi": (
        lambda lo: lo.seed, "apply_pi", {"compat_pi_intertwine", "precompat_kappa_pi"}
    ),
}


@pytest.mark.parametrize("axiom", sorted(PLANTED_COMPAT_FAULTS))
def test_compatibility_detects_a_planted_fault_in_each_intertwining_axiom(monkeypatch, axiom):
    holder, name, failing = PLANTED_COMPAT_FAULTS[axiom]
    seq = CompatSeqSpec("murnaghan", (1,))
    target = holder(seq.realization(3))
    correct = getattr(target, name)
    monkeypatch.setattr(target, name, lambda v, *args: correct(v, *args).scale(QT.q))
    reports = check_compatibility(seq, 3, 1)
    assert {r.relation_id for r in reports if r.status == "fail"} == failing
    (rep,) = [r for r in reports if r.relation_id == axiom]
    assert rep.counterexample is not None and "error" not in rep.counterexample


def test_tower_level_suite_small():
    seq = CompatSeqSpec("polynomial")
    reports = check_bqt_relations_on_towers(seq, 1, 2)
    assert reports and all_passed(reports)


def test_every_bqt_identity_term_leaves_one_flavor_and_degree():
    """Module vectors of one flavor carry no flavor tag, so the suite may add and
    compare the terms of an identity only because the catalog's terms, resolved
    at the identity's flavor, all leave the same flavor and add the same degree."""
    seen = set()
    for n in range(1, 6):
        for k in range(n + 1):
            for rel_id, _, items in bqt_identities(n, k, QT):
                for ident in items:
                    ends = set()
                    for _, word in ident.lhs + ident.rhs:
                        _, k_out = resolve(word, k)
                        degree = sum(FLAVORED_ALPHABET[sym[0]].degree_shift for sym in word)
                        ends.add((k_out - k, degree))
                    assert len(ends) == 1, (rel_id, n, k, ident.label, ends)
                    seen |= ends
    # the catalog moves flavor both ways and raises the degree
    assert {(0, 0), (-2, 0), (2, 2), (0, 1), (1, 2)} <= seen


def test_tower_suite_reports_a_mutated_tower_operator(monkeypatch):
    """z_i acting as q^i z_i on every component keeps each tower compatible but
    breaks d_+ z_i = z_{i+1} d_+; the report names the flavor, degree and window."""
    correct = FLAVORED_ALPHABET["z"]
    scaled = correct._replace(
        act=lambda M, v, k, i: correct.act(M, v, k, i).scale(M.ring.q_power(i))
    )
    monkeypatch.setitem(FLAVORED_ALPHABET, "z", scaled)
    reports = check_bqt_relations_on_towers(CompatSeqSpec("polynomial"), 1, 2)
    failed = {(r.relation_id, r.flavor): r for r in reports if r.status != "pass"}
    assert set(failed) == {("bqt_dplus_z", 1)}
    cex = failed["bqt_dplus_z", 1].counterexample
    assert cex["instance"] == "i=1"
    assert cex["flavor"] == 1 and cex["degree"] == 1
    lo, hi = cex["window"]
    assert 2 <= lo < hi


def test_probabilistic_prefilter_agrees():
    def suite(ring):
        M = make_realization({"module": "poly", "n": 2}, ring)
        return check_daha_relations(M, 2)

    reports = run_probabilistic(suite, seed=11)
    assert all_passed(reports)
    assert all(r.mode == "probabilistic" for r in reports)


def test_probabilistic_detects_sign_flip():
    def suite(ring):
        M = make_realization(
            {"module": "poly", "n": 2, "demazure_coefficient": "q-1"}, ring
        )
        return check_daha_relations(M, 1, only="daha_quadratic")

    reports = run_probabilistic(suite, seed=5)
    assert reports[0].status == "fail"


def _stub_report(status: str, vectors: int, counterexample=None) -> RelationReport:
    return RelationReport("stub", "stub = stub", {"module": "stub"}, {}, status, vectors,
                          counterexample, millis=1.0)


def test_probabilistic_redraws_a_point_at_a_pole():
    rings = []

    def suite(ring):
        rings.append(ring)
        if len(rings) == 1:
            raise PoleAtPoint("a denominator vanishes at the first point")
        return [_stub_report("pass", 3)]

    (rep,) = run_probabilistic(suite, seed=4)
    # the pole point is dropped and two further points are drawn
    assert len(rings) == 1 + PROBABILISTIC_POINTS
    assert len({(r.q0, r.t0) for r in rings}) == len(rings)
    assert (rep.status, rep.vectors_checked, rep.mode) == ("pass", 3 * PROBABILISTIC_POINTS,
                                                          "probabilistic")


def test_probabilistic_gives_up_when_every_point_is_a_pole():
    def suite(ring):
        raise PoleAtPoint("every point is a pole")

    with pytest.raises(PoleAtPoint, match="too many evaluation points"):
        run_probabilistic(suite, seed=4)


def test_probabilistic_merges_a_failure_found_only_at_the_second_point():
    calls = []
    cex = {"vector": "x1", "lhs": "1", "rhs": "2"}

    def suite(ring):
        calls.append(ring)
        if len(calls) == 1:
            return [_stub_report("pass", 5), _stub_report("pass", 2)]
        return [_stub_report("fail", 5, cex), _stub_report("pass", 2)]

    failed, held = run_probabilistic(suite, seed=9)
    assert len(calls) == PROBABILISTIC_POINTS == 2
    assert (failed.status, failed.counterexample, failed.vectors_checked) == ("fail", cex, 10)
    assert (held.status, held.counterexample, held.vectors_checked) == ("pass", None, 4)
    assert failed.millis == held.millis == 2.0
    assert {failed.mode, held.mode} == {"probabilistic"}


def test_report_serialization():
    M = make_realization({"module": "poly", "n": 2})
    (rep,) = check_daha_relations(M, 1, only="daha_quadratic")
    obj = rep.to_obj()
    assert obj["relation_id"] == "daha_quadratic"
    assert obj["status"] == "pass"
    assert obj["vectors_checked"] > 0
    assert "anchor" in obj and "ranges" in obj


# -- faults in the fused residual ---------------------------------------------

FUSED_MUTANTS = {
    # every term summed as if its coefficient were 1
    "fused_sum_drops_the_term_coefficient": (
        "bqt.relations._term_coeffs",
        lambda w, coeff, negate: _term_coeffs(w, QT.one, negate),
    ),
    # the right side added instead of subtracted
    "fused_sum_leaves_the_rhs_unnegated": (
        "bqt.relations._term_coeffs",
        lambda w, coeff, negate: _term_coeffs(w, coeff, False),
    ),
}


def verdict_and_fallbacks(check) -> tuple[bool, int]:
    """Whether every report of check() passes, and how many cases it evaluated two-sided."""
    calls = []

    def counted(*args):
        calls.append(args)
        return _sides(*args)

    with patch("bqt.relations._sides", counted):
        passed = all_passed(check())
    return passed, len(calls)


def daha_verdict_and_fallbacks(desc: dict) -> tuple[bool, int]:
    """verdict_and_fallbacks of the DAHA suite at d <= 2."""
    return verdict_and_fallbacks(lambda: check_daha_relations(make_realization(desc), 2))


MURNAGHAN_1_RANK_3 = {"module": "murnaghan", "shape": [1], "n": 3}


def test_fused_residual_decides_every_holding_case():
    assert daha_verdict_and_fallbacks(MURNAGHAN_1_RANK_3) == (True, 0)


@pytest.mark.parametrize("mutant", sorted(FUSED_MUTANTS))
def test_daha_suite_on_murnaghan_1_rank_3_kills_the_fused_mutant(mutant):
    # A residual that fails to vanish sends its case to the two-sided
    # evaluation, which still gives the exact verdict.  So these faults
    # cost time and change no verdict; the suite sees them as fallbacks.
    with patch(*FUSED_MUTANTS[mutant]):
        passed, fallbacks = daha_verdict_and_fallbacks(MURNAGHAN_1_RANK_3)
    assert passed and fallbacks > 0


# -- the (qt)^{-1} that the z letter folds into a fused term's coefficient -----

# module, largest flavor and largest degree
BQT_CASES = {
    "poly_n3": ({"module": "poly", "n": 3}, 3, 3),
    "murnaghan1_n3": (MURNAGHAN_1_RANK_3, 2, 2),
}
# z reads the Y_i table; without its factor the fused path sums Y_i for z_i
DROPPED_Z_FACTOR = {"z": FLAVORED_ALPHABET["z"]._replace(factor=None)}


def bqt_verdict_and_fallbacks(case: str) -> tuple[bool, int]:
    desc, k_max, d_max = BQT_CASES[case]
    return verdict_and_fallbacks(
        lambda: check_bqt_relations(make_realization(desc), k_max, d_max)
    )


@pytest.mark.parametrize("case", sorted(BQT_CASES))
def test_fused_residual_decides_every_holding_bqt_case(case):
    assert bqt_verdict_and_fallbacks(case) == (True, 0)


@pytest.mark.parametrize("case", sorted(BQT_CASES))
def test_bqt_suite_without_the_z_factor_on_the_fused_path_falls_back(case):
    # only the fused path loses the factor; z's act keeps it, so the
    # two-sided evaluation still passes every case the residual rejects
    with patch.dict(FLAVORED_ALPHABET, DROPPED_Z_FACTOR):
        passed, fallbacks = bqt_verdict_and_fallbacks(case)
    assert passed and fallbacks > 0
