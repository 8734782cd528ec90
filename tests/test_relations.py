"""Relation suites: positive runs, negative controls, and report shape."""

import bqt.relations
from bqt.errors import NotAnEigenvector
from bqt.limits import CompatSeqSpec
from bqt.relations import (
    all_passed,
    check_aux_identities,
    check_bqt_relations,
    check_bqt_relations_on_towers,
    check_compatibility,
    check_daha_relations,
    check_theta_eigenvalues,
    make_realization,
    run_probabilistic,
)


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
    def planted(tau, entry, n, ring, realization):
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


def test_tower_level_suite_small():
    seq = CompatSeqSpec("polynomial")
    reports = check_bqt_relations_on_towers(seq, 1, 2)
    assert reports and all_passed(reports)


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


def test_report_serialization():
    M = make_realization({"module": "poly", "n": 2})
    (rep,) = check_daha_relations(M, 1, only="daha_quadratic")
    obj = rep.to_obj()
    assert obj["relation_id"] == "daha_quadratic"
    assert obj["status"] == "pass"
    assert obj["vectors_checked"] > 0
    assert "anchor" in obj and "ranges" in obj
