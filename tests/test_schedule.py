"""The check scheduler: the same reports and exit codes with any number of workers."""

import json
import multiprocessing
import os

import pytest

from bqt import schedule
from bqt.cli import main
from bqt.errors import ExactDivisionError
from bqt.polyrep import PolyRealization
from bqt.schedule import Unit, check_units


def run_to_file(capsys, path, *argv):
    code = main([*argv, "--no-timing", "--out", str(path)])
    capsys.readouterr()
    return code, path.read_bytes()


def test_fail_reports_with_counterexamples_match_across_jobs(capsys, tmp_path):
    args = ("check", "daha", "--module", "poly", "--n", "2", "--dmax", "2", "--demazure", "q-1")
    code1, seq = run_to_file(capsys, tmp_path / "seq.json", *args, "--jobs", "1")
    code2, par = run_to_file(capsys, tmp_path / "par.json", *args, "--jobs", "2")
    assert code1 == code2 == 1
    assert seq == par
    failed = [r for r in json.loads(par)["reports"] if r["status"] == "fail"]
    assert failed and all("counterexample" in r for r in failed)


def test_an_error_inside_a_worker_is_the_same_fail_report(capsys, monkeypatch, tmp_path):
    def broken_Xi(self, v, i):
        raise ExactDivisionError("inexact division planted in X_i")

    monkeypatch.setattr(PolyRealization, "apply_Xi", broken_Xi)
    args = ("check", "daha", "--module", "poly", "--n", "3", "--dmax", "1")
    code1, seq = run_to_file(capsys, tmp_path / "seq.json", *args, "--jobs", "1")
    code2, par = run_to_file(capsys, tmp_path / "par.json", *args, "--jobs", "2")
    assert code1 == code2 == 1
    assert seq == par
    assert "ExactDivisionError" in par.decode()


def test_an_error_in_the_warmed_y_chain_is_the_same_fail_report(capsys, monkeypatch, tmp_path):
    def broken_Ti_inv(self, v, i):
        raise ExactDivisionError("inexact division planted in T_i^{-1}")

    monkeypatch.setattr(PolyRealization, "apply_Ti_inv", broken_Ti_inv)
    args = ("check", "daha", "--module", "poly", "--n", "3", "--dmax", "1")
    code1, seq = run_to_file(capsys, tmp_path / "seq.json", *args, "--jobs", "1")
    code2, par = run_to_file(capsys, tmp_path / "par.json", *args, "--jobs", "2")
    assert code1 == code2 == 1
    assert seq == par
    assert "inexact division planted in T_i^{-1}" in par.decode()


def test_an_exception_escaping_a_worker_exits_2_as_it_does_sequentially(capsys, monkeypatch):
    check_suite = schedule.check_suite

    def raising(suite, M, params, only=None):
        if only in ("daha_TYT", "daha_YTX"):
            raise ValueError(f"planted in {only}")
        return check_suite(suite, M, params, only)

    monkeypatch.setattr(schedule, "check_suite", raising)
    outcomes = []
    for jobs in ("1", "2"):
        code = main(["check", "daha", "--module", "poly", "--n", "3", "--dmax", "1",
                     "--jobs", jobs])
        outcomes.append((code, capsys.readouterr().err))
    # the first failing relation in catalog order, whichever worker ran it
    assert outcomes[0] == outcomes[1] == (2, "error: planted in daha_TYT\n")


def test_a_worker_that_dies_is_an_error_not_a_hang(monkeypatch):
    def dies(suite, M, params, only=None):
        os._exit(3)

    monkeypatch.setattr(schedule, "check_suite", dies)
    with pytest.raises(RuntimeError, match="worker exited"):
        check_units([Unit({"module": "poly", "n": 2}, "daha", {"dmax": 1})], 2)
    assert multiprocessing.active_children() == []


UNITS = [
    Unit({"module": "poly", "n": 3}, "daha", {"dmax": 2}),
    Unit({"module": "murnaghan", "shape": [1], "n": 3}, "daha", {"dmax": 1}),
    Unit({"module": "poly", "n": 3}, "bqt", {"dmax": 2, "kmax": 2}),
    Unit({"module": "poly", "n": 2}, "aux", {"dmax": 2}),
]


def zero_millis(reports):
    return [[{**obj, "millis": 0.0} for obj in objs] for objs in reports]


@pytest.mark.parametrize("jobs", [2, 5])
def test_whole_units_give_the_sequential_reports(jobs):
    sequential = zero_millis(check_units(UNITS, 1))
    assert [len(objs) for objs in sequential] == [11, 11, 14, 12]
    assert zero_millis(check_units(UNITS, jobs)) == sequential
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("unit", UNITS, ids=lambda u: u.suite)
def test_a_unit_split_into_relation_ids_gives_the_sequential_reports(unit):
    assert zero_millis(check_units([unit], 3)) == zero_millis(check_units([unit], 1))
    assert multiprocessing.active_children() == []


def test_only_a_single_unit_across_workers_is_warmed(monkeypatch):
    warmed = []
    monkeypatch.setattr(schedule, "_warm_y", lambda M, params: warmed.append(M.descriptor()))
    unit = UNITS[0]
    check_units([unit], 1)
    check_units([unit, UNITS[1]], 2)
    check_units([unit, UNITS[1]], 5)
    assert warmed == []
    check_units([unit], 2)
    assert warmed == [unit.desc]


def test_costs_come_from_the_catalog_words():
    unit = Unit({"module": "murnaghan", "shape": [1, 1], "n": 4}, "daha", {"dmax": 2})
    M = schedule.make_realization(unit.desc)
    costs = schedule._costs(unit, M)
    keys = sum(len(M.basis(d)) for d in range(3))
    # Y letters: 6 instances of Y_i Y_j = Y_j Y_i, 6 of T_i Y_j = Y_j T_i, 3 of T_i Y_i T_i = q Y_{i+1}
    assert costs["daha_Y_commute"] == 24 * keys
    assert costs["daha_TY_commute"] == 12 * keys
    assert costs["daha_TYT"] == 6 * keys
    assert costs["daha_YTX"] == costs["daha_Y_Xchain"] == 2 * keys
    assert all(costs[rid] == 0 for rid in ("daha_quadratic", "daha_braid", "daha_TXT"))
