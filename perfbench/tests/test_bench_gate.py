"""The output gate and its oracles, with negative controls showing it can fail."""

from itertools import product

from bqt.limits import CompatSeqSpec, limit_component
from bqt.relations import check_daha_relations, make_realization
from one_pass import gate
from workloads import (
    DAHA_IDS,
    WORKLOADS,
    daha_expected,
    gate_cell,
    gate_dpr,
    gate_reports,
    pair_count,
    partitions,
)


def _partitions_brute(m: int, largest: int | None = None) -> int:
    largest = m if largest is None else largest
    if m == 0:
        return 1
    return sum(_partitions_brute(m - p, p) for p in range(1, min(m, largest) + 1))


def test_oracles_match_direct_enumeration():
    assert [partitions(m) for m in range(8)] == [1, 1, 2, 3, 5, 7, 11, 15]
    for k in range(4):
        for d in range(8):
            budget = d - k
            brute = 0
            if budget >= 0:
                for alpha in product(range(budget + 1), repeat=k):
                    if sum(alpha) <= budget:
                        brute += _partitions_brute(budget - sum(alpha))
            assert pair_count(k, d) == brute, (k, d)


def test_daha_expected_counts_sum_to_workload_total():
    total = sum(daha_expected(shape, rid) for shape in ((1, 1), (2,)) for rid in DAHA_IDS)
    assert total == 2850


def test_broken_demazure_unit_registers_as_failed():
    good = make_realization({"module": "poly", "n": 2})
    broken = make_realization({"module": "poly", "n": 2, "demazure_coefficient": "q-1"})
    reports = check_daha_relations(good, 2, only="daha_quadratic")
    expected = [("daha_quadratic", None, reports[0].vectors_checked)]
    assert gate_reports(reports, expected)[0]
    bad = check_daha_relations(broken, 2, only="daha_quadratic")
    ok, detail, _ = gate_reports(bad, expected)
    assert not ok and "status not pass" in detail
    # and as a unit of the workload, where it counts in failed
    failures, _, _, _ = gate(WORKLOADS["daha_murnaghan"], [("daha", (1, 1), "daha_quadratic")], [bad])
    assert len(failures) == 1 and "status not pass" in failures[0]


def test_wrong_expected_dim_is_flagged():
    cell = limit_component(CompatSeqSpec("polynomial"), 1, 3, window=2, n_cap=8)
    assert gate_cell(cell, pair_count(1, 3))[0]
    ok, detail, _ = gate_cell(cell, pair_count(1, 3) + 1)
    assert not ok and "oracle" in detail


def test_rank_below_dim_is_flagged():
    assert gate_dpr((3, 3), 3)[0]
    assert not gate_dpr((3, 2), 3)[0]


def test_raising_unit_counts_as_failed():
    wl = WORKLOADS["limit_pol"]
    unit = ("cell", 0, 2)
    failures, signatures, _, _ = gate(wl, [unit], [KeyError("no cell")])
    assert len(failures) == 1 and signatures["cell/0/2"] == ["raised", "KeyError"]
