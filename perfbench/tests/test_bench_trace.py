"""Trace self-test: coverage of the layer map, unchanged verdicts, clean removal."""

import pytest

import bqt
from bqt.relations import check_bqt_relations, check_daha_relations, make_realization
from conftest import ROOT
from run import trace
from tracer import BOUNDARIES, Tracer, wrappers_left
from workloads import WORKLOADS


def test_install_wraps_every_binding_and_remove_restores_it():
    import bqt.lspaces
    import bqt.polyrep
    import bqt.relations

    original = bqt.polyrep.apply_epsilon
    tracer = Tracer()
    tracer.install(bqt)
    try:
        assert bqt.lspaces.apply_epsilon is not original
        assert bqt.relations.apply_epsilon is bqt.lspaces.apply_epsilon
        assert bqt.apply_epsilon is bqt.lspaces.apply_epsilon
        M = make_realization({"module": "murnaghan", "shape": [1], "n": 2})
        reports = check_daha_relations(M, 1, only="daha_Y_commute")
        reports += check_bqt_relations(make_realization({"module": "poly", "n": 2}), 2, 2)
    finally:
        tracer.remove()
    assert all(r.status == "pass" for r in reports)
    assert wrappers_left() == []
    assert bqt.lspaces.apply_epsilon is original and bqt.relations.apply_epsilon is original
    for name in ("induced.gen.Tinv", "polyrep.apply_Y", "lspaces.spanning", "scalars.mul"):
        assert tracer.stats[name].calls > 0, name
    # spans nest: every parent index points at an enclosing span
    for name, start, end, parent, _ in tracer.spans:
        if parent >= 0:
            p = tracer.spans[parent]
            assert p[1] <= start <= end <= p[2], (name, p[0])


def test_every_boundary_is_assigned_to_a_workload():
    for name, _, _, required in BOUNDARIES:
        assert required and set(required) <= set(WORKLOADS), name


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_covers_its_layers_and_keeps_verdicts(workload, tmp_path):
    result, detail = trace(ROOT, tmp_path, workload, seed=1)
    assert detail["failures"] == []
    assert result["correct"] and result["failed"] == 0
    assert detail["traced"]["signatures"] == detail["untraced"]["signatures"]
    assert result["metrics"]["trace.overhead"]["value"] > 0
