"""tools/bench_pairs.py: the summary of alternating parent/change pairs.

The runs themselves are perfbench/run.py processes; these tests feed
record() fabricated run results and check the medians, quartiles, ratios,
pair counts and the claim verdict it writes.
"""

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def fake_run(verdict: float, rss: float, failed: int = 0) -> dict:
    values = {"verdict_s": (verdict, "s"), "setup_s": (0.06, "s"), "cpu_s": (verdict, "s"),
              "peak_rss_mb": (rss, "MB"), "ok_share": (1.0, "ratio")}
    return {"provenance": {"git_sha": "x"},
            "result": {"correct": True, "failed": failed,
                       "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()}}}


def test_summary_counts_pairs_by_each_metrics_direction():
    m = bench_pairs.summarize([2.0, 2.2, 1.8, 2.4], [1.0, 2.3, 1.1, 1.2], "s", True)
    assert (m["parent_median"], m["change_median"], m["ratio"]) == (2.1, 1.15, 0.5476)
    assert (m["change_better_pairs"], m["change_worse_pairs"]) == (3, 1)
    assert m["parent_quartiles"] == [1.95, 2.25]
    higher = bench_pairs.summarize([1.0, 1.0], [1.0, 0.9], "ratio", False)
    assert (higher["change_better_pairs"], higher["change_worse_pairs"]) == (0, 1)


def test_record_has_every_end_to_end_metric_and_the_claim():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = SimpleNamespace(pr=1, title="t", seed=5, claim="w:verdict_s:0.7")
    runs = {"w": {"parent": [fake_run(2.0, 20.0), fake_run(2.2, 20.1)],
                  "change": [fake_run(1.2, 19.0), fake_run(1.3, 19.1), fake_run(9.0, 99.0)]}}
    doc = bench_pairs.record(args, spec, runs, {}, {"parent": "a", "change": "b"}, {})
    w = doc["workloads"]["w"]
    assert w["pairs"] == 2 and w["all_runs_correct"]
    assert set(w["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert w["metrics"]["peak_rss_mb"]["change"] == [19.0, 19.1]
    claim = doc["claim"]
    assert claim["met"] and claim["change_better_pairs"] == 2 and claim["ratio"] == 0.5952
    assert doc["command"].startswith(f"python3 perfbench/run.py --workload W --seed 5 "
                                     f"--seconds {spec['run_seconds']},")


def claim_of(parent: list, change: list, failed=(0, 0)) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = SimpleNamespace(pr=1, title="t", seed=5, claim="w:verdict_s:0.7")
    runs = {"w": {"parent": [fake_run(x, 20.0, failed[0]) for x in parent],
                  "change": [fake_run(x, 20.0, failed[1]) for x in change]}}
    return bench_pairs.record(args, spec, runs, {}, {}, {})["claim"]


PARENT = [2.0, 2.1, 1.9, 2.2, 2.0, 2.1, 1.9, 2.0, 2.1, 2.0]


def test_claim_is_met_only_when_every_check_holds():
    assert claim_of(PARENT, [1.0] * 10)["met"]
    # ratio 0.5 but the change loses 2 of 10 pairs: fewer than nine better
    lost_pairs = claim_of(PARENT, [1.0] * 8 + [3.0, 3.0])
    assert lost_pairs["ratio"] <= 0.7 and lost_pairs["change_better_pairs"] == 8
    assert not lost_pairs["met"] and lost_pairs["checks"] == {
        "ratio": True, "better_pairs": False, "beyond_parent_iqr": True, "failed": True}
    # better in every pair and far below the target, but failing more operations
    failing = claim_of(PARENT, [1.0] * 10, failed=(0, 1))
    assert not failing["met"] and failing["checks"]["failed"] is False
    # the medians differ by less than the parent's interquartile range
    spread = [1.0, 3.0, 1.0, 3.0, 1.0, 3.0, 1.0, 3.0, 1.0, 3.0]
    narrow = claim_of(spread, [x * 0.6 for x in spread])
    assert narrow["ratio"] <= 0.7 and narrow["change_better_pairs"] == 10
    assert not narrow["met"] and narrow["checks"]["beyond_parent_iqr"] is False


def test_import_peak_rss_is_measured_per_checkout_and_summarized():
    rss = bench_pairs.import_rss_mb(ROOT)
    assert 1.0 < rss < 1024.0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = SimpleNamespace(pr=1, title="t", seed=5, claim=None)
    runs = {"w": {"parent": [fake_run(2.0, 20.0)], "change": [fake_run(2.0, 19.0)]}}
    doc = bench_pairs.record(args, spec, runs, {}, {},
                             {"parent": [18.2, 18.4], "change": [17.5, 17.7]})
    imp = doc["import_peak_rss_mb"]
    assert (imp["parent"], imp["change"]) == ([18.2, 18.4], [17.5, 17.7])
    assert (imp["unit"], imp["change_better_pairs"], imp["ratio"]) == ("MB", 2, 0.9617)
    assert "import bqt" in imp["command"] and "claim" not in doc
    # a record without import measurements has no such block
    assert "import_peak_rss_mb" not in bench_pairs.record(args, spec, runs, {}, {}, {})


def test_traced_record_keeps_calls_busy_times_and_per_op_scalar_costs(monkeypatch):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kept = ["scalars.mul.calls", "scalars.self_s", "scalars.gcd.busy_s", "scalars.mul_us.one",
            "scalars.add_us.mixed", "scalars.ops_share.univariate_q"]
    dropped = ["scalars.peak_terms", "scalars.gcd.trivial_share", "polyrep.apply_Y.busy_s",
               "trace.overhead", "scalars.mul_usx"]
    calls = []

    def stub(root, workload, seed, seconds, trace=0):
        calls.append((root.name, workload, seed, trace))
        value = 2.0 if root.name == "change" else 3.0
        metrics = {k: {"value": value, "unit": "u"} for k in kept + dropped}
        if root.name == "parent":  # a metric the parent's tracer does not record
            del metrics["scalars.add_us.mixed"]
        return {"provenance": {"git_sha": "x"}, "result": {"correct": True, "metrics": metrics}}

    monkeypatch.setattr(bench_pairs, "run_bench", stub)
    args = SimpleNamespace(trace_seed=1)
    traced = bench_pairs.trace_both(args, spec, Path("parent"), Path("change"))
    workloads = [w["name"] for w in spec["workloads"]]
    assert calls == [(side, w, 1, 1) for w in workloads for side in ("parent", "change")]
    for w in workloads:
        metrics = traced[w]["metrics"]
        assert list(metrics) == kept
        assert metrics["scalars.mul_us.one"] == {"unit": "u", "parent": 3.0, "change": 2.0}
        assert metrics["scalars.add_us.mixed"]["parent"] is None
        assert traced[w]["correct"] == {"parent": True, "change": True}
