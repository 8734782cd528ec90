"""Alternating parent/change benchmark pairs, written as a BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent DIR --change DIR --pr N --title TEXT
        --seed S [--pairs 10] [--claim WORKLOAD:METRIC:TARGET_RATIO] [--trace-seed S]

Each of DIR is the root of a checkout; every run is
``python3 perfbench/run.py --workload W --seed S --seconds T`` started in that
checkout, so each side is measured by its own harness on its own source.
The workloads, the run length T and the end-to-end metrics with their
directions are read from the change's BENCHMARK.json.  Pair i runs every
workload once on each side, the parent first when i is even.  For each
workload and metric the record holds both sides' values, their medians and
quartiles, the ratio of the medians (change over parent) and the number of
pairs in which the change was better or worse.  With --claim, a ``claim``
block says whether the change met the target on that metric: the ratio is
at most TARGET_RATIO (at least it where higher is better), the change is
better in at least nine pairs in ten, the medians differ by more than the
parent's interquartile range and the change failed no more operations than
the parent.  With --trace-seed, each side also runs one ``--trace 1`` pass
per workload and the record keeps every ``.calls`` metric, the scalar
busy times, and the scalar kernel's µs per mul and add and share of ops by
denominator class.  Each pair also measures, once per side, the peak RSS of an
interpreter that only imports bqt from that checkout's src, with the
environment perfbench gives its passes; ``import_peak_rss_mb`` summarizes
it, so a move in a workload's peak_rss_mb can be split into the cost of
compiling the modules and the data a pass holds.  It is informational: no claim or
bound reads it.  The record is written to BENCH_<N>.json in the change's
checkout and rewritten after every pair, so a cut run leaves the pairs
measured so far.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

QUARTILES = "statistics.quantiles(n=4, method='inclusive')"
TRACED_KEEP = ("scalars.self_s", "scalars.gcd.busy_s")
# the scalar kernel's cost per op and share of ops, one metric per denominator class
TRACED_KEEP_PREFIXES = ("scalars.mul_us.", "scalars.add_us.", "scalars.ops_share.")
# interpreter settings that change what a run does, recorded when set
RECORDED_ENV = ("PYTHONDONTWRITEBYTECODE", "PYTHONHASHSEED", "PYTHONOPTIMIZE")
IMPORT_RSS = ("import resource, sys; sys.path.insert(0, 'src'); import bqt; "
              "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")


def run_bench(root: Path, workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    """The provenance and result lines of one perfbench/run.py run in root."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{root}: {' '.join(cmd)} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    *_, prov, result = proc.stdout.strip().splitlines()
    return {"provenance": json.loads(prov)["provenance"], "result": json.loads(result)}


def import_rss_mb(root: Path) -> float:
    """Peak RSS in MB of ``import bqt`` from root/src, in a process started as
    perfbench/run.py starts its passes: this interpreter, PYTHONHASHSEED=0."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_RSS], cwd=root, capture_output=True,
                          text=True, env=dict(os.environ, PYTHONHASHSEED="0"))
    if proc.returncode != 0:
        raise RuntimeError(f"{root}: import bqt exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return int(proc.stdout) / 1024.0


def quartiles(xs: list[float]) -> list[float]:
    if len(xs) < 2:
        return [xs[0], xs[0]]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return [round(q[0], 4), round(q[2], 4)]


def summarize(parent: list[float], change: list[float], unit: str, lower_is_better: bool) -> dict:
    pm, cm = statistics.median(parent), statistics.median(change)
    better = sum((c < p) if lower_is_better else (c > p) for p, c in zip(parent, change))
    worse = sum((c > p) if lower_is_better else (c < p) for p, c in zip(parent, change))
    return {
        "unit": unit,
        "parent": [round(x, 4) for x in parent],
        "change": [round(x, 4) for x in change],
        "parent_median": round(pm, 4),
        "parent_quartiles": quartiles(parent),
        "change_median": round(cm, 4),
        "change_quartiles": quartiles(change),
        "ratio": round(cm / pm, 4) if pm else None,
        "change_better_pairs": better,
        "change_worse_pairs": worse,
    }


def record(args, spec: dict, runs: dict, traced: dict, shas: dict, import_rss: dict) -> dict:
    lower = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    workloads = {}
    for w, sides in runs.items():
        if not sides["parent"] or not sides["change"]:
            continue
        n = min(len(sides["parent"]), len(sides["change"]))
        metrics = {}
        for name, is_lower in lower.items():
            vals = {s: [r["result"]["metrics"][name]["value"] for r in sides[s][:n]]
                    for s in ("parent", "change")}
            unit = sides["change"][0]["result"]["metrics"][name]["unit"]
            metrics[name] = summarize(vals["parent"], vals["change"], unit, is_lower)
        workloads[w] = {
            "pairs": n,
            "seed": args.seed,
            "order": "pair i runs the parent first when i is even",
            "all_runs_correct": all(r["result"]["correct"]
                                    for s in ("parent", "change") for r in sides[s][:n]),
            "failed": {s: sum(r["result"]["failed"] for r in sides[s][:n])
                       for s in ("parent", "change")},
            "metrics": metrics,
        }
    out = {
        "pr": args.pr,
        "title": args.title,
        "transcribed": False,
        "parent_sha": shas.get("parent"),
        "change_sha": shas.get("change"),
        "host": f"{os.cpu_count()} cores, Python {platform.python_version()}; times rescaled "
                "to the reference core speed of perfbench/probe.py, raw times in perfbench/out",
        "environment": {k: os.environ[k] for k in RECORDED_ENV if k in os.environ},
        "command": f"python3 perfbench/run.py --workload W --seed {args.seed} "
                   f"--seconds {spec['run_seconds']}, each side from its own checkout "
                   "(tools/bench_pairs.py)",
        "quartiles": QUARTILES,
    }
    if import_rss.get("parent") and import_rss.get("change"):
        out["import_peak_rss_mb"] = {
            "command": f"python3 -c \"{IMPORT_RSS}\", once per side per pair",
            **summarize(import_rss["parent"], import_rss["change"], "MB", True),
        }
    if args.claim:
        w, metric, target = args.claim.split(":")
        m = workloads.get(w, {}).get("metrics", {}).get(metric)
        if m:
            out["claim"] = claim(w, metric, float(target), workloads[w], lower[metric])
    out["workloads"] = workloads
    if traced:
        out["traced"] = traced
    return out


def claim(w: str, metric: str, target: float, workload: dict, is_lower: bool) -> dict:
    """Whether the change met a target ratio on one metric of one workload.

    Met means: the ratio of the medians is at most the target (at least it,
    for a metric where higher is better), the change is better in at least
    nine pairs in ten, the medians differ in the change's favour by more
    than the parent's interquartile range, and the change failed no more
    operations than the parent.
    """
    m = workload["metrics"][metric]
    q1, q3 = m["parent_quartiles"]
    iqr = round(q3 - q1, 4)
    gain = m["parent_median"] - m["change_median"]
    if not is_lower:
        gain = -gain
    ratio = m["ratio"]
    pairs = workload["pairs"]
    checks = {
        "ratio": ratio is not None and (ratio <= target if is_lower else ratio >= target),
        "better_pairs": m["change_better_pairs"] >= math.ceil(0.9 * pairs),
        "beyond_parent_iqr": gain > iqr,
        "failed": workload["failed"]["change"] <= workload["failed"]["parent"],
    }
    return {
        "workload": w,
        "metric": metric,
        "pairs": pairs,
        "change_better_pairs": m["change_better_pairs"],
        "parent_median": m["parent_median"],
        "parent_iqr": iqr,
        "change_median": m["change_median"],
        "ratio": ratio,
        "target_ratio": target,
        "checks": checks,
        "met": all(checks.values()),
    }


def trace_both(args, spec: dict, parent: Path, change: Path) -> dict:
    """Call counts, scalar busy times and per-op scalar costs of one traced pass per side."""
    seconds = spec["run_seconds"]
    traced = {"command": f"python3 perfbench/run.py --workload W --seed {args.trace_seed} "
                         f"--seconds {seconds} --trace 1"}
    for w in (w["name"] for w in spec["workloads"]):
        sides = {s: run_bench(root, w, args.trace_seed, seconds, trace=1)["result"]
                 for s, root in (("parent", parent), ("change", change))}
        names = [k for k in sides["change"]["metrics"]
                 if k.endswith(".calls") or k in TRACED_KEEP
                 or k.startswith(TRACED_KEEP_PREFIXES)]
        traced[w] = {
            "correct": {s: r["correct"] for s, r in sides.items()},
            "metrics": {
                k: {"unit": sides["change"]["metrics"][k]["unit"],
                    **{s: (None if k not in r["metrics"]
                           else round(r["metrics"][k]["value"], 4))
                       for s, r in sides.items()}}
                for k in names
            },
        }
    return traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path)
    ap.add_argument("--change", required=True, type=Path)
    ap.add_argument("--pr", required=True, type=int,
                    help="the change's number n in the BENCH_<n>.json series")
    ap.add_argument("--title", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--claim", default=None)
    ap.add_argument("--trace-seed", type=int, default=None)
    args = ap.parse_args(argv)

    if args.pairs < 1:
        print("error: --pairs must be positive", file=sys.stderr)
        return 2
    parent, change = args.parent.resolve(), args.change.resolve()
    spec = json.loads((change / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    out_path = change / f"BENCH_{args.pr}.json"

    traced = trace_both(args, spec, parent, change) if args.trace_seed is not None else {}
    runs = {w: {"parent": [], "change": []} for w in workloads}
    shas: dict = {}
    import_rss: dict = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = (("parent", parent), ("change", change))[::1 if i % 2 == 0 else -1]
        for side, root in order:
            import_rss[side].append(import_rss_mb(root))
        for w in workloads:
            for side, root in order:
                got = run_bench(root, w, args.seed, spec["run_seconds"])
                shas[side] = got["provenance"]["git_sha"]
                runs[w][side].append(got)
                print(f"pair {i} {w} {side}: verdict_s "
                      f"{got['result']['metrics']['verdict_s']['value']:.4f}", file=sys.stderr)
        doc = record(args, spec, runs, traced, shas, import_rss)
        out_path.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
