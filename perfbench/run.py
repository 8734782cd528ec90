"""bqt benchmark: verdict time of the exact checker on fixed workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the engine is imported from ./src.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the provenance (seed, git SHA, core count, Python version, workload
rationale, layer map).  The full record, with every pass, is also written to
perfbench/out/.

With --trace 0 the run repeats whole passes, each in a fresh process, for
about S seconds (at least one pass; none is started that would end after S).
verdict_s and cpu_s are means over passes, peak_rss_mb a median.  setup_s is
the median of the set-ups timed in every pass and in a set-up-only process
before each pass, so its samples spread over the run.  Times are in seconds
at the reference core speed of probe.py: the cores of a shared host change
speed by up to 2x for minutes, and rescaling by a fixed probe timed next to
the work keeps identical work reading closer to the same.  The raw times are
in the record.

With --trace 1 it runs one untraced and one traced pass of the same seed,
checks that their verdicts agree, that every boundary the layer map assigns
to the workload recorded a span and that no wrapper is left, and reports the
per-layer metrics and the tracing overhead.

Every unit's output is gated (see workloads.py); ``failed`` counts units
whose verdict was wrong, raised or was unresolved.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import LAYER_MAP  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def git_sha(root: Path) -> str:
    """HEAD of the checkout from .git files; no git process, nothing outside root."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def why(workload: str) -> str:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return next(w["why"] for w in spec["workloads"] if w["name"] == workload)


def child(root: Path, workload: str, seed: int, mode: str, spans: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "one_pass.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{mode} pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(root: Path, workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    child(root, workload, seed, "setup")  # warm-up: byte-compiles ./src once
    setups = []
    passes = []
    start = perf_counter()
    while True:
        # a set-up sample before every pass spreads them over the run
        setups.append(child(root, workload, seed, "setup"))
        passes.append(child(root, workload, seed, "pass"))
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:  # the next pass would overrun
            break
    setups += passes
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)

    def mean(key):
        return statistics.mean(p[key] for p in passes)

    # verdict and CPU time are means over the few passes of a run: the cores
    # switch between two speeds, and the median of two or three passes jumps
    # between them where the mean moves with the share of slow passes
    metrics = {
        "verdict_s": (mean("verdict_s"), "s"),
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "cpu_s": (mean("cpu_s"), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "ok_share": ((attempted - failed) / attempted, "ratio"),
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = {
        "failures": [f for p in passes for f in p["failures"]],
        "raw": {
            "verdict_s": mean("verdict_raw_s"),
            "setup_s": statistics.median(s["setup_raw_s"] for s in setups),
        },
        "setup_samples": setups[: len(setups) - len(passes)],
        "passes": passes,
    }
    return result, detail


def trace(root: Path, out_dir: Path, workload: str, seed: int) -> tuple[dict, dict]:
    child(root, workload, seed, "setup")
    base = child(root, workload, seed, "pass")
    spans = out_dir / f"spans-{workload}-seed{seed}.jsonl.gz"
    traced = child(root, workload, seed, "trace", spans)
    problems = []
    if traced["signatures"] != base["signatures"]:
        diff = [u for u in base["signatures"] if traced["signatures"].get(u) != base["signatures"][u]]
        problems.append(f"traced verdicts differ from untraced on {diff[:10]}")
    if traced["missing_boundaries"]:
        problems.append(f"no span at {traced['missing_boundaries']}")
    if traced["wrappers_left"]:
        problems.append(f"wrappers left installed: {traced['wrappers_left']}")
    metrics = dict(traced["layer_metrics"])
    metrics["trace.overhead"] = {
        "value": traced["verdict_s"] / base["verdict_s"], "unit": "ratio"
    }
    attempted = base["attempted"] + traced["attempted"]
    failed = base["failed"] + traced["failed"]
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    detail = {
        "failures": base["failures"] + traced["failures"] + problems,
        "untraced": base,
        "traced": traced,
        "spans_file": str(spans),
    }
    return result, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if not (root / "src" / "bqt" / "__init__.py").is_file():
        print(f"error: {root} holds no bqt source tree (src/bqt); run from a checkout root",
              file=sys.stderr)
        return 2
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    try:
        if args.trace:
            result, detail = trace(root, out_dir, args.workload, args.seed)
        else:
            result, detail = measure(root, args.workload, args.seed, args.seconds)
    except (BenchError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "why": why(args.workload),
        "layer_map": LAYER_MAP,
    }
    record = {"provenance": provenance, "result": result, "detail": detail}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n")
    for line in detail["failures"]:
        print(line, file=sys.stderr)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
