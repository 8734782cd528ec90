"""One pass of a workload in a fresh interpreter; prints one JSON line.

    python3 perfbench/one_pass.py --workload NAME --seed N --mode setup|pass|trace
        [--spans PATH]

``setup`` imports bqt from ./src and builds the workload's realizations or
sequence specs, timing that.  ``pass`` also runs every unit in the seeded
order, timing each call and gating each output afterwards.  Times are
reported raw and rescaled to the reference core speed of probe.py, with the
probe run before set-up, after it, and between units every PROBE_EVERY_S.  ``trace``
is a pass with the tracer's wrappers installed; it adds the per-layer
metrics, the boundaries that recorded nothing and any wrapper left behind.
run.py drives these; each pass is a new process so every pass starts with
cold memo tables, as a user's ``bqt`` command does.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

from probe import REFERENCE_S, probe
from tracer import Tracer, wrappers_left
from workloads import BQT_IDS, DAHA_IDS, JOBS, WORKLOADS

PROBE_EVERY_S = 0.2


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def unit_id(unit: tuple) -> str:
    return "/".join(str(x) for x in unit)


def gate(wl, units, results) -> tuple[list[str], dict, int, float]:
    """Check every unit's output; a unit that raised is a failed unit.

    Returns the failure lines, each unit's verdict signature, the vectors
    the suites checked and the CLI reports' summed millis.
    """
    failures = []
    signatures = {}
    vectors = 0
    millis = 0.0
    for unit, result in zip(units, results):
        uid = unit_id(unit)
        if isinstance(result, Exception):
            ok, detail, sig = False, f"raised {result!r}", ("raised", type(result).__name__)
        else:
            ok, detail, sig = wl.check(unit, result)
            vectors += wl.vectors_of(result)
            if unit[0] == "cli":
                millis += sum(r["millis"] for r in result[1]["reports"])
        signatures[uid] = json.loads(json.dumps(sig))
        if not ok:
            failures.append(f"{uid}: {detail}")
    return failures, signatures, vectors, millis


def run(workload: str, seed: int, mode: str, spans_path: str | None) -> dict:
    wl = WORKLOADS[workload]
    traced = mode == "trace"
    src = Path.cwd() / "src"
    sys.path.insert(0, str(src))

    before = probe()
    t0 = perf_counter()
    for name in wl.modules:
        importlib.import_module(name)
    bqt = sys.modules["bqt"]
    if Path(bqt.__file__).resolve().parent != (src / "bqt").resolve():
        raise RuntimeError(f"imported bqt from {bqt.__file__}, not from {src}")
    tracer = Tracer() if traced else None
    if tracer:
        tracer.install(bqt)
    ctx = wl.build(bqt, traced)
    setup_raw_s = perf_counter() - t0
    setup_s = setup_raw_s * REFERENCE_S / ((before + probe()) / 2)
    if mode == "setup":
        return {"setup_s": setup_s, "setup_raw_s": setup_raw_s}

    units = wl.ordered_units(seed)
    results = []
    verdict_raw_s = verdict_s = cpu_s = 0.0
    after = probe()
    probed_at = perf_counter()
    for i, unit in enumerate(units):
        before = after
        cpu0 = _cpu_seconds()
        start = perf_counter()
        try:
            if tracer:
                with tracer.unit_span(unit_id(unit)):
                    results.append(wl.call(bqt, ctx, unit))
            else:
                results.append(wl.call(bqt, ctx, unit))
        except Exception as exc:  # a raising unit is a failed unit, not a crash
            results.append(exc)
        wall = perf_counter() - start
        cpu = _cpu_seconds() - cpu0
        # probes run between units, outside the timed calls
        if perf_counter() - probed_at > PROBE_EVERY_S or i == len(units) - 1:
            after = probe()
            probed_at = perf_counter()
        scale = REFERENCE_S / ((before + after) / 2)
        verdict_raw_s += wall
        verdict_s += wall * scale
        cpu_s += cpu * scale
    if tracer:
        tracer.remove()

    failures, signatures, vectors, millis = gate(wl, units, results)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out = {
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "verdict_s": verdict_s,
        "verdict_raw_s": verdict_raw_s,
        "cpu_s": cpu_s,
        # the pass's own peak plus the largest peak among its pool workers
        "peak_rss_mb": (own + kids) / 1024.0,
        "attempted": len(units),
        "failed": len(failures),
        "failures": failures[:20],
        "signatures": signatures,
        "vectors_checked": vectors,
    }
    if tracer:
        relation_of = {unit_id(u): wl.relation_of(u) for u in units if wl.relation_of(u)}
        metrics = tracer.metrics(relation_of, DAHA_IDS + BQT_IDS, vectors)
        # millis stay 0 outside the CLI workload
        busy = millis / 1000.0 / (JOBS * verdict_raw_s)
        metrics["cli.worker_busy_share"] = {"value": busy, "unit": "ratio"}
        out["layer_metrics"] = metrics
        out["missing_boundaries"] = tracer.missing_boundaries(workload)
        out["wrappers_left"] = wrappers_left()
        out["spans"] = len(tracer.spans)
        if spans_path:
            tracer.write_spans(spans_path)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=["setup", "pass", "trace"])
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()
    print(json.dumps(run(args.workload, args.seed, args.mode, args.spans)))
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
