"""Span tracing around the engine's public boundaries, from outside the engine.

``Tracer.install`` replaces every binding of each boundary in ``BOUNDARIES``
with a timing wrapper: class attributes for methods, and for functions every
module of the ``bqt`` package that holds the same function object (so
``apply_epsilon`` is wrapped inside ``lspaces`` and ``relations`` too).
``Tracer.remove`` puts the originals back.

Spans are kept in memory as (name, start, end, parent, unit) and written out
when the run ends.  The scalar kernel is the exception: its operations number
in the hundreds of thousands per run, so they are folded into per-boundary
aggregates (calls, busy time, cost by denominator class) and their time is
charged to the enclosing span as child time.  A span's self time is its
duration minus the time covered by its child spans, scalar operations
included.

Wrappers only record in the process that installed them; in a forked pool
worker they call straight through.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import os
import sys
from time import perf_counter

DAHA = "daha_murnaghan"
BQT = "bqt_poly"
LIMIT = "limit_pol"
JOBS2 = "daha_murnaghan_jobs2"
SINGLE = (DAHA, BQT, LIMIT)

# span name, owner inside the bqt package, attribute, workloads on which the
# boundary must record at least one span
BOUNDARIES = (
    ("scalars.mul", "scalars.QtScalar", "__mul__", SINGLE),
    ("scalars.add", "scalars.QtScalar", "__add__", SINGLE),
    ("scalars.fraction", "scalars.QtScalar", "fraction", SINGLE),
    ("scalars.gcd", "scalars", "poly_gcd", SINGLE),
    ("scalars.divexact", "scalars", "poly_divexact", SINGLE),
    ("polyrep.gen.T", "polyrep.PolyRealization", "apply_Ti", (BQT,)),
    ("polyrep.gen.Tinv", "polyrep.PolyRealization", "apply_Ti_inv", (BQT, LIMIT)),
    ("polyrep.gen.pi", "polyrep.PolyRealization", "apply_pi", (BQT, LIMIT)),
    ("polyrep.gen.X", "polyrep.PolyRealization", "apply_Xi", (BQT, LIMIT)),
    ("induced.gen.T", "induced.InducedRealization", "apply_Ti", (DAHA,)),
    ("induced.gen.Tinv", "induced.InducedRealization", "apply_Ti_inv", (DAHA,)),
    ("induced.gen.pi", "induced.InducedRealization", "apply_pi", (DAHA,)),
    ("induced.gen.X", "induced.InducedRealization", "apply_Xi", (DAHA,)),
    # the induced module reaches its seed through T^{-1} and pi only
    ("tableaux.gen.Tinv", "tableaux.SeedRealization", "apply_Ti_inv", (DAHA,)),
    ("tableaux.gen.pi", "tableaux.SeedRealization", "apply_pi", (DAHA,)),
    ("polyrep.apply_Y", "polyrep", "apply_Y", SINGLE),
    ("polyrep.apply_epsilon", "polyrep", "apply_epsilon", (BQT, LIMIT)),
    ("polyrep.apply_word", "polyrep", "apply_word", (DAHA,)),
    ("lspaces.spanning", "lspaces", "lk_spanning_set", (BQT, LIMIT)),
    ("lspaces.extract_basis", "lspaces", "extract_basis", (LIMIT,)),
    ("lspaces.dplus", "lspaces", "d_plus", (BQT, LIMIT)),
    ("lspaces.dminus", "lspaces", "d_minus", (BQT, LIMIT)),
    ("lspaces.z", "lspaces", "z_action", (BQT, LIMIT)),
    ("lspaces.phi", "lspaces", "phi_action", (BQT,)),
    ("linalg.insert", "linalg.RowBasis", "insert", (LIMIT,)),
    ("linalg.solve", "linalg.RowBasis", "solve", (LIMIT,)),
    ("limits.cell", "limits", "limit_component", (LIMIT,)),
    ("limits.dplus_power_rank", "limits", "d_plus_power_rank", (LIMIT,)),
    ("limits.tower_op", "limits", "apply_tower_word", (LIMIT,)),
    ("relations.make_realization", "relations", "make_realization", (DAHA, BQT)),
    ("relations.check_daha", "relations", "check_daha_relations", (DAHA,)),
    ("relations.check_bqt", "relations", "check_bqt_relations", (BQT,)),
    ("cli.main", "cli", "main", (JOBS2,)),
)

# layer -> the end-to-end metrics it should move, on which workloads
LAYER_MAP = {
    "scalars": {"moves": ["verdict_s"], "workloads": [DAHA, BQT, LIMIT], "most": DAHA},
    "polyrep.gen": {"moves": ["verdict_s"], "workloads": [BQT]},
    "induced.gen": {"moves": ["verdict_s"], "workloads": [DAHA]},
    "tableaux.gen": {"moves": ["verdict_s"], "workloads": [DAHA]},
    "polyrep.apply_Y": {"moves": ["verdict_s", "cpu_s"], "workloads": [DAHA, JOBS2]},
    "polyrep.apply_epsilon": {"moves": ["verdict_s"], "workloads": [BQT, LIMIT]},
    "polyrep.apply_word": {"moves": ["verdict_s"], "workloads": [DAHA]},
    "lspaces": {"moves": ["verdict_s"], "workloads": [BQT, LIMIT]},
    "linalg": {"moves": ["verdict_s"], "workloads": [LIMIT]},
    "limits": {"moves": ["verdict_s"], "workloads": [LIMIT]},
    "relations": {"moves": ["verdict_s"], "workloads": [DAHA, BQT]},
    "cli": {"moves": ["verdict_s", "cpu_s"], "workloads": [JOBS2]},
}

DEN_CLASSES = ("one", "monomial", "univariate_q", "mixed")
SCALAR_OPS = ("mul", "add", "fraction", "gcd", "divexact")
GEN_MODULES = ("polyrep", "induced", "tableaux")
LSPACE_OPS = ("dplus", "dminus", "z", "phi")


def den_class(s) -> int:
    """0 one, 1 monomial (constants included), 2 univariate in q, 3 anything else."""
    terms = s.den.terms
    if len(terms) == 1:
        return 0 if terms.get((0, 0)) == 1 else 1
    for _, et in terms:
        if et:
            return 3
    return 2


def _scalar_fp(c):
    return frozenset(c.num.terms.items()), frozenset(c.den.terms.items())


def vector_fp(v) -> int:
    return hash(frozenset((key, _scalar_fp(c)) for key, c in v.coeffs.items()))


def _repeat_key(name: str, args, kwargs):
    """Identity of a call's (realization, index, input), for repeat shares."""
    if name == "lspaces.spanning":
        tail = kwargs.get("tail_sorted", args[3] if len(args) > 3 else False)
        return id(args[0]), args[1], args[2], tail
    if name in ("polyrep.apply_Y", "polyrep.apply_epsilon"):
        return id(args[0]), args[2], vector_fp(args[1])
    return None


class _Stat:
    __slots__ = ("calls", "busy", "self_time", "keys", "repeats", "accepted", "active", "seen")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.keys = 0
        self.repeats = 0
        self.accepted = 0
        self.active = 0
        self.seen: set = set()


class Tracer:
    """In-memory spans and per-boundary aggregates for one traced pass."""

    def __init__(self):
        self.recording = True
        os.register_at_fork(after_in_child=self._stop_recording)
        self.spans: list[tuple] = []
        # open frames: [span index, start, time covered by children]
        self.stack: list[list] = [[-1, 0.0, 0.0]]
        self.unit: str | None = None
        self.stats: dict[str, _Stat] = {}
        self.scalar_depth = 0
        self.scalar_self = 0.0
        # per op and denominator class: [calls, seconds]
        self.by_class = {op: [[0, 0.0] for _ in DEN_CLASSES] for op in ("mul", "add")}
        self.gcd_trivial = 0
        self.peak_terms = 0
        self._installed: list[tuple[object, str, object]] = []

    def _stop_recording(self) -> None:
        self.recording = False

    # -- wrappers -----------------------------------------------------------

    def _enter(self, stat: _Stat) -> None:
        self.spans.append(None)
        self.stack.append([len(self.spans) - 1, perf_counter(), 0.0])
        stat.active += 1

    def _leave(self, name: str, stat: _Stat) -> None:
        end = perf_counter()
        idx, start, child = self.stack.pop()
        dur = end - start
        parent = self.stack[-1]
        parent[2] += dur
        stat.active -= 1
        stat.calls += 1
        stat.self_time += dur - child
        if not stat.active:
            stat.busy += dur
        self.spans[idx] = (name, start, end, parent[0], self.unit)

    def span_wrapper(self, name: str, fn):
        tracer = self
        is_gen = ".gen." in name
        is_insert = name == "linalg.insert"
        stat = self.stats.setdefault(name, _Stat())

        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            t_book = perf_counter()
            key = _repeat_key(name, args, kwargs)
            if key is not None:
                if key in stat.seen:
                    stat.repeats += 1
                else:
                    stat.seen.add(key)
            if is_gen:
                stat.keys += len(args[1].coeffs)
            tracer._enter(stat)
            # bookkeeping before the span counts as the parent's child time
            tracer.stack[-2][2] += tracer.stack[-1][1] - t_book
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._leave(name, stat)
            if is_insert and out:
                stat.accepted += 1
            return out

        return wrapper

    def scalar_wrapper(self, name: str, fn):
        tracer = self
        op = name.split(".")[1]
        stat = self.stats.setdefault(name, _Stat())
        classed = self.by_class.get(op)

        def wrapper(*args):
            if not tracer.recording:
                return fn(*args)
            tracer.scalar_depth += 1
            start = perf_counter()
            try:
                out = fn(*args)
            finally:
                dur = perf_counter() - start
                tracer.scalar_depth -= 1
            stat.calls += 1
            stat.busy += dur
            if not tracer.scalar_depth:
                tracer.scalar_self += dur
                tracer.stack[-1][2] += dur
            if classed is not None:
                cls = max(den_class(args[0]), den_class(args[1]))
                slot = classed[cls]
                slot[0] += 1
                slot[1] += dur
                terms = len(out.num.terms) + len(out.den.terms)
                if terms > tracer.peak_terms:
                    tracer.peak_terms = terms
            elif op == "gcd" and out.is_one():
                tracer.gcd_trivial += 1
            return out

        return wrapper

    @contextlib.contextmanager
    def unit_span(self, uid: str):
        """Span of one workload unit; the spans inside it carry its id."""
        stat = self.stats.setdefault("unit", _Stat())
        self.unit = uid
        self._enter(stat)
        try:
            yield
        finally:
            self._leave("unit", stat)
            self.unit = None

    # -- install / remove ---------------------------------------------------

    def install(self, package) -> None:
        modules = {
            name[len("bqt."):]: mod
            for name, mod in list(sys.modules.items())
            if name.startswith("bqt.") and mod is not None
        }
        modules[""] = package
        for name, owner, attr, _ in BOUNDARIES:
            mod_name, _, cls_name = owner.partition(".")
            if mod_name not in modules:  # bqt.cli is imported by its workload only
                continue
            make = self.scalar_wrapper if name.startswith("scalars.") else self.span_wrapper
            if cls_name:
                cls = getattr(modules[mod_name], cls_name)
                raw = cls.__dict__[attr]
                is_cm = isinstance(raw, classmethod)
                wrapped = make(name, raw.__func__ if is_cm else raw)
                wrapped.__perfbench_wrapped__ = True
                self._installed.append((cls, attr, raw))
                setattr(cls, attr, classmethod(wrapped) if is_cm else wrapped)
                continue
            original = getattr(modules[mod_name], attr)
            wrapped = make(name, original)
            wrapped.__perfbench_wrapped__ = True
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._installed.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- results ------------------------------------------------------------

    def metrics(self, relation_of: dict, relation_ids, vectors_checked: int) -> dict:
        st = self.stats
        blank = _Stat()

        def get(name: str) -> _Stat:
            return st.get(name, blank)

        def share(part, whole) -> float:
            return part / whole if whole else 0.0

        m: dict[str, tuple[float, str]] = {}
        for op in SCALAR_OPS:
            m[f"scalars.{op}.calls"] = (get(f"scalars.{op}").calls, "count")
        m["scalars.self_s"] = (self.scalar_self, "s")
        m["scalars.gcd.busy_s"] = (get("scalars.gcd").busy, "s")
        classed_total = sum(s[0] for op in self.by_class.values() for s in op)
        for i, cls in enumerate(DEN_CLASSES):
            for op in ("mul", "add"):
                calls, secs = self.by_class[op][i]
                m[f"scalars.{op}_us.{cls}"] = (share(secs * 1e6, calls), "us")
            ops = self.by_class["mul"][i][0] + self.by_class["add"][i][0]
            m[f"scalars.ops_share.{cls}"] = (share(ops, classed_total), "ratio")
        gcd = get("scalars.gcd").calls
        m["scalars.gcd.trivial_share"] = (share(self.gcd_trivial, gcd), "ratio")
        m["scalars.peak_terms"] = (self.peak_terms, "count")

        for mod in GEN_MODULES:
            gens = [s for n, s in st.items() if n.startswith(f"{mod}.gen.")]
            calls = sum(s.calls for s in gens)
            m[f"{mod}.gen.calls"] = (calls, "count")
            m[f"{mod}.gen.self_s"] = (sum(s.self_time for s in gens), "s")
            m[f"{mod}.gen.keys_per_call"] = (share(sum(s.keys for s in gens), calls), "keys")

        for word in ("apply_Y", "apply_epsilon"):
            s = get(f"polyrep.{word}")
            m[f"polyrep.{word}.calls"] = (s.calls, "count")
            m[f"polyrep.{word}.busy_s"] = (s.busy, "s")
            m[f"polyrep.{word}.repeat_share"] = (share(s.repeats, s.calls), "ratio")
        s = get("polyrep.apply_word")
        m["polyrep.apply_word.calls"] = (s.calls, "count")
        m["polyrep.apply_word.self_s"] = (s.self_time, "s")

        s = get("lspaces.spanning")
        m["lspaces.spanning.calls"] = (s.calls, "count")
        m["lspaces.spanning.busy_s"] = (s.busy, "s")
        m["lspaces.spanning.hit_share"] = (share(s.repeats, s.calls), "ratio")
        for op in LSPACE_OPS:
            s = get(f"lspaces.{op}")
            m[f"lspaces.{op}.calls"] = (s.calls, "count")
            m[f"lspaces.{op}.busy_s"] = (s.busy, "s")

        s = get("linalg.insert")
        m["linalg.insert.calls"] = (s.calls, "count")
        m["linalg.insert.busy_s"] = (s.busy, "s")
        m["linalg.insert.accept_share"] = (share(s.accepted, s.calls), "ratio")
        m["linalg.solve.calls"] = (get("linalg.solve").calls, "count")

        s = get("limits.cell")
        m["limits.cell.calls"] = (s.calls, "count")
        m["limits.cell.busy_s"] = (s.busy, "s")
        spans = self.spans
        m["limits.ranks_built"] = (
            sum(
                1
                for sp in spans
                if sp[0] == "lspaces.extract_basis" and sp[3] >= 0
                and spans[sp[3]][0] == "limits.cell"
            ),
            "count",
        )
        s = get("limits.tower_op")
        m["limits.tower_op.calls"] = (s.calls, "count")
        m["limits.tower_op.busy_s"] = (s.busy, "s")

        busy_by_rel: dict[str, float] = {}
        for sp in spans:
            rid = relation_of.get(sp[4]) if sp[0] == "unit" else None
            if rid is not None:
                busy_by_rel[rid] = busy_by_rel.get(rid, 0.0) + sp[2] - sp[1]
        for rid in relation_ids:
            m[f"relations.{rid}.busy_s"] = (busy_by_rel.get(rid, 0.0), "s")
        m["relations.vectors_checked"] = (vectors_checked, "count")
        return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}

    def missing_boundaries(self, workload: str) -> list[str]:
        """Boundaries the layer map assigns to this workload that saw no call."""
        return [
            name
            for name, _, _, required in BOUNDARIES
            if workload in required and not self.stats.get(name, _Stat()).calls
        ]

    def write_spans(self, path: str) -> None:
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent, unit in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "unit": unit}
                    )
                    + "\n"
                )


def wrappers_left() -> list[str]:
    """Bindings in the bqt package that are still benchmark wrappers."""
    left = []
    for mod_name, mod in list(sys.modules.items()):
        if not (mod_name == "bqt" or mod_name.startswith("bqt.")) or mod is None:
            continue
        for key, value in list(vars(mod).items()):
            if getattr(value, "__perfbench_wrapped__", False):
                left.append(f"{mod_name}.{key}")
            if isinstance(value, type):
                for attr, raw in vars(value).items():
                    fn = raw.__func__ if isinstance(raw, classmethod) else raw
                    if getattr(fn, "__perfbench_wrapped__", False):
                        left.append(f"{mod_name}.{key}.{attr}")
    return left
