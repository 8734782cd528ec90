"""Workloads of the bqt benchmark: fixed unit sets, seeded order, output gates.

A unit is one call into the engine's public API.  The seed shuffles only the
order of the units inside each phase; the set of units is fixed.  Every
unit's output is checked against counts fixed in this file or against the
combinatorial oracles below, which are written here from scratch and share
no code with the engine or its tests.  A unit whose output is wrong, or that
raised, counts as failed.

Each workload is a slice of an acceptance criterion chosen so that one
engine module does most of the work in it and little in another (the
rationale is in BENCHMARK.json, the layer map in ``tracer.py``).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from functools import lru_cache
from math import comb

RANK = 4
DAHA_DMAX = 2
BQT_KMAX = 4
BQT_DMAX = 4
LIMIT_KMAX = 3
LIMIT_DMAX = 6
DPR_FLAVORS = (1, 2)
DPR_DMAX = 5
TOWER_DMAX = 5
TOWER_WORDS = {"dminus": (("dminus",),), "z1": (("z", 1),)}
WINDOW = 2
N_CAP = 8
JOBS = 2
DAHA_SHAPES = ((1, 1), (2,))

DAHA_IDS = (
    "daha_quadratic", "daha_braid", "daha_T_commute", "daha_TXT", "daha_TX_commute",
    "daha_X_commute", "daha_TYT", "daha_TY_commute", "daha_Y_commute", "daha_YTX",
    "daha_Y_Xchain",
)

# identity instances of each DAHA relation at rank 4
DAHA_INSTANCES = {
    "daha_quadratic": 3, "daha_braid": 2, "daha_T_commute": 1, "daha_TXT": 3,
    "daha_TX_commute": 6, "daha_X_commute": 6, "daha_TYT": 3, "daha_TY_commute": 6,
    "daha_Y_commute": 6, "daha_YTX": 1, "daha_Y_Xchain": 1,
}

# standard tableaux of the shape padded to rank 4: (2,1,1) and (2,2)
SYT_AT_RANK4 = {(1, 1): 3, (2,): 2}

# (flavor, vectors checked) of every report of one B_qt relation id, rank 4,
# flavors <= 4, degrees <= 4
BQT_REPORTS = {
    "bqt_quadratic": ((2, 15), (3, 10), (4, 3)),
    "bqt_braid": ((3, 5), (4, 2)),
    "bqt_T_commute": ((4, 1),),
    "bqt_TzT": ((2, 15), (3, 10), (4, 3)),
    "bqt_zT_commute": ((3, 10), (4, 6)),
    "bqt_z_commute": ((2, 15), (3, 15), (4, 6)),
    "bqt_dminus_sq": ((2, 15), (3, 5), (4, 1)),
    "bqt_dminus_T": ((3, 5), (4, 2)),
    "bqt_T1_dplus_sq": ((0, 70), (1, 35), (2, 15)),
    "bqt_dplus_T": ((2, 15), (3, 10)),
    "bqt_phi_dminus": ((2, 15), (3, 5)),
    "bqt_phi_dplus": ((1, 35), (2, 15)),
    "bqt_z_dminus": ((2, 15), (3, 10), (4, 3)),
    "bqt_dplus_z": ((1, 35), (2, 30), (3, 15)),
    "bqt_z1_commutator": ((1, 35), (2, 15), (3, 5)),
}
BQT_IDS = tuple(BQT_REPORTS)


# ---------------------------------------------------------------------------
# combinatorial oracles
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def partitions(m: int) -> int:
    """Number of partitions of m, by the coin-change recurrence over parts."""
    if m < 0:
        return 0
    ways = [1] + [0] * m
    for part in range(1, m + 1):
        for total in range(part, m + 1):
            ways[total] += ways[total - part]
    return ways[m]


def pair_count(k: int, d: int) -> int:
    """Pairs (alpha in N^k, partition mu) with |alpha| + |mu| = d - k.

    Compositions of s into k nonnegative parts number C(s+k-1, k-1), so the
    count is a convolution of those with the partition numbers.
    """
    budget = d - k
    if budget < 0:
        return 0
    if k == 0:
        return partitions(budget)
    return sum(comb(s + k - 1, k - 1) * partitions(budget - s) for s in range(budget + 1))


def daha_expected(shape, rid: str) -> int:
    basis = comb(RANK + DAHA_DMAX, DAHA_DMAX) * SYT_AT_RANK4[tuple(shape)]
    return DAHA_INSTANCES[rid] * basis


# ---------------------------------------------------------------------------
# output gates: each returns (ok, detail, signature); the signature is what
# a traced and an untraced run must agree on
# ---------------------------------------------------------------------------


def gate_reports(reports, expected) -> tuple[bool, str, tuple]:
    """Suite reports against expected ((relation_id, flavor, vectors), ...)."""
    got = tuple((r.relation_id, r.flavor, r.vectors_checked) for r in reports)
    sig = tuple((r.relation_id, r.flavor, r.status, r.vectors_checked) for r in reports)
    bad = [r.relation_id for r in reports if r.status != "pass"]
    if bad:
        return False, f"status not pass: {bad}", sig
    if got != tuple(expected):
        return False, f"reports {got} != expected {tuple(expected)}", sig
    return True, "", sig


def gate_cell(cell, expected_dim: int) -> tuple[bool, str, tuple]:
    sig = (cell.dim, cell.n_stabilized, len(cell.towers))
    if cell.dim != expected_dim:
        return False, f"dim {cell.dim} != oracle {expected_dim}", sig
    if cell.n_stabilized + WINDOW - 1 > N_CAP:
        return False, f"stabilized at {cell.n_stabilized} beyond rank cap {N_CAP}", sig
    if len(cell.towers) != cell.dim:
        return False, f"{len(cell.towers)} towers for dim {cell.dim}", sig
    return True, "", sig


def gate_dpr(result, d: int) -> tuple[bool, str, tuple]:
    dim, rank = sig = tuple(result)
    if dim != pair_count(0, d):
        return False, f"flavor-0 dim {dim} != oracle {pair_count(0, d)}", sig
    if rank != dim:
        return False, f"d_plus power rank {rank} != dim {dim}", sig
    return True, "", sig


def gate_tower(out, k_out: int, d_out: int, nonzero: bool) -> tuple[bool, str, tuple]:
    sig = (out.k, out.degree, out.lo, out.hi, out.is_zero())
    if (out.k, out.degree) != (k_out, d_out):
        return False, f"output flavor/degree {(out.k, out.degree)} != {(k_out, d_out)}", sig
    if nonzero and out.is_zero():
        return False, "invertible operator returned the zero tower", sig
    return True, "", sig


def gate_cli(result, shape) -> tuple[bool, str, tuple]:
    rc, doc = result
    reports = doc.get("reports", [])
    sig = (rc, tuple((r["relation_id"], r["status"], r["vectors_checked"]) for r in reports))
    if rc != 0 or doc.get("status") != "pass":
        return False, f"exit code {rc}, status {doc.get('status')}", sig
    got = tuple((r["relation_id"], r["status"], r["vectors_checked"]) for r in reports)
    want = tuple((rid, "pass", daha_expected(shape, rid)) for rid in DAHA_IDS)
    if got != want:
        return False, f"reports {got} != expected {want}", sig
    return True, "", sig


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    """Fixed phases of units; ``build`` is the set-up, ``call`` one unit."""

    name = ""
    modules: tuple[str, ...] = ("bqt",)

    def phases(self) -> list[list[tuple]]:
        raise NotImplementedError

    def ordered_units(self, seed: int) -> list[tuple]:
        rng = random.Random(seed)
        out = []
        for phase in self.phases():
            phase = list(phase)
            rng.shuffle(phase)
            out.extend(phase)
        return out

    @staticmethod
    def relation_of(unit: tuple) -> str | None:
        return unit[-1] if unit[0] in ("daha", "bqt") else None

    @staticmethod
    def vectors_of(result) -> int:
        return sum(r.vectors_checked for r in result) if isinstance(result, list) else 0


class DahaMurnaghan(Workload):
    name = "daha_murnaghan"

    def phases(self):
        return [[("daha", shape, rid) for shape in DAHA_SHAPES for rid in DAHA_IDS]]

    def build(self, bqt, traced: bool) -> dict:
        mk = bqt.relations.make_realization
        return {
            shape: mk({"module": "murnaghan", "shape": list(shape), "n": RANK})
            for shape in DAHA_SHAPES
        }

    def call(self, bqt, ctx, unit):
        _, shape, rid = unit
        return bqt.relations.check_daha_relations(ctx[shape], DAHA_DMAX, only=rid)

    def check(self, unit, result):
        _, shape, rid = unit
        return gate_reports(result, [(rid, None, daha_expected(shape, rid))])


class BqtPoly(Workload):
    name = "bqt_poly"

    def phases(self):
        return [[("bqt", rid) for rid in BQT_IDS]]

    def build(self, bqt, traced: bool) -> dict:
        return {"M": bqt.relations.make_realization({"module": "poly", "n": RANK})}

    def call(self, bqt, ctx, unit):
        return bqt.relations.check_bqt_relations(ctx["M"], BQT_KMAX, BQT_DMAX, only=unit[1])

    def check(self, unit, result):
        rid = unit[1]
        return gate_reports(result, [(rid, k, n) for k, n in BQT_REPORTS[rid]])


class LimitPol(Workload):
    """Cells, then d_plus power ranks, then tower words on the cells' towers.

    Tower words run on cells with d <= 5 only: the three d = 6 cells would
    add about 12 s of tower lifting and swamp the other phases.
    """

    name = "limit_pol"

    def phases(self):
        cells = [
            ("cell", k, d) for k in range(LIMIT_KMAX + 1) for d in range(LIMIT_DMAX + 1)
        ]
        dprs = [("dpr", k, d) for k in DPR_FLAVORS for d in range(DPR_DMAX + 1)]
        towers = [
            ("tower", k, d, op, j)
            for k in range(1, LIMIT_KMAX + 1)
            for d in range(k, TOWER_DMAX + 1)
            for op in TOWER_WORDS
            for j in range(pair_count(k, d))
        ]
        return [cells, dprs, towers]

    def build(self, bqt, traced: bool) -> dict:
        return {"seq": bqt.limits.CompatSeqSpec("polynomial"), "cells": {}}

    def call(self, bqt, ctx, unit):
        lim = bqt.limits
        seq = ctx["seq"]
        if unit[0] == "cell":
            _, k, d = unit
            cell = lim.limit_component(seq, k, d, window=WINDOW, n_cap=N_CAP)
            ctx["cells"][(k, d)] = cell
            return cell
        if unit[0] == "dpr":
            _, k, d = unit
            return lim.d_plus_power_rank(seq, k, d, window=WINDOW, n_cap=N_CAP)
        _, k, d, op, j = unit
        return lim.apply_tower_word(seq, ctx["cells"][(k, d)].towers[j], TOWER_WORDS[op])

    def check(self, unit, result):
        if unit[0] == "cell":
            _, k, d = unit
            return gate_cell(result, pair_count(k, d))
        if unit[0] == "dpr":
            return gate_dpr(result, unit[2])
        _, k, d, op, _ = unit
        if op == "dminus":
            return gate_tower(result, k - 1, d, nonzero=False)
        return gate_tower(result, k, d, nonzero=True)


class DahaMurnaghanJobs2(Workload):
    """The daha_murnaghan units, one CLI call per shape through the pool.

    The traced run leaves out --no-timing so the reports carry the workers'
    busy time.
    """

    name = "daha_murnaghan_jobs2"
    modules = ("bqt", "bqt.cli")

    def phases(self):
        return [[("cli", shape) for shape in DAHA_SHAPES]]

    def build(self, bqt, traced: bool) -> dict:
        return {"timing": traced}

    def call(self, bqt, ctx, unit):
        shape = unit[1]
        argv = [
            "check", "daha", "--module", "murnaghan",
            "--shape", ",".join(str(p) for p in shape),
            "--n", str(RANK), "--dmax", str(DAHA_DMAX), "--jobs", str(JOBS),
        ]
        if not ctx["timing"]:
            argv.append("--no-timing")
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = bqt.cli.main(argv)
        return rc, json.loads(out.getvalue())

    def check(self, unit, result):
        return gate_cli(result, unit[1])

    @staticmethod
    def vectors_of(result) -> int:
        return sum(r["vectors_checked"] for r in result[1]["reports"])


WORKLOADS = {
    w.name: w for w in (DahaMurnaghan(), BqtPoly(), LimitPol(), DahaMurnaghanJobs2())
}
