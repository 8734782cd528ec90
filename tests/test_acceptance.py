"""Acceptance suite: one test per criterion, exact zero-residual verdicts.

Dimension criteria are judged against independent combinatorial oracles
(partition counting, direct pair enumeration) implemented here, not by the
engine under test.  Run with -v for one line per criterion; each test also
prints a summary line.
"""

import json
import time
from itertools import product
from pathlib import Path

from bqt.induced import trivial_to_poly
from bqt.limits import (
    CompatSeqSpec,
    Tower,
    apply_tower_word,
    d_plus_power_rank,
    dim_table,
    extend_tower,
    limit_component,
)
from bqt.limits import _word_rank_floor  # acceptance drives the same planner
from bqt.lspaces import LVector
from bqt.relations import (
    check_aux_identities,
    check_bqt_relations,
    check_bqt_relations_on_towers,
    check_compatibility,
    check_daha_relations,
    check_theta_eigenvalues,
    make_realization,
)
from bqt.tableaux import min_rank

GOLDEN_DIR = Path(__file__).parent / "goldens"

SHAPES_SMALL = [(), (1,), (2,), (1, 1)]
SHAPES_THETA = [(), (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)]


def announce(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {detail}")


def partition_count(d: int) -> int:
    def count(remaining: int, largest: int) -> int:
        if remaining == 0:
            return 1
        return sum(count(remaining - p, p) for p in range(min(remaining, largest), 0, -1))

    return count(d, d if d else 1)


def pair_count(k: int, d: int) -> int:
    budget = d - k
    if budget < 0:
        return 0
    total = 0
    for alpha in product(range(budget + 1), repeat=k):
        rest = budget - sum(alpha)
        if rest >= 0:
            total += partition_count(rest)
    return total


def test_criterion_1_daha_relation_suite():
    t0 = time.time()
    failures = []
    checked = 0
    for n in (2, 3, 4):
        reports = check_daha_relations(make_realization({"module": "poly", "n": n}), 4)
        checked += sum(r.vectors_checked for r in reports)
        failures += [r for r in reports if r.status != "pass"]
    for lam in SHAPES_SMALL:
        for n in range(max(1, min_rank(lam)), 6):
            M = make_realization({"module": "murnaghan", "shape": list(lam), "n": n})
            reports = check_daha_relations(M, 2)
            checked += sum(r.vectors_checked for r in reports)
            failures += [r for r in reports if r.status != "pass"]
    ok = not failures
    announce(1, ok, f"11 defining relations, {checked} vector checks, {time.time()-t0:.0f}s")
    assert ok, failures


def test_criterion_2_bqt_relation_suite():
    t0 = time.time()
    failures = []
    checked = 0
    for n in (1, 2, 3, 4):
        M = make_realization({"module": "poly", "n": n})
        reports = check_bqt_relations(M, n, 4)
        checked += sum(r.vectors_checked for r in reports)
        failures += [r for r in reports if r.status != "pass"]
    M = make_realization({"module": "murnaghan", "shape": [1], "n": 4})
    reports = check_bqt_relations(M, 3, 3)
    checked += sum(r.vectors_checked for r in reports)
    failures += [r for r in reports if r.status != "pass"]
    ok = not failures
    announce(2, ok, f"15 flavored relations, {checked} vector checks, {time.time()-t0:.0f}s")
    assert ok, failures


def test_criterion_3_auxiliary_identities():
    t0 = time.time()
    failures = []
    checked = 0
    for n in (2, 3, 4):
        M = make_realization({"module": "poly", "n": n})
        reports = check_aux_identities(M, 3)
        checked += sum(r.vectors_checked for r in reports)
        failures += [r for r in reports if r.status != "pass"]
    ok = not failures
    announce(3, ok, f"idempotent/intertwiner/closed-form identities, {checked} checks, {time.time()-t0:.0f}s")
    assert ok, failures


def test_criterion_4_seed_spectra():
    t0 = time.time()
    failures = []
    checked = 0
    for lam in SHAPES_THETA:
        for n in range(max(1, min_rank(lam)), 7):
            rep = check_theta_eigenvalues(lam, n)
            checked += rep.vectors_checked
            if rep.status != "pass":
                failures.append(rep)
    ok = not failures
    announce(4, ok, f"theta eigenchecks q^content, {checked} eigenchecks, {time.time()-t0:.0f}s")
    assert ok, failures


def test_criterion_5_compatibility_axioms():
    t0 = time.time()
    failures = []
    checked = 0
    plans = [(CompatSeqSpec("polynomial"), (1, 2, 3))]
    for lam in [(), (1,), (2,)]:
        seq = CompatSeqSpec("murnaghan", lam)
        plans.append((seq, tuple(seq.n_start + i for i in range(3))))
    for seq, ranks in plans:
        for n in ranks:
            reports = check_compatibility(seq, n, 3)
            checked += sum(r.vectors_checked for r in reports)
            failures += [r for r in reports if r.status != "pass"]
    ok = not failures
    announce(5, ok, f"tower axioms at three rank steps per sequence, {checked} checks, {time.time()-t0:.0f}s")
    assert ok, failures


def test_criterion_6_stable_limit_dimensions():
    t0 = time.time()
    seq = CompatSeqSpec("polynomial")
    flavor0 = [limit_component(seq, 0, d).dim for d in range(7)]
    expected0 = [partition_count(d) for d in range(7)]
    assert expected0 == [1, 1, 2, 3, 5, 7, 11]
    ok = flavor0 == expected0
    stab_ok = True
    pair_ok = True
    for k in (0, 1, 2):
        for d in range(k, 6):
            cell = limit_component(seq, k, d)  # window 2, cap 8 defaults
            if cell.dim != pair_count(k, d):
                pair_ok = False
            if cell.n_stabilized + 1 > 8:
                stab_ok = False
    ok = ok and pair_ok and stab_ok
    announce(
        6,
        ok,
        f"flavor-0 dims {flavor0} = partition numbers; pair-count dims for k <= 2, "
        f"d <= 5; stabilized within rank 8 ({time.time()-t0:.0f}s)",
    )
    assert ok


def _transportable_ops(k: int) -> list[tuple]:
    ops = [("dplus",)]
    if k >= 1:
        ops.append(("dminus",))
        ops.extend(("z", i) for i in range(1, k + 1))
        ops.extend(("T", i) for i in range(1, k))
    return ops


def test_criterion_7_murnaghan_consistency():
    t0 = time.time()
    pol = CompatSeqSpec("polynomial")
    mur0 = CompatSeqSpec("murnaghan", ())

    # dimension tables agree under the canonical identification
    dims_agree = True
    for k in range(0, 6):
        for d in range(0, 6 - k):
            if limit_component(pol, k, d).dim != limit_component(mur0, k, d).dim:
                dims_agree = False

    # operator actions agree tower-by-tower after transporting payloads
    ops_agree = True
    for k in (0, 1, 2):
        for d in range(k, 6 - k):
            cell = limit_component(mur0, k, d)
            for tower in cell.towers:
                for op in _transportable_ops(k):
                    floor = _word_rank_floor((op,), k, 1)
                    base = tower
                    if base.lo < floor:
                        base = extend_tower(mur0, base, floor, floor + (base.hi - base.lo))
                    moved = apply_tower_word(mur0, base, (op,))
                    transported = {
                        n: LVector(base.k, trivial_to_poly(lv.payload))
                        for n, lv in base.components.items()
                    }
                    pol_tower = Tower(base.k, base.degree, transported)
                    moved_pol = apply_tower_word(pol, pol_tower, (op,))
                    expected = {
                        n: LVector(moved.k, trivial_to_poly(lv.payload))
                        for n, lv in moved.components.items()
                    }
                    if Tower(moved.k, moved.degree, expected) != moved_pol:
                        ops_agree = False

    # nonzeroness pattern and raising-power injectivity for one- and two-box shapes
    pattern_ok = True
    rank_ok = True
    for lam in [(1,), (2,)]:
        seq = CompatSeqSpec("murnaghan", lam)
        table = dim_table(seq, 2, 3)
        for cell in table["cells"]:
            k, d, dim = cell["k"], cell["d"], cell["dim"]
            if dim is None:
                pattern_ok = False
                continue
            expect_nonzero = d >= max(k, sum(lam))
            if (dim > 0) != expect_nonzero:
                pattern_ok = False
        for k in (1, 2):
            for d in range(0, 4):
                dim, rank = d_plus_power_rank(seq, k, d)
                if rank != dim:
                    rank_ok = False

    ok = dims_agree and ops_agree and pattern_ok and rank_ok
    announce(
        7,
        ok,
        "empty-shape tower matches the polynomial tower (dims and operators); "
        f"one/two-box tables nonzero for d >= max(k, |shape|) with injective raising powers "
        f"({time.time()-t0:.0f}s)",
    )
    assert ok


def test_criterion_8_tower_level_relations():
    t0 = time.time()
    failures = []
    checked = 0
    for seq in (CompatSeqSpec("polynomial"), CompatSeqSpec("murnaghan", (1,))):
        reports = check_bqt_relations_on_towers(seq, 2, 3)
        checked += sum(r.vectors_checked for r in reports)
        failures += [r for r in reports if r.status != "pass"]
    ok = not failures
    announce(8, ok, f"15 relations on stable-limit towers, {checked} tower checks, {time.time()-t0:.0f}s")
    assert ok, failures


def test_criterion_9_negative_controls():
    t0 = time.time()
    M = make_realization({"module": "poly", "n": 2, "demazure_coefficient": "q-1"})
    (quad,) = check_daha_relations(M, 2, only="daha_quadratic")
    flipped_detected = quad.status == "fail" and quad.counterexample is not None
    counterexample_is_x1 = flipped_detected and quad.counterexample["vector"] == "x1"

    seq = CompatSeqSpec("polynomial")
    reports = check_compatibility(seq, 2, 2, broken_connector=True)
    by_id = {r.relation_id: r for r in reports}
    broken = by_id["compat_kills_top_X"]
    connector_detected = broken.status == "fail" and broken.counterexample is not None

    ok = flipped_detected and counterexample_is_x1 and connector_detected
    announce(
        9,
        ok,
        "sign-flipped action fails the quadratic relation at x1; leaky truncation "
        f"fails the top-variable axiom ({time.time()-t0:.0f}s)",
    )
    assert ok


def test_murnaghan_one_box_table_golden():
    """Regression oracle for the one-box dimension table; a missing golden fails."""
    path = GOLDEN_DIR / "murnaghan_1_table.json"
    assert path.exists(), f"golden {path} is missing"
    table = dim_table(CompatSeqSpec("murnaghan", (1,)), 2, 3)
    golden = json.loads(path.read_text())
    assert table == golden
