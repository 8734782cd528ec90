"""The memo tables of the factored base, and two faults in them that the
suites must catch.

Each table of bqt.factored memoizes a pure operation on factorizations
(c, a, b, ((m, e), ...)); here every table lookup is compared with the
unmemoized operation, on random factorizations and on the keys a DAHA pass
leaves behind.
"""

from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bqt.errors import ExactDivisionError
from bqt.factored import (
    CANCEL,
    LCM,
    PRODUCT,
    QUOTIENT,
    fac_cancel,
    fac_div,
    fac_gcd,
    fac_lcm,
    fac_mul,
    lcm_fold,
)
from bqt.limits import CompatSeqSpec
from bqt.relations import (
    check_aux_identities,
    check_bqt_relations,
    check_bqt_relations_on_towers,
    check_daha_relations,
    make_realization,
)


def all_passed(reports) -> bool:
    return all(r.status == "pass" for r in reports)


@st.composite
def facs(draw, positive=False):
    """A factorization: content, q- and t-exponents, Phi_m exponents (m <= 8)."""
    c = draw(st.integers(1 if positive else -6, 6).filter(bool))
    ms = draw(st.lists(st.integers(1, 8), max_size=3, unique=True))
    exps = tuple((m, draw(st.integers(1, 3))) for m in sorted(ms))
    return (c, draw(st.integers(0, 3)), draw(st.integers(0, 3)), exps)


@given(facs(), facs())
@settings(max_examples=200, deadline=None)
def test_tables_equal_the_unmemoized_operations(f, g):
    # twice each: the first lookup may fill the entry, the second reads it
    for _ in range(2):
        assert PRODUCT[f, g] == fac_mul(f, g)
        assert LCM[f, g] == fac_lcm([f, g])
        assert CANCEL[f, g] == fac_cancel(f, g)
        # the exact quotient of a product by either factor
        assert QUOTIENT[fac_mul(f, g), g] == f
        assert QUOTIENT[fac_mul(f, g), f] == g
    d = fac_gcd(f, g)
    if CANCEL[f, g] is None:
        assert d == (1, 0, 0, ())
    else:
        assert CANCEL[f, g] == (fac_div(f, d), fac_div(g, d))
    try:
        expected = fac_div(f, g)
    except ExactDivisionError:
        for _ in range(2):
            with pytest.raises(ExactDivisionError):
                QUOTIENT[f, g]
        assert (f, g) not in QUOTIENT
    else:
        assert QUOTIENT[f, g] == expected


@given(st.lists(facs(positive=True), min_size=1, max_size=5), st.data())
@settings(max_examples=200, deadline=None)
def test_lcm_fold_equals_fac_lcm_over_the_group(group, data):
    # repeats, as a lincomb group has them, take the skip for equal factors
    group = data.draw(st.permutations(group + group[: data.draw(st.integers(0, len(group)))]))
    assert lcm_fold(group) == fac_lcm(group)


def is_factorization(f) -> bool:
    if not (isinstance(f, tuple) and len(f) == 4):
        return False
    c, a, b, exps = f
    ms = [m for m, _ in exps]
    return (
        all(type(x) is int for x in (c, a, b)) and c != 0 and a >= 0 and b >= 0
        and isinstance(exps, tuple) and all(len(me) == 2 for me in exps)
        and all(type(m) is int and type(e) is int and e > 0 for m, e in exps)
        and ms == sorted(set(ms)) and all(m > 0 for m in ms)
    )


def test_table_keys_are_factorizations_after_a_murnaghan_pass():
    M = make_realization({"module": "murnaghan", "shape": [1], "n": 4})
    assert all_passed(check_daha_relations(M, 2))
    tables = (PRODUCT, LCM, QUOTIENT, CANCEL)
    assert all(tables)  # the pass fills every table
    for table in tables:
        for key in list(table):
            assert len(key) == 2 and all(map(is_factorization, key)), key
            assert table[key] == table.fn(*key)


# -- faults in the tables, each caught by an existing check -----------------


class _Uncancelled(dict):
    """A cancel table that hands back the pair it was asked to cancel."""

    def __getitem__(self, key):
        return key


MUTANTS = {
    # the lcm of a lincomb group without the last pair's denominator
    "lcm_fold_drops_the_last_factor": ("bqt.scalars.lcm_fold", lambda facs: fac_lcm(facs[:-1])),
    # QtScalar.__mul__ and fraction leave common factored factors in place
    "cancel_table_returns_the_pair": ("bqt.scalars.CANCEL", _Uncancelled()),
}


@pytest.mark.parametrize("mutant", ["lcm_fold_drops_the_last_factor"])
def test_daha_suite_on_murnaghan_1_rank_3_kills_the_table_mutant(mutant):
    desc = {"module": "murnaghan", "shape": [1], "n": 3}
    assert all_passed(check_daha_relations(make_realization(desc), 2))
    target, fault = MUTANTS[mutant]
    with patch(target, fault):
        assert not all_passed(check_daha_relations(make_realization(desc), 2))


def failing(reports) -> set:
    return {r.relation_id for r in reports if r.status != "pass"}


def test_cancel_table_mutant_killed_by_the_bqt_suite():
    # An uncancelled pair is the right value in a non-canonical form.  The
    # DAHA suite and the flavored bqt suite decide each case by whether
    # lhs - rhs sums to zero, and a zero sum is the same whatever form its
    # terms have, so under this mutant their fused verdicts stay correct:
    # the mutant is equivalent there.  Checks that compare two canonical
    # forms still kill it: the bqt suite on towers (whose tower lifts and
    # compatibility checks compare vectors), the aux closed forms, and
    # phi's per-key check of its commutator against its closed form, first
    # met here at degree 3.
    poly2, poly3 = {"module": "poly", "n": 2}, {"module": "poly", "n": 3}
    murnaghan = {"module": "murnaghan", "shape": [1], "n": 3}
    assert all_passed(check_bqt_relations_on_towers(CompatSeqSpec("polynomial"), 1, 2))
    assert all_passed(check_aux_identities(make_realization(poly3), 2))
    assert all_passed(check_bqt_relations(make_realization(poly3), 3, 3))
    with patch(*MUTANTS["cancel_table_returns_the_pair"]):
        # a new sequence: its realizations build their tables under the mutant
        assert failing(check_bqt_relations_on_towers(CompatSeqSpec("polynomial"), 1, 2)) == {
            "bqt_T1_dplus_sq", "bqt_phi_dplus", "bqt_dplus_z", "bqt_z1_commutator",
        }
        assert failing(check_aux_identities(make_realization(poly3), 2)) == {
            "aux_phi_closed_form", "aux_dminus_closed_form",
        }
        (phi,) = [r for r in check_bqt_relations(make_realization(poly3), 3, 3)
                  if r.status != "pass"]
        assert (phi.relation_id, phi.counterexample["error"]) == (
            "bqt_phi_dplus", "InternalCheckFailed",
        )
        assert phi.counterexample["degree"] == 3
        # equivalent for the fused suites
        assert all_passed(check_bqt_relations(make_realization(poly2), 2, 2))
        assert all_passed(check_bqt_relations(make_realization(poly3), 2, 2))
        assert all_passed(check_daha_relations(make_realization(murnaghan), 2))
