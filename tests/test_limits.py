"""Stable limits: stabilized dimensions, towers, and componentwise operators."""

from itertools import product

import pytest

from bqt.errors import InternalCheckFailed, NoStabilization, UnsupportedOperation
from bqt.limits import (
    CompatSeqSpec,
    Tower,
    _word_rank_floor,
    apply_tower_word,
    d_plus_power_rank,
    dim_table,
    extend_tower,
    limit_component,
)
from bqt.lspaces import FLAVORED_ALPHABET, LVector
from bqt.polyrep import WORD_ALPHABET, PolyRealization, PolyVector, apply_word
from bqt.scalars import ONE


def partition_count(d: int, max_parts: int | None = None) -> int:
    """Independent oracle: number of partitions of d (optionally bounded parts)."""

    def count(remaining: int, largest: int, parts_left) -> int:
        if remaining == 0:
            return 1
        if parts_left is not None and parts_left == 0:
            return 0
        total = 0
        for part in range(min(remaining, largest), 0, -1):
            total += count(
                remaining - part, part, None if parts_left is None else parts_left - 1
            )
        return total

    return count(d, d if d else 1, max_parts)


def pair_count(k: int, d: int) -> int:
    """Oracle: pairs (alpha in Z_{>=0}^k, partition mu) with k+|alpha|+|mu| = d."""
    budget = d - k
    if budget < 0:
        return 0
    total = 0
    for alpha in product(range(budget + 1), repeat=k):
        rest = budget - sum(alpha)
        if rest >= 0:
            total += partition_count(rest)
    return total


def test_polynomial_flavor0_dims_match_partition_numbers():
    seq = CompatSeqSpec("polynomial")
    for d in range(5):
        cell = limit_component(seq, 0, d)
        assert cell.dim == partition_count(d)
        for tower in cell.towers:
            tower.check_compatible(seq)


def test_polynomial_flavor_k_dims_match_pair_counts():
    seq = CompatSeqSpec("polynomial")
    for k in (1, 2):
        for d in range(k, 4):
            assert limit_component(seq, k, d).dim == pair_count(k, d)


def test_degree_below_flavor_is_zero():
    seq = CompatSeqSpec("polynomial")
    cell = limit_component(seq, 2, 1)
    assert cell.dim == 0 and cell.towers == []


def test_no_stabilization_is_reported():
    seq = CompatSeqSpec("polynomial")
    with pytest.raises(NoStabilization):
        limit_component(seq, 0, 4, n_cap=3)
    table = dim_table(seq, 0, 4, n_cap=3)
    unresolved = [c for c in table["cells"] if c["dim"] is None]
    assert unresolved and "unresolved" in unresolved[-1]


def test_murnaghan_empty_table_matches_polynomial():
    pol = dim_table(CompatSeqSpec("polynomial"), 2, 3)
    mur = dim_table(CompatSeqSpec("murnaghan", ()), 2, 3)
    assert [c["dim"] for c in pol["cells"]] == [c["dim"] for c in mur["cells"]]


def test_murnaghan_one_box_cells():
    seq = CompatSeqSpec("murnaghan", (1,))
    # degree 0 dies under full symmetrization: the seed is a nontrivial
    # irreducible, so the flavor-0 degree-0 piece is exactly zero
    assert limit_component(seq, 0, 0).dim == 0
    for k in (0, 1):
        for d in range(max(k, 1), 3):
            assert limit_component(seq, k, d).dim > 0


def test_d_plus_acts_on_towers():
    seq = CompatSeqSpec("polynomial")
    cell = limit_component(seq, 0, 0)
    (tower,) = cell.towers
    out = apply_tower_word(seq, tower, (("dplus",),))
    assert out.k == 1 and out.degree == 1
    for n in range(out.lo, out.hi + 1):
        expected = PolyVector.monomial(n, (1,) + (0,) * (n - 1), ONE)
        assert out.component(n).payload == expected


def test_z_fixes_the_x1_tower():
    seq = CompatSeqSpec("polynomial")
    cell = limit_component(seq, 0, 0)
    (tower,) = cell.towers
    up = apply_tower_word(seq, tower, (("dplus",),))
    z = apply_tower_word(seq, up, (("z", 1),))
    assert z == up


def test_T_commutes_with_window_restriction():
    seq = CompatSeqSpec("polynomial")
    cell = limit_component(seq, 2, 3)
    for tower in cell.towers:
        out = apply_tower_word(seq, tower, (("T", 1),))
        out.check_compatible(seq)
        narrowed = extend_tower(seq, out, out.lo + 1, out.hi)
        direct = apply_tower_word(
            seq, extend_tower(seq, tower, tower.lo + 1, tower.hi), (("T", 1),)
        )
        assert narrowed == direct


def test_extend_tower_lifts_consistently():
    seq = CompatSeqSpec("polynomial")
    cell = limit_component(seq, 1, 2)
    for tower in cell.towers:
        taller = extend_tower(seq, tower, tower.lo, tower.hi + 2)
        taller.check_compatible(seq)
        assert taller.component(tower.hi) == tower.component(tower.hi)


def test_extend_tower_rejects_a_window_below_the_tower():
    seq = CompatSeqSpec("polynomial")
    (tower,) = limit_component(seq, 0, 0).towers
    with pytest.raises(ValueError, match="below the tower"):
        extend_tower(seq, tower, tower.lo - 1, tower.hi)


def test_tower_word_requires_room_and_advances():
    seq = CompatSeqSpec("polynomial")
    cell = limit_component(seq, 0, 0, n_cap=4)
    (tower,) = cell.towers
    out = apply_tower_word(seq, tower, (("dplus",), ("dplus",), ("dplus",)))
    assert out.k == 3 and out.degree == 3
    assert out.lo >= 3
    out.check_compatible(seq)


D, PHI, DM, Z1, T1 = ("dplus",), ("phi",), ("dminus",), ("z", 1), ("T", 1)
FLOOR_WORDS = [(D,), (PHI,), (DM,), (DM, D), (D, DM), (D, D, D), (PHI, D), (Z1, D, DM), (T1,)]


@pytest.mark.parametrize(
    "k, floors",
    [
        (0, [1, 1, 1, 1, 1, 3, 2, 1, 1]),
        (1, [2, 2, 1, 2, 1, 4, 3, 1, 1]),
        (2, [3, 3, 2, 3, 2, 5, 4, 2, 2]),
    ],
)
def test_word_rank_floor_values(k, floors):
    # frozen from the planner that tested each tag by hand
    assert [_word_rank_floor(word, k, 1) for word in FLOOR_WORDS] == floors


def test_unknown_tag_raises_unsupported_operation():
    M = PolyRealization(2)
    seq = CompatSeqSpec("polynomial")
    (tower,) = limit_component(seq, 0, 0).towers
    with pytest.raises(UnsupportedOperation):
        apply_word(M, M.one(), (("Q", 1),), WORD_ALPHABET)
    with pytest.raises(UnsupportedOperation):
        apply_word(M, LVector(0, M.one()), (("X", 1),), FLAVORED_ALPHABET)
    with pytest.raises(UnsupportedOperation):
        apply_tower_word(seq, tower, (("dplus",), ("Q",)))
    with pytest.raises(UnsupportedOperation):
        _word_rank_floor((("Q",), ("dplus",)), 0, 1)


def test_compatibility_checker_detects_corruption():
    seq = CompatSeqSpec("polynomial")
    cell = limit_component(seq, 1, 1)
    (tower,) = cell.towers
    bad = dict(tower.components)
    bad[tower.hi] = bad[tower.hi].scale(ONE + ONE)
    with pytest.raises(InternalCheckFailed):
        Tower(tower.k, tower.degree, bad).check_compatible(seq)


def test_flavor0_dims_weakly_increase_in_degree():
    seq = CompatSeqSpec("polynomial")
    dims = [limit_component(seq, 0, d).dim for d in range(6)]
    assert all(dims[i] <= dims[i + 1] for i in range(len(dims) - 1))


def test_d_plus_power_injective_on_flavor0():
    for seq in (CompatSeqSpec("murnaghan", (1,)), CompatSeqSpec("polynomial")):
        for k in (1, 2):
            for d in (0, 1, 2):
                dim, rank = d_plus_power_rank(seq, k, d)
                assert rank == dim
