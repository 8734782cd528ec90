"""Tableau enumeration, seed module action, connectors, and eigenvalues."""

from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bqt.errors import EntryOutOfRange, RankTooSmall, UnsupportedOperation
from bqt.polyrep import apply_epsilon, apply_word
from bqt.scalars import ONE, Q, ModPField, parse_scalar
from bqt.tableaux import (
    SeedRealization,
    StandardTableau,
    enumerate_syt,
    kappa_connect,
    min_rank,
    pad_shape,
    theta_scalar,
)


def brute_force_syt(shape):
    """Independent enumeration: filter all fillings by row-major placement."""
    size = sum(shape)
    cells = [(r, c) for r, width in enumerate(shape) for c in range(width)]
    found = []
    for perm in permutations(range(1, size + 1)):
        grid = {}
        for cell, val in zip(cells, perm):
            grid[cell] = val
        ok = True
        for (r, c), v in grid.items():
            if c + 1 < shape[r] and grid[(r, c + 1)] <= v:
                ok = False
                break
            if r + 1 < len(shape) and c < shape[r + 1] and grid[(r + 1, c)] <= v:
                ok = False
                break
        if ok:
            rows = tuple(tuple(grid[(r, c)] for c in range(shape[r])) for r in range(len(shape)))
            found.append(rows)
    return sorted(set(found))


# -- shapes and enumeration ---------------------------------------------------


def test_pad_shape_examples():
    assert pad_shape((), 3) == (3,)
    assert pad_shape((1,), 3) == (2, 1)
    with pytest.raises(RankTooSmall):
        pad_shape((2,), 3)
    assert min_rank((2,)) == 4


@pytest.mark.parametrize(
    "shape,count",
    [((3,), 1), ((2, 1), 2), ((2, 2), 2), ((3, 1), 3), ((2, 1, 1), 3), ((4, 2), 9)],
)
def test_syt_counts(shape, count):
    tabs = enumerate_syt(shape)
    assert len(tabs) == count
    assert [t.rows for t in tabs] == brute_force_syt(shape)


def test_syt_single_row():
    (t,) = enumerate_syt((4,))
    assert t.rows == ((1, 2, 3, 4),)


def test_contents():
    t = StandardTableau([[1, 2], [3]])
    assert t.content(1) == 0 and t.content(2) == 1 and t.content(3) == -1
    single = enumerate_syt((5,))[0]
    assert [single.content(i) for i in range(1, 6)] == [0, 1, 2, 3, 4]
    with pytest.raises(EntryOutOfRange):
        t.content(4)


@given(st.sampled_from([(2, 1), (3, 1), (2, 2), (3, 2), (2, 1, 1)]))
@settings(max_examples=10, deadline=None)
def test_content_multiset_matches_shape(shape):
    boxes = [(c + 1) - (r + 1) for r, width in enumerate(shape) for c in range(width)]
    for t in enumerate_syt(shape):
        assert sorted(t.content(i) for i in range(1, sum(shape) + 1)) == sorted(boxes)


# -- seed action --------------------------------------------------------------


def test_single_row_seed_is_trivial():
    M = SeedRealization((), 4)
    (tau,) = M.tableaux
    e = M.basis_vector(tau)
    for i in (1, 2, 3):
        assert M.apply_Ti(e, i) == e
        assert M.apply_Ti_inv(e, i) == e
    assert M.apply_pi(e) == e


def test_two_one_cover_case():
    M = SeedRealization((1,), 3)
    tau1 = StandardTableau([[1, 2], [3]])
    tau2 = StandardTableau([[1, 3], [2]])
    out = M.apply_Ti(M.basis_vector(tau1), 2)
    coeff = parse_scalar("((1 - q)*q)/(q - 1/q)")
    assert out == M.basis_vector(tau2).add(M.basis_vector(tau1).scale(coeff))


def test_column_and_row_cases_inside_2_2():
    M = SeedRealization((2,), 4)  # padded shape (2, 2)
    tau = StandardTableau([[1, 2], [3, 4]])
    # 3, 4 share a row; 1, 3 appear in T_2's non-trivial case
    e = M.basis_vector(tau)
    assert M.apply_Ti(e, 3) == e
    other = StandardTableau([[1, 3], [2, 4]])
    assert M.apply_Ti(M.basis_vector(other), 1) == M.basis_vector(other).scale(-Q)
    mixed = M.apply_Ti(e, 2)
    assert set(mixed.coeffs) == {tau, other}


def test_quadratic_braid_on_seeds():
    for lam, n in [((), 3), ((1,), 3), ((1,), 4), ((2,), 4), ((1, 1), 4)]:
        M = SeedRealization(lam, n)
        qm1 = Q - ONE
        for e in M.basis(0):
            for i in range(1, n):
                ti = M.apply_Ti(e, i)
                lhs = M.apply_Ti(ti, i).add(ti.scale(qm1))
                assert lhs == e.scale(Q)
                assert M.apply_Ti(M.apply_Ti_inv(e, i), i) == e
            for i in range(1, n - 1):
                aba = M.apply_Ti(M.apply_Ti(M.apply_Ti(e, i), i + 1), i)
                bab = M.apply_Ti(M.apply_Ti(M.apply_Ti(e, i + 1), i), i + 1)
                assert aba == bab


def test_seed_pi_matches_word_and_trivial_cases():
    M = SeedRealization((1,), 3)
    for e in M.basis(0):
        assert M.apply_pi(e) == apply_word(M, e, (("Tinv", 1), ("Tinv", 2)))
    M1 = SeedRealization((), 1)
    (tau,) = M1.tableaux
    assert M1.apply_pi(M1.basis_vector(tau)) == M1.basis_vector(tau)


def test_seed_has_no_X():
    M = SeedRealization((1,), 3)
    with pytest.raises(UnsupportedOperation):
        M.apply_Xi(M.basis(0)[0], 1)


# -- connectors ---------------------------------------------------------------


def test_kappa_trivial_shape():
    M4 = SeedRealization((), 4)
    M3 = SeedRealization((), 3)
    (t4,) = M4.tableaux
    (t3,) = M3.tableaux
    assert kappa_connect(M4.basis_vector(t4), ()) == M3.basis_vector(t3)


def test_kappa_kills_and_keeps():
    M = SeedRealization((1,), 4)  # padded shape (3, 1) at rank 4
    kept, killed = [], []
    for t in M.tableaux:
        img = kappa_connect(M.basis_vector(t), (1,))
        if img.is_zero():
            killed.append(t)
        else:
            kept.append((t, img))
    # 4 must land at box (1, 3) to survive
    assert all(t.rows[0][2] == 4 for t, _ in kept)
    assert all(t.rows[0][2] != 4 for t in killed)
    assert len(kept) == 2 and len(killed) == 1
    for t, img in kept:
        (tau3,) = img.coeffs
        assert tau3.rows == tuple(tuple(v for v in row if v != 4) for row in t.rows if any(v != 4 for v in row))


def test_kappa_zero_and_module_map():
    lam = (1,)
    M4 = SeedRealization(lam, 4)
    assert kappa_connect(M4.zero(), lam).is_zero()
    M3 = SeedRealization(lam, 3)
    for e in M4.basis(0):
        for i in (1, 2):
            lhs = kappa_connect(M4.apply_Ti(e, i), lam)
            rhs = M3.apply_Ti(kappa_connect(e, lam), i)
            assert lhs == rhs


def test_kappa_pre_compatibility():
    # kappa pi T_n = pi kappa on every basis vector
    for lam in [(), (1,), (2,)]:
        n = max(min_rank(lam), 2)
        Mhi = SeedRealization(lam, n + 1)
        Mlo = SeedRealization(lam, n)
        for e in Mhi.basis(0):
            lhs = kappa_connect(Mhi.apply_pi(Mhi.apply_Ti(e, n)), lam)
            rhs = Mlo.apply_pi(kappa_connect(e, lam))
            assert lhs == rhs


# -- theta eigenvalues --------------------------------------------------------


def test_theta_single_row():
    M = SeedRealization((), 4)
    (tau,) = M.tableaux
    for i in range(1, 5):
        assert theta_scalar(tau, i, 4, realization=M) == parse_scalar(f"q^{i-1}")


def test_theta_two_one():
    tau1 = StandardTableau([[1, 2], [3]])
    assert theta_scalar(tau1, 3, 3) == parse_scalar("1/q")
    assert theta_scalar(tau1, 1, 3) == ONE
    assert theta_scalar(tau1, 2, 3) == Q


def test_theta_matches_contents_everywhere():
    for lam, n in [((1,), 4), ((2,), 4), ((1, 1), 4)]:
        M = SeedRealization(lam, n)
        for tau in M.tableaux:
            for i in range(1, n + 1):
                expected_exp = tau.content(i)
                got = theta_scalar(tau, i, n, realization=M)
                assert got == parse_scalar(f"q^{expected_exp}" if expected_exp >= 0 else f"1/q^{-expected_exp}")


def test_theta_scalar_is_in_the_realization_ring():
    F = ModPField(2**31 - 1, 5, 7)
    M = SeedRealization((1,), 4, F)
    for tau in M.tableaux:
        for i in range(1, 5):
            assert theta_scalar(tau, i, 4, realization=M) == F.q_power(tau.content(i))


def test_theta_rejects_non_eigenvector_setup():
    # mixing a tableau with a realization of the wrong shape must fail loudly
    M = SeedRealization((1,), 3)
    tau = enumerate_syt((4,))[0]
    with pytest.raises(Exception):
        theta_scalar(tau, 1, 4, realization=M)


# -- epsilon interacts with seeds --------------------------------------------


def test_epsilon_on_seed_is_projection():
    M = SeedRealization((1,), 3)
    for e in M.basis(0):
        s = apply_epsilon(M, e, 0)
        assert apply_epsilon(M, s, 0) == s
        for i in (1, 2):
            assert M.apply_Ti(s, i) == s
