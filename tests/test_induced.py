"""Induced module actions, tower connectors, and the trivial-shape bridge."""

import pytest

from bqt.errors import ShapeMismatch
from bqt.induced import (
    IndVector,
    InducedRealization,
    pi_connect,
    trivial_to_poly,
    xi_truncate,
    xi_truncate_broken,
)
from bqt.polyrep import PolyRealization, PolyVector, apply_Y, monomials_of_degree
from bqt.scalars import ONE, parse_scalar


def test_Xi_raises_degree_and_commutes():
    M = InducedRealization((1,), 3)
    tau = M.tableaux[0]
    v = M.vector((0, 0, 0), tau)
    xv = M.apply_Xi(v, 1)
    assert xv == M.vector((1, 0, 0), tau)
    assert xv.degree() == v.degree() + 1
    a = M.apply_Xi(M.apply_Xi(v, 2), 3)
    b = M.apply_Xi(M.apply_Xi(v, 3), 2)
    assert a == b


def test_Ti_on_constant_key_hits_seed_only():
    M = InducedRealization((1,), 3)
    for tau in M.tableaux:
        v = M.vector((0, 0, 0), tau)
        out = M.apply_Ti(v, 1)
        expected = M.zero()
        for s, c in M.seed.apply_Ti(M.seed.basis_vector(tau), 1).coeffs.items():
            expected = expected.add(M.vector((0, 0, 0), s, c))
        assert out == expected


def test_Ti_divided_difference_term():
    M = InducedRealization((1,), 3)
    tau = M.tableaux[0]
    out = M.apply_Ti(M.vector((1, 0, 0), tau), 1)
    seed_part = M.seed.apply_Ti(M.seed.basis_vector(tau), 1)
    expected = M.zero()
    for s, c in seed_part.coeffs.items():
        expected = expected.add(M.vector((0, 1, 0), s, c))
    expected = expected.add(M.vector((1, 0, 0), tau, parse_scalar("1 - q")))
    assert out == expected


def test_trivial_shape_matches_polynomial_module():
    n = 3
    Mi = InducedRealization((), n)
    Mp = PolyRealization(n)
    (tau,) = Mi.tableaux
    for e in (e for d in range(4) for e in monomials_of_degree(n, d)):
        v = Mi.vector(e, tau)
        f = trivial_to_poly(v)
        for i in range(1, n):
            assert trivial_to_poly(Mi.apply_Ti(v, i)) == Mp.apply_Ti(f, i)
            assert trivial_to_poly(Mi.apply_Ti_inv(v, i)) == Mp.apply_Ti_inv(f, i)
        for i in range(1, n + 1):
            assert trivial_to_poly(Mi.apply_Xi(v, i)) == Mp.apply_Xi(f, i)
        assert trivial_to_poly(Mi.apply_pi(v)) == Mp.apply_pi(f)
        assert IndVector(n, (), {(e, tau): c for e, c in f.coeffs.items()}) == v


def test_pi_on_top_variable():
    M = InducedRealization((1,), 3)
    tau = M.tableaux[0]
    out = M.apply_pi(M.vector((0, 0, 1), tau))
    expected = M.zero()
    pi_seed = M.seed.apply_pi(M.seed.basis_vector(tau))
    for s, c in pi_seed.coeffs.items():
        expected = expected.add(M.vector((1, 0, 0), s, c * parse_scalar("t")))
    assert out == expected


def test_cross_relation_on_induced():
    # T_i^{-1} X_i T_i^{-1} = q^{-1} X_{i+1} on a basis sample
    M = InducedRealization((1,), 3)
    qinv = parse_scalar("1/q")
    for v in M.basis(1):
        for i in (1, 2):
            lhs = M.apply_Ti_inv(M.apply_Xi(M.apply_Ti_inv(v, i), i), i)
            rhs = M.apply_Xi(v, i + 1).scale(qinv)
            assert lhs == rhs


def test_Y_degree_zero_on_induced():
    M = InducedRealization((1,), 3)
    for v in M.basis(2):
        assert apply_Y(M, v, 1).degree() == 2


# -- connectors ---------------------------------------------------------------


def test_pi_connect_kills_top_exponent():
    M4 = InducedRealization((1,), 4)
    tau = M4.tableaux[0]
    assert pi_connect(M4.vector((0, 0, 0, 1), tau), (1,)).is_zero()


def test_pi_connect_restricts_surviving_tableaux():
    M4 = InducedRealization((1,), 4)
    M3 = InducedRealization((1,), 3)
    for tau in M4.tableaux:
        img = pi_connect(M4.vector((1, 0, 0, 0), tau), (1,))
        survives = tau.rows[0][2] == 4
        assert img.is_zero() != survives
        if survives:
            ((e, s),) = img.coeffs
            assert e == (1, 0, 0)
            assert s.size == 3


def test_pi_connect_is_AX_module_map():
    lam = (1,)
    M4 = InducedRealization(lam, 4)
    M3 = InducedRealization(lam, 3)
    for v in M4.basis(1):
        for i in (1, 2):
            assert pi_connect(M4.apply_Ti(v, i), lam) == M3.apply_Ti(pi_connect(v, lam), i)
        for i in (1, 2, 3):
            assert pi_connect(M4.apply_Xi(v, i), lam) == M3.apply_Xi(pi_connect(v, lam), i)
        assert pi_connect(M4.apply_Xi(v, 4), lam).is_zero()


def test_pi_connect_intertwines_pi():
    lam = (1,)
    M4 = InducedRealization(lam, 4)
    M3 = InducedRealization(lam, 3)
    for v in M4.basis(1):
        lhs = pi_connect(M4.apply_pi(M4.apply_Ti(v, 3)), lam)
        rhs = M3.apply_pi(pi_connect(v, lam))
        assert lhs == rhs


def test_xi_truncate_examples():
    f = PolyVector(3, {(0, 0, 1): ONE})
    assert xi_truncate(f).is_zero()
    g = PolyVector(3, {(1, 0, 0): ONE, (0, 1, 1): ONE})
    assert xi_truncate(g) == PolyVector(2, {(1, 0): ONE})


def test_xi_matches_pi_connect_for_trivial_shape():
    M3 = InducedRealization((), 3)
    (tau,) = M3.tableaux
    for e in (e for d in range(4) for e in monomials_of_degree(3, d)):
        v = M3.vector(e, tau)
        lhs = trivial_to_poly(pi_connect(v, ()))
        rhs = xi_truncate(trivial_to_poly(v))
        assert lhs == rhs


def test_broken_truncation_keeps_top_variable_terms():
    f = PolyVector(3, {(0, 0, 1): ONE})
    assert not xi_truncate_broken(f).is_zero()


def test_shape_mismatch_guard():
    M = InducedRealization((1,), 3)
    with pytest.raises(ShapeMismatch):
        pi_connect(M.basis(0)[0], (2,))
    with pytest.raises(ShapeMismatch):
        trivial_to_poly(M.basis(0)[0])


def test_ind_vector_json_round_trip():
    M = InducedRealization((1,), 3)
    tau = M.tableaux[1]
    v = M.vector((2, 0, 1), tau, parse_scalar("(q - t)/(1 + q)")).add(
        M.vector((0, 0, 0), M.tableaux[0])
    )
    assert IndVector.from_obj(v.to_obj()) == v
