"""Flavored spaces: spanning sets, exact bases, and the operator family."""

import pytest

from bqt.errors import (
    DegreeTooSmall,
    FlavorAtMax,
    FlavorAtMin,
    FlavorOutOfRange,
    InconsistentFlavors,
)
from bqt.induced import InducedRealization, trivial_to_poly
from bqt.linalg import RowBasis, solve_combination
from bqt.lspaces import (
    FLAVORED_ALPHABET,
    LVector,
    certify_flavor_membership,
    d_minus,
    d_plus,
    extract_basis,
    lk_spanning_set,
    phi_action,
    spanning_reduction_agrees,
    t_action,
    z_action,
)
from bqt.polyrep import PolyRealization, PolyVector, apply_word
from bqt.scalars import ONE, parse_scalar


def pv(n, *exps, coeff="1"):
    return PolyVector.monomial(n, tuple(exps), parse_scalar(coeff))


# -- linear algebra ------------------------------------------------------------


def test_row_basis_rank_and_membership():
    rows = RowBasis()
    v1 = {(1, 0): ONE, (0, 1): parse_scalar("q")}
    v2 = {(1, 0): parse_scalar("2")}
    assert rows.insert(v1) and rows.insert(v2)
    assert not rows.insert({(1, 0): parse_scalar("q - 1"), (0, 1): parse_scalar("q^2 - q")})
    assert rows.rank == 2
    assert rows.contains({(0, 1): ONE})


def test_solve_combination_exact():
    cols = [
        {(0,): ONE, (1,): parse_scalar("q")},
        {(1,): parse_scalar("t")},
        {(0,): parse_scalar("2"), (1,): parse_scalar("2*q")},  # dependent
    ]
    target = {(0,): parse_scalar("1 + q"), (1,): parse_scalar("q + q^2 + t")}
    x = solve_combination(cols, target)
    assert x is not None
    got: dict = {}
    for coeff, col in zip(x, cols):
        if coeff is None:
            continue
        for key, val in col.items():
            cur = got.get(key)
            s = coeff * val if cur is None else cur + coeff * val
            got[key] = s
    got = {k: v for k, v in got.items() if not v.is_zero()}
    assert got == target
    assert solve_combination(cols[:2], {(2,): ONE}) is None


# -- spanning sets -------------------------------------------------------------


def test_spanning_flavor0_degree0():
    M = PolyRealization(2)
    span = lk_spanning_set(M, 0, 0)
    assert len(span) == 1
    assert span[0].payload == M.one()


def test_spanning_k1_d2_dimension():
    M = PolyRealization(2)
    gb = extract_basis(lk_spanning_set(M, 1, 2))
    assert gb.dim == 2


def test_spanning_k0_d2_dimension():
    M = PolyRealization(2)
    gb = extract_basis(lk_spanning_set(M, 0, 2))
    assert gb.dim == 2


def test_spanning_errors():
    M = PolyRealization(2)
    with pytest.raises(DegreeTooSmall):
        lk_spanning_set(M, 1, 0)
    with pytest.raises(FlavorOutOfRange):
        lk_spanning_set(M, 3, 3)


def test_extract_basis_degenerate_cases():
    M = PolyRealization(2)
    v = LVector(1, pv(2, 1, 0))
    gb = extract_basis([v, v.scale(parse_scalar("2"))])
    assert gb.dim == 1
    assert extract_basis([]).dim == 0
    with pytest.raises(InconsistentFlavors):
        extract_basis([v, LVector(0, pv(2, 0, 0))])


def test_membership_certification():
    M = PolyRealization(3)
    for lv in lk_spanning_set(M, 1, 2):
        assert certify_flavor_membership(M, lv)
    # x_1 x_2 is tail-symmetric for k = 2 but lives in flavor 2, not flavor 1 span?
    # actually x1x2 = d_plus(x1) is in L_2; for flavor 1 degree 2 it is NOT tail-symmetric
    bad = LVector(1, pv(3, 0, 1, 0))
    assert not certify_flavor_membership(M, bad)
    # membership is decided per degree: a sum of members of two graded pieces
    # is a member, and a tail-symmetric non-member in one piece spoils the sum
    a, b = lk_spanning_set(M, 1, 2)[0], lk_spanning_set(M, 1, 3)[0]
    assert certify_flavor_membership(M, a.add(b))
    x2_plus_x3 = LVector(1, pv(3, 0, 1, 0).add(pv(3, 0, 0, 1)))
    assert not certify_flavor_membership(M, a.add(x2_plus_x3))


def test_tail_sorted_reduction_spans_everything():
    for M in (PolyRealization(3), PolyRealization(4)):
        for k in range(0, 3):
            for d in range(k, k + 3):
                assert spanning_reduction_agrees(M, k, d)
    Mi = InducedRealization((1,), 3)
    for k in range(0, 3):
        for d in range(k, k + 2):
            assert spanning_reduction_agrees(Mi, k, d)


# -- operators ------------------------------------------------------------------


def test_d_plus_examples():
    M = PolyRealization(2)
    v0 = LVector(0, M.one())
    assert d_plus(M, v0) == LVector(1, pv(2, 1, 0))
    v1 = LVector(1, pv(2, 1, 0))
    assert d_plus(M, v1) == LVector(2, pv(2, 1, 1))
    assert d_plus(M, LVector(0, M.zero())).is_zero()
    with pytest.raises(FlavorAtMax):
        d_plus(M, LVector(2, pv(2, 1, 1)))


def test_d_minus_examples():
    M = PolyRealization(2)
    out = d_minus(M, LVector(1, pv(2, 1, 0)))
    assert out == LVector(0, pv(2, 1, 0, coeff="q - 1").add(pv(2, 0, 1, coeff="q - 1")))
    out2 = d_minus(M, LVector(2, pv(2, 1, 1)))
    assert out2 == LVector(1, pv(2, 1, 1, coeff="q - 1"))
    with pytest.raises(FlavorAtMin):
        d_minus(M, LVector(0, M.one()))


def test_d_minus_closed_form():
    # on certified spanning inputs X_1..X_k eps_k(w) the lowering operator is
    # X_1..X_{k-1} eps_{k-1}((q^(n-k+1) - 1) X_k w)
    from bqt.polyrep import apply_epsilon

    for n in (2, 3):
        M = PolyRealization(n)
        for k in range(1, n + 1):
            for d in range(k, k + 2):
                for exps, b in M.basis_with_exponents(d - k):
                    w = apply_epsilon(M, b, k)
                    for i in range(1, k + 1):
                        w = M.apply_Xi(w, i)
                    lhs = d_minus(M, LVector(k, w))
                    scaled = M.apply_Xi(b, k).scale(
                        parse_scalar(f"q^{n - k + 1} - 1")
                    )
                    rhs = apply_epsilon(M, scaled, k - 1)
                    for i in range(1, k):
                        rhs = M.apply_Xi(rhs, i)
                    assert lhs == LVector(k - 1, rhs)


def test_z_examples():
    M1 = PolyRealization(1)
    assert z_action(M1, LVector(1, pv(1, 1)), 1) == LVector(1, pv(1, 1))
    M3 = PolyRealization(3)
    for lv in lk_spanning_set(M3, 2, 3):
        z12 = z_action(M3, z_action(M3, lv, 1), 2)
        z21 = z_action(M3, z_action(M3, lv, 2), 1)
        assert z12 == z21
    assert z_action(M3, LVector(1, M3.zero()), 1).is_zero()


def test_phi_examples():
    M = PolyRealization(2)
    assert phi_action(M, LVector(1, pv(2, 1, 0))) == LVector(1, pv(2, 2, 0))
    assert phi_action(M, LVector(1, M.zero())).is_zero()
    M3 = PolyRealization(3)
    for d in (1, 2, 3):
        for lv in lk_spanning_set(M3, 1, d):
            phi_action(M3, lv)  # closed-form agreement is asserted inside
    with pytest.raises(FlavorOutOfRange):
        phi_action(M, LVector(2, pv(2, 1, 1)))


def test_operator_closure_into_target_flavors():
    M = PolyRealization(3)
    for k in range(0, 4):
        for d in range(k, k + 2):
            for lv in lk_spanning_set(M, k, d):
                if k <= M.n - 1:
                    up = d_plus(M, lv)
                    assert certify_flavor_membership(M, up)
                    assert up.degree() == lv.degree() + 1
                if k >= 1:
                    down = d_minus(M, lv)
                    assert certify_flavor_membership(M, down)
                    assert down.is_zero() or down.degree() == lv.degree()
                for i in range(1, k + 1):
                    zz = z_action(M, lv, i)
                    assert certify_flavor_membership(M, zz)
                for i in range(1, k):
                    assert certify_flavor_membership(M, t_action(M, lv, i))


def flavored(M, lv, word):
    return apply_word(M, lv, word, FLAVORED_ALPHABET)


def test_flavored_word_application():
    M = PolyRealization(2)
    lv = LVector(0, M.one())
    out = flavored(M, lv, (("dminus",), ("dplus",)))
    assert out.k == 0
    expected = pv(2, 1, 0, coeff="q - 1").add(pv(2, 0, 1, coeff="q - 1"))
    assert out == LVector(0, expected)


def test_z1_commutator_value_on_x1():
    # both sides of the z_1 commutator relation on the flavor-1 vector x_1
    # at rank 2 come out to qt(q-1) x_1^2
    M = PolyRealization(2)
    lv = LVector(1, pv(2, 1, 0))
    lhs = flavored(M, lv, (("z", 1), ("dplus",), ("dminus",))).scale(
        parse_scalar("q")
    ).sub(flavored(M, lv, (("z", 1), ("dminus",), ("dplus",))))
    rhs = flavored(M, lv, (("dplus",), ("dminus",), ("z", 1))).scale(
        parse_scalar("q*t")
    ).sub(
        flavored(M, lv, (("dminus",), ("dplus",), ("z", 1))).scale(
            parse_scalar("q*t")
        )
    )
    expected = LVector(1, pv(2, 2, 0, coeff="q*t*(q - 1)"))
    assert lhs == expected
    assert rhs == expected


def test_functoriality_of_trivial_identification():
    # the flavor-wise transport along the empty-shape identification
    # commutes with all four operator families
    n = 3
    Mi = InducedRealization((), n)
    Mp = PolyRealization(n)

    def transport(lv):
        return LVector(lv.k, trivial_to_poly(lv.payload))

    for k in range(0, n + 1):
        for d in range(k, k + 2):
            for lv in lk_spanning_set(Mi, k, d):
                plv = transport(lv)
                if k <= n - 1:
                    assert transport(d_plus(Mi, lv)) == d_plus(Mp, plv)
                if k >= 1:
                    assert transport(d_minus(Mi, lv)) == d_minus(Mp, plv)
                for i in range(1, k + 1):
                    assert transport(z_action(Mi, lv, i)) == z_action(Mp, plv, i)
                for i in range(1, k):
                    assert transport(t_action(Mi, lv, i)) == t_action(Mp, plv, i)
