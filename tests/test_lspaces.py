"""Flavored spaces: spanning sets, exact bases, and the operator family."""

import json

import pytest

import bqt.lspaces
from bqt.cli import main
from bqt.errors import (
    DegreeTooSmall,
    FlavorAtMax,
    FlavorAtMin,
    FlavorOutOfRange,
    InconsistentFlavors,
    InternalCheckFailed,
)
from bqt.induced import InducedRealization, trivial_to_poly
from bqt.linalg import RowBasis, solve_combination
from bqt.lspaces import (
    FLAVORED_ALPHABET,
    certify_flavor_membership,
    d_minus,
    d_plus,
    extract_basis,
    lk_spanning_set,
    phi_action,
    phi_entry,
    phi_sides,
    resolve,
    spanning_reduction_agrees,
    t_action,
    z_action,
)
from bqt.polyrep import PolyRealization, PolyVector, apply_word
from bqt.scalars import ONE, ModPField, parse_scalar


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


def test_row_basis_pivot_rule():
    # exact: smallest (numerator degree, numerator terms), then key; prime field: smallest key
    rows = RowBasis()
    rows.insert({(0, 0): parse_scalar("q^2"), (2, 0): parse_scalar("q - 2"), (1, 0): parse_scalar("q + 1")})
    assert rows.rows[0][0] == (1, 0)
    f = ModPField(2**31 - 1, 5, 7)
    rows = RowBasis()
    rows.insert({(2, 0): f.convert(parse_scalar("q^2")), (1, 0): f.from_int(3)})
    assert rows.rows[0][0] == (1, 0)


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
    assert span[0] == M.one()


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
    v = pv(2, 1, 0)
    gb = extract_basis([v, v.scale(parse_scalar("2")), M.zero()])
    assert gb.dim == 1
    assert extract_basis([]).dim == 0
    with pytest.raises(InconsistentFlavors):
        extract_basis([v, pv(2, 1, 1)])


def test_membership_certification():
    M = PolyRealization(3)
    for v in lk_spanning_set(M, 1, 2):
        assert certify_flavor_membership(M, v, 1)
    # x_1 x_2 is tail-symmetric for k = 2 but lives in flavor 2, not flavor 1 span?
    # actually x1x2 = d_plus(x1) is in L_2; for flavor 1 degree 2 it is NOT tail-symmetric
    bad = pv(3, 0, 1, 0)
    assert not certify_flavor_membership(M, bad, 1)
    # membership is decided per degree: a sum of members of two graded pieces
    # is a member, and a tail-symmetric non-member in one piece spoils the sum
    a, b = lk_spanning_set(M, 1, 2)[0], lk_spanning_set(M, 1, 3)[0]
    assert certify_flavor_membership(M, a.add(b), 1)
    x2_plus_x3 = pv(3, 0, 1, 0).add(pv(3, 0, 0, 1))
    assert not certify_flavor_membership(M, a.add(x2_plus_x3), 1)


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
    assert d_plus(M, M.one(), 0) == pv(2, 1, 0)
    assert d_plus(M, pv(2, 1, 0), 1) == pv(2, 1, 1)
    assert d_plus(M, M.zero(), 0).is_zero()
    with pytest.raises(FlavorAtMax):
        d_plus(M, pv(2, 1, 1), 2)


def test_d_minus_examples():
    M = PolyRealization(2)
    out = d_minus(M, pv(2, 1, 0), 1)
    assert out == pv(2, 1, 0, coeff="q - 1").add(pv(2, 0, 1, coeff="q - 1"))
    assert d_minus(M, pv(2, 1, 1), 2) == pv(2, 1, 1, coeff="q - 1")
    with pytest.raises(FlavorAtMin):
        d_minus(M, M.one(), 0)


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
                    lhs = d_minus(M, w, k)
                    scaled = M.apply_Xi(b, k).scale(
                        parse_scalar(f"q^{n - k + 1} - 1")
                    )
                    rhs = apply_epsilon(M, scaled, k - 1)
                    for i in range(1, k):
                        rhs = M.apply_Xi(rhs, i)
                    assert lhs == rhs


def test_z_examples():
    M1 = PolyRealization(1)
    assert z_action(M1, pv(1, 1), 1, 1) == pv(1, 1)
    M3 = PolyRealization(3)
    for v in lk_spanning_set(M3, 2, 3):
        z12 = z_action(M3, z_action(M3, v, 2, 1), 2, 2)
        z21 = z_action(M3, z_action(M3, v, 2, 2), 2, 1)
        assert z12 == z21
    assert z_action(M3, M3.zero(), 1, 1).is_zero()


def test_phi_examples():
    M = PolyRealization(2)
    assert phi_action(M, pv(2, 1, 0), 1) == pv(2, 2, 0)
    assert phi_action(M, M.zero(), 1).is_zero()
    M3 = PolyRealization(3)
    for d in (1, 2, 3):
        for v in lk_spanning_set(M3, 1, d):
            phi_action(M3, v, 1)  # closed-form agreement is asserted inside
    with pytest.raises(FlavorOutOfRange):
        phi_action(M, pv(2, 1, 1), 2)


def test_phi_raises_when_its_closed_form_is_broken(monkeypatch, capsys, tmp_path):
    """A closed form that disagrees with the commutator raises InternalCheckFailed,
    and the bqt suite turns that into fail reports, never a traceback."""
    correct = bqt.lspaces.phi_sides

    def closed_form_off_by_q(M, v, k):
        comm, closed = correct(M, v, k)
        return comm, closed.scale(M.ring.q)

    monkeypatch.setattr(bqt.lspaces, "phi_sides", closed_form_off_by_q)
    M = PolyRealization(2)
    with pytest.raises(InternalCheckFailed):
        phi_action(M, pv(2, 1, 0), 1)
    # the zero vector has a zero commutator and a zero closed form
    assert phi_action(M, M.zero(), 1).is_zero()

    out = tmp_path / "bqt.json"
    code = main(["check", "bqt", "--module", "poly", "--n", "3", "--kmax", "2", "--dmax", "2",
                 "--jobs", "1", "--no-timing", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err
    doc = json.loads(out.read_text())
    assert doc["status"] == "fail"
    failed = {(r["relation_id"], r["flavor"]): r for r in doc["reports"] if r["status"] != "pass"}
    assert set(failed) == {("bqt_phi_dminus", 2), ("bqt_phi_dplus", 1)}
    for rep in failed.values():
        assert rep["counterexample"]["error"] == "InternalCheckFailed"
        assert "closed form" in rep["counterexample"]["message"]


# -- the phi table ---------------------------------------------------------------

PHI_MODULES = {
    **{f"poly_n{n}": (lambda n=n: PolyRealization(n), 3) for n in range(2, 6)},
    "murnaghan_1_n3": (lambda: InducedRealization((1,), 3), 2),
    "murnaghan_11_n4": (lambda: InducedRealization((1, 1), 4), 2),
    "murnaghan_2_n4": (lambda: InducedRealization((2,), 4), 2),
}


def phi_entries(M) -> dict:
    """(flavor, key) -> entry of the realization's phi table."""
    return {
        (k, key): e
        for (b, k, key), e in M._memo.items()
        if b is phi_entry
    }


@pytest.mark.parametrize("module", sorted(PHI_MODULES))
def test_phi_table_entries_equal_the_closed_form_on_every_key(module):
    # phi is linear, so a check on every basis key covers every vector of
    # the span: no cancellation inside a vector can hide a wrong entry
    make, d_max = PHI_MODULES[module]
    M = make()
    for d in range(d_max + 1):
        for v in M.basis(d):
            (key,) = v.coeffs
            for k in range(1, M.n):
                got = phi_action(M, v, k)
                comm, closed = phi_sides(M, v, k)
                assert comm == closed == got
                assert dict(zip(*phi_entries(M)[k, key])) == closed.coeffs
    assert len(phi_entries(M)) == (M.n - 1) * sum(len(M.basis(d)) for d in range(d_max + 1))


def test_phi_on_a_bad_flavor_raises_and_stores_nothing():
    M = PolyRealization(3)
    v = pv(3, 1, 0, 0)
    for k in (0, 3):
        with pytest.raises(FlavorOutOfRange):
            phi_action(M, v, k)
        with pytest.raises(FlavorOutOfRange):
            FLAVORED_ALPHABET["phi"].table(M, v, k)
    assert not phi_entries(M)


def test_the_phi_table_belongs_to_the_realization():
    M, other = PolyRealization(3), PolyRealization(3)
    v = lk_spanning_set(M, 1, 1)[0]
    got = phi_action(M, v, 1)
    assert set(phi_entries(M)) == {(1, key) for key in v.coeffs}
    assert not phi_entries(other)
    assert phi_action(other, v, 1) == got
    assert set(phi_entries(other)) == set(phi_entries(M))
    # a second application reads the entries
    entries = phi_entries(M)
    phi_action(M, v, 1)
    assert all(phi_entries(M)[fk] is e for fk, e in entries.items())


def test_operator_closure_into_target_flavors():
    M = PolyRealization(3)
    for k in range(0, 4):
        for d in range(k, k + 2):
            for v in lk_spanning_set(M, k, d):
                if k <= M.n - 1:
                    up = d_plus(M, v, k)
                    assert certify_flavor_membership(M, up, k + 1)
                    assert up.degree() == v.degree() + 1
                if k >= 1:
                    down = d_minus(M, v, k)
                    assert certify_flavor_membership(M, down, k - 1)
                    assert down.is_zero() or down.degree() == v.degree()
                for i in range(1, k + 1):
                    assert certify_flavor_membership(M, z_action(M, v, k, i), k)
                for i in range(1, k):
                    assert certify_flavor_membership(M, t_action(M, v, k, i), k)


def flavored(M, v, k, word):
    """The flavored word applied to v read in flavor k."""
    return apply_word(M, v, resolve(word, k)[0], FLAVORED_ALPHABET)


def test_flavored_word_application():
    M = PolyRealization(2)
    word = (("dminus",), ("dplus",))
    assert resolve(word, 0) == ((("dminus", 1), ("dplus", 0)), 0)
    expected = pv(2, 1, 0, coeff="q - 1").add(pv(2, 0, 1, coeff="q - 1"))
    assert flavored(M, M.one(), 0, word) == expected


def test_resolve_writes_the_flavor_each_symbol_acts_on():
    c = parse_scalar("q - 1")
    assert resolve((), 3) == ((), 3)
    assert resolve((("dplus",),), 2) == ((("dplus", 2),), 3)
    assert resolve((("z", 1),), 2) == ((("z", 2, 1),), 2)
    word = (("z", 1), ("Scalar", c), ("dminus",), ("T", 1), ("dplus",), ("dplus",), ("phi",))
    assert resolve(word, 1) == (
        (("z", 2, 1), ("Scalar", 2, c), ("dminus", 3), ("T", 3, 1), ("dplus", 2),
         ("dplus", 1), ("phi", 1)),
        2,
    )
    # resolving checks nothing: a flavor out of range fails when its letter acts
    assert resolve((("dminus",), ("dminus",)), 1) == ((("dminus", 0), ("dminus", 1)), -1)
    with pytest.raises(FlavorAtMin):
        flavored(PolyRealization(2), pv(2, 1, 0), 1, (("dminus",), ("dminus",)))


def test_z1_commutator_value_on_x1():
    # both sides of the z_1 commutator relation on the flavor-1 vector x_1
    # at rank 2 come out to qt(q-1) x_1^2
    M = PolyRealization(2)
    v = pv(2, 1, 0)
    lhs = flavored(M, v, 1, (("z", 1), ("dplus",), ("dminus",))).scale(
        parse_scalar("q")
    ).sub(flavored(M, v, 1, (("z", 1), ("dminus",), ("dplus",))))
    rhs = flavored(M, v, 1, (("dplus",), ("dminus",), ("z", 1))).scale(
        parse_scalar("q*t")
    ).sub(
        flavored(M, v, 1, (("dminus",), ("dplus",), ("z", 1))).scale(
            parse_scalar("q*t")
        )
    )
    expected = pv(2, 2, 0, coeff="q*t*(q - 1)")
    assert lhs == expected
    assert rhs == expected


def test_functoriality_of_trivial_identification():
    # the flavor-wise transport along the empty-shape identification
    # commutes with all four operator families
    n = 3
    Mi = InducedRealization((), n)
    Mp = PolyRealization(n)

    for k in range(0, n + 1):
        for d in range(k, k + 2):
            for v in lk_spanning_set(Mi, k, d):
                w = trivial_to_poly(v)
                if k <= n - 1:
                    assert trivial_to_poly(d_plus(Mi, v, k)) == d_plus(Mp, w, k)
                if k >= 1:
                    assert trivial_to_poly(d_minus(Mi, v, k)) == d_minus(Mp, w, k)
                for i in range(1, k + 1):
                    assert trivial_to_poly(z_action(Mi, v, k, i)) == z_action(Mp, w, k, i)
                for i in range(1, k):
                    assert trivial_to_poly(t_action(Mi, v, k, i)) == t_action(Mp, w, k, i)
