"""eps_k through the per-key stage table, against the telescoping recursion.

apply_epsilon reads eps_k of a key from the realization's stage table: the
stage image of the key's tail (its first k exponents zeroed), shifted by
its head.  The oracle here is the recursion that table replaces, written
out from T_i^{-1} alone: eps_n = 1 and eps_j = [n-j]_q^{-1} (1 + q T_{j+1}^{-1}
+ ... + q^(n-j-1) T_{n-1}^{-1}..T_{j+1}^{-1}) eps_{j+1}, applied to whole
vectors.  The two are compared on every basis key of small polynomial,
induced and seed modules, for every k, and on random multi-key vectors,
over Q(q,t) and over a prime field.

Stage 0 of a partition key on the polynomial module is not the recursion
but the Hall-Littlewood closed form (bqt.polyrep.eps0_partition); it is
compared with the recursion on every partition key up to rank 7 and
degree 6, the largest flavor-0 cells the stable limits reach.

Four test-only mutants are kept with the checks that kill them: a stage
normalized by [n-j+1]_q instead of [n-j]_q, a head shift that lands one
exponent to the right, and two faults of the closed form: psi reading the
multiplicities of the outer partition of a strip instead of the inner one,
and a normalizer without [m_0]_q!.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bqt.polyrep
from bqt.errors import InconsistentFlavors, IndexOutOfRange
from bqt.induced import InducedRealization
from bqt.keyed import tinv_entry
from bqt.limits import CompatSeqSpec, limit_component
from bqt.polyrep import (PolyRealization, apply_epsilon, eps0_partition, eps_stage,
                         monomials_of_degree)
from bqt.relations import check_aux_identities, check_bqt_relations
from bqt.scalars import QT, ModPField, parse_scalar
from bqt.tableaux import SeedRealization

RINGS = {"qt": QT, "modp": ModPField(2**31 - 1, 5, 7)}


def oracle_stage(M, w, j: int):
    """[n-j]_q^{-1} sum_r q^r T_{j+r}^{-1}..T_{j+1}^{-1} w, one generator at a time."""
    ring = M.ring
    acc = u = w
    qpow = ring.one
    for i in range(j + 1, M.n):
        u = M.apply_Ti_inv(u, i)
        qpow = qpow * ring.q
        acc = acc.add(u.scale(qpow))
    return acc.scale(ring.one / ring.q_integer(M.n - j))


def oracle_all_k(M, v) -> dict:
    """k -> eps_k v for every k in 0..n, by one descent of the recursion."""
    out = {M.n: v}
    for j in range(M.n - 1, -1, -1):
        out[j] = oracle_stage(M, out[j + 1], j)
    return out


def assert_same(got, want):
    assert got == want
    assert str(got) == str(want)


def assert_table_matches_oracle(M, vectors):
    for v in vectors:
        for k, want in oracle_all_k(M, v).items():
            assert_same(apply_epsilon(M, v, k), want)


def basis_up_to(M, d_max: int) -> list:
    return [b for d in range(d_max + 1) for b in M.basis(d)]


@pytest.mark.parametrize("ring_name", sorted(RINGS))
@pytest.mark.parametrize("n", range(1, 7))
def test_every_polynomial_key_matches_the_recursion(n, ring_name):
    M = PolyRealization(n, RINGS[ring_name])
    assert_table_matches_oracle(M, basis_up_to(M, 4))


@pytest.mark.parametrize("ring_name", sorted(RINGS))
@pytest.mark.parametrize("lam,n", [((1,), 2), ((1,), 3), ((1,), 4), ((1, 1), 3), ((1, 1), 4),
                                   ((2,), 4)])
def test_every_induced_key_matches_the_recursion(lam, n, ring_name):
    M = InducedRealization(lam, n, RINGS[ring_name])
    assert_table_matches_oracle(M, basis_up_to(M, 2))


@pytest.mark.parametrize("ring_name", sorted(RINGS))
@pytest.mark.parametrize("lam,n", [((), 3), ((1,), 3), ((1, 1), 4), ((2,), 4)])
def test_every_seed_key_matches_the_recursion(lam, n, ring_name):
    M = SeedRealization(lam, n, RINGS[ring_name])
    assert_table_matches_oracle(M, M.basis(0))


def partition_keys(n: int, d_max: int) -> list:
    """The weakly decreasing exponent vectors of rank n and degree <= d_max."""
    return [e for d in range(d_max + 1) for e in monomials_of_degree(n, d)
            if all(a >= b for a, b in zip(e, e[1:]))]


def builders(M) -> set:
    return {b for b, _, _ in M._memo}


@pytest.mark.parametrize("ring_name", sorted(RINGS))
@pytest.mark.parametrize("n", range(1, 8))
def test_the_closed_form_matches_the_recursion_on_every_partition_key(n, ring_name):
    ring = RINGS[ring_name]
    M, oracle = PolyRealization(n, ring), PolyRealization(n, ring)
    keys = partition_keys(n, 6)
    # the partitions of 0..6 with at most n parts
    assert len(keys) == [7, 16, 23, 27, 29, 30, 30][n - 1]
    for key in keys:
        v = M._vec({key: ring.one})
        assert_same(apply_epsilon(M, v, 0), oracle_all_k(oracle, v)[0])
    # no T^{-1} chain ran: every entry is a stage-0 closed form
    assert builders(M) == {eps_stage}


def test_only_a_partition_key_on_the_genuine_module_takes_the_closed_form():
    one = QT.one
    M = PolyRealization(4)
    M._table(eps_stage, 0, (2, 1, 1, 0))
    assert builders(M) == {eps_stage}
    # a key that is not weakly decreasing, and the q-1 negative control, take
    # the T^{-1} recursion and still match the oracle
    cases = [((1, 2, 0, 1), "1-q"), ((0, 1, 1, 2), "1-q"), ((2, 1, 1, 0), "q-1"),
             ((1, 0, 0, 0), "q-1")]
    for key, coefficient in cases:
        M = PolyRealization(4, demazure_coefficient=coefficient)
        oracle = PolyRealization(4, demazure_coefficient=coefficient)
        v = M._vec({key: one})
        got = apply_epsilon(M, v, 0)
        assert tinv_entry in builders(M)
        assert_same(got, oracle_all_k(oracle, v)[0])
        if coefficient == "q-1":
            # which is why the closed form is kept off that module
            assert M._vec(dict(eps0_partition(M, key))) != got


# (kind, shape, rank, largest degree of the random vectors)
MODULES = [
    ("poly", (), 3, 3),
    ("poly", (), 4, 2),
    ("induced", (1,), 3, 2),
    ("induced", (1, 1), 3, 1),
    ("seed", (1,), 4, 0),
]
COEFF_TEXTS = ["1", "-1", "q", "t/q", "1/(1 + q)", "(q - t)/(1 - q*t)", "2*q^2 - 3"]


@lru_cache(maxsize=None)
def realization(kind: str, lam: tuple, n: int, ring_name: str):
    ring = RINGS[ring_name]
    if kind == "poly":
        return PolyRealization(n, ring)
    if kind == "seed":
        return SeedRealization(lam, n, ring)
    return InducedRealization(lam, n, ring)


@st.composite
def multi_key_vectors(draw):
    kind, lam, n, d_max = draw(st.sampled_from(MODULES))
    ring_name = draw(st.sampled_from(sorted(RINGS)))
    M = realization(kind, lam, n, ring_name)
    keys = sorted({k for b in basis_up_to(M, d_max) for k in b.coeffs}, key=repr)
    chosen = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=6, unique=True))
    coeffs = {}
    for key in chosen:
        c = parse_scalar(draw(st.sampled_from(COEFF_TEXTS)))
        coeffs[key] = c if ring_name == "qt" else M.ring.convert(c)
    return M, M._vec(coeffs)


@given(multi_key_vectors())
@settings(max_examples=60, deadline=None)
def test_random_multi_key_vectors_match_the_recursion(case):
    M, v = case
    assert_table_matches_oracle(M, [v])


def test_a_bad_index_stores_nothing():
    for ring in RINGS.values():
        for M in (PolyRealization(3, ring), InducedRealization((1,), 3, ring),
                  SeedRealization((1,), 3, ring)):
            (b,) = M.basis(0)[:1]
            for k in (-1, M.n + 1):
                with pytest.raises(IndexOutOfRange):
                    apply_epsilon(M, b, k)
            assert not (M._memo or M._pool)


def stage_entries(M) -> dict:
    """(j, key) -> entry of the realization's eps stage table."""
    return {(j, key): e for (b, j, key), e in M._memo.items() if b is eps_stage}


def test_the_stage_table_belongs_to_the_realization():
    M, other = PolyRealization(4), PolyRealization(4)
    b = M.basis(2)[3]
    e = apply_epsilon(M, b, 1)
    assert stage_entries(M) and not other._memo
    assert apply_epsilon(other, b, 1) == e
    assert set(other._memo) == set(M._memo)
    # the stage table reads T^{-1} entries and nothing else; the T images
    # they are built from are not stored
    assert {b for b, _, _ in M._memo} == {eps_stage, tinv_entry}
    pooled = {id(c) for c in M._pool.values()}
    for (j, key), entry in stage_entries(M).items():
        # stages 1..n of the tail, each keyed by a key whose first j exponents are zero
        assert 1 <= j <= M.n and not any(key[:j])
        keys, scalars = entry
        assert all(not any(k2[:j]) for k2 in keys)
        assert all(id(c) in pooled for c in scalars)
    # the stage images of one tail serve every head: no new entry for x_1^2 times b
    before = len(M._memo)
    head = M.apply_Xi(M.apply_Xi(b, 1), 1)
    assert_same(apply_epsilon(M, head, 1), M.apply_Xi(M.apply_Xi(e, 1), 1))
    assert len(M._memo) == before
    # stage j of a tail is read, not rebuilt, by flavor j
    entry = M._table(eps_stage, 2, (0, 0, 1, 0))
    assert stage_entries(M)[(2, (0, 0, 1, 0))] is entry
    before = len(M._memo)
    assert M._table(eps_stage, 2, (0, 0, 1, 0)) is entry
    assert len(M._memo) == before


# -- mutants of the stage path, each killed by the checks named in its test ----


def _stage_normalized_by_n_minus_j_plus_1(M, j, key):
    """The stage builder with [n-j+1]_q in place of [n-j]_q.

    The builder reads its inner stage through the one memo under the patched
    builder, so rescaling its image by [n-j]_q / [n-j+1]_q changes the
    normalizer of every recursive stage and nothing else.  Stage 0 of a
    partition key is the closed form, which reads no inner stage, so it is
    rescaled once while stage 0 of any other key is rescaled once per stage.
    """
    n, ring = M.n, M.ring
    image = eps_stage(M, j, key)
    if j == n:
        return image
    rescale = ring.q_integer(n - j) / ring.q_integer(n - j + 1)
    return M._vec(dict(image)).scale(rescale).coeffs.items()


def _head_shift_one_exponent_off(M, k, key):
    """eps_image with the head added to exponents 2..k+1 instead of 1..k."""
    head = M._head(key, k)
    stage = M._table(bqt.polyrep.eps_stage, k, M._join_head((0,) * len(head), key))
    if not any(head):
        return stage
    keys, scalars = stage
    out = []
    for k2 in keys:
        e = M._head(k2, len(head) + 1)
        moved = e[:1] + tuple(h + a for h, a in zip(head, e[1:]))
        out.append(M._join_head(moved, k2))
    return tuple(out), scalars


@pytest.fixture
def wrong_stage_normalizer(monkeypatch):
    monkeypatch.setattr(bqt.polyrep, "eps_stage", _stage_normalized_by_n_minus_j_plus_1)


@pytest.fixture
def head_shift_off_by_one(monkeypatch):
    monkeypatch.setattr(bqt.polyrep, "eps_image", _head_shift_one_exponent_off)


def failing_ids(reports) -> set:
    return {r.relation_id for r in reports if r.status != "pass"}


def test_wrong_stage_normalizer_is_killed_by_the_oracle_and_the_aux_suite(
    wrong_stage_normalizer,
):
    M = PolyRealization(3)
    with pytest.raises(AssertionError):
        assert_table_matches_oracle(M, basis_up_to(M, 1))
    # each eps_k of a key comes out a nonzero scalar times the true one, which
    # the idempotent laws and the d_- closed form (a sum that eps_{k-1} fixes)
    # see; the scalar of eps_0 differs between a partition key and its
    # rearrangements, so eps_0 T_i = eps_0 fails as well
    assert failing_ids(check_aux_identities(PolyRealization(3), 2)) == {
        "aux_eps_idempotent", "aux_eps_product", "aux_eps_absorbs_T", "aux_dminus_closed_form",
    }
    # equivalent for the flavored suite and the stable limits: a spanning
    # vector rescaled by a nonzero scalar spans the same flavored space
    assert all(r.status == "pass" for r in check_bqt_relations(PolyRealization(3), 3, 3))
    seq = CompatSeqSpec("polynomial")
    assert [limit_component(seq, 1, d).dim for d in (1, 2, 3)] == [1, 2, 4]


def test_head_shift_off_by_one_is_killed_by_the_oracle_and_every_suite(head_shift_off_by_one):
    M = PolyRealization(3)
    with pytest.raises(AssertionError):
        assert_table_matches_oracle(M, basis_up_to(M, 1))
    assert failing_ids(check_aux_identities(PolyRealization(3), 2)) == {
        "aux_eps_idempotent", "aux_eps_product", "aux_eps_absorbs_T", "aux_eps_commutes_T",
        "aux_dminus_closed_form", "aux_jucys_murphy",
    }
    assert failing_ids(check_bqt_relations(PolyRealization(3), 3, 3)) == {
        "bqt_T1_dplus_sq", "bqt_z1_commutator",
    }
    # at k = n the last head exponent falls off the end: the rank-2 spanning
    # vectors of the flavor-2 degree-3 cell have mixed degrees
    with pytest.raises(InconsistentFlavors):
        limit_component(CompatSeqSpec("polynomial"), 2, 3)


# -- mutants of the stage-0 closed form ----------------------------------------


def _times_strip_psi_of_the_outer_partition(val, nu, kappa, psi_factors):
    """times_strip_psi reading m_j(kappa), the outer partition, not m_j(nu)."""
    cols = {c for a, b in zip(nu, kappa) for c in range(a + 1, b + 1)}
    for c in cols:
        if c > 1 and c - 1 not in cols:
            val = val * psi_factors[kappa.count(c - 1)]
    return val


_eps0_normalizer = bqt.polyrep.eps0_normalizer


def _normalizer_without_m0_factorial(ring, mu):
    """eps0_normalizer with [m_0]_q! missing, m_0 the number of zero parts."""
    norm = _eps0_normalizer(ring, mu)
    for r in range(2, mu.count(0) + 1):
        norm = norm / ring.q_integer(r)
    return norm


@pytest.fixture(params=["psi_of_outer_partition", "normalizer_without_m0"])
def closed_form_mutant(request, monkeypatch):
    if request.param == "psi_of_outer_partition":
        monkeypatch.setattr(bqt.polyrep, "times_strip_psi",
                            _times_strip_psi_of_the_outer_partition)
    else:
        monkeypatch.setattr(bqt.polyrep, "eps0_normalizer", _normalizer_without_m0_factorial)


def test_a_closed_form_mutant_is_killed_by_the_oracle_and_the_aux_suite(closed_form_mutant):
    M = PolyRealization(3)
    with pytest.raises(AssertionError):
        assert_table_matches_oracle(M, basis_up_to(M, 2))
    # eps_0 of a partition key changes while eps_0 of its rearrangements
    # (the recursion) does not, which eps_0 T_i = eps_0 and eps_0^2 = eps_0 see
    assert failing_ids(check_aux_identities(PolyRealization(3), 2)) == {
        "aux_eps_idempotent", "aux_eps_absorbs_T", "aux_dminus_closed_form",
    }
    # equivalent for the flavored suite and the stable limits: the mutant
    # eps_0 x^mu is still a symmetric polynomial with leading monomial
    # class mu, so the flavor-0 spanning vectors span the same space
    assert all(r.status == "pass" for r in check_bqt_relations(PolyRealization(3), 3, 3))
    seq = CompatSeqSpec("polynomial")
    assert [limit_component(seq, 0, d).dim for d in range(5)] == [1, 1, 2, 3, 5]
