"""Differential oracle: exact words against the same words over a prime field.

Evaluation at (q, t) = (q0, t0) mod p is a ring homomorphism, and every
operator is defined by the same generator formulas over both rings.  So a
word applied to a vector over Q(q,t) and then evaluated must give what the
same word gives on the evaluated vector over ModPField.  Hypothesis draws
words from the full module alphabet and the full flavored alphabet and
applies them to random vectors of all three realizations.  A word that
raises must raise the same error class over both rings.  The check never
reaches the gcd kernel on the prime-field side, so it also guards the
operator tables and the exact scalar kernel against each other.
"""

from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from bqt.errors import BqtError
from bqt.induced import InducedRealization
from bqt.lspaces import FLAVORED_ALPHABET, LVector, lk_spanning_set
from bqt.polyrep import WORD_ALPHABET, PolyRealization, apply_word
from bqt.scalars import QT, ModPField, parse_scalar
from bqt.tableaux import SeedRealization

F = ModPField(2**31 - 1, 5, 7)

# (kind, shape, rank, largest degree of the random vectors)
MODULES = [
    ("poly", (), 2, 2),
    ("poly", (), 3, 1),
    ("poly", (), 4, 1),
    ("seed", (1,), 3, 0),
    ("seed", (1, 1), 4, 0),
    ("induced", (1,), 2, 1),
    ("induced", (1, 1), 3, 1),
]

SCALARS = ["2", "-q", "t/q", "q - 1", "1/(q + 1)", "(q^2 - t)/(1 - q*t)"]


@lru_cache(maxsize=None)
def realizations(kind: str, lam: tuple, n: int) -> tuple:
    """The module over Q(q,t) and over F, each with its own tables."""
    if kind == "poly":
        return PolyRealization(n, QT), PolyRealization(n, F)
    if kind == "seed":
        return SeedRealization(lam, n, QT), SeedRealization(lam, n, F)
    return InducedRealization(lam, n, QT), InducedRealization(lam, n, F)


def evaluated(Mp, v):
    """The image of an exact module vector under evaluation at F's point."""
    coeffs = {k: F.convert(c) for k, c in v.coeffs.items()}
    return Mp._vec({k: c for k, c in coeffs.items() if not c.is_zero()})


def evaluated_word(word: tuple) -> tuple:
    return tuple(("Scalar", F.convert(s[1])) if s[0] == "Scalar" else s for s in word)


def outcome(M, v, word, alphabet):
    """The word's result on v, or the class of the BqtError it raised."""
    try:
        return apply_word(M, v, word, alphabet)
    except BqtError as err:
        return type(err)


def draw_vector(draw, M, dmax: int):
    basis = [b for d in range(dmax + 1) for b in M.basis(d)]
    v = M.zero()
    for b in draw(st.lists(st.sampled_from(basis), min_size=1, max_size=3)):
        v = v.add(b.scale(QT.from_int(draw(st.integers(-3, 3)))))
    return v


def draw_scalar(draw):
    return ("Scalar", parse_scalar(draw(st.sampled_from(SCALARS))))


@st.composite
def module_words(draw):
    kind, lam, n, dmax = draw(st.sampled_from(MODULES))
    M, Mp = realizations(kind, lam, n)
    v = draw_vector(draw, M, dmax)
    word = []
    for _ in range(draw(st.integers(1, 3))):
        tag = draw(st.sampled_from(sorted(WORD_ALPHABET)))
        if tag == "Scalar":
            word.append(draw_scalar(draw))
        elif WORD_ALPHABET[tag].arity == 0:
            word.append((tag,))
        else:
            lo, hi = {"T": (1, n - 1), "Tinv": (1, n - 1), "Eps": (0, n)}.get(tag, (1, n))
            word.append((tag, draw(st.integers(lo, max(lo, hi)))))
    return M, Mp, v, tuple(word)


@st.composite
def flavored_words(draw):
    """A flavored vector and a word whose letters fit the flavor they act on.

    On modules with polynomial variables the vector is a combination of
    flavored spanning vectors; the seed module has none, so there a module
    vector is tagged with a flavor.  The word is built from its rightmost
    letter, tracking the flavor each letter meets.
    """
    kind, lam, n, dmax = draw(st.sampled_from(MODULES))
    M, Mp = realizations(kind, lam, n)
    k = draw(st.integers(0, n))
    if kind == "seed":
        payload = draw_vector(draw, M, 0)
    else:
        span = lk_spanning_set(M, k, k + draw(st.integers(0, dmax)))
        picks = draw(st.lists(st.sampled_from(span), min_size=1, max_size=2)) if span else []
        payload = M.zero()
        for lv in picks:
            payload = payload.add(lv.payload.scale(QT.from_int(draw(st.integers(-3, 3)))))
    lv = LVector(k, payload)
    word = []
    flavor = k
    for _ in range(draw(st.integers(1, 3))):
        tags = ["Scalar"]
        if flavor >= 2:
            tags += ["T", "Tinv"]
        if flavor >= 1:
            tags += ["z", "dminus"]
        if flavor < n:
            tags += ["dplus"]
        if 1 <= flavor < n:
            tags += ["phi"]
        tag = draw(st.sampled_from(tags))
        if tag == "Scalar":
            sym = draw_scalar(draw)
        elif tag in ("T", "Tinv"):
            sym = (tag, draw(st.integers(1, flavor - 1)))
        elif tag == "z":
            sym = (tag, draw(st.integers(1, flavor)))
        else:
            sym = (tag,)
        word.insert(0, sym)
        flavor += FLAVORED_ALPHABET[tag].flavor_shift
    return M, Mp, lv, tuple(word)


@given(module_words())
@settings(max_examples=80, deadline=None)
def test_module_words_commute_with_evaluation(case):
    M, Mp, v, word = case
    exact = outcome(M, v, word, WORD_ALPHABET)
    modp = outcome(Mp, evaluated(Mp, v), evaluated_word(word), WORD_ALPHABET)
    if isinstance(exact, type):
        assert modp is exact
    else:
        assert modp == evaluated(Mp, exact)


@given(flavored_words())
@settings(max_examples=60, deadline=None)
def test_flavored_words_commute_with_evaluation(case):
    M, Mp, lv, word = case
    exact = outcome(M, lv, word, FLAVORED_ALPHABET)
    modp_in = LVector(lv.k, evaluated(Mp, lv.payload))
    modp = outcome(Mp, modp_in, evaluated_word(word), FLAVORED_ALPHABET)
    if isinstance(exact, type):
        assert modp is exact
    else:
        assert modp == LVector(exact.k, evaluated(Mp, exact.payload))
