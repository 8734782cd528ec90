"""The keyed module core: one sparse vector type and one generator-table engine.

Every module in the package has a basis indexed by hashable keys (exponent
vectors, standard tableaux, or pairs of both).  SparseVec holds a vector as
a map from keys to nonzero scalars plus a metadata tuple naming its space,
(n,) or (n, lam), and carries the linear algebra once.  The concrete vector
types add only what depends on the key: constructor, degree, print order
and format, serialization; coeffs_from_entries reads every JSON entry list.

KeyedRealization is the generator engine over such a basis.  A realization
supplies the T_i image of one key (and its pi image where pi is
memoized); the engine checks indices, derives
T_i^{-1} = q^{-1}(T_i + (q-1)) from the quadratic relation, memoizes the
per-key images, and applies an image table to a vector: the products c * m
that land on one output key are gathered and summed by the ring's lincomb,
so each output coefficient is reduced once.

Every operator derived from the generators goes through one more table.
apply_derived(v, op, arg) takes op(M, w, arg), the operator's definition on
whole vectors, and builds the image of a key the first time it is needed by
running op on the key's basis vector; every later application reads that
image.  Each such operator is linear on the whole module, so the linear
extension is exact.  The operators tabled this way are Cherednik's

    Y_i = q^(n-i+1) T_{i-1}..T_1 pi T_{n-1}^{-1}..T_i^{-1}

(bqt.polyrep) and the flavored z_i, d_+ and d_- (bqt.lspaces).  eps_k is
not tabled: its images are large and rarely reused.

Every table entry stores its scalar through a per-realization pool keyed by
the scalar's structure (scalar.pool_key()), so equal coefficients are one
object however many keys and tables they occur in.
"""

from __future__ import annotations

from .errors import IndexOutOfRange
from .scalars import parse_scalar


def strict_int(x, what: str) -> int:
    """x itself when it is an int (not a bool, not a float), else ValueError."""
    if type(x) is not int:
        raise ValueError(f"{what} {x!r} is not an integer")
    return x


def coeffs_from_entries(entries, key_of) -> dict:
    """Coefficient map of JSON entries: key_of(entry) -> parsed "coeff", summed."""
    coeffs: dict = {}
    for entry in entries:
        accumulate(coeffs, key_of(entry), parse_scalar(entry["coeff"]))
    return coeffs


def accumulate(out: dict, key, val) -> None:
    """out[key] += val in place, storing nonzero entries only."""
    cur = out.get(key)
    if cur is None:
        if not val.is_zero():
            out[key] = val
    else:
        cur = cur + val
        if cur.is_zero():
            del out[key]
        else:
            out[key] = cur


class SparseVec:
    """Sparse map from basis keys to nonzero scalars; immutable by convention.

    Subclasses set meta and coeffs in their constructor, whose positional
    arguments are the metadata followed by the coefficient map, and provide
    sorted_items() (print order) and _term(key, c).
    """

    __slots__ = ("meta", "coeffs")

    @property
    def n(self) -> int:
        return self.meta[0]

    def _like(self, coeffs: dict):
        return type(self)(*self.meta, coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def homogeneous_parts(self) -> dict:
        """Degree -> the part of self of that degree, for each degree present."""
        parts: dict = {}
        for k, c in self.coeffs.items():
            parts.setdefault(self._like({k: c}).degree(), {})[k] = c
        return {d: self._like(coeffs) for d, coeffs in parts.items()}

    def add(self, other):
        if not other.coeffs:
            return self
        if not self.coeffs:
            return other
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            accumulate(out, k, c)
        return self._like(out)

    def sub(self, other):
        if not other.coeffs:
            return self
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            accumulate(out, k, -c)
        return self._like(out)

    def scale(self, c):
        if c.is_zero() or not self.coeffs:
            return self._like({})
        if c.is_one():
            return self
        return self._like({k: v * c for k, v in self.coeffs.items()})

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.meta == other.meta
            and self.coeffs == other.coeffs
        )

    __hash__ = None  # type: ignore[assignment]

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(self._term(k, c) for k, c in self.sorted_items())

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, {self})"


class KeyedRealization:
    """Generator tables per basis key, shared by every module realization.

    Subclasses set vector_type and implement _ti_image(i, key), returning
    the T_i image of one key as a tuple of (key, scalar) pairs, and
    contains_key(key), telling whether a key is a basis key of the module;
    those that memoize pi also implement _pi_image(key).
    """

    vector_type: type

    def __init__(self, n: int, ring, meta: tuple):
        self.n = n
        self.ring = ring
        self.meta = meta
        self._ti_memo: dict[tuple, tuple] = {}
        self._tinv_memo: dict[tuple, tuple] = {}
        self._pi_memo: dict = {}
        self._derived_memo: dict[tuple, tuple] = {}
        self._pool: dict = {}
        self.cache: dict = {}

    def _vec(self, coeffs: dict):
        return self.vector_type(*self.meta, coeffs)

    def zero(self):
        return self._vec({})

    def _t_index(self, i: int) -> int:
        if not 1 <= i <= self.n - 1:
            raise IndexOutOfRange(f"T index {i} outside 1..{self.n - 1}")
        return i

    def _interned(self, items) -> tuple:
        """(key, scalar) pairs as a table entry, each scalar taken from the pool."""
        pool = self._pool
        return tuple((k, pool.setdefault(c.pool_key(), c)) for k, c in items)

    def _ti_table(self, i: int, key) -> tuple:
        hit = self._ti_memo.get((i, key))
        if hit is None:
            hit = self._ti_memo[(i, key)] = self._interned(self._ti_image(i, key))
        return hit

    def _tinv_table(self, i: int, key) -> tuple:
        """T_i^{-1} = q^{-1}(T_i + (q-1)), from the quadratic relation."""
        hit = self._tinv_memo.get((i, key))
        if hit is None:
            ring = self.ring
            qinv = ring.q_power(-1)
            out = {k: c * qinv for k, c in self._ti_table(i, key)}
            accumulate(out, key, (ring.q - ring.one) * qinv)
            hit = self._tinv_memo[(i, key)] = self._interned(out.items())
        return hit

    def _pi_table(self, key) -> tuple:
        hit = self._pi_memo.get(key)
        if hit is None:
            hit = self._pi_memo[key] = self._interned(self._pi_image(key))
        return hit

    def _derived_table(self, op, arg, key) -> tuple:
        """op(self, basis vector of key, arg) as a table entry, built on first use."""
        hit = self._derived_memo.get((op, arg, key))
        if hit is None:
            img = op(self, self._vec({key: self.ring.one}), arg)
            hit = self._derived_memo[(op, arg, key)] = self._interned(img.coeffs.items())
        return hit

    def apply_derived(self, v, op, arg):
        """op(self, v, arg) for a linear op, by linear extension of its per-key images.

        Callers check arg before the call, so a bad argument stores nothing.
        """
        return self._apply_table(v, self._derived_table, op, arg)

    def _apply_table(self, v, table, *args):
        """Linear extension of a per-key table: table(*args, key) per key of v."""
        groups: dict = {}
        for key, c in v.coeffs.items():
            for k2, m in table(*args, key):
                groups.setdefault(k2, []).append((c, m))
        lincomb = self.ring.lincomb
        out = {}
        for k2, pairs in groups.items():
            s = lincomb(pairs)
            if not s.is_zero():
                out[k2] = s
        return self._vec(out)
