"""The keyed module core: one sparse vector type and one generator-table engine.

Every module in the package has a basis indexed by hashable keys (exponent
vectors, standard tableaux, or pairs of both).  SparseVec holds a vector as
a map from keys to nonzero scalars plus a metadata tuple naming its space,
(n,) or (n, lam), and carries the linear algebra once.  The concrete vector
types add only what depends on the key: constructor, degree, print order
and format, serialization.

KeyedRealization is the generator engine over such a basis.  A realization
supplies the T_i image of one key (and its pi image where pi is
memoized); the engine checks indices, derives
T_i^{-1} = q^{-1}(T_i + (q-1)) from the quadratic relation, memoizes the
per-key images, and applies an image table to a vector.
"""

from __future__ import annotations

from .errors import IndexOutOfRange


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
    the T_i image of one key as a tuple of (key, scalar) pairs; those that
    memoize pi also implement _pi_image(key).
    """

    vector_type: type

    def __init__(self, n: int, ring, meta: tuple):
        self.n = n
        self.ring = ring
        self.meta = meta
        self._ti_memo: dict[tuple, tuple] = {}
        self._tinv_memo: dict[tuple, tuple] = {}
        self._pi_memo: dict = {}
        self.cache: dict = {}

    def _vec(self, coeffs: dict):
        return self.vector_type(*self.meta, coeffs)

    def zero(self):
        return self._vec({})

    def _t_index(self, i: int) -> int:
        if not 1 <= i <= self.n - 1:
            raise IndexOutOfRange(f"T index {i} outside 1..{self.n - 1}")
        return i

    def _ti_table(self, i: int, key) -> tuple:
        hit = self._ti_memo.get((i, key))
        if hit is None:
            hit = self._ti_memo[(i, key)] = self._ti_image(i, key)
        return hit

    def _tinv_table(self, i: int, key) -> tuple:
        """T_i^{-1} = q^{-1}(T_i + (q-1)), from the quadratic relation."""
        hit = self._tinv_memo.get((i, key))
        if hit is None:
            ring = self.ring
            qinv = ring.q_power(-1)
            out = {k: c * qinv for k, c in self._ti_table(i, key)}
            accumulate(out, key, (ring.q - ring.one) * qinv)
            hit = self._tinv_memo[(i, key)] = tuple(out.items())
        return hit

    def _pi_table(self, key) -> tuple:
        hit = self._pi_memo.get(key)
        if hit is None:
            hit = self._pi_memo[key] = self._pi_image(key)
        return hit

    def _apply_table(self, v, table, *args):
        """Linear extension of a per-key table: table(*args, key) per key of v."""
        out: dict = {}
        for key, c in v.coeffs.items():
            for k2, m in table(*args, key):
                accumulate(out, k2, c * m)
        return self._vec(out)
