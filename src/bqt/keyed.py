"""The keyed module core: one sparse vector type and one generator-table engine.

Every module in the package has a basis indexed by hashable keys (exponent
vectors, standard tableaux, or pairs of both).  SparseVec holds a vector as
a map from keys to nonzero scalars plus a metadata tuple naming its space,
(n,) or (n, lam), and carries the linear algebra once.  The concrete vector
types add only what depends on the key: constructor, degree, print order
and format, serialization; coeffs_from_entries reads every JSON entry list.

KeyedRealization is the generator engine over such a basis.  A realization
supplies the T_i and pi images of one key, _ti_image(i, key) and
_pi_image(key), and the head split below; the engine checks indices,
defines apply_Ti, apply_Ti_inv and apply_pi once for every realization, and
keeps every per-key image in one memo keyed by (builder, argument, key).
_table(build, arg, key) runs build(M, arg, key) the first time a key is
read and returns the stored entry after that, so table builds and hits
pass one seam.  The builders are module-level functions, never made per
call: ti_entry and pi_entry read the realization's images, tinv_entry
derives T_i^{-1} = q^{-1}(T_i + (q-1)) from the quadratic relation,
derived_entry is the one adapter of an operator defined on whole vectors,
and bqt.polyrep.eps_stage builds an eps_k stage (by the T^{-1} recursion,
or for stage 0 of a partition key on the polynomial module by the
Hall-Littlewood closed form, whose entries are leaves no stage reads).
A T_i^{-1} entry multiplies nothing once its scalars are known: c q^{-1} is
formed once per pooled T_i-image scalar c, and (q-1) q^{-1} once per
realization.
gather puts the pairs (c, m) that land on one output key into one group,
and group_sums sums each group by the ring's lincomb, so each output
coefficient is reduced once.  The relation suites call the same halves to
gather the images of several vectors into shared groups (bqt.relations).

apply_derived(v, op, arg) takes op(M, w, arg), the operator's definition on
whole vectors; derived_entry builds the image of a key the first time it
is needed by running op on the key's basis vector, and every later
application reads that image.  Each such operator is linear on the whole
module, so the linear extension is exact.  The operators tabled this way
are Cherednik's

    Y_i = q^(n-i+1) T_{i-1}..T_1 pi T_{n-1}^{-1}..T_i^{-1}

(bqt.polyrep) and the flavored z_i, d_+, d_- and phi (bqt.lspaces), whose
entry builder checks the commutator against the closed form.

eps_k is tabled by stages rather than by whole images.  A realization
also supplies the head of a key, _head(key, k): its first k exponents
(none for the seed, whose keys carry no polynomial part), and
_join_head(head, key), the key with those exponents replaced.  T_j with
j > k moves only exponents j and j+1, so eps_k of a key is the stage
entry of its tail, the key with the head zeroed, shifted by the head; the
stages of one tail are shared by every head and by the flavors below it
(bqt.polyrep.eps_stage).  The same two methods give the one X_i action.

Every table entry stores its scalar through a per-realization pool keyed by
scalar.pool_key(), so equal coefficients are one object however many keys
and tables they occur in.  A scalar that is already the pool's object is
known by its id and needs no key.

The vector operations that do scalar work can compute each distinct result
once per call, keyed by scalar.value_key(): like pool_key() it is equal
exactly when the scalars are, and it is quicker to build but larger to keep,
so the long-lived pool keeps the compact key.  add and sub form one sum per
distinct pair of values.  Table application and scale take the memo only
when two of the input's coefficients are one object: equal results of an
earlier memoized call, or pooled table scalars, come out shared, so a shared
object marks an input whose values repeat, and the check costs one set of
ids.  On inputs with no shared object (most of the Y-heavy DAHA checks, and
every single-coefficient input) values rarely repeat and the value keys and
signatures cost more than they save, so those calls run the plain fold.
With the memo, scale forms one product per distinct coefficient value, and
table application replaces equal input coefficients by one of them and sums
the (c, m) pairs of an output key only if no earlier output key of the same
call had the same pair objects.  Equal results come out as one object.
These memos are local variables of the call and are dropped when it
returns, so nothing grows across calls.  A memo key may hold the id() of a
scalar only while the memo or the call's inputs keep that scalar alive: the
input vector holds the canonical coefficients and the tables hold the
pooled ones.
"""

from __future__ import annotations

from array import array
from itertools import chain

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


def _repeats(coeffs: dict) -> bool:
    """Whether two of the coefficients are one object, the sign that values repeat."""
    return len(coeffs) > 1 and len(set(map(id, coeffs.values()))) < len(coeffs)


def _signature(pairs: list):
    """The ids of the (c, m) objects of one output group, as a hashable key."""
    if len(pairs) == 1:
        ((c, m),) = pairs
        return (id(c), id(m))
    # one bytes object: a tuple of fresh int objects per group raised the peak RSS
    return array("Q", map(id, chain.from_iterable(pairs))).tobytes()


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
        return self._merged(other, False)

    def sub(self, other):
        if not other.coeffs:
            return self
        return self._merged(other, True)

    def _merged(self, other, negate: bool):
        """self + other, or self - other when negate; one sum per distinct pair of values."""
        out = dict(self.coeffs)
        memo: dict = {}
        for k, c in other.coeffs.items():
            cur = out.get(k)
            if cur is None and not negate:
                out[k] = c
                continue
            vkey = (None if cur is None else cur.value_key(), c.value_key())
            s = memo.get(vkey)
            if s is None:
                s = memo[vkey] = (-c if cur is None else cur - c) if negate else cur + c
            if s.is_zero():
                del out[k]
            else:
                out[k] = s
        return self._like(out)

    def scale(self, c):
        if c.is_zero() or not self.coeffs:
            return self._like({})
        if c.is_one():
            return self
        coeffs = self.coeffs
        if not _repeats(coeffs):
            return self._like({k: v * c for k, v in coeffs.items()})
        classes: dict = {}
        for k, v in coeffs.items():
            classes.setdefault(v.value_key(), []).append(k)
        # the value keys are dropped before any product is formed, so the
        # short-lived keys and the products do not share memory pages
        classes = list(classes.values())
        out = dict.fromkeys(coeffs)
        for ks in classes:
            p = coeffs[ks[0]] * c
            for k in ks:
                out[k] = p
        return self._like(out)

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

    Subclasses set vector_type and implement what depends on the key:
    _ti_image(i, key) and _pi_image(key), the T_i and pi images of one key
    as (key, scalar) pairs, contains_key(key), and the head split
    _head(key, k) and _join_head(head, key).
    """

    vector_type: type

    def __init__(self, n: int, ring, meta: tuple):
        self.n = n
        self.ring = ring
        self.meta = meta
        self._memo: dict[tuple, tuple] = {}
        self._pool: dict = {}
        self._pool_ids: set[int] = set()
        # c q^{-1} by id(c) for each pooled T_i-image scalar c, which the pool keeps alive
        self._over_q: dict[int, object] = {}
        self._qinv = ring.q_power(-1)
        self._tinv_diag = (ring.q - ring.one) * self._qinv
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
        return tuple((k, self._pooled(c)) for k, c in items)

    def _pooled(self, c):
        """The pool's object equal to c; a pooled object is known by its id."""
        if id(c) in self._pool_ids:
            return c
        c = self._pool.setdefault(c.pool_key(), c)
        self._pool_ids.add(id(c))
        return c

    def _table(self, build, arg, key) -> tuple:
        """build(self, arg, key), one key's image pairs, as a table entry built on first use."""
        hit = self._memo.get((build, arg, key))
        if hit is None:
            hit = self._memo[(build, arg, key)] = self._interned(build(self, arg, key))
        return hit

    def apply_Ti(self, v, i: int):
        return self._apply_table(v, self._table, ti_entry, self._t_index(i))

    def apply_Ti_inv(self, v, i: int):
        return self._apply_table(v, self._table, tinv_entry, self._t_index(i))

    def apply_pi(self, v):
        return self._apply_table(v, self._table, pi_entry, None)

    def apply_Xi(self, v, i: int):
        """x_i v: exponent i of every key raised by one."""
        if not 1 <= i <= self.n:
            raise IndexOutOfRange(f"X index {i} outside 1..{self.n}")
        out = {}
        for key, c in v.coeffs.items():
            head = self._head(key, i)
            out[self._join_head(head[:-1] + (head[-1] + 1,), key)] = c
        return self._vec(out)

    def apply_derived(self, v, op, arg):
        """op(self, v, arg) for a linear op, by linear extension of its per-key images.

        Callers check arg before the call, so a bad argument stores nothing.
        """
        return self._apply_table(v, self._table, derived_entry, (op, arg))

    def _apply_table(self, v, table, *args):
        """Linear extension of a per-key table: table(*args, key) per key of v.

        When v's coefficients repeat an object, equal input coefficients are
        replaced by one of them, and table scalars are pooled, so two output
        keys whose (c, m) pairs are the same objects get the same sum; it is
        computed once.  The ids in a signature are those of objects that v
        and the tables hold alive.
        """
        coeffs = v.coeffs
        memo = _repeats(coeffs)
        return self._vec(self.group_sums(self.gather({}, coeffs, table, args, memo), memo))

    @staticmethod
    def gather(groups: dict, coeffs: dict, table, args: tuple = (), memo: bool = False) -> dict:
        """Add the pairs of coeffs under a per-key table to groups: (c, m) to
        groups[k2] for each key's coefficient c and each (k2, m) of table(*args, key).

        With memo, equal coefficients are first replaced by one of them.
        """
        canon: dict = {}
        for key, c in coeffs.items():
            if memo:
                c = canon.setdefault(c.value_key(), c)
            for k2, m in table(*args, key):
                groups.setdefault(k2, []).append((c, m))
        return groups

    def group_sums(self, groups: dict, memo: bool = False) -> dict:
        """k2 -> ring.lincomb(groups[k2]) for each group whose sum is not zero.

        With memo, groups of the same (c, m) objects share one sum.
        """
        lincomb = self.ring.lincomb
        sums: dict = {}
        out = {}
        for k2, pairs in groups.items():
            if memo:
                sig = _signature(pairs)
                s = sums.get(sig)
                if s is None:
                    s = sums[sig] = lincomb(pairs)
            else:
                s = lincomb(pairs)
            if not s.is_zero():
                out[k2] = s
        return out


# The builders of the one memo, each build(M, arg, key) -> one key's image
# pairs.  They are module-level functions, never made per call, so equal
# arguments find the same entry.


def ti_entry(M, i: int, key):
    return M._ti_image(i, key)


def tinv_entry(M, i: int, key):
    """T_i^{-1} = q^{-1}(T_i + (q-1)), from the quadratic relation."""
    over_q = M._over_q
    out = {}
    for k, c in M._table(ti_entry, i, key):
        m = over_q.get(id(c))
        if m is None:
            m = over_q[id(c)] = M._pooled(c * M._qinv)
        out[k] = m
    accumulate(out, key, M._tinv_diag)
    return out.items()


def pi_entry(M, _, key):
    return M._pi_image(key)


def derived_entry(M, op_arg: tuple, key):
    """op(M, basis vector of key, arg) for op_arg = (op, arg): the one adapter of
    an operator defined on whole vectors."""
    op, arg = op_arg
    return op(M, M._vec({key: M.ring.one}), arg).coeffs.items()
