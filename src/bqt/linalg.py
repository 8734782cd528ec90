"""Exact linear algebra over the scalar rings.

Vectors are plain dicts from hashable, mutually comparable keys to scalars.
RowBasis keeps a reduced echelon family with a cost-aware pivot rule: when a
new row is inserted its pivot is the entry whose coefficient has the
smallest (numerator degree, term count) footprint, which keeps the rational
function entries from blowing up during elimination.  Rows are kept as
reduced, not divided by their pivot coefficient; eliminating by a row
divides only the coefficient it cancels by that pivot coefficient, which
gives the same exact results as normalized rows without a product per row
entry.  All choices are deterministic, so ranks, coordinates, and solved
combinations are reproducible run to run.
"""

from __future__ import annotations


class RowBasis:
    """Growing echelon basis with coordinate tracking.

    Each stored row is (pivot_key, entries, coords) where entries is the
    inserted vector as reduced, entries[pivot_key] its pivot coefficient,
    and coords expresses the row in terms of the inserted vectors.
    """

    def __init__(self):
        self.rows: list[tuple[object, dict, dict[int, object]]] = []
        self.count = 0  # vectors offered so far, successful or not

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce(self, vec: dict, coords: dict[int, object]) -> tuple[dict, dict]:
        vec = dict(vec)
        for pivot, row, row_coords in self.rows:
            c = vec.get(pivot)
            if c is None or c.is_zero():
                continue
            c = c / row[pivot]
            for k, v in row.items():
                cur = vec.get(k)
                s = -(c * v) if cur is None else cur - c * v
                if s.is_zero():
                    vec.pop(k, None)
                else:
                    vec[k] = s
            for j, v in row_coords.items():
                cur = coords.get(j)
                s = -(c * v) if cur is None else cur - c * v
                if s.is_zero():
                    coords.pop(j, None)
                else:
                    coords[j] = s
        return vec, coords

    def insert(self, vec: dict) -> bool:
        """Offer a vector; True if it enlarged the span."""
        idx = self.count
        self.count += 1
        vec = {k: v for k, v in vec.items() if not v.is_zero()}
        if not vec:
            return False
        vec, coords = self._reduce(vec, {idx: _one_like(vec)})
        vec = {k: v for k, v in vec.items() if not v.is_zero()}
        if not vec:
            return False
        pivot = min(vec, key=lambda k: (*vec[k].pivot_cost(), k))
        self.rows.append((pivot, vec, coords))
        return True

    def residual(self, vec: dict) -> dict:
        res, _ = self._reduce(vec, {})
        return {k: v for k, v in res.items() if not v.is_zero()}

    def contains(self, vec: dict) -> bool:
        return not self.residual(vec)

    def solve(self, vec: dict) -> dict[int, object] | None:
        """Coordinates of vec in terms of the inserted vectors, or None.

        Only meaningful when every offered vector was accepted (independent
        family); the returned map sends insertion index to coefficient.
        """
        res, coords = self._reduce(vec, {})
        if any(not v.is_zero() for v in res.values()):
            return None
        return {j: -c for j, c in coords.items() if not c.is_zero()}


def _one_like(vec: dict):
    some = next(iter(vec.values()))
    return some / some if not some.is_zero() else some


def solve_combination(columns: list[dict], target: dict):
    """Exact x with sum_j x_j columns[j] = target, or None.

    Dependent columns are fine; coefficients of redundant columns are zero.
    Deterministic: the particular solution uses the first independent
    subfamily in list order.
    """
    basis = RowBasis()
    for col in columns:
        basis.insert(col)
    sol = basis.solve(target)
    if sol is None:
        return None
    out = [None] * len(columns)
    for j in range(len(columns)):
        out[j] = sol.get(j)
    return out
