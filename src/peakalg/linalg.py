"""Exact sparse vectors over the rationals and their spans.

A vector is a mapping from keys to ints or Fractions; an absent key is a
zero coordinate, and the keys need no order.  `exact` is the coefficient
rule of the element classes: an int where the value is integral, a Fraction
only where it is not.  `SparseVector` holds that rule and the arithmetic the
element classes share; `Span` eliminates over sparse pivot rows.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Hashable, Iterable, Mapping


def exact(value: Fraction | int) -> Fraction | int:
    """The value as an int when it is integral, else as a Fraction."""
    if isinstance(value, int):
        return value
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


class SparseVector:
    """A finitely supported vector of exact coefficients, stored by the
    `exact` rule with zeros dropped.  A subclass defines `space`, the tuple
    of its constructor arguments before the coefficients, `_check_keys`,
    which raises ValueError for a key outside that space, and its products;
    sums, scalar multiples and equality hold only within one space."""

    __slots__ = ("coeffs",)
    #: the message of the error raised when vectors of two spaces meet
    mismatch = "vectors live in different spaces"

    def __init__(self, coeffs: Mapping | None = None):
        coeffs = coeffs or {}
        self._check_keys(coeffs)
        self.coeffs: dict = {}
        for key, value in coeffs.items():
            value = exact(value)
            if value:
                self.coeffs[key] = value

    def _like(self, coeffs: Mapping) -> "SparseVector":
        return type(self)(*self.space, coeffs)

    def _compatible(self, other: "SparseVector") -> None:
        if type(other) is not type(self) or self.space != other.space:
            raise ValueError(self.mismatch)

    def __add__(self, other: "SparseVector") -> "SparseVector":
        self._compatible(other)
        out = dict(self.coeffs)
        for key, value in other.coeffs.items():
            out[key] = out.get(key, 0) + value
        return self._like(out)

    def __sub__(self, other: "SparseVector") -> "SparseVector":
        return self + other.scale(-1)

    def scale(self, c: Fraction | int) -> "SparseVector":
        c = exact(c)
        return self._like({k: c * v for k, v in self.coeffs.items()})

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self.space == other.space and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.space, frozenset(self.coeffs.items())))

    def is_zero(self) -> bool:
        return not self.coeffs


class Span:
    """An incrementally built subspace kept as sparse pivot rows.

    `rows` maps each row's pivot key to the row, in the order the rows were
    added.  A row is nonzero at its own pivot, and every later row is zero
    there, so reducing a vector against the rows in that order clears every
    pivot in turn: the rows are independent, and the residual is zero
    exactly when the vector lies in the span."""

    def __init__(self, vectors: Iterable[Mapping] = ()) -> None:
        self.rows: dict[Hashable, dict[Hashable, Fraction | int]] = {}
        for v in vectors:
            self.add(v)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, v: Mapping) -> dict[Hashable, Fraction | int]:
        """The residual of v after elimination against the current rows,
        without its zero coordinates."""
        r = {key: x for key, x in v.items() if x}
        for pivot, row in self.rows.items():
            c = r.get(pivot)
            if c:
                c = exact(Fraction(c, row[pivot]))
                for key, y in row.items():
                    x = r.get(key, 0) - c * y
                    if x:
                        r[key] = x
                    else:
                        del r[key]
        return r

    def contains(self, v: Mapping) -> bool:
        return not self.reduce(v)

    def add(self, v: Mapping) -> bool:
        """Add v to the span; returns True if it enlarged the space.  The new
        row is the residual, pivoted at its first nonzero key."""
        r = self.reduce(v)
        if r:
            self.rows[next(iter(r))] = r
        return bool(r)
