"""Exact linear algebra over the rationals: row echelon, rank, span queries.

Vectors are sequences of ints or Fractions; everything is computed exactly.
`exact` is the coefficient rule of the element classes: an int where the
value is integral, a Fraction only where it is not.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Vector = Sequence[Fraction | int]


def exact(value: Fraction | int) -> Fraction | int:
    """The value as an int when it is integral, else as a Fraction."""
    if isinstance(value, int):
        return value
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _pivot(row: list[Fraction]) -> int:
    for i, x in enumerate(row):
        if x:
            return i
    return -1


class Span:
    """An incrementally built subspace of Q^m kept in row-echelon form."""

    def __init__(self, vectors: Iterable[Vector] = ()) -> None:
        self.rows: list[list[Fraction]] = []
        for v in vectors:
            self.add(v)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, v: Vector) -> list[Fraction]:
        """The residual of v after elimination against the current basis."""
        r = [Fraction(x) for x in v]
        for row in self.rows:
            p = _pivot(row)
            if r[p]:
                c = r[p] / row[p]
                r = [x - c * y for x, y in zip(r, row)]
        return r

    def contains(self, v: Vector) -> bool:
        return not any(self.reduce(v))

    def add(self, v: Vector) -> bool:
        """Add v to the span; returns True if it enlarged the space."""
        r = self.reduce(v)
        if any(r):
            self.rows.append(r)
            self.rows.sort(key=_pivot)
            return True
        return False


def rank(vectors: Iterable[Vector]) -> int:
    return Span(vectors).dim


def in_span(v: Vector, vectors: Iterable[Vector]) -> bool:
    return Span(vectors).contains(v)
