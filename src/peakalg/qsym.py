"""Quasisymmetric functions with exact coefficients, in the monomial (M) and
fundamental (F) bases, for both the ordinary and the signed (typeB) theory.
An element is a sparse exact vector (`linalg.SparseVector`) keyed by
compositions.  A coefficient is an int where it is integral, as in every
peak series and every product or evaluation of one, and a Fraction only
where it is not.  The rank of a span of elements eliminates their
coefficient mappings directly (`linalg.Span`).

Keys are compositions of n (typeB: pseudo-compositions, whose first part may
be zero and exponentiates the extra variable x_0).  Refinement is computed
through the subset dictionary: alpha refines beta iff the partial-sum set of
beta is contained in that of alpha.

The peak series below expand the census generating functions of windows
with a prescribed peak set; their truncated evaluations match the chain
censuses of the enriched module.  The test suite checks this on
exponent-tuple keys, and `verify.check_formulas` on integer-coded keys: it
codes each evaluation once, in the code system of the censuses it is
compared with (`enriched.encode_census`).  The series of one size share
their keys, the compositions of that size, built once beside the bitmasks
that decide which of them a peak set's series holds.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping

from .linalg import SparseVector, Span
from .permutations import (
    FIBONACCI_SHIFT,
    Composition,
    StatSet,
    compositions,
    enumerate_stat_sets,
    fibonacci,
    subsets,
)

Coeffs = dict[Composition, Fraction | int]


class QSymElement(SparseVector):
    """A finitely supported exact-coefficient element in the M or F basis."""

    __slots__ = ("basis", "typeB")
    mismatch = "elements live in different bases or kinds"

    def __init__(self, basis: str, typeB: bool, coeffs: Mapping[Composition, Fraction | int] | None = None):
        if basis not in ("M", "F"):
            raise ValueError(f"unknown basis: {basis}")
        self.basis = basis
        self.typeB = typeB
        super().__init__(coeffs)

    @property
    def space(self) -> tuple[str, bool]:
        return self.basis, self.typeB

    def _check_keys(self, keys: Iterable[Composition]) -> None:
        if any(key.typeB != self.typeB for key in keys):
            raise ValueError("composition kind does not match element kind")

    @classmethod
    def monomial(cls, parts: Iterable[int], typeB: bool = False) -> "QSymElement":
        return cls("M", typeB, {Composition(tuple(parts), typeB): 1})

    @classmethod
    def fundamental(cls, parts: Iterable[int], typeB: bool = False) -> "QSymElement":
        return cls("F", typeB, {Composition(tuple(parts), typeB): 1})

    @classmethod
    def zero(cls, basis: str = "M", typeB: bool = False) -> "QSymElement":
        return cls(basis, typeB)

    @classmethod
    def one(cls, basis: str = "M", typeB: bool = False) -> "QSymElement":
        return cls(basis, typeB, {Composition((), typeB): 1})

    def degrees(self) -> set[int]:
        return {key.degree for key in self.coeffs}

    def degree(self) -> int:
        degrees = self.degrees()
        if len(degrees) != 1:
            raise ValueError("element is zero or inhomogeneous")
        return degrees.pop()

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = sorted(self.coeffs.items(), key=lambda kv: (kv[0].degree, kv[0].parts))
        bits = []
        for key, value in terms:
            basis = self.basis + ("B" if self.typeB else "")
            bits.append(f"{value}*{basis}{key}")
        return " + ".join(bits)


# ---------------------------------------------------------------------------
# Basis change: F_alpha = sum over refinements beta of M_beta, and its
# inclusion-exclusion inverse.


def _refine(element: QSymElement, source: str, target: str, sign: int) -> QSymElement:
    """Send each key to the sum of its refinements beta, each with the
    coefficient sign^(number of split points beta adds)."""
    if element.basis != source:
        raise ValueError(f"expected an element of the {source} basis, got the {element.basis} basis")
    out: Coeffs = {}
    for key, value in element.coeffs.items():
        n, base = key.degree, key.to_subset()
        free = [i for i in range(0 if key.typeB else 1, n) if i not in base]
        for added in subsets(free):
            beta = Composition.from_subset(base.union(added), n, key.typeB)
            out[beta] = out.get(beta, 0) + sign ** len(added) * value
    return QSymElement(target, element.typeB, out)


def f_to_m(element: QSymElement) -> QSymElement:
    """Rewrite an F-basis element in the M basis."""
    return _refine(element, "F", "M", 1)


def m_to_f(element: QSymElement) -> QSymElement:
    """Rewrite an M-basis element in the F basis (inclusion-exclusion)."""
    return _refine(element, "M", "F", -1)


# ---------------------------------------------------------------------------
# Peak series


@lru_cache(maxsize=None)
def _subset_terms(n: int, typeB: bool) -> tuple[tuple[Composition, int, int, int], ...]:
    """Per subset E of the positions of a size-n peak series, in `subsets`
    order: the composition whose partial sums are E (the compositions of n
    list their partial-sum sets in the same order), and E's cover
    E union (E+1), its boundary E symmetric-difference (E+1) and its size,
    the sets as bitmasks over positions.  Built once per size and kind."""
    terms = []
    for chosen, key in zip(subsets(range(0 if typeB else 1, n)), compositions(n, typeB), strict=True):
        mask = sum(1 << i for i in chosen)
        terms.append((key, mask | mask << 1, mask ^ mask << 1, len(chosen)))
    return tuple(terms)


def peak_series(members: Iterable[int], n: int, typeB: bool = False, basis: str = "M") -> QSymElement:
    """The census series shared by all windows with the given peak set.

    Ordinary (interior peak sets): E ranges inside [1, n-1].  In the M basis
    the sum is over E whose cover E union (E+1) contains the peak set, with
    coefficient 2^(|E|+1); in the F basis over D whose boundary
    D symmetric-difference (D+1) contains it, with coefficient 2^(|peaks|+1).
    Signed (typeB, over pseudo-compositions): E ranges inside [0, n-1] and
    each exponent drops by one, 2^|E| and 2^|peaks|.  Signed sets avoiding 0
    are exactly the series of windows whose leftmost-anchored peak set has
    no peak at 0.  Containment is read off the bitmasks of `_subset_terms`."""
    if basis not in ("M", "F"):
        raise ValueError(f"unknown basis: {basis}")
    peaks = StatSet.of("typeBPeak" if typeB else "interiorPeak", n, members).members
    lowest = 0 if typeB else 1
    mask = sum(1 << p for p in peaks)
    terms = _subset_terms(n, typeB)
    if basis == "M":
        out = {key: 2 ** (size + lowest) for key, cover, _, size in terms if not mask & ~cover}
    else:
        coefficient = 2 ** (len(peaks) + lowest)
        out = {key: coefficient for key, _, boundary, _ in terms if not mask & ~boundary}
    return QSymElement(basis, typeB, out)


# ---------------------------------------------------------------------------
# Quasi-shuffle product (M basis)


def _quasi_shuffles(a: tuple[int, ...], b: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    if not a:
        return {b: 1}
    if not b:
        return {a: 1}
    out: dict[tuple[int, ...], int] = {}

    def absorb(head: int, tails: dict[tuple[int, ...], int]) -> None:
        for tail, count in tails.items():
            key = (head,) + tail
            out[key] = out.get(key, 0) + count

    absorb(a[0], _quasi_shuffles(a[1:], b))
    absorb(b[0], _quasi_shuffles(a, b[1:]))
    absorb(a[0] + b[0], _quasi_shuffles(a[1:], b[1:]))
    return out


def _head_tail(key: Composition) -> tuple[int, tuple[int, ...]]:
    """(exponent of x_0, the parts that quasi-shuffle): a pseudo-composition's
    first part (0 for the empty one) and the rest; 0 and every part of a
    composition."""
    if key.typeB and key.parts:
        return key.parts[0], key.parts[1:]
    return 0, key.parts


def quasi_shuffle(x: QSymElement, y: QSymElement) -> QSymElement:
    """The M-basis product.  For the signed kind the mandatory first parts
    (the x_0 exponents) add, and the remaining parts quasi-shuffle."""
    x._compatible(y)
    if x.basis != "M":
        raise ValueError("quasi_shuffle works in the M basis")
    out: Coeffs = {}
    for ka, va in x.coeffs.items():
        head_a, tail_a = _head_tail(ka)
        for kb, vb in y.coeffs.items():
            head_b, tail_b = _head_tail(kb)
            value = va * vb
            for tail, count in _quasi_shuffles(tail_a, tail_b).items():
                key = Composition((head_a + head_b, *tail) if x.typeB else tail, x.typeB)
                out[key] = out.get(key, 0) + value * count
    return QSymElement("M", x.typeB, out)


# ---------------------------------------------------------------------------
# Rank computation and truncated evaluation


def rank_of_span(elements: Iterable[QSymElement]) -> int:
    """Exact rank over the rationals of the coefficient matrix."""
    elements = list(elements)
    if len({e.space for e in elements}) > 1:
        raise ValueError(QSymElement.mismatch)
    return Span(e.coeffs for e in elements).dim


def series_ranks(flavor: str, n: int) -> tuple[int, int, int]:
    """(number of peak sets, rank of their peak series, the Fibonacci number
    both should equal) for one flavor with a series, at size n."""
    sets = enumerate_stat_sets(n, flavor)
    series = [peak_series(s.members, n, typeB=flavor != "interiorPeak") for s in sets]
    return len(sets), rank_of_span(series), fibonacci(n + FIBONACCI_SHIFT[flavor])


def evaluate(element: QSymElement, k: int) -> dict[tuple[int, ...], Fraction | int]:
    """Truncated polynomial evaluation in k positive variables (plus x_0 for
    the signed kind).  Keys are exponent tuples indexed 0..k, matching the
    census keys of the enriched module."""
    if k < 0:
        raise ValueError(f"number of variables must be nonnegative, got {k}")
    if element.basis != "M":
        element = f_to_m(element)
    out: dict[tuple[int, ...], Fraction | int] = {}
    for key, value in element.coeffs.items():
        head, tail = _head_tail(key)
        for support in itertools.combinations(range(1, k + 1), len(tail)):
            exponents = [0] * (k + 1)
            exponents[0] = head
            for variable, power in zip(support, tail):
                exponents[variable] = power
            key_out = tuple(exponents)
            out[key_out] = out.get(key_out, 0) + value
    return {key: value for key, value in out.items() if value}


def polynomial_product(
    p: Mapping[tuple[int, ...], Fraction | int], q: Mapping[tuple[int, ...], Fraction | int]
) -> dict[tuple[int, ...], Fraction | int]:
    """Product of two truncated evaluations (exponent-keyed polynomials)."""
    out: dict[tuple[int, ...], Fraction | int] = {}
    for ka, va in p.items():
        for kb, vb in q.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            out[key] = out.get(key, 0) + va * vb
    return {key: value for key, value in out.items() if value}
