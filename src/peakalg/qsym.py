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

The peak functions below expand the census generating functions of windows
with a prescribed peak set; their truncated evaluations match the chain
censuses of the enriched module, which is what the test suite checks.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from typing import Iterable, Mapping

from .linalg import SparseVector, Span
from .permutations import Composition, StatSet

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

    def is_homogeneous(self) -> bool:
        return len(self.degrees()) <= 1

    def degree(self) -> int:
        degrees = self.degrees()
        if len(degrees) != 1:
            raise ValueError("element is zero or inhomogeneous")
        return degrees.pop()

    def integer_coefficients(self) -> bool:
        return all(v.denominator == 1 for v in self.coeffs.values())

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = sorted(self.coeffs.items(), key=lambda kv: (kv[0].degree, kv[0].parts))
        bits = []
        for key, value in terms:
            basis = self.basis + ("B" if self.typeB else "")
            bits.append(f"{value}*{basis}{key}")
        return " + ".join(bits)

    # -- serialization -------------------------------------------------------

    def to_json(self) -> str:
        terms = [
            {"parts": list(key.parts), "coeff": str(value)}
            for key, value in sorted(self.coeffs.items(), key=lambda kv: (kv[0].degree, kv[0].parts))
        ]
        return json.dumps({"basis": self.basis, "typeB": self.typeB, "terms": terms})

    @classmethod
    def from_json(cls, text: str) -> "QSymElement":
        data = json.loads(text)
        coeffs = {
            Composition(tuple(term["parts"]), data["typeB"]): Fraction(term["coeff"])
            for term in data["terms"]
        }
        return cls(data["basis"], data["typeB"], coeffs)


# ---------------------------------------------------------------------------
# Basis change: F_alpha = sum over refinements beta of M_beta, and its
# inclusion-exclusion inverse.


def _refinements(key: Composition) -> list[tuple[Composition, int]]:
    """(beta, extra) for every refinement beta of key, where extra is the
    number of added split points."""
    n = key.degree
    lo = 0 if key.typeB else 1
    base = key.to_subset()
    free = [i for i in range(lo, n) if i not in base]
    out = []
    for size in range(len(free) + 1):
        for added in itertools.combinations(free, size):
            beta = Composition.from_subset(base | set(added), n, key.typeB)
            out.append((beta, size))
    return out


def _refine(element: QSymElement, source: str, target: str, sign: int) -> QSymElement:
    """Send each key to the sum of its refinements, each with the coefficient
    sign^(number of added split points)."""
    if element.basis != source:
        raise ValueError(f"expected an element of the {source} basis, got the {element.basis} basis")
    out: Coeffs = {}
    for key, value in element.coeffs.items():
        for beta, extra in _refinements(key):
            out[beta] = out.get(beta, 0) + sign**extra * value
    return QSymElement(target, element.typeB, out)


def f_to_m(element: QSymElement) -> QSymElement:
    """Rewrite an F-basis element in the M basis."""
    return _refine(element, "F", "M", 1)


def m_to_f(element: QSymElement) -> QSymElement:
    """Rewrite an M-basis element in the F basis (inclusion-exclusion)."""
    return _refine(element, "M", "F", -1)


# ---------------------------------------------------------------------------
# Peak functions


def _validated_members(members: Iterable[int], n: int, flavor: str) -> frozenset[int]:
    return StatSet.of(flavor, n, members).members


def peak_series(members: Iterable[int], n: int, typeB: bool = False, basis: str = "M") -> QSymElement:
    """The census series shared by all windows with the given peak set.

    Ordinary (interior peak sets): E ranges inside [1, n-1].  In the M basis
    the sum is over E whose cover E union (E+1) contains the peak set, with
    coefficient 2^(|E|+1); in the F basis over D whose boundary
    D symmetric-difference (D+1) contains it, with coefficient 2^(|peaks|+1).
    Signed (typeB, over pseudo-compositions): E ranges inside [0, n-1] and
    each exponent drops by one, 2^|E| and 2^|peaks|.  Signed sets avoiding 0
    are exactly the series of windows whose leftmost-anchored peak set has
    no peak at 0."""
    if basis not in ("M", "F"):
        raise ValueError(f"unknown basis: {basis}")
    peaks = _validated_members(members, n, "typeBPeak" if typeB else "interiorPeak")
    lowest = 0 if typeB else 1
    out: Coeffs = {}
    for size in range(n - lowest + 1):
        for chosen in itertools.combinations(range(lowest, n), size):
            shifted = {i + 1 for i in chosen}
            if basis == "M" and peaks <= set(chosen) | shifted:
                coefficient = 2 ** (size + lowest)
            elif basis == "F" and peaks <= set(chosen) ^ shifted:
                coefficient = 2 ** (len(peaks) + lowest)
            else:
                continue
            out[Composition.from_subset(chosen, n, typeB=typeB)] = coefficient
    return QSymElement(basis, typeB, out)


def peak_function(members: Iterable[int], n: int) -> QSymElement:
    return peak_series(members, n)


def peak_function_F(members: Iterable[int], n: int) -> QSymElement:
    return peak_series(members, n, basis="F")


def peak_function_b(members: Iterable[int], n: int) -> QSymElement:
    return peak_series(members, n, typeB=True)


def peak_function_b_F(members: Iterable[int], n: int) -> QSymElement:
    return peak_series(members, n, typeB=True, basis="F")


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


def quasi_shuffle(x: QSymElement, y: QSymElement) -> QSymElement:
    """The M-basis product.  For the signed kind the mandatory first parts
    (the x_0 exponents) add, and the remaining parts quasi-shuffle."""
    x._compatible(y)
    if x.basis != "M":
        raise ValueError("quasi_shuffle works in the M basis")
    out: Coeffs = {}
    for ka, va in x.coeffs.items():
        for kb, vb in y.coeffs.items():
            value = va * vb
            if x.typeB:
                first_a = ka.parts[0] if ka.parts else 0
                first_b = kb.parts[0] if kb.parts else 0
                shuffles = _quasi_shuffles(ka.parts[1:] if ka.parts else (), kb.parts[1:] if kb.parts else ())
                for tail, count in shuffles.items():
                    key = Composition((first_a + first_b,) + tail, True)
                    out[key] = out.get(key, 0) + value * count
            else:
                for parts, count in _quasi_shuffles(ka.parts, kb.parts).items():
                    key = Composition(parts, False)
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


def evaluate(element: QSymElement, k: int) -> dict[tuple[int, ...], Fraction | int]:
    """Truncated polynomial evaluation in k positive variables (plus x_0 for
    the signed kind).  Keys are exponent tuples indexed 0..k, matching the
    census keys of the enriched module."""
    if element.basis != "M":
        element = f_to_m(element)
    out: dict[tuple[int, ...], Fraction | int] = {}
    for key, value in element.coeffs.items():
        parts = key.parts
        if element.typeB:
            head, tail = (parts[0], parts[1:]) if parts else (0, ())
        else:
            head, tail = 0, parts
        for support in itertools.combinations(range(1, k + 1), len(tail)):
            exponents = [0] * (k + 1)
            exponents[0] = head
            for variable, power in zip(support, tail):
                exponents[variable] = power
            key_out = tuple(exponents)
            out[key_out] = out.get(key_out, 0) + value
    return {key: value for key, value in out.items() if value}


def evaluate_at_zero(element: QSymElement, k: int) -> dict[tuple[int, ...], Fraction | int]:
    """Truncated evaluation with the extra signed variable x_0 set to zero."""
    return {key: value for key, value in evaluate(element, k).items() if key[0] == 0}


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
