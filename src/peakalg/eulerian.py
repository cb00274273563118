"""Counting polynomials for enriched maps, and the peak-number subalgebra.

For a window p, the number of enriched maps into the signed alphabet with 2k
letters extends to a degree-n polynomial in k; it depends only on the number
of interior peaks of p.  Packaging the half-argument polynomials of all
windows into a single generating polynomial with group-algebra coefficients
yields coefficients that are mutually orthogonal idempotents; their span is
the span of the peak-number class sums.  The coefficients are kept by
interior peak count, and one report, `verify_rho_multiplicativity`, decides
their multiplicativity, that span and the commutativity of the class sums in
those coordinates: no dense product or elimination over the group is formed.

The battery at the bottom sweeps the statistics whose class sums do NOT span
a convolution-closed subspace, recording a concrete witness at the smallest
group rank where closure breaks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .alphabets import Alphabet
from .enriched import epp_count
from .group_algebra import (
    AlgebraElement,
    class_sums,
    closure_check,
    factorization_counts,
    multiplicative_closure,
    stat_classes,
)
from .linalg import Span
from .permutations import enumerate_group, peak_set


@dataclass(frozen=True)
class RationalPolynomial:
    """Exact univariate polynomial, coefficients ascending, trailing nonzero."""

    coefficients: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(Fraction(c) for c in self.coefficients)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coefficients", coeffs)

    @classmethod
    def zero(cls) -> "RationalPolynomial":
        return cls(())

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coefficients) - 1

    def coefficient(self, d: int) -> Fraction:
        if 0 <= d < len(self.coefficients):
            return self.coefficients[d]
        return Fraction(0)

    def evaluate(self, x: Fraction | int) -> Fraction:
        x = Fraction(x)
        out = Fraction(0)
        for c in reversed(self.coefficients):
            out = out * x + c
        return out

    def __add__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        size = max(len(self.coefficients), len(other.coefficients))
        return RationalPolynomial(
            tuple(self.coefficient(d) + other.coefficient(d) for d in range(size))
        )

    def __sub__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        return self + other.scale(-1)

    def scale(self, c: Fraction | int) -> "RationalPolynomial":
        c = Fraction(c)
        return RationalPolynomial(tuple(c * v for v in self.coefficients))

    def __mul__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        if not self.coefficients or not other.coefficients:
            return RationalPolynomial.zero()
        out = [Fraction(0)] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, a in enumerate(self.coefficients):
            for j, b in enumerate(other.coefficients):
                out[i + j] += a * b
        return RationalPolynomial(tuple(out))

    def substitute_scaled(self, factor: Fraction | int) -> "RationalPolynomial":
        """p(factor * x) as a polynomial in x."""
        factor = Fraction(factor)
        return RationalPolynomial(
            tuple(c * factor**d for d, c in enumerate(self.coefficients))
        )

    @classmethod
    def interpolate(cls, points: Sequence[tuple[int, int | Fraction]]) -> "RationalPolynomial":
        """The unique polynomial of degree < len(points) through the points
        (Lagrange form, exact arithmetic)."""
        xs = [Fraction(x) for x, _ in points]
        if len(set(xs)) != len(xs):
            raise ValueError("interpolation nodes must be distinct")
        total = cls.zero()
        for i, (_, y) in enumerate(points):
            term = cls((Fraction(y),))
            for j, xj in enumerate(xs):
                if j == i:
                    continue
                scale = Fraction(1, xs[i] - xj)
                term = term * cls((-xj * scale, scale))
            total = total + term
        return total


# ---------------------------------------------------------------------------
# Order polynomials


def realized_peak_counts(n: int) -> list[int]:
    return sorted(stat_classes(n, "A", "interiorPeak", mode="number"))


def order_polynomial(peaks: int, n: int) -> RationalPolynomial:
    """The degree-n polynomial whose value at each k >= 0 counts enriched maps
    of any n-window with the given number of interior peaks into the signed
    alphabet on 2k letters.  Built by interpolation at k = 0..n."""
    if n < 1:
        raise ValueError("window size must be at least 1")
    if not 0 <= peaks <= (n - 1) // 2:
        raise ValueError(f"no window of size {n} has {peaks} interior peaks")
    representative = next(
        p for p in enumerate_group(n, "A") if len(peak_set(p, "interiorPeak").members) == peaks
    )
    points = [(k, epp_count(representative, Alphabet.prime(k))) for k in range(n + 1)]
    return RationalPolynomial.interpolate(points)


# ---------------------------------------------------------------------------
# The generating polynomial and its idempotent coefficients


def rho_by_peak_count(n: int) -> list[dict[int, Fraction]]:
    """The coefficients of rho by degree in the formal variable: entry d maps
    each realized interior peak count i to the degree-d coefficient of the
    half-argument order polynomial of i-peak windows."""
    polys = {i: order_polynomial(i, n).substitute_scaled(Fraction(1, 2)) for i in realized_peak_counts(n)}
    return [{i: poly.coefficient(d) for i, poly in polys.items()} for d in range(n + 1)]


def _peak_count_combination(n: int, coefficients: dict[int, Fraction]) -> AlgebraElement:
    """sum_i coefficients[i] * v_i over the interior peak-number class sums."""
    classes = stat_classes(n, "A", "interiorPeak", mode="number")
    return AlgebraElement(n, "A", {r: coefficients[i] for i, ranks in classes.items() for r in ranks})


def rho(n: int) -> tuple[AlgebraElement, ...]:
    """Sum over all n-windows of the half-argument order polynomial times the
    window, collected by degree in the formal variable: its coefficients,
    ascending by degree."""
    return tuple(_peak_count_combination(n, c) for c in rho_by_peak_count(n))


def parity_degrees(n: int) -> list[int]:
    """The degrees allowed to carry nonzero coefficients: even degrees 2i for
    even n, odd degrees 2i-1 for odd n, i = 1..floor((n+1)/2)."""
    if n % 2 == 0:
        return [2 * i for i in range(1, n // 2 + 1)]
    return [2 * i - 1 for i in range(1, (n + 1) // 2 + 1)]


def rho_idempotents(n: int) -> list[AlgebraElement]:
    """The coefficients of rho at the allowed-parity degrees, ascending."""
    elements = rho(n)
    return [elements[d] for d in parity_degrees(n)]


def verify_rho_multiplicativity(n: int) -> dict:
    """Expand the product of two copies of rho in independent variables and
    compare coefficientwise with rho at the product variable: the (a,b)
    coefficient must be the degree-a coefficient when a=b and zero otherwise.
    Equivalently the nonzero coefficients are orthogonal idempotents.

    Every coefficient is a combination of peak-number class sums, so at each
    window p the product of the degree-a and degree-b coefficients is
    sum c_a(A) c_b(B) N_p(A, B), with N_p the factorization counts of p by
    peak-count pair.  Windows with the same peak count and the same counts
    agree, so each such profile is checked once.  The same profiles decide
    whether the peak-number class sums commute: v_i * v_j = v_j * v_i exactly
    when N_p(i, j) = N_p(j, i) at every window p.

    The class sums have disjoint supports, so the allowed-degree
    coefficients span the same space as the class sums exactly when their
    rows of peak-count coefficients form a square matrix of full rank."""
    by_count = rho_by_peak_count(n)
    degrees = [d for d, c in enumerate(by_count) if any(c.values())]
    allowed = parity_degrees(n)
    rows = Span(by_count[d] for d in allowed)
    parity_ok = all(d in allowed for d in degrees)
    profiles = {
        (
            len(peak_set(p, "interiorPeak").members),
            frozenset(factorization_counts(p, "interiorPeak", "number").items()),
        )
        for p in enumerate_group(n, "A")
    }
    failing = set()
    for peaks, counts in profiles:
        for a in degrees:
            for b in degrees:
                product = sum(by_count[a][i] * by_count[b][j] * times for (i, j), times in counts)
                if product != (by_count[a][peaks] if a == b else 0):
                    failing.add((a, b))
    # the coefficients sum to sum_i total[i] * v_i, the identity exactly when
    # only peak count 0 has a nonzero total, that total is 1, and its class
    # is the identity (rank 0) alone
    total = {i: sum(by_count[d][i] for d in degrees) for i in by_count[0]}
    identity_alone = stat_classes(n, "A", "interiorPeak", mode="number")[0] == [0]
    return {
        "n": n,
        "multiplicative": parity_ok and not failing,
        "parity_ok": parity_ok,
        "degrees": degrees,
        "mismatches": [(a, b) for a in degrees for b in degrees if (a, b) in failing],
        "sum_equals_identity": [i for i, t in total.items() if t] == [0] and total[0] == 1 and identity_alone,
        "commutative": all(counts == {((j, i), times) for (i, j), times in counts} for _, counts in profiles),
        "spans_classes": len(allowed) == len(by_count[0]) == rows.dim,
    }


# ---------------------------------------------------------------------------
# The battery of non-closing statistics


#: (kind, statistic flavor, set-or-number mode) for every statistic whose
#: class-sum span fails convolution closure; leftPeak on signed windows reads
#: positions 1..n-1, i.e. peaks strictly inside the window with 0 ignored.
BATTERY_STATISTICS: tuple[tuple[str, str, str], ...] = (
    ("A", "rightPeak", "set"),
    ("A", "exteriorPeak", "set"),
    ("B", "leftPeak", "set"),
    ("B", "leftPeak", "number"),
    ("B", "exteriorPeak", "set"),
    ("B", "exteriorPeak", "number"),
)

#: per-kind default search bounds for the battery sweep
BATTERY_CAPS = {"A": 6, "B": 5}


def negative_battery(n_max: int = 6) -> list[dict]:
    """Sweep each battery statistic from n=1 upward and record the first size
    where the class-sum span is not closed, with the witness certificate and
    the dimension the span grows to under products.  A statistic that stays
    closed through its bound is flagged, since every one of them is expected
    to fail.  The ordinary interior statistic is appended as a closed control.
    """
    reports = []
    for kind, flavor, mode in BATTERY_STATISTICS:
        bound = min(n_max, BATTERY_CAPS[kind])
        report = {
            "statistic": f"{kind}:{flavor}:{mode}",
            "kind": kind,
            "flavor": flavor,
            "mode": mode,
            "control": False,
            "n": bound,
            "closed": True,
        }
        for n in range(1, bound + 1):
            check = closure_check(n, kind, flavor, mode)
            if not check["closed"]:
                grown = multiplicative_closure(
                    list(class_sums(n, kind, flavor, mode).values())
                )
                report.update(
                    {
                        "n": n,
                        "closed": False,
                        "witness": check["certificate"],
                        "spanDim": check["dim"],
                        "closureDim": grown["dim_closure"],
                    }
                )
                break
        if report["closed"]:
            report["flag"] = "closure unexpectedly held through the bound"
        reports.append(report)

    control_bound = min(n_max, 5)
    control = {
        "statistic": "A:interiorPeak:set",
        "kind": "A",
        "flavor": "interiorPeak",
        "mode": "set",
        "control": True,
        "n": control_bound,
        "closed": all(
            closure_check(n, "A", "interiorPeak")["closed"] for n in range(1, control_bound + 1)
        ),
    }
    reports.append(control)
    return reports
