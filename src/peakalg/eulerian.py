"""Counting polynomials for enriched maps, and the peak-number subalgebra.

For a window p, the number of enriched maps into the signed alphabet with 2k
letters extends to a degree-n polynomial in k; it depends only on the number
of interior peaks of p.  The polynomial is built in integers: the forward
differences of its counts at k = 0..n are integers, so n! times it has
integer coefficients, read off Newton's forward-difference form.  Packaging
the half-argument polynomials of all windows into a single generating
polynomial with group-algebra coefficients yields coefficients that are
mutually orthogonal idempotents; their span is the span of the peak-number
class sums.  The coefficients are kept by interior peak count, the degree-d
one an integer over n! * 2^d, and one report, `verify_rho_multiplicativity`,
decides their multiplicativity, that span and the commutativity of the class
sums in those coordinates, on integers over one common denominator: no dense
product or elimination over the group is formed.

The battery at the bottom sweeps the statistics whose class sums do NOT span
a convolution-closed subspace, recording a concrete witness at the smallest
group rank where closure breaks.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import factorial, lcm
from typing import Iterable, Mapping, Sequence

from .alphabets import Alphabet
from .enriched import epp_count
from .group_algebra import (
    AlgebraElement,
    _cells,
    _partition,
    closure_check,
    factorization_counts,
    multiplicative_closure,
    stat_classes,
)
from .linalg import SparseVector, Span, exact
from .permutations import unrank


class RationalPolynomial(SparseVector):
    """Exact univariate polynomial: a sparse vector keyed by degree, built
    from its coefficients in ascending order.  Its coefficients follow the
    `linalg.exact` rule, and sums, multiples and equality are the vector's."""

    __slots__ = ()
    space = ()

    def __init__(self, coefficients: Iterable[Fraction | int] = ()):
        super().__init__(dict(enumerate(coefficients)))

    def _check_keys(self, keys: Iterable[int]) -> None:
        pass  # every key is a position of the coefficient sequence

    def _like(self, coeffs: Mapping[int, Fraction | int]) -> "RationalPolynomial":
        return RationalPolynomial(coeffs.get(d, 0) for d in range(max(coeffs, default=-1) + 1))

    @classmethod
    def zero(cls) -> "RationalPolynomial":
        return cls()

    @property
    def coefficients(self) -> tuple[Fraction | int, ...]:
        """Ascending, up to the leading one."""
        return tuple(self.coefficient(d) for d in range(self.degree + 1))

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return max(self.coeffs, default=-1)

    def coefficient(self, d: int) -> Fraction | int:
        return self.coeffs.get(d, 0)

    def evaluate(self, x: Fraction | int) -> Fraction | int:
        out = 0
        for c in reversed(self.coefficients):
            out = out * x + c
        return exact(out)

    def __mul__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        self._compatible(other)
        out: dict[int, Fraction | int] = {}
        for i, a in self.coeffs.items():
            for j, b in other.coeffs.items():
                out[i + j] = out.get(i + j, 0) + a * b
        return self._like(out)


# ---------------------------------------------------------------------------
# Order polynomials


def realized_peak_counts(n: int) -> list[int]:
    return sorted(stat_classes(n, "A", "interiorPeak", mode="number"))


def _factorial_interpolant(values: Sequence[int]) -> list[int]:
    """n! * P as ascending integer coefficients, with n = len(values) - 1 and
    P the polynomial of degree <= n through (k, values[k]), k = 0..n.  By
    Newton's forward-difference form, P = sum_m (D^m values)[0] * x(x-1)...(x-m+1) / m!,
    and differences of integers are integers, so n! * P is built on ints."""
    n = len(values) - 1
    out = [0] * (n + 1)
    falling, weight, diffs = [1], factorial(n), list(values)  # x(x-1)...(x-m+1), n!/m!, D^m values
    for m in range(n + 1):
        for d, c in enumerate(falling):
            out[d] += diffs[0] * weight * c
        falling = [a - m * b for a, b in zip([0, *falling], [*falling, 0])]
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        weight //= m + 1
    return out


def _scaled_order_polynomial(peaks: int, n: int) -> list[int]:
    """n! times the order polynomial of `order_polynomial(peaks, n)`, as
    ascending integer coefficients, from its counts at k = 0..n."""
    if n < 1:
        raise ValueError("window size must be at least 1")
    if not 0 <= peaks <= (n - 1) // 2:
        raise ValueError(f"no window of size {n} has {peaks} interior peaks")
    representative = unrank(stat_classes(n, "A", "interiorPeak", "number")[peaks][0], n, "A")
    return _factorial_interpolant([epp_count(representative, Alphabet.prime(k)) for k in range(n + 1)])


def order_polynomial(peaks: int, n: int) -> RationalPolynomial:
    """The degree-n polynomial whose value at each k >= 0 counts enriched maps
    of any n-window with the given number of interior peaks into the signed
    alphabet on 2k letters.  Built from its counts at k = 0..n by forward
    differences, in integers, and divided by n! once."""
    return RationalPolynomial(Fraction(c, factorial(n)) for c in _scaled_order_polynomial(peaks, n))


# ---------------------------------------------------------------------------
# The generating polynomial and its idempotent coefficients


def rho_by_peak_count(n: int) -> list[dict[int, Fraction | int]]:
    """The coefficients of rho by degree in the formal variable: entry d maps
    each realized interior peak count i to the degree-d coefficient of the
    half-argument order polynomial of i-peak windows, c_d / (n! * 2^d) with
    c_d the degree-d coefficient of n! times the order polynomial."""
    scaled = {i: _scaled_order_polynomial(i, n) for i in realized_peak_counts(n)}
    return [{i: exact(Fraction(c[d], factorial(n) << d)) for i, c in scaled.items()} for d in range(n + 1)]


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

    The interior peak classes are unions of descent classes, so by Solomon's
    theorem N_p is constant on each descent class, and one window of each is
    tallied, its least rank (`group_algebra._cells`).  The report says how
    many (`windows_tallied`, 2^(n-1)) and how many distinct profiles they
    gave (`profiles`).

    The class sums have disjoint supports, so the allowed-degree
    coefficients span the same space as the class sums exactly when their
    rows of peak-count coefficients form a square matrix of full rank."""
    keys, ids, _ = _partition(n, "A", "interiorPeak", "number")
    tallied = _cells(n, "A", "interiorPeak")[1]
    profiles = {(keys[ids[r]], frozenset(factorization_counts(n, "A", r, "interiorPeak", "number").items()))
                for r in tallied}
    return {**_rho_report(n, profiles), "windows_tallied": len(tallied), "profiles": len(profiles)}


def _rho_report(n: int, profiles: set[tuple[int, frozenset]]) -> dict:
    """The verdicts of `verify_rho_multiplicativity`, read off a set of
    (peak count, factorization counts by peak-count pair) profiles that
    holds the profile of every window."""
    by_count = rho_by_peak_count(n)
    # the table over the lcm of its denominators, scale: table[d][i] = scale * rho[d][i]
    scale = lcm(*(c.denominator for row in by_count for c in row.values()))
    table = [{i: c.numerator * (scale // c.denominator) for i, c in row.items()} for row in by_count]
    degrees = [d for d, row in enumerate(table) if any(row.values())]
    allowed = parity_degrees(n)
    parity_ok = all(d in allowed for d in degrees)
    failing = set()
    for peaks, counts in profiles:
        for a in degrees:
            for b in degrees:
                product = sum(table[a][i] * table[b][j] * times for (i, j), times in counts)
                if product != (scale * table[a][peaks] if a == b else 0):
                    failing.add((a, b))
    # the coefficients sum to sum_i total[i] / scale * v_i, the identity
    # exactly when only peak count 0 has a nonzero total, that total is
    # scale, and its class is the identity (rank 0) alone
    total = {i: sum(table[d][i] for d in degrees) for i in table[0]}
    identity_alone = stat_classes(n, "A", "interiorPeak", mode="number")[0] == (0,)
    # the sum e is the unit of the peak-number span when e * v_j = v_j * e =
    # v_j for every j: at p, sum_i total[i] N_p(i, j) = sum_i total[i] N_p(j, i)
    # = scale * [peaks(p) = j]
    unit = True
    for peaks, counts in profiles:
        left, right = Counter(), Counter()  # scale * (e * v_j)(p) and scale * (v_j * e)(p) by j
        for (i, j), times in counts:
            left[j] += total[i] * times
            right[i] += total[j] * times
        unit &= left == right == Counter({peaks: scale})
    return {
        "n": n,
        "multiplicative": parity_ok and not failing,
        "parity_ok": parity_ok,
        "degrees": degrees,
        "mismatches": [(a, b) for a in degrees for b in degrees if (a, b) in failing],
        "sum_equals_identity": [i for i, t in total.items() if t] == [0] and total[0] == scale and identity_alone,
        "sum_is_unit": unit,
        "commutative": all(counts == {((j, i), times) for (i, j), times in counts} for _, counts in profiles),
        "spans_classes": len(allowed) == len(table[0]) == Span(table[d] for d in allowed).dim,
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
    to fail.  The ordinary interior statistic, swept the same way to n=5, is
    appended as the control, which is expected to stay closed and carries no
    flag."""
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    plans = [(kind, flavor, mode, BATTERY_CAPS[kind], False) for kind, flavor, mode in BATTERY_STATISTICS]
    reports = []
    for kind, flavor, mode, cap, control in [*plans, ("A", "interiorPeak", "set", 5, True)]:
        report = {"statistic": f"{kind}:{flavor}:{mode}", "kind": kind, "flavor": flavor, "mode": mode,
                  "control": control, "n": min(n_max, cap), "closed": True}
        for n in range(1, report["n"] + 1):
            check = closure_check(n, kind, flavor, mode)
            if not check["closed"]:
                grown = multiplicative_closure(n, kind, flavor, mode)
                report.update(n=n, closed=False, witness=check["certificate"], spanDim=check["dim"],
                              closureDim=grown["dim_closure"])
                break
        if report["closed"] and not control:
            report["flag"] = "closure unexpectedly held through the bound"
        reports.append(report)
    return reports
