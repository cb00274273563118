"""Order polynomials, the half-argument generating element, orthogonal
idempotents, and the closure battery."""

import math
from fractions import Fraction

import pytest

from peakalg import eulerian
from peakalg.alphabets import Alphabet
from peakalg.enriched import epp_count
from peakalg.eulerian import (
    BATTERY_CAPS,
    BATTERY_STATISTICS,
    RationalPolynomial,
    negative_battery,
    order_polynomial,
    parity_degrees,
    realized_peak_counts,
    rho,
    rho_idempotents,
    verify_rho_multiplicativity,
)
from peakalg.group_algebra import AlgebraElement, class_sums, closure_check
from peakalg.linalg import Span
from peakalg.permutations import Permutation, enumerate_group, peak_set, rank

F = Fraction


def test_polynomial_basics():
    p = RationalPolynomial((F(1), F(2)))
    q = RationalPolynomial((F(0), F(0), F(3)))
    assert (p * q).coefficients == (F(0), F(0), F(3), F(6))
    assert p.evaluate(5) == 11
    assert p.degree == 1 and q.degree == 2
    assert RationalPolynomial.zero().degree == -1
    assert (p - p) == RationalPolynomial.zero()
    assert p.coefficient(0) == 1 and p.coefficient(7) == 0


def test_polynomial_trailing_zeros_are_trimmed():
    assert RationalPolynomial((F(1), F(0))).coefficients == (F(1),)
    assert RationalPolynomial((F(0), F(0))).coefficients == ()


def test_polynomial_interpolation():
    r = RationalPolynomial.interpolate([(0, 0), (1, 2), (2, 8), (3, 18)])
    assert r.coefficients == (F(0), F(0), F(2))
    line = RationalPolynomial.interpolate([(0, 1), (1, 2)])
    assert line.coefficients == (F(1), F(1))


def test_polynomial_argument_scaling():
    p = RationalPolynomial((F(1), F(2)))
    assert p.substitute_scaled(F(1, 2)).coefficients == (F(1), F(1))
    cubic = RationalPolynomial((F(0), F(0), F(0), F(8)))
    assert cubic.substitute_scaled(F(1, 2)).coefficients == (F(0), F(0), F(0), F(1))


def test_order_polynomial_frozen():
    assert order_polynomial(0, 1).coefficients == (F(0), F(2))
    assert order_polynomial(0, 2).coefficients == (F(0), F(0), F(2))


def test_order_polynomial_shape():
    for n in range(1, 5):
        assert realized_peak_counts(n) == list(range((n - 1) // 2 + 1))
        for i in realized_peak_counts(n):
            poly = order_polynomial(i, n)
            assert poly.evaluate(0) == 0
            assert poly.degree == n


def test_order_polynomial_rejects_unrealizable_counts():
    with pytest.raises(ValueError):
        order_polynomial(1, 2)
    with pytest.raises(ValueError):
        order_polynomial(-1, 3)


def test_order_polynomial_out_of_sample():
    # interpolation uses 0..n; agreement beyond that is a real prediction,
    # and any window with the right peak count gives the same value
    for n in range(1, 5):
        polys = {i: order_polynomial(i, n) for i in realized_peak_counts(n)}
        for p in enumerate_group(n, "A"):
            i = len(peak_set(p, "interiorPeak").members)
            for k in (n + 1, n + 2):
                assert polys[i].evaluate(k) == epp_count(p, Alphabet.prime(k)), (p, k)


def test_half_argument_element_frozen():
    poly2 = rho(2)
    e1 = poly2[2]
    expected = AlgebraElement(
        2, "A", {rank(Permutation((1, 2))): F(1, 2), rank(Permutation((2, 1))): F(1, 2)}
    )
    assert e1 == expected
    assert [d for d, c in enumerate(poly2) if not c.is_zero()] == [2]
    assert e1.convolve(e1) == e1


def test_parity_degrees():
    assert parity_degrees(5) == [1, 3, 5]
    assert parity_degrees(6) == [2, 4, 6]
    assert parity_degrees(1) == [1]
    assert parity_degrees(2) == [2]


def test_multiplicativity_report():
    for n in range(1, 5):
        report = verify_rho_multiplicativity(n)
        assert report["multiplicative"], report
        assert report["parity_ok"], report
        assert report["degrees"] == parity_degrees(n)
        assert report["mismatches"] == []
    assert verify_rho_multiplicativity(1)["sum_equals_identity"] is True
    assert verify_rho_multiplicativity(2)["sum_equals_identity"] is False
    assert verify_rho_multiplicativity(3)["sum_equals_identity"] is False


def _dense_sum_equals_identity(n):
    """Whether the coefficients of rho sum to the identity, compared as lists
    over all n! windows."""
    total = [0] * math.factorial(n)
    for element in rho(n):
        for r, c in element.coeffs.items():
            total[r] += c
    identity = AlgebraElement.identity(n, "A").coeffs
    return total == [identity.get(r, 0) for r in range(len(total))]


def test_sum_equals_identity_matches_the_dense_comparison(monkeypatch):
    for n in range(1, 7):
        assert verify_rho_multiplicativity(n)["sum_equals_identity"] is _dense_sum_equals_identity(n), n
    # tables whose coefficients sum to the identity, to twice it, to a class
    # sum bigger than the identity, or to zero
    tables = [
        (1, True, [{0: 0}, {0: 1}]),
        (1, True, [{0: F(1, 3)}, {0: F(2, 3)}]),
        (1, False, [{0: 0}, {0: 2}]),
        (2, False, [{0: 0}, {0: 0}, {0: 1}]),
        (3, False, [{0: 0, 1: 0}, {0: 1, 1: 0}, {0: 0, 1: 0}, {0: 0, 1: 0}]),
        (3, False, [{0: 0, 1: 0}, {0: 1, 1: -1}, {0: -1, 1: 1}, {0: 0, 1: 0}]),
    ]
    for n, expected, table in tables:
        monkeypatch.setattr(eulerian, "rho_by_peak_count", lambda size, table=table: [dict(c) for c in table])
        report = verify_rho_multiplicativity(n)
        assert report["sum_equals_identity"] is _dense_sum_equals_identity(n) is expected, (n, table)


def _dense_mismatches(n):
    """The (a, b) pairs where the dense product of the degree-a and degree-b
    coefficients of rho is not the degree-a coefficient (a = b) or zero."""
    elements = rho(n)
    degrees = [d for d, e in enumerate(elements) if not e.is_zero()]
    zero = AlgebraElement.zero(n, "A")
    return [
        (a, b) for a in degrees for b in degrees
        if elements[a].convolve(elements[b]) != (elements[a] if a == b else zero)
    ]


def test_multiplicativity_verdict_matches_dense_products():
    for n in range(1, 6):
        report = verify_rho_multiplicativity(n)
        assert report["mismatches"] == _dense_mismatches(n) == [], n


def test_multiplicativity_check_catches_a_perturbed_coefficient(monkeypatch):
    original = eulerian.rho_by_peak_count

    def perturbed(n):
        table = original(n)
        table[2][1] += F(1, 3)
        return table

    monkeypatch.setattr(eulerian, "rho_by_peak_count", perturbed)
    report = verify_rho_multiplicativity(4)
    assert not report["multiplicative"]
    assert report["mismatches"] and report["mismatches"] == _dense_mismatches(4)


def test_commutativity_flag_catches_an_asymmetric_count(monkeypatch):
    original = eulerian.factorization_counts

    def asymmetric(p, flavor, mode):
        counts = original(p, flavor, mode)
        if p == Permutation((1, 2, 3, 4)):
            counts[(0, 1)] += 1
        return counts

    monkeypatch.setattr(eulerian, "factorization_counts", asymmetric)
    assert not verify_rho_multiplicativity(4)["commutative"]


def test_idempotents_are_orthogonal():
    for n in (2, 3, 4):
        es = rho_idempotents(n)
        assert len(es) == (n + 1) // 2
        for i, a in enumerate(es):
            for j, b in enumerate(es):
                expected = a if i == j else AlgebraElement.zero(n, "A")
                assert a.convolve(b) == expected, (n, i, j)


def _group_spans_agree(first, second):
    """Whether two lists of elements span one subspace, by elimination over
    their coefficients at every window of S_n."""
    dims = [Span(e.coeffs for e in elements).dim for elements in (first, second, first + second)]
    return len(set(dims)) == 1


def test_count_class_sums_span_the_idempotents():
    for n in range(1, 7):
        sums = list(class_sums(n, "A", "interiorPeak", "number").values())
        idempotents = rho_idempotents(n)
        assert len(sums) == len(idempotents) == (n + 1) // 2
        report = verify_rho_multiplicativity(n)
        assert report["spans_classes"] is _group_spans_agree(sums, idempotents) is True, n
        # the commutativity read off factorization counts, against the dense
        # products u * w and w * u of every pair of class sums
        dense = all(u * w == w * u for u in sums for w in sums)
        assert report["commutative"] is dense is True, n


def test_span_verdict_matches_dense_elimination_when_a_degree_vanishes(monkeypatch):
    original = eulerian.rho_by_peak_count
    for n in (4, 5):
        top = parity_degrees(n)[-1]

        def zeroed(m):
            table = original(m)
            table[top] = {i: F(0) for i in table[top]}
            return table

        monkeypatch.setattr(eulerian, "rho_by_peak_count", zeroed)
        sums = list(class_sums(n, "A", "interiorPeak", "number").values())
        assert verify_rho_multiplicativity(n)["spans_classes"] is _group_spans_agree(sums, rho_idempotents(n)) is False


def test_count_closures_hold_for_unsigned_windows():
    for n in range(1, 5):
        assert closure_check(n, "A", "interiorPeak", mode="number")["closed"]
        assert closure_check(n, "A", "leftPeak", mode="number")["closed"]
    assert not closure_check(3, "B", "typeBPeak", mode="number")["closed"]


def test_battery_statistics_listing():
    assert len(BATTERY_STATISTICS) == 6
    kinds = {(kind, flavor, mode) for kind, flavor, mode in BATTERY_STATISTICS}
    assert ("A", "rightPeak", "set") in kinds
    assert ("A", "exteriorPeak", "set") in kinds
    assert ("B", "leftPeak", "set") in kinds
    assert ("B", "leftPeak", "number") in kinds
    assert ("B", "exteriorPeak", "set") in kinds
    assert ("B", "exteriorPeak", "number") in kinds
    assert BATTERY_CAPS == {"A": 6, "B": 5}


def test_battery_finds_every_witness():
    reports = negative_battery(5)
    by_stat = {report["statistic"]: report for report in reports}
    control = by_stat["A:interiorPeak:set"]
    assert control["control"] and control["closed"]
    for key, report in by_stat.items():
        if report["control"]:
            continue
        assert not report["closed"], key
        assert report["witness"]["windows"], key
        assert report["spanDim"] < report["closureDim"], key
    # smallest failing sizes, frozen
    assert by_stat["A:rightPeak:set"]["n"] == 3
    assert by_stat["A:exteriorPeak:set"]["n"] == 4
    assert by_stat["B:leftPeak:set"]["n"] == 2
    assert by_stat["B:leftPeak:number"]["n"] == 2
    assert by_stat["B:exteriorPeak:set"]["n"] == 2
    assert by_stat["B:exteriorPeak:number"]["n"] == 2


def test_battery_flags_a_short_sweep():
    reports = negative_battery(2)
    by_stat = {report["statistic"]: report for report in reports}
    # the unsigned statistics fail only later, so a bound of 2 leaves them
    # closed and flagged
    assert by_stat["A:rightPeak:set"]["closed"]
    assert "flag" in by_stat["A:rightPeak:set"]
    assert not by_stat["B:leftPeak:set"]["closed"]
