"""Order polynomials, the half-argument generating element, orthogonal
idempotents, and the closure battery."""

import math
from fractions import Fraction

import pytest

from peakalg import eulerian, group_algebra
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
from peakalg.group_algebra import AlgebraElement, class_sums, closure_check, factorization_counts
from peakalg.linalg import Span
from peakalg.permutations import Permutation, enumerate_group, peak_set, rank, unrank

import peak_oracle as oracle

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


def _lagrange(points):
    """The reference interpolant: a sum of Lagrange basis products."""
    xs = [Fraction(x) for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation nodes must be distinct")
    total = RationalPolynomial.zero()
    for i, (_, y) in enumerate(points):
        term = RationalPolynomial((y,))
        for j, xj in enumerate(xs):
            if j != i:
                scale = Fraction(1, xs[i] - xj)
                term = term * RationalPolynomial((-xj * scale, scale))
        total = total + term
    return total


def test_order_polynomials_and_rho_match_the_lagrange_form():
    # the forward-difference construction in integers, against the Lagrange
    # interpolant of the same counts at k = 0..n in Fractions; rho's degree-d
    # coefficient is the interpolant's times 2^-d
    for n in range(1, 9):
        table = eulerian.rho_by_peak_count(n)
        for i in realized_peak_counts(n):
            representative = unrank(group_algebra.stat_classes(n, "A", "interiorPeak", "number")[i][0], n, "A")
            reference = _lagrange([(k, epp_count(representative, Alphabet.prime(k))) for k in range(n + 1)])
            assert order_polynomial(i, n) == reference, (n, i)
            assert [table[d][i] for d in range(n + 1)] == [F(reference.coefficient(d), 2**d) for d in range(n + 1)], (n, i)


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


def test_order_polynomial_refuses_a_size_below_one():
    with pytest.raises(ValueError, match="at least 1"):
        order_polynomial(0, 0)


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


def test_the_oracle_recounts_reversal_keeping_the_peak_number_counts():
    # N_{p.w0} = N_p, w0 the reversal, recounted by composing windows
    for n in range(1, 6):
        for p in oracle.group("A", n):
            assert oracle.peak_number_factorizations(p) == oracle.peak_number_factorizations(p[::-1]), p


def test_the_report_tallies_one_window_per_descent_class(monkeypatch):
    # the report read off the profiles of every window equals the one
    # tallied off the least rank of each descent class, key by key; the
    # tally runs 2^(n-1) times
    tallied = []
    original = group_algebra._tally

    def counted(n, kind, r, *statistics):
        tallied.append(r)
        return original(n, kind, r, *statistics)

    monkeypatch.setattr(group_algebra, "_tally", counted)
    for n in range(1, 7):
        tallied.clear()
        report = verify_rho_multiplicativity(n)
        assert len(tallied) == len(set(tallied)) == report["windows_tallied"] == 2 ** (n - 1), n
        every = {
            (len(peak_set(p, "interiorPeak").members),
             frozenset(factorization_counts(n, "A", r, "interiorPeak", "number").items()))
            for r, p in enumerate(enumerate_group(n, "A"))
        }
        full = eulerian._rho_report(n, every)
        assert report["profiles"] == len(every)
        assert set(report) == {*full, "windows_tallied", "profiles"}, n
        for key, value in full.items():
            assert report[key] == value, (n, key)


def test_the_coefficients_sum_to_the_unit_of_the_peak_number_span():
    # for n >= 2 the identity window has no class of its own, so the sum is
    # not the identity, but it acts as one on the span of the class sums
    for n in range(1, 7):
        report = verify_rho_multiplicativity(n)
        assert report["sum_is_unit"] is True, n
        assert report["sum_equals_identity"] is (n == 1), n
    for n in range(1, 5):
        unit = sum(rho_idempotents(n), AlgebraElement.zero(n, "A"))
        for v in class_sums(n, "A", "interiorPeak", "number").values():
            assert unit.convolve(v) == v == v.convolve(unit), n


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
    # the second perturbation's 101 divides no n! * 2^d; it moves 1/101 of
    # peak count 0 from degree 4 to degree 2, which keeps the coefficients'
    # sum, the unit: a report that put the table over n! * 2^n, or truncated
    # it to ints, would lose that unit verdict
    original = eulerian.rho_by_peak_count
    sums = class_sums(4, "A", "interiorPeak", "number").values()
    for moves in ({(2, 1): F(1, 3)}, {(2, 0): F(1, 101), (4, 0): F(-1, 101)}):

        def perturbed(n, moves=moves):
            table = original(n)
            for (d, i), change in moves.items():
                table[d][i] += change
            return table

        monkeypatch.setattr(eulerian, "rho_by_peak_count", perturbed)
        report = verify_rho_multiplicativity(4)
        assert not report["multiplicative"], moves
        assert report["mismatches"] and report["mismatches"] == _dense_mismatches(4), moves
        unit = sum(rho(4), AlgebraElement.zero(4, "A"))
        assert report["sum_is_unit"] is all(unit.convolve(v) == v == v.convolve(unit) for v in sums), moves
    assert report["sum_is_unit"] is True


def test_commutativity_flag_catches_an_asymmetric_count(monkeypatch):
    # the report reads the factorization counts of each window by its rank
    original = eulerian.factorization_counts

    def asymmetric(n, kind, r, flavor, mode="set"):
        counts = original(n, kind, r, flavor, mode)
        if unrank(r, n, kind) == Permutation((1, 2, 3, 4)):
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


def test_battery_refuses_a_bound_below_one():
    # a sweep through no size would report a vacuously closed control
    with pytest.raises(ValueError, match="at least 1"):
        negative_battery(0)
