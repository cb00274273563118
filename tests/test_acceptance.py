"""Acceptance gate: one test per shipped criterion, at full stated bounds.

Every check here is exact (integer/rational arithmetic, zero tolerance).
Each test prints one pass/fail line under ``pytest -v``.

Criteria 6 and 7 check the peak algebras: that the class sums of each peak
statistic span an algebra of Fibonacci dimension, with well-defined
structure constants.  Whether that holds is decided here, at every size the
checks sweep, by the independent oracle in ``peak_oracle`` (it imports
nothing from peakalg), and the two tests assert that the library's checks
fail exactly where the oracle finds the claim false, and pass everywhere
else.  Every witness a failing check reports is recounted by the oracle.
For the interior and left statistics the claim holds at every size swept;
for the signed statistic ``typeBPeak`` the oracle finds it false from n = 3
on (see the README), so there the tests pass by confirming the finding.
"""

import ast
from fractions import Fraction

import sympy

from peakalg.group_algebra import class_sums, structure_table
from peakalg.linalg import Span
from peakalg.permutations import group_order
from peakalg.verify import (
    Bounds,
    check_bipartite,
    check_closure,
    check_duality,
    check_examples,
    check_extensions,
    check_formulas,
    check_idempotents,
    check_negatives,
    check_oracles,
    check_ranks,
)

import peak_oracle as oracle

FULL = Bounds()  # default bounds = the stated desk-scale bounds


def _message(result):
    failures = result.data.get("failures", [])
    shown = failures[:3]
    return f"{result.details}; first failures: {shown}" if failures else result.details


def test_criterion_01_window_statistic_examples():
    result = check_examples(FULL)
    assert result.passed, _message(result)


def test_criterion_02_fibonacci_ranks_through_seven():
    result = check_ranks(FULL)
    assert result.passed, _message(result)


def test_criterion_03_census_additivity_over_extensions():
    result = check_extensions(FULL)
    assert result.passed, _message(result)
    # the random orders are drawn from a fixed seed; these counts pin the draws
    assert result.data["examined"] == {
        "A": {"orders": 150, "extensions": 10764, "maps": 249408},
        "B": {"orders": 150, "extensions": 35946, "maps": 1243537},
    }


def test_criterion_04_series_formulas_match_brute_censuses():
    result = check_formulas(FULL)
    assert result.passed, _message(result)


def test_criterion_05_bipartite_census_factorization():
    result = check_bipartite(FULL)
    assert result.passed, _message(result)


# The peak algebras the checks sweep at default bounds, with the offset k of
# their claimed dimension f_{n+k} (f_0 = f_1 = 1).
PEAK_ALGEBRAS = (("A", "interiorPeak", 5, -1), ("A", "leftPeak", 5, 0), ("B", "typeBPeak", 4, 1))


def _fibonacci(k):
    a, b = 1, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def _where(failures):
    return {(f.get("kind"), f.get("flavor"), f["n"], f.get("stage")) for f in failures}


def _assert_one_class(flavor, label, windows):
    """Every window of a witness lies in the class the witness names."""
    assert [oracle.statistic(w, flavor) for w in windows] == [frozenset(label)] * len(windows), (label, windows)


def _pair(a, b):
    return (frozenset(a), frozenset(b))


def test_criterion_06_structure_constants_and_duality():
    result = check_duality(FULL)
    failures = result.data["failures"]
    # the constants are well defined exactly where all members of each class
    # factor alike; where they do not, both stages of the check must fail
    expected = {
        (kind, flavor, n, stage)
        for kind, flavor, n_max, _ in PEAK_ALGEBRAS
        for n in range(1, n_max + 1)
        if not oracle.closes(kind, n, flavor)
        for stage in ("products", "audit")
    }
    assert _where(failures) == expected, _message(result)

    for failure in failures:
        kind, flavor = failure["kind"], failure["flavor"]
        if failure["stage"] == "audit":
            witness = failure["witness"]
            windows = [oracle.window(w) for w in witness["windows"]]
            _assert_one_class(flavor, witness["class"], windows)
            base, other = (oracle.factorizations(w, kind, flavor) for w in windows)
            recounted = {pair: [base[pair], other[pair]] for pair in base | other if base[pair] != other[pair]}
            reported = {_pair(*ast.literal_eval(pair)): counts for pair, counts in witness["differences"].items()}
            assert recounted == reported, witness
        else:
            # the product minus the tabulated expansion at one window: the
            # window's count minus that of the representative the table
            # read the class's constant from
            first = failure["first"]
            windows = [oracle.window(first[key]) for key in ("window", "representative")]
            _assert_one_class(flavor, first["class"], windows)
            window, representative = (oracle.factorizations(w, kind, flavor)[_pair(first["A"], first["B"])]
                                      for w in windows)
            assert Fraction(first["difference"]) == window - representative != 0, first
            table = structure_table(failure["n"], kind, flavor)
            assert table.count(first["A"], first["B"], first["class"]) == representative, first


def test_criterion_07_span_closure_dimensions_and_ideals():
    result = check_closure(FULL)
    failures = result.data["failures"]
    # each span must close with dimension f_{n+k}; the signed classes must be
    # unions of type B descent classes (n <= 4); the interior span must be a
    # two-sided ideal of the left span (n <= 5)
    expected = {
        (kind, flavor, n, None)
        for kind, flavor, n_max, offset in PEAK_ALGEBRAS
        for n in range(1, n_max + 1)
        if not oracle.closes(kind, n, flavor) or oracle.class_count(kind, n, flavor) != _fibonacci(n + offset)
    }
    expected |= {
        (None, None, n, "descent containment")
        for n in range(1, 5)
        if not oracle.refines("B", n, "descent", "typeBPeak")
    }
    expected |= {
        (None, None, n, "ideal")
        for n in range(1, 6)
        if not (oracle.products_constant("A", n, "interiorPeak", "leftPeak", "interiorPeak")
                and oracle.products_constant("A", n, "leftPeak", "interiorPeak", "interiorPeak"))
    }
    assert _where(failures) == expected, _message(result)

    offsets = {flavor: offset for _, flavor, _, offset in PEAK_ALGEBRAS}
    for failure in failures:
        if failure.get("stage") is not None:
            continue
        kind, flavor, n = failure["kind"], failure["flavor"], failure["n"]
        # the span's dimension is the number of classes, its claim f_{n+k}
        assert failure["dim"] == oracle.class_count(kind, n, flavor), failure
        assert failure["expected_dim"] == _fibonacci(n + offsets[flavor]), failure
        assert failure["closed"] == oracle.closes(kind, n, flavor), failure
        if failure["closed"]:
            continue
        # v_A * v_B takes two values on one class, so it leaves the span
        certificate = failure["certificate"]
        windows = [oracle.window(w) for w in certificate["windows"]]
        _assert_one_class(flavor, certificate["class"], windows)
        pair = _pair(certificate["A"], certificate["B"])
        values = [oracle.factorizations(w, kind, flavor)[pair] for w in windows]
        assert values == [Fraction(v) for v in certificate["values"]], certificate
        assert values[0] != values[1], certificate


def test_criterion_08_orthogonal_idempotent_family():
    result = check_idempotents(FULL)
    assert result.passed, _message(result)


def test_criterion_09_closure_violations_with_independent_reelimination():
    result = check_negatives(FULL)
    assert result.passed, _message(result)
    grown = result.data["right_number_closure"]
    assert grown["dim_closure"] < 24, grown

    # re-eliminate each witness residual with a second, independent solver
    for report in result.data["battery"]:
        if report["control"] or report["closed"]:
            continue
        n, kind = report["n"], report["kind"]
        sums = list(class_sums(n, kind, report["flavor"], report["mode"]).values())
        span = Span(s.coeffs for s in sums)
        products = (a.convolve(b) for a in sums for b in sums)
        escaped = next((p for p in products if not span.contains(p.coeffs)), None)
        assert escaped is not None, report["statistic"]
        windows = range(group_order(n, kind))
        matrix = sympy.Matrix([[sympy.Rational(s.coeffs.get(i, 0)) for s in sums] for i in windows])
        rhs = sympy.Matrix([sympy.Rational(escaped.coeffs.get(i, 0)) for i in windows])
        solutions = sympy.linsolve((matrix, rhs))
        assert solutions == sympy.EmptySet, (report["statistic"], solutions)


def test_criterion_10_oracle_cross_checks():
    result = check_oracles(FULL)
    assert result.passed, _message(result)
