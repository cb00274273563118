"""Exact rational spans: rank, membership, and reduction; the exact
coefficient rule of the element classes."""

from fractions import Fraction

from peakalg.eulerian import rho_idempotents
from peakalg.group_algebra import AlgebraElement, class_sums
from peakalg.linalg import Span, exact, in_span, rank
from peakalg.permutations import Composition
from peakalg.qsym import (
    QSymElement,
    evaluate,
    f_to_m,
    m_to_f,
    peak_series,
    polynomial_product,
    quasi_shuffle,
)

F = Fraction


def test_rank_frozen():
    assert rank([[F(1), F(0)], [F(0), F(1)]]) == 2
    assert rank([[F(1), F(2)], [F(2), F(4)]]) == 1
    assert rank([[F(0), F(0)]]) == 0
    assert rank([]) == 0


def test_membership():
    basis = [[F(1), F(1), F(0)], [F(0), F(1), F(1)]]
    assert in_span([F(1), F(2), F(1)], basis)
    assert not in_span([F(1), F(0), F(1)], basis)
    assert in_span([F(0), F(0), F(0)], basis)


def test_span_add_reports_growth():
    s = Span()
    assert s.dim == 0
    assert s.add([F(1), F(2)])
    assert not s.add([F(2), F(4)])
    assert s.add([F(0), F(1)])
    assert s.dim == 2


def test_reduce_returns_the_residual():
    s = Span([[F(1), F(0)]])
    residual = s.reduce([F(3), F(5)])
    assert residual == [F(0), F(5)]
    assert s.contains([F(7), F(0)])


def test_fraction_arithmetic_stays_exact():
    # thirds and sevenths do not round: eliminating them reproduces zero
    v1 = [F(1, 3), F(1, 7)]
    v2 = [F(2, 3), F(2, 7)]
    assert rank([v1, v2]) == 1
    assert in_span([F(1, 21), F(1, 49)], [v1])


def _all_int(values):
    values = list(values)
    return bool(values) and all(type(v) is int for v in values)


def test_coefficients_are_ints_where_integral():
    sums = class_sums(4, "A", "interiorPeak")
    assert all(_all_int(v.coeffs.values()) for v in sums.values())
    u, w = list(sums.values())[:2]
    assert _all_int(u.convolve(w).coeffs.values())
    series = [
        peak_series({2}, 4, typeB=typeB, basis=basis)
        for typeB in (False, True) for basis in ("M", "F")
    ]
    assert all(_all_int(s.coeffs.values()) for s in series)
    assert _all_int(f_to_m(series[1]).coeffs.values())
    assert _all_int(m_to_f(series[0]).coeffs.values())
    product = quasi_shuffle(series[0], peak_series((), 2))
    assert _all_int(product.coeffs.values())
    p, q = evaluate(series[0], 3), evaluate(series[1], 2)
    assert _all_int(p.values()) and _all_int(q.values())
    assert _all_int(polynomial_product(p, q).values())


def test_the_rule_keeps_fractions_only_where_they_divide():
    key = Composition((1, 1), False)
    stored = [
        exact,
        lambda c: AlgebraElement(2, "A", {0: c}).coeffs[0],
        lambda c: AlgebraElement(2, "A", {0: 1}).scale(c).coeffs[0],
        lambda c: QSymElement("M", False, {key: c}).coeffs[key],
        lambda c: QSymElement("M", False, {key: 1}).scale(c).coeffs[key],
    ]
    for store in stored:
        two, half = store(F(4, 2)), store(F(1, 2))
        assert two == 2 and type(two) is int
        assert half == F(1, 2) and type(half) is F
    values = [v for e in rho_idempotents(3) for v in e.coeffs.values()]
    assert values and all(type(v) is F and v.denominator > 1 for v in values)
