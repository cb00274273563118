"""Exact sparse spans: rank, membership, and reduction, against a dense
elimination written here; the exact coefficient rule of the element
classes."""

import random
from fractions import Fraction

from peakalg.eulerian import rho_idempotents
from peakalg.group_algebra import AlgebraElement, class_sums
from peakalg.linalg import Span, exact
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
    assert Span([{0: F(1)}, {1: F(1)}]).dim == 2
    assert Span([{0: F(1), 1: F(2)}, {0: F(2), 1: F(4)}]).dim == 1
    assert Span([{0: F(0), 1: F(0)}]).dim == 0
    assert Span([]).dim == 0


def test_membership():
    basis = [{0: F(1), 1: F(1)}, {1: F(1), 2: F(1)}]
    assert Span(basis).contains({0: F(1), 1: F(2), 2: F(1)})
    assert not Span(basis).contains({0: F(1), 2: F(1)})
    assert Span(basis).contains({})


def test_span_add_reports_growth():
    s = Span()
    assert s.dim == 0
    assert s.add({0: F(1), 1: F(2)})
    assert not s.add({0: F(2), 1: F(4)})
    assert s.add({1: F(1)})
    assert s.dim == 2


def test_reduce_returns_the_residual():
    s = Span([{0: F(1)}])
    residual = s.reduce({0: F(3), 1: F(5)})
    assert residual == {1: F(5)}
    assert s.contains({0: F(7), 1: F(0)})


def test_fraction_arithmetic_stays_exact():
    # thirds and sevenths do not round: eliminating them reproduces zero
    v1 = {0: F(1, 3), 1: F(1, 7)}
    v2 = {0: F(2, 3), 1: F(2, 7)}
    assert Span([v1, v2]).dim == 1
    assert Span([v1]).contains({0: F(1, 21), 1: F(1, 49)})


def _dense_rank(matrix):
    """Rank of a list of equal-length rows by Gauss-Jordan elimination over
    Fraction, one column at a time."""
    rows = [[F(x) for x in row] for row in matrix]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                c = rows[i][col] / rows[rank][col]
                rows[i] = [x - c * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _sparse(row, keys, rng):
    """The row as a mapping from keys, inserted in shuffled order, with its
    zero entries kept."""
    order = list(range(len(row)))
    rng.shuffle(order)
    return {keys[j]: row[j] for j in order}


def test_sparse_span_matches_a_dense_elimination():
    rng = random.Random(20261018)
    refused = 0
    for trial in range(200):
        width = rng.randint(1, 7)
        height = rng.randint(0, 8)

        def entry():
            if trial % 2:  # integer matrices, mostly zero
                return rng.choice([0, 0, 0, 1, -1, 2, 3, -5])
            return F(rng.randint(-4, 4), rng.randint(1, 5))

        # keys of mixed types: nothing may rely on an order of the keys
        keys = [("k", j) if j % 2 else j for j in range(width)]
        matrix = [[entry() for _ in range(width)] for _ in range(height)]
        if matrix and rng.random() < 0.5:
            matrix.append(list(rng.choice(matrix)))  # a repeated row
        if rng.random() < 0.3:
            matrix.append([0] * width)  # a zero row
        rng.shuffle(matrix)
        span = Span(_sparse(row, keys, rng) for row in matrix)
        assert span.dim == _dense_rank(matrix), matrix
        for _ in range(5):
            weights = [rng.randint(-3, 3) for _ in matrix]
            combination = [sum(w * row[j] for w, row in zip(weights, matrix)) for j in range(width)]
            assert span.contains(_sparse(combination, keys, rng)), (matrix, weights)
        for _ in range(5):
            v = [entry() for _ in range(width)]
            outside = _dense_rank(matrix + [v]) > _dense_rank(matrix)
            assert span.contains(_sparse(v, keys, rng)) is not outside, (matrix, v)
            refused += outside
    assert refused > 100


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
