"""Monomial/fundamental expansions, peak series, and the quasi-shuffle."""

import itertools
from fractions import Fraction

import pytest

from peakalg.alphabets import Alphabet
from peakalg.enriched import epp_census
from peakalg.permutations import (
    Composition,
    compositions,
    enumerate_group,
    enumerate_stat_sets,
    fibonacci,
    peak_set,
)
from peakalg.qsym import (
    QSymElement,
    evaluate,
    evaluate_at_zero,
    f_to_m,
    m_to_f,
    peak_function,
    peak_function_F,
    peak_function_b,
    peak_function_b_F,
    peak_series,
    polynomial_product,
    quasi_shuffle,
    rank_of_span,
)

M = QSymElement.monomial
F = QSymElement.fundamental


def test_basis_change_frozen():
    assert f_to_m(F((1,), True)) == M((1,), True) + M((0, 1), True)
    assert f_to_m(F((2,))) == M((2,)) + M((1, 1))
    assert m_to_f(M((2,))) == F((2,)) - F((1, 1))


def test_basis_change_round_trips():
    for typeB in (False, True):
        for n in range(5):
            for comp in compositions(n, typeB):
                e = QSymElement("M", typeB, {comp: Fraction(3)})
                assert f_to_m(m_to_f(e)) == e
                f = QSymElement("F", typeB, {comp: Fraction(1)})
                assert m_to_f(f_to_m(f)) == f


def test_element_arithmetic():
    a = M((1,)) + M((2,))
    b = M((2,)).scale(Fraction(1, 2))
    assert (a - b) + b == a
    assert a.scale(0) == QSymElement.zero("M")
    assert M((1,)) != M((1,), True)
    assert a.degrees() == {1, 2}
    assert not a.is_homogeneous()
    assert M((2, 1)).degree() == 3
    with pytest.raises(ValueError):
        a.degree()
    assert (M((1,)) + M((2,))).integer_coefficients()
    assert not b.integer_coefficients()


def test_kind_mixing_is_rejected():
    with pytest.raises(ValueError):
        M((1,)) + M((1,), True)
    with pytest.raises(ValueError):
        quasi_shuffle(M((1,)), M((1,), True))


def test_peak_series_frozen():
    assert peak_function([], 1) == M((1,)).scale(2)
    assert peak_function([], 2) == M((2,)).scale(2) + M((1, 1)).scale(4)
    assert peak_function_F([], 2) == (F((2,)) + F((1, 1))).scale(2)
    assert peak_function_b([], 1) == M((1,), True) + M((0, 1), True).scale(2)
    assert peak_function_b([0], 1) == M((0, 1), True).scale(2)
    assert peak_function_b([], 0) == M((), True)
    assert peak_function_b_F([], 1) == F((1,), True) + F((0, 1), True)
    assert peak_function_b_F([0], 2) == (F((0, 2), True) + F((0, 1, 1), True)).scale(2)


def test_peak_series_rejects_invalid_sets():
    with pytest.raises(ValueError):
        peak_function([1], 3)  # interior positions start at 2
    with pytest.raises(ValueError):
        peak_function_b([0, 1], 3)  # adjacent positions


def test_fundamental_forms_agree():
    # every interior peak set with n <= 6 and every type B peak set with
    # n <= 5, the left peak sets among them
    plans = [(False, "interiorPeak", 6), (True, "typeBPeak", 5), (True, "leftPeak", 5)]
    for typeB, flavor, n_max in plans:
        for n in range(0, n_max + 1):
            for s in enumerate_stat_sets(n, flavor):
                series = peak_series(s.members, n, typeB)
                assert series.basis == "M" and series.typeB == typeB
                assert m_to_f(series) == peak_series(s.members, n, typeB, "F"), (flavor, n, s)


def test_named_peak_series_are_the_builder():
    for n in range(0, 5):
        for s in enumerate_stat_sets(n, "interiorPeak"):
            assert peak_function(s.members, n) == peak_series(s.members, n)
            assert peak_function_F(s.members, n) == peak_series(s.members, n, basis="F")
        for s in enumerate_stat_sets(n, "typeBPeak"):
            assert peak_function_b(s.members, n) == peak_series(s.members, n, typeB=True)
            assert peak_function_b_F(s.members, n) == peak_series(s.members, n, typeB=True, basis="F")
    with pytest.raises(ValueError):
        peak_series([], 2, basis="X")


def test_quasi_shuffle_frozen():
    assert quasi_shuffle(M((1,)), M((1,))) == M((1, 1)).scale(2) + M((2,))
    one = QSymElement.one()
    assert quasi_shuffle(one, M((2, 1))) == M((2, 1))
    oneB = QSymElement.one(typeB=True)
    assert quasi_shuffle(oneB, M((0, 2), True)) == M((0, 2), True)
    # leading parts of the signed variant add outright
    prod = quasi_shuffle(M((1, 2), True), M((0, 1), True))
    assert prod == M((1, 2, 1), True) + M((1, 1, 2), True) + M((1, 3), True)


def test_quasi_shuffle_is_commutative_and_associative():
    pool = [M((1,)), M((2,)), M((1, 1))]
    for a, b in itertools.product(pool, repeat=2):
        assert quasi_shuffle(a, b) == quasi_shuffle(b, a)
    a, b, c = pool
    assert quasi_shuffle(quasi_shuffle(a, b), c) == quasi_shuffle(a, quasi_shuffle(b, c))


def test_quasi_shuffle_matches_polynomial_product():
    k = 3
    for typeB in (False, True):
        pool = [c for d in range(3) for c in compositions(d, typeB)]
        for ca, cb in itertools.product(pool, repeat=2):
            a = QSymElement("M", typeB, {ca: Fraction(1)})
            b = QSymElement("M", typeB, {cb: Fraction(1)})
            lhs = evaluate(quasi_shuffle(a, b), k)
            rhs = polynomial_product(evaluate(a, k), evaluate(b, k))
            assert lhs == rhs, (ca, cb)


def test_span_ranks_are_fibonacci():
    for n in range(1, 8):
        elems = [peak_function(s.members, n) for s in enumerate_stat_sets(n, "interiorPeak")]
        assert len(elems) == fibonacci(n - 1)
        assert rank_of_span(elems) == fibonacci(n - 1)
    for n in range(1, 6):
        elems = [peak_function_b(s.members, n) for s in enumerate_stat_sets(n, "typeBPeak")]
        assert len(elems) == fibonacci(n + 1)
        assert rank_of_span(elems) == fibonacci(n + 1)
    for n in range(1, 7):
        elems = [peak_function_b(s.members, n) for s in enumerate_stat_sets(n, "leftPeak")]
        assert len(elems) == fibonacci(n)
        assert rank_of_span(elems) == fibonacci(n)


def _as_fractions(census):
    return {key: Fraction(v) for key, v in census.items()}


def test_evaluation_matches_the_chain_census():
    for n in range(1, 5):
        k = n + 1
        for p in enumerate_group(n, "A"):
            pe = peak_set(p, "interiorPeak")
            assert evaluate(peak_function(pe.members, n), k) == _as_fractions(
                epp_census(p, Alphabet.prime(k))
            )
            pl = peak_set(p, "leftPeak")
            assert evaluate(peak_function_b(pl.members, n), k) == _as_fractions(
                epp_census(p, Alphabet.left(k))
            )
    for n in range(1, 4):
        k = n + 1
        for p in enumerate_group(n, "B"):
            pb = peak_set(p, "typeBPeak")
            assert evaluate(peak_function_b(pb.members, n), k) == _as_fractions(
                epp_census(p, Alphabet.plus_minus(k))
            )


def test_zeroing_the_extra_variable():
    # killing the bottom variable turns the signed series into the unsigned
    # one for the peak set with 0 and 1 removed
    for n in range(1, 5):
        k = n + 1
        for s in enumerate_stat_sets(n, "typeBPeak"):
            reduced = sorted(s.members - {0, 1})
            lhs = evaluate_at_zero(peak_function_b(s.members, n), k)
            rhs = evaluate(peak_function(reduced, n), k)
            assert lhs == rhs, (n, s)


def test_monomial_evaluation_frozen():
    got = evaluate(M((2,)), 2)
    assert got == {(0, 2, 0): Fraction(1), (0, 0, 2): Fraction(1)}
    # a leading zero part leaves the bottom variable unused
    assert evaluate(M((0, 1), True), 1) == {(0, 1): Fraction(1)}
    assert evaluate(M((2, 1), True), 1) == {(2, 1): Fraction(1)}


def test_serialization_round_trip():
    e = peak_function_b([0], 2)
    assert QSymElement.from_json(e.to_json()) == e
    text = e.to_json()
    assert '"basis": "M"' in text and '"typeB": true' in text
    f = peak_function_F([2], 3)
    assert QSymElement.from_json(f.to_json()) == f


def test_composition_keys_are_validated():
    with pytest.raises(ValueError):
        QSymElement("M", False, {Composition((0, 1), typeB=True): Fraction(1)})
