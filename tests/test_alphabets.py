"""Doubled alphabets: letter orders, sign rules, and the pair product."""

import itertools

import pytest

from peakalg.alphabets import Alphabet, make_product_leq


def test_prime_letters():
    assert Alphabet.prime(2).letters == (-1, 1, -2, 2)
    assert Alphabet.prime(0).letters == ()
    for k in range(1, 5):
        a = Alphabet.prime(k)
        assert len(a) == 2 * k
        assert all(a.epsilon(j) == 1 and a.epsilon(-j) == -1 for j in range(1, k + 1))


def test_factories_refuse_negative_sizes():
    for factory in (Alphabet.prime, Alphabet.left, Alphabet.plus_minus):
        factory(0)  # k = 0 stays valid: counting polynomials interpolate there
        with pytest.raises(ValueError, match="k >= 0"):
            factory(-2)


def test_an_alphabet_with_a_repeated_letter_is_refused():
    with pytest.raises(ValueError, match="duplicate letters"):
        Alphabet("twice", (1, 1), (1, 1), ((1,), (1,)), 2, None, None)


def test_an_alphabet_without_a_negation_refuses_to_negate():
    # every factory alphabet has one; a hand-built alphabet may not
    plain = Alphabet("plain", (1, 2), (1, 1), ((1,), (2,)), 3, None, None)
    with pytest.raises(ValueError, match="no negation"):
        plain.negate(1)


def test_left_letters():
    a = Alphabet.left(3)
    assert a.letters == (0, -1, 1, -2, 2, -3, 3)
    assert a.epsilon(0) == 1  # the extra bottom letter counts as nonnegative
    assert len(Alphabet.left(2)) == 5
    assert a.letters[a.zero_index] == 0


def test_plus_minus_letters():
    a = Alphabet.plus_minus(2)
    assert a.letters == ((-2, 1), (-2, -1), (-1, 1), (-1, -1), (0, 1), (1, -1), (1, 1), (2, -1), (2, 1))
    assert len(a) == 9
    assert a.letters[a.zero_index] == (0, 1)
    # the exponent flag alone decides repeatability, not the sign of the letter
    assert a.epsilon((1, -1)) == -1
    assert a.epsilon((1, 1)) == 1
    assert a.epsilon((-1, 1)) == 1
    assert a.epsilon((-1, -1)) == -1
    assert a.display((2, -1)) == "2'"
    assert a.display((2, 1)) == "2"


def test_left_leq_frozen_sets():
    a = Alphabet.left(3)
    assert {s for s in a.letters if a.leq_plus(s, 3)} == {0, -1, 1, -2, 2, -3, 3}
    assert {s for s in a.letters if a.leq_minus(s, 3)} == {0, -1, 1, -2, 2, -3}
    assert {s for s in a.letters if a.leq_plus(s, -3)} == {0, -1, 1, -2, 2}
    assert {s for s in a.letters if a.leq_minus(s, -3)} == {0, -1, 1, -2, 2, -3}


def test_leq_ties_break_by_sign():
    a = Alphabet.prime(2)
    assert a.leq_plus(1, 1) and not a.leq_minus(1, 1)
    assert a.leq_minus(-1, -1) and not a.leq_plus(-1, -1)
    assert a.leq_plus(-1, 1) and a.leq_minus(-1, 1)


def test_negation_is_an_involution():
    for a in (Alphabet.prime(3), Alphabet.left(3), Alphabet.plus_minus(2)):
        for s in a.letters:
            assert a.negate(a.negate(s)) == s
    pm = Alphabet.plus_minus(2)
    assert pm.negate((0, 1)) == (0, 1)  # the zero letter is self-negative
    assert pm.negate((2, 1)) == (-2, 1)
    assert pm.negate((2, -1)) == (-2, -1)
    assert Alphabet.left(2).negate(0) == 0
    assert Alphabet.prime(2).negate(2) == -2


def test_plus_minus_negation_reverses_the_order():
    # only the symmetric alphabet is order-reversed by negation: the exponent
    # flag travels with the letter, so mirrored ties break the same way
    a = Alphabet.plus_minus(2)
    for s, t in itertools.product(a.letters, repeat=2):
        assert a.less(s, t) == a.less(a.negate(t), a.negate(s))
        assert a.leq_plus(s, t) == a.leq_plus(a.negate(t), a.negate(s))
    for s in a.letters:
        assert a.epsilon(a.negate(s)) == a.epsilon(s)


def test_prime_has_no_zero_letter():
    assert Alphabet.prime(2).zero_index is None
    assert Alphabet.prime(0).zero_index is None


def test_weight_vars():
    prime = Alphabet.prime(3)
    assert prime.n_vars == 4  # index 0 reserved for the extra bottom variable
    assert prime.weight_vars(2) == (2,)
    assert prime.weight_vars(-2) == (2,)
    left = Alphabet.left(3)
    assert left.weight_vars(0) == (0,)
    assert left.weight_vars(-3) == (3,)
    pm = Alphabet.plus_minus(2)
    assert pm.weight_vars((0, 1)) == (0,)
    assert pm.weight_vars((-2, 1)) == (2,)


def test_product_size_and_zero():
    pm = Alphabet.plus_minus(1)
    prod = Alphabet.product(pm, pm)
    assert len(prod) == 25
    assert prod.letters[prod.zero_index] == ((0, 1), (0, 1))
    assert prod.n_vars == pm.n_vars * 2
    prime = Alphabet.prime(2)
    prod2 = Alphabet.product(prime, prime)
    assert len(prod2) == 16
    assert prod2.zero_index is None


def test_product_weight_vars_concatenate():
    prime = Alphabet.prime(2)
    prod = Alphabet.product(prime, prime)
    assert prod.weight_vars((1, -2)) == (1, 3 + 2)  # second factor offset by n_vars


def test_product_matches_three_case_rule():
    # pairwise comparisons of the flattened product equal the case analysis
    # driven by the component alphabets
    for first, second in [
        (Alphabet.prime(2), Alphabet.prime(2)),
        (Alphabet.left(2), Alphabet.prime(2)),
        (Alphabet.plus_minus(1), Alphabet.plus_minus(1)),
    ]:
        prod = Alphabet.product(first, second)
        leq = make_product_leq(first, second)
        for a, b in itertools.product(prod.letters, repeat=2):
            assert prod.leq_plus(a, b) == leq(a, b, +1), (a, b)
            assert prod.leq_minus(a, b) == leq(a, b, -1), (a, b)


def test_product_columns_follow_first_factor_sign():
    # within a fixed first letter, the second coordinates run upward under a
    # positive first letter and downward under a negative one
    prime = Alphabet.prime(2)
    prod = Alphabet.product(prime, prime)
    by_first = {}
    for s, t in prod.letters:
        by_first.setdefault(s, []).append(t)
    assert by_first[1] == [-1, 1, -2, 2]
    assert by_first[-1] == [2, -2, 1, -1]
