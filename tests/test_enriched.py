"""Enriched order-preserving maps: counts, censuses, and factorizations."""

import itertools
import random

import pytest

from peakalg.alphabets import Alphabet
from peakalg.enriched import (
    census_of_maps,
    census_product,
    chain_census,
    epp_census,
    epp_count,
    epp_maps,
    epp_values,
    factorization_census,
    poset_epp_census,
    poset_epp_count,
    poset_epp_maps,
    signed_poset_epp_maps,
)
from peakalg.permutations import (
    Permutation,
    SignedPermutation,
    compose,
    enumerate_group,
    peak_set,
)
from peakalg.posets import LabeledPoset, SignedPoset, random_poset, random_signed_poset


def test_frozen_counts():
    for k in (1, 2, 3):
        assert epp_count(Permutation((1,)), Alphabet.prime(k)) == 2 * k
        assert epp_count(Permutation((1, 2)), Alphabet.prime(k)) == 2 * k * k
        assert epp_count(SignedPermutation((1,)), Alphabet.plus_minus(k)) == 2 * k + 1


def test_frozen_censuses():
    c = epp_census(Permutation((1,)), Alphabet.prime(3))
    assert c == {(0, 1, 0, 0): 2, (0, 0, 1, 0): 2, (0, 0, 0, 1): 2}
    c = epp_census(SignedPermutation((-1,)), Alphabet.plus_minus(2))
    assert c == {(0, 1, 0): 2, (0, 0, 1): 2}
    c = epp_census(SignedPermutation((1,)), Alphabet.plus_minus(2))
    assert c == {(1, 0, 0): 1, (0, 1, 0): 2, (0, 0, 1): 2}


def test_empty_window_census_is_one():
    assert epp_census(Permutation(()), Alphabet.prime(2)) == {(0, 0, 0): 1}
    assert epp_census(SignedPermutation(()), Alphabet.plus_minus(1)) == {(0, 0): 1}


def test_census_totals_match_counts():
    for p in enumerate_group(3, "A"):
        for alphabet in (Alphabet.prime(2), Alphabet.left(2)):
            census = epp_census(p, alphabet)
            assert sum(census.values()) == epp_count(p, alphabet)
    for p in enumerate_group(2, "B"):
        census = epp_census(p, Alphabet.plus_minus(2))
        assert sum(census.values()) == epp_count(p, Alphabet.plus_minus(2))


def test_values_and_maps_agree_with_census():
    for w in itertools.permutations((1, 2, 3)):
        p = Permutation(w)
        for alphabet in (Alphabet.prime(2), Alphabet.left(2)):
            tuples = list(epp_values(p, alphabet))
            assert len(tuples) == epp_count(p, alphabet)
            assert len(set(tuples)) == len(tuples)
            assert census_of_maps(epp_maps(p, alphabet), alphabet) == epp_census(p, alphabet)
    for p in enumerate_group(2, "B"):
        for alphabet in (Alphabet.plus_minus(2), Alphabet.left(2)):
            assert census_of_maps(epp_maps(p, alphabet), alphabet) == epp_census(p, alphabet)


def test_signed_windows_need_a_zero_letter():
    with pytest.raises(ValueError):
        epp_count(SignedPermutation((1, -2)), Alphabet.prime(2))


def test_maps_respect_adjacent_rules():
    # every enumerated map satisfies the stated inequality at each position of
    # the window, strict exactly at the sign prescribed by ascent/descent
    p = Permutation((2, 1, 3))
    alphabet = Alphabet.prime(2)
    for f in epp_maps(p, alphabet):
        g = [f[v] for v in p.window]
        assert alphabet.leq_minus(g[0], g[1])  # 2 > 1: descent rule
        assert alphabet.leq_plus(g[1], g[2])  # 1 < 3: ascent rule


def test_census_depends_only_on_the_peak_set():
    for n in range(1, 6):
        for alphabet in (Alphabet.prime(4), Alphabet.left(4)):
            flavor = "interiorPeak" if alphabet.variant == "prime" else "leftPeak"
            by_class = {}
            for p in enumerate_group(n, "A"):
                key = peak_set(p, flavor).members
                census = epp_census(p, alphabet)
                assert by_class.setdefault(key, census) == census, (p, alphabet.variant)
    for n in range(1, 5):
        by_class = {}
        for p in enumerate_group(n, "B"):
            key = peak_set(p, "typeBPeak").members
            census = epp_census(p, Alphabet.plus_minus(4))
            assert by_class.setdefault(key, census) == census, p


def test_unsigned_census_is_the_zero_free_part():
    # dropping the rows that use the extra bottom variable recovers the
    # census of the smaller alphabet
    for n in range(1, 5):
        for p in enumerate_group(n, "A"):
            left = epp_census(p, Alphabet.left(3))
            prime = epp_census(p, Alphabet.prime(3))
            assert {key: v for key, v in left.items() if key[0] == 0} == prime


def test_poset_maps_match_filter_oracle():
    # backtracking enumeration equals brute filtering of all assignments
    for P in [
        LabeledPoset.from_covers(3, [(3, 1), (3, 2)]),
        LabeledPoset.antichain(2),
        LabeledPoset.chain((2, 1, 3)),
        random_poset(3, random.Random(1)),
    ]:
        alphabet = Alphabet.prime(2)
        got = {tuple(sorted(m.items())) for m in poset_epp_maps(P, alphabet)}
        brute = set()
        for letters in itertools.product(alphabet.letters, repeat=P.n):
            f = dict(zip(range(1, P.n + 1), letters))
            ok = True
            for a in range(1, P.n + 1):
                for b in range(1, P.n + 1):
                    if a != b and P.less(a, b):
                        cmp = alphabet.leq_plus if a < b else alphabet.leq_minus
                        if not cmp(f[a], f[b]):
                            ok = False
            if ok:
                brute.add(tuple(sorted(f.items())))
        assert got == brute
        assert poset_epp_count(P, alphabet) == len(brute)


def _signed_filter(P, alphabet):
    # every assignment of letters to 1..n, extended by f(0) = the zero letter
    # and f(-m) = -f(m), kept when every strict relation a < b holds
    zero = alphabet.letters[alphabet.zero_index]
    kept = set()
    for letters in itertools.product(alphabet.letters, repeat=P.n):
        f = {0: zero}
        for m, letter in enumerate(letters, start=1):
            f[m], f[-m] = letter, alphabet.negate(letter)
        if all(
            (alphabet.leq_plus if a < b else alphabet.leq_minus)(f[a], f[b])
            for a in f for b in f if a != b and P.less(a, b)
        ):
            kept.add(tuple(sorted((m, f[m]) for m in range(1, P.n + 1))))
    return kept


def test_signed_poset_maps_match_filter_oracle():
    posets = [
        SignedPoset.from_covers(1, [(1, -1)]),
        SignedPoset.from_covers(1, [(-1, 1)]),
        SignedPoset.from_covers(2, [(0, 2)]),
        SignedPoset.from_covers(2, [(-1, 2)]),
        SignedPoset.from_covers(2, [(1, -1), (0, 2), (-1, 2)]),
        SignedPoset.from_covers(2, [(2, -2), (1, 0)]),
        SignedPoset.from_covers(3, [(-3, 1), (2, -2), (0, 3)]),
        SignedPoset.antichain(2),
        SignedPoset.chain((2, -1, 3)),
    ]
    rng = random.Random(11)
    posets += [random_signed_poset(n, rng) for n in (1, 2, 3, 3) for _ in range(2)]
    for P in posets:
        for alphabet in (Alphabet.plus_minus(1), Alphabet.plus_minus(2)):
            got = [tuple(sorted(m.items())) for m in poset_epp_maps(P, alphabet)]
            assert len(got) == len(set(got))
            assert set(got) == _signed_filter(P, alphabet), (P, alphabet)


def test_signed_posets_need_a_zero_letter():
    with pytest.raises(ValueError):
        poset_epp_maps(SignedPoset.antichain(1), Alphabet.prime(2))
    with pytest.raises(ValueError):
        poset_epp_census(SignedPoset.antichain(1), Alphabet.prime(2))


def test_poset_census_matches_maps_and_extensions():
    # the direct census equals the census of the materialized maps and the
    # summed censuses of the linear extensions
    rng = random.Random(5)
    cases = [(random_poset(n, rng), [Alphabet.prime(k) for k in (1, 2)] + [Alphabet.left(k) for k in (1, 2)])
             for n in range(0, 5) for _ in range(3)]
    cases += [(random_signed_poset(n, rng), [Alphabet.plus_minus(k) for k in (1, 2)])
              for n in range(0, 5) for _ in range(3)]
    for P, alphabets in cases:
        extensions = P.linear_extensions()
        for alphabet in alphabets:
            direct = poset_epp_census(P, alphabet)
            assert direct == census_of_maps(poset_epp_maps(P, alphabet), alphabet), (P, alphabet)
            summed = {}
            for e in extensions:
                for key, count in epp_census(e, alphabet).items():
                    summed[key] = summed.get(key, 0) + count
            assert direct == summed, (P, alphabet)


def test_poset_census_of_a_product_alphabet():
    # two weight variables per letter
    product = Alphabet.product(Alphabet.prime(1), Alphabet.prime(2))
    P = LabeledPoset.from_covers(3, [(2, 1), (2, 3)])
    assert poset_epp_census(P, product) == census_of_maps(poset_epp_maps(P, product), product)


def test_stored_chain_censuses_are_copies():
    alphabet = Alphabet.plus_minus(2)
    w, same_descents = SignedPermutation((2, -1, 3)), SignedPermutation((3, -2, 1))
    before = epp_census(w, alphabet)
    epp_census(w, alphabet).clear()
    assert epp_census(same_descents, alphabet) == before
    stored = chain_census(3, frozenset({1}), alphabet, True)
    first_key = next(iter(stored))
    stored[first_key] += 1
    chain_census(3, frozenset({1}), alphabet, True)[first_key] = 0
    assert chain_census(3, frozenset({1}), alphabet, True) == epp_census(w, alphabet) == before


def test_poset_census_splits_over_extensions():
    # the census of a poset is the sum of the censuses of its extensions,
    # and the underlying map sets are literally disjoint
    cases = [
        (LabeledPoset.from_covers(3, [(3, 1), (3, 2)]), Alphabet.prime(2)),
        (LabeledPoset.antichain(3), Alphabet.left(2)),
        (random_poset(4, random.Random(2)), Alphabet.prime(2)),
    ]
    for P, alphabet in cases:
        whole = {tuple(sorted(m.items())) for m in poset_epp_maps(P, alphabet)}
        pieces = []
        for e in P.linear_extensions():
            pieces.append({tuple(sorted(m.items())) for m in epp_maps(e, alphabet)})
        assert sum(len(piece) for piece in pieces) == len(whole)
        assert set().union(*pieces) == whole


def test_signed_poset_census_splits_over_extensions():
    cases = [
        (SignedPoset.from_covers(2, [(1, 0), (1, -2)]), Alphabet.plus_minus(2)),
        (SignedPoset.antichain(2), Alphabet.plus_minus(1)),
        (random_signed_poset(3, random.Random(6)), Alphabet.plus_minus(1)),
    ]
    for B, alphabet in cases:
        whole = {tuple(sorted(m.items())) for m in poset_epp_maps(B, alphabet)}
        assert poset_epp_count(B, alphabet) == len(whole)
        assert signed_poset_epp_maps(B, alphabet) == poset_epp_maps(B, alphabet)
        pieces = []
        for e in B.linear_extensions():
            pieces.append({tuple(sorted(m.items())) for m in epp_maps(e, alphabet)})
        assert sum(len(piece) for piece in pieces) == len(whole)
        assert set().union(*pieces) == whole


def test_census_product_offsets_variables():
    a = {(0, 1): 2}
    b = {(0, 0, 1): 3}
    assert census_product(a, b, offset=2, width=5) == {(0, 1, 0, 0, 1): 6}


def test_bipartite_census_identity():
    # the census over the pair alphabet splits as a sum over factorizations
    prime = Alphabet.prime(2)
    left = Alphabet.left(2)
    for n in (1, 2, 3):
        for p in enumerate_group(n, "A"):
            direct = epp_census(p, Alphabet.product(prime, prime))
            assert direct == factorization_census(p, prime, prime), p
            direct = epp_census(p, Alphabet.product(left, prime))
            assert direct == factorization_census(p, left, prime), p
    pm = Alphabet.plus_minus(2)
    for n in (1, 2):
        for p in enumerate_group(n, "B"):
            direct = epp_census(p, Alphabet.product(pm, pm))
            assert direct == factorization_census(p, pm, pm), p


def test_bipartite_count_identity_larger():
    prime = Alphabet.prime(3)
    product = Alphabet.product(prime, prime)
    for p in [Permutation((2, 1, 4, 3)), Permutation((3, 1, 2, 4))]:
        total = 0
        for tau in enumerate_group(4, "A"):
            sigma = compose(p, tau.inverse())
            total += epp_count(tau, prime) * epp_count(sigma, prime)
        assert total == epp_count(p, product)
    pm = Alphabet.plus_minus(2)
    productB = Alphabet.product(pm, pm)
    p = SignedPermutation((1, -2, 3))
    total = 0
    for tau in enumerate_group(3, "B"):
        sigma = compose(p, tau.inverse())
        total += epp_count(tau, pm) * epp_count(sigma, pm)
    assert total == epp_count(p, productB)


def _paired(tau, s, t, second):
    # the pair map: position i carries (s_i, t at tau(i)), where a negative
    # index reads the mirrored letter
    out = []
    for i in range(1, tau.n + 1):
        m = tau.value(i)
        tv = t[m - 1] if m > 0 else second.negate(t[-m - 1])
        out.append((s[i - 1], tv))
    return tuple(out)


def _check_pairing_bijection(kind, n, first, second):
    product = Alphabet.product(first, second)
    for p in enumerate_group(n, kind):
        direct = set(epp_values(p, product))
        built = []
        for tau in enumerate_group(n, kind):
            sigma = compose(p, tau.inverse())
            for s in epp_values(tau, first):
                for t in epp_values(sigma, second):
                    built.append(_paired(tau, s, t, second))
        assert len(built) == len(set(built)), p
        assert set(built) == direct, p


def test_pairing_bijection_unsigned():
    prime = Alphabet.prime(2)
    left = Alphabet.left(2)
    for n in (1, 2, 3):
        _check_pairing_bijection("A", n, prime, prime)
        _check_pairing_bijection("A", n, left, prime)


def test_pairing_bijection_signed():
    pm = Alphabet.plus_minus(2)
    for n in (1, 2, 3):
        _check_pairing_bijection("B", n, pm, pm)


def test_pairing_bijection_injective_at_four():
    prime = Alphabet.prime(1)
    product = Alphabet.product(prime, prime)
    for p in [Permutation((2, 1, 4, 3)), Permutation((1, 3, 2, 4))]:
        built = []
        for tau in enumerate_group(4, "A"):
            sigma = compose(p, tau.inverse())
            for s in epp_values(tau, prime):
                for t in epp_values(sigma, prime):
                    built.append(_paired(tau, s, t, prime))
        assert len(built) == len(set(built))
        assert set(built) == set(epp_values(p, product))
