"""Windows, peak/descent statistics, ranking, and compositions."""

import itertools

import pytest

from peakalg.permutations import (
    Composition,
    Permutation,
    SignedPermutation,
    compose,
    compositions,
    descent_set,
    enumerate_group,
    enumerate_peak_sets,
    enumerate_stat_sets,
    fibonacci,
    group_order,
    peak_set,
    rank,
    sparse_subsets,
    stat_set,
    StatSet,
    unrank,
)

import peak_oracle as oracle


def test_frozen_peak_examples():
    p = Permutation((2, 1, 4, 3, 5))
    assert str(peak_set(p, "interiorPeak")) == "{3}"
    assert str(peak_set(p, "leftPeak")) == "{1,3}"
    assert str(peak_set(p, "rightPeak")) == "{3,5}"
    assert str(peak_set(p, "exteriorPeak")) == "{1,3,5}"
    assert str(descent_set(p, "descentA")) == "{1,3}"

    sp = SignedPermutation.parse("-2,3,4,-5,1")
    assert str(peak_set(sp, "typeBPeak")) == "{0,3}"
    assert str(descent_set(sp, "descentB")) == "{0,3}"


def test_parse_and_str_round_trip():
    assert Permutation.parse("3,1,2").window == (3, 1, 2)
    assert str(Permutation((3, 1, 2))) == "3,1,2"
    assert SignedPermutation.parse("-1,2").window == (-1, 2)
    assert str(SignedPermutation((-1, 2))) == "-1,2"


def test_window_validation():
    with pytest.raises(ValueError):
        Permutation((1, 1))
    with pytest.raises(ValueError):
        Permutation((0, 1))
    with pytest.raises(ValueError):
        SignedPermutation((1, -1))
    with pytest.raises(ValueError):
        SignedPermutation((2, 3))


def test_value_sign_rule():
    sp = SignedPermutation((-2, 3, -1))
    assert sp.value(0) == 0
    for i in range(1, 4):
        assert sp.value(-i) == -sp.value(i)
    assert sp.value(2) == 3 and sp.value(-2) == -3


def test_compose_convention():
    assert compose(Permutation((1, 3, 2)), Permutation((2, 3, 1))).window == (3, 2, 1)
    assert compose(SignedPermutation((-1,)), SignedPermutation((-1,))).window == (1,)
    # (a.b)(i) = a(b(i)) pointwise, signed case included
    a = SignedPermutation((2, -1, 3))
    b = SignedPermutation((-3, 1, -2))
    ab = compose(a, b)
    for i in range(1, 4):
        assert ab.value(i) == a.value(b.value(i))


def test_compose_rejects_mixed_kinds():
    with pytest.raises(ValueError):
        compose(Permutation((1, 2)), SignedPermutation((1, 2)))


def test_inverse_exhaustive():
    for p in enumerate_group(3, "A"):
        assert compose(p, p.inverse()) == Permutation.identity(3)
        assert compose(p.inverse(), p) == Permutation.identity(3)
    for p in enumerate_group(2, "B"):
        assert compose(p, p.inverse()) == SignedPermutation.identity(2)
        assert compose(p.inverse(), p) == SignedPermutation.identity(2)


def test_group_orders_and_rank_round_trip():
    assert group_order(4, "A") == 24
    assert group_order(3, "B") == 48
    for n, kind in [(3, "A"), (4, "A"), (2, "B"), (3, "B")]:
        elements = list(enumerate_group(n, kind))
        assert len(elements) == group_order(n, kind)
        assert len(set(elements)) == len(elements)
        for r, e in enumerate(elements):
            assert rank(e) == r
            assert unrank(r, n, kind) == e


def test_unknown_kinds_are_refused():
    # no third group: a kind other than A or B is an error, not some group
    for call in (lambda: group_order(3, "C"), lambda: unrank(0, 2, "Z"),
                 lambda: next(enumerate_group(2, "C"))):
        with pytest.raises(ValueError, match="unknown kind"):
            call()


def test_interior_left_containment():
    # interior peaks are left peaks; the only extra left peak can sit at 1
    for n in range(1, 6):
        for p in enumerate_group(n, "A"):
            interior = peak_set(p, "interiorPeak").members
            left = peak_set(p, "leftPeak").members
            assert interior <= left
            assert left - interior <= {1}


def test_unsigned_windows_have_left_flavored_signed_peaks():
    for n in range(1, 5):
        for p in enumerate_group(n, "A"):
            sp = SignedPermutation(p.window)
            assert peak_set(sp, "typeBPeak").members == peak_set(p, "leftPeak").members


def test_signed_peak_at_zero_rule():
    for n in range(1, 4):
        for p in enumerate_group(n, "B"):
            members = peak_set(p, "typeBPeak").members
            assert (0 in members) == (p.window[0] < 0)
            assert not ({0, 1} <= members)


def test_peaks_never_adjacent():
    for n in range(1, 6):
        for p in enumerate_group(n, "A"):
            for flavor in ("interiorPeak", "leftPeak", "rightPeak", "exteriorPeak"):
                members = sorted(peak_set(p, flavor).members)
                assert all(b - a >= 2 for a, b in zip(members, members[1:]))


def test_descent_sets():
    for n in range(1, 5):
        for p in enumerate_group(n, "A"):
            expected = {i for i in range(1, n) if p.window[i - 1] > p.window[i]}
            assert descent_set(p, "descentA").members == expected
        for p in enumerate_group(min(n, 3), "B"):
            members = descent_set(p, "descentB").members
            assert (0 in members) == (p.window[0] < 0)


def test_stat_set_dispatch():
    p = Permutation((2, 1, 4, 3, 5))
    assert stat_set(p, "interiorPeak") == peak_set(p, "interiorPeak")
    assert stat_set(p, "descentA") == descent_set(p, "descentA")
    with pytest.raises(ValueError):
        stat_set(p, "noSuchFlavor")


def test_stat_set_validation():
    assert StatSet.of("interiorPeak", 5, [3]).members == frozenset({3})
    with pytest.raises(ValueError):
        StatSet.of("interiorPeak", 5, [1])  # interior window starts at 2
    with pytest.raises(ValueError):
        StatSet.of("typeBPeak", 3, [0, 1])  # adjacent peaks
    with pytest.raises(ValueError):
        StatSet.of("descentA", 3, [0])  # descents start at 1
    assert StatSet.parse("typeBPeak", 3, "{0,2}").members == frozenset({0, 2})
    assert StatSet.parse("interiorPeak", 3, "{}").members == frozenset()
    with pytest.raises(ValueError):
        StatSet.parse("interiorPeak", 3, "2")  # braces required


def test_peak_set_counts_are_fibonacci():
    assert [fibonacci(k) for k in range(8)] == [1, 1, 2, 3, 5, 8, 13, 21]
    for n in range(1, 8):
        assert len(enumerate_peak_sets(n, "interiorPeak")) == fibonacci(n - 1)
        assert len(enumerate_peak_sets(n, "leftPeak")) == fibonacci(n)
        assert len(enumerate_peak_sets(n, "typeBPeak")) == fibonacci(n + 1)


def test_every_enumerated_peak_set_is_realized():
    for n in range(1, 6):
        realized = {peak_set(p, "interiorPeak").members for p in enumerate_group(n, "A")}
        assert realized == {s.members for s in enumerate_peak_sets(n, "interiorPeak")}
        realized = {peak_set(p, "leftPeak").members for p in enumerate_group(n, "A")}
        assert realized == {s.members for s in enumerate_peak_sets(n, "leftPeak")}
    for n in range(1, 5):
        realized = {peak_set(p, "typeBPeak").members for p in enumerate_group(n, "B")}
        assert realized == {s.members for s in enumerate_peak_sets(n, "typeBPeak")}


def test_enumerate_stat_sets_descents():
    assert len(enumerate_stat_sets(4, "descentA")) == 8
    assert len(enumerate_stat_sets(3, "descentB")) == 8


def test_sparse_subsets():
    got = sparse_subsets(1, 3)
    assert got == [frozenset(), frozenset({1}), frozenset({2}), frozenset({3}), frozenset({1, 3})]
    assert sparse_subsets(2, 1) == [frozenset()]


def test_composition_subset_bijection():
    assert Composition.from_subset({1, 3}, 5).parts == (1, 2, 2)
    assert Composition.from_subset({0}, 1, typeB=True).parts == (0, 1)
    assert Composition((1, 2, 2)).to_subset() == frozenset({1, 3})
    assert Composition((0, 1), typeB=True).to_subset() == frozenset({0})
    for n in range(5):
        for typeB in (False, True):
            for comp in compositions(n, typeB):
                back = Composition.from_subset(comp.to_subset(), n, typeB)
                assert back == comp
    assert len(compositions(4)) == 8
    assert len(compositions(4, True)) == 16


def test_composition_validation():
    with pytest.raises(ValueError):
        Composition((0, 1))  # leading zero needs the signed variant
    with pytest.raises(ValueError):
        Composition((1, 0), typeB=True)  # zero only allowed up front
    assert Composition((), typeB=False).degree == 0
    assert Composition((2, 1)).length == 2


def test_peak_sets_determined_by_descent_sets():
    # peak positions are exactly descents not preceded by a descent
    for p in enumerate_group(4, "A"):
        des = descent_set(p, "descentA").members
        expected = {i for i in des if i - 1 not in des and i >= 2}
        assert peak_set(p, "interiorPeak").members == expected
        expected = {i for i in des if i - 1 not in des}
        assert peak_set(p, "leftPeak").members == expected
    for p in enumerate_group(3, "B"):
        des = descent_set(p, "descentB").members
        expected = {i for i in des if i - 1 not in des}
        assert peak_set(p, "typeBPeak").members == expected


def test_windows_agree_with_the_oracle():
    # inverses and statistics at every window of A_n, n <= 5, and B_n, n <= 4;
    # products of all pairs at A_n, n <= 3, and B_n, n <= 2
    flavors = {"interiorPeak": "interiorPeak", "leftPeak": "leftPeak",
               "typeBPeak": "typeBPeak", "descentB": "descent"}
    for kind, n_max, n_pairs in (("A", 5, 3), ("B", 4, 2)):
        for n in range(1, n_max + 1):
            windows = list(enumerate_group(n, kind))
            assert {p.window for p in windows} == set(oracle.group(kind, n))
            for p in windows:
                assert p.inverse().window == oracle.inverse(p.window), p
                for flavor, name in flavors.items():
                    assert stat_set(p, flavor).members == oracle.statistic(p.window, name), (p, flavor)
            if n <= n_pairs:
                for p, q in itertools.product(windows, repeat=2):
                    assert compose(p, q).window == oracle.compose(p.window, q.window), (p, q)
