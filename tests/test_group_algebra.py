"""Convolution algebra over window groups: class sums, structure tables,
closure and duality checks."""

import functools
import itertools
import json
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from peakalg import enriched, eulerian, group_algebra
from peakalg.alphabets import Alphabet
from peakalg.eulerian import BATTERY_STATISTICS
from peakalg.group_algebra import (
    AlgebraElement,
    class_sums,
    closure_check,
    descent_algebra_containment,
    factorization_counts,
    ideal_check,
    multiplicative_closure,
    sorted_keys,
    stat_classes,
    structure_table,
    verify_duality,
)
from peakalg.linalg import Span
from peakalg.permutations import (
    FLAVORS,
    SIGNED_FLAVORS,
    Permutation,
    SignedPermutation,
    compose,
    enumerate_group,
    fibonacci,
    group_order,
    inverse_window,
    rank,
    stat_set,
    unrank,
    windows,
)

import peak_oracle as oracle

F = Fraction


def test_convolution_convention():
    # the left operand supplies the right factor of each product; over all
    # pairs this reads every entry of every product row of the group
    for n, kind in ((3, "A"), (4, "A"), (2, "B"), (3, "B")):
        for a, b in itertools.product(enumerate_group(n, kind), repeat=2):
            u, w = AlgebraElement.delta(a), AlgebraElement.delta(b)
            assert u.convolve(w) == AlgebraElement.delta(compose(b, a)), (a, b)


def test_convolution_brute_force():
    # sparse products, also at A_7 and B_5, against composing and ranking
    for n, kind in ((3, "A"), (7, "A"), (5, "B")):
        order = group_order(n, kind)
        u = AlgebraElement(n, kind, {0: F(2), 3: F(-1), order // 2: F(1, 3), order - 1: F(4)})
        w = AlgebraElement(n, kind, {1: F(1), 5: F(7, 2), order // 3: F(-2), order - 2: F(5, 6)})
        brute = {}
        for rt, ct in u.coeffs.items():
            for rs, cs in w.coeffs.items():
                t, s = unrank(rt, n, kind), unrank(rs, n, kind)
                key = rank(compose(s, t))
                brute[key] = brute.get(key, F(0)) + ct * cs
        assert u.convolve(w).coeffs == {k: v for k, v in brute.items() if v}, (n, kind)


def _flavors(kind):
    """The flavors a group of this kind is asked for: a signed flavor reads B_n."""
    return [flavor for flavor in FLAVORS if kind == "B" or flavor not in SIGNED_FLAVORS]


def test_stat_keys_read_off_the_columns_match_stat_set():
    # every window against the per-element statistic, in both modes, for
    # every flavor the kind answers; the empty and one-letter groups included
    for n, kind in [(n, "A") for n in range(7)] + [(n, "B") for n in range(5)]:
        elements = list(enumerate_group(n, kind))
        for flavor in _flavors(kind):
            members = [stat_set(p, flavor).members for p in elements]
            for mode, expected in (("set", members), ("number", list(map(len, members)))):
                keys, ids, classes = group_algebra._partition(n, kind, flavor, mode)
                assert [keys[i] for i in ids] == expected, (n, kind, flavor, mode)
                # the keys in order of first appearance, each class its ranks ascending
                assert list(keys) == list(dict.fromkeys(expected)), (n, kind, flavor, mode)
                assert classes == tuple(tuple(r for r, i in enumerate(ids) if i == c) for c in range(len(keys)))


def test_unknown_kind_flavor_or_mode_is_refused():
    for args, message in (((3, "C", "interiorPeak", "set"), "unknown kind"),
                          ((3, "A", "noSuchPeak", "set"), "unknown flavor"),
                          ((3, "A", "interiorPeak", "count"), "unknown mode")):
        with pytest.raises(ValueError, match=message):
            group_algebra._partition(*args)
        with pytest.raises(ValueError, match=message):
            stat_classes(*args)


def test_a_signed_flavor_is_refused_on_kind_a():
    # every class question reads the statistic's codes, which refuse a signed
    # flavor on S_n instead of answering as though it were an ordinary one
    for flavor in SIGNED_FLAVORS:
        for question in (
            lambda: closure_check(3, "A", flavor),
            lambda: ideal_check(3, "A", flavor, "leftPeak"),
            lambda: ideal_check(3, "A", "interiorPeak", flavor),
            lambda: verify_duality(3, "A", flavor),
            lambda: structure_table(3, "A", flavor, "set"),
            lambda: factorization_counts(3, "A", 0, flavor, "number"),
            lambda: class_sums(0, "A", flavor, "set"),
            lambda: stat_classes(2, "A", flavor, "number"),
        ):
            with pytest.raises(ValueError, match=f"{flavor} is a signed flavor"):
                question()
    # the same flavors still answer on B_n
    assert closure_check(2, "B", "typeBPeak")["closed"]


def test_product_rows_and_inverses_match_composing():
    # every entry of every row, the empty and the one-letter groups included,
    # built in rank order and again in a shuffled order; each expected entry
    # composes the two window tuples, (p.q)(i) = p(q(i)) with p(-j) = -p(j),
    # and looks the product up by window
    shuffle = random.Random(20261018).shuffle
    for n, kind in [(n, "A") for n in range(7)] + [(n, "B") for n in range(5)]:
        group = windows(n, kind)
        index = {window: r for r, window in enumerate(group)}
        inverses = group_algebra._inverse_ranks(n, kind)
        expected = []
        for p in group:
            value = (0, *p, *(-v for v in reversed(p)))  # p(j) at index j, negative j from the end
            expected.append(tuple(index[tuple(map(value.__getitem__, q))] for q in group))
        order = list(range(len(group)))
        for shuffled in (False, True):
            if shuffled:
                shuffle(order)
            for r in order:
                assert group_algebra._row(n, kind, r) == expected[r], (n, kind, r, shuffled)
        for r, p in enumerate(group):
            assert inverses[r] == index[inverse_window(p)], (n, kind, r)


def test_inverse_ranks_match_inverting_each_window():
    # the column-wise inverse ranks against inverting window by window, at
    # every rank of A_n for n <= 7 and B_n for n <= 6, n = 0 and 1 included
    for n, kind in [(n, "A") for n in range(8)] + [(n, "B") for n in range(7)]:
        index = {window: r for r, window in enumerate(windows(n, kind))}
        expected = tuple(index[inverse_window(window)] for window in index)
        assert group_algebra._inverse_ranks(n, kind) == expected, (n, kind)


def test_factor_getters_are_bounded_by_digits():
    # a group holds one getter per (slot, nonzero digit): n(n-1)/2 Lehmer
    # factors and, for B_n, n sign flips, whatever vector is walked through them
    for n, kind in ((6, "A"), (4, "B")):
        group_algebra._factor.cache_clear()
        ids = group_algebra._partition(n, kind, "leftPeak", "set").ids
        for r in range(group_order(n, kind)):
            group_algebra._row(n, kind, r)
            group_algebra._walk(n, kind, ids, r)
        factors = n * (n - 1) // 2 + (n if kind == "B" else 0)
        assert group_algebra._factor.cache_info().currsize == factors


def test_the_kernel_keeps_no_rows():
    # a walk builds each target's row and drops it: with the partition,
    # cell, code and factor caches warm, an A_6 closure holds nothing after
    closure_check(6, "A", "leftPeak")
    tracemalloc.start()
    try:
        assert closure_check(6, "A", "leftPeak")["closed"]
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 1 << 20, held


def test_rows_of_the_groups_with_no_digit_or_one_digit():
    # S_0, S_1 and B_0 have no digit and B_1 one sign digit; the rank row
    # and a class-id row are read at every rank
    for n, kind in ((0, "A"), (1, "A"), (1, "B"), (0, "B")):
        elements = list(enumerate_group(n, kind))
        ids = group_algebra._partition(n, kind, "leftPeak", "set").ids
        for r in range(len(elements)):
            products = [rank(compose(elements[r], q)) for q in elements]
            assert group_algebra._row(n, kind, r) == tuple(products), (n, kind, r)
            assert group_algebra._walk(n, kind, ids, r) == tuple(ids[j] for j in products), (n, kind, r)


def test_class_id_rows_read_the_ids_at_the_rank_rows():
    # every rank, with two statistics' class ids walked as the ideal check
    # walks them
    for n, kind in [(n, "A") for n in range(7)] + [(n, "B") for n in range(5)]:
        first, second = _flavors(kind)[-2:]
        statistics = [(first, "set"), (second, "number")]
        ids = {statistic: group_algebra._partition(n, kind, *statistic).ids for statistic in statistics}
        for r in range(group_order(n, kind)):
            row = group_algebra._row(n, kind, r)
            for statistic in statistics:
                expected = tuple(ids[statistic][j] for j in row)
                assert group_algebra._walk(n, kind, ids[statistic], r) == expected, (n, kind, r, statistic)


def test_factorization_counts_match_composing_every_pair():
    for n, kind in [(n, "A") for n in range(5)] + [(n, "B") for n in range(4)]:
        elements = list(enumerate_group(n, kind))
        pairs = {}  # rank of s.t -> [(t, s)]
        for s, t in itertools.product(elements, repeat=2):
            pairs.setdefault(rank(compose(s, t)), []).append((t, s))
        for flavor in _flavors(kind):
            for mode in ("set", "number"):
                def key(q):
                    members = stat_set(q, flavor).members
                    return len(members) if mode == "number" else members

                for r, target in enumerate(elements):
                    brute = Counter((key(t), key(s)) for t, s in pairs[r])
                    assert factorization_counts(n, kind, rank(target), flavor, mode) == brute, (target, flavor, mode)


def _s_sides(n, kind, r):
    """The ranks of target.t^-1, t in rank order, for the target of rank r,
    read off the kernel's rank row at the inverse ranks."""
    row = group_algebra._row(n, kind, r)
    return [row[i] for i in group_algebra._inverse_ranks(n, kind)]


def _pairwise_tally(n, kind, s_sides, t_flavor, s_flavor, mode):
    """Factorization counts s.t = target tallied pair by pair: t pairs with
    s = target.t^-1, the s sides given by `_s_sides`; counted by one integer
    code per (class of t, class of s)."""
    t_keys, t_ids, _ = group_algebra._partition(n, kind, t_flavor, mode)
    s_keys, s_ids, _ = group_algebra._partition(n, kind, s_flavor, mode)
    width = len(s_keys)
    codes = Counter([width * a + s_ids[s] for a, s in zip(t_ids, s_sides)])
    return {(t_keys[code // width], s_keys[code % width]): count for code, count in codes.items()}


def test_factorization_counts_match_a_pairwise_tally():
    for n, kind in [(n, "A") for n in range(7)] + [(n, "B") for n in range(5)]:
        for flavor in _flavors(kind):
            for mode in ("set", "number"):
                for r in range(group_order(n, kind)):
                    counts = factorization_counts(n, kind, r, flavor, mode)
                    expected = _pairwise_tally(n, kind, _s_sides(n, kind, r), flavor, flavor, mode)
                    assert counts == expected, (n, kind, r, flavor, mode)


def test_tallies_of_two_statistics_match_a_pairwise_tally():
    # every ordered pair of flavors, both modes, every rank; the descent sets
    # of A_5 and the signed descent sets of B_4 have 16 classes each
    for n, kind in [(n, "A") for n in range(6)] + [(n, "B") for n in range(5)]:
        for r in range(group_order(n, kind)):
            s_sides = _s_sides(n, kind, r)
            for t_flavor, s_flavor in itertools.product(_flavors(kind), repeat=2):
                for mode in ("set", "number"):
                    counts = group_algebra._tally(n, kind, r, t_flavor, s_flavor, mode)
                    expected = _pairwise_tally(n, kind, s_sides, t_flavor, s_flavor, mode)
                    assert counts == expected, (n, kind, r, t_flavor, s_flavor, mode)


def test_identity_is_the_unit():
    one = AlgebraElement.identity(3, "A")
    u = AlgebraElement(3, "A", {0: F(2), 3: F(-1), 4: F(5, 3)})
    assert one.convolve(u) == u and u.convolve(one) == u
    oneB = AlgebraElement.identity(2, "B")
    v = AlgebraElement(2, "B", {i: F(i + 1) for i in range(8)})
    assert oneB.convolve(v) == v and v.convolve(oneB) == v


def test_element_arithmetic():
    u = AlgebraElement.delta(Permutation((2, 1, 3)))
    v = AlgebraElement.delta(Permutation((1, 2, 3)))
    assert (u + v) - v == u
    assert u.scale(0).is_zero()
    assert (u * v) == u.convolve(v)
    w = u + v.scale(F(1, 2))
    assert w.coeffs == {rank(Permutation((2, 1, 3))): 1, 0: F(1, 2)}
    assert w - w == AlgebraElement.zero(3, "A") and w != u and hash(w) == hash(AlgebraElement(3, "A", w.coeffs))
    assert u.support() == [Permutation((2, 1, 3))]


def test_kind_mixing_is_rejected():
    u = AlgebraElement.identity(2, "A")
    v = AlgebraElement.identity(2, "B")
    with pytest.raises(ValueError):
        u.convolve(v)
    with pytest.raises(ValueError):
        u + v


def test_an_element_with_a_rank_outside_its_group_is_refused():
    for rank in (-1, 6):
        with pytest.raises(ValueError, match="out of range"):
            AlgebraElement(3, "A", {rank: 1})


def test_stat_classes_partition_the_group():
    classes = stat_classes(4, "A", "interiorPeak", mode="set")
    assert sum(len(v) for v in classes.values()) == group_order(4, "A")
    assert set(classes) == {frozenset(), frozenset({2}), frozenset({3})}
    number = stat_classes(4, "A", "interiorPeak", mode="number")
    assert set(number) == {0, 1}
    assert sum(len(v) for v in number.values()) == group_order(4, "A")


def test_stat_classes_view_one_cached_partition():
    # every class question on one statistic builds its partition once, and
    # the descent partition its cells read once; the classes handed out are
    # tuples, so no caller can alter the cached ranks
    group_algebra._partition.cache_clear()
    group_algebra._cells.cache_clear()
    structure_table(4, "B", "typeBPeak")
    closure_check(4, "B", "typeBPeak")
    verify_duality(4, "B", "typeBPeak")
    classes = stat_classes(4, "B", "typeBPeak")
    assert group_algebra._partition.cache_info().misses == 2
    assert all(type(ranks) is tuple for ranks in classes.values())
    classes.clear()  # the dict itself is the caller's own
    assert sum(map(len, stat_classes(4, "B", "typeBPeak").values())) == group_order(4, "B")
    assert group_algebra._partition.cache_info().misses == 2


def test_every_class_walk_calls_the_public_factorization_counts(monkeypatch):
    # a counting wrapper bound in every namespace that imports the function,
    # as the benchmark's tracer binds its wrappers
    original = group_algebra.factorization_counts
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (group_algebra, eulerian, enriched):
        monkeypatch.setattr(module, "factorization_counts", counted)
    prime = Alphabet.prime(2)
    # a passing closure and duality read one window per descent class, a
    # table every class representative, the idempotents report one window
    # per descent class of S_4, a census its one window
    for walk, expected in (
        (lambda: closure_check(3, "A", "interiorPeak"), 4),
        (lambda: verify_duality(3, "B", "typeBPeak"), 8),
        (lambda: structure_table(4, "A", "leftPeak", "number"), len(stat_classes(4, "A", "leftPeak", "number"))),
        (lambda: eulerian.verify_rho_multiplicativity(4), 8),
        (lambda: enriched.factorization_census(Permutation((2, 3, 1)), prime, prime), 1),
        # a failing closure stops at its first mismatching cell: 3 of 16 cells
        (lambda: closure_check(4, "B", "typeBPeak"), 3),
    ):
        calls.clear()
        walk()
        assert len(calls) == expected
    # B exteriorPeak is no union of descent classes, so every window is a
    # cell: its failing closure reads the windows the every-window walk
    # reads, up to the same first mismatch
    calls.clear()
    closure_check(3, "B", "exteriorPeak")
    read = []
    counts = lambda r: read.append(r) or original(3, "B", r, "exteriorPeak")
    next(_every_window_mismatches(3, "B", "exteriorPeak", "set", counts))
    assert [args[2] for args in calls] == read and len(read) < group_order(3, "B")


def _every_window_mismatches(n, kind, flavor, mode, counts_of, *others):
    """The reference walk, blind to cells: every member of every class, in
    rank order, against the class representative."""
    keys, _, members = group_algebra._partition(n, kind, flavor, mode)
    for key, ranks in zip(keys, members):
        base = counts_of(ranks[0])
        for r in ranks[1:]:
            counts = counts_of(r)
            if counts != base:
                yield key, ranks[0], r, {
                    pair: (base.get(pair, 0), counts.get(pair, 0))
                    for pair in base.keys() | counts.keys()
                    if base.get(pair, 0) != counts.get(pair, 0)
                }


def _single_window_cells(n, kind, *flavors):
    ranks = tuple(range(group_order(n, kind)))
    return ranks, ranks


def _class_reports(n, kind, flavor, mode):
    """The class questions on the statistic that read factorization
    tallies, ideal checks against every flavor of the kind included."""
    return {
        "closure": closure_check(n, kind, flavor, mode),
        "duality": verify_duality(n, kind, flavor, mode),
        "ideal": {outer: ideal_check(n, kind, flavor, outer, mode) for outer in _flavors(kind)},
    }


def test_questions_read_at_one_window_per_cell_match_the_every_window_walk(monkeypatch):
    # every flavor, the descent flavors and B exteriorPeak (whose cells are
    # single windows) included, both modes, A n <= 6 and B n <= 4: each
    # report, certificates included, equals the one the every-window walk
    # gives; the multiplicative closure kept by cell equals the one kept by
    # rank, and the idempotents report its every-window self.  Where every
    # window is already a cell, the closure is its own reference.
    cases = [(n, kind, flavor, mode) for kind, top in (("A", 6), ("B", 4)) for n in range(top + 1)
             for flavor in _flavors(kind) for mode in ("set", "number")]
    celled = {where for where in cases if group_algebra._cells(*where[:3]) != _single_window_cells(*where[:2])}
    read = {where: _class_reports(*where) for where in cases}
    grown = {where: multiplicative_closure(*where) for where in celled}
    rho = {n: eulerian.verify_rho_multiplicativity(n) for n in range(1, 7)}
    monkeypatch.setattr(group_algebra, "_mismatches", _every_window_mismatches)
    for module in (group_algebra, eulerian):
        monkeypatch.setattr(module, "_cells", _single_window_cells)
    # each window's tallies are read once across the reference reports
    monkeypatch.setattr(group_algebra, "_tally", functools.lru_cache(maxsize=None)(group_algebra._tally))
    verdicts = set()
    for where in cases:
        reference = _class_reports(*where)
        assert read[where] == reference, where
        verdicts.add((reference["closure"]["closed"], reference["duality"]["consistent"]))
    assert verdicts == {(True, True), (False, False)}
    for where in celled:
        assert grown[where] == multiplicative_closure(*where), where
    # from n = 3 on, only B rightPeak and exteriorPeak are no unions of descent classes
    assert {where[1:3] for where in cases if where not in celled and where[0] > 2} == {("B", "rightPeak"), ("B", "exteriorPeak")}
    for n, report in rho.items():
        every = eulerian.verify_rho_multiplicativity(n)
        assert every.pop("windows_tallied") == math.factorial(n) and report.pop("windows_tallied") == 2 ** (n - 1)
        assert report == every, n


def test_counts_by_descent_pair_are_constant_on_each_descent_class():
    # the theorem the cells rest on (Solomon: the descent class sums span a
    # subalgebra), at the sizes the tests read: the factorization counts of
    # p by the descent sets of (t, s) are the same at every p of one descent
    # class.  Recounted by the oracle at A n <= 4 and B n <= 3, and by the
    # library at A n <= 6 and B n <= 4
    assert all(oracle.closes(kind, n, "descent") for kind, top in (("A", 4), ("B", 3)) for n in range(1, top + 1))
    for kind, top in (("A", 6), ("B", 4)):
        for n in range(top + 1):
            for ranks in stat_classes(n, kind, "descent" + kind).values():
                counts = factorization_counts(n, kind, ranks[0], "descent" + kind)
                assert all(factorization_counts(n, kind, r, "descent" + kind) == counts for r in ranks), (kind, n)


def test_frozen_structure_constant():
    table = structure_table(3, "A", "interiorPeak")
    assert table.count(frozenset({2}), frozenset({2}), frozenset()) == 1
    assert table.n == 3 and table.kind == "A" and table.mode == "set"


def test_structure_constants_count_factorizations():
    # entry (A, B -> C) counts factorizations of one window per class C
    table = structure_table(3, "A", "interiorPeak")
    for target in enumerate_group(3, "A"):
        if stat_set(target, "interiorPeak").members != frozenset():
            continue
        counts = factorization_counts(3, "A", rank(target), "interiorPeak")
        pair = (frozenset({2}), frozenset({2}))
        assert counts[pair] == table.count(frozenset({2}), frozenset({2}), frozenset())
        break
    # every window's counts agree with the independent oracle's recount
    for n, kind, flavors in ((4, "A", ("interiorPeak", "leftPeak")), (3, "B", ("typeBPeak",))):
        for flavor in flavors:
            for target in enumerate_group(n, kind):
                recount = oracle.factorizations(target.window, kind, flavor)
                assert factorization_counts(n, kind, rank(target), flavor) == recount, (target, flavor)


def test_duality_holds_for_unsigned_windows():
    for n in (2, 3, 4):
        assert verify_duality(n, "A", "interiorPeak")["consistent"]
        assert verify_duality(n, "A", "leftPeak")["consistent"]
        assert verify_duality(n, "A", "interiorPeak")["audit"] is None
        assert verify_duality(n, "A", "leftPeak")["audit"] is None


def test_duality_fails_for_signed_windows_at_three():
    assert verify_duality(2, "B", "typeBPeak")["consistent"]
    assert verify_duality(2, "B", "typeBPeak")["audit"] is None
    bad = verify_duality(3, "B", "typeBPeak")
    assert not bad["consistent"] and bad["mismatches"]
    table = structure_table(3, "B", "typeBPeak")
    for mismatch in bad["mismatches"]:
        # the difference is the window's count minus its class representative's
        window, representative = (SignedPermutation.parse(mismatch[k]) for k in ("window", "representative"))
        key = frozenset(mismatch["class"])
        assert stat_set(window, "typeBPeak").members == key == stat_set(representative, "typeBPeak").members
        pair = (frozenset(mismatch["A"]), frozenset(mismatch["B"]))
        counts = [factorization_counts(3, "B", rank(w), "typeBPeak").get(pair, 0)
                  for w in (window, representative)]
        assert F(mismatch["difference"]) == counts[0] - counts[1] != 0
        # the representative is the class's minimal-rank member, as in
        # structure_table, and the window the minimal-rank one where the two
        # sides differ
        assert all(
            stat_set(unrank(below, 3, "B"), "typeBPeak").members != key for below in range(rank(representative))
        )
        for below in range(rank(window)):
            other = unrank(below, 3, "B")
            other_key = stat_set(other, "typeBPeak").members
            assert factorization_counts(3, "B", below, "typeBPeak").get(pair, 0) == table.count(*pair, other_key)
    # one record per pair
    assert len({(str(m["A"]), str(m["B"])) for m in bad["mismatches"]}) == len(bad["mismatches"])
    audit = bad["audit"]
    assert audit is not None
    assert audit["windows"]


# Dense references: duality and closure decided from the products of every
# pair of class sums by `convolve`, independently of the comparison of
# factorization counts that the library uses


def _json_key(key):
    return key if isinstance(key, int) else sorted(key)


def _dense_verify_duality(n, kind, flavor, mode):
    table = structure_table(n, kind, flavor, mode)
    sums = class_sums(n, kind, flavor, mode)
    keys = sorted_keys(sums)
    elements = list(enumerate_group(n, kind))
    class_of = {r: key for key, v in sums.items() for r in v.coeffs}
    products = {(key_a, key_b): sums[key_a].convolve(sums[key_b]).coeffs for key_a in keys for key_b in keys}
    mismatches = []
    for key_a in keys:
        for key_b in keys:
            lhs = products[key_a, key_b]
            for r, window in enumerate(elements):
                key_c = class_of[r]
                difference = lhs.get(r, 0) - table.count(key_a, key_b, key_c)
                if difference:
                    mismatches.append({
                        "A": _json_key(key_a), "B": _json_key(key_b), "window": str(window),
                        "class": _json_key(key_c), "representative": str(elements[min(sums[key_c].coeffs)]),
                        "difference": str(difference),
                    })
                    break
    # the audit: the first member, class by class in order of least rank,
    # whose products differ from its representative's, with every pair that differs
    audit = None
    for ranks in sorted(sorted(v.coeffs) for v in sums.values()):
        base = ranks[0]
        for r in ranks[1:]:
            differences = {str((_json_key(a), _json_key(b))): [lhs.get(base, 0), lhs.get(r, 0)]
                           for (a, b), lhs in products.items() if lhs.get(base, 0) != lhs.get(r, 0)}
            if differences:
                audit = {"class": _json_key(class_of[r]), "windows": [str(elements[base]), str(elements[r])],
                         "differences": differences}
                break
        if audit:
            break
    return {"consistent": not mismatches, "mismatches": mismatches, "audit": audit}


def _dense_closure(n, kind, flavor, mode):
    """(closed, dim): closed when every product of two class sums is constant
    on every class."""
    classes = stat_classes(n, kind, flavor, mode)
    sums = class_sums(n, kind, flavor, mode).values()
    closed = all(
        len({product.coeffs.get(r, 0) for r in ranks}) == 1
        for product in (u.convolve(w) for u in sums for w in sums)
        for ranks in classes.values()
    )
    return closed, len(classes)


def test_count_comparison_matches_the_dense_deciders():
    verdicts = set()
    for n, kind in [(n, "A") for n in range(1, 6)] + [(n, "B") for n in range(1, 5)]:
        elements = list(enumerate_group(n, kind))
        rank_of = {str(p): r for r, p in enumerate(elements)}
        for flavor in _flavors(kind):
            for mode in ("set", "number"):
                where = (n, kind, flavor, mode)
                duality = verify_duality(n, kind, flavor, mode)
                assert json.dumps(duality) == json.dumps(_dense_verify_duality(n, kind, flavor, mode)), where
                report = closure_check(n, kind, flavor, mode)
                assert (report["closed"], report["dim"]) == _dense_closure(n, kind, flavor, mode), where
                verdicts.add((report["closed"], duality["consistent"]))
                if report["closed"]:
                    assert report["certificate"] is None, where
                    continue
                # the representative and a member of one class, where the
                # dense product v_A * v_B takes the two reported values
                certificate = report["certificate"]
                key = certificate["class"]
                members = stat_classes(n, kind, flavor, mode)[key if isinstance(key, int) else frozenset(key)]
                ranks = [rank_of[w] for w in certificate["windows"]]
                assert ranks[0] == min(members) and ranks[1] in members, (where, certificate)
                sums = class_sums(n, kind, flavor, mode)
                pair = [k if isinstance(k, int) else frozenset(k) for k in (certificate["A"], certificate["B"])]
                product = sums[pair[0]].convolve(sums[pair[1]])
                assert certificate["values"] == [str(product.coeffs.get(r, 0)) for r in ranks], (where, certificate)
                assert certificate["values"][0] != certificate["values"][1], (where, certificate)
    # the sweep meets closed and non-closed spans
    assert verdicts == {(True, True), (False, False)}


def test_signed_window_factorization_witness():
    # two windows with the same peak set but different factorization counts
    first = SignedPermutation((1, -2, -3))
    second = SignedPermutation((1, -2, 3))
    assert stat_set(first, "typeBPeak").members == frozenset({1})
    assert stat_set(second, "typeBPeak").members == frozenset({1})
    pair = (frozenset({0}), frozenset({1}))
    assert factorization_counts(3, "B", rank(first), "typeBPeak")[pair] == 4
    assert factorization_counts(3, "B", rank(second), "typeBPeak")[pair] == 3
    # recounted by the independent oracle
    recount = [oracle.factorizations(oracle.window(w), "B", "typeBPeak")[pair] for w in ("1,-2,-3", "1,-2,3")]
    assert recount == [4, 3]


def test_closure_dimensions_are_fibonacci():
    for n in (1, 2, 3, 4):
        report = closure_check(n, "A", "interiorPeak")
        assert report["closed"] and report["dim"] == fibonacci(n - 1)
        report = closure_check(n, "A", "leftPeak")
        assert report["closed"] and report["dim"] == fibonacci(n)
    report = closure_check(2, "B", "typeBPeak")
    assert report["closed"] and report["dim"] == fibonacci(3)


def test_closure_refuses_a_negative_size():
    # no group of size -1 exists to be closed in, in any dimension
    with pytest.raises(ValueError, match="nonnegative"):
        closure_check(-1, "A", "interiorPeak")


def test_signed_closure_fails_at_three():
    report = closure_check(3, "B", "typeBPeak")
    assert not report["closed"]
    certificate = report["certificate"]
    assert certificate["windows"] and certificate["values"]
    assert len(set(certificate["values"])) == 2
    # the certificate names two same-class windows with different products
    w1, w2 = (SignedPermutation.parse(w) for w in certificate["windows"])
    key = frozenset(certificate["class"])
    assert stat_set(w1, "typeBPeak").members == key
    assert stat_set(w2, "typeBPeak").members == key
    # the independent oracle recounts both values and agrees that n = 3 is
    # the first size at which the signed classes do not close
    pair = (frozenset(certificate["A"]), frozenset(certificate["B"]))
    values = [oracle.factorizations(oracle.window(w), "B", "typeBPeak")[pair] for w in certificate["windows"]]
    assert values == [F(v) for v in certificate["values"]]
    assert [oracle.closes("B", n, "typeBPeak") for n in (1, 2, 3)] == [True, True, False]


def test_descent_algebras_are_closed():
    for n in (2, 3):
        assert closure_check(n, "A", "descentA")["closed"]
        assert closure_check(n, "B", "descentB")["closed"]


def test_descent_algebra_containment():
    for n in (2, 3, 4):
        assert descent_algebra_containment(n, "A", "interiorPeak")
        assert descent_algebra_containment(n, "A", "leftPeak")
        assert descent_algebra_containment(n, "B", "typeBPeak")


def test_interior_classes_form_an_ideal_of_the_left_span():
    for n in (2, 3, 4):
        inner = list(class_sums(n, "A", "interiorPeak").values())
        outer = list(class_sums(n, "A", "leftPeak").values())
        outer_span = Span(v.coeffs for v in outer)
        assert all(outer_span.contains(v.coeffs) for v in inner)
        assert ideal_check(n, "A", "interiorPeak", "leftPeak")["ideal"]


def test_interior_classes_are_not_an_ideal_of_everything():
    # neither of the descent span of S_4 nor of the type B peak span of B_3
    for n, kind, outer, oracle_outer in ((4, "A", "descentA", "descent"), (3, "B", "typeBPeak", "typeBPeak")):
        report = ideal_check(n, kind, "interiorPeak", outer)
        assert not report["ideal"]
        witness = report["witness"]
        assert list(witness) == ["B", "outer_class", "class", "windows", "values"]
        windows = [oracle.window(w) for w in witness["windows"]]
        assert all(oracle.statistic(w, "interiorPeak") == frozenset(witness["class"]) for w in windows)
        # recount with the oracle: the value of u * v_B (left side) at p counts
        # the s.t = p with t in the outer class and s in B; v_B * u the reverse
        inner_key, outer_key = frozenset(witness["B"]), frozenset(witness["outer_class"])
        if report["side"] == "left":
            values = [oracle.factorizations(w, kind, oracle_outer, "interiorPeak")[(outer_key, inner_key)]
                      for w in windows]
        else:
            values = [oracle.factorizations(w, kind, "interiorPeak", oracle_outer)[(inner_key, outer_key)]
                      for w in windows]
        assert witness["values"] == [str(v) for v in values]
        assert values[0] != values[1]


# every statistic the checks ask about: the non-closing battery, the three
# peak flavors and the two descent flavors, each in both modes
_SPAN_STATISTICS = sorted(
    {(kind, flavor) for kind, flavor, _ in BATTERY_STATISTICS}
    | {("A", "interiorPeak"), ("A", "leftPeak"), ("B", "typeBPeak"), ("A", "descentA"), ("B", "descentB")}
)


def test_constancy_on_classes_agrees_with_rational_span_membership():
    # closure, ideal and containment decide span membership by constancy on
    # classes; linalg.Span decides it by exact elimination
    verdicts = {"closed": set(), "ideal": set(), "contained": set()}
    for kind, flavor in _SPAN_STATISTICS:
        descent_flavor = "descentB" if kind == "B" else "descentA"
        for n in range(1, (4 if kind == "A" else 3) + 1):
            for mode in ("set", "number"):
                where = (kind, flavor, n, mode)
                sums = list(class_sums(n, kind, flavor, mode).values())
                span = Span(v.coeffs for v in sums)
                closed = all(span.contains(u.convolve(w).coeffs) for u in sums for w in sums)
                report = closure_check(n, kind, flavor, mode)
                assert (report["closed"], report["dim"]) == (closed, span.dim), where
                # outer elements: the descent class sums
                outer = class_sums(n, kind, descent_flavor, mode).values()
                ideal = all(
                    span.contains(product.coeffs)
                    for u in outer for v in sums for product in (u.convolve(v), v.convolve(u))
                )
                assert ideal_check(n, kind, flavor, descent_flavor, mode)["ideal"] == ideal, where
                verdicts["closed"].add(closed)
                verdicts["ideal"].add(ideal)
            descents = Span(v.coeffs for v in class_sums(n, kind, descent_flavor).values())
            peaks = class_sums(n, kind, flavor).values()
            contained = all(descents.contains(v.coeffs) for v in peaks)
            assert descent_algebra_containment(n, kind, flavor) == contained, (kind, flavor, n)
            verdicts["contained"].add(contained)
    # the sweep meets both answers to each question
    assert verdicts == {"closed": {True, False}, "ideal": {True, False}, "contained": {True, False}}


def test_number_mode_closures():
    assert closure_check(3, "A", "interiorPeak", mode="number")["closed"]
    assert closure_check(3, "A", "leftPeak", mode="number")["closed"]
    assert not closure_check(3, "B", "typeBPeak", mode="number")["closed"]


def test_right_count_closure_is_proper_at_four():
    grown = multiplicative_closure(4, "A", "rightPeak", mode="number")
    assert grown["dim_start"] == 3
    assert grown["dim_start"] < grown["dim_closure"] < group_order(4, "A")


def _both_sided_closure(elements):
    """The closure grown from every product of a basis vector and a fresh
    one, on both sides."""
    span = Span(element.coeffs for element in elements)
    dim_start = span.dim
    basis = list(elements)
    frontier = list(elements)
    while frontier:
        fresh = []
        for u in basis:
            for w in frontier:
                for product in (u.convolve(w), w.convolve(u)):
                    if span.add(product.coeffs):
                        fresh.append(product)
        basis.extend(fresh)
        frontier = fresh
    return {"dim_start": dim_start, "dim_closure": span.dim, "closed": span.dim == dim_start}


def test_one_sided_closure_matches_the_both_sided_rule():
    grew = set()
    for kind, flavor in sorted({(kind, flavor) for kind, flavor, _ in BATTERY_STATISTICS}):
        for n in range(1, (5 if kind == "A" else 3) + 1):
            for mode in ("set", "number"):
                grown = multiplicative_closure(n, kind, flavor, mode)
                assert grown == _both_sided_closure(class_sums(n, kind, flavor, mode).values()), (kind, flavor, n, mode)
                grew.add(grown["closed"])
    # the sweep meets spans that close and spans that grow
    assert grew == {True, False}


# Convolving references: the ideal check and the multiplicative closure
# decided from products of class sums by `convolve`, multiplied on the right,
# and the closure's span kept by integer elimination, independently of
# linalg.Span


class _IntegerSpan:
    """Rows of integers, each nonzero at its own pivot and zero at every
    earlier row's; a vector is cleared at each pivot in turn by
    cross-multiplying, and a residual is kept divided by its gcd."""

    def __init__(self):
        self.rows = {}

    def add(self, v):
        r = {k: x for k, x in v.items() if x}
        for pivot, row in self.rows.items():
            c = r.get(pivot)
            if c:
                a = row[pivot]
                r = {k: x for k in r.keys() | row.keys() if (x := a * r.get(k, 0) - c * row.get(k, 0))}
        if r:
            g = math.gcd(*r.values())
            self.rows[min(r)] = {k: x // g for k, x in r.items()}
        return bool(r)


def _convolved_closure(elements):
    span = _IntegerSpan()
    dim_start = sum(span.add(g.coeffs) for g in elements)
    frontier = list(elements)
    while frontier:
        fresh = []
        for w in frontier:
            for g in elements:
                product = w.convolve(g)
                if span.add(product.coeffs):
                    fresh.append(product)
        frontier = fresh
    dim = len(span.rows)
    return {"dim_start": dim_start, "dim_closure": dim, "closed": dim == dim_start}


def _convolved_ideal(n, kind, flavor, outer_flavor, mode):
    """Is every product of an outer class sum and a class sum, on either
    side, constant on every class?"""
    classes = stat_classes(n, kind, flavor, mode).values()
    inner = class_sums(n, kind, flavor, mode).values()
    outer = class_sums(n, kind, outer_flavor, mode).values()
    return all(
        len({product.coeffs.get(r, 0) for r in ranks}) == 1
        for u in outer for v in inner for product in (u.convolve(v), v.convolve(u))
        for ranks in classes
    )


def test_class_walks_match_the_convolving_references():
    # ten statistics, each with every statistic of its kind as the outer one
    statistics = _SPAN_STATISTICS + [("B", "interiorPeak")]
    verdicts = {"closed": set(), "ideal": set()}
    for kind, flavor in statistics:
        for n in range(1, (5 if kind == "A" else 4) + 1):
            for mode in ("set", "number"):
                where = (kind, flavor, n, mode)
                grown = multiplicative_closure(n, kind, flavor, mode)
                assert grown == _convolved_closure(class_sums(n, kind, flavor, mode).values()), where
                verdicts["closed"].add(grown["closed"])
                for outer_kind, outer_flavor in statistics:
                    if outer_kind == kind:
                        ideal = ideal_check(n, kind, flavor, outer_flavor, mode)["ideal"]
                        assert ideal == _convolved_ideal(n, kind, flavor, outer_flavor, mode), (where, outer_flavor)
                        verdicts["ideal"].add(ideal)
    assert verdicts == {"closed": {True, False}, "ideal": {True, False}}


def test_row_refuses_out_of_range_ranks():
    for r, n, kind in [(6, 3, "A"), (48, 3, "B"), (-1, 3, "A")]:
        with pytest.raises(ValueError, match="rank"):
            group_algebra._row(n, kind, r)


def test_factorization_counts_refuse_out_of_range_ranks():
    # rank |G| is not read as the identity
    with pytest.raises(ValueError, match="rank"):
        factorization_counts(3, "A", 6, "interiorPeak")
    with pytest.raises(ValueError, match="rank"):
        factorization_counts(3, "B", -1, "typeBPeak")
    assert sum(factorization_counts(3, "A", 5, "interiorPeak").values()) == 6


def test_reversing_a_window_keeps_its_peak_number_factorization_counts():
    # s.t = p exactly when s.(t.w0) = p.w0, t.w0 being t's window reversed,
    # which keeps t's interior peak count: N_{p.w0} = N_p by peak-count pair
    for n in range(1, 7):
        for r, p in enumerate(enumerate_group(n, "A")):
            reversed_rank = rank(Permutation(p.window[::-1]))
            assert factorization_counts(n, "A", r, "interiorPeak", "number") == \
                factorization_counts(n, "A", reversed_rank, "interiorPeak", "number"), p
