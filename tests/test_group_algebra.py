"""Convolution algebra over window groups: class sums, structure tables,
closure and duality checks."""

import itertools
import json
from collections import Counter
from fractions import Fraction

import pytest

from peakalg import group_algebra
from peakalg.eulerian import BATTERY_STATISTICS
from peakalg.group_algebra import (
    AlgebraElement,
    class_sums,
    closure_check,
    descent_algebra_containment,
    factorization_counts,
    ideal_check,
    multiplicative_closure,
    representative_audit,
    sorted_keys,
    stat_classes,
    structure_table,
    verify_duality,
)
from peakalg.linalg import Span
from peakalg.permutations import (
    FLAVORS,
    Permutation,
    SignedPermutation,
    compose,
    enumerate_group,
    fibonacci,
    group_order,
    rank,
    stat_set,
    unrank,
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


def test_rows_beyond_the_budget_are_rebuilt(monkeypatch):
    monkeypatch.setattr(group_algebra, "_ROW_BUDGET", 2 * 24)  # two rows of S_4
    group_algebra._kept_rows.cache_clear()
    try:
        sums = list(class_sums(4, "A", "leftPeak").values())
        for u, w in itertools.product(sums, repeat=2):
            brute = {}
            for rt, rs in itertools.product(u.coeffs, w.coeffs):
                key = rank(compose(unrank(rs, 4, "A"), unrank(rt, 4, "A")))
                brute[key] = brute.get(key, 0) + 1
            assert u.convolve(w).coeffs == brute
        assert len(group_algebra._kept_rows(4, "A")) == 2
    finally:
        group_algebra._kept_rows.cache_clear()


def test_product_rows_and_inverses_match_composing():
    # every entry of every row, the empty and the one-letter groups included
    for n, kind in [(n, "A") for n in range(6)] + [(n, "B") for n in range(4)]:
        elements = list(enumerate_group(n, kind))
        inverses = group_algebra._inverse_ranks(n, kind)
        for r, p in enumerate(elements):
            assert group_algebra._row(n, kind, r) == tuple(rank(compose(p, q)) for q in elements), (n, kind, r)
            assert inverses[r] == rank(p.inverse()), (n, kind, r)


def test_factorization_counts_match_composing_every_pair():
    for n, kind in [(n, "A") for n in range(5)] + [(n, "B") for n in range(4)]:
        elements = list(enumerate_group(n, kind))
        pairs = {}  # rank of s.t -> [(t, s)]
        for s, t in itertools.product(elements, repeat=2):
            pairs.setdefault(rank(compose(s, t)), []).append((t, s))
        for flavor in FLAVORS:
            for mode in ("set", "number"):
                def key(q):
                    members = stat_set(q, flavor).members
                    return len(members) if mode == "number" else members

                for r, target in enumerate(elements):
                    brute = Counter((key(t), key(s)) for t, s in pairs[r])
                    assert factorization_counts(target, flavor, mode) == brute, (target, flavor, mode)


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


def test_stat_classes_partition_the_group():
    classes = stat_classes(4, "A", "interiorPeak", mode="set")
    assert sum(len(v) for v in classes.values()) == group_order(4, "A")
    assert set(classes) == {frozenset(), frozenset({2}), frozenset({3})}
    number = stat_classes(4, "A", "interiorPeak", mode="number")
    assert set(number) == {0, 1}
    assert sum(len(v) for v in number.values()) == group_order(4, "A")


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
        counts = factorization_counts(target, "interiorPeak")
        pair = (frozenset({2}), frozenset({2}))
        assert counts[pair] == table.count(frozenset({2}), frozenset({2}), frozenset())
        break
    # every window's counts agree with the independent oracle's recount
    for n, kind, flavors in ((4, "A", ("interiorPeak", "leftPeak")), (3, "B", ("typeBPeak",))):
        for flavor in flavors:
            for target in enumerate_group(n, kind):
                recount = oracle.factorizations(target.window, kind, flavor)
                assert factorization_counts(target, flavor) == recount, (target, flavor)


def test_duality_holds_for_unsigned_windows():
    for n in (2, 3, 4):
        assert verify_duality(n, "A", "interiorPeak")["consistent"]
        assert verify_duality(n, "A", "leftPeak")["consistent"]
        assert representative_audit(n, "A", "interiorPeak")["consistent"]
        assert representative_audit(n, "A", "leftPeak")["consistent"]


def test_duality_fails_for_signed_windows_at_three():
    assert verify_duality(2, "B", "typeBPeak")["consistent"]
    assert representative_audit(2, "B", "typeBPeak")["consistent"]
    bad = verify_duality(3, "B", "typeBPeak")
    assert not bad["consistent"] and bad["mismatches"]
    table = structure_table(3, "B", "typeBPeak")
    for mismatch in bad["mismatches"]:
        # the difference is the window's count minus its class representative's
        window, representative = (SignedPermutation.parse(mismatch[k]) for k in ("window", "representative"))
        key = frozenset(mismatch["class"])
        assert stat_set(window, "typeBPeak").members == key == stat_set(representative, "typeBPeak").members
        pair = (frozenset(mismatch["A"]), frozenset(mismatch["B"]))
        counts = [factorization_counts(w, "typeBPeak").get(pair, 0) for w in (window, representative)]
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
            assert factorization_counts(other, "typeBPeak").get(pair, 0) == table.count(*pair, other_key)
    # one record per pair
    assert len({(str(m["A"]), str(m["B"])) for m in bad["mismatches"]}) == len(bad["mismatches"])
    audit = representative_audit(3, "B", "typeBPeak")
    assert not audit["consistent"]
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
    mismatches = []
    for key_a in keys:
        for key_b in keys:
            lhs = sums[key_a].convolve(sums[key_b]).coeffs
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
    return {"consistent": not mismatches, "mismatches": mismatches}


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
        for flavor in FLAVORS:
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
    assert factorization_counts(first, "typeBPeak")[pair] == 4
    assert factorization_counts(second, "typeBPeak")[pair] == 3
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
        assert ideal_check(n, "A", "interiorPeak", outer)["ideal"]


def test_interior_classes_are_not_an_ideal_of_everything():
    elements = list(enumerate_group(3, "A"))
    deltas = [AlgebraElement.delta(p) for p in elements]
    report = ideal_check(3, "A", "interiorPeak", deltas)
    assert not report["ideal"]
    witness = report["witness"]
    # recount the certificate with the oracle: the outer element is delta_g,
    # the inner one the class sum v_B, multiplied on the reported side
    g = oracle.window(str(elements[witness["outer_index"]]))

    def at_g(w):
        return int(w == g)

    def in_b(w):
        return int(oracle.statistic(w, "interiorPeak") == frozenset(witness["B"]))

    left, right = (at_g, in_b) if report["side"] == "left" else (in_b, at_g)

    def coefficient(p):
        # (left * right)(p) sums left(t) * right(s) over s.t = p
        return sum(left(t) * right(oracle.compose(p, oracle.inverse(t))) for t in oracle.group("A", 3))

    windows = [oracle.window(w) for w in witness["windows"]]
    assert all(oracle.statistic(w, "interiorPeak") == frozenset(witness["class"]) for w in windows)
    assert witness["values"] == [str(coefficient(w)) for w in windows]
    assert witness["values"][0] != witness["values"][1]


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
                # outer elements: the descent class sums and one group element
                outer = list(class_sums(n, kind, descent_flavor, mode).values())
                outer.append(AlgebraElement.delta(unrank(group_order(n, kind) - 1, n, kind)))
                ideal = all(
                    span.contains(product.coeffs)
                    for u in outer for v in sums for product in (u.convolve(v), v.convolve(u))
                )
                assert ideal_check(n, kind, flavor, outer, mode)["ideal"] == ideal, where
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
    sums = list(class_sums(4, "A", "rightPeak", mode="number").values())
    grown = multiplicative_closure(sums)
    assert grown["dim_start"] == 3
    assert grown["dim_start"] < grown["dim_closure"] < group_order(4, "A")


def test_multiplicative_closure_of_nothing():
    assert multiplicative_closure([]) == {"dim_start": 0, "dim_closure": 0, "closed": True}
