"""Labeled posets, signed posets, linear extensions, and zig-zag chains."""

import gc
import random
from collections import Counter, deque

import pytest

from peakalg.permutations import (
    Permutation,
    SignedPermutation,
    compose,
    descent_set,
    enumerate_group,
    enumerate_stat_sets,
)
from peakalg.posets import (
    LabeledPoset,
    SignedPoset,
    parse_poset,
    random_poset,
    random_signed_poset,
    zigzag_poset,
)

import peak_oracle as oracle
from thinned_orders import thinned_covers, thinned_order


def test_frozen_vee_poset():
    # 1 and 2 both above 3: two extensions
    P = LabeledPoset.from_covers(3, [(3, 1), (3, 2)])
    extensions = {e.window for e in P.linear_extensions()}
    assert extensions == {(3, 2, 1), (3, 1, 2)}


def test_antichain_and_chain():
    assert len(LabeledPoset.antichain(4).linear_extensions()) == 24
    assert [e.window for e in LabeledPoset.chain((1, 2, 3)).linear_extensions()] == [(1, 2, 3)]
    assert [e.window for e in LabeledPoset.chain((2, 3, 1)).linear_extensions()] == [(2, 3, 1)]


def test_frozen_signed_poset():
    # 0 and -2 both below 1: three signed windows
    B = SignedPoset.from_covers(2, [(1, 0), (1, -2)])
    extensions = {e.window for e in B.linear_extensions()}
    assert extensions == {(2, -1), (-1, -2), (-2, -1)}


def test_signed_chain_and_antichain():
    assert {e.window for e in SignedPoset.chain((1, 2)).linear_extensions()} == {(1, 2)}
    assert {e.window for e in SignedPoset.antichain(1).linear_extensions()} == {(1,), (-1,)}
    assert len(SignedPoset.antichain(2).linear_extensions()) == 8


def test_membership_criterion_exhaustive():
    # a window extends the poset exactly when every related pair appears in order
    posets = [
        LabeledPoset.from_covers(3, [(3, 1), (3, 2)]),
        LabeledPoset.from_covers(4, [(1, 2), (3, 2), (2, 4)]),
        LabeledPoset.antichain(3),
        LabeledPoset.chain((4, 1, 3, 2)),
        random_poset(5, random.Random(11)),
        random_poset(6, random.Random(12)),
    ]
    for P in posets:
        member = {e.window for e in P.linear_extensions()}
        for sigma in enumerate_group(P.n, "A"):
            inv = sigma.inverse()
            respects = all(
                not P.less(a, b) or inv.value(a) < inv.value(b)
                for a in range(1, P.n + 1)
                for b in range(1, P.n + 1)
                if a != b
            )
            assert (sigma.window in member) == respects, (P.relation, sigma)


def test_signed_membership_criterion():
    posets = [
        SignedPoset.from_covers(2, [(1, 0), (1, -2)]),
        SignedPoset.antichain(2),
        random_signed_poset(3, random.Random(5)),
    ]
    for B in posets:
        member = {e.window for e in B.linear_extensions()}
        for sigma in enumerate_group(B.n, "B"):
            inv = sigma.inverse()
            respects = all(
                not B.less(a, b) or inv.value(a) < inv.value(b)
                for a in range(-B.n, B.n + 1)
                for b in range(-B.n, B.n + 1)
                if a != b
            )
            assert (sigma.window in member) == respects, (B.relation, sigma)


def test_filter_oracle_agrees_with_backtracking():
    for P in [
        LabeledPoset.from_covers(3, [(3, 1), (3, 2)]),
        LabeledPoset.from_covers(4, [(1, 2), (3, 2)]),
        random_poset(5, random.Random(3)),
    ]:
        assert {e.window for e in P.linear_extensions()} == set(oracle.linear_extensions(P))
    for B in [
        SignedPoset.from_covers(2, [(1, 0), (1, -2)]),
        random_signed_poset(2, random.Random(4)),
        random_signed_poset(3, random.Random(7)),
    ]:
        assert {e.window for e in B.linear_extensions()} == set(oracle.linear_extensions(B))
    # seeded random orders of both kinds, sparse to nearly chains
    rng = random.Random(20261018)
    for n in range(1, 5):
        for keep in (0.3, 0.6, 0.9):
            for _ in range(6):
                for P in (thinned_order("A", n, rng, keep), thinned_order("B", n, rng, keep)):
                    found = [e.window for e in P.linear_extensions()]
                    assert len(found) == len(set(found)), P.relation
                    assert set(found) == set(oracle.linear_extensions(P)), P.relation


def test_signed_extensions_are_centrally_symmetric():
    # the full word -w(n)..-w(1),0,w(1)..w(n) must respect the signed relation
    for B in [
        SignedPoset.from_covers(2, [(1, 0), (1, -2)]),
        random_signed_poset(3, random.Random(9)),
    ]:
        for e in B.linear_extensions():
            word = tuple(-v for v in reversed(e.window)) + (0,) + e.window
            assert word == tuple(-v for v in reversed(word)) or True  # palindromic mirror
            position = {label: i for i, label in enumerate(word)}
            assert all(position[-a] == 2 * B.n - position[a] for a in e.window)
            for a in range(-B.n, B.n + 1):
                for b in range(-B.n, B.n + 1):
                    if a != b and B.less(a, b):
                        assert position[a] < position[b]


def test_zigzag_matches_descent_classes():
    # a window lies in the zig-zag extension set exactly when the relative
    # descent set equals the defining subset
    for n in range(1, 6):
        for pi in (Permutation.identity(n), Permutation(tuple(range(n, 0, -1)))):
            for stat in enumerate_stat_sets(n, "descentA"):
                members = {e.window for e in zigzag_poset(pi, stat.members).linear_extensions()}
                for sigma in enumerate_group(n, "A"):
                    des = descent_set(compose(sigma.inverse(), pi), "descentA").members
                    assert (sigma.window in members) == (des == stat.members)


def test_zigzag_extension_counts_partition_the_group():
    for n in range(1, 7):
        pi = Permutation.identity(n)
        total = 0
        for stat in enumerate_stat_sets(n, "descentA"):
            total += len(zigzag_poset(pi, stat.members).linear_extensions())
        assert total == len(list(enumerate_group(n, "A")))
    pi = Permutation((3, 1, 4, 2))
    total = sum(
        len(zigzag_poset(pi, stat.members).linear_extensions())
        for stat in enumerate_stat_sets(4, "descentA")
    )
    assert total == 24


def test_zigzag_covers():
    P = zigzag_poset(Permutation.identity(5), {2, 3})
    assert P.less(1, 2)
    assert P.less(3, 2)
    assert P.less(4, 3)
    assert P.less(4, 5)
    assert not P.less(2, 3)


def test_parse_poset():
    P = parse_poset("# hat shape\n3<1\n3<2\n")
    assert {e.window for e in P.linear_extensions()} == {(3, 2, 1), (3, 1, 2)}
    B = parse_poset("1<0\n1<-2", signed=True)
    assert {e.window for e in B.linear_extensions()} == {(2, -1), (-1, -2), (-2, -1)}
    with pytest.raises(ValueError):
        parse_poset("1<2\n2<1")
    with pytest.raises(ValueError, match="not a relation 'a<b': '1<x'"):
        parse_poset("1<x")


def test_parse_poset_explicit_size():
    P = parse_poset("1<2", n=4)
    assert P.n == 4
    assert len(P.linear_extensions()) == 12


def test_random_posets_are_reproducible():
    a = random_poset(5, random.Random(42))
    b = random_poset(5, random.Random(42))
    assert a.relation == b.relation
    sa = random_signed_poset(3, random.Random(42))
    sb = random_signed_poset(3, random.Random(42))
    assert sa.relation == sb.relation


def test_the_test_draws_at_keep_0_6_are_the_library_draws():
    # thinned_order stands in for random_poset at other densities; at the
    # library's own 0.6 it must draw the same orders from the same generator
    for kind, draw in (("A", random_poset), ("B", random_signed_poset)):
        ours, theirs = random.Random(7), random.Random(7)
        for n in range(0, 7):
            for _ in range(5):
                assert thinned_order(kind, n, ours, 0.6) == draw(n, theirs)


def test_cycle_detection():
    # each refusal names the first label, in label order, on a cycle
    for order, n, covers, first in (
        (LabeledPoset, 3, [(1, 2), (2, 3), (3, 1)], 1),
        (LabeledPoset, 1, [(1, 1)], 1),
        (LabeledPoset, 3, [(1, 2), (3, 2), (2, 3)], 2),
        (LabeledPoset, 4, [(4, 2), (3, 4), (2, 3)], 2),
        (SignedPoset, 2, [(1, -1), (-1, 1)], -1),
    ):
        with pytest.raises(ValueError, match=f"^relation contains a cycle through {first}$"):
            order.from_covers(n, covers)


def _reachable(labels, pairs):
    """The strict relation the pairs generate: what a breadth-first search
    from each label reaches."""
    succ = {x: [] for x in labels}
    for a, b in pairs:
        succ[a].append(b)
    out = set()
    for start in labels:
        queue, seen = deque(succ[start]), set(succ[start])
        while queue:
            for b in succ[queue.popleft()]:
                if b not in seen:
                    seen.add(b)
                    queue.append(b)
        out |= {(start, b) for b in seen}
    return out


def test_relation_is_the_reachability_of_the_drawn_pairs():
    # seeded orders of both kinds, the library's draws and thinned ones at
    # keep 0.0, 0.3 and 0.9: the relation is what the drawn covers reach,
    # mirrored for a signed order.  Warshall's rule with its loops swapped
    # misses 1 < 4 on 1 < 3 < 2 < 4, the first order checked
    rng = random.Random(20261021)
    drawn = [(LabeledPoset.from_covers(4, [(1, 3), (3, 2), (2, 4)]), [(1, 3), (3, 2), (2, 4)])]
    for n in range(10):
        for kind, draw in (("A", random_poset), ("B", random_signed_poset)):
            for keep in (None, 0.0, 0.3, 0.9):
                twin = random.Random()
                twin.setstate(rng.getstate())
                P = draw(n, rng) if keep is None else thinned_order(kind, n, rng, keep)
                drawn.append((P, thinned_covers(kind, n, twin, 0.6 if keep is None else keep)))
    for P, pairs in drawn:
        if P.kind == "B":
            pairs += [(-b, -a) for a, b in pairs]
        assert P.relation == _reachable(P.labels, pairs), (P, pairs)


def test_signed_relation_below_own_negative():
    # 1 < -1 is consistent: it forces the label 1 to occur negated
    B = SignedPoset.from_covers(2, [(1, -1)])
    windows = {e.window for e in B.linear_extensions()}
    assert windows == {w for w in windows if -1 in w or any(v == -1 for v in w)}
    assert all(-1 in (w[0], w[1]) for w in windows)
    assert len(windows) == 4


def test_linear_extensions_come_in_placement_order():
    # `peakalg extensions` prints this order: depth first, each next label
    # tried by |x| with x before -x; the signed orders include a relation
    # through 0 and labels below their own negative
    pinned = [
        (LabeledPoset.from_covers(3, [(3, 1), (3, 2)]), [(3, 1, 2), (3, 2, 1)]),
        (LabeledPoset.from_covers(4, [(1, 3), (2, 3), (4, 2)]), [(1, 4, 2, 3), (4, 1, 2, 3), (4, 2, 1, 3)]),
        (SignedPoset.antichain(1), [(1,), (-1,)]),
        (SignedPoset.from_covers(2, [(0, 1), (-2, 1)]), [(1, 2), (2, 1), (-2, 1)]),
        (SignedPoset.from_covers(2, [(1, -1)]), [(-1, 2), (-1, -2), (2, -1), (-2, -1)]),
        (SignedPoset.from_covers(2, [(1, 0), (1, -2)]), [(-1, -2), (2, -1), (-2, -1)]),
        (SignedPoset.from_covers(3, [(2, -2), (-3, 1)]), [
            (1, -2, 3), (1, 3, -2), (-1, -2, 3), (-1, 3, -2), (-2, 1, 3), (-2, -1, 3),
            (-2, 3, 1), (-2, -3, 1), (3, 1, -2), (3, -2, 1), (-3, 1, -2), (-3, -2, 1),
        ]),
    ]
    for P, windows in pinned:
        assert [e.window for e in P.linear_extensions()] == windows, P
        assert sorted(oracle.linear_extensions(P)) == sorted(windows), P


def _garbage_left_by(call):
    """The number of collectable objects, that is objects in reference
    cycles, that call leaves behind."""
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


def test_linear_extensions_leave_no_reference_cycles():
    P = LabeledPoset.from_covers(4, [(1, 3), (2, 3)])
    B = SignedPoset.from_covers(3, [(0, 1), (-2, 1)])
    assert len(P.linear_extensions()) == 8 and len(B.linear_extensions()) == 18
    assert _garbage_left_by(P.linear_extensions) == 0
    assert _garbage_left_by(B.linear_extensions) == 0


def _descent_tally(windows):
    # the type B descent set, which for an ordinary window never holds 0
    return Counter(oracle.statistic(w, "descent") for w in windows)


def test_extension_descents_count_what_the_listings_list():
    # hand-picked orders: antichains, chains, signed relations through 0 and
    # labels below their own negative, then seeded random orders of both kinds
    orders = [
        LabeledPoset.antichain(0), SignedPoset.antichain(0),
        LabeledPoset.antichain(4), SignedPoset.antichain(3),
        LabeledPoset.chain((3, 1, 4, 2)), SignedPoset.chain((2, -3, 1)),
        LabeledPoset.from_covers(3, [(3, 1), (3, 2)]),
        SignedPoset.from_covers(2, [(1, 0), (1, -2)]),
        SignedPoset.from_covers(3, [(0, 2), (-3, 1)]),
        SignedPoset.from_covers(2, [(1, -1)]),
        SignedPoset.from_covers(3, [(2, -2), (-3, 1)]),
    ]
    rng = random.Random(20261019)
    for n in range(0, 6):
        for keep in (0.0, 0.3, 0.6, 0.9):
            for _ in range(3):
                orders += [thinned_order("A", n, rng, keep), thinned_order("B", n, rng, keep)]
    for P in orders:
        tally = P.extension_descents()
        assert tally == _descent_tally(e.window for e in P.linear_extensions()), P
        assert tally == _descent_tally(oracle.linear_extensions(P)), P


def test_the_empty_order_has_one_empty_extension():
    for P in (LabeledPoset(0, frozenset()), SignedPoset(0, frozenset())):
        assert [w.window for w in P.linear_extensions()] == [()]
        assert P.extension_descents() == Counter({frozenset(): 1})


def test_an_order_of_negative_size_is_refused():
    for n in (-1, -2):
        with pytest.raises(ValueError, match="n >= 0"):
            LabeledPoset(n, frozenset())


def test_a_signed_order_of_negative_size_is_refused():
    # it used to construct, with no linear extension at all
    with pytest.raises(ValueError, match="n >= 0"):
        SignedPoset(-2, frozenset())


def test_a_label_outside_the_order_is_refused():
    with pytest.raises(ValueError, match="label out of range"):
        LabeledPoset.from_covers(2, [(1, 3)])


def test_a_zigzag_position_outside_the_window_is_refused():
    with pytest.raises(ValueError, match="outside"):
        zigzag_poset(Permutation((2, 1, 3)), {3})


def test_random_orders_of_negative_size_are_refused():
    for draw in (random_poset, random_signed_poset):
        with pytest.raises(ValueError, match="n >= 0"):
            draw(-2, random.Random(1))


def _shaped_and_seeded_orders():
    rng = random.Random(20261021)
    orders = [LabeledPoset.antichain(0), LabeledPoset.antichain(3), LabeledPoset.chain((3, 1, 4, 2)),
              LabeledPoset.from_covers(4, [(1, 3), (2, 3), (1, 4), (3, 4)]),
              zigzag_poset(Permutation((2, 4, 1, 3, 5)), {1, 3}),
              SignedPoset.antichain(2), SignedPoset.from_covers(2, [(1, -1)]),
              SignedPoset.from_covers(2, [(0, 1), (-2, 1)]), SignedPoset.from_covers(3, [(2, -2), (-3, 1), (0, 3)]),
              SignedPoset.chain((2, -3, 1))]
    for n in range(1, 8):
        orders += [thinned_order("A", n, rng, keep) for keep in (0.4, 0.8)]
        orders += [thinned_order("B", n, rng, keep) for keep in (0.4, 0.8)]
    return orders


def _closure(pairs):
    closed = set(pairs)
    while True:
        longer = {(a, d) for a, b in closed for c, d in closed if b == c} - closed
        if not longer:
            return closed
        closed |= longer


def test_covers_close_to_the_relation_and_none_is_implied_by_two_others():
    through_zero = 0
    for order in _shaped_and_seeded_orders():
        covers = order.covers
        assert covers <= order.relation and _closure(covers) == order.relation, order
        for a, b in covers:
            assert not any((a, c) in covers and (c, b) in covers for c in order.labels), (order, (a, b))
        # a pair a < c < b of the relation is never a cover
        assert not any((a, c) in order.relation and (c, b) in order.relation for a, b in covers for c in order.labels)
        through_zero += sum(0 in pair for pair in covers)
    assert through_zero > 0
    assert SignedPoset.chain((2, -1)).covers == {(0, 2), (2, -1), (-2, 0), (1, -2)}
    assert SignedPoset.from_covers(1, [(1, -1)]).covers == {(1, -1)}
    assert SignedPoset.chain((-1,)).covers == {(0, -1), (1, 0)}  # 1 < -1 goes through 0


def _live_counts(order):
    """The number of labels live after each step of `label_order`: placed,
    with a cover to an unplaced label (a cover through 0 or from x to -x
    joins no two labels)."""
    links = {frozenset((abs(a), abs(b))) for a, b in order.covers if a and b and abs(a) != abs(b)}
    counts, placed = [], set()
    for m in order.label_order:
        placed.add(m)
        counts.append(sum(1 for j in placed if any(j in link and not link <= placed for link in links)))
    return counts


def test_label_order_is_a_deterministic_permutation_of_the_labels():
    for order in _shaped_and_seeded_orders():
        assert sorted(order.label_order) == list(range(1, order.n + 1)), order
        again = type(order)(order.n, order.relation)  # an equal order, taken afresh
        assert again.label_order == order.label_order and again is not order
    # an end of the chain first, the smaller one, then along it
    assert LabeledPoset.chain((3, 1, 4, 2)).label_order == (2, 4, 1, 3)
    assert LabeledPoset.from_covers(3, [(2, 1), (2, 3)]).label_order == (1, 2, 3)
    assert LabeledPoset.antichain(3).label_order == (1, 2, 3)


def test_label_order_keeps_one_label_live_on_chains():
    rng = random.Random(20261022)
    for n in range(0, 9):
        for _ in range(3):
            window = list(range(1, n + 1))
            rng.shuffle(window)
            signed = [v if rng.random() < 0.5 else -v for v in window]
            for chain in (LabeledPoset.chain(window), SignedPoset.chain(signed)):
                assert max(_live_counts(chain), default=0) <= 1, chain
