"""Enriched order-preserving maps: counts, censuses, and factorizations."""

import gc
import itertools
import random

import pytest

from peakalg import enriched
from peakalg.alphabets import Alphabet
from peakalg.enriched import (
    CodedCensus,
    _KeyCodes,
    census_of_maps,
    census_product,
    chain_count,
    chain_tuples,
    coded_chain_census,
    coded_poset_census,
    count_table,
    epp_census,
    epp_count,
    epp_maps,
    epp_values,
    factorization_census,
    poset_epp_maps,
)
from peakalg.permutations import (
    Permutation,
    SignedPermutation,
    compose,
    descent_set,
    enumerate_group,
    peak_set,
)
from peakalg.posets import LabeledPoset, SignedPoset, random_poset, random_signed_poset, zigzag_poset

from thinned_orders import thinned_order


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


def test_census_of_an_alphabet_with_no_letters():
    # no letters admit no map of a nonempty window, and the empty window has
    # its one empty map, with exponent 0 on the one variable
    empty = Alphabet.prime(0)
    for n in range(4):
        w = Permutation.identity(n)
        for census in (epp_census(w, empty), coded_poset_census(LabeledPoset.antichain(n), empty).decode()):
            assert census == ({(0,): 1} if n == 0 else {})
            assert sum(census.values()) == epp_count(w, empty)


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
        assert len(poset_epp_maps(P, alphabet)) == len(brute)


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
        coded_poset_census(SignedPoset.antichain(1), Alphabet.prime(2))


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
            direct = coded_poset_census(P, alphabet).decode()
            assert direct == census_of_maps(poset_epp_maps(P, alphabet), alphabet), (P, alphabet)
            summed = {}
            for e in extensions:
                for key, count in epp_census(e, alphabet).items():
                    summed[key] = summed.get(key, 0) + count
            assert direct == summed, (P, alphabet)


def test_poset_maps_leave_no_reference_cycles():
    cases = [(LabeledPoset.from_covers(3, [(2, 1), (2, 3)]), Alphabet.prime(2)),
             (SignedPoset.from_covers(2, [(0, 1), (-2, 1)]), Alphabet.plus_minus(2))]
    for P, alphabet in cases:
        assert poset_epp_maps(P, alphabet)
        for visit in (poset_epp_maps, coded_poset_census):
            gc.collect()
            gc.disable()
            try:
                visit(P, alphabet)
                assert gc.collect() == 0, (visit.__name__, P)
            finally:
                gc.enable()


def test_poset_census_of_a_product_alphabet():
    # two weight variables per letter
    product = Alphabet.product(Alphabet.prime(1), Alphabet.prime(2))
    P = LabeledPoset.from_covers(3, [(2, 1), (2, 3)])
    assert coded_poset_census(P, product).decode() == census_of_maps(poset_epp_maps(P, product), product)


def test_chain_census_keys_at_the_radix_bound():
    # inside the DP a key is one integer of base-radix exponent digits; chains
    # that put all n values on one letter take an exponent to n, the largest
    # digit the radix holds, so a radix one too small shows up here
    nested = Alphabet.product(Alphabet.product(Alphabet.prime(1), Alphabet.prime(1)), Alphabet.prime(1))
    assert all(len(vars_) == 3 for vars_ in nested.var_lists)
    pm_pair = Alphabet.product(Alphabet.plus_minus(1), Alphabet.plus_minus(1))
    cases = [
        (Alphabet.product(Alphabet.prime(2), Alphabet.prime(2)), "A", 3),
        (Alphabet.product(Alphabet.left(2), Alphabet.prime(2)), "A", 3),
        (pm_pair, "A", 3),
        (pm_pair, "B", 2),
        (nested, "A", 3),
    ]
    for alphabet, kind, n_max in cases:
        for n in range(1, n_max + 1):
            for p in enumerate_group(n, kind):
                census = epp_census(p, alphabet)
                assert census == census_of_maps(epp_maps(p, alphabet), alphabet), (p, alphabet.var_lists)
                if kind == "A" and not descent_set(p, "descentA").members:
                    assert max(max(key) for key in census) == n


def _reference_chain_census(n, des, alphabet):
    """The chain DP run afresh for one descent set: the per-letter state of
    every step, then a pass over the letters that sums the last one."""
    codes = _KeyCodes.of(alphabet, n)
    if n == 0:
        return CodedCensus(codes, {0: 1})
    if alphabet.zero_index is not None:
        state = [{} for _ in alphabet.letters]
        state[alphabet.zero_index] = {0: 1}
        first = 0
    else:
        state = [{weight: 1} for weight in codes.weight]
        first = 1
    for i in range(first, n):
        gate = [e < 0 if i in des else e > 0 for e in alphabet.eps]
        new, running = [], {}
        for j, weight in enumerate(codes.weight):
            current = {key + weight: count for key, count in running.items()}
            if gate[j]:
                for key, count in state[j].items():
                    current[key + weight] = current.get(key + weight, 0) + count
            new.append(current)
            for key, count in state[j].items():
                running[key] = running.get(key, 0) + count
        state = new
    total = {}
    for partial in state:
        for key, count in partial.items():
            total[key] = total.get(key, 0) + count
    return CodedCensus(codes, total)


def _prefix_sweep_alphabets():
    """Fresh alphabets for the shared-DP sweeps: the three base variants at
    k <= 3 and two products, one of them able to host signed windows."""
    makers = [lambda k=k, make=make: make(k) for make in (Alphabet.prime, Alphabet.left, Alphabet.plus_minus)
              for k in (1, 2, 3)]
    makers.append(lambda: Alphabet.product(Alphabet.left(2), Alphabet.prime(2)))
    makers.append(lambda: Alphabet.product(Alphabet.plus_minus(1), Alphabet.plus_minus(1)))
    return makers


def _descent_sets(alphabet, n_a=5, n_b=4):
    """Every descent set of S_n for n <= n_a and, on an alphabet that hosts
    signed windows, of B_n for n <= n_b, as (n, set) requests."""
    requests = {(n, frozenset(s)) for n in range(n_a + 1) for s in itertools.chain.from_iterable(
        itertools.combinations(range(1, n), size) for size in range(n))}
    if enriched.supports_signed(alphabet):
        requests |= {(n, frozenset(s)) for n in range(n_b + 1) for s in itertools.chain.from_iterable(
            itertools.combinations(range(n), size) for size in range(n + 1))}
    return sorted(requests, key=lambda request: (request[0], sorted(request[1])))


def test_shared_prefix_censuses_match_the_per_census_dp():
    # prefix states built in one request order serve every later request:
    # a seeded shuffle on one alphabet object, the reverse order on another
    shuffle = random.Random(20261020).shuffle
    for make in _prefix_sweep_alphabets():
        requests = _descent_sets(make())
        shuffled, backwards = list(requests), requests[::-1]
        shuffle(shuffled)
        for order in (shuffled, backwards):
            alphabet = make()
            for n, des in order:
                assert coded_chain_census(n, des, alphabet) == _reference_chain_census(n, des, alphabet), (
                    alphabet, n, sorted(des))


def test_each_prefix_step_runs_once_and_no_kept_census_changes(monkeypatch):
    # a step is named by the state it extends and its gate (descent or not):
    # over a sweep of every descent set of each n, each such step runs once,
    # one per prefix of the step flags, and no kept state or census changes
    steps, totals, made = [], [], []
    step, total = enriched._chain_step, enriched._chain_total

    def counted_step(state, gate, weights):
        steps.append((id(state), id(gate)))
        new = step(state, gate, weights)
        made.append((new, [dict(counts) for counts in new]))
        return new

    def counted_total(state, gate, weights):
        totals.append((id(state), id(gate)))
        return total(state, gate, weights)

    monkeypatch.setattr(enriched, "_chain_step", counted_step)
    monkeypatch.setattr(enriched, "_chain_total", counted_total)
    for make in _prefix_sweep_alphabets():
        alphabet = make()
        first = 0 if alphabet.zero_index is not None else 1
        returned = []
        for n in range(0, 6):
            del steps[:], totals[:]
            sets = [frozenset(s) for size in range(n - first + 1)
                    for s in itertools.combinations(range(first, n), size)]
            for des in reversed(sets):
                census = coded_chain_census(n, des, alphabet)
                returned.append((census, dict(census.counts)))
            m = n - first if n else 0  # DP steps: a first value free of any anchor is none
            assert len(totals) == len(set(totals)) == (2 ** m if m else 0), (alphabet, n)
            assert len(steps) == len(set(steps)) == (2 ** m - 2 if m else 0), (alphabet, n)
        assert all(census.counts == counts for census, counts in returned), alphabet
        assert all(new == copies for new, copies in made), alphabet
        del made[:]


def test_stored_chain_censuses_are_copies():
    alphabet = Alphabet.plus_minus(2)
    w, same_descents = SignedPermutation((2, -1, 3)), SignedPermutation((3, -2, 1))
    before = epp_census(w, alphabet)
    epp_census(w, alphabet).clear()
    assert epp_census(same_descents, alphabet) == before
    stored = coded_chain_census(3, frozenset({1}), alphabet).decode()
    first_key = next(iter(stored))
    stored[first_key] += 1
    coded_chain_census(3, frozenset({1}), alphabet).decode()[first_key] = 0
    assert coded_chain_census(3, frozenset({1}), alphabet).decode() == epp_census(w, alphabet) == before


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
        assert len(poset_epp_maps(B, alphabet)) == len(whole)
        pieces = []
        for e in B.linear_extensions():
            pieces.append({tuple(sorted(m.items())) for m in epp_maps(e, alphabet)})
        assert sum(len(piece) for piece in pieces) == len(whole)
        assert set().union(*pieces) == whole


def test_layered_census_counts_what_the_map_walk_visits(monkeypatch):
    # the direct census is counted label by label and walks no map; the
    # brute walk lists the maps it counts and stays the reference
    rng = random.Random(20261019)
    product = Alphabet.product(Alphabet.prime(1), Alphabet.prime(2))
    signed_product = Alphabet.product(Alphabet.plus_minus(1), Alphabet.plus_minus(1))
    orders = [LabeledPoset.chain((3, 1, 4, 2)), LabeledPoset.from_covers(4, [(1, 3), (2, 3), (4, 3)]),
              SignedPoset.from_covers(2, [(1, -1)]), SignedPoset.from_covers(3, [(0, 2), (-3, 1)]),
              SignedPoset.chain((2, -3, 1))]
    for n in range(0, 5):
        for keep in (0.0, 0.4, 0.8):
            orders += [thinned_order("A", n, rng, keep), thinned_order("B", n, rng, keep)]
    cases = []
    for P in orders:
        if P.kind == "A":
            cases += [(P, a) for a in (Alphabet.prime(2), Alphabet.left(2), Alphabet.plus_minus(1), product)]
        else:
            cases += [(P, a) for a in (Alphabet.plus_minus(1), Alphabet.left(1))]
            cases += [(P, signed_product)] if P.n <= 2 else []
    expected = [census_of_maps(poset_epp_maps(P, alphabet), alphabet) for P, alphabet in cases]

    def refuse(*args):
        raise AssertionError("the census walked the maps")

    monkeypatch.setattr(enriched, "_extend_map", refuse)
    for (P, alphabet), census in zip(cases, expected):
        assert coded_poset_census(P, alphabet).decode() == census, (P, alphabet.variant)


def _reference_poset_census(poset, alphabet):
    """The layered census over the whole closed relation, labels 1..n in
    turn: a relation a < b is checked when its larger |label| m gets its
    letter, through a mask of the letters m may take per letter of the
    other label, and a layer maps the letters of the labels that a later
    check still reads to the coded census of the partial maps ending there."""
    n, size, eps = poset.n, len(alphabet), alphabet.eps
    codes = _KeyCodes.of(alphabet, n)
    neg = [alphabet.index[alphabet.negate(letter)] for letter in alphabet.letters] if poset.kind == "B" else []

    def value(label, x):  # the letter of f(label) when f(|label|) has letter x
        return alphabet.zero_index if label == 0 else x if label > 0 else neg[x]

    def mask(a, b, m, y):  # the letters of m that a < b allows when the other label has letter y
        bits = 0
        for x in range(size):
            fa, fb = value(a, x if abs(a) == m else y), value(b, x if abs(b) == m else y)
            if fa < fb or (fa == fb and (eps[fa] > 0) == (a < b)):
                bits |= 1 << x
        return bits

    fixed = [(1 << size) - 1] * (n + 1)
    reads = [[] for _ in range(n + 1)]  # (j, table) for the smaller labels j of m's relations
    for a, b in poset.relation:
        m, j = max(abs(a), abs(b)), min(abs(a), abs(b))
        if j in (0, m):
            fixed[m] &= mask(a, b, m, 0)
        else:
            reads[m].append((j, [mask(a, b, m, y) for y in range(size)]))
    read_until = [0] * (n + 1)
    for m in range(1, n + 1):
        for j, _ in reads[m]:
            read_until[j] = m
    live = ()
    layer = {(): {0: 1}}
    for m in range(1, n + 1):
        at = [(live.index(j), table) for j, table in reads[m]]
        kept = [i for i, j in enumerate(live) if read_until[j] > m]
        held = read_until[m] > m
        grown = {}
        for state, census in layer.items():
            allowed = fixed[m]
            for i, table in at:
                allowed &= table[state[i]]
            base = tuple(state[i] for i in kept)
            for x in range(size):
                if allowed >> x & 1:
                    target = grown.setdefault(base + (x,) if held else base, {})
                    for key, count in census.items():
                        target[key + codes.weight[x]] = target.get(key + codes.weight[x], 0) + count
        live = tuple(live[i] for i in kept) + ((m,) if held else ())
        layer = grown
    return CodedCensus(codes, layer.get((), {}))


def _census_alphabets(kind, n):
    """prime or plusMinus at k <= 3, left(2), a product, and for n <= 5 the
    signed product, of 25 letters, which hosts both kinds of order."""
    alphabets = [Alphabet.prime(k) for k in (1, 2, 3)] if kind == "A" else [Alphabet.plus_minus(k) for k in (1, 2, 3)]
    alphabets += [Alphabet.left(2), Alphabet.product(Alphabet.prime(1), Alphabet.prime(2))] if kind == "A" else [
        Alphabet.left(2)]
    return alphabets + ([Alphabet.product(Alphabet.plus_minus(1), Alphabet.plus_minus(1))] if n <= 5 else [])


def test_cover_census_matches_the_label_order_census_on_seeded_orders():
    # one alphabet object serves every order of its kind, so masks kept on
    # it by one order's shapes are read by the next order's
    rng = random.Random(20261020)
    for kind in ("A", "B"):
        alphabets = _census_alphabets(kind, 0)
        for n in range(0, 10):
            for keep in (0.3, 0.6, 0.9):
                poset = thinned_order(kind, n, rng, keep)
                for alphabet in alphabets if n <= 5 else alphabets[:-1]:
                    assert coded_poset_census(poset, alphabet) == _reference_poset_census(poset, alphabet), (
                        poset, alphabet, poset.label_order)


def test_cover_census_matches_the_label_order_census_on_small_and_shaped_orders():
    orders = [LabeledPoset.antichain(0), LabeledPoset.antichain(1), LabeledPoset.antichain(4),
              LabeledPoset.chain((3, 1, 4, 2)), LabeledPoset.chain((1, 2, 3, 4, 5)),
              zigzag_poset(Permutation((2, 5, 1, 4, 3, 6)), {2, 3, 5}),
              SignedPoset.antichain(0), SignedPoset.antichain(1), SignedPoset.antichain(3),
              SignedPoset.from_covers(1, [(1, -1)]), SignedPoset.from_covers(1, [(0, -1)]),
              SignedPoset.from_covers(2, [(0, 1), (0, -2)]), SignedPoset.from_covers(2, [(2, 0), (-1, 0)]),
              SignedPoset.from_covers(3, [(2, -2), (-3, 1), (0, 3)]),
              SignedPoset.from_covers(3, [(-1, 1), (1, 2), (0, -3)]),
              SignedPoset.chain((2, -3, 1)), SignedPoset.chain((-1, -2, 3, -4))]
    for poset in orders:
        for alphabet in _census_alphabets(poset.kind, poset.n):
            assert coded_poset_census(poset, alphabet) == _reference_poset_census(poset, alphabet), (
                poset, alphabet)


def test_factorization_censuses_are_kept_per_table_and_second_alphabet(monkeypatch):
    # windows of one descent class share a count table, so the second one
    # takes no census product; each second alphabet (here of another size,
    # and of another variant with as many variables) gets a census of its
    # own, and the kept census is handed out as a copy
    calls = []
    original = enriched.census_product
    monkeypatch.setattr(enriched, "census_product", lambda *args: calls.append(1) or original(*args))
    first = Alphabet.prime(2)
    w, same_class = Permutation((2, 1, 3)), Permutation((3, 1, 2))
    assert count_table(w) == count_table(same_class) != count_table(Permutation((1, 3, 2)))
    census = factorization_census(w, first, Alphabet.prime(2))
    products = len(calls)
    assert products == 4  # one per descent set of tau
    assert factorization_census(same_class, first, Alphabet.prime(2)) == census
    assert len(calls) == products
    for second in (Alphabet.prime(1), Alphabet.left(2)):
        for p in (w, same_class):
            assert factorization_census(p, first, second) == _composed_factorization_census(p, first, second)
    before = dict(census)
    census.clear()
    factorization_census(w, first, Alphabet.prime(2))[next(iter(before))] += 1
    assert factorization_census(same_class, first, Alphabet.prime(2)) == before


def test_census_product_offsets_variables():
    # the variables of the second census follow those of the first: its
    # codes are shifted past the first census's digits
    first, second = _KeyCodes(3, 2), _KeyCodes(3, 3)
    a = CodedCensus(first, {first.encode((0, 1)): 2})
    b = CodedCensus(second, {second.encode((0, 0, 1)): 3})
    product = census_product(a, b)
    assert product.codes == _KeyCodes(3, 5)
    assert product.decode() == {(0, 1, 0, 0, 1): 6}


def test_coded_censuses_of_different_systems_differ():
    # equal counts under equal codes mean equal censuses only inside one
    # code system: the code 2 is x_1 in base 2 and x_0^2 in base 3
    census = enriched.coded_epp_census(Permutation((1,)), Alphabet.prime(1))
    assert census.codes == _KeyCodes(2, 2) and census.counts == {2: 2}
    assert census.decode() == {(0, 1): 2}
    for other in (_KeyCodes(3, 2), _KeyCodes(2, 3)):
        assert CodedCensus(other, dict(census.counts)) != census


def test_census_products_need_one_radix():
    # codes of different radixes name different exponents, so their product
    # is refused, under python -O too
    with pytest.raises(ValueError, match="radix"):
        census_product(CodedCensus(_KeyCodes(3, 2), {1: 1}), CodedCensus(_KeyCodes(4, 2), {1: 1}))
    # a letter naming one variable twice makes a larger radix than prime's
    doubled = Alphabet("doubled", [1, 2], [1, 1], [(1, 1), (1,)], 2, None, None)
    assert _KeyCodes.of(doubled, 2).radix == 5 != _KeyCodes.of(Alphabet.prime(1), 2).radix
    for first, second in ((doubled, Alphabet.prime(1)), (Alphabet.prime(1), doubled)):
        with pytest.raises(ValueError, match="radix"):
            factorization_census(Permutation((2, 1)), first, second)


def _round_trip_alphabets():
    pm = Alphabet.plus_minus(1)
    nested = Alphabet.product(Alphabet.product(Alphabet.prime(1), Alphabet.left(1)), Alphabet.prime(1))
    return [(Alphabet.prime(2), "A"), (Alphabet.left(2), "A"), (Alphabet.plus_minus(2), "B"),
            (nested, "A"), (Alphabet.product(pm, pm), "B")]


def test_key_codes_round_trip():
    for alphabet, kind in _round_trip_alphabets():
        for n in range(0, 4):
            codes = _KeyCodes.of(alphabet, n)
            for p in enumerate_group(n, kind):
                census = census_of_maps(epp_maps(p, alphabet), alphabet)
                coded = {codes.encode(key): count for key, count in census.items()}
                assert None not in coded and len(coded) == len(census)
                assert codes.decode(coded) == census, (p, alphabet.variant)


def test_key_codes_never_carry():
    # a key with no code here, of another length or with an exponent outside
    # [0, radix), gets none, instead of the code of another key
    for alphabet, _ in _round_trip_alphabets():
        codes = _KeyCodes.of(alphabet, 2)
        width, radix = alphabet.n_vars, codes.radix
        zero = (0,) * width
        assert codes.encode(zero) == 0
        assert codes.encode(zero[:-1]) is None and codes.encode(zero + (0,)) is None
        for i in range(width):
            top = zero[:i] + (radix - 1,) + zero[i + 1:]
            assert codes.encode(top) == (radix - 1) * radix ** i
            assert codes.encode(zero[:i] + (radix,) + zero[i + 1:]) is None
            assert codes.encode(zero[:i] + (-1,) + zero[i + 1:]) is None


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


def _composed_factorization_census(p, first, second):
    """The factorization sum written out: every tau, sigma = p . tau^-1, the
    keys of tau's census followed by those of sigma's."""
    total = {}
    for tau in enumerate_group(p.n, p.kind):
        sigma = compose(p, tau.inverse())
        for key_a, count_a in epp_census(tau, first).items():
            for key_b, count_b in epp_census(sigma, second).items():
                total[key_a + key_b] = total.get(key_a + key_b, 0) + count_a * count_b
    return total


def test_factorization_census_matches_composed_sum():
    # k = 3 is the size check_bipartite uses
    for k, n_a, n_b in ((2, 4, 3), (3, 3, 2)):
        prime, left, pm = Alphabet.prime(k), Alphabet.left(k), Alphabet.plus_minus(k)
        for n in range(1, n_a + 1):
            for p in enumerate_group(n, "A"):
                for first, second in ((prime, prime), (left, prime)):
                    assert factorization_census(p, first, second) == _composed_factorization_census(
                        p, first, second
                    ), (p, first.variant, k)
        for n in range(1, n_b + 1):
            for p in enumerate_group(n, "B"):
                assert factorization_census(p, pm, pm) == _composed_factorization_census(p, pm, pm), (p, k)


def test_factorization_census_of_signed_window_needs_zero_letters():
    p = SignedPermutation((-2, 1))
    prime, pm = Alphabet.prime(2), Alphabet.plus_minus(2)
    with pytest.raises(ValueError):
        factorization_census(p, prime, pm)
    with pytest.raises(ValueError):
        factorization_census(p, pm, prime)


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


def test_negative_chain_lengths_are_refused():
    # every chain builder refuses a negative length instead of counting
    # chains of it
    for alphabet in (Alphabet.prime(2), Alphabet.plus_minus(1)):
        with pytest.raises(ValueError, match="nonnegative"):
            chain_count(-2, frozenset(), alphabet)
        with pytest.raises(ValueError, match="nonnegative"):
            coded_chain_census(-2, frozenset(), alphabet)
        with pytest.raises(ValueError, match="nonnegative"):
            next(chain_tuples(-2, frozenset(), alphabet))
        # length 0 stays valid: the one empty chain
        assert chain_count(0, frozenset(), alphabet) == 1
        assert coded_chain_census(0, frozenset(), alphabet).decode() == {(0,) * alphabet.n_vars: 1}
