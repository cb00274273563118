"""Enumeration of enriched chains and their monomial censuses.

A window w with descent set D (type B: including 0 when w(1) < 0) admits the
chain maps g = (g_1, ..., g_n) into an alphabet: consecutive values satisfy
g_i <=+ g_{i+1} when i is not a descent and g_i <=- g_{i+1} when it is.  For
alphabets with a zero letter the chain is anchored: a virtual g_0 equal to
the zero letter, with the step sign decided by whether 0 is a descent.  So
the chains are fixed by the window's size and descent set together with the
alphabet, and every chain builder below takes exactly those three.

The census of a window records, for each monomial exponent vector, how many
chain maps produce it; the exponent of variable v counts chain values of
weight v.  By construction the census depends on the window only through its
descent set.

Inside this module a census is kept coded (`CodedCensus`): a key is one
integer whose base-radix digits are its exponents, in a code system fixed by
the alphabet and the number of values n.  The chain DP and the poset census
build coded censuses, sums and products combine them, and the verification
checks compare them, code system included.  The public census functions
decode on return, into a fresh dict keyed by exponent tuples.

The chain DP goes along the positions; its state after a step, the census
of the chains ending at each letter, depends on the descent set only
through its members before that step.  So the descent sets of one n share
the steps of their common prefix: the state of every prefix is kept on the
alphabet, a census extends the longest prefix already stepped, each
(n, prefix) step runs once per alphabet, and the last step adds straight
into the census.  Kept states are never changed, and they live, with the
censuses, exactly as long as the alphabet.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .alphabets import Alphabet, Letter
from .group_algebra import factorization_counts
from .permutations import GroupElement, descent_set, rank
from .posets import LabeledPoset, SignedPoset

Census = dict[tuple[int, ...], int]


def supports_signed(alphabet: Alphabet) -> bool:
    """Whether the alphabet can host chain maps of signed windows: it needs a
    zero letter to anchor at and a negation to mirror values through."""
    return alphabet.zero_index is not None and alphabet._negate is not None


def _check_host(p: GroupElement, alphabet: Alphabet) -> None:
    if p.kind == "B" and not supports_signed(alphabet):
        raise ValueError(f"{alphabet.variant} alphabet cannot host signed windows")


def chain_rules(p: GroupElement, alphabet: Alphabet) -> tuple[int, frozenset[int]]:
    """(n, descent set) governing the chains of p into alphabet; whether a
    chain is anchored is the alphabet's own property (a zero letter)."""
    _check_host(p, alphabet)
    return p.n, descent_set(p, "descent" + p.kind).members


def _equality_gate(alphabet: Alphabet, minus: bool) -> list[bool]:
    if minus:
        return [e < 0 for e in alphabet.eps]
    return [e > 0 for e in alphabet.eps]


@dataclass(frozen=True)
class _KeyCodes:
    """A code system for census keys: a key of n_vars exponents is coded as
    the integer whose base-radix digits, lowest first, are its exponents, so
    that adding a letter's weight to a key is one integer addition.  Systems
    are equal when their radix and variable count are; `weight` holds the
    code of each letter of the alphabet the system was made for."""

    radix: int
    n_vars: int
    weight: tuple[int, ...] = field(default=(), compare=False)

    @classmethod
    def of(cls, alphabet: Alphabet, n: int) -> "_KeyCodes":
        """The system of maps on n values into alphabet.  An exponent is at
        most n times the most often one letter names one variable (taken as
        one for an alphabet with no letters), and the radix is one more, so
        digits never carry."""
        most = max((vars_.count(v) for vars_ in alphabet.var_lists for v in vars_), default=1)
        radix = n * most + 1
        return cls(radix, alphabet.n_vars, tuple(sum(radix ** v for v in vars_) for vars_ in alphabet.var_lists))

    def encode(self, key: tuple[int, ...]) -> int | None:
        """The code of key, or None when it has none in this system: a key of
        another length, or an exponent outside [0, radix), which would carry
        into the next digit and alias another key."""
        if len(key) != self.n_vars:
            return None
        code = 0
        for exponent in reversed(key):
            if not 0 <= exponent < self.radix:
                return None
            code = code * self.radix + exponent
        return code

    def decode(self, counts: dict[int, int]) -> Census:
        census: Census = {}
        for key, count in counts.items():
            exponents = []
            for _ in range(self.n_vars):
                key, digit = divmod(key, self.radix)
                exponents.append(digit)
            census[tuple(exponents)] = count
        return census


class CodedCensus(NamedTuple):
    """A census in integer form: the count of each key code of one code
    system.  Coded censuses are equal when their systems and counts are."""

    codes: _KeyCodes
    counts: dict[int, int]

    def decode(self) -> Census:
        return self.codes.decode(self.counts)


def encode_census(census: Mapping[tuple[int, ...], int], alphabet: Alphabet, n: int) -> CodedCensus | None:
    """census, keyed by exponent tuples, in the code system of maps on n
    values into alphabet; None when one of its keys has no code there, so
    that it equals no census of that system."""
    codes = _KeyCodes.of(alphabet, n)
    counts: dict[int, int] = {}
    for key, count in census.items():
        code = codes.encode(key)
        if code is None:
            return None
        counts[code] = count
    return CodedCensus(codes, counts)


def chain_count(n: int, des: frozenset[int], alphabet: Alphabet) -> int:
    """Number of chain maps, by prefix-sum dynamic programming."""
    if n < 0:
        raise ValueError(f"chain length must be nonnegative, got {n}")
    size = len(alphabet)
    if n == 0:
        return 1
    if alphabet.zero_index is not None:
        state = [0] * size
        state[alphabet.zero_index] = 1
        first = 0
    else:
        state = [1] * size
        first = 1
    for i in range(first, n):
        gate = _equality_gate(alphabet, i in des)
        new = [0] * size
        running = 0
        for j in range(size):
            new[j] = running + (state[j] if gate[j] else 0)
            running += state[j]
        state = new
    return sum(state)


def coded_chain_census(n: int, des: frozenset[int], alphabet: Alphabet) -> CodedCensus:
    """The coded census of the chain maps.  The DP state after a step
    depends on the descent set only through its members before that step,
    so the censuses of one alphabet and n share the steps of their common
    descent-set prefix: each (n, prefix) step runs once per alphabet
    (`_chain_census`).  The census of each (n, descent set) is kept on the
    alphabet beside the prefix states, and both live as long as it does;
    this returns the kept census itself, which callers must not change."""
    if n < 0:
        raise ValueError(f"chain length must be nonnegative, got {n}")
    rules = (n, frozenset(des))
    stored = alphabet.censuses.get(rules)
    if stored is None:
        stored = alphabet.censuses[rules] = _chain_census(n, des, alphabet)
    return stored


class _ChainSteps(NamedTuple):
    """The chain DP of one alphabet and n: the code system, the equality
    gate of a plain step and of a descent step, and the state reached by
    each descent-set prefix, keyed by its tuple of step flags (is step i a
    descent).  A state holds, per letter, the coded census of the chains
    ending at that letter; no stored state is ever changed."""

    codes: _KeyCodes
    gates: tuple[list[bool], list[bool]]
    states: dict[tuple[bool, ...], list[dict[int, int]]]


def _chain_steps(n: int, alphabet: Alphabet) -> _ChainSteps:
    """The kept DP of alphabet and n, made on first use with only the start
    state stored: anchored at the zero letter, or a free first value."""
    slot = ("prefix states", n)
    steps = alphabet.censuses.get(slot)
    if steps is None:
        codes = _KeyCodes.of(alphabet, n)
        if alphabet.zero_index is not None:
            start: list[dict[int, int]] = [{} for _ in alphabet.letters]
            start[alphabet.zero_index] = {0: 1}
        else:
            start = [{weight: 1} for weight in codes.weight]
        gates = (_equality_gate(alphabet, False), _equality_gate(alphabet, True))
        steps = alphabet.censuses[slot] = _ChainSteps(codes, gates, {(): start})
    return steps


def _chain_census(n: int, des: frozenset[int], alphabet: Alphabet) -> CodedCensus:
    """Extend the longest stored prefix of the descent set's step flags,
    storing the state of every prefix it passes; the last step adds into
    the census total instead."""
    if n == 0:
        return CodedCensus(_KeyCodes.of(alphabet, 0), {0: 1})
    codes, gates, states = _chain_steps(n, alphabet)
    first = 0 if alphabet.zero_index is not None else 1
    flags = tuple(i in des for i in range(first, n))
    if not flags:  # one free value: a chain per letter
        total: dict[int, int] = {}
        for weight in codes.weight:
            total[weight] = total.get(weight, 0) + 1
        return CodedCensus(codes, total)
    depth = len(flags) - 1
    while flags[:depth] not in states:
        depth -= 1
    state = states[flags[:depth]]
    for i in range(depth, len(flags) - 1):
        state = states[flags[:i + 1]] = _chain_step(state, gates[flags[i]], codes.weight)
    return CodedCensus(codes, _chain_total(state, gates[flags[-1]], codes.weight))


def _chain_step(state: list[dict[int, int]], gate: list[bool], weights: tuple[int, ...]) -> list[dict[int, int]]:
    """One DP step, into a new state: the chains ending at letter j are
    those ending below j, plus those ending at j when the gate lets the step
    repeat it, each extended by one value at j."""
    new: list[dict[int, int]] = []
    running: dict[int, int] = {}  # the chains ending below letter j, or at it once it may repeat
    for counts, repeat, weight in zip(state, gate, weights):
        if repeat:
            _add_into(running, counts)
        new.append({key + weight: count for key, count in running.items()})
        if not repeat:
            _add_into(running, counts)
    return new


def _chain_total(state: list[dict[int, int]], gate: list[bool], weights: tuple[int, ...]) -> dict[int, int]:
    """The last DP step, summed over the letters as it goes: the census of
    the chains that `_chain_step` would end at every letter."""
    total: dict[int, int] = {}
    running: dict[int, int] = {}
    for counts, repeat, weight in zip(state, gate, weights):
        if repeat:
            _add_into(running, counts)
        for key, count in running.items():
            total[key + weight] = total.get(key + weight, 0) + count
        if not repeat:
            _add_into(running, counts)
    return total


def _add_into(total: dict[int, int], counts: dict[int, int]) -> None:
    for key, count in counts.items():
        total[key] = total.get(key, 0) + count


def chain_tuples(n: int, des: frozenset[int], alphabet: Alphabet) -> Iterator[tuple[Letter, ...]]:
    """All chain maps materialized as value tuples (g_1, ..., g_n)."""
    if n < 0:
        raise ValueError(f"chain length must be nonnegative, got {n}")
    size = len(alphabet)
    chain: list[int] = []

    def extend(previous: int | None, minus: bool | None) -> Iterator[tuple[Letter, ...]]:
        position = len(chain) + 1
        if position > n:
            yield tuple(alphabet.letters[j] for j in chain)
            return
        for j in range(size):
            if previous is not None:
                if j < previous:
                    continue
                if j == previous:
                    sign_ok = alphabet.eps[j] < 0 if minus else alphabet.eps[j] > 0
                    if not sign_ok:
                        continue
            chain.append(j)
            yield from extend(j, position in des)
            chain.pop()

    if alphabet.zero_index is not None:
        yield from extend(alphabet.zero_index, 0 in des)
    else:
        yield from extend(None, None)


# ---------------------------------------------------------------------------
# Per-element wrappers


def epp_count(p: GroupElement, alphabet: Alphabet) -> int:
    return chain_count(*chain_rules(p, alphabet), alphabet)


def coded_epp_census(p: GroupElement, alphabet: Alphabet) -> CodedCensus:
    return coded_chain_census(*chain_rules(p, alphabet), alphabet)


def epp_census(p: GroupElement, alphabet: Alphabet) -> Census:
    return coded_epp_census(p, alphabet).decode()


def epp_values(p: GroupElement, alphabet: Alphabet) -> Iterator[tuple[Letter, ...]]:
    """Chain value tuples (g_i = f(w(i)))."""
    return chain_tuples(*chain_rules(p, alphabet), alphabet)


def epp_maps(p: GroupElement, alphabet: Alphabet) -> list[dict[int, Letter]]:
    """Chain maps rewritten as maps on the positive labels 1..n.  For signed
    windows the value at |w(i)| is mirrored when w(i) < 0."""
    out = []
    for values in epp_values(p, alphabet):
        assignment: dict[int, Letter] = {}
        for i, g in enumerate(values, start=1):
            label = p.window[i - 1]
            if label < 0:
                assignment[-label] = alphabet.negate(g)
            else:
                assignment[label] = g
        out.append(assignment)
    return out


def census_of_maps(maps: Iterable[dict[int, Letter]], alphabet: Alphabet) -> Census:
    """Monomial census of explicit maps on positive labels (oracle path)."""
    total: Census = {}
    for assignment in maps:
        key = [0] * alphabet.n_vars
        for letter in assignment.values():
            for v in alphabet.weight_vars(letter):
                key[v] += 1
        k = tuple(key)
        total[k] = total.get(k, 0) + 1
    return total


# ---------------------------------------------------------------------------
# Poset-shaped maps: a count over the cover relations, the direct side of the
# census-additivity check, and a brute walk over the maps on the whole closed
# relation, its reference.  Neither shares code with the chain DP above.


def _pair_masks(alphabet: Alphabet, shape: tuple[int, int, bool]) -> list[int]:
    """The allowed-letter masks of a relation a < b of one shape (end of a,
    end of b, whether a < b as integers).  An end is 0 for label 0, +-1 for
    the label checked last, +-2 for the other, signed as the label: entry y
    is the mask of the letters x of the label checked last for which
    f(a) <=+ f(b) (a < b) or f(a) <=- f(b) (a > b) holds when the other
    label has letter y, with f(0) the zero letter and f(-m) = -f(m)."""
    end_a, end_b, less = shape
    letters = range(len(alphabet))
    positive = [e > 0 for e in alphabet.eps]
    if end_a < 0 or end_b < 0:
        neg = [alphabet.index[alphabet.negate(letter)] for letter in alphabet.letters]

    def value(end: int, x: int, y: int) -> int:
        if end == 0:
            return alphabet.zero_index
        letter = x if abs(end) == 1 else y
        return letter if end > 0 else neg[letter]

    masks = []
    for y in letters:
        bits = 0
        for x in letters:
            fa, fb = value(end_a, x, y), value(end_b, x, y)
            if fa < fb or (fa == fb and positive[fa] == less):
                bits |= 1 << x
        masks.append(bits)
    return masks


def _compile_relation(
    poset: LabeledPoset | SignedPoset, alphabet: Alphabet, pairs: Iterable[tuple[int, int]], order: Sequence[int]
) -> tuple[list[int], list[list[tuple[int, list[int]]]]]:
    """The strict relations `pairs` of a labeled or signed poset as
    allowed-letter bitmasks over letter indices, for labels that receive
    letters in `order`, a permutation of 1..n.

    A relation a < b asks f(a) <=+ f(b) when a < b as integers and
    f(a) <=- f(b) otherwise, with f(0) the zero letter and f(-m) = -f(m),
    and it is checked when the later of |a| and |b| in the order receives
    its letter.  Returns, per label m, the mask of letters that m may take
    whatever came before (the relations inside {0, m, -m}), and the pairs
    (j, table) for the labels j before m that m is related to: given the
    letter y of j, m may take the letters of table[y].  The masks depend
    only on the alphabet and the pair's shape (`_pair_masks`), so they are
    kept on the alphabet.
    """
    n = poset.n
    if poset.kind == "B" and not supports_signed(alphabet):
        raise ValueError(f"{alphabet.variant} alphabet cannot host signed posets")
    kept = alphabet.censuses.setdefault("relation masks", {})
    position = [0] * (n + 1)
    for t, m in enumerate(order):
        position[m] = t
    fixed = [(1 << len(alphabet)) - 1] * (n + 1)
    tables: list[dict[int, list[int]]] = [{} for _ in range(n + 1)]
    for a, b in pairs:
        if a and b and abs(a) != abs(b):
            m, j = sorted((abs(a), abs(b)), key=position.__getitem__, reverse=True)
        else:  # inside {0, m, -m}
            m = j = abs(a) or abs(b)
        ends = tuple(((label > 0) - (label < 0)) * (1 if abs(label) == m else 2) for label in (a, b))
        shape = (*ends, a < b)
        masks = kept.get(shape)
        if masks is None:
            masks = kept[shape] = _pair_masks(alphabet, shape)
        if j == m:
            fixed[m] &= masks[0]
            continue
        previous = tables[m].get(j)
        tables[m][j] = masks if previous is None else [p & t for p, t in zip(previous, masks)]
    return fixed, [list(t.items()) for t in tables]


def _extend_map(
    m: int,
    fixed: list[int],
    checks: list[list[tuple[int, list[int]]]],
    letters: list[int],
    names: tuple[Letter, ...],
    out: list[dict[int, Letter]],
) -> None:
    """Give label m each letter the relation allows after letters[1..m-1]
    and go on to m + 1; once every label has a letter, append the map."""
    if m == len(letters):
        out.append({label: names[x] for label, x in enumerate(letters[1:], start=1)})
        return
    allowed = fixed[m]
    for j, table in checks[m]:
        allowed &= table[letters[j]]
    while allowed:
        low = allowed & -allowed
        allowed ^= low
        letters[m] = low.bit_length() - 1
        _extend_map(m + 1, fixed, checks, letters, names, out)


def poset_epp_maps(poset: LabeledPoset | SignedPoset, alphabet: Alphabet) -> list[dict[int, Letter]]:
    """Maps f on the positive labels 1..n with, for every strict relation
    a < b of the poset, f(a) <=+ f(b) when a < b as integers and
    f(a) <=- f(b) otherwise.  For a signed poset the implied values
    f(0) = zero letter and f(-m) = -f(m) enter the relation checks.  A brute
    walk over every map, labels 1..n in turn, checking the whole closed
    relation: the reference of `coded_poset_census`, which checks only the
    covers, in another order."""
    fixed, checks = _compile_relation(poset, alphabet, poset.relation, range(1, poset.n + 1))
    out: list[dict[int, Letter]] = []
    _extend_map(1, fixed, checks, [0] * (poset.n + 1), alphabet.letters, out)
    return out


def coded_poset_census(poset: LabeledPoset | SignedPoset, alphabet: Alphabet) -> CodedCensus:
    """The coded census of the maps of `poset_epp_maps`, counted label by
    label over the covers of the order alone.  That is exact: for covers
    a < c < b, f(a) <= f(c) <= f(b), and f(a) = f(b) = x forces f(c) = x,
    so a < c < b as integers when x is positive and a > c > b when it is
    negative, and f(a) <=+- f(b) follows.  Labels take letters in the
    order's `label_order`, each cover checked by the later of its labels.
    A layer maps a state, the letters of the labels that a later label's
    check still reads, to the coded census of the partial maps on the
    labels placed that end in it; the next label extends each state by
    every letter its fixed mask and its tables allow there."""
    order = poset.label_order
    fixed, checks = _compile_relation(poset, alphabet, poset.covers, order)
    codes = _KeyCodes.of(alphabet, poset.n)
    read_until = [0] * (poset.n + 1)  # the last step whose check reads label j
    for t, m in enumerate(order):
        for j, _ in checks[m]:
            read_until[j] = t
    live: tuple[int, ...] = ()  # the labels whose letters a state holds, in order
    layer: dict[tuple[int, ...], dict[int, int]] = {(): {0: 1}}
    for t, m in enumerate(order):
        reads = [(live.index(j), table) for j, table in checks[m]]
        kept = [i for i, j in enumerate(live) if read_until[j] > t]
        held = read_until[m] > t
        live = tuple(live[i] for i in kept) + ((m,) if held else ())
        grown: dict[tuple[int, ...], dict[int, int]] = {}
        while layer:  # each census is dropped once it has been extended
            state, census = layer.popitem()
            allowed = fixed[m]
            for i, table in reads:
                allowed &= table[state[i]]
            base = tuple(state[i] for i in kept)
            # letters that lead to one state and add one weight shift the
            # census once, times their number
            shifts: dict[tuple[tuple[int, ...], int], int] = {}
            while allowed:
                low = allowed & -allowed
                allowed ^= low
                x = low.bit_length() - 1
                step = (base + (x,) if held else base, codes.weight[x])
                shifts[step] = shifts.get(step, 0) + 1
            for (target_state, weight), times in shifts.items():
                target = grown.setdefault(target_state, {})
                for key, count in census.items():
                    target[key + weight] = target.get(key + weight, 0) + times * count
        layer = grown
    # no label is read past the last one, so every map ends in the empty state
    return CodedCensus(codes, layer.get((), {}))


# ---------------------------------------------------------------------------
# Bipartite censuses


def census_product(left: CodedCensus, right: CodedCensus) -> CodedCensus:
    """Combine a coded census over the first variables with one over the
    rest: the codes of the right census are shifted past the left's digits
    and added, counts multiply.  Both must share one radix, or a shifted code
    would name other exponents."""
    radix = left.codes.radix
    if right.codes.radix != radix:
        raise ValueError(f"census codes of radix {radix} and {right.codes.radix} do not combine")
    shift = radix ** left.codes.n_vars
    shifted = [(key * shift, count) for key, count in right.counts.items()]
    out: dict[int, int] = {}
    for key_a, count_a in left.counts.items():
        for key_b, count_b in shifted:
            key = key_a + key_b
            out[key] = out.get(key, 0) + count_a * count_b
    return CodedCensus(_KeyCodes(radix, left.codes.n_vars + right.codes.n_vars), out)


def census_sum(n: int, terms: Iterable[tuple[frozenset[int], int]], alphabet: Alphabet) -> CodedCensus:
    """The coded sum of times * coded_chain_census(n, des, alphabet) over
    the terms (des, times): windows sharing a descent set share a census, so
    each descent set's census enters once, times the number of its windows.
    The sum keeps the code system of the censuses it adds."""
    codes = None
    total: dict[int, int] = {}
    for des, times in terms:
        codes, counts = coded_chain_census(n, des, alphabet)
        for key, count in counts.items():
            total[key] = total.get(key, 0) + times * count
    return CodedCensus(_KeyCodes.of(alphabet, n) if codes is None else codes, total)


def count_table(p: GroupElement) -> frozenset[tuple[tuple[frozenset[int], frozenset[int]], int]]:
    """The factorizations p = sigma * tau counted by descent-set pair
    (Des tau, Des sigma), as a frozenset of (pair, count) items: windows of
    one descent class have equal tables."""
    return frozenset(factorization_counts(p.n, p.kind, rank(p), "descent" + p.kind).items())


def _alphabet_key(alphabet: Alphabet) -> tuple:
    """What the chain censuses over an alphabet depend on: equal for equal
    alphabets, different for different ones."""
    return alphabet.variant, alphabet.letters, alphabet.eps, alphabet.var_lists, alphabet.n_vars, alphabet.zero_index


def factorization_census(
    p: GroupElement, first: Alphabet, second: Alphabet
) -> Census:
    """Sum over all factorizations p = sigma * tau of the product census of
    tau into the first alphabet and sigma into the second:
    `coded_factorization_census`, decoded into a fresh dict."""
    return coded_factorization_census(p, first, second).decode()


def coded_factorization_census(
    p: GroupElement, first: Alphabet, second: Alphabet, table: frozenset | None = None
) -> CodedCensus:
    """The coded factorization census.  A census depends on its window only
    through the descent set, so the sum runs over the count table of p
    (`count_table`, or `table` when a caller that reads the table too has
    tallied it): for each Des tau the censuses of its sigma sides are
    summed first, and that sum enters one product with the census of tau.
    The result is kept on the first alphabet, keyed by the second alphabet,
    n and the count table, so windows with equal tables build it once; this
    returns the kept census itself, which callers must not change."""
    _check_host(p, first)
    _check_host(p, second)
    if table is None:
        table = count_table(p)
    slot = (_alphabet_key(second), p.n, table)
    stored = first.censuses.get(slot)
    if stored is None:
        stored = first.censuses[slot] = _factorization_census(p.n, table, first, second)
    return stored


def _factorization_census(n: int, table: frozenset, first: Alphabet, second: Alphabet) -> CodedCensus:
    sigma_sides: dict[frozenset[int], list] = {}
    for (des_tau, des_sigma), times in table:
        sigma_sides.setdefault(des_tau, []).append((des_sigma, times))
    total: CodedCensus | None = None
    for des_tau, terms in sigma_sides.items():
        combined = census_product(coded_chain_census(n, des_tau, first), census_sum(n, terms, second))
        if total is None:  # a count table is never empty: p = p * identity
            total = combined
            continue
        for key, count in combined.counts.items():
            total.counts[key] = total.counts.get(key, 0) + count
    return total
