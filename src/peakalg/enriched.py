"""Enumeration of enriched chains and their monomial censuses.

A window w with descent set D (type B: including 0 when w(1) < 0) admits the
chain maps g = (g_1, ..., g_n) into an alphabet: consecutive values satisfy
g_i <=+ g_{i+1} when i is not a descent and g_i <=- g_{i+1} when it is.  For
alphabets with a zero letter the chain is anchored: a virtual g_0 equal to
the zero letter, with the step sign decided by whether 0 is a descent.

The census of a window records, for each monomial exponent vector, how many
chain maps produce it; the exponent of variable v counts chain values of
weight v.  By construction the census depends on the window only through its
descent set.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

from .alphabets import Alphabet, Letter
from .permutations import (
    GroupElement,
    Permutation,
    SignedPermutation,
    descent_set,
)
from .posets import LabeledPoset, SignedPoset

Census = dict[tuple[int, ...], int]


def supports_signed(alphabet: Alphabet) -> bool:
    """Whether the alphabet can host chain maps of signed windows: it needs a
    zero letter to anchor at and a negation to mirror values through."""
    return alphabet.zero_index is not None and alphabet._negate is not None


def chain_rules(p: GroupElement, alphabet: Alphabet) -> tuple[int, frozenset[int], bool]:
    """(n, descent set, anchored?) governing the chains of p into alphabet."""
    if isinstance(p, SignedPermutation):
        if not supports_signed(alphabet):
            raise ValueError(f"{alphabet.variant} alphabet cannot host signed windows")
        des = descent_set(p, "descentB").members
    else:
        des = descent_set(p, "descentA").members
    return p.n, des, alphabet.zero_index is not None


def _equality_gate(alphabet: Alphabet, minus: bool) -> list[bool]:
    if minus:
        return [e < 0 for e in alphabet.eps]
    return [e > 0 for e in alphabet.eps]


def chain_count(n: int, des: frozenset[int], alphabet: Alphabet, anchored: bool) -> int:
    """Number of chain maps, by prefix-sum dynamic programming."""
    size = len(alphabet)
    if n == 0:
        return 1
    if anchored:
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


def _shift(census: Census, vars_: tuple[int, ...]) -> Census:
    out: Census = {}
    for key, count in census.items():
        bumped = list(key)
        for v in vars_:
            bumped[v] += 1
        out[tuple(bumped)] = count
    return out


def chain_census(n: int, des: frozenset[int], alphabet: Alphabet, anchored: bool) -> Census:
    """Monomial census of all chain maps, same DP as chain_count.  The DP
    runs once per (n, descent set, anchored) for each alphabet and its
    result is kept on the alphabet; every call returns a fresh copy."""
    rules = (n, frozenset(des), anchored)
    stored = alphabet.censuses.get(rules)
    if stored is None:
        stored = alphabet.censuses[rules] = _chain_census(n, des, alphabet, anchored)
    return dict(stored)


def _chain_census(n: int, des: frozenset[int], alphabet: Alphabet, anchored: bool) -> Census:
    size = len(alphabet)
    base = (0,) * alphabet.n_vars
    if n == 0:
        return {base: 1}
    if anchored:
        state: list[Census] = [{} for _ in range(size)]
        state[alphabet.zero_index] = {base: 1}
        first = 0
    else:
        state = [_shift({base: 1}, alphabet.var_lists[j]) for j in range(size)]
        first = 1
    for i in range(first, n):
        gate = _equality_gate(alphabet, i in des)
        new: list[Census] = []
        running: Census = {}
        for j in range(size):
            current = dict(running)
            if gate[j]:
                for key, count in state[j].items():
                    current[key] = current.get(key, 0) + count
            new.append(_shift(current, alphabet.var_lists[j]))
            for key, count in state[j].items():
                running[key] = running.get(key, 0) + count
        state = new
    total: Census = {}
    for partial in state:
        for key, count in partial.items():
            total[key] = total.get(key, 0) + count
    return total


def chain_tuples(
    n: int, des: frozenset[int], alphabet: Alphabet, anchored: bool
) -> Iterator[tuple[Letter, ...]]:
    """All chain maps materialized as value tuples (g_1, ..., g_n)."""
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

    if anchored:
        yield from extend(alphabet.zero_index, 0 in des)
    else:
        yield from extend(None, None)


# ---------------------------------------------------------------------------
# Per-element wrappers


def epp_count(p: GroupElement, alphabet: Alphabet) -> int:
    n, des, anchored = chain_rules(p, alphabet)
    return chain_count(n, des, alphabet, anchored)


def epp_census(p: GroupElement, alphabet: Alphabet) -> Census:
    n, des, anchored = chain_rules(p, alphabet)
    return chain_census(n, des, alphabet, anchored)


def epp_values(p: GroupElement, alphabet: Alphabet) -> Iterator[tuple[Letter, ...]]:
    """Chain value tuples (g_i = f(w(i)))."""
    n, des, anchored = chain_rules(p, alphabet)
    return chain_tuples(n, des, alphabet, anchored)


def epp_maps(p: GroupElement, alphabet: Alphabet) -> list[dict[int, Letter]]:
    """Chain maps rewritten as maps on the positive labels 1..n.  For signed
    windows the value at |w(i)| is mirrored when w(i) < 0."""
    signed = isinstance(p, SignedPermutation)
    out = []
    for values in epp_values(p, alphabet):
        assignment: dict[int, Letter] = {}
        for i, g in enumerate(values, start=1):
            label = p.window[i - 1]
            if signed and label < 0:
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
# Poset-shaped enumeration: a brute force over maps, the oracle side of the
# census-additivity checks.  It shares no code with the chain DP above.


def _compile_relation(
    poset: LabeledPoset | SignedPoset, alphabet: Alphabet
) -> tuple[list[int], list[list[tuple[int, list[int]]]]]:
    """The relation of a labeled or signed poset as allowed-letter bitmasks
    over letter indices.

    Labels 1..n receive letters in increasing order, and a strict relation
    a < b is checked when its larger |label| m receives one: f(a) <=+ f(b)
    when a < b as integers, f(a) <=- f(b) otherwise, with f(0) the zero
    letter and f(-m) = -f(m).  Returns, per m, the mask of letters that m
    may take whatever came before (the relations inside {0, m, -m}), and the
    pairs (j, table) for the smaller labels j that m is related to: given
    the letter y of j, m may take the letters of table[y].
    """
    n, size = poset.n, len(alphabet)
    neg: list[int] = []
    if isinstance(poset, SignedPoset):
        if not supports_signed(alphabet):
            raise ValueError(f"{alphabet.variant} alphabet cannot host signed posets")
        neg = [alphabet.index[alphabet.negate(letter)] for letter in alphabet.letters]
    positive = [e > 0 for e in alphabet.eps]
    letters = range(size)

    def value(label: int, x: int) -> int:
        # the letter of f(label) when f(|label|) has letter x
        if label == 0:
            return alphabet.zero_index
        return x if label > 0 else neg[x]

    def mask(a: int, b: int, m: int, y: int) -> int:
        # the letters x of label m for which a < b holds when the other
        # label of the pair has letter y
        bits = 0
        for x in letters:
            fa = value(a, x if abs(a) == m else y)
            fb = value(b, x if abs(b) == m else y)
            if fa < fb or (fa == fb and positive[fa] == (a < b)):
                bits |= 1 << x
        return bits

    fixed = [(1 << size) - 1] * (n + 1)
    tables: list[dict[int, list[int]]] = [{} for _ in range(n + 1)]
    shapes: dict[tuple[bool, ...], list[int]] = {}
    for a, b in poset.relation:
        m, j = max(abs(a), abs(b)), min(abs(a), abs(b))
        if j in (0, m):
            fixed[m] &= mask(a, b, m, 0)
            continue
        # the table depends on the labels only through these signs
        shape = (abs(a) == m, a > 0, b > 0, a < b)
        if shape not in shapes:
            shapes[shape] = [mask(a, b, m, y) for y in letters]
        table = shapes[shape]
        previous = tables[m].get(j)
        tables[m][j] = table if previous is None else [p & t for p, t in zip(previous, table)]
    return fixed, [list(t.items()) for t in tables]


def _visit_maps(
    poset: LabeledPoset | SignedPoset,
    alphabet: Alphabet,
    weight: list[int],
    leaf: Callable[[int, list[int]], None],
) -> None:
    """Call leaf(key, letters) once per map f on 1..n satisfying the
    relation: letters[m] is the letter index of f(m) and key the sum of
    weight over letters[1..n]."""
    fixed, checks = _compile_relation(poset, alphabet)
    n = poset.n
    letters = [0] * (n + 1)

    def extend(m: int, key: int) -> None:
        allowed = fixed[m]
        for j, table in checks[m]:
            allowed &= table[letters[j]]
        while allowed:
            low = allowed & -allowed
            allowed ^= low
            x = low.bit_length() - 1
            letters[m] = x
            if m == n:
                leaf(key + weight[x], letters)
            else:
                extend(m + 1, key + weight[x])

    if n == 0:
        leaf(0, letters)
    else:
        extend(1, 0)


def poset_epp_maps(poset: LabeledPoset | SignedPoset, alphabet: Alphabet) -> list[dict[int, Letter]]:
    """Maps f on the positive labels 1..n with, for every strict relation
    a < b of the poset, f(a) <=+ f(b) when a < b as integers and
    f(a) <=- f(b) otherwise.  For a signed poset the implied values
    f(0) = zero letter and f(-m) = -f(m) enter the relation checks."""
    out: list[dict[int, Letter]] = []
    names = alphabet.letters
    labels = range(1, poset.n + 1)

    def leaf(key: int, letters: list[int]) -> None:
        out.append({m: names[letters[m]] for m in labels})

    _visit_maps(poset, alphabet, [0] * len(alphabet), leaf)
    return out


def poset_epp_count(poset: LabeledPoset | SignedPoset, alphabet: Alphabet) -> int:
    return len(poset_epp_maps(poset, alphabet))


def signed_poset_epp_maps(poset: SignedPoset, alphabet: Alphabet) -> list[dict[int, Letter]]:
    """poset_epp_maps under its former name for signed posets, which the
    benchmark's tracer still wraps."""
    return poset_epp_maps(poset, alphabet)


def poset_epp_census(poset: LabeledPoset | SignedPoset, alphabet: Alphabet) -> Census:
    """census_of_maps(poset_epp_maps(poset, alphabet), alphabet), counted
    map by map without materializing the maps.  A census key is kept as one
    integer whose digits, in base radix, are its exponents."""
    radix = poset.n * max(len(vars_) for vars_ in alphabet.var_lists) + 1
    weight = [sum(radix ** v for v in vars_) for vars_ in alphabet.var_lists]
    counts: dict[int, int] = {}

    def leaf(key: int, letters: list[int]) -> None:
        counts[key] = counts.get(key, 0) + 1

    _visit_maps(poset, alphabet, weight, leaf)
    census: Census = {}
    for key, count in counts.items():
        exponents = []
        for _ in range(alphabet.n_vars):
            key, digit = divmod(key, radix)
            exponents.append(digit)
        census[tuple(exponents)] = count
    return census


# ---------------------------------------------------------------------------
# Bipartite censuses


def census_product(left: Census, right: Census, offset: int, width: int) -> Census:
    """Combine a census over variables [0, offset) with one over [0, width -
    offset): keys concatenate, counts multiply."""
    out: Census = {}
    for key_a, count_a in left.items():
        for key_b, count_b in right.items():
            key = key_a + key_b
            assert len(key) == width
            out[key] = out.get(key, 0) + count_a * count_b
    return out


def factorization_census(
    p: GroupElement, first: Alphabet, second: Alphabet
) -> Census:
    """Sum over all factorizations p = sigma * tau of the product census of
    tau into the first alphabet and sigma into the second."""
    from .permutations import compose, enumerate_group

    kind = "B" if isinstance(p, SignedPermutation) else "A"
    width = first.n_vars + second.n_vars
    total: Census = {}
    for tau in enumerate_group(p.n, kind):
        sigma = compose(p, tau.inverse())
        combined = census_product(
            epp_census(tau, first), epp_census(sigma, second), first.n_vars, width
        )
        for key, count in combined.items():
            total[key] = total.get(key, 0) + count
    return total
