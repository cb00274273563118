"""A small oracle for the peak-class algebras that shares no code with peakalg.

It builds S_n and B_n with itertools, composes windows by (a.b)(i) = a(b(i))
with w(-i) = -w(i), and reads peak and descent sets by the rules of the
README's statistics table.  The class sums of a statistic partition the group,
so the value of v_A * v_B at p is the number of factorizations s.t = p with t
in class A and s in class B, and the span of the class sums is closed exactly
when these counts are the same for all members of each class.

It also lists the linear extensions of an order and its enriched maps into an
alphabet straight from their definitions.  An order is read only through its
`kind`, `n` and `relation` (the closed set of strict pairs a < b), an alphabet
only through its letters, `leq_plus`, `leq_minus`, `negate`, zero letter and
weights.
"""

import itertools
from collections import Counter
from functools import lru_cache


@lru_cache(maxsize=None)
def group(kind, n):
    perms = tuple(itertools.permutations(range(1, n + 1)))
    if kind == "A":
        return perms
    return tuple(
        tuple(sign * v for sign, v in zip(signs, perm))
        for perm in perms
        for signs in itertools.product((1, -1), repeat=n)
    )


def window(text):
    return tuple(int(v) for v in text.split(","))


def compose(a, b):
    return tuple(a[j - 1] if j > 0 else -a[-j - 1] for j in b)


def inverse(w):
    inv = [0] * len(w)
    for i, v in enumerate(w, start=1):
        inv[abs(v) - 1] = i if v > 0 else -i
    return tuple(inv)


def statistic(w, flavor):
    """interiorPeak: peaks at 2..n-1.  leftPeak: peaks at 1..n-1 with
    w(0) = 0.  typeBPeak: the left rule, plus 0 whenever w(1) < 0.
    descent: the type B descent set, i in 0..n-1 with w(i) > w(i+1), w(0) = 0."""
    full = (0,) + tuple(w)
    if flavor == "descent":
        return frozenset(i for i in range(len(w)) if full[i] > full[i + 1])
    low = 2 if flavor == "interiorPeak" else 1
    peaks = {i for i in range(low, len(w)) if full[i - 1] < full[i] > full[i + 1]}
    if flavor == "typeBPeak" and w[0] < 0:
        peaks.add(0)
    return frozenset(peaks)


@lru_cache(maxsize=None)
def labels(kind, n, flavor):
    return {w: statistic(w, flavor) for w in group(kind, n)}


@lru_cache(maxsize=None)
def _inverses(kind, n):
    return tuple((t, inverse(t)) for t in group(kind, n))


@lru_cache(maxsize=None)
def factorizations(p, kind, first, second=None):
    """Counts of the factorizations s.t = p by (class of t, class of s), t read
    by the statistic `first` and s by `second` (default: the same)."""
    n = len(p)
    of_t, of_s = labels(kind, n, first), labels(kind, n, second or first)
    return Counter((of_t[t], of_s[compose(p, t_inv)]) for t, t_inv in _inverses(kind, n))


def peak_number_factorizations(p):
    """Counts of the factorizations s.t = p in S_n by the interior peak
    counts (of t, of s)."""
    counts = Counter()
    for (peaks_t, peaks_s), times in factorizations(p, "A", "interiorPeak").items():
        counts[len(peaks_t), len(peaks_s)] += times
    return counts


def products_constant(kind, n, first, second, on):
    """Is every product v_A * v_B (A a class of `first`, B of `second`)
    constant on the classes of `on`, i.e. in the span of their sums?"""
    seen = {}
    for p, label in labels(kind, n, on).items():
        counts = factorizations(p, kind, first, second)
        if seen.setdefault(label, counts) != counts:
            return False
    return True


def closes(kind, n, flavor):
    return products_constant(kind, n, flavor, flavor, flavor)


def class_count(kind, n, flavor):
    return len(set(labels(kind, n, flavor).values()))


def refines(kind, n, finer, coarser):
    """Is every class of `coarser` a union of classes of `finer`?"""
    image = {}
    return all(
        image.setdefault(labels(kind, n, finer)[w], c) == c
        for w, c in labels(kind, n, coarser).items()
    )


def linear_extensions(P):
    """The windows of the group of P, in `group` order, whose word
    -w(n) < ... < -w(1) < 0 < w(1) < ... < w(n) puts a before b for every
    relation a < b of P (an ordinary order relates only labels above 0)."""
    out = []
    for w in group(P.kind, P.n):
        word = [-v for v in reversed(w)] + [0] + list(w)
        position = {v: i for i, v in enumerate(word)}
        if all(position[a] < position[b] for a, b in P.relation):
            out.append(w)
    return out


def poset_maps(P, alphabet):
    """The maps f on the labels 1..n of P, as dicts, with f(a) <=+ f(b) for
    every relation a < b of P with a < b as integers and f(a) <=- f(b) for
    the others.  A signed order reads f(0) as the zero letter and f(-m) as
    the negation of f(m), so it needs an alphabet with a zero letter.  The
    labels take letters 1..n in turn, and each relation is checked as soon
    as both of its ends have letters."""
    f = {}
    if P.kind == "B":
        if alphabet.zero_index is None:
            raise ValueError("a signed order needs an alphabet with a zero letter")
        f[0] = alphabet.letters[alphabet.zero_index]
    checks = [[] for _ in range(P.n + 1)]  # the relations whose later end is m
    for a, b in P.relation:
        checks[max(abs(a), abs(b))].append((a, b, alphabet.leq_plus if a < b else alphabet.leq_minus))
    out = []
    _extend_map(1, P, alphabet, checks, f, out)
    return out


def _extend_map(m, P, alphabet, checks, f, out):
    if m > P.n:
        out.append({label: f[label] for label in range(1, P.n + 1)})
        return
    for letter in alphabet.letters:
        f[m] = letter
        if P.kind == "B":
            f[-m] = alphabet.negate(letter)
        if all(leq(f[a], f[b]) for a, b, leq in checks[m]):
            _extend_map(m + 1, P, alphabet, checks, f, out)


def census_of_maps(maps, alphabet):
    """The monomial census of maps on labels: for each exponent vector, the
    number of maps whose letters' weights add up to it."""
    census = Counter()
    for f in maps:
        key = [0] * alphabet.n_vars
        for letter in f.values():
            for v in alphabet.weight_vars(letter):
                key[v] += 1
        census[tuple(key)] += 1
    return dict(census)
