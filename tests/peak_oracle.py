"""A small oracle for the peak-class algebras that shares no code with peakalg.

It builds S_n and B_n with itertools, composes windows by (a.b)(i) = a(b(i))
with w(-i) = -w(i), and reads peak and descent sets by the rules of the
README's statistics table.  The class sums of a statistic partition the group,
so the value of v_A * v_B at p is the number of factorizations s.t = p with t
in class A and s in class B, and the span of the class sums is closed exactly
when these counts are the same for all members of each class.
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
