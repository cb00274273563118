"""Permutations, signed permutations, and their peak/descent statistics.

Windows use one-line notation: a permutation of [n] is the tuple
(w(1), ..., w(n)).  Signed windows carry a sign on each entry; the value at a
negative position is determined by w(-i) = -w(i), and w(0) = 0.  Both kinds
share one implementation; a window's `kind` attribute ("A" for Permutation,
"B" for SignedPermutation) is where the rest of the package reads its kind.

The statistic flavors and their ambient intervals:

    interiorPeak  {i in [2, n-1] : w(i-1) < w(i) > w(i+1)}
    leftPeak      {i in [1, n-1] : w(i-1) < w(i) > w(i+1)}, w(0) = 0
    typeBPeak     leftPeak rule for i >= 1, plus 0 whenever w(1) < 0
    rightPeak     {i in [2, n]   : w(i-1) < w(i) > w(i+1)}, w(n+1) = 0
    exteriorPeak  {i in [1, n]   : ...}, w(0) = w(n+1) = 0
    descentA      {i in [1, n-1] : w(i) > w(i+1)}
    descentB      descentA plus 0 whenever w(1) < 0

Every peak flavor yields a set with no two consecutive elements.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from operator import mul
from typing import ClassVar, Iterable, Iterator, Sequence


def _built(cls, **fields):
    """An instance of the frozen dataclass cls holding `fields`, made
    without its `__post_init__` check: the one constructor of the values
    this module builds valid by construction (the sets of `stat_set` and
    `enumerate_stat_sets`, the windows of `enumerate_group`).  Outside input
    goes through cls(...), which checks it."""
    instance = object.__new__(cls)
    instance.__dict__.update(fields)
    return instance


def _parse_ints(text: str) -> tuple[int, ...]:
    text = text.strip().replace("−", "-")
    if text in ("", "()"):
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"not a comma-separated list of integers: {text!r}") from None


@dataclass(frozen=True)
class _Window:
    """A window of either kind; a subclass adds its `kind` and the check of
    its window.  The rules below read w(-i) = -w(i) and w(0) = 0, so they
    hold for both kinds."""

    window: tuple[int, ...]
    kind: ClassVar[str]

    @property
    def n(self) -> int:
        return len(self.window)

    @classmethod
    def identity(cls, n: int) -> "_Window":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def parse(cls, text: str) -> "_Window":
        return cls(_parse_ints(text))

    def value(self, i: int) -> int:
        """The image of i, with value(0) = 0 (used by boundary conventions)."""
        if i == 0:
            return 0
        if i > 0:
            return self.window[i - 1]
        return -self.window[-i - 1]

    def inverse(self) -> "_Window":
        return type(self)(inverse_window(self.window))

    def __mul__(self, other: "_Window") -> "_Window":
        return compose(self, other)

    def __str__(self) -> str:
        return ",".join(str(v) for v in self.window)


@dataclass(frozen=True)
class Permutation(_Window):
    """An element of the symmetric group S_n in window notation."""

    kind = "A"

    def __post_init__(self) -> None:
        if sorted(self.window) != list(range(1, len(self.window) + 1)):
            raise ValueError(f"not a permutation window: {self.window}")


@dataclass(frozen=True)
class SignedPermutation(_Window):
    """An element of the hyperoctahedral group B_n in window notation.

    The full window on {-n..n} is implied by w(-i) = -w(i) and w(0) = 0.
    """

    kind = "B"

    def __post_init__(self) -> None:
        if sorted(abs(v) for v in self.window) != list(range(1, len(self.window) + 1)):
            raise ValueError(f"not a signed permutation window: {self.window}")


GroupElement = Permutation | SignedPermutation

ELEMENT_TYPES = {"A": Permutation, "B": SignedPermutation}


def inverse_window(window: tuple[int, ...]) -> tuple[int, ...]:
    """The window of the inverse: w(i) = v sends |v| back to i, signed as v."""
    inverse = [0] * len(window)
    for i, v in enumerate(window, start=1):
        inverse[abs(v) - 1] = i if v > 0 else -i
    return tuple(inverse)


def compose(a: GroupElement, b: GroupElement) -> GroupElement:
    """The product a*b defined by (a*b)(i) = a(b(i)), with a(-j) = -a(j)."""
    if type(a) is not type(b) or a.n != b.n:
        raise ValueError("can only compose elements of the same group")
    window = tuple(a.value(b.window[i]) for i in range(a.n))
    return type(a)(window)


# ---------------------------------------------------------------------------
# Statistic sets


_AMBIENT = {
    "interiorPeak": lambda n: (2, n - 1),
    "leftPeak": lambda n: (1, n - 1),
    "typeBPeak": lambda n: (0, n - 1),
    "rightPeak": lambda n: (2, n),
    "exteriorPeak": lambda n: (1, n),
    "descentA": lambda n: (1, n - 1),
    "descentB": lambda n: (0, n - 1),
}

PEAK_FLAVORS = ("interiorPeak", "leftPeak", "typeBPeak", "rightPeak", "exteriorPeak")
DESCENT_FLAVORS = ("descentA", "descentB")
FLAVORS = PEAK_FLAVORS + DESCENT_FLAVORS

#: flavors whose statistics read the window of a signed permutation
SIGNED_FLAVORS = ("typeBPeak", "descentB")


def _check_signed_flavor(kind: str, flavor: str) -> None:
    """A signed flavor reads w(1) < 0, which no window of S_n has: refuse it
    on kind A rather than answer as though it were the ordinary flavor."""
    if kind == "A" and flavor in SIGNED_FLAVORS:
        raise ValueError(f"{flavor} is a signed flavor: it reads B_n, not S_n")


def ambient_interval(flavor: str, n: int) -> tuple[int, int]:
    """Inclusive (lo, hi) range of positions the flavor may contain."""
    try:
        return _AMBIENT[flavor](n)
    except KeyError:
        raise ValueError(f"unknown flavor: {flavor}") from None


@dataclass(frozen=True)
class StatSet:
    """A peak or descent set together with its flavor and ambient size.

    Outside input is checked here, whether it comes through `StatSet(...)`,
    `of` or `parse`: n >= 0, members inside the flavor's ambient interval,
    and no two adjacent members in a peak set.  The sets that `stat_set` and
    `enumerate_stat_sets` build meet these by construction and skip the
    check (`_built`)."""

    flavor: str
    n: int
    members: frozenset[int]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"window size must be nonnegative, got {self.n}")
        lo, hi = ambient_interval(self.flavor, self.n)
        if not all(lo <= i <= hi for i in self.members):
            raise ValueError(
                f"{sorted(self.members)} outside [{lo},{hi}] for {self.flavor}, n={self.n}"
            )
        if self.flavor in PEAK_FLAVORS:
            if any(i + 1 in self.members for i in self.members):
                raise ValueError(f"peak set has adjacent members: {sorted(self.members)}")

    @classmethod
    def of(cls, flavor: str, n: int, members: Iterable[int]) -> "StatSet":
        return cls(flavor, n, frozenset(members))

    @classmethod
    def parse(cls, flavor: str, n: int, text: str) -> "StatSet":
        text = text.strip().replace("−", "-")
        if not (text.startswith("{") and text.endswith("}")):
            raise ValueError(f"expected braces around set: {text!r}")
        inner = text[1:-1].strip()
        try:
            members = () if not inner else tuple(int(p) for p in inner.split(","))
        except ValueError:
            raise ValueError(f"not a set of integers {{a,b,...}}: {text!r}") from None
        return cls.of(flavor, n, members)

    def __str__(self) -> str:
        return "{" + ",".join(str(i) for i in sorted(self.members)) + "}"


def stat_set(p: GroupElement, flavor: str) -> StatSet:
    """The flavor's set of p: peaks of the window padded with w(0) = w(n+1)
    = 0, or descents, clipped to the ambient interval; a signed flavor adds
    0 whenever w(1) < 0.  A signed flavor refuses an ordinary window, and an
    unknown flavor is refused; p is a checked window.  The set read off is
    valid by construction, so it is built without `StatSet`'s check."""
    w, n = p.window, p.n
    lo, hi = ambient_interval(flavor, n)
    _check_signed_flavor(p.kind, flavor)
    if flavor in PEAK_FLAVORS:
        values = (0,) + w + (0,)
        members = {i for i in range(max(lo, 1), hi + 1) if values[i - 1] < values[i] > values[i + 1]}
    else:
        members = {i for i in range(max(lo, 1), hi + 1) if w[i - 1] > w[i]}
    if flavor in SIGNED_FLAVORS and n and w[0] < 0:
        members.add(0)
    return _built(StatSet, flavor=flavor, n=n, members=frozenset(members))


def peak_set(p: GroupElement, flavor: str) -> StatSet:
    """The flavor's peak set of a (signed) permutation."""
    if flavor not in PEAK_FLAVORS:
        raise ValueError(f"not a peak flavor: {flavor}")
    return stat_set(p, flavor)


def descent_set(p: GroupElement, flavor: str) -> StatSet:
    """Positions i with w(i) > w(i+1); descentB adds 0 when w(1) < 0."""
    if flavor not in DESCENT_FLAVORS:
        raise ValueError(f"not a descent flavor: {flavor}")
    return stat_set(p, flavor)


# ---------------------------------------------------------------------------
# Group enumeration with a stable rank/unrank order


def _check_group(n: int, kind: str) -> None:
    if kind not in ELEMENT_TYPES:
        raise ValueError(f"unknown kind: {kind}")
    if n < 0:
        raise ValueError(f"group size must be nonnegative, got {n}")


def group_order(n: int, kind: str) -> int:
    _check_group(n, kind)
    order = 1
    for m in range(2, n + 1):
        order *= m
    return order if kind == "A" else order * (1 << n)


@lru_cache(maxsize=None)
def windows(n: int, kind: str) -> tuple[tuple[int, ...], ...]:
    """Every window of S_n (kind 'A') or B_n (kind 'B') in rank order, the
    one definition of that order: windows by lexicographic order of their
    absolute values, and for kind 'B' each base window runs through all 2^n
    sign patterns, with position i flipping bit i-1 of an ascending counter."""
    _check_group(n, kind)
    bases = itertools.permutations(range(1, n + 1))
    if kind == "A":
        return tuple(bases)
    # product varies its last factor fastest, so reversed it flips position 1 fastest
    signs = [pattern[::-1] for pattern in itertools.product((1, -1), repeat=n)]
    return tuple(tuple(map(mul, base, pattern)) for base in bases for pattern in signs)


def enumerate_group(n: int, kind: str) -> Iterator[GroupElement]:
    """All of S_n (kind 'A') or B_n (kind 'B'), as elements, in rank order.
    n and kind are checked at the call; the windows of `windows` are valid
    by construction, so each element is built without its window check."""
    group = windows(n, kind)  # checks the kind at the call
    cls = ELEMENT_TYPES[kind]
    return (_built(cls, window=window) for window in group)


def _lehmer_rank(window: tuple[int, ...]) -> int:
    n = len(window)
    rank = 0
    for i in range(n):
        smaller = sum(1 for j in range(i + 1, n) if window[j] < window[i])
        rank = rank * (n - i) + smaller
    return rank


def rank(p: GroupElement) -> int:
    """Index of p in the `windows` order."""
    if p.kind == "B":
        mask = sum(1 << i for i, v in enumerate(p.window) if v < 0)
        return _lehmer_rank(tuple(abs(v) for v in p.window)) * (1 << p.n) + mask
    return _lehmer_rank(p.window)


def rank_digits(r: int, n: int, kind: str) -> tuple[int, ...]:
    """The digits of rank r in the `windows` order: the Lehmer digits
    of the unsigned window, radices n down to 2 (digit i counts the later
    values below the one at position i+1), then for kind 'B' the n sign
    bits, bit i set when position i+1 is negative."""
    order = group_order(n, kind)
    if not 0 <= r < order:
        raise ValueError(f"rank {r} outside [0, {order - 1}] for {kind}_{n}")
    signs: tuple[int, ...] = ()
    if kind == "B":
        r, mask = divmod(r, 1 << n)
        signs = tuple((mask >> i) & 1 for i in range(n))
    lehmer = []
    for radix in range(2, n + 1):
        r, digit = divmod(r, radix)
        lehmer.append(digit)
    lehmer.reverse()
    return (*lehmer, *signs)


def unrank(r: int, n: int, kind: str) -> GroupElement:
    """Inverse of rank for the given group."""
    digits = rank_digits(r, n, kind)
    split = max(n - 1, 0)
    remaining = list(range(1, n + 1))
    window = [remaining.pop(d) for d in digits[:split]] + remaining
    if kind == "B":
        window = [-v if sign else v for v, sign in zip(window, digits[split:])]
    return ELEMENT_TYPES[kind](tuple(window))


# ---------------------------------------------------------------------------
# Compositions and pseudo-compositions


@dataclass(frozen=True)
class Composition:
    """A composition of n (typeB=False: all parts positive) or a
    pseudo-composition (typeB=True: the first part may be zero).

    The empty tuple is the unique composition of 0 for either kind.
    """

    parts: tuple[int, ...]
    typeB: bool = False

    def __post_init__(self) -> None:
        parts = self.parts
        if self.typeB and parts == (0,):
            object.__setattr__(self, "parts", ())
            parts = ()
        if parts:
            first_ok = parts[0] >= 0 if self.typeB else parts[0] > 0
            if not (first_ok and all(p > 0 for p in parts[1:])):
                raise ValueError(f"invalid{' pseudo-' if self.typeB else ' '}composition: {parts}")

    @property
    def degree(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def to_subset(self) -> frozenset[int]:
        """Partial sums short of the total: (a1, a2, ..., ak) -> {a1, a1+a2, ...}."""
        sums = list(itertools.accumulate(self.parts))
        return frozenset(sums[:-1])

    @classmethod
    def from_subset(cls, members: Iterable[int], n: int, typeB: bool = False) -> "Composition":
        """The composition of n whose partial-sum set is the given subset."""
        lo = 0 if typeB else 1
        positions = sorted(members)
        if any(not lo <= i <= n - 1 for i in positions):
            raise ValueError(f"subset {positions} not within [{lo},{n - 1}]")
        if n == 0:
            return cls((), typeB)
        bounds = positions + [n]
        parts = [bounds[0]] + [bounds[i + 1] - bounds[i] for i in range(len(positions))]
        return cls(tuple(parts), typeB)

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"


def subsets(positions: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Every subset of the increasing positions, by size, then
    lexicographically: the one order of every subset enumeration."""
    return itertools.chain.from_iterable(itertools.combinations(positions, size) for size in range(len(positions) + 1))


def compositions(n: int, typeB: bool = False) -> list[Composition]:
    """All 2^(n-1) compositions (or 2^n pseudo-compositions) of n, in the
    `subsets` order of their partial-sum sets."""
    if n < 0:
        raise ValueError(f"composition size must be nonnegative, got {n}")
    return [Composition.from_subset(s, n, typeB) for s in subsets(range(0 if typeB else 1, n))]


# ---------------------------------------------------------------------------
# Peak-set enumeration and Fibonacci counting


def fibonacci(k: int) -> int:
    """f_0 = f_1 = 1, f_k = f_{k-1} + f_{k-2}."""
    if k < 0:
        raise ValueError(f"Fibonacci index must be nonnegative, got {k}")
    a, b = 1, 1
    for _ in range(k):
        a, b = b, a + b
    return a


#: The flavors with a peak series, each with the shift s for which the peak
#: sets of size-n windows, and the span of their series, number f_{n+s}.
FIBONACCI_SHIFT = {"interiorPeak": -1, "leftPeak": 0, "typeBPeak": 1}


def sparse_subsets(lo: int, hi: int) -> list[frozenset[int]]:
    """All subsets of [lo, hi] with no two consecutive elements, in the
    `subsets` order."""
    return [frozenset(s) for s in subsets(range(lo, hi + 1)) if all(b - a > 1 for a, b in zip(s, s[1:]))]


def enumerate_stat_sets(n: int, flavor: str) -> list[StatSet]:
    """The full combinatorial domain of the statistic: sparse subsets of the
    ambient interval for peak flavors, all subsets for descent flavors.
    Valid by construction once n and the flavor are, so only those are
    checked."""
    lo, hi = ambient_interval(flavor, n)
    if n < 0:
        raise ValueError(f"window size must be nonnegative, got {n}")
    members = sparse_subsets(lo, hi) if flavor in PEAK_FLAVORS else map(frozenset, subsets(range(lo, hi + 1)))
    return [_built(StatSet, flavor=flavor, n=n, members=s) for s in members]


def enumerate_peak_sets(n: int, flavor: str) -> list[StatSet]:
    """All valid peak sets of the flavor; counts are Fibonacci numbers
    (f_{n-1}, f_n, f_{n+1} for interiorPeak, leftPeak, typeBPeak)."""
    if flavor not in PEAK_FLAVORS:
        raise ValueError(f"not a peak flavor: {flavor}")
    return enumerate_stat_sets(n, flavor)
