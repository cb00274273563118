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
from typing import ClassVar, Iterable, Iterator


def _parse_ints(text: str) -> tuple[int, ...]:
    text = text.strip().replace("−", "-")
    if text in ("", "()"):
        return ()
    return tuple(int(part) for part in text.split(","))


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
        inv = [0] * self.n
        for i, j in enumerate(self.window, start=1):
            inv[abs(j) - 1] = i if j > 0 else -i
        return type(self)(tuple(inv))

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


def ambient_interval(flavor: str, n: int) -> tuple[int, int]:
    """Inclusive (lo, hi) range of positions the flavor may contain."""
    try:
        return _AMBIENT[flavor](n)
    except KeyError:
        raise ValueError(f"unknown flavor: {flavor}") from None


@dataclass(frozen=True)
class StatSet:
    """A peak or descent set together with its flavor and ambient size."""

    flavor: str
    n: int
    members: frozenset[int]

    def __post_init__(self) -> None:
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
        members = () if not inner else tuple(int(p) for p in inner.split(","))
        return cls.of(flavor, n, members)

    def __str__(self) -> str:
        return "{" + ",".join(str(i) for i in sorted(self.members)) + "}"


def _stat_set(p: GroupElement, flavor: str) -> StatSet:
    """The flavor's set of p: peaks of the window padded with w(0) = w(n+1)
    = 0, or descents, clipped to the ambient interval; a signed flavor adds
    0 whenever w(1) < 0."""
    w, n = p.window, p.n
    lo, hi = ambient_interval(flavor, n)
    if flavor in PEAK_FLAVORS:
        values = (0,) + w + (0,)
        members = {i for i in range(max(lo, 1), hi + 1) if values[i - 1] < values[i] > values[i + 1]}
    else:
        members = {i for i in range(max(lo, 1), hi + 1) if w[i - 1] > w[i]}
    if flavor in SIGNED_FLAVORS and n and w[0] < 0:
        members.add(0)
    return StatSet(flavor, n, frozenset(members))


def peak_set(p: GroupElement, flavor: str) -> StatSet:
    """The flavor's peak set of a (signed) permutation."""
    if flavor not in PEAK_FLAVORS:
        raise ValueError(f"not a peak flavor: {flavor}")
    return _stat_set(p, flavor)


def descent_set(p: GroupElement, flavor: str) -> StatSet:
    """Positions i with w(i) > w(i+1); descentB adds 0 when w(1) < 0."""
    if flavor not in DESCENT_FLAVORS:
        raise ValueError(f"not a descent flavor: {flavor}")
    return _stat_set(p, flavor)


def stat_set(p: GroupElement, flavor: str) -> StatSet:
    """peak_set or descent_set, dispatched on the flavor."""
    if flavor in PEAK_FLAVORS:
        return peak_set(p, flavor)
    return descent_set(p, flavor)


# ---------------------------------------------------------------------------
# Group enumeration with a stable rank/unrank order


def _check_kind(kind: str) -> None:
    if kind not in ("A", "B"):
        raise ValueError(f"unknown kind: {kind}")


def group_order(n: int, kind: str) -> int:
    _check_kind(kind)
    order = 1
    for m in range(2, n + 1):
        order *= m
    return order if kind == "A" else order * (1 << n)


def enumerate_group(n: int, kind: str) -> Iterator[GroupElement]:
    """All of S_n (kind 'A') or B_n (kind 'B').

    The order is stable: windows by lexicographic order of their absolute
    values, and for kind 'B' each base window runs through all 2^n sign
    patterns, with position i flipping bit i-1 of an ascending counter.
    """
    _check_kind(kind)
    if kind == "A":
        for window in itertools.permutations(range(1, n + 1)):
            yield Permutation(window)
    else:
        for window in itertools.permutations(range(1, n + 1)):
            for mask in range(1 << n):
                yield SignedPermutation(
                    tuple(-v if (mask >> i) & 1 else v for i, v in enumerate(window))
                )


def _lehmer_rank(window: tuple[int, ...]) -> int:
    n = len(window)
    rank = 0
    for i in range(n):
        smaller = sum(1 for j in range(i + 1, n) if window[j] < window[i])
        rank = rank * (n - i) + smaller
    return rank


def _lehmer_unrank(rank: int, n: int) -> tuple[int, ...]:
    digits = []
    for radix in range(1, n + 1):
        rank, digit = divmod(rank, radix)
        digits.append(digit)
    digits.reverse()
    remaining = list(range(1, n + 1))
    return tuple(remaining.pop(d) for d in digits)


def rank(p: GroupElement) -> int:
    """Index of p in the enumerate_group order."""
    if p.kind == "B":
        mask = sum(1 << i for i, v in enumerate(p.window) if v < 0)
        return _lehmer_rank(tuple(abs(v) for v in p.window)) * (1 << p.n) + mask
    return _lehmer_rank(p.window)


def unrank(r: int, n: int, kind: str) -> GroupElement:
    """Inverse of rank for the given group."""
    _check_kind(kind)
    if kind == "A":
        return Permutation(_lehmer_unrank(r, n))
    base_rank, mask = divmod(r, 1 << n)
    window = _lehmer_unrank(base_rank, n)
    return SignedPermutation(
        tuple(-v if (mask >> i) & 1 else v for i, v in enumerate(window))
    )


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


def compositions(n: int, typeB: bool = False) -> list[Composition]:
    """All 2^(n-1) compositions (or 2^n pseudo-compositions) of n."""
    lo = 0 if typeB else 1
    if n == 0:
        return [Composition((), typeB)]
    out = []
    for size in range(n - lo + 1):
        for members in itertools.combinations(range(lo, n), size):
            out.append(Composition.from_subset(members, n, typeB))
    return out


# ---------------------------------------------------------------------------
# Peak-set enumeration and Fibonacci counting


def fibonacci(k: int) -> int:
    """f_0 = f_1 = 1, f_k = f_{k-1} + f_{k-2}."""
    a, b = 1, 1
    for _ in range(k):
        a, b = b, a + b
    return a


#: The flavors with a peak series, each with the shift s for which the peak
#: sets of size-n windows, and the span of their series, number f_{n+s}.
FIBONACCI_SHIFT = {"interiorPeak": -1, "leftPeak": 0, "typeBPeak": 1}


def sparse_subsets(lo: int, hi: int) -> list[frozenset[int]]:
    """All subsets of [lo, hi] with no two consecutive elements."""
    out = [frozenset()]
    for i in range(lo, hi + 1):
        out.extend(s | {i} for s in out.copy() if i - 1 not in s)
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def enumerate_stat_sets(n: int, flavor: str) -> list[StatSet]:
    """The full combinatorial domain of the statistic: sparse subsets of the
    ambient interval for peak flavors, all subsets for descent flavors."""
    lo, hi = ambient_interval(flavor, n)
    if flavor in PEAK_FLAVORS:
        subsets = sparse_subsets(lo, hi)
    else:
        width = max(0, hi - lo + 1)
        subsets = [
            frozenset(i for i in range(lo, hi + 1) if (mask >> (i - lo)) & 1)
            for mask in range(1 << width)
        ]
        subsets.sort(key=lambda s: (len(s), sorted(s)))
    return [StatSet(flavor, n, s) for s in subsets]


def enumerate_peak_sets(n: int, flavor: str) -> list[StatSet]:
    """All valid peak sets of the flavor; counts are Fibonacci numbers
    (f_{n-1}, f_n, f_{n+1} for interiorPeak, leftPeak, typeBPeak)."""
    if flavor not in PEAK_FLAVORS:
        raise ValueError(f"not a peak flavor: {flavor}")
    return enumerate_stat_sets(n, flavor)
