"""Finite labeled posets on [n], centrally symmetric signed posets, linear
extensions, and the zig-zag posets that encode descent classes.

Input line format: one strict relation per line, "a<b".  Signed posets use
labels in {-n..n} and automatically receive the symmetric closure
(a < b implies -b < -a).  Both kinds share one implementation of the label
check, the closure table (the labels above each label, off which the
relation, the covers and the placement rule are read), the constructors,
the placement rule that both lists and counts the linear extensions, and
the filter oracle; an order's `kind` attribute ("A" for LabeledPoset, "B"
for SignedPoset) matches the kind of its linear extensions' windows.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar, Iterable, Sequence

from .permutations import ELEMENT_TYPES, Permutation, SignedPermutation, enumerate_group


def _closure(labels: range, pairs: Iterable[tuple[int, int]]) -> dict[int, set[int]]:
    """The labels above each label in the transitive closure of the pairs,
    by Warshall's rule: once the labels before k have been passed through,
    every label with k above it takes the labels above k."""
    above: dict[int, set[int]] = {x: set() for x in labels}
    for a, b in pairs:
        above[a].add(b)
    for k in labels:
        for row in above.values():
            if k in row:
                row |= above[k]
    return above


@dataclass(frozen=True)
class _Order:
    """A strict partial order of either kind, stored transitively closed; a
    subclass adds its `kind` and its `chain` constructor.  `relation`,
    `covers` and `_placeable` read one closure table (`_closure`) of the
    given pairs and, for a signed order, their mirrors; a cycle is refused,
    naming the first label on one in `labels` order."""

    n: int
    relation: frozenset[tuple[int, int]]
    kind: ClassVar[str]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"an order has n >= 0 labels, got n={self.n}")
        labels = self.labels
        for a, b in self.relation:
            if a not in labels or b not in labels:
                raise ValueError(f"label out of range: {a} < {b}")
        pairs = set(self.relation)
        if self.kind == "B":
            pairs |= {(-b, -a) for a, b in pairs}
        above = _closure(labels, pairs)
        for x in labels:
            if x in above[x]:
                raise ValueError(f"relation contains a cycle through {x}")
        object.__setattr__(self, "_above", above)
        object.__setattr__(self, "relation", frozenset((a, b) for a in labels for b in above[a]))

    @property
    def labels(self) -> range:
        """1..n for an ordinary order, -n..n for a signed one."""
        return range(-self.n if self.kind == "B" else 1, self.n + 1)

    @classmethod
    def from_covers(cls, n: int, covers: Iterable[tuple[int, int]]) -> "_Order":
        return cls(n, frozenset(covers))

    @classmethod
    def antichain(cls, n: int) -> "_Order":
        return cls(n, frozenset())

    def less(self, a: int, b: int) -> bool:
        return (a, b) in self.relation

    @cached_property
    def covers(self) -> frozenset[tuple[int, int]]:
        """The cover relation of the stored order: the pairs a < b with b
        above no label above a (for a signed order, over {-n..n} with 0, so
        a cover may go through 0 or join x and -x).  Its transitive closure
        is the stored relation; kept on the order once taken."""
        above = self._above
        return frozenset((a, b) for a in self.labels for b in above[a].difference(*(above[c] for c in above[a])))

    @cached_property
    def label_order(self) -> tuple[int, ...]:
        """The labels 1..n in a greedy order of low width: two labels are
        linked when a cover joins x and y with |x| and |y| the two labels (a
        cover through 0 or from x to -x links none), a placed label is live
        while a label linked to it is not placed yet, and each next label is
        the unplaced one that leaves the fewest labels live, ties going to
        the one with the fewest unplaced links, then to the smaller label
        (so a chain, entered at an end, keeps one label live).  Kept on the
        order once taken."""
        links = [0] * (self.n + 1)
        for a, b in self.covers:
            if a and b and abs(a) != abs(b):
                links[abs(a)] |= 1 << abs(b)
                links[abs(b)] |= 1 << abs(a)
        order: list[int] = []
        placed = 0

        def cost(m: int) -> tuple[int, int, int]:
            # the labels live once m is placed next, then the labels m still
            # waits for, then m itself
            after = placed | 1 << m
            return sum(1 for j in (*order, m) if links[j] & ~after), (links[m] & ~after).bit_count(), m

        while len(order) < self.n:
            best = min((m for m in range(1, self.n + 1) if not placed >> m & 1), key=cost)
            order.append(best)
            placed |= 1 << best
        return tuple(order)

    def _placeable(self) -> list[tuple[int, int, int, int]]:
        """The placement rule of both kinds, as (x, bit of |x|, bits that must
        be placed before x, bits that must not), listed by |x| with x before
        -x.  The window grows at its top, with w(0) = 0 below it, and takes x
        only while |x| is not placed.  An ordinary label may be placed once
        every label below it is.  A signed label x may be placed unless 0, -x, or a
        label already decided (placed, or the negative of one placed) lies
        above it: by central symmetry d < -x iff x < -d, and decided labels
        come in pairs d, -d, so checking x against them suffices."""
        rule = []
        for m in range(1, self.n + 1):
            if self.kind == "A":
                below = sum(1 << (a - 1) for a in self.labels if m in self._above[a])
                rule.append((m, 1 << (m - 1), below, 0))
            else:  # 0 above x puts -x above x too
                rule += [(x, 1 << (m - 1), 0, sum({1 << (abs(b) - 1) for b in self._above[x]}))
                         for x in (m, -m) if -x not in self._above[x]]
        return rule

    def linear_extensions(self) -> list[Permutation] | list[SignedPermutation]:
        """Every linear extension, as the window of the labels above 0 from
        bottom to top (for a signed order the mirror half is implied), in
        the depth-first order of `_placeable`."""
        out: list[tuple[int, ...]] = []
        _extend(self._placeable(), self.n, 0, [], out)
        return list(map(ELEMENT_TYPES[self.kind], out))

    def linear_extensions_filter(self) -> list[Permutation] | list[SignedPermutation]:
        """Oracle variant, independent of `_placeable`: filter the whole group,
        in rank order, by the extension criterion, each window read as the
        word -w(n) < ... < -w(1) < 0 < w(1) < ... < w(n) (an ordinary order
        relates only labels above 0)."""
        out = []
        for p in enumerate_group(self.n, self.kind):
            word = [-v for v in reversed(p.window)] + [0] + list(p.window)
            pos = {v: i for i, v in enumerate(word)}
            if all(pos[a] < pos[b] for a, b in self.relation):
                out.append(p)
        return out

    def extension_descents(self) -> Counter[frozenset[int]]:
        """The linear extensions tallied by descent set, none of them listed:
        Counter({descent set: number of extensions}), each descent set that
        of a window `linear_extensions` returns (a signed one holds 0 when
        w(1) < 0).

        A forward count over (the |labels| placed, the last label placed),
        each label placed under the rule of `_placeable`: placing x after
        the last label makes a descent exactly when last > x."""
        placeable = self._placeable()
        # (placed bits, last label) -> {descent bits: extensions}
        layer: dict[tuple[int, int], dict[int, int]] = {(0, 0): {0: 1}}
        for position in range(self.n):
            descent = 1 << position
            grown: dict[tuple[int, int], dict[int, int]] = {}
            for (placed, last), tally in layer.items():
                for x, bit, before, not_before in placeable:
                    if placed & bit or before & ~placed or not_before & placed:
                        continue
                    target = grown.setdefault((placed | bit, x), {})
                    step = descent if last > x else 0
                    for des, count in tally.items():
                        target[des | step] = target.get(des | step, 0) + count
            layer = grown
        out: Counter[frozenset[int]] = Counter()
        for tally in layer.values():
            for des, count in tally.items():
                out[frozenset(i for i in range(self.n) if des >> i & 1)] += count
        return out


def _extend(
    placeable: list[tuple[int, int, int, int]], n: int, placed: int, window: list[int], out: list[tuple[int, ...]]
) -> None:
    """Append to out every completion of window to n labels, each next label
    taken from `_Order._placeable` in its order."""
    if len(window) == n:
        out.append(tuple(window))
        return
    for x, bit, before, not_before in placeable:
        if placed & bit or before & ~placed or not_before & placed:
            continue
        window.append(x)
        _extend(placeable, n, placed | bit, window, out)
        window.pop()


class LabeledPoset(_Order):
    """A strict partial order on the labels 1..n."""

    kind = "A"

    @classmethod
    def chain(cls, labels: Sequence[int]) -> "LabeledPoset":
        covers = frozenset(zip(labels, labels[1:]))
        return cls(len(labels), covers)


class SignedPoset(_Order):
    """A strict partial order on {-n..n} that is centrally symmetric:
    a < b implies -b < -a.  The symmetric and transitive closures are taken
    at construction."""

    kind = "B"

    @classmethod
    def chain(cls, window: Sequence[int]) -> "SignedPoset":
        """The total signed order 0 < w(1) < w(2) < ... < w(n)."""
        labels = (0,) + tuple(window)
        return cls(len(window), frozenset(zip(labels, labels[1:])))


def zigzag_poset(pi: Permutation, members: Iterable[int]) -> LabeledPoset:
    """The fence on the window of pi: pi(s) < pi(s+1) for s outside the set,
    pi(s) > pi(s+1) for s in the set.  Its linear extensions are exactly the
    windows sigma with descent_set(sigma^-1 * pi) equal to the set."""
    downward = frozenset(members)
    if not all(1 <= s <= pi.n - 1 for s in downward):
        raise ValueError(f"positions {sorted(downward)} outside [1,{pi.n - 1}]")
    covers = []
    for s in range(1, pi.n):
        a, b = pi.window[s - 1], pi.window[s]
        covers.append((b, a) if s in downward else (a, b))
    return LabeledPoset.from_covers(pi.n, covers)


def parse_covers(text: str) -> tuple[int, list[tuple[int, int]]]:
    """The relations of "a<b" lines, skipping blank lines and # comments,
    with the largest |label| they mention (0 when there is none)."""
    covers = []
    for raw in text.replace("−", "-").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        left, _, right = line.partition("<")
        covers.append((int(left), int(right)))
    return max((max(abs(a), abs(b)) for a, b in covers), default=0), covers


def parse_poset(text: str, signed: bool = False, n: int | None = None) -> LabeledPoset | SignedPoset:
    """Parse "a<b" lines; n defaults to the largest |label| mentioned."""
    largest, covers = parse_covers(text)
    return (SignedPoset if signed else LabeledPoset).from_covers(largest if n is None else n, covers)


def _thinned_chain(window: list[int], rng: random.Random, floor: tuple[int, ...]) -> list[tuple[int, int]]:
    """Shuffle the window, set floor below it, and keep each cover of the
    resulting chain with probability 0.6."""
    rng.shuffle(window)
    labels = list(floor) + window
    return [cover for cover in zip(labels, labels[1:]) if rng.random() < 0.6]


def random_poset(n: int, rng: random.Random) -> LabeledPoset:
    """A random poset built by thinning the cover chain of a random window
    (`_thinned_chain`), so the window is always a linear extension."""
    return LabeledPoset.from_covers(n, _thinned_chain(list(range(1, n + 1)), rng, ()))


def random_signed_poset(n: int, rng: random.Random) -> SignedPoset:
    """Random signed analogue: thin the chain 0 < w(1) < ... of a random
    signed window, then close symmetrically."""
    window = [v if rng.random() < 0.5 else -v for v in range(1, n + 1)]
    return SignedPoset.from_covers(n, _thinned_chain(window, rng, (0,)))
