"""Finite labeled posets on [n], centrally symmetric signed posets, linear
extensions, and the zig-zag posets that encode descent classes.

Input line format: one strict relation per line, "a<b".  Signed posets use
labels in {-n..n} and automatically receive the symmetric closure
(a < b implies -b < -a).  Both kinds share one implementation of the label
check, the closure and the constructors; an order's `kind` attribute ("A"
for LabeledPoset, "B" for SignedPoset) matches the kind of its linear
extensions' windows.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import ClassVar, Iterable, Sequence

from .permutations import Permutation, SignedPermutation


def _transitive_closure(pairs: set[tuple[int, int]]) -> set[tuple[int, int]]:
    closed = set(pairs)
    changed = True
    while changed:
        changed = False
        for a, b in list(closed):
            for c, d in list(closed):
                if b == c and (a, d) not in closed:
                    closed.add((a, d))
                    changed = True
    return closed


def _check_strict_order(pairs: set[tuple[int, int]]) -> None:
    for a, b in pairs:
        if a == b:
            raise ValueError(f"relation contains a cycle through {a}")
        if (b, a) in pairs:
            raise ValueError(f"relation contains a cycle: {a} < {b} < {a}")


@dataclass(frozen=True)
class _Order:
    """A strict partial order of either kind, stored transitively closed; a
    subclass adds its `kind` and its linear extensions."""

    n: int
    relation: frozenset[tuple[int, int]]
    kind: ClassVar[str]

    def __post_init__(self) -> None:
        labels = self.labels
        for a, b in self.relation:
            if a not in labels or b not in labels:
                raise ValueError(f"label out of range: {a} < {b}")
        pairs = set(self.relation)
        if self.kind == "B":
            pairs |= {(-b, -a) for a, b in pairs}
        closed = _transitive_closure(pairs)
        _check_strict_order(closed)
        object.__setattr__(self, "relation", frozenset(closed))

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


class LabeledPoset(_Order):
    """A strict partial order on the labels 1..n."""

    kind = "A"

    @classmethod
    def chain(cls, labels: Sequence[int]) -> "LabeledPoset":
        covers = frozenset(zip(labels, labels[1:]))
        return cls(len(labels), covers)

    def linear_extensions(self) -> list[Permutation]:
        """All label orderings compatible with the poset, as windows: the
        window lists the labels from bottom to top."""
        above = {i: set() for i in self.labels}
        indegree = {i: 0 for i in self.labels}
        for a, b in _reduce_to_covers(self.n, self.relation):
            above[a].add(b)
            indegree[b] += 1
        out: list[Permutation] = []
        _extend_labeled(self.n, above, indegree, [], out)
        return out

    def linear_extensions_filter(self) -> list[Permutation]:
        """Oracle variant: filter all n! windows by the extension criterion
        (i < j in the poset implies i appears before j in the window)."""
        import itertools

        out = []
        for w in itertools.permutations(range(1, self.n + 1)):
            pos = {v: i for i, v in enumerate(w)}
            if all(pos[a] < pos[b] for a, b in self.relation):
                out.append(Permutation(w))
        return out


def _extend_labeled(
    n: int, above: dict[int, set[int]], indegree: dict[int, int], window: list[int], out: list[Permutation]
) -> None:
    """Append to out every extension of window by the labels still in
    indegree, each placed once nothing left below it."""
    if len(window) == n:
        out.append(Permutation(tuple(window)))
        return
    for label in sorted(indegree):
        if indegree[label] == 0:
            del indegree[label]
            for b in above[label]:
                indegree[b] -= 1
            window.append(label)
            _extend_labeled(n, above, indegree, window, out)
            window.pop()
            for b in above[label]:
                indegree[b] += 1
            indegree[label] = 0


def _reduce_to_covers(n: int, relation: frozenset[tuple[int, int]]) -> set[tuple[int, int]]:
    return {
        (a, b)
        for a, b in relation
        if not any((a, c) in relation and (c, b) in relation for c in range(1, n + 1))
    }


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

    def linear_extensions(self) -> list[SignedPermutation]:
        """All centrally symmetric total orders extending the poset.

        Each is returned as the window (w(1), ..., w(n)) of labels sitting
        above 0, bottom to top; the mirror half is implied.
        """
        above: dict[int, set[int]] = {x: set() for x in self.labels}
        for a, b in self.relation:
            above[a].add(b)
        out: list[SignedPermutation] = []
        _extend_signed(self.n, above, set(), {0}, [], out)
        return out

    def linear_extensions_filter(self) -> list[SignedPermutation]:
        """Oracle variant: filter all of B_n by the extension criterion."""
        from .permutations import enumerate_group

        out = []
        for p in enumerate_group(self.n, "B"):
            order = [-v for v in reversed(p.window)] + [0] + list(p.window)
            pos = {v: i for i, v in enumerate(order)}
            if all(pos[a] < pos[b] for a, b in self.relation):
                out.append(p)
        return out


def _extend_signed(
    n: int, above: dict[int, set[int]], used: set[int], decided: set[int], window: list[int],
    out: list[SignedPermutation],
) -> None:
    """Append to out every extension of window by x or -x for each m = |x|
    not yet used, x becoming the current maximum and -x the minimum."""
    if len(window) == n:
        out.append(SignedPermutation(tuple(window)))
        return
    for m in range(1, n + 1):
        if m in used:
            continue
        for x in (m, -m):
            # By central symmetry d < -x iff x < -d, and decided labels come
            # in pairs d, -d, so checking x against the decided labels suffices.
            if -x in above[x] or not above[x].isdisjoint(decided):
                continue
            used.add(m)
            window.append(x)
            decided.update((x, -x))
            _extend_signed(n, above, used, decided, window, out)
            decided.difference_update((x, -x))
            window.pop()
            used.remove(m)


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


def _thinned_chain(window: list[int], rng: random.Random, keep: float, floor: tuple[int, ...]) -> list[tuple[int, int]]:
    """Shuffle the window, set floor below it, and keep each cover of the
    resulting chain with probability `keep`."""
    rng.shuffle(window)
    labels = list(floor) + window
    return [cover for cover in zip(labels, labels[1:]) if rng.random() < keep]


def random_poset(n: int, rng: random.Random, keep: float = 0.6) -> LabeledPoset:
    """A random poset built by thinning the cover chain of a random window.

    Keeping each cover with probability `keep` bounds the number of linear
    extensions, which keeps brute-force map enumeration affordable.
    """
    return LabeledPoset.from_covers(n, _thinned_chain(list(range(1, n + 1)), rng, keep, ()))


def random_signed_poset(n: int, rng: random.Random, keep: float = 0.6) -> SignedPoset:
    """Random signed analogue: thin the chain 0 < w(1) < ... of a random
    signed window, then close symmetrically."""
    window = [v if rng.random() < 0.5 else -v for v in range(1, n + 1)]
    return SignedPoset.from_covers(n, _thinned_chain(window, rng, keep, (0,)))
