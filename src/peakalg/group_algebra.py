"""Exact group-algebra arithmetic for the two window groups.

Elements are sparse exact vectors (`linalg.SparseVector`) keyed by the
stable rank of a window.  A coefficient is an int where it is integral, as
in every class sum, product of class sums and factorization count, and a
Fraction only where it is not (the rho elements of the eulerian module
divide).  The product is convolution against the fixed composition
convention of the permutations module: (u * w)(p) sums u(t) * w(s) over
all ordered factorizations s . t = p.  The kernel holds a group as windows,
columns and rows, indexed by rank: the window tuples of
`permutations.windows`, their value columns w(0..n+1), off which every
statistic is read as bit codes, and rows of product ranks, row(x)[j] the
rank of x composed with the j-th element.  A rank's digits (its Lehmer
digits, then for kind B its sign bits) name one factor each, and row(x . f)
is row(x) read at the entries of row(f); so is any vector indexed by rank
read at row(x . f).  A row is therefore the identity's row taken through one
cached getter per nonzero digit, and a statistic's class-id row, the class
id of x composed with every element, is its class ids taken through the
same getters, with no rank row between.  A frame lists the elements in
another order, and the same holds there with the getter of f permuting
positions: a tally walks its vector in the counting order of its t
statistic (see `_Frame`), so the walked row is already class segment by
class segment.  A walk keeps one prefix stack per vector and frame it walks
(the rank row or the class ids of one statistic, in rank order or in a
statistic's frame), for the last group walked only: the partial rows of the
last rank built, one per digit slot, so at most 2n-1 rows a stack.  The
next rank starts from the partial row of the longest digit prefix the two
share, and the sign digits are taken most significant first, so a walk in
rank order applies one getter per row.  Element objects are built on
demand, for `support` and the window text of a certificate.

Each statistic, per (n, kind, flavor, mode), has one cached partition of
the group: its keys in order of first appearance, the class id of every
rank, and the ranks of each class; every class question reads it.  A tally
counts, off the target's class-id row under one statistic walked in the
frame of another, the class ids of target . t^-1 with t ordered by the
classes of the other, class segment by class segment: with one
`bytes.count` per (segment, class) when the counted statistic has few
classes, else one Counter per segment.  `factorization_counts` is its
one-statistic case.

The classes of a statistic partition the group, so an element lies in the
span of its class sums exactly when it is constant on every class, and the
closure, duality, ideal and audit checks decide membership by comparing
exact values, with no elimination.  As (v_A * v_B)(p) = N_p(A, B), the
number of factorizations of p by class pair, each compares every class
member's tallies against its class representative's.  Every check is a walk
over the target windows that builds each target's class-id rows once and
keeps only the prefix stacks; the rank row serves `AlgebraElement.convolve`,
the public product, which no check calls, and `multiplicative_closure`,
which walks it in its statistic's frame.  `closure_check`,
`representative_audit` and `verify_duality` are three views of one walk
record per statistic, advanced lazily: the first two read it until its first
mismatch, the third to its end, so no window is walked twice and a failing
closure still stops at its first mismatch.  Failures come with an explicit
certificate, so reports can show a witness.
`multiplicative_closure`, whose products leave the class-sum span, hands
their coefficient mappings to `linalg.Span` as they are.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, repeat
from operator import add, and_, gt, itemgetter, lshift, lt, or_
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .linalg import SparseVector, Span
from .permutations import (
    ELEMENT_TYPES,
    PEAK_FLAVORS,
    SIGNED_FLAVORS,
    GroupElement,
    _check_signed_flavor,
    ambient_interval,
    group_order,
    rank,
    windows,
)

FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# The group kernel: windows in rank order, value columns, product rows


@lru_cache(maxsize=None)
def _index(n: int, kind: str) -> dict[tuple[int, ...], int]:
    """Window -> rank; iterating it yields the windows in rank order."""
    return {window: r for r, window in enumerate(windows(n, kind))}


@lru_cache(maxsize=None)
def _values(n: int, kind: str) -> tuple[tuple[int, ...], ...]:
    """Column i: w(i) of every window in rank order, i = 0..n+1, w(0) = w(n+1) = 0."""
    zeros = (0,) * group_order(n, kind)
    return (zeros, *zip(*windows(n, kind)), zeros)


def _texts(n: int, kind: str, *ranks: int) -> list[str]:
    """The windows of the given ranks as `str` of their elements writes them."""
    return [",".join(map(str, windows(n, kind)[r])) for r in ranks]


def _getter(indices: Sequence[int]) -> Callable[[Sequence], tuple]:
    """itemgetter(*indices), always returning a tuple: a one-index itemgetter
    returns a bare value (and a zero-index one cannot be made; every group
    has at least one element, so no caller asks for one)."""
    if len(indices) == 1:
        (i,) = indices
        return lambda values: (values[i],)
    return itemgetter(*indices)


@lru_cache(maxsize=None)
def _columns(n: int, kind: str) -> tuple[Callable, ...]:
    """Getter i reads the value at position i+1 of every window, in rank
    order, off a value table indexed by -n..n (negative values from the end)."""
    return tuple(map(_getter, _values(n, kind)[1:n + 1]))


@lru_cache(maxsize=None)
def _factor(n: int, kind: str, slot: int, digit: int, frame: tuple[str, str] | None) -> Callable[[Sequence], tuple]:
    """The getter of the factor f of one nonzero digit of `_walk_digits`:
    applied to the row of x it gives the row of x.f.  Lehmer slot k < n-1
    gives q_{k+1}(d), which fixes 1..k, sends position k+1 to k+1+d and lists
    the other values in increasing order; sign slot n-1+i flips position n-i.
    In rank order (frame None), row(x.f)[j] = row(x)[row(f)[j]], and row(f)
    is the one row read off the window -> rank dict entry by entry.  In the
    frame of a statistic, whose m-th element is e_m, row(x.f)[m] =
    row(x)[pi(m)], pi(m) the position of f.e_m: the rank-order row of f read
    at the frame's order, then the frame's positions read at that."""
    if frame is not None:
        read, positions, _ = _frame(n, kind, *frame)
        plain = _factor(n, kind, slot, digit, None)(_identity_row(n, kind))  # row(f)
        return _getter(_getter(read(plain))(positions))
    window = list(range(1, n + 1))
    if slot < n - 1:
        window.insert(slot, window.pop(slot + digit))
    else:
        window[2 * n - 2 - slot] *= -1
    image = (0, *window, *(-v for v in reversed(window)))
    composed = zip(*(column(image) for column in _columns(n, kind)))
    return _getter(tuple(map(_index(n, kind).__getitem__, composed)))


@lru_cache(maxsize=None)
def _identity_row(n: int, kind: str) -> tuple[int, ...]:
    """The identity's row.  Every row is read out of this one tuple, so all
    rows of a group share its int objects instead of each holding its own."""
    return tuple(range(group_order(n, kind)))


@lru_cache(maxsize=None)
def _radices(n: int, kind: str) -> tuple[int, tuple[int, ...]]:
    """The group order and the radices of `_walk_digits`, least significant
    first: for kind B the n sign bits, then the Lehmer radices 2..n."""
    signs = (2,) * n if kind == "B" else ()
    return group_order(n, kind), (*signs, *range(2, n + 1))


def _walk_digits(n: int, kind: str, r: int) -> tuple[int, ...]:
    """The digits of rank r in the order a walk applies them: the Lehmer
    digits of `rank_digits`, most significant first, then for kind B the
    sign bits, most significant (position n) first, so that the digits a
    walk in rank order changes come last.  Sign flips commute, so the
    element is the same product in either order.  As r is the Lehmer rank
    times 2^n plus the sign mask, these are the digits of r itself in the
    mixed radix of `_radices`."""
    order, radices = _radices(n, kind)
    if not 0 <= r < order:
        raise ValueError(f"rank {r} outside [0, {order - 1}] for {kind}_{n}")
    digits = []
    for radix in radices:
        r, digit = divmod(r, radix)
        digits.append(digit)
    digits.reverse()
    return tuple(digits)


class _Frame(NamedTuple):
    """The counting order of a tally whose t side is classed by one
    statistic: its m-th element is e_m = t_m^-1, t_m the m-th element of the
    statistic's classes (classes in order of first appearance, each in rank
    order).  `read` takes a vector indexed by rank to its entries at the e_m,
    `positions[rank of e_m]` is m, and `ends` closes each class's segment."""

    read: Callable[[Sequence], tuple]
    positions: tuple[int, ...]
    ends: tuple[int, ...]


@lru_cache(maxsize=None)
def _frame(n: int, kind: str, flavor: str, mode: str) -> _Frame:
    members = _partition(n, kind, flavor, mode).members
    order = _getter(tuple(chain.from_iterable(members)))(_inverse_ranks(n, kind))
    positions = [0] * len(order)
    for m, r in enumerate(order):  # measured faster than a sort or a dict, 4 against 11-14 ms at B_6
        positions[r] = m
    return _Frame(_getter(order), tuple(positions), tuple(accumulate(map(len, members))))


@lru_cache(maxsize=None)
def _base(n: int, kind: str, vector: tuple[str, str] | None, frame: tuple[str, str] | None) -> tuple:
    """The vector a walk starts from, the row of the identity: the identity's
    rank row (vector None) or a statistic's class ids, read in the frame."""
    base = _identity_row(n, kind) if vector is None else _partition(n, kind, *vector).ids
    return base if frame is None else _frame(n, kind, *frame).read(base)


# The prefix stacks of the group `_walk` last walked, one per (vector, frame)
# it walks: the walk digits of the last rank built and the partial row after
# each of their slots.  They are a cache: a row is the same whatever the
# stacks held before.
_stacks: tuple[tuple[int, str] | None, dict] = (None, {})


def _walk(n: int, kind: str, vector: tuple[str, str] | None, frame: tuple[str, str] | None, r: int) -> tuple:
    """A vector indexed by rank, the rank itself (vector None) or the class
    id of a statistic (vector (flavor, mode)), read at elements[r] composed
    with every element of the frame, in rank order (frame None) or in the
    counting order of a statistic (frame (flavor, mode), see `_Frame`).  As
    the row of x.f is the row of x read through the getter of f in that
    frame, it is the `_base` of the vector taken through the getter of each
    nonzero digit of r in turn.  The partial rows of the last rank built are
    kept on the stack of (vector, frame), one per digit slot and for one
    group only, so at most 2n-1 rows: a rank starts from the partial row of
    the longest digit prefix it shares with that rank, and applies the
    getters of its remaining digits only."""
    global _stacks
    digits = _walk_digits(n, kind, r)
    group, stacks = _stacks
    if group != (n, kind):
        _stacks = group, stacks = (n, kind), {}
    built, rows = stacks.get((vector, frame), ((), []))
    shared = 0
    for digit, old in zip(digits, built):
        if digit != old:
            break
        shared += 1
    rows = rows[:shared]  # a copy: the stack changes only once the row is built
    row = rows[-1] if rows else _base(n, kind, vector, frame)
    for slot in range(shared, len(digits)):
        if digits[slot]:
            row = _factor(n, kind, slot, digits[slot], frame)(row)
        rows.append(row)
    stacks[vector, frame] = (digits, rows)
    return row


def _row(n: int, kind: str, r: int, frame: tuple[str, str] | None = None) -> tuple[int, ...]:
    """The rank of elements[r] composed with every element of the frame: in
    rank order, row[j] = rank of elements[r] composed with elements[j]."""
    return _walk(n, kind, None, frame, r)


def _class_row(n: int, kind: str, flavor: str, mode: str, r: int,
               frame: tuple[str, str] | None = None) -> tuple[int, ...]:
    """The class id of elements[r] composed with every element of the frame:
    the statistic's class ids walked to rank r, with no rank row between."""
    return _walk(n, kind, (flavor, mode), frame, r)


@lru_cache(maxsize=None)
def _inverse_ranks(n: int, kind: str) -> tuple[int, ...]:
    """The rank of the inverse of every element, in rank order, with no loop
    over the windows in Python.  Kind A: position i of the inverse holds the
    position of value i, read per value with `tuple.index`.  Kind B: a rank
    is the Lehmer rank of |w| times 2^n plus the sign mask, so the inverse's
    is the inverse rank of |w| in A_n times 2^n plus the sign bit of each
    position i moved to bit |w(i)| - 1, read per column off a value table."""
    if n == 0:
        return (0,)
    if kind == "B":
        # indexed by the value w(i), negative values from the end
        bits = (0,) * (n + 1) + tuple(1 << v for v in reversed(range(n)))
        masks = map(sum, zip(*(map(bits.__getitem__, column) for column in _values(n, "B")[1:n + 1])))
        bases = chain.from_iterable(repeat(r << n, 1 << n) for r in _inverse_ranks(n, "A"))
        return tuple(map(add, bases, masks))
    group = windows(n, "A")
    inverses = zip(*(map(add, map(tuple.index, group, repeat(value)), repeat(1)) for value in range(1, n + 1)))
    return tuple(map(_index(n, "A").__getitem__, inverses))


class AlgebraElement(SparseVector):
    """A finitely supported rational combination of group elements, keyed by
    rank; each coefficient is stored by the `linalg.exact` rule."""

    __slots__ = ("n", "kind")
    mismatch = "elements live in different group algebras"

    def __init__(self, n: int, kind: str, coeffs: Mapping[int, Fraction | int] | None = None):
        self.n = n
        self.kind = kind
        super().__init__(coeffs)

    @property
    def space(self) -> tuple[int, str]:
        return self.n, self.kind

    def _check_keys(self, keys: Iterable[int]) -> None:
        order = group_order(self.n, self.kind)
        for key in keys:
            if not 0 <= key < order:
                raise ValueError(f"rank {key} out of range for {self.kind} n={self.n}")

    @classmethod
    def zero(cls, n: int, kind: str) -> "AlgebraElement":
        return cls(n, kind)

    @classmethod
    def delta(cls, element: GroupElement) -> "AlgebraElement":
        return cls(element.n, element.kind, {rank(element): 1})

    @classmethod
    def identity(cls, n: int, kind: str) -> "AlgebraElement":
        return cls(n, kind, {0: 1})  # the identity window has rank 0

    def support(self) -> list[GroupElement]:
        group = windows(self.n, self.kind)
        return [ELEMENT_TYPES[self.kind](group[i]) for i in sorted(self.coeffs)]

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        keys = sorted(self.coeffs)
        return " + ".join(f"{self.coeffs[k]}*[{text}]" for k, text in zip(keys, _texts(self.n, self.kind, *keys)))

    def convolve(self, other: "AlgebraElement") -> "AlgebraElement":
        """(u * w)(p) = sum of u(t) * w(s) over ordered factorizations s.t=p,
        so this element plays the role of u and the argument the role of w."""
        self._compatible(other)
        n, kind = self.n, self.kind
        out: dict[int, Fraction | int] = {}
        for rs, cs in other.coeffs.items():
            row = _row(n, kind, rs)
            for rt, ct in self.coeffs.items():
                key = row[rt]
                out[key] = out.get(key, 0) + ct * cs
        return AlgebraElement(n, kind, out)

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self.convolve(other)


# ---------------------------------------------------------------------------
# Statistic classes and class sums


StatKey = frozenset[int] | int


@lru_cache(maxsize=None)
def _stat_codes(n: int, kind: str, flavor: str) -> tuple[int, ...]:
    """The flavor's set of every window in rank order as a bit code (bit i
    set when i is a member), read off the value columns by the rules of
    `permutations.stat_set`, one position at a time.  A signed flavor
    refuses kind A."""
    lo, hi = ambient_interval(flavor, n)
    _check_signed_flavor(kind, flavor)
    w = _values(n, kind)
    codes = iter(w[0])  # all zero
    for i in range(max(lo, 1), hi + 1):
        hits = map(gt, w[i], w[i + 1])  # a descent at i; a peak also needs an ascent into i
        if flavor in PEAK_FLAVORS:
            hits = map(and_, map(lt, w[i - 1], w[i]), hits)
        codes = map(or_, codes, map(lshift, hits, repeat(i)))
    if flavor in SIGNED_FLAVORS:
        codes = map(or_, codes, map(lt, w[1], repeat(0)))
    return tuple(codes)


class _Partition(NamedTuple):
    """The classes of one statistic: its distinct values in order of first
    appearance, the class id of every rank, and the ranks of each class,
    ascending."""

    keys: tuple[StatKey, ...]
    ids: tuple[int, ...]
    members: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=None)
def _partition(n: int, kind: str, flavor: str, mode: str) -> _Partition:
    """Partition the group by the flavor's set, or by its cardinality when
    mode="number"."""
    if mode not in ("set", "number"):
        raise ValueError(f"unknown mode: {mode}")
    codes = _stat_codes(n, kind, flavor)
    if mode == "number":
        key_of = {code: code.bit_count() for code in set(codes)}
    else:
        key_of = {code: frozenset(i for i in range(code.bit_length()) if code >> i & 1) for code in set(codes)}
    position: dict[StatKey, int] = {}
    ids = tuple([position.setdefault(key_of[code], len(position)) for code in codes])
    members: list[list[int]] = [[] for _ in position]
    for r, i in enumerate(ids):
        members[i].append(r)
    return _Partition(tuple(position), ids, tuple(map(tuple, members)))


def stat_classes(n: int, kind: str, flavor: str, mode: str = "set") -> dict[StatKey, tuple[int, ...]]:
    """Group element ranks by the value of the statistic (the set itself, or
    its cardinality when mode="number")."""
    keys, _, members = _partition(n, kind, flavor, mode)
    return dict(zip(keys, members))


def class_sums(n: int, kind: str, flavor: str, mode: str = "set") -> dict[StatKey, AlgebraElement]:
    return {
        key: AlgebraElement(n, kind, dict.fromkeys(ranks, 1))
        for key, ranks in stat_classes(n, kind, flavor, mode).items()
    }


def _sort_key(key: StatKey):
    if isinstance(key, int):
        return (key,)
    return (len(key), tuple(sorted(key)))


def sorted_keys(keys: Iterable[StatKey]) -> list[StatKey]:
    return sorted(keys, key=_sort_key)


def _entry_order(item) -> tuple:
    """Sort key of a (pair or triple of statistic keys, value) item."""
    return tuple(map(_sort_key, item[0]))


# ---------------------------------------------------------------------------
# Structure constants


@dataclass(frozen=True)
class StructureTable:
    """Counts of ordered factorizations s.t = representative(C) with the
    statistic of t equal to A and the statistic of s equal to B; keys sorted."""

    n: int
    kind: str
    flavor: str
    mode: str
    keys: tuple[StatKey, ...]
    counts: dict[tuple[StatKey, StatKey, StatKey], int]

    def count(self, a: StatKey, b: StatKey, c: StatKey) -> int:
        return self.counts.get((_freeze(a), _freeze(b), _freeze(c)), 0)

    def sorted_entries(self) -> list[tuple[tuple[int, int, int], int]]:
        """The nonzero entries as ((position of A, B, C in `keys`), count),
        sorted by (A, B, C)."""
        position = dict(zip(self.keys, range(len(self.keys)))).__getitem__
        triples = map(tuple, map(map, repeat(position), self.counts))
        return sorted(filter(itemgetter(1), zip(triples, self.counts.values())))

    def to_payload(self) -> dict:
        """The table as a JSON-ready dict: a header and the nonzero entries,
        sorted by (A, B, C)."""
        keys = list(map(_key_json, self.keys))
        entries = [{"A": keys[a], "B": keys[b], "C": keys[c], "count": v} for (a, b, c), v in self.sorted_entries()]
        return {"format_version": FORMAT_VERSION, "flavor": self.flavor, "kind": self.kind, "mode": self.mode,
                "n": self.n, "entries": entries}


def _freeze(key) -> StatKey:
    return key if isinstance(key, int) else frozenset(key)


def _key_json(key: StatKey):
    return key if isinstance(key, int) else sorted(key)


# A statistic s with at most this many classes has its walked class ids
# counted as bytes, one `bytes.count` per (t segment, s class); above it, one
# Counter per t segment is faster (and bytes hold ids below 256 only).  Per
# row, bytes won at 13 classes and lost at 20 and more, at S_5..S_7 and B_4, B_5.
BYTES_CLASSES = 15


@lru_cache(maxsize=None)
def _counter(n: int, kind: str, t_flavor: str, s_flavor: str, mode: str) -> Callable[[tuple], dict]:
    """The tally of one statistic pair, decided once: it takes a target's
    class-id row under s_flavor walked in the frame of t_flavor, the class
    ids of target.t^-1 with t ordered by the classes of t_flavor, and counts
    them by the pair (class of t, class of s), nonzero counts only."""
    t_keys = _partition(n, kind, t_flavor, mode).keys
    s_keys = _partition(n, kind, s_flavor, mode).keys
    ends = _frame(n, kind, t_flavor, mode).ends
    bounds = list(zip(t_keys, (0, *ends), ends))
    if len(s_keys) <= BYTES_CLASSES:
        cells = [(id_s, start, end, (key_t, key_s))
                 for key_t, start, end in bounds for id_s, key_s in enumerate(s_keys)]

        def count(row: tuple) -> dict:
            tally = bytes(row).count
            return {pair: c for id_s, start, end, pair in cells if (c := tally(id_s, start, end))}
    else:
        def count(row: tuple) -> dict:
            return {(key_t, s_keys[id_s]): c
                    for key_t, start, end in bounds for id_s, c in Counter(row[start:end]).items()}
    return count


def _tally(n: int, kind: str, r: int, t_flavor: str, s_flavor: str, mode: str) -> dict[tuple[StatKey, StatKey], int]:
    """Count the factorizations s.t = target, the target given by rank, by
    the pair (class of t under t_flavor, class of s under s_flavor).  t pairs
    with s = target.t^-1, so the target's class-id row under s_flavor,
    walked in the frame of t_flavor, is the class of each s side with t
    running class by class, and each class segment of t is counted off it
    as it stands."""
    return _counter(n, kind, t_flavor, s_flavor, mode)(_class_row(n, kind, s_flavor, mode, r, (t_flavor, mode)))


def factorization_counts(n: int, kind: str, r: int, flavor: str, mode: str = "set") -> dict[tuple[StatKey, StatKey], int]:
    """For the window of rank r, count ordered factorizations s.t = window by
    the statistic pair (statistic of t, statistic of s)."""
    return _tally(n, kind, r, flavor, flavor, mode)


def structure_table(n: int, kind: str, flavor: str, mode: str = "set") -> StructureTable:
    """Tabulate all structure constants from the minimal-rank representative
    of each statistic class."""
    keys, _, members = _partition(n, kind, flavor, mode)
    counts: dict[tuple[StatKey, StatKey, StatKey], int] = {}
    for key_c, ranks in zip(keys, members):
        for (key_a, key_b), value in factorization_counts(n, kind, ranks[0], flavor, mode).items():
            counts[(key_a, key_b, key_c)] = value
    return StructureTable(n=n, kind=kind, flavor=flavor, mode=mode, keys=tuple(sorted_keys(keys)), counts=counts)


def _mismatches(n: int, kind: str, flavor: str, mode: str, counts_of: Callable[[int], dict]):
    """Walk the classes in order of first appearance, each in rank order, and
    for every member whose counts differ from its class representative's (the
    minimal-rank member) yield (class, representative rank, member rank,
    {pair: (representative's count, member's count)}), the counts of a rank
    read by `counts_of`."""
    keys, _, members = _partition(n, kind, flavor, mode)
    for key, ranks in zip(keys, members):
        base = counts_of(ranks[0])
        for r in ranks[1:]:
            counts = counts_of(r)
            if counts != base:
                yield key, ranks[0], r, {
                    pair: (base.get(pair, 0), counts.get(pair, 0))
                    for pair in base.keys() | counts.keys()
                    if base.get(pair, 0) != counts.get(pair, 0)
                }


class _WalkRecord:
    """What the walk of one statistic's factorization counts has read so far:
    the suspended walk (None once it has ended), its first mismatch, and per
    pair (A, B) the earliest mismatching window, (rank, class, representative
    rank, member's count - representative's), the minimal rank over the
    mismatches read.  It holds one entry per class pair at most, whatever
    the number of mismatching windows."""

    __slots__ = ("walk", "first", "earliest")

    def __init__(self, walk):
        self.walk = walk
        self.first = None
        self.earliest: dict[tuple[StatKey, StatKey], tuple] = {}

    def read(self, to_end: bool) -> None:
        """Advance the walk until it has read a first mismatch, or to its end."""
        earliest = self.earliest
        while self.walk is not None and (to_end or self.first is None):
            mismatch = next(self.walk, None)
            if mismatch is None:
                self.walk = None
                break
            key, base, r, diffs = mismatch
            self.first = self.first or mismatch
            for pair, (expected, count) in diffs.items():
                if pair not in earliest or r < earliest[pair][0]:
                    earliest[pair] = (r, key, base, count - expected)


# The walk records of the process, one per (n, kind, flavor, mode), read by
# `closure_check`, `representative_audit` and `verify_duality`.  Like the
# kernel's caches they live for the process; a record whose walk raises is
# dropped, so the next read starts cold.
_records: dict[tuple[int, str, str, str], _WalkRecord] = {}


def _walk_record(n: int, kind: str, flavor: str, mode: str, to_end: bool) -> _WalkRecord:
    """The one walk of the statistic's factorization counts, read until its
    first mismatch or, if to_end, to its end.  As (v_A * v_B)(p) = N_p(A, B),
    it reads no mismatch exactly when the class sums span a closed algebra
    with well-defined structure constants."""
    where = (n, kind, flavor, mode)
    record = _records.get(where)
    if record is None:
        walk = _mismatches(n, kind, flavor, mode, lambda r: factorization_counts(n, kind, r, flavor, mode))
        record = _records[where] = _WalkRecord(walk)
    try:
        record.read(to_end)
    except BaseException:
        del _records[where]
        raise
    return record


def representative_audit(n: int, kind: str, flavor: str, mode: str = "set") -> dict:
    """Check that factorization counts by statistic pair agree across every
    member of every class, not just the chosen representative.  Returns a
    report with the first disagreeing pair of windows if one exists."""
    first = _walk_record(n, kind, flavor, mode, to_end=False).first
    if first is None:
        return {"consistent": True}
    key, base, r, diffs = first
    return {
        "consistent": False,
        "class": _key_json(key),
        "windows": _texts(n, kind, base, r),
        "differences": {
            str((_key_json(a), _key_json(b))): list(v) for (a, b), v in sorted(diffs.items(), key=_entry_order)
        },
    }


# ---------------------------------------------------------------------------
# Span checks: membership in a class-sum span is constancy on the classes


def closure_check(n: int, kind: str, flavor: str, mode: str = "set") -> dict:
    """Is the span of the class sums closed under convolution?  The report
    carries the span dimension and, on failure, a certificate from the first
    member whose counts differ from its representative's: the least pair
    (A, B) that differs, the class, the representative and the member, and
    the values of v_A * v_B at those two windows."""
    dim = len(_partition(n, kind, flavor, mode).keys)
    first = _walk_record(n, kind, flavor, mode, to_end=False).first
    if first is None:
        return {"closed": True, "dim": dim, "certificate": None}
    key, base, r, diffs = first
    (key_a, key_b), values = min(diffs.items(), key=_entry_order)
    certificate = {"A": _key_json(key_a), "B": _key_json(key_b), "class": _key_json(key),
                   "windows": _texts(n, kind, base, r), "values": [str(v) for v in values]}
    return {"closed": False, "dim": dim, "certificate": certificate}


def multiplicative_closure(n: int, kind: str, flavor: str, mode: str = "set") -> dict:
    """Dimension of the smallest convolution-closed subspace containing the
    class sums.  That subspace is the span of the words in them, and a word
    one letter longer is one letter times a shorter word, so each vector that
    grows the span is multiplied on the left by the class sums only, until
    no product grows it.  A round walks every target p once: (v_C * w)(p)
    sums w(p.t^-1) over the t in class C, read off p's rank row walked in
    the statistic's frame, which lists the p.t^-1 class by class, as a tally
    counts them."""
    _, ids, members = _partition(n, kind, flavor, mode)
    ends = _frame(n, kind, flavor, mode).ends
    bounds = list(zip((0, *ends), ends))
    span = Span(dict.fromkeys(ranks, 1) for ranks in members)
    dim_start = span.dim
    # vectors by rank, dense: first the class sums, then each product that grew the span
    frontier = [tuple(int(i == c) for i in ids) for c in range(len(members))]
    while frontier:
        values: list[list[list]] = [[] for _ in frontier]  # [w][p][C] = (v_C * w)(p)
        for p in range(group_order(n, kind)):
            read = _getter(_row(n, kind, p, (flavor, mode)))
            for w, out in zip(frontier, values):
                at_p = read(w)
                out.append([sum(at_p[start:end]) for start, end in bounds])
        fresh = []
        for out in values:
            for product in zip(*out):
                if span.add({p: v for p, v in enumerate(product) if v}):
                    fresh.append(product)
        frontier = fresh
    return {"dim_start": dim_start, "dim_closure": span.dim, "closed": span.dim == dim_start}


def ideal_check(n: int, kind: str, flavor: str, outer_flavor: str, mode: str = "set") -> dict:
    """Is the span of the class sums a two-sided ideal of the span of the
    outer flavor's?  As (v_O * v_B)(p) counts the s.t = p with t in O and s
    in B, it is exactly when the tallies by (outer class of t, class of s),
    for the left side, and by (class of t, outer class of s), for the right,
    agree across every class, read off the target's two class-id rows.  On
    failure the witness is the least differing pair in key order, left side
    first: the inner class B, the outer class, the class, its representative
    and member, and the values there of u * v_B (left) or v_B * u (right)."""
    def tallies(r: int) -> dict:
        left = _tally(n, kind, r, outer_flavor, flavor, mode)
        right = _tally(n, kind, r, flavor, outer_flavor, mode)
        return {**{("left", b, o): v for (o, b), v in left.items()},
                **{("right", b, o): v for (b, o), v in right.items()}}

    for key, base, r, diffs in _mismatches(n, kind, flavor, mode, tallies):
        (side, key_b, key_o), values = min(diffs.items(), key=lambda item: (item[0][0], *map(_sort_key, item[0][1:])))
        witness = {"B": _key_json(key_b), "outer_class": _key_json(key_o), "class": _key_json(key),
                   "windows": _texts(n, kind, base, r), "values": [str(v) for v in values]}
        return {"ideal": False, "side": side, "witness": witness}
    return {"ideal": True, "side": None, "witness": None}


def descent_algebra_containment(n: int, kind: str, flavor: str) -> bool:
    """Every peak class sum is a sum of descent class sums, hence lies in the
    span of the descent classes: the peak set is constant on every descent
    class, so pairing the two sets' bit codes makes no more distinct pairs
    than there are descent sets."""
    descents = _stat_codes(n, kind, "descent" + kind)
    return len(set(zip(descents, _stat_codes(n, kind, flavor)))) == len(set(descents))


# ---------------------------------------------------------------------------
# Duality verification (class-sum products against tabulated constants)


def verify_duality(n: int, kind: str, flavor: str, mode: str = "set") -> dict:
    """Compare every product v_A * v_B against the tabulated expansion
    sum_C count(A,B,C) v_C, window by window: at p the two sides are N_p(A, B)
    and the count of the class representative the constant is read from (its
    minimal-rank member, as in `structure_table`).  Mismatches are reported,
    not raised, one per pair (A, B) in key order, at the minimal-rank window
    where the two sides differ, with its class, representative and difference."""
    earliest = _walk_record(n, kind, flavor, mode, to_end=True).earliest
    mismatches = [
        {"A": _key_json(key_a), "B": _key_json(key_b), "window": window, "class": _key_json(key),
         "representative": representative, "difference": str(difference)}
        for (key_a, key_b), (r, key, base, difference) in sorted(earliest.items(), key=_entry_order)
        for window, representative in [_texts(n, kind, r, base)]
    ]
    return {"consistent": not mismatches, "mismatches": mismatches}
