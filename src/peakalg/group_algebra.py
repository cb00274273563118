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
rank of x composed with the j-th element.  A rank's digits
(`permutations.rank_digits`: its Lehmer digits, then for kind B its sign
bits) name one factor each, and row(x . f) is row(x) read at the entries of
row(f); so is any vector indexed by rank read at row(x . f).  A row is
therefore the identity's row taken through one cached getter per nonzero
digit, and a statistic's class-id row, the class id of x composed with
every element, is its class ids taken through the same getters, with no
rank row between.  Element objects are built on demand, for `support` and
the window text of a certificate.

Each statistic, per (n, kind, flavor, mode), has one cached partition of
the group: its keys in order of first appearance, the class id of every
rank, and the ranks of each class; every class question reads it.  A tally
counts the factorizations s . t = target by (class of t, class of s) in one
Counter of codes, each the sum of a cached class code of t, read at the
inverse ranks, and the class id of s, read off the target's class-id row in
rank order.  `factorization_counts` is its one-statistic case.

The classes of a statistic partition the group, so an element lies in the
span of its class sums exactly when it is constant on every class, and the
closure, duality and ideal checks decide membership by comparing exact
values, with no elimination.  As (v_A * v_B)(p) = N_p(A, B), the
number of factorizations of p by class pair, each compares the tallies of
class members against their class representative's.  They read one window
per cell (`_cells`).  When the classes of every statistic asked about are
unions of descent classes, the cells are the descent classes: by Solomon's
theorem the descent class sums span a subalgebra, so every product of class
sums is constant on each of them.  Otherwise every window is its own cell.
A pass therefore assumes the theorem for the windows it did not read; a
failure is a pair of windows read, and assumes nothing.  Failures come with
an explicit certificate, so reports can show a witness.
`multiplicative_closure` keeps its span in the same cell coordinates: its
products leave the class-sum span but stay constant on every cell, and it
hands their coefficient mappings to `linalg.Span` as they are.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, repeat
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
    rank_digits,
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
def _factor(n: int, kind: str, slot: int, digit: int) -> Callable[[Sequence], tuple]:
    """The getter of the factor f of one nonzero digit of `rank_digits`:
    applied to the row of x it gives the row of x.f, row(x.f)[j] =
    row(x)[row(f)[j]], and row(f) is the one row read off the window -> rank
    dict entry by entry.  Lehmer slot k < n-1 gives q_{k+1}(d), which fixes
    1..k, sends position k+1 to k+1+d and lists the other values in
    increasing order; sign slot n-1+i flips position i+1."""
    window = list(range(1, n + 1))
    if slot < n - 1:
        window.insert(slot, window.pop(slot + digit))
    else:
        window[slot - (n - 1)] *= -1
    image = (0, *window, *(-v for v in reversed(window)))
    composed = zip(*(column(image) for column in _columns(n, kind)))
    return _getter(tuple(map(_index(n, kind).__getitem__, composed)))


@lru_cache(maxsize=None)
def _identity_row(n: int, kind: str) -> tuple[int, ...]:
    """The identity's row.  Every row is read out of this one tuple, so all
    rows of a group share its int objects instead of each holding its own."""
    return tuple(range(group_order(n, kind)))


def _walk(n: int, kind: str, vector: Sequence[int], r: int) -> tuple:
    """A vector indexed by rank read at the row of elements[r]: entry j is
    its entry at the rank of elements[r] composed with elements[j].  The
    element is the product of the factors of its digits in `rank_digits`
    order (the sign flips commute), and the row of x.f is the row of x read
    through the getter of f, so this is the vector taken through the getter
    of each nonzero digit of r in turn."""
    for slot, digit in enumerate(rank_digits(r, n, kind)):
        if digit:
            vector = _factor(n, kind, slot, digit)(vector)
    return vector


def _row(n: int, kind: str, r: int) -> tuple[int, ...]:
    """row[j] = rank of elements[r] composed with elements[j]."""
    return _walk(n, kind, _identity_row(n, kind), r)


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


@lru_cache(maxsize=None)
def _inverse_codes(n: int, kind: str, flavor: str, mode: str, width: int) -> tuple[int, ...]:
    """width times the class id of the inverse of every element, in rank order."""
    ids = _partition(n, kind, flavor, mode).ids
    return tuple(width * ids[i] for i in _inverse_ranks(n, kind))


def _tally(n: int, kind: str, r: int, t_flavor: str, s_flavor: str, mode: str) -> dict[tuple[StatKey, StatKey], int]:
    """Count the factorizations s.t = target, the target given by rank, by
    the pair (class of t under t_flavor, class of s under s_flavor).  With
    t = elements[j]^-1, s = target.elements[j], whose class is entry j of the
    target's class-id row under s_flavor; each pair is counted as the code
    width * (class id of t) + (class id of s), in one Counter."""
    t_keys = _partition(n, kind, t_flavor, mode).keys
    s_keys, s_ids, _ = _partition(n, kind, s_flavor, mode)
    width = len(s_keys)
    codes = Counter(map(add, _inverse_codes(n, kind, t_flavor, mode, width), _walk(n, kind, s_ids, r)))
    return {(t_keys[code // width], s_keys[code % width]): count for code, count in codes.items()}


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


# ---------------------------------------------------------------------------
# Cells: the windows a class question reads


def descent_algebra_containment(n: int, kind: str, flavor: str) -> bool:
    """Every peak class sum is a sum of descent class sums, hence lies in the
    span of the descent classes: the peak set is constant on every descent
    class, so pairing the two sets' bit codes makes no more distinct pairs
    than there are descent sets."""
    descents = _stat_codes(n, kind, "descent" + kind)
    return len(set(zip(descents, _stat_codes(n, kind, flavor)))) == len(set(descents))


@lru_cache(maxsize=None)
def _cells(n: int, kind: str, *flavors: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The cells of a class question on these flavors, as (the cell id of
    every rank, the least rank of each cell, ascending): the descent classes
    when the classes of every flavor are unions of them, else single windows.
    Each cell lies in one class of every flavor.  By Solomon's theorem the
    descent class sums span a subalgebra, so in the first case every product
    of class sums, and every factorization count N_p(A, B), is constant on
    each cell."""
    if all(descent_algebra_containment(n, kind, flavor) for flavor in flavors):
        _, ids, members = _partition(n, kind, "descent" + kind, "set")
        return ids, tuple(ranks[0] for ranks in members)
    ranks = _identity_row(n, kind)
    return ranks, ranks


def _mismatches(n: int, kind: str, flavor: str, mode: str, counts_of: Callable[[int], dict], *others: str):
    """Read the counts (by `counts_of`) of the least rank of every cell of
    the flavors (`_cells`), class by class in order of first appearance, and
    for each whose counts differ from its class representative's (the
    class's minimal rank, the least of its own cell) yield (class,
    representative rank, member rank, {pair: (representative's count,
    member's count)})."""
    keys, ids, _ = _partition(n, kind, flavor, mode)
    classes: dict[int, list[int]] = {}
    for r in _cells(n, kind, flavor, *others)[1]:
        classes.setdefault(ids[r], []).append(r)
    for c, ranks in classes.items():
        base = counts_of(ranks[0])
        for r in ranks[1:]:
            counts = counts_of(r)
            if counts != base:
                yield keys[c], ranks[0], r, {
                    pair: (base.get(pair, 0), counts.get(pair, 0))
                    for pair in base.keys() | counts.keys()
                    if base.get(pair, 0) != counts.get(pair, 0)
                }


def _factorization_mismatches(n: int, kind: str, flavor: str, mode: str):
    """The `_mismatches` of the statistic's factorization counts.  As (v_A *
    v_B)(p) = N_p(A, B), it yields none exactly when the class sums span a
    closed algebra with well-defined structure constants (assuming Solomon's
    theorem for the windows a descent cell stands for)."""
    return _mismatches(n, kind, flavor, mode, lambda r: factorization_counts(n, kind, r, flavor, mode))


# ---------------------------------------------------------------------------
# Span checks: membership in a class-sum span is constancy on the classes


def closure_check(n: int, kind: str, flavor: str, mode: str = "set") -> dict:
    """Is the span of the class sums closed under convolution?  It reads
    one window per cell (`_cells`), so a pass assumes Solomon's theorem for
    the windows a descent cell stands for.  The report carries the span
    dimension and, on failure, a certificate from the first member whose
    counts differ from its representative's: the least pair (A, B) that
    differs, the class, the representative and the member, and the values
    of v_A * v_B at those two windows.  A failure assumes nothing."""
    dim = len(_partition(n, kind, flavor, mode).keys)
    first = next(_factorization_mismatches(n, kind, flavor, mode), None)
    if first is None:
        return {"closed": True, "dim": dim, "certificate": None}
    key, base, r, diffs = first
    (key_a, key_b), values = min(diffs.items(), key=_entry_order)
    certificate = {"A": _key_json(key_a), "B": _key_json(key_b), "class": _key_json(key),
                   "windows": _texts(n, kind, base, r), "values": [str(v) for v in values]}
    return {"closed": False, "dim": dim, "certificate": certificate}


@lru_cache(maxsize=None)
def _inverse_classes(n: int, kind: str, flavor: str, mode: str) -> tuple[Callable[[Sequence], tuple], ...]:
    """Per class C, the getter of the positions j with elements[j]^-1 in C:
    read off a vector walked to the rank of p, it gives the vector at the
    p.t^-1, t in C."""
    inverses = _inverse_ranks(n, kind)
    return tuple(_getter([inverses[t] for t in ranks]) for ranks in _partition(n, kind, flavor, mode).members)


def multiplicative_closure(n: int, kind: str, flavor: str, mode: str = "set") -> dict:
    """Dimension of the smallest convolution-closed subspace containing the
    class sums.  That subspace is the span of the words in them, and a word
    one letter longer is one letter times a shorter word, so each vector that
    grows the span is multiplied on the left by the class sums only, until
    no product grows it.  Every word is constant on each cell (`_cells`), so
    vectors are kept in cell coordinates, by their value on each cell, and a
    round reads the least rank p of each cell: (v_C * w)(p) sums w(p.t^-1)
    over the t in class C, read off p's cell-id row."""
    _, ids, members = _partition(n, kind, flavor, mode)
    cell_ids, firsts = _cells(n, kind, flavor)
    sides = _inverse_classes(n, kind, flavor, mode)
    # the vectors by cell: first the class sums, then each product that grew the span
    frontier = [tuple(int(ids[p] == c) for p in firsts) for c in range(len(members))]
    span = Span(dict(filter(itemgetter(1), enumerate(w))) for w in frontier)
    dim_start = span.dim
    while frontier:
        values = [[[] for _ in members] for _ in frontier]  # [w][C][cell] = (v_C * w)(least rank of the cell)
        for p in firsts:
            row = _walk(n, kind, cell_ids, p)
            at_sides = [side(row) for side in sides]  # per class C, the cells of the p.t^-1, t in C
            for w, out in zip(frontier, values):
                for cells, column in zip(at_sides, out):
                    column.append(sum(map(w.__getitem__, cells)))
        frontier = [product for out in values for product in out
                    if span.add(dict(filter(itemgetter(1), enumerate(product))))]
    return {"dim_start": dim_start, "dim_closure": span.dim, "closed": span.dim == dim_start}


def ideal_check(n: int, kind: str, flavor: str, outer_flavor: str, mode: str = "set") -> dict:
    """Is the span of the class sums a two-sided ideal of the span of the
    outer flavor's?  As (v_O * v_B)(p) counts the s.t = p with t in O and s
    in B, it is exactly when the tallies by (outer class of t, class of s),
    for the left side, and by (class of t, outer class of s), for the right,
    agree across every class, read at one window per cell of both flavors
    (`_cells`; a pass assumes Solomon's theorem for the windows a descent
    cell stands for).  On failure the witness is the least differing pair in
    key order, left side first: the inner class B, the outer class, the
    class, its representative and member, and the values there of u * v_B
    (left) or v_B * u (right)."""
    def tallies(r: int) -> dict:
        left = _tally(n, kind, r, outer_flavor, flavor, mode)
        right = _tally(n, kind, r, flavor, outer_flavor, mode)
        return {**{("left", b, o): v for (o, b), v in left.items()},
                **{("right", b, o): v for (b, o), v in right.items()}}

    for key, base, r, diffs in _mismatches(n, kind, flavor, mode, tallies, outer_flavor):
        (side, key_b, key_o), values = min(diffs.items(), key=lambda item: (item[0][0], *map(_sort_key, item[0][1:])))
        witness = {"B": _key_json(key_b), "outer_class": _key_json(key_o), "class": _key_json(key),
                   "windows": _texts(n, kind, base, r), "values": [str(v) for v in values]}
        return {"ideal": False, "side": side, "witness": witness}
    return {"ideal": True, "side": None, "witness": None}


# ---------------------------------------------------------------------------
# Duality verification (class-sum products against tabulated constants)


def verify_duality(n: int, kind: str, flavor: str, mode: str = "set") -> dict:
    """Compare every product v_A * v_B against the tabulated expansion
    sum_C count(A,B,C) v_C, window by window: at p the two sides are N_p(A, B)
    and the count of the class representative the constant is read from (its
    minimal-rank member, as in `structure_table`).  It reads one window per
    cell (`_cells`), so consistency assumes Solomon's theorem for the windows
    a descent cell stands for.  Mismatches are reported, not raised, one per
    pair (A, B) in key order, at the minimal-rank window read where the two
    sides differ, with its class, representative and difference.  `audit`
    is the first member, class by class, whose counts differ from its
    representative's: its class, the two windows and every differing pair
    with both counts (None when consistent; a failure assumes nothing)."""
    earliest: dict[tuple[StatKey, StatKey], tuple] = {}
    audit = None
    for key, base, r, diffs in _factorization_mismatches(n, kind, flavor, mode):
        if audit is None:
            audit = {"class": _key_json(key), "windows": _texts(n, kind, base, r), "differences": {
                str((_key_json(a), _key_json(b))): list(v) for (a, b), v in sorted(diffs.items(), key=_entry_order)
            }}
        for pair, (expected, count) in diffs.items():
            if pair not in earliest or r < earliest[pair][0]:
                earliest[pair] = (r, key, base, count - expected)
    mismatches = [
        {"A": _key_json(key_a), "B": _key_json(key_b), "window": window, "class": _key_json(key),
         "representative": representative, "difference": str(difference)}
        for (key_a, key_b), (r, key, base, difference) in sorted(earliest.items(), key=_entry_order)
        for window, representative in [_texts(n, kind, r, base)]
    ]
    return {"consistent": not mismatches, "mismatches": mismatches, "audit": audit}
