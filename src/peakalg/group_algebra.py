"""Exact group-algebra arithmetic for the two window groups.

Elements are sparse exact vectors (`linalg.SparseVector`) keyed by the
stable rank of a window.  A coefficient is an int where it is integral, as
in every class sum, product of class sums and factorization count, and a
Fraction only where it is not (the rho elements of the eulerian module
divide).  The product is convolution against the fixed composition
convention of the permutations module: (u * w)(p) sums u(t) * w(s) over
all ordered factorizations s . t = p.  Every product of two group elements,
at every group size, is read from one kernel: rows of product ranks, each
built once by applying one cached getter per window to the row element's
value table and looking the result up in the window -> rank dict.
Factorization counts are tallied over integer class ids and decoded to
statistic pairs once.

The module also builds class sums for any window statistic, tabulates
structure constants from class representatives, and runs closure, duality,
ideal and descent-containment checks.  The classes of a statistic partition
the group, so an element lies in the span of its class sums exactly when it
is constant on every class; the checks decide membership that way, by
comparing exact values, with no elimination.  As (v_A * v_B)(p) = N_p(A, B),
the number of factorizations of p by class pair, one comparison decides
closure, duality and the representative audit: every member's factorization
counts against its class representative's.  The ideal check, whose outer
elements need not be class sums, convolves.  Failures come with an explicit
certificate so downstream reports can show a witness instead of a bare flag.
`multiplicative_closure`, whose products leave the class-sum span, hands
their coefficient mappings to `linalg.Span` as they are.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Sequence

from .linalg import SparseVector, Span
from .permutations import (
    GroupElement,
    enumerate_group,
    group_order,
    rank,
    stat_set,
)

FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# The group kernel: elements in rank order, window -> rank, product rows


@lru_cache(maxsize=None)
def _elements(n: int, kind: str) -> tuple[GroupElement, ...]:
    return tuple(enumerate_group(n, kind))


@lru_cache(maxsize=None)
def _index(n: int, kind: str) -> dict[tuple[int, ...], int]:
    """Window -> rank; iterating it yields the windows in rank order."""
    return {p.window: r for r, p in enumerate(_elements(n, kind))}


@lru_cache(maxsize=None)
def _getters(n: int, kind: str) -> tuple[Callable, ...]:
    """One getter per window b, in rank order, reading the window of p.b off
    p's value table.  A one-index itemgetter returns a bare value and a
    zero-index one cannot be made, so for n <= 1 each getter reads its
    window by hand."""
    if n > 1:
        return tuple(itemgetter(*b) for b in _index(n, kind))
    return tuple(lambda image, b=b: tuple(map(image.__getitem__, b)) for b in _index(n, kind))


# Product-row entries kept per group: every row of A_7 (25.4M entries, about
# 204 MB as tuples, beside 0.4 MB of cached getters) and of the smaller
# groups fits.  All rows of A_8 or B_6 would take 13-17 GB, so past this
# budget a row is rebuilt whenever it is needed instead of kept.
_ROW_BUDGET = 1 << 25


@lru_cache(maxsize=None)
def _kept_rows(n: int, kind: str) -> dict[int, tuple[int, ...]]:
    return {}


def _row(n: int, kind: str, r: int) -> tuple[int, ...]:
    """row[j] = rank of elements[r] composed with elements[j], read off the
    window -> rank dict.  Built the first time it is needed, then kept while
    the group's kept rows stay within _ROW_BUDGET entries."""
    kept = _kept_rows(n, kind)
    row = kept.get(r)
    if row is None:
        window = _elements(n, kind)[r].window
        # image[v] is the value at v for v in -n..n (negative v index from the end)
        image = (0,) + window + tuple(-v for v in reversed(window))
        index = _index(n, kind)
        row = tuple([index[g(image)] for g in _getters(n, kind)])
        if (len(kept) + 1) * len(row) <= _ROW_BUDGET:
            kept[r] = row
    return row


@lru_cache(maxsize=None)
def _inverse_ranks(n: int, kind: str) -> tuple[int, ...]:
    index = _index(n, kind)
    out = []
    for window in index:
        inverse = [0] * n
        for i, v in enumerate(window, start=1):
            inverse[abs(v) - 1] = i if v > 0 else -i
        out.append(index[tuple(inverse)])
    return tuple(out)


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
        elements = _elements(self.n, self.kind)
        return [elements[i] for i in sorted(self.coeffs)]

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        elements = _elements(self.n, self.kind)
        bits = [f"{value}*[{elements[key]}]" for key, value in sorted(self.coeffs.items())]
        return " + ".join(bits)

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
def _stat_keys(n: int, kind: str, flavor: str, mode: str) -> tuple[StatKey, ...]:
    """The statistic of every element in rank order: the set itself, or its
    cardinality when mode="number"."""
    if mode not in ("set", "number"):
        raise ValueError(f"unknown mode: {mode}")
    members = (stat_set(p, flavor).members for p in _elements(n, kind))
    return tuple(len(m) for m in members) if mode == "number" else tuple(members)


@lru_cache(maxsize=None)
def _class_ids(n: int, kind: str, flavor: str, mode: str) -> tuple[tuple[StatKey, ...], tuple[int, ...]]:
    """The distinct statistic values in order of first appearance, and the
    position of every element's value among them, in rank order."""
    position: dict[StatKey, int] = {}
    ids = tuple([position.setdefault(key, len(position)) for key in _stat_keys(n, kind, flavor, mode)])
    return tuple(position), ids


def stat_classes(n: int, kind: str, flavor: str, mode: str = "set") -> dict[StatKey, list[int]]:
    """Group element ranks by the value of the statistic (the set itself, or
    its cardinality when mode="number")."""
    out: dict[StatKey, list[int]] = {}
    for index, key in enumerate(_stat_keys(n, kind, flavor, mode)):
        out.setdefault(key, []).append(index)
    return out


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
    statistic of t equal to A and the statistic of s equal to B."""

    n: int
    kind: str
    flavor: str
    mode: str
    keys: tuple[StatKey, ...]
    counts: dict[tuple[StatKey, StatKey, StatKey], int]

    def count(self, a: StatKey, b: StatKey, c: StatKey) -> int:
        return self.counts.get((_freeze(a), _freeze(b), _freeze(c)), 0)

    def to_payload(self) -> dict:
        """The table as a JSON-ready dict: a header and the nonzero entries,
        sorted by (A, B, C)."""
        entries = [
            {"A": _key_json(a), "B": _key_json(b), "C": _key_json(c), "count": v}
            for (a, b, c), v in sorted(self.counts.items(), key=_entry_order)
            if v
        ]
        return {
            "format_version": FORMAT_VERSION,
            "flavor": self.flavor,
            "kind": self.kind,
            "mode": self.mode,
            "n": self.n,
            "entries": entries,
        }


def _freeze(key) -> StatKey:
    return key if isinstance(key, int) else frozenset(key)


def _key_json(key: StatKey):
    return key if isinstance(key, int) else sorted(key)


def factorization_counts(
    target: GroupElement, flavor: str, mode: str = "set"
) -> dict[tuple[StatKey, StatKey], int]:
    """For one target window, count ordered factorizations s.t = target by the
    statistic pair (statistic of t, statistic of s)."""
    n, kind = target.n, target.kind
    keys, ids = _class_ids(n, kind, flavor, mode)
    width = len(keys)
    row = _row(n, kind, _index(n, kind)[target.window])
    # t pairs with s = target . t^-1, whose rank is row[rank of t^-1]; the
    # pair of class ids (id_t, id_s) is counted as one integer width * id_t + id_s
    codes = Counter([width * id_t + ids[row[j]] for id_t, j in zip(ids, _inverse_ranks(n, kind))])
    return {(keys[code // width], keys[code % width]): count for code, count in codes.items()}


def structure_table(n: int, kind: str, flavor: str, mode: str = "set") -> StructureTable:
    """Tabulate all structure constants from the minimal-rank representative
    of each statistic class."""
    classes = stat_classes(n, kind, flavor, mode)
    elements = _elements(n, kind)
    keys = tuple(sorted_keys(classes))
    counts: dict[tuple[StatKey, StatKey, StatKey], int] = {}
    for key_c, ranks in classes.items():
        representative = elements[min(ranks)]
        for (key_a, key_b), value in factorization_counts(representative, flavor, mode).items():
            counts[(key_a, key_b, key_c)] = value
    return StructureTable(n=n, kind=kind, flavor=flavor, mode=mode, keys=keys, counts=counts)


def _mismatches(n: int, kind: str, flavor: str, mode: str):
    """Walk the classes in order of first appearance, each in rank order, and
    for every member whose factorization counts differ from its class
    representative's (the minimal-rank member) yield (class, representative
    rank, member rank, {pair: (representative's count, member's count)}).
    As (v_A * v_B)(p) = N_p(A, B), this yields nothing exactly when the class
    sums span a closed algebra with well-defined structure constants."""
    elements = _elements(n, kind)
    for key, ranks in stat_classes(n, kind, flavor, mode).items():
        base = factorization_counts(elements[ranks[0]], flavor, mode)
        for r in ranks[1:]:
            counts = factorization_counts(elements[r], flavor, mode)
            if counts != base:
                yield key, ranks[0], r, {
                    pair: (base.get(pair, 0), counts.get(pair, 0))
                    for pair in base.keys() | counts.keys()
                    if base.get(pair, 0) != counts.get(pair, 0)
                }


def representative_audit(n: int, kind: str, flavor: str, mode: str = "set") -> dict:
    """Check that factorization counts by statistic pair agree across every
    member of every class, not just the chosen representative.  Returns a
    report with the first disagreeing pair of windows if one exists."""
    elements = _elements(n, kind)
    for key, base, r, diffs in _mismatches(n, kind, flavor, mode):
        return {
            "consistent": False,
            "class": _key_json(key),
            "windows": [str(elements[base]), str(elements[r])],
            "differences": {
                str((_key_json(a), _key_json(b))): list(v) for (a, b), v in sorted(diffs.items(), key=_entry_order)
            },
        }
    return {"consistent": True}


# ---------------------------------------------------------------------------
# Span checks: membership in a class-sum span is constancy on the classes


def _nonconstant_class(element: AlgebraElement, classes: Mapping[StatKey, list[int]]) -> dict | None:
    """The first class, in key order, on which the element is not constant,
    with its lowest- and highest-valued members (ties go to the lower and the
    higher rank) and their values; None when the element lies in the span of
    the class sums."""
    coeffs = element.coeffs
    elements = _elements(element.n, element.kind)
    for key in sorted_keys(classes):
        values = [(coeffs.get(r, 0), r) for r in classes[key]]
        low, high = min(values), max(values)
        if low[0] != high[0]:
            return {
                "class": _key_json(key),
                "windows": [str(elements[low[1]]), str(elements[high[1]])],
                "values": [str(low[0]), str(high[0])],
            }
    return None


def closure_check(n: int, kind: str, flavor: str, mode: str = "set") -> dict:
    """Is the span of the class sums closed under convolution?  The report
    carries the span dimension and, on failure, a certificate from the first
    member whose counts differ from its representative's: the least pair
    (A, B) that differs, the class, the representative and the member, and
    the values of v_A * v_B at those two windows."""
    dim = len(_class_ids(n, kind, flavor, mode)[0])
    elements = _elements(n, kind)
    for key, base, r, diffs in _mismatches(n, kind, flavor, mode):
        (key_a, key_b), values = min(diffs.items(), key=_entry_order)
        certificate = {"A": _key_json(key_a), "B": _key_json(key_b), "class": _key_json(key),
                       "windows": [str(elements[base]), str(elements[r])], "values": [str(v) for v in values]}
        return {"closed": False, "dim": dim, "certificate": certificate}
    return {"closed": True, "dim": dim, "certificate": None}


def multiplicative_closure(elements: Sequence[AlgebraElement]) -> dict:
    """Dimension of the smallest convolution-closed subspace containing the
    given elements, grown by saturating pairwise products."""
    if not elements:
        return {"dim_start": 0, "dim_closure": 0, "closed": True}
    span = Span(element.coeffs for element in elements)
    dim_start = span.dim
    basis = list(elements)
    frontier = list(elements)
    while frontier:
        fresh: list[AlgebraElement] = []
        for u in basis:
            for w in frontier:
                for product in (u.convolve(w), w.convolve(u)):
                    if span.add(product.coeffs):
                        fresh.append(product)
        basis.extend(fresh)
        frontier = fresh
    return {"dim_start": dim_start, "dim_closure": span.dim, "closed": span.dim == dim_start}


def ideal_check(n: int, kind: str, flavor: str, outer: Sequence[AlgebraElement], mode: str = "set") -> dict:
    """Do products between the outer elements and the class sums of the
    statistic stay inside the span of those class sums, on both sides?  On
    failure the witness names the inner class B, the position of the outer
    element u in `outer`, and a class on which the product (u * v_B on the
    left side, v_B * u on the right) is not constant, with two of its
    windows and their values."""
    classes = stat_classes(n, kind, flavor, mode)
    inner = class_sums(n, kind, flavor, mode)
    for index, u in enumerate(outer):
        for key_b, v in inner.items():
            for side, product in (("left", u.convolve(v)), ("right", v.convolve(u))):
                escape = _nonconstant_class(product, classes)
                if escape is not None:
                    witness = {"B": _key_json(key_b), "outer_index": index, **escape}
                    return {"ideal": False, "side": side, "witness": witness}
    return {"ideal": True, "side": None, "witness": None}


def descent_algebra_containment(n: int, kind: str, flavor: str) -> bool:
    """Every peak class sum is a sum of descent class sums, hence lies in the
    span of the descent classes: the peak set is constant on every descent
    class."""
    peak_of: dict[StatKey, StatKey] = {}
    for descents, peaks in zip(_stat_keys(n, kind, "descent" + kind, "set"), _stat_keys(n, kind, flavor, "set")):
        if peak_of.setdefault(descents, peaks) != peaks:
            return False
    return True


# ---------------------------------------------------------------------------
# Duality verification (class-sum products against tabulated constants)


def verify_duality(n: int, kind: str, flavor: str, mode: str = "set") -> dict:
    """Compare every product v_A * v_B against the tabulated expansion
    sum_C count(A,B,C) v_C, window by window: at p the two sides are N_p(A, B)
    and the count of the class representative the constant is read from (its
    minimal-rank member, as in `structure_table`).  Mismatches are reported,
    not raised, one per pair (A, B) in key order, at the minimal-rank window
    where the two sides differ, with its class, representative and difference."""
    elements = _elements(n, kind)
    first: dict[tuple[StatKey, StatKey], tuple] = {}
    for key, base, r, diffs in _mismatches(n, kind, flavor, mode):
        for pair, (expected, count) in diffs.items():
            if pair not in first or r < first[pair][0]:
                first[pair] = (r, key, base, count - expected)
    mismatches = [
        {"A": _key_json(key_a), "B": _key_json(key_b), "window": str(elements[r]), "class": _key_json(key),
         "representative": str(elements[base]), "difference": str(difference)}
        for (key_a, key_b), (r, key, base, difference) in sorted(first.items(), key=_entry_order)
    ]
    return {"consistent": not mismatches, "mismatches": mismatches}
