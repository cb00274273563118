"""Finite truncations of the doubled alphabets used by enriched chain
enumeration, and their up-down product alphabets.

Three base variants, each truncated at k base letters:

    prime(k)      -1 < 1 < -2 < 2 < ... < -k < k            (2k letters)
    left(k)        0 < -1 < 1 < -2 < 2 < ... < -k < k       (2k+1 letters)
    plusMinus(k)  -k < -k' < ... < -1 < -1' < 0 < 1' < 1 < ... < k' < k
                                                            (4k+1 letters)

Every letter carries a sign eps in {+1, -1} refining the order at equality:
a <=+ b iff a < b or (a == b and eps > 0); a <=- b uses eps < 0.  For prime
letters eps is the sign, for left letters nonnegativity, and for plusMinus
letters (written (j, e), the letter j^e with e == -1 for the primed copy)
the exponent flag e.  The weight of a letter is the index of the variable it
contributes to a census.

The product of two alphabets is ordered by reading columns with eps(s) > 0
upward and columns with eps(s) < 0 downward; the pair sign is the product
eps(s)*eps(t).  With those conventions the product is again an alphabet of
the same shape, so the chain machinery applies to it unchanged.
"""

from __future__ import annotations

from typing import Any, Sequence

Letter = Any


def _check_size(k: int) -> None:
    if k < 0:
        raise ValueError(f"an alphabet has k >= 0 base letters, got k={k}")


class Alphabet:
    """A finite totally ordered alphabet with equality signs and weights."""

    def __init__(
        self,
        variant: str,
        letters: Sequence[Letter],
        eps: Sequence[int],
        var_lists: Sequence[tuple[int, ...]],
        n_vars: int,
        zero_index: int | None,
        negate_map: dict[Letter, Letter] | None,
    ) -> None:
        self.variant = variant
        self.letters = tuple(letters)
        self.eps = tuple(eps)
        self.var_lists = tuple(var_lists)
        self.n_vars = n_vars
        self.zero_index = zero_index
        self._negate = negate_map
        self.index = {letter: i for i, letter in enumerate(self.letters)}
        if len(self.index) != len(self.letters):
            raise ValueError("duplicate letters")
        # coded censuses (enriched.CodedCensus) built over this alphabet:
        # chain censuses by (n, descent set), kept by
        # enriched.coded_chain_census, with the chain DP's state after each
        # descent-set prefix by ("prefix states", n), which later censuses of
        # that n extend; and factorization censuses by (second alphabet, n,
        # count table), kept by enriched.coded_factorization_census; and,
        # under "relation masks", the allowed-letter masks of each shape of
        # poset cover, kept by enriched._compile_relation for its one user,
        # enriched.coded_poset_census.  All of them are dropped with the
        # alphabet.
        self.censuses: dict[tuple, Any] = {}

    def __len__(self) -> int:
        return len(self.letters)

    def __repr__(self) -> str:
        return f"Alphabet({self.variant}, {len(self.letters)} letters)"

    # -- constructors -------------------------------------------------------

    @classmethod
    def prime(cls, k: int) -> "Alphabet":
        _check_size(k)
        letters = [s * j for j in range(1, k + 1) for s in (-1, 1)]
        eps = [1 if v > 0 else -1 for v in letters]
        var_lists = [(abs(v),) for v in letters]
        return cls("prime", letters, eps, var_lists, k + 1, None, {v: -v for v in letters})

    @classmethod
    def left(cls, k: int) -> "Alphabet":
        _check_size(k)
        letters = [0] + [s * j for j in range(1, k + 1) for s in (-1, 1)]
        eps = [1 if v >= 0 else -1 for v in letters]
        var_lists = [(abs(v),) for v in letters]
        return cls("left", letters, eps, var_lists, k + 1, 0, {v: -v for v in letters})

    @classmethod
    def plus_minus(cls, k: int) -> "Alphabet":
        _check_size(k)
        letters: list[tuple[int, int]] = []
        for j in range(-k, 0):
            letters += [(j, 1), (j, -1)]
        letters.append((0, 1))
        for j in range(1, k + 1):
            letters += [(j, -1), (j, 1)]
        eps = [e for _, e in letters]
        var_lists = [(abs(j),) for j, _ in letters]
        negate = {(j, e): (-j, e) for j, e in letters}
        return cls("plusMinus", letters, eps, var_lists, k + 1, 2 * k, negate)

    @classmethod
    def product(cls, first: "Alphabet", second: "Alphabet") -> "Alphabet":
        """The up-down product: pairs (s, t), columns ordered by eps(s)."""
        letters: list[tuple[Letter, Letter]] = []
        eps: list[int] = []
        var_lists: list[tuple[int, ...]] = []
        offset = first.n_vars
        for i, s in enumerate(first.letters):
            column = range(len(second)) if first.eps[i] > 0 else reversed(range(len(second)))
            for j in column:
                letters.append((s, second.letters[j]))
                eps.append(first.eps[i] * second.eps[j])
                var_lists.append(first.var_lists[i] + tuple(offset + v for v in second.var_lists[j]))
        zero = None
        if first.zero_index is not None and second.zero_index is not None:
            zero_letter = (first.letters[first.zero_index], second.letters[second.zero_index])
            zero = letters.index(zero_letter)
        negate = None
        if first._negate is not None and second._negate is not None:
            negate = {(s, t): (first._negate[s], second._negate[t]) for s, t in letters}
        return cls("product", letters, eps, var_lists, offset + second.n_vars, zero, negate)

    # -- order and sign queries ---------------------------------------------

    def less(self, a: Letter, b: Letter) -> bool:
        return self.index[a] < self.index[b]

    def epsilon(self, a: Letter) -> int:
        return self.eps[self.index[a]]

    def weight_vars(self, a: Letter) -> tuple[int, ...]:
        return self.var_lists[self.index[a]]

    def negate(self, a: Letter) -> Letter:
        if self._negate is None:
            raise ValueError(f"{self.variant} letters have no negation")
        return self._negate[a]

    def leq_plus(self, a: Letter, b: Letter) -> bool:
        """a < b, or a == b with positive sign."""
        ia, ib = self.index[a], self.index[b]
        return ia < ib or (ia == ib and self.eps[ia] > 0)

    def leq_minus(self, a: Letter, b: Letter) -> bool:
        """a < b, or a == b with negative sign."""
        ia, ib = self.index[a], self.index[b]
        return ia < ib or (ia == ib and self.eps[ia] < 0)
