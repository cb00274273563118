"""Seeded random orders of any density, for the tests.

`thinned_order` draws as `peakalg.posets.random_poset` and
`random_signed_poset` draw, with the probability `keep` of keeping a cover
in place of their fixed 0.6: shuffle a random window (for a signed order,
a random sign first on each value, and 0 set below the window), then keep
each cover of that chain with probability `keep`.  So keep = 0 gives the
antichain, keep = 1 a chain, and the window is always a linear extension.
"""

from peakalg.posets import LabeledPoset, SignedPoset


def thinned_covers(kind, n, rng, keep):
    """The covers `thinned_order` draws, before any closure is taken."""
    if kind == "A":
        window, floor = list(range(1, n + 1)), []
    else:
        window, floor = [v if rng.random() < 0.5 else -v for v in range(1, n + 1)], [0]
    rng.shuffle(window)
    labels = floor + window
    return [cover for cover in zip(labels, labels[1:]) if rng.random() < keep]


def thinned_order(kind, n, rng, keep):
    return (LabeledPoset if kind == "A" else SignedPoset).from_covers(n, thinned_covers(kind, n, rng, keep))
