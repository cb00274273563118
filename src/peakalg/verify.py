"""One-shot verification suite.

Every check reruns a library-level identity from scratch and reports the
outcome instead of raising, so that callers (the command-line `verify`
subcommand and the acceptance tests) can present honest pass/fail results.
Bounds default to the full desk-scale ranges and can be lowered uniformly
through `Bounds.n_max`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .alphabets import Alphabet
from .enriched import (
    census_sum,
    coded_chain_census,
    coded_epp_census,
    coded_factorization_census,
    coded_poset_census,
    count_table,
    encode_census,
    epp_count,
)
from .eulerian import (
    BATTERY_CAPS,
    negative_battery,
    order_polynomial,
    realized_peak_counts,
    verify_rho_multiplicativity,
)
from .group_algebra import (
    closure_check,
    descent_algebra_containment,
    ideal_check,
    multiplicative_closure,
    verify_duality,
)
from .permutations import (
    FIBONACCI_SHIFT,
    Permutation,
    SignedPermutation,
    compositions,
    descent_set,
    enumerate_group,
    fibonacci,
    group_order,
    peak_set,
)
from .posets import random_poset, random_signed_poset
from .qsym import (
    QSymElement,
    evaluate,
    peak_series,
    polynomial_product,
    quasi_shuffle,
    series_ranks,
)


@dataclass(frozen=True)
class Bounds:
    """Uniform size controls for the suite.  n_max caps every per-check
    default; the seed drives the random-poset draws."""

    n_max: int | None = None
    seed: int = 20260825

    def __post_init__(self) -> None:
        if self.n_max is not None and self.n_max < 1:
            raise ValueError(f"n_max must be at least 1, got {self.n_max}")

    def cap(self, default: int) -> int:
        if self.n_max is None:
            return default
        return min(default, self.n_max)


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: str
    data: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "details": self.details, "data": self.data}


def _result(name: str, passed: bool, ok_detail: str, failures: list, quoted: str = "", **data) -> CheckResult:
    """A verdict; `quoted` (what the check examined) is appended to the
    details and `data` stored beside the failures, pass or fail."""
    details = ok_detail if passed else f"{len(failures)} failure(s); first: {failures[0]}"
    if quoted:
        details += f"; {quoted}"
    return CheckResult(name, passed, details, {"failures": failures, **data})


# ---------------------------------------------------------------------------


def check_examples(bounds: Bounds) -> CheckResult:
    """The three introductory window-statistic evaluations."""
    failures = []
    cases = [
        (Permutation((2, 1, 4, 3, 5)), "interiorPeak", {3}),
        (Permutation((2, 1, 4, 3, 5)), "leftPeak", {1, 3}),
        (SignedPermutation((-2, 3, 4, -5, 1)), "typeBPeak", {0, 3}),
    ]
    for window, flavor, expected in cases:
        got = set(peak_set(window, flavor).members)
        if got != expected:
            failures.append({"window": str(window), "flavor": flavor, "got": sorted(got)})
    return _result("examples", not failures, "3 window examples reproduced", failures)


def check_ranks(bounds: Bounds) -> CheckResult:
    """Peak-set counts and spans of the peak series match the Fibonacci
    numbers f_{n-1} / f_n / f_{n+1} for the three statistics."""
    n_max = bounds.cap(7)
    failures = []
    for flavor in FIBONACCI_SHIFT:
        for n in range(1, n_max + 1):
            count, rank, expected = series_ranks(flavor, n)
            if count != expected or rank != expected:
                failures.append({"flavor": flavor, "n": n, "count": count, "rank": rank, "expected": expected})
    return _result("ranks", not failures, f"counts and spans Fibonacci for n<=%d" % n_max, failures)


def _alphabet_for(kind: str, k: int) -> Alphabet:
    return Alphabet.plus_minus(k) if kind == "B" else Alphabet.prime(k)


# the largest alphabet parameter k of the extensions and bipartite checks
_K = 3


def check_extensions(bounds: Bounds, posets_per_n: int = 25) -> CheckResult:
    """Census additivity: the census of an order equals the sum of the
    censuses of its linear extensions, for random orders of both kinds and
    the alphabets of k = 1.._K.  Each order is drawn once from one generator
    seeded by `bounds.seed`; its extensions are tallied by descent set and
    its census counted label by label over its covers, in its `label_order`,
    so neither the extensions nor the maps are listed, and `examined` counts
    both, the extensions once per alphabet."""
    if posets_per_n < 1:
        raise ValueError(f"posets_per_n must be at least 1, got {posets_per_n}")
    n_max = bounds.cap(6)
    rng = random.Random(bounds.seed)
    failures = []
    examined = {}
    for kind, draw in (("A", random_poset), ("B", random_signed_poset)):
        alphabets = [_alphabet_for(kind, k) for k in range(1, _K + 1)]
        seen = examined[kind] = {"orders": 0, "extensions": 0, "maps": 0}
        for n in range(1, n_max + 1):
            for trial in range(posets_per_n):
                poset = draw(n, rng)
                descent_sets = poset.extension_descents()
                seen["orders"] += 1
                for k, alphabet in enumerate(alphabets, start=1):
                    direct = coded_poset_census(poset, alphabet)
                    seen["maps"] += sum(direct.counts.values())
                    seen["extensions"] += sum(descent_sets.values())
                    if direct != census_sum(n, descent_sets.items(), alphabet):
                        failures.append({"kind": kind, "n": n, "trial": trial, "k": k})
    quoted = "; ".join(
        f"{kind}: {seen['orders']} orders, {seen['maps']} maps, {seen['extensions']} extension censuses"
        for kind, seen in examined.items()
    )
    return _result(
        "extensions", not failures,
        f"additivity over extensions, {posets_per_n} random orders per n<=%d per kind, k<=%d" % (n_max, _K),
        failures, quoted, examined=examined,
    )


def check_formulas(bounds: Bounds) -> CheckResult:
    """The subset-expansion of each peak series evaluates, in n+1 variables,
    to the brute census of every window with that peak set.  Each series is
    evaluated and coded once per (size, peak set) and compared with the
    coded census of every window of its set.  A window's census depends on
    it only through its descent set, which is read once per window for all
    its alphabets; the census itself is built once per (alphabet, descent
    set) and kept on the alphabet (`coded_chain_census`)."""
    n_a = bounds.cap(5)
    n_b = bounds.cap(4)
    failures = []
    examined = {flavor: {"windows": 0, "series": 0} for flavor in ("interior", "left", "typeB")}

    def compare(label: str, w, members: frozenset[int], typeB: bool, alphabet: Alphabet, des: frozenset[int],
                evaluated: dict) -> None:
        seen = examined[label]
        if (members, typeB) not in evaluated:
            series = evaluate(peak_series(members, w.n, typeB=typeB), w.n + 1)
            evaluated[members, typeB] = encode_census(series, alphabet, w.n)
            seen["series"] += 1
        seen["windows"] += 1
        if evaluated[members, typeB] != coded_chain_census(w.n, des, alphabet):
            failures.append({"flavor": label, "window": str(w)})

    for n in range(1, n_a + 1):
        prime, left = Alphabet.prime(n + 1), Alphabet.left(n + 1)
        evaluated: dict = {}
        for w in enumerate_group(n, "A"):
            des = descent_set(w, "descentA").members
            compare("interior", w, peak_set(w, "interiorPeak").members, False, prime, des, evaluated)
            compare("left", w, peak_set(w, "leftPeak").members, True, left, des, evaluated)
    for n in range(1, n_b + 1):
        pm = Alphabet.plus_minus(n + 1)
        evaluated = {}
        for w in enumerate_group(n, "B"):
            des = descent_set(w, "descentB").members
            compare("typeB", w, peak_set(w, "typeBPeak").members, True, pm, des, evaluated)
    return _result(
        "formulas", not failures,
        f"series = census at k=n+1, every window, n<={n_a} (ordinary) / n<={n_b} (signed)",
        failures, _quote_examined(examined, "series"), examined=examined,
    )


# the (first, second) alphabet pairs of check_bipartite, by kind, as the
# names of their `Alphabet` factory methods
_BIPARTITE_PAIRS = {
    "A": (("prime*prime", "prime", "prime"), ("left*prime", "left", "prime")),
    "B": (("pm*pm", "plus_minus", "plus_minus"),),
}


def check_bipartite(bounds: Bounds) -> CheckResult:
    """Pair-alphabet censuses factor through ordered factorizations: the
    census over the up-down product alphabet of k = _K equals the
    factorization sum, for every window.  Each window's count table is
    tallied once (`count_table`) and handed to the factorization census,
    which is built once per (pair, table): windows of one descent class
    share a table.  The direct census is built once per descent set and
    kept on the product alphabet.  The alphabets are built for each pair
    and n, so the censuses and chain-DP prefix states they keep are dropped
    when the sweep moves on."""
    n_a = bounds.cap(4)
    n_b = bounds.cap(3)
    failures = []
    examined = {label: {"windows": 0, "products": 0, "tables": 0}
                for plan in _BIPARTITE_PAIRS.values() for label, _, _ in plan}
    for kind, n_max in (("A", n_a), ("B", n_b)):
        for n in range(1, n_max + 1):
            for label, *names in _BIPARTITE_PAIRS[kind]:
                alphabets = {name: getattr(Alphabet, name)(_K) for name in names}
                first, second = (alphabets[name] for name in names)
                product = Alphabet.product(first, second)
                seen = examined[label]
                tables = set()
                for w in enumerate_group(n, kind):
                    seen["windows"] += 1
                    table = count_table(w)
                    if table not in tables:
                        # coded_factorization_census builds each table's census once,
                        # with one census product per Des tau of the table
                        tables.add(table)
                        seen["tables"] += 1
                        seen["products"] += len({des_tau for (des_tau, _), _ in table})
                    if coded_epp_census(w, product) != coded_factorization_census(w, first, second, table):
                        failures.append({"pair": label, "window": str(w)})
    return _result(
        "bipartite", not failures,
        f"pair-alphabet census factorizations at k={_K}, n<={n_a} (ordinary) / n<={n_b} (signed)",
        failures, _quote_examined(examined, "products", "tables"), examined=examined,
    )


def _quote_examined(examined: dict, *counted: str) -> str:
    """Per entry of `examined`: the windows compared and its other counts."""
    return "; ".join(f"{label}: {seen['windows']} windows, " + ", ".join(f"{seen[c]} {c}" for c in counted)
                     for label, seen in examined.items())


_DUALITY_PLANS = (("A", "interiorPeak", 5), ("A", "leftPeak", 5), ("B", "typeBPeak", 4))


def _plans_examined(bounds: Bounds) -> str:
    """The kind, flavor and sizes of every duality/closure plan at these bounds."""
    plans = (f"{kind}:{flavor} n=1..{bounds.cap(default)}" for kind, flavor, default in _DUALITY_PLANS)
    return "examined " + ", ".join(plans)


def check_duality(bounds: Bounds) -> CheckResult:
    """Class-sum products match the tabulated factorization constants, and
    the constants are independent of the chosen class representative."""
    failures = []
    for kind, flavor, default in _DUALITY_PLANS:
        for n in range(1, bounds.cap(default) + 1):
            report = verify_duality(n, kind, flavor)
            if not report["consistent"]:
                failures.append({"kind": kind, "flavor": flavor, "n": n, "stage": "products",
                                 "first": report["mismatches"][0]})
                failures.append({"kind": kind, "flavor": flavor, "n": n, "stage": "audit", "witness": report["audit"]})
    return _result("duality", not failures, "class-sum products = tabulated constants, audits clean", failures,
                   _plans_examined(bounds))


def check_closure(bounds: Bounds) -> CheckResult:
    """Span closure with Fibonacci dimensions for the three peak statistics,
    descent-span containment for the signed one, and the two-sided ideal
    property of the interior span inside the left span."""
    failures = []
    for kind, flavor, default in _DUALITY_PLANS:
        for n in range(1, bounds.cap(default) + 1):
            report = closure_check(n, kind, flavor)
            expected = fibonacci(n + FIBONACCI_SHIFT[flavor])
            if not report["closed"] or report["dim"] != expected:
                failures.append({"kind": kind, "flavor": flavor, "n": n,
                                 "closed": report["closed"], "dim": report["dim"],
                                 "expected_dim": expected, "certificate": report["certificate"]})
    for n in range(1, bounds.cap(4) + 1):
        if not descent_algebra_containment(n, "B", "typeBPeak"):
            failures.append({"stage": "descent containment", "n": n})
    for n in range(1, bounds.cap(5) + 1):
        report = ideal_check(n, "A", "interiorPeak", "leftPeak")
        if not report["ideal"]:
            failures.append({"stage": "ideal", "n": n, "witness": report})
    return _result("closure", not failures, "spans closed with Fibonacci dimensions; ideal and containment hold", failures,
                   _plans_examined(bounds))


def check_idempotents(bounds: Bounds) -> CheckResult:
    """The generating polynomial is multiplicative, its coefficients are
    orthogonal idempotents matching the peak-number span, and wrong-parity
    coefficients vanish; every stage is read from one report per size.
    `examined` quotes, per size, the windows each report tallied (one of
    each descent class) and the distinct profiles they gave."""
    n_max = bounds.cap(6)
    failures = []
    examined = {}
    for n in range(1, n_max + 1):
        report = verify_rho_multiplicativity(n)
        examined[n] = {key: report[key] for key in ("windows_tallied", "profiles")}
        if not report["multiplicative"]:
            failures.append({"n": n, "stage": "multiplicativity", "report": {
                "parity_ok": report["parity_ok"], "mismatches": report["mismatches"]}})
            continue
        if not report["spans_classes"]:
            failures.append({"n": n, "stage": "span"})
        if not report["commutative"]:
            failures.append({"n": n, "stage": "commutativity"})
    quoted = "one window per descent class: " + "; ".join(
        f"n={n}: {seen['windows_tallied']} windows, {seen['profiles']} profiles" for n, seen in examined.items())
    return _result("idempotents", not failures, f"orthogonal idempotents and matching spans, n<={n_max}", failures,
                   quoted, examined=examined)


def check_negatives(bounds: Bounds) -> CheckResult:
    """Every battery statistic fails closure with a recorded witness; the
    control stays closed; the right-peak-count span generates a proper
    subalgebra.  A statistic whose sweep was cut short of its full default
    bound counts as inconclusive rather than failed."""
    n_max = bounds.cap(6)
    failures = []
    inconclusive = []
    reports = negative_battery(n_max)
    for report in reports:
        if report["control"]:
            if not report["closed"]:
                failures.append({"statistic": report["statistic"], "stage": "control broke"})
        elif report["closed"]:
            if report["n"] < BATTERY_CAPS[report["kind"]]:
                inconclusive.append(report["statistic"])
            else:
                failures.append({"statistic": report["statistic"], "stage": "no witness found",
                                 "bound": report["n"]})
    grown = None
    if bounds.cap(4) == 4:
        grown = multiplicative_closure(4, "A", "rightPeak", mode="number")
        if not grown["dim_closure"] < group_order(4, "A"):
            failures.append({"stage": "right-peak-count closure not proper", "report": grown})
    else:
        inconclusive.append("A:rightPeak:number (properness needs n=4)")
    witnesses = ", ".join(f"{r['statistic']}@n={r['n']}" for r in reports if not r["control"] and not r["closed"])
    note = f"; inconclusive at this bound: {len(inconclusive)}" if inconclusive else ""
    return _result("negatives", not failures, f"witnesses: {witnesses}; control closed{note}", failures,
                   inconclusive=inconclusive, battery=reports, right_number_closure=grown)


def check_oracles(bounds: Bounds) -> CheckResult:
    """Out-of-sample agreement of the counting polynomials, and the
    quasi-shuffle product against truncated evaluation.  Every window of
    S_n is compared at k = n+1 and n+2, each compared value computed once
    per key it depends on: a counting polynomial is built once per interior
    peak count and evaluated once per (peak count, k), and the enriched-map
    count, which depends on the window only through its descent set, is
    taken by `epp_count` once per (descent set, k), on the first window with
    that set.  `examined` counts the windows compared, the polynomial
    values, the (descent set, k) counts and the quasi-shuffle pairs."""
    n_max = bounds.cap(5)
    failures = []
    examined = {"windows": 0, "values": 0, "counts": 0, "pairs": 0}
    primes = {k: Alphabet.prime(k) for k in range(2, n_max + 3)}
    for n in range(1, n_max + 1):
        ks = (n + 1, n + 2)
        values = {}
        for i in realized_peak_counts(n):
            polynomial = order_polynomial(i, n)
            values.update(((i, k), polynomial.evaluate(k)) for k in ks)
        counts = {}
        for w in enumerate_group(n, "A"):
            examined["windows"] += 1
            i = len(peak_set(w, "interiorPeak").members)
            des = descent_set(w, "descentA").members
            for k in ks:
                if (des, k) not in counts:
                    counts[des, k] = epp_count(w, primes[k])
                if values[i, k] != counts[des, k]:
                    failures.append({"stage": "order polynomial", "window": str(w), "k": k})
        examined["values"] += len(values)
        examined["counts"] += len(counts)
    k = 3
    for typeB in (False, True):
        pool = [c for d in range(0, 5) for c in compositions(d, typeB)]
        for ca in pool:
            for cb in pool:
                if ca.degree + cb.degree > 4:
                    continue
                examined["pairs"] += 1
                a = QSymElement.monomial(ca.parts, typeB)
                b = QSymElement.monomial(cb.parts, typeB)
                lhs = evaluate(quasi_shuffle(a, b), k)
                rhs = polynomial_product(evaluate(a, k), evaluate(b, k))
                if lhs != rhs:
                    failures.append({"stage": "quasi-shuffle", "a": str(ca), "b": str(cb)})
    return _result(
        "oracles", not failures,
        f"counting polynomials out-of-sample n<={n_max}; quasi-shuffle = evaluation product (deg<=4, k={k})",
        failures, f"{examined['windows']} windows, {examined['values']} polynomial values, "
        f"{examined['counts']} descent-set counts, {examined['pairs']} quasi-shuffle pairs", examined=examined,
    )


CHECKS: dict[str, Callable[[Bounds], CheckResult]] = {
    "examples": check_examples,
    "ranks": check_ranks,
    "extensions": check_extensions,
    "formulas": check_formulas,
    "bipartite": check_bipartite,
    "duality": check_duality,
    "closure": check_closure,
    "idempotents": check_idempotents,
    "negatives": check_negatives,
    "oracles": check_oracles,
}


def run_suite(names: Sequence[str] | None = None, bounds: Bounds = Bounds()) -> list[CheckResult]:
    """Run the named checks (all by default) and return results in listed
    order.  An empty selection is refused: a suite that ran nothing passed
    nothing."""
    selected = list(CHECKS) if names is None else list(names)
    unknown = [name for name in selected if name not in CHECKS]
    if unknown or not selected:
        problem = f"unknown checks: {unknown}" if unknown else "no checks selected"
        raise ValueError(f"{problem}; available: {', '.join(CHECKS)}")
    return [CHECKS[name](bounds) for name in selected]
