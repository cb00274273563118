"""One-shot verification suite.

Every check reruns a library-level identity from scratch and reports the
outcome instead of raising, so that callers (the command-line `verify`
subcommand and the acceptance tests) can present honest pass/fail results.
Bounds default to the full desk-scale ranges and can be lowered uniformly
through `Bounds.n_max`.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from .alphabets import Alphabet
from .enriched import (
    chain_census,
    chain_rules,
    epp_census,
    epp_count,
    factorization_census,
    poset_epp_census,
)
from .eulerian import (
    BATTERY_CAPS,
    commutes_pairwise,
    eulerian_basis,
    negative_battery,
    order_polynomial,
    realized_peak_counts,
    rho_idempotents,
    spans_agree,
    verify_rho_multiplicativity,
)
from .group_algebra import (
    class_sums,
    closure_check,
    descent_algebra_containment,
    ideal_check,
    multiplicative_closure,
    representative_audit,
    verify_duality,
)
from .permutations import (
    Permutation,
    SignedPermutation,
    enumerate_group,
    enumerate_stat_sets,
    fibonacci,
    group_order,
    peak_set,
)
from .posets import random_poset, random_signed_poset
from .qsym import (
    QSymElement,
    evaluate,
    peak_function,
    peak_function_b,
    polynomial_product,
    quasi_shuffle,
    rank_of_span,
)
from .permutations import compositions


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
    plans = [
        ("interiorPeak", -1, lambda s, n: peak_function(s, n)),
        ("leftPeak", 0, lambda s, n: peak_function_b(s, n)),
        ("typeBPeak", 1, lambda s, n: peak_function_b(s, n)),
    ]
    for flavor, shift, build in plans:
        for n in range(1, n_max + 1):
            sets = enumerate_stat_sets(n, flavor)
            expected = fibonacci(n + shift)
            series = [build(s.members, n) for s in sets]
            got_rank = rank_of_span(series)
            if len(sets) != expected or got_rank != expected:
                failures.append(
                    {"flavor": flavor, "n": n, "count": len(sets), "rank": got_rank, "expected": expected}
                )
    return _result("ranks", not failures, f"counts and spans Fibonacci for n<=%d" % n_max, failures)


def _alphabet_for(kind: str, k: int, flavor: str = "") -> Alphabet:
    if kind == "B":
        return Alphabet.plus_minus(k)
    return Alphabet.left(k) if flavor == "left" else Alphabet.prime(k)


def _sum_census(windows, alphabet) -> dict:
    """The summed censuses of the windows; windows sharing a descent set
    share a census, so each descent set's census is taken once, times the
    number of windows that have it."""
    total: dict = {}
    for (n, des, anchored), times in Counter(chain_rules(w, alphabet) for w in windows).items():
        for key, value in chain_census(n, des, alphabet, anchored).items():
            total[key] = total.get(key, 0) + times * value
    return {k: v for k, v in total.items() if v}


def _bounded_poset(kind: str, n: int, rng: random.Random, k_probe: Alphabet, extension_cap: int = 1500, map_cap: int = 120_000):
    """Draw a random order, re-drawing with more retained covers whenever the
    extension count or the map count would make brute enumeration slow."""
    for keep in (0.6, 0.75, 0.9, 1.0):
        poset = random_poset(n, rng, keep) if kind == "A" else random_signed_poset(n, rng, keep)
        extensions = poset.linear_extensions()
        if len(extensions) > extension_cap:
            continue
        projected = sum(epp_count(w, k_probe) for w in extensions)
        if projected <= map_cap:
            return poset, extensions
    return poset, extensions  # keep=1.0 is a chain: always small


def check_extensions(bounds: Bounds, posets_per_n: int = 25, k_max: int = 3) -> CheckResult:
    """Census additivity: the census of an order equals the sum of the
    censuses of its linear extensions, for random orders of both kinds."""
    n_max = bounds.cap(6)
    rng = random.Random(bounds.seed)
    failures = []
    examined = {}
    for kind in ("A", "B"):
        probe = _alphabet_for(kind, k_max)
        alphabets = [_alphabet_for(kind, k) for k in range(1, k_max + 1)]
        seen = examined[kind] = {"orders": 0, "extensions": 0, "maps": 0}
        for n in range(1, n_max + 1):
            for trial in range(posets_per_n):
                poset, extensions = _bounded_poset(kind, n, rng, probe)
                seen["orders"] += 1
                for k, alphabet in enumerate(alphabets, start=1):
                    direct = poset_epp_census(poset, alphabet)
                    seen["maps"] += sum(direct.values())
                    seen["extensions"] += len(extensions)
                    if direct != _sum_census(extensions, alphabet):
                        failures.append({"kind": kind, "n": n, "trial": trial, "k": k})
    quoted = "; ".join(
        f"{kind}: {seen['orders']} orders, {seen['maps']} maps, {seen['extensions']} extension censuses"
        for kind, seen in examined.items()
    )
    return _result(
        "extensions", not failures,
        f"additivity over extensions, {posets_per_n} random orders per n<=%d per kind, k<=%d" % (n_max, k_max),
        failures, quoted, examined=examined,
    )


def check_formulas(bounds: Bounds) -> CheckResult:
    """The subset-expansion of each peak series evaluates, in n+1 variables,
    to the brute census of every window with that peak set."""
    n_a = bounds.cap(5)
    n_b = bounds.cap(4)
    failures = []
    for n in range(1, n_a + 1):
        k = n + 1
        prime, left = Alphabet.prime(k), Alphabet.left(k)
        for w in enumerate_group(n, "A"):
            interior = peak_set(w, "interiorPeak").members
            if evaluate(peak_function(interior, n), k) != _fractions(epp_census(w, prime)):
                failures.append({"flavor": "interior", "window": str(w)})
            left_set = peak_set(w, "leftPeak").members
            if evaluate(peak_function_b(left_set, n), k) != _fractions(epp_census(w, left)):
                failures.append({"flavor": "left", "window": str(w)})
    for n in range(1, n_b + 1):
        k = n + 1
        pm = Alphabet.plus_minus(k)
        for w in enumerate_group(n, "B"):
            members = peak_set(w, "typeBPeak").members
            if evaluate(peak_function_b(members, n), k) != _fractions(epp_census(w, pm)):
                failures.append({"flavor": "typeB", "window": str(w)})
    return _result(
        "formulas", not failures,
        f"series = census at k=n+1, every window, n<={n_a} (ordinary) / n<={n_b} (signed)",
        failures,
    )


def _fractions(census: dict) -> dict:
    return {key: Fraction(value) for key, value in census.items()}


def check_bipartite(bounds: Bounds, k: int = 3) -> CheckResult:
    """Pair-alphabet censuses factor through ordered factorizations: the
    census over the up-down product alphabet equals the factorization sum."""
    n_a = bounds.cap(4)
    n_b = bounds.cap(3)
    failures = []
    pairs_a = [
        ("prime*prime", Alphabet.prime(k), Alphabet.prime(k)),
        ("left*prime", Alphabet.left(k), Alphabet.prime(k)),
    ]
    for n in range(1, n_a + 1):
        for label, first, second in pairs_a:
            product = Alphabet.product(first, second)
            for w in enumerate_group(n, "A"):
                if epp_census(w, product) != factorization_census(w, first, second):
                    failures.append({"pair": label, "window": str(w)})
    pm = Alphabet.plus_minus(k)
    product_b = Alphabet.product(pm, pm)
    for n in range(1, n_b + 1):
        for w in enumerate_group(n, "B"):
            if epp_census(w, product_b) != factorization_census(w, pm, pm):
                failures.append({"pair": "pm*pm", "window": str(w)})
    return _result(
        "bipartite", not failures,
        f"pair-alphabet census factorizations at k={k}, n<={n_a} (ordinary) / n<={n_b} (signed)",
        failures,
    )


_DUALITY_PLANS = (("A", "interiorPeak", 5), ("A", "leftPeak", 5), ("B", "typeBPeak", 4))


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
            audit = representative_audit(n, kind, flavor)
            if not audit["consistent"]:
                failures.append({"kind": kind, "flavor": flavor, "n": n, "stage": "audit",
                                 "witness": {key: audit[key] for key in ("class", "windows", "differences")}})
    return _result("duality", not failures, "class-sum products = tabulated constants, audits clean", failures)


def check_closure(bounds: Bounds) -> CheckResult:
    """Span closure with Fibonacci dimensions for the three peak statistics,
    descent-span containment for the signed one, and the two-sided ideal
    property of the interior span inside the left span."""
    failures = []
    dims = {"interiorPeak": -1, "leftPeak": 0, "typeBPeak": 1}
    for kind, flavor, default in _DUALITY_PLANS:
        for n in range(1, bounds.cap(default) + 1):
            report = closure_check(n, kind, flavor)
            expected = fibonacci(n + dims[flavor])
            if not report["closed"] or report["dim"] != expected:
                failures.append({"kind": kind, "flavor": flavor, "n": n,
                                 "closed": report["closed"], "dim": report["dim"],
                                 "expected_dim": expected, "certificate": report["certificate"]})
    for n in range(1, bounds.cap(4) + 1):
        if not descent_algebra_containment(n, "B", "typeBPeak"):
            failures.append({"stage": "descent containment", "n": n})
    for n in range(1, bounds.cap(5) + 1):
        inner = list(class_sums(n, "A", "interiorPeak").values())
        outer = list(class_sums(n, "A", "leftPeak").values())
        report = ideal_check(inner, outer)
        if not report["ideal"]:
            failures.append({"stage": "ideal", "n": n, "witness": report})
    return _result("closure", not failures, "spans closed with Fibonacci dimensions; ideal and containment hold", failures)


def check_idempotents(bounds: Bounds) -> CheckResult:
    """The generating polynomial is multiplicative, its coefficients are
    orthogonal idempotents matching the peak-number span, and wrong-parity
    coefficients vanish."""
    n_max = bounds.cap(6)
    failures = []
    for n in range(1, n_max + 1):
        report = verify_rho_multiplicativity(n)
        if not report["multiplicative"]:
            failures.append({"n": n, "stage": "multiplicativity", "report": {
                "parity_ok": report["parity_ok"], "mismatches": report["mismatches"]}})
            continue
        basis = eulerian_basis(n, "A", "interior")
        idempotents = rho_idempotents(n)
        if len(idempotents) != (n + 1) // 2 or not spans_agree(basis, idempotents):
            failures.append({"n": n, "stage": "span"})
        if not commutes_pairwise(basis):
            failures.append({"n": n, "stage": "commutativity"})
    return _result("idempotents", not failures, f"orthogonal idempotents and matching spans, n<={n_max}", failures)


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
        sums = list(class_sums(4, "A", "rightPeak", mode="number").values())
        grown = multiplicative_closure(sums)
        if not grown["dim_closure"] < group_order(4, "A"):
            failures.append({"stage": "right-peak-count closure not proper", "report": grown})
    else:
        inconclusive.append("A:rightPeak:number (properness needs n=4)")
    data = {"failures": failures, "inconclusive": inconclusive, "battery": reports,
            "right_number_closure": grown}
    if failures:
        return CheckResult("negatives", False, f"{len(failures)} failure(s); first: {failures[0]}", data)
    witnesses = ", ".join(f"{r['statistic']}@n={r['n']}" for r in reports if not r["control"] and not r["closed"])
    note = f"; inconclusive at this bound: {len(inconclusive)}" if inconclusive else ""
    return CheckResult("negatives", True, f"witnesses: {witnesses}; control closed{note}", data)


def check_oracles(bounds: Bounds) -> CheckResult:
    """Out-of-sample agreement of the counting polynomials, and the
    quasi-shuffle product against truncated evaluation."""
    n_max = bounds.cap(5)
    failures = []
    for n in range(1, n_max + 1):
        polys = {i: order_polynomial(i, n) for i in realized_peak_counts(n)}
        for w in enumerate_group(n, "A"):
            i = len(peak_set(w, "interiorPeak").members)
            for k in (n + 1, n + 2):
                if polys[i].evaluate(k) != epp_count(w, Alphabet.prime(k)):
                    failures.append({"stage": "order polynomial", "window": str(w), "k": k})
    k = 3
    for typeB in (False, True):
        pool = [c for d in range(0, 5) for c in compositions(d, typeB)]
        for ca in pool:
            for cb in pool:
                if ca.degree + cb.degree > 4:
                    continue
                a = QSymElement("M", typeB, {ca: Fraction(1)})
                b = QSymElement("M", typeB, {cb: Fraction(1)})
                lhs = evaluate(quasi_shuffle(a, b), k)
                rhs = polynomial_product(evaluate(a, k), evaluate(b, k))
                if lhs != rhs:
                    failures.append({"stage": "quasi-shuffle", "a": str(ca), "b": str(cb)})
    return _result(
        "oracles", not failures,
        f"counting polynomials out-of-sample n<={n_max}; quasi-shuffle = evaluation product (deg<=4, k={k})",
        failures,
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
    order."""
    selected = list(CHECKS) if names is None else list(names)
    unknown = [name for name in selected if name not in CHECKS]
    if unknown:
        raise ValueError(f"unknown checks: {unknown}")
    return [CHECKS[name](bounds) for name in selected]
