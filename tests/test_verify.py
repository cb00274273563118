"""The bundled verification suite: bounded runs and report shapes."""

import random
from fractions import Fraction

import pytest

from peakalg.alphabets import Alphabet
from peakalg import enriched, eulerian, verify
from peakalg.permutations import descent_set, enumerate_group, peak_set
from peakalg.posets import LabeledPoset, SignedPoset, random_poset, random_signed_poset
from peakalg.verify import (
    CHECKS,
    Bounds,
    CheckResult,
    check_bipartite,
    check_closure,
    check_duality,
    check_examples,
    check_extensions,
    check_formulas,
    check_idempotents,
    check_negatives,
    check_ranks,
    run_suite,
)

import peak_oracle as oracle


def test_check_listing():
    assert list(CHECKS) == [
        "examples",
        "ranks",
        "extensions",
        "formulas",
        "bipartite",
        "duality",
        "closure",
        "idempotents",
        "negatives",
        "oracles",
    ]


def test_examples_check_passes():
    result = check_examples(Bounds())
    assert result.passed
    assert result.name == "examples"


def test_ranks_check_passes_at_reduced_bound():
    result = check_ranks(Bounds(n_max=5))
    assert result.passed
    assert result.data["failures"] == []


def test_result_to_dict():
    result = CheckResult("demo", True, "fine", {"rows": [1]})
    assert result.to_dict() == {
        "name": "demo",
        "passed": True,
        "details": "fine",
        "data": {"rows": [1]},
    }


def test_duality_check_reports_the_signed_failure():
    # at size three the signed statistic genuinely fails, at both stages and
    # nowhere else; the check says so
    result = check_duality(Bounds(n_max=3))
    assert not result.passed
    assert {(f["kind"], f["flavor"], f["n"], f["stage"]) for f in result.data["failures"]} == {
        ("B", "typeBPeak", 3, "products"),
        ("B", "typeBPeak", 3, "audit"),
    }


def test_duality_check_passes_below_the_failure():
    result = check_duality(Bounds(n_max=2))
    assert result.passed
    # duality and closure both name the plans and sizes they examined
    quoted = "; examined A:interiorPeak n=1..2, A:leftPeak n=1..2, B:typeBPeak n=1..2"
    assert result.details.endswith(quoted)
    assert check_closure(Bounds(n_max=2)).details.endswith(quoted)


def test_idempotents_check_reports_class_sums_that_do_not_commute(monkeypatch):
    original = verify.verify_rho_multiplicativity
    monkeypatch.setattr(verify, "verify_rho_multiplicativity", lambda n: {**original(n), "commutative": n != 3})
    result = check_idempotents(Bounds(n_max=4))
    assert result.data["failures"] == [{"n": 3, "stage": "commutativity"}]


def test_idempotents_check_reports_a_coefficient_that_vanished(monkeypatch):
    # with its top allowed degree zeroed at n = 5, rho stays multiplicative,
    # but its two remaining idempotents no longer span the three class sums
    original = eulerian.rho_by_peak_count

    def zeroed(n):
        table = original(n)
        if n == 5:
            table[5] = {i: Fraction(0) for i in table[5]}
        return table

    monkeypatch.setattr(eulerian, "rho_by_peak_count", zeroed)
    result = check_idempotents(Bounds())
    assert result.data["failures"] == [{"n": 5, "stage": "span"}]


def test_idempotents_check_reports_what_it_examined():
    # per size, the windows tallied (one of each descent class of S_n) and
    # the distinct (peak count, counts) profiles they gave
    result = check_idempotents(Bounds(n_max=5))
    assert result.passed
    assert result.data["examined"] == {
        1: {"windows_tallied": 1, "profiles": 1},
        2: {"windows_tallied": 2, "profiles": 1},
        3: {"windows_tallied": 4, "profiles": 2},
        4: {"windows_tallied": 8, "profiles": 2},
        5: {"windows_tallied": 16, "profiles": 3},
    }
    assert result.details.endswith("; one window per descent class: n=1: 1 windows, 1 profiles; "
                                   "n=2: 2 windows, 1 profiles; n=3: 4 windows, 2 profiles; "
                                   "n=4: 8 windows, 2 profiles; n=5: 16 windows, 3 profiles")


def test_negatives_check_is_inconclusive_at_a_short_bound():
    result = check_negatives(Bounds(n_max=2))
    assert result.passed
    assert result.data["inconclusive"]


def test_run_suite_order_and_selection():
    results = run_suite(["ranks", "examples"], Bounds(n_max=4))
    assert [r.name for r in results] == ["ranks", "examples"]
    assert all(r.passed for r in results)


def test_run_suite_refuses_an_empty_or_unknown_selection():
    # a suite that ran nothing passed nothing; the message lists the checks
    for names, problem in (([], "no checks selected"), (["bogus"], "unknown checks")):
        with pytest.raises(ValueError, match=problem) as refused:
            run_suite(names, Bounds(n_max=2))
        assert f"available: {', '.join(CHECKS)}" in str(refused.value)


def test_bounds_reject_n_max_below_one():
    for n_max in (0, -1):
        with pytest.raises(ValueError):
            Bounds(n_max=n_max)


def test_extensions_check_replays_its_draws():
    # each order is drawn once from the seeded generator; a fresh generator
    # replays the draws, and the oracle's extension filter and map walk
    # recount what the check examined
    bounds = Bounds(n_max=4)
    result = check_extensions(bounds, posets_per_n=5)
    assert result.passed
    rng = random.Random(bounds.seed)
    expected = {}
    for kind, draw in (("A", random_poset), ("B", random_signed_poset)):
        seen = expected[kind] = {"orders": 0, "extensions": 0, "maps": 0}
        for n in range(1, 5):
            for _ in range(5):
                P = draw(n, rng)
                seen["orders"] += 1
                extensions = len(oracle.linear_extensions(P))
                for k in range(1, 4):
                    alphabet = Alphabet.plus_minus(k) if kind == "B" else Alphabet.prime(k)
                    seen["extensions"] += extensions
                    seen["maps"] += len(oracle.poset_maps(P, alphabet))
    assert result.data["examined"] == expected


def test_extensions_check_reports_what_it_examined():
    # at n = 1 every order is a single label: a labeled one has one
    # extension and 2k maps into prime(k), k = 1..3; a signed one is the
    # antichain (extensions 1 and -1, 4k+1 maps into plusMinus(k)) or a
    # chain through 0 (one extension, 2k+1 maps)
    result = check_extensions(Bounds(n_max=1), posets_per_n=3)
    assert result.passed
    examined = result.data["examined"]
    assert examined["A"] == {"orders": 3, "extensions": 3 * 3, "maps": 3 * (2 + 4 + 6)}
    signed = examined["B"]
    antichains = signed["extensions"] // 3 - 3
    assert signed["orders"] == 3 and 0 <= antichains <= 3
    assert signed["maps"] == antichains * (5 + 9 + 13) + (3 - antichains) * (3 + 5 + 7)
    for kind, seen in examined.items():
        assert f"{kind}: {seen['orders']} orders, {seen['maps']} maps, {seen['extensions']} extension" in result.details


def test_extensions_check_refuses_to_draw_nothing():
    # with no order drawn the check would pass on 0 orders
    for posets_per_n in (0, -1):
        with pytest.raises(ValueError, match="at least 1"):
            check_extensions(Bounds(n_max=2), posets_per_n=posets_per_n)


def test_extensions_check_lists_no_extension_and_walks_no_map(monkeypatch):
    # the extensions are tallied by descent set and the direct census is
    # counted label by label (the library has no map walk), so the check
    # passes with the extension listings refused
    def refuse(*args):
        raise AssertionError("listed")

    monkeypatch.setattr(LabeledPoset, "linear_extensions", refuse)
    monkeypatch.setattr(SignedPoset, "linear_extensions", refuse)
    result = check_extensions(Bounds(n_max=4), posets_per_n=3)
    assert result.passed
    assert all(seen["orders"] == 4 * 3 and seen["maps"] > 0 for seen in result.data["examined"].values())


def test_a_wrong_series_fails_every_window_of_its_peak_set(monkeypatch):
    # each series is evaluated once per size; a wrong one must still be
    # reported once per window that has its peak set, and nowhere else
    original = verify.evaluate
    wrong = verify.peak_series(frozenset({2}), 4)

    def corrupted(element, k):
        values = original(element, k)
        if element == wrong:
            values[next(iter(values))] += 1
        return values

    monkeypatch.setattr(verify, "evaluate", corrupted)
    result = check_formulas(Bounds(n_max=4))
    windows = [w for w in enumerate_group(4, "A") if peak_set(w, "interiorPeak").members == {2}]
    assert len(windows) > 1
    assert not result.passed
    assert result.data["failures"] == [{"flavor": "interior", "window": str(w)} for w in windows]


def test_a_carried_key_fails_the_formulas_check(monkeypatch):
    # the check compares integer-coded keys; a key (..., 0, x, ...) written
    # as (..., radix, x - 1, ...) would get the same code from an encoder
    # that lets a digit carry, so it must get none and fail every window of
    # its peak set
    original = verify.evaluate
    wrong = verify.peak_series(frozenset(), 2)
    radix = 3  # maps on 2 values into prime(3): every exponent is at most 2

    def carried(element, k):
        values = original(element, k)
        if element == wrong:
            key = next(key for key in values if key[1] == 0 and key[2] > 0)
            values[key[:1] + (radix, key[2] - 1) + key[3:]] = values.pop(key)
        return values

    monkeypatch.setattr(verify, "evaluate", carried)
    result = check_formulas(Bounds(n_max=2))
    assert not result.passed
    assert result.data["failures"] == [{"flavor": "interior", "window": str(w)} for w in enumerate_group(2, "A")]


def test_formulas_check_reports_what_it_examined(monkeypatch):
    # windows: 1 + 2 + 6 of A_n and 2 + 8 + 48 of B_n; series: one per peak
    # set, Fibonacci many (f_{n-1}, f_n, f_{n+1}), each evaluated once
    calls = []
    original = verify.evaluate
    monkeypatch.setattr(verify, "evaluate", lambda element, k: calls.append(k) or original(element, k))
    result = check_formulas(Bounds(n_max=3))
    assert result.passed
    examined = result.data["examined"]
    assert examined == {
        "interior": {"windows": 9, "series": 1 + 1 + 2},
        "left": {"windows": 9, "series": 1 + 2 + 3},
        "typeB": {"windows": 58, "series": 2 + 3 + 5},
    }
    assert len(calls) == sum(seen["series"] for seen in examined.values())
    assert result.details.endswith("; interior: 9 windows, 4 series; left: 9 windows, 6 series; typeB: 58 windows, 10 series")


def test_bipartite_check_reports_what_it_examined(monkeypatch):
    # the quoted product count is the number of census_product calls made:
    # windows of one descent class share a count table, whose census is
    # built once, with one product per descent set of tau
    calls = []
    original = enriched.census_product
    monkeypatch.setattr(enriched, "census_product", lambda *args: calls.append(1) or original(*args))
    result = check_bipartite(Bounds(n_max=3))
    assert result.passed
    examined = result.data["examined"]
    ordinary = {"windows": 1 + 2 + 6, "products": 1 * 1 + 2 * 2 + 4 * 4, "tables": 1 + 2 + 4}
    assert examined == {"prime*prime": ordinary, "left*prime": ordinary,
                        "pm*pm": {"windows": 2 + 8 + 48, "products": 2 * 2 + 4 * 4 + 8 * 8, "tables": 2 + 4 + 8}}
    assert len(calls) == sum(seen["products"] for seen in examined.values())
    for label, seen in examined.items():
        assert f"{label}: {seen['windows']} windows, {seen['products']} products, {seen['tables']} tables" in result.details


def test_bipartite_check_tallies_each_count_table_once(monkeypatch):
    # one count table per window examined, handed to the factorization census:
    # 1 + 2 + 6 windows of A_n for each of two pairs, 2 + 8 + 48 of B_n
    calls = []
    original = enriched.count_table

    def counted(w):
        calls.append(w)
        return original(w)

    monkeypatch.setattr(verify, "count_table", counted)
    monkeypatch.setattr(enriched, "count_table", counted)
    result = check_bipartite(Bounds(n_max=3))
    assert result.passed
    assert len(calls) == sum(seen["windows"] for seen in result.data["examined"].values()) == 76


def test_oracles_check_computes_each_value_once_per_key(monkeypatch):
    # at n <= 3: a map count per (descent set, k), 1 + 2 + 4 descent sets of
    # S_n at k = n+1, n+2; a polynomial per interior peak count, 1 + 1 + 2,
    # each evaluated at those two k; and every quasi-shuffle pair of degree
    # sum <= 4: compositions of 0..4 number 1, 1, 2, 4, 8, making 48 pairs,
    # and pseudo-compositions 1, 2, 4, 8, 16, making 129
    counts, built, values = [], [], []
    original_count, original_build = verify.epp_count, verify.order_polynomial
    original_evaluate = eulerian.RationalPolynomial.evaluate
    monkeypatch.setattr(verify, "epp_count", lambda w, alphabet: counts.append(w) or original_count(w, alphabet))
    monkeypatch.setattr(verify, "order_polynomial", lambda i, n: built.append((i, n)) or original_build(i, n))
    monkeypatch.setattr(eulerian.RationalPolynomial, "evaluate",
                        lambda self, x: values.append(x) or original_evaluate(self, x))
    result = verify.check_oracles(Bounds(n_max=3))
    assert result.passed
    assert (len(counts), len(built), len(values)) == (14, 4, 8)
    assert result.data["examined"] == {"windows": 1 + 2 + 6, "values": 8, "counts": 14, "pairs": 48 + 129}
    assert result.details.endswith("; 9 windows, 8 polynomial values, 14 descent-set counts, 177 quasi-shuffle pairs")


# (check, n_max, {name in verify: stand-in}, the keys of its failure record):
# each stand-in makes the check's library input wrong in one way
_FAILURES = {
    "examples": ("examples", None, {"peak_set": lambda w, flavor: descent_set(w, "descent" + w.kind)},
                 {"window", "flavor", "got"}),
    "ranks": ("ranks", 2, {"series_ranks": lambda flavor, n: (1, 1, 2)}, {"flavor", "n", "count", "rank", "expected"}),
    "extensions": ("extensions", 1, {"census_sum": lambda *args: None}, {"kind", "n", "trial", "k"}),
    "bipartite": ("bipartite", 1, {"coded_factorization_census": lambda *args: None}, {"pair", "window"}),
    "containment": ("closure", 1, {"descent_algebra_containment": lambda *args: False}, {"stage", "n"}),
    "ideal": ("closure", 1, {"ideal_check": lambda *args: {"ideal": False}}, {"stage", "n", "witness"}),
    "multiplicativity": ("idempotents", 1, {"verify_rho_multiplicativity": lambda n: {
        "multiplicative": False, "parity_ok": False, "mismatches": [], "windows_tallied": 1, "profiles": 1}},
        {"n", "stage", "report"}),
    "control": ("negatives", 2, {"negative_battery": lambda n_max: [
        {"statistic": "A:descentA", "kind": "A", "n": n_max, "control": True, "closed": False}]},
        {"statistic", "stage"}),
    "witness": ("negatives", 2, {"negative_battery": lambda n_max: [
        {"statistic": "A:rightPeak", "kind": "A", "n": eulerian.BATTERY_CAPS["A"], "control": False, "closed": True}]},
        {"statistic", "stage", "bound"}),
    "properness": ("negatives", 4, {"negative_battery": lambda n_max: [],
                                    "multiplicative_closure": lambda *args, **kwargs: {"dim_closure": 24}},
                   {"stage", "report"}),
    "order polynomial": ("oracles", 1, {"epp_count": lambda w, alphabet: -1}, {"stage", "window", "k"}),
    "quasi-shuffle": ("oracles", 1, {"quasi_shuffle": lambda a, b: verify.QSymElement.zero(typeB=a.typeB)},
                      {"stage", "a", "b"}),
}


@pytest.mark.parametrize("case", list(_FAILURES))
def test_a_wrong_library_input_is_reported_as_a_failure(monkeypatch, case):
    name, n_max, stand_ins, keys = _FAILURES[case]
    for attribute, stand_in in stand_ins.items():
        monkeypatch.setattr(verify, attribute, stand_in)
    result = CHECKS[name](Bounds(n_max=n_max))
    failures = result.data["failures"]
    assert result.passed is False
    assert failures and result.details.startswith(f"{len(failures)} failure(s); first: {failures[0]}")
    assert all(set(failure) == keys for failure in failures), failures
