"""The bundled verification suite: bounded runs and report shapes."""

import random

import pytest

from peakalg.alphabets import Alphabet
from peakalg.enriched import epp_count
from peakalg import verify
from peakalg.posets import random_poset, random_signed_poset
from peakalg.verify import (
    CHECKS,
    Bounds,
    CheckResult,
    check_closure,
    check_duality,
    check_examples,
    check_extensions,
    check_idempotents,
    check_negatives,
    check_ranks,
    run_suite,
    _bounded_poset,
)


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


def test_negatives_check_is_inconclusive_at_a_short_bound():
    result = check_negatives(Bounds(n_max=2))
    assert result.passed
    assert result.data["inconclusive"]


def test_run_suite_order_and_selection():
    results = run_suite(["ranks", "examples"], Bounds(n_max=4))
    assert [r.name for r in results] == ["ranks", "examples"]
    assert all(r.passed for r in results)


def test_bounds_reject_n_max_below_one():
    for n_max in (0, -1):
        with pytest.raises(ValueError):
            Bounds(n_max=n_max)


def test_bounded_orders_match_a_count_per_extension():
    # the projected map count is taken once per descent set; counting every
    # extension on its own projects the same count, so the same orders are
    # drawn (a small map cap makes re-draws happen)
    redraws = []

    def drawn_one_by_one(kind, n, rng, probe, map_cap):
        for keep in (0.6, 0.75, 0.9, 1.0):
            poset = random_poset(n, rng, keep) if kind == "A" else random_signed_poset(n, rng, keep)
            extensions = poset.linear_extensions()
            if len(extensions) <= 1500 and sum(epp_count(w, probe) for w in extensions) <= map_cap:
                break
            redraws.append((kind, n))
        return poset, extensions

    for kind, probe in (("A", Alphabet.prime(3)), ("B", Alphabet.plus_minus(3))):
        for n in range(1, 6):
            ours, reference = random.Random(n), random.Random(n)
            for _ in range(8):
                expected = drawn_one_by_one(kind, n, reference, probe, 3000)
                assert _bounded_poset(kind, n, ours, probe, map_cap=3000) == expected
            assert ours.random() == reference.random()
    assert {kind for kind, _ in redraws} == {"A", "B"}


def test_extensions_check_reports_what_it_examined():
    # at n = 1 every order is a single label: a labeled one has one
    # extension and 2k maps into prime(k); a signed one is the antichain
    # (extensions 1 and -1, 4k+1 maps into plusMinus(k)) or a chain through
    # 0 (one extension, 2k+1 maps)
    result = check_extensions(Bounds(n_max=1), posets_per_n=3, k_max=2)
    assert result.passed
    examined = result.data["examined"]
    assert examined["A"] == {"orders": 3, "extensions": 3 * 2, "maps": 3 * (2 + 4)}
    signed = examined["B"]
    antichains = signed["extensions"] // 2 - 3
    assert signed["orders"] == 3 and 0 <= antichains <= 3
    assert signed["maps"] == antichains * (5 + 9) + (3 - antichains) * (3 + 5)
    for kind, seen in examined.items():
        assert f"{kind}: {seen['orders']} orders, {seen['maps']} maps, {seen['extensions']} extension" in result.details
