"""The bundled verification suite: bounded runs and report shapes."""

import pytest

from peakalg.verify import (
    CHECKS,
    Bounds,
    CheckResult,
    check_duality,
    check_examples,
    check_extensions,
    check_negatives,
    check_ranks,
    run_suite,
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
