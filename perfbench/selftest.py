"""Self-test of the benchmark harness at tiny bounds (a few seconds).

    python3 perfbench/selftest.py

Runs every check at Bounds(n_max=3) and a two-query `tables` sequence, and
exits non-zero unless:
- the right expectations give no failed operation;
- a deliberately wrong expected verdict, and a wrong table digest, are
  counted as failed operations;
- two traced runs report identical per-layer counts;
- the tracer reports a wrapped name that does not exist as absent.
"""

from __future__ import annotations

import sys

import run
import tracer

TINY_CHECKS = {"type": "checks", "checks": run.ALL_CHECKS, "n_max": 3, "posets_per_n": 1}
TINY_TABLES = {"type": "cli", "queries": (("A", 3, "interior", "set"),), "order": (0, 0)}


def result(name: str, spec: dict, trace: bool = False, **overrides) -> dict:
    return run.run(f"selftest-{name}", 0, 1, trace, spec=spec, **overrides)["result"]


def counts(result_line: dict) -> dict:
    return {name: metric["value"] for name, metric in result_line["metrics"].items()
            if metric["unit"] in ("count", "ratio")}


def absent_names() -> list[str]:
    """Install a tracer whose plan names a missing function and a missing
    method, in this process."""
    sys.path.insert(0, str(run.ROOT / "src"))
    import peakalg  # noqa: F401  (loads every module the plan names)

    plan = tracer.PLAN + (("qsym:no_such_function", "qsym.no_such_function", "span"),
                          ("linalg:Span.no_such_method", "linalg.no_such_method", "count"))
    probe = tracer.Tracer(plan=plan)
    probe.install()
    return probe.absent()


def main() -> int:
    failures = []

    def expect(condition: bool, what: str) -> None:
        print(("ok   " if condition else "FAIL ") + what)
        if not condition:
            failures.append(what)

    good = result("checks", TINY_CHECKS)
    expect(good["failed"] == 0 and good["attempted"] == len(run.ALL_CHECKS),
           f"all checks at n_max=3 give their expected verdicts ({good['failed']}/{good['attempted']} failed)")
    wrong = {"duality": run.EXPECTED_FINDINGS["duality"]}  # claims closure passes
    bad = result("checks-wrong", TINY_CHECKS, expected=wrong)
    expect(bad["failed"] == 1 and not bad["correct"],
           f"a wrong expected closure verdict counts as failed ({bad['failed']}/{bad['attempted']})")

    tables = result("tables", TINY_TABLES)
    expect(tables["failed"] == 0 and tables["attempted"] == 2,
           f"a two-query tables sequence is correct ({tables['failed']}/{tables['attempted']} failed)")
    digests = {"A 3 interior set": "0" * 20}
    bad_tables = result("tables-wrong", TINY_TABLES, digests=digests)
    expect(bad_tables["failed"] == 2, f"a wrong digest counts as failed ({bad_tables['failed']}/2)")

    for name, spec in (("checks", TINY_CHECKS), ("tables", TINY_TABLES)):
        first = counts(result(f"{name}-trace1", spec, trace=True))
        second = counts(result(f"{name}-trace2", spec, trace=True))
        differing = sorted(key for key in first if first[key] != second[key])
        expect(not differing and any(first.values()),
               f"{name}: per-layer counts of two traced runs are identical {differing or ''}")

    absent = absent_names()
    expect(absent == ["linalg.no_such_method", "qsym.no_such_function"],
           f"missing wrapped names are reported absent, present ones are not {absent}")

    print(f"{len(failures)} self-test failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
