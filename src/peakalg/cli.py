"""Command-line surface.

Every subcommand computes a JSON-serializable payload first; text and CSV
renderings are derived from it, so the machine format is canonical: the
payload as `json.dumps` writes it, on one line.  Each subcommand declares
only the flags it reads and imports the modules it runs, so a `structure` or
`closure` process loads no more than `permutations`, `group_algebra` and
`linalg`, and a `peaks` process only `permutations`.
Exit codes: 0 on success, 1 when a requested verification fails, 2 on usage
errors.  The kind, flavor and window of a query are resolved in one place:
a signed flavor or a negative entry asks for kind B, and an explicit
`--kind A` beside either is a usage error.  Every refused value (a size
below 1 or over the default bound, a malformed window, an unknown flavor, a
contradicting kind, a value the library refuses) prints the one
machine-readable `"usage"` error record on stderr; an unknown or missing
flag prints argparse's usage message instead.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass

from .permutations import (
    ELEMENT_TYPES,
    FIBONACCI_SHIFT,
    GroupElement,
    StatSet,
    FLAVORS,
    SIGNED_FLAVORS,
    stat_set,
    _parse_ints,
)

DEFAULT_BOUNDS = {"A": 8, "B": 6}

FLAVOR_ALIASES = {
    "interior": "interiorPeak",
    "left": "leftPeak",
    "typeB": "typeBPeak",
    "right": "rightPeak",
    "exterior": "exteriorPeak",
}


def _enforce_bound(n: int, kind: str, allow_large: bool, name: str = "n") -> None:
    limit = DEFAULT_BOUNDS[kind]
    if n > limit and not allow_large:
        raise ValueError(
            f"{name}={n} exceeds the default bound {limit} for kind {kind}; "
            "pass --allow-large to acknowledge the cost"
        )


def _require_n(ns: argparse.Namespace, kind: str) -> None:
    if ns.n is None:
        raise ValueError("--n is required")
    _enforce_bound(ns.n, kind, ns.allow_large)


@dataclass
class Output:
    payload: dict
    rows: list[dict]
    text: str


def _canonical_flavor(name: str, kind: str) -> str:
    if name == "descent":
        return "descent" + kind
    flavor = FLAVOR_ALIASES.get(name, name)
    if flavor not in FLAVORS:
        raise ValueError(f"unknown flavor: {name}")
    return flavor


def _resolve(kind: str | None, flavors: list[str], window: str | None = None
             ) -> tuple[str, list[str], GroupElement | None]:
    """The kind, canonical flavors and window of a query.  A signed flavor,
    by alias or full name, or a negative entry of the window asks for kind
    B, and an explicit `--kind A` beside either is refused; otherwise the
    kind is the one given, or A."""
    values = None if window is None else _parse_ints(window)
    if values == ():
        raise ValueError("the window is empty; a size must be at least 1")
    signed = any(FLAVOR_ALIASES.get(f, f) in SIGNED_FLAVORS for f in flavors) or any(v < 0 for v in values or ())
    if signed and kind == "A":
        raise ValueError("--kind A names S_n, but a signed flavor or a negative entry names B_n")
    kind = "B" if signed else kind or "A"
    element = None if values is None else ELEMENT_TYPES[kind](values)
    return kind, [_canonical_flavor(flavor, kind) for flavor in flavors], element


def _parse_members(text: str | None) -> list[int]:
    if text is None or text.strip() in ("", "{}", "none"):
        return []
    try:
        return sorted(_parse_ints(text.strip().strip("{}")))
    except ValueError:
        raise ValueError(f"not a set of integers: {text!r}") from None


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (Output, exit_code)


def _cmd_peaks(ns: argparse.Namespace) -> tuple[Output, int]:
    kind, flavors, window = _resolve(ns.kind, [] if ns.flavor is None else [ns.flavor], ns.window)
    flavors = flavors or [f for f in FLAVORS if kind == "B" or f not in SIGNED_FLAVORS]
    stats = {flavor: stat_set(window, flavor) for flavor in flavors}
    payload = {
        "window": str(window),
        "kind": kind,
        "statistics": {flavor: sorted(s.members) for flavor, s in stats.items()},
    }
    rows = [{"flavor": flavor, "members": str(s)} for flavor, s in stats.items()]
    if len(stats) == 1:
        text = str(next(iter(stats.values())))
    else:
        text = "\n".join(f"{flavor:13s} {s}" for flavor, s in stats.items())
    return Output(payload, rows, text), 0


def _cmd_extensions(ns: argparse.Namespace) -> tuple[Output, int]:
    from .posets import LabeledPoset, SignedPoset, parse_covers

    try:
        if ns.file == "-":
            source = sys.stdin.read()
        else:
            with open(ns.file) as handle:
                source = handle.read()
    except OSError as exc:
        raise ValueError(str(exc)) from None
    largest, covers = parse_covers(source)
    n = largest if ns.n is None else ns.n
    if n == 0:
        raise ValueError("the order names no nonzero label; pass --n to give its size")
    # bounded before the order and its transitive closure are built
    _enforce_bound(n, "B" if ns.signed else "A", ns.allow_large)
    poset = (SignedPoset if ns.signed else LabeledPoset).from_covers(n, covers)
    extensions = poset.linear_extensions()
    payload = {
        "n": poset.n,
        "signed": ns.signed,
        "count": len(extensions),
        "extensions": [str(w) for w in extensions],
    }
    rows = [{"window": str(w)} for w in extensions]
    text = "\n".join(payload["extensions"] + [f"count: {len(extensions)}"])
    return Output(payload, rows, text), 0


# alphabet name -> its `Alphabet` factory method
_ALPHABETS = {"prime": "prime", "left": "left", "plusMinus": "plus_minus"}


def _cmd_census(ns: argparse.Namespace) -> tuple[Output, int]:
    from .alphabets import Alphabet
    from .enriched import epp_census

    kind, _, window = _resolve(ns.kind, [], ns.window)
    # bounded before any alphabet is built: the census grows with both sizes
    _enforce_bound(window.n, kind, ns.allow_large)
    _enforce_bound(ns.k, "A", ns.allow_large, "k")
    name = ns.alphabet or ("plusMinus" if kind == "B" else "prime")
    census = epp_census(window, getattr(Alphabet, _ALPHABETS[name])(ns.k))
    entries = [
        {"exponents": list(exponents), "count": count}
        for exponents, count in sorted(census.items())
    ]
    payload = {"window": str(window), "alphabet": name, "k": ns.k, "total": sum(census.values()),
               "entries": entries}
    rows = [{"exponents": " ".join(map(str, e["exponents"])), "count": e["count"]} for e in entries]
    text = "\n".join(
        [f"{e['exponents']} -> {e['count']}" for e in entries] + [f"total: {payload['total']}"]
    )
    return Output(payload, rows, text), 0


def _cmd_qsym(ns: argparse.Namespace) -> tuple[Output, int]:
    from .qsym import peak_series, series_ranks

    flavor = _canonical_flavor(ns.flavor or "interior", "A")
    if flavor not in FIBONACCI_SHIFT:
        raise ValueError(f"no peak series for flavor {flavor}; available: {', '.join(FIBONACCI_SHIFT)}")
    if ns.report_ranks:
        if ns.n is not None and ns.n_max is not None:
            raise ValueError("--n and --n-max both bound the rank report; pass one of them")
        n_max = ns.n_max or ns.n or 7
        # a series is no group element, so the kind-A bound holds for every flavor
        _enforce_bound(n_max, "A", ns.allow_large)
        ranks = []
        for n in range(1, n_max + 1):
            count, rank, target = series_ranks(flavor, n)
            ranks.append({"n": n, "count": count, "rank": rank, "fibonacci": target})
        ok = all(r["rank"] == r["fibonacci"] == r["count"] for r in ranks)
        payload = {"flavor": flavor, "ranks": ranks, "all_match": ok}
        text = "\n".join(
            f"n={r['n']}: sets={r['count']} rank={r['rank']} expected={r['fibonacci']}" for r in ranks
        ) + f"\nall match: {ok}"
        return Output(payload, ranks, text), 0 if ok else 1
    if ns.n is None:
        raise ValueError("--n is required for an expansion")
    if ns.n_max is not None:
        raise ValueError("--n-max bounds only --report-ranks; an expansion reads --n")
    # the series is a sum over all 2^(n-1) subsets, bounded like the ranks above
    _enforce_bound(ns.n, "A", ns.allow_large)
    members = _parse_members(ns.members)
    StatSet.of(flavor, ns.n, members)
    element = peak_series(members, ns.n, typeB=flavor != "interiorPeak", basis=ns.basis)
    terms = [
        {"parts": list(key.parts), "coeff": str(value)}
        for key, value in sorted(element.coeffs.items(), key=lambda kv: (kv[0].length, kv[0].parts))
    ]
    payload = {"flavor": flavor, "n": ns.n, "members": members, "basis": element.basis,
               "typeB": element.typeB, "terms": terms}
    rows = [{"parts": " ".join(map(str, t["parts"])), "coeff": t["coeff"]} for t in terms]
    text = "\n".join(f"{t['coeff']} * {ns.basis}{tuple(t['parts'])}" for t in terms)
    return Output(payload, rows, text), 0


def _cmd_structure(ns: argparse.Namespace) -> tuple[Output, int]:
    from .group_algebra import _key_json, structure_table

    kind, (flavor,), _ = _resolve(ns.kind, [ns.flavor])
    _require_n(ns, kind)
    table = structure_table(ns.n, kind, flavor, ns.mode)
    if ns.fmt == "json":  # a large table is rendered only in the format asked for
        return Output(table.to_payload(), [], ""), 0
    key = [json.dumps(_key_json(k)) for k in table.keys]
    rows = [{"A": key[a], "B": key[b], "C": key[c], "count": v} for (a, b, c), v in table.sorted_entries()]
    text = "\n".join(f"A={r['A']} B={r['B']} C={r['C']}: {r['count']}" for r in rows)
    return Output({}, rows, text), 0


def _cmd_closure(ns: argparse.Namespace) -> tuple[Output, int]:
    from .group_algebra import closure_check, descent_algebra_containment, ideal_check

    # the outer flavor of --ideal-in takes part in the kind rule as --flavor does
    kind, flavors, _ = _resolve(ns.kind, [ns.flavor, ns.ideal_in] if ns.ideal_in else [ns.flavor])
    flavor = flavors[0]
    _require_n(ns, kind)
    n = ns.n
    payload: dict = {"n": n, "kind": kind, "flavor": flavor, "mode": ns.mode}
    checks_passed = True
    report = closure_check(n, kind, flavor, ns.mode)
    payload["closure"] = report
    checks_passed &= report["closed"]
    if ns.ideal_in:
        outer_flavor = flavors[1]
        ideal = ideal_check(n, kind, flavor, outer_flavor, ns.mode)
        payload["ideal_in"] = {"outer": outer_flavor, **ideal}
        checks_passed &= ideal["ideal"]
    if ns.descent_containment:
        contained = descent_algebra_containment(n, kind, flavor)
        payload["descent_containment"] = contained
        checks_passed &= contained
    rows = [{"check": "closure", "result": report["closed"], "dim": report["dim"]}]
    lines = [f"closure: {'closed' if report['closed'] else 'NOT closed'} (dim {report['dim']})"]
    if not report["closed"]:
        lines.append(f"  certificate: {json.dumps(report['certificate'])}")
    if "ideal_in" in payload:
        ideal = payload["ideal_in"]
        rows.append({"check": "ideal", "result": ideal["ideal"], "dim": ""})
        lines.append(f"ideal in {ideal['outer']}: {ideal['ideal']}")
        if not ideal["ideal"]:
            lines.append(f"  witness ({ideal['side']} side): {json.dumps(ideal['witness'])}")
    if "descent_containment" in payload:
        rows.append({"check": "descent containment", "result": payload["descent_containment"], "dim": ""})
        lines.append(f"descent containment: {payload['descent_containment']}")
    return Output(payload, rows, "\n".join(lines)), 0 if checks_passed else 1


def _cmd_orderpoly(ns: argparse.Namespace) -> tuple[Output, int]:
    from .eulerian import order_polynomial, realized_peak_counts

    _require_n(ns, "A")
    counts = [ns.peaks] if ns.peaks is not None else realized_peak_counts(ns.n)
    polys = []
    for i in counts:
        poly = order_polynomial(i, ns.n)
        polys.append({
            "peaks": i,
            "coefficients": [str(c) for c in poly.coefficients],
            "values": {str(k): str(poly.evaluate(k)) for k in range(ns.n + 3)},
        })
    payload = {"n": ns.n, "polynomials": polys}
    rows = [{"peaks": p["peaks"], "coefficients": " ".join(p["coefficients"])} for p in polys]
    text = "\n".join(
        f"peaks={p['peaks']}: coefficients (ascending) {p['coefficients']}" for p in polys
    )
    return Output(payload, rows, text), 0


def _cmd_idempotents(ns: argparse.Namespace) -> tuple[Output, int]:
    from .eulerian import rho_idempotents, verify_rho_multiplicativity

    _require_n(ns, "A")
    report = verify_rho_multiplicativity(ns.n)
    elements = rho_idempotents(ns.n)
    serialized = []
    for index, element in enumerate(elements, start=1):
        serialized.append({
            "index": index,
            "peak_count": index - 1,
            "terms": [{"window": str(w), "coeff": str(element.coeffs[key])}
                      for key, w in zip(sorted(element.coeffs), element.support())],
        })
    payload = {"n": ns.n, "report": {k: v for k, v in report.items()}, "idempotents": serialized}
    rows = [{"index": s["index"], "peak_count": s["peak_count"], "terms": len(s["terms"])}
            for s in serialized]
    lines = [f"multiplicative: {report['multiplicative']}  degrees: {report['degrees']}  "
             f"sum=identity: {report['sum_equals_identity']}  sum=unit: {report['sum_is_unit']}  "
             f"spans: {report['spans_classes']}  commutative: {report['commutative']}"]
    for s in serialized:
        preview = ", ".join(f"{t['coeff']}*[{t['window']}]" for t in s["terms"][:4])
        suffix = " ..." if len(s["terms"]) > 4 else ""
        lines.append(f"e_{s['index']} (peak count {s['peak_count']}): {preview}{suffix}")
    passed = all(report[key] for key in ("multiplicative", "spans_classes", "commutative"))
    return Output(payload, rows, "\n".join(lines)), 0 if passed else 1


def _cmd_negatives(ns: argparse.Namespace) -> tuple[Output, int]:
    from .eulerian import negative_battery

    n_max = ns.n_max or 6
    _enforce_bound(n_max, "A", ns.allow_large)
    reports = negative_battery(n_max)
    failed = [r for r in reports if not r["control"] and r["closed"]]
    payload = {"n_max": n_max, "reports": reports}
    rows = [{"statistic": r["statistic"], "n": r["n"], "closed": r["closed"],
             "control": r["control"]} for r in reports]
    lines = []
    for r in reports:
        tag = " (control)" if r["control"] else ""
        if r["closed"]:
            lines.append(f"{r['statistic']}{tag}: closed through n={r['n']}")
        else:
            lines.append(
                f"{r['statistic']}: witness at n={r['n']}, span dim {r['spanDim']} grows to {r['closureDim']}"
            )
    return Output(payload, rows, "\n".join(lines)), 0 if not failed else 1


def _cmd_verify(ns: argparse.Namespace) -> tuple[Output, int]:
    from .verify import Bounds, run_suite

    names = None if ns.checks is None else [name.strip() for name in ns.checks.split(",") if name.strip()]
    if ns.n_max is not None:
        _enforce_bound(ns.n_max, "A", ns.allow_large)
    bounds = Bounds(n_max=ns.n_max, seed=ns.seed)
    results = run_suite(names, bounds)
    passed = sum(1 for r in results if r.passed)
    payload = {
        "n_max": ns.n_max,
        "seed": ns.seed,
        "passed": passed,
        "total": len(results),
        "results": [r.to_dict() for r in results],
    }
    rows = [{"check": r.name, "passed": r.passed, "details": r.details} for r in results]
    lines = [f"{'PASS' if r.passed else 'FAIL'}  {r.name:12s} {r.details}" for r in results]
    lines.append(f"{passed}/{len(results)} checks passed")
    return Output(payload, rows, "\n".join(lines)), 0 if passed == len(results) else 1


# ---------------------------------------------------------------------------


def _render(output: Output, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(output.payload, default=str)
    if fmt == "csv":
        buffer = io.StringIO()
        if output.rows:
            writer = csv.DictWriter(buffer, fieldnames=list(output.rows[0]))
            writer.writeheader()
            writer.writerows(output.rows)
        return buffer.getvalue().rstrip("\n")
    return output.text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="peakalg",
        description="Peak statistics of (signed) permutations, their quasisymmetric "
        "series, and the associated group-algebra spans.",
    )
    # flags shared by several subcommands, each declared where it is read
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", dest="fmt", choices=("text", "json", "csv"), default="text")
    kind = argparse.ArgumentParser(add_help=False)
    kind.add_argument("--kind", choices=("A", "B"), default=None, help="window kind: A ordinary, B signed")
    large = argparse.ArgumentParser(add_help=False)
    large.add_argument("--allow-large", action="store_true",
                       help="lift the default size bounds (A: n<=8, B: n<=6)")
    size = argparse.ArgumentParser(add_help=False, parents=[large])
    size.add_argument("--n", type=int, default=None)
    n_max = argparse.ArgumentParser(add_help=False)
    n_max.add_argument("--n-max", dest="n_max", type=int, default=None)

    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, parents, summary):
        # no abbreviations: `verify --n 3` must not be read as `--n-max 3`
        p = sub.add_parser(name, parents=[fmt, *parents], help=summary, allow_abbrev=False)
        p.set_defaults(handler=handler)
        return p

    p = command("peaks", _cmd_peaks, [kind], "statistics of one window")
    p.add_argument("--window", required=True)
    p.add_argument("--flavor", default=None)

    p = command("extensions", _cmd_extensions, [size], "linear extensions of a poset file")
    p.add_argument("--file", required=True, help="poset file ('-' for stdin), lines 'a<b'")
    p.add_argument("--signed", action="store_true")

    p = command("census", _cmd_census, [kind, large], "enriched-map census of a window")
    p.add_argument("--window", required=True)
    p.add_argument("--alphabet", choices=tuple(_ALPHABETS), default=None)
    p.add_argument("--k", type=int, default=2, help="alphabet size parameter")

    p = command("qsym", _cmd_qsym, [size, n_max], "peak series expansions and rank reports")
    p.add_argument("--flavor", default="interior")
    p.add_argument("--members", default=None, help="peak set, e.g. '{0,3}' or '0,3'")
    p.add_argument("--basis", choices=("M", "F"), default="M")
    p.add_argument("--report-ranks", action="store_true")

    p = command("structure", _cmd_structure, [kind, size], "structure-constant tables")
    p.add_argument("--flavor", required=True)
    p.add_argument("--mode", choices=("set", "number"), default="set")

    p = command("closure", _cmd_closure, [kind, size], "span closure / ideal / containment checks")
    p.add_argument("--flavor", required=True)
    p.add_argument("--mode", choices=("set", "number"), default="set")
    p.add_argument("--ideal-in", default=None, help="also check the classes form an ideal in this flavor's span")
    p.add_argument("--descent-containment", action="store_true")

    p = command("orderpoly", _cmd_orderpoly, [size], "enriched counting polynomials")
    p.add_argument("--peaks", type=int, default=None)

    command("idempotents", _cmd_idempotents, [size], "orthogonal idempotents and their checks")

    command("negatives", _cmd_negatives, [n_max, large], "battery of non-closing statistics")

    p = command("verify", _cmd_verify, [n_max, large], "run the verification suite")
    p.add_argument("--checks", default=None, help="comma-separated subset of checks")
    p.add_argument("--seed", type=int, default=20260825)

    return parser


def _mend_argv(argv: list[str]) -> list[str]:
    """Glue window values onto their flag so that signed windows such as
    `--window -2,3,4,-5,1` survive option parsing."""
    out: list[str] = []
    i = 0
    while i < len(argv):
        token = argv[i]
        if token == "--window" and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{token}={argv[i + 1]}")
            i += 2
        else:
            out.append(token)
            i += 1
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        ns = parser.parse_args(_mend_argv(list(argv)))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        for flag, value in (("--n", getattr(ns, "n", None)), ("--n-max", getattr(ns, "n_max", None)),
                            ("--k", getattr(ns, "k", None))):
            if value is not None and value < 1:
                raise ValueError(f"{flag} must be at least 1, got {value}")
        output, code = ns.handler(ns)
    except ValueError as exc:  # every refused value, wherever it is found
        record = {"error": {"code": "usage", "message": str(exc)}}
        print(json.dumps(record), file=sys.stderr)
        return 2
    try:
        print(_render(output, ns.fmt))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early (`| head`); send what is still buffered to
        # devnull, so that the flush at exit stays quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
