"""Command-line surface.

Every subcommand computes a JSON-serializable payload first; text and CSV
renderings are derived from it, so the machine format is canonical.  Exit
codes: 0 on success, 1 when a requested verification fails, 2 on usage
errors (with a machine-readable error record on stderr).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass

from .alphabets import Alphabet
from .enriched import epp_census
from .eulerian import (
    negative_battery,
    order_polynomial,
    realized_peak_counts,
    rho_idempotents,
    verify_rho_multiplicativity,
)
from .group_algebra import (
    _key_json,
    class_sums,
    closure_check,
    descent_algebra_containment,
    ideal_check,
    structure_table,
)
from .permutations import (
    FIBONACCI_SHIFT,
    Permutation,
    SignedPermutation,
    StatSet,
    FLAVORS,
    SIGNED_FLAVORS,
    enumerate_stat_sets,
    fibonacci,
    stat_set,
    _parse_ints,
)
from .posets import parse_poset
from .qsym import (
    m_to_f,
    peak_series,
    rank_of_span,
)
from .verify import CHECKS, Bounds, run_suite

DEFAULT_BOUNDS = {"A": 8, "B": 6}

FLAVOR_ALIASES = {
    "interior": "interiorPeak",
    "left": "leftPeak",
    "typeB": "typeBPeak",
    "right": "rightPeak",
    "exterior": "exteriorPeak",
}


class UsageError(Exception):
    pass


@dataclass
class RunConfig:
    """Validated common settings of one invocation."""

    n: int | None = None
    n_max: int | None = None
    kind: str = "A"
    k: int | None = None
    fmt: str = "text"
    seed: int = 20260825
    allow_large: bool = False

    def __post_init__(self) -> None:
        for flag, value in (("--n", self.n), ("--n-max", self.n_max), ("--k", self.k)):
            if value is not None and value < 1:
                raise UsageError(f"{flag} must be at least 1, got {value}")

    def enforce_bounds(self, n: int | None = None) -> None:
        value = self.n if n is None else n
        if value is None:
            return
        limit = DEFAULT_BOUNDS[self.kind]
        if value > limit and not self.allow_large:
            raise UsageError(
                f"n={value} exceeds the default bound {limit} for kind {self.kind}; "
                "pass --allow-large to acknowledge the cost"
            )


@dataclass
class Output:
    payload: dict
    rows: list[dict]
    text: str


def _canonical_flavor(name: str | None, kind: str) -> str:
    if name is None:
        raise UsageError("--flavor is required here")
    if name == "descent":
        return "descentB" if kind == "B" else "descentA"
    flavor = FLAVOR_ALIASES.get(name, name)
    if flavor not in FLAVORS:
        raise UsageError(f"unknown flavor: {name}")
    return flavor


def _parse_window(text: str, kind: str | None, flavor: str | None) -> Permutation | SignedPermutation:
    values = _parse_ints(text)
    signed = (
        kind == "B"
        or any(v < 0 for v in values)
        or (flavor in SIGNED_FLAVORS if flavor else False)
    )
    try:
        return SignedPermutation(values) if signed else Permutation(values)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _parse_members(text: str | None) -> list[int]:
    if text is None or text.strip() in ("", "{}", "none"):
        return []
    return sorted(_parse_ints(text.strip().strip("{}")))


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (Output, exit_code)


def _cmd_peaks(config: RunConfig, ns: argparse.Namespace) -> tuple[Output, int]:
    window = _parse_window(ns.window, ns.kind, ns.flavor)
    kind = "B" if isinstance(window, SignedPermutation) else "A"
    if ns.flavor is not None:
        flavors = [_canonical_flavor(ns.flavor, kind)]
    else:
        flavors = [f for f in FLAVORS if kind == "B" or f not in ("typeBPeak", "descentB")]
    stats = {}
    for flavor in flavors:
        try:
            stats[flavor] = stat_set(window, flavor)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
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


def _cmd_extensions(config: RunConfig, ns: argparse.Namespace) -> tuple[Output, int]:
    try:
        source = sys.stdin.read() if ns.file == "-" else open(ns.file).read()
    except OSError as exc:
        raise UsageError(str(exc)) from None
    try:
        poset = parse_poset(source, signed=ns.signed, n=config.n)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    config.kind = "B" if ns.signed else "A"
    config.enforce_bounds(poset.n)
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


_ALPHABETS = {"prime": Alphabet.prime, "left": Alphabet.left, "plusMinus": Alphabet.plus_minus}


def _cmd_census(config: RunConfig, ns: argparse.Namespace) -> tuple[Output, int]:
    window = _parse_window(ns.window, ns.kind, None)
    kind = "B" if isinstance(window, SignedPermutation) else "A"
    k = 2 if config.k is None else config.k
    name = ns.alphabet or ("plusMinus" if kind == "B" else "prime")
    if name not in _ALPHABETS:
        raise UsageError(f"unknown alphabet: {name}")
    try:
        census = epp_census(window, _ALPHABETS[name](k))
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    entries = [
        {"exponents": list(exponents), "count": count}
        for exponents, count in sorted(census.items())
    ]
    payload = {"window": str(window), "alphabet": name, "k": k, "total": sum(census.values()),
               "entries": entries}
    rows = [{"exponents": " ".join(map(str, e["exponents"])), "count": e["count"]} for e in entries]
    text = "\n".join(
        [f"{e['exponents']} -> {e['count']}" for e in entries] + [f"total: {payload['total']}"]
    )
    return Output(payload, rows, text), 0


def _resolve_flavor_kind(raw: str | None, explicit_kind: str | None) -> tuple[str, str]:
    guess = "B" if raw in ("typeB", "typeBPeak", "descentB") else (explicit_kind or "A")
    flavor = _canonical_flavor(raw, guess)
    kind = "B" if flavor in ("typeBPeak", "descentB") else (explicit_kind or "A")
    return flavor, kind


def _cmd_qsym(config: RunConfig, ns: argparse.Namespace) -> tuple[Output, int]:
    flavor = _canonical_flavor(ns.flavor or "interior", "A")
    if flavor not in FIBONACCI_SHIFT:
        raise UsageError(f"no peak series for flavor {flavor}; available: {', '.join(FIBONACCI_SHIFT)}")
    typeB = flavor != "interiorPeak"
    # a series is no group element, so the kind-A bound holds for every flavor
    config.kind = "A"
    if ns.report_ranks:
        n_max = config.n_max or config.n or 7
        config.enforce_bounds(n_max)
        ranks = []
        for n in range(1, n_max + 1):
            sets = enumerate_stat_sets(n, flavor)
            series = [peak_series(sorted(s.members), n, typeB=typeB) for s in sets]
            ranks.append({"n": n, "count": len(sets), "rank": rank_of_span(series),
                          "fibonacci": fibonacci(n + FIBONACCI_SHIFT[flavor])})
        ok = all(r["rank"] == r["fibonacci"] == r["count"] for r in ranks)
        payload = {"flavor": flavor, "ranks": ranks, "all_match": ok}
        text = "\n".join(
            f"n={r['n']}: sets={r['count']} rank={r['rank']} expected={r['fibonacci']}" for r in ranks
        ) + f"\nall match: {ok}"
        return Output(payload, ranks, text), 0 if ok else 1
    if config.n is None:
        raise UsageError("--n is required for an expansion")
    members = _parse_members(ns.members)
    try:
        StatSet.of(flavor, config.n, members)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    element = peak_series(members, config.n, typeB=typeB)
    if ns.basis == "F":
        element = m_to_f(element)
    terms = [
        {"parts": list(key.parts), "coeff": str(value)}
        for key, value in sorted(element.coeffs.items(), key=lambda kv: (kv[0].length, kv[0].parts))
    ]
    payload = {"flavor": flavor, "n": config.n, "members": members, "basis": element.basis,
               "typeB": element.typeB, "terms": terms}
    rows = [{"parts": " ".join(map(str, t["parts"])), "coeff": t["coeff"]} for t in terms]
    text = "\n".join(f"{t['coeff']} * {ns.basis or 'M'}{tuple(t['parts'])}" for t in terms)
    return Output(payload, rows, text), 0


def _cmd_structure(config: RunConfig, ns: argparse.Namespace) -> tuple[Output, int]:
    flavor, kind = _resolve_flavor_kind(ns.flavor, ns.kind)
    config.kind = kind
    if config.n is None:
        raise UsageError("--n is required")
    config.enforce_bounds()
    payload = structure_table(config.n, kind, flavor, ns.mode).to_payload()
    rows, text = [], ""
    if config.fmt != "json":  # a large table is rendered only in the format asked for
        rows = [
            {"A": json.dumps(e["A"]), "B": json.dumps(e["B"]), "C": json.dumps(e["C"]), "count": e["count"]}
            for e in payload["entries"]
        ]
        text = "\n".join(f"A={r['A']} B={r['B']} C={r['C']}: {r['count']}" for r in rows)
    return Output(payload, rows, text), 0


def _cmd_closure(config: RunConfig, ns: argparse.Namespace) -> tuple[Output, int]:
    flavor, kind = _resolve_flavor_kind(ns.flavor, ns.kind)
    config.kind = kind
    if config.n is None:
        raise UsageError("--n is required")
    config.enforce_bounds()
    n = config.n
    payload: dict = {"n": n, "kind": kind, "flavor": flavor, "mode": ns.mode}
    checks_passed = True
    report = closure_check(n, kind, flavor, ns.mode)
    payload["closure"] = report
    checks_passed &= report["closed"]
    if ns.ideal_in:
        outer_flavor = _canonical_flavor(ns.ideal_in, kind)
        outer = class_sums(n, kind, outer_flavor, ns.mode)
        ideal = ideal_check(n, kind, flavor, list(outer.values()), ns.mode)
        if not ideal["ideal"]:
            # name the failing outer class sum beside its position in `outer`
            witness = ideal["witness"]
            key = list(outer)[witness["outer_index"]]
            head = {"B": witness["B"], "outer_index": witness["outer_index"], "outer_class": _key_json(key)}
            ideal["witness"] = {**head, **witness}
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


def _cmd_orderpoly(config: RunConfig, ns: argparse.Namespace) -> tuple[Output, int]:
    if config.n is None:
        raise UsageError("--n is required")
    config.enforce_bounds()
    counts = [ns.peaks] if ns.peaks is not None else realized_peak_counts(config.n)
    polys = []
    for i in counts:
        try:
            poly = order_polynomial(i, config.n)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        polys.append({
            "peaks": i,
            "coefficients": [str(c) for c in poly.coefficients],
            "values": {str(k): str(poly.evaluate(k)) for k in range(config.n + 3)},
        })
    payload = {"n": config.n, "polynomials": polys}
    rows = [{"peaks": p["peaks"], "coefficients": " ".join(p["coefficients"])} for p in polys]
    text = "\n".join(
        f"peaks={p['peaks']}: coefficients (ascending) {p['coefficients']}" for p in polys
    )
    return Output(payload, rows, text), 0


def _cmd_idempotents(config: RunConfig, ns: argparse.Namespace) -> tuple[Output, int]:
    if config.n is None:
        raise UsageError("--n is required")
    config.enforce_bounds()
    report = verify_rho_multiplicativity(config.n)
    elements = rho_idempotents(config.n)
    serialized = []
    for index, element in enumerate(elements, start=1):
        serialized.append({
            "index": index,
            "peak_count": index - 1,
            "terms": [{"window": str(w), "coeff": str(element.coeffs[key])}
                      for key, w in zip(sorted(element.coeffs), element.support())],
        })
    payload = {"n": config.n, "report": {k: v for k, v in report.items()}, "idempotents": serialized}
    rows = [{"index": s["index"], "peak_count": s["peak_count"], "terms": len(s["terms"])}
            for s in serialized]
    lines = [f"multiplicative: {report['multiplicative']}  degrees: {report['degrees']}  "
             f"sum=identity: {report['sum_equals_identity']}"]
    for s in serialized:
        preview = ", ".join(f"{t['coeff']}*[{t['window']}]" for t in s["terms"][:4])
        suffix = " ..." if len(s["terms"]) > 4 else ""
        lines.append(f"e_{s['index']} (peak count {s['peak_count']}): {preview}{suffix}")
    return Output(payload, rows, "\n".join(lines)), 0 if report["multiplicative"] else 1


def _cmd_negatives(config: RunConfig, ns: argparse.Namespace) -> tuple[Output, int]:
    n_max = config.n_max or 6
    config.enforce_bounds(n_max)
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


def _cmd_verify(config: RunConfig, ns: argparse.Namespace) -> tuple[Output, int]:
    names = None
    if ns.checks:
        names = [name.strip() for name in ns.checks.split(",") if name.strip()]
        unknown = [name for name in names if name not in CHECKS]
        if unknown:
            raise UsageError(f"unknown checks: {unknown}; available: {', '.join(CHECKS)}")
    if config.n_max is not None:
        config.enforce_bounds(config.n_max)
    bounds = Bounds(n_max=config.n_max, seed=config.seed)
    results = run_suite(names, bounds)
    passed = sum(1 for r in results if r.passed)
    payload = {
        "n_max": config.n_max,
        "seed": config.seed,
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
        return json.dumps(output.payload, indent=1, default=str)
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
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", dest="fmt", choices=("text", "json", "csv"), default="text")
    common.add_argument("--kind", choices=("A", "B"), default=None,
                        help="window kind: A ordinary, B signed")
    common.add_argument("--n", type=int, default=None)
    common.add_argument("--n-max", dest="n_max", type=int, default=None)
    common.add_argument("--k", type=int, default=None, help="alphabet size parameter")
    common.add_argument("--seed", type=int, default=20260825)
    common.add_argument("--allow-large", action="store_true",
                        help="lift the default size bounds (A: n<=8, B: n<=6)")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("peaks", parents=[common], help="statistics of one window")
    p.add_argument("--window", required=True)
    p.add_argument("--flavor", default=None)
    p.set_defaults(handler=_cmd_peaks)

    p = sub.add_parser("extensions", parents=[common], help="linear extensions of a poset file")
    p.add_argument("--file", required=True, help="poset file ('-' for stdin), lines 'a<b'")
    p.add_argument("--signed", action="store_true")
    p.set_defaults(handler=_cmd_extensions)

    p = sub.add_parser("census", parents=[common], help="enriched-map census of a window")
    p.add_argument("--window", required=True)
    p.add_argument("--alphabet", choices=tuple(_ALPHABETS), default=None)
    p.set_defaults(handler=_cmd_census)

    p = sub.add_parser("qsym", parents=[common], help="peak series expansions and rank reports")
    p.add_argument("--flavor", default="interior")
    p.add_argument("--members", default=None, help="peak set, e.g. '{0,3}' or '0,3'")
    p.add_argument("--basis", choices=("M", "F"), default="M")
    p.add_argument("--report-ranks", action="store_true")
    p.set_defaults(handler=_cmd_qsym)

    p = sub.add_parser("structure", parents=[common], help="structure-constant tables")
    p.add_argument("--flavor", required=True)
    p.add_argument("--mode", choices=("set", "number"), default="set")
    p.set_defaults(handler=_cmd_structure)

    p = sub.add_parser("closure", parents=[common], help="span closure / ideal / containment checks")
    p.add_argument("--flavor", required=True)
    p.add_argument("--mode", choices=("set", "number"), default="set")
    p.add_argument("--ideal-in", default=None, help="also check the classes form an ideal in this flavor's span")
    p.add_argument("--descent-containment", action="store_true")
    p.set_defaults(handler=_cmd_closure)

    p = sub.add_parser("orderpoly", parents=[common], help="enriched counting polynomials")
    p.add_argument("--peaks", type=int, default=None)
    p.set_defaults(handler=_cmd_orderpoly)

    p = sub.add_parser("idempotents", parents=[common], help="orthogonal idempotents and their checks")
    p.set_defaults(handler=_cmd_idempotents)

    p = sub.add_parser("negatives", parents=[common], help="battery of non-closing statistics")
    p.set_defaults(handler=_cmd_negatives)

    p = sub.add_parser("verify", parents=[common], help="run the verification suite")
    p.add_argument("--checks", default=None, help="comma-separated subset of checks")
    p.set_defaults(handler=_cmd_verify)

    return parser


def _config_from(ns: argparse.Namespace) -> RunConfig:
    return RunConfig(
        n=ns.n,
        n_max=ns.n_max,
        kind=ns.kind or "A",
        k=ns.k,
        fmt=ns.fmt,
        seed=ns.seed,
        allow_large=ns.allow_large,
    )


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
        config = _config_from(ns)
        output, code = ns.handler(config, ns)
    except UsageError as exc:
        record = {"error": {"code": "usage", "message": str(exc)}}
        print(json.dumps(record), file=sys.stderr)
        return 2
    except ValueError as exc:
        record = {"error": {"code": "invalid-input", "message": str(exc)}}
        print(json.dumps(record), file=sys.stderr)
        return 2
    try:
        print(_render(output, config.fmt))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early (`| head`); send what is still buffered to
        # devnull, so that the flush at exit stays quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
