"""Command line entry point: subcommands, formats, exit codes, and bounds."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import peakalg
from peakalg.cli import main
from peakalg.group_algebra import class_sums


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.rstrip("\n"), captured.err.rstrip("\n")


def test_peaks_signed_example(capsys):
    code, out, _ = run(capsys, "peaks", "--window", "-2,3,4,-5,1", "--flavor", "typeB")
    assert code == 0
    assert out == "{0,3}"


def test_peaks_single_flavor(capsys):
    code, out, _ = run(capsys, "peaks", "--window", "2,1,4,3,5", "--flavor", "interior")
    assert code == 0
    assert out == "{3}"
    code, out, _ = run(capsys, "peaks", "--window", "2,1,4,3,5", "--flavor", "left")
    assert out == "{1,3}"


def test_peaks_all_flavors_json(capsys):
    code, out, _ = run(capsys, "peaks", "--window", "2,1,4,3,5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "A"
    stats = payload["statistics"]
    assert stats["interiorPeak"] == [3]
    assert stats["leftPeak"] == [1, 3]
    assert stats["rightPeak"] == [3, 5]
    assert stats["exteriorPeak"] == [1, 3, 5]
    assert stats["descentA"] == [1, 3]
    assert "typeBPeak" not in stats  # unsigned window


def test_peaks_signed_all_flavors(capsys):
    code, out, _ = run(capsys, "peaks", "--window", "-2,3,4,-5,1", "--format", "json")
    assert code == 0
    stats = json.loads(out)["statistics"]
    assert stats["typeBPeak"] == [0, 3]
    assert stats["descentB"] == [0, 3]


def test_peaks_flavor_forces_signed_parse(capsys):
    code, out, _ = run(capsys, "peaks", "--window", "1,2", "--flavor", "typeB")
    assert code == 0
    assert out == "{}"
    # a signed flavor reads the window as signed, by alias or by full name
    for flavor in ("typeB", "typeBPeak", "descentB"):
        code, out, _ = run(capsys, "peaks", "--window", "2,1,3", "--flavor", flavor, "--format", "json")
        assert code == 0
        assert json.loads(out)["kind"] == "B", flavor


@pytest.mark.parametrize("argv", [
    ("peaks", "--window", "-1,2"),
    ("peaks", "--window", "2,1,3", "--flavor", "descentB"),
    ("census", "--window", "-2,1"),
    ("structure", "--flavor", "typeB", "--n", "2"),
    ("closure", "--flavor", "typeB", "--n", "3"),
    ("closure", "--flavor", "interior", "--n", "3", "--ideal-in", "typeB"),
])
def test_kind_a_beside_a_signed_flavor_or_entry_is_refused(capsys, argv):
    # the window or flavor asks for B_n; an explicit --kind A is not overridden
    code, out, err = run(capsys, *argv, "--kind", "A")
    assert code == 2 and out == ""
    record = json.loads(err)["error"]
    assert record["code"] == "usage" and "--kind A" in record["message"]
    code, out, _ = run(capsys, *argv)
    assert code in (0, 1) and out  # without --kind the signed reading stands


def test_refused_library_values_are_usage_records(tmp_path, capsys):
    path = tmp_path / "cycle.poset"
    path.write_text("1<2\n2<1\n")
    for argv in (
        ("extensions", "--file", str(path)),
        ("census", "--window", "-2,1", "--alphabet", "prime"),
        ("qsym", "--flavor", "left", "--n", "3", "--members", "{0}"),
        ("verify", "--checks", ","),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert json.loads(err)["error"]["code"] == "usage", argv


def test_peaks_csv(capsys):
    code, out, _ = run(capsys, "peaks", "--window", "2,1,3", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["flavor"] == "interiorPeak"
    assert {"flavor", "members"} == set(rows[0])


def test_peaks_invalid_window(capsys):
    code, out, err = run(capsys, "peaks", "--window", "1,1")
    assert code == 2
    assert out == ""
    record = json.loads(err)
    assert record["error"]["code"] == "usage"


def test_unknown_flavor(capsys):
    code, _, err = run(capsys, "peaks", "--window", "1,2", "--flavor", "bogus")
    assert code == 2
    assert json.loads(err)["error"]["code"] == "usage"


def test_extensions_from_file(tmp_path, capsys):
    path = tmp_path / "vee.poset"
    path.write_text("# two maxima\n3<1\n3<2\n")
    code, out, _ = run(capsys, "extensions", "--file", str(path))
    assert code == 0
    assert out.splitlines() == ["3,1,2", "3,2,1", "count: 2"] or set(
        out.splitlines()[:-1]
    ) == {"3,1,2", "3,2,1"}


def test_extensions_signed_file(tmp_path, capsys):
    path = tmp_path / "b2.poset"
    path.write_text("1<0\n1<-2\n")
    code, out, _ = run(capsys, "extensions", "--file", str(path), "--signed", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 3
    assert set(payload["extensions"]) == {"2,-1", "-1,-2", "-2,-1"}


def test_extensions_file_is_closed(tmp_path, capsys):
    path = tmp_path / "vee.poset"
    path.write_text("1<2\n1<3\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, _ = run(capsys, "extensions", "--file", str(path))
    assert code == 0
    assert out.endswith("count: 2")
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_extensions_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("1<2\n"))
    code, out, _ = run(capsys, "extensions", "--file", "-", "--format", "json")
    assert code == 0
    assert json.loads(out)["count"] == 1


def test_oversized_extensions_input_is_refused_before_any_closure(tmp_path, capsys, monkeypatch):
    def no_closure(pairs):
        raise AssertionError("the transitive closure of an oversized order was taken")

    monkeypatch.setattr(peakalg.posets, "_transitive_closure", no_closure)
    path = tmp_path / "chain.poset"
    path.write_text("".join(f"{i}<{i + 1}\n" for i in range(1, 400)))
    for argv in (("extensions", "--file", str(path)), ("extensions", "--file", str(path), "--signed")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        record = json.loads(err)["error"]
        assert record["code"] == "usage" and record["message"].startswith("n=400 exceeds the default bound"), argv


def test_extensions_missing_file(capsys):
    code, _, err = run(capsys, "extensions", "--file", "/no/such/file")
    assert code == 2
    assert json.loads(err)["error"]["code"] == "usage"


def test_census_default_alphabet(capsys):
    code, out, _ = run(capsys, "census", "--window", "1", "--k", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["alphabet"] == "prime"
    assert payload["total"] == 6
    assert {tuple(e["exponents"]): e["count"] for e in payload["entries"]} == {
        (0, 1, 0, 0): 2,
        (0, 0, 1, 0): 2,
        (0, 0, 0, 1): 2,
    }


def test_census_signed_window(capsys):
    code, out, _ = run(capsys, "census", "--window", "-1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["alphabet"] == "plusMinus"
    assert payload["total"] == 4


def test_census_mismatched_alphabet(capsys):
    code, _, err = run(capsys, "census", "--window", "-1", "--alphabet", "prime")
    assert code == 2
    assert json.loads(err)["error"]["code"] == "usage"


def test_qsym_rank_report(capsys):
    code, out, _ = run(capsys, "qsym", "--report-ranks", "--flavor", "interior", "--n-max", "5")
    assert code == 0
    assert out.endswith("all match: True")


def test_qsym_expansion(capsys):
    code, out, _ = run(
        capsys, "qsym", "--flavor", "typeB", "--n", "1", "--members", "{0}", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["terms"] == [{"parts": [0, 1], "coeff": "2"}]
    assert payload["typeB"] is True


def test_qsym_expansion_fundamental(capsys):
    code, out, _ = run(
        capsys, "qsym", "--flavor", "interior", "--n", "2", "--basis", "F", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["basis"] == "F"
    assert {tuple(t["parts"]): t["coeff"] for t in payload["terms"]} == {
        (2,): "2",
        (1, 1): "2",
    }


def test_qsym_invalid_members(capsys):
    code, _, err = run(capsys, "qsym", "--flavor", "interior", "--n", "3", "--members", "{1}")
    assert code == 2
    assert json.loads(err)["error"]["code"] == "usage"


def test_qsym_flavors_without_a_series_are_usage_errors(capsys):
    for argv in (("--report-ranks",), ("--n", "3"), ("--report-ranks", "--format", "json")):
        code, out, err = run(capsys, "qsym", "--flavor", "right", *argv)
        assert code == 2 and out == ""
        assert "no peak series" in json.loads(err)["error"]["message"]


def test_qsym_ranks_use_the_ordinary_bound_for_every_flavor(capsys):
    code, out, _ = run(capsys, "qsym", "--flavor", "typeB", "--report-ranks", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_match"] is True and [r["n"] for r in payload["ranks"]] == list(range(1, 8))
    code, _, _ = run(capsys, "qsym", "--flavor", "typeB", "--kind", "B", "--report-ranks", "--n-max", "7")
    assert code == 2
    for flavor in ("typeB", "interior"):
        code, _, err = run(capsys, "qsym", "--flavor", flavor, "--report-ranks", "--n-max", "9")
        assert code == 2
        assert "--allow-large" in json.loads(err)["error"]["message"]


def test_qsym_expansion_is_held_to_the_ordinary_bound(capsys, monkeypatch):
    # the bound is checked before any series is built: a series at n = 30
    # would be a sum over 2^29 subsets, so here it is never built at all
    original = peakalg.cli.peak_series
    built = []

    def guarded(members, n, **kw):
        built.append(n)
        return original(members, n, **kw) if n <= 8 else None

    monkeypatch.setattr(peakalg.cli, "peak_series", guarded)
    code, out, err = run(capsys, "qsym", "--flavor", "interior", "--n", "30", "--members", "{2}")
    assert (code, out, built) == (2, "", [])
    assert "n=30 exceeds the default bound 8 for kind A" in json.loads(err)["error"]["message"]
    code, out, _ = run(capsys, "qsym", "--flavor", "interior", "--n", "8", "--members", "{2}")
    assert code == 0 and out


def test_structure_frozen_constant(capsys):
    code, out, _ = run(capsys, "structure", "--flavor", "interior", "--n", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    entry = next(
        e for e in payload["entries"] if e["A"] == [2] and e["B"] == [2] and e["C"] == []
    )
    assert entry["count"] == 1


# sha256 of the exact stdout of `structure` in each format
STRUCTURE_DIGESTS = {
    ("interior", "A", "4", "set"): {
        "json": "8268700459cf250f6c213b520d33f6986fd3c82e903583bcb53f486e0a9580f8",
        "csv": "91c99901c9f12b74789f8cd768e38cc3169cfcfe1999bb6b6f798a1495c5fe4f",
        "text": "e3351d85c6abaec4c2b97044eb7fe8e1f4be8f7e9d884bf0129e0cdbb0aa50b6",
    },
    ("typeB", "B", "3", "set"): {
        "json": "965d541af4ec88c2ae4fc9a00f92aae04fabd8f67e43518d4f71d9eb8c9ba822",
        "csv": "a4e6aed0d1e462fc0a9fbf6cce9994d774cf06b800620e0a494d42eb88d2d70b",
        "text": "7b2625af135a7b040e0c49a98a2ff5ce55e187f450b4944c0bcd18efa1d4ae0e",
    },
    ("left", "A", "4", "number"): {
        "json": "91d05127a727711d8ff2cf3a91141f50af37947bd074e229972e1a00b1c522ec",
        "csv": "a8637029b2414b06d53a850b8c3200d862bbb6e64f7fc4ab5a7e3f1f25a52857",
        "text": "65936d127fd261db82ac445053d323d6b37362a80290205861bad2932674b848",
    },
}


@pytest.mark.parametrize("query", sorted(STRUCTURE_DIGESTS))
def test_structure_output_is_frozen_in_every_format(capsys, query):
    flavor, kind, n, mode = query
    for fmt, digest in STRUCTURE_DIGESTS[query].items():
        code = main(["structure", "--flavor", flavor, "--kind", kind, "--n", n, "--mode", mode, "--format", fmt])
        out = capsys.readouterr().out
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, digest), (query, fmt)


def test_structure_cache_warm_run_is_identical(capsys):
    args = ("structure", "--flavor", "typeB", "--n", "2", "--format", "json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert (code1, out1) == (code2, out2)


def test_closure_signed_failure(capsys):
    code, out, _ = run(capsys, "closure", "--flavor", "typeB", "--n", "3", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["closure"]["closed"] is False
    assert payload["closure"]["certificate"]["windows"]


def test_closure_signed_success_below_three(capsys):
    code, out, _ = run(capsys, "closure", "--flavor", "typeB", "--n", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)["closure"]["dim"] == 3


def test_closure_with_ideal_and_containment(capsys):
    code, out, _ = run(
        capsys, "closure", "--flavor", "interior", "--n", "3",
        "--ideal-in", "left", "--descent-containment", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["closure"]["closed"] is True
    assert payload["ideal_in"]["ideal"] is True
    assert payload["descent_containment"] is True


def test_a_signed_outer_flavor_asks_for_signed_windows(capsys):
    # --ideal-in takes part in the kind rule as --flavor does, so the inner
    # flavor and its descent alias are read on B_n too
    for flavor, canonical in (("interior", "interiorPeak"), ("descent", "descentB")):
        code, out, _ = run(
            capsys, "closure", "--flavor", flavor, "--n", "3", "--ideal-in", "typeB", "--format", "json",
        )
        assert code in (0, 1) and out, flavor
        payload = json.loads(out)
        assert (payload["kind"], payload["flavor"], payload["ideal_in"]["outer"]) == ("B", canonical, "typeBPeak")


def test_closure_ideal_witness_names_the_outer_class(capsys):
    for fmt in ("json", "text"):
        code, out, _ = run(
            capsys, "closure", "--flavor", "interior", "--n", "4", "--ideal-in", "descentA", "--format", fmt,
        )
        assert code == 1
        if fmt == "json":
            witness = json.loads(out)["ideal_in"]["witness"]
        else:
            line = next(line for line in out.splitlines() if "witness" in line)
            witness = json.loads(line.split(": ", 1)[1])
        outer_keys = list(class_sums(4, "A", "descentA"))
        assert witness["outer_class"] == sorted(outer_keys[witness["outer_index"]])
        assert list(witness)[:3] == ["B", "outer_index", "outer_class"]


def test_orderpoly_frozen(capsys):
    code, out, _ = run(capsys, "orderpoly", "--n", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["polynomials"] == [
        {
            "peaks": 0,
            "coefficients": ["0", "0", "2"],
            "values": {"0": "0", "1": "2", "2": "8", "3": "18", "4": "32"},
        }
    ]


def test_orderpoly_unrealizable_count(capsys):
    code, _, err = run(capsys, "orderpoly", "--n", "2", "--peaks", "1")
    assert code == 2
    assert json.loads(err)["error"]["code"] == "usage"


def test_idempotents(capsys):
    code, out, _ = run(capsys, "idempotents", "--n", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["multiplicative"] is True
    assert [s["peak_count"] for s in payload["idempotents"]] == [0, 1]
    # rho divides, so the coefficients print as reduced fractions
    windows = ["1,2,3", "1,3,2", "2,1,3", "2,3,1", "3,1,2", "3,2,1"]
    frozen = [
        ["1/3", "-2/3", "1/3", "-2/3", "1/3", "1/3"],
        ["1/6"] * 6,
    ]
    for item, coeffs in zip(payload["idempotents"], frozen, strict=True):
        assert item["terms"] == [{"window": w, "coeff": c} for w, c in zip(windows, coeffs)]


def test_negatives_full_battery(capsys):
    code, out, _ = run(capsys, "negatives", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    witnesses = [r for r in payload["reports"] if not r["control"]]
    assert len(witnesses) == 6
    assert all(not r["closed"] for r in witnesses)


def test_negatives_short_sweep_exits_nonzero(capsys):
    # at n <= 2 the unsigned statistics have not failed yet
    code, out, _ = run(capsys, "negatives", "--n-max", "2", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    closed = [r["statistic"] for r in payload["reports"] if not r["control"] and r["closed"]]
    assert "A:rightPeak:set" in closed


def test_verify_small_bound_passes(capsys):
    code, out, _ = run(capsys, "verify", "--n-max", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "10/10 checks passed"
    assert sum(1 for line in lines if line.startswith("PASS")) == 10


def test_verify_check_subset(capsys):
    code, out, _ = run(capsys, "verify", "--checks", "examples,ranks", "--n-max", "4")
    assert code == 0
    assert out.splitlines()[-1] == "2/2 checks passed"


def test_verify_unknown_check(capsys):
    code, _, err = run(capsys, "verify", "--checks", "bogus")
    assert code == 2
    assert json.loads(err)["error"]["code"] == "usage"


def test_output_into_a_pipe_closed_early_is_quiet():
    # as in `peakalg structure ... | head -1`: the CSV is larger than a pipe
    # buffer, so the command is still writing when the reader leaves
    source = str(Path(peakalg.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, "-m", "peakalg.cli", "structure", "--flavor", "exterior", "--n", "6", "--format", "csv"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        header = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait()
    assert header == b"A,B,C,count\r\n"
    assert (code, err) == (0, b"")


def test_size_bounds_enforced(capsys):
    code, _, err = run(capsys, "structure", "--flavor", "interior", "--n", "9")
    assert code == 2
    assert "--allow-large" in json.loads(err)["error"]["message"]
    code, _, err = run(capsys, "closure", "--flavor", "typeB", "--n", "7")
    assert code == 2
    assert "--allow-large" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize("argv", [
    ("verify", "--n-max", "0"),
    ("qsym", "--report-ranks", "--n-max", "-1"),
    ("negatives", "--n-max", "0"),
    ("structure", "--flavor", "interior", "--n", "-3"),
    ("census", "--window", "2,1,3", "--k", "-1"),
    ("census", "--window", "2,1,3", "--k", "0"),
    ("closure", "--flavor", "interior", "--n", "0"),
])
def test_sizes_below_one_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["code"] == "usage"


@pytest.mark.parametrize("argv", [
    ("verify", "--n", "3"),
    ("peaks", "--window", "2,1,3", "--seed", "1"),
    ("census", "--window", "2,1,3", "--allow-large"),
    ("idempotents", "--n", "3", "--kind", "B"),
    ("negatives", "--k", "2"),
    ("orderpoly", "--n", "7", "--kind", "B"),
    ("structure", "--flavor", "interior", "--n", "3", "--n-max", "4"),
    ("extensions", "--file", "-", "--seed", "1"),
])
def test_flags_a_subcommand_does_not_read_are_rejected(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "unrecognized arguments" in err  # argparse's message, not a record of a bad value


def test_argparse_errors_and_help(capsys):
    assert main([]) == 2
    capsys.readouterr()
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main(["peaks"]) == 2  # --window is required
    capsys.readouterr()
