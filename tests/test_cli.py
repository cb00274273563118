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
from peakalg.group_algebra import StructureTable, class_sums, structure_table
from peakalg.permutations import FLAVORS, SIGNED_FLAVORS


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
    beyond = tmp_path / "beyond.poset"
    beyond.write_text("1<3\n")
    for argv in (
        ("extensions", "--file", str(path)),
        ("extensions", "--n", "2", "--file", str(beyond)),  # a label past --n
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
    def no_closure(labels, pairs):
        raise AssertionError("the transitive closure of an oversized order was taken")

    monkeypatch.setattr(peakalg.posets, "_closure", no_closure)
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
    # (the handler reads `peak_series` off the `qsym` module when it runs)
    original = peakalg.qsym.peak_series
    built = []

    def guarded(members, n, **kw):
        built.append(n)
        return original(members, n, **kw) if n <= 8 else None

    monkeypatch.setattr(peakalg.qsym, "peak_series", guarded)
    code, out, err = run(capsys, "qsym", "--flavor", "interior", "--n", "30", "--members", "{2}")
    assert (code, out, built) == (2, "", [])
    assert "n=30 exceeds the default bound 8 for kind A" in json.loads(err)["error"]["message"]
    code, out, _ = run(capsys, "qsym", "--flavor", "interior", "--n", "8", "--members", "{2}")
    assert code == 0 and out
    assert built == [8]  # the patch reached the handler


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
        "json": "f95edbe2a151d4122e5dbc158f09c89b4ea9a0db5468295ecea9b88643f8228f",
        "csv": "91c99901c9f12b74789f8cd768e38cc3169cfcfe1999bb6b6f798a1495c5fe4f",
        "text": "e3351d85c6abaec4c2b97044eb7fe8e1f4be8f7e9d884bf0129e0cdbb0aa50b6",
    },
    ("typeB", "B", "3", "set"): {
        "json": "ddf1eda7c7ffddd38d059870636f5bb822409be7a5838d5649fe27e4157538f3",
        "csv": "a4e6aed0d1e462fc0a9fbf6cce9994d774cf06b800620e0a494d42eb88d2d70b",
        "text": "7b2625af135a7b040e0c49a98a2ff5ce55e187f450b4944c0bcd18efa1d4ae0e",
    },
    ("left", "A", "4", "number"): {
        "json": "6baf8cc59ecabf2ccac86e1175114c01569d82562f86557137ad1e76750c671a",
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


# sha256 of the exact stdout of `census` and `qsym` in each format
CENSUS_QSYM_DIGESTS = {
    ("census", "--window", "2,1,3", "--k", "2"): {
        "json": "064356636a5ea019eab45ca5b008c86359f78648ac3e465652ec2cd7ff3a4829",
        "csv": "f85471f896c936a443eafa4f94b347bc1191e9cf122c231abc810b41959cadff",
        "text": "892d6211c4b7e1845e02535fe5db450240eb4629795110bd12e0b44d08120b02",
    },
    ("census", "--window", "3,1,4,2", "--alphabet", "left", "--k", "3"): {
        "json": "378962e66b8923422a73d9700b5a96fbfe7507d4a60d4320fbd7c9fae953bd13",
        "csv": "664cc736de82e89aac87774419eeedb55842a4452513949251c5ece7ac20ece5",
        "text": "0bd91088b8da66cb42f590e8601008d9aef2276f9fdc945141b9952809e6e0ed",
    },
    ("census", "--window", "-2,3,-1", "--k", "2"): {
        "json": "00973a5dbe62e3736fa9ecd6d7f45f26abf68fc2be60d9bc361f691bf4ca0a23",
        "csv": "201e621ef7532e59e48792f7ead9e4c579644076461e6532aac387f0b2dea326",
        "text": "e1a21547b646406d736442c2d314930425ac8cde8480312e9b8cc75860f8eb3f",
    },
    ("qsym", "--flavor", "interior", "--n", "5", "--members", "{2,4}"): {
        "json": "88a20999f01f0d2479eb329d42e89461b3f60eb7b03ca7411d8696b3f595caca",
        "csv": "145faa607b3d773eecf104983f2f705c4db86b283127a28d096c998810ac9f60",
        "text": "0237f8548d8c6b17194ae02a5c4fa5a3d796335a4deb0dfefd67e7df4619a36c",
    },
    ("qsym", "--flavor", "typeB", "--n", "3", "--members", "{0,2}"): {
        "json": "6b81541c6feac838f4a3ead49babd0455b6f8a86d2f0604dfcae8a6b01d670a5",
        "csv": "2adc9d563ad854bb6364da71e5a81a03a3db349cfd0a224375bfbc57a976f16a",
        "text": "0f6dd71c4a3eea6ae5162a82ef8a666171a91ad9c122605d3377cc3fead657a4",
    },
    ("qsym", "--flavor", "left", "--n", "4", "--members", "{1,3}", "--basis", "F"): {
        "json": "d372eea7d1ac3f0ed27b4dc11bc63b50e87c5a2d315a5b9a61d190e115c3fc85",
        "csv": "3f903bdd9056adea993102d976570178108cf340db2c7b0d18140bbcd1031690",
        "text": "81925e0bf20a7e04c188858d28a9ee1a53ef8ff3e91461f90dd5bbe5f157e6fc",
    },
    ("qsym", "--flavor", "left", "--report-ranks", "--n-max", "6"): {
        "json": "be700a9285719328ea4ced10c05ec03e2ab6797bc13be9fa69ff28eef3d8014e",
        "csv": "db388d7b7c64a445eeede54b501ea70c3f678b95685f3652c4f6d53311fe99e0",
        "text": "faf1994ebd5d93003d2c3a92d9411a0630370a608a00624ad34ab6b4f0bf1880",
    },
    ("qsym", "--flavor", "typeB", "--report-ranks", "--n", "5"): {
        "json": "ed184f537c7ce095548f7dcd4190d2055cf713fb09d0297595da6cdeb88af46a",
        "csv": "2a7dd5e128fa8fdf5bb996f57a768d06b2605ffc8819629317b4ccea2c32ab6a",
        "text": "ca549f11dfd98a7cfd120fc0b09b8b961346a6459837ffdc7bc03d6939e182b7",
    },
}


@pytest.mark.parametrize("query", list(CENSUS_QSYM_DIGESTS), ids=" ".join)
def test_census_and_qsym_output_is_frozen_in_every_format(capsys, query):
    for fmt, digest in CENSUS_QSYM_DIGESTS[query].items():
        code = main([*query, "--format", fmt])
        out = capsys.readouterr().out
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, digest), (query, fmt)


def test_census_is_held_to_the_default_bounds(capsys, monkeypatch):
    # the window length to its kind's bound and k to the kind A bound, both
    # checked before any alphabet is built
    import peakalg.alphabets

    built = []
    original = peakalg.alphabets.Alphabet.__init__

    def counted(self, *args, **kw):
        built.append(args[0])
        original(self, *args, **kw)

    monkeypatch.setattr(peakalg.alphabets.Alphabet, "__init__", counted)
    for argv, message in (
        (("--window", "1,2,3,4,5,6,7,8,9", "--k", "2"), "n=9 exceeds the default bound 8 for kind A"),
        (("--window", "-1,2,3,4,5,6,7", "--k", "1"), "n=7 exceeds the default bound 6 for kind B"),
        (("--window", "2,1", "--k", "9"), "k=9 exceeds the default bound 8 for kind A"),
        (("--window", "-2,1", "--k", "9"), "k=9 exceeds the default bound 8 for kind A"),
    ):
        code, out, err = run(capsys, "census", *argv)
        assert (code, out, built) == (2, "", []), argv
        assert json.loads(err)["error"]["message"].startswith(message)
    for argv in (("--window", "2,1", "--k", "8"), ("--window", "-1,2,3,4,5,6", "--k", "1"),
                 ("--window", "2,1", "--k", "9", "--allow-large"),
                 ("--window", "1,2,3,4,5,6,7,8,9", "--k", "1", "--allow-large")):
        code, out, _ = run(capsys, "census", *argv, "--format", "json")
        assert code == 0 and json.loads(out)["total"] > 0, argv
    assert len(built) == 4


def _key_order(key):
    # statistic keys sort by size, then members; a number-mode key by value
    return (key,) if isinstance(key, int) else (len(key), key)


def test_structure_json_is_json_dumps_of_the_payload(capsys):
    code, out, _ = run(capsys, "structure", "--flavor", "interior", "--n", "4", "--format", "json")
    assert (code, out) == (0, json.dumps(structure_table(4, "A", "interiorPeak", "set").to_payload()))
    # for every flavor the kind answers and both modes, the payload's entries
    # are the nonzero counts in key order
    for kind, n_max in (("A", 5), ("B", 3)):
        for n in range(n_max + 1):
            for flavor in (f for f in FLAVORS if kind == "B" or f not in SIGNED_FLAVORS):
                for mode in ("set", "number"):
                    table = structure_table(n, kind, flavor, mode)
                    entries = table.to_payload()["entries"]
                    assert len(entries) == sum(1 for v in table.counts.values() if v), (kind, n, flavor, mode)
                    order = [tuple(map(_key_order, (e["A"], e["B"], e["C"]))) for e in entries]
                    assert order == sorted(order) and all(e["count"] for e in entries)
    empty = StructureTable(n=2, kind="A", flavor="interiorPeak", mode="set", keys=(), counts={})
    assert empty.to_payload()["entries"] == []


# one query of every subcommand that writes JSON, with its exit status: a
# passing and a failing closure among them
JSON_QUERIES = {
    ("peaks", "--window", "-2,3,4,-5,1"): 0,
    ("extensions", "--file", "-"): 0,
    ("census", "--window", "3,1,4,2", "--alphabet", "left", "--k", "3"): 0,
    ("qsym", "--flavor", "left", "--n", "4", "--members", "{1,3}", "--basis", "F"): 0,
    ("qsym", "--flavor", "typeB", "--report-ranks", "--n", "5"): 0,
    ("structure", "--flavor", "typeB", "--n", "3"): 0,
    ("closure", "--flavor", "interior", "--n", "4", "--ideal-in", "left", "--descent-containment"): 0,
    ("closure", "--flavor", "interior", "--n", "3", "--ideal-in", "typeB"): 1,
    ("orderpoly", "--n", "4"): 0,
    ("idempotents", "--n", "4"): 0,
    ("negatives", "--n-max", "4"): 0,
    ("verify", "--checks", "examples,closure", "--n-max", "3"): 1,
}


@pytest.mark.parametrize("query", JSON_QUERIES, ids=" ".join)
def test_json_output_is_json_dumps_of_its_payload(capsys, monkeypatch, query):
    # the one machine form: the payload as json.dumps writes it, one line
    monkeypatch.setattr("sys.stdin", io.StringIO("1<2\n1<3\n3<4\n"))
    assert main([*query, "--format", "json"]) == JSON_QUERIES[query]
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out)) + "\n"


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
        assert frozenset(witness["outer_class"]) in class_sums(4, "A", "descentA")
        assert list(witness) == ["B", "outer_class", "class", "windows", "values"]


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
    # one window of each descent class of S_3 is tallied, giving one profile per peak count
    assert payload["report"]["windows_tallied"] == 4 and payload["report"]["profiles"] == 2
    assert [s["peak_count"] for s in payload["idempotents"]] == [0, 1]
    # rho divides, so the coefficients print as reduced fractions
    windows = ["1,2,3", "1,3,2", "2,1,3", "2,3,1", "3,1,2", "3,2,1"]
    frozen = [
        ["1/3", "-2/3", "1/3", "-2/3", "1/3", "1/3"],
        ["1/6"] * 6,
    ]
    for item, coeffs in zip(payload["idempotents"], frozen, strict=True):
        assert item["terms"] == [{"window": w, "coeff": c} for w, c in zip(windows, coeffs)]


def test_idempotents_exits_1_when_the_coefficients_do_not_span(capsys, monkeypatch):
    # with its top allowed degree zeroed at n = 5, rho stays multiplicative,
    # but its two remaining idempotents no longer span the three class sums
    from peakalg import eulerian

    original = eulerian.rho_by_peak_count

    def zeroed(n):
        table = original(n)
        table[5] = {i: 0 for i in table[5]}
        return table

    monkeypatch.setattr(eulerian, "rho_by_peak_count", zeroed)
    code, out, _ = run(capsys, "idempotents", "--n", "5", "--format", "json")
    report = json.loads(out)["report"]
    assert (report["multiplicative"], report["spans_classes"], report["commutative"]) == (True, False, True)
    assert code == 1


def test_idempotents_exits_1_when_the_class_sums_do_not_commute(capsys, monkeypatch):
    # one extra factorization of the identity by peak counts (0, 1): rho's
    # coefficients form an invertible matrix, so the asymmetry also breaks
    # multiplicativity; at the report seam, commutativity alone fails
    from peakalg import eulerian
    from peakalg.permutations import Permutation, unrank

    counts_of = eulerian.factorization_counts

    def asymmetric(n, kind, r, flavor, mode="set"):
        counts = counts_of(n, kind, r, flavor, mode)
        if unrank(r, n, kind) == Permutation((1, 2, 3, 4)):
            counts[(0, 1)] += 1
        return counts

    monkeypatch.setattr(eulerian, "factorization_counts", asymmetric)
    code, out, _ = run(capsys, "idempotents", "--n", "4", "--format", "json")
    assert json.loads(out)["report"]["commutative"] is False and code == 1
    monkeypatch.setattr(eulerian, "factorization_counts", counts_of)
    report_of = eulerian.verify_rho_multiplicativity
    monkeypatch.setattr(eulerian, "verify_rho_multiplicativity", lambda n: {**report_of(n), "commutative": False})
    code, out, _ = run(capsys, "idempotents", "--n", "4", "--format", "json")
    report = json.loads(out)["report"]
    assert (report["multiplicative"], report["spans_classes"], report["commutative"]) == (True, True, False)
    assert code == 1


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
    # a subcommand that needs a size refuses to run without one
    ("structure", "--flavor", "interior"),
    ("orderpoly",),
    ("qsym", "--flavor", "interior"),
])
def test_sizes_below_one_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["code"] == "usage"


@pytest.mark.parametrize("argv", [
    ("qsym", "--report-ranks", "--n", "2", "--n-max", "3"),
    ("qsym", "--n", "3", "--members", "{2}", "--n-max", "5"),
])
def test_qsym_flags_it_would_drop_are_usage_errors(capsys, argv):
    # --n and --n-max would both bound the rank report; an expansion has no --n-max
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["code"] == "usage"


def test_rank_report_reads_n_as_its_bound(capsys):
    code, out, _ = run(capsys, "qsym", "--report-ranks", "--n", "3", "--format", "json")
    assert code == 0
    assert [r["n"] for r in json.loads(out)["ranks"]] == [1, 2, 3]


@pytest.mark.parametrize("argv", [
    ("verify", "--n", "3"),
    ("peaks", "--window", "2,1,3", "--seed", "1"),
    ("census", "--window", "2,1,3", "--n", "3"),
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
