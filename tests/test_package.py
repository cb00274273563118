"""The package namespace: what it exports, and what a process loads."""

import ast
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import peakalg

SUBMODULES = {info.name for info in pkgutil.iter_modules(peakalg.__path__)}


def test_every_exported_name_is_the_object_of_its_home_module():
    for name in peakalg.__all__:
        value = getattr(peakalg, name)
        home = sys.modules[value.__module__]
        assert home.__name__.startswith("peakalg.") and getattr(home, name) is value, name


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from peakalg import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(peakalg.__all__)
    assert len(set(peakalg.__all__)) == len(peakalg.__all__) == 47


def test_dir_lists_the_exports_and_the_submodules():
    assert len(SUBMODULES) == 10
    assert set(peakalg.__all__) | SUBMODULES <= set(dir(peakalg))
    for name in SUBMODULES:
        assert getattr(peakalg, name) is sys.modules[f"peakalg.{name}"]


def test_an_unknown_name_is_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        peakalg.no_such_name  # noqa: B018
    assert not hasattr(peakalg, "__wrapped__")


def test_version():
    assert peakalg.__version__ == "0.1.0"


PROBE = """
import contextlib, io, json, sys
import peakalg
loaded = lambda: sorted(m for m in sys.modules if m.startswith("peakalg"))
after_import = loaded()
from peakalg.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
after_command = loaded()
posets = peakalg.posets.__name__
print(json.dumps([after_import, code, after_command, posets]))
"""


def _probe(command: str) -> list:
    """Run one CLI command in a fresh process: the modules loaded after
    `import peakalg`, the exit status, the modules loaded after the command,
    and the name `peakalg.posets` resolves to."""
    source = str(Path(peakalg.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, "-c", PROBE, *command.split()]
    return json.loads(subprocess.run(argv, capture_output=True, text=True, env=env, check=True).stdout)


def test_a_process_loads_only_the_modules_its_command_runs():
    after_import, code, after_structure, posets = _probe("structure --flavor interior --n 3 --format json")
    assert after_import == ["peakalg"]
    assert code == 0
    assert after_structure == ["peakalg", "peakalg.cli", "peakalg.group_algebra", "peakalg.linalg",
                               "peakalg.permutations"]
    assert posets == "peakalg.posets"  # a submodule resolves on the package whenever it is first read


def test_the_rank_report_loads_no_verification_module():
    # the peak-series ranks live in qsym, so the report loads neither verify
    # nor the enriched, eulerian, posets and alphabets modules verify imports,
    # nor the group algebra
    _, code, after_report, _ = _probe("qsym --flavor typeB --report-ranks --format json")
    assert code == 0
    assert after_report == ["peakalg", "peakalg.cli", "peakalg.linalg", "peakalg.permutations", "peakalg.qsym"]


def test_the_statistics_of_a_window_load_only_the_permutations():
    _, code, after_peaks, _ = _probe("peaks --window 2,1,3 --flavor typeB --format json")
    assert code == 0
    assert after_peaks == ["peakalg", "peakalg.cli", "peakalg.permutations"]


def test_the_oracle_imports_nothing_from_the_library():
    # the references in tests/peak_oracle.py are independent only while no
    # import there names peakalg
    tree = ast.parse((Path(__file__).parent / "peak_oracle.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        else:
            continue
        assert not any(name.split(".")[0] == "peakalg" for name in names), ast.unparse(node)
