"""The package surface: the lazy ``kbeq`` namespace and per-command imports.

``kbeq/__init__.py`` resolves each public name from its module on first
access, and ``kbeq.cli`` imports each command's modules in its handler, so a
fresh process loads only the modules its command runs.  These tests pin the
namespace API and the import set of fresh ``python -m kbeq`` processes.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

import kbeq
from kbeq.functions import synth_table
from kbeq.groups import Box, GroupSpec
from kbeq.oracle import random_positive_form

SRC = Path(__file__).resolve().parent.parent / "src"

# runs ``python -m kbeq ARGS`` and then prints the loaded modules to stderr
RUN_MODULE = """\
import json, runpy, sys
sys.argv = ["kbeq", *sys.argv[1:]]
code = 0
try:
    runpy.run_module("kbeq", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(json.dumps({"code": code, "modules": sorted(sys.modules)}), file=sys.stderr)
"""


def _fresh(*args: str) -> dict:
    """Exit code and loaded modules of a fresh ``python -m kbeq ARGS``."""
    res = subprocess.run([sys.executable, "-c", RUN_MODULE, *args],
                         capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": str(SRC)})
    out = json.loads(res.stderr.strip().splitlines()[-1])
    out["modules"] = set(out["modules"])
    return out


def test_namespace_names_resolve_to_their_modules():
    assert len(kbeq.__all__) == len(set(kbeq.__all__)) == 65
    for module, names in kbeq._EXPORTS.items():
        mod = importlib.import_module(f"kbeq.{module}")
        assert getattr(kbeq, module) is mod
        for name in names:
            assert getattr(kbeq, name) is getattr(mod, name)
    assert sorted(kbeq.__all__) == sorted(
        name for names in kbeq._EXPORTS.values() for name in names)
    assert set(kbeq.__all__) <= set(dir(kbeq))
    assert kbeq.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        kbeq.no_such_name
    assert not hasattr(kbeq, "_no_such_name")


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from kbeq import *", namespace)
    assert {k for k in namespace if k != "__builtins__"} == set(kbeq.__all__)
    for name in kbeq.__all__:
        assert namespace[name] is getattr(kbeq, name)


def test_bare_import_loads_no_module():
    code = ("import sys, kbeq\n"
            "print(sorted(m for m in sys.modules if m.startswith(('kbeq', 'numpy'))))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=60, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert res.stdout.strip() == "['kbeq']", res.stderr


def test_commands_load_only_their_modules(tmp_path):
    group = GroupSpec(2, (4, 3))
    f, g = synth_table(random_positive_form(group, Random(1)), Box((10, 10)))
    paths = {}
    for name, table in (("f", f), ("g", g)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(table.to_json()), encoding="utf-8")
    tables = ["-f", str(paths["f"]), "-g", str(paths["g"])]
    check = _fresh("check", *tables, "--output", str(tmp_path / "check.json"))
    decompose = _fresh("decompose", *tables, "--output", str(tmp_path / "dec.json"))
    assert check["code"] == decompose["code"] == 0
    assert {"kbeq.cli", "kbeq.checks", "numpy"} <= check["modules"]
    assert not {"kbeq.decompose", "kbeq.oracle", "numpy.ma"} & check["modules"]
    assert "kbeq.decompose" in decompose["modules"]
    assert "kbeq.oracle" not in decompose["modules"]
    # the demos still reach the oracle through the lazy imports
    demo = _fresh("demo", "counterexample", "--output", str(tmp_path / "demo.json"))
    assert demo["code"] == 0 and "kbeq.oracle" in demo["modules"]
    # the grid solver's np.unique calls take a return_* flag, without which
    # numpy 2.4 imports numpy.ma on the first call
    enum = _fresh("enum-kb", "--group", "Z/2", "--output", str(tmp_path / "enum.json"))
    assert enum["code"] == 0 and "kbeq.oracle" in enum["modules"]
    assert "numpy.ma" not in enum["modules"]
