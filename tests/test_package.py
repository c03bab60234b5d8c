"""The package namespace: each public name from its defining module, loaded on first use."""

import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import quatgenus
from quatgenus.runner import RunConfig, render_report, run_script_data

SRC = str(Path(__file__).resolve().parents[1] / "src")
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}


def test_every_public_name_is_its_defining_module_s_object():
    for name in quatgenus.__all__:
        module = importlib.import_module(f"quatgenus.{quatgenus._MODULE_OF[name]}")
        assert getattr(quatgenus, name) is getattr(module, name), name
    assert set(quatgenus.__all__) <= set(dir(quatgenus))
    with pytest.raises(AttributeError):
        quatgenus.no_such_name


def test_legendre_is_the_symbol_not_a_module():
    assert quatgenus.legendre is quatgenus.arith.legendre
    assert quatgenus.legendre(2, 7) == 1


def _loaded(*argv: str) -> set[str]:
    """The quatgenus modules a fresh interpreter imports to run argv (python -X importtime)."""
    child = subprocess.run(
        [sys.executable, "-X", "importtime", *argv], capture_output=True, text=True, env=ENV,
    )
    assert child.returncode == 0, child.stderr
    names = [line.rpartition("|")[2].strip() for line in child.stderr.splitlines()]
    return {name for name in names if name.partition(".")[0] == "quatgenus"}


def test_importing_the_package_loads_no_submodule():
    assert _loaded("-c", "import quatgenus") == {"quatgenus"}


def test_the_symbol_command_loads_only_what_it_computes_with():
    # quatgenus.__main__ runs as __main__, so importtime does not name it
    modules = {"quatgenus", "quatgenus.cli", "quatgenus.errors", "quatgenus.arith", "quatgenus.symbols"}
    assert _loaded("-m", "quatgenus", "symbol", "-1", "-1", "2") == modules


def test_the_form_analyze_command_loads_no_search():
    modules = {"quatgenus", "quatgenus.cli", "quatgenus.errors", "quatgenus.arith",
               "quatgenus.symbols", "quatgenus.forms"}
    assert _loaded("-m", "quatgenus", "form", "analyze", "1,1,1,1") == modules


def _readme_snippet() -> str:
    """The README's one python block: the snippet that verifies a report from its JSON."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1, blocks
    return blocks[0]


def test_replaying_a_report_from_json_loads_no_engine_module(tmp_path):
    script = {"base": "rationals", "algebras": [[-1, -1], [-1, -3]],
              "steps": [{"kind": "alternate", "rounds": 1, "max_rounds": 1, "window": 5}]}
    report, code = run_script_data(script, RunConfig())
    assert code == 0 and report["final_state"]["levels"]
    path = tmp_path / "report.json"
    path.write_text(render_report(report))
    verify = _readme_snippet()
    loaded = _loaded("-c", verify, str(path))
    assert "quatgenus.certificates" in loaded
    engine = {"tower", "runner", "selftest", "quaternion", "oracles", "cli", "search", "conics"}
    assert loaded.isdisjoint(f"quatgenus.{name}" for name in engine)
    # the same check fails when the tower no longer adjoins what a certificate cites
    tampered = json.loads(path.read_text())
    tampered["final_state"]["levels"][0]["form"] = [1, 1]
    path.write_text(json.dumps(tampered))
    child = subprocess.run([sys.executable, "-c", verify, str(path)], env=ENV)
    assert child.returncode == 1
    # a malformed report exits 2 with one error line, as the CLI does, not 1
    path.write_text(json.dumps({"base": "rationals", "final_state": {"levels": [{"form": [0]}]}}))
    child = subprocess.run([sys.executable, "-c", verify, str(path)], env=ENV,
                           capture_output=True, text=True)
    assert child.returncode == 2 and child.stdout == ""
    assert child.stderr.startswith("error: ") and child.stderr.count("\n") == 1
    # so does a run that names no report at all
    child = subprocess.run([sys.executable, "-c", verify], env=ENV, capture_output=True, text=True)
    assert child.returncode == 2 and child.stdout == ""
    assert child.stderr.startswith("error: ") and child.stderr.count("\n") == 1


def test_the_readme_states_the_line_count_of_the_modules_a_replay_loads():
    root = Path(__file__).resolve().parents[1]
    report = root / "tests" / "data" / "worked_pushing_report.json"
    loaded = _loaded("-c", _readme_snippet(), str(report))
    files = [Path(importlib.util.find_spec(name).origin) for name in loaded]
    assert all(path.is_relative_to(SRC) for path in files)
    lines = sum(len(path.read_text(encoding="utf-8").splitlines()) for path in files)
    readme = (root / "README.md").read_text(encoding="utf-8")
    stated = re.search(r"Those seven modules, .*? hold\s+([\d,]+)\s+lines", readme, flags=re.DOTALL)
    assert stated is not None and len(files) == 7
    assert int(stated[1].replace(",", "")) == lines
