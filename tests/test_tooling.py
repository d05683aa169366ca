"""The benchmark's tracer still interposes on every public plap function:
``perfbench/check.py selftest`` passes against this source tree, and a
short traced alpha-c, cycles and figures run each end ``correct``: every
span they require still fires, every certified cycle period stays within
the oracle's bound, and every shooting the figures run drives through
the CLI writes its files.  The README's list of ``PLAP_CONFIG`` keys is
the fields of ``IntegrationConfig``, every name in ``plap.__all__`` is
cited in its library overview, and every private name the README or a
``plap`` docstring cites exists.  ``plap.systems`` imports no scipy, and
the closed-form oracle stays in ``tests/profile_tools.py``."""

import ast
import dataclasses
import importlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import plap
from plap.integrate import IntegrationConfig

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "plap").glob("*.py"))


def test_readme_lists_the_config_keys():
    text = " ".join((ROOT / "README.md").read_text().split())
    listed = re.search(r"`PLAP_CONFIG` environment variable\. The file's keys "
                       r"are (.*?);", text)
    assert listed, "README no longer lists the PLAP_CONFIG keys"
    keys = re.findall(r"`(\w+)`", listed.group(1))
    assert keys == [f.name for f in dataclasses.fields(IntegrationConfig)]


def test_readme_documents_every_export():
    text = (ROOT / "README.md").read_text()
    overview = text[text.index("## Library overview"):text.index("## Command line")]
    cited = set(re.findall(r"`(\w+)", overview))
    names = [name for name in plap.__all__ if name != "__version__"]
    assert all(hasattr(plap, name) for name in names)
    assert [name for name in names if name not in cited] == []


def test_docs_cite_only_defined_private_names():
    # `_name` in the README; ``_name`` or ``module._name`` in a docstring
    modules = {src.stem: importlib.import_module(
        "plap" if src.stem == "__init__" else f"plap.{src.stem}") for src in SOURCES}
    cited = [("README.md", None, name)
             for name in re.findall(r"`(_\w+)`", (ROOT / "README.md").read_text())]
    for src in SOURCES:
        for node in ast.walk(ast.parse(src.read_text())):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                cited += [(src.name, module or None, name) for module, name in
                          re.findall(r"``(?:(\w+)\.)?(_\w+)``", ast.get_docstring(node) or "")]
    missing = [(where, module, name) for where, module, name in cited
               if not any(hasattr(modules.get(m), name) for m in ([module] if module else modules))]
    assert cited
    assert not missing, missing


def test_systems_imports_no_scipy_and_plap_ships_no_oracle():
    # the bottom layer stays off scipy's import path; the oracle is a test tool
    tree = ast.parse((ROOT / "src" / "plap" / "systems.py").read_text())
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert [m for m in modules if m.split(".")[0] == "scipy"] == []
    assert [name for name in ("oracle", "OracleSolution", "OracleConstraintError")
            if hasattr(plap, name)] == []


def test_tracer_selftest():
    proc = subprocess.run([sys.executable, "perfbench/check.py", "selftest"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("workload", ["alpha-c", "cycles", "figures", "sweep"])
def test_traced_run_is_correct(workload):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           workload, "--seed", "1", "--seconds", "1",
                           "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True, proc.stdout
