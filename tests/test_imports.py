"""Each ``dcr`` module imports on its own in a fresh interpreter. The suite
imports modules in its own order, which can hide an import cycle that only
shows when a module is the first one loaded."""

import ast
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import dcr

MODULES = ("errors", "guidance", "toy", "sampling", "judge", "bench", "metrics",
           "cli")


def test_every_module_is_listed():
    assert set(MODULES) == {m.name for m in pkgutil.iter_modules(dcr.__path__)}


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_alone(name):
    src = str(Path(dcr.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", f"import dcr.{name}"],
                          env=os.environ | {"PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("path", sorted(p for p in Path(dcr.__file__).parent.glob("*.py")
                                         if p.name != "judge.py"), ids=lambda p: p.name)
def test_only_the_judge_reads_the_environment(path):
    # the judge's endpoint and key have one reader, dcr.judge
    text = path.read_text(encoding="utf-8")
    assert not [word for word in ("os.environ", "getenv", "DCR_JUDGE_") if word in text]


def test_metrics_encodes_no_file():
    # dcr.metrics computes the bench report; dcr.cli encodes every report file
    tree = ast.parse((Path(dcr.__file__).parent / "metrics.py").read_text(encoding="utf-8"))
    imported = {alias.name.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module.split(".")[0] for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module}
    assert not imported & {"csv", "io", "json"}


def test_the_version_has_one_source():
    # pyproject.toml reads the version from dcr.__version__ instead of repeating it
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = Path(dcr.__file__).resolve().parents[2] / "pyproject.toml"
    config = tomllib.loads(pyproject.read_text(encoding="utf-8"))
    assert "version" not in config["project"]
    assert config["project"]["dynamic"] == ["version"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "dcr.__version__"}
    assert isinstance(dcr.__version__, str) and dcr.__version__
