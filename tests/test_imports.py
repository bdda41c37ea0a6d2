"""Each ``dcr`` module imports on its own in a fresh interpreter. The suite
imports modules in its own order, which can hide an import cycle that only
shows when a module is the first one loaded."""

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
