"""Imports of the package: no heavy module rides on `import wck`, and
every console script declared in pyproject.toml resolves."""

import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import wck

ROOT = pathlib.Path(__file__).resolve().parents[1]

SCRIPT = """
import pkgutil, sys
import wck
names = sorted(m.name for m in pkgutil.iter_modules(wck.__path__))
for name in names:
    __import__("wck." + name)
print(len(names), any(m.split(".")[0] == "scipy" for m in sys.modules))
"""


def test_importing_every_module_leaves_scipy_unloaded():
    src = os.path.dirname(list(wck.__path__)[0])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    ).stdout.split()
    assert int(out[0]) >= 10
    assert out[1] == "False"


def test_declared_console_scripts_import():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    doc = tomllib.loads((ROOT / "pyproject.toml").read_text())
    for name, target in doc["project"].get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name
