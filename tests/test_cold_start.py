"""The CLI starts on numpy alone: scipy is a test-only dependency."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_cli_import_leaves_scipy_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    probe = (
        "import sys, alphaineq.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    assert proc.stdout.strip() == "[]"


def test_scipy_is_only_a_test_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert [d for d in project["dependencies"] if d.startswith("scipy")] == []
    assert any(d.startswith("scipy") for d in project["optional-dependencies"]["test"])
