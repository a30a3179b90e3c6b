"""Tests that curvcheck runs on numpy alone: the package declares no other
runtime dependency, and a full check run imports no scipy module.  A
``--jobs 1`` run does not import the modules of the worker pool either."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    names = [re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in project["dependencies"]]
    assert names == ["numpy"]


def _assert_check_run_imports_none_of(tmp_path, roots):
    """Run ``check fixtures/verify.json --jobs 1`` in a fresh interpreter and
    assert that it imported no module under the top-level names ``roots``."""
    code = "\n".join(
        [
            "import sys",
            "from curvcheck.cli import main",
            f"code = main(['check', 'fixtures/verify.json', '--jobs', '1', '--out', {str(tmp_path / 'report.txt')!r}])",
            f"found = sorted(m for m in sys.modules if m.split('.')[0] in {tuple(roots)!r})",
            "assert not found, found",
            "sys.exit(code)",
        ]
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "report.txt").read_text(encoding="utf-8")


def test_check_run_imports_no_scipy(tmp_path):
    _assert_check_run_imports_none_of(tmp_path, ["scipy"])


def test_serial_check_run_imports_no_worker_pool_modules(tmp_path):
    _assert_check_run_imports_none_of(tmp_path, ["multiprocessing", "concurrent"])
