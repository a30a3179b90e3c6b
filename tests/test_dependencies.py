"""Tests that curvcheck runs on numpy alone: the package declares no other
runtime dependency, and a full check run imports no scipy module.  A
``--jobs 1`` run does not import the modules of the worker pool either.  No
file of the package or its tests imports a name it never reads."""

import ast
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


def _unread_imports(path: Path) -> list[str]:
    """Names that ``path`` imports but never reads; a name listed in its
    ``__all__`` counts as read."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    return sorted(imported - read)


def test_no_file_imports_a_name_it_never_reads():
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    unread = {str(p.relative_to(ROOT)): _unread_imports(p) for p in files}
    assert {path: names for path, names in unread.items() if names} == {}
