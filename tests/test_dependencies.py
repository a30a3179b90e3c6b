"""Tests that curvcheck runs on numpy alone: the package declares no other
runtime dependency, and a full check run imports no scipy module.  A check
run imports neither ``multiprocessing`` nor ``concurrent`` either, at
``--jobs 1`` or with forked workers.  No
file of the package or its tests imports a name it never reads, no module
of the package imports a private name of another, and no module of the
package reads the process environment.  Every public function of the
package runs in a check of ``fixtures/verify.json``, or a table here says
why not, and every name any ``__all__`` lists exists."""

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import curvcheck
from curvcheck.checks import run_suite
from curvcheck.config import load_config
from curvcheck.report import emit

ROOT = Path(__file__).resolve().parent.parent


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    names = [re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in project["dependencies"]]
    assert names == ["numpy"]


def _assert_check_run_imports_none_of(tmp_path, roots, jobs=1):
    """Run ``check fixtures/verify.json --jobs JOBS`` in a fresh interpreter
    and assert that it imported no module under the top-level names
    ``roots``."""
    code = "\n".join(
        [
            "import sys",
            "from curvcheck.cli import main",
            f"code = main(['check', 'fixtures/verify.json', '--jobs', '{jobs}', '--out', {str(tmp_path / 'report.txt')!r}])",
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


def test_forked_check_run_imports_no_worker_pool_modules(tmp_path):
    # the workers are forked with os.fork and fed through os.pipe
    _assert_check_run_imports_none_of(tmp_path, ["multiprocessing", "concurrent"], jobs=2)


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


#: The one private name a module may import from another: the coordinate
#: curvature formula, which the finite-difference side of
#: ``curvature-coefficients`` shares with the structural side by design.
_SHARED_PRIVATE = {("bundle", "_coordinate_curvature", "checks")}


def _private_imports(path: Path) -> list[tuple[str, str, str]]:
    """``(module, name, importer)`` for every ``from .<module> import _name``
    of ``path``; private modules (``from . import _symbolic``) and dunders
    (``__version__``) are not private names of another module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            for alias in node.names:
                name = alias.name
                if name.startswith("_") and not name.startswith("__"):
                    found.append((node.module, name, path.stem))
    return found


def test_no_private_function_crosses_a_module_boundary():
    # a route that a runner reaches through a private name is missed by
    # anything that follows the public names, as a profiler wrapping them
    files = sorted((ROOT / "src" / "curvcheck").glob("*.py"))
    crossing = [found for path in files for found in _private_imports(path)]
    assert sorted(set(crossing) - _SHARED_PRIVATE) == []


#: What reads the process environment: ``os.environ`` and ``os.getenv``.
_ENVIRONMENT = {"environ", "getenv"}


def _environment_reads(path: Path) -> list[int]:
    """Lines of ``path`` that name ``os.environ`` or ``os.getenv``, as an
    attribute or as a name imported from ``os``."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and node.attr in _ENVIRONMENT:
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            if any(a.name in _ENVIRONMENT for a in node.names):
                lines.append(node.lineno)
    return sorted(lines)


def test_no_module_reads_the_process_environment():
    # a verdict follows from the config alone, which the report's digest pins
    files = sorted((ROOT / "src").rglob("*.py"))
    reads = {str(p.relative_to(ROOT)): _environment_reads(p) for p in files}
    assert {path: lines for path, lines in reads.items() if lines} == {}


#: The public functions that no check of ``fixtures/verify.json`` runs, and
#: why each stays.
_UNREACHED = {
    "unparse": "the CLI's parse-expr command",
    "covariant_derivative": "a reference the tests compare the prolonged route against",
    "vtriv_principal": "a reference the tests compare the connection form against",
    "embed": "a paper construct that no route reads yet",
    "fiber_quotient": "a paper construct that no route reads yet",
    "reduced_covariant": "a paper construct that no route reads yet",
    "scaling_morphism": "a paper construct that no route reads yet",
}


def test_every_public_function_runs_in_a_check_or_says_why_not(tmp_path):
    # a public function that no check runs can be wrong in a way no report
    # shows; the table keeps each such one to a stated reason
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        config = load_config(str(ROOT / "fixtures" / "verify.json"))
        emit(run_suite(config, jobs=1), "json", str(tmp_path / "report.json"))
    finally:
        sys.setprofile(None)
    functions = {
        name: getattr(curvcheck, name)
        for name in curvcheck.__all__
        if inspect.isfunction(getattr(curvcheck, name))
    }
    unreached = {name for name, fn in functions.items() if fn.__code__ not in called}
    assert sorted(unreached) == sorted(_UNREACHED)


def test_every_name_in_every_all_resolves():
    modules = [curvcheck] + [
        importlib.import_module(f"curvcheck.{path.stem}")
        for path in sorted((ROOT / "src" / "curvcheck").glob("*.py"))
        if path.stem not in ("__init__", "__main__")
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert missing == []
