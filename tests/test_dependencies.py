"""Tests that curvcheck runs on numpy alone: the package declares no other
runtime dependency, and a full check run imports no scipy module.  A check
run imports neither ``multiprocessing`` nor ``concurrent`` either, at
``--jobs 1`` or with forked workers.  No
file of the package or its tests imports a name it never reads, no module
of the package imports a private name of another, and no module of the
package reads the process environment.  Every function that any
``__all__`` of the package lists runs in a check of
``fixtures/verify.json``, or a table here says why not, and every name any
``__all__`` lists exists.  No class of the package is a dataclass but the
suite config, and no field of an immutable object can be assigned or
deleted."""

import ast
import importlib
import inspect
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import curvcheck
from curvcheck import _records, bundle, exprdsl, linear, principal, prolong
from curvcheck.cli import main
from curvcheck.config import CheckSpec
from curvcheck.exprdsl import Binary, Const, Power, Unary, Var, parse
from curvcheck.lie import AlgebraElement, GroupElement, builtin_algebra
from curvcheck.numcore import EvalPoint, StackedPoint
from curvcheck.report import CheckResult, RunReport

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


#: The public functions, of any module's ``__all__``, that no check of
#: ``fixtures/verify.json`` runs, and why each stays.
_UNREACHED = {
    "unparse": "the CLI's parse-expr command",
    "parse_grid": "the from_strings constructors",
    "covariant_derivative": "a reference the tests compare the prolonged route against",
    "vtriv_principal": "a reference the tests compare the connection form against",
    "sample_christoffel": "the generated connections of bench/gen.py",
}


def _modules() -> list:
    """The package and each of its modules but ``__main__``."""
    return [curvcheck] + [
        importlib.import_module(f"curvcheck.{path.stem}")
        for path in sorted((ROOT / "src" / "curvcheck").glob("*.py"))
        if path.stem not in ("__init__", "__main__")
    ]


def test_every_public_function_runs_in_a_check_or_says_why_not(tmp_path):
    # a public function that no check runs can be wrong in a way no report
    # shows; the table keeps each such one to a stated reason
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    config = str(ROOT / "fixtures" / "verify.json")
    sys.setprofile(profile)
    try:
        codes = [
            main(["check", config, "--format", form, "--out", str(tmp_path / f"report.{form}")])
            for form in ("json", "text")
        ]
    finally:
        sys.setprofile(None)
    assert codes == [0, 0]
    unreached = {
        name
        for module in _modules()
        for name in getattr(module, "__all__", ())
        if inspect.isfunction(fn := getattr(module, name)) and fn.__code__ not in called
    }
    assert sorted(unreached) == sorted(_UNREACHED)


def test_every_name_in_every_all_resolves():
    missing = [
        f"{module.__name__}.{name}"
        for module in _modules()
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert missing == []


#: The classes of the package that ``dataclasses`` still builds, and why.
#: Every other class writes its methods once, in ``_records``, instead of
#: executing generated ones at each import.
_DATACLASSES = {
    ("config", "SuiteConfig"): "cli and bench/tracer.py set its seed with dataclasses.replace",
}


def _dataclasses(path: Path) -> list[tuple[str, str]]:
    """``(module, class)`` for every class of ``path`` decorated with
    ``dataclass`` or ``dataclasses.dataclass``, called or not."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ClassDef):
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                name = target.attr if isinstance(target, ast.Attribute) else target.id
                if name == "dataclass":
                    found.append((path.stem, node.name))
    return found


def test_no_class_but_the_suite_config_is_a_dataclass():
    files = sorted((ROOT / "src" / "curvcheck").glob("*.py"))
    assert sorted(found for path in files for found in _dataclasses(path)) == sorted(_DATACLASSES)


_P = bundle.BundlePatch(2, 1)
_SO3 = builtin_algebra("so3")
_X1 = Var("x", 1)

#: One object of every immutable class of the package.
_IMMUTABLE = {
    "Const": Const(2.0),
    "Var": _X1,
    "Unary": Unary("sin", _X1),
    "Binary": Binary("+", _X1, Const(1.0)),
    "Power": Power(_X1, 2),
    "Program": exprdsl.compile_expr(parse("x1*f1", (1, 1))),
    "EvalPoint": EvalPoint((1.0, 2.0), (3.0,)),
    "StackedPoint": StackedPoint((np.array([1.0, 2.0]),), (np.array([3.0, 4.0]),)),
    "SecondJet": prolong.SecondJet((1.0,), (2.0,), (3.0,), (4.0,), (5.0,)),
    "VerticalPairBase": prolong.VerticalPairBase((1.0,), (2.0,), (3.0,), (4.0,)),
    "BundlePatch": _P,
    "ChristoffelField": bundle.ChristoffelField.from_strings(_P, [["x1*f1", "x2"]]),
    "VerticalVector": bundle.VerticalVector(EvalPoint((1.0, 2.0), (3.0,)), (4.0,)),
    "Section": bundle.Section.from_strings(_P, ["x1*x2"]),
    "TotalVectorField": bundle.TotalVectorField.coordinate(_P, 1),
    "FiberBundleMorphism": bundle.FiberBundleMorphism.from_strings(_P, _P, ["2*f1"]),
    "_Parts": bundle._Parts((1.0, 0.0), (2.0,)),
    "MatrixLieAlgebra": _SO3,
    "AlgebraElement": AlgebraElement(_SO3, [1.0, 2.0, 3.0]),
    "GroupElement": GroupElement(np.eye(3)),
    "GaugePotential": principal.GaugePotential.from_strings(
        _SO3, [["x1", "0", "0"], ["0", "x2", "0"]], 2
    ),
    "CurvatureField": principal.CurvatureField(_SO3, np.zeros((2, 2, 3))),
    "CrossCheckReport": principal.CrossCheckReport(1e-12, {"one-two": 1e-12}, 0.0),
    "ThetaBchReport": principal.ThetaBchReport(1e-9, 2e-9, 2e-9),
    "LinearChristoffel": linear.LinearChristoffel.from_strings(_P, [[["x1"], ["x2"]]]),
    "LinearityViolation": linear.LinearityViolation(
        1, 1, (1.0, 2.0), (3.0,), 2.0, 1.0, 1.5, "homogeneity"
    ),
    "LinearityReport": linear.LinearityReport(None, None),
    "CheckSpec": CheckSpec("poly", "curvature-coefficients", 10, 1e-9, None, {}),
    "CheckResult": CheckResult("poly", "curvature-coefficients", 10, 1e-12, 1e-9, "pass"),
    "RunReport": RunReport("0.1.0", "0" * 64, 0, 0.5, ()),
}


def test_the_table_holds_every_immutable_class():
    classes = {
        cls
        for module in _modules()
        for cls in vars(module).values()
        if isinstance(cls, type)
        and cls.__module__ == module.__name__
        and (issubclass(cls, _records.Frozen) or issubclass(cls, tuple))
    }
    abstract = {_records.Frozen, _records.Value, exprdsl.Expression}
    assert sorted(c.__name__ for c in classes - abstract) == sorted(_IMMUTABLE)
    assert all(type(obj).__name__ == name for name, obj in _IMMUTABLE.items())


@pytest.mark.parametrize("obj", _IMMUTABLE.values(), ids=_IMMUTABLE)
def test_fields_can_be_neither_assigned_nor_deleted(obj):
    fields = obj._fields if isinstance(obj, tuple) else type(obj).__slots__
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)


def test_a_report_row_survives_the_pipes_of_the_jobs_workers():
    # a forked worker sends each row back pickled
    row = CheckResult("axiom", "connection-axiom", 100, 2.5e-12, 1e-8, "pass", "")
    back = pickle.loads(pickle.dumps(row))
    assert type(back) is CheckResult and back == row
    assert back._asdict() == row._asdict()
