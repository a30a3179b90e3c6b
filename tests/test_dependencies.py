"""Tests that curvcheck runs on numpy alone: the package declares no other
runtime dependency, and a full check run imports no scipy module.  A check
run imports neither ``multiprocessing`` nor ``concurrent`` either, at
``--jobs 1`` or with forked workers.  No
file of the package or its tests imports a name it never reads, no module
of the package imports a private name of another, and no module of the
package reads the process environment, and none but ``rng`` and
``sampling`` draws.  Every function that any
``__all__`` of the package lists, and every public member of a class it
lists, runs in a check of ``fixtures/verify.json``, or a table here says
why not, and every name any ``__all__`` lists exists, as does every name
that ``bench/tracer.py`` wraps but a listed few.  No class of the package is a dataclass but the
suite config, and no field of an immutable object can be assigned or
deleted."""

import ast
import importlib
import importlib.util
import inspect
import operator
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from _reference import parse_grid
import curvcheck
from curvcheck import _records, bundle, exprdsl, linear, principal
from curvcheck.cli import main
from curvcheck.config import CheckSpec
from curvcheck.exprdsl import Binary, Const, Power, Unary, Var, parse
from curvcheck.lie import builtin_algebra
from curvcheck.numcore import EvalPoint, StackedPoint
from curvcheck.report import CheckResult, RunReport
from curvcheck.rng import SplitMix64

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


#: The draw methods of ``rng.SplitMix64``.
_DRAWS = {"next_raw", "uniform", "symmetric", "int_below", "choice", "symmetric_block"}


def _draw_calls(path: Path) -> list[int]:
    """Lines of ``path`` that call a method named after a draw of
    ``SplitMix64``."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _DRAWS
    )


def test_only_the_generator_and_the_sampler_draw():
    # the runners draw every sample through sampling before any route runs,
    # so a route that drew would shift the draws of every later sample
    files = sorted((ROOT / "src" / "curvcheck").glob("*.py"))
    draws = {p.name: _draw_calls(p) for p in files if p.stem not in ("rng", "sampling")}
    assert {name: lines for name, lines in draws.items() if lines} == {}
    assert set(SplitMix64.__dict__) >= _DRAWS
    assert _draw_calls(ROOT / "src" / "curvcheck" / "sampling.py")


#: The public functions, of any module's ``__all__``, that no check of
#: ``fixtures/verify.json`` runs, and why each stays.
_UNREACHED = {
    "unparse": "the CLI's parse-expr command",
    "sample_christoffel": "the generated connections of bench/gen.py",
}


def _modules() -> list:
    """The package and each of its modules but ``__main__``."""
    return [curvcheck] + [
        importlib.import_module(f"curvcheck.{path.stem}")
        for path in sorted((ROOT / "src" / "curvcheck").glob("*.py"))
        if path.stem not in ("__init__", "__main__")
    ]


@pytest.fixture(scope="module")
def check_run_codes(tmp_path_factory):
    """The code objects that ``check fixtures/verify.json`` calls, in both
    report formats."""
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    config = str(ROOT / "fixtures" / "verify.json")
    out = tmp_path_factory.mktemp("reach")
    sys.setprofile(profile)
    try:
        codes = [
            main(["check", config, "--format", form, "--out", str(out / f"report.{form}")])
            for form in ("json", "text")
        ]
    finally:
        sys.setprofile(None)
    assert codes == [0, 0]
    return called


def test_every_public_function_runs_in_a_check_or_says_why_not(check_run_codes):
    # a public function that no check runs can be wrong in a way no report
    # shows; the table keeps each such one to a stated reason
    unreached = {
        name
        for module in _modules()
        for name in getattr(module, "__all__", ())
        if inspect.isfunction(fn := getattr(module, name)) and fn.__code__ not in check_run_codes
    }
    assert sorted(unreached) == sorted(_UNREACHED)


#: The public members, of any class in any module's ``__all__``, that no
#: check of ``fixtures/verify.json`` runs, and why each stays.
_UNREACHED_MEMBERS = {
    "StackedPoint.at": "over_samples reads it below _STACK_MIN, and verify.json "
    "stacks at least 6 points",
}


def _members(cls):
    """``(name, function)`` of each method, classmethod, staticmethod and
    property getter that the package's source defines on ``cls``, so not the
    ``__eq__`` that ``dataclasses`` generates: its public names and its
    operator dunders (the names the ``operator`` module binds, as ``__add__``
    and ``__matmul__``)."""
    package = str(Path(curvcheck.__file__).parent)
    for name, attr in vars(cls).items():
        if name.startswith("_") and name not in vars(operator):
            continue
        fn = attr.fget if isinstance(attr, property) else attr
        fn = getattr(fn, "__func__", fn)
        if inspect.isfunction(fn) and fn.__code__.co_filename.startswith(package):
            yield name, fn


def test_every_public_member_runs_in_a_check_or_says_why_not(check_run_codes):
    # as for the functions above: a member that no check runs can be wrong in
    # a way no report shows
    classes = {
        cls
        for module in _modules()
        for name in getattr(module, "__all__", ())
        if isinstance(cls := getattr(module, name), type) and not issubclass(cls, Exception)
    }
    unreached = {
        f"{cls.__name__}.{name}"
        for cls in classes
        for name, fn in _members(cls)
        if fn.__code__ not in check_run_codes
    }
    # names both a member no check runs and no table entry covers, and an
    # entry whose member runs or is gone
    assert sorted(unreached.symmetric_difference(_UNREACHED_MEMBERS)) == []


def test_every_name_in_every_all_resolves():
    missing = [
        f"{module.__name__}.{name}"
        for module in _modules()
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert missing == []


#: The names in the table of functions that ``bench/tracer.py`` wraps
#: (``_WRAPPED``) that the package no longer defines, whose metrics read
#: zero.  A function renamed in the package fails the test below instead of
#: silently zeroing its metrics.
_WRAPPED_BUT_GONE = {
    "lie.adjoint",
    "lie.fiber_quotient",
    "bundle.project",
    "bundle.embed",
    "bundle.horizontal_lift",
    "bundle.covariant_derivative",
    "bundle.lie_bracket",
    "bundle.nijenhuis_curvature",
    "bundle.pushforward",
    "prolong.second_covariant",
    "prolong.commutator_curvature",
    "principal.omega_eval",
    "principal.vtriv_principal",
    "linear.reduced_covariant",
    "linear.scaling_morphism",
}


def test_every_name_the_bench_tracer_wraps_resolves_but_the_listed_few():
    # the tracer reads its table at import and imports no scipy until it
    # installs, so loading it by path runs none of it
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = {
        f"{module}.{name}"
        for module, names in tracer._WRAPPED.items()
        for name in names
        if not hasattr(importlib.import_module(f"curvcheck.{module}"), name)
    }
    assert sorted(missing) == sorted(_WRAPPED_BUT_GONE)


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
    "BundlePatch": _P,
    "ChristoffelField": bundle.ChristoffelField(_P, parse_grid([["x1*f1", "x2"]], _P.dims)),
    "Section": bundle.Section(_P, parse_grid(["x1*x2"], _P.dims)),
    "TotalVectorField": bundle.TotalVectorField.coordinate(_P, 1),
    "FiberBundleMorphism": bundle.FiberBundleMorphism(_P, _P, parse_grid(["2*f1"], _P.dims)),
    "_Parts": bundle._Parts((1.0, 0.0), (2.0,)),
    "MatrixLieAlgebra": _SO3,
    "GaugePotential": principal.GaugePotential(
        _SO3, 2, parse_grid([["x1", "0", "0"], ["0", "x2", "0"]], (2, 1))
    ),
    "CrossCheckReport": principal.CrossCheckReport(1e-12, {"one-two": 1e-12}, 0.0),
    "ThetaBchReport": principal.ThetaBchReport(1e-9, 2e-9, 2e-9),
    "LinearChristoffel": linear.LinearChristoffel(_P, parse_grid([[["x1"], ["x2"]]], _P.dims)),
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
