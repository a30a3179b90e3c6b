"""Tests for the check runners and report assembly: verdict mapping,
error capture, per-check streams, sweeps over stacked samples, and
rendering."""

import contextlib
import inspect
import json
import os
import signal
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from curvcheck import bundle, checks, numcore, prolong
from curvcheck.bundle import (
    BundlePatch,
    TotalVectorField,
    curvature_coefficients,
    nijenhuis_tensor,
)
from curvcheck.cli import main
from curvcheck.config import CHECK_KINDS, load_config
from curvcheck.checks import run_check, run_suite
from curvcheck.report import CheckResult, RunReport, emit, render_text, to_json_dict
from curvcheck.errors import IoError
from curvcheck.exprdsl import unparse
from curvcheck.lie import exp
from curvcheck.linear import linear_curvature_consistency, linearity_detect
from curvcheck.numcore import EvalPoint, StackedPoint, central_difference, evaluate
from curvcheck.principal import check_axiom, curvature_cross_check, theta_bch_verify
from curvcheck.prolong import commutator_tensor, pushforward_second_jet, theta
from curvcheck.rng import SplitMix64, stream
from curvcheck.sampling import (
    sample_algebra_element,
    sample_axiom_trials,
    sample_christoffel,
    sample_cross_check,
    sample_point,
    sample_second_jet,
    sample_section,
    sample_transition,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _config(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return load_config(str(path))


def _single_check_config(tmp_path, gamma, **check_extra):
    doc = {
        "version": 1,
        "patches": {"p": {"base_dim": 2, "fiber_dim": 1}},
        "connections": {"g": {"patch": "p", "gamma": [gamma]}},
        "checks": [
            dict(
                {"name": "only", "kind": "curvature-coefficients", "connection": "g"},
                **check_extra,
            )
        ],
    }
    return _config(tmp_path, doc)


# --- run_check --------------------------------------------------------------


def test_flat_connection_passes_with_zero_residual(tmp_path):
    config = _single_check_config(tmp_path, ["0", "0"])
    result = run_check(config.checks[0], config.seed)
    assert result.verdict == "pass"
    assert result.max_residual == 0.0
    assert result.detail == ""


def test_domain_error_becomes_error_row(tmp_path):
    # Sampled base points stay within |x| <= 1, so x1 - 2 is always
    # negative and the logarithm faults deterministically; the row names
    # the first sample whether its points are swept stacked or one by one
    for samples in (1, 10):
        config = _single_check_config(tmp_path, ["log(x1 - 2)", "0"], samples=samples)
        result = run_check(config.checks[0], config.seed)
        assert result.verdict == "error"
        assert result.max_residual is None
        assert result.detail.startswith("DomainError: log of non-positive value -")
        assert result.detail.endswith(" at sample 0")


@pytest.mark.parametrize("constant, message", [
    ("log(-1)", "log of non-positive value -1.0"),
    ("sqrt(-2)", "sqrt of negative value -2.0"),
])
@pytest.mark.parametrize("samples", [numcore._STACK_MIN - 3, numcore._STACK_MIN + 4])
def test_a_constant_outside_its_domain_names_sample_0(tmp_path, constant, message, samples):
    # a constant is evaluated once for a whole stack, as for one point on
    # floats; sample 0 is the first to meet it either way
    for kind in ("curvature-coefficients", "nijenhuis-vs-coefficients", "commutator-identity"):
        config = _single_check_config(tmp_path, ["x1", f"{constant}*f1"], kind=kind,
                                      samples=samples)
        result = run_check(config.checks[0], config.seed)
        assert result.detail == f"DomainError: {message} at sample 0", kind


def test_a_domain_error_of_the_stencil_alone_names_the_sample_it_shifts(tmp_path):
    # the exact side evaluates the symbol at the sample itself, inside the
    # domain; only the stencil point that shifts x1 by 2 steps, point 3 of
    # the stencil of this one sample, leaves it
    edge = 0.18177173679852715
    config = _single_check_config(tmp_path, [f"log({edge} - x1)*f1", "x2"], name="coeffs",
                                  samples=1)
    (spec,) = config.checks
    x1 = sample_point(stream(config.seed, spec.name), 2, 1).x[0]
    assert checks._FD_STEP < edge - x1 < 2.0 * checks._FD_STEP
    value = edge - (x1 + 2.0 * checks._FD_STEP)
    detail = f"DomainError: log of non-positive value {value} at sample 0"
    assert run_check(spec, config.seed).detail == detail


def test_a_commutator_domain_error_names_its_sample(tmp_path):
    # log(x1) of a named section faults at the first sample whose base point
    # has x1 <= 0, which the check's stream puts at sample 4 under seed 2;
    # the row names that sample whether its points are swept on floats or
    # stacked
    for samples in (numcore._STACK_MIN - 1, 2 * numcore._STACK_MIN):
        doc = {
            "version": 1,
            "seed": 2,
            "patches": {"p": {"base_dim": 2, "fiber_dim": 1}},
            "connections": {"g": {"patch": "p", "gamma": [["x2*f1", "x1"]]}},
            "sections": {"s": {"patch": "p", "comps": ["log(x1)"]}},
            "checks": [{"name": "only", "kind": "commutator-identity", "connection": "g",
                        "section": "s", "samples": samples}],
        }
        config = _config(tmp_path, doc)
        (spec,) = config.checks
        rng = stream(config.seed, spec.name)
        # a named section draws nothing: each sample draws its base point
        points = [sample_point(rng, 2).x for _ in range(spec.samples)]
        first = next(k for k, x in enumerate(points) if x[0] <= 0.0)
        assert first == 4
        result = run_check(spec, config.seed)
        assert result.verdict == "error"
        value = points[first][0]
        assert result.detail == f"DomainError: log of non-positive value {value} at sample {first}"


def _first_coordinates(rng, spec, fiber_dim=1):
    """The ``x1`` of every sample of a check that draws one point per
    sample."""
    return [sample_point(rng, 2, fiber_dim).x[0] for _ in range(spec.samples)]


def _cross_check_first_coordinates(rng, spec):
    """The ``x1`` of every sample of a cross-check, which draws its base
    point, then its chart centers and its sections."""
    coordinates = []
    for _ in range(spec.samples):
        coordinates.append(sample_point(rng, 2).x[0])
        sample_cross_check(rng, spec.params["potential"].algebra, 2, 2, 2)
    return coordinates


#: Every kind that evaluates config expressions, with its check's own keys
#: and the ``x1`` of each sample, replayed from its stream in the kind's
#: draw order.  Each check meets log(x1) at every sample.
_FIRST_COORDINATES = {
    "curvature-coefficients": ({"connection": "g"}, _first_coordinates),
    "nijenhuis-vs-coefficients": ({"connection": "g"}, _first_coordinates),
    # a named section draws nothing: each sample draws its base point
    "commutator-identity": (
        {"connection": "g", "section": "s"},
        lambda rng, spec: _first_coordinates(rng, spec, 0),
    ),
    "parallel-morphism": (
        {"morphism": "double", "connection": "g", "connection_hat": "g"},
        _first_coordinates,
    ),
    "connection-axiom": (
        {"potential": "a"},
        lambda rng, spec: [
            trial[0][0]
            for trial in sample_axiom_trials(rng, spec.params["potential"].algebra, 2,
                                             spec.samples)
        ],
    ),
    "cartan-cross-check": ({"potential": "a"}, _cross_check_first_coordinates),
    "linearity": ({"connection": "g"}, _first_coordinates),
    "linear-consistency": ({"linear_connection": "lin"}, _first_coordinates),
}


@pytest.mark.parametrize("kind", sorted(_FIRST_COORDINATES))
def test_every_kind_names_the_sample_of_a_domain_error(tmp_path, kind):
    # log(x1) faults at the first sample whose base point has x1 <= 0; under
    # seed 70 that is a later sample than the first for every kind, and the
    # row names it exactly once
    keys, first_coordinates = _FIRST_COORDINATES[kind]
    doc = {
        "version": 1,
        "seed": 70,
        "patches": {"p": {"base_dim": 2, "fiber_dim": 1}},
        "connections": {"g": {"patch": "p", "gamma": [["log(x1)*f1", "x1*f1"]]}},
        "linear_connections": {"lin": {"patch": "p", "gamma3": [[["log(x1)"], ["x1"]]]}},
        "sections": {"s": {"patch": "p", "comps": ["x2"]}},
        "morphisms": {"double": {"source": "p", "target": "p", "comps": ["2*f1"]}},
        "algebras": {"rot2": {"builtin": "so2"}},
        "potentials": {"a": {"algebra": "rot2", "base_dim": 2, "a": [["log(x1)"], ["x1"]]}},
        "checks": [{"name": kind, "kind": kind, "samples": 8, **keys}],
    }
    config = _config(tmp_path, doc)
    (spec,) = config.checks
    coordinates = first_coordinates(stream(config.seed, spec.name), spec)
    first = next(k for k, x1 in enumerate(coordinates) if x1 <= 0.0)
    assert first > 0
    result = run_check(spec, config.seed)
    assert result.verdict == "error"
    value = coordinates[first]
    assert result.detail == f"DomainError: log of non-positive value {value} at sample {first}"
    assert result.detail.count("at sample") == 1


def test_non_finite_residuals_never_pass(tmp_path):
    # x1*1e300*1e300 overflows to +-inf, and inf - inf or inf*0 is NaN;
    # max(0.0, nan) is 0.0, which once let these rows pass with residual 0.
    doc = {
        "version": 1,
        "patches": {"p": {"base_dim": 2, "fiber_dim": 1}},
        "connections": {"inf": {"patch": "p", "gamma": [["x1*1e300*1e300", "0"]]}},
        "checks": [
            {"name": kind, "kind": kind, "connection": "inf"}
            for kind in (
                "curvature-coefficients",
                "nijenhuis-vs-coefficients",
                "commutator-identity",
            )
        ],
    }
    report = run_suite(_config(tmp_path, doc))
    rows = {c.name: c for c in report.checks}
    assert report.verdict == "fail"
    coefficients = rows["curvature-coefficients"]
    assert coefficients.verdict == "fail"
    assert coefficients.max_residual is None
    assert coefficients.detail == "non-finite residual nan at sample 0"
    # the two-term/four-term gap is a residual of the row like any other
    nijenhuis = rows["nijenhuis-vs-coefficients"]
    assert nijenhuis.verdict == "fail"
    assert nijenhuis.max_residual is None
    assert nijenhuis.detail == "non-finite residual nan at sample 0"
    # affine_diff refuses jets whose slots are NaN before any gap is judged
    commutator = rows["commutator-identity"]
    assert commutator.verdict == "error"
    assert commutator.detail.startswith("FiberMismatch:")
    assert "differs by nan" in commutator.detail


def test_connection_axiom_never_passes_a_non_finite_potential(tmp_path, capsys):
    # check_axiom once folded with max(worst, residual), which drops a NaN;
    # then it named no sample, and numpy warned about inf * 0 on stderr
    doc = {
        "version": 1,
        "algebras": {"so3": {"builtin": "so3"}},
        "potentials": {
            "inf": {
                "algebra": "so3",
                "base_dim": 2,
                "a": [["x1*1e300*1e300", "0", "0"], ["0", "0", "0"]],
            }
        },
        "checks": [
            {
                "name": "axiom",
                "kind": "connection-axiom",
                "potential": "inf",
                "samples": 5,
            }
        ],
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "report.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["check", str(config), "--format", "json", "--out", str(out)])
    assert code == 1
    assert caught == []
    assert capsys.readouterr().err == ""
    (row,) = json.loads(out.read_text(encoding="utf-8"))["checks"]
    assert row["verdict"] != "pass"
    assert row["max_residual"] is None
    assert row["detail"].startswith("non-finite residual")
    assert " at sample " in row["detail"]


def _cartan_row(tmp_path, rows):
    doc = {
        "version": 1,
        "algebras": {"so3": {"builtin": "so3"}},
        "potentials": {"a": {"algebra": "so3", "base_dim": 2, "a": rows}},
        "checks": [{"name": "cartan", "kind": "cartan-cross-check", "potential": "a"}],
    }
    (row,) = run_suite(_config(tmp_path, doc)).checks
    return row


def test_the_group_elements_of_a_contracting_algebra_meet_the_determinant_floor(tmp_path):
    # exp(c E) = e^{-60 c} has a determinant under the floor of lie.group_stack
    # once c > 0.38; the axiom trials' logs are refused as one stack in trial
    # order, and the cross-check's first such chart center at its draw
    doc = {
        "version": 1,
        "seed": 0,
        "algebras": {"contracting": {"basis": [[[-60.0]]]}},
        "potentials": {"a": {"algebra": "contracting", "base_dim": 2, "a": [["x1"], ["x2"]]}},
        "checks": [
            {"name": "axiom", "kind": "connection-axiom", "potential": "a"},
            {"name": "cartan", "kind": "cartan-cross-check", "potential": "a"},
        ],
    }
    rows = run_suite(_config(tmp_path, doc)).checks
    assert [(row.name, row.verdict, row.detail) for row in rows] == [
        ("axiom", "error", "SingularMatrix: matrix is numerically singular (|det| = 1.356e-25)"),
        ("cartan", "error", "SingularMatrix: matrix is numerically singular (|det| = 3.496e-24)"),
    ]


def test_cartan_cross_check_of_a_non_finite_potential_is_refused_by_its_jets(tmp_path):
    # route one's curvature holds NaNs; its antisymmetry test once counted
    # two matching NaNs as unequal and raised "curvature coefficients must be
    # antisymmetric", a fault of no route.  Now route three's jets refuse
    # the NaN, as those of commutator-identity do
    row = _cartan_row(tmp_path, [["x1*1e300*1e300", "0", "0"], ["0", "0", "0"]])
    assert (row.verdict, row.max_residual) == ("error", None)
    assert row.detail.startswith("FiberMismatch:")
    assert "differs by nan" in row.detail


def test_cartan_cross_check_keeps_the_fail_row_of_an_overflowing_potential(tmp_path):
    # exp(700*x1) is finite, and so is every deviation, however large; a
    # stacked form of cartan_curvature's pair loop would form d - d on the
    # diagonal, NaN where a partial overflowed, and error the row
    row = _cartan_row(tmp_path, [["exp(700*x1)", "0", "0"], ["0", "x2", "0"]])
    assert row.verdict == "fail"
    assert np.isfinite(row.max_residual) and row.max_residual > row.tolerance
    assert row.detail.startswith("at sample 0:")


@pytest.mark.parametrize("expect", ["linear", "nonlinear"])
def test_linearity_never_passes_a_non_finite_connection(tmp_path, expect):
    # linearity_detect once compared with >, which is False for a NaN, so
    # a connection that is infinite everywhere counted as linear
    config = _single_check_config(
        tmp_path, ["x1*1e300*1e300*f1", "0"], kind="linearity", expect=expect
    )
    (row,) = run_suite(config).checks
    assert row.verdict != "pass"
    assert row.detail.startswith("non-finite residual")


@pytest.mark.parametrize("expect", ["linear", "nonlinear"])
def test_non_finite_linearity_row_names_its_violation(tmp_path, expect):
    # the probe's violation has no sample index; the row once said only
    # "non-finite residual nan" and dropped the text naming x, v and lambda
    config = _single_check_config(
        tmp_path, ["x1*1e300*1e300*f1", "0"], kind="linearity", expect=expect
    )
    (row,) = run_suite(config).checks
    assert row.verdict == "fail"
    assert row.max_residual is None
    assert row.detail.startswith("non-finite residual nan: Gamma^1_1 at x=(")
    assert ", v=(" in row.detail
    assert ": scaling by " in row.detail


@pytest.mark.parametrize(
    "kind", ["curvature-coefficients", "nijenhuis-vs-coefficients", "commutator-identity"]
)
def test_a_symbol_whose_second_derivative_underflows_is_checked(tmp_path, kind):
    # the second derivative of log once divided by u*u, which underflows to
    # 0 here, and raised ZeroDivisionError even in first-order sweeps
    config = _single_check_config(tmp_path, ["log((x1 + 2)*1e-200)*f1", "x1"], kind=kind)
    result = run_check(config.checks[0], config.seed)
    assert result.verdict == "pass", result.detail


@pytest.mark.parametrize(
    "kind", ["curvature-coefficients", "nijenhuis-vs-coefficients", "commutator-identity"]
)
def test_a_power_whose_second_derivative_overflows_is_checked(tmp_path, kind):
    # the second derivative 2 u^-3 of u^-1 once raised DomainError on
    # overflow even in first-order sweeps, and made these error rows
    config = _single_check_config(tmp_path, ["(x1*1e-150)^-1*f1", "0"], kind=kind)
    result = run_check(config.checks[0], config.seed)
    assert result.verdict == "pass", result.detail


def _verify_declarations(tmp_path, check):
    """The declarations of ``fixtures/verify.json`` with ``check`` as the
    only check, named ``only``."""
    doc = json.loads((FIXTURES / "verify.json").read_text(encoding="utf-8"))
    doc["checks"] = [dict(check, name="only")]
    return _config(tmp_path, doc)


def _parallel_check(connection, expect):
    return {
        "kind": "parallel-morphism",
        "morphism": "double",
        "connection": connection,
        "connection_hat": connection,
        "expect": expect,
    }


@pytest.mark.parametrize(
    "check, samples",
    [
        (_parallel_check("linleg", "not-parallel"), 10),
        ({"kind": "linearity", "connection": "linleg", "expect": "nonlinear"}, 64),
    ],
    ids=["not-parallel", "nonlinear"],
)
def test_a_row_that_expects_a_violation_fails_without_one(tmp_path, check, samples):
    (row,) = run_suite(_verify_declarations(tmp_path, check)).checks
    assert row.verdict == "fail"
    assert row.max_residual <= row.tolerance
    assert row.detail == f"no violation found in {samples} samples"


def test_a_parallel_row_above_tolerance_names_its_worst_sample(tmp_path):
    config = _verify_declarations(tmp_path, _parallel_check("quadratic", "parallel"))
    (row,) = run_suite(config).checks
    assert row.verdict == "fail"
    assert row.max_residual > row.tolerance
    # replay the row's draws: the detail names the first sample of the
    # largest residual
    spec = config.checks[0]
    rng = stream(config.seed, spec.name)
    points = [sample_point(rng, 2, 1) for _ in range(spec.samples)]
    field = spec.params["connection"]
    residuals = bundle.is_parallel_morphism(spec.params["morphism"], field, field, points)
    worst = points[residuals.index(row.max_residual)]
    assert row.detail == (
        f"largest residual {row.max_residual:.3e} at x={worst.x}, f={worst.f}"
    )


# Replays of each kind's documented draw order: the samples are drawn from
# the check's stream through public sampling functions, in the order
# docs/config-schema.md gives, and the route's numbers recomputed from them.


def _replay_coefficients(spec, rng):
    field = spec.params["connection"]
    points = [sample_point(rng, *field.patch.dims) for _ in range(spec.samples)]
    exact = [curvature_coefficients(field, p) for p in points]
    approx = [checks._fd_curvature(field, StackedPoint.of((p,)))[..., 0] for p in points]
    return [float(np.abs(e - a).max()) for e, a in zip(exact, approx)]


def _replay_nijenhuis(spec, rng):
    field = spec.params["connection"]
    m, n = field.patch.dims
    points = [sample_point(rng, m, n) for _ in range(spec.samples)]
    coords = [TotalVectorField.coordinate(field.patch, mu) for mu in range(1, m + 1)]
    deviations = []
    for p in points:
        tensor, gap = nijenhuis_tensor(field, coords, StackedPoint.of((p,)))
        coeffs = curvature_coefficients(field, p)
        deviations.append(max(float(np.abs(tensor[..., 0] - coeffs).max()), gap[0]))
    return deviations


def _replay_commutator(spec, rng):
    field = spec.params["connection"]
    named = spec.params["section"]
    deviations = []
    for _ in range(spec.samples):
        s = named if named is not None else sample_section(rng, field.patch)
        x = sample_point(rng, field.patch.base_dim).x
        coeffs = curvature_coefficients(field, EvalPoint(x, s.value(x)))
        tensor, gap = commutator_tensor(field, [(s, x)])
        deviations.append(max(float(np.abs(tensor[..., 0] - coeffs).max()), gap[0]))
    return deviations


def _replay_theta(spec, rng):
    m, n = spec.params["base_dim"], spec.params["fiber_dim"]
    gaps = []
    for _ in range(spec.samples):
        h = sample_transition(rng, n)
        j = sample_second_jet(rng, m, n)
        a = pushforward_second_jet(h, theta(j))
        b = theta(pushforward_second_jet(h, j))
        gaps.append(float(np.max(np.abs(a - b))))
    return gaps


def _replay_axiom(spec, rng):
    potential = spec.params["potential"]
    trials = [
        sample_axiom_trials(rng, potential.algebra, potential.base_dim, 1)[0]
        for _ in range(spec.samples)
    ]
    return check_axiom(potential, trials)


def _replay_cartan(spec, rng):
    potential = spec.params["potential"]
    m = potential.base_dim
    counts = (spec.params["group_samples"] - 1, spec.params["section_samples"])
    deviations = []
    for _ in range(spec.samples):
        x = sample_point(rng, m).x
        centers, sections = sample_cross_check(rng, potential.algebra, m, *counts)
        [report] = curvature_cross_check(potential, [(x, centers, sections)])
        deviations.append(report.max_deviation)
    return deviations


def _replay_bch(spec, rng):
    algebra = spec.params["algebra"]
    deviations = []
    for _ in range(spec.samples):
        g = exp(algebra, sample_algebra_element(rng, algebra, 0.5))
        x, y, z = (sample_algebra_element(rng, algebra, 0.5 / algebra.k) for _ in range(3))
        [report] = theta_bch_verify(algebra, [(g, x, y, z)])
        deviations.append(report.max_deviation)
    return deviations


def _replay_linearity(spec, rng):
    # the probe's first violation is the row's one number
    field = spec.params["connection"]
    points = [sample_point(rng, *field.patch.dims) for _ in range(spec.samples)]
    violation = linearity_detect(
        field, points, spec.tolerance, spec.params["lambdas"]
    ).violation
    return [abs(violation.actual - violation.expected)]


def _replay_consistency(spec, rng):
    linear = spec.params["linear_connection"]
    m, n = linear.patch.dims
    points = [sample_point(rng, m, n) for _ in range(spec.samples)]
    return [linear_curvature_consistency(linear, p.x, p.f) for p in points]


#: A linear connection whose two curvature routes differ by rounding; those
#: of the fixture's ``lin1`` agree exactly, so a scaled deviation would not
#: show there.
_LIN2 = {
    "patch": "p22",
    "gamma3": [
        [["x1*x2", "x2 - 1"], ["x1^2", "0.5"]],
        [["sin(x2)", "x1"], ["0", "x1*x2^2"]],
    ],
}


#: A section of the fixture's two-fiber patch, for a commutator row that
#: draws no section.
_S2 = {"patch": "p22", "comps": ["x1*x2 - 0.5", "x2^2 + 0.25*x1"]}


def _replay_row(tmp_path, check, replay):
    """Run ``check`` on the declarations of ``fixtures/verify.json``, and
    assert its row passes with the largest number ``replay`` recomputes
    from the check's stream."""
    doc = json.loads((FIXTURES / "verify.json").read_text(encoding="utf-8"))
    doc["linear_connections"]["lin2"] = _LIN2
    doc["sections"] = {"s2": _S2}
    doc["checks"] = [dict(check, name="only")]
    config = _config(tmp_path, doc)
    (spec,) = config.checks
    numbers = replay(spec, stream(config.seed, spec.name))
    assert len(numbers) == (1 if spec.kind == "linearity" else spec.samples)
    assert max(numbers) > 0.0
    result = run_check(spec, config.seed)
    assert result.verdict == "pass", result.detail
    assert result.max_residual == max(numbers)


@pytest.mark.parametrize(
    "check, replay",
    [
        ({"kind": "curvature-coefficients", "connection": "poly"}, _replay_coefficients),
        ({"kind": "nijenhuis-vs-coefficients", "connection": "poly"}, _replay_nijenhuis),
        (
            {"kind": "commutator-identity", "connection": "poly", "section": "s2"},
            _replay_commutator,
        ),
        ({"kind": "commutator-identity", "connection": "poly"}, _replay_commutator),
        ({"kind": "theta-equivariance"}, _replay_theta),
        ({"kind": "connection-axiom", "potential": "rot3const"}, _replay_axiom),
        ({"kind": "cartan-cross-check", "potential": "abelian2"}, _replay_cartan),
        ({"kind": "cartan-cross-check", "potential": "rot3const"}, _replay_cartan),
        ({"kind": "bch-theta", "algebra": "rot3"}, _replay_bch),
        (
            {"kind": "linearity", "connection": "quadratic", "expect": "nonlinear"},
            _replay_linearity,
        ),
        ({"kind": "linear-consistency", "linear_connection": "lin2"}, _replay_consistency),
    ],
    ids=[
        "coefficients",
        "nijenhuis",
        "commutator-named",
        "commutator-sampled",
        "theta",
        "axiom",
        "cartan-abelian",
        "cartan-so3",
        "bch",
        "nonlinear",
        "consistency",
    ],
)
def test_a_row_reports_the_largest_number_of_its_route(tmp_path, check, replay):
    # the routes return numbers only; the row passes the largest through
    # unchanged, and run_check alone compares it with the tolerance
    _replay_row(tmp_path, check, replay)


class _LockingStream(SplitMix64):
    """A check's stream that refuses to draw once the check has entered a
    route."""

    def __init__(self, inner: SplitMix64):
        super().__init__(0)
        self.inner = inner
        self.draws = 0
        self.locked = False

    def _draw(self, count: int) -> None:
        if self.locked:
            raise AssertionError(f"draw {self.draws + 1} came after a route call")
        self.draws += count

    def next_raw(self) -> int:
        self._draw(1)
        return self.inner.next_raw()

    def symmetric_block(self, count: int, scale: float = 1.0):
        self._draw(count)
        return self.inner.symmetric_block(count, scale)


#: The modules whose functions the runners call as routes.
_ROUTE_MODULES = {
    f"curvcheck.{m}" for m in ("bundle", "prolong", "principal", "linear", "numcore")
}


def test_every_runner_draws_all_its_samples_before_its_first_route_call(
    tmp_path, monkeypatch
):
    streams = []

    def locking_stream(seed, name):
        streams.append(_LockingStream(stream(seed, name)))
        return streams[-1]

    def locking(route):
        def entered(*args, **kwargs):
            streams[-1].locked = True
            return route(*args, **kwargs)

        return entered

    monkeypatch.setattr(checks, "stream", locking_stream)
    for name, value in list(vars(checks).items()):
        if inspect.isfunction(value) and value.__module__ in _ROUTE_MODULES:
            monkeypatch.setattr(checks, name, locking(value))
    doc = json.loads((FIXTURES / "verify.json").read_text(encoding="utf-8"))
    doc["sections"] = {"s2": _S2}
    doc["checks"].append(
        {
            "name": "commutator-named",
            "kind": "commutator-identity",
            "connection": "poly",
            "section": "s2",
        }
    )
    config = _config(tmp_path, doc)
    assert {spec.kind for spec in config.checks} == set(CHECK_KINDS)
    report = run_suite(config)
    for row, rng in zip(report.checks, streams):
        assert row.verdict != "error", (row.name, row.detail)
        assert rng.locked, row.name
    assert len(streams) == len(report.checks)
    # every row draws, the named-section commutator row its base points only
    assert all(rng.draws > 0 for rng in streams)


def test_every_check_kind_has_a_runner():
    # a kind without a runner would only show as a KeyError row at run time
    assert sorted(checks._RUNNERS) == sorted(CHECK_KINDS)


def test_three_thousand_term_symbol_is_checked(tmp_path):
    # a left-deep sum far past the recursion limit once gave an error row
    terms = " + ".join(f"0.001*x1^{k % 3}*f1" for k in range(3000))
    config = _single_check_config(tmp_path, [terms, "x1*x2"])
    result = run_check(config.checks[0], config.seed)
    assert result.verdict == "pass", result.detail
    assert result.max_residual <= 1e-9


def test_three_thousand_term_symbol_is_differentiated_symbolically(tmp_path):
    # the prolonged connection and the linearity probe differentiate the
    # symbol as a tree, which once recursed per node into a RecursionError
    terms = " + ".join(f"{k % 7 + 1}e-4*x1*f1" for k in range(3000))
    doc = {
        "version": 1,
        "patches": {"p": {"base_dim": 2, "fiber_dim": 1}},
        "connections": {"g": {"patch": "p", "gamma": [[terms, "x2*f1"]]}},
        "checks": [
            {"name": "commutator", "kind": "commutator-identity", "connection": "g"},
            {"name": "linearity", "kind": "linearity", "connection": "g"},
        ],
    }
    report = run_suite(_config(tmp_path, doc))
    for row in report.checks:
        assert row.verdict == "pass", (row.name, row.detail)


@pytest.mark.parametrize("m, n", [(2, 2), (3, 3)])
def test_nijenhuis_sample_takes_one_jet_per_field_part(tmp_path, monkeypatch, m, n):
    # the plain, (id-P) and P parts of each coordinate field get one jet of
    # m+n gradients each, the coefficients one gradient per symbol: 28 at
    # m = n = 2, where one route call per ordered pair took 164
    field = sample_christoffel(SplitMix64(m), BundlePatch(m, n))
    doc = {
        "version": 1,
        "patches": {"p": {"base_dim": m, "fiber_dim": n}},
        "connections": {
            "g": {"patch": "p", "gamma": [[unparse(e) for e in row] for row in field.gamma]}
        },
        "checks": [
            {"name": "only", "kind": "nijenhuis-vs-coefficients", "connection": "g",
             "samples": 1}
        ],
    }
    config = _config(tmp_path, doc)
    calls = []
    original = bundle.gradient

    def counting(e, p):
        calls.append(e)
        return original(e, p)

    monkeypatch.setattr(bundle, "gradient", counting)
    assert run_check(config.checks[0], config.seed).verdict == "pass"
    assert len(calls) <= 3 * m * (m + n) + n * m


_STACKED_KINDS = ["curvature-coefficients", "nijenhuis-vs-coefficients", "commutator-identity"]


def _connection_check(tmp_path, kind, samples):
    """A ``kind`` row of ``samples`` samples on a sampled connection of a
    (2, 2) patch, and the connection's symbols."""
    field = sample_christoffel(SplitMix64(5), BundlePatch(2, 2))
    doc = {
        "version": 1,
        "patches": {"p": {"base_dim": 2, "fiber_dim": 2}},
        "connections": {
            "g": {"patch": "p", "gamma": [[unparse(e) for e in row] for row in field.gamma]}
        },
        "checks": [{"name": "only", "kind": kind, "connection": "g", "samples": samples}],
    }
    config = _config(tmp_path, doc)
    (spec,) = config.checks
    symbols = [e for row in spec.params["connection"].gamma for e in row]
    return spec, config.seed, symbols


def _numcore_calls(monkeypatch) -> list:
    """Record ``(module, expression, point)`` for every call of a numcore
    entry point that a route module makes."""
    calls = []
    for module in (bundle, checks, prolong):
        for name in ("evaluate", "gradient", "partial", "directional", "mixed_second"):
            original = getattr(module, name, None)
            if original is None or original is not getattr(numcore, name):
                continue

            def spy(e, p, *args, _module=module.__name__, _original=original):
                calls.append((_module, e, p))
                return _original(e, p, *args)

            monkeypatch.setattr(module, name, spy)
    return calls


def _fd_curvature_point_by_point(field, p):
    """The finite-difference coefficients at ``p`` from one evaluation per
    stencil point."""
    m, n = field.patch.dims

    def at(e, i, delta):
        z = list(p.x + p.f)
        z[i] += delta
        return evaluate(e, EvalPoint(tuple(z[:m]), tuple(z[m:])))

    vals = np.array([[evaluate(e, p) for e in row] for row in field.gamma])
    grads = np.array([
        [
            [central_difference(*(at(e, i, d) for d in checks._FD_SHIFTS), checks._FD_STEP)
             for i in range(m + n)]
            for e in row
        ]
        for row in field.gamma
    ])
    return bundle._coordinate_curvature(vals, grads[:, :, :m], grads[:, :, m:])


def test_the_stacked_stencil_gives_each_point_its_own_coefficients():
    field = sample_christoffel(SplitMix64(6), BundlePatch(2, 3))
    points = [sample_point(SplitMix64(7 + k), 2, 3) for k in range(3)]
    R = checks._fd_curvature(field, StackedPoint.of(points))
    assert R.shape == (3, 2, 2, 3)
    for sample, p in enumerate(points):
        expected = _fd_curvature_point_by_point(field, p).tobytes()
        alone = checks._fd_curvature(field, StackedPoint.of((p,)))[..., 0]
        assert R[..., sample].tobytes() == alone.tobytes() == expected


@pytest.mark.parametrize("kind", _STACKED_KINDS)
def test_a_check_of_few_samples_sweeps_its_points_on_floats(tmp_path, monkeypatch, kind):
    # one-point checks ran slower on stacks; only the finite-difference
    # stencil, of at least 1 + 4 (m + n) points, is stacked at any count
    samples = numcore._STACK_MIN - 1
    spec, seed, _ = _connection_check(tmp_path, kind, samples)
    calls = _numcore_calls(monkeypatch)
    assert run_check(spec, seed).verdict == "pass"
    stacked = [(module, p) for module, _, p in calls if not isinstance(p, EvalPoint)]
    if kind == "curvature-coefficients":
        assert stacked == [("curvcheck.checks", stacked[0][1])] * 4
        assert stacked[0][1].size == samples * (1 + 4 * 4)
    else:
        assert stacked == []
    assert any(isinstance(p, EvalPoint) for _, _, p in calls)


@pytest.mark.parametrize("kind", _STACKED_KINDS)
def test_a_check_of_many_samples_sweeps_each_symbol_once_per_route(
    tmp_path, monkeypatch, kind
):
    sweeps = []
    for samples in (numcore._STACK_MIN, 2 * numcore._STACK_MIN):
        spec, seed, symbols = _connection_check(tmp_path, kind, samples)
        calls = _numcore_calls(monkeypatch)
        assert run_check(spec, seed).verdict == "pass"
        stacked = [(module, e, p) for module, e, p in calls if isinstance(p, StackedPoint)]
        if kind == "commutator-identity":
            # the coefficients at the section images, then the commutator
            # route's connection side: the symbols' gradients for the
            # five-term jets, their tangent sweeps for the prolonged route,
            # and the prolonged symbols at sigma, for each nu column mu of
            # every pair (mu, nu); the sections' own sweeps stay one sample
            # at a time
            m = spec.params["connection"].patch.base_dim
            prolonged = prolong.vertical_connection(spec.params["connection"]).gamma
            at_sigma = [row[mu - 1] for nu in range(1, m + 1) for row in prolonged
                        for mu in range(1, m + 1) if mu != nu]
            assert [(module, e, p.size) for module, e, p in stacked] == [
                ("curvcheck.bundle", e, samples) for e in symbols
            ] + [("curvcheck.prolong", e, samples) for e in symbols + symbols + at_sigma]
        else:
            assert len(stacked) == len(calls)
        if kind == "curvature-coefficients":
            # the structural side, then one stencil of 1 + 4 (m + n) points
            # per sample
            assert [(module, e, p.size) for module, e, p in stacked] == [
                ("curvcheck.bundle", e, samples) for e in symbols
            ] + [("curvcheck.checks", e, samples * 17) for e in symbols]
        sweeps.append(len(stacked))
        monkeypatch.undo()
    assert sweeps[0] == sweeps[1]


def test_unreachable_tolerance_fails(tmp_path):
    config = _single_check_config(tmp_path, ["0", "x1*f1"], tolerance=1e-30)
    result = run_check(config.checks[0], config.seed)
    assert result.verdict == "fail"
    assert result.max_residual is not None
    assert result.max_residual > 1e-30


def test_run_check_deterministic(tmp_path):
    config = _single_check_config(tmp_path, ["x2 + f1^2", "x1*f1"])
    a = run_check(config.checks[0], config.seed)
    b = run_check(config.checks[0], config.seed)
    assert a == b


def test_check_seed_overrides_suite_seed(tmp_path):
    config = _single_check_config(tmp_path, ["x2 + f1^2", "x1*f1"], seed=7)
    a = run_check(config.checks[0], suite_seed=0)
    b = run_check(config.checks[0], suite_seed=99)
    assert a == b


def test_suite_seed_changes_draws(tmp_path):
    config = _single_check_config(tmp_path, ["x2 + f1^2", "x1*f1"])
    a = run_check(config.checks[0], suite_seed=0)
    b = run_check(config.checks[0], suite_seed=1)
    assert a.max_residual != b.max_residual


# --- run_suite --------------------------------------------------------------


def test_verify_fixture_suite_passes():
    config = load_config(str(FIXTURES / "verify.json"))
    report = run_suite(config)
    assert report.verdict == "pass"
    assert [c.name for c in report.checks] == sorted(c.name for c in report.checks)
    assert report.config_digest == config.digest
    assert all(c.verdict == "pass" for c in report.checks)


def test_jobs_do_not_change_results():
    config = load_config(str(FIXTURES / "verify.json"))
    serial = to_json_dict(run_suite(config, jobs=1))
    parallel = to_json_dict(run_suite(config, jobs=4))
    serial.pop("duration_seconds")
    parallel.pop("duration_seconds")
    assert serial == parallel


def test_failing_check_never_blocks_the_rest(tmp_path):
    doc = {
        "version": 1,
        "patches": {"p": {"base_dim": 2, "fiber_dim": 1}},
        "connections": {
            "bad": {"patch": "p", "gamma": [["log(x1 - 2)", "0"]]},
            "good": {"patch": "p", "gamma": [["0", "0"]]},
        },
        "checks": [
            {"name": "a-bad", "kind": "curvature-coefficients", "connection": "bad"},
            {"name": "b-good", "kind": "curvature-coefficients", "connection": "good"},
        ],
    }
    report = run_suite(_config(tmp_path, doc))
    assert report.verdict == "fail"
    by_name = {c.name: c for c in report.checks}
    assert by_name["a-bad"].verdict == "error"
    assert by_name["b-good"].verdict == "pass"


def test_empty_suite_is_a_vacuous_pass(tmp_path):
    doc = {"version": 1, "checks": []}
    report = run_suite(_config(tmp_path, doc))
    assert report.verdict == "pass"
    assert report.checks == ()


# --- the forked workers of run_suite -----------------------------------------


def _three_checks(tmp_path):
    """Checks a, b and c on a flat connection, for runners patched per name."""
    doc = {
        "version": 1,
        "patches": {"p": {"base_dim": 2, "fiber_dim": 1}},
        "connections": {"flat": {"patch": "p", "gamma": [["0", "0"]]}},
        "checks": [
            {"name": name, "kind": "curvature-coefficients", "connection": "flat"}
            for name in ("c", "a", "b")
        ],
    }
    path = tmp_path / "three.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _report_pid(spec, rng, row):
    # the note is the detail of a row above tolerance
    row.add(1.0, 0)
    row.note = str(os.getpid())


def test_jobs_run_checks_in_forked_workers(tmp_path, monkeypatch):
    monkeypatch.setitem(checks._RUNNERS, "curvature-coefficients", _report_pid)
    config = load_config(_three_checks(tmp_path))
    caller = str(os.getpid())
    serial = run_suite(config, jobs=1)
    assert [c.detail for c in serial.checks] == [caller] * 3
    for jobs in (2, 8):
        forked = run_suite(config, jobs=jobs)
        assert [c.name for c in forked.checks] == ["a", "b", "c"]
        workers = {c.detail for c in forked.checks}
        assert caller not in workers
        # min(jobs, checks) workers, so never more processes than checks
        assert 1 <= len(workers) <= min(jobs, 3)


def test_jobs_run_serially_where_fork_is_unavailable(tmp_path, monkeypatch):
    monkeypatch.delattr(os, "fork")
    config = load_config(str(FIXTURES / "verify.json"))
    serial = to_json_dict(run_suite(config, jobs=1))
    parallel = to_json_dict(run_suite(config, jobs=2))
    serial.pop("duration_seconds")
    parallel.pop("duration_seconds")
    assert serial == parallel
    monkeypatch.setitem(checks._RUNNERS, "curvature-coefficients", _report_pid)
    rows = run_suite(load_config(_three_checks(tmp_path)), jobs=2).checks
    assert [c.detail for c in rows] == [str(os.getpid())] * 3


def test_a_worker_that_dies_becomes_error_rows(tmp_path, monkeypatch, capfd):
    # a finishes; b's worker dies once a's row has had time to come back;
    # c is running or still queued then, so its row never comes back.
    done = tmp_path / "a-done"

    def runner(spec, rng, row):
        if spec.name == "a":
            done.write_text("", encoding="utf-8")
        elif spec.name == "b":
            while not done.exists():
                time.sleep(0.01)
            time.sleep(0.5)
            os._exit(3)
        else:
            time.sleep(60)

    monkeypatch.setitem(checks._RUNNERS, "curvature-coefficients", runner)
    assert main(["check", _three_checks(tmp_path), "--format", "json", "--jobs", "2"]) == 1
    out, err = capfd.readouterr()
    assert err == ""
    rows = json.loads(out)["checks"]
    assert [(r["name"], r["verdict"]) for r in rows] == [
        ("a", "pass"),
        ("b", "error"),
        ("c", "error"),
    ]
    for row in rows[1:]:
        assert row["detail"] == (
            "BrokenProcessPool: a worker process exited with code 3 before its row came back"
        )
        assert row["max_residual"] is None
        assert row["tolerance"] == rows[0]["tolerance"]
    _assert_no_child_left()


def test_rows_that_came_back_keep_their_verdicts_when_a_worker_dies(tmp_path, monkeypatch):
    # a's row comes back first, so c, the last check, goes to a's worker,
    # which is killed once b's row has had time to come back.
    b_done = tmp_path / "b-done"

    def runner(spec, rng, row):
        if spec.name == "b":
            time.sleep(0.2)
            b_done.write_text("", encoding="utf-8")
        elif spec.name == "c":
            while not b_done.exists():
                time.sleep(0.01)
            time.sleep(0.5)
            os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setitem(checks._RUNNERS, "curvature-coefficients", runner)
    rows = run_suite(load_config(_three_checks(tmp_path)), jobs=2).checks
    assert [(c.name, c.verdict) for c in rows] == [
        ("a", "pass"),
        ("b", "pass"),
        ("c", "error"),
    ]
    assert rows[2].detail == (
        "BrokenProcessPool: a worker process was killed by SIGKILL before its row came back"
    )


@contextlib.contextmanager
def _alarm(seconds, handler):
    """Call ``handler`` on SIGALRM, ``seconds`` from now, within the block."""
    previous = signal.signal(signal.SIGALRM, handler)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_no_worker_outlives_run_suite(tmp_path, monkeypatch):
    config = load_config(_three_checks(tmp_path))
    run_suite(config, jobs=2)
    _assert_no_child_left()
    # the caller is interrupted while it waits on workers that never finish
    monkeypatch.setitem(
        checks._RUNNERS, "curvature-coefficients", lambda spec, rng, row: time.sleep(60)
    )
    with _alarm(0.5, signal.default_int_handler), pytest.raises(KeyboardInterrupt):
        run_suite(config, jobs=2)
    _assert_no_child_left()


def test_an_interrupt_during_cleanup_still_reaps_every_worker(tmp_path, monkeypatch):
    # the first wait for a worker sends SIGINT to this process, as a ^C in
    # the terminal would, and then waits
    config = load_config(_three_checks(tmp_path))
    real_waitpid = os.waitpid
    sent = []

    def interrupting_waitpid(pid, options):
        if not sent:
            sent.append(pid)
            os.kill(os.getpid(), signal.SIGINT)
        return real_waitpid(pid, options)

    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        with monkeypatch.context() as patch, pytest.raises(KeyboardInterrupt):
            patch.setattr(os, "waitpid", interrupting_waitpid)
            run_suite(config, jobs=2)
    finally:
        signal.signal(signal.SIGINT, previous)
    assert sent
    _assert_no_child_left()


def test_rows_larger_than_a_pipe_buffer_in_total_come_back(tmp_path, monkeypatch):
    # 3000 rows of 200-byte details, far more than a pipe buffer holds
    def long_detail(spec, rng, row):
        row.add(1.0, 0)
        row.note = spec.name.ljust(200, ".")

    doc = {
        "version": 1,
        "patches": {"p": {"base_dim": 2, "fiber_dim": 1}},
        "connections": {"flat": {"patch": "p", "gamma": [["0", "0"]]}},
        "checks": [
            {"name": f"check-{i:04d}", "kind": "curvature-coefficients", "connection": "flat"}
            for i in range(3000)
        ],
    }
    config = _config(tmp_path, doc)
    monkeypatch.setitem(checks._RUNNERS, "curvature-coefficients", long_detail)

    def deadlocked(signum, frame):
        raise TimeoutError("the forked run did not finish in 60 s")

    with _alarm(60, deadlocked):
        forked = to_json_dict(run_suite(config, jobs=2))
    serial = to_json_dict(run_suite(config, jobs=1))
    forked.pop("duration_seconds")
    serial.pop("duration_seconds")
    assert forked == serial
    assert len(serial["checks"]) == 3000
    assert len(serial["checks"][0]["detail"]) == 200


# --- report rendering -------------------------------------------------------


def _sample_report():
    return RunReport(
        tool_version="0.0-test",
        config_digest="d" * 64,
        seed=0,
        duration_seconds=0.25,
        checks=(
            CheckResult("alpha", "curvature-coefficients", 10, 1e-12, 1e-9, "pass"),
            CheckResult("beta", "linearity", 64, 3.5, 1e-9, "fail", "scaling broke"),
            CheckResult("gamma", "bch-theta", 5, None, 1e-4, "error", "DomainError: x"),
        ),
    )


def test_text_table_lists_failing_rows_first():
    text = render_text(_sample_report())
    lines = text.splitlines()
    beta = next(i for i, l in enumerate(lines) if l.startswith("beta"))
    gamma = next(i for i, l in enumerate(lines) if l.startswith("gamma"))
    alpha = next(i for i, l in enumerate(lines) if l.startswith("alpha"))
    assert beta < alpha and gamma < alpha
    assert "FAIL" in lines[beta]
    assert "ERROR" in lines[gamma]
    assert "scaling broke" in text
    assert "verdict: fail (3 checks, 2 failed)" in text


def test_error_rows_render_dash_residual():
    text = render_text(_sample_report())
    gamma_line = next(l for l in text.splitlines() if l.startswith("gamma"))
    assert " - " in gamma_line


def test_json_dict_shape():
    doc = to_json_dict(_sample_report())
    assert doc["verdict"] == "fail"
    assert doc["tool_version"] == "0.0-test"
    assert len(doc["checks"]) == 3
    assert doc["checks"][2]["max_residual"] is None
    json.dumps(doc)  # must be serializable as-is


def test_emit_json_to_stdout(capsys):
    report = RunReport("v", "x" * 64, 0, 0.0, ())
    emit(report, format="json")
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "pass"
    assert payload["checks"] == []


def test_emit_text_to_file(tmp_path):
    out = tmp_path / "report.txt"
    emit(_sample_report(), format="text", out_path=str(out))
    assert "verdict: fail" in out.read_text(encoding="utf-8")


def test_emit_rejects_unknown_format():
    with pytest.raises(ValueError):
        emit(_sample_report(), format="yaml")


def test_emit_wraps_write_failures(tmp_path):
    with pytest.raises(IoError):
        emit(_sample_report(), format="json", out_path=str(tmp_path / "no" / "dir.json"))
