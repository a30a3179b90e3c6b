"""Tests for the check runners and report assembly: verdict mapping,
error capture, tolerance scaling, per-check streams, and rendering."""

import json
import warnings
from pathlib import Path

import pytest

from curvcheck import bundle
from curvcheck.bundle import BundlePatch
from curvcheck.cli import main
from curvcheck.config import load_config
from curvcheck.checks import run_check, run_suite
from curvcheck.report import CheckResult, RunReport, emit, render_text, to_json_dict
from curvcheck.errors import IoError
from curvcheck.exprdsl import unparse
from curvcheck.rng import SplitMix64
from curvcheck.sampling import sample_christoffel

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
    # negative and the logarithm faults deterministically.
    config = _single_check_config(tmp_path, ["log(x1 - 2)", "0"])
    result = run_check(config.checks[0], config.seed)
    assert result.verdict == "error"
    assert result.max_residual is None
    assert result.detail.startswith("DomainError:")


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
    # the in-route guards refuse a NaN deviation
    for name in ("nijenhuis-vs-coefficients", "commutator-identity"):
        assert rows[name].verdict == "error"
        assert rows[name].detail.startswith("InternalDisagreement:")
        assert "differ by nan" in rows[name].detail


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


def test_unreachable_tolerance_fails(tmp_path):
    config = _single_check_config(tmp_path, ["0", "x1*f1"], tolerance=1e-30)
    result = run_check(config.checks[0], config.seed)
    assert result.verdict == "fail"
    assert result.max_residual is not None
    assert result.max_residual > 1e-30


def test_tolerance_scale_multiplies_tolerance(tmp_path):
    config = _single_check_config(tmp_path, ["0", "x1*f1"], tolerance=1e-30)
    spec = config.checks[0]
    unscaled = run_check(spec, config.seed)
    scaled = run_check(spec, config.seed, tol_scale=1e25)
    assert scaled.tolerance == pytest.approx(1e-30 * 1e25)
    assert unscaled.verdict == "fail"
    assert scaled.verdict == "pass"
    assert scaled.max_residual == unscaled.max_residual


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
