"""Tests for the command line front end: exit codes, report emission,
determinism, the golden report fixture, and the tolerance-scale override."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from curvcheck import __version__
from curvcheck.cli import main

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
VERIFY = str(FIXTURES / "verify.json")
MINIMAL = str(FIXTURES / "minimal.json")


def _write_config(tmp_path, doc, name="config.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _sine_config(tmp_path, **check_extra):
    doc = {
        "version": 1,
        "patches": {"p": {"base_dim": 2, "fiber_dim": 1}},
        "connections": {"g": {"patch": "p", "gamma": [["0", "sin(x1)*f1"]]}},
        "checks": [
            dict(
                {"name": "wavy", "kind": "curvature-coefficients", "connection": "g"},
                **check_extra,
            )
        ],
    }
    return _write_config(tmp_path, doc)


def _strip_duration(text: str) -> str:
    return "\n".join(
        line for line in text.splitlines() if '"duration_seconds"' not in line
    )


# --- version and parse-expr -------------------------------------------------


def test_version_command(capsys):
    assert main(["version"]) == 0
    assert capsys.readouterr().out == f"curvcheck {__version__}\n"


def test_parse_expr_prints_canonical_form(capsys):
    assert main(["parse-expr", "x1 * sin( f1 )+2"]) == 0
    assert capsys.readouterr().out == "x1*sin(f1) + 2\n"


def test_parse_expr_caret_diagnostic(capsys):
    assert main(["parse-expr", "x1 +"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "x1 +"
    assert err[1] == "    ^"
    assert err[2].startswith("curvcheck: ")
    assert "offset 4" in err[2]


def test_parse_expr_unknown_identifier(capsys):
    assert main(["parse-expr", "y1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("curvcheck: ")
    assert "y1" in err


def test_parse_expr_respects_dims(capsys):
    assert main(["parse-expr", "f3", "--dims", "2,2"]) == 2
    assert "f3" in capsys.readouterr().err
    assert main(["parse-expr", "f3", "--dims", "2,3"]) == 0
    assert capsys.readouterr().out == "f3\n"


def test_parse_expr_rejects_deep_nesting(capsys):
    assert main(["parse-expr", "(" * 400 + "x1" + ")" * 400]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[-1].startswith("curvcheck: nesting deeper than")


def test_parse_expr_rejects_a_literal_that_overflows(capsys):
    for source, offset in (("1e999", 0), ("x1*1e400", 3)):
        assert main(["parse-expr", source]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[1] == " " * offset + "^"
        assert "overflows to infinity" in err[2]


def test_parse_expr_rejects_malformed_dims(capsys):
    for dims in ("2", "2,0", "0,2", "a,b", "1,2,3"):
        assert main(["parse-expr", "x1", "--dims", dims]) == 2
        assert capsys.readouterr().err.startswith("curvcheck: ")


# --- check: exit codes ------------------------------------------------------


def test_check_passes_on_verify_fixture(capsys):
    assert main(["check", VERIFY]) == 0
    out = capsys.readouterr().out
    assert "verdict: pass (13 checks, 0 failed)" in out


def test_check_json_output(capsys):
    assert main(["check", MINIMAL, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "pass"
    assert payload["tool_version"] == __version__
    assert len(payload["checks"]) == 1
    assert payload["checks"][0]["max_residual"] == 0.0


def test_check_exit_one_on_failure_but_report_still_emitted(tmp_path, capsys):
    config = _sine_config(tmp_path, tolerance=1e-30)
    assert main(["check", config]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "verdict: fail" in out


def test_check_exit_two_on_missing_config(tmp_path, capsys):
    assert main(["check", str(tmp_path / "absent.json")]) == 2
    assert capsys.readouterr().err.startswith("curvcheck: ")


def test_check_exit_two_on_schema_error(tmp_path, capsys):
    config = _write_config(tmp_path, {"version": 1, "bananas": {}})
    assert main(["check", config]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_check_exit_two_on_deeply_nested_expression(tmp_path, capsys):
    doc = {
        "version": 1,
        "patches": {"p": {"base_dim": 2, "fiber_dim": 1}},
        "connections": {"g": {"patch": "p", "gamma": [["0", "(" * 400 + "x1" + ")" * 400]]}},
        "checks": [{"name": "deep", "kind": "curvature-coefficients", "connection": "g"}],
    }
    assert main(["check", _write_config(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("curvcheck: ")
    assert "nesting deeper than" in err


def test_check_exit_two_on_a_literal_that_overflows(tmp_path, capsys):
    doc = {
        "version": 1,
        "patches": {"p": {"base_dim": 2, "fiber_dim": 1}},
        "connections": {"g": {"patch": "p", "gamma": [["0", "1e999*f1"]]}},
        "checks": [{"name": "inf", "kind": "curvature-coefficients", "connection": "g"}],
    }
    assert main(["check", _write_config(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("curvcheck: connections.g.gamma[0][1]: ")
    assert "overflows to infinity" in err


def test_check_exit_two_on_deeply_nested_json(tmp_path, capsys):
    # json.loads raises RecursionError on nesting this deep
    path = tmp_path / "deep.json"
    depth = 100000
    path.write_text('{"version": 1, "checks": ' + "[" * depth + "]" * depth + "}")
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"curvcheck: {path}: ")
    assert "Traceback" not in err


def test_parse_expr_prints_a_three_thousand_term_sum(capsys):
    source = " + ".join(["x1"] * 3000)
    assert main(["parse-expr", source]) == 0
    assert capsys.readouterr().out == source + "\n"


def test_check_rejects_bad_flags(capsys):
    assert main(["check", MINIMAL, "--jobs", "0"]) == 2
    capsys.readouterr()
    assert main(["check", MINIMAL, "--seed", "-1"]) == 2
    capsys.readouterr()


# --- check: determinism -----------------------------------------------------


def test_two_runs_identical_minus_duration(capsys):
    assert main(["check", VERIFY, "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert main(["check", VERIFY, "--format", "json"]) == 0
    second = capsys.readouterr().out
    assert _strip_duration(first) == _strip_duration(second)


def test_jobs_flag_does_not_change_output(capsys):
    assert main(["check", VERIFY, "--format", "json", "--jobs", "4"]) == 0
    parallel = capsys.readouterr().out
    assert main(["check", VERIFY, "--format", "json", "--jobs", "1"]) == 0
    serial = capsys.readouterr().out
    assert _strip_duration(parallel) == _strip_duration(serial)


def test_jobs_two_in_a_fresh_process_matches_jobs_one():
    # OPENBLAS_NUM_THREADS is dropped so that numpy may start BLAS threads
    # before the fork: on Python >= 3.12, os.fork then raises a
    # DeprecationWarning inside multiprocessing, which must not reach stderr.
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    outputs = []
    for jobs in ("2", "1"):
        proc = subprocess.run(
            [sys.executable, "-m", "curvcheck", "check", "fixtures/verify.json",
             "--format", "json", "--jobs", jobs],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        outputs.append(_strip_duration(proc.stdout))
    assert outputs[0] == outputs[1]


def test_seed_override_changes_sampled_residuals(tmp_path, capsys):
    config = _sine_config(tmp_path)
    assert main(["check", config, "--format", "json"]) == 0
    default_run = json.loads(capsys.readouterr().out)
    assert main(["check", config, "--format", "json", "--seed", "1"]) == 0
    reseeded = json.loads(capsys.readouterr().out)
    assert reseeded["seed"] == 1
    assert (
        reseeded["checks"][0]["max_residual"]
        != default_run["checks"][0]["max_residual"]
    )


def test_out_flag_writes_file_and_keeps_stdout_clean(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["check", MINIMAL, "--format", "json", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["verdict"] == "pass"


def test_unwritable_out_path_exits_two(tmp_path, capsys):
    target = str(tmp_path / "missing" / "report.json")
    assert main(["check", MINIMAL, "--out", target]) == 2
    assert capsys.readouterr().err.startswith("curvcheck: ")


# --- the golden report ------------------------------------------------------


def test_golden_report_reproduced(capsys):
    golden = json.loads((FIXTURES / "golden-report.json").read_text(encoding="utf-8"))
    assert main(["check", VERIFY, "--format", "json"]) == 0
    fresh = json.loads(capsys.readouterr().out)
    for key in ("verdict", "tool_version", "config_digest", "seed"):
        assert fresh[key] == golden[key], key
    assert len(fresh["checks"]) == len(golden["checks"])
    for got, want in zip(fresh["checks"], golden["checks"]):
        for key in ("name", "kind", "samples", "tolerance", "verdict", "detail"):
            assert got[key] == want[key], (want["name"], key)
        if want["max_residual"] is None:
            assert got["max_residual"] is None
        else:
            assert math.isclose(
                got["max_residual"], want["max_residual"], rel_tol=1e-6, abs_tol=1e-12
            ), want["name"]


# --- the tolerance-scale override -------------------------------------------


def test_tol_scale_env_rescues_tight_tolerance(tmp_path, capsys, monkeypatch):
    config = _sine_config(tmp_path, tolerance=1e-30)
    monkeypatch.setenv("CURVCHECK_TOL_SCALE", "1e25")
    assert main(["check", config, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["checks"][0]["tolerance"] == pytest.approx(1e-5)


def test_tol_scale_env_must_be_a_positive_number(capsys, monkeypatch):
    monkeypatch.setenv("CURVCHECK_TOL_SCALE", "banana")
    assert main(["check", MINIMAL]) == 2
    assert "CURVCHECK_TOL_SCALE" in capsys.readouterr().err
    monkeypatch.setenv("CURVCHECK_TOL_SCALE", "-2")
    assert main(["check", MINIMAL]) == 2
    assert "CURVCHECK_TOL_SCALE" in capsys.readouterr().err
