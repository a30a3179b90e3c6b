"""Tests for the command line front end: exit codes, report emission,
determinism, the golden report fixture, and the seed override."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

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


def _large_coefficient_config(tmp_path, **check_extra):
    """A correct connection whose symbols have coefficients near 1e4: its
    Nijenhuis and commutator rows read rounding of about 1e-8, most of it
    in the gaps of their second routes."""
    gamma = [
        ["1e4*x1*f1*f2 + 3e3*x2*f2", "2e4*f1*f1*x2 - 1e3*x1"],
        ["5e3*x2*f1 + 7e3*f2*f2", "1e4*x1*x2*f1"],
    ]
    doc = {
        "version": 1,
        "patches": {"p": {"base_dim": 2, "fiber_dim": 2}},
        "connections": {"big": {"patch": "p", "gamma": gamma}},
        "checks": [
            dict({"name": name, "kind": kind, "connection": "big"}, **check_extra)
            for name, kind in (
                ("nijenhuis", "nijenhuis-vs-coefficients"),
                ("commutator", "commutator-identity"),
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


def test_parse_expr_rejects_an_index_past_the_digit_limit(capsys):
    # 5000 digits are more than int() converts on Python 3.11 and later
    source = "x" + "1" * 5000
    assert main(["parse-expr", source, "--dims", "1,1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("curvcheck: base index 111")
    assert err.endswith(f"exceeds base dimension 1: {source!r}\n")


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


def _long_exponent() -> str:
    # past what int() reads from a string by default (4300 digits) and past
    # MAX_EXPONENT_DIGITS, so it is too long to read with or without the limit
    return "9" * 5000


def test_parse_expr_rejects_an_exponent_too_long_to_read(capsys):
    for source, offset in ((f"x1^{_long_exponent()}", 3), (f"x1^-{_long_exponent()}", 4)):
        assert main(["parse-expr", source]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[1] == " " * offset + "^"
        assert err[2].startswith("curvcheck: exponent of ")
        assert err[2].endswith(f"digits is too long (at offset {offset})")


def test_check_exit_two_on_an_exponent_too_long_to_read(tmp_path, capsys):
    doc = {
        "version": 1,
        "patches": {"p": {"base_dim": 2, "fiber_dim": 1}},
        "connections": {"g": {"patch": "p", "gamma": [[f"x1^{_long_exponent()}", "0"]]}},
        "checks": [{"name": "long", "kind": "curvature-coefficients", "connection": "g"}],
    }
    assert main(["check", _write_config(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("curvcheck: connections.g.gamma[0][0]: exponent of ")


def test_check_exit_two_on_a_four_hundred_digit_exponent(tmp_path, capsys):
    # int() reads it, but as a float it once overflowed in ^ and made every
    # row an error whose detail carried all 400 digits
    doc = {
        "version": 1,
        "patches": {"p": {"base_dim": 2, "fiber_dim": 1}},
        "connections": {"g": {"patch": "p", "gamma": [[f"x1^{'9' * 400}*f1", "0"]]}},
        "checks": [{"name": "long", "kind": "curvature-coefficients", "connection": "g"}],
    }
    assert main(["check", _write_config(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(
        "curvcheck: connections.g.gamma[0][0]: exponent of 400 digits is too long"
    )


def test_check_exit_two_on_a_basis_whose_brackets_overflow(tmp_path, capsys):
    # the commutators of entries of 1e200 overflow, and the NaN closure
    # residual once passed "residual > tol": the algebra loaded, numpy
    # warned, and every row of the check was a SingularMatrix error
    big = [
        [[0, 0, 0], [0, 0, -1e200], [0, 1e200, 0]],
        [[0, 0, 1e200], [0, 0, 0], [-1e200, 0, 0]],
        [[0, -1e200, 0], [1e200, 0, 0], [0, 0, 0]],
    ]
    doc = {
        "version": 1,
        "algebras": {"big": {"basis": big}},
        "checks": [{"name": "bch", "kind": "bch-theta", "algebra": "big"}],
    }
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["check", _write_config(tmp_path, doc)]) == 2
    assert caught == []
    err = capsys.readouterr().err
    assert err.startswith("curvcheck: algebras.big.basis: ")
    assert "RuntimeWarning" not in err


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


def test_check_rejects_bad_flags(tmp_path, capsys):
    assert main(["check", MINIMAL, "--jobs", "0"]) == 2
    capsys.readouterr()
    assert main(["check", MINIMAL, "--seed", "-1"]) == 2
    capsys.readouterr()
    # 2^64 would run the draws of seed 0 under a report naming 2^64
    out = str(tmp_path / "report.json")
    assert main(["check", MINIMAL, "--seed", str(2**64), "--out", out]) == 2
    assert "--seed must be non-negative and below 2^64" in capsys.readouterr().err
    assert not os.path.exists(out)
    assert main(["check", MINIMAL, "--seed", str(2**64 - 1), "--out", out]) == 0


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
    # before the fork: on Python >= 3.12, os.fork in curvcheck.checks then
    # raises a DeprecationWarning, which must not reach stderr.
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


def test_route_gaps_are_judged_by_the_row_tolerance(tmp_path, capsys):
    # the two-term/four-term and prolonged-connection gaps once raised
    # against their own 1e-9, whatever the row's tolerance; now, like every
    # residual, they fail above the default 1e-9 and pass below a looser one
    config = _large_coefficient_config(tmp_path)
    assert main(["check", config, "--format", "json"]) == 1
    rows = json.loads(capsys.readouterr().out)["checks"]
    assert [row["verdict"] for row in rows] == ["fail", "fail"]
    assert all(row["max_residual"] > 1e-9 for row in rows)

    config = _large_coefficient_config(tmp_path, tolerance=1e-3)
    assert main(["check", config, "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["checks"]
    assert [row["verdict"] for row in rows] == ["pass", "pass"]
    assert all(1e-9 < row["max_residual"] <= 1e-3 for row in rows)
