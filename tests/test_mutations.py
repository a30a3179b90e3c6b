"""Mutation tests for the interpreter's derivative table.

Each test plants one defect into ``numcore._DERIVATIVES`` and asserts that
the named rows of ``fixtures/verify.json`` stop passing.  The fixture has no
``sin`` and no quotient, so those two defects run the fixture's rows on a
variant of its ``skew`` connection that uses them; the unmutated variant
passes.  A wrong first derivative is caught by the finite-difference route,
which only evaluates values: routes that all differentiate through the
same table agree with each other however the table is wrong.
"""

import json
import math
from pathlib import Path

import pytest

from curvcheck import numcore
from curvcheck.checks import run_suite
from curvcheck.config import load_config

VERIFY = Path(__file__).resolve().parent.parent / "fixtures" / "verify.json"


def _sin_wrong_sign(u, y, k):
    return -math.cos(u), -y


def _product_without_cross_term(u, v, y):
    # d2(uv)/du dv = 1 is the cross term; it only enters second-order mode
    return v, u, 0.0, 0.0


def _quotient_without_q_d_term(u, v, y):
    # d(u/v) = (du - q dv)/v with the q dv term dropped
    return 1.0 / v, 0.0, -1.0 / (v * v), 2.0 * y / (v * v)


DEFECTS = [
    pytest.param(
        "sin", _sin_wrong_sign, [["0", "sin(x1)*f1"]], ["coeffs-fd-skew"],
        id="sin-sign",
    ),
    pytest.param(
        "*", _product_without_cross_term, None, ["cartan-rot3", "commutator-skew"],
        id="product-cross-term",
    ),
    pytest.param(
        "/", _quotient_without_q_d_term, [["f1/(2 + x2)", "x1"]], ["coeffs-fd-skew"],
        id="quotient-q-d-term",
    ),
]


def _verdicts(tmp_path, skew_gamma, rows) -> dict[str, str]:
    """Run the named rows of the fixture, with the ``skew`` connection's
    symbols replaced when ``skew_gamma`` is given."""
    doc = json.loads(VERIFY.read_text(encoding="utf-8"))
    if skew_gamma is not None:
        doc["connections"]["skew"]["gamma"] = skew_gamma
    doc["checks"] = [c for c in doc["checks"] if c["name"] in rows]
    path = tmp_path / "verify-variant.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    report = run_suite(load_config(str(path)))
    return {c.name: c.verdict for c in report.checks}


@pytest.mark.parametrize("op, rule, skew_gamma, rows", DEFECTS)
def test_rows_pass_without_the_defect(tmp_path, op, rule, skew_gamma, rows):
    assert _verdicts(tmp_path, skew_gamma, rows) == dict.fromkeys(rows, "pass")


@pytest.mark.parametrize("op, rule, skew_gamma, rows", DEFECTS)
def test_planted_defect_fails_the_named_rows(monkeypatch, tmp_path, op, rule, skew_gamma, rows):
    monkeypatch.setitem(numcore._DERIVATIVES, op, rule)
    verdicts = _verdicts(tmp_path, skew_gamma, rows)
    assert sorted(verdicts) == sorted(rows)
    for row in rows:
        assert verdicts[row] in ("fail", "error"), row
