"""Mutation tests: each plants one defect and asserts that the named rows
of ``fixtures/verify.json`` stop passing.

The first set plants defects into the interpreter's derivative table
``numcore._DERIVATIVES``.  The fixture has no ``sin`` and no quotient, so
those two defects run the fixture's rows on a variant of its ``skew``
connection that uses them; the unmutated variant passes.  A wrong first
derivative is caught by the finite-difference route, which only evaluates
values: routes that all differentiate through the same table agree with
each other however the table is wrong.

The second set replaces one function of a route, in every module that
binds it, by a defective wrapper of the original, or one table of a route
(the Pade coefficients of ``lie.expm``) by a defective copy.  Two of them
sit inside the tensor routes: the bracket of two field jets in ``bundle``
and the affine difference of two second jets in ``prolong``.  The lift's
fiber part is planted in ``bundle._lifted``, which computes it for
``horizontal_lift`` and for the per-sample lifts of
``is_parallel_morphism``.  Two replace the order swap ``prolong.theta``,
which breaks the exact laws of ``theta-equivariance``: such a row fails with
no residual and names the broken law.
"""

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import curvcheck
from curvcheck import bundle, checks, lie, linear, numcore, principal, prolong
from curvcheck.checks import run_suite
from curvcheck.config import load_config
from curvcheck.exprdsl import Const

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


def _rows(tmp_path, skew_gamma, rows) -> dict:
    """Run the named rows of the fixture, with the ``skew`` connection's
    symbols replaced when ``skew_gamma`` is given."""
    doc = json.loads(VERIFY.read_text(encoding="utf-8"))
    if skew_gamma is not None:
        doc["connections"]["skew"]["gamma"] = skew_gamma
    doc["checks"] = [c for c in doc["checks"] if c["name"] in rows]
    path = tmp_path / "verify-variant.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    report = run_suite(load_config(str(path)))
    return {c.name: c for c in report.checks}


def _verdicts(tmp_path, skew_gamma, rows) -> dict[str, str]:
    return {name: c.verdict for name, c in _rows(tmp_path, skew_gamma, rows).items()}


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


# --- defects planted in the routes of four more check kinds -----------------


def _theta_bch_without_bracket(original):
    # (g, X, Y, Z) -> (g, Y, X, Z) instead of (g, Y, X, Z + [X, Y])
    return lambda g, x, y, z: (g, y, x, z)


def _chart_series_of_order_zero(original):
    return lambda p, center, order=6: original(p, center, 0)


def _pushforward_without_fcirc_jacobian(original):
    # the fcirc slot left in the old chart instead of multiplied by dh/df
    return lambda h, j: replace(original(h, j), fcirc=j.fcirc)


def _pushforward_without_mixed_jacobian(original):
    # the mixed slot keeps only its quadratic term: sum dh/df * fcircdot is
    # exactly what a zero fcircdot contributes
    return lambda h, j: original(h, replace(j, fcircdot=(0.0,) * len(j.f)))


def _coefficients_with_quadratic_sign_flipped(original):
    def mutant(field, p):
        m, n = field.patch.dims
        vals = np.empty((n, m))
        gf = np.empty((n, m, n))
        for a in range(n):
            for mu in range(m):
                vals[a, mu], grad = numcore.gradient(field.gamma[a][mu], p)
                gf[a, mu] = grad[m:]
        # sum_b Gamma^b_nu dGamma^a_mu/df^b - Gamma^b_mu dGamma^a_nu/df^b
        quadratic = np.einsum("bn,amb->amn", vals, gf)
        quadratic -= np.einsum("bm,anb->amn", vals, gf)
        return original(field, p) - 2.0 * quadratic

    return mutant


def _omega_without_conjugation(original):
    # A_x(xi) + v instead of Ad_{g^{-1}} A_x(xi) + v
    return lambda p, t, drop_adjoint: original(p, t, True)


def _lift_with_fiber_sign_flipped(original):
    # fiber part +Gamma xi instead of -Gamma xi
    return lambda gamma, xi: tuple(-v for v in original(gamma, xi))


def _expansion_without_a_term(original):
    # the omega = 1 term of Gamma^1_1 left out of the sum
    def mutant(linear_connection):
        rows = [[list(inner) for inner in row] for row in linear_connection.gamma3]
        rows[0][0][0] = Const(0.0)
        return original(replace(linear_connection, gamma3=rows))

    return mutant


def _classical_with_derivative_sign_flipped(original):
    # d_nu Gamma_mu - d_mu Gamma_nu instead of d_mu Gamma_nu - d_nu Gamma_mu.
    # The fixture's linear connection has a one-dimensional fiber, where the
    # quadratic term vanishes, so a defect there could not show.
    def mutant(linear_connection, x):
        m = linear_connection.patch.base_dim
        pt = numcore.EvalPoint.of(x)
        # d[alpha, mu, omega, nu] = d_nu Gamma^alpha_{mu omega}
        d = np.array(
            [
                [[numcore.gradient(c, pt)[1][:m] for c in inner] for inner in row]
                for row in linear_connection.gamma3
            ]
        )
        derivative = np.einsum("anwm->amnw", d) - np.einsum("amwn->amnw", d)
        return original(linear_connection, x) - 2.0 * derivative

    return mutant


def _bracket_with_operands_swapped(original):
    # [W, V] instead of [V, W] for every bracket of two jets
    return lambda jet_V, jet_W, p: original(jet_W, jet_V, p)


def _affine_diff_reversed(original):
    # j2 - j1 instead of j1 - j2
    return lambda j1, j2: original(j2, j1)


def _theta_as_identity(original):
    return lambda j: j


def _theta_doubling_the_mixed_slot(original):
    return lambda j: replace(original(j), fcircdot=tuple(2.0 * v for v in j.fcircdot))


def _pade_with_wrong_first_coefficient(original):
    # b_1 is b_0 / 2; scaled by 0.9, expm(A) is I + 0.9 A + O(A^2)
    return (original[0], 0.9 * original[1], *original[2:])


ROUTE_DEFECTS = [
    pytest.param(
        principal,
        "_omega",
        _omega_without_conjugation,
        "axiom-rot3",
        id="omega-conjugation",
    ),
    pytest.param(
        bundle,
        "_lifted",
        _lift_with_fiber_sign_flipped,
        "parallel-linleg",
        id="lift-sign",
    ),
    pytest.param(
        linear,
        "expand_linear",
        _expansion_without_a_term,
        "linearity-linleg",
        id="expansion-term",
    ),
    pytest.param(
        linear,
        "classical_curvature",
        _classical_with_derivative_sign_flipped,
        "consistency-lin1",
        id="classical-derivative-sign",
    ),
    pytest.param(lie, "_PADE13", _pade_with_wrong_first_coefficient, "bch-rot3", id="pade-b1"),
    pytest.param(
        principal, "theta_bch", _theta_bch_without_bracket, "bch-rot3", id="bch-bracket"
    ),
    pytest.param(
        principal,
        "exponential_chart_connection",
        _chart_series_of_order_zero,
        "cartan-rot3",
        id="chart-order-0",
    ),
    pytest.param(
        prolong,
        "pushforward_second_jet",
        _pushforward_without_fcirc_jacobian,
        "theta-swap",
        id="pushforward-fcirc-jacobian",
    ),
    pytest.param(
        prolong,
        "pushforward_second_jet",
        _pushforward_without_mixed_jacobian,
        "theta-swap",
        id="pushforward-mixed-jacobian",
        marks=pytest.mark.xfail(
            raises=AssertionError,
            strict=True,
            reason="theta fixes the mixed slot, and the term left out is symmetric "
            "in the two legs, so the swap law cannot see it",
        ),
    ),
    pytest.param(prolong, "theta", _theta_as_identity, "theta-swap", id="theta-identity"),
    pytest.param(
        prolong,
        "theta",
        _theta_doubling_the_mixed_slot,
        "theta-swap",
        id="theta-mixed-slot-doubled",
    ),
    pytest.param(
        bundle,
        "curvature_coefficients",
        _coefficients_with_quadratic_sign_flipped,
        "nijenhuis-poly",
        id="coefficients-quadratic-sign",
    ),
    pytest.param(
        bundle,
        "_bracket",
        _bracket_with_operands_swapped,
        "nijenhuis-poly",
        id="bracket-operands-swapped",
    ),
    pytest.param(
        prolong,
        "affine_diff",
        _affine_diff_reversed,
        "commutator-skew",
        id="affine-diff-reversed",
    ),
]


def _plant(monkeypatch, module, name, mutate) -> None:
    """Replace ``module.name`` by its mutant in every module that binds it."""
    original = getattr(module, name)
    mutant = mutate(original)
    for binder in (curvcheck, bundle, checks, lie, linear, principal, prolong):
        if getattr(binder, name, None) is original:
            monkeypatch.setattr(binder, name, mutant)


@pytest.mark.parametrize("module, name, mutate, row", ROUTE_DEFECTS)
def test_planted_route_defect_fails_its_row(
    monkeypatch, tmp_path, module, name, mutate, row
):
    assert _verdicts(tmp_path, None, [row]) == {row: "pass"}
    _plant(monkeypatch, module, name, mutate)
    assert _verdicts(tmp_path, None, [row])[row] in ("fail", "error")


@pytest.mark.parametrize(
    "mutate, detail",
    [
        (_theta_as_identity, "projection does not swap the legs"),
        (_theta_doubling_the_mixed_slot, "involution broken"),
    ],
    ids=["theta-identity", "theta-mixed-slot-doubled"],
)
def test_a_broken_theta_law_fails_with_no_residual(monkeypatch, tmp_path, mutate, detail):
    _plant(monkeypatch, prolong, "theta", mutate)
    row = _rows(tmp_path, None, ["theta-swap"])["theta-swap"]
    assert (row.verdict, row.max_residual, row.detail) == ("fail", None, detail)
