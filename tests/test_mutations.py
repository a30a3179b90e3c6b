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
(the Pade coefficients of ``lie.expm``, the series coefficients of the
exponential charts) by a defective copy.  Two of them
sit inside the tensor routes: the bracket of two field jets in ``bundle``
and the affine difference of two second jets in ``prolong``.  The lift's
fiber part is planted in ``bundle._lifted``, which computes it for
``horizontal_lift`` and for the per-sample lifts of
``is_parallel_morphism``.  One flips the quadratic term inside
``bundle._coordinate_curvature``, the coordinate formula that both routes
of ``curvature-coefficients`` feed their partials to, so only a row whose
other route does not use it, ``nijenhuis-poly``, can see it.  Two replace
the order swap ``prolong.theta``, which breaks the exact laws of
``theta-equivariance``: such a row fails with no residual and names the
broken law.

The third set plants a defect in the second route of a comparison that a
tensor route makes inside itself, whose gap is part of the row's residual.
The last test plants a defect in the first route of one such comparison that
the second route must not share.
"""

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import curvcheck
from curvcheck import _symbolic, bundle, checks, lie, linear, numcore, principal, prolong
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


def _chart_series_with_first_coefficient_flipped(original):
    # K(z) = 1 + z/2 + ... instead of 1 - z/2 + ...: the one coefficient past
    # the first that route two's order-1 charts read at their centers
    return (original[0], -original[1], *original[2:])


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


def _coordinate_formula_with_quadratic_sign_flipped(original):
    # the quadratic term of the shared coordinate formula is linear in the
    # symbol values and the derivative term does not read them
    return lambda vals, gx, gf: original(-vals, gx, gf)


def _omega_without_conjugation(original):
    # A_x(xi) + v instead of Ad_{g^{-1}} A_x(xi) + v, in the stacked form
    return lambda alg, g, along, v: original(alg, np.broadcast_to(np.eye(alg.d), g.shape), along, v)


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


def _vertical_projection_without_last_fiber_component(original):
    # P(V) with its last fiber component zeroed
    def mutant(field, V):
        projected = original(field, V)
        return replace(projected, b=(*projected.b[:-1], Const(0.0)))

    return mutant


def _prolonged_with_first_variation_row_doubled(original):
    # Gamma'^(n+1)_mu = 2 sum_b dGamma^1_mu/df^b u^b instead of once
    def mutant(field):
        prolonged = original(field)
        n = field.patch.fiber_dim
        rows = list(prolonged.gamma)
        rows[n] = tuple(_symbolic.mul(Const(2.0), e) for e in rows[n])
        return replace(prolonged, gamma=tuple(rows))

    return mutant


ROUTE_DEFECTS = [
    pytest.param(
        principal,
        "_form",
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
        principal,
        "_CHART_SERIES",
        _chart_series_with_first_coefficient_flipped,
        "cartan-rot3",
        id="chart-first-coefficient",
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
        "_coordinate_curvature",
        _coordinate_formula_with_quadratic_sign_flipped,
        "nijenhuis-poly",
        id="coordinate-formula-quadratic-sign",
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


# Defects in the second route of a comparison that a tensor route makes
# inside itself: P(V) enters only the four-term expansion of
# bundle.nijenhuis_tensor, and the prolonged connection only the second
# route to the jets of prolong.commutator_tensor.  The row's residual holds
# that comparison's gap, so such a row fails above its tolerance.  The
# doubled variation row is not seen by commutator-skew: the skew connection
# does not depend on f, so its variation rows are zero however they are
# scaled; cartan-rot3 reaches the prolonged connection of its chart field.
SECOND_ROUTE_DEFECTS = [
    pytest.param(
        bundle,
        "vertical_projection_field",
        _vertical_projection_without_last_fiber_component,
        "nijenhuis-poly",
        id="projection-last-fiber-component",
    ),
    pytest.param(
        prolong,
        "vertical_connection",
        _prolonged_with_first_variation_row_doubled,
        "cartan-rot3",
        id="prolonged-variation-row-doubled",
    ),
]


@pytest.mark.parametrize("module, name, mutate, row", SECOND_ROUTE_DEFECTS)
def test_planted_second_route_defect_fails_its_row_above_tolerance(
    monkeypatch, tmp_path, module, name, mutate, row
):
    assert _verdicts(tmp_path, None, [row]) == {row: "pass"}
    _plant(monkeypatch, module, name, mutate)
    result = _rows(tmp_path, None, [row])[row]
    assert result.verdict == "fail", result.detail
    assert result.max_residual > result.tolerance


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


def test_a_theta_equivariance_defect_names_its_sample_and_slot(monkeypatch, tmp_path):
    _plant(monkeypatch, prolong, "pushforward_second_jet", _pushforward_without_fcirc_jacobian)
    row = _rows(tmp_path, None, ["theta-swap"])["theta-swap"]
    assert row.verdict == "fail"
    assert row.detail.startswith("at sample ")
    # the swap moves the fcirc leg of the pushed jet into its fdot slot
    assert row.detail.endswith(f"{row.max_residual:.3e} in slot fdot")


def test_a_second_route_defect_names_its_sample_and_comparison(monkeypatch, tmp_path):
    _plant(monkeypatch, prolong, "vertical_connection", _prolonged_with_first_variation_row_doubled)
    row = _rows(tmp_path, None, ["cartan-rot3"])["cartan-rot3"]
    assert row.verdict == "fail"
    assert row.detail.startswith("at sample ")
    prolonged = row.detail.split("explicit against prolonged-connection jets ")[1]
    assert prolonged == f"{row.max_residual:.3e}"


def _mixed_second_doubled(original):
    # twice the mixed second derivative: symmetric in the two directions, so
    # it cancels in the twisted difference of the jets
    return lambda e, p, first, second: 2.0 * original(e, p, first, second)


def test_the_prolonged_route_takes_no_mixed_second_derivative(monkeypatch, tmp_path):
    # Only the five-term formula route of the second jets reads
    # prolong.mixed_second.  The rows fail on the gap between the two
    # routes, which a prolonged-connection route that read it too would
    # not see.
    rows = ["cartan-rot3", "commutator-skew"]
    assert _verdicts(tmp_path, None, rows) == dict.fromkeys(rows, "pass")
    _plant(monkeypatch, prolong, "mixed_second", _mixed_second_doubled)
    results = _rows(tmp_path, None, rows)
    for name in rows:
        assert results[name].verdict == "fail", results[name].detail
        assert "explicit against prolonged-connection jets" in results[name].detail
