"""Acceptance suite: ten end-to-end criteria, one test per criterion.

Each test prints one "criterion N: PASS/FAIL" line (visible under
``pytest -s`` or in failure output), so a run reads as a checklist.
Tolerances, sample counts, and time budgets are pinned in the bodies.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from _reference import parse_grid, potential_value
from curvcheck import principal
from curvcheck.bundle import (
    BundlePatch,
    ChristoffelField,
    FiberBundleMorphism,
    Section,
    TotalVectorField,
    curvature_coefficients,
    is_parallel_morphism,
    nijenhuis_tensor,
)
from curvcheck.cli import main
from curvcheck.errors import (
    ExprSyntaxError,
    FiberMismatch,
    IndexOutOfRange,
    UnknownIdentifier,
)
from curvcheck.exprdsl import Binary, Const, Power, Unary, Var, parse, unparse
from curvcheck.lie import bracket, builtin_algebra, exp
from curvcheck.linear import (
    LinearChristoffel,
    expand_linear,
    linear_curvature_consistency,
    linearity_detect,
)
from curvcheck.numcore import EvalPoint, StackedPoint
from curvcheck.principal import (
    GaugePotential,
    cartan_curvature,
    check_axiom,
    curvature_cross_check,
    theta_bch,
    theta_bch_verify,
)
from curvcheck.prolong import (
    _second_covariants,
    affine_diff,
    commutator_tensor,
    pi,
    pushforward_second_jet,
    theta,
)
from curvcheck.rng import SplitMix64
from curvcheck.sampling import (
    sample_axiom_trials,
    sample_christoffel,
    sample_cross_check,
    sample_point,
    sample_polynomial,
    sample_second_jet,
    sample_section,
    sample_transition,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

SO2 = builtin_algebra("so2")
SO3 = builtin_algebra("so3")
ABELIAN_POTENTIAL = GaugePotential(SO2, 2, parse_grid([["0"], ["x1"]], (2, 1)))
SO3_POTENTIAL = GaugePotential(SO3, 2, parse_grid([["1", "0", "0"], ["0", "1", "0"]], (2, 1)))


def _run(num: int, label: str, body) -> None:
    try:
        body()
    except BaseException:
        print(f"criterion {num}: FAIL - {label}")
        raise
    print(f"criterion {num}: PASS - {label}")


def _random_dims(rng: SplitMix64) -> tuple[int, int]:
    return 1 + rng.int_below(3), 1 + rng.int_below(3)


# --- criterion 1 -------------------------------------------------------------


def test_criterion_01_bracket_curvature_matches_coefficients():
    def body():
        start = time.perf_counter()
        rng = SplitMix64(101)
        for _ in range(20):
            m, n = _random_dims(rng)
            patch = BundlePatch(m, n)
            field = sample_christoffel(rng, patch)
            coords = [
                TotalVectorField.coordinate(patch, mu) for mu in range(1, m + 1)
            ]
            for _ in range(10):
                p = sample_point(rng, m, n)
                at = StackedPoint.of((p,))
                coeffs = curvature_coefficients(field, p)
                for mu in range(m):
                    for nu in range(m):
                        # the two-field family of each pair: no entry is
                        # set by construction
                        pair = (coords[mu], coords[nu])
                        value = nijenhuis_tensor(field, pair, at)[0][:, 0, 1, 0]
                        for a in range(n):
                            assert abs(value[a] - coeffs[a, mu, nu]) <= 1e-9
        assert time.perf_counter() - start <= 5.0

    _run(1, "projector-bracket curvature equals coordinate coefficients", body)


# --- criterion 2 -------------------------------------------------------------


def test_criterion_02_commutator_identity_on_sections():
    def body():
        start = time.perf_counter()
        rng = SplitMix64(202)
        for _ in range(20):
            m, n = _random_dims(rng)
            patch = BundlePatch(m, n)
            field = sample_christoffel(rng, patch)
            s = sample_section(rng, patch)
            for _ in range(10):
                x = tuple(rng.symmetric(1.0) for _ in range(m))
                coeffs = curvature_coefficients(field, EvalPoint(x, s.value(x)))
                try:
                    tensor = commutator_tensor(field, [(s, x)])[0][..., 0]
                except FiberMismatch as exc:
                    pytest.fail(f"double-projection fibers diverged: {exc}")
                for mu in range(1, m + 1):
                    for nu in range(1, m + 1):
                        if mu < nu:
                            value = tensor[:, mu - 1, nu - 1]
                        else:
                            # set by construction in the tensor: twist the
                            # jets of the pair instead
                            pairs = ((mu, nu), (nu, mu))
                            ((j1, j2),), _ = _second_covariants(field, [(s, x)], pairs)
                            try:
                                value = affine_diff(j1, theta(j2))
                            except FiberMismatch as exc:
                                pytest.fail(f"double-projection fibers diverged: {exc}")
                        for a in range(n):
                            assert (
                                abs(value[a] - coeffs[a, mu - 1, nu - 1]) <= 1e-9
                            )
        assert time.perf_counter() - start <= 10.0

    _run(2, "twisted second-derivative commutator equals curvature", body)


# --- criterion 3 -------------------------------------------------------------


def test_criterion_03_worked_fixture_jets():
    def body():
        patch = BundlePatch(2, 1)
        skew = ChristoffelField(patch, parse_grid([["0", "x1"]], patch.dims))
        zero = Section(patch, parse_grid(["0"], patch.dims))
        for x in ((0.7, -0.3), (1.3, 0.25)):
            ((j12, j21),), _ = _second_covariants(skew, [(zero, x)], ((1, 2), (2, 1)))
            # rows f, fdot, fcirc, fcircdot
            assert j12.tolist() == [[0.0], [x[0]], [0.0], [1.0]]
            assert j21.tolist() == [[0.0], [0.0], [x[0]], [0.0]]
            twisted = affine_diff(j12, theta(j21))
            assert abs(twisted[0] - 1.0) <= 1e-12
            value = commutator_tensor(skew, [(zero, x)])[0][:, 0, 1, 0]
            assert abs(value[0] - 1.0) <= 1e-12

    _run(3, "worked fixture reproduces jets and unit twisted difference", body)


# --- criterion 4 -------------------------------------------------------------


def test_criterion_04_theta_machinery():
    def body():
        rng = SplitMix64(404)
        for _ in range(50):
            m, n = _random_dims(rng)
            h = sample_transition(rng, n)
            j = sample_second_jet(rng, m, n)
            assert np.array_equal(theta(theta(j)), j)
            assert np.array_equal(pi(theta(j))[1:], pi(j)[[2, 1]])
            pushed_then_swapped = theta(pushforward_second_jet(h, j))
            swapped_then_pushed = pushforward_second_jet(h, theta(j))
            assert np.max(np.abs(pushed_then_swapped - swapped_then_pushed)) <= 1e-9

    _run(4, "slot swap is involutive, swaps projections, and is equivariant", body)


# --- criterion 5 -------------------------------------------------------------


def test_criterion_05_cartan_cross_check():
    def body():
        start = time.perf_counter()
        for potential in (ABELIAN_POTENTIAL, SO3_POTENTIAL):
            for x in ((0.3, -0.6), (0.0, 0.5)):
                drawn = sample_cross_check(SplitMix64(0), potential.algebra, 2, 2, 2)
                [report] = curvature_cross_check(potential, [(x, *drawn)])
                assert report.max_deviation <= 1e-6
                assert set(report.pairwise) == {
                    "structure-vs-chart",
                    "structure-vs-commutator",
                    "chart-vs-commutator",
                }
        # The abelian quadratic term vanishes identically, so the mixed
        # field-strength component is the plain derivative, exactly 1.
        x = (0.8, -0.2)
        lie_term = bracket(
            ABELIAN_POTENTIAL.algebra,
            potential_value(ABELIAN_POTENTIAL, 1, x),
            potential_value(ABELIAN_POTENTIAL, 2, x),
        )
        assert tuple(lie_term) == (0.0,)
        f12 = cartan_curvature(ABELIAN_POTENTIAL, x)[0, 1]
        assert tuple(f12) == (1.0,)
        assert time.perf_counter() - start <= 10.0

    _run(5, "three curvature routes agree; abelian bracket term is zero", body)


# --- criterion 6 -------------------------------------------------------------


def test_criterion_06_bch_twist():
    def body():
        e1, e2, _ = np.eye(3)
        zero = np.zeros(SO3.k)
        swapped = theta_bch(SO3, np.eye(SO3.d), e1, e2, zero)
        assert tuple(swapped[3]) == (0.0, 0.0, 1.0)
        for g in (np.eye(SO3.d), exp(SO3, (0.0, 0.0, 0.3))):
            [report] = theta_bch_verify(SO3, [(g, e1, e2, zero)])
            assert report.max_deviation <= 1e-4

    _run(6, "surface jets recover the bracket-corrected swap", body)


# --- criterion 7 -------------------------------------------------------------


def test_criterion_07_connection_axiom(monkeypatch):
    def body():
        def trials(potential, count):
            rng = SplitMix64(0)
            return [
                sample_axiom_trials(rng, potential.algebra, 2, 1)[0] for _ in range(count)
            ]

        for potential in (ABELIAN_POTENTIAL, SO3_POTENTIAL):
            assert max(check_axiom(potential, trials(potential, 100))) <= 1e-8
        # negative control: the form without its conjugation, A_x(xi) + v,
        # planted in the stacked form that check_axiom reads
        original = principal._form
        monkeypatch.setattr(
            principal,
            "_form",
            lambda alg, g, along, v: original(alg, np.broadcast_to(np.eye(alg.d), g.shape), along, v),
        )
        assert max(check_axiom(SO3_POTENTIAL, trials(SO3_POTENTIAL, 50))) > 1e-8

    _run(7, "product-curve axiom holds; dropping the conjugation fails", body)


# --- criterion 8 -------------------------------------------------------------


def _random_linear(rng: SplitMix64, patch: BundlePatch) -> LinearChristoffel:
    m, n = patch.dims
    gamma3 = tuple(
        tuple(
            tuple(sample_polynomial(rng, m, 0, 3, 2) for _ in range(n))
            for _ in range(m)
        )
        for _ in range(n)
    )
    return LinearChristoffel(patch, gamma3)


def test_criterion_08_linear_layer():
    def body():
        rng = SplitMix64(808)
        point_rng = SplitMix64(809)
        pts = [sample_point(point_rng, 2, 2) for _ in range(6)]
        for _ in range(10):
            lin = _random_linear(rng, BundlePatch(2, 2))
            x = (rng.symmetric(1.0), rng.symmetric(1.0))
            v = (rng.symmetric(2.0), rng.symmetric(2.0))
            deviation = linear_curvature_consistency(lin, x, v)
            assert deviation <= 1e-9, deviation
            field = expand_linear(lin)
            for lam in (-1.0, 0.5, 2.0):
                scaling = parse_grid([f"{lam!r}*f{a}" for a in (1, 2)], lin.patch.dims)
                phi = FiberBundleMorphism(lin.patch, lin.patch, scaling)
                residuals = is_parallel_morphism(phi, field, field, pts)
                assert max(residuals) <= 1e-9
        quadratic = ChristoffelField(BundlePatch(1, 1), parse_grid([["f1^2"]], (1, 1)))
        rng = SplitMix64(0)
        points = [sample_point(rng, 1, 1) for _ in range(64)]
        detection = linearity_detect(quadratic, points, 1e-9)
        assert detection.field is None
        violation = detection.violation
        assert violation is not None
        assert violation.stage == "homogeneity"
        assert len(violation.x) == 1 and len(violation.v) == 1
        point_rng = SplitMix64(811)
        residuals = is_parallel_morphism(
            FiberBundleMorphism(quadratic.patch, quadratic.patch, parse_grid(["2.0*f1"], (1, 1))),
            quadratic,
            quadratic,
            [sample_point(point_rng, 1, 1) for _ in range(6)],
        )
        assert max(residuals) > 1e-9

    _run(8, "classical curvature contraction and both linearity directions", body)


# --- criterion 9 -------------------------------------------------------------


def _random_tree(rng: SplitMix64, depth: int):
    leaf = depth <= 0 or rng.int_below(3) == 0
    if leaf:
        if rng.int_below(2) == 0:
            return Const(round(rng.uniform() * 100.0, 3))
        kind = "x" if rng.int_below(2) == 0 else "f"
        return Var(kind, 1 + rng.int_below(3))
    shape = rng.int_below(3)
    if shape == 0:
        op = rng.choice(("neg", "sin", "cos", "exp", "log", "sqrt"))
        return Unary(op, _random_tree(rng, depth - 1))
    if shape == 1:
        op = rng.choice(("+", "-", "*", "/"))
        return Binary(op, _random_tree(rng, depth - 1), _random_tree(rng, depth - 1))
    return Power(_random_tree(rng, depth - 1), rng.int_below(7) - 3)


def test_criterion_09_parser_round_trip_and_diagnostics():
    def body():
        rng = SplitMix64(909)
        for _ in range(1000):
            tree = _random_tree(rng, 4)
            assert parse(unparse(tree), (3, 3)) == tree
        with pytest.raises(ExprSyntaxError) as syntax:
            parse("x1 +", (2, 1))
        assert syntax.value.offset == 4
        with pytest.raises(UnknownIdentifier, match="y1"):
            parse("y1", (2, 1))
        with pytest.raises(IndexOutOfRange, match="f3"):
            parse("f3", (2, 2))

    _run(9, "1000 expression trees round-trip; error classes diagnose", body)


# --- criterion 10 ------------------------------------------------------------


def test_criterion_10_cli_determinism(tmp_path, capsys):
    def body():
        start = time.perf_counter()
        config = str(FIXTURES / "verify.json")
        outputs = []
        for name in ("one.json", "two.json"):
            out = tmp_path / name
            code = main(
                ["check", config, "--format", "json", "--seed", "0", "--out", str(out)]
            )
            assert code == 0
            outputs.append(out.read_bytes())
        stripped = [
            b"\n".join(
                line
                for line in blob.splitlines()
                if b'"duration_seconds"' not in line
            )
            for blob in outputs
        ]
        assert stripped[0] == stripped[1]
        report = json.loads(outputs[0])
        assert report["verdict"] == "pass"
        assert len(report["checks"]) == 13
        assert time.perf_counter() - start < 60.0

    _run(10, "two CLI runs on the shipped fixture are byte-stable", body)
