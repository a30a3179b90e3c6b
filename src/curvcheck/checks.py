"""Check runners: one function per config check kind.

Every runner receives a validated :class:`~curvcheck.config.CheckSpec`, a
dedicated RNG stream, and an effective tolerance, and returns a
:class:`CheckOutcome`.  Exceptions raised inside a runner never abort the
suite; :func:`run_check` converts them into an ``error`` verdict row.

Reproducibility contract: each runner documents its draw order, and its
stream is derived from ``(seed, check name)`` alone, so check results do
not depend on execution order or on the ``--jobs`` setting.  The effective
seed is the check's own ``seed`` field when present, else the suite seed.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import __version__
from .bundle import (
    ChristoffelField,
    TotalVectorField,
    curvature_coefficients,
    is_parallel_morphism,
    nijenhuis_tensor,
)
from .config import CheckSpec, SuiteConfig
from .lie import exp
from .linear import linear_curvature_consistency, linearity_detect
from .numcore import EvalPoint, evaluate
from .principal import check_axiom, curvature_cross_check, theta_bch_verify
from .prolong import commutator_tensor, pi, pushforward_second_jet, theta
from .report import CheckResult, RunReport
from .rng import SplitMix64, stream
from .sampling import (
    sample_algebra_element,
    sample_point,
    sample_second_jet,
    sample_section,
    sample_transition,
)

__all__ = ["CheckOutcome", "run_check", "run_suite"]

_FD_STEP = 1e-3


@dataclass(frozen=True)
class CheckOutcome:
    max_residual: float | None
    samples: int
    passed: bool
    detail: str = ""


class _Worst:
    """Running maximum of a check's residuals.  ``max(0.0, nan)`` is
    ``0.0``, so a plain fold lets a NaN pass; here the first non-finite
    residual is kept, and it fails the row with its sample in the detail:
    the sample's index, or ``where`` for a sample that has none."""

    value = 0.0
    nonfinite = ""

    def add(self, residual: float, sample: int | None = None, where: str = "") -> None:
        if math.isfinite(residual):
            self.value = max(self.value, residual)
        elif not self.nonfinite:
            if sample is not None:
                where = f" at sample {sample}"
            self.nonfinite = f"non-finite residual {residual}{where}"

    def outcome(self, samples: int, passed: bool, detail: str = "") -> CheckOutcome:
        if self.nonfinite:
            return CheckOutcome(None, samples, False, self.nonfinite)
        return CheckOutcome(self.value, samples, passed, detail)


_RUNNERS = {}


def _runner(kind: str):
    def register(fn):
        _RUNNERS[kind] = fn
        return fn

    return register


def _fd_partial(expr, p: EvalPoint, kind: str, index: int, step: float) -> float:
    """Fourth-order central difference of ``expr`` along one coordinate."""

    def at(delta: float) -> float:
        if kind == "x":
            x = list(p.x)
            x[index] += delta
            return evaluate(expr, EvalPoint(tuple(x), p.f))
        f = list(p.f)
        f[index] += delta
        return evaluate(expr, EvalPoint(p.x, tuple(f)))

    return (
        8.0 * (at(step) - at(-step)) - (at(2.0 * step) - at(-2.0 * step))
    ) / (12.0 * step)


def _fd_curvature(field: ChristoffelField, p: EvalPoint, step: float) -> np.ndarray:
    """Curvature coefficients rebuilt from finite-difference partials only."""
    m, n = field.patch.dims
    vals = np.empty((n, m))
    gx = np.empty((n, m, m))
    gf = np.empty((n, m, n))
    for a in range(n):
        for mu in range(m):
            expr = field.gamma[a][mu]
            vals[a, mu] = evaluate(expr, p)
            for nu in range(m):
                gx[a, mu, nu] = _fd_partial(expr, p, "x", nu, step)
            for b in range(n):
                gf[a, mu, b] = _fd_partial(expr, p, "f", b, step)
    R = np.zeros((n, m, m))
    for a in range(n):
        for mu in range(m):
            for nu in range(m):
                acc = gx[a, nu, mu] - gx[a, mu, nu]
                for b in range(n):
                    acc += vals[b, nu] * gf[a, mu, b] - vals[b, mu] * gf[a, nu, b]
                R[a, mu, nu] = acc
    return R


@_runner("curvature-coefficients")
def _run_curvature_coefficients(
    spec: CheckSpec, rng: SplitMix64, tol: float
) -> CheckOutcome:
    """Structural-derivative coefficients against a finite-difference rebuild.

    Draw order per sample: one point (x coordinates, then f coordinates).
    """
    field = spec.params["connection"]
    m, n = field.patch.dims
    worst = _Worst()
    for sample in range(spec.samples):
        p = sample_point(rng, m, n)
        exact = curvature_coefficients(field, p)
        approx = _fd_curvature(field, p, _FD_STEP)
        worst.add(float(np.abs(exact - approx).max()), sample)
    return worst.outcome(spec.samples, worst.value <= tol)


@_runner("nijenhuis-vs-coefficients")
def _run_nijenhuis(spec: CheckSpec, rng: SplitMix64, tol: float) -> CheckOutcome:
    """Projector-bracket curvature on coordinate fields against the
    coordinate coefficients, all ordered index pairs.

    Draw order per sample: one point (x coordinates, then f coordinates).
    """
    field = spec.params["connection"]
    m, n = field.patch.dims
    coords = [TotalVectorField.coordinate(field.patch, mu) for mu in range(1, m + 1)]
    worst = _Worst()
    for sample in range(spec.samples):
        p = sample_point(rng, m, n)
        coeffs = curvature_coefficients(field, p)
        tensor = nijenhuis_tensor(field, coords, p)
        worst.add(float(np.abs(tensor - coeffs).max()), sample)
    return worst.outcome(spec.samples, worst.value <= tol)


@_runner("commutator-identity")
def _run_commutator(spec: CheckSpec, rng: SplitMix64, tol: float) -> CheckOutcome:
    """Twisted second-derivative differences against the coordinate
    curvature at the section image, all ordered index pairs.

    Draw order per sample: the section's polynomial components (only when no
    section is named in the config), then one base point.
    """
    field = spec.params["connection"]
    named = spec.params.get("section")
    m = field.patch.base_dim
    worst = _Worst()
    for sample in range(spec.samples):
        s = named if named is not None else sample_section(rng, field.patch)
        x = tuple(rng.symmetric(1.0) for _ in range(m))
        coeffs = curvature_coefficients(field, EvalPoint(x, s.value(x)))
        tensor = commutator_tensor(field, s, x)
        worst.add(float(np.abs(tensor - coeffs).max()), sample)
    return worst.outcome(spec.samples, worst.value <= tol)


@_runner("theta-equivariance")
def _run_theta(spec: CheckSpec, rng: SplitMix64, tol: float) -> CheckOutcome:
    """Order-swap involution laws and chart-change equivariance.

    Involutivity and projection-swap must hold exactly; pushing a jet
    through a sampled fiber transition must commute with the swap within
    tolerance.  Draw order per sample: the transition's polynomial
    components, then one jet (x, f, fdot, fcirc, fcircdot).
    """
    m = spec.params.get("base_dim", 2)
    n = spec.params.get("fiber_dim", 2)
    worst = _Worst()
    for sample in range(spec.samples):
        h = sample_transition(rng, n)
        j = sample_second_jet(rng, m, n)
        if theta(theta(j)) != j:
            return CheckOutcome(None, spec.samples, False, "involution broken")
        left = pi(theta(j))
        right = pi(j)
        if (left.first, left.second) != (right.second, right.first):
            return CheckOutcome(
                None, spec.samples, False, "projection does not swap the legs"
            )
        a = pushforward_second_jet(h, theta(j))
        b = theta(pushforward_second_jet(h, j))
        for slot in ("x", "f", "fdot", "fcirc", "fcircdot"):
            for u, v in zip(getattr(a, slot), getattr(b, slot)):
                worst.add(abs(u - v), sample)
    return worst.outcome(spec.samples, worst.value <= tol)


@_runner("parallel-morphism")
def _run_parallel(spec: CheckSpec, rng: SplitMix64, tol: float) -> CheckOutcome:
    """Horizontal-to-horizontal pushforward residuals, with an expectation.

    Draw order per sample: one source point (x coordinates, then f
    coordinates).
    """
    phi = spec.params["morphism"]
    field = spec.params["connection"]
    field_hat = spec.params["connection_hat"]
    expect = spec.params.get("expect", "parallel")
    m, n = field.patch.dims
    points = [sample_point(rng, m, n) for _ in range(spec.samples)]
    report = is_parallel_morphism(phi, field, field_hat, points, tol)
    worst = _Worst()
    for sample, residual in enumerate(report.residuals):
        worst.add(residual, sample)
    detail = ""
    if not report.parallel:
        index = max(range(len(report.residuals)), key=report.residuals.__getitem__)
        bad = report.samples[index]
        detail = (
            f"largest residual {report.max_residual:.3e} at "
            f"x={bad.x}, f={bad.f}"
        )
    passed = report.parallel == (expect == "parallel")
    if not passed and report.parallel:
        detail = f"expected a violation but all {spec.samples} samples are parallel"
    return worst.outcome(spec.samples, passed, detail)


@_runner("connection-axiom")
def _run_axiom(spec: CheckSpec, rng: SplitMix64, tol: float) -> CheckOutcome:
    """Product-curve velocity law for the connection form (trials = samples).

    Draw order is fixed by :func:`curvcheck.principal.check_axiom`.
    """
    report = check_axiom(spec.params["potential"], trials=spec.samples, tol=tol, rng=rng)
    worst = _Worst()
    for sample, residual in enumerate(report.residuals):
        worst.add(residual, sample)
    return worst.outcome(report.trials, worst.value <= tol)


@_runner("cartan-cross-check")
def _run_cartan(spec: CheckSpec, rng: SplitMix64, tol: float) -> CheckOutcome:
    """Three-route curvature agreement at sampled base points.

    Draw order per sample: one base point (x coordinates), then whatever
    :func:`curvcheck.principal.curvature_cross_check` draws from the same
    stream.
    """
    potential = spec.params["potential"]
    group_samples = spec.params.get("group_samples", 3)
    section_samples = spec.params.get("section_samples", 2)
    worst = _Worst()
    for sample in range(spec.samples):
        x = tuple(rng.symmetric(1.0) for _ in range(potential.base_dim))
        report = curvature_cross_check(
            potential,
            x,
            tol=tol,
            group_samples=group_samples,
            section_samples=section_samples,
            rng=rng,
        )
        worst.add(report.max_deviation, sample)
    return worst.outcome(spec.samples, worst.value <= tol)


@_runner("bch-theta")
def _run_bch(spec: CheckSpec, rng: SplitMix64, tol: float) -> CheckOutcome:
    """Finite-difference surface jets against the algebraic order swap.

    Draw order per sample: group-log coefficients (k draws at scale 1/2),
    then the three slot elements (k draws each at scale 1/(2k)).
    """
    algebra = spec.params["algebra"]
    slot_scale = 0.5 / algebra.k
    worst = _Worst()
    for sample in range(spec.samples):
        g = exp(sample_algebra_element(rng, algebra, 0.5))
        x = sample_algebra_element(rng, algebra, slot_scale)
        y = sample_algebra_element(rng, algebra, slot_scale)
        z = sample_algebra_element(rng, algebra, slot_scale)
        report = theta_bch_verify(g, x, y, z, tol=tol)
        worst.add(report.max_deviation, sample)
    return worst.outcome(spec.samples, worst.value <= tol)


@_runner("linearity")
def _run_linearity(spec: CheckSpec, rng: SplitMix64, tol: float) -> CheckOutcome:
    """Fiber-linearity probe with an expectation (linear or nonlinear).

    Draw order is fixed by :func:`curvcheck.linear.linearity_detect`.
    """
    field = spec.params["connection"]
    expect = spec.params.get("expect", "linear")
    kwargs = {}
    if "lambdas" in spec.params:
        kwargs["lambdas"] = spec.params["lambdas"]
    report = linearity_detect(field, samples=spec.samples, tol=tol, rng=rng, **kwargs)
    violation = report.violation
    worst = _Worst()
    if violation is not None:
        worst.add(abs(violation.actual - violation.expected), where=f": {violation}")
    passed = report.linear == (expect == "linear")
    detail = "" if violation is None else str(violation)
    if not passed and violation is None:
        detail = f"no violation found in {spec.samples} samples"
    return worst.outcome(spec.samples, passed, detail)


@_runner("linear-consistency")
def _run_linear_consistency(
    spec: CheckSpec, rng: SplitMix64, tol: float
) -> CheckOutcome:
    """Classical-formula contraction against the general coefficients.

    Draw order per sample: one point (x coordinates, then v coordinates).
    """
    linear = spec.params["linear_connection"]
    m, n = linear.patch.dims
    worst = _Worst()
    for sample in range(spec.samples):
        p = sample_point(rng, m, n)
        report = linear_curvature_consistency(linear, p.x, p.f, tol)
        worst.add(report.max_deviation, sample)
    return worst.outcome(spec.samples, worst.value <= tol)


def run_check(spec: CheckSpec, suite_seed: int, tol_scale: float = 1.0) -> CheckResult:
    """Run one check on its own RNG stream; exceptions become error rows.

    numpy's floating-point warnings are silenced: a non-finite value shows in
    the row instead, as :class:`_Worst` fails any non-finite residual."""
    tol = spec.tolerance * tol_scale
    seed = spec.seed if spec.seed is not None else suite_seed
    rng = stream(seed, spec.name)
    try:
        with np.errstate(all="ignore"):
            outcome = _RUNNERS[spec.kind](spec, rng, tol)
    except Exception as exc:
        return CheckResult(
            name=spec.name,
            kind=spec.kind,
            samples=spec.samples,
            max_residual=None,
            tolerance=tol,
            verdict="error",
            detail=f"{type(exc).__name__}: {exc}",
        )
    return CheckResult(
        name=spec.name,
        kind=spec.kind,
        samples=outcome.samples,
        max_residual=outcome.max_residual,
        tolerance=tol,
        verdict="pass" if outcome.passed else "fail",
        detail=outcome.detail,
    )


def run_suite(config: SuiteConfig, jobs: int = 1, tol_scale: float = 1.0) -> RunReport:
    """Run every check in the config, sorted by name.

    ``jobs > 1`` runs checks on a thread pool; results are identical either
    way because every check draws from its own named stream.
    """
    start = time.perf_counter()
    specs = sorted(config.checks, key=lambda s: s.name)
    if jobs > 1 and len(specs) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(
                pool.map(lambda s: run_check(s, config.seed, tol_scale), specs)
            )
    else:
        results = [run_check(s, config.seed, tol_scale) for s in specs]
    return RunReport(
        tool_version=__version__,
        config_digest=config.digest,
        seed=config.seed,
        duration_seconds=time.perf_counter() - start,
        checks=tuple(results),
    )
