"""Check runners: one function per config check kind.

Every runner receives a validated :class:`~curvcheck.config.CheckSpec`, a
dedicated RNG stream, the effective tolerance and the row's :class:`_Row`,
draws its samples, calls its routes and adds one residual per sample to the
row.  :func:`run_check` alone turns the row into a verdict, by the rule
stated there.  Exceptions raised inside a runner never abort the suite;
:func:`run_check` converts them into an ``error`` verdict row.

Reproducibility contract: each runner documents its draw order, and its
stream is derived from ``(seed, check name)`` alone, so check results do
not depend on execution order or on the ``--jobs`` setting.  The effective
seed is the check's own ``seed`` field when present, else the suite seed.
"""

from __future__ import annotations

import math
import time

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
from .numcore import EvalPoint, central_difference, evaluate
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

__all__ = ["run_check", "run_suite"]


class _Row:
    """The residuals of one check row, folded as a runner adds them.

    ``value`` is the largest finite residual and ``index`` the first sample
    that reached it.  ``max(0.0, nan)`` is ``0.0``, so a plain fold lets a
    NaN pass; here the first non-finite residual becomes the row's
    ``failure``, with its sample: the sample's index, or ``where`` for a
    residual that has none (the linearity violation, a row's only residual).
    A runner also sets ``failure`` when an exact law breaks, and ``note``,
    the detail of a row above tolerance."""

    value = 0.0
    index: int | None = None
    failure = ""
    note = ""

    def add(self, residual: float, sample: int | None = None, where: str = "") -> None:
        if not math.isfinite(residual):
            if not self.failure:
                if sample is not None:
                    where = f" at sample {sample}"
                self.failure = f"non-finite residual {residual}{where}"
        elif self.index is None or residual > self.value:
            self.value, self.index = residual, sample


_RUNNERS = {}


def _runner(kind: str):
    def register(fn):
        _RUNNERS[kind] = fn
        return fn

    return register


#: Step of the finite differences of :func:`_fd_partial`.
_FD_STEP = 1e-3


def _fd_partial(expr, p: EvalPoint, kind: str, index: int) -> float:
    """Fourth-order central difference of ``expr`` along one coordinate."""

    def at(delta: float) -> float:
        if kind == "x":
            x = list(p.x)
            x[index] += delta
            return evaluate(expr, EvalPoint(tuple(x), p.f))
        f = list(p.f)
        f[index] += delta
        return evaluate(expr, EvalPoint(p.x, tuple(f)))

    return central_difference(
        at(_FD_STEP), at(-_FD_STEP), at(2.0 * _FD_STEP), at(-2.0 * _FD_STEP), _FD_STEP
    )


def _fd_curvature(field: ChristoffelField, p: EvalPoint) -> np.ndarray:
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
                gx[a, mu, nu] = _fd_partial(expr, p, "x", nu)
            for b in range(n):
                gf[a, mu, b] = _fd_partial(expr, p, "f", b)
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
    spec: CheckSpec, rng: SplitMix64, tol: float, row: _Row
) -> None:
    """Structural-derivative coefficients against a finite-difference rebuild.

    Draw order per sample: one point (x coordinates, then f coordinates).
    """
    field = spec.params["connection"]
    m, n = field.patch.dims
    for sample in range(spec.samples):
        p = sample_point(rng, m, n)
        exact = curvature_coefficients(field, p)
        approx = _fd_curvature(field, p)
        row.add(float(np.abs(exact - approx).max()), sample)


@_runner("nijenhuis-vs-coefficients")
def _run_nijenhuis(spec: CheckSpec, rng: SplitMix64, tol: float, row: _Row) -> None:
    """Projector-bracket curvature on coordinate fields against the
    coordinate coefficients, all ordered index pairs.

    Draw order per sample: one point (x coordinates, then f coordinates).
    """
    field = spec.params["connection"]
    m, n = field.patch.dims
    coords = [TotalVectorField.coordinate(field.patch, mu) for mu in range(1, m + 1)]
    for sample in range(spec.samples):
        p = sample_point(rng, m, n)
        coeffs = curvature_coefficients(field, p)
        tensor = nijenhuis_tensor(field, coords, p)
        row.add(float(np.abs(tensor - coeffs).max()), sample)


@_runner("commutator-identity")
def _run_commutator(spec: CheckSpec, rng: SplitMix64, tol: float, row: _Row) -> None:
    """Twisted second-derivative differences against the coordinate
    curvature at the section image, all ordered index pairs.

    Draw order per sample: the section's polynomial components (only when no
    section is named in the config), then one base point.
    """
    field = spec.params["connection"]
    named = spec.params["section"]
    m = field.patch.base_dim
    for sample in range(spec.samples):
        s = named if named is not None else sample_section(rng, field.patch)
        x = sample_point(rng, m).x
        coeffs = curvature_coefficients(field, EvalPoint(x, s.value(x)))
        tensor = commutator_tensor(field, s, x)
        row.add(float(np.abs(tensor - coeffs).max()), sample)


@_runner("theta-equivariance")
def _run_theta(spec: CheckSpec, rng: SplitMix64, tol: float, row: _Row) -> None:
    """Order-swap involution laws and chart-change equivariance.

    Involutivity and projection-swap must hold exactly; pushing a jet
    through a sampled fiber transition must commute with the swap within
    tolerance.  Draw order per sample: the transition's polynomial
    components, then one jet (x, f, fdot, fcirc, fcircdot).
    """
    m = spec.params["base_dim"]
    n = spec.params["fiber_dim"]
    for sample in range(spec.samples):
        h = sample_transition(rng, n)
        j = sample_second_jet(rng, m, n)
        if theta(theta(j)) != j:
            row.failure = "involution broken"
            return
        left = pi(theta(j))
        right = pi(j)
        if (left.first, left.second) != (right.second, right.first):
            row.failure = "projection does not swap the legs"
            return
        a = pushforward_second_jet(h, theta(j))
        b = theta(pushforward_second_jet(h, j))
        gaps = [
            abs(u - v)
            for slot in ("x", "f", "fdot", "fcirc", "fcircdot")
            for u, v in zip(getattr(a, slot), getattr(b, slot))
        ]
        # np.max keeps a NaN, which then fails the row
        row.add(float(np.max(gaps)), sample)


@_runner("parallel-morphism")
def _run_parallel(spec: CheckSpec, rng: SplitMix64, tol: float, row: _Row) -> None:
    """Horizontal-to-horizontal pushforward residuals, with an expectation.

    Draw order per sample: one source point (x coordinates, then f
    coordinates).
    """
    field = spec.params["connection"]
    m, n = field.patch.dims
    points = [sample_point(rng, m, n) for _ in range(spec.samples)]
    report = is_parallel_morphism(
        spec.params["morphism"], field, spec.params["connection_hat"], points
    )
    for sample, residual in enumerate(report.residuals):
        row.add(residual, sample)
    if row.index is not None:
        bad = points[row.index]
        row.note = f"largest residual {row.value:.3e} at x={bad.x}, f={bad.f}"


@_runner("connection-axiom")
def _run_axiom(spec: CheckSpec, rng: SplitMix64, tol: float, row: _Row) -> None:
    """Product-curve velocity law for the connection form (trials = samples).

    Draw order is fixed by :func:`curvcheck.principal.check_axiom`.
    """
    report = check_axiom(spec.params["potential"], trials=spec.samples, rng=rng)
    for sample, residual in enumerate(report.residuals):
        row.add(residual, sample)


@_runner("cartan-cross-check")
def _run_cartan(spec: CheckSpec, rng: SplitMix64, tol: float, row: _Row) -> None:
    """Three-route curvature agreement at sampled base points.

    Draw order per sample: one base point (x coordinates), then whatever
    :func:`curvcheck.principal.curvature_cross_check` draws from the same
    stream.
    """
    potential = spec.params["potential"]
    for sample in range(spec.samples):
        report = curvature_cross_check(
            potential,
            sample_point(rng, potential.base_dim).x,
            group_samples=spec.params["group_samples"],
            section_samples=spec.params["section_samples"],
            rng=rng,
        )
        row.add(report.max_deviation, sample)


@_runner("bch-theta")
def _run_bch(spec: CheckSpec, rng: SplitMix64, tol: float, row: _Row) -> None:
    """Finite-difference surface jets against the algebraic order swap.

    Draw order per sample: group-log coefficients (k draws at scale 1/2),
    then the three slot elements (k draws each at scale 1/(2k)).
    """
    algebra = spec.params["algebra"]
    slot_scale = 0.5 / algebra.k
    for sample in range(spec.samples):
        g = exp(sample_algebra_element(rng, algebra, 0.5))
        x = sample_algebra_element(rng, algebra, slot_scale)
        y = sample_algebra_element(rng, algebra, slot_scale)
        z = sample_algebra_element(rng, algebra, slot_scale)
        row.add(theta_bch_verify(g, x, y, z).max_deviation, sample)


@_runner("linearity")
def _run_linearity(spec: CheckSpec, rng: SplitMix64, tol: float, row: _Row) -> None:
    """Fiber-linearity probe with an expectation (linear or nonlinear).

    The probe's violation, if any, is the row's one residual, and it lies
    above ``tol``.  Draw order is fixed by
    :func:`curvcheck.linear.linearity_detect`.
    """
    field = spec.params["connection"]
    report = linearity_detect(
        field, samples=spec.samples, tol=tol, rng=rng, lambdas=spec.params["lambdas"]
    )
    violation = report.violation
    if violation is not None:
        row.add(abs(violation.actual - violation.expected), where=f": {violation}")
        row.note = str(violation)


@_runner("linear-consistency")
def _run_linear_consistency(
    spec: CheckSpec, rng: SplitMix64, tol: float, row: _Row
) -> None:
    """Classical-formula contraction against the general coefficients.

    Draw order per sample: one point (x coordinates, then v coordinates).
    """
    linear = spec.params["linear_connection"]
    m, n = linear.patch.dims
    for sample in range(spec.samples):
        p = sample_point(rng, m, n)
        row.add(linear_curvature_consistency(linear, p.x, p.f).max_deviation, sample)


def _result(
    spec: CheckSpec, tol: float, verdict: str, detail: str, residual: float | None = None
) -> CheckResult:
    return CheckResult(spec.name, spec.kind, spec.samples, residual, tol, verdict, detail)


def _error_result(spec: CheckSpec, tol: float, exc: BaseException) -> CheckResult:
    """The ``error`` row of a check that raised ``exc`` instead of finishing."""
    return _result(spec, tol, "error", f"{type(exc).__name__}: {exc}")


def run_check(spec: CheckSpec, suite_seed: int, tol_scale: float = 1.0) -> CheckResult:
    """Run one check on its own RNG stream and judge its row; exceptions
    become error rows.

    The row rule: a row with a ``failure`` (a non-finite residual or a broken
    exact law) fails with no residual.  Otherwise the largest finite residual
    passes at or below the tolerance, and an ``expect`` of a violation flips
    that verdict.  A row above tolerance carries its runner's note as detail.

    numpy's floating-point warnings are silenced: a non-finite value shows in
    the row instead, as :class:`_Row` fails any non-finite residual."""
    tol = spec.tolerance * tol_scale
    seed = spec.seed if spec.seed is not None else suite_seed
    rng = stream(seed, spec.name)
    row = _Row()
    try:
        with np.errstate(all="ignore"):
            _RUNNERS[spec.kind](spec, rng, tol, row)
    except Exception as exc:
        return _error_result(spec, tol, exc)
    if row.failure:
        return _result(spec, tol, "fail", row.failure)
    above = row.value > tol
    expects_violation = spec.params.get("expect") in ("not-parallel", "nonlinear")
    detail = row.note if above else ""
    if expects_violation and not above:
        detail = f"no violation found in {spec.samples} samples"
    verdict = "pass" if above == expects_violation else "fail"
    return _result(spec, tol, verdict, detail, row.value)


#: What a forked worker runs its checks with: the name-sorted specs, the
#: suite seed and the tolerance scale.  Set by :func:`_init_worker` in the
#: worker only; the calling process never changes it.
_WORK = ((), 0, 1.0)


def _init_worker(specs, suite_seed: int, tol_scale: float) -> None:
    global _WORK
    _WORK = (specs, suite_seed, tol_scale)


def _run_indexed(index: int) -> CheckResult:
    specs, suite_seed, tol_scale = _WORK
    return run_check(specs[index], suite_seed, tol_scale)


def _can_fork() -> bool:
    # multiprocessing and concurrent.futures are imported here and in
    # _run_forked only: they take tens of milliseconds to import, which
    # --jobs 1 runs should not pay.
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


def _run_forked(specs, workers: int, suite_seed: int, tol_scale: float) -> list:
    """Run ``specs`` on ``workers`` forked processes, results in spec order.

    The workers inherit the specs through the fork (``initargs`` are not
    pickled under the fork context); each task is the index of one spec, and
    only :class:`CheckResult` rows travel back.  A worker that dies breaks the
    pool: its check and every check whose row never came back become
    ``error`` rows, and the rows that did come back keep their verdicts."""
    import multiprocessing
    from concurrent.futures import Future, ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    with ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_init_worker,
        initargs=(specs, suite_seed, tol_scale),
    ) as pool:

        def submit(index: int) -> Future:
            try:
                return pool.submit(_run_indexed, index)
            except BrokenProcessPool as exc:  # a worker died before this check went out
                failed = Future()
                failed.set_exception(exc)
                return failed

        futures = [submit(i) for i in range(len(specs))]
        results = []
        for spec, future in zip(specs, futures):
            try:
                results.append(future.result())
            except BrokenProcessPool as exc:
                results.append(_error_result(spec, spec.tolerance * tol_scale, exc))
    return results


def run_suite(config: SuiteConfig, jobs: int = 1, tol_scale: float = 1.0) -> RunReport:
    """Run every check in the config, sorted by name.

    ``jobs > 1`` runs the checks on ``min(jobs, checks)`` worker processes
    forked from this one, or serially where fork is unavailable; results are
    identical either way because every check draws from its own named stream.
    """
    start = time.perf_counter()
    specs = sorted(config.checks, key=lambda s: s.name)
    if jobs > 1 and len(specs) > 1 and _can_fork():
        results = _run_forked(specs, min(jobs, len(specs)), config.seed, tol_scale)
    else:
        results = [run_check(s, config.seed, tol_scale) for s in specs]
    return RunReport(
        tool_version=__version__,
        config_digest=config.digest,
        seed=config.seed,
        duration_seconds=time.perf_counter() - start,
        checks=tuple(results),
    )
