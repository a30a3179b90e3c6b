"""Check runners: one function per config check kind.

Every runner receives a validated :class:`~curvcheck.config.CheckSpec`, a
dedicated RNG stream and the row's :class:`_Row`.
It draws all its samples through :mod:`curvcheck.sampling` first, then
calls its routes, which draw nothing, and adds one residual per sample to
the row.  :func:`run_check` alone turns the row into a verdict, by the rule
stated there.  Exceptions raised inside a runner never abort the suite;
:func:`run_check` converts them into an ``error`` verdict row.

Reproducibility contract: each runner documents the draw order of one
sample, and its stream is derived from ``(seed, check name)`` alone, so
check results do not depend on execution order or on the ``--jobs``
setting.  The effective
seed is the check's own ``seed`` field when present, else the suite seed.
"""

from __future__ import annotations

import math
import os
import pickle
import time

import numpy as np

from . import __version__
from .bundle import (
    ChristoffelField,
    TotalVectorField,
    _coordinate_curvature,
    curvature_coefficients,
    is_parallel_morphism,
    nijenhuis_tensor,
)
from .config import CheckSpec, SuiteConfig
from .errors import DomainError
from .lie import exp
from .linear import linear_curvature_consistency, linearity_detect
from .numcore import (
    EvalPoint,
    StackedPoint,
    central_difference,
    each_sample,
    evaluate,
    over_samples,
    sweep_grid,
)
from .principal import check_axiom, curvature_cross_check, theta_bch_verify
from .prolong import SLOTS, commutator_tensor, pi, pushforward_second_jet, theta
from .report import CheckResult, RunReport
from .rng import SplitMix64, stream
from .sampling import (
    sample_algebra_element,
    sample_axiom_trials,
    sample_cross_check,
    sample_point,
    sample_second_jet,
    sample_section,
    sample_transition,
)

__all__ = ["run_check", "run_suite"]


class _Row:
    """The residuals of one check row, folded as a runner adds them.

    ``value`` is the largest finite residual and ``note``, the detail of a
    row above tolerance, the note of the first sample that reached it.
    ``max(0.0, nan)`` is ``0.0``, so a plain fold lets a NaN pass; here the
    first non-finite residual becomes the row's ``failure``, with its
    sample's index, or its note for a residual that has none (the linearity
    violation, a row's only residual).  A runner also sets ``failure`` when
    an exact law breaks."""

    value = 0.0
    failure = ""
    note = ""

    def add(self, residual: float, sample: int | None = None, note: str = "") -> None:
        if not math.isfinite(residual):
            if not self.failure:
                where = f" at sample {sample}" if sample is not None else f": {note}"
                self.failure = f"non-finite residual {residual}{where}"
        elif residual > self.value:
            self.value, self.note = residual, note


_RUNNERS = {}


def _runner(kind: str):
    def register(fn):
        _RUNNERS[kind] = fn
        return fn

    return register


#: Step of the finite differences of :func:`_fd_curvature`.
_FD_STEP = 1e-3

#: The shifts of one coordinate in a stencil, in the argument order of
#: :func:`~curvcheck.numcore.central_difference`.
_FD_SHIFTS = (_FD_STEP, -_FD_STEP, 2.0 * _FD_STEP, -2.0 * _FD_STEP)


def _fd_curvature(field: ChristoffelField, points: StackedPoint) -> np.ndarray:
    """Curvature coefficients rebuilt from finite-difference partials only,
    by the coordinate formula that :func:`curvature_coefficients` feeds
    structural partials, with a trailing axis of one entry per point of
    ``points``.

    Every partial is a fourth-order central difference along one
    coordinate.  The stencil of all ``S`` points is one stack of
    ``S (1 + 4 (m + n))`` points, at least 9, so it is swept as a stack
    at any ``S``: the points themselves, then each coordinate shifted by
    each of ``_FD_SHIFTS`` in turn.  Each symbol is evaluated once on it.
    """
    m, n = field.patch.dims
    columns = [
        np.concatenate([z] + [z + delta if i == k else z
                              for i in range(m + n) for delta in _FD_SHIFTS])
        for k, z in enumerate(points.x + points.f)
    ]
    stencil = StackedPoint(tuple(columns[:m]), tuple(columns[m:]))
    try:
        values = sweep_grid(field.gamma, lambda e: evaluate(e, stencil))
    except DomainError as exc:
        # stencil point i shifts sample i % S
        raise DomainError(str(exc.__cause__), exc.sample % points.size) from exc.__cause__
    # [a, mu, block, point]; block 1 + 4 i + j shifts coordinate i by _FD_SHIFTS[j]
    values = values.reshape(n, m, -1, points.size)
    grads = central_difference(*(values[:, :, 1 + j::4] for j in range(4)), _FD_STEP)
    return _coordinate_curvature(values[:, :, 0], grads[:, :, :m], grads[:, :, m:])


@_runner("curvature-coefficients")
def _run_curvature_coefficients(spec: CheckSpec, rng: SplitMix64, row: _Row) -> None:
    """Structural-derivative coefficients against a finite-difference rebuild.

    Draw order per sample: one point (x coordinates, then f coordinates).
    """
    field = spec.params["connection"]
    points = StackedPoint.of(
        [sample_point(rng, *field.patch.dims) for _ in range(spec.samples)]
    )
    exact = over_samples(lambda p: curvature_coefficients(field, p), points)
    approx = _fd_curvature(field, points)
    deviations = np.abs(exact - approx).max(axis=(0, 1, 2))
    for sample, deviation in enumerate(deviations.tolist()):
        note = f"at sample {sample}: structural against finite-difference coefficients "
        note += f"{deviation:.3e}"
        row.add(deviation, sample, note)


@_runner("nijenhuis-vs-coefficients")
def _run_nijenhuis(spec: CheckSpec, rng: SplitMix64, row: _Row) -> None:
    """Projector-bracket curvature on coordinate fields against the
    coordinate coefficients, all ordered index pairs, and its two-term
    against its four-term expansion.

    Draw order per sample: one point (x coordinates, then f coordinates).
    """
    field = spec.params["connection"]
    m, n = field.patch.dims
    points = StackedPoint.of([sample_point(rng, m, n) for _ in range(spec.samples)])
    coords = [TotalVectorField.coordinate(field.patch, mu) for mu in range(1, m + 1)]
    coefficients = over_samples(lambda p: curvature_coefficients(field, p), points)
    tensors, gaps = nijenhuis_tensor(field, coords, points)
    deviations = np.abs(tensors - coefficients).max(axis=(0, 1, 2))
    for sample, (deviation, gap) in enumerate(zip(deviations.tolist(), gaps.tolist())):
        note = f"at sample {sample}: bracket against coefficients {deviation:.3e}, "
        note += f"two-term against four-term {gap:.3e}"
        # np.max keeps a NaN, which then fails the row
        row.add(float(np.max((deviation, gap))), sample, note)


@_runner("commutator-identity")
def _run_commutator(spec: CheckSpec, rng: SplitMix64, row: _Row) -> None:
    """Twisted second-derivative differences against the coordinate
    curvature at the section image, all ordered index pairs, and the
    explicit second jets against the prolonged connection.

    Draw order per sample: the section's polynomial components (only when no
    section is named in the config), then one base point.
    """
    field = spec.params["connection"]
    named = spec.params["section"]
    m = field.patch.base_dim
    samples = []
    for _ in range(spec.samples):
        s = named if named is not None else sample_section(rng, field.patch)
        samples.append((s, sample_point(rng, m).x))
    # the section images (x, s(x))
    images = StackedPoint.of(each_sample(lambda sx: EvalPoint(sx[1], sx[0].value(sx[1])), samples))
    coefficients = over_samples(lambda p: curvature_coefficients(field, p), images)
    tensors, gaps = commutator_tensor(field, samples)
    deviations = np.abs(tensors - coefficients).max(axis=(0, 1, 2))
    for sample, (deviation, gap) in enumerate(zip(deviations.tolist(), gaps.tolist())):
        note = f"at sample {sample}: twisted jets against coefficients {deviation:.3e}, "
        note += f"explicit against prolonged-connection jets {gap:.3e}"
        # np.max keeps a NaN, which then fails the row
        row.add(float(np.max((deviation, gap))), sample, note)


@_runner("theta-equivariance")
def _run_theta(spec: CheckSpec, rng: SplitMix64, row: _Row) -> None:
    """Order-swap involution laws and chart-change equivariance.

    Involutivity and projection-swap must hold exactly; pushing a jet
    through a sampled fiber transition must commute with the swap within
    tolerance.  Draw order per sample: the transition's polynomial
    components, then one jet (``base_dim`` base coordinates, which no route
    reads, then f, fdot, fcirc, fcircdot).
    """
    m = spec.params["base_dim"]
    n = spec.params["fiber_dim"]
    samples = [
        (sample_transition(rng, n), sample_second_jet(rng, m, n)) for _ in range(spec.samples)
    ]
    for sample, (h, j) in enumerate(samples):
        if not np.array_equal(theta(theta(j)), j):
            row.failure = f"involution broken at sample {sample}"
            return
        if not np.array_equal(pi(theta(j))[1:], pi(j)[[2, 1]]):
            row.failure = f"projection does not swap the legs at sample {sample}"
            return
        gaps = np.abs(pushforward_second_jet(h, theta(j)) - theta(pushforward_second_jet(h, j)))
        # the largest gap, or the first NaN, which then fails the row
        worst = int(np.argmax(gaps))
        gap = float(gaps.flat[worst])
        note = f"at sample {sample}: pushforward of the swapped jet against swap of "
        note += f"the pushforward {gap:.3e} in slot {SLOTS[worst // n]}"
        row.add(gap, sample, note)


@_runner("parallel-morphism")
def _run_parallel(spec: CheckSpec, rng: SplitMix64, row: _Row) -> None:
    """Horizontal-to-horizontal pushforward residuals, with an expectation.

    Draw order per sample: one source point (x coordinates, then f
    coordinates).
    """
    field = spec.params["connection"]
    points = [sample_point(rng, *field.patch.dims) for _ in range(spec.samples)]
    residuals = is_parallel_morphism(
        spec.params["morphism"], field, spec.params["connection_hat"], points
    )
    for sample, (residual, p) in enumerate(zip(residuals, points)):
        row.add(residual, sample, f"largest residual {residual:.3e} at x={p.x}, f={p.f}")


@_runner("connection-axiom")
def _run_axiom(spec: CheckSpec, rng: SplitMix64, row: _Row) -> None:
    """Product-curve velocity law for the connection form, one trial per
    sample.

    Draw order per sample: base point and base velocity (m draws each), the
    logs of the curves' starting points ``g0`` and ``gamma0``, then their
    generators ``X`` and ``Y`` (k draws each), all at scale 1.
    """
    potential = spec.params["potential"]
    trials = sample_axiom_trials(rng, potential.algebra, potential.base_dim, spec.samples)
    for sample, residual in enumerate(check_axiom(potential, trials)):
        row.add(residual, sample, f"at sample {sample}: axiom residual {residual:.3e}")


@_runner("cartan-cross-check")
def _run_cartan(spec: CheckSpec, rng: SplitMix64, row: _Row) -> None:
    """Three-route curvature agreement at sampled base points.

    Draw order per sample: one base point (x coordinates), the logs of
    ``group_samples - 1`` chart centers (k draws each), then
    ``section_samples`` sections of k base-only polynomials each.
    """
    potential = spec.params["potential"]
    m = potential.base_dim
    counts = (spec.params["group_samples"] - 1, spec.params["section_samples"])
    samples = [
        (sample_point(rng, m).x, *sample_cross_check(rng, potential.algebra, m, *counts))
        for _ in range(spec.samples)
    ]
    for sample, report in enumerate(curvature_cross_check(potential, samples)):
        routes = ", ".join(f"{name} {value:.3e}" for name, value in report.pairwise.items())
        note = f"at sample {sample}: {routes}, "
        note += f"explicit against prolonged-connection jets {report.prolonged_deviation:.3e}"
        row.add(report.max_deviation, sample, note)


@_runner("bch-theta")
def _run_bch(spec: CheckSpec, rng: SplitMix64, row: _Row) -> None:
    """Finite-difference surface jets against the algebraic order swap.

    Draw order per sample: group-log coefficients (k draws at scale 1/2),
    then the three slot elements (k draws each at scale 1/(2k)).
    """
    algebra = spec.params["algebra"]
    scale = 0.5 / algebra.k
    jets = []
    for _ in range(spec.samples):
        g = exp(algebra, sample_algebra_element(rng, algebra, 0.5))
        jets.append((g, *(sample_algebra_element(rng, algebra, scale) for _ in range(3))))
    for sample, report in enumerate(theta_bch_verify(algebra, jets)):
        note = f"at sample {sample}: direct jet {report.direct_deviation:.3e}, "
        note += f"swapped jet {report.swapped_deviation:.3e}"
        row.add(report.max_deviation, sample, note)


@_runner("linearity")
def _run_linearity(spec: CheckSpec, rng: SplitMix64, row: _Row) -> None:
    """Fiber-linearity probe with an expectation (linear or nonlinear).

    The probe's violation, if any, is the row's one residual, and it lies
    above the check's tolerance.  Draw order per sample: one point (x
    coordinates, then f coordinates).
    """
    field = spec.params["connection"]
    points = [sample_point(rng, *field.patch.dims) for _ in range(spec.samples)]
    violation = linearity_detect(field, points, spec.tolerance, spec.params["lambdas"]).violation
    if violation is not None:
        row.add(abs(violation.actual - violation.expected), note=str(violation))


@_runner("linear-consistency")
def _run_linear_consistency(spec: CheckSpec, rng: SplitMix64, row: _Row) -> None:
    """Classical-formula contraction against the general coefficients.

    Draw order per sample: one point (x coordinates, then v coordinates).
    """
    linear = spec.params["linear_connection"]
    points = [sample_point(rng, *linear.patch.dims) for _ in range(spec.samples)]
    residuals = each_sample(lambda p: linear_curvature_consistency(linear, p.x, p.f), points)
    for sample, residual in enumerate(residuals):
        note = f"at sample {sample}: classical against general coefficients {residual:.3e}"
        row.add(residual, sample, note)


def _result(
    spec: CheckSpec, verdict: str, detail: str, residual: float | None = None
) -> CheckResult:
    return CheckResult(
        spec.name, spec.kind, spec.samples, residual, spec.tolerance, verdict, detail
    )


def _error_result(spec: CheckSpec, exc: BaseException) -> CheckResult:
    """The ``error`` row of a check that raised ``exc`` instead of finishing."""
    return _result(spec, "error", f"{type(exc).__name__}: {exc}")


def run_check(spec: CheckSpec, suite_seed: int) -> CheckResult:
    """Run one check on its own RNG stream and judge its row; exceptions
    become error rows.

    The row rule: a row with a ``failure`` (a non-finite residual or a broken
    exact law) fails with no residual.  Otherwise the largest finite residual
    passes at or below the tolerance, and an ``expect`` of a violation flips
    that verdict.  A row above tolerance carries its runner's note as detail.

    numpy's floating-point warnings are silenced: a non-finite value shows in
    the row instead, as :class:`_Row` fails any non-finite residual."""
    seed = spec.seed if spec.seed is not None else suite_seed
    rng = stream(seed, spec.name)
    row = _Row()
    try:
        with np.errstate(all="ignore"):
            _RUNNERS[spec.kind](spec, rng, row)
    except Exception as exc:
        return _error_result(spec, exc)
    if row.failure:
        return _result(spec, "fail", row.failure)
    above = row.value > spec.tolerance
    expects_violation = spec.params.get("expect") in ("not-parallel", "nonlinear")
    detail = row.note if above else ""
    if expects_violation and not above:
        detail = f"no violation found in {spec.samples} samples"
    verdict = "pass" if above == expects_violation else "fail"
    return _result(spec, verdict, detail, row.value)


def _serve(specs, suite_seed: int, tasks: int, rows: int) -> None:
    """A forked worker's loop: for each spec index read from the pipe
    ``tasks``, one a line, run the check and write the index and its row,
    pickled, to the pipe ``rows``."""
    with open(tasks, "rb") as inbox, open(rows, "wb") as outbox:
        for line in inbox:
            pickle.dump((int(line), run_check(specs[int(line)], suite_seed)), outbox)
            outbox.flush()


def _run_forked(specs, workers: int, suite_seed: int) -> list:
    """Run ``specs`` on ``workers`` processes forked from this one, results
    in spec order, every worker reaped before this returns or raises.

    The caller runs no check.  It writes a worker its next spec index when
    the last row has come back, so no pipe holds two messages, and the
    caller reads every row a worker writes: a full pipe cannot deadlock
    them.  A worker that dies breaks the run: the others are killed, and
    each check whose row never came back becomes an ``error`` row.

    An interrupt that arrives while the workers are killed and reaped is
    held until the last is reaped, then raised again.  The SIGINT handler
    is swapped for that, not the signal masked: a signal sent to the
    process reaches any thread that does not mask it, a BLAS thread say.
    A run outside the main thread is never interrupted, as handlers run in
    the main thread."""
    import select  # here, not at the top: serial runs need neither
    import signal
    import threading

    results = [None] * len(specs)
    pending = iter(range(len(specs)))
    # by the fd of a worker's result pipe: its pid, its task pipe until
    # closed, and its result pipe as a file until the worker ends
    pids, tasks, rows = {}, {}, {}
    dead = None

    def hand_out(fd: int) -> None:
        # the worker's next index, or the end of its work when none is left
        index = next(pending, None)
        if index is None:
            os.close(tasks.pop(fd))
            return
        try:
            os.write(tasks[fd], b"%d\n" % index)
        except BrokenPipeError:  # the worker died; its result pipe shows that
            pass

    try:
        for _ in range(workers):
            task_r, task_w = os.pipe()
            row_r, row_w = os.pipe()
            tasks[row_r], rows[row_r] = task_w, open(row_r, "rb")
            try:
                pids[row_r] = os.fork()
                if pids[row_r] == 0:
                    try:
                        for fd in (*tasks, *tasks.values()):
                            os.close(fd)
                        _serve(specs, suite_seed, task_r, row_w)
                        os._exit(0)
                    finally:
                        os._exit(1)
            finally:
                os.close(task_r)
                os.close(row_w)
            hand_out(row_r)
        while rows and dead is None:
            for fd in select.select(list(rows), [], [])[0]:
                try:
                    index, row = pickle.load(rows[fd])
                except (EOFError, pickle.UnpicklingError):  # the worker ended
                    rows.pop(fd).close()
                    if fd in tasks:
                        dead = pids[fd]
                        break
                else:
                    results[index] = row
                    hand_out(fd)
    finally:
        held = []
        main = threading.current_thread() is threading.main_thread()
        if main:
            previous = signal.signal(signal.SIGINT, lambda signum, frame: held.append(signum))
        try:
            for fd, file in rows.items():
                file.close()
                if fd in pids:
                    os.kill(pids[fd], signal.SIGKILL)
            for fd in tasks.values():
                os.close(fd)
            status = {pid: os.waitpid(pid, 0)[1] for pid in pids.values()}
        finally:
            if main:
                signal.signal(signal.SIGINT, previous)
        if held:
            signal.raise_signal(signal.SIGINT)
    if dead is None:
        return results
    from concurrent.futures.process import BrokenProcessPool

    code = os.waitstatus_to_exitcode(status[dead])
    how = f"exited with code {code}" if code >= 0 else f"was killed by {signal.Signals(-code).name}"
    broken = BrokenProcessPool(f"a worker process {how} before its row came back")
    return [_error_result(s, broken) if r is None else r for s, r in zip(specs, results)]


def run_suite(config: SuiteConfig, jobs: int = 1) -> RunReport:
    """Run every check in the config, sorted by name.

    ``jobs > 1`` runs the checks on ``min(jobs, checks)`` worker processes
    forked from this one, or serially where ``os.fork`` is unavailable;
    results are identical either way because every check draws from its own
    named stream.
    """
    start = time.perf_counter()
    specs = sorted(config.checks, key=lambda s: s.name)
    if jobs > 1 and len(specs) > 1 and hasattr(os, "fork"):
        results = _run_forked(specs, min(jobs, len(specs)), config.seed)
    else:
        results = [run_check(s, config.seed) for s in specs]
    return RunReport(
        tool_version=__version__,
        config_digest=config.digest,
        seed=config.seed,
        duration_seconds=time.perf_counter() - start,
        checks=tuple(results),
    )
