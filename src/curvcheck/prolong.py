"""Second-order jets of sections and the prolonged (vertical) connection.

A second jet over a base point carries the fiber slots

    (f; fdot; fcirc; fcircdot)

where ``fdot`` is the first-parameter velocity, ``fcirc`` the
second-parameter velocity, and ``fcircdot`` the mixed second velocity.  It
is held as a float array of shape ``(4, n)`` with these rows (:data:`SLOTS`),
and many jets as one stack of shape ``(..., 4, n)``; no function here reads
the base point, as the chart transitions are fiber-only.  The slot swap

    theta(f; fdot; fcirc; fcircdot) = (f; fcirc; fdot; fcircdot)

exchanges the two parameters: it permutes the rows.  Forgetting the mixed
slot and reordering gives the double projection

    pi(f; fdot; fcirc; fcircdot) = (f; fcirc; fdot),

whose fibers are affine lines: two jets over the same ``pi``-image differ by
a well-defined vertical vector (their ``fcircdot`` difference).

A connection on the underlying patch induces one on its vertical bundle.  In
coordinates ``(f, u)`` on the vertical fiber (``u`` the variation slot), the
induced Christoffel symbols are

    Gamma'^a_mu(x, f, u)       = Gamma^a_mu(x, f)            (position block)
    Gamma'^(n+a)_mu(x, f, u)   = sum_b dGamma^a_mu/df^b (x,f) * u^b

which is the one place this package differentiates expressions structurally.

Differentiating a section twice, vertically along ``d/dx^mu`` after
horizontally along ``d/dx^nu``, produces a second jet ``D_mu D_nu s`` at
``x``: ``f = s(x)``, ``fdot`` the covariant derivative along ``nu``,
``fcirc`` the one along ``mu``, and the mixed slot

    d2 s^a/dx^mu dx^nu + dGamma^a_nu/dx^mu
    + sum_b dGamma^a_mu/df^b Gamma^b_nu
    + sum_b dGamma^a_nu/df^b ds^b/dx^mu
    + sum_b dGamma^a_mu/df^b ds^b/dx^nu      (all at (x, s(x))).

The theta-twisted affine difference of the two orders,
``affine_diff(D_mu D_nu s, theta(D_nu D_mu s))``, recovers the curvature
coefficients ``R^a_{mu nu}(x, s(x))`` (:func:`commutator_tensor`), which
also returns the gap of these jets from a second route: the covariant
derivative, under the prolonged connection, of the section ``(s, fdot)``
of the vertical bundle.  That route works from numbers at ``x``.  Its
velocity slot ``d fdot^a/dx^mu`` is a first-order partial of a symbolic
first derivative of ``s^a`` (along the smaller of ``mu`` and ``nu``, then
the larger) plus the tangent of
``Gamma^a_nu(x, s(x))`` along ``x``, one forward sweep per symbol seeded
with ``x^i -> e_i`` and ``f^b -> ds^b/dx`` (the chain rule through a tape),
and the prolonged symbols are evaluated at ``(x, s(x), fdot)``.  It uses
no mixed second derivative and no value of the five-term formula, so a
defect in either shows as a gap.  The five-term formula takes the symbols'
partials from the adjoint sweep of ``numcore.gradient`` and this route from
tangent sweeps, so the gap also compares the two sweeps.

Both routes run for all samples of a check at once
(:func:`commutator_tensor`).  The section side of each route -- the
values and gradients of ``s``, its mixed second derivatives (both orders
of each pair) or the partials of its symbolic first derivatives -- is
computed one sample at a time on floats, as every sample may draw its own
section.  Each connection-side sweep (the symbols' gradients, their
tangent sweeps, the prolonged symbols at ``(x, s(x), fdot)``) is one sweep
over the points of all samples through
:func:`~curvcheck.numcore.over_samples`, and the jets' arithmetic runs on
the sample axis, so every sample's numbers are bit for bit those of that
sample alone.  The jets of all samples and pairs are then twisted and
differenced as one stack.

Each call of :func:`commutator_tensor` builds the prolonged connection
once, through :func:`vertical_connection`, and keeps nothing on the field.
"""

from __future__ import annotations

import numpy as np

from . import _symbolic
from .bundle import BundlePatch, ChristoffelField
from .errors import FiberMismatch
from .exprdsl import Expression, Var, check_grid
from .numcore import (
    EvalPoint,
    StackedPoint,
    directional,
    each_sample,
    evaluate,
    gradient,
    mixed_second,
    over_samples,
    partial,
    stack_samples,
    sweep_grid,
)

__all__ = [
    "SLOTS",
    "theta",
    "pi",
    "affine_diff",
    "pushforward_second_jet",
    "vertical_connection",
    "commutator_tensor",
]

#: The rows of a second jet: a float array of shape ``(4, n)``, or a stack
#: of them of shape ``(..., 4, n)``.
SLOTS = ("f", "fdot", "fcirc", "fcircdot")


def theta(j: np.ndarray) -> np.ndarray:
    """Swap the two differentiation parameters (involution; fixes ``f`` and
    the mixed slot)."""
    return j[..., [0, 2, 1, 3], :]


def pi(j: np.ndarray) -> np.ndarray:
    """Double projection: forget the mixed slot, ordering the variation
    velocity first, as rows ``(f, fcirc, fdot)``."""
    return j[..., [0, 2, 1], :]


#: Largest slot deviation of two jets over the same fiber.
_FIBER_TOL = 1e-12


def affine_diff(j1: np.ndarray, j2: np.ndarray) -> np.ndarray:
    """Affine difference of two jets, or of two stacks of jets, over the same
    double-projection fibers: the difference of their mixed slots, the
    vertical vectors at their ``f``, of shape ``(..., n)``.

    Requires ``pi(j1) == pi(j2)`` componentwise within :data:`_FIBER_TOL`.
    Raises :class:`FiberMismatch` otherwise, naming the worst slot of the
    first pair of the stack that fails, and for jets of different shapes.
    """
    if j1.shape != j2.shape:
        raise FiberMismatch(f"jets have different shapes {j1.shape} and {j2.shape}")
    # np.max keeps a NaN, and a NaN never passes the comparison
    deviations = np.max(np.abs(j1[..., :3, :] - j2[..., :3, :]), axis=-1, initial=0.0)
    failing = ~np.all(deviations <= _FIBER_TOL, axis=-1)
    if failing.any():
        first = deviations[failing][0]  # the first failing pair, in stack order
        worst = int(np.argmax(first))  # the first NaN, if there is one
        raise FiberMismatch(
            f"jets sit over different fibers: slot {SLOTS[worst]!r} differs by "
            f"{first[worst]:.3e} (tolerance {_FIBER_TOL:.1e})"
        )
    return j1[..., 3, :] - j2[..., 3, :]


def pushforward_second_jet(h: tuple[Expression, ...], j: np.ndarray) -> np.ndarray:
    """Push a second jet ``j`` of shape ``(4, n)`` through a fiber chart
    transition ``f' = h(f)``.

    ``h`` is a tuple of n expressions in the fiber variables only.  First
    order slots transform by the Jacobian of ``h``; the mixed slot picks up
    the quadratic correction

        fcircdot'^w = sum_{a,b} d2 h^w/df^a df^b * fcirc^a * fdot^b
                      + sum_a dh^w/df^a * fcircdot^a.

    ``h^w``, both first-order slots and the Jacobian term come from one
    width-3 :func:`~curvcheck.numcore.directional` sweep of ``h^w`` seeded
    ``f^a -> (fdot^a, fcirc^a, fcircdot^a)``.  The Hessian term stays one
    ``mixed_second`` per pair of nonzero legs: a jet sweep seeded with both
    legs is symmetric in them bit for bit, as every second-order rule is, so
    ``theta-equivariance`` would read 0 on every input.
    """
    f, fdot, fcirc, fcircdot = j.tolist()
    n = len(f)
    h = check_grid(h, (n,), 0, n, "h")
    p = EvalPoint.of((), f)
    seeds = list(zip(fdot, fcirc, fcircdot))
    values, legs = zip(*(directional(e, p, seeds) for e in h))
    new_fdot, new_fcirc, new_mixed = (list(slot) for slot in zip(*legs))
    for w in range(n):
        for a in range(n):
            if fcirc[a] == 0.0:
                continue
            for b in range(n):
                if fdot[b] == 0.0:
                    continue
                new_mixed[w] += (
                    mixed_second(h[w], p, ("f", a + 1), ("f", b + 1)) * fcirc[a] * fdot[b]
                )
    return np.array([values, new_fdot, new_fcirc, new_mixed])


# ---------------------------------------------------------------------------
# induced connection on the vertical bundle


def vertical_connection(field: ChristoffelField) -> ChristoffelField:
    """The induced connection on the vertical bundle of ``field``'s patch.

    The prolonged patch has the same base and fiber dimension ``2n``: fiber
    variables ``f1..fn`` are the position block and ``f(n+1)..f(2n)`` the
    variation block.  See the module docstring for the symbol layout.
    """
    m, n = field.patch.dims
    variation = [Var("f", n + b + 1) for b in range(n)]
    lifted = tuple(
        tuple(
            _symbolic.dot([_symbolic.derivative(e, "f", b + 1) for b in range(n)], variation)
            for e in row
        )
        for row in field.gamma
    )
    return ChristoffelField(BundlePatch(m, 2 * n), tuple(field.gamma) + lifted)


def _prolonged_covariants(field: ChristoffelField, samples, pairs) -> np.ndarray:
    """The second route to the jets of :func:`_second_covariants`: for each
    ``(mu, nu)`` of ``pairs``, the covariant derivative along ``d/dx^mu``,
    under :func:`vertical_connection`, of the section ``sigma = (s, v)`` of
    the vertical bundle with ``v^a = ds^a/dx^nu + Gamma^a_nu(x, s(x))``, as
    ``[component, pair, sample]`` of shape ``(2n, pairs, S)`` over the
    ``(s, x)`` of ``samples`` (validated base points).

    It is computed from numbers, with no symbolic section: ``d v^a/dx^mu``
    is the first-order partial of the symbolic ``ds^a/dx^i`` along ``x^j``,
    ``(i, j)`` the smaller and the larger of ``mu`` and ``nu``, taken once
    for both orders, plus the tangent of ``Gamma^a_nu`` at ``(x, s(x))``
    along ``(e_mu, ds/dx^mu)``, one :func:`~curvcheck.numcore.directional`
    sweep per symbol for every ``mu``.  It evaluates ``s`` itself, one
    sample at a time, and calls no ``mixed_second``; the symbols are swept
    over all samples at once.
    """
    m, n = field.patch.dims
    prolonged = vertical_connection(field)

    def section_side(sample):
        s, x = sample
        values, grads = zip(*(gradient(c, x) for c in s.comps))
        first = {}  # i -> the symbolic ds^a/dx^i
        seconds = {}  # (i, j) -> the partials of first[i] along x^j
        for mu, nu in pairs:
            # d2 s/dx^mu dx^nu, as the partial along the larger index of the
            # symbolic derivative along the smaller, so both orders share it
            low, high = sorted((mu, nu))
            if (low, high) not in seconds:
                if low not in first:
                    first[low] = [_symbolic.derivative(c, "x", low) for c in s.comps]
                seconds[low, high] = [partial(d, x, ("x", high)) for d in first[low]]
        by_pair = [seconds[tuple(sorted(pair))] for pair in pairs]
        return values, grads, [[dv[a] for dv in by_pair] for a in range(n)]

    values, grads, seconds = stack_samples(each_sample(section_side, samples))
    base = StackedPoint.of([x for _, x in samples])
    # x^i moves along e_i and f^b along the gradient of s^b
    unit = [tuple(float(i == j) for j in range(m)) for i in range(m)]
    symbols, tangents = over_samples(
        lambda p, g: sweep_grid(field.gamma, lambda e: directional(e, p, unit + list(g))),
        StackedPoint(base.x, tuple(values)),
        grads,
    )
    # the prolonged symbols of column mu at sigma, which depends on nu only
    at_sigma = np.empty((2 * n, len(pairs), len(samples)))
    for nu in sorted({nu for _, nu in pairs}):
        velocity = grads[:, nu - 1] + symbols[:, nu - 1]
        sigma = StackedPoint(base.x, tuple(values) + tuple(velocity))
        columns = [(k, mu) for k, (mu, other) in enumerate(pairs) if other == nu]
        at_sigma[:, [k for k, _ in columns]] = over_samples(
            lambda p: sweep_grid([[row[mu - 1] for _, mu in columns] for row in prolonged.gamma],
                                 lambda e: evaluate(e, p)),
            sigma,
        )
    mu, nu = _pair_indices(pairs)
    position = grads[:, mu] + at_sigma[:n]
    variation = seconds + tangents[:, nu, mu] + at_sigma[n:]
    return np.concatenate((position, variation))


def _pair_indices(pairs) -> tuple[np.ndarray, np.ndarray]:
    """The 0-based ``mu`` and ``nu`` of ``pairs``, as two index arrays."""
    return tuple(np.array([pair[i] - 1 for pair in pairs], dtype=int) for i in (0, 1))


def _second_covariants(field: ChristoffelField, samples, pairs) -> tuple[np.ndarray, np.ndarray]:
    """The jets ``D_mu D_nu s`` of the module docstring as one stack of shape
    ``(S, pairs, 4, n)``, one jet per ``(s, x)`` of ``samples`` and
    ``(mu, nu)`` of ``pairs``, and the largest gap of each sample's jets, a
    NaN kept, from :func:`_prolonged_covariants`, which shares no value with
    them.

    The section side (values and gradients of ``s``, and its mixed second
    derivatives, both orders of each pair) is computed one sample at a time
    on floats, as every sample may have its own section; the symbols'
    gradients at ``(x, s(x))`` are swept over all samples at once
    (:func:`~curvcheck.numcore.over_samples`), and the jets' arithmetic runs
    on the sample axis in the order of one sample alone.  A domain error
    names its sample.
    """
    m, n = field.patch.dims
    if not samples:
        return np.zeros((0, len(pairs), 4, n)), np.zeros(0)
    if any(s.patch != field.patch for s, _ in samples):
        raise ValueError("section and connection patches differ")
    points = [EvalPoint.of(x) for _, x in samples]
    for x in points:
        field.patch.check_point(x, base=True)
    samples = [(s, x) for (s, _), x in zip(samples, points)]

    def section_side(sample):
        s, x = sample
        svals, sgrads = zip(*(gradient(c, x) for c in s.comps))
        mixed = [[mixed_second(c, x, ("x", mu), ("x", nu)) for mu, nu in pairs] for c in s.comps]
        return svals, sgrads, mixed

    svals, sgrads, mixed = stack_samples(each_sample(section_side, samples))
    base = StackedPoint.of(points)
    # the symbols' values and gradients, x partials before f partials
    gvals, ggrad = over_samples(
        lambda p: sweep_grid(field.gamma, lambda e: gradient(e, p)),
        StackedPoint(base.x, tuple(svals)),
    )
    # the jets' slots as [a, pair, sample], each pair in the order of one
    # pair alone
    mu, nu = _pair_indices(pairs)
    s_mu, s_nu, g_nu = sgrads[:, mu], sgrads[:, nu], gvals[:, nu]
    fdot = s_nu + g_nu
    fcirc = s_mu + gvals[:, mu]
    # the partials along f of Gamma_mu and Gamma_nu
    df_mu, df_nu = ggrad[:, mu, m:], ggrad[:, nu, m:]
    acc = mixed + ggrad[:, nu, mu]
    for b in range(n):
        acc += df_mu[:, :, b] * g_nu[b]
        acc += df_nu[:, :, b] * s_mu[b]
        acc += df_mu[:, :, b] * s_nu[b]
    checks = _prolonged_covariants(field, samples, pairs)
    # np.max keeps a NaN, which the row of the check then fails
    gaps = np.max(np.abs(checks - np.concatenate((fcirc, acc))), axis=(0, 1), initial=0.0)
    f = np.broadcast_to(svals[:, None], fdot.shape)
    return np.stack((f, fdot, fcirc, acc)).transpose(3, 2, 0, 1), gaps


def commutator_tensor(field: ChristoffelField, samples) -> tuple[np.ndarray, np.ndarray]:
    """The twisted difference ``affine_diff(D_mu D_nu s, theta(D_nu D_mu s))``
    for every pair of coordinate directions at every ``(s, x)`` of
    ``samples``: the tensors ``R[a-1, mu-1, nu-1]`` with a trailing sample
    axis, shape (n, m, m, S) like
    :func:`~curvcheck.bundle.curvature_coefficients` at a stacked point, and
    the largest gap of each sample's prolonged-connection route over all its
    jets, shape (S,), each sample's numbers bit for bit those of that sample
    alone.

    Each pair ``mu < nu`` is computed, all pairs of all samples in one
    :func:`affine_diff`; the lower triangle is its exact negation
    (``affine_diff`` of the swapped jets subtracts the same mixed slots the
    other way round) and the diagonal is zero.
    """
    m, n = field.patch.dims
    upper = [(mu, nu) for mu in range(1, m + 1) for nu in range(mu + 1, m + 1)]
    jets, gaps = _second_covariants(
        field, samples, [pair for mu, nu in upper for pair in ((mu, nu), (nu, mu))]
    )
    R = np.zeros((n, m, m, len(samples)))
    mu, nu = _pair_indices(upper)
    R[:, mu, nu] = affine_diff(jets[:, 0::2], theta(jets[:, 1::2])).transpose(2, 1, 0)
    R[:, nu, mu] = -R[:, mu, nu]
    return R, gaps
