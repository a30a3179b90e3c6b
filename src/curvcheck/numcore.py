"""Evaluation and differentiation of expressions: an adjoint sweep for
first partials, tangent sweeps for directional and mixed second derivatives.

Every function here but :func:`central_difference` (the stencil of the
routes that check this interpreter against values alone) runs the
:class:`~curvcheck.exprdsl.Program` of its expression (see
:func:`~curvcheck.exprdsl.compile_expr`) through one interpreter over the
tape:

* the **primal sweep** computes every register in IEEE double precision and
  holds the domain checks: ``log`` of a non-positive value, ``sqrt`` of a
  negative value, division by zero, ``0`` to a negative power, ``sin`` and
  ``cos`` of an infinite value, and ``exp`` and ``^`` overflow raise
  :class:`~curvcheck.errors.DomainError`; so does ``sqrt`` at exactly zero
  when derivatives are wanted, as it has no finite one there;
* the **adjoint sweep** of :func:`gradient` and :func:`partial` runs the tape
  backwards once and gives every first partial at a bounded multiple of the
  cost of one evaluation, whatever the number of coordinates (reverse mode:
  Griewank & Walther, *Evaluating Derivatives*, 2nd ed., SIAM 2008, ch. 3-4);
* the **tangent sweep** of :func:`directional` and :func:`mixed_second`
  pushes derivatives forward along seeded coordinate directions (forward
  mode, ibid.).  A tangent has one slot per seeded direction for
  :func:`directional`, and the slots ``d1, d2, d12`` of a two-direction jet
  for :func:`mixed_second`: the derivatives along the first direction, along
  the second, and along both.  The jet rules form each of the three slots
  once, ``d1`` and ``d2`` by the first-order rule and ``d12`` by the
  second-order one, with the terms that swap under swapping the directions
  summed as a group.  No general Hessians are kept.

Both derivative sweeps take every primitive's derivatives from one table,
``_DERIVATIVES``, and read it only at registers that depend on a seeded
coordinate, so constant subexpressions cost nothing there and the two
sweeps raise at the same points.  A table entry of ``log``, ``sqrt`` or
``/`` that overflows is ``inf``, as float division rounds, and so is the
second derivative of ``^`` (with its sign), which first-order sweeps never
use; the first derivative of ``^`` raises ``DomainError`` when it
overflows, as its value does.

:func:`directional` is the chain rule through a map: the pushforwards of
tangents and second jets in ``bundle`` and ``prolong`` seed each coordinate
with its velocity, so no route sums a Jacobian by hand.

Every entry point also runs at a :class:`StackedPoint` of ``S`` points,
whose coordinates are arrays of length ``S``: one sweep then gives every
point's numbers, each an array with one entry per point (the vector forward
mode of Griewank & Walther, ch. 3, along the sample axis).  ``+ - * neg``
and their table entries run as array arithmetic; ``/``, ``^``, ``sin``,
``cos``, ``exp``, ``log`` and ``sqrt``, values and table entries alike, run
one point at a time through the float code (``math``, and Python ``**`` on
floats).  So every point's numbers are bit for bit those of a sweep at that
point alone, and a domain error names the point (``at sample 2``) at which
the failing instruction first fails.  numpy's floating-point warnings are
silenced in a stacked sweep: an overflow is ``inf`` and ``inf - inf`` NaN,
silently, on floats too.

Array arithmetic costs a fixed overhead per instruction, so a stack pays
only from a few points on: :func:`over_samples`, the one place that reads
``_STACK_MIN``, sweeps fewer points one at a time on floats.  Every loop
over samples, here and in the routes, is :func:`each_sample`, the one place
that adds ``at sample i`` to a domain error, and :func:`stack_samples`
stacks the per-sample results.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from . import _records
from .errors import DomainError
from .exprdsl import Expression, Program, compile_expr

__all__ = [
    "EvalPoint",
    "StackedPoint",
    "over_samples",
    "each_sample",
    "stack_samples",
    "sweep_grid",
    "Coordinate",
    "evaluate",
    "directional",
    "gradient",
    "partial",
    "mixed_second",
    "central_difference",
]

#: A coordinate direction, e.g. ``("x", 1)`` or ``("f", 2)``; indices 1-based.
Coordinate = tuple[str, int]


class EvalPoint(_records.Value):
    """A point of the trivialized patch: base coordinates ``x``, fiber
    coordinates ``f`` (possibly empty for base-only expressions)."""

    __slots__ = ("x", "f")

    def __init__(self, x: tuple[float, ...], f: tuple[float, ...] = ()):
        set_x, set_f = self._setters
        set_x(self, x)
        set_f(self, f)

    @classmethod
    def of(cls, x, f=()) -> "EvalPoint":
        return cls(tuple(float(v) for v in x), tuple(float(v) for v in f))


class StackedPoint(_records.Frozen):
    """``size`` points of one patch, swept at once: ``x[i]`` and ``f[i]``
    are read-only 1-D float arrays of length ``size``, entry ``j`` the
    coordinate of point ``j``.  Compared and hashed by identity, as arrays
    have no hash."""

    __slots__ = ("x", "f")

    def __init__(self, x: tuple, f: tuple = ()):
        columns = []
        for column in x + f:
            column = np.array(column, dtype=float)
            column.flags.writeable = False
            columns.append(column)
        if not columns or any(c.ndim != 1 or len(c) != len(columns[0]) for c in columns):
            raise ValueError("a stacked point needs 1-D coordinate arrays of one length")
        if not len(columns[0]):
            raise ValueError("a stacked point needs at least one point")
        m = len(x)
        self._set(tuple(columns[:m]), tuple(columns[m:]))

    @property
    def size(self) -> int:
        return len(self.x[0] if self.x else self.f[0])

    @classmethod
    def of(cls, points) -> "StackedPoint":
        """The points of the sequence ``points``, all of one patch, stacked."""
        points = tuple(points)
        dims = {(len(p.x), len(p.f)) for p in points}
        if len(dims) != 1:
            raise ValueError(f"cannot stack points of dims {sorted(dims)}")
        return cls(tuple(zip(*(p.x for p in points))), tuple(zip(*(p.f for p in points))))

    def at(self, sample: int) -> EvalPoint:
        """Point ``sample`` of the stack, on Python floats."""
        return EvalPoint(
            tuple(float(c[sample]) for c in self.x), tuple(float(c[sample]) for c in self.f)
        )


#: The fewest points that :func:`over_samples` sweeps as one stack; fewer
#: are swept one at a time on floats.  Stacking broke even between 2 and 4
#: points for the structural and Nijenhuis routes on short symbols, and
#: between 4 and 6 for the commutator route (whose sections are swept one
#: point at a time either way), on symbols of a few hundred terms and on the
#: exponential-chart fields of ``cartan-cross-check``.  At 6 points, the
#: default of that check's commutator route, every route measured took at
#: most 0.91 of its time on floats.
_STACK_MIN = 6


def over_samples(route, points: StackedPoint, *columns):
    """``route`` at every point of ``points``, each number of its result with
    a trailing sample axis.

    With at least ``_STACK_MIN`` points ``route`` gets the stack itself;
    with fewer, each point on floats, and the results are stacked.  Each of
    ``columns``, an array whose last axis runs over the points (the seeds
    of a :func:`directional` sweep, say), follows the point as the next
    argument of ``route``: whole with the stack, and with one point as that
    point's entries, in nested lists of floats.  ``route`` returns an
    array, a number or a tuple of them.  A domain error names its sample
    either way.
    """
    if points.size >= _STACK_MIN:
        return route(points, *columns)
    per_point = ((points.at(i), *(c[..., i].tolist() for c in columns)) for i in range(points.size))
    return stack_samples(each_sample(lambda args: route(*args), per_point))


def each_sample(route, items):
    """``route`` at each of ``items`` in turn, yielded lazily (a caller that
    stops early runs no later item); a domain error names the position of
    its item as its sample (``at sample 2``)."""
    for sample, item in enumerate(items):
        try:
            yield route(item)
        except DomainError as exc:
            raise DomainError(f"{exc} at sample {sample}") from exc


def stack_samples(results):
    """The per-sample ``results`` as one array with a trailing sample axis,
    or a tuple of such arrays for tuple results; entries keep their dtype
    (``Fraction``s stay exact in an object array)."""
    results = list(results)
    if isinstance(results[0], tuple):
        return tuple(np.stack(parts, axis=-1) for parts in zip(*results))
    return np.stack(results, axis=-1)


def sweep_grid(grid, sweep):
    """``sweep(e)`` once for each expression ``e`` of ``grid``, a non-empty
    rectangular nest of tuples or lists, in row-major order, as an array of
    the grid's shape followed by each number's own axes, or a tuple of such
    arrays when ``sweep`` returns a tuple.  Each route passes its own
    ``sweep``."""
    grid = np.array(grid, dtype=object)
    results = [sweep(e) for e in grid.flat]
    if isinstance(results[0], tuple):
        return tuple(np.reshape(part, grid.shape + np.shape(part[0])) for part in zip(*results))
    return np.reshape(results, grid.shape + np.shape(results[0]))


# ---------------------------------------------------------------------------
# the primitives


def _apply(op: str, u: float, v, smooth: bool) -> float:
    """Value of ``op`` at ``u`` for every primitive but ``+ - * neg``, with
    its domain checks (``v`` is the divisor of ``/`` and the exponent of
    ``^``).  ``smooth`` also rejects points where the value exists but the
    derivative does not."""
    if op == "/":
        if v == 0.0:
            raise DomainError("division by zero")
        return u / v
    if op == "^":
        if v < 0 and u == 0.0:
            raise DomainError("zero raised to a negative power")
        return _power(u, v)
    if op == "sin" or op == "cos":
        if math.isinf(u):
            raise DomainError(f"{op} of infinite value {u}")
        return math.sin(u) if op == "sin" else math.cos(u)
    if op == "exp":
        try:
            return math.exp(u)
        except OverflowError as exc:
            raise DomainError(f"exp overflow at {u}") from exc
    if op == "log":
        if u <= 0.0:
            raise DomainError(f"log of non-positive value {u}")
        return math.log(u)
    # sqrt, the last primitive compile_expr admits
    if u < 0.0:
        raise DomainError(f"sqrt of negative value {u}")
    if smooth and u == 0.0:
        raise DomainError("sqrt has no finite derivative at zero")
    return math.sqrt(u)


def _power(u: float, k: int) -> float:
    try:
        return u**k
    except OverflowError as exc:
        raise DomainError(f"^ overflow at {u} to the power {k}") from exc


def _power_derivatives(u: float, y: float, k: int) -> tuple[float, float]:
    first = 0.0 if k == 0 else k * _power(u, k - 1)
    if k in (0, 1):
        return first, 0.0
    try:
        second = u ** (k - 2)
    except OverflowError:
        # k (k - 1) > 0, so the entry has the sign of u^(k-2)
        second = math.copysign(math.inf, u if k % 2 else 1.0)
    return first, k * (k - 1) * second


#: First and second derivatives of every primitive.  A unary entry maps
#: ``(u, y, k)`` -- operand, value, exponent of ``^`` -- to ``(dy/du,
#: d2y/du2)``.  A binary entry maps ``(u, v, y)`` to ``(dy/du, dy/dv,
#: d2y/du dv, d2y/dv2)``; ``d2y/du2`` vanishes for every binary primitive.
#: Denominators are divided out one factor at a time, as their product
#: could underflow to 0.
_DERIVATIVES = {
    "neg": lambda u, y, k: (-1.0, 0.0),
    "sin": lambda u, y, k: (math.cos(u), -y),
    "cos": lambda u, y, k: (-math.sin(u), -y),
    "exp": lambda u, y, k: (y, y),
    "log": lambda u, y, k: (1.0 / u, -1.0 / u / u),
    "sqrt": lambda u, y, k: (0.5 / y, -0.25 / u / y),
    "^": _power_derivatives,
    "+": lambda u, v, y: (1.0, 1.0, 0.0, 0.0),
    "-": lambda u, v, y: (1.0, -1.0, 0.0, 0.0),
    "*": lambda u, v, y: (v, u, 1.0, 0.0),
    "/": lambda u, v, y: (1.0 / v, -y / v, -1.0 / v / v, 2.0 * y / v / v),
}

_BINARY = frozenset("+-*/")
_COORDINATES = frozenset("xf")


def _unary_tangent(t: list, first: float, second: float) -> list:
    """Chain rule through a unary primitive on a jet ``[d1, d2, d12]``, each
    slot formed once.  ``d1*d2`` is formed on its own, so swapping the
    directions gives a bit-identical ``d12``."""
    d1, d2, d12 = t
    return [first * d1, first * d2, second * (d1 * d2) + first * d12]


def _binary_tangent(tu: list, tv: list, partials: tuple) -> list:
    """Chain rule through a binary primitive on jets ``[d1, d2, d12]`` with
    the ``partials`` of its table entry, each slot formed once.  The cross
    terms are summed as a group so that swapping the directions gives a
    bit-identical ``d12`` (floating addition is commutative but not
    associative); terms with a zero coefficient are left out."""
    du, dv, duv, dvv = partials
    u1, u2, u12 = tu
    v1, v2, v12 = tv
    d12 = _plus(du * u12, duv, u1 * v2 + u2 * v1)
    d12 += dv * v12
    return [du * u1 + dv * v1, du * u2 + dv * v2, _plus(d12, dvv, v1 * v2)]


def _plus(acc, coefficient, term):
    """``acc + coefficient * term``, or ``acc`` where the coefficient is 0,
    sample by sample for a stacked coefficient."""
    if isinstance(coefficient, np.ndarray):
        return np.where(coefficient != 0.0, acc + coefficient * term, acc)
    return acc + coefficient * term if coefficient else acc


#: The primitives that run as array arithmetic on stacked registers, value
#: and table entry; every other runs through the float code above, one
#: sample at a time (:func:`_per_sample`).
_ARRAY_PRIMITIVES = frozenset(("+", "-", "*", "neg"))


def _per_sample(rule, *args):
    """``rule`` at every sample of its array arguments, on Python floats (an
    argument that is no array is the same at every sample), stacked by
    :func:`stack_samples`."""
    if not any(isinstance(a, np.ndarray) for a in args):
        return rule(*args)
    columns = [a.tolist() if isinstance(a, np.ndarray) else itertools.repeat(a) for a in args]
    return stack_samples(each_sample(lambda row: rule(*row), zip(*columns)))


class _PerSampleRules(dict):
    """The derivative table of a sweep at a :class:`StackedPoint`: each
    entry of ``_DERIVATIVES`` as the sweep first reads it, run per sample
    unless its primitive is an array primitive."""

    def __missing__(self, op: str):
        rule = _DERIVATIVES[op]
        if op not in _ARRAY_PRIMITIVES:
            rule = functools.partial(_per_sample, rule)
        self[op] = rule
        return rule


def _rules(point) -> dict:
    """The derivative table of a sweep at ``point``."""
    return _PerSampleRules() if isinstance(point, StackedPoint) else _DERIVATIVES


# ---------------------------------------------------------------------------
# the interpreter


def _primal(program: Program, point: EvalPoint, smooth: bool = False) -> list:
    """Values of all registers of ``program`` at ``point``."""
    x, f = point.x, point.f
    if program.max_x > len(x) or program.max_f > len(f):
        raise ValueError(
            f"expression references x{program.max_x} and f{program.max_f} but "
            f"the point has dims ({len(x)}, {len(f)})"
        )
    apply = functools.partial(_per_sample, _apply) if isinstance(point, StackedPoint) else _apply
    vals = []
    push = vals.append
    # a hash-consed tape holds each coordinate once, so they are tested late
    for op, a, b in program.code:
        if op == "*":
            push(vals[a] * vals[b])
        elif op == "+":
            push(vals[a] + vals[b])
        elif op == "c":
            push(a)
        elif op == "-":
            push(vals[a] - vals[b])
        elif op == "neg":
            push(-vals[a])
        elif op == "x":
            push(x[a])
        elif op == "f":
            push(f[a])
        elif op == "/":
            push(apply(op, vals[a], vals[b], smooth))
        else:
            push(apply(op, vals[a], b, smooth))
    return vals


def _sweep(e: Expression, point: EvalPoint, seeds: dict, width: int, jet: bool):
    """Value of ``e`` at ``point`` and its tangent, zeros where it depends
    on no seeded direction.

    ``seeds`` maps a coordinate instruction ``(kind, index)`` to its tangent;
    no tangent is modified once made.  All tangents have ``width`` slots;
    for a jet that is 3 and the last slot is the mixed second derivative.
    """
    program = compile_expr(e)
    vals = _primal(program, point, smooth=True)
    rules = _rules(point)
    zero = [0.0] * width
    tangents = []
    push = tangents.append
    # a hash-consed tape holds each coordinate once, so they are tested last
    for (op, a, b), y in zip(program.code, vals):
        if op in _BINARY:
            ta, tb = tangents[a], tangents[b]
            if ta is None and tb is None:
                push(None)
                continue
            partials = rules[op](vals[a], vals[b], y)
            ta = zero if ta is None else ta
            tb = zero if tb is None else tb
            if jet:
                push(_binary_tangent(ta, tb, partials))
            else:
                du, dv = partials[0], partials[1]
                push([du * p + dv * q for p, q in zip(ta, tb)])
        elif op == "c":
            push(None)
        elif op not in _COORDINATES:
            ta = tangents[a]
            if ta is None:
                push(None)
                continue
            first, second = rules[op](vals[a], y, b)
            push(_unary_tangent(ta, first, second) if jet else [first * p for p in ta])
        else:
            push(seeds.get((op, a)))
    return vals[-1], zero if tangents[-1] is None else tangents[-1]


def _stackable(entry):
    """``entry`` also at a :class:`StackedPoint`: numpy's floating-point
    warnings are silenced there, as float arithmetic raises none (an overflow
    is ``inf`` on either side), and every number of the result becomes an
    array of one entry per point."""

    @functools.wraps(entry)
    def stackable(e, point, *args):
        if not isinstance(point, StackedPoint):
            return entry(e, point, *args)
        with np.errstate(all="ignore"):
            return _columns(entry(e, point, *args), point.size)

    return stackable


def _columns(result, size: int):
    if isinstance(result, tuple):
        return tuple(_columns(part, size) for part in result)
    return result if isinstance(result, np.ndarray) else np.full(size, result)


@_stackable
def evaluate(e: Expression, point: EvalPoint) -> float:
    """Evaluate ``e`` at ``point`` in IEEE double precision."""
    return _primal(compile_expr(e), point)[-1]


def _adjoint(e: Expression, point: EvalPoint, seeded) -> tuple[float, dict]:
    """Value of ``e`` at ``point`` and its first partials along the
    coordinate instructions in ``seeded`` that it references, by one
    reverse sweep over the tape.

    Only a register that depends on a seeded coordinate has an adjoint
    (``None`` marks the others) and reads its table entry, so the domain
    errors of the derivatives are raised where :func:`_sweep` seeded with
    the same coordinates raises them.
    Each adjoint sums its users' contributions in reverse tape order, and
    every user of a register depends on what it depends on, so the partial
    of one coordinate does not depend on which others are seeded.
    """
    program = compile_expr(e)
    vals = _primal(program, point, smooth=True)
    rules = _rules(point)
    code = program.code
    adj = []
    push = adj.append
    for op, a, b in code:
        if op in _BINARY:
            push(None if adj[a] is None and adj[b] is None else 0.0)
        elif op == "c":
            push(None)
        elif op not in _COORDINATES:
            push(adj[a])
        else:
            push(0.0 if (op, a) in seeded else None)
    partials = {}
    if adj[-1] is not None:
        adj[-1] = 1.0
    for i in range(len(code) - 1, -1, -1):
        g = adj[i]
        if g is None:
            continue
        op, a, b = code[i]
        if op in _BINARY:
            du, dv, _, _ = rules[op](vals[a], vals[b], vals[i])
            if adj[a] is not None:
                adj[a] += g * du
            if adj[b] is not None:
                adj[b] += g * dv
        elif op not in _COORDINATES:
            adj[a] += g * rules[op](vals[a], vals[i], b)[0]
        else:
            partials[op, a] = g
    return vals[-1], partials


@_stackable
def directional(e: Expression, point: EvalPoint, tangents) -> tuple[float, tuple[float, ...]]:
    """Value of ``e`` at ``point`` and its derivatives along seeded tangents,
    in one first-order sweep.

    ``tangents[i]`` is the tangent of coordinate ``i`` of the point, base
    before fiber, and all have one width ``w``.  Slot ``j`` of the result is
    ``sum_i de/dz_i * tangents[i][j]``: the derivative of ``e`` along the
    curve whose coordinates move with slot ``j`` of the seeds, which composes
    the tape of ``e`` with whatever the seeds were computed from (the chain
    rule through a tape).
    """
    coords = _coordinates(len(point.x), len(point.f))
    if len(tangents) != len(coords):
        raise ValueError(f"{len(tangents)} tangents for a point with {len(coords)} coordinates")
    width = len(tangents[0]) if tangents else 0
    if any(len(t) != width for t in tangents):
        raise ValueError(
            f"tangents have widths {[len(t) for t in tangents]} at a point with dims "
            f"({len(point.x)}, {len(point.f)}); they need one width"
        )
    value, t = _sweep(e, point, dict(zip(coords, tangents)), width, jet=False)
    return value, tuple(t)


@_stackable
def gradient(e: Expression, point: EvalPoint) -> tuple[float, tuple[float, ...]]:
    """Value and first partials of ``e`` at ``point``, in one adjoint sweep.

    The gradient covers every coordinate of the point, base before fiber:
    index ``i`` is the partial with respect to ``x{i+1}`` for ``i < m`` and
    with respect to ``f{i-m+1}`` otherwise.
    """
    coords = _coordinates(len(point.x), len(point.f))
    value, partials = _adjoint(e, point, coords)
    return value, tuple(partials.get(c, 0.0) for c in coords)


@functools.lru_cache(maxsize=16)
def _coordinates(m: int, n: int) -> tuple:
    """The coordinate instructions of an ``(m, n)`` point, base before
    fiber, as the sweeps key their seeds."""
    return tuple(("x", i) for i in range(m)) + tuple(("f", i) for i in range(n))


def _coordinate(point: EvalPoint, direction: Coordinate, name: str) -> tuple[str, int]:
    """The coordinate instruction of ``direction``, or a ``ValueError`` that
    names the argument ``name`` when the point has no such coordinate."""
    kind, index = direction
    dim = len(point.x) if kind == "x" else len(point.f) if kind == "f" else 0
    if not 1 <= index <= dim:
        raise ValueError(
            f"{name} {direction!r} is not a coordinate of a point with dims "
            f"({len(point.x)}, {len(point.f)})"
        )
    return kind, index - 1


@_stackable
def partial(e: Expression, point: EvalPoint, direction: Coordinate) -> float:
    """First partial derivative of ``e`` at ``point`` along ``direction``:
    bit for bit the entry of :func:`gradient` for that coordinate."""
    coord = _coordinate(point, direction, "direction")
    return _adjoint(e, point, (coord,))[1].get(coord, 0.0)


@_stackable
def mixed_second(
    e: Expression, point: EvalPoint, first: Coordinate, second: Coordinate
) -> float:
    """Mixed second derivative of ``e`` at ``point``.

    ``first`` and ``second`` may name the same coordinate, in which case this
    is the plain second derivative along it.  Bit-symmetric in its
    directions: every second-order rule is symmetric under swapping them.
    """
    seeds = {}
    for slot, (name, direction) in enumerate((("first", first), ("second", second))):
        seeds.setdefault(_coordinate(point, direction, name), [0.0, 0.0, 0.0])[slot] = 1.0
    return _sweep(e, point, seeds, 3, jet=True)[1][2]


def central_difference(plus, minus, plus2, minus2, step: float):
    """Fourth-order central difference at 0 of a function of one variable,
    from its values (floats or arrays) at ``step``, ``-step``, ``2 step`` and
    ``-2 step``."""
    return (8.0 * (plus - minus) - (plus2 - minus2)) / (12.0 * step)
