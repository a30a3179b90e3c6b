"""Tests for evaluation and the adjoint and tangent sweeps of differentiation."""

import math
import operator
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _reference

from curvcheck import _symbolic, numcore
from curvcheck.errors import DomainError
from curvcheck.exprdsl import MAX_EXPONENT_DIGITS, Binary, Const, Power, Unary, Var, parse
from curvcheck.numcore import (
    EvalPoint,
    StackedPoint,
    directional,
    each_sample,
    evaluate,
    gradient,
    mixed_second,
    partial,
    stack_samples,
    sweep_grid,
)
from curvcheck.rng import SplitMix64


def _e(source, dims=(3, 3)):
    return parse(source, dims)


def test_evaluate_examples():
    assert evaluate(_e("x1*x2"), EvalPoint((3.0, 5.0))) == 15.0
    assert evaluate(_e("sin(x1)"), EvalPoint((0.0,))) == 0.0
    with pytest.raises(DomainError):
        evaluate(_e("log(x1)"), EvalPoint((0.0,)))


def test_evaluate_domain_errors():
    with pytest.raises(DomainError):
        evaluate(_e("x1/f1"), EvalPoint((1.0,), (0.0,)))
    with pytest.raises(DomainError):
        evaluate(_e("sqrt(x1)"), EvalPoint((-1.0,)))
    with pytest.raises(DomainError):
        evaluate(_e("x1^-1"), EvalPoint((0.0,)))
    with pytest.raises(DomainError):
        evaluate(_e("exp(x1)"), EvalPoint((1000.0,)))


def test_evaluate_rejects_out_of_range_variable():
    # Trees can be built programmatically past any parse-time bound.
    with pytest.raises(ValueError):
        evaluate(Var("x", 2), EvalPoint((1.0,)))


def test_entry_points_reject_arguments_that_do_not_fit_the_point():
    # a missing direction would read as a zero partial, and a short tangent
    # would narrow the result to its width, both unseen
    e, p = _e("x1*x1", (1, 1)), EvalPoint((2.0,))
    dims = r"a point with dims \(1, 0\)"
    for d in [("x", 5), ("z", 1), ("x", 0)]:
        shown = rf"\('{d[0]}', {d[1]}\) is not a coordinate of {dims}"
        with pytest.raises(ValueError, match="direction " + shown):
            partial(e, p, d)
        with pytest.raises(ValueError, match="first " + shown):
            mixed_second(e, p, d, ("x", 1))
        with pytest.raises(ValueError, match="second " + shown):
            mixed_second(e, p, ("x", 1), d)
    assert (partial(e, p, ("x", 1)), mixed_second(e, p, ("x", 1), ("x", 1))) == (4.0, 2.0)
    e, p = _e("x1*x2", (2, 1)), EvalPoint((2.0, 3.0), (1.0,))
    with pytest.raises(ValueError, match=r"widths \[2, 1, 2\] at a point with dims \(2, 1\)"):
        directional(e, p, [(1.0, 0.0), (1.0,), (0.0, 0.0)])
    assert directional(e, p, [(1.0, 0.0), (1.0, 1.0), (0.0, 0.0)]) == (6.0, (5.0, 2.0))


def test_partial_examples():
    assert partial(_e("x1^2"), EvalPoint((3.0,)), ("x", 1)) == 6.0
    assert partial(_e("f1*x1"), EvalPoint((2.0,), (5.0,)), ("f", 1)) == 2.0
    # d/dx exp(2x) = 2 exp(2x); at x = 0 that is 2.
    expected = 2.0 * math.exp(2.0 * 0.0)
    assert partial(_e("exp(2*x1)"), EvalPoint((0.0,)), ("x", 1)) == expected


def test_gradient_orders_base_before_fiber():
    value, grad = gradient(_e("x1*f2"), EvalPoint((2.0, 3.0), (5.0, 7.0)))
    assert value == 14.0
    assert grad == (7.0, 0.0, 0.0, 2.0)


def test_mixed_second_examples():
    p = EvalPoint((3.0, 5.0))
    assert mixed_second(_e("x1*x2"), p, ("x", 1), ("x", 2)) == 1.0
    assert mixed_second(_e("x1*x2"), p, ("x", 1), ("x", 1)) == 0.0
    # d2/dx1 dx2 of sin(x1)*x2 = cos(x1); at x1 = 0 that is 1.
    expected = math.cos(0.0)
    point = EvalPoint((0.0, 2.0))
    assert mixed_second(_e("sin(x1)*x2"), point, ("x", 1), ("x", 2)) == expected


def test_repeated_direction_gives_plain_second_derivative():
    # d2/dx1^2 of x1^3 = 6 x1; at x1 = 2 that is 12.
    assert mixed_second(_e("x1^3"), EvalPoint((2.0,)), ("x", 1), ("x", 1)) == 12.0


def test_sqrt_evaluates_at_zero_but_has_no_derivative_there():
    assert evaluate(_e("sqrt(x1)"), EvalPoint((0.0,))) == 0.0
    with pytest.raises(DomainError):
        partial(_e("sqrt(x1)"), EvalPoint((0.0,)), ("x", 1))
    with pytest.raises(DomainError):
        mixed_second(_e("sqrt(x1)"), EvalPoint((0.0,)), ("x", 1), ("x", 1))


def test_a_second_derivative_that_underflows_spares_first_order_sweeps():
    # the second derivatives of log and sqrt divide by u*u and u*y, which
    # underflow to 0 here; the value and the first derivative are finite
    x = 0.3
    point = EvalPoint((x,))
    value, (slope,) = gradient(_e("log((x1 + 2)*1e-200)"), point)
    assert math.isfinite(value)
    assert math.isclose(slope, 1.0 / (x + 2.0), rel_tol=1e-12)
    value, (slope,) = gradient(_e("sqrt((x1 + 2)*1e-300)*1e150"), point)
    assert math.isfinite(value)
    assert math.isclose(slope, 0.5 / math.sqrt(x + 2.0), rel_tol=1e-12)


@pytest.mark.parametrize(
    "source, message",
    [
        ("(x1 + 3)^1000", r"\^ overflow at 3.5 to the power 1000"),
        ("sin(x1*1e300*1e300)", "sin of infinite value inf"),
        ("cos(x1*1e300*1e300)", "cos of infinite value inf"),
    ],
    ids=["power", "sin", "cos"],
)
def test_overflowing_powers_and_sines_of_infinity_are_domain_errors(source, message):
    point = EvalPoint((0.5,))
    with pytest.raises(DomainError, match=message):
        evaluate(_e(source), point)
    with pytest.raises(DomainError, match=message):
        gradient(_e(source), point)


def test_a_power_whose_derivative_overflows_is_a_domain_error():
    point = EvalPoint((0.5,))
    assert evaluate(_e("(x1*1e-200)^-1"), point) == pytest.approx(2e200)
    with pytest.raises(DomainError, match=r"\^ overflow at 5e-201 to the power -2"):
        gradient(_e("(x1*1e-200)^-1"), point)


def test_the_longest_exponent_underflows_to_zero_or_overflows_cleanly():
    # 15 digits, the most the parser reads: k and k (k - 1) stay finite
    # floats, so |u| < 1 gives zeros, not an overflow of converting k
    e = _e(f"x1^{'9' * MAX_EXPONENT_DIGITS}")
    for x in (0.9, -0.9):
        point = EvalPoint((x,))
        assert evaluate(e, point) == 0.0
        assert gradient(e, point) == (0.0, (0.0,))
        assert mixed_second(e, point, ("x", 1), ("x", 1)) == 0.0
    with pytest.raises(DomainError, match=r"^\^ overflow at 1.5 to the power 9{15}$"):
        evaluate(e, EvalPoint((1.5,)))


def test_a_power_whose_second_derivative_overflows_spares_first_order_sweeps():
    # 2 u^-3 overflows here, although u^-1 and -u^-2 are finite
    x = 0.77
    point = EvalPoint((x,), (0.1,))
    value, (slope, fiber_slope) = gradient(_e("(x1*1e-150)^-1"), point)
    assert value == pytest.approx(1.0 / (x * 1e-150))
    assert slope == pytest.approx(-1.0 / (x * x * 1e-150))
    assert fiber_slope == 0.0
    assert partial(_e("(x1*1e-150)^-1"), point, ("x", 1)) == slope
    # a second-order sweep sees the overflow as inf with the sign of
    # k (k - 1) u^(k-2): that of u for odd k, positive for even k
    negative = EvalPoint((-x,), (0.1,))
    assert mixed_second(_e("(x1*1e-150)^-1"), point, ("x", 1), ("x", 1)) == math.inf
    assert mixed_second(_e("(x1*1e-150)^-1"), negative, ("x", 1), ("x", 1)) == -math.inf
    assert mixed_second(_e("(x1*1e-90)^-2"), negative, ("x", 1), ("x", 1)) == math.inf


def test_shared_subtrees_evaluate_once_and_correctly():
    shared = Binary("*", Var("x", 1), Var("x", 1))
    tree = Binary("+", shared, shared)
    assert evaluate(tree, EvalPoint((3.0,))) == 18.0
    assert partial(tree, EvalPoint((3.0,)), ("x", 1)) == 12.0


# --- randomized comparison against finite differences ----------------------


def _random_expr(rng: SplitMix64, depth: int):
    """Random polynomial/trig expression over dims (3, 3), domain-safe."""
    if depth == 0 or rng.int_below(4) == 0:
        kind = rng.int_below(3)
        if kind == 0:
            return Const(round(rng.symmetric(2.0), 3) + 2.5)
        if kind == 1:
            return Var("x", 1 + rng.int_below(3))
        return Var("f", 1 + rng.int_below(3))
    op = rng.int_below(6)
    if op == 0:
        return Binary("+", _random_expr(rng, depth - 1), _random_expr(rng, depth - 1))
    if op == 1:
        return Binary("-", _random_expr(rng, depth - 1), _random_expr(rng, depth - 1))
    if op == 2:
        return Binary("*", _random_expr(rng, depth - 1), _random_expr(rng, depth - 1))
    if op == 3:
        return Unary("sin", _random_expr(rng, depth - 1))
    if op == 4:
        return Unary("cos", _random_expr(rng, depth - 1))
    return Power(_random_expr(rng, depth - 1), rng.int_below(4))


def _random_point(rng: SplitMix64) -> EvalPoint:
    return EvalPoint(
        tuple(rng.symmetric(1.0) for _ in range(3)),
        tuple(rng.symmetric(1.0) for _ in range(3)),
    )


def _shift(point: EvalPoint, direction, h: float) -> EvalPoint:
    kind, index = direction
    if kind == "x":
        x = list(point.x)
        x[index - 1] += h
        return EvalPoint(tuple(x), point.f)
    f = list(point.f)
    f[index - 1] += h
    return EvalPoint(point.x, tuple(f))


def _fd_partial(e, point, direction, h=1e-5) -> float:
    """Richardson-extrapolated central difference, fourth order."""

    def at(step):
        return evaluate(e, _shift(point, direction, step))

    return (8.0 * (at(h) - at(-h)) - (at(2.0 * h) - at(-2.0 * h))) / (12.0 * h)


def test_partial_matches_finite_differences_on_random_expressions():
    rng = SplitMix64(2024)
    directions = [("x", 1), ("x", 2), ("x", 3), ("f", 1), ("f", 2), ("f", 3)]
    checked = 0
    while checked < 100:
        e = _random_expr(rng, 3)
        point = _random_point(rng)
        direction = directions[rng.int_below(6)]
        exact = partial(e, point, direction)
        if abs(exact) > 1e3:
            continue
        assert abs(exact - _fd_partial(e, point, direction)) <= 1e-7
        checked += 1


def _random_smooth_expr(rng: SplitMix64, depth: int):
    """Random expression over every primitive, inside every domain: the
    divisors and the arguments of log and sqrt are at least 0.5."""
    if depth == 0 or rng.int_below(5) == 0:
        return _random_expr(rng, 0)
    op = rng.int_below(8)
    if op < 3:
        left = _random_smooth_expr(rng, depth - 1)
        return Binary("+-*"[op], left, _random_smooth_expr(rng, depth - 1))
    if op == 3:
        return Binary("/", _random_smooth_expr(rng, depth - 1), _positive(rng, depth - 1))
    if op == 4:
        return Unary(("sin", "cos", "neg")[rng.int_below(3)], _random_smooth_expr(rng, depth - 1))
    if op == 5:
        return Unary(("log", "sqrt")[rng.int_below(2)], _positive(rng, depth - 1))
    if op == 6:
        return Unary("exp", Unary("sin", _random_smooth_expr(rng, depth - 1)))
    return Power(_random_smooth_expr(rng, depth - 1), rng.int_below(4))


def _positive(rng: SplitMix64, depth: int):
    """``c + sin(e)^2`` with ``c`` in {0.5, 1.5, 2.5}."""
    inner = Unary("sin", _random_smooth_expr(rng, depth))
    return Binary("+", Const(0.5 + rng.int_below(3)), Power(inner, 2))


def test_partial_matches_symbolic_derivative_on_random_expressions():
    # _symbolic.derivative states the differentiation rules a second time,
    # structurally; evaluating its result is an independent reference.
    rng = SplitMix64(4049)
    directions = [("x", 1), ("x", 2), ("x", 3), ("f", 1), ("f", 2), ("f", 3)]
    for _ in range(300):
        e = _random_smooth_expr(rng, 4)
        point = _random_point(rng)
        value, grad = gradient(e, point)
        assert value == evaluate(e, point)
        for i, direction in enumerate(directions):
            reference = evaluate(_symbolic.derivative(e, *direction), point)
            assert abs(grad[i] - reference) <= 1e-9 * max(1.0, abs(reference))
            assert partial(e, point, direction) == grad[i]


def test_directional_is_the_chain_rule_through_the_tape():
    # seeding f_b with the gradient of s^b(x) gives the gradient of the
    # composite e(x, s(x)), here against its symbolic substitution
    rng = SplitMix64(4051)
    for _ in range(100):
        e = _random_smooth_expr(rng, 4)
        s = [_symbolic.fiber_to_zero(_random_smooth_expr(rng, 2), 3) for _ in range(3)]
        x = _random_point(rng).x
        values, grads = zip(*(gradient(c, EvalPoint(x)) for c in s))
        units = [tuple(float(i == j) for j in range(3)) for i in range(3)]
        value, tangent = directional(e, EvalPoint(x, values), units + list(grads))
        composite = _symbolic.substitute_fiber(e, tuple(s))
        expected_value, expected = gradient(composite, EvalPoint(x))
        assert value == pytest.approx(expected_value, rel=1e-12, abs=1e-12)
        assert tangent == pytest.approx(expected, rel=1e-9, abs=1e-9)


_UNITS = [tuple(float(i == j) for j in range(6)) for i in range(6)]


def _agree(reverse, forward) -> bool:
    return all(abs(a - b) <= 1e-12 * abs(b) for a, b in zip(reverse, forward))


def test_gradient_is_directional_along_the_unit_tangents():
    # gradient runs the adjoint sweep and directional the tangent sweep
    e = _e("x1*f2 + sin(x2)*f1")
    point = EvalPoint((0.3, -1.1), (0.7, 2.0))
    units = [tuple(float(i == j) for j in range(4)) for i in range(4)]
    value, grad = gradient(e, point)
    forward_value, forward = directional(e, point, units)
    assert value == forward_value and _agree(grad, forward)
    assert directional(e, point, [(2.0,), (0.0,), (0.0,), (0.0,)])[1] == (2.0 * point.f[1],)
    with pytest.raises(ValueError):
        directional(e, point, units[:3])


def test_the_adjoint_and_tangent_sweeps_agree_on_random_expressions():
    # that partial is the gradient entry bit for bit is asserted by
    # test_partial_matches_symbolic_derivative_on_random_expressions
    rng = SplitMix64(4057)
    for _ in range(300):
        e = _random_smooth_expr(rng, 4)
        point = _random_point(rng)
        value, grad = gradient(e, point)
        forward_value, forward = directional(e, point, _UNITS)
        assert value == forward_value
        assert _agree(grad, forward), (e, point)


@pytest.mark.parametrize(
    "source, x",
    [
        ("(x1*1e-200)^-1 + f1", 0.5),  # the first derivative of ^ overflows
        ("sqrt(x1) + f1", 0.0),  # no finite derivative at 0
        ("(x1 + 3)^1000*f1", 0.5),  # the value of ^ overflows
        ("f1*(x1*1e-200)^-1", 0.5),
        ("exp(800*x1)*f1", 1.0),  # exp overflows
    ],
)
def test_the_adjoint_and_tangent_sweeps_fail_on_the_same_inputs(source, x):
    e = _e(source)
    point = EvalPoint((x, 0.0, 0.0), (1.5, 0.0, 0.0))
    with pytest.raises(DomainError):
        gradient(e, point)
    with pytest.raises(DomainError):
        directional(e, point, _UNITS)
    with pytest.raises(DomainError):
        partial(e, point, ("x", 1))


def test_the_adjoint_sweep_reads_no_rule_of_an_unseeded_register():
    # (1e-300)^-1 is finite but its derivative is not: a constant register
    # has no adjoint, and a partial seeds only its own coordinate
    point = EvalPoint((0.5,), (2.0,))
    value, grad = gradient(_e("(1e-300)^-1 * x1"), point)
    assert value == pytest.approx(0.5e300) and grad == (pytest.approx(1e300), 0.0)
    e = _e("(x1*1e-200)^-1 + 3*f1")
    assert partial(e, point, ("f", 1)) == 3.0
    with pytest.raises(DomainError):
        partial(e, point, ("x", 1))


# --- stacked points ------------------------------------------------------------


def _every_primitive(rng: SplitMix64, depth: int):
    """A random smooth expression plus a negative power of a positive base,
    so that every primitive can occur."""
    power = Power(_positive(rng, depth - 1), -1 - rng.int_below(3))
    return Binary("+", _random_smooth_expr(rng, depth), power)


_DIRECTIONS = [("x", 1), ("x", 2), ("x", 3), ("f", 1), ("f", 2), ("f", 3)]
_coordinate = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
_stacks = st.lists(st.tuples(*[_coordinate] * 6), min_size=1, max_size=12)


def _bits(values):
    """The IEEE bits of each number, so that 0.0 and -0.0 differ."""
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), _stacks, st.sampled_from(_DIRECTIONS),
       st.sampled_from(_DIRECTIONS))
@example(0, [(0.1, -0.2, 0.3, 0.4, -0.5, 0.6)] * 3, ("x", 1), ("f", 2))
def test_a_stacked_point_gives_every_point_its_own_numbers(seed, coordinates, first, second):
    # + - * neg run as array arithmetic, every other primitive through the
    # float code one sample at a time: bit for bit the numbers of each point
    rng = SplitMix64(seed)
    e = _every_primitive(rng, 4)
    if seed == 0:
        e = _e("x1/(2 + f1) + (1.5 + sin(x2)^2)^-2 + sin(x1)*cos(f2) + exp(sin(x3))"
               " + log(2 + x1^2) + sqrt(1 + f1^2) - x2^3*f3")
    points = [EvalPoint(c[:3], c[3:]) for c in coordinates]
    stack = StackedPoint.of(points)
    tangents = [tuple(rng.symmetric(1.0) for _ in range(2)) for _ in range(6)]
    stacked = {
        "evaluate": evaluate(e, stack),
        "gradient": gradient(e, stack),
        "partial": partial(e, stack, first),
        "directional": directional(e, stack, tangents),
        "mixed_second": mixed_second(e, stack, first, second),
    }
    single = {
        "evaluate": [evaluate(e, p) for p in points],
        "gradient": [gradient(e, p) for p in points],
        "partial": [partial(e, p, first) for p in points],
        "directional": [directional(e, p, tangents) for p in points],
        "mixed_second": [mixed_second(e, p, first, second) for p in points],
    }
    for name in ("evaluate", "partial", "mixed_second"):
        assert _bits(stacked[name]) == _bits(single[name]), name
    for name in ("gradient", "directional"):
        value, slots = stacked[name]
        assert _bits(value) == _bits([v for v, _ in single[name]]), name
        assert _bits(np.array(slots).T) == _bits([t for _, t in single[name]]), name


def test_a_stacked_domain_error_names_its_sample():
    stack = StackedPoint.of([EvalPoint((x,)) for x in (3.0, 2.5, 1.0, 0.0)])
    e = _e("log(x1 - 2)", (1, 1))
    for entry in (evaluate, gradient):
        with pytest.raises(DomainError, match="log of non-positive value -1.0 at sample 2"):
            entry(e, stack)


def test_a_stacked_sweep_lets_no_numpy_warning_escape():
    # float arithmetic overflows to inf and makes NaN silently, and so must
    # the arrays of a stack
    stack = StackedPoint.of([EvalPoint((x,), (1.0,)) for x in (0.5, -2.0, 0.0)])
    e = _e("x1*1e300*1e300 - x1*1e300*1e300 + f1*x1*1e300*1e300", (1, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, grad = gradient(e, stack)
        second = mixed_second(e, stack, ("x", 1), ("f", 1))
    points = [EvalPoint((x,), (1.0,)) for x in (0.5, -2.0, 0.0)]
    assert _bits(value) == _bits([evaluate(e, p) for p in points])
    assert _bits(np.array(grad).T) == _bits([gradient(e, p)[1] for p in points])
    assert _bits(second) == _bits([mixed_second(e, p, ("x", 1), ("f", 1)) for p in points])
    # x1/v with v = inf: every table entry of / is 0 and the jet's cross
    # terms are inf, so a term with a zero coefficient must be left out, at
    # each sample as at one point, or 0 * inf makes a NaN
    e = _e("x1/(f1*1e300*1e300)", (1, 1))
    second = mixed_second(e, stack, ("f", 1), ("f", 1))
    assert _bits(second) == _bits([mixed_second(e, p, ("f", 1), ("f", 1)) for p in points])
    assert not np.isnan(second).any()


def test_stacked_points_hash_by_identity_and_reject_ragged_stacks():
    # the bench's tracer keys every numcore call on its point argument
    p = StackedPoint((np.array([1.0, 2.0]),), (np.array([3.0, 4.0]),))
    q = StackedPoint((np.array([1.0, 2.0]),), (np.array([3.0, 4.0]),))
    assert p != q and {p: 1, q: 2}[p] == 1
    assert (p.size, p.at(1)) == (2, EvalPoint((2.0,), (4.0,)))
    with pytest.raises(ValueError):
        p.x[0][0] = 5.0
    with pytest.raises(ValueError, match="one length"):
        StackedPoint((np.array([1.0, 2.0]),), (np.array([3.0]),))
    with pytest.raises(ValueError, match=r"dims \[\(1, 0\), \(1, 1\)\]"):
        StackedPoint.of([EvalPoint((1.0,)), EvalPoint((2.0,), (3.0,))])
    with pytest.raises(ValueError, match=r"dims \[\]"):
        StackedPoint.of([])


def _random_grid(rng: SplitMix64, shape: tuple):
    if not shape:
        return _random_expr(rng, 3)
    return tuple(_random_grid(rng, shape[1:]) for _ in range(shape[0]))


@pytest.mark.parametrize("shape", [(4,), (2, 3), (2, 3, 2)])
@pytest.mark.parametrize("stacked", [False, True], ids=["float", "stacked"])
def test_sweep_grid_gives_every_entry_its_own_sweep_in_row_major_order(shape, stacked):
    rng = SplitMix64(len(shape) + 10 * stacked)
    grid = _random_grid(rng, shape)
    points = [_random_point(rng) for _ in range(7)]
    point = StackedPoint.of(points) if stacked else points[0]
    samples = (len(points),) if stacked else ()
    tangents = [tuple(rng.symmetric(1.0) for _ in range(2)) for _ in range(6)]
    indices = list(np.ndindex(shape))

    def entry(index):
        e = grid
        for i in index:
            e = e[i]
        return e

    calls = []
    values = sweep_grid(grid, lambda e: calls.append(e) or evaluate(e, point))
    assert calls == [entry(index) for index in indices]
    assert values.shape == shape + samples
    for index in indices:
        assert _bits(values[index]) == _bits(evaluate(entry(index), point))
    sweeps = {
        "gradient": (lambda e: gradient(e, point), 6),
        "directional": (lambda e: directional(e, point, tangents), 2),
    }
    for name, (sweep, width) in sweeps.items():
        vals, slots = sweep_grid(grid, sweep)
        assert (vals.shape, slots.shape) == (shape + samples, shape + (width,) + samples), name
        for index in indices:
            value, derivatives = sweep(entry(index))
            assert _bits(vals[index]) == _bits(value), name
            assert _bits(slots[index]) == _bits(np.array(derivatives)), name
    # nested lists are grids too
    listed = [list(row) for row in grid] if len(shape) == 2 else list(grid)
    assert _bits(sweep_grid(listed, lambda e: evaluate(e, point))) == _bits(values)


def test_a_domain_error_of_sweep_grid_names_the_sample_of_the_first_failing_entry():
    # row-major: [0][1] fails at sample 2 before [1][0], which would fail at
    # sample 3, is swept
    stack = StackedPoint.of([EvalPoint((x,)) for x in (3.0, 2.5, 1.0, 0.0)])
    grid = ((_e("x1", (1, 1)), _e("log(x1 - 2)", (1, 1))),
            (_e("log(x1 - 0.5)", (1, 1)), _e("x1", (1, 1))))
    for entry in (evaluate, gradient):
        with pytest.raises(DomainError, match="log of non-positive value -1.0 at sample 2"):
            sweep_grid(grid, lambda e: entry(e, stack))


def test_stack_samples_gives_every_number_a_trailing_sample_axis():
    arrays = [np.arange(6.0).reshape(2, 3) + 10 * s for s in range(4)]
    stacked = stack_samples(iter(arrays))
    assert stacked.shape == (2, 3, 4)
    for s, array in enumerate(arrays):
        assert np.array_equal(stacked[..., s], array)
    scalars = stack_samples([0.5, -1.0, 2.0])
    assert scalars.dtype == float and scalars.tolist() == [0.5, -1.0, 2.0]
    # a tuple result is a tuple of stacks, each part with its own shape
    values, slots = stack_samples([(1.0, (2.0, 3.0)), (4.0, (5.0, 6.0))])
    assert values.tolist() == [1.0, 4.0]
    assert slots.tolist() == [[2.0, 5.0], [3.0, 6.0]]
    # exact entries stay exact, in an object array
    exact = stack_samples([[Fraction(1, 3), Fraction(2, 3)], [Fraction(1, 7), Fraction(0)]])
    assert exact.dtype == object
    assert exact.tolist() == [[Fraction(1, 3), Fraction(1, 7)], [Fraction(2, 3), Fraction(0)]]


def test_each_sample_yields_lazily_and_names_the_sample_of_a_domain_error():
    calls = []

    def route(x):
        calls.append(x)
        return evaluate(_e("log(x1)", (1, 1)), EvalPoint((x,)))

    results = each_sample(route, [1.0, 2.0, -3.0, 4.0])
    assert calls == []
    assert next(results) == 0.0
    assert calls == [1.0]
    with pytest.raises(DomainError, match=r"^log of non-positive value -3\.0 at sample 2$"):
        list(results)
    assert calls == [1.0, 2.0, -3.0]


def test_mixed_second_matches_symbolic_second_derivative():
    rng = SplitMix64(811)
    directions = [("x", 1), ("x", 2), ("f", 1), ("f", 3)]
    for _ in range(150):
        e = _random_smooth_expr(rng, 3)
        point = _random_point(rng)
        a = directions[rng.int_below(4)]
        b = directions[rng.int_below(4)]
        reference = evaluate(
            _symbolic.derivative(_symbolic.derivative(e, *a), *b), point
        )
        exact = mixed_second(e, point, a, b)
        assert abs(exact - reference) <= 1e-8 * max(1.0, abs(reference))


# --- _symbolic against its recursive reference -------------------------------


def _reference_derivative(e, kind, index):
    """The recursive structural derivative that ``_symbolic.derivative``
    replaced; it recurses once per node."""
    s = _symbolic
    if isinstance(e, Const):
        return Const(0.0)
    if isinstance(e, Var):
        return Const(1.0) if (e.kind, e.index) == (kind, index) else Const(0.0)
    if isinstance(e, Binary):
        da = _reference_derivative(e.left, kind, index)
        db = _reference_derivative(e.right, kind, index)
        if e.op == "+":
            return s.add(da, db)
        if e.op == "-":
            return s.sub(da, db)
        if e.op == "*":
            return s.add(s.mul(da, e.right), s.mul(e.left, db))
        return s.div(s.sub(s.mul(da, e.right), s.mul(e.left, db)), Power(e.right, 2))
    if isinstance(e, Power):
        inner = _reference_derivative(e.base, kind, index)
        return s.mul(s.mul(s.const(e.exponent), s.power(e.base, e.exponent - 1)), inner)
    inner = _reference_derivative(e.operand, kind, index)
    return {
        "neg": lambda: s.neg(inner),
        "sin": lambda: s.mul(Unary("cos", e.operand), inner),
        "cos": lambda: s.neg(s.mul(Unary("sin", e.operand), inner)),
        "exp": lambda: s.mul(e, inner),
        "log": lambda: s.div(inner, e.operand),
        "sqrt": lambda: s.div(inner, s.mul(Const(2.0), e)),
    }[e.op]()


def _reference_substitute_fiber(e, replacements):
    """The recursive fiber substitution that ``_symbolic.substitute_fiber``
    replaced."""
    s = _symbolic
    if isinstance(e, Const):
        return e
    if isinstance(e, Var):
        return replacements[e.index - 1] if e.kind == "f" else e
    if isinstance(e, Binary):
        a = _reference_substitute_fiber(e.left, replacements)
        b = _reference_substitute_fiber(e.right, replacements)
        return {"+": s.add, "-": s.sub, "*": s.mul, "/": s.div}[e.op](a, b)
    if isinstance(e, Unary):
        inner = _reference_substitute_fiber(e.operand, replacements)
        return s.neg(inner) if e.op == "neg" else Unary(e.op, inner)
    return s.power(_reference_substitute_fiber(e.base, replacements), e.exponent)


def test_symbolic_trees_equal_the_recursive_reference():
    rng = SplitMix64(6007)
    directions = [("x", 1), ("x", 2), ("x", 3), ("f", 1), ("f", 2), ("f", 3)]
    zero = Const(0.0)
    for _ in range(300):
        e = _random_smooth_expr(rng, 4)
        # a subtree shared by reference, and the constants folding meets
        shared = Binary("*", e, Binary("-", e, Const(0.0)))
        for tree in (e, shared, Binary("+", Const(1.0), Unary("neg", Const(2.0)))):
            for direction in directions:
                assert _symbolic.derivative(tree, *direction) == _reference_derivative(
                    tree, *direction
                )
            replacements = tuple(
                _random_smooth_expr(rng, 2) if rng.int_below(3) else zero for _ in range(3)
            )
            assert _symbolic.substitute_fiber(tree, replacements) == (
                _reference_substitute_fiber(tree, replacements)
            )


# --- deep and long trees ----------------------------------------------------


def test_three_thousand_term_sum_at_the_default_recursion_limit():
    source = " + ".join(f"{k % 5 + 1}*x1^{k % 3}*f1 - x2" for k in range(1500))
    e = parse(source, (2, 1))
    point = EvalPoint((0.5, -0.25), (2.0,))
    # closed forms: sum over k of c_k x1^p_k f1, minus 1500 x2
    cs = [(k % 5 + 1, k % 3) for k in range(1500)]
    value = sum(c * 0.5**p * 2.0 for c, p in cs) + 1500 * 0.25
    d_x1 = sum(c * p * 0.5 ** (p - 1) * 2.0 for c, p in cs if p)
    d_f1 = sum(c * 0.5**p for c, p in cs)
    d_x1_f1 = sum(c * p * 0.5 ** (p - 1) for c, p in cs if p)
    assert evaluate(e, point) == pytest.approx(value, rel=1e-12)
    got_value, grad = gradient(e, point)
    assert got_value == pytest.approx(value, rel=1e-12)
    assert grad == pytest.approx((d_x1, -1500.0, d_f1), rel=1e-12)
    assert grad == tuple(partial(e, point, d) for d in (("x", 1), ("x", 2), ("f", 1)))
    assert _agree(grad, directional(e, point, [u[:3] for u in _UNITS[:3]])[1])
    assert mixed_second(e, point, ("x", 1), ("f", 1)) == pytest.approx(d_x1_f1, rel=1e-12)


def test_deep_nesting_of_built_trees():
    e = Var("x", 1)
    for _ in range(5000):
        e = Unary("sin", e)
    point = EvalPoint((0.3,))
    expected = 0.3
    for _ in range(5000):
        expected = math.sin(expected)
    assert evaluate(e, point) == expected
    slope = partial(e, point, ("x", 1))
    assert 0.0 < slope < 1.0
    assert gradient(e, point) == (expected, (slope,))
    assert _agree((slope,), directional(e, point, [(1.0,)])[1])


def test_mixed_second_symmetric_bit_exact():
    rng = SplitMix64(77)
    directions = [("x", 1), ("x", 2), ("x", 3), ("f", 1), ("f", 2), ("f", 3)]
    for _ in range(200):
        e = _random_expr(rng, 3)
        point = _random_point(rng)
        a = directions[rng.int_below(6)]
        b = directions[rng.int_below(6)]
        assert mixed_second(e, point, a, b) == mixed_second(e, point, b, a)


# --- the interpreter's chain rules on two-direction jets --------------------
# A jet is ``(value, d1, d2, d12)``.  These run the tangent sweep's own rules,
# ``_binary_tangent`` and ``_unary_tangent`` with the partials of
# ``_DERIVATIVES``, on one jet per operand.

_VALUES = {"+": operator.add, "*": operator.mul, "/": operator.truediv}


def _binary(op, a, b):
    y = _VALUES[op](a[0], b[0])
    partials = numcore._DERIVATIVES[op](a[0], b[0], y)
    return (y, *numcore._binary_tangent(list(a[1:]), list(b[1:]), partials))


def _unary(op, a):
    y = numcore._apply(op, a[0], 0, True)
    first, second = numcore._DERIVATIVES[op](a[0], y, 0)
    return (y, *numcore._unary_tangent(list(a[1:]), first, second))


#: The partials and slots of the bitwise comparisons with the reference rules.
_SPECIAL = (0.0, -0.0, 1.0, -1.0, 1e-308, math.inf, -math.inf, math.nan)
_specials = st.lists(st.sampled_from(_SPECIAL), min_size=10, max_size=10)


def _bits(slots) -> bytes:
    """The bytes of ``slots``, signed zeros apart, with every NaN as one: which
    NaN a sum or product of two keeps is not pinned, even at one line of
    Python run twice (a specialized float operation may swap its operands)."""
    slots = np.array(slots, dtype=np.float64)
    slots[np.isnan(slots)] = math.nan
    return slots.tobytes()


@settings(max_examples=400)
@given(_specials)
def test_the_jet_rules_are_the_reference_rules_bit_for_bit_on_floats(drawn):
    partials, tu, tv = tuple(drawn[:4]), drawn[4:7], drawn[7:]
    want = _reference.binary_tangent(tu, tv, partials, True)
    assert _bits(numcore._binary_tangent(tu, tv, partials)) == _bits(want)
    first, second = drawn[:2]
    want = _reference.unary_tangent(tu, first, second, True)
    assert _bits(numcore._unary_tangent(tu, first, second)) == _bits(want)


@settings(max_examples=200)
@given(st.lists(_specials, min_size=1, max_size=9), st.booleans())
def test_the_jet_rules_are_the_reference_rules_bit_for_bit_on_stacks(rows, stacked_partials):
    # a column per partial and slot, one entry per sample; the partials of
    # + - and * are floats at a stacked point, those of / arrays
    columns = [np.array(column) for column in zip(*rows)]
    partials = tuple(columns[:4]) if stacked_partials else tuple(rows[0][:4])
    tu, tv = columns[4:7], columns[7:]
    first, second = partials[:2]
    with np.errstate(all="ignore"):
        pairs = [
            (numcore._binary_tangent(tu, tv, partials),
             _reference.binary_tangent(tu, tv, partials, True)),
            (numcore._unary_tangent(tu, first, second),
             _reference.unary_tangent(tu, first, second, True)),
        ]
    for got, want in pairs:
        assert [_bits(slot) for slot in np.broadcast_arrays(*got)] == [
            _bits(slot) for slot in np.broadcast_arrays(*want)
        ]


_component = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
_jets = st.tuples(_component, _component, _component, _component)


@given(_jets, _jets)
def test_sum_rule_exact(a, b):
    assert _binary("+", a, b) == tuple(u + v for u, v in zip(a, b))


@given(_jets, _jets)
def test_product_rule_exact(a, b):
    value, d1, d2, d12 = _binary("*", a, b)
    assert value == a[0] * b[0]
    assert d1 == a[1] * b[0] + a[0] * b[1]
    assert d2 == a[2] * b[0] + a[0] * b[2]
    assert d12 == a[3] * b[0] + (a[1] * b[2] + a[2] * b[1]) + a[0] * b[3]


@settings(max_examples=200)
@given(_jets)
def test_chain_rule_exact_for_sin(a):
    value, d1, d2, d12 = _unary("sin", a)
    assert value == math.sin(a[0])
    assert d1 == math.cos(a[0]) * a[1]
    assert d2 == math.cos(a[0]) * a[2]
    assert d12 == -math.sin(a[0]) * (a[1] * a[2]) + math.cos(a[0]) * a[3]


_modest = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
_divisor_value = st.one_of(
    st.floats(min_value=1.0, max_value=100.0),
    st.floats(min_value=-100.0, max_value=-1.0),
)


@given(
    st.tuples(_modest, _modest, _modest, _modest),
    st.tuples(_divisor_value, _modest, _modest, _modest),
)
def test_quotient_undoes_product(a, b):
    # (a*b)/b recovers a to roundoff when b is well conditioned.
    back = _binary("/", _binary("*", a, b), b)
    scale = max(1.0, *(abs(c) for c in a))
    for got, want in zip(back, a):
        assert abs(got - want) <= 1e-8 * scale
