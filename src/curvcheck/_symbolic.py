"""Internal structural manipulation of expression trees.

Not part of the public API.  The only symbolic differentiation in the package
lives here: the prolongation of a connection to the vertical bundle needs the
fiber partials of Christoffel expressions as expressions, and the linearity
detector needs coefficient expressions.  Everything else differentiates
numerically, through the adjoint and tangent sweeps of ``numcore``.

The smart constructors fold trivial algebra (zeros, ones, constant
arithmetic) so that derivative trees stay small.  Folding changes only tree
shape, never the function represented.  Every symbolic linear combination
in the package -- projections of vector fields, expanded linear symbols,
the prolonged connection, the exponential-chart symbols -- is built by
:func:`dot`, which adds ``weights[i] * exprs[i]`` from left to right onto a
start value with the same folding, so the fold order is written once.
"""

from __future__ import annotations

from .exprdsl import Binary, Const, Expression, Power, Unary, compile_expr

_ZERO = Const(0.0)
_ONE = Const(1.0)


# Each fold tests an operand for a constant once, then asks of its value
# whether it is 0 or 1, in the order of the rules.


def add(a: Expression, b: Expression) -> Expression:
    a_const, b_const = isinstance(a, Const), isinstance(b, Const)
    if a_const and a.value == 0.0:
        return b
    if b_const and b.value == 0.0:
        return a
    if a_const and b_const:
        return Const(a.value + b.value)
    return Binary("+", a, b)


def sub(a: Expression, b: Expression) -> Expression:
    a_const, b_const = isinstance(a, Const), isinstance(b, Const)
    if b_const and b.value == 0.0:
        return a
    if a_const and a.value == 0.0:
        return neg(b)
    if a_const and b_const:
        return Const(a.value - b.value)
    return Binary("-", a, b)


def mul(a: Expression, b: Expression) -> Expression:
    a_const, b_const = isinstance(a, Const), isinstance(b, Const)
    if (a_const and a.value == 0.0) or (b_const and b.value == 0.0):
        return _ZERO
    if a_const and a.value == 1.0:
        return b
    if b_const and b.value == 1.0:
        return a
    if a_const and b_const:
        return Const(a.value * b.value)
    return Binary("*", a, b)


def div(a: Expression, b: Expression) -> Expression:
    b_const = isinstance(b, Const)
    if isinstance(a, Const) and a.value == 0.0 and not (b_const and b.value == 0.0):
        return _ZERO
    if b_const and b.value == 1.0:
        return a
    return Binary("/", a, b)


def neg(a: Expression) -> Expression:
    if isinstance(a, Unary) and a.op == "neg":
        return a.operand
    if isinstance(a, Const) and a.value == 0.0:
        return _ZERO
    return Unary("neg", a)


def power(a: Expression, k: int) -> Expression:
    if k == 0:
        return _ONE
    if k == 1:
        return a
    return Power(a, k)


#: The folding constructor of each binary operator.
_FOLD = {"+": add, "-": sub, "*": mul, "/": div}


def const(value: float) -> Expression:
    """A constant in parser normal form (negative values wrapped in ``neg``)."""
    if value < 0:
        return Unary("neg", Const(-value))
    return Const(float(value))


def dot(weights, exprs, start: Expression = _ZERO) -> Expression:
    """``start + weights[0]*exprs[0] + weights[1]*exprs[1] + ...``, added
    from left to right with folding and cut at the shorter of the two
    sequences.  A number among the weights enters as :func:`const`."""
    acc = start
    for w, e in zip(weights, exprs):
        acc = add(acc, mul(w if isinstance(w, Expression) else const(w), e))
    return acc


def _tape(e: Expression) -> tuple[tuple, tuple]:
    """The instructions of the program of ``e`` and the subtree of each of
    their registers."""
    program = compile_expr(e)
    return program.code, program.nodes + (e,)


def derivative(e: Expression, kind: str, index: int) -> Expression:
    """Structural partial derivative of ``e`` with respect to the variable
    ``(kind, index)``, folded.

    One pass over the program of ``e``, from the leaves up, so depth is not
    bounded by the recursion limit."""
    target = (kind, index - 1, 0)
    code, nodes = _tape(e)
    ds: list[Expression] = []
    for (op, a, b), node in zip(code, nodes):
        if op == "c":
            d = _ZERO
        elif op == "x" or op == "f":
            d = _ONE if (op, a, b) == target else _ZERO
        elif op in _FOLD:
            da, db = ds[a], ds[b]
            if da is _ZERO and db is _ZERO:  # every binary rule folds to _ZERO
                d = _ZERO
            elif op == "*":
                # the product rule without the term of a _ZERO derivative,
                # which mul folds to _ZERO and add then drops
                if da is _ZERO:
                    d = mul(nodes[a], db)  # add(_ZERO, t) is t
                elif db is _ZERO:
                    d = add(mul(da, nodes[b]), _ZERO)  # a zero t becomes _ZERO
                else:
                    d = add(mul(da, nodes[b]), mul(nodes[a], db))
            elif op == "/":
                # quotient rule; keeps the denominator as an explicit square
                d = div(sub(mul(da, nodes[b]), mul(nodes[a], db)), Power(nodes[b], 2))
            else:
                d = _FOLD[op](da, db)
        elif ds[a] is _ZERO and op != "log":
            # every rule of one operand folds to _ZERO but log's, which
            # keeps 0/u where u is the constant 0
            d = _ZERO
        elif op == "^":
            d = mul(mul(const(b), power(nodes[a], b - 1)), ds[a])
        elif op == "neg":
            d = neg(ds[a])
        elif op == "sin":
            d = mul(Unary("cos", nodes[a]), ds[a])
        elif op == "cos":
            d = neg(mul(Unary("sin", nodes[a]), ds[a]))
        elif op == "exp":
            d = mul(node, ds[a])
        elif op == "log":
            d = div(ds[a], nodes[a])
        else:  # sqrt, the last primitive compile_expr admits
            d = div(ds[a], mul(Const(2.0), node))
        ds.append(d)
    return ds[-1]


def substitute_fiber(e: Expression, replacements: tuple[Expression, ...]) -> Expression:
    """Replace every fiber variable ``f<i>`` by ``replacements[i-1]``, folding
    as it goes.  Base variables are left alone.  One pass over the program
    of ``e``, like :func:`derivative`."""
    code, nodes = _tape(e)
    out: list[Expression] = []
    for (op, a, b), node in zip(code, nodes):
        if op == "f":
            out.append(replacements[a])
        elif op == "c" or op == "x":
            out.append(node)
        elif op in _FOLD:
            out.append(_FOLD[op](out[a], out[b]))
        elif op == "^":
            out.append(power(out[a], b))
        elif op == "neg":
            out.append(neg(out[a]))
        else:
            out.append(Unary(op, out[a]))
    return out[-1]


def fiber_to_zero(e: Expression, fiber_dim: int) -> Expression:
    """Substitute 0 for every fiber variable and fold."""
    return substitute_fiber(e, (_ZERO,) * fiber_dim)
