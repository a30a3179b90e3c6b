"""Tests for the expression language: parsing, printing, round-trips."""

import copy
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _reference
from _reference import parse_grid
from curvcheck import _symbolic
from curvcheck.bundle import (
    BundlePatch,
    ChristoffelField,
    FiberBundleMorphism,
    Section,
    TotalVectorField,
)
from curvcheck.errors import DomainError, ExprSyntaxError, IndexOutOfRange, UnknownIdentifier
from curvcheck.exprdsl import (
    MAX_NESTING,
    Binary,
    Const,
    Power,
    Unary,
    Var,
    compile_expr,
    max_indices,
    parse,
    unparse,
)
from curvcheck.lie import builtin_algebra
from curvcheck.linear import LinearChristoffel
from curvcheck.numcore import EvalPoint, evaluate
from curvcheck.principal import GaugePotential
from curvcheck.prolong import pushforward_second_jet

DIMS = (3, 3)


def test_parse_mixed_example():
    tree = parse("x1*sin(f1) + 2", (2, 1))
    assert tree == Binary(
        "+",
        Binary("*", Var("x", 1), Unary("sin", Var("f", 1))),
        Const(2.0),
    )


def test_parse_incomplete_input_reports_offset():
    with pytest.raises(ExprSyntaxError) as excinfo:
        parse("x1 +", (1, 1))
    assert excinfo.value.offset == 4


def test_parse_fiber_index_out_of_range():
    with pytest.raises(IndexOutOfRange):
        parse("f3", (2, 2))


def test_parse_base_index_out_of_range():
    with pytest.raises(IndexOutOfRange):
        parse("x3", (2, 2))


def test_parse_unknown_identifier():
    with pytest.raises(UnknownIdentifier):
        parse("y1", DIMS)
    with pytest.raises(UnknownIdentifier):
        parse("banana", DIMS)
    with pytest.raises(UnknownIdentifier):
        parse("x0", DIMS)


def test_parse_rejects_implicit_multiplication():
    with pytest.raises(ExprSyntaxError):
        parse("2x1", DIMS)


def test_parse_function_requires_parentheses():
    with pytest.raises(ExprSyntaxError):
        parse("sin x1", DIMS)


def test_parse_unclosed_parenthesis():
    with pytest.raises(ExprSyntaxError):
        parse("(x1 + f1", DIMS)


def test_parse_rejects_fractional_exponent():
    with pytest.raises(ExprSyntaxError):
        parse("x1^2.5", DIMS)


@pytest.mark.parametrize(("source", "offset"), [("1e999", 0), ("x1*1e400", 3)])
def test_parse_rejects_literals_that_overflow(source, offset):
    with pytest.raises(ExprSyntaxError, match="overflows to infinity") as excinfo:
        parse(source, DIMS)
    assert excinfo.value.offset == offset
    assert parse("1e308", DIMS) == Const(1e308)


def test_parse_rejects_nonpositive_dims():
    with pytest.raises(ValueError):
        parse("x1", (0, 1))
    with pytest.raises(ValueError):
        parse("x1", (1, 0))


def test_fiber_alias_normalizes_to_f():
    assert parse("v2", (1, 2)) == Var("f", 2)
    assert parse("v1 + f1", (1, 1)) == Binary("+", Var("f", 1), Var("f", 1))


def test_pi_is_a_constant():
    assert parse("pi", (1, 1)) == Const(math.pi)


def test_precedence_and_associativity():
    x1, x2, x3 = Var("x", 1), Var("x", 2), Var("x", 3)
    assert parse("2*x1^2", DIMS) == Binary("*", Const(2.0), Power(x1, 2))
    # Unary minus binds looser than ^.
    assert parse("-x1^2", DIMS) == Unary("neg", Power(x1, 2))
    assert parse("x1 - x2 - x3", DIMS) == Binary("-", Binary("-", x1, x2), x3)
    assert parse("x1/x2/x3", DIMS) == Binary("/", Binary("/", x1, x2), x3)
    assert parse("x1 + x2*x3", DIMS) == Binary("+", x1, Binary("*", x2, x3))
    assert parse("(x1 + x2)*x3", DIMS) == Binary("*", Binary("+", x1, x2), x3)


def test_parse_negative_exponent():
    assert parse("x1^-2", DIMS) == Power(Var("x", 1), -2)


def test_whitespace_insensitive():
    assert parse("x1+f1", (1, 1)) == parse("  x1 +   f1 ", (1, 1))


def test_parse_determinism():
    for source in ("x1*sin(f1) + 2", "(x1 + x2)^3/f1", "-sqrt(x1) - pi"):
        assert parse(source, DIMS) == parse(source, DIMS)


_DEEP = MAX_NESTING + 1
_ONES = "1" * 5000

# source, dims, error, message, offset (None where the error has none):
# every raise site of the parser
PARSE_ERRORS = [
    ("x1 + #", DIMS, ExprSyntaxError, "unexpected character '#' (at offset 5)", 5),
    # a character outside the grammar is named before any other fault
    ("y1 + x1 ~", DIMS, ExprSyntaxError, "unexpected character '~' (at offset 8)", 8),
    ("x1 + * \u00e9", DIMS, ExprSyntaxError, "unexpected character '\u00e9' (at offset 7)", 7),
    ("x1 x2", DIMS, ExprSyntaxError, "unexpected 'x2' after a complete expression (at offset 3)", 3),
    ("(x1) 2", DIMS, ExprSyntaxError, "unexpected '2' after a complete expression (at offset 5)", 5),
    ("x1 + 2*", (1, 1), ExprSyntaxError, "expected a number, identifier, or '(' (at offset 7)", 7),
    ("x1 + )", DIMS, ExprSyntaxError, "expected a number, identifier, or '(' (at offset 5)", 5),
    ("x1 +  ", DIMS, ExprSyntaxError, "expected a number, identifier, or '(' (at offset 6)", 6),
    ("(x1 + f1", DIMS, ExprSyntaxError, "expected ')' (at offset 8)", 8),
    ("sin(x1  ", DIMS, ExprSyntaxError, "expected ')' (at offset 8)", 8),
    ("sin x1", DIMS, ExprSyntaxError, "expected '(' after function 'sin' (at offset 4)", 4),
    ("exp", DIMS, ExprSyntaxError, "expected '(' after function 'exp' (at offset 3)", 3),
    ("x1^2.5", DIMS, ExprSyntaxError, "expected a literal integer exponent (at offset 3)", 3),
    ("x1^y", DIMS, ExprSyntaxError, "expected a literal integer exponent (at offset 3)", 3),
    ("x1^-", DIMS, ExprSyntaxError, "expected a literal integer exponent (at offset 4)", 4),
    ("x1^" + "1" * 16, DIMS, ExprSyntaxError, "exponent of 16 digits is too long (at offset 3)", 3),
    ("x1^-" + "2" * 16, DIMS, ExprSyntaxError, "exponent of 16 digits is too long (at offset 4)", 4),
    (
        "(" * _DEEP + "x1" + ")" * _DEEP,
        DIMS,
        ExprSyntaxError,
        f"nesting deeper than {MAX_NESTING} levels (at offset {MAX_NESTING})",
        MAX_NESTING,
    ),
    (
        "x1 + " + "sin(" * _DEEP + "x1" + ")" * _DEEP,
        DIMS,
        ExprSyntaxError,
        f"nesting deeper than {MAX_NESTING} levels (at offset {5 + 4 * MAX_NESTING})",
        5 + 4 * MAX_NESTING,
    ),
    ("x1*1e400", DIMS, ExprSyntaxError, "number '1e400' overflows to infinity (at offset 3)", 3),
    ("x1 + banana", DIMS, UnknownIdentifier, "unknown identifier 'banana' at offset 5", None),
    ("x", DIMS, UnknownIdentifier, "unknown identifier 'x' at offset 0", None),
    ("2*x0", DIMS, UnknownIdentifier, "variable indices are 1-based: 'x0' at offset 2", None),
    ("x1 + x3", (2, 2), IndexOutOfRange, "base index 3 exceeds base dimension 2: 'x3'", None),
    ("v3", (2, 2), IndexOutOfRange, "fiber index 3 exceeds fiber dimension 2: 'v3'", None),
    # more digits than int() converts on Python 3.11 and later
    pytest.param(
        "f" + _ONES, (1, 2), IndexOutOfRange,
        f"fiber index {_ONES} exceeds fiber dimension 2: 'f{_ONES}'", None,
        id="f-of-5000-digits",
    ),
]


@pytest.mark.parametrize(("source", "dims", "error", "message", "offset"), PARSE_ERRORS)
def test_every_parse_error_keeps_its_message_and_offset(source, dims, error, message, offset):
    with pytest.raises(error) as excinfo:
        parse(source, dims)
    assert type(excinfo.value) is error
    assert str(excinfo.value) == message
    assert getattr(excinfo.value, "offset", None) == offset


def test_leading_zeros_of_an_index_are_not_counted_against_its_dimension():
    # 5001 digits, more than int() converts on Python 3.11 and later
    assert parse("x" + "0" * 5000 + "1", (1, 1)) == Var("x", 1)


def test_unparse_examples():
    assert unparse(Const(2.0)) == "2"
    assert unparse(Binary("+", Var("x", 1), Var("f", 1))) == "x1 + f1"
    assert unparse(Power(Var("f", 1), 2)) == "f1^2"
    # folding can overflow or cancel infinities; such constants print by repr
    assert str(_symbolic.mul(Const(1e200), Const(1e200))) == "inf"
    assert unparse(Binary("*", Var("x", 1), Const(-math.inf))) == "x1*-inf"
    assert str(_symbolic.sub(Const(math.inf), Const(math.inf))) == "nan"


def test_unparse_parenthesizes_only_when_needed():
    x1, x2, f1 = Var("x", 1), Var("x", 2), Var("f", 1)
    assert unparse(Binary("*", Binary("+", x1, x2), f1)) == "(x1 + x2)*f1"
    assert unparse(Binary("-", x1, Binary("-", x2, f1))) == "x1 - (x2 - f1)"
    assert unparse(Unary("neg", Binary("+", x1, x2))) == "-(x1 + x2)"
    assert unparse(Power(Binary("+", x1, x2), 2)) == "(x1 + x2)^2"
    assert unparse(Power(Const(2.0), -3)) == "2^-3"
    assert unparse(Unary("sin", Binary("+", x1, x2))) == "sin(x1 + x2)"


def test_str_is_unparse():
    tree = parse("x1 + f1^2", (1, 1))
    assert str(tree) == unparse(tree)


def test_nodes_are_hashable_and_compare_structurally():
    assert len({Const(2.0), Const(2.0)}) == 1
    table = {parse("x1 + f1", (1, 1)): "sum"}
    assert table[Binary("+", Var("x", 1), Var("f", 1))] == "sum"


_P11 = BundlePatch(1, 1)
_JET = np.zeros((4, 1))

# container -> (builder taking one expression, an index above the limit,
# a forbidden variable kind or None); the builder puts the expression where
# the container checks it
INDEX_RULE = [
    pytest.param(
        lambda e: ChristoffelField(_P11, ((e,),)), Var("x", 2), None, id="christoffel"
    ),
    pytest.param(lambda e: Section(_P11, (e,)), Var("x", 2), Var("f", 1), id="section"),
    pytest.param(
        lambda e: TotalVectorField(_P11, (Const(1.0),), (e,)),
        Var("f", 2),
        None,
        id="vector-field",
    ),
    pytest.param(
        lambda e: FiberBundleMorphism(_P11, _P11, (e,)), Var("f", 2), None, id="morphism"
    ),
    pytest.param(
        lambda e: GaugePotential(builtin_algebra("so2"), 1, ((e,),)),
        Var("x", 2),
        Var("f", 1),
        id="potential",
    ),
    pytest.param(
        lambda e: LinearChristoffel(_P11, (((e,),),)),
        Var("x", 2),
        Var("f", 1),
        id="linear",
    ),
    pytest.param(
        lambda e: pushforward_second_jet((e,), _JET), Var("f", 2), Var("x", 1), id="transition"
    ),
]


@pytest.mark.parametrize(("build", "too_large", "forbidden"), INDEX_RULE)
def test_every_container_applies_the_index_rule(build, too_large, forbidden):
    def tree(v: Var):
        return Binary("*", Const(2.0), Unary("sin", v))

    with pytest.raises(IndexOutOfRange, match=f"{too_large.kind}{too_large.index}"):
        build(tree(too_large))
    if forbidden is not None:
        allowed = "base" if forbidden.kind == "f" else "fiber"
        with pytest.raises(ValueError, match=f"{allowed} variables only"):
            build(tree(forbidden))


_P22 = BundlePatch(2, 2)
_JET2 = np.zeros((4, 2))

# container -> (builder taking one grid, the grid's name in errors, its
# shape, and its base and fiber index limits, 0 forbidding that kind)
GRIDS = {
    "christoffel": (lambda g: ChristoffelField(_P22, g), "gamma", (2, 2), (2, 2)),
    "section": (lambda g: Section(_P22, g), "comps", (2,), (2, 0)),
    "vector-field-a": (lambda g: TotalVectorField(_P22, g, (Const(0.0),) * 2), "a", (2,), (2, 2)),
    "vector-field-b": (lambda g: TotalVectorField(_P22, (Const(0.0),) * 2, g), "b", (2,), (2, 2)),
    "morphism": (
        lambda g: FiberBundleMorphism(_P22, BundlePatch(2, 3), g),
        "comps",
        (3,),
        (2, 2),
    ),
    "potential": (lambda g: GaugePotential(builtin_algebra("so3"), 2, g), "a", (2, 3), (2, 0)),
    "linear": (lambda g: LinearChristoffel(_P22, g), "gamma3", (2, 2, 2), (2, 0)),
    "transition": (lambda g: pushforward_second_jet(g, _JET2), "h", (2,), (0, 2)),
}


def _nested(shape, leaf) -> list:
    return [_nested(shape[1:], leaf) if len(shape) > 1 else leaf for _ in range(shape[0])]


def _grid_defect(case, name, shape, limits):
    """A defective grid of ``shape`` (all ``1`` elsewhere), and the error
    type and message that ``case`` should raise; None where the grid has
    no such defect (no inner level, or no forbidden kind)."""
    grid = _nested(shape, Const(1.0))
    path = "".join(f"[{k - 1}]" for k in shape)  # of the last entry
    last = grid
    while isinstance(last[-1], list):
        last = last[-1]
    m, n = limits
    if case == "outer-length":
        grid.pop()
        return grid, ValueError, f"{name} needs {shape[0]} entries, got {shape[0] - 1}"
    if case == "expression-for-entries":
        if len(shape) == 1:
            return Const(1.0), ValueError, f"{name} needs {shape[0]} entries, got an expression"
        grid[0] = Const(1.0)
        return grid, ValueError, f"{name}[0] needs {shape[1]} entries, got an expression"
    if case == "inner-length":
        if len(shape) == 1:
            return None
        grid[0].pop()
        return grid, ValueError, f"{name}[0] needs {shape[1]} entries, got {shape[1] - 1}"
    if case == "forbidden-kind":
        if m and n:
            return None
        kind, allowed = ("f", "base") if m else ("x", "fiber")
        last[-1] = Var(kind, 1)
        message = f"{name}{path} must depend on {allowed} variables only, got {kind}1"
        return grid, ValueError, message
    kind, limit, side = ("x", m, "base") if m else ("f", n, "fiber")
    last[-1] = Binary("*", Const(2.0), Var(kind, limit + 1))
    message = f"{name}{path} references {kind}{limit + 1} but the {side} dimension is {limit}"
    return grid, IndexOutOfRange, message


GRID_DEFECTS = [
    pytest.param(build, defect, id=f"{container}-{case}")
    for container, (build, name, shape, limits) in GRIDS.items()
    for case in (
        "outer-length",
        "inner-length",
        "expression-for-entries",
        "forbidden-kind",
        "over-limit",
    )
    if (defect := _grid_defect(case, name, shape, limits)) is not None
]


@pytest.mark.parametrize(("build", "defect"), GRID_DEFECTS)
def test_every_grid_names_its_failing_entry(build, defect):
    grid, error, message = defect
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build(grid)


@pytest.mark.parametrize("container", GRIDS)
def test_every_intact_grid_binds(container):
    # so each defect above is the only fault of its grid
    build, _, shape, _ = GRIDS[container]
    build(_nested(shape, Const(1.0)))


def _parsed(sources, dims):
    if isinstance(sources, str):
        return parse(sources, dims)
    return [_parsed(s, dims) for s in sources]


# container -> (constructor fed the tests' parse_grid of the sources,
# constructor fed trees, the sources, the dims they parse against, the grids
# to compare)
FROM_STRINGS = {
    "christoffel": (
        lambda s: ChristoffelField(_P22, parse_grid(s, (2, 2))),
        lambda t: ChristoffelField(_P22, t),
        [["x1*f2", "0"], ["sin(x2)", "v1^2"]],
        (2, 2),
        lambda c: (c.gamma,),
    ),
    "section": (
        lambda s: Section(_P22, parse_grid(s, (2, 2))),
        lambda t: Section(_P22, t),
        ["x1", "cos(x2) - 1"],
        (2, 2),
        lambda c: (c.comps,),
    ),
    "vector-field": (
        lambda s: TotalVectorField(_P22, *parse_grid(s, (2, 2))),
        lambda t: TotalVectorField(_P22, *t),
        [["1", "f1"], ["x2*f2", "0"]],
        (2, 2),
        lambda c: (c.a, c.b),
    ),
    "morphism": (
        lambda s: FiberBundleMorphism(_P22, BundlePatch(2, 1), parse_grid(s, (2, 2))),
        lambda t: FiberBundleMorphism(_P22, BundlePatch(2, 1), t),
        ["f1 + x1*f2"],
        (2, 2),
        lambda c: (c.comps,),
    ),
    "potential": (
        lambda s: GaugePotential(builtin_algebra("so2"), 2, parse_grid(s, (2, 1))),
        lambda t: GaugePotential(builtin_algebra("so2"), 2, t),
        [["x2"], ["-x1"]],
        (2, 1),
        lambda c: (c.a,),
    ),
    "linear": (
        lambda s: LinearChristoffel(_P22, parse_grid(s, (2, 2))),
        lambda t: LinearChristoffel(_P22, t),
        [[["x1", "0"], ["1", "x2"]], [["0", "x1*x2"], ["2", "0"]]],
        (2, 2),
        lambda c: (c.gamma3,),
    ),
}


@pytest.mark.parametrize("container", FROM_STRINGS)
def test_from_strings_equals_the_constructor_fed_parsed_trees(container):
    from_sources, construct, sources, dims, grids = FROM_STRINGS[container]
    expected = grids(construct(_parsed(sources, dims)))
    assert grids(from_sources(sources)) == expected
    assert all(isinstance(grid, tuple) for grid in expected)


def test_max_indices():
    assert max_indices(parse("x2*sin(f1) + v3", (2, 3))) == (2, 3)
    assert max_indices(Const(1.0)) == (0, 0)
    assert max_indices(parse("x1^2", (1, 1))) == (1, 0)


# --- nesting limit ----------------------------------------------------------


@pytest.mark.parametrize(
    "opening, closing",
    [("(", ")"), ("sin(", ")"), ("-", "")],
    ids=["parentheses", "functions", "unary-minus"],
)
def test_nesting_limit(opening, closing):
    at_limit = opening * MAX_NESTING + "x1" + closing * MAX_NESTING
    assert max_indices(parse(at_limit, DIMS)) == (1, 0)
    past = opening * (MAX_NESTING + 1) + "x1" + closing * (MAX_NESTING + 1)
    with pytest.raises(ExprSyntaxError) as excinfo:
        parse(past, DIMS)
    assert excinfo.value.offset == MAX_NESTING * len(opening)


def test_long_sums_are_not_nesting():
    tree = parse(" + ".join(["x1"] * 3000), DIMS)
    assert max_indices(tree) == (1, 0)


@pytest.mark.parametrize("joiner", [" + ", " - ", "*", "/"])
def test_long_chains_round_trip(joiner):
    # unparse once recursed per term and overflowed the stack here
    source = joiner.join(["x1", "f2", "2"] * 1000)
    tree = parse(source, DIMS)
    assert unparse(tree) == source
    # tapes compare flat; == on trees this deep would itself recurse
    assert compile_expr(parse(unparse(tree), DIMS)).code == compile_expr(tree).code


# --- compilation to a tape --------------------------------------------------


def test_program_is_compiled_once_and_kept_on_the_tree():
    tree = parse("x1*f2 + 1", DIMS)
    program = compile_expr(tree)
    assert compile_expr(tree) is program
    # a structurally equal tree is a different owner with its own program
    assert compile_expr(parse("x1*f2 + 1", DIMS)) is not program
    assert (program.max_x, program.max_f) == (1, 2)


def test_program_does_not_change_equality_or_hashing():
    tree = parse("x1 + f1", (1, 1))
    before = hash(tree)
    compile_expr(tree)
    assert hash(tree) == before
    assert tree == parse("x1 + f1", (1, 1))


def test_repeated_subexpressions_share_a_register():
    program = compile_expr(parse("sin(x1*x2) + sin(x1*x2)", DIMS))
    assert [op for op, _, _ in program.code] == ["x", "x", "*", "sin", "+"]
    _, left, right = program.code[-1]
    assert left == right


def test_parse_shares_equal_subexpressions_and_holds_the_program():
    tree = parse("sin(x1*x2) + sin(x1*x2)", DIMS)
    assert tree.left is tree.right
    assert tree == Binary("+", *[Unary("sin", Binary("*", Var("x", 1), Var("x", 2)))] * 2)
    program = tree._program  # set by the parser, before any compile_expr
    assert compile_expr(tree) is program
    assert program == compile_expr(Binary("+", tree.left, copy.deepcopy(tree.right)))


def test_program_keeps_the_subtree_of_each_register_but_the_root():
    tree = parse("sin(x1*x2) + sin(x1*x2)", DIMS)
    program = compile_expr(tree)
    # the first of two equal subtrees stands for their shared register
    assert program.nodes[3] is tree.left
    # the root holds the program, so keeping it would make a cycle
    assert len(program.nodes) == len(program.code) - 1
    assert all(node is not tree for node in program.nodes)


def test_signed_zeros_stay_apart():
    program = compile_expr(Binary("+", Const(0.0), Const(-0.0)))
    assert len(program.code) == 3


def test_program_is_post_order():
    program = compile_expr(parse("(x1 + f1)^2/x2 - -x3", DIMS))
    for i, (op, a, b) in enumerate(program.code):
        if op in ("+", "-", "*", "/"):
            assert a < i and b < i
        elif op not in ("c", "x", "f"):
            assert a < i
    assert program.code[-1][0] == "-"


def test_compile_rejects_non_expressions():
    with pytest.raises(TypeError):
        compile_expr(3.0)


_X1, _X2 = Var("x", 1), Var("x", 2)

#: Hand-built nodes the grammar cannot produce.  Unrefused, each would
#: give a wrong value: ``+x1`` adds register 0 to ``x1``, ``x0`` reads the
#: last base coordinate, ``y1`` reads ``f1``, and ``sin`` of two operands
#: is ``sin`` of the first.
_OUTSIDE_THE_GRAMMAR = {
    "unary-plus": Unary("+", _X1),
    "index-zero": Var("x", 0),
    "kind-y": Var("y", 1),
    "bool-index": Var("x", True),
    "binary-sin": Binary("sin", _X1, _X2),
    "binary-modulo": Binary("%", _X1, _X2),
    "float-exponent": Power(_X1, 0.5),
    "bool-exponent": Power(_X1, True),
    "under-a-parsed-tree": _symbolic.add(parse("x1*f1", (2, 1)), Var("x", 0)),
    "none-left": Binary("+", None, _X1),
    "none-right": Binary("+", _X1, None),
    "none-operand": Unary("neg", None),
    "none-base": Power(None, 2),
}


@pytest.mark.parametrize("node", _OUTSIDE_THE_GRAMMAR.values(), ids=_OUTSIDE_THE_GRAMMAR)
def test_nodes_outside_the_grammar_are_refused(node):
    with pytest.raises(TypeError, match="not a node of the expression grammar"):
        compile_expr(node)
    with pytest.raises(TypeError, match="not a node of the expression grammar"):
        evaluate(node, EvalPoint((2.0, 5.0), (3.0,)))
    with pytest.raises(TypeError, match="not a node of the expression grammar"):
        ChristoffelField(BundlePatch(2, 1), ((node, Const(0.0)),))


# --- generated round-trips -------------------------------------------------

# The parser never produces negative Const nodes, so the generator follows
# the same normal form (a leading minus becomes a neg node).
_consts = st.floats(
    min_value=0.0, max_value=1e3, allow_nan=False, allow_infinity=False
).map(Const)
_vars = st.one_of(
    st.integers(1, DIMS[0]).map(lambda i: Var("x", i)),
    st.integers(1, DIMS[1]).map(lambda i: Var("f", i)),
)
_trees = st.recursive(
    st.one_of(_consts, _vars),
    lambda children: st.one_of(
        st.tuples(st.sampled_from(["neg", "sin", "cos", "exp", "log", "sqrt"]), children).map(
            lambda t: Unary(*t)
        ),
        st.tuples(st.sampled_from(["+", "-", "*", "/"]), children, children).map(
            lambda t: Binary(*t)
        ),
        st.tuples(children, st.integers(-3, 3)).map(lambda t: Power(*t)),
    ),
    max_leaves=12,
)


@settings(max_examples=200)
@given(_trees)
def test_roundtrip_parse_unparse(tree):
    parsed = parse(unparse(tree), DIMS)
    assert parsed == tree
    # the parser's tape is the program compile_expr makes of the unshared tree
    program, compiled = parsed._program, compile_expr(tree)
    assert (program.code, program.max_x, program.max_f) == (
        compiled.code,
        compiled.max_x,
        compiled.max_f,
    )
    assert [unparse(node) for node in program.nodes] == [unparse(n) for n in compiled.nodes]


@settings(max_examples=200)
@given(_trees, _trees)
def test_compiled_subtrees_splice_into_the_same_program(a, b):
    # a and b hold programs, so compiling the composite splices them
    fresh_a, fresh_b = copy.deepcopy(a), copy.deepcopy(b)
    compile_expr(a)
    compile_expr(b)
    composites = (
        lambda a, b: Binary("+", a, Unary("neg", b)),
        lambda a, b: Power(Binary("*", b, a), 2),
    )
    for build in composites:
        spliced, walked = compile_expr(build(a, b)), compile_expr(build(fresh_a, fresh_b))
        assert (spliced.code, spliced.max_x, spliced.max_f) == (
            walked.code,
            walked.max_x,
            walked.max_f,
        )
        assert [unparse(n) for n in spliced.nodes] == [unparse(n) for n in walked.nodes]


_INF_MINUS_INF = Binary(
    "-",
    Binary("/", Const(1.0), Const(2.225073858507203e-309)),
    Binary("/", Const(1.0), Const(2.225073858507203e-309)),
)


@settings(max_examples=100)
@given(_trees)
@example(_INF_MINUS_INF)
def test_roundtrip_preserves_evaluation(tree):
    point = EvalPoint((0.7, -0.3, 1.1), (0.4, -1.2, 0.9))
    reparsed = parse(unparse(tree), DIMS)

    def run(e):
        try:
            value = evaluate(e, point)
        except DomainError:
            return ("domain", None)
        except OverflowError:
            return ("overflow", None)
        # inf - inf is NaN on both sides, and nan != nan
        return ("nan", None) if math.isnan(value) else ("ok", value)

    assert run(reparsed) == run(tree)


# --- the fast paths give the reference's trees and programs ----------------

# Trees are built from recipes, once for the package and once for the
# reference, so that neither side reads a program the other compiled.  A
# recipe is ("leaf", value) or (op, held, operand...) where ``held`` compiles
# the subtree before its parent is built, so the parent's compile splices it.
_recipes = st.recursive(
    st.sampled_from([0.0, -0.0, 1.0, "x", "f"]).map(lambda leaf: ("leaf", leaf)),
    lambda children: st.one_of(
        st.tuples(
            st.sampled_from(["neg", "sin", "cos", "exp", "log", "sqrt"]), st.booleans(), children
        ),
        st.tuples(st.sampled_from(["+", "-", "*", "/"]), st.booleans(), children, children),
        st.tuples(st.just("^"), st.booleans(), children, st.integers(-3, 3)),
    ),
    max_leaves=12,
)


def _build(recipe, compile_with, shared: dict | None):
    """The tree of ``recipe``; equal subrecipes are one node when ``shared``
    is a dict (keyed by repr, so that 0.0 and -0.0 stay apart)."""
    key = repr(recipe)
    if shared is not None and key in shared:
        return shared[key]
    op = recipe[0]
    if op == "leaf":
        leaf = recipe[1]
        node = Var(leaf, 1) if isinstance(leaf, str) else Const(leaf)
    else:
        operands = [_build(r, compile_with, shared) for r in recipe[2:4] if isinstance(r, tuple)]
        if op == "^":
            node = Power(operands[0], recipe[3])
        elif op in ("+", "-", "*", "/"):
            node = Binary(op, *operands)
        else:
            node = Unary(op, *operands)
        if recipe[1]:
            compile_with(node)
    if shared is not None:
        shared[key] = node
    return node


def _code(compile_with, tree) -> str:
    """The program of a fresh copy of ``tree``, by repr, so that 0.0 and
    -0.0 (and NaNs) compare as written."""
    program = compile_with(copy.deepcopy(tree))
    return repr((program.code, program.max_x, program.max_f))


@settings(max_examples=300)
@given(_recipes, st.booleans())
def test_derivative_and_compile_expr_give_the_reference_trees_and_programs(recipe, share):
    tree = _build(recipe, compile_expr, {} if share else None)
    want = _build(recipe, _reference.compile_expr, {} if share else None)
    assert repr(compile_expr(tree)[:3]) == repr(_reference.compile_expr(want)[:3])
    for variable in (("x", 1), ("f", 1), ("x", 2)):
        got = _symbolic.derivative(tree, *variable)
        expected = _reference.derivative(want, *variable)
        assert got == expected
        assert _code(compile_expr, got) == _code(_reference.compile_expr, expected)
        # once more on the derivatives, which hold the folds' constants
        again = _symbolic.derivative(got, "f", 1)
        assert _code(compile_expr, again) == _code(
            _reference.compile_expr, _reference.derivative(expected, "f", 1)
        )


_FOLD_OPERANDS = [Const(v) for v in (0.0, -0.0, 1.0, -1.0, 2.0, math.inf, math.nan)]
_FOLD_OPERANDS.append(Var("x", 1))


def _same_fold(got, expected, operands) -> bool:
    """Whether two folds returned the same operand, the shared zero, or an
    equal new tree, signed zeros and NaNs by repr."""
    same = [got is o for o in operands] == [expected is o for o in operands]
    zero = (got is _symbolic._ZERO) == (expected is _reference._ZERO)
    return same and zero and repr(got) == repr(expected)


@pytest.mark.parametrize("name", ["add", "sub", "mul", "div"])
def test_each_binary_fold_gives_the_reference_result_on_every_pair(name):
    for a in _FOLD_OPERANDS:
        for b in _FOLD_OPERANDS:
            got = getattr(_symbolic, name)(a, b)
            assert _same_fold(got, getattr(_reference, name)(a, b), (a, b)), (a, b)


def test_neg_gives_the_reference_result_on_every_operand():
    for a in [*_FOLD_OPERANDS, Unary("neg", Var("x", 1))]:
        assert _same_fold(_symbolic.neg(a), _reference.neg(a), (a,)), a
