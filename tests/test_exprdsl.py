"""Tests for the expression language: parsing, printing, round-trips."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from curvcheck.prolong import SecondJet, pushforward_second_jet

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


def test_unparse_examples():
    assert unparse(Const(2.0)) == "2"
    assert unparse(Binary("+", Var("x", 1), Var("f", 1))) == "x1 + f1"
    assert unparse(Power(Var("f", 1), 2)) == "f1^2"


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
_JET = SecondJet((0.0,), (0.0,), (0.0,), (0.0,), (0.0,))

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
    assert parse(unparse(tree), DIMS) == tree


@settings(max_examples=100)
@given(_trees)
def test_roundtrip_preserves_evaluation(tree):
    point = EvalPoint((0.7, -0.3, 1.1), (0.4, -1.2, 0.9))
    reparsed = parse(unparse(tree), DIMS)

    def run(e):
        try:
            return ("ok", evaluate(e, point))
        except DomainError:
            return ("domain", None)
        except OverflowError:
            return ("overflow", None)

    assert run(reparsed) == run(tree)
