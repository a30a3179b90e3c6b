"""Expression language for coordinate functions on a trivialized bundle patch.

Grammar (EBNF)::

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := "-" factor | power
    power  := atom ("^" integer)?
    atom   := number | "pi" | ident | func "(" expr ")" | "(" expr ")"
    func   := "sin" | "cos" | "exp" | "log" | "sqrt"
    ident  := ("x" | "f" | "v") positive-integer

``x<i>`` are base coordinates and ``f<i>`` fiber coordinates; ``v<i>`` is an
accepted alias for ``f<i>`` (handy when the fiber is a vector space).  ``^``
binds tighter than unary minus, which binds tighter than ``*`` and ``/``,
which bind tighter than ``+`` and ``-``.  Binary operators of equal precedence
associate to the left.  Exponents are literal integers (negative allowed).
There is no implicit multiplication: ``2x1`` is a syntax error.  Parentheses,
function calls and unary minus nest at most :data:`MAX_NESTING` deep.

Expression trees are immutable and compare structurally, so they are safe to
share across threads.  ``unparse`` produces source that reparses to a
structurally identical tree; the parser never produces negative ``Const``
nodes (a leading minus becomes a ``neg`` node), and programmatic trees should
follow the same normal form if they need the round-trip property.
:func:`compile_expr` turns a tree, once, into the post-order tape that
:mod:`curvcheck.numcore` runs (:class:`Program`).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import NamedTuple

from .errors import ExprSyntaxError, IndexOutOfRange, UnknownIdentifier

__all__ = [
    "Expression",
    "Const",
    "Var",
    "Unary",
    "Binary",
    "Power",
    "FUNCTIONS",
    "MAX_NESTING",
    "Program",
    "parse",
    "unparse",
    "compile_expr",
    "max_indices",
    "check_indices",
]

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt")

#: Deepest nesting of parentheses, function calls and unary minus the parser
#: accepts; each level costs a few frames of the default recursion limit.
MAX_NESTING = 100


class Expression:
    """Base class for expression tree nodes.  ``_program`` holds the
    :class:`Program` once :func:`compile_expr` ran on the node; not being a
    dataclass field, it takes no part in equality, hashing or pickling."""

    __slots__ = ("_program",)

    def __str__(self) -> str:
        return unparse(self)


@dataclass(frozen=True, slots=True)
class Const(Expression):
    """Numeric literal (also produced by the ``pi`` keyword)."""

    value: float


@dataclass(frozen=True, slots=True)
class Var(Expression):
    """Coordinate variable; ``kind`` is ``"x"`` (base) or ``"f"`` (fiber),
    ``index`` is 1-based."""

    kind: str
    index: int


@dataclass(frozen=True, slots=True)
class Unary(Expression):
    """Unary operation: ``"neg"`` or one of :data:`FUNCTIONS`."""

    op: str
    operand: Expression


@dataclass(frozen=True, slots=True)
class Binary(Expression):
    """Binary operation, ``op`` in ``+ - * /``."""

    op: str
    left: Expression
    right: Expression


@dataclass(frozen=True, slots=True)
class Power(Expression):
    """Integer power of a subexpression."""

    base: Expression
    exponent: int


_TOKEN = re.compile(
    r"(?P<num>[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<name>[A-Za-z]+[0-9]*)"
    r"|(?P<sym>[-+*/^()])"
)

_IDENT = re.compile(r"([xfv])([0-9]+)\Z")


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    length = len(source)
    while pos < length:
        ch = source[pos]
        if ch.isspace():
            pos += 1
            continue
        match = _TOKEN.match(source, pos)
        if match is None:
            raise ExprSyntaxError(f"unexpected character {ch!r}", pos)
        kind = match.lastgroup
        tokens.append((kind, match.group(), pos))
        pos = match.end()
    tokens.append(("end", "", length))
    return tokens


class _Parser:
    """Recursive-descent parser over the token stream."""

    def __init__(self, tokens: list[tuple[str, str, int]], base_dim: int, fiber_dim: int):
        self._tokens = tokens
        self._i = 0
        self._m = base_dim
        self._n = fiber_dim
        self._depth = 0

    def _peek(self) -> tuple[str, str, int]:
        return self._tokens[self._i]

    def _advance(self) -> tuple[str, str, int]:
        token = self._tokens[self._i]
        self._i += 1
        return token

    def _nested(self, pos: int, parse) -> Expression:
        """``parse()`` one nesting level deeper; ``pos`` is where it opens."""
        self._depth += 1
        if self._depth > MAX_NESTING:
            raise ExprSyntaxError(f"nesting deeper than {MAX_NESTING} levels", pos)
        node = parse()
        self._depth -= 1
        return node

    def _match_sym(self, *symbols: str) -> str | None:
        kind, text, _ = self._peek()
        if kind == "sym" and text in symbols:
            self._i += 1
            return text
        return None

    def parse(self) -> Expression:
        node = self._expr()
        kind, text, pos = self._peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected {text!r} after a complete expression", pos)
        return node

    def _expr(self) -> Expression:
        node = self._term()
        while True:
            op = self._match_sym("+", "-")
            if op is None:
                return node
            node = Binary(op, node, self._term())

    def _term(self) -> Expression:
        node = self._factor()
        while True:
            op = self._match_sym("*", "/")
            if op is None:
                return node
            node = Binary(op, node, self._factor())

    def _factor(self) -> Expression:
        _, _, pos = self._peek()
        if self._match_sym("-"):
            return Unary("neg", self._nested(pos, self._factor))
        return self._power()

    def _power(self) -> Expression:
        base = self._atom()
        if self._match_sym("^"):
            return Power(base, self._exponent())
        return base

    def _exponent(self) -> int:
        sign = -1 if self._match_sym("-") else 1
        kind, text, pos = self._advance()
        if kind != "num" or not text.isdigit():
            raise ExprSyntaxError("expected a literal integer exponent", pos)
        return sign * int(text)

    def _atom(self) -> Expression:
        kind, text, pos = self._advance()
        if kind == "num":
            value = float(text)
            if math.isinf(value):
                raise ExprSyntaxError(f"number {text!r} overflows to infinity", pos)
            return Const(value)
        if kind == "sym" and text == "(":
            return self._nested(pos, self._group)
        if kind == "name":
            return self._name(text, pos)
        raise ExprSyntaxError("expected a number, identifier, or '('", pos)

    def _group(self) -> Expression:
        """An expression closed by ``)``."""
        node = self._expr()
        if not self._match_sym(")"):
            _, _, closepos = self._peek()
            raise ExprSyntaxError("expected ')'", closepos)
        return node

    def _name(self, text: str, pos: int) -> Expression:
        if text == "pi":
            return Const(math.pi)
        if text in FUNCTIONS:
            if not self._match_sym("("):
                _, _, argpos = self._peek()
                raise ExprSyntaxError(f"expected '(' after function {text!r}", argpos)
            return Unary(text, self._nested(pos, self._group))
        ident = _IDENT.match(text)
        if ident is None:
            raise UnknownIdentifier(f"unknown identifier {text!r} at offset {pos}")
        letter, digits = ident.groups()
        index = int(digits)
        if index == 0:
            raise UnknownIdentifier(f"variable indices are 1-based: {text!r} at offset {pos}")
        if letter == "x":
            if index > self._m:
                raise IndexOutOfRange(
                    f"base index {index} exceeds base dimension {self._m}: {text!r}"
                )
            return Var("x", index)
        if index > self._n:
            raise IndexOutOfRange(
                f"fiber index {index} exceeds fiber dimension {self._n}: {text!r}"
            )
        return Var("f", index)


def parse(source: str, dims: tuple[int, int]) -> Expression:
    """Parse ``source`` into an expression tree.

    ``dims = (m, n)`` declares the base and fiber dimensions; variable indices
    are validated against them (raising :class:`IndexOutOfRange`).  Raises
    :class:`ExprSyntaxError` with the failing offset on malformed input or
    nesting deeper than :data:`MAX_NESTING`, and :class:`UnknownIdentifier`
    for names outside the grammar.
    """
    m, n = dims
    if m < 1 or n < 1:
        raise ValueError(f"dims must be positive, got {dims}")
    return _Parser(_tokenize(source), m, n).parse()


# Printing precedence levels; higher binds tighter.
_PREC_ADD = 1
_PREC_MUL = 2
_PREC_NEG = 3
_PREC_POW = 4
_PREC_ATOM = 5


def _prec(e: Expression) -> int:
    if isinstance(e, Binary):
        return _PREC_ADD if e.op in "+-" else _PREC_MUL
    if isinstance(e, Unary):
        return _PREC_NEG if e.op == "neg" else _PREC_ATOM
    if isinstance(e, Power):
        return _PREC_POW
    if isinstance(e, Const) and e.value < 0:
        # prints with a leading minus, so it binds like a negation
        return _PREC_NEG
    return _PREC_ATOM


def _wrap(e: Expression, minimum: int) -> str:
    text = unparse(e)
    if _prec(e) < minimum:
        return f"({text})"
    return text


def _format_number(value: float) -> str:
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def unparse(e: Expression) -> str:
    """Render a tree back to source with minimal parentheses.

    Reparsing the result yields a structurally identical tree for any tree the
    parser can produce.
    """
    if isinstance(e, Const):
        return _format_number(e.value)
    if isinstance(e, Var):
        return f"{e.kind}{e.index}"
    if isinstance(e, Unary):
        if e.op == "neg":
            return "-" + _wrap(e.operand, _PREC_NEG)
        return f"{e.op}({unparse(e.operand)})"
    if isinstance(e, Binary):
        # walk the left-associative chain of one precedence level in a loop,
        # so a long sum or product costs no recursion per term
        if e.op in "+-":
            ops, prec, gap = "+-", _PREC_ADD, " "
        else:
            ops, prec, gap = "*/", _PREC_MUL, ""
        tail = []
        while isinstance(e, Binary) and e.op in ops:
            tail.append(f"{gap}{e.op}{gap}{_wrap(e.right, prec + 1)}")
            e = e.left
        return _wrap(e, prec) + "".join(reversed(tail))
    if isinstance(e, Power):
        return f"{_wrap(e.base, _PREC_ATOM)}^{e.exponent}"
    raise TypeError(f"not an expression node: {e!r}")


class Program(NamedTuple):
    """Post-order tape of one expression, built by :func:`compile_expr`.

    ``code[i] = (op, a, b)`` computes register ``i`` from earlier registers:

    * ``("c", value, sign)`` -- a constant (``sign`` only keeps ``0.0`` and
      ``-0.0`` apart when repeated subexpressions are merged);
    * ``("x", i, 0)`` or ``("f", i, 0)`` -- a coordinate, ``i`` 0-based;
    * ``(op, a, 0)`` -- ``neg`` or one of :data:`FUNCTIONS` of register ``a``;
    * ``("^", a, k)`` -- register ``a`` to the integer power ``k``;
    * ``(op, a, b)`` -- ``+ - * /`` of registers ``a`` and ``b``.

    The last register holds the value of the whole expression.  ``max_x`` and
    ``max_f`` are the largest base and fiber indices referenced (0 if none).
    ``nodes[i]`` is the first subtree that compiled to register ``i``, for
    every register but the last: that one is the tree itself, which holds
    the program, so keeping it would make a reference cycle.
    """

    code: tuple
    max_x: int
    max_f: int
    nodes: tuple


def compile_expr(e: Expression) -> Program:
    """The :class:`Program` of ``e``, compiled on first use and kept on
    ``e``, so it lives exactly as long as the tree.

    The walk is iterative, so depth is not bounded by the recursion limit.
    Subtrees shared by reference are visited once, and an instruction equal
    in operator and operand registers to an earlier one is not emitted again,
    so repeated subexpressions share a register.  No node is hashed.
    """
    try:
        return e._program
    except AttributeError:
        if not isinstance(e, Expression):
            raise TypeError(f"not an expression node: {e!r}") from None
    code = []
    nodes = []  # the first node of each register
    registers = {}  # instruction -> its register
    done = {}  # id(node) -> its register, for nodes of this tree
    stack = [e]
    while stack:
        node = stack.pop()
        if node is None:  # the operands of the node below are done
            node = stack.pop()
            if isinstance(node, Binary):
                instr = (node.op, done[id(node.left)], done[id(node.right)])
            elif isinstance(node, Unary):
                instr = (node.op, done[id(node.operand)], 0)
            else:
                instr = ("^", done[id(node.base)], node.exponent)
        elif id(node) in done:
            continue
        elif isinstance(node, Const):
            instr = ("c", node.value, math.copysign(1.0, node.value))
        elif isinstance(node, Var):
            instr = ("x" if node.kind == "x" else "f", node.index - 1, 0)
        else:
            stack.append(node)
            stack.append(None)
            if isinstance(node, Binary):
                stack.append(node.right)
                stack.append(node.left)
            elif isinstance(node, Unary):
                stack.append(node.operand)
            elif isinstance(node, Power):
                stack.append(node.base)
            else:
                raise TypeError(f"not an expression node: {node!r}")
            continue
        register = registers.get(instr)
        if register is None:
            register = registers[instr] = len(code)
            code.append(instr)
            nodes.append(node)
        done[id(node)] = register
    max_x, max_f = (max((a + 1 for op, a, _ in code if op == kind), default=0) for kind in "xf")
    program = Program(tuple(code), max_x, max_f, tuple(nodes[:-1]))
    object.__setattr__(e, "_program", program)
    return program


def max_indices(e: Expression) -> tuple[int, int]:
    """Largest base and fiber variable indices referenced by ``e`` (0 if none),
    read from the program of ``e``."""
    program = compile_expr(e)
    return program.max_x, program.max_f


def check_indices(e: Expression, m: int, n: int, where: str) -> None:
    """The rule every container applies to its expressions at bind time:
    ``e`` may reference ``x1..xm`` and ``f1..fn``, and a limit of 0 forbids
    that kind of variable.

    Raises :class:`ValueError` for a forbidden kind and
    :class:`IndexOutOfRange` for an index above its limit; ``where`` names
    the expression in the message.
    """
    mx, mf = max_indices(e)
    if mf and not n:
        raise ValueError(f"{where} must depend on base variables only, got f{mf}")
    if mx and not m:
        raise ValueError(f"{where} must depend on fiber variables only, got x{mx}")
    if mx > m:
        raise IndexOutOfRange(f"{where} references x{mx} but the base dimension is {m}")
    if mf > n:
        raise IndexOutOfRange(f"{where} references f{mf} but the fiber dimension is {n}")
