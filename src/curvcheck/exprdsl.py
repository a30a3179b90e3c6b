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
associate to the left.  Exponents are literal integers (negative allowed) of
at most :data:`MAX_EXPONENT_DIGITS` digits.
There is no implicit multiplication: ``2x1`` is a syntax error.  Parentheses,
function calls and unary minus nest at most :data:`MAX_NESTING` deep.

Expression trees are immutable and compare and hash structurally.
``unparse`` produces source that reparses to a structurally identical tree;
the parser never produces negative ``Const`` nodes (a leading minus becomes a
``neg`` node), and programmatic trees should follow the same normal form if
they need the round-trip property.
:func:`parse` builds the post-order tape that :mod:`curvcheck.numcore` runs
(:class:`Program`) as it builds the tree, so equal subexpressions of one
source share one node; :func:`compile_expr` makes the tape of any other tree,
once, splicing in the tapes its subtrees already hold.  A programmatic tree
is held to the grammar there, so evaluating it or binding it into a
container raises :class:`TypeError` on a node the parser cannot produce: a
``Var`` of a kind other than ``x`` or ``f`` or of an index below 1, an
operator outside the grammar, or an exponent that is not an ``int``.  The
exponent's digits are not bounded there, as a symbolic derivative may lower
a parsed exponent by one.
"""

from __future__ import annotations

import math
import re
from typing import NamedTuple

from . import _records
from .errors import CurvcheckError, ExprSyntaxError, IndexOutOfRange, UnknownIdentifier

__all__ = [
    "Expression",
    "Const",
    "Var",
    "Unary",
    "Binary",
    "Power",
    "FUNCTIONS",
    "MAX_NESTING",
    "MAX_EXPONENT_DIGITS",
    "Program",
    "parse",
    "unparse",
    "compile_expr",
    "max_indices",
    "check_grid",
]

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt")

#: Deepest nesting of parentheses, function calls and unary minus the parser
#: accepts; each level costs a few frames of the default recursion limit.
MAX_NESTING = 100

#: Most digits of an exponent the parser accepts.  Below 2^53, so ``k`` and
#: ``k (k - 1)`` convert to finite floats and ``u^k`` underflows or
#: overflows as a float would.
MAX_EXPONENT_DIGITS = 15


class Expression(_records.Value):
    """Base class for expression tree nodes, compared and hashed over their
    fields.  ``_program`` holds the :class:`Program` of a parsed tree, or of
    a node :func:`compile_expr` ran on, and None until then; not being a
    field, it takes no part in equality, hashing, copying or pickling."""

    __slots__ = ("_program",)

    def __str__(self) -> str:
        return unparse(self)


class Const(Expression):
    """Numeric literal (also produced by the ``pi`` keyword)."""

    __slots__ = ("value",)

    def __init__(self, value: float):
        _set_value(self, value)
        _set_program(self, None)


class Var(Expression):
    """Coordinate variable; ``kind`` is ``"x"`` (base) or ``"f"`` (fiber),
    ``index`` is 1-based."""

    __slots__ = ("kind", "index")

    def __init__(self, kind: str, index: int):
        _set_kind(self, kind)
        _set_index(self, index)
        _set_program(self, None)


class Unary(Expression):
    """Unary operation: ``"neg"`` or one of :data:`FUNCTIONS`."""

    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: Expression):
        _set_unary_op(self, op)
        _set_operand(self, operand)
        _set_program(self, None)


class Binary(Expression):
    """Binary operation, ``op`` in ``+ - * /``."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expression, right: Expression):
        _set_binary_op(self, op)
        _set_left(self, left)
        _set_right(self, right)
        _set_program(self, None)


class Power(Expression):
    """Integer power of a subexpression."""

    __slots__ = ("base", "exponent")

    def __init__(self, base: Expression, exponent: int):
        _set_base(self, base)
        _set_exponent(self, exponent)
        _set_program(self, None)


# The node constructors store their fields through these module names, the
# fastest way to reach the slot setters: a run builds nodes by the thousand.
_set_program = Expression._program.__set__
(_set_value,) = Const._setters
_set_kind, _set_index = Var._setters
_set_unary_op, _set_operand = Unary._setters
_set_binary_op, _set_left, _set_right = Binary._setters
_set_base, _set_exponent = Power._setters


#: One token: a number, a name, or any other non-space character (an
#: operator, a parenthesis, or a character outside the grammar).
_TOKEN = re.compile(r"[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?|[A-Za-z]+[0-9]*|\S")
_DIGITS = frozenset("0123456789")
_LETTERS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")
_STARTS = _DIGITS | _LETTERS | frozenset("+-*/^()")  # first characters of tokens
_BINARY = frozenset("+-*/")


def _node(instr: tuple, nodes: list) -> Expression:
    """The tree of ``instr``, its operands taken from ``nodes``."""
    op, a, b = instr
    if op == "c":
        return Const(a)
    if op == "x" or op == "f":
        return Var(op, a + 1)
    if op == "^":
        return Power(nodes[a], b)
    return Binary(op, nodes[a], nodes[b]) if op in _BINARY else Unary(op, nodes[a])


class _Tape:
    """A program under construction, by :func:`parse` or :func:`compile_expr`.
    ``registers`` maps each instruction to its register, so an instruction
    equal in operator and operand registers to an earlier one is not emitted
    again and repeated subexpressions share a register.  No node is hashed.
    ``max_x`` and ``max_f`` are the largest indices of the coordinates
    emitted so far, kept as they are emitted (:meth:`reach`)."""

    __slots__ = ("code", "nodes", "registers", "max_x", "max_f")

    def __init__(self):
        self.code, self.nodes, self.registers = [], [], {}
        self.max_x = self.max_f = 0

    def reach(self, kind: str, index: int) -> None:
        """Note that coordinate ``index`` (1-based) of ``kind`` is emitted."""
        if kind == "x":
            if index > self.max_x:
                self.max_x = index
        elif index > self.max_f:
            self.max_f = index

    def emit(self, instr: tuple) -> int:
        """The register of ``instr``, appended if new, with the tree built
        from its operands' nodes as its first subtree."""
        register = self.registers.get(instr)
        if register is None:
            register = self.registers[instr] = len(self.code)
            self.code.append(instr)
            self.nodes.append(_node(instr, self.nodes))
        return register

    def splice(self, program: Program, root: Expression) -> int:
        """Emit each instruction of ``program``, the program of ``root``, in
        order, with its subtree in ``program``; the register of ``root``."""
        code, nodes, registers = self.code, self.nodes, self.registers
        self.max_x = max(self.max_x, program.max_x)
        self.max_f = max(self.max_f, program.max_f)
        if not code:  # every instruction is new, in the same register
            code.extend(program.code)
            nodes.extend(program.nodes + (root,))
            registers.update(zip(program.code, range(len(program.code))))
            return len(code) - 1
        spliced = []
        for (op, a, b), node in zip(program.code, program.nodes + (root,)):
            if op in _BINARY:
                instr = (op, spliced[a], spliced[b])
            else:
                instr = (op, a, b) if op in ("c", "x", "f") else (op, spliced[a], b)
            register = registers.get(instr)
            if register is None:
                register = registers[instr] = len(code)
                code.append(instr)
                nodes.append(node)
            spliced.append(register)
        return spliced[-1]

    def program(self) -> Program:
        return Program(tuple(self.code), self.max_x, self.max_f, tuple(self.nodes[:-1]))


class _Reader:
    """Recursive descent over the tokens of one source.  Each rule emits the
    node it builds and returns its register, so the tape grows in post-order
    with the tree.  Character offsets are counted only for an error."""

    __slots__ = ("source", "tokens", "i", "depth", "dims", "tape")

    def __init__(self, source: str, dims: tuple[int, int]):
        self.source, self.dims, self.tape = source, dims, _Tape()
        self.tokens = _TOKEN.findall(source) + [""]  # "" is the end
        self.i = self.depth = 0

    def offset(self, i: int) -> int:
        """The character offset of token ``i``, or of the end past the last."""
        starts = [match.start() for match in _TOKEN.finditer(self.source)]
        return starts[i] if i < len(starts) else len(self.source)

    def nested(self, i: int, rule) -> int:
        """``rule()`` one nesting level deeper; token ``i`` opens the level."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ExprSyntaxError(f"nesting deeper than {MAX_NESTING} levels", self.offset(i))
        register = rule()
        self.depth -= 1
        return register

    def parse(self) -> Expression:
        try:
            self.expr()
            if token := self.tokens[self.i]:
                message = f"unexpected {token!r} after a complete expression"
                raise ExprSyntaxError(message, self.offset(self.i))
        except CurvcheckError:
            # a character outside the grammar is named first, wherever it is
            for i, token in enumerate(self.tokens[:-1]):
                if token[0] not in _STARTS:
                    message = f"unexpected character {token!r}"
                    raise ExprSyntaxError(message, self.offset(i)) from None
            raise
        root = self.tape.nodes[-1]
        _set_program(root, self.tape.program())
        return root

    def expr(self) -> int:
        register = self.term()
        while (op := self.tokens[self.i]) == "+" or op == "-":
            self.i += 1
            register = self.tape.emit((op, register, self.term()))
        return register

    def term(self) -> int:
        register = self.factor()
        while (op := self.tokens[self.i]) == "*" or op == "/":
            self.i += 1
            register = self.tape.emit((op, register, self.factor()))
        return register

    def factor(self) -> int:
        i = self.i
        if self.tokens[i] == "-":
            self.i += 1
            return self.tape.emit(("neg", self.nested(i, self.factor), 0))
        register = self.atom()
        if self.tokens[self.i] != "^":
            return register
        sign = -1 if self.tokens[self.i + 1] == "-" else 1
        i = self.i + (2 if sign < 0 else 1)  # past the "^" and the sign
        text = self.tokens[i]
        self.i = i + 1
        if text[:1] not in _DIGITS or not text.isdigit():
            raise ExprSyntaxError("expected a literal integer exponent", self.offset(i))
        if len(text) > MAX_EXPONENT_DIGITS:
            message = f"exponent of {len(text)} digits is too long"
            raise ExprSyntaxError(message, self.offset(i))
        return self.tape.emit(("^", register, sign * int(text)))

    def atom(self) -> int:
        i, text = self.i, self.tokens[self.i]
        self.i += 1
        if text[:1] in _DIGITS:
            value = float(text)
            if math.isinf(value):
                message = f"number {text!r} overflows to infinity"
                raise ExprSyntaxError(message, self.offset(i))
            return self.tape.emit(("c", value, 1.0))
        if text == "(":
            return self.nested(i, self.group)
        if text[:1] not in _LETTERS:
            raise ExprSyntaxError("expected a number, identifier, or '('", self.offset(i))
        if text[1:].isdigit() and text[0] in "xfv":
            digits = text[1:].lstrip("0")
            if not digits:
                message = f"variable indices are 1-based: {text!r} at offset {self.offset(i)}"
                raise UnknownIdentifier(message)
            kind = "x" if text[0] == "x" else "f"
            side, limit = ("base", self.dims[0]) if kind == "x" else ("fiber", self.dims[1])
            try:
                index = int(digits)
            except ValueError:  # more digits than the interpreter converts
                index = limit + 1
            if index > limit:
                message = f"{side} index {digits} exceeds {side} dimension {limit}: {text!r}"
                raise IndexOutOfRange(message)
            self.tape.reach(kind, index)
            return self.tape.emit((kind, index - 1, 0))
        if text == "pi":
            return self.tape.emit(("c", math.pi, 1.0))
        if text not in FUNCTIONS:
            raise UnknownIdentifier(f"unknown identifier {text!r} at offset {self.offset(i)}")
        if self.tokens[self.i] != "(":
            message = f"expected '(' after function {text!r}"
            raise ExprSyntaxError(message, self.offset(self.i))
        self.i += 1
        return self.tape.emit((text, self.nested(i, self.group), 0))

    def group(self) -> int:
        """An expression closed by ``)``."""
        register = self.expr()
        if self.tokens[self.i] != ")":
            raise ExprSyntaxError("expected ')'", self.offset(self.i))
        self.i += 1
        return register


def parse(source: str, dims: tuple[int, int]) -> Expression:
    """Parse ``source`` into an expression tree that already holds its
    :class:`Program`; equal subexpressions of ``source`` are one node.

    ``dims = (m, n)`` declares the base and fiber dimensions; variable indices
    are validated against them (raising :class:`IndexOutOfRange`).  Raises
    :class:`ExprSyntaxError` with the failing offset on malformed input or
    nesting deeper than :data:`MAX_NESTING`, and :class:`UnknownIdentifier`
    for names outside the grammar.
    """
    m, n = dims
    if m < 1 or n < 1:
        raise ValueError(f"dims must be positive, got {dims}")
    return _Reader(source, (m, n)).parse()


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
    # the bound first, so an infinity or a NaN (folded constants) prints by repr
    if abs(value) < 1e16 and value == int(value):
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
    """Post-order tape of one expression, built by :func:`parse` or
    :func:`compile_expr`, which splices in the tape of a subtree whole and in
    order: a tree's program is the same whichever subtrees hold one.

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


#: Marks, on the stack of :func:`compile_expr`, an operator whose operands
#: are pending below it; no node of any tree, so no operand is taken for it.
_PENDING = object()


def compile_expr(e: Expression) -> Program:
    """The :class:`Program` of ``e``, compiled on first use and kept on
    ``e``, so it lives exactly as long as the tree.  A parsed tree holds
    its program from the start.

    The walk is iterative, so depth is not bounded by the recursion limit.
    Subtrees shared by reference are visited once, and a subtree that
    already holds a program is not walked at all: its instructions are
    spliced onto the tape in their order, which gives the same program.
    An instruction equal in operator and operand registers to an earlier
    one is not emitted again, so repeated subexpressions share a register.

    Raises :class:`TypeError` on a node outside the grammar (module
    docstring) and on anything that is not a node.
    """
    try:
        program = e._program
    except AttributeError:
        raise TypeError(f"not an expression node: {e!r}") from None
    if program is not None:
        return program
    tape = _Tape()
    code, nodes, registers = tape.code, tape.nodes, tape.registers
    done = {}  # id(node) -> its register, for nodes of this tree
    stack = [e]
    while stack:
        node = stack.pop()
        if node is _PENDING:  # the operands of the operator below are done
            node, op, a, b = stack.pop()
            instr = (op, done[id(a)], done[id(b)] if op in _BINARY else b)
        elif id(node) in done:
            continue
        else:
            # one test per node, the commonest kinds first: an operator sets
            # its operands a and b (or its int b), a leaf its instruction
            if isinstance(node, Binary) and node.op in _BINARY:
                op, a, b = node.op, node.left, node.right
            elif isinstance(node, Const):
                op, instr = None, ("c", node.value, math.copysign(1.0, node.value))
            elif isinstance(node, Power) and _is_int(node.exponent):
                op, a, b = "^", node.base, node.exponent
            elif isinstance(node, Unary) and (node.op == "neg" or node.op in FUNCTIONS):
                op, a, b = node.op, node.operand, 0
            elif isinstance(node, Var) and node.kind in ("x", "f") and (
                _is_int(node.index) and node.index >= 1
            ):
                op, instr = None, (node.kind, node.index - 1, 0)
                tape.reach(node.kind, node.index)
            else:
                raise TypeError(f"not a node of the expression grammar: {node!r}")
            if op is not None:
                if node._program is not None:
                    done[id(node)] = tape.splice(node._program, node)
                    continue
                # an operator whose operands are on the tape is emitted now;
                # otherwise it waits below the operands that are not
                register_a = done.get(id(a))
                register_b = done.get(id(b)) if op in _BINARY else b
                if register_a is None or register_b is None:
                    stack += ((node, op, a, b), _PENDING)
                    if register_b is None:
                        stack.append(b)
                    if register_a is None:
                        stack.append(a)
                    continue
                instr = (op, register_a, register_b)
        register = registers.get(instr)
        if register is None:
            register = registers[instr] = len(code)
            code.append(instr)
            nodes.append(node)
        done[id(node)] = register
    program = tape.program()
    _set_program(e, program)
    return program


def _is_int(value) -> bool:
    """Whether ``value`` is an integer of the grammar: an ``int``, not a
    ``bool``."""
    return isinstance(value, int) and not isinstance(value, bool)


def max_indices(e: Expression) -> tuple[int, int]:
    """Largest base and fiber variable indices referenced by ``e`` (0 if none),
    read from the program of ``e``."""
    program = compile_expr(e)
    return program.max_x, program.max_f


def check_grid(grid, shape: tuple[int, ...], m: int, n: int, where: str) -> tuple:
    """The rule every container applies to its expressions at bind time:
    ``grid`` nests ``shape[0]`` entries of ``shape[1]`` entries ... of
    expressions (one expression if ``shape`` is empty), each referencing
    only ``x1..xm`` and ``f1..fn``, where a limit of 0 forbids that kind of
    variable.  Returns the grid as nested tuples.

    Raises :class:`ValueError` for a wrong length or a forbidden kind and
    :class:`IndexOutOfRange` for an index above its limit, naming the entry
    by its 0-based path below ``where``, as in ``gamma[0][1]``.
    """
    if not shape:
        mx, mf = max_indices(grid)
        if mf and not n:
            raise ValueError(f"{where} must depend on base variables only, got f{mf}")
        if mx and not m:
            raise ValueError(f"{where} must depend on fiber variables only, got x{mx}")
        if mx > m:
            raise IndexOutOfRange(f"{where} references x{mx} but the base dimension is {m}")
        if mf > n:
            raise IndexOutOfRange(f"{where} references f{mf} but the fiber dimension is {n}")
        return grid
    if isinstance(grid, Expression):
        raise ValueError(f"{where} needs {shape[0]} entries, got an expression")
    items = tuple(grid)
    if len(items) != shape[0]:
        raise ValueError(f"{where} needs {shape[0]} entries, got {len(items)}")
    return tuple(check_grid(e, shape[1:], m, n, f"{where}[{i}]") for i, e in enumerate(items))
