"""Reference implementations that the tests judge the package against.

The folding constructors, the structural derivative and the compiler of
expression trees, as written before their fast paths: every fold asks
``_is_const`` once per rule, the derivative applies every rule in full
and folds, and the compiler visits every operator twice and emits through
one method.  The package's versions must give the same trees and the same
programs, signed zeros included.

The tangent sweep's chain rules, as written before each jet slot was
formed once: a comprehension gives every slot the first-order rule and the
mixed slot is then overwritten.  The package's rules must give the same
slots, bit for bit.
"""

import math

import numpy as np

from curvcheck.exprdsl import FUNCTIONS, Binary, Const, Expression, Power, Program, Unary, Var

_ZERO = Const(0.0)
_ONE = Const(1.0)
_BINARY = frozenset("+-*/")
_set_program = Expression._program.__set__


def _is_const(e: Expression, value: float) -> bool:
    return isinstance(e, Const) and e.value == value


def add(a: Expression, b: Expression) -> Expression:
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    return Binary("+", a, b)


def sub(a: Expression, b: Expression) -> Expression:
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return neg(b)
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    return Binary("-", a, b)


def mul(a: Expression, b: Expression) -> Expression:
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return _ZERO
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    return Binary("*", a, b)


def div(a: Expression, b: Expression) -> Expression:
    if _is_const(a, 0.0) and not _is_const(b, 0.0):
        return _ZERO
    if _is_const(b, 1.0):
        return a
    return Binary("/", a, b)


def neg(a: Expression) -> Expression:
    if isinstance(a, Unary) and a.op == "neg":
        return a.operand
    if _is_const(a, 0.0):
        return _ZERO
    return Unary("neg", a)


def power(a: Expression, k: int) -> Expression:
    if k == 0:
        return _ONE
    if k == 1:
        return a
    return Power(a, k)


_FOLD = {"+": add, "-": sub, "*": mul, "/": div}


def const(value: float) -> Expression:
    if value < 0:
        return Unary("neg", Const(-value))
    return Const(float(value))


def derivative(e: Expression, kind: str, index: int) -> Expression:
    """The structural partial derivative of ``e`` along ``(kind, index)``,
    every rule applied and folded."""
    target = (kind, index - 1, 0)
    program = compile_expr(e)
    code, nodes = program.code, program.nodes + (e,)
    ds: list[Expression] = []
    for (op, a, b), node in zip(code, nodes):
        if op == "c":
            d = _ZERO
        elif op == "x" or op == "f":
            d = _ONE if (op, a, b) == target else _ZERO
        elif op == "+" or op == "-":
            d = _FOLD[op](ds[a], ds[b])
        elif op == "*":
            d = add(mul(ds[a], nodes[b]), mul(nodes[a], ds[b]))
        elif op == "/":
            d = div(sub(mul(ds[a], nodes[b]), mul(nodes[a], ds[b])), Power(nodes[b], 2))
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
        else:
            d = div(ds[a], mul(Const(2.0), node))
        ds.append(d)
    return ds[-1]


class _Tape:
    def __init__(self):
        self.code, self.nodes, self.registers = [], [], {}

    def emit(self, instr: tuple, node: Expression) -> int:
        register = self.registers.get(instr)
        if register is None:
            register = self.registers[instr] = len(self.code)
            self.code.append(instr)
            self.nodes.append(node)
        return register

    def splice(self, program: Program, root: Expression) -> int:
        if not self.code:
            self.code.extend(program.code)
            self.nodes.extend(program.nodes + (root,))
            self.registers.update(zip(program.code, range(len(program.code))))
            return len(self.code) - 1
        registers = []
        for (op, a, b), node in zip(program.code, program.nodes + (root,)):
            if op in _BINARY:
                instr = (op, registers[a], registers[b])
            else:
                instr = (op, a, b) if op in ("c", "x", "f") else (op, registers[a], b)
            registers.append(self.emit(instr, node))
        return registers[-1]

    def program(self) -> Program:
        code = tuple(self.code)
        max_x, max_f = (max((a + 1 for op, a, _ in code if op == k), default=0) for k in "xf")
        return Program(code, max_x, max_f, tuple(self.nodes[:-1]))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def compile_expr(e: Expression) -> Program:
    """The program of ``e``, kept on ``e``; a subtree that holds a program
    is spliced, not walked."""
    try:
        program = e._program
    except AttributeError:
        raise TypeError(f"not an expression node: {e!r}") from None
    if program is not None:
        return program
    tape = _Tape()
    done = {}
    stack = [e]
    while stack:
        node = stack.pop()
        if node is None:
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
            if node.kind not in ("x", "f") or not _is_int(node.index) or node.index < 1:
                raise TypeError(f"not a node of the expression grammar: {node!r}")
            instr = (node.kind, node.index - 1, 0)
        else:
            if isinstance(node, Binary) and node.op in _BINARY:
                operands = (node.right, node.left)
            elif isinstance(node, Unary) and (node.op == "neg" or node.op in FUNCTIONS):
                operands = (node.operand,)
            elif isinstance(node, Power) and _is_int(node.exponent):
                operands = (node.base,)
            else:
                raise TypeError(f"not a node of the expression grammar: {node!r}")
            if node._program is None:
                stack += (node, None, *operands)
            else:
                done[id(node)] = tape.splice(node._program, node)
            continue
        done[id(node)] = tape.emit(instr, node)
    program = tape.program()
    _set_program(e, program)
    return program


def unary_tangent(t: list, first: float, second: float, jet: bool) -> list:
    out = [first * d for d in t]
    if jet:
        out[2] = second * (t[0] * t[1]) + first * t[2]
    return out


def binary_tangent(tu: list, tv: list, partials: tuple, jet: bool) -> list:
    du, dv, duv, dvv = partials
    out = [du * a + dv * b for a, b in zip(tu, tv)]
    if jet:
        d12 = _plus(du * tu[2], duv, tu[0] * tv[1] + tu[1] * tv[0])
        d12 += dv * tv[2]
        out[2] = _plus(d12, dvv, tv[0] * tv[1])
    return out


def _plus(acc, coefficient, term):
    if isinstance(coefficient, np.ndarray):
        return np.where(coefficient != 0.0, acc + coefficient * term, acc)
    return acc + coefficient * term if coefficient else acc
