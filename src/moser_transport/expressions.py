"""Arithmetic expression parser and evaluator for user-defined densities.

Grammar (EBNF):

    expr    = term , { ("+" | "-") , term } ;
    term    = unary , { ("*" | "/") , unary } ;
    unary   = ("+" | "-") , unary | power ;
    power   = atom , [ "^" , unary ] ;            (* right associative *)
    atom    = NUMBER | IDENT | IDENT "(" expr { "," expr } ")" | "(" expr ")" ;

Identifiers are the declared variables (``x, m`` for interval families,
``x, a, t`` in collar form), the constants ``pi`` and ``e``, and the
functions ``sin cos exp log sqrt abs min max``.  Evaluation accepts numpy
arrays and raises EvaluationDomainError where the mathematical domain is
left (log of a non-positive value, division by zero, sqrt or a fractional
power of a negative, 0 raised to a negative power).  ``ExpressionAst``
reads these from numpy's floating-point flags, once per evaluation, not
from a check at every node; a NaN made from finite operands (``0 * inf``,
``inf - inf``) raises too.

``Node.diff(var)`` differentiates a tree symbolically (Griewank & Walther,
*Evaluating Derivatives*, 2nd ed., SIAM 2008): closed-form rules for every
operator and function, with ``abs``, ``min`` and ``max`` piecewise through
the internal functions ``sign`` and ``where``, which the parser does not
accept.  Derivative trees fold constants (``0*u``, ``1*u``, ``u+0``, sums,
differences and products of numbers), so they stay small.
"""

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationDomainError, ExpressionSyntaxError

FUNCTIONS = {
    "sin": 1,
    "cos": 1,
    "exp": 1,
    "log": 1,
    "sqrt": 1,
    "abs": 1,
    "min": 2,
    "max": 2,
}

CONSTANTS = {"pi": math.pi, "e": math.e}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


@dataclass(frozen=True)
class Token:
    kind: str
    value: str
    pos: int


def tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None or match.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            offset = len(text) - len(stripped)
            raise ExpressionSyntaxError(f"unexpected character {stripped[0]!r}", offset)
        if match.group("num") is not None:
            tokens.append(Token("num", match.group("num"), match.start("num")))
        elif match.group("ident") is not None:
            tokens.append(Token("ident", match.group("ident"), match.start("ident")))
        else:
            tokens.append(Token("op", match.group("op"), match.start("op")))
        pos = match.end()
    tokens.append(Token("end", "", len(text)))
    return tokens


class Node:
    def evaluate(self, env):
        raise NotImplementedError

    def diff(self, var):
        """The derivative tree d(self)/d(var), constants folded."""
        raise NotImplementedError


@dataclass(frozen=True)
class Num(Node):
    value: float

    def evaluate(self, env):
        return self.value

    def diff(self, var):
        return _ZERO

    def __str__(self):
        return repr(self.value)


@dataclass(frozen=True)
class Var(Node):
    name: str

    def evaluate(self, env):
        if self.name in env:
            return env[self.name]
        return CONSTANTS[self.name]

    def diff(self, var):
        return _ONE if self.name == var else _ZERO

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Neg(Node):
    operand: Node

    def evaluate(self, env):
        return -self.operand.evaluate(env)

    def diff(self, var):
        return _neg(self.operand.diff(var))

    def __str__(self):
        return f"-{_paren(self.operand, 25)}"


_BINOPS = {
    "+": (10, lambda a, b: a + b),
    "-": (10, lambda a, b: a - b),
    "*": (20, lambda a, b: a * b),
    "/": (20, np.divide),
    "^": (30, np.power),
}


@dataclass(frozen=True)
class BinOp(Node):
    op: str
    left: Node
    right: Node

    def evaluate(self, env):
        return _BINOPS[self.op][1](self.left.evaluate(env), self.right.evaluate(env))

    def diff(self, var):
        u, v = self.left, self.right
        du, dv = u.diff(var), v.diff(var)
        if self.op in "+-":
            return _op(self.op, du, dv)
        if self.op == "*":
            return _op("+", _op("*", du, v), _op("*", u, dv))
        if self.op == "/":
            return _op("-", _op("/", du, v), _op("/", _op("*", u, dv), _op("^", v, _TWO)))
        if dv == _ZERO:    # u^c: the exponent does not move with var
            return _op("*", _op("*", v, _op("^", u, _op("-", v, _ONE))), du)
        # u^v = exp(v log u): u^v (v' log u + v u'/u)
        return _op("*", self, _op("+", _op("*", dv, _call("log", u)),
                                  _op("/", _op("*", v, du), u)))

    def __str__(self):
        prec = _BINOPS[self.op][0]
        # left-assoc except ^; tighten the right side for - and /
        left = _paren(self.left, prec + (1 if self.op == "^" else 0))
        right = _paren(self.right, prec + (0 if self.op == "^" else 1))
        return f"{left} {self.op} {right}"


_FUNC_IMPL = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "min": np.minimum,
    "max": np.maximum,
    # internal: derivative trees only, not in FUNCTIONS, so the parser rejects them
    "sign": np.sign,
    "where": lambda c, a, b: np.where(np.asarray(c) > 0, a, b),   # a where c > 0, else b
}


@dataclass(frozen=True)
class Call(Node):
    func: str
    args: tuple

    def evaluate(self, env):
        vals = [arg.evaluate(env) for arg in self.args]
        return _FUNC_IMPL[self.func](*vals)

    def diff(self, var):
        u = self.args[0]
        if self.func == "sign":
            return _ZERO
        if self.func == "where":    # piecewise: the condition's own derivative does not enter
            return _call("where", u, self.args[1].diff(var), self.args[2].diff(var))
        if self.func in ("min", "max"):
            v = self.args[1]
            # the derivative of whichever argument is selected (ties take v's)
            c = _op("-", v, u) if self.func == "min" else _op("-", u, v)
            return _call("where", c, u.diff(var), v.diff(var))
        outer = {
            "sin": lambda: _call("cos", u),
            "cos": lambda: _neg(_call("sin", u)),
            "exp": lambda: self,
            "log": lambda: _op("/", _ONE, u),
            "sqrt": lambda: _op("/", _HALF, self),
            "abs": lambda: _call("sign", u),
        }[self.func]
        return _op("*", outer(), u.diff(var))

    def __str__(self):
        inner = ", ".join(str(a) for a in self.args)
        return f"{self.func}({inner})"


_ZERO, _HALF, _ONE, _TWO = Num(0.0), Num(0.5), Num(1.0), Num(2.0)


def _op(op, u, v):
    """BinOp(op, u, v) folded: 0*u, 0/u -> 0; u^0 -> 1; u+0, 0+u, u-0, 1*u, u*1,
    u/1, u^1 -> u; 0-u -> -u; a number + - * a number -> one number."""
    if (op in "*/" and u == _ZERO) or (op == "*" and v == _ZERO):
        return _ZERO
    if op == "^" and v == _ZERO:
        return _ONE
    if (op in "+-" and v == _ZERO) or (op in "*/^" and v == _ONE):
        return u
    if (op == "+" and u == _ZERO) or (op == "*" and u == _ONE):
        return v
    if op == "-" and u == _ZERO:
        return _neg(v)
    if op in "+-*" and isinstance(u, Num) and isinstance(v, Num):
        return Num(_BINOPS[op][1](u.value, v.value))
    return BinOp(op, u, v)


def _neg(u):
    if isinstance(u, Num):
        return Num(-u.value)
    return u.operand if isinstance(u, Neg) else Neg(u)


def _call(func, *args):
    return args[1] if func == "where" and args[1] == args[2] else Call(func, args)


def _precedence(node):
    if isinstance(node, BinOp):
        return _BINOPS[node.op][0]
    if isinstance(node, Neg):
        return 25
    return 100


def _paren(node, minimum):
    text = str(node)
    return f"({text})" if _precedence(node) < minimum else text


class _Parser:
    def __init__(self, tokens, variables):
        self.tokens = tokens
        self.i = 0
        self.variables = frozenset(variables)

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        tok = self.advance()
        if tok.kind != "op" or tok.value != op:
            raise ExpressionSyntaxError(f"expected {op!r}", tok.pos)

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExpressionSyntaxError(f"unexpected trailing input {tok.value!r}", tok.pos)
        return node

    def expr(self):
        node = self.term()
        while self.peek().kind == "op" and self.peek().value in "+-":
            op = self.advance().value
            node = BinOp(op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek().kind == "op" and self.peek().value in "*/":
            op = self.advance().value
            node = BinOp(op, node, self.unary())
        return node

    def unary(self):
        tok = self.peek()
        if tok.kind == "op" and tok.value in "+-":
            self.advance()
            operand = self.unary()
            return operand if tok.value == "+" else Neg(operand)
        return self.power()

    def power(self):
        base = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.value == "^":
            self.advance()
            return BinOp("^", base, self.unary())
        return base

    def atom(self):
        tok = self.advance()
        if tok.kind == "num":
            return Num(float(tok.value))
        if tok.kind == "ident":
            name = tok.value
            if self.peek().kind == "op" and self.peek().value == "(":
                if name not in FUNCTIONS:
                    raise ExpressionSyntaxError(f"unknown function {name!r}", tok.pos)
                self.advance()
                args = [self.expr()]
                while self.peek().kind == "op" and self.peek().value == ",":
                    self.advance()
                    args.append(self.expr())
                self.expect_op(")")
                if len(args) != FUNCTIONS[name]:
                    raise ExpressionSyntaxError(
                        f"{name} takes {FUNCTIONS[name]} argument(s), got {len(args)}", tok.pos
                    )
                return Call(name, tuple(args))
            if name in self.variables or name in CONSTANTS:
                return Var(name)
            raise ExpressionSyntaxError(f"unknown identifier {name!r}", tok.pos)
        if tok.kind == "op" and tok.value == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExpressionSyntaxError(
            f"expected a number, name or parenthesis, got {tok.value!r}" if tok.kind != "end"
            else "unexpected end of input",
            tok.pos,
        )


@dataclass(frozen=True)
class ExpressionAst:
    """Parsed expression plus its declared variables."""

    root: Node
    variables: tuple
    source: str

    def evaluate(self, **env):
        """Value at the given variables; a value that depends on none of them
        still has their broadcast shape."""
        missing = set(self.variables) - set(env)
        if missing:
            raise EvaluationDomainError(f"missing variables {sorted(missing)}")
        try:
            with np.errstate(divide="raise", invalid="raise"):
                out = self.root.evaluate(env)
        except FloatingPointError as exc:
            raise EvaluationDomainError(str(exc)) from None
        if np.ndim(out) == 0:
            shape = np.broadcast_shapes(*(np.shape(v) for v in env.values()))
            if shape:
                return np.full(shape, out, dtype=float)
        return out

    def diff(self, var):
        """The derivative in ``var``, itself an expression over the same variables."""
        root = self.root.diff(var)
        return ExpressionAst(root=root, variables=self.variables, source=str(root))


def parse_density_expression(text, variables=("x", "m")):
    """Parse a density expression over the given variables.

    Raises ExpressionSyntaxError (with byte offset) for malformed input,
    unknown identifiers and arity mismatches.
    """
    tokens = tokenize(text)
    root = _Parser(tokens, variables).parse()
    return ExpressionAst(root=root, variables=tuple(variables), source=text)
