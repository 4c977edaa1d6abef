"""Tiny arithmetic expression grammar for exponent-field definitions.

Supported: + - * /, unary minus, parentheses, numbers, the constants pi and
e, one free variable (x or t), and the functions sin, cos, exp, log, abs.
No user code is ever executed; expressions parse to a closed AST evaluated
with numpy.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import List, Tuple, Union

import numpy as np

from .errors import ParameterError

FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp,
             "log": np.log, "abs": np.abs}
CONSTANTS = {"pi": math.pi, "e": math.e}

_TOKEN_RE = re.compile(r"\s*(?:(\d+\.\d*|\.\d+|\d+)|([A-Za-z_]\w*)|([-+*/()]))")


class ExprError(ParameterError):
    def __init__(self, message: str, column: int):
        super().__init__(f"{message} (column {column})")
        self.column = column


@dataclass(frozen=True)
class Token:
    kind: str  # "num" | "name" | "op"
    text: str
    column: int


def _tokenize(text: str) -> List[Token]:
    tokens, pos = [], 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise ExprError(f"unexpected character {rest[0]!r}", len(text) - len(rest) + 1)
        num, name, op = m.groups()
        col = m.start(m.lastindex) + 1
        if num:
            tokens.append(Token("num", num, col))
        elif name:
            tokens.append(Token("name", name, col))
        else:
            tokens.append(Token("op", op, col))
        pos = m.end()
    return tokens


Node = Union[Tuple, float, str]


class _Parser:
    def __init__(self, tokens: List[Token], text_len: int):
        self.tokens = tokens
        self.i = 0
        self.end_col = text_len + 1

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ExprError("unexpected end of expression", self.end_col)
        self.i += 1
        return tok

    def expect_op(self, op: str):
        tok = self.take()
        if tok.kind != "op" or tok.text != op:
            raise ExprError(f"expected {op!r}, found {tok.text!r}", tok.column)

    def parse(self) -> Node:
        node = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ExprError(f"trailing input {tok.text!r}", tok.column)
        return node

    def expr(self) -> Node:
        node = self.term()
        while (t := self.peek()) and t.kind == "op" and t.text in "+-":
            self.take()
            node = (t.text, node, self.term())
        return node

    def term(self) -> Node:
        node = self.unary()
        while (t := self.peek()) and t.kind == "op" and t.text in "*/":
            self.take()
            node = (t.text, node, self.unary())
        return node

    def unary(self) -> Node:
        t = self.peek()
        if t and t.kind == "op" and t.text == "-":
            self.take()
            return ("neg", self.unary())
        return self.atom()

    def atom(self) -> Node:
        tok = self.take()
        if tok.kind == "num":
            return float(tok.text)
        if tok.kind == "name":
            if tok.text in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return ("call", tok.text, arg)
            if tok.text in CONSTANTS:
                return CONSTANTS[tok.text]
            if tok.text in ("x", "t"):
                return ("var", tok.text)
            raise ExprError(f"unknown name {tok.text!r}", tok.column)
        if tok.kind == "op" and tok.text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprError(f"unexpected token {tok.text!r}", tok.column)


def parse_expression(text: str) -> Node:
    return _Parser(_tokenize(text), len(text)).parse()


def evaluate(node: Node, var: str, values: np.ndarray) -> np.ndarray:
    """Evaluate the AST with the free variable bound to `values`."""
    if isinstance(node, float):
        return np.full_like(np.asarray(values, dtype=float), node)
    op = node[0]
    if op == "var":
        if node[1] != var:
            raise ParameterError(
                f"expression uses variable {node[1]!r}, expected {var!r}")
        return np.asarray(values, dtype=float)
    if op == "neg":
        return -evaluate(node[1], var, values)
    if op == "call":
        return FUNCTIONS[node[1]](evaluate(node[2], var, values))
    a = evaluate(node[1], var, values)
    b = evaluate(node[2], var, values)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        return a / b
    raise ParameterError(f"corrupt AST node {node!r}")


def evaluate_text(text: str, var: str, values: np.ndarray) -> np.ndarray:
    return evaluate(parse_expression(text), var, values)
