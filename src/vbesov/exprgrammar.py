"""Closed arithmetic grammar for the exponent fields of a config.

Supported: + - * /, unary minus, parentheses, decimal numbers (`2`, `2.`,
`.5`, `007`; no exponent, no underscores), the constants pi and e, one free
variable (x or t), and one-argument calls of sin, cos, exp, log, abs.  Input
is ASCII.  Python's parser reads the text and `_walk` admits only the nodes of
this grammar, evaluating them with numpy, so no user code is ever executed.
An expression too deeply nested to read is an ExprError like any other.
"""

from __future__ import annotations

import ast
import math
import operator
import re
import warnings

import numpy as np

from .errors import ParameterError

FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp,
             "log": np.log, "abs": np.abs}
CONSTANTS = {"pi": math.pi, "e": math.e}
_VARIABLES = ("x", "t")
_NAMES = {*FUNCTIONS, *CONSTANTS, *_VARIABLES}
_OPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
        ast.Div: operator.truediv}

_BAD_CHAR = re.compile(r"[^A-Za-z0-9_ \t.+\-*/()]")
_NUMBER = re.compile(r"\d+\.\d*|\.\d+|\d+")
# Python reads neither leading blanks nor leading zeros (`02`); form feeds in
# their place keep every column, and at the start of a line they are no indent
_BLANKED = re.compile(r"^[ \t]+|(?<![\w.])0+(?=\d)")
_TOO_DEEP = "expression is nested too deeply"


class ExprError(ParameterError):
    def __init__(self, message: str, column: int):
        super().__init__(f"{message} (column {column})")
        self.column = column


def _walk(node: ast.expr, text: str, var: str = None, values: np.ndarray = None):
    """Check `node` against the grammar; given `values`, also evaluate it with
    the free variable `var` bound to them."""
    kind = type(node)
    if kind is ast.BinOp and type(node.op) in _OPS:
        a, b = _walk(node.left, text, var, values), _walk(node.right, text, var, values)
        return None if values is None else _OPS[type(node.op)](a, b)
    if kind is ast.UnaryOp and type(node.op) is ast.USub:
        a = _walk(node.operand, text, var, values)
        return None if values is None else -a
    name = getattr(node.func if kind is ast.Call else node, "id", None)
    if kind is ast.Call and name in FUNCTIONS and len(node.args) == 1 and not node.keywords:
        a = _walk(node.args[0], text, var, values)
        return None if values is None else FUNCTIONS[name](a)
    source = text[node.col_offset:node.end_col_offset]
    if kind is ast.Constant and _NUMBER.fullmatch(source):
        return None if values is None else np.full_like(values, float(source))
    if kind is ast.Name and name in CONSTANTS:
        return None if values is None else np.full_like(values, CONSTANTS[name])
    if kind is ast.Name and name in _VARIABLES:
        if var is not None and name != var:
            raise ParameterError(f"expression uses variable {name!r}, expected {var!r}")
        return values
    if name is not None and name not in _NAMES:
        raise ExprError(f"unknown name {name!r}", node.col_offset + 1)
    raise ExprError(f"unsupported syntax {source!r}", node.col_offset + 1)


def parse_expression(text: str) -> ast.expr:
    """The syntax tree of `text`, checked against the grammar."""
    bad = _BAD_CHAR.search(text)
    if bad:
        raise ExprError(f"unexpected character {bad[0]!r}", bad.start() + 1)
    try:
        with warnings.catch_warnings():  # Python only warns on `1if`; make it an error
            warnings.simplefilter("error", SyntaxWarning)
            tree = ast.parse(_BLANKED.sub(lambda m: "\f" * len(m[0]), text), mode="eval").body
        _walk(tree, text)
    except SyntaxError as exc:  # offset 0: the text ended too early
        raise ExprError(exc.msg, exc.offset if (exc.offset or 0) > 0 else len(text) + 1) from None
    except RecursionError:
        raise ExprError(_TOO_DEEP, 1) from None
    return tree


def evaluate_text(text: str, var: str, values: np.ndarray) -> np.ndarray:
    """`text` evaluated with the free variable `var` bound to `values`.  The
    checking walk runs first, so a grammar error anywhere is reported before
    a wrong variable."""
    tree = parse_expression(text)
    try:
        return _walk(tree, text, var, np.asarray(values, dtype=float))
    except RecursionError:
        raise ExprError(_TOO_DEEP, 1) from None
