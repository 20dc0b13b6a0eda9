"""Expression DSL for map specifications.

A map F: R^n -> R^m is written as m comma-separated expressions over the
variables x1..xn, e.g. ``"x1^2 - x2^2, 2*x1*x2"``.  Parsing produces an
immutable tree; evaluation is vectorized over batches of points.

Grammar::

    map    := expr (',' expr)*
    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := ['-'] atom ['^' ['-'] integer]
    atom   := number | 'x' integer | func '(' expr ')' | '(' expr ')'
    func   := 'sin' | 'cos' | 'exp' | 'sqrt' | 'abs'

'^' binds tighter than unary minus.  Space, tab, CR and LF are ignored;
any other character outside a token (a form feed, say) is a syntax error.
A literal that overflows to infinity is rejected.  Numbers, like variable
indices, are ASCII digits: the token regex is compiled with re.ASCII.

The lexer is one ``findall`` of a token regex that also eats the
whitespace after each token; a character it skipped shows as a length
mismatch.  The parser walks the plain list of token strings.  No line or
column is tracked on the way: an error scans the text again up to the
failing token to report its position.
"""
from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import (DomainError, InvalidInput, MapSyntaxError,
                     NonIntegerExponent, UndefinedVariable)
from .geometry import Region

MAX_DEPTH = 64
_FUNCS = ("sin", "cos", "exp", "sqrt", "abs")


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # 1-based


@dataclass(frozen=True)
class Unary:
    op: str  # neg | sin | cos | exp | sqrt | abs
    arg: "Expr"


@dataclass(frozen=True)
class Binary:
    op: str  # add | sub | mul | div
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Power:
    base: "Expr"
    exponent: int


Expr = Union[Const, Var, Unary, Binary, Power]


@dataclass(frozen=True)
class MapSpec:
    """Parsed map F: R^n -> R^m with a stable content digest."""

    n: int
    m: int
    components: tuple
    source_text: str
    digest: str


# ---------------------------------------------------------------------------
# lexer / parser

_TOKEN_RE = re.compile(              # one token and the whitespace after it
    r"((?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
    r"|[A-Za-z_][A-Za-z_0-9]*|[-+*/^(),])[ \t\r\n]*", re.ASCII)
_WHITESPACE = " \t\r\n"
_SYMS = frozenset("-+*/^(),") | {""}     # "" is the end-of-input token


def _position(text: str, pos: int):
    """1-based line and column of character offset ``pos``."""
    line_start = text.rfind("\n", 0, pos) + 1
    return text.count("\n", 0, pos) + 1, pos - line_start + 1


def _tokenize(text: str):
    """The token strings of ``text``, ending in the end-of-input token ''."""
    tokens = _TOKEN_RE.findall(text)
    if sum(map(len, tokens)) != len(text) - sum(map(text.count, _WHITESPACE)):
        # findall skipped a character that starts no token: find the first
        pos = len(text) - len(text.lstrip(_WHITESPACE))
        for mo in _TOKEN_RE.finditer(text):
            if mo.start() != pos:
                break
            pos = mo.end()
        raise MapSyntaxError(f"unexpected character {text[pos]!r}",
                             *_position(text, pos))
    tokens.append("")
    return tokens


class _Parser:
    """Recursive descent over the token list; ``i`` is the next token."""

    def __init__(self, text: str, n: int):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.n = n

    def error(self, i, exc, *args):
        """``exc(*args, line, column)`` at token ``i``, located by scanning
        the text again up to that token."""
        pos = len(self.text)                     # the end-of-input token
        for k, mo in enumerate(_TOKEN_RE.finditer(self.text)):
            if k == i:
                pos = mo.start()
                break
        return exc(*args, *_position(self.text, pos))

    def parse_map(self):
        comps = [self.parse_expr(0)]
        while self.tokens[self.i] == ",":
            self.i += 1
            comps.append(self.parse_expr(0))
        tok = self.tokens[self.i]
        if tok:
            raise self.error(self.i, MapSyntaxError,
                             f"unexpected trailing input {tok!r}")
        return comps

    def parse_expr(self, depth):
        node = self.parse_term(depth + 1)
        while (op := self.tokens[self.i]) == "+" or op == "-":
            self.i += 1
            node = Binary("add" if op == "+" else "sub", node,
                          self.parse_term(depth + 1))
        return node

    def parse_term(self, depth):
        # depth grows by 4 per nesting level (expr, term, factor, atom), so
        # with MAX_DEPTH = 64 this is the first check that can fail: at the
        # 16th nested parenthesis or call, on the token after it
        if depth > MAX_DEPTH:
            raise self.error(self.i, MapSyntaxError,
                             "expression nesting too deep")
        node = self.parse_factor(depth + 1)
        while (op := self.tokens[self.i]) == "*" or op == "/":
            self.i += 1
            node = Binary("mul" if op == "*" else "div", node,
                          self.parse_factor(depth + 1))
        return node

    def parse_factor(self, depth):
        negate = self.tokens[self.i] == "-"
        self.i += negate
        node = self.parse_atom(depth + 1)
        if self.tokens[self.i] == "^":
            negative = self.tokens[self.i + 1] == "-"
            i = self.i + 1 + negative
            tok = self.tokens[i]
            self.i = i + 1
            if not tok.isdecimal():      # exactly the digit-only number tokens
                raise self.error(i, NonIntegerExponent, tok or "end of input")
            node = Power(node, -int(tok) if negative else int(tok))
        return Unary("neg", node) if negate else node

    def parse_atom(self, depth):
        tokens, i = self.tokens, self.i
        tok = tokens[i]
        self.i = i + 1
        if tok == "(" or tok in _FUNCS:
            if tok != "(":
                i += 1
                if tokens[i] != "(":
                    raise self.error(i, MapSyntaxError, "expected '(', got "
                                     f"{tokens[i] or 'end of input'!r}")
                self.i = i + 1
            node = self.parse_expr(depth + 1)
            i = self.i
            if tokens[i] != ")":
                raise self.error(i, MapSyntaxError, "expected ')', got "
                                 f"{tokens[i] or 'end of input'!r}")
            self.i = i + 1
            return node if tok == "(" else Unary(tok, node)
        if tok in _SYMS:
            raise self.error(i, MapSyntaxError,
                             f"unexpected token {tok or 'end of input'!r}")
        if tok[0] == "." or tok[0].isdecimal():     # a number
            value = float(tok)
            if value == math.inf:
                raise self.error(i, MapSyntaxError,
                                 f"number {tok!r} out of range")
            return Const(value)
        if tok[0] != "x" or not tok[1:].isdecimal():
            raise self.error(i, MapSyntaxError, f"unknown identifier {tok!r}")
        index = int(tok[1:])
        if not 1 <= index <= self.n:
            raise self.error(i, UndefinedVariable, tok, self.n)
        return Var(index)


def map_digest(text: str) -> str:
    """Stable content hash of the map text, whitespace-normalized."""
    normalized = re.sub(r"\s+", "", text)
    return hashlib.sha256(normalized.encode("utf-8")).hexdigest()


def parse_map(text: str, n: int) -> MapSpec:
    """Parse a comma-separated expression list into a MapSpec."""
    if n < 1:
        raise InvalidInput(f"domain dimension must be >= 1, got {n}")
    parser = _Parser(text, n)
    comps = parser.parse_map()
    # equals map_digest(text): the lexer skips nothing but whitespace
    digest = hashlib.sha256("".join(parser.tokens).encode("utf-8")).hexdigest()
    return MapSpec(n=n, m=len(comps), components=tuple(comps),
                   source_text=text, digest=digest)


# ---------------------------------------------------------------------------
# evaluation

def _eval_node(node: Expr, cols):
    if isinstance(node, Const):
        return np.full_like(cols[0], node.value)
    if isinstance(node, Var):
        return cols[node.index - 1]
    if isinstance(node, Unary):
        a = _eval_node(node.arg, cols)
        if node.op == "neg":
            return -a
        if node.op == "sin":
            return np.sin(a)
        if node.op == "cos":
            return np.cos(a)
        if node.op == "exp":
            return np.exp(a)
        if node.op == "sqrt":
            return np.sqrt(a)
        return np.abs(a)
    if isinstance(node, Binary):
        a = _eval_node(node.left, cols)
        b = _eval_node(node.right, cols)
        if node.op == "add":
            return a + b
        if node.op == "sub":
            return a - b
        if node.op == "mul":
            return a * b
        return a / b
    return _eval_node(node.base, cols) ** float(node.exponent)


def evaluate(spec: MapSpec, x) -> np.ndarray:
    """Evaluate the map at a point (n,) or batch (k, n) of points."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = x[None, :] if single else x
    if pts.shape[1] != spec.n:
        raise InvalidInput(
            f"point dimension {pts.shape[1]} != map domain dimension {spec.n}")
    cols = [pts[:, j] for j in range(spec.n)]
    with np.errstate(all="ignore"):
        out = np.stack([_eval_node(c, cols) for c in spec.components], axis=1)
    bad = ~np.isfinite(out)
    if np.any(bad):
        row = int(np.nonzero(np.any(bad, axis=1))[0][0])
        raise DomainError(pts[row], "non-finite value (division by zero or "
                                    "sqrt of a negative)")
    return out[0] if single else out


def as_evaluator(map_like):
    """Turn a MapSpec or callable into a batch evaluator (k,n) -> (k,m)."""
    if isinstance(map_like, MapSpec):
        return lambda pts: evaluate(map_like, pts)
    if callable(map_like):
        return map_like
    raise InvalidInput(f"expected MapSpec or callable, got {type(map_like)!r}")


# ---------------------------------------------------------------------------
# pretty printing

def to_text(spec: MapSpec) -> str:
    """Canonical text form; re-parsing yields a structurally identical tree."""
    return ", ".join(_print_node(c) for c in spec.components)


def _print_node(node: Expr) -> str:
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Var):
        return f"x{node.index}"
    if isinstance(node, Unary):
        if node.op == "neg":
            return f"(-{_print_node(node.arg)})"
        return f"{node.op}({_print_node(node.arg)})"
    if isinstance(node, Binary):
        sym = {"add": "+", "sub": "-", "mul": "*", "div": "/"}[node.op]
        return f"({_print_node(node.left)} {sym} {_print_node(node.right)})"
    base = _print_node(node.base)
    if isinstance(node.base, (Const, Var)):
        return f"{base}^{node.exponent}"
    return f"({base})^{node.exponent}"


# ---------------------------------------------------------------------------
# derivative-based Lipschitz estimation

def lipschitz_estimate(spec: MapSpec, region: Region) -> float:
    """Heuristic Lipschitz constant: 2x the max sampled Jacobian norm.

    Central finite differences with step 1e-6 * region diameter at a
    deterministic sample of 200 interior points.
    """
    samples = 200
    rng = np.random.default_rng(0)
    if region.kind == "disk":
        raw = rng.normal(size=(samples, region.dim))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        radii = region.radius * rng.uniform(size=(samples, 1)) ** (1.0 / region.dim)
        pts = region.center + raw * radii
    else:
        pts = rng.uniform(region.lower, region.upper, size=(samples, region.dim))
    step = 1e-6 * region.diameter
    # one batch, ordered p + e_j, p - e_j for each sample p and axis j
    shifts = step * np.eye(spec.n)
    probes = np.stack([pts[:, None, :] + shifts, pts[:, None, :] - shifts],
                      axis=2)
    values = evaluate(spec, probes.reshape(-1, spec.n))
    values = values.reshape(samples, spec.n, 2, spec.m)
    jac = (values[:, :, 0] - values[:, :, 1]).transpose(0, 2, 1) / (2 * step)
    return 2.0 * float(np.max(np.linalg.norm(jac, 2, axis=(1, 2))))


# ---------------------------------------------------------------------------
# builtin maps

BUILTIN_MAPS = {
    "opposite-id": ("x1, x2", 2, "identity F(x) = x on the plane"),
    "shifted": ("x1 + 3, x2 + 3", 2, "translation F(x) = x + (3,3), winding 0"),
    "z2": ("x1^2 - x2^2, 2*x1*x2", 2, "complex squaring, winding 2"),
    "coercive-shift": ("x1 - 2, x2", 2, "coercive translation F(x) = x - (2,0)"),
    "rotation-half": ("(x1 + 0.2)/2, (x2 - 0.1)/2", 2,
                      "contraction f(x) = (x + a)/2 with a = (0.2, -0.1)"),
}


def builtin_map(name: str) -> MapSpec:
    if name not in BUILTIN_MAPS:
        raise InvalidInput(f"unknown builtin map {name!r}")
    text, n, _ = BUILTIN_MAPS[name]
    return parse_map(text, n)
