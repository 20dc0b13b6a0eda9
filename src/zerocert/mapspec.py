"""Expression DSL for map specifications.

A map F: R^n -> R^m is written as m comma-separated expressions over the
variables x1..xn, e.g. ``"x1^2 - x2^2, 2*x1*x2"``.  Parsing produces an
immutable tree; evaluation is vectorized over batches of points.

Grammar::

    map    := expr (',' expr)*
    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := ['-'] atom ['^' integer]
    atom   := number | 'x' integer | func '(' expr ')' | '(' expr ')'
    func   := 'sin' | 'cos' | 'exp' | 'sqrt' | 'abs'

'^' binds tighter than unary minus; whitespace is insignificant.
"""
from __future__ import annotations

import hashlib
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

_TOKEN_RE = re.compile(
    r"(?:(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<sym>[-+*/^(),]))")


def _tokenize(text: str):
    tokens = []
    pos, line, line_start = 0, 1, 0
    while pos < len(text):
        ch = text[pos]
        if ch in " \t\r":
            pos += 1
            continue
        if ch == "\n":
            pos += 1
            line += 1
            line_start = pos
            continue
        col = pos - line_start + 1
        mo = _TOKEN_RE.match(text, pos)
        if mo is None:
            raise MapSyntaxError(f"unexpected character {ch!r}", line, col)
        tokens.append((mo.lastgroup, mo.group(mo.lastgroup), line, col))
        pos = mo.end()
    tokens.append(("eof", "", line, len(text) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, text: str, n: int):
        self.tokens = _tokenize(text)
        self.i = 0
        self.n = n

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_sym(self, sym):
        kind, value, line, col = self.peek()
        if kind != "sym" or value != sym:
            raise MapSyntaxError(f"expected {sym!r}, got {value or 'end of input'!r}",
                                 line, col)
        return self.advance()

    def parse_map(self):
        comps = [self.parse_expr(0)]
        while self.peek()[:2] == ("sym", ","):
            self.advance()
            comps.append(self.parse_expr(0))
        kind, value, line, col = self.peek()
        if kind != "eof":
            raise MapSyntaxError(f"unexpected trailing input {value!r}", line, col)
        return comps

    def parse_expr(self, depth):
        self.check_depth(depth)
        node = self.parse_term(depth + 1)
        while self.peek()[:2] in (("sym", "+"), ("sym", "-")):
            op = "add" if self.advance()[1] == "+" else "sub"
            node = Binary(op, node, self.parse_term(depth + 1))
        return node

    def parse_term(self, depth):
        self.check_depth(depth)
        node = self.parse_factor(depth + 1)
        while self.peek()[:2] in (("sym", "*"), ("sym", "/")):
            op = "mul" if self.advance()[1] == "*" else "div"
            node = Binary(op, node, self.parse_factor(depth + 1))
        return node

    def parse_factor(self, depth):
        self.check_depth(depth)
        negate = False
        if self.peek()[:2] == ("sym", "-"):
            self.advance()
            negate = True
        node = self.parse_atom(depth + 1)
        if self.peek()[:2] == ("sym", "^"):
            self.advance()
            node = Power(node, self.parse_exponent())
        if negate:
            node = Unary("neg", node)
        return node

    def parse_exponent(self):
        sign = 1
        if self.peek()[:2] == ("sym", "-"):
            self.advance()
            sign = -1
        kind, value, line, col = self.advance()
        if kind != "num":
            raise NonIntegerExponent(value or "end of input", line, col)
        if any(c in value for c in ".eE"):
            raise NonIntegerExponent(value, line, col)
        return sign * int(value)

    def parse_atom(self, depth):
        self.check_depth(depth)
        kind, value, line, col = self.advance()
        if kind == "num":
            return Const(float(value))
        if kind == "name":
            if re.fullmatch(r"x\d+", value):
                index = int(value[1:])
                if not 1 <= index <= self.n:
                    raise UndefinedVariable(value, self.n, line, col)
                return Var(index)
            if value in _FUNCS:
                self.expect_sym("(")
                arg = self.parse_expr(depth + 1)
                self.expect_sym(")")
                return Unary(value, arg)
            raise MapSyntaxError(f"unknown identifier {value!r}", line, col)
        if (kind, value) == ("sym", "("):
            node = self.parse_expr(depth + 1)
            self.expect_sym(")")
            return node
        raise MapSyntaxError(f"unexpected token {value or 'end of input'!r}",
                             line, col)

    def check_depth(self, depth):
        if depth > MAX_DEPTH:
            kind, value, line, col = self.peek()
            raise MapSyntaxError("expression nesting too deep", line, col)


def map_digest(text: str) -> str:
    """Stable content hash of the map text, whitespace-normalized."""
    normalized = re.sub(r"\s+", "", text)
    return hashlib.sha256(normalized.encode("utf-8")).hexdigest()


def parse_map(text: str, n: int) -> MapSpec:
    """Parse a comma-separated expression list into a MapSpec."""
    if n < 1:
        raise InvalidInput(f"domain dimension must be >= 1, got {n}")
    comps = _Parser(text, n).parse_map()
    return MapSpec(n=n, m=len(comps), components=tuple(comps),
                   source_text=text, digest=map_digest(text))


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

def lipschitz_estimate(spec: MapSpec, region: Region, samples: int = 200) -> float:
    """Heuristic Lipschitz constant: 2x the max sampled Jacobian norm.

    Central finite differences with step 1e-6 * region diameter at a
    deterministic sample of interior points.
    """
    if samples < 100:
        raise InvalidInput("need at least 100 samples")
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
