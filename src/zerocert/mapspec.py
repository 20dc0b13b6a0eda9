"""Expression DSL for map specifications.

A map F: R^n -> R^m is written as m comma-separated expressions over the
variables x1..xn, e.g. ``"x1^2 - x2^2, 2*x1*x2"``.  A parse gives its
tape: a flat list of steps ``(op, a, b)``, where ``a`` and ``b`` are
earlier slots (or a variable index, a constant, an exponent).  Equal
subtrees are merged as they are parsed, so they share one slot.  The tape
is the one representation of a map: ``evaluate`` runs it in one loop over a
batch of points, and ``to_text`` prints it in one loop, so a merged subtree
is printed wherever it is used.

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

``x^k`` is binary powering on float64 products, square-and-multiply from
the lowest bit of ``|k|``: ``x^3 = x*x^2``, ``x^4 = x^2*x^2``,
``x^7 = (x*x^2)*x^4``, ``x^-k = 1/x^k``, and ``x^0 = 1`` even for 0, inf
and nan.  Each product rounds once, and the relative error is at most
about ``(|k| - 1) * 2^-53``, one rounding more for a negative ``k``
(measured: at most 1.3, 1.9 and 2.8 ulp for k = 3, 4 and 5, against 0.7
for numpy's ``**`` with AVX-512).  The bits are the same on every IEEE
machine, where numpy's ``**`` rounds by the SIMD path it takes; for
k = -1, 0, 1 and 2 they are the bits of numpy's ``**``.

The lexer pads each symbol with spaces and cuts the text with
``str.split``.  That is the token regex's cut of an ASCII text with no
signed exponent (``1e-5`` is one regex token) and no whitespace but space,
tab, CR and LF.  Any other text, and any text whose split tokens fail to
parse, is lexed by ``_tokenize`` and parsed again: one ``findall`` of the
token regex, which also eats the whitespace after each token, so that a
character it skipped shows as a length mismatch.  The parser refuses a
split token that joins two regex tokens (``2x1``, ``1_0``, ``1.2.3``), so a
parse of split tokens saw the regex tokens, and every error and its
position is that of the regex tokens.

The parser walks the plain list of token strings in one loop per nesting
level: sums, products, unary minus, '^' and leaves seen before take no
parse call, and the sum and product steps merge with one dict lookup each.
Only a parenthesis or a function call recurses, and only the first time
its tokens are seen: the parse is memoized by the group's first two tokens
and checked against all of its tokens, so ``(x1 - 0.5)`` written ten times
is read once, and a repeat at a greater depth is parsed again for the
nesting error.  A negative leaf in parentheses, ``(-0.5)``, emits its leaf
and ``neg`` without a recursion.  No line or column is tracked on the way:
an error scans the text again up to the failing token to report its
position.  A MapSpec's digest is hashed the first time it is read, not by
the parse.
"""
from __future__ import annotations

import hashlib
import math
import operator
import re
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import islice
from typing import NamedTuple

import numpy as np

from .errors import (DomainError, InvalidInput, MapSyntaxError,
                     NonIntegerExponent, UndefinedVariable)
from .geometry import Region, check_count

MAX_DEPTH = 64
# evaluate keeps one array per tape step alive, so it runs a large batch
# this many points at a time to bound that memory
_CHUNK = 8192
_FUNCS = ("sin", "cos", "exp", "sqrt", "abs")
_BINARY = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
           "div": operator.truediv}
_SYMBOLS = {"add": "+", "sub": "-", "mul": "*", "div": "/"}
_UNARY = {"neg": operator.neg, "sin": np.sin, "cos": np.cos, "exp": np.exp,
          "sqrt": np.sqrt, "abs": np.abs}
# the ops that round a numpy scalar operand exactly as the array loop does
_EXACT = frozenset(_BINARY) | {"neg", "pow"}


class Tape(NamedTuple):
    """The steps of a map and the slots of its m outputs."""

    steps: tuple
    outputs: tuple


@dataclass(frozen=True)
class MapSpec:
    """Parsed map F: R^n -> R^m.  ``tape`` is what ``evaluate`` runs and
    ``to_text`` prints; only ``parse_map`` builds it.  Two specs are equal
    when their ``(n, m, source_text)`` are."""

    n: int
    m: int
    source_text: str
    tape: Tape = field(repr=False, compare=False)

    @cached_property
    def digest(self) -> str:
        """``map_digest(source_text)``, the stable content hash, computed
        the first time it is read: a parse does not pay for it."""
        return map_digest(self.source_text)


# ---------------------------------------------------------------------------
# lexer / parser

_TOKEN_RE = re.compile(              # one token and the whitespace after it
    r"([-+*/^(),]|(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?|[A-Za-z_]\w*)"
    r"[ \t\r\n]*", re.ASCII)
_WHITESPACE = " \t\r\n"
_SYMS = frozenset("-+*/^(),") | {""}     # "" is the end-of-input token
_PADDED = [(sym, f" {sym} ") for sym in "-+*/^(),"]
# what sends a text to _tokenize: a signed exponent, and the ASCII
# whitespace that str.split drops but the token regex does not skip
_NOT_SPLIT = ("e-", "e+", "E-", "E+", "\v", "\f", "\x1c", "\x1d", "\x1e",
              "\x1f")


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


def _split_tokens(text: str):
    """The tokens of ``text`` cut by ``str.split`` once each symbol is padded
    with spaces, ending in '', or None when they may not be _tokenize's: a
    text that is not ASCII, holds a signed exponent (``1e-5`` is one token)
    or whitespace other than space, tab, CR and LF.  A token can still join
    two of _tokenize's (``2x1``, ``1.2.3``); the parser refuses it."""
    if not text.isascii() or any(s in text for s in _NOT_SPLIT):
        return None
    padded = text
    for sym, spaced in _PADDED:
        padded = padded.replace(sym, spaced)
    tokens = padded.split()
    tokens.append("")
    return tokens


class _Parser:
    """One pass over the token list.  ``parse_expr`` parses sums, products,
    unary minus, '^' and leaves seen before in one loop; it recurses, by
    ``group``, only into a parenthesis or a function call whose tokens it
    has not parsed before, and reads a negative leaf in parentheses,
    ``(-0.5)``, in place.  ``parse_expr`` and ``group`` take the index of
    their first token and return the tape slot of what they parsed and the
    index after it.

    ``slots`` maps each step ``(op, a, b)`` to its slot, so a subtree seen
    before costs no new step.  ``leaves`` maps each number or variable
    token to its slot, so a leaf that repeats is converted and checked once.
    ``groups`` holds the parenthesized groups parsed, so a group that
    repeats is not read again.
    """

    def __init__(self, text: str, tokens: list, n: int):
        self.text = text
        self.tokens = tokens
        self.n = n
        self.slots = {}      # step -> slot; in insertion order, the tape
        self.leaves = {}     # number or variable token -> slot
        self.scalars = set()  # slots that hold one numpy scalar, not an array
        self.groups = {}     # (first, second token inside) -> first group

    def emit(self, op, a, b=None):
        """Slot of the step ``(op, a, b)``.  ``a`` and ``b`` are slots,
        except in a constant (its np.float64 value), a variable (its 1-based
        index) and ``pow`` (its integer exponent).  A step seen before keeps
        its slot, so equal subtrees share one slot.  A step is a scalar when
        it is a constant, or an exact op (``_EXACT``) whose slot operands
        are scalars; ``parse_expr`` inlines this for sums and products."""
        key = (op, a, b)
        slot = self.slots.get(key)
        if slot is None:
            slots, scalars = self.slots, self.scalars
            slot = slots[key] = len(slots)
            # b is a slot only in a binary op
            if op == "const" or (op in _EXACT and a in scalars
                                 and (op not in _BINARY or b in scalars)):
                scalars.add(slot)
        return slot

    def array(self, slot):
        """``slot``, or a step that broadcasts it to one value per point if
        it holds a scalar.  Scalars round as the array loops do under
        + - * /, neg and ``^`` (products only), but not under a function:
        ``sin(x)`` of a numpy scalar can be one ulp off the array loop."""
        return self.emit("full", slot) if slot in self.scalars else slot

    def error(self, i, exc, *args):
        """``exc(*args, line, column)`` at token ``i``, located by scanning
        the text again up to that token."""
        mo = next(islice(_TOKEN_RE.finditer(self.text), i, None), None)
        pos = mo.start() if mo else len(self.text)   # or the end of input
        return exc(*args, *_position(self.text, pos))

    def parse_expr(self, i, depth):
        # depth grows by 4 per nesting level (expr, term, factor, atom): the
        # 16th nested parenthesis or call fails, on the token after it
        if depth > MAX_DEPTH:
            raise self.error(i, MapSyntaxError, "expression nesting too deep")
        tokens, leaves, emit = self.tokens, self.leaves, self.emit
        # the product and sum steps are emit's, inlined: one setdefault gives
        # the step's slot, new (the length before) or seen before, and a new
        # step is a scalar when both its operands are
        slots, scalars = self.slots, self.scalars
        slot_of = slots.setdefault
        total = add = prod = mul = None      # the sum and product so far
        while True:
            negate = tokens[i] == "-"
            i += negate
            if (slot := leaves.get(tok := tokens[i])) is not None:
                i += 1                       # a number or variable seen before
            elif tok == "(":
                if (tokens[i + 1] == "-" and tokens[i + 2] not in _SYMS
                        and tokens[i + 3] == ")" and depth + 4 <= MAX_DEPTH):
                    # (-leaf): the leaf and its neg, the steps its group's
                    # parse emits, without the recursion
                    if (slot := leaves.get(tokens[i + 2])) is None:
                        slot = self.parse_atom(i + 2)
                    slot = emit("neg", slot)
                    i += 4
                else:
                    slot, i = self.group(i, depth)
            elif tok in _FUNCS and tokens[i + 1] == "(":
                slot, i = self.group(i + 1, depth)
                slot = emit(tok, self.array(slot))
            else:
                slot = self.parse_atom(i)
                i += 1
            if (tok := tokens[i]) == "^":
                negative = tokens[i + 1] == "-"
                i += 1 + negative
                if not (tok := tokens[i]).isdecimal():  # digit-only numbers
                    raise self.error(i, NonIntegerExponent,
                                     tok or "end of input")
                slot = emit("pow", slot, -int(tok) if negative else int(tok))
                i += 1
                tok = tokens[i]
            if negate:
                slot = emit("neg", slot)
            if mul:
                new = len(slots)
                left, prod = prod, slot_of((mul, prod, slot), new)
                if prod == new and left in scalars and slot in scalars:
                    scalars.add(new)
            else:
                prod = slot
            if tok == "*" or tok == "/":
                mul = "mul" if tok == "*" else "div"
            else:
                if add:
                    new = len(slots)
                    left, total = total, slot_of((add, total, prod), new)
                    if total == new and left in scalars and prod in scalars:
                        scalars.add(new)
                else:
                    total = prod
                if tok != "+" and tok != "-":
                    return total, i
                add, mul = "add" if tok == "+" else "sub", None
            i += 1

    def group(self, i, depth):
        """The slot of the parenthesized expression whose '(' is token
        ``i``, and the index after its ')'.

        ``groups`` keeps the first group seen for each pair of first two
        tokens inside it: its tokens through ')', its slot and its depth.  A
        later group with the same tokens at no greater depth is that slot:
        its parse would emit only steps already in ``slots`` and could raise
        no error.  Any other group is parsed, so a nesting error and its
        position are the parse's."""
        tokens = self.tokens
        # a '(' that ends the input has no second token, and its parse raises
        key = (tokens[i + 1], tokens[i + 2]) if tokens[i + 1] else None
        seen = self.groups.get(key)
        if seen is not None:
            body, slot, first_depth = seen
            end = i + len(body)
            if depth <= first_depth and tokens[i:end] == body:
                return slot, end
        slot, end = self.parse_expr(i + 1, depth + 4)
        if tokens[end] != ")":
            raise self.error(end, MapSyntaxError, "expected ')', got "
                             f"{tokens[end] or 'end of input'!r}")
        end += 1
        if seen is None:
            self.groups[key] = tokens[i:end], slot, depth
        return slot, end

    def parse_atom(self, i):
        """The slot of the new number or variable at token ``i``, or the
        error there: a function name without its '(' or any other token."""
        tokens = self.tokens
        tok = tokens[i]
        if tok in _FUNCS:
            raise self.error(i + 1, MapSyntaxError, "expected '(', got "
                             f"{tokens[i + 1] or 'end of input'!r}")
        if tok in _SYMS:
            raise self.error(i, MapSyntaxError,
                             f"unexpected token {tok or 'end of input'!r}")
        if tok[0] == "." or tok[0].isdecimal():     # a number
            # float reads "1_0" and refuses "1.2.3": split tokens that are
            # not one of _tokenize's, which parse_map parses again
            if "_" in tok:
                raise ValueError(f"malformed number {tok!r}")
            value = float(tok)
            if value == math.inf:
                raise self.error(i, MapSyntaxError,
                                 f"number {tok!r} out of range")
            slot = self.emit("const", np.float64(value))
        else:
            if tok[0] != "x" or not tok[1:].isdecimal():
                raise self.error(i, MapSyntaxError,
                                 f"unknown identifier {tok!r}")
            index = int(tok[1:])
            if not 1 <= index <= self.n:
                raise self.error(i, UndefinedVariable, tok, self.n)
            slot = self.emit("var", index)
        self.leaves[tok] = slot
        return slot


def map_digest(text: str) -> str:
    """Stable content hash of the map text, whitespace-normalized."""
    normalized = re.sub(r"\s+", "", text)
    return hashlib.sha256(normalized.encode("utf-8")).hexdigest()


def parse_map(text: str, n: int) -> MapSpec:
    """Parse a comma-separated expression list into a MapSpec."""
    check_count("domain dimension", n, 1)
    tokens = _split_tokens(text)
    if tokens is not None:
        try:
            return _parse(text, tokens, n)
        except (MapSyntaxError, ValueError):
            pass    # parsed again below, for _tokenize's error and position
    return _parse(text, _tokenize(text), n)


def _parse(text: str, tokens: list, n: int) -> MapSpec:
    """The MapSpec of ``text`` from its token list ``tokens``."""
    parser = _Parser(text, tokens, n)
    slot, i = parser.parse_expr(0, 1)
    outputs = [slot]
    while tokens[i] == ",":
        slot, i = parser.parse_expr(i + 1, 1)
        outputs.append(slot)
    if tokens[i]:
        raise parser.error(i, MapSyntaxError,
                           f"unexpected trailing input {tokens[i]!r}")
    return MapSpec(n=n, m=len(outputs), source_text=text,
                   tape=Tape(tuple(parser.slots), tuple(outputs)))


# ---------------------------------------------------------------------------
# evaluation

def evaluate(spec: MapSpec, x) -> np.ndarray:
    """Evaluate the map at a point (n,) or batch (k, n) of real points."""
    try:
        x = np.asarray(x)
    except ValueError:
        raise InvalidInput("points form a ragged nested list") from None
    if x.dtype.kind not in "biuf" or not 1 <= x.ndim <= 2 \
            or x.shape[-1] != spec.n:
        raise InvalidInput(f"points must be a real ({spec.n},) or (k, "
                           f"{spec.n}) array, got {x.dtype} {x.shape}")
    single = x.ndim == 1
    pts = (x[None, :] if single else x).astype(float, copy=False)
    k = len(pts)
    out = np.empty((k, spec.m))
    with np.errstate(all="ignore"):
        for lo in range(0, k, _CHUNK):
            rows = pts[lo:lo + _CHUNK]
            vals = []
            for op, a, b in spec.tape.steps:
                if op in _BINARY:
                    vals.append(_BINARY[op](vals[a], vals[b]))
                elif op == "pow":
                    vals.append(_power(vals[a], b))
                elif op == "var":
                    vals.append(rows[:, a - 1])
                elif op == "const":
                    vals.append(a)
                elif op == "full":
                    vals.append(np.full(len(rows), vals[a]))
                else:
                    vals.append(_UNARY[op](vals[a]))
            for j, slot in enumerate(spec.tape.outputs):
                out[lo:lo + _CHUNK, j] = vals[slot]
    _check_finite(pts, out, "non-finite value (division by zero or sqrt of "
                            "a negative)")
    return out[0] if single else out


def _power(x, k):
    """``x^k`` by square-and-multiply from the lowest bit of ``|k|``."""
    if k == 0:
        return np.ones_like(x)
    e, square, result = abs(k), x, None
    while True:
        if e & 1:
            result = square if result is None else result * square
        e >>= 1
        if not e:
            return 1.0 / result if k < 0 else result
        square = square * square


def _check_finite(pts, out, detail):
    """DomainError at the first point whose row of ``out`` is not finite."""
    finite = np.isfinite(out)
    if not finite.all():
        row = int(np.argmin(finite.all(axis=1)))
        raise DomainError(pts[row], detail)


def as_evaluator(map_like, n=None, codomain=None):
    """The one evaluation contract: a batch evaluator that takes (k, n)
    points and returns a finite float64 (k, m) ndarray.

    A route passes its domain dimension ``n`` and, if it needs m = n, its
    message ``codomain``.  A MapSpec of another n raises InvalidInput, and
    then one with m != n InvalidInput(codomain), both before any evaluation;
    it then goes through ``evaluate``, which checks its own output.  A callable gets its
    own copy of the points, which it may write into, and each call's output
    is converted once: it must be a real 2-D array (or nested list) with
    one row per point, else InvalidInput, n wide when ``codomain`` is
    given, else InvalidInput(codomain), and a non-finite row raises
    DomainError.
    """
    if isinstance(map_like, MapSpec):
        if n is not None and map_like.n != n:
            raise InvalidInput(
                f"map domain dimension {map_like.n} != region dimension {n}")
        if codomain is not None and map_like.m != n:
            raise InvalidInput(codomain)
        return lambda pts: evaluate(map_like, pts)
    if not callable(map_like):
        raise InvalidInput(
            f"expected MapSpec or callable, got {type(map_like)!r}")

    def checked(pts):
        values = map_like(pts.copy())
        try:
            out = np.asarray(values)
        except ValueError:
            raise InvalidInput("map returned a ragged nested list") from None
        if out.dtype.kind not in "biuf" or out.ndim != 2 or len(out) != len(pts):
            raise InvalidInput(
                f"map returned a {out.dtype} array of shape {out.shape} for "
                f"{len(pts)} points, not one row of real values per point")
        if codomain is not None and out.shape[1] != n:
            raise InvalidInput(codomain)
        out = out.astype(float, copy=False)
        _check_finite(pts, out, "non-finite value")
        return out
    return checked


# ---------------------------------------------------------------------------
# pretty printing

def to_text(spec: MapSpec) -> str:
    """Canonical text form, printed from the tape: each step's text is built
    from its operands' texts, so a merged step is printed wherever it is
    used.  Re-parsing yields the same tape."""
    steps, texts = spec.tape.steps, []
    for op, a, b in steps:
        if op in _BINARY:
            texts.append(f"({texts[a]} {_SYMBOLS[op]} {texts[b]})")
        elif op == "const":
            texts.append(repr(float(a)))
        elif op == "var":
            texts.append(f"x{a}")
        elif op == "pow":
            leaf = steps[a][0] in ("const", "var")
            texts.append(f"{texts[a]}^{b}" if leaf else f"({texts[a]})^{b}")
        elif op == "full":
            texts.append(texts[a])
        elif op == "neg":
            texts.append(f"(-{texts[a]})")
        else:
            texts.append(f"{op}({texts[a]})")
    return ", ".join([texts[s] for s in spec.tape.outputs])


# ---------------------------------------------------------------------------
# derivative-based Lipschitz estimation

# the sample count, and the margins of the spectral-norm screens, which
# cover the rounding of both norms: the squared one of the Frobenius
# screen, and that of the 2x2 Gram eigenvalue, whose rounding is a few ulp
# of |J|_F^2 <= 2 |J|_2^2
_LIPSCHITZ_SAMPLES = 200
_SCREEN = (1.0 - 1e-9) ** 2
_GRAM_SCREEN = 1.0 - 1e-12


@cache
def _lipschitz_pattern(kind: str, dim: int) -> tuple:
    """The draws of ``default_rng(0)`` behind ``lipschitz_estimate``'s
    samples, read-only: for a disk the unit directions and ``u^(1/dim)``,
    for a box ``u`` uniform in [0, 1).  ``u^(1/dim)`` is Python's float
    ``**``, whose bits do not depend on the SIMD path numpy dispatches to;
    for dim 1 and 2 they are numpy's."""
    rng = np.random.default_rng(0)
    if kind == "disk":
        raw = rng.normal(size=(_LIPSCHITZ_SAMPLES, dim))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        u = rng.uniform(size=_LIPSCHITZ_SAMPLES).tolist()
        pattern = raw, np.array([[v ** (1.0 / dim)] for v in u])
    else:
        pattern = (rng.random((_LIPSCHITZ_SAMPLES, dim)),)
    for a in pattern:
        a.flags.writeable = False
    return pattern


def lipschitz_estimate(spec: MapSpec, region: Region) -> float:
    """Heuristic Lipschitz constant: 2x the max sampled Jacobian norm.

    Forward finite differences with step 1e-6 * region diameter at a
    deterministic sample of 200 interior points: each sample p and its n
    probes ``q_j = p + step * e_j`` are evaluated in one batch, n + 1
    points per sample, and ``J[:, j] = (F(q_j) - F(p)) / s_j`` for the step
    ``s_j = (q_j - p)_j`` the probe took after rounding, which at a large
    ``p_j`` can be far from ``step``.  The sample's pattern is drawn from
    ``default_rng(0)`` once per region kind and dimension and kept
    read-only: on a disk ``center + u_dir * (radius * u^(1/n))``, on a box
    ``lower + (upper - lower) * u``, which is
    ``rng.uniform(lower, upper)`` bit for bit.  Only the Jacobians that
    can hold the largest ``|J|_2`` get an SVD, so the estimate is that of
    all 200.  When ``min(m, n) == 2`` they are those whose ``|J|_2^2``,
    the larger eigenvalue of the 2x2 Gram matrix, is within
    ``1 - 1e-12`` of the largest: its rounding is a few ulp of ``|J|_F^2
    <= 2 |J|_2^2``, and a linear map, whose Jacobians all tie, keeps a few
    of them.  Otherwise they are those with ``|J|_F >= max |J|_F *
    (1 - 1e-9) / sqrt(min(m, n))``, since ``|J|_F >= |J|_2 >= |J|_F /
    sqrt(min(m, n))``.

    The map is reached through ``as_evaluator``, so a region of another
    dimension than the map's domain raises InvalidInput before any
    evaluation.  So does a region whose diameter is not finite, and one too
    small for its position, where a probe rounds back onto its sample and
    that column of J would read 0.
    """
    n = region.dim
    ev = as_evaluator(spec, n)
    step = 1e-6 * region.diameter
    if not math.isfinite(step):
        raise InvalidInput("region too wide for a Lipschitz estimate: "
                           "its diameter is not finite")
    if region.kind == "disk":
        directions, scale = _lipschitz_pattern("disk", n)
        pts = region.center + directions * (region.radius * scale)
    else:
        (u,) = _lipschitz_pattern("box", n)
        pts = region.lower + (region.upper - region.lower) * u
    # one batch, ordered p, p + step*e_1, ..., p + step*e_n for each sample p
    shifts = np.concatenate((np.zeros((1, n)), step * np.eye(n)))
    probes = pts[:, None, :] + shifts
    # probe j differs from its sample in coordinate j alone, by the step it
    # took after rounding
    moved = np.diagonal(probes[:, 1:], axis1=1, axis2=2) - pts
    stuck = moved == 0.0
    if stuck.any():
        k, j = np.argwhere(stuck)[0]
        raise InvalidInput(
            f"region too small for a Lipschitz estimate: the step {step:g} "
            f"along x{j + 1} does not move the sample {pts[k].tolist()}")
    values = ev(probes.reshape(-1, n)).reshape(len(pts), n + 1, -1)
    m = values.shape[2]
    jac = (values[:, 1:] - values[:, :1]).transpose(0, 2, 1) / moved[:, None]
    # scaled so that the largest entry is 1, no square overflows and the
    # largest sum is at least 1
    peak = float(np.max(np.abs(jac)))
    if 0.0 < peak < math.inf:
        scaled = jac / peak
        if min(m, n) == 2:
            # |J|_2^2 is the larger eigenvalue of the 2x2 Gram matrix
            # [[a, b], [b, d]]: J^T J for two columns, else J J^T
            pair = scaled if n == 2 else scaled.transpose(0, 2, 1)
            a, d = np.einsum("kij,kij->jk", pair, pair)
            b = np.einsum("ki,ki->k", pair[:, :, 0], pair[:, :, 1])
            half = 0.5 * (a - d)
            norm2 = 0.5 * (a + d) + np.sqrt(half * half + b * b)
            jac = jac[norm2 >= norm2.max() * _GRAM_SCREEN]
        else:
            frob2 = np.einsum("kij,kij->k", scaled, scaled)
            jac = jac[frob2 >= frob2.max() * (_SCREEN / min(m, n))]
    # a Jacobian's 2-norm is its largest singular value, which svd lists first
    return 2.0 * float(np.linalg.svd(jac, compute_uv=False)[:, 0].max())


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
