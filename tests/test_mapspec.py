import math
import re
import time

import numpy as np
import pytest

from zerocert import (BUILTIN_MAPS, DomainError, MapSyntaxError,
                      NonIntegerExponent, Region, UndefinedVariable,
                      builtin_map, evaluate, lipschitz_estimate, parse_map,
                      to_text)
import zerocert.mapspec as mapspec
from zerocert.mapspec import (MAX_DEPTH, Binary, Const, Power, Unary, Var,
                              map_digest)


class TestParsing:
    def test_identity_1d(self):
        spec = parse_map("x1", 1)
        assert spec.n == 1 and spec.m == 1
        assert evaluate(spec, [3.5]) == pytest.approx([3.5])

    def test_z2_map(self):
        spec = parse_map("x1^2 - x2^2, 2*x1*x2", 2)
        assert spec.m == 2
        assert np.allclose(evaluate(spec, [1.0, 1.0]), [0.0, 2.0])

    def test_undefined_variable(self):
        with pytest.raises(UndefinedVariable):
            parse_map("x3", 2)

    def test_syntax_error_position(self):
        with pytest.raises(MapSyntaxError) as err:
            parse_map("x1 + $", 1)
        assert err.value.line == 1
        assert err.value.column == 6

    def test_non_integer_exponent(self):
        with pytest.raises(NonIntegerExponent):
            parse_map("x1^2.5", 1)

    def test_negative_exponent(self):
        spec = parse_map("x1^-1", 1)
        assert evaluate(spec, [4.0]) == pytest.approx([0.25])

    def test_pow_binds_tighter_than_unary_minus(self):
        spec = parse_map("-x1^2", 1)
        assert evaluate(spec, [3.0]) == pytest.approx([-9.0])

    def test_functions(self):
        spec = parse_map("sin(x1), cos(x1)", 1)
        assert np.allclose(evaluate(spec, [0.0]), [0.0, 1.0])

    def test_unknown_identifier(self):
        with pytest.raises(MapSyntaxError):
            parse_map("tan(x1)", 1)

    def test_depth_limit(self):
        deep = "(" * 70 + "x1" + ")" * 70
        with pytest.raises(MapSyntaxError):
            parse_map(deep, 1)

    def test_whitespace_insignificant(self):
        a = parse_map("x1 +\n 2 * x2", 2)
        b = parse_map("x1+2*x2", 2)
        assert a.components == b.components


class TestEvaluation:
    def test_division_by_zero(self):
        spec = parse_map("1/x1", 1)
        with pytest.raises(DomainError):
            evaluate(spec, [0.0])

    def test_sqrt_of_negative(self):
        spec = parse_map("sqrt(x1)", 1)
        with pytest.raises(DomainError):
            evaluate(spec, [-1.0])

    def test_batch_matches_pointwise(self):
        spec = parse_map("x1^2 - x2^2 + sin(x1), 2*x1*x2 - exp(x2)", 2)
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(40, 2))
        batch = evaluate(spec, pts)
        for i, p in enumerate(pts):
            assert np.allclose(batch[i], evaluate(spec, p))

    def test_dimension_mismatch(self):
        from zerocert import InvalidInput
        spec = parse_map("x1, x2", 2)
        with pytest.raises(InvalidInput):
            evaluate(spec, [1.0, 2.0, 3.0])


class TestDigest:
    def test_whitespace_normalized(self):
        assert map_digest("x1 ,  x2") == map_digest("x1,x2")

    def test_stable_value(self):
        # pinned: digests must not drift across runs or platforms
        assert parse_map("x1, x2", 2).digest == map_digest("x1,x2")
        assert len(parse_map("x1", 1).digest) == 64

    def test_distinct_maps_distinct_digests(self):
        assert parse_map("x1", 1).digest != parse_map("x1 + 1", 1).digest


def _random_expr(rng, depth=0):
    choice = rng.integers(0, 6 if depth < 4 else 2)
    if choice == 0:
        return f"{rng.uniform(0.1, 9.9):.3f}"
    if choice == 1:
        return f"x{rng.integers(1, 3)}"
    if choice == 2:
        op = rng.choice(["+", "-", "*"])
        return f"({_random_expr(rng, depth + 1)} {op} {_random_expr(rng, depth + 1)})"
    if choice == 3:
        fn = rng.choice(["sin", "cos", "abs"])
        return f"{fn}({_random_expr(rng, depth + 1)})"
    if choice == 4:
        return f"-({_random_expr(rng, depth + 1)})"
    return f"({_random_expr(rng, depth + 1)})^{rng.integers(1, 4)}"


class TestRoundtrip:
    def test_builtins(self):
        for name in BUILTIN_MAPS:
            spec = builtin_map(name)
            again = parse_map(to_text(spec), spec.n)
            assert again.components == spec.components

    def test_random_expressions(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            text = ", ".join(_random_expr(rng) for _ in range(rng.integers(1, 3)))
            spec = parse_map(text, 2)
            again = parse_map(to_text(spec), 2)
            assert again.components == spec.components


class TestLipschitzEstimate:
    def test_identity(self, unit_disk):
        spec = parse_map("x1, x2", 2)
        est = lipschitz_estimate(spec, unit_disk)
        assert 2.0 <= est <= 2.0001

    def test_constant(self, unit_disk):
        spec = parse_map("3, 4", 2)
        assert lipschitz_estimate(spec, unit_disk) <= 1e-6

    def test_linear(self):
        spec = parse_map("3*x1", 1)
        region = Region.disk([0.0], 1.0)
        assert lipschitz_estimate(spec, region) == pytest.approx(6.0, rel=1e-6)

    @pytest.mark.parametrize("text, region", [
        ("x1^3 - 2*x1 + sin(x1)", Region.disk([0.2], 1.5)),
        ("x1^2 - x2^2 + 0.3, 2*x1*x2 - sin(x2)", Region.disk([0.1, -0.4], 1.3)),
        ("x1*x2, exp(x1) - x2^3, abs(x1)", Region.box([-0.7, -0.7], [1.1, 1.1])),
        ("x1 + x2*x3, x2^2 - x3, cos(x1*x3)", Region.disk([0.5, 0.0, -1.0], 0.8)),
    ])
    def test_one_batch_matches_pointwise_loop(self, text, region, monkeypatch):
        spec = parse_map(text, region.dim)
        calls = []
        monkeypatch.setattr(mapspec, "evaluate",
                            lambda s, x: calls.append(len(x)) or evaluate(s, x))
        est = lipschitz_estimate(spec, region)
        assert calls == [2 * region.dim * 200]
        # reference: one central difference per sample point and axis
        rng = np.random.default_rng(0)
        if region.kind == "disk":
            raw = rng.normal(size=(200, region.dim))
            raw /= np.linalg.norm(raw, axis=1, keepdims=True)
            radii = region.radius * rng.uniform(size=(200, 1)) ** (1.0 / region.dim)
            pts = region.center + raw * radii
        else:
            pts = rng.uniform(region.lower, region.upper, size=(200, region.dim))
        step = 1e-6 * region.diameter
        worst = 0.0
        for p in pts:
            jac = np.empty((spec.m, spec.n))
            for j in range(spec.n):
                e = np.zeros(spec.n)
                e[j] = step
                jac[:, j] = (evaluate(spec, p + e) - evaluate(spec, p - e)) / (2 * step)
            worst = max(worst, float(np.linalg.norm(jac, 2)))
        assert est == 2.0 * worst


# ---------------------------------------------------------------------------
# reference: the character-loop lexer and peek/advance parser that the
# one-scan front end replaced, kept to check that both agree

_REF_TOKEN_RE = re.compile(
    r"(?:(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<sym>[-+*/^(),]))", re.ASCII)


def _ref_tokenize(text):
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
        mo = _REF_TOKEN_RE.match(text, pos)
        if mo is None:
            raise MapSyntaxError(f"unexpected character {ch!r}", line, col)
        tokens.append((mo.lastgroup, mo.group(mo.lastgroup), line, col))
        pos = mo.end()
    tokens.append(("eof", "", line, len(text) - line_start + 1))
    return tokens


class _RefParser:
    def __init__(self, text, n):
        self.tokens = _ref_tokenize(text)
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
            if value in ("sin", "cos", "exp", "sqrt", "abs"):
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


class _RefParserRejectingOverflow(_RefParser):
    """The reference with the one intended change: a literal that rounds
    to infinity is an error at the literal, since ``to_text`` would print
    it as ``inf``, which does not parse."""

    def parse_atom(self, depth):
        kind, value, line, col = self.peek()
        if depth <= MAX_DEPTH and kind == "num" and float(value) == math.inf:
            raise MapSyntaxError(f"number {value!r} out of range", line, col)
        return super().parse_atom(depth)


def _outcome(parse):
    """(tree, digest, to_text) of a successful parse, or the error's
    (type, message, line, column)."""
    try:
        spec = parse()
    except MapSyntaxError as err:
        return type(err), str(err), err.line, err.column
    return spec.components, spec.digest, to_text(spec)


def _ref_outcome(text, n):
    def parse():
        comps = _RefParserRejectingOverflow(text, n).parse_map()
        return mapspec.MapSpec(n=n, m=len(comps), components=tuple(comps),
                               source_text=text, digest=map_digest(text))
    return _outcome(parse)


# fragments of the fuzz: every token kind, whitespace the lexer skips and
# whitespace it rejects, malformed numbers, undefined variables, unicode
# digits and letters, unbalanced parentheses and overflowing literals
_CLEAN = ["x1", "x2", "x3", "x0", "x12", "x01", "x", "1", "0", "2.5", ".5",
          "1.", "3e2", "2E-3", "1e", "1e+", "1e999", "9" * 310, "1e-999",
          "+", "-", "*", "/", "^", "^-", "^2", "^-1", "^.5", ",", "(", ")",
          "((", "))", "(((((", "sin(", "cos(", "exp(", "sqrt(", "abs(", "sin",
          "tan(", "_a", "e", "E5", "\u0663", "x\u0663", " ", "  ", "\n",
          "\r\n", "\r", "\t"]
_FRAGMENTS = _CLEAN + [".", "..", "\u00e9", "$", "#", "\u00a0", "\f", "\v"]


def _fuzz_text(rng, expr_rng):
    kind = rng.integers(4)
    if kind == 0:
        # a valid expression with one fragment inserted or one character
        # deleted, so errors sit deep inside long input
        text = _random_expr(expr_rng)
        pos = int(rng.integers(0, len(text) + 1))
        if rng.random() < 0.5:
            return text[:pos] + _FRAGMENTS[rng.integers(len(_FRAGMENTS))] \
                + text[pos:]
        return text[:pos] + text[pos + 1:]
    if kind == 3:
        # nesting around the depth limit of 15 parentheses or calls
        depth = int(rng.integers(13, 19))
        openers = rng.choice(["(", "sin(", "-(", "abs(", "( "], size=depth)
        closers = ")" * int(rng.integers(depth - 1, depth + 2))
        return "".join(openers) + _random_expr(expr_rng, 3) + closers
    alphabet = _FRAGMENTS if kind == 1 else _CLEAN
    picks = rng.integers(len(alphabet), size=rng.integers(1, 25))
    return "".join(alphabet[k] for k in picks)


class TestOneScanParser:
    def test_fuzz_matches_reference(self):
        rng = np.random.default_rng(2026)
        expr_rng = np.random.default_rng(7)
        kinds = set()
        for _ in range(24_000):
            text = _fuzz_text(rng, expr_rng)
            n = int(rng.integers(1, 4))
            expected = _ref_outcome(text, n)
            assert _outcome(lambda: parse_map(text, n)) == expected, text
            kinds.add(expected[1].split(" (")[0][:20]
                      if isinstance(expected[0], type) else "ok")
        # every kind of outcome occurs
        for start in ("ok", "unexpected character", "unexpected token",
                      "unexpected trailing ", "expected ')', got",
                      "expected '(', got", "unknown identifier", "variable 'x",
                      "exponent must be a ", "expression nesting t",
                      "number '1e999' out "):
            assert any(k.startswith(start) for k in kinds), start

    def test_crlf_error_on_line_3(self):
        for text, message in (("x1 +\r\n x2 *\r\n  )", "unexpected token ')'"),
                              ("x1 +\r\n x2 *\r\n  $", "unexpected character '$'")):
            with pytest.raises(MapSyntaxError, match=re.escape(message)) as err:
                parse_map(text, 2)
            assert (err.value.line, err.value.column) == (3, 3)
            assert _outcome(lambda: parse_map(text, 2)) == _ref_outcome(text, 2)

    def test_end_of_input_column(self):
        with pytest.raises(MapSyntaxError,
                           match="unexpected token 'end of input'") as err:
            parse_map("x1 +\n  x2 *  ", 2)
        assert (err.value.line, err.value.column) == (2, 9)

    @pytest.mark.parametrize("opener", ["(", "sin("])
    def test_depth_limit_position(self, opener):
        # at most 15 nested parentheses or function calls
        parse_map(opener * 15 + "x1" + ")" * 15, 1)
        deep = opener * 16 + "x1" + ")" * 16
        with pytest.raises(MapSyntaxError,
                           match="expression nesting too deep") as err:
            parse_map(deep, 1)
        assert (err.value.line, err.value.column) == (1, 16 * len(opener) + 1)
        assert _outcome(lambda: parse_map(deep, 1)) == _ref_outcome(deep, 1)

    def test_undefined_variable_position(self):
        with pytest.raises(UndefinedVariable) as err:
            parse_map("x1 +\n\t 2*x3", 2)
        assert (err.value.line, err.value.column) == (2, 5)
        assert err.value.name == "x3" and err.value.n == 2

    @pytest.mark.parametrize("text, got, column", [
        ("x1^", "end of input", 4), ("x1^.5", ".5", 4), ("x1^-2e1", "2e1", 5),
        ("x1 ^ x2", "x2", 6)])
    def test_non_integer_exponent_position(self, text, got, column):
        with pytest.raises(NonIntegerExponent,
                           match=re.escape(f"got {got!r}")) as err:
            parse_map(text, 2)
        assert (err.value.line, err.value.column) == (1, column)

    def test_form_feed_is_rejected(self):
        with pytest.raises(MapSyntaxError,
                           match=re.escape("unexpected character '\\x0c'")):
            parse_map("x1 +\f1", 1)

    def test_trailing_whitespace_is_linear(self):
        # a regex that consumes whitespace before each token rescans a
        # whitespace tail at every offset: about 15 s at this size, not 1 ms
        text = "x1" + " " * 20_000
        start = time.perf_counter()
        assert parse_map(text, 1).digest == map_digest("x1")
        with pytest.raises(MapSyntaxError) as err:
            parse_map(text + "$", 1)
        assert err.value.column == 20_003
        assert time.perf_counter() - start < 2.0


class TestAsciiDigits:
    @pytest.mark.parametrize("text, column", [("\u0663", 1), ("x1^\u0663", 4)])
    def test_unicode_digit_is_rejected(self, text, column):
        # a NUMBER is ASCII digits, as a variable index already is
        with pytest.raises(MapSyntaxError,
                           match=re.escape("unexpected character '\u0663'")) as err:
            parse_map(text, 1)
        assert (err.value.line, err.value.column) == (1, column)


class TestOverflowingLiteral:
    def test_rejected_at_the_literal(self):
        with pytest.raises(MapSyntaxError,
                           match=re.escape("number '1e999' out of range")) as err:
            parse_map("1/1e999 + x1", 1)
        assert (err.value.line, err.value.column) == (1, 3)
        with pytest.raises(MapSyntaxError, match="out of range") as err:
            parse_map("x1,\n  " + "9" * 400, 1)
        assert (err.value.line, err.value.column) == (2, 3)

    def test_largest_finite_literal_round_trips(self):
        spec = parse_map("1/1.7976931348623157e308 + x1, 1e-999", 1)
        again = parse_map(to_text(spec), 1)
        assert again.components == spec.components
        assert spec.components[1] == Const(0.0)
