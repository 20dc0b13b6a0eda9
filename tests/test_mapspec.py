import numpy as np
import pytest

from zerocert import (BUILTIN_MAPS, DomainError, MapSyntaxError,
                      NonIntegerExponent, Region, UndefinedVariable,
                      builtin_map, evaluate, lipschitz_estimate, parse_map,
                      to_text)
import zerocert.mapspec as mapspec
from zerocert.mapspec import map_digest


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

    def test_sample_floor(self, unit_disk):
        from zerocert import InvalidInput
        with pytest.raises(InvalidInput):
            lipschitz_estimate(parse_map("x1, x2", 2), unit_disk, samples=10)
