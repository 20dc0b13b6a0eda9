import functools
import hashlib
import importlib.util
import json
import math
import operator
import os
import re
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np
import pytest

import zerocert
from zerocert import (BUILTIN_MAPS, DomainError, InvalidInput,
                      MapSyntaxError, NonIntegerExponent, Region,
                      SampledMap, UndefinedVariable, boundary_nonvanishing,
                      box_winding, brouwer_fixed_point, builtin_map,
                      certify_existence, evaluate, lipschitz_estimate,
                      locate_zero, parse_map, poincare_bohl, sample_sphere,
                      to_text, winding_number)
from zerocert.cli import certificate_dumps, main
import zerocert.mapspec as mapspec
from zerocert.mapspec import (_EXACT, _FUNCS, _SYMS, _WHITESPACE, MAX_DEPTH,
                              MapSpec, Tape, _position, _tokenize, _TOKEN_RE,
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
        assert a.tape == b.tape


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

    @pytest.mark.parametrize("points", [
        np.float64(3.0), np.zeros((2, 2, 2)), [[1, "a"]], [[1, 2], [3]],
        np.array([1.0 + 2.0j, 3.0]), [[1.0, 2.0j]], [[1.0, None]]],
        ids=["scalar", "3-d", "string", "ragged", "complex", "complex-list",
             "object"])
    def test_bad_points_raise_invalid_input(self, points):
        spec = parse_map("x1*x2, x1", 2)
        with pytest.raises(InvalidInput):
            evaluate(spec, points)

    def test_integer_and_boolean_points_are_real(self):
        spec = parse_map("x1*x2, x1", 2)
        assert evaluate(spec, [[3, 2]]).tolist() == [[6.0, 3.0]]
        assert evaluate(spec, np.array([True, False])).tolist() == [0.0, 1.0]


class TestPowerSemantics:
    def test_products_match_python_floats(self):
        spec = parse_map("x1^3, x1^4, x1^7, x1^-3, x1^1, x1^2, x1^-1", 1)
        rng = np.random.default_rng(11)
        xs = np.concatenate([rng.normal(scale=3.0, size=500),
                             rng.uniform(-1e40, 1e40, size=100),
                             [1e-40, -2.5e-44, 1.0, -1.0]])
        got = evaluate(spec, xs[:, None])
        for x, row in zip(xs.tolist(), got.tolist()):
            x2 = x * x
            x3 = x * x2
            assert row == [x3, x2 * x2, x3 * (x2 * x2), 1.0 / x3, x, x2,
                           1.0 / x], x

    def test_zeroth_power_is_one(self):
        spec = parse_map("x1^0, (x1 / x1)^0", 1)
        pts = [[0.0], [math.inf], [-math.inf], [math.nan], [-0.0], [2.5]]
        assert evaluate(spec, pts).tolist() == [[1.0, 1.0]] * len(pts)

    # numpy's ** takes a fast path of plain products at these exponents
    @pytest.mark.parametrize("k", [-1, 0, 1, 2])
    def test_small_exponents_equal_numpy(self, k):
        rng = np.random.default_rng(k + 10)
        x = np.concatenate([
            rng.normal(scale=2.0, size=10000),
            np.exp(rng.uniform(-700.0, 700.0, size=10000)),
            [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1.7e308]])
        with np.errstate(all="ignore"):
            want = x ** float(k)
            assert mapspec._power(x, k).tobytes() == want.tobytes()
        finite = np.isfinite(want) & (x != 0.0)
        got = evaluate(parse_map(f"x1^{k}", 1), x[finite][:, None])[:, 0]
        assert got.tobytes() == want[finite].tobytes()

    @pytest.mark.parametrize("text, bad", [
        ("x1^-3", 0.0), ("x1^-2 + 1", -0.0), ("(x1 - 1)^-7", 1.0),
        ("x1^5", 1e70), ("x1^4 - x1^4", -1e80), ("x1^-1", 0.0)])
    def test_domain_error_at_the_first_bad_row(self, text, bad):
        # the second column numbers the rows; rows 3 and 6 both fail
        pts = np.stack([np.linspace(1.5, 3.0, 8), np.arange(8.0)], axis=1)
        pts[[3, 6], 0] = bad
        with pytest.raises(DomainError) as err:
            evaluate(parse_map(text + ", x2", 2), pts)
        assert err.value.point.tobytes() == pts[3].tobytes()

    def test_same_bytes_without_avx512(self):
        # numpy ignores feature names it does not know, so this runs anywhere
        text = "x1^3, x1^4, x1^-3, x1^7"
        code = ("import sys, numpy as np, zerocert as z; "
                "x = np.random.default_rng(2).uniform(-3.0, 3.0, (1000, 1)); "
                f"sys.stdout.write(z.evaluate(z.parse_map({text!r}, 1), x)"
                ".tobytes().hex())")
        src = os.path.dirname(os.path.dirname(zerocert.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src,
                     NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4"),
            timeout=60)
        assert proc.returncode == 0, proc.stderr
        x = np.random.default_rng(2).uniform(-3.0, 3.0, (1000, 1))
        assert proc.stdout == evaluate(parse_map(text, 1), x).tobytes().hex()


def _shift(*a):
    return lambda pts: pts - np.array(a)


# entry point -> (map F as an ndarray-returning callable, run(F) -> answer)
_ENTRY_POINTS = {
    "certify_n1": (_shift(0.3), lambda F: certificate_dumps(
        certify_existence(F, Region.disk([0.0], 1.0)))),
    "certify_n1_lipschitz": (_shift(0.3), lambda F: certificate_dumps(
        certify_existence(F, Region.disk([0.0], 1.0), lipschitz=1.0))),
    "certify_n2": (_shift(0.3, -0.2), lambda F: certificate_dumps(
        certify_existence(F, Region.disk([0.0, 0.0], 1.0)))),
    "certify_n2_lipschitz": (_shift(0.3, -0.2), lambda F: certificate_dumps(
        certify_existence(F, Region.disk([0.0, 0.0], 1.0), lipschitz=1.0))),
    "certify_n3": (_shift(0.1, 0.2, -0.1), lambda F: certificate_dumps(
        certify_existence(F, Region.disk(np.zeros(3), 1.0), level=1))),
    "certify_n3_lipschitz": (_shift(0.1, 0.2, -0.1), lambda F: certificate_dumps(
        certify_existence(F, Region.disk(np.zeros(3), 1.0), level=1,
                          lipschitz=1.0))),
    "boundary_nonvanishing": (_shift(0.3, -0.2), lambda F: repr(
        boundary_nonvanishing(F, Region.disk([0.0, 0.0], 1.0)).margin)),
    "poincare_bohl": (_shift(0.3, -0.2), lambda F: repr(
        poincare_bohl(F, Region.disk([0.0, 0.0], 1.0)).margin)),
    "winding_number": (_shift(0.3, -0.2), lambda F: winding_number(
        SampledMap.from_evaluator(F, sample_sphere(
            Region.disk([0.0, 0.0], 1.0)))).value),
    "box_winding": (_shift(0.3, -0.2),
                    lambda F: box_winding(F, [-1.0, -1.0], [1.0, 1.0])),
    "locate_zero_1d": (_shift(0.3), lambda F: locate_zero(
        F, Region.box([-1.0], [1.0])).point.tobytes()),
    # the zero beyond x1 = 0.45, so that the tail's second stencil and then
    # the top box evaluate a NaN row
    "locate_zero_2d": (_shift(0.5, -0.2), lambda F: locate_zero(
        F, Region.box([-1.0, -1.0], [1.0, 1.0])).point.tobytes()),
    "brouwer_fixed_point": (lambda pts: 0.5 * pts + [0.1, -0.05],
                            lambda F: brouwer_fixed_point(F, n=2)
                            .point.tobytes()),
}


class TestEvaluatorContract:
    """Every entry point reads a callable through as_evaluator: the same bad
    output gets the same typed error on every route."""

    @pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
    def test_non_finite_rows_raise_domain_error(self, entry):
        F, run = _ENTRY_POINTS[entry]
        with pytest.raises(DomainError) as err:
            run(lambda pts: np.where(pts[:, :1] > 0.45, np.nan, F(pts)))
        assert err.value.point[0] > 0.45     # a point where F is NaN

    @pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
    def test_flat_output_raises_invalid_input(self, entry):
        F, run = _ENTRY_POINTS[entry]
        with pytest.raises(InvalidInput, match="one row of real values"):
            run(lambda pts: F(pts)[:, 0])

    @pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
    def test_list_of_lists_is_accepted(self, entry):
        F, run = _ENTRY_POINTS[entry]
        assert run(lambda pts: F(pts).tolist()) == run(F)

    def test_mapspec_evaluator_is_evaluate(self, monkeypatch):
        # the MapSpec path reaches evaluate through the module global, so a
        # rebinding of mapspec.evaluate sees every call, merged map or not
        calls = []
        original = mapspec.evaluate
        monkeypatch.setattr(mapspec, "evaluate",
                            lambda s, x: calls.append(len(x)) or original(s, x))
        for text in ("x1 - 0.3, x2",
                     "(x1 - 0.5)^2 + (x1 - 0.5)^2, sin(x1 - 0.5)"):
            calls.clear()
            ev = mapspec.as_evaluator(parse_map(text, 2))
            assert ev(np.zeros((3, 2))).shape == (3, 2) and calls == [3]
            assert ev(np.zeros((5, 2))).shape == (5, 2) and calls == [3, 5]

    @pytest.mark.parametrize("output", [
        [[1.0, 2.0], [3.0]],                # ragged
        [["a", "b"]],
        [[None, 1.0]],
        np.array([[1.0 + 1.0j, 0.0]]),      # would lose its imaginary part
    ])
    def test_no_real_array_raises_invalid_input(self, output):
        ev = mapspec.as_evaluator(lambda pts: output)
        with pytest.raises(InvalidInput, match="^map returned"):
            ev(np.zeros((len(output), 2)))

    def test_not_a_map(self):
        with pytest.raises(InvalidInput):
            mapspec.as_evaluator("x1, x2")


class TestDigest:
    def test_whitespace_normalized(self):
        assert map_digest("x1 ,  x2") == map_digest("x1,x2")

    def test_stable_value(self):
        # pinned: digests must not drift across runs or platforms
        assert parse_map("x1, x2", 2).digest == map_digest("x1,x2")
        assert len(parse_map("x1", 1).digest) == 64

    def test_distinct_maps_distinct_digests(self):
        assert parse_map("x1", 1).digest != parse_map("x1 + 1", 1).digest

    # one text of each lexer path: split, and regex for its signed exponent
    TEXTS = ("x1^2 - x2^2 -\t0.3,\r\n 2*x1*x2\t- 0.1",
             "1e-05*x1^2 + x1 - 2.5e+3*x2^3 + 0.25, x2 - 1E-2*x1")

    def test_hashed_when_read(self, monkeypatch):
        # neither a parse nor a certificate hashes; the first read does
        def refuse(*args):
            raise AssertionError("sha256 called")

        monkeypatch.setattr(hashlib, "sha256", refuse)
        specs = [parse_map(text, 2) for text in self.TEXTS]
        certs = [certify_existence(spec, Region.disk([0.0, 0.0], 1.0))
                 for spec in specs]
        with pytest.raises(AssertionError, match="sha256 called"):
            certs[0].map_digest
        monkeypatch.undo()
        for text, spec, cert in zip(self.TEXTS, specs, certs):
            assert cert.spec is spec
            assert spec.digest == map_digest(text)
            assert cert.map_digest == map_digest(text)
            assert json.loads(certificate_dumps(cert))["map_digest"] \
                == map_digest(text)

    def test_hashed_once(self, monkeypatch):
        calls = []

        def counted(*args, original=hashlib.sha256):
            calls.append(args)
            return original(*args)

        spec = parse_map("x1, x2", 2)
        monkeypatch.setattr(hashlib, "sha256", counted)
        assert spec.digest == spec.digest == map_digest("x1,x2")
        assert len(calls) == 2      # the first read and map_digest

    def test_cli_json(self, capsys):
        text = self.TEXTS[0]
        assert main(["certify", "--map", text, "--n", "2", "--center=0,0",
                     "--radius", "1"]) == 0
        digest = json.loads(capsys.readouterr().out)["map_digest"]
        assert digest == map_digest(text) == hashlib.sha256(
            b"x1^2-x2^2-0.3,2*x1*x2-0.1").hexdigest()

    def test_callable_certificate_reads_the_empty_digest(self):
        cert = certify_existence(lambda pts: pts, Region.disk([0.0, 0.0], 1.0))
        assert cert.spec is None and cert.map_digest == ""

    def test_whitespace_variants(self):
        # they differ as specs, by their source text, and share the digest
        tight, loose = parse_map("x1,x2", 2), parse_map(" x1 ,\t x2\r\n", 2)
        assert tight != loose and tight.tape == loose.tape
        assert tight.digest == loose.digest == map_digest("x1,x2")
        again = parse_map("x1,x2", 2)
        assert again == tight and hash(again) == hash(tight)

    def test_no_digest_field(self):
        spec = parse_map("x1", 1)
        assert "digest" not in repr(spec)
        assert MapSpec(n=1, m=1, source_text="x1", tape=spec.tape) == spec


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
            assert again.tape == spec.tape

    def test_random_expressions(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            text = ", ".join(_random_expr(rng) for _ in range(rng.integers(1, 3)))
            spec = parse_map(text, 2)
            again = parse_map(to_text(spec), 2)
            assert again.tape == spec.tape


def _fresh_samples(region):
    """The 200 sample points of ``lipschitz_estimate``, drawn afresh from
    ``default_rng(0)``, with each radial factor from Python's float ``**``."""
    rng = np.random.default_rng(0)
    if region.kind == "disk":
        raw = rng.normal(size=(200, region.dim))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        scale = [[u ** (1.0 / region.dim)]
                 for u in rng.uniform(size=200).tolist()]
        return region.center + raw * (region.radius * np.array(scale))
    return rng.uniform(region.lower, region.upper, size=(200, region.dim))


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

    def test_far_sample_divides_by_the_step_taken(self):
        # the step 2e-5 is about 10 float spacings of 1e10, so each probe
        # rounds; over the nominal step the estimate read 5.72
        spec = parse_map("3*(x1 - 1e10)", 1)
        assert lipschitz_estimate(spec, Region.disk([1e10], 10.0)) == 6.0

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
        assert calls == [(region.dim + 1) * 200]
        # reference: one forward difference per sample point and axis, over
        # the step the probe took
        step = 1e-6 * region.diameter
        worst = 0.0
        for p in _fresh_samples(region):
            jac = np.empty((spec.m, spec.n))
            for j in range(spec.n):
                e = np.zeros(spec.n)
                e[j] = step
                q = p + e
                jac[:, j] = ((evaluate(spec, q) - evaluate(spec, p))
                             / (q[j] - p[j]))
            worst = max(worst, float(np.linalg.norm(jac, 2)))
        assert est == 2.0 * worst

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_one_batch_of_n_plus_one_points_per_sample(self, n, monkeypatch):
        spec = parse_map(", ".join(f"x{i}^2" for i in range(1, n + 1)), n)
        calls = []
        monkeypatch.setattr(mapspec, "evaluate",
                            lambda s, x: calls.append(len(x)) or evaluate(s, x))
        lipschitz_estimate(spec, Region.disk(np.full(n, 0.3), 1.2))
        assert calls == [(n + 1) * 200]

    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    def test_holomorphic_map_within_1e_5_of_its_derivative(self, degree):
        # |J|_2 of z -> p(z) is |p'(z)|; disks and roots as in the
        # certify-plane benchmark
        rng = np.random.default_rng(degree)
        for _ in range(16):
            centre = rng.uniform(-1.0, 1.0, 2)
            radius = float(rng.uniform(0.5, 2.0))
            roots = complex(*centre) + radius * rng.uniform(0.0, 2.5, degree) \
                * np.exp(2j * np.pi * rng.uniform(size=degree))
            coeffs = rng.uniform(0.5, 2.0) \
                * np.exp(2j * np.pi * rng.uniform()) * np.poly(roots)
            spec = parse_map(_complex_poly_text(coeffs), 2)
            region = Region.disk(centre, radius)
            z = _fresh_samples(region) @ [1.0, 1j]
            want = float(np.max(np.abs(np.polyval(np.polyder(coeffs), z))))
            est = lipschitz_estimate(spec, region)
            assert est / 2.0 == pytest.approx(want, rel=1e-5, abs=0.0), \
                (spec.source_text, region)


def _complex_poly_text(coeffs):
    """``Re p(x1 + i*x2), Im p(x1 + i*x2)`` expanded into monomials, for
    complex ``coeffs`` listed highest degree first."""
    re_terms, im_terms = [], []
    for k, a in enumerate(coeffs[::-1]):
        for j in range(k + 1):          # a * C(k, j) * x1^(k-j) * (i*x2)^j
            c = a * math.comb(k, j) * 1j ** j
            monomial = f"x1^{k - j}*x2^{j}"
            re_terms.append(f"({float(c.real)!r})*{monomial}")
            im_terms.append(f"({float(c.imag)!r})*{monomial}")
    return f"{' + '.join(re_terms)}, {' + '.join(im_terms)}"


def _unscreened_estimate(spec, region):
    """The estimate at ``_fresh_samples`` with an SVD of every one of the
    200 Jacobians, each column over the step its probe took."""
    pts = _fresh_samples(region)
    step = 1e-6 * region.diameter
    shifts = np.concatenate((np.zeros((1, spec.n)), step * np.eye(spec.n)))
    probes = pts[:, None, :] + shifts
    axes = np.arange(spec.n)
    moved = probes[:, 1 + axes, axes] - pts
    values = evaluate(spec, probes.reshape(-1, spec.n))
    values = values.reshape(200, spec.n + 1, spec.m)
    jac = (values[:, 1:] - values[:, :1]).transpose(0, 2, 1) \
        / moved[:, None, :]
    return 2.0 * float(np.max(np.linalg.norm(jac, 2, axis=(1, 2))))


def _lipschitz_case(rng, m, n, constant):
    """A random map R^n -> R^m and a random disk or box in R^n."""
    def term():
        if constant:
            return f"{rng.uniform(-3.0, 3.0):.5f}"
        xs = [f"x{rng.integers(1, n + 1)}" for _ in range(rng.integers(1, 4))]
        factor = "*".join(f"{x}^{rng.integers(1, 5)}" for x in xs)
        inner = [factor, f"sin({factor})", f"cos({factor})",
                 f"{factor}*exp({xs[0]})"][rng.integers(0, 4)]
        return f"{rng.uniform(-3.0, 3.0):.5f}*{inner}"
    text = ", ".join(" + ".join(term() for _ in range(rng.integers(1, 4)))
                     for _ in range(m))
    centre = rng.uniform(-1.0, 1.0, size=n)
    if rng.random() < 0.5:
        region = Region.disk(centre, float(rng.uniform(0.05, 2.0)))
    else:
        region = Region.box(centre, centre + rng.uniform(0.05, 2.0, size=n))
    return parse_map(text, n), region


class TestScreenedLipschitzEstimate:
    @pytest.mark.parametrize("m, n", [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3),
                                      (3, 2), (3, 3)])
    def test_equals_the_svd_of_every_sample(self, m, n):
        rng = np.random.default_rng(100 * m + n)
        kinds = set()
        for i in range(32):
            spec, region = _lipschitz_case(rng, m, n, constant=i < 2)
            kinds.add(region.kind)
            assert lipschitz_estimate(spec, region) \
                == _unscreened_estimate(spec, region), (spec.source_text,
                                                        region)
        assert kinds == {"disk", "box"}

    @pytest.mark.parametrize("text, n", [
        ("x1 - 0.5*x2 + 0.1, 0.3*x1 + x2 - 0.2", 2),
        ("x1 + x2, x1 - 2*x2, 3*x1", 2),
        ("x1 + x2 - x3, 2*x1 - x3", 3)])
    def test_linear_map_takes_few_svds(self, text, n, monkeypatch):
        # every Jacobian of a linear map ties up to rounding: the Frobenius
        # screen would pass all 200, the Gram eigenvalue screen a few
        spec = parse_map(text, n)
        region = Region.disk(np.linspace(-0.3, 0.2, n), 1.2)
        want = _unscreened_estimate(spec, region)
        sizes = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kwargs:
                            sizes.append(len(a)) or svd(a, *args, **kwargs))
        assert lipschitz_estimate(spec, region) == want
        assert len(sizes) == 1 and 1 <= sizes[0] <= 5, sizes

    def test_constant_map_is_zero(self):
        for region in (Region.disk([0.3, -0.2], 1.5),
                       Region.box([0.0, 0.0, 0.0], [1.0, 2.0, 3.0])):
            spec = parse_map("3, -1.5", region.dim)
            assert lipschitz_estimate(spec, region) == 0.0 \
                == _unscreened_estimate(spec, region)

    def test_box_pattern_equals_rng_uniform(self):
        rng = np.random.default_rng(8)
        for dim in (1, 2, 3):
            (u,) = mapspec._lipschitz_pattern("box", dim)
            for _ in range(700):
                scale = 10.0 ** int(rng.integers(-300, 300))
                lower = rng.normal(size=dim) * scale
                upper = lower + rng.uniform(0.01, 5.0, size=dim) * scale
                want = np.random.default_rng(0).uniform(lower, upper,
                                                        size=(200, dim))
                got = lower + (upper - lower) * u
                assert got.tobytes() == want.tobytes(), (lower, upper)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
    def test_disk_radii_are_python_powers(self, dim):
        # a float's ** does not depend on numpy's SIMD dispatch; for dim 1
        # and 2 it is also numpy's u ** (1 / dim) bit for bit
        directions, scale = mapspec._lipschitz_pattern("disk", dim)
        rng = np.random.default_rng(0)
        rng.normal(size=(200, dim))
        u = rng.uniform(size=(200, 1))
        assert scale.shape == (200, 1)
        assert scale.ravel().tolist() == [float(v) ** (1.0 / dim)
                                          for v in u.ravel()]
        if dim <= 2:
            assert scale.tobytes() == (u ** (1.0 / dim)).tobytes()

    def test_pattern_is_read_only_and_reused(self, monkeypatch):
        spec = parse_map("x1*x2, x1 - x2^3", 2)
        probes = []
        monkeypatch.setattr(mapspec, "evaluate", lambda s, x: probes.append(
            x.tobytes()) or evaluate(s, x))
        mapspec._lipschitz_pattern.cache_clear()
        for region in (Region.disk([0.1, 0.2], 0.7),
                       Region.box([0.0, -1.0], [2.0, 1.0])):
            first = lipschitz_estimate(spec, region)
            pattern = mapspec._lipschitz_pattern(region.kind, 2)
            assert lipschitz_estimate(spec, region) == first
            assert probes[-1] == probes[-2]
            for a in pattern:
                with pytest.raises(ValueError, match="read-only"):
                    a[0, 0] = 0.5
        assert mapspec._lipschitz_pattern.cache_info().misses == 2


# ---------------------------------------------------------------------------
# reference: the tree of a map, one node per term, and its printer, which
# the tape printer replaced, kept to check that both print the same text

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


def _ref_text(components):
    return ", ".join(_print_node(c) for c in components)


# reference: the character-loop lexer and peek/advance parser that the
# one-scan front end replaced, kept to check that both agree; it builds
# the reference tree

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


# reference: the recursive tree evaluator that the tape replaced, kept to
# check that both give the same bits and the same DomainError

def _eval_node(node, cols):
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
    return _ref_power(_eval_node(node.base, cols), node.exponent)


def _ref_power(a, k):
    """The DSL's ``a^k``: the product, from the left, of the squares
    ``a^(2^i)`` for the set bits ``i`` of ``|k|``; ``1 / a^|k|`` for a
    negative ``k`` and 1 for ``k = 0``."""
    if k == 0:
        return np.ones_like(a)
    if k < 0:
        return 1.0 / _ref_power(a, -k)
    squares = [a]
    while 2 ** len(squares) <= k:
        squares.append(squares[-1] * squares[-1])
    factors = [sq for i, sq in enumerate(squares) if k >> i & 1]
    return functools.reduce(operator.mul, factors)


def _ref_evaluate(spec, pts):
    cols = [pts[:, j] for j in range(spec.n)]
    tree = _RefParser(spec.source_text, spec.n).parse_map()
    with np.errstate(all="ignore"):
        out = np.stack([_eval_node(c, cols) for c in tree], axis=1)
    mapspec._check_finite(pts, out, "non-finite value (division by zero or "
                                    "sqrt of a negative)")
    return out


def _eval_outcome(evaluate_fn, spec, pts):
    """The output bytes, or the DomainError's point bytes and message."""
    try:
        out = evaluate_fn(spec, pts)
    except DomainError as err:
        return "DomainError", err.point.tobytes(), str(err)
    assert out.dtype == np.float64 and out.shape == (len(pts), spec.m)
    return out.tobytes()


def _tape_expr(rng, depth=0):
    """Every op of the DSL; constant-only subtrees are frequent."""
    choice = rng.integers(0, 8 if depth < 4 else 2)
    if choice == 0:
        return rng.choice(["0", "1", "2.5", "0.5", "(-2.6391)", "1e-3",
                           f"{rng.uniform(0.0, 4.0):.4f}"])
    if choice == 1:
        return f"x{rng.integers(1, 3)}"
    if choice in (2, 3):
        op = rng.choice(["+", "-", "*", "/"])
        return f"({_tape_expr(rng, depth + 1)} {op} {_tape_expr(rng, depth + 1)})"
    if choice in (4, 5):
        fn = rng.choice(["sin", "cos", "exp", "sqrt", "abs"])
        return f"{fn}({_tape_expr(rng, depth + 1)})"
    if choice == 6:
        return f"-({_tape_expr(rng, depth + 1)})"
    return f"({_tape_expr(rng, depth + 1)})^{rng.integers(-3, 4)}"


class TestTapeMatchesTree:
    @pytest.mark.parametrize("k", [1, 9, 421])
    def test_fuzz_matches_recursive_evaluator(self, k):
        rng = np.random.default_rng(k)
        texts = ["exp(-2.6391)^-3 + 1.324", "x1, 0", "x2, 1/0",
                 "sqrt(x1), (2 - 3)^-2 * x2", "sin(-0.5)^2 + x1 / x2"]
        texts += [", ".join(_tape_expr(rng) for _ in range(rng.integers(1, 4)))
                  for _ in range(1500)]
        ops, outcomes = set(), set()
        for text in texts:
            spec = parse_map(text, 2)
            pts = rng.normal(scale=2.0, size=(k, 2))
            pts[rng.random(size=pts.shape) < 0.1] = 0.0
            expected = _eval_outcome(_ref_evaluate, spec, pts)
            assert _eval_outcome(evaluate, spec, pts) == expected, text
            ops.update(op for op, _, _ in spec.tape.steps)
            outcomes.add(type(expected))
        assert ops == {"const", "var", "full", "neg", "add", "sub", "mul",
                       "div", "pow", "sin", "cos", "exp", "sqrt", "abs"}
        assert outcomes == {bytes, tuple}

    def test_batch_of_several_chunks(self):
        spec = parse_map("sqrt(x1) * (x2 - 0.5)^2 + exp(-1)^-3, 1 / x2", 2)
        rng = np.random.default_rng(5)
        k = 2 * mapspec._CHUNK + 3
        pts = rng.uniform(0.1, 2.0, size=(k, 2))
        assert _eval_outcome(evaluate, spec, pts) \
            == _eval_outcome(_ref_evaluate, spec, pts)
        pts[[mapspec._CHUNK + 1, k - 1], 0] = -1.0    # sqrt of a negative
        outcome = _eval_outcome(evaluate, spec, pts)
        assert outcome == _eval_outcome(_ref_evaluate, spec, pts)
        assert outcome[1] == pts[mapspec._CHUNK + 1].tobytes()


class TestMerging:
    def test_equal_subtrees_share_one_step(self):
        spec = parse_map("(x1 - 0.5)^2 + (x1 - 0.5)^2, sin(x1 - 0.5)", 1)
        steps, (total, sine) = spec.tape
        assert [op for op, _, _ in steps].count("sub") == 1
        op, square, same = steps[total]
        assert op == "add" and same == square
        op, shifted, exponent = steps[square]
        assert op == "pow" and exponent == 2
        assert steps[sine] == ("sin", shifted, None)
        assert parse_map(to_text(spec), 1).tape == spec.tape

    def test_scalar_power_keeps_its_scalar(self):
        # ^ of a scalar is products only and needs no broadcast; a function
        # of the power broadcasts it first
        spec = parse_map("sin((2 - 3)^-2) + 2^0*x1", 1)
        assert [op for op, _, _ in spec.tape.steps] == [
            "const", "const", "sub", "pow", "full", "sin", "pow", "var",
            "mul", "add"]


class _GroupSpy:
    """Wraps ``_Parser.group`` to record what each call finds in the memo:
    'hit' for a repeat at no greater depth, 'deeper' for one parsed again."""

    def __init__(self, monkeypatch):
        self.events = []
        original = mapspec._Parser.group

        def group(parser, i, depth):
            tokens = parser.tokens
            for body, _, first_depth in parser.groups.values():
                if tokens[i:i + len(body)] == body:
                    self.events.append("hit" if depth <= first_depth
                                       else "deeper")
            return original(parser, i, depth)
        monkeypatch.setattr(mapspec._Parser, "group", group)


class _CountedParse:
    """Counts ``_Parser.parse_expr`` calls, one per parse of an expression."""

    def __init__(self, monkeypatch):
        self.calls = 0
        original = mapspec._Parser.parse_expr

        def counted(parser, i, depth):
            self.calls += 1
            return original(parser, i, depth)
        monkeypatch.setattr(mapspec._Parser, "parse_expr", counted)


def _same_as_reference(text, n):
    return _parse_outcome(text, n) == _ref_outcome(text, n) \
        and _tape_matches_oracle(text, n)


class TestGroupMemo:
    """A repeated parenthesized group is parsed once."""

    @pytest.mark.parametrize("text", [
        "sin(x1 + 1) + sin(x1 + 1)*x2 - cos(x1 + 1)",
        "((x1 - 0.5)^2 + x2)*(x1 - 0.5) + ((x1 - 0.5)^2 + x2), (x1 - 0.5)",
        "(x1 + (x1 + 2)) * (x1 + 2) + (x1 + (x1 + 2))",
        "(x1 - 0.5) + (x1 - 0.25) + (x1 - 0.5)",
        "(x1) + (x1)^2 + sqrt((x1))"])
    def test_repeats_match_the_reference(self, text):
        assert _same_as_reference(text, 2), text
        assert to_text(parse_map(text, 2)) \
            == _ref_text(_RefParser(text, 2).parse_map())

    def test_repeat_is_parsed_once(self, monkeypatch):
        counted = _CountedParse(monkeypatch)
        spy = _GroupSpy(monkeypatch)
        parse_map("sin(x1 + 1) + sin(x1 + 1)*(x1 + 1) - (x1 + 1)^2", 1)
        # the top level and the first (x1 + 1)
        assert counted.calls == 2
        assert spy.events == ["hit", "hit", "hit"]

    def test_deeper_repeat_is_parsed_again(self, monkeypatch):
        text = "(x1 + 1) + ((x1 + 1)) + (x1 + 1)"
        counted = _CountedParse(monkeypatch)
        spy = _GroupSpy(monkeypatch)
        parse_map(text, 1)
        # the inner copy of ((x1 + 1)) is one level deeper than the first
        assert spy.events == ["deeper", "hit"]
        assert counted.calls == 4
        assert _same_as_reference(text, 1)

    def test_depth_error_after_a_recorded_group(self):
        # the first copy is recorded at depth 1; the 16th parenthesis of the
        # second is past the limit, at the token after it, as at the parent
        text = "(x1 + 1) + " + "(" * 15 + "(x1 + 1)" + ")" * 15
        with pytest.raises(MapSyntaxError) as err:
            parse_map(text, 1)
        assert str(err.value) == \
            "expression nesting too deep (line 1, column 28)"
        assert _same_as_reference(text, 1)

    def test_error_after_a_hit(self, monkeypatch):
        text = "(x1 + 1) * (x1 + 1) + (x1 + 1"
        spy = _GroupSpy(monkeypatch)
        with pytest.raises(MapSyntaxError) as err:
            parse_map(text, 1)
        assert str(err.value) == \
            "expected ')', got 'end of input' (line 1, column 30)"
        assert "hit" in spy.events
        assert _same_as_reference(text, 1)

    def test_fuzz_reaches_hits_misses_and_errors(self, monkeypatch):
        rng = np.random.default_rng(40)
        expr_rng = np.random.default_rng(41)
        seen = set()
        spy = _GroupSpy(monkeypatch)
        for _ in range(1500):
            text = _repeated_group_text(rng, expr_rng)
            n = int(rng.integers(1, 4))
            spy.events.clear()
            expected = _ref_outcome(text, n)
            assert _parse_outcome(text, n) == expected, text
            assert _tape_matches_oracle(text, n), text
            failed = isinstance(expected[0], type)
            seen.update(spy.events)
            if "hit" in spy.events and failed:
                seen.add(f"{expected[1].split(' (')[0]} after a hit")
        assert {"hit", "deeper",
                "expression nesting too deep after a hit"} <= seen, seen


class TestNegativeLeaf:
    """``(-leaf)`` emits the leaf and its neg without a recursion."""

    @pytest.mark.parametrize("text", [
        "(-0.5)*x1 + (-0.5)*x2", "(-x1)^2", "-(-x1)", "(-x2) - (-0.5)",
        "(-1e999)", "(-sin)", "(-x3)", "(-y)", "(-1.5)^-2 + x1",
        "(- 2.5 ) * x1", "(-)", "(-x1", "(-0.5)x1"])
    def test_matches_the_reference(self, text):
        assert _same_as_reference(text, 2), text

    def test_errors_and_positions(self):
        for text, message in (
                ("(-1e999)", "number '1e999' out of range (line 1, column 3)"),
                ("(-sin)", "expected '(', got ')' (line 1, column 6)")):
            with pytest.raises(MapSyntaxError) as err:
                parse_map(text, 1)
            assert str(err.value) == message

    def test_no_recursion(self, monkeypatch):
        counted = _CountedParse(monkeypatch)
        spec = parse_map("(-0.5)*x1 + (-0.5)*x2 - (-x1)", 2)
        assert counted.calls == 1
        assert [op for op, _, _ in spec.tape.steps] == [
            "const", "neg", "var", "mul", "var", "mul", "add", "neg", "sub"]

    @pytest.mark.parametrize("depth, fails", [(14, False), (15, True)])
    def test_at_the_depth_limit(self, depth, fails):
        # the 16th nested parenthesis fails on the '-' after it
        text = "(" * depth + "(-x1)" + ")" * depth
        assert _same_as_reference(text, 1)
        if fails:
            with pytest.raises(MapSyntaxError, match="nesting too deep") as err:
                parse_map(text, 1)
            assert err.value.column == depth + 2
        else:
            parse_map(text, 1)


class TestToTextMatchesTree:
    """``to_text`` prints the tape as the reference printer prints the
    reference tree, byte for byte, and its text parses to the same tape."""

    TEXTS = [
        "(x1 - 0.5)^2 + (x1 - 0.5)^2, sin(x1 - 0.5), (2 - 3)^-2*x1 + 2^0",
        "exp(-2.6391)^-3 + 1.324, sin(-0.5)^2 + x1 / x2",
        "1/1.7976931348623157e308 + x1, 1e-999",
        "x1^0 + (x1*x2)^-1 - -x2^-3 + (x1^2)^2, sqrt(abs(x1)) / cos(x1^2)"]

    def test_matches_reference_printer(self):
        rng = np.random.default_rng(37)
        cases = [(text, n) for text, n, _ in BUILTIN_MAPS.values()]
        cases += [(text, 2) for text in self.TEXTS]
        cases += [(", ".join(_tape_expr(rng) for _ in range(rng.integers(1, 4))),
                   2) for _ in range(2000)]
        ops, powers = set(), set()
        for text, n in cases:
            spec = parse_map(text, n)
            printed = to_text(spec)
            assert printed == _ref_text(_RefParser(text, n).parse_map()), text
            assert parse_map(printed, n).tape == spec.tape, text
            steps = spec.tape.steps
            ops.update(op for op, _, _ in steps)
            powers.update((steps[a][0], (b > 0) - (b < 0))
                          for op, a, b in steps if op == "pow")
        assert ops == {"const", "var", "full", "neg", "add", "sub", "mul",
                       "div", "pow", "sin", "cos", "exp", "sqrt", "abs"}
        # leaf and other bases, each with a negative, zero and positive
        # exponent
        assert {(base, sign) for base in ("const", "var", "sub", "neg", "exp")
                for sign in (-1, 0, 1)} <= powers


# oracle: the four-method recursive descent (parse_expr, parse_term,
# parse_factor, parse_atom) that the one-loop parser replaced, kept to check
# that both emit the same tape, step for step, and the same errors

class _OracleParser:
    """Recursive descent over the token list; ``i`` is the next token.

    Each parse method returns the tape slot of what it parsed.  ``slots``
    maps each step ``(op, a, b)`` to its slot, so a subtree that was seen
    before costs no new step.  ``leaves`` maps each number or variable
    token to its slot, so a leaf that repeats is converted and checked once.
    """

    def __init__(self, text: str, n: int):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.n = n
        self.slots = {}      # step -> slot; in insertion order, the tape
        self.leaves = {}     # number or variable token -> slot
        self.scalars = set()  # slots that hold one numpy scalar, not an array

    def emit(self, op, a, b=None):
        """Slot of the step ``(op, a, b)``.  ``a`` and ``b`` are slots,
        except in a constant (its np.float64 value), a variable (its 1-based
        index) and ``pow`` (its integer exponent).  A step seen before keeps
        its slot, so equal subtrees share one slot."""
        key = (op, a, b)
        slot = self.slots.get(key)
        if slot is None:
            slots, scalars = self.slots, self.scalars
            slot = slots[key] = len(slots)
            if op == "const" or (op in _EXACT and a in scalars
                                 and (op == "pow" or b is None
                                      or b in scalars)):
                scalars.add(slot)
        return slot

    def array(self, slot):
        """``slot``, or a step that broadcasts it to one value per point if
        it holds a scalar.  Scalars round as the array loops do under
        + - * /, neg and ``^``, but not under a function: ``sin(x)`` of a
        numpy scalar can be one ulp off the array loop."""
        return self.emit("full", slot) if slot in self.scalars else slot

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
        """The slots of the m components."""
        outputs = [self.parse_expr(0)]
        while self.tokens[self.i] == ",":
            self.i += 1
            outputs.append(self.parse_expr(0))
        tok = self.tokens[self.i]
        if tok:
            raise self.error(self.i, MapSyntaxError,
                             f"unexpected trailing input {tok!r}")
        return outputs

    def parse_expr(self, depth):
        slot = self.parse_term(depth + 1)
        while (op := self.tokens[self.i]) == "+" or op == "-":
            self.i += 1
            slot = self.emit("add" if op == "+" else "sub", slot,
                             self.parse_term(depth + 1))
        return slot

    def parse_term(self, depth):
        # depth grows by 4 per nesting level (expr, term, factor, atom), so
        # with MAX_DEPTH = 64 this is the first check that can fail: at the
        # 16th nested parenthesis or call, on the token after it
        if depth > MAX_DEPTH:
            raise self.error(self.i, MapSyntaxError,
                             "expression nesting too deep")
        slot = self.parse_factor(depth + 1)
        while (op := self.tokens[self.i]) == "*" or op == "/":
            self.i += 1
            slot = self.emit("mul" if op == "*" else "div", slot,
                             self.parse_factor(depth + 1))
        return slot

    def parse_factor(self, depth):
        negate = self.tokens[self.i] == "-"
        self.i += negate
        slot = self.parse_atom(depth + 1)
        if self.tokens[self.i] == "^":
            negative = self.tokens[self.i + 1] == "-"
            i = self.i + 1 + negative
            tok = self.tokens[i]
            self.i = i + 1
            if not tok.isdecimal():      # exactly the digit-only number tokens
                raise self.error(i, NonIntegerExponent, tok or "end of input")
            slot = self.emit("pow", slot, -int(tok) if negative else int(tok))
        return self.emit("neg", slot) if negate else slot

    def parse_atom(self, depth):
        tokens, i = self.tokens, self.i
        tok = tokens[i]
        self.i = i + 1
        slot = self.leaves.get(tok)
        if slot is not None:             # a number or variable parsed before
            return slot
        if tok == "(" or tok in _FUNCS:
            if tok != "(":
                i += 1
                if tokens[i] != "(":
                    raise self.error(i, MapSyntaxError, "expected '(', got "
                                     f"{tokens[i] or 'end of input'!r}")
                self.i = i + 1
            slot = self.parse_expr(depth + 1)
            i = self.i
            if tokens[i] != ")":
                raise self.error(i, MapSyntaxError, "expected ')', got "
                                 f"{tokens[i] or 'end of input'!r}")
            self.i = i + 1
            return slot if tok == "(" else self.emit(tok, self.array(slot))
        if tok in _SYMS:
            raise self.error(i, MapSyntaxError,
                             f"unexpected token {tok or 'end of input'!r}")
        if tok[0] == "." or tok[0].isdecimal():     # a number
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


def _oracle_tape(text, n):
    parser = _OracleParser(text, n)
    outputs = parser.parse_map()
    return Tape(tuple(parser.slots), tuple(outputs))


def _tape_outcome(parse):
    """The tape and its repr (which tells np.float64 from float and int
    from np.int64), or the error's (type, message, line, column)."""
    try:
        tape = parse()
    except MapSyntaxError as err:
        return type(err), str(err), err.line, err.column
    return tape, repr(tape)


def _tape_matches_oracle(text, n):
    return _tape_outcome(lambda: parse_map(text, n).tape) \
        == _tape_outcome(lambda: _oracle_tape(text, n))


def _num(rng, scale=2.0):
    v = float(rng.uniform(-scale, scale))
    return repr(v) if v >= 0.0 else f"(-{-v!r})"


def _shifted(rng, j):
    a = float(rng.uniform(-1.0, 1.0))
    return f"(x{j} - {a!r})" if a >= 0.0 else f"(x{j} + {-a!r})"


def _monomials(rng, degree, n):
    """A dense polynomial of the given degree in x1..xn (n <= 2)."""
    terms = []
    for p in range(degree + 1):
        for q in range(degree + 1 - p if n == 2 else 1):
            factors = [_num(rng)]
            factors += [f"x{j}" if e == 1 else f"x{j}^{e}"
                        for j, e in ((1, p), (2, q)) if e]
            terms.append("*".join(factors))
    return " + ".join(terms)


def _sphere_text(rng, n):
    """(A + c|y|^2 I) y with y = x - a, written out per component."""
    y = [_shifted(rng, j + 1) for j in range(n)]
    sq = " + ".join(f"{yj}^2" for yj in y)
    return ", ".join(" + ".join(f"{_num(rng)}*{yj}" for yj in y)
                     + f" + {_num(rng)}*({sq})*{y[i]}" for i in range(n))


class TestTapeMatchesOracle:
    """Maps shaped like the benchmark's, parsed step for step as the
    four-method parser did."""

    @pytest.mark.parametrize("n", [3, 4])
    def test_sphere_maps(self, n):
        rng = np.random.default_rng(n)
        for _ in range(20):
            text = _sphere_text(rng, n)
            assert _tape_matches_oracle(text, n), text
            spec = parse_map(text, n)
            assert to_text(spec) == _ref_text(_RefParser(text, n).parse_map())

    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    def test_plane_polynomials(self, degree):
        rng = np.random.default_rng(degree)
        for _ in range(20):
            text = ", ".join(_monomials(rng, degree, 2) for _ in range(2))
            assert _tape_matches_oracle(text, 2), text

    def test_locate_maps(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            cubic = _monomials(rng, 3, 1)
            contraction = ", ".join(
                f"{_num(rng)} + {_num(rng)}*{_shifted(rng, 1)}"
                f" + {_num(rng)}*{_shifted(rng, 2)}" for _ in range(2))
            assert _tape_matches_oracle(cubic, 1), cubic
            assert _tape_matches_oracle(contraction, 2), contraction


class TestLazyTree:
    TEXT = "(x1 - 0.5)^2 - x2^2, 2*x1*x2 - sin(x1 - 0.5)"

    def test_equal_parses_are_equal_and_hash_equal(self):
        a, b = parse_map(self.TEXT, 2), parse_map(self.TEXT, 2)
        assert a == b and hash(a) == hash(b)
        assert a.tape == b.tape
        assert a != parse_map(self.TEXT + ", x1", 2)
        assert len({a, b}) == 1

    def test_to_text_round_trips(self):
        spec = parse_map(self.TEXT, 2)
        again = parse_map(to_text(spec), 2)
        assert again.tape == spec.tape
        assert to_text(again) == to_text(spec)


def _outcome(parse):
    """The (digest, text) that ``parse`` returns, or the error's (type,
    message, line, column)."""
    try:
        return parse()
    except MapSyntaxError as err:
        return type(err), str(err), err.line, err.column


def _parse_outcome(text, n):
    def parse():
        spec = parse_map(text, n)
        return spec.digest, to_text(spec)
    return _outcome(parse)


def _ref_outcome(text, n):
    def parse():
        tree = _RefParserRejectingOverflow(text, n).parse_map()
        return map_digest(text), _ref_text(tree)
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


def _repeated_group_text(rng, expr_rng):
    """One group repeated 2-4 times, each copy inside 0-16 parentheses: a
    copy at no greater depth than the first is a memo hit, a deeper one is
    parsed again, and one past the nesting limit of 15 fails."""
    group = rng.choice(["(", "sin(", "abs(", "(-"]) \
        + _random_expr(expr_rng, 2) + ")"
    copies = []
    for _ in range(rng.integers(2, 5)):
        depth = int(rng.integers(0, 17))
        copies.append("(" * depth + group + ")" * depth)
    return rng.choice([" + ", "*", " - ", ", "]).join(copies)


def _fuzz_text(rng, expr_rng):
    kind = rng.integers(5)
    if kind == 4:
        return _repeated_group_text(rng, expr_rng)
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
            assert _parse_outcome(text, n) == expected, text
            assert _tape_matches_oracle(text, n), text
            if not expected[1].startswith("unexpected character"):
                # the token list is the reference lexer's
                assert _tokenize(text) == [t[1] for t in _ref_tokenize(text)]
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
            assert _parse_outcome(text, 2) == _ref_outcome(text, 2)

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
        assert _parse_outcome(deep, 1) == _ref_outcome(deep, 1)

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


def _split_parse(text, n):
    """The split tokens of ``text`` and whether the split path parses them:
    (None, False) for a text that goes to the regex path."""
    tokens = mapspec._split_tokens(text)
    if tokens is None:
        return None, False
    try:
        mapspec._parse(text, tokens, n)
    except (MapSyntaxError, ValueError):
        return tokens, False
    return tokens, True


class _Parsed(Exception):
    pass


class _Recorder:
    """Stands in for zerocert in a benchmark task: stops the task at its
    parse and records what it parses."""

    def parse_map(self, text, n):
        raise _Parsed(text, n)

    def __getattr__(self, name):     # a call around the parse, never made
        return lambda *args, **kwargs: None


def _workload_texts(monkeypatch):
    """(text, n) of every map in the count windows of the benchmark's three
    workloads, on two seeds."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    if not path.exists():
        pytest.skip("the benchmark's workloads are not in this tree")
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    texts = []
    for workload in workloads.WORKLOADS.values():
        for seed in (11, 3141):
            for index in range(workload.count_passes):
                for task in workloads.make_pass(workload, seed, index):
                    with pytest.raises(_Parsed) as parsed:
                        task.run(_Recorder(), None)
                    texts.append(parsed.value.args)
    return texts


class TestSplitLexer:
    def test_ascii_whitespace(self):
        # what str.split drops of an ASCII text: _WHITESPACE, which the
        # token regex skips, and the rest, which sends a text to _tokenize
        dropped = "".join(c for c in map(chr, range(128)) if c.isspace())
        assert sorted(dropped) == sorted(
            _WHITESPACE + "".join(c for c in mapspec._NOT_SPLIT if len(c) == 1))

    def test_workload_maps(self, monkeypatch):
        texts = _workload_texts(monkeypatch)
        split = 0
        for text, n in texts:
            tokens, parsed = _split_parse(text, n)
            if tokens is None:
                # the only reason in these texts
                assert re.search("[eE][-+]", text), text
                continue
            assert parsed, text
            assert tokens == _tokenize(text), text
            split += 1
        assert len(texts) == 2 * (16 * 28 + 8 * 32 + 16 * 12)
        assert split >= 0.9 * len(texts)

    def test_fuzz_corpus(self):
        # the corpus of TestOneScanParser's fuzz
        rng = np.random.default_rng(2026)
        expr_rng = np.random.default_rng(7)
        paths = {"regex": 0, "split": 0, "split, then regex": 0}
        for _ in range(24_000):
            text = _fuzz_text(rng, expr_rng)
            n = int(rng.integers(1, 4))
            tokens, parsed = _split_parse(text, n)
            if parsed:
                assert tokens == _tokenize(text), text
            paths["regex" if tokens is None else
                  "split" if parsed else "split, then regex"] += 1
        assert min(paths.values()) >= 1000, paths

    @pytest.mark.parametrize("text", [
        "1e-05*x1", "2E+3*x1", "x1 + \u0663", "x1 +\f1", "x1\v+ 1",
        "x1 +\x1c 1"])
    def test_regex_path(self, text):
        assert mapspec._split_tokens(text) is None
        assert _tape_matches_oracle(text, 1)
        assert _parse_outcome(text, 1) == _ref_outcome(text, 1)

    @pytest.mark.parametrize("text, outcome", [
        ("1_0", "unexpected trailing input '_0' (line 1, column 2)"),
        ("1.2.3", "unexpected trailing input '.3' (line 1, column 4)"),
        ("2x1", "unexpected trailing input 'x1' (line 1, column 2)"),
        ("1e", "unexpected trailing input 'e' (line 1, column 2)"),
        (".", "unexpected character '.' (line 1, column 1)"),
        ("x1.5", "unexpected trailing input '.5' (line 1, column 3)"),
        ("x1 + $", "unexpected character '$' (line 1, column 6)")])
    def test_split_path_fails_then_regex_errs(self, text, outcome):
        tokens, parsed = _split_parse(text, 1)
        assert tokens is not None and not parsed
        with pytest.raises(MapSyntaxError) as err:
            parse_map(text, 1)
        assert f"{err.value}" == outcome
        assert _tape_matches_oracle(text, 1)
        assert _parse_outcome(text, 1) == _ref_outcome(text, 1)


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
        assert again.tape == spec.tape
        assert spec.tape.steps[spec.tape.outputs[1]] == ("const", 0.0, None)
