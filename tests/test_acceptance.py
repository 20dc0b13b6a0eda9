"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.
"""
import json
import math
import time

import numpy as np
import pytest
from conftest import (brute_force_winding, circle_map, random_trig_map,
                      sampled_circle_map)

from zerocert import (Region, SampledMap, box_winding, brouwer_fixed_point,
                      certify_existence, evaluate, locate_zero, parse_map,
                      poincare_bohl, radial_extension, sample_sphere,
                      straight_line, to_text, winding_number)
from zerocert.cli import certificate_dumps, main


def _report(number, name):
    print(f"ACCEPTANCE {number:2d} {name}: PASS")


def test_criterion_01_winding_oracle():
    for k in range(-3, 4):
        start = time.perf_counter()
        ev = circle_map(lambda t, k=k: np.stack([np.cos(k * t),
                                                 np.sin(k * t)], axis=1))
        adaptive = winding_number(sampled_circle_map(ev, level=6)).value
        assert adaptive == k
        assert adaptive == brute_force_winding(ev, samples=2 ** 16)
        assert time.perf_counter() - start < 1.0
    _report(1, "winding oracle, k in -3..3")


def test_criterion_02_paper_nonhomotopy_example():
    start = time.perf_counter()
    f = sampled_circle_map(lambda pts: np.asarray(pts, dtype=float), level=6)
    g = SampledMap(sampling=f.sampling, images=f.images + [3.0, 3.0],
                   evaluator=lambda pts: np.asarray(pts, float) + [3.0, 3.0])
    assert winding_number(f).value == 1
    assert winding_number(g).value == 0
    report = straight_line(f, g, L=5.0)
    assert not report.valid and report.min_norm <= 1e-15
    p_idx, t = report.witness
    assert t == pytest.approx(1.0 / (3.0 * math.sqrt(2.0)), abs=1e-12)
    expected = -np.array([1.0, 1.0]) / math.sqrt(2.0)
    assert np.linalg.norm(f.sampling.points[p_idx] - expected) < 1e-15
    assert time.perf_counter() - start < 1.0
    _report(2, "winding 1 vs 0 maps are not homotopic, vanishing witness")


def test_criterion_03_existence_pipeline():
    start = time.perf_counter()
    spec = parse_map("x1, x2", 2)
    cert = certify_existence(spec, Region.disk([0.0, 0.0], 1.0))
    assert cert.verdict == "ZeroGuaranteed"
    assert cert.route == "winding"
    located = locate_zero(spec, Region.box([-1.0, -1.0], [1.0, 1.0]),
                          eps_x=1e-7, eps_f=0.0)
    assert np.linalg.norm(located.point) <= 1e-6
    assert time.perf_counter() - start < 2.0
    _report(3, "certify + locate on the identity")


def test_criterion_04_rescaling_invariance():
    b = np.array([1.2, -0.5])
    spec = parse_map("x1 - 1.2, x2 + 0.5", 2)
    region = Region.disk([0.3, 0.3], 4.0)
    cert = certify_existence(spec, region)
    # G(y) = F(4 y + (0.3, 0.3)) = (4 y1 - 0.9, 4 y2 + 0.8)
    rescaled = parse_map("4*x1 - 0.9, 4*x2 + 0.8", 2)
    unit_cert = certify_existence(rescaled, Region.disk([0.0, 0.0], 1.0))
    assert cert.verdict == unit_cert.verdict == "ZeroGuaranteed"
    assert cert.obstruction == unit_cert.obstruction == 1
    located = locate_zero(spec, Region.box([-3.7, -3.7], [4.3, 4.3]),
                          eps_x=1e-7, eps_f=0.0)
    assert np.linalg.norm(located.point - b) <= 1e-6
    _report(4, "rescaling invariance of verdict, obstruction, and zero")


def test_criterion_05_poincare_bohl_route():
    a = np.array([0.3, 0.4])
    spec = parse_map("x1 + 0.3, x2 + 0.4", 2)
    check = poincare_bohl(spec, Region.disk([0.0, 0.0], 1.0), level=6)
    assert check.passed
    assert check.margin > 0.5
    # dense-sampling cross-check of the margin
    theta = np.linspace(0, 2 * math.pi, 200000, endpoint=False)
    pts = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    ims = pts + a
    dense = float(np.min(np.linalg.norm(
        ims / np.linalg.norm(ims, axis=1, keepdims=True) + pts, axis=1)))
    assert dense > 0.5
    assert check.margin == pytest.approx(dense, abs=1e-6)
    located = locate_zero(spec, Region.box([-1.0, -1.0], [1.0, 1.0]),
                          eps_x=1e-7, eps_f=0.0)
    assert np.linalg.norm(located.point - (-a)) <= 1e-6
    _report(5, "Poincare-Bohl margin and located zero")


def test_criterion_07_brouwer_fixed_points():
    spec = parse_map("(x1 + 0.2)/2, (x2 - 0.1)/2", 2)
    result = brouwer_fixed_point(spec)
    assert np.linalg.norm(result.point - [0.2, -0.1]) <= 1e-6
    rng = np.random.default_rng(41)
    for _ in range(20):
        a = rng.uniform(-0.5, 0.5, size=(2, 2))
        a *= 0.3 / max(0.3, np.linalg.norm(a, 2))
        fix = rng.uniform(-0.3, 0.3, size=2)
        b = (np.eye(2) - a) @ fix
        f = lambda pts, A=a, B=b: np.asarray(pts, float) @ A.T + B
        result = brouwer_fixed_point(f, n=2)
        assert np.linalg.norm(result.point - fix) <= 1e-6
    _report(7, "Brouwer fixed points, 20 random affine contractions")


def test_criterion_08_zero_free_extension_witness():
    ev = lambda pts: np.asarray(pts, dtype=float) + np.array([3.0, 3.0])
    f = sampled_circle_map(ev, level=6)
    phi = radial_extension(f)
    radii = np.linspace(0.0, 1.0, 100)
    angles = np.linspace(0.0, 2.0 * math.pi, 100, endpoint=False)
    worst = math.inf
    for r in radii:
        for ang in angles:
            value = phi([r * math.cos(ang), r * math.sin(ang)])
            worst = min(worst, float(np.linalg.norm(value)))
    assert worst > 0.0
    _report(8, "zero-free extension of the winding-0 shifted map")


def test_criterion_09_one_dimensional_bisection():
    spec = parse_map("x1^3 - 0.5", 1)
    result = locate_zero(spec, Region.box([-1.0], [1.0]),
                         eps_x=1e-9, eps_f=0.0)
    assert abs(result.point[0] - 0.5 ** (1.0 / 3.0)) <= 1e-9
    _report(9, "1-D intermediate-value bisection")


def test_criterion_10_property_suites():
    start = time.perf_counter()
    rng = np.random.default_rng(43)

    # winding homotopy invariance, N = 100
    for _ in range(100):
        f_ev = random_trig_map(rng)
        f = sampled_circle_map(f_ev, level=5)
        min_f = float(np.min(np.linalg.norm(f.images, axis=1)))
        shift = rng.normal(size=2)
        shift *= 0.4 * min_f / np.linalg.norm(shift)
        g = SampledMap(sampling=f.sampling, images=f.images + shift,
                       evaluator=lambda pts, e=f_ev, s=shift: e(pts) + s)
        report = straight_line(f, g)
        assert report.valid
        assert winding_number(f).value == winding_number(g).value

    # positive-scaling invariance, N = 100
    for _ in range(100):
        ev = random_trig_map(rng)
        lam = rng.uniform(0.1, 10.0)
        scaled = lambda pts, e=ev, l=lam: l * e(pts)
        assert winding_number(sampled_circle_map(ev, 5)).value == \
            winding_number(sampled_circle_map(scaled, 5)).value

    # winding conservation under quadtree splits, N = 100
    checked = 0
    while checked < 100:
        coefs = rng.uniform(-1, 1, size=8)
        text = (f"{float(coefs[0])!r} + {float(coefs[1])!r}*x1 + "
                f"{float(coefs[2])!r}*x2 + {float(coefs[3])!r}*x1*x2, "
                f"{float(coefs[4])!r} + {float(coefs[5])!r}*x1 + "
                f"{float(coefs[6])!r}*x2 + {float(coefs[7])!r}*x1^2")
        spec = parse_map(text, 2)
        try:
            parent = box_winding(spec, [-1, -1], [1, 1])
            subs = [box_winding(spec, [-1, -1], [0, 0]),
                    box_winding(spec, [0, -1], [1, 0]),
                    box_winding(spec, [0, 0], [1, 1]),
                    box_winding(spec, [-1, 0], [0, 1])]
        except Exception:
            continue
        assert sum(subs) == parent
        checked += 1

    # parse/print roundtrip, N = 100
    from test_mapspec import _random_expr
    for _ in range(100):
        text = ", ".join(_random_expr(rng) for _ in range(2))
        spec = parse_map(text, 2)
        assert parse_map(to_text(spec), 2).tape == spec.tape

    # certificate JSON roundtrip, N = 100
    for _ in range(100):
        b = rng.uniform(-2.0, 2.0, size=2)
        spec = parse_map(f"x1 - {float(b[0])!r}, x2 - {float(b[1])!r}", 2)
        try:
            cert = certify_existence(spec, Region.disk([0.0, 0.0], 1.0),
                                     level=4)
        except Exception:
            continue
        text = certificate_dumps(cert)
        assert json.dumps(json.loads(text), indent=2) == text

    assert time.perf_counter() - start < 60.0
    _report(10, "property suites at N=100")


def test_criterion_11_degenerate_codomain_route(capsys):
    spec = parse_map("x1, x2, 1", 2)
    cert = certify_existence(spec, Region.disk([0.0, 0.0], 1.0))
    assert cert.verdict == "NoConclusion"
    assert cert.reason == "codomain_dim_excess"
    code = main(["certify", "--map", "x1, x2, 1", "--n", "2",
                 "--center", "0,0", "--radius", "1"])
    capsys.readouterr()
    assert code == 2
    _report(11, "degenerate n < m route")
