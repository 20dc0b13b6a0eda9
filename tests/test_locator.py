import math

import numpy as np
import pytest

from zerocert import (DegreeLost, InvalidInput, Region, VanishingOnBoundary,
                      box_winding, brouwer_fixed_point, evaluate, locate_zero,
                      parse_map, sample_sphere)
from zerocert.mapspec import as_evaluator

UNIT_BOX = Region.box([-1.0, -1.0], [1.0, 1.0])


class TestBoxWinding:
    def test_identity(self):
        spec = parse_map("x1, x2", 2)
        assert box_winding(spec, [-1, -1], [1, 1]) == 1

    def test_squaring(self):
        spec = parse_map("x1^2 - x2^2, 2*x1*x2", 2)
        assert box_winding(spec, [-1, -1], [1, 1]) == 2

    def test_zero_outside(self):
        spec = parse_map("x1 + 3, x2 + 3", 2)
        assert box_winding(spec, [-1, -1], [1, 1]) == 0

    def test_conservation_under_splits(self):
        rng = np.random.default_rng(31)
        checked = 0
        while checked < 20:
            coefs = rng.uniform(-1, 1, size=8)
            text = (f"{float(coefs[0])!r} + {float(coefs[1])!r}*x1 + "
                    f"{float(coefs[2])!r}*x2 + {float(coefs[3])!r}*x1*x2, "
                    f"{float(coefs[4])!r} + {float(coefs[5])!r}*x1 + "
                    f"{float(coefs[6])!r}*x2 + {float(coefs[7])!r}*x1^2")
            spec = parse_map(text, 2)
            lo, hi = np.array([-1.0, -1.0]), np.array([1.0, 1.0])
            cut = np.array([0.0, 0.0])
            try:
                parent = box_winding(spec, lo, hi)
                subs = [
                    box_winding(spec, [lo[0], lo[1]], [cut[0], cut[1]]),
                    box_winding(spec, [cut[0], lo[1]], [hi[0], cut[1]]),
                    box_winding(spec, [cut[0], cut[1]], [hi[0], hi[1]]),
                    box_winding(spec, [lo[0], cut[1]], [cut[0], hi[1]]),
                ]
            except Exception:
                continue  # map vanished on a cut line; not a conservation case
            assert sum(subs) == parent
            checked += 1


class TestLocateZero2D:
    def test_identity_origin(self):
        spec = parse_map("x1, x2", 2)
        result = locate_zero(spec, UNIT_BOX, eps_x=1e-7)
        assert np.linalg.norm(result.point) <= 1e-6
        assert result.termination in ("residual", "cell_diameter")

    def test_offset_zero(self):
        spec = parse_map("x1 - 0.3, x2 - 0.4", 2)
        result = locate_zero(spec, UNIT_BOX, eps_x=1e-7)
        assert np.linalg.norm(result.point - [0.3, 0.4]) <= 1e-6

    def test_squaring_converges_to_either_root(self):
        spec = parse_map("x1^2 - x2^2 - 0.25, 2*x1*x2", 2)
        result = locate_zero(spec, UNIT_BOX, eps_x=1e-8, eps_f=1e-9)
        close_to_root = min(np.linalg.norm(result.point - [0.5, 0.0]),
                            np.linalg.norm(result.point - [-0.5, 0.0]))
        assert close_to_root <= 1e-6
        assert result.residual <= 1e-6

    def test_residual_independently_recomputed(self):
        spec = parse_map("x1 - 0.3, x2 - 0.4", 2)
        result = locate_zero(spec, UNIT_BOX)
        assert result.residual == pytest.approx(
            float(np.linalg.norm(evaluate(spec, result.point))))

    def test_shrinkage(self):
        spec = parse_map("x1 - 0.3, x2 - 0.4", 2)
        result = locate_zero(spec, UNIT_BOX, eps_x=1e-5)
        diams = [float(np.linalg.norm(hi - lo)) for lo, hi in result.trail]
        for a, b in zip(diams, diams[1:]):
            assert b == pytest.approx(0.5 * a)

    def test_degree_lost_when_no_zero(self):
        spec = parse_map("x1 + 3, x2 + 3", 2)
        with pytest.raises(DegreeLost):
            locate_zero(spec, UNIT_BOX)

    def test_zero_on_initial_cut_is_jiggled_past(self):
        # the zero sits exactly at the first cut point
        spec = parse_map("x1, x2", 2)
        result = locate_zero(spec, UNIT_BOX, eps_x=1e-7, eps_f=0.0)
        assert np.linalg.norm(result.point) <= 1e-6

    def test_seed_reproducibility(self):
        spec = parse_map("x1, x2", 2)
        a = locate_zero(spec, UNIT_BOX, eps_x=1e-7, eps_f=0.0, seed=42)
        b = locate_zero(spec, UNIT_BOX, eps_x=1e-7, eps_f=0.0, seed=42)
        assert np.array_equal(a.point, b.point)


def reference_quadtree(ev, box, eps_x, eps_f, max_iter=100, seed=0):
    """The quadtree that evaluates a fresh box_winding for every sub-box:
    the behaviour the incremental quadtree must reproduce.  Returns the
    trail, point, termination, iterations and whether a cut was jiggled."""
    rng = np.random.default_rng(seed)
    lo, hi = box.lower.copy(), box.upper.copy()
    assert box_winding(ev, lo, hi) != 0
    trail, jiggled = [], False
    for it in range(1, max_iter + 1):
        center = 0.5 * (lo + hi)
        diameter = float(np.linalg.norm(hi - lo))
        if float(np.linalg.norm(ev(center[None, :])[0])) <= eps_f:
            return trail, center, "residual", it - 1, jiggled
        if diameter <= eps_x:
            return trail, center, "cell_diameter", it - 1, jiggled
        chosen = None
        for attempt in range(6):
            cut = center
            if attempt:
                jiggled = True
                cut = center + rng.uniform(-0.1, 0.1, size=2) * (hi - lo)
            subs = [(np.array([lo[0], lo[1]]), np.array([cut[0], cut[1]])),
                    (np.array([cut[0], lo[1]]), np.array([hi[0], cut[1]])),
                    (np.array([cut[0], cut[1]]), np.array([hi[0], hi[1]])),
                    (np.array([lo[0], cut[1]]), np.array([cut[0], hi[1]]))]
            try:
                chosen = next((s for s in subs if box_winding(ev, *s) != 0),
                              None)
            except VanishingOnBoundary:
                continue
            if chosen is not None:
                break
        lo, hi = chosen
        trail.append((lo.copy(), hi.copy()))
    raise AssertionError("reference quadtree hit max_iter")


def complex_poly_map(coeffs):
    def ev(pts):
        z = pts[:, 0] + 1j * pts[:, 1]
        v = np.polyval(coeffs, z)
        return np.stack([v.real, v.imag], axis=1)
    return ev


class TestIncrementalQuadtree:
    def assert_matches_reference(self, ev, box, eps_x, eps_f, seed=0):
        trail, point, termination, iterations, jiggled = reference_quadtree(
            ev, box, eps_x, eps_f, seed=seed)
        result = locate_zero(ev, box, eps_x=eps_x, eps_f=eps_f, seed=seed)
        assert result.termination == termination
        assert result.iterations == iterations
        assert np.array_equal(result.point, point)
        assert len(result.trail) == len(trail)
        for (lo, hi), (ref_lo, ref_hi) in zip(result.trail, trail):
            assert np.array_equal(lo, ref_lo) and np.array_equal(hi, ref_hi)
        return jiggled

    def test_random_polynomials_match_reference(self):
        rng = np.random.default_rng(53)
        checked = 0
        for _ in range(24):
            degree = int(rng.integers(1, 5))
            roots = rng.uniform(-1, 1, degree) + 1j * rng.uniform(-1, 1, degree)
            coeffs = np.poly(roots) * complex(*rng.uniform(0.5, 2.0, 2))
            width = rng.uniform(0.3, 2.5, 2)
            lower = (np.array([roots[0].real, roots[0].imag])
                     - rng.uniform(0.05, 0.95, 2) * width)
            box = Region.box(lower, lower + width)
            ev = complex_poly_map(coeffs)
            if box_winding(ev, box.lower, box.upper) == 0:
                continue    # the other roots cancel the first one's degree
            self.assert_matches_reference(ev, box, eps_x=1e-9, eps_f=1e-12)
            checked += 1
        assert checked >= 20

    @pytest.mark.parametrize("seed", [0, 42])
    def test_zero_on_cut_sample_jiggles_like_reference(self, seed):
        # (0, 0.5) is a sample of the first level's upper half-cut
        ev = as_evaluator(parse_map("x1, x2 - 0.5", 2))
        jiggled = self.assert_matches_reference(ev, UNIT_BOX, eps_x=1e-7,
                                                eps_f=0.0, seed=seed)
        assert jiggled

    def test_one_evaluation_per_level(self, counting_evaluator):
        # an affine map needs no refinement: the top box, one batch per
        # level and the last centre, whose image is the residual
        ev = counting_evaluator(parse_map("x1 - 0.3, x2 - 0.4", 2))
        result = locate_zero(ev, UNIT_BOX, eps_x=1e-6)
        assert result.termination == "cell_diameter"
        assert len(ev.batches) == result.iterations + 2
        assert ev.batches[0] == 64
        # cut point, four half-cuts of 7 interior samples, <= 4 edge points
        assert all(29 <= size <= 33 for size in ev.batches[1:-1])
        assert ev.batches[-1] == 1


class TestLocateZero1D:
    def test_cube_root(self):
        spec = parse_map("x1^3 - 0.5", 1)
        box = Region.box([-1.0], [1.0])
        result = locate_zero(spec, box, eps_x=1e-9, eps_f=0.0)
        assert abs(result.point[0] - 0.5 ** (1.0 / 3.0)) <= 1e-9

    def test_no_sign_change(self):
        spec = parse_map("x1^2 + 1", 1)
        with pytest.raises(DegreeLost):
            locate_zero(spec, Region.box([-1.0], [1.0]))

    def test_endpoints_in_one_evaluation(self, counting_evaluator):
        ev = counting_evaluator(parse_map("x1^3 - 0.5", 1))
        result = locate_zero(ev, Region.box([-1.0], [1.0]), eps_x=1e-9,
                             eps_f=0.0)
        assert result.termination == "cell_diameter"
        # endpoints, one midpoint per iteration, and the midpoint of the
        # last cell, which no iteration evaluated
        assert ev.batches == [2] + [1] * result.iterations + [1]

    def test_vector_codomain_rejected(self):
        # F = (x1 - 0.3, x1) has no zero; column 0 alone would give 0.3
        spec = parse_map("x1 - 0.3, x1", 1)
        with pytest.raises(InvalidInput, match="codomain dimension 1"):
            locate_zero(spec, Region.box([-1.0], [1.0]))

    def test_residual_stop_reuses_last_midpoint(self, counting_evaluator):
        # the zero 0.5 is the second midpoint: its image is the residual
        ev = counting_evaluator(parse_map("x1 - 0.5", 1))
        result = locate_zero(ev, Region.box([-1.0], [1.0]), eps_f=0.0)
        assert result.termination == "residual"
        assert result.point[0] == 0.5 and result.residual == 0.0
        assert ev.batches == [2, 1, 1]


class TestBrouwerFixedPoint:
    @pytest.mark.parametrize("map_like", [
        parse_map("x1/2, x2/2, 0", 2),
        lambda pts: 0.5 * pts[:, :1],      # would broadcast against x
    ])
    def test_codomain_must_equal_domain(self, map_like):
        with pytest.raises(InvalidInput, match="m = n"):
            brouwer_fixed_point(map_like, n=2)

    def test_constant_map(self):
        spec = parse_map("0.3, -0.2", 2)
        result = brouwer_fixed_point(spec)
        assert np.linalg.norm(result.point - [0.3, -0.2]) <= 1e-6

    def test_averaging_contraction(self):
        spec = parse_map("(x1 + 0.2)/2, (x2 - 0.1)/2", 2)
        result = brouwer_fixed_point(spec)
        assert np.linalg.norm(result.point - [0.2, -0.1]) <= 1e-6
        assert result.residual <= 1e-6

    def test_quarter_rotation(self):
        spec = parse_map("-x2, x1", 2)
        result = brouwer_fixed_point(spec)
        assert np.linalg.norm(result.point) <= 1e-6

    def test_leaves_disk_rejected(self):
        spec = parse_map("2*x1, 2*x2", 2)
        with pytest.raises(InvalidInput):
            brouwer_fixed_point(spec)

    def test_random_affine_contractions(self):
        rng = np.random.default_rng(37)
        for _ in range(5):
            a = rng.uniform(-0.5, 0.5, size=(2, 2))
            a *= 0.3 / max(0.3, np.linalg.norm(a, 2))
            fix = rng.uniform(-0.3, 0.3, size=2)
            b = (np.eye(2) - a) @ fix
            f = lambda pts, A=a, B=b: np.asarray(pts, float) @ A.T + B
            result = brouwer_fixed_point(f, n=2)
            assert np.linalg.norm(result.point - fix) <= 1e-6

    def test_one_dimensional(self):
        spec = parse_map("x1/2 + 0.25", 1)
        result = brouwer_fixed_point(spec)
        assert abs(result.point[0] - 0.5) <= 1e-6

    def test_boundary_evaluated_once(self, counting_evaluator):
        f = counting_evaluator(parse_map("(x1 + 0.2)/2, (x2 - 0.1)/2", 2))
        result = brouwer_fixed_point(f, n=2)
        assert np.linalg.norm(result.point - [0.2, -0.1]) <= 1e-6
        boundary = len(sample_sphere(Region.disk([0.0, 0.0], 1.0), 6))
        assert f.batches.count(boundary) == 1

    def test_boundary_fixed_point(self, counting_evaluator):
        # f fixes (1, 0), a sample of the boundary circle
        f = counting_evaluator(parse_map("x1/2 + 0.5, x2/2", 2))
        result = brouwer_fixed_point(f, n=2)
        assert result.termination == "boundary_fixed_point"
        assert np.array_equal(result.point, [1.0, 0.0])
        assert result.residual == 0.0
        boundary = len(sample_sphere(Region.disk([0.0, 0.0], 1.0), 6))
        # disk validation grid, boundary, residual at the fixed point
        assert f.batches[1:] == [boundary, 1]
