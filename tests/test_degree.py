import math

import numpy as np
import pytest
from conftest import (brute_force_winding, circle_map, random_trig_map,
                      sampled_circle_map)

from zerocert import (BudgetExhausted, InvalidInput, Region, SampledMap,
                      Unsupported, VanishingOnBoundary, certify_existence,
                      classify_cat, parse_map, sample_sphere,
                      sign_obstruction, straight_line, winding_number)
from zerocert.geometry import vanishing_floor


def _sampled(evaluator, level=6):
    return sampled_circle_map(evaluator, level)


class TestWindingNumber:
    def test_identity(self):
        ev = lambda pts: np.asarray(pts, dtype=float)
        assert winding_number(_sampled(ev)).value == 1

    def test_identity_any_level(self):
        # level 0 starts with exactly pi/2 steps; refinement must resolve it
        ev = lambda pts: np.asarray(pts, dtype=float)
        for level in range(4):
            assert winding_number(_sampled(ev, level)).value == 1

    def test_squaring_map(self):
        ev = circle_map(lambda t: np.stack([np.cos(2 * t), np.sin(2 * t)], axis=1))
        result = winding_number(_sampled(ev))
        assert result.value == 2
        assert result.value == brute_force_winding(ev)

    def test_shifted_map_winding_zero(self):
        ev = lambda pts: np.asarray(pts, dtype=float) + np.array([3.0, 3.0])
        result = winding_number(_sampled(ev))
        assert result.value == 0
        assert brute_force_winding(ev) == 0

    def test_antipodal_map(self):
        ev = lambda pts: -np.asarray(pts, dtype=float)
        result = winding_number(_sampled(ev))
        assert result.value == 1
        assert brute_force_winding(ev) == 1

    def test_vanishing_sample_raises(self):
        ev = lambda pts: np.asarray(pts, dtype=float) - np.array([1.0, 0.0])
        with pytest.raises(VanishingOnBoundary):
            winding_number(_sampled(ev, level=3))

    def test_budget_exhausted_without_evaluator(self):
        sampling = sample_sphere(Region.disk([0.0, 0.0], 1.0), 0)
        f = SampledMap(sampling=sampling, images=sampling.points.copy())
        with pytest.raises(BudgetExhausted) as err:
            winding_number(f)
        assert err.value.best.value == 1  # the coarse estimate is still right

    @pytest.mark.parametrize("level", [0, 6])
    def test_negative_budget_rejected(self, level):
        ev = lambda pts: np.asarray(pts, dtype=float)
        with pytest.raises(InvalidInput, match="refine_budget"):
            winding_number(_sampled(ev, level), refine_budget=-5)
        assert winding_number(_sampled(ev, 6), refine_budget=0).value == 1

    def test_rigor_labels(self):
        ev = lambda pts: np.asarray(pts, dtype=float)
        heuristic = winding_number(_sampled(ev))
        rigorous = winding_number(_sampled(ev), L=1.0)
        assert heuristic.rigor == "heuristic"
        assert rigorous.rigor == "rigorous"
        assert rigorous.max_step_angle < math.pi / 2
        assert rigorous.residual < 0.05

    def test_oracle_equivalence_random_maps(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            ev = random_trig_map(rng, min_norm=1e-3)
            assert winding_number(_sampled(ev)).value == brute_force_winding(ev)

    def test_homotopy_invariance(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            f_ev = random_trig_map(rng)
            f = _sampled(f_ev)
            min_f = float(np.min(np.linalg.norm(f.images, axis=1)))
            shift = rng.normal(size=2)
            shift *= 0.4 * min_f / np.linalg.norm(shift)
            g_ev = lambda pts, s=shift: f_ev(pts) + s
            g = SampledMap(sampling=f.sampling, images=f.images + shift,
                           evaluator=g_ev)
            _, report = straight_line(f, g, t_steps=16)
            assert report.valid
            assert winding_number(f).value == winding_number(g).value

    def test_positive_scaling_invariance(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            ev = random_trig_map(rng)
            f = _sampled(ev)
            scaled_ev = lambda pts, e=ev: e(pts) * (
                0.1 + 9.9 * (0.5 + 0.5 * np.cos(np.arctan2(
                    np.atleast_2d(pts)[:, 1], np.atleast_2d(pts)[:, 0]))))[:, None]
            g = _sampled(scaled_ev)
            assert winding_number(f).value == winding_number(g).value

    def test_rotation_invariance(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            ev = random_trig_map(rng)
            angle = rng.uniform(0, 2 * math.pi)
            rot = np.array([[math.cos(angle), -math.sin(angle)],
                            [math.sin(angle), math.cos(angle)]])
            rotated = lambda pts, e=ev, R=rot: e(pts) @ R.T
            assert winding_number(_sampled(ev)).value == \
                winding_number(_sampled(rotated)).value


class TestSignObstruction:
    def _scalar_map(self, lo, hi):
        sampling = sample_sphere(Region.disk([0.0], 1.0), 0)
        return SampledMap(sampling=sampling,
                          images=np.array([[lo], [hi]], dtype=float))

    def test_sign_change_positive(self):
        assert sign_obstruction(self._scalar_map(-2.0, 3.0)) == 1

    def test_same_component_positive(self):
        assert sign_obstruction(self._scalar_map(1.0, 5.0)) == 0

    def test_same_component_negative(self):
        assert sign_obstruction(self._scalar_map(-1.0, -4.0)) == 0

    def test_sign_change_negative(self):
        assert sign_obstruction(self._scalar_map(2.0, -3.0)) == -1

    def test_zero_value_raises(self):
        with pytest.raises(VanishingOnBoundary):
            sign_obstruction(self._scalar_map(0.0, 1.0))

    def test_matches_intermediate_value_theorem(self):
        # polynomial endpoint data has a sign change iff the obstruction fires
        for poly in ([1, 0, -0.5], [1, 0, 0.5], [1, -3, 1], [2, 0, 1]):
            lo = float(np.polyval(poly, -1.0))
            hi = float(np.polyval(poly, 1.0))
            roots = np.roots(poly)
            has_interior_root = any(abs(r.imag) < 1e-12 and -1 < r.real < 1
                                    for r in roots)
            obstruction = sign_obstruction(self._scalar_map(lo, hi))
            if obstruction != 0:
                assert has_interior_root


class TestClassifyCat:
    def test_planar_identity(self):
        f = _sampled(lambda pts: np.asarray(pts, dtype=float))
        result = classify_cat(f)
        assert result.cat == 2
        assert result.reason == "winding_nonzero"

    def test_planar_winding_zero(self):
        f = _sampled(lambda pts: np.asarray(pts, dtype=float) + np.array([3.0, 3.0]))
        result = classify_cat(f)
        assert result.cat == 1
        assert result.reason == "winding_zero"

    def test_codomain_dim_excess(self):
        sampling = sample_sphere(Region.disk([0.0, 0.0], 1.0), 3)
        images = np.concatenate([sampling.points,
                                 np.ones((len(sampling.points), 1))], axis=1)
        f = SampledMap(sampling=sampling, images=images)
        result = classify_cat(f)
        assert result.cat == 1
        assert result.reason == "codomain_dim_excess"

    def test_s0_sign_change(self):
        sampling = sample_sphere(Region.disk([0.0], 1.0), 0)
        f = SampledMap(sampling=sampling, images=np.array([[-1.0], [1.0]]))
        result = classify_cat(f)
        assert result.cat == 2
        assert result.reason == "sign_change"

    def test_unsupported_dimensions(self):
        sampling = sample_sphere(Region.disk(np.zeros(3), 1.0), 0)
        f = SampledMap(sampling=sampling, images=sampling.points.copy())
        with pytest.raises(Unsupported):
            classify_cat(f)


class TestVanishingFloor:
    """One rule, geometry.vanishing_floor, decides that a boundary image
    vanishes, for the winding and for the certificate alike."""

    TEXT = "x1 - 0.99999999999999, x2"     # |F(1, 0)| = 1e-14

    def test_winding_raises_within_the_floor(self):
        spec = parse_map(self.TEXT, 2)
        f = SampledMap.from_evaluator(
            spec, sample_sphere(Region.disk([0.0, 0.0], 1.0)))
        with pytest.raises(VanishingOnBoundary) as err:
            winding_number(f)
        assert err.value.index == 0
        assert 0.0 < err.value.norm <= vanishing_floor(
            np.linalg.norm(f.images, axis=1))

    def test_certificate_says_zero_on_boundary(self):
        cert = certify_existence(parse_map(self.TEXT, 2),
                                 Region.disk([0.0, 0.0], 1.0))
        assert cert.verdict == "ZeroOnBoundary"
