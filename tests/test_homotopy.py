import math

import numpy as np
import pytest
from conftest import circle_map, sampled_circle_map

from zerocert import (BoundarySampling, InvalidInput, NotANullHomotopy,
                      Region, SampledMap, null_homotopy, radial_extension,
                      sample_sphere, straight_line)
from zerocert.geometry import mesh_norm, wrapped_steps
from zerocert.homotopy import _make_trace


def _identity_map(level=6):
    return sampled_circle_map(lambda pts: np.asarray(pts, dtype=float), level)


def _shifted_map(level=6, shift=(3.0, 3.0)):
    return sampled_circle_map(
        lambda pts: np.asarray(pts, dtype=float) + np.asarray(shift), level)


class TestSampledMap:
    """The constructor checks of a SampledMap built directly."""

    def test_row_count_must_match_sampling(self):
        f = _identity_map(level=3)
        with pytest.raises(InvalidInput, match="differ in length"):
            SampledMap(sampling=f.sampling, images=f.images[:-1])

    def test_one_dimensional_images_rejected(self):
        f = _identity_map(level=3)
        with pytest.raises(InvalidInput, match="2-D"):
            SampledMap(sampling=f.sampling, images=f.images[:, 0].copy())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, bad):
        f = _identity_map(level=3)
        images = f.images.copy()
        images[5, 1] = bad
        with pytest.raises(InvalidInput, match="non-finite"):
            SampledMap(sampling=f.sampling, images=images)

    def test_m_is_the_image_width(self):
        sampling = sample_sphere(Region.disk(np.zeros(3), 1.0), 0)
        f = SampledMap.from_evaluator(lambda pts: pts[:, :2] + 2.0, sampling)
        assert f.m == f.images.shape[1] == 2
        g = SampledMap(sampling=sampling, images=np.ones((len(sampling), 5)))
        assert g.m == g.images.shape[1] == 5


class TestStraightLine:
    def test_constant_in_t(self):
        f = _shifted_map()
        trace, report = straight_line(f, f, t_steps=16)
        assert report.valid
        min_f = float(np.min(np.linalg.norm(f.images, axis=1)))
        assert report.min_norm == pytest.approx(min_f)
        assert np.allclose(trace.frames[0], trace.frames[-1])

    def test_paper_nonhomotopic_pair_has_vanishing_witness(self):
        # H(x,t) = x + t(3,3) vanishes at x = -(1,1)/sqrt(2), t = 1/(3 sqrt 2)
        f = _identity_map(level=6)
        g = _shifted_map(level=6)
        trace, report = straight_line(f, g, t_steps=257, L=5.0)
        assert not report.valid
        p_idx, t_idx = report.witness
        witness_point = f.sampling.points[p_idx]
        expected_point = -np.array([1.0, 1.0]) / math.sqrt(2.0)
        assert np.linalg.norm(witness_point - expected_point) < 0.05
        assert trace.t_grid[t_idx] == pytest.approx(1.0 / (3.0 * math.sqrt(2.0)),
                                                    abs=0.01)

    def test_positive_multiple_is_valid(self):
        f = _identity_map()
        g = SampledMap(sampling=f.sampling, images=2.0 * f.images)
        _, report = straight_line(f, g, t_steps=32)
        assert report.valid

    def test_positive_scaling_validity_random(self):
        rng = np.random.default_rng(21)
        f = _shifted_map(level=4, shift=(0.5, -0.2))
        for _ in range(100):
            lam = rng.uniform(0.1, 10.0, size=(len(f.images), 1))
            g = SampledMap(sampling=f.sampling, images=lam * f.images)
            _, report = straight_line(f, g, t_steps=16)
            assert report.valid

    def test_symmetry_with_reverse(self):
        f = _identity_map(level=4)
        g = _shifted_map(level=4, shift=(0.1, 0.4))
        fwd, _ = straight_line(f, g, t_steps=9)
        bwd, _ = straight_line(g, f, t_steps=9)
        assert np.allclose(fwd.frames, bwd.frames[::-1])

    def test_mismatched_samplings_rejected(self):
        f = _identity_map(level=3)
        g = _identity_map(level=4)
        with pytest.raises(InvalidInput):
            straight_line(f, g, t_steps=8)


class TestNullHomotopy:
    def test_contracts_winding_zero_map(self):
        f = _shifted_map(level=5)
        trace = null_homotopy(f, t_steps=33)
        assert np.allclose(trace.frames[0], f.images)
        last = trace.frames[-1]
        assert np.max(np.abs(last - last[0])) < 1e-9
        assert trace.min_norm > 0

    def test_rejects_nonzero_winding(self):
        with pytest.raises(NotANullHomotopy):
            null_homotopy(_identity_map(level=5))


class TestRadialExtension:
    def test_constant_map(self):
        f = _shifted_map(level=4, shift=(5.0, 0.0))
        const = SampledMap(sampling=f.sampling,
                           images=np.tile([5.0, 0.0], (len(f.images), 1)))
        trace, _ = straight_line(const, const, t_steps=5)
        phi = radial_extension(trace)
        for x in ([0.0, 0.0], [0.3, 0.2], [0.9, 0.0], [0.0, -1.0]):
            assert np.allclose(phi(x), [5.0, 0.0])

    def test_center_value_is_terminal_constant(self):
        f = _shifted_map(level=5)
        trace = null_homotopy(f)
        phi = radial_extension(trace)
        assert np.allclose(phi([0.0, 0.0]), trace.frames[-1][0])

    def test_boundary_agreement_exact(self):
        f = _shifted_map(level=5)
        phi = radial_extension(null_homotopy(f))
        for p, image in zip(f.sampling.points, f.images):
            assert np.allclose(phi(p), image, atol=1e-12)

    def test_zero_free_on_grid(self):
        # the winding-0 map admits a zero-free disk extension
        f = _shifted_map(level=6)
        phi = radial_extension(null_homotopy(f, t_steps=65))
        radii = np.linspace(0.0, 1.0, 100)
        angles = np.linspace(0.0, 2.0 * math.pi, 100, endpoint=False)
        worst = math.inf
        for r in radii:
            for a in angles:
                worst = min(worst, float(np.linalg.norm(
                    phi([r * math.cos(a), r * math.sin(a)]))))
        assert worst > 0.0

    def test_rejects_nonconstant_tail(self):
        f = _identity_map(level=4)
        g = _shifted_map(level=4)
        trace, _ = straight_line(f, g, t_steps=5)
        with pytest.raises(NotANullHomotopy):
            radial_extension(trace)


def null_homotopy_loop(f, t_steps):
    """Reference: the log-polar contraction built one frame at a time."""
    norms = np.linalg.norm(f.images, axis=1)
    steps = wrapped_steps(f.images)
    angle0 = np.arctan2(f.images[0, 1], f.images[0, 0])
    lifted = angle0 + np.concatenate([[0.0], np.cumsum(steps[:-1])])
    log_r = np.log(norms)
    target_log_r = float(np.mean(log_r))
    target_angle = float(np.mean(lifted))
    t_grid = np.linspace(0.0, 1.0, t_steps)
    frames = np.empty((t_steps, len(norms), 2))
    for i, t in enumerate(t_grid):
        r = np.exp((1.0 - t) * log_r + t * target_log_r)
        a = (1.0 - t) * lifted + t * target_angle
        frames[i, :, 0] = r * np.cos(a)
        frames[i, :, 1] = r * np.sin(a)
    frames[0] = f.images
    return _make_trace(f.sampling, t_grid, frames)


class TestNullHomotopyMatchesLoop:
    @pytest.mark.parametrize("t_steps", [2, 3, 17, 65])
    def test_equals_frame_loop(self, t_steps):
        rng = np.random.default_rng(t_steps)
        region = Region.disk([0.25, -0.5], 1.5)
        for k in (5, 37, 100, 256, 333):
            theta = np.sort(rng.uniform(0.0, 2.0 * math.pi, k))
            pts = region.center + 1.5 * np.stack([np.cos(theta),
                                                  np.sin(theta)], axis=1)
            sampling = BoundarySampling(points=pts, h=mesh_norm(pts, True),
                                        closed=True, region=region)
            # angles stay within 1.4 of a constant: winding 0
            a = rng.uniform(-math.pi, math.pi) + 1.4 * np.sin(
                int(rng.integers(1, 4)) * theta + rng.uniform(0.0, 6.0))
            r = rng.uniform(0.2, 5.0, k)
            f = SampledMap(sampling=sampling, images=np.stack(
                [r * np.cos(a), r * np.sin(a)], axis=1))
            got, want = null_homotopy(f, t_steps), null_homotopy_loop(f, t_steps)
            assert np.array_equal(got.t_grid, want.t_grid)
            assert got.frames.tobytes() == want.frames.tobytes()
            assert got.min_norm == want.min_norm
            assert got.witness == want.witness
