import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import circle_map, sampled_circle_map

from zerocert import (BoundarySampling, InvalidInput, NotANullHomotopy,
                      Region, SampledMap, certify_existence, evaluate,
                      null_homotopy, parse_map, radial_extension,
                      sample_sphere, straight_line, winding_number)
from zerocert import homotopy
from zerocert.geometry import mesh_norm, wrapped_steps
from zerocert.homotopy import ENDPOINT_TOL, null_extension


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

    @pytest.mark.parametrize("L", [None, 1e-20])
    def test_crossing_at_a_sample_is_invalid(self, L):
        # x + 3t crosses 0 at x = -1, t = 1/3, where the frame norm is
        # a rounding error above 0, below the vanishing floor
        sampling = sample_sphere(Region.disk([0.0], 1.0))
        f = SampledMap(sampling=sampling, images=sampling.points.copy())
        g = SampledMap(sampling=sampling, images=sampling.points + 3.0)
        trace, report = straight_line(f, g, t_steps=4, L=L)
        floor = 1e-12 * float(np.max(np.linalg.norm(trace.frames, axis=2)))
        assert 0.0 < report.min_norm <= floor
        assert not report.valid
        if L is None:
            assert report.rigor == "heuristic" and report.threshold == floor

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


class TestDiskCoordinates:
    """phi takes points of its sampling's own disk; a certificate's witness
    on that disk answers as phi does."""

    DISK = Region.disk([0.5, 0.0], 2.0)
    SPEC = parse_map("x1 + 3, x2 + 3", 2)

    @pytest.mark.parametrize("level", [3, 6])
    def test_matches_the_map_at_the_samples(self, level):
        f = SampledMap.from_evaluator(self.SPEC, sample_sphere(self.DISK,
                                                               level))
        phi = radial_extension(null_homotopy(f))
        got = np.array([phi(p) for p in f.sampling.points])
        scale = 1.0 + float(np.max(np.linalg.norm(f.images, axis=1)))
        assert np.max(np.abs(got - f.images)) <= 1e-12 * scale

    def test_certificate_witness_is_phi(self):
        cert = certify_existence(self.SPEC, self.DISK)
        assert cert.obstruction == 0
        phi = radial_extension(null_homotopy(SampledMap.from_evaluator(
            self.SPEC, sample_sphere(self.DISK, 6))))
        rng = np.random.default_rng(31)
        radii = self.DISK.radius * np.sqrt(rng.uniform(0.0, 1.0, 200))
        angles = rng.uniform(0.0, 2.0 * math.pi, 200)
        points = self.DISK.center + radii[:, None] * np.stack(
            [np.cos(angles), np.sin(angles)], axis=1)
        for x in points:
            assert np.allclose(cert.extension_witness(x), phi(x),
                               rtol=0.0, atol=1e-12), x


def eager_trace(t_grid, frames):
    """Reference: a trace's grid, its smallest norm and where it is hit."""
    norms = np.linalg.norm(frames, axis=2)
    t_idx, p_idx = np.unravel_index(int(np.argmin(norms)), norms.shape)
    return SimpleNamespace(t_grid=t_grid, frames=frames,
                           min_norm=float(norms[t_idx, p_idx]),
                           witness=(int(p_idx), int(t_idx)))


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
    return eager_trace(t_grid, frames)


class TestNullHomotopyMatchesLoop:
    @pytest.mark.parametrize("t_steps", [2, 3, 17, 65])
    def test_equals_frame_loop(self, t_steps):
        rng = np.random.default_rng(t_steps)
        region = Region.disk([0.25, -0.5], 1.5)
        for k in (5, 37, 100, 256, 333):
            theta = np.sort(rng.uniform(0.0, 2.0 * math.pi, k))
            pts = region.center + 1.5 * np.stack([np.cos(theta),
                                                  np.sin(theta)], axis=1)
            sampling = BoundarySampling(points=pts, h=mesh_norm(pts),
                                        region=region)
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


def radial_extension_eager(H):
    """Reference: the extension over the whole reordered frame grid, of a
    point of the sampling's disk rescaled onto the unit disk."""
    last = H.frames[-1]
    c = last[0].copy()
    if float(np.max(np.abs(last - c))) > ENDPOINT_TOL:
        raise NotANullHomotopy("final frame is not constant")
    if np.linalg.norm(c) <= 0.0:
        raise NotANullHomotopy("final constant is zero")
    region = H.base.region
    rel = (H.base.points - region.center) / region.radius
    angles = np.arctan2(rel[:, 1], rel[:, 0])
    theta0 = angles[0]
    rel_ang = np.mod(angles - theta0, 2.0 * math.pi)
    order = np.argsort(rel_ang)
    rel_ang = rel_ang[order]
    frames = H.frames[:, order, :]
    t_grid = H.t_grid
    k = len(rel_ang)

    def phi(x):
        x = (np.asarray(x, dtype=float) - region.center) / region.radius
        r = float(np.linalg.norm(x))
        if r <= 0.5:
            return c.copy()
        t = min(max(2.0 - 2.0 * r, 0.0), 1.0)
        theta = math.atan2(x[1], x[0])
        a = (theta - theta0) % (2.0 * math.pi)
        j = int(np.searchsorted(rel_ang, a, side="right")) - 1
        if j < 0:
            j = k - 1
        j2 = (j + 1) % k
        width = (rel_ang[j2] - rel_ang[j]) % (2.0 * math.pi)
        if width == 0.0:
            w = 0.0
        else:
            w = ((a - rel_ang[j]) % (2.0 * math.pi)) / width
        i = int(np.searchsorted(t_grid, t, side="right")) - 1
        i = min(max(i, 0), len(t_grid) - 2)
        span = t_grid[i + 1] - t_grid[i]
        s = (t - t_grid[i]) / span if span > 0 else 0.0
        lo = (1.0 - w) * frames[i, j] + w * frames[i, j2]
        hi = (1.0 - w) * frames[i + 1, j] + w * frames[i + 1, j2]
        return (1.0 - s) * lo + s * hi

    return phi


def _winding_zero_map(rng, sampling):
    """Images whose angle stays within 1.4 of a constant, so every wrapped
    step is below pi in any sample order and the winding is 0."""
    rel = (sampling.points - sampling.region.center) / sampling.region.radius
    theta = np.arctan2(rel[:, 1], rel[:, 0])
    a = rng.uniform(-math.pi, math.pi) + 1.4 * np.sin(
        int(rng.integers(1, 4)) * theta + rng.uniform(0.0, 6.0))
    r = rng.uniform(0.2, 5.0, len(theta))
    return SampledMap(sampling=sampling,
                      images=np.stack([r * np.cos(a), r * np.sin(a)], axis=1))


def _probe_points(rng, sampling, count):
    """Points of the sampling's disk, at these fractions of its radius from
    its centre: the inner half disk, the annulus, just outside it, the
    centre and one half; and exact boundary samples."""
    region = sampling.region
    quarter = count // 4
    radii = np.concatenate([rng.uniform(0.0, 0.5, quarter),
                            rng.uniform(0.5, 1.0, quarter),
                            rng.uniform(1.0, 1.5, quarter)])
    angles = rng.uniform(-math.pi, math.pi, len(radii))
    inside = radii[:, None] * np.stack([np.cos(angles), np.sin(angles)], 1)
    picked = sampling.points[rng.choice(len(sampling), count - len(radii))]
    inside = np.concatenate([inside, [[0.0, 0.0], [0.5, 0.0]]])
    return np.concatenate([region.center + region.radius * inside, picked])


def _assert_same_witness(trace, points):
    got, want = radial_extension(trace), radial_extension_eager(trace)
    for x in points:
        a, b = got(x), want(x)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), x


class TestRadialExtensionMatchesEager:
    """The extension built from four frame entries per point equals the one
    interpolating the whole frame grid, bit for bit."""

    @pytest.mark.parametrize("t_steps", [2, 3, 65])
    def test_null_homotopy_witness(self, t_steps):
        rng = np.random.default_rng(100 + t_steps)
        checked = 0
        for m in range(140):
            level = 2 + m % 7
            region = (Region.disk([0.0, 0.0], 1.0) if m % 2 else Region.disk(
                rng.uniform(-2.0, 2.0, 2), float(rng.uniform(0.3, 3.0))))
            sampling = sample_sphere(region, level)
            trace = null_homotopy(_winding_zero_map(rng, sampling), t_steps)
            points = _probe_points(rng, sampling, 80)
            _assert_same_witness(trace, points)
            checked += len(points)
        assert checked >= 140 * 80

    def test_certify_witness(self):
        spec = parse_map("x1 + 3, x2 + 3", 2)
        region = Region.disk([0.5, -1.0], 2.0)
        cert = certify_existence(spec, region)
        assert cert.verdict == "NoConclusion" and cert.obstruction == 0
        sampling = sample_sphere(Region.disk([0.0, 0.0], 1.0), 6)
        f = SampledMap.from_evaluator(
            lambda pts: evaluate(spec, 2.0 * pts + region.center), sampling)
        want = radial_extension_eager(null_homotopy(f))
        rng = np.random.default_rng(5)
        for x in _probe_points(rng, sampling, 200):
            y = 2.0 * x + region.center
            got = cert.extension_witness(y)
            assert got.tobytes() == want((y - region.center) / 2.0).tobytes()

    @pytest.mark.parametrize("shift", [0.0, 0.7, -2.9])
    def test_sampling_out_of_angular_order(self, shift):
        # rotated so sample 0 is not at angle 0, then shuffled: the sorted
        # angular order is not the sample order
        rng = np.random.default_rng(int(10 * shift) + 50)
        region = Region.disk([0.3, -0.2], 1.7)
        for k in (3, 8, 61):
            theta = shift + np.sort(rng.uniform(0.0, 2.0 * math.pi, k))
            if shift:
                theta = rng.permutation(theta)
            pts = region.center + 1.7 * np.stack([np.cos(theta),
                                                  np.sin(theta)], axis=1)
            sampling = BoundarySampling(points=pts, h=mesh_norm(pts),
                                        region=region)
            for t_steps in (2, 5, 65):
                trace = null_homotopy(_winding_zero_map(rng, sampling), t_steps)
                _assert_same_witness(trace, _probe_points(rng, sampling, 80))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_straight_line_to_a_constant(self, m):
        rng = np.random.default_rng(m)
        for level in (2, 5):
            sampling = sample_sphere(Region.disk([1.0, 2.0], 0.5), level)
            f = SampledMap(sampling=sampling,
                           images=rng.normal(size=(len(sampling), m)))
            g = SampledMap(sampling=sampling, images=np.tile(
                rng.normal(size=m), (len(sampling), 1)))
            for t_steps in (2, 3, 17):
                trace, _ = straight_line(f, g, t_steps)
                _assert_same_witness(trace, _probe_points(rng, sampling, 80))

    def test_checks_raise_the_same(self):
        f = _identity_map(level=4)
        g = _shifted_map(level=4)
        trace, _ = straight_line(f, g, t_steps=5)
        for build in (radial_extension, radial_extension_eager):
            with pytest.raises(NotANullHomotopy, match="not constant"):
                build(trace)
        zero = SampledMap(sampling=f.sampling, images=np.zeros_like(f.images))
        trace, _ = straight_line(f, zero, t_steps=5)
        for build in (radial_extension, radial_extension_eager):
            with pytest.raises(NotANullHomotopy, match="constant is zero"):
                build(trace)


def angular_order_eager(sampling):
    """Reference: the sampling's angles about its centre, relative to the
    first sample's, sorted, as radial_extension computed them per build."""
    rel = (sampling.points - sampling.region.center) / sampling.region.radius
    angles = np.arctan2(rel[:, 1], rel[:, 0])
    rel_ang = np.mod(angles - angles[0], 2.0 * math.pi)
    order = np.argsort(rel_ang)
    return float(angles[0]), rel_ang[order].tolist(), order.tolist()


class TestAngularOrder:
    def test_equals_the_eager_sort(self):
        rng = np.random.default_rng(8)
        region = Region.disk([0.3, -0.2], 1.7)
        samplings = [sample_sphere(region, level) for level in range(7)]
        for k in (3, 8, 61):
            theta = rng.permutation(rng.uniform(0.0, 2.0 * math.pi, k))
            pts = region.center + 1.7 * np.stack([np.cos(theta),
                                                  np.sin(theta)], axis=1)
            samplings.append(BoundarySampling(points=pts, h=mesh_norm(pts),
                                              region=region))
        for sampling in samplings:
            theta0, angles, order = sampling.angular_order
            want = angular_order_eager(sampling)
            assert (theta0, list(angles), list(order)) == want

    def test_cached_unit_sampling_sorts_once(self, monkeypatch):
        unit = sample_sphere(Region.disk([0.0, 0.0], 1.0), 6)
        assert unit.angular_order is unit.angular_order
        sorts = []
        argsort = np.argsort

        def counted(*args, **kwargs):
            sorts.append(1)
            return argsort(*args, **kwargs)
        monkeypatch.setattr(np, "argsort", counted)
        spec = parse_map("x1 + 3, x2 + 3", 2)
        for _ in range(2):
            cert = certify_existence(spec, Region.disk([0.5, -1.0], 2.0))
            assert cert.extension_witness([0.9, 1.1]).shape == (2,)
        assert sorts == []
        # a fresh sampling sorts on its first build only
        fresh = BoundarySampling(points=unit.points.copy(), h=unit.h,
                                 region=unit.region)
        trace = null_homotopy(SampledMap(sampling=fresh,
                                         images=unit.points + 3.0))
        for _ in range(2):
            radial_extension(trace)
        assert sorts == [1]


class TestStraightLineMatchesEager:
    @pytest.mark.parametrize("t_steps", [2, 3, 16, 257])
    def test_frames_min_norm_witness(self, t_steps):
        rng = np.random.default_rng(t_steps)
        for level, m in ((2, 1), (4, 2), (6, 3)):
            sampling = sample_sphere(Region.disk([0.0, 0.5], 2.0), level)
            f = SampledMap(sampling=sampling,
                           images=rng.normal(size=(len(sampling), m)))
            g = SampledMap(sampling=sampling,
                           images=rng.normal(size=(len(sampling), m)))
            t_grid = np.linspace(0.0, 1.0, t_steps)
            want = eager_trace(t_grid, (1.0 - t_grid)[:, None, None]
                               * f.images[None]
                               + t_grid[:, None, None] * g.images[None])
            got, report = straight_line(f, g, t_steps)
            assert got.frames.tobytes() == want.frames.tobytes()
            assert got.min_norm == want.min_norm == report.min_norm
            assert got.witness == want.witness == report.witness

    def test_frame_entries_match_the_grid(self):
        f = _identity_map(level=3)
        g = _shifted_map(level=3)
        trace, _ = straight_line(f, g, t_steps=9)
        i, j = np.array([0, 8, 3, 3]), np.array([5, 0, 31, 7])
        assert trace.frame(i, j).tobytes() == trace.frames[i, j].tobytes()
        trace = null_homotopy(_shifted_map(level=3), t_steps=9)
        assert trace.frame(i, j).tobytes() == trace.frames[i, j].tobytes()

    def test_null_homotopy_needs_two_steps(self):
        with pytest.raises(InvalidInput, match="t_steps"):
            null_homotopy(_shifted_map(level=3), t_steps=1)


class TestScalarCorners:
    """``corners`` is the witness's single-point path: it equals the frame
    grid bit for bit, and ``phi`` never calls the vector ``frame``."""

    @staticmethod
    def _assert_corners_match(trace, rng):
        k, frames = len(trace.base.points), trace.frames
        js = np.unique(np.concatenate([[0, k - 1], rng.integers(0, k, 12)]))
        for i in range(len(trace.t_grid) - 1):
            for j in js.tolist():
                for j2 in ((j + 1) % k, int(rng.integers(0, k))):
                    got = trace.corners(i, j, j2)
                    want = frames[[i, i, i + 1, i + 1], [j, j2, j, j2]]
                    assert np.array(got).tobytes() == want.tobytes(), (i, j)
                    assert all(type(v) is float for e in got for v in e)

    @pytest.mark.parametrize("t_steps", [2, 3, 65])
    def test_null_homotopy_corners_equal_frames(self, t_steps):
        rng = np.random.default_rng(200 + t_steps)
        for level in (2, 6):
            sampling = sample_sphere(Region.disk(rng.uniform(-2, 2, 2), 1.3),
                                     level)
            trace = null_homotopy(_winding_zero_map(rng, sampling), t_steps)
            self._assert_corners_match(trace, rng)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_straight_line_corners_equal_frames(self, m):
        rng = np.random.default_rng(300 + m)
        sampling = sample_sphere(Region.disk([0.5, 0.0], 2.0), 4)
        f, g = (SampledMap(sampling=sampling,
                           images=rng.normal(size=(len(sampling), m)))
                for _ in range(2))
        for t_steps in (2, 3, 17):
            trace, _ = straight_line(f, g, t_steps)
            self._assert_corners_match(trace, rng)

    @pytest.mark.parametrize("build", ["null", "straight"])
    def test_phi_never_calls_frame(self, build):
        f = _shifted_map(level=5)
        if build == "null":
            trace = null_homotopy(f)
        else:
            const = SampledMap(sampling=f.sampling,
                               images=np.tile([3.0, -1.0], (len(f.images), 1)))
            trace, _ = straight_line(f, const, t_steps=9)
        calls = []

        def counted(i, j):
            calls.append(np.unique(i).tolist())
            return trace.frame(i, j)

        phi = radial_extension(replace(trace, frame=counted))
        # a null homotopy's recorded end stands for its last frame
        want = [] if build == "null" else [[len(trace.t_grid) - 1]]
        assert calls == want
        rng = np.random.default_rng(7)
        for x in _probe_points(rng, f.sampling, 80):
            phi(x)
        assert calls == want


def _near_double_root(rng):
    """(z - a)^2 on the level-6 unit circle, a just outside it: the image
    often turns by more than pi between two samples, so that the winding
    refines its boundary."""
    a = complex((1.0 + rng.uniform(0.002, 0.01))
                * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))

    def evaluator(pts):
        z = (pts[:, 0] + 1j * pts[:, 1] - a) ** 2
        return np.stack([z.real, z.imag], axis=1)
    return SampledMap.from_evaluator(
        evaluator, sample_sphere(Region.disk([0.0, 0.0], 1.0), 6))


def _winding_zero_boundaries(rng):
    """WindingResults of winding 0: random maps on unrefined samplings of
    several disks, then boundaries the winding refined."""
    results = []
    for level in (2, 4, 6):
        region = Region.disk(rng.uniform(-2.0, 2.0, 2),
                             float(rng.uniform(0.3, 3.0)))
        results.append(winding_number(
            _winding_zero_map(rng, sample_sphere(region, level))))
    # a draw whose samples alias the double turn gets winding 1 unrefined
    refined = [w for w in (winding_number(_near_double_root(rng))
                           for _ in range(12))
               if w.value == 0 and w.total_refinements > 0]
    assert len(refined) >= 3
    results += refined[:3]
    assert all(w.value == 0 for w in results)
    return results


class TestRecordedEnd:
    """A null homotopy records its t = 1 value as ``end``; the extension
    reads it in place of the last frame."""

    @pytest.mark.parametrize("t_steps", [2, 3, 17, 65])
    def test_end_is_every_entry_of_the_last_frame(self, t_steps):
        rng = np.random.default_rng(400 + t_steps)
        for w in _winding_zero_boundaries(rng):
            trace = null_homotopy(w.boundary, t_steps)
            last = trace.frames[-1]
            assert trace.end.dtype == last.dtype and trace.end.shape == (2,)
            assert last.tobytes() == np.tile(trace.end, (len(last), 1)).tobytes()
            with pytest.raises(ValueError):
                trace.end[0] = 1.0

    @pytest.mark.parametrize("t_steps", [2, 17, 65])
    def test_winding_steps_give_the_same_trace(self, t_steps):
        # the WindingResult's steps are the boundary's own wrapped steps
        rng = np.random.default_rng(500 + t_steps)
        for w in _winding_zero_boundaries(rng):
            assert w.steps.tobytes() == wrapped_steps(w.boundary.images).tobytes()
            got = homotopy._null_homotopy(w.boundary, t_steps, w.steps)
            want = null_homotopy(w.boundary, t_steps)
            assert got.frames.tobytes() == want.frames.tobytes()
            assert got.end.tobytes() == want.end.tobytes()
            assert got.corners(0, 1, 2) == want.corners(0, 1, 2)

    def test_straight_line_records_no_end(self):
        f = _shifted_map(level=3)
        assert straight_line(f, f, t_steps=4)[0].end is None

    def test_t_grid_is_built_once_and_read_only(self):
        f = _shifted_map(level=3)
        trace, line = null_homotopy(f, 9), straight_line(f, f, 9)[0]
        assert trace.t_grid is line.t_grid
        t, s, t_list, s_list = homotopy._t_grid(9)
        assert t is trace.t_grid
        assert t.tobytes() == np.linspace(0.0, 1.0, 9).tobytes()
        assert s.tobytes() == (1.0 - np.linspace(0.0, 1.0, 9)).tobytes()
        assert (list(t_list), list(s_list)) == (t.tolist(), s.tolist())
        for grid in (t, s):
            with pytest.raises(ValueError):
                grid[1] = 0.5
        assert homotopy._t_grid.cache_info().maxsize == homotopy.T_GRID_CACHE


    def test_a_grid_of_the_callers_own(self):
        # a trace built with its own t-grid is blended on that grid, not on
        # the cached one of its length
        rng = np.random.default_rng(700)
        trace = null_homotopy(_winding_zero_map(rng, sample_sphere(
            Region.disk([0.0, 0.0], 1.0), 4)), 9)
        own = replace(trace, t_grid=np.linspace(0.0, 1.0, 9) ** 2)
        _assert_same_witness(own, _probe_points(rng, own.base, 80))


class TestWitnessBuilder:
    """The certificate's witness builder, on the boundary's own disk, is
    the public ``phi`` of the winding's boundary, byte for byte."""

    def test_builder_is_radial_extension(self):
        rng = np.random.default_rng(600)
        for w in _winding_zero_boundaries(rng):
            sampling = w.boundary.sampling
            built = null_extension(w.boundary, w.steps, sampling.region)
            phi = radial_extension(null_homotopy(w.boundary))
            points = _probe_points(rng, sampling, 120)
            # far points, and a strided view as phi's input
            points = np.concatenate([points, [[1e300, 1e300], [-1.7e308, 0.0],
                                              [3.0, -4.0]]])
            for x in list(points) + [np.asfortranarray(points)[5]]:
                got, want = built(x), phi(x)
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes(), x
