import math
import os
import subprocess
import sys
from bisect import bisect_right

import numpy as np
import pytest
from conftest import sampled_circle_map

from zerocert import (BoundarySampling, InvalidInput, NotANullHomotopy,
                      Region, SampledMap, certify_existence, evaluate,
                      null_homotopy, parse_map, radial_extension,
                      sample_sphere, straight_line, winding_number)
import zerocert
from zerocert import geometry
from zerocert.geometry import mesh_norm, wrapped_steps
from zerocert.homotopy import log_polar_extension


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


def projection_loop(f, g):
    """Reference: per sample, the distance from 0 to the segment
    [f_j, g_j] and the t in [0, 1] where it is attained, in plain Python
    floats."""
    out = []
    for a, b in zip(f.images.tolist(), g.images.tolist()):
        d = [y - x for x, y in zip(a, b)]
        dd = sum(v * v for v in d)
        t = 0.0
        if dd > 0.0:
            t = min(max(-sum(x * v for x, v in zip(a, d)) / dd, 0.0), 1.0)
        out.append((math.hypot(*[(1.0 - t) * x + t * y
                                 for x, y in zip(a, b)]), t))
    return out


def _quadratic_basis(points):
    x, y = points[:, 0], points[:, 1]
    return np.stack([np.ones_like(x), x, y, x * x, x * y, y * y], axis=1)


def _quadratic_lipschitz(coefs):
    """1.2 times the largest Jacobian 2-norm on the unit disk of the planar
    quadratic with ``coefs`` over 1, x, y, x^2, xy, y^2.  The Jacobian is
    affine in x, so its norm, a convex function, peaks on the circle."""
    theta = np.linspace(0.0, 2.0 * math.pi, 4096)
    x, y = np.cos(theta), np.sin(theta)
    (a, b), (c, d) = ((k[1] + 2.0 * k[3] * x + k[4] * y,
                       k[2] + k[4] * x + 2.0 * k[5] * y) for k in coefs)
    # the larger singular value of [[a, b], [c, d]]
    frob, det = a * a + b * b + c * c + d * d, a * d - b * c
    sigma = np.sqrt(0.5 * (frob + np.sqrt(frob * frob - 4.0 * det * det)))
    return 1.2 * float(np.max(sigma))


def crosses_loop(f_images, g_images):
    """Reference: whether (1-t) f + t g vanishes between two adjacent
    samples of a dense circle: the segment [f, g] passes through 0 where
    g/f is a negative real, so where f x g changes sign while f.g < 0."""
    dot = np.sum(f_images * g_images, axis=1).tolist()
    cross = (f_images[:, 0] * g_images[:, 1]
             - f_images[:, 1] * g_images[:, 0]).tolist()
    k = len(dot)
    for j in range(k):
        j2 = (j + 1) % k
        if (cross[j] <= 0.0) != (cross[j2] <= 0.0) and (
                dot[j] < 0.0 or dot[j2] < 0.0):
            return True
    return False


class TestStraightLine:
    def test_constant_in_t(self):
        # straight_line(f, f) is valid iff f misses 0: each segment is the
        # point f_j, at t* = 0
        f = _shifted_map()
        report = straight_line(f, f)
        assert report.valid
        j = int(np.argmin(np.linalg.norm(f.images, axis=1)))
        assert report.min_norm == float(np.linalg.norm(f.images[j]))
        assert report.witness == (j, 0.0)
        images = f.images.copy()
        images[7] = 0.0
        vanishing = SampledMap(sampling=f.sampling, images=images)
        for L in (None, 1.0):
            report = straight_line(vanishing, vanishing, L=L)
            assert not report.valid
            assert report.min_norm == 0.0 and report.witness == (7, 0.0)

    def test_paper_nonhomotopic_pair_has_vanishing_witness(self):
        # H(x,t) = x + t(3,3) vanishes at the sample x = -(1,1)/sqrt(2),
        # t = 1/(3 sqrt 2)
        f = _identity_map(level=6)
        g = _shifted_map(level=6)
        for L in (None, 5.0):
            report = straight_line(f, g, L=L)
            assert not report.valid and report.min_norm <= 1e-15
            p_idx, t = report.witness
            assert f.sampling.points[p_idx] == pytest.approx(
                -np.ones(2) / math.sqrt(2.0), abs=1e-15)
            assert t == pytest.approx(1.0 / (3.0 * math.sqrt(2.0)), abs=1e-12)

    @pytest.mark.parametrize("source, target, n, L", [
        ("x1", "x1 + 2.9", 1, None),
        ("x1, x2", "-x1, -x2", 2, 1.0),
    ], ids=["x-to-x+2.9", "x-to-minus-x"])
    def test_crossing_off_a_uniform_t_grid_is_invalid(self, source, target,
                                                       n, L):
        # x + 2.9t vanishes at x = -1, t = 1/2.9, and (1 - 2t)x on the
        # whole circle at t = 1/2
        sampling = sample_sphere(Region.disk(np.zeros(n), 1.0))
        f, g = (SampledMap.from_evaluator(parse_map(text, n), sampling)
                for text in (source, target))
        report = straight_line(f, g, L=L)
        assert not report.valid and report.min_norm <= 1e-15
        want = 1.0 / 2.9 if n == 1 else 0.5
        assert report.witness[1] == pytest.approx(want, abs=1e-15)

    def test_wide_margin_stays_valid(self):
        # (1 + t)x + (3, 3) is at least 3 sqrt 2 - 2 from 0, attained at
        # x = -(1,1)/sqrt(2), t = 1; L = 2 bounds both maps
        f = _shifted_map(level=6)
        g = SampledMap(sampling=f.sampling,
                       images=2.0 * f.sampling.points + 3.0)
        for L in (None, 2.0):
            report = straight_line(f, g, L=L)
            assert report.valid
            assert report.min_norm == pytest.approx(3.0 * math.sqrt(2.0) - 2.0,
                                                    rel=1e-14)
            assert report.witness[1] == 1.0

    def test_positive_multiple_is_valid(self):
        f = _identity_map()
        g = SampledMap(sampling=f.sampling, images=2.0 * f.images)
        assert straight_line(f, g).valid

    def test_positive_scaling_validity_random(self):
        rng = np.random.default_rng(21)
        f = _shifted_map(level=4, shift=(0.5, -0.2))
        for _ in range(100):
            lam = rng.uniform(0.1, 10.0, size=(len(f.images), 1))
            g = SampledMap(sampling=f.sampling, images=lam * f.images)
            assert straight_line(f, g).valid

    def test_symmetry_with_reverse(self):
        # swapping f and g keeps the least distance and maps t* to 1 - t*
        rng = np.random.default_rng(22)
        f = _identity_map(level=4)
        pairs = [(f, _shifted_map(level=4, shift=(0.1, 0.4))),
                 (f, _shifted_map(level=4))]
        for m in (1, 2, 3):
            sampling = sample_sphere(Region.disk([0.5, 0.0], 2.0), 3)
            pairs += [tuple(SampledMap(sampling=sampling, images=1.5 + rng.normal(
                size=(len(sampling), m))) for _ in range(2))
                for _ in range(5)]
        for f, g in pairs:
            fwd, bwd = straight_line(f, g), straight_line(g, f)
            assert bwd.min_norm == pytest.approx(fwd.min_norm, rel=1e-12,
                                                 abs=1e-15)
            assert bwd.witness[0] == fwd.witness[0]
            assert bwd.witness[1] == pytest.approx(1.0 - fwd.witness[1],
                                                   abs=1e-12)
            assert bwd.valid == fwd.valid

    @pytest.mark.parametrize("L", [None, 1e-20])
    def test_crossing_at_a_sample_is_invalid(self, L):
        # x + 3t crosses 0 at x = -1, t = 1/3, where the least distance is
        # at most a rounding error, below the vanishing floor; S^0 is its
        # two samples, so the floor decides rigorously, with or without L
        sampling = sample_sphere(Region.disk([0.0], 1.0))
        f = SampledMap(sampling=sampling, images=sampling.points.copy())
        g = SampledMap(sampling=sampling, images=sampling.points + 3.0)
        report = straight_line(f, g, L=L)
        floor = 1e-12 * 4.0                 # of the largest norm, |1 + 3|
        assert report.min_norm <= floor
        assert not report.valid
        p_idx, t = report.witness
        assert sampling.points[p_idx].tolist() == [-1.0]
        assert t == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert report.rigor == "rigorous" and report.threshold == floor

    @pytest.mark.parametrize("L", [None, 2.0, 1e300])
    def test_one_dimensional_is_decided_at_its_two_samples(self, L):
        # (1 + t)x is at least 1 at x = +-1 for every t; L*h/2 = L would
        # refuse it, but nothing lies between the two samples of S^0
        sampling = sample_sphere(Region.disk([0.0], 1.0))
        f = SampledMap(sampling=sampling, images=sampling.points.copy())
        g = SampledMap(sampling=sampling, images=2.0 * sampling.points)
        report = straight_line(f, g, L=L)
        assert report.valid and report.min_norm == 1.0
        assert report.rigor == "rigorous" and report.threshold == 2e-12

    def test_mismatched_samplings_rejected(self):
        f = _identity_map(level=3)
        g = _identity_map(level=4)
        with pytest.raises(InvalidInput):
            straight_line(f, g)

    def test_lipschitz_is_keyword_only(self):
        f = _identity_map(level=3)
        with pytest.raises(TypeError):
            straight_line(f, f, 64)

    def test_random_quadratic_pairs(self):
        # 300 pairs of planar quadratics on the unit disk.  A pair crosses
        # when a dense circle of 4096 samples sees a sign change of f x g
        # where f.g < 0; a pair does not when the exact-in-t check with a
        # true L clears it on that circle.  The two partition the pairs.
        # At the default level the heuristic refuses exactly the crossing
        # pairs, by a crossing between samples, and with L none of them
        # passes.
        rng = np.random.default_rng(0)
        unit = Region.disk([0.0, 0.0], 1.0)
        sampling, dense = sample_sphere(unit), sample_sphere(unit, 10)
        assert len(dense) == 4096
        crossing = heuristic = rigorous = 0
        for _ in range(300):
            coefs = [rng.normal(size=(2, 6)) for _ in range(2)]
            L = max(map(_quadratic_lipschitz, coefs))
            f, g = (SampledMap(sampling=sampling, images=_quadratic_basis(
                sampling.points) @ c.T) for c in coefs)
            f_dense, g_dense = (_quadratic_basis(dense.points) @ c.T
                                for c in coefs)
            crosses = crosses_loop(f_dense, g_dense)
            cleared = straight_line(
                SampledMap(sampling=dense, images=f_dense),
                SampledMap(sampling=dense, images=g_dense), L=L).valid
            assert crosses != cleared
            report = straight_line(f, g)
            assert report.valid == (not crosses)
            if crosses:
                assert report.min_norm > report.threshold
            bounded = straight_line(f, g, L=L)
            assert not (crosses and bounded.valid)
            crossing += crosses
            heuristic += report.valid
            rigorous += bounded.valid
        assert (crossing, heuristic, rigorous) == (227, 73, 60)


def contraction_loop(f, steps, t_grid):
    """Reference: the log-polar contraction of the winding-0 planar map f
    to its first sample's image, its angles lifted by ``steps``, built one
    frame at a time, shape (len(t_grid), k, 2)."""
    norms = np.linalg.norm(f.images, axis=1)
    angle0 = np.arctan2(f.images[0, 1], f.images[0, 0])
    lifted = angle0 + np.concatenate([[0.0], np.cumsum(steps[:-1])])
    log_r = np.log(norms)
    frames = np.empty((len(t_grid), len(norms), 2))
    for i, t in enumerate(t_grid):
        r = np.exp((1.0 - t) * log_r + t * log_r[0])
        a = (1.0 - t) * lifted + t * lifted[0]
        frames[i, :, 0] = r * np.cos(a)
        frames[i, :, 1] = r * np.sin(a)
    return frames


class TestNullHomotopy:
    def test_contracts_winding_zero_map(self):
        f = _shifted_map(level=5)
        steps = null_homotopy(f)
        assert steps.tobytes() == wrapped_steps(f.images).tobytes()
        assert abs(float(np.sum(steps))) < math.pi
        frames = contraction_loop(f, steps, np.linspace(0.0, 1.0, 33))
        assert np.allclose(frames[0], f.images, rtol=0.0, atol=1e-13 * 5.0)
        last = frames[-1]
        assert np.max(np.abs(last - last[0])) == 0.0
        assert np.min(np.linalg.norm(frames, axis=2)) > 0

    def test_rejects_nonzero_winding(self):
        with pytest.raises(NotANullHomotopy):
            null_homotopy(_identity_map(level=5))


class TestRadialExtension:
    def test_constant_map(self):
        f = _shifted_map(level=4, shift=(5.0, 0.0))
        const = SampledMap(sampling=f.sampling,
                           images=np.tile([5.0, 0.0], (len(f.images), 1)))
        phi = radial_extension(const)
        for x in ([0.0, 0.0], [0.3, 0.2], [0.9, 0.0], [0.0, -1.0]):
            assert np.allclose(phi(x), [5.0, 0.0])

    def test_center_value_is_terminal_constant(self):
        f = _shifted_map(level=5)
        end = contraction_loop(f, null_homotopy(f), [1.0])[0, 0]
        assert np.allclose(radial_extension(f)([0.0, 0.0]), end,
                           rtol=1e-14, atol=0.0)

    def test_boundary_agreement_exact(self):
        f = _shifted_map(level=5)
        phi = radial_extension(f)
        for p, image in zip(f.sampling.points, f.images):
            assert np.allclose(phi(p), image, atol=1e-12)

    def test_zero_free_on_grid(self):
        # the winding-0 map admits a zero-free disk extension
        f = _shifted_map(level=6)
        phi = radial_extension(f)
        radii = np.linspace(0.0, 1.0, 100)
        angles = np.linspace(0.0, 2.0 * math.pi, 100, endpoint=False)
        worst = math.inf
        for r in radii:
            for a in angles:
                worst = min(worst, float(np.linalg.norm(
                    phi([r * math.cos(a), r * math.sin(a)]))))
        assert worst > 0.0

    def test_rejects_nonconstant_tail(self):
        # the identity winds once: no contraction of it ends at a constant
        with pytest.raises(NotANullHomotopy, match="winding 1"):
            radial_extension(_identity_map(level=4))


class TestDiskCoordinates:
    """phi takes points of its sampling's own disk; a certificate's witness
    on that disk answers as phi does."""

    DISK = Region.disk([0.5, 0.0], 2.0)
    SPEC = parse_map("x1 + 3, x2 + 3", 2)

    @pytest.mark.parametrize("level", [3, 6])
    def test_matches_the_map_at_the_samples(self, level):
        f = SampledMap.from_evaluator(self.SPEC, sample_sphere(self.DISK,
                                                               level))
        phi = radial_extension(f)
        got = np.array([phi(p) for p in f.sampling.points])
        scale = 1.0 + float(np.max(np.linalg.norm(f.images, axis=1)))
        assert np.max(np.abs(got - f.images)) <= 1e-12 * scale

    def test_certificate_witness_is_phi(self):
        # the witness at x is phi of the unit-circle map F(x0 + r u) at
        # (x - x0) / r, byte for byte; phi of the disk's own sampling sorts
        # the rescaled samples, whose angles round apart from the unit
        # circle's, so it agrees to rounding only
        cert = certify_existence(self.SPEC, self.DISK)
        assert cert.obstruction == 0
        x0, r = self.DISK.center, self.DISK.radius
        unit = SampledMap.from_evaluator(
            lambda pts: evaluate(self.SPEC, r * pts + x0),
            sample_sphere(Region.disk([0.0, 0.0], 1.0), 6))
        phi_unit = radial_extension(unit)
        phi = radial_extension(SampledMap.from_evaluator(
            self.SPEC, sample_sphere(self.DISK, 6)))
        rng = np.random.default_rng(31)
        radii = r * np.sqrt(rng.uniform(0.0, 1.0, 200))
        angles = rng.uniform(0.0, 2.0 * math.pi, 200)
        points = x0 + radii[:, None] * np.stack(
            [np.cos(angles), np.sin(angles)], axis=1)
        for x in points:
            got = cert.extension_witness(x)
            assert got.tobytes() == phi_unit((x - x0) / r).tobytes(), x
            assert np.allclose(got, phi(x), rtol=0.0, atol=1e-12), x


class TestNullHomotopyMatchesLoop:
    """phi along a sample's ray is the log-polar contraction run radially:
    at a fraction 1 - t/2 of the radius it is the contraction's frame at t,
    built one frame at a time from the steps ``null_homotopy`` returns."""

    @pytest.mark.parametrize("t_steps", [2, 3, 17, 65])
    def test_equals_frame_loop(self, t_steps):
        rng = np.random.default_rng(t_steps)
        region = Region.disk([0.25, -0.5], 1.5)
        t_grid = np.linspace(0.0, 1.0, t_steps)
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
            frames = contraction_loop(f, null_homotopy(f), t_grid)
            phi = radial_extension(f)
            for j in rng.choice(k, min(k, 12), replace=False).tolist():
                u = (pts[j] - region.center) / region.radius
                for t, frame in zip(t_grid.tolist(), frames[:, j]):
                    x = region.center + region.radius * (1.0 - t / 2.0) * u
                    assert np.allclose(phi(x), frame, rtol=0.0,
                                       atol=1e-10 * 5.0), (k, j, t)


def log_polar_eager(f, region):
    """Reference: the closed-form extension of the winding-0 boundary map f
    on the disk ``region``, with every sample's (rho, theta) and the
    sampling's angular order computed up front, in plain loops."""
    two_pi = 2.0 * math.pi
    images, steps = f.images.tolist(), wrapped_steps(f.images).tolist()
    ang0 = math.atan2(images[0][1], images[0][0])
    rho, theta, before = [], [], 0.0
    for (a, b), step in zip(images, steps):
        ang = math.atan2(b, a)
        rho.append(math.log(math.hypot(a, b)))
        theta.append(ang + two_pi * round((ang0 + before - ang) / two_pi))
        before += step
    own = f.sampling.region
    rel = ((f.sampling.points - own.center) / own.radius).tolist()
    angles = [math.atan2(b, a) for a, b in rel]
    rel_ang = [(a - angles[0]) % two_pi for a in angles]
    order = sorted(range(len(rel)), key=rel_ang.__getitem__)
    sorted_ang = [rel_ang[j] for j in order]
    e0 = math.exp(rho[0])
    centre = [e0 * math.cos(theta[0]), e0 * math.sin(theta[0])]

    def phi(x):
        y = ((np.asarray(x, dtype=float) - region.center)
             / region.radius).tolist()
        norm = math.sqrt(y[0] * y[0] + y[1] * y[1])
        if norm <= 0.5:
            return np.array(centre)
        s = min(max(2.0 - 2.0 * norm, 0.0), 1.0)
        ang = (math.atan2(y[1], y[0]) - angles[0]) % two_pi
        i = bisect_right(sorted_ang, ang) - 1
        i2 = (i + 1) % len(order)
        width = (sorted_ang[i2] - sorted_ang[i]) % two_pi
        w = ((ang - sorted_ang[i]) % two_pi) / width if width else 0.0
        j, j2 = order[i], order[i2]
        if w == 0.0 and (s == 0.0 or y == rel[j]):
            return f.images[j].copy()
        R = (1.0 - s) * ((1.0 - w) * rho[j] + w * rho[j2]) + s * rho[0]
        T = (1.0 - s) * ((1.0 - w) * theta[j] + w * theta[j2]) + s * theta[0]
        return np.array([math.exp(R) * math.cos(T), math.exp(R) * math.sin(T)])

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


def radial_extension_eager(f):
    """Reference: radial_extension's checks made on f's images in plain
    numpy, then the eager closed form on f's disk."""
    region = f.sampling.region
    if region.kind != "disk" or region.dim != 2:
        raise InvalidInput(
            "radial extension needs a planar sampling of a disk")
    if f.images.shape[1] != 2:
        raise InvalidInput("a null homotopy needs a planar codomain")
    if np.linalg.norm(f.images, axis=1).min() <= 0.0:
        raise NotANullHomotopy("map vanishes on a sample")
    turns = round(float(np.sum(wrapped_steps(f.images))) / (2.0 * math.pi))
    if turns != 0:
        raise NotANullHomotopy(f"map has winding {turns}, not contractible")
    return log_polar_eager(f, region)


def _assert_same_witness(f, points):
    got, want = radial_extension(f), radial_extension_eager(f)
    for x in points:
        a, b = got(x), want(x)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), x


class TestRadialExtensionMatchesEager:
    """The extension that computes each sample's log-polar values on first
    use equals the one computing them all up front, bit for bit, and it
    refuses the same maps."""

    @pytest.mark.parametrize("seed", [2, 3, 65])
    def test_null_homotopy_witness(self, seed):
        rng = np.random.default_rng(100 + seed)
        checked = 0
        for m in range(140):
            level = 2 + m % 7
            region = (Region.disk([0.0, 0.0], 1.0) if m % 2 else Region.disk(
                rng.uniform(-2.0, 2.0, 2), float(rng.uniform(0.3, 3.0))))
            sampling = sample_sphere(region, level)
            points = _probe_points(rng, sampling, 80)
            _assert_same_witness(_winding_zero_map(rng, sampling), points)
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
        want = log_polar_eager(f, region)
        rng = np.random.default_rng(5)
        for x in _probe_points(rng, sampling, 200):
            y = 2.0 * x + region.center
            assert cert.extension_witness(y).tobytes() == want(y).tobytes()

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
            for _ in range(3):
                _assert_same_witness(_winding_zero_map(rng, sampling),
                                     _probe_points(rng, sampling, 80))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_straight_line_to_a_constant(self, m):
        # the line from f to a constant is decided by the plain-loop
        # projection; f extends as the eager extension does when planar,
        # and both refuse it otherwise
        rng = np.random.default_rng(m)
        for level in (2, 5):
            sampling = sample_sphere(Region.disk([1.0, 2.0], 0.5), level)
            f = (_winding_zero_map(rng, sampling) if m == 2 else SampledMap(
                sampling=sampling, images=rng.normal(size=(len(sampling), m))))
            g = SampledMap(sampling=sampling, images=np.tile(
                rng.normal(size=m), (len(sampling), 1)))
            report, want = straight_line(f, g), projection_loop(f, g)
            least = min(dist for dist, _ in want)
            assert report.min_norm == pytest.approx(least, rel=1e-14)
            assert report.witness[1] == pytest.approx(
                want[report.witness[0]][1], rel=1e-14, abs=1e-300)
            if m == 2:
                _assert_same_witness(f, _probe_points(rng, sampling, 80))
                continue
            for build in (radial_extension, radial_extension_eager):
                with pytest.raises(InvalidInput, match="planar codomain"):
                    build(f)

    def test_checks_raise_the_same(self):
        f = _identity_map(level=4)
        zero = SampledMap(sampling=f.sampling, images=np.zeros_like(f.images))
        images = f.images + 3.0
        images[3] = 0.0
        vanishing = SampledMap(sampling=f.sampling, images=images)
        cases = [(f, "winding 1"), (zero, "vanishes on a sample"),
                 (vanishing, "vanishes on a sample")]
        for start, message in cases:
            for build in (radial_extension, radial_extension_eager):
                with pytest.raises(NotANullHomotopy, match=message):
                    build(start)


def angular_order_eager(sampling):
    """Reference: the sampling's angles about its centre from math.atan2,
    relative to the first sample's, sorted stably."""
    rel = (sampling.points - sampling.region.center) / sampling.region.radius
    angles = [math.atan2(b, a) for a, b in rel.tolist()]
    rel_ang = [(a - angles[0]) % (2.0 * math.pi) for a in angles]
    order = sorted(range(len(rel_ang)), key=rel_ang.__getitem__)
    return angles[0], [rel_ang[j] for j in order], order


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

        def counted(*args, **kwargs):
            sorts.append(1)
            return sorted(*args, **kwargs)
        # geometry's own name shadows the builtin it sorts with
        monkeypatch.setattr(geometry, "sorted", counted, raising=False)
        spec = parse_map("x1 + 3, x2 + 3", 2)
        for _ in range(2):
            cert = certify_existence(spec, Region.disk([0.5, -1.0], 2.0))
            assert cert.extension_witness([0.9, 1.1]).shape == (2,)
        assert sorts == []
        # a fresh sampling sorts on its first build only
        fresh = BoundarySampling(points=unit.points.copy(), h=unit.h,
                                 region=unit.region)
        f = SampledMap(sampling=fresh, images=unit.points + 3.0)
        for _ in range(2):
            radial_extension(f)
        assert sorts == [1]

    def test_ties_keep_the_sample_order(self):
        # a stable sort: samples of one angle stay in sample order
        region = Region.disk([0.0, 0.0], 1.0)
        pts = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, 1.0],
                        [0.0, -1.0], [1.0, 0.0]])
        sampling = BoundarySampling(points=pts, h=mesh_norm(pts),
                                    region=region)
        theta0, angles, order = sampling.angular_order
        assert order == (0, 5, 1, 3, 2, 4)
        assert all(type(a) is float for a in (theta0, *angles))


class TestStraightLineMatchesEager:
    @pytest.mark.parametrize("t_steps", [2, 3, 16, 257])
    def test_frames_min_norm_witness(self, t_steps):
        # the least distance is the plain-loop projection's, and no frame
        # of a uniform t-grid reads below it
        rng = np.random.default_rng(t_steps)
        t_grid = np.linspace(0.0, 1.0, t_steps)[:, None, None]
        for level, m in ((2, 1), (4, 2), (6, 3)):
            sampling = sample_sphere(Region.disk([0.0, 0.5], 2.0), level)
            f = SampledMap(sampling=sampling,
                           images=rng.normal(size=(len(sampling), m)))
            g = SampledMap(sampling=sampling,
                           images=rng.normal(size=(len(sampling), m)))
            report, want = straight_line(f, g), projection_loop(f, g)
            j = min(range(len(want)), key=lambda i: want[i][0])
            assert report.min_norm == pytest.approx(want[j][0], rel=1e-13)
            p_idx, t = report.witness
            assert t == pytest.approx(want[p_idx][1], rel=1e-13, abs=1e-300)
            if report.valid or m != 2:
                assert p_idx == j
            frames = (1.0 - t_grid) * f.images + t_grid * g.images
            grid_least = float(np.min(np.linalg.norm(frames, axis=2)))
            assert report.min_norm <= grid_least * (1.0 + 1e-13)

    def test_frame_entries_match_the_grid(self):
        # H at the witness entry (sample, t*) has the norm min_norm; with
        # L no crossing between samples moves the witness off it
        rng = np.random.default_rng(9)
        for m in (1, 2, 3):
            sampling = sample_sphere(Region.disk([0.0, 0.0], 1.0), 3)
            f, g = (SampledMap(sampling=sampling, images=rng.normal(
                size=(len(sampling), m))) for _ in range(2))
            report = straight_line(f, g, L=1.0)
            j, t = report.witness
            entry = (1.0 - t) * f.images[j] + t * g.images[j]
            assert float(np.linalg.norm(entry)) == report.min_norm


class TestScalarCorners:
    """``phi`` blends a polar cell of the disk from scalar corners: at the
    boundary samples they are the contraction's t = 0 frame, the images,
    and at the inner half radius its t = 1 frame, the end.  A straight
    line that points away from 0 is nearest 0 at its t = 0 or t = 1
    corner."""

    @pytest.mark.parametrize("seed", [2, 3, 65])
    def test_null_homotopy_corners_equal_frames(self, seed):
        rng = np.random.default_rng(200 + seed)
        for level in (2, 6):
            sampling = sample_sphere(Region.disk(rng.uniform(-2, 2, 2), 1.3),
                                     level)
            f = _winding_zero_map(rng, sampling)
            last = contraction_loop(f, null_homotopy(f), [1.0])[0]
            phi, region = radial_extension(f), sampling.region
            end = phi(region.center)
            assert type(end) is np.ndarray and end.dtype == np.float64
            inner = 0.5 * (1.0 - 2.0 ** -20)
            for j, x in enumerate(sampling.points):
                outer = phi(x)
                assert outer.tobytes() == f.images[j].tobytes(), j
                y = region.center + inner * (x - region.center)
                assert phi(y).tobytes() == end.tobytes(), j
                assert np.allclose(last[j], end, rtol=1e-14, atol=0.0), j

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_straight_line_corners_equal_frames(self, m):
        # g = lam f with lam >= 1: the segment runs from f_j away from 0,
        # so t* is the corner 0 from f and 1 from g, and the distance |f_j|
        rng = np.random.default_rng(300 + m)
        sampling = sample_sphere(Region.disk([0.5, 0.0], 2.0), 4)
        f = SampledMap(sampling=sampling,
                       images=rng.normal(size=(len(sampling), m)))
        g = SampledMap(sampling=sampling, images=rng.uniform(
            1.0, 3.0, (len(sampling), 1)) * f.images)
        least = float(np.min(np.linalg.norm(f.images, axis=1)))
        for start, end, corner in ((f, g, 0.0), (g, f, 1.0)):
            report = straight_line(start, end)
            assert report.valid and report.witness[1] == corner
            assert report.min_norm == least


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
    """A null homotopy ends at its first sample's image: every entry of its
    last frame is that one value, and the extension takes it on the inner
    half disk."""

    @pytest.mark.parametrize("t_steps", [2, 3, 17, 65])
    def test_end_is_every_entry_of_the_last_frame(self, t_steps):
        rng = np.random.default_rng(400 + t_steps)
        for w in _winding_zero_boundaries(rng):
            f = w.boundary
            frames = contraction_loop(f, null_homotopy(f),
                                      np.linspace(0.0, 1.0, t_steps))
            last = frames[-1]
            end = last[0]
            assert end.dtype == np.float64 and end.shape == (2,)
            assert last.tobytes() == np.tile(end, (len(last), 1)).tobytes()
            assert np.allclose(end, f.images[0], rtol=1e-14, atol=0.0)
            centre = radial_extension(f)(f.sampling.region.center)
            assert np.allclose(centre, end, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("seed", [2, 17, 65])
    def test_winding_steps_give_the_same_trace(self, seed):
        # the WindingResult's steps are the boundary's own wrapped steps, and
        # the witness built from them is the boundary's radial extension
        rng = np.random.default_rng(500 + seed)
        for w in _winding_zero_boundaries(rng):
            assert w.steps.tobytes() == wrapped_steps(w.boundary.images).tobytes()
            assert w.steps.tobytes() == null_homotopy(w.boundary).tobytes()
            region = w.boundary.sampling.region
            got = log_polar_extension(w.boundary, w.steps, region)
            want = radial_extension(w.boundary)
            for x in _probe_points(rng, w.boundary.sampling, 40):
                assert got(x).tobytes() == want(x).tobytes(), x

    def test_a_grid_of_the_callers_own(self):
        # the steps are the whole contraction: on a t-grid of the caller's
        # own, not uniform, its frames start at f and end at phi's centre,
        # and phi along each sample's ray runs through them
        rng = np.random.default_rng(700)
        f = _winding_zero_map(rng, sample_sphere(
            Region.disk([0.0, 0.0], 1.0), 4))
        t_grid = np.linspace(0.0, 1.0, 9) ** 2
        frames = contraction_loop(f, null_homotopy(f), t_grid)
        phi = radial_extension(f)
        assert np.allclose(frames[0], f.images, rtol=0.0, atol=1e-13 * 5.0)
        assert np.allclose(frames[-1], phi([0.0, 0.0]), rtol=0.0,
                           atol=1e-13 * 5.0)
        for j, p in enumerate(f.sampling.points):
            for t, frame in zip(t_grid.tolist(), frames[:, j]):
                assert np.allclose(phi((1.0 - t / 2.0) * p), frame,
                                   rtol=0.0, atol=1e-12 * 5.0), (j, t)


class TestWitnessBuilder:
    """The certificate's witness builder, on the boundary's own disk, is
    the public ``phi`` of the winding's boundary, byte for byte."""

    def test_builder_is_radial_extension(self):
        rng = np.random.default_rng(600)
        for w in _winding_zero_boundaries(rng):
            sampling = w.boundary.sampling
            built = log_polar_extension(w.boundary, w.steps, sampling.region)
            phi = radial_extension(w.boundary)
            points = _probe_points(rng, sampling, 120)
            # far points, and a strided view as phi's input
            points = np.concatenate([points, [[1e300, 1e300], [-1.7e308, 0.0],
                                              [3.0, -4.0]]])
            for x in list(points) + [np.asfortranarray(points)[5]]:
                got, want = built(x), phi(x)
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes(), x


def _uniform_disk(rng, region, count, lo=0.0, hi=1.0):
    """``count`` points of the annulus lo <= |y| < hi of ``region``."""
    radii = region.radius * np.sqrt(rng.uniform(lo * lo, hi * hi, count))
    angles = rng.uniform(0.0, 2.0 * math.pi, count)
    return region.center + radii[:, None] * np.stack(
        [np.cos(angles), np.sin(angles)], axis=1)


class TestClosedFormContract:
    """phi is F at the samples, at least min |F_j| in modulus, continuous,
    built on its first call without evaluating the map."""

    def test_equals_f_at_every_sample(self):
        rng = np.random.default_rng(800)
        for w in _winding_zero_boundaries(rng):
            f = w.boundary
            phi = log_polar_extension(f, w.steps, f.sampling.region)
            for p, image in zip(f.sampling.points, f.images):
                assert phi(p).tobytes() == image.tobytes(), p

    def test_certificate_witness_equals_f_at_its_refined_samples(self):
        a = (1.0079240994538576, 0.012369710592005685)
        spec = parse_map(f"(x1 - {a[0]!r})^2 - (x2 - {a[1]!r})^2, "
                         f"2*(x1 - {a[0]!r})*(x2 - {a[1]!r})", 2)
        unit = Region.disk([0.0, 0.0], 1.0)
        w = winding_number(SampledMap.from_evaluator(spec,
                                                     sample_sphere(unit, 6)))
        assert w.value == 0 and w.total_refinements > 0
        phi = certify_existence(spec, unit).extension_witness
        for p, image in zip(w.boundary.sampling.points, w.boundary.images):
            assert phi(p).tobytes() == image.tobytes(), p

    def test_modulus_is_at_least_the_least_sample_norm(self):
        rng = np.random.default_rng(810)
        for w in _winding_zero_boundaries(rng):
            f, region = w.boundary, w.boundary.sampling.region
            phi = log_polar_extension(f, w.steps, region)
            least = float(np.min(np.linalg.norm(f.images, axis=1)))
            far = region.center + np.array([[1e6, -3e5], [1e300, 1e300],
                                            [-1.7e308, 0.0]])
            points = np.concatenate([_uniform_disk(rng, region, 400),
                                     _uniform_disk(rng, region, 100, 1.0, 9.0),
                                     far])
            for x in points:
                assert np.linalg.norm(phi(x)) >= least * (1.0 - 1e-15), x

    def test_continuous_across_the_seam(self):
        rng = np.random.default_rng(820)
        for w in _winding_zero_boundaries(rng):
            f, region = w.boundary, w.boundary.sampling.region
            phi = log_polar_extension(f, w.steps, region)
            scale = float(np.max(np.linalg.norm(f.images, axis=1)))
            # the sorted order wraps at sample 0's angle, 0 for the unit
            # circle's sampling: its two sides are the last gap and the first
            theta0 = f.sampling.angular_order[0]
            for radius in (0.6, 0.9, 1.0, 2.0):
                a, b = (region.center + radius * region.radius * np.array(
                    [math.cos(theta0 + d), math.sin(theta0 + d)])
                        for d in (-1e-9, 1e-9))
                assert np.max(np.abs(phi(a) - phi(b))) <= 1e-6 * scale

    def test_continuous_across_the_half_radius(self):
        # across |y| = 1/2, where the annulus meets the constant
        rng = np.random.default_rng(821)
        for w in _winding_zero_boundaries(rng):
            f, region = w.boundary, w.boundary.sampling.region
            phi = log_polar_extension(f, w.steps, region)
            scale = float(np.max(np.linalg.norm(f.images, axis=1)))
            centre = phi(region.center)
            for ang in rng.uniform(0.0, 2.0 * math.pi, 16):
                u = np.array([math.cos(ang), math.sin(ang)])
                for radius in (0.5 - 1e-12, 0.5, 0.5 + 1e-12):
                    x = region.center + radius * region.radius * u
                    assert np.max(np.abs(phi(x) - centre)) <= 1e-9 * scale

    def test_inner_half_disk_is_the_first_image_in_log_polar_form(self):
        rng = np.random.default_rng(840)
        for w in _winding_zero_boundaries(rng):
            f, region = w.boundary, w.boundary.sampling.region
            phi = log_polar_extension(f, w.steps, region)
            a, b = f.images[0].tolist()
            r = math.exp(math.log(math.hypot(a, b)))
            want = np.array([r * math.cos(math.atan2(b, a)),
                             r * math.sin(math.atan2(b, a))]).tobytes()
            for x in _uniform_disk(rng, region, 50, 0.0, 0.5):
                assert phi(x).tobytes() == want, x

    @pytest.mark.parametrize("bad", [[math.nan, 0.0], [math.inf, 0.0],
                                     [0.1, 0.2, 0.3], [0.1]])
    def test_bad_point_raises(self, bad):
        cert = certify_existence(parse_map("x1 + 3, x2 + 3", 2),
                                 Region.disk([0.5, -1.0], 2.0))
        phi = radial_extension(_shifted_map(level=4))
        for fn in (cert.extension_witness, phi):
            with pytest.raises(InvalidInput):
                fn(bad)

    def test_built_on_first_call_without_evaluating(self, counting_evaluator,
                                                    monkeypatch):
        unit = Region.disk([0.0, 0.0], 1.0)
        sample_sphere(unit, 6).angular_order    # sorted once per process
        ev = counting_evaluator(parse_map("x1 + 3, x2 - 2", 2))
        cert = certify_existence(ev, unit)
        assert cert.obstruction == 0
        batches = list(ev.batches)
        logs, builds = [], []
        real_log, real_cumsum = math.log, np.cumsum
        monkeypatch.setattr(math, "log",
                            lambda v: logs.append(v) or real_log(v))
        monkeypatch.setattr(np, "cumsum",
                            lambda v: builds.append(1) or real_cumsum(v))
        assert cert.extension_witness([0.6, 0.5]).shape == (2,)
        # one build: sample 0's log radius and those of the point's two
        # neighbours, not a pass over the samples
        assert builds == [1] and len(logs) <= 3
        rng = np.random.default_rng(830)
        for x in _uniform_disk(rng, unit, 50, 0.0, 2.0):
            cert.extension_witness(x)
        assert builds == [1] and ev.batches == batches


DISPATCH_OFF = "AVX512_SPR AVX512_ICL X86_V4"


def witness_bytes_hex():
    """The witness values of 24 off-centre winding-0 certificates, one of
    whose windings refines, at 10 fixed points each, as one hex string."""
    rng = np.random.default_rng(900)
    a = (1.0079240994538576, 0.012369710592005685)
    cases = [(f"(x1 - {a[0]!r})^2 - (x2 - {a[1]!r})^2, "
              f"2*(x1 - {a[0]!r})*(x2 - {a[1]!r})", [0.0, 0.0], 1.0)]
    while len(cases) < 24:
        center = rng.uniform(-1.0, 1.0, 2)
        radius = float(rng.uniform(0.5, 2.0))
        # two roots outside the disk: (z - p)(z - q) winds 0 on its circle
        (p0, p1), (q0, q1) = ((center + radius * rng.uniform(1.2, 2.5) * np.array(
            [math.cos(t), math.sin(t)])).tolist()
            for t in rng.uniform(0, 2 * math.pi, 2))
        cases.append((f"(x1 - {p0!r})*(x1 - {q0!r}) - (x2 - {p1!r})*(x2 - {q1!r}), "
                      f"(x1 - {p0!r})*(x2 - {q1!r}) + (x2 - {p1!r})*(x1 - {q0!r})",
                      center.tolist(), radius))
    unit_points = np.concatenate([_uniform_disk(rng, Region.disk([0.0, 0.0], 1.0),
                                                9, 0.45, 1.05), [[3e6, -4e6]]])
    out = []
    for text, center, radius in cases:
        cert = certify_existence(parse_map(text, 2), Region.disk(center, radius))
        assert cert.obstruction == 0
        for y in unit_points:
            out.append(cert.extension_witness(radius * y + center).tobytes())
    return b"".join(out).hex()


def test_witness_bits_do_not_depend_on_numpy_dispatch():
    # the same witness bytes in a process with numpy's AVX-512 loops
    # switched off; where the CPU lacks them numpy warns, and both sides
    # run the same loops
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(os.path.abspath(zerocert.__file__)))
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=DISPATCH_OFF,
               PYTHONPATH=os.pathsep.join([src, tests]))
    code = ("import numpy as np\n"
            "try:\n"
            "    from numpy._core._multiarray_umath import __cpu_features__\n"
            "except ImportError:\n"
            "    from numpy.core._multiarray_umath import __cpu_features__\n"
            f"assert not any(__cpu_features__.get(f) for f in {DISPATCH_OFF.split()!r})\n"
            "from test_homotopy import witness_bytes_hex\n"
            "print(witness_bytes_hex())\n")
    out = subprocess.run([sys.executable, "-W", "ignore::ImportWarning", "-c",
                          code], env=env, capture_output=True, text=True,
                         timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == witness_bytes_hex()
