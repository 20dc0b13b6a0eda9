import itertools
import math
import tracemalloc
from statistics import NormalDist

import numpy as np
import pytest

from zerocert import (InvalidInput, Region, VanishingOnBoundary,
                      boundary_nonvanishing, parse_map, refine,
                      rescale_from_unit, rescale_to_unit, sample_sphere)
from zerocert import geometry
from zerocert.geometry import (SPHERE_CACHE, _fibonacci_sphere,
                               _generalized_golden, _kronecker_sphere,
                               _max_nearest_neighbor_gap, _unit_sampling,
                               circle_arc_midpoint, refine_polyline)


def brute_force_gap(pts):
    """Reference: every pairwise squared distance, one row at a time."""
    worst = 0.0
    for i in range(len(pts)):
        d2 = np.sum((pts[i] - pts) ** 2, axis=-1)
        d2[i] = np.inf
        worst = max(worst, float(np.min(d2)))
    return math.sqrt(worst)


def kronecker_reference(count, n):
    """Reference: the recurrence with a per-entry NormalDist().inv_cdf."""
    alpha = _generalized_golden(n) ** -np.arange(1, n + 1)
    i = np.arange(1, count + 1)[:, None]
    u = np.clip(np.mod(0.5 + i * alpha[None, :], 1.0), 1e-12, 1.0 - 1e-12)
    inv = NormalDist().inv_cdf
    g = np.array([[inv(v) for v in row] for row in u])
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def uncached_sampling(region, level):
    """Reference: the construction without a cache, which builds the unit
    points again and places them on the disk on every call, with r times
    the unit h."""
    n, x0, r = region.dim, region.center, region.radius
    if n == 1:
        return np.array([[x0[0] - r], [x0[0] + r]]), 2.0 * r
    if n == 2:
        k = 4 * 2 ** level
        theta = 2.0 * math.pi * np.arange(k) / k
        pts = x0 + r * np.stack([np.cos(theta), np.sin(theta)], axis=1)
        return pts, 2.0 * r * math.sin(math.pi / k)
    count = 100 * 4 ** level
    unit = _fibonacci_sphere(count) if n == 3 else _kronecker_sphere(count, n)
    return x0 + r * unit, r * (2.0 * _max_nearest_neighbor_gap(unit))


class TestRescaling:
    def test_identity_disk(self):
        region = Region.disk([0.0, 0.0], 1.0)
        assert np.allclose(rescale_to_unit([0.3, 0.4], region), [0.3, 0.4])

    def test_shifted_disk(self):
        region = Region.disk([1.0, 1.0], 2.0)
        assert np.allclose(rescale_to_unit([3.0, 1.0], region), [1.0, 0.0])
        assert np.allclose(rescale_from_unit([1.0, 0.0], region), [3.0, 1.0])

    def test_roundtrip_random(self):
        rng = np.random.default_rng(7)
        region = Region.disk([0.5, -1.0, 2.0], 3.5)
        for _ in range(100):
            x = region.center + rng.uniform(-1, 1, 3) * region.radius / 2
            back = rescale_from_unit(rescale_to_unit(x, region), region)
            assert np.max(np.abs(back - x)) <= 1e-15 * max(1.0, np.max(np.abs(x)))

    def test_boundary_preserved(self):
        rng = np.random.default_rng(8)
        region = Region.disk([1.0, 2.0], 4.0)
        for _ in range(50):
            y = rng.normal(size=2)
            y /= np.linalg.norm(y)
            out = rescale_from_unit(y, region)
            assert abs(np.linalg.norm(out - region.center) - 4.0) < 1e-12

    def test_sphere_to_sphere_deviation(self):
        rng = np.random.default_rng(9)
        region = Region.disk([0.2, -0.7], 17.0)
        raw = rng.normal(size=(1000, 2))
        pts = region.center + 17.0 * raw / np.linalg.norm(raw, axis=1, keepdims=True)
        unit = rescale_to_unit(pts, region)
        assert np.max(np.abs(np.linalg.norm(unit, axis=1) - 1.0)) <= 1e-12

    def test_dimension_mismatch(self):
        region = Region.disk([0.0, 0.0], 1.0)
        with pytest.raises(InvalidInput):
            rescale_to_unit([1.0, 0.0, 0.0], region)


class TestSampleSphere:
    def test_s0_two_points(self):
        region = Region.disk([0.0], 1.0)
        for level in (0, 2, 5):
            s = sample_sphere(region, level)
            assert np.allclose(sorted(s.points[:, 0]), [-1.0, 1.0])
            assert s.h == 2.0
            assert not s.closed

    def test_circle_level0(self):
        s = sample_sphere(Region.disk([0.0, 0.0], 1.0), 0)
        expected = [[1, 0], [0, 1], [-1, 0], [0, -1]]
        assert np.allclose(s.points, expected, atol=1e-15)
        assert s.h == pytest.approx(math.sqrt(2.0))

    def test_circle_level3_chord_formula(self):
        s = sample_sphere(Region.disk([0.0, 0.0], 1.0), 3)
        assert len(s.points) == 32
        assert s.h == pytest.approx(2.0 * math.sin(math.pi / 32))
        # oracle: brute-force adjacent distances
        dists = [np.linalg.norm(s.points[i] - s.points[(i + 1) % 32])
                 for i in range(32)]
        assert s.h == pytest.approx(max(dists))

    def test_circle_ccw_order(self):
        s = sample_sphere(Region.disk([1.0, -1.0], 2.5), 2)
        ang = np.arctan2(s.points[:, 1] + 1.0, s.points[:, 0] - 1.0)
        unwrapped = np.unwrap(ang)
        assert np.all(np.diff(unwrapped) > 0)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_high_dim_counts_and_membership(self, n):
        region = Region.disk(np.zeros(n), 2.0)
        s = sample_sphere(region, 0)
        assert len(s.points) == 100
        assert np.max(np.abs(np.linalg.norm(s.points, axis=1) - 2.0)) < 1e-9
        assert s.h > 0

    def test_high_dim_deterministic(self):
        # two cold builds, not one build and its cached copy
        region = Region.disk(np.zeros(3), 1.0)
        _unit_sampling.cache_clear()
        a = sample_sphere(region, 0)
        _unit_sampling.cache_clear()
        b = sample_sphere(region, 0)
        assert a is not b
        assert np.array_equal(a.points, b.points)


class TestSphereCache:
    @pytest.mark.parametrize("n,level", [(n, level) for n in range(1, 7)
                                         for level in range(3)] + [(3, 3)])
    def test_equals_uncached_construction(self, n, level):
        for center, radius in ((0.0, 1.0), (1e3, 1e-3), (1e3, 250.0)):
            region = Region.disk(np.full(n, center), radius)
            pts, h = uncached_sampling(region, level)
            _unit_sampling.cache_clear()
            cold = sample_sphere(region, level)
            warm = sample_sphere(region, level)
            for s in (cold, warm):
                assert s.points.tobytes() == pts.tobytes()
                assert s.h == h
                assert s.level == level and s.closed == (n == 2)

    def test_unit_disk_gets_the_cached_sampling(self):
        region = Region.disk(np.zeros(3), 1.0)
        s = sample_sphere(region, 1)
        assert sample_sphere(Region.disk(np.zeros(3), 1.0), 1) is s
        assert refine(sample_sphere(region, 0)) is s

    def test_cached_arrays_are_read_only(self):
        s = sample_sphere(Region.disk(np.zeros(3), 1.0), 0)
        with pytest.raises(ValueError):
            s.points[0, 0] = 5.0
        with pytest.raises(ValueError):
            s.region.center[0] = 1.0
        offset = sample_sphere(Region.disk(np.ones(3), 2.0), 0)
        offset.points[0, 0] = 5.0      # a fresh array, the caller's own

    def test_witness_is_a_fresh_array(self):
        region = Region.disk(np.zeros(3), 1.0)
        pts, _ = uncached_sampling(region, 0)
        check = boundary_nonvanishing(parse_map("x1, x2, x3 + 0.5", 3),
                                      region, level=0)
        assert not np.shares_memory(check.witness,
                                    sample_sphere(region, 0).points)
        check.witness[:] = 7.0
        assert np.array_equal(sample_sphere(region, 0).points, pts)

    @pytest.mark.parametrize("n,level", [(1, 6), (2, 6), (3, 2), (4, 2)])
    def test_default_level(self, n, level):
        # level=None must finish for every n: 1600 points for n >= 3
        for center, radius in ((0.0, 1.0), (0.5, 2.0)):
            region = Region.disk(np.full(n, center), radius)
            s = sample_sphere(region)
            explicit = sample_sphere(region, level)
            assert s.level == level
            assert s.points.tobytes() == explicit.points.tobytes()
            assert s.h == explicit.h

    def test_offset_disk_measures_no_gap(self, monkeypatch):
        # an offset n = 3 sampling, such as each radius coercivity_radius
        # tries, takes h = r * unit.h from the cached unit mesh
        calls = []
        gap = geometry._max_nearest_neighbor_gap
        monkeypatch.setattr(geometry, "_max_nearest_neighbor_gap",
                            lambda pts: calls.append(len(pts)) or gap(pts))
        _unit_sampling.cache_clear()
        unit = sample_sphere(Region.disk(np.zeros(3), 1.0), 1)
        assert calls == [400]
        for center, radius in ((0.0, 2.5), (-3.0, 1.0), (1e3, 1e-3)):
            s = sample_sphere(Region.disk(np.full(3, center), radius), 1)
            assert s.h == radius * unit.h
        assert calls == [400]

    def test_bounded(self):
        _unit_sampling.cache_clear()
        for level in range(SPHERE_CACHE + 3):
            sample_sphere(Region.disk([0.0, 0.0], 1.0), level)
            assert _unit_sampling.cache_info().currsize <= SPHERE_CACHE
        assert _unit_sampling.cache_info().currsize == SPHERE_CACHE

    def test_n1_does_not_evict(self):
        # the two endpoints do not depend on the level, so n = 1 samplings
        # at many levels take no cache slot from a costly n = 3 mesh
        _unit_sampling.cache_clear()
        unit = Region.disk(np.zeros(3), 1.0)
        mesh = sample_sphere(unit, 1)
        for level in range(SPHERE_CACHE + 3):
            for center, radius in ((0.0, 1.0), (-2.5, 0.3)):
                s = sample_sphere(Region.disk([center], radius), level)
                assert s.points.tobytes() == (
                    center + radius * np.array([[-1.0], [1.0]])).tobytes()
                assert s.h == radius * 2.0 and s.level == level
        assert _unit_sampling.cache_info().currsize == 1
        assert sample_sphere(unit, 1) is mesh


class TestNearestNeighborGap:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("count", [511, 512, 513, 1025])
    def test_equals_brute_force(self, n, count):
        rng = np.random.default_rng(1000 * n + count)
        raw = rng.normal(size=(count, n))
        unit = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        for center, radius in ((0.0, 1.0), (1e3, 1.0), (-3.0, 1e-3),
                               (1e3, 250.0)):
            pts = center + radius * unit
            assert _max_nearest_neighbor_gap(pts) == brute_force_gap(pts)

    def test_duplicates_give_zero(self):
        unit = sample_sphere(Region.disk(np.zeros(4), 1.0), 1).points
        pts = 1e3 + np.concatenate([unit, unit[::-1]])
        assert _max_nearest_neighbor_gap(pts) == 0.0

    def test_exact_ties(self):
        # every permutation and sign choice of (1, 2, 2)/3: each point has
        # several nearest neighbours at exactly the same distance
        base = np.array(sorted(set(itertools.permutations((1.0, 2.0, 2.0)))))
        signs = np.array(list(itertools.product((1.0, -1.0), repeat=3)))
        unit = (base[:, None, :] * signs[None, :, :]).reshape(-1, 3) / 3.0
        for center, radius in ((0.0, 1.0), (1e3, 1.0), (0.5, 7.0)):
            pts = center + radius * unit
            for chunk in (5, 512):
                assert (_max_nearest_neighbor_gap(pts, chunk=chunk)
                        == brute_force_gap(pts))
        assert (_max_nearest_neighbor_gap(unit)
                == pytest.approx(math.sqrt(2.0) / 3.0))

    def test_near_ties_decided_by_brute_force(self):
        # a point i whose two neighbours lie at distances 1e-14 apart,
        # far below the resolution of the screen's scores, and whose
        # nearest-neighbour gap is the largest; all other points come in
        # close pairs
        rng = np.random.default_rng(0)
        for _ in range(40):
            far = rng.normal(size=(8, 3))
            far /= np.linalg.norm(far, axis=1, keepdims=True)
            far = np.concatenate([far, far + 1e-4 * rng.normal(size=(8, 3))])
            i = far[0] + 0.5
            e = np.linalg.qr(rng.normal(size=(3, 3)))[0]
            j = i + 0.01 * e[0]
            k = i + 0.01 * (1.0 + 1e-14 * rng.normal()) * e[1]
            pts = np.concatenate(
                [far, [i, j, k, j + 1e-4 * e[2], k + 1e-4 * e[2]]])
            assert _max_nearest_neighbor_gap(pts) == brute_force_gap(pts)

    def test_integer_lattice_ties(self):
        pts = np.array(list(itertools.product(range(4), repeat=3)), float)
        pts = np.concatenate([pts, pts[:7] + 0.5])
        assert _max_nearest_neighbor_gap(pts, chunk=16) == brute_force_gap(pts)

    @pytest.mark.parametrize("n,level", [(3, 0), (3, 1), (4, 1), (5, 0),
                                         (6, 1)])
    def test_sample_sphere_h_matches_brute_force(self, n, level):
        # the unit mesh's gap is measured; another disk takes r times it,
        # which differs from its own measured gap only by rounding
        unit = sample_sphere(Region.disk(np.zeros(n), 1.0), level)
        assert unit.h == 2.0 * brute_force_gap(unit.points)
        s = sample_sphere(Region.disk(np.linspace(-1e3, 1e3, n), 3.0), level)
        assert s.h == 3.0 * unit.h
        assert s.h == pytest.approx(2.0 * brute_force_gap(s.points), rel=1e-9)

    @pytest.mark.parametrize("n,level,bound", [(4, 2, 10e6), (3, 3, 12e6)])
    def test_no_quadratic_temporary(self, n, level, bound):
        # n = 4, level 2 has 1600 points: a (512, N, n) difference tensor
        # alone is 26 MB, the screen's (512, N) score block 6.6 MB; at 6400
        # points the score block shrinks to 8 MB instead of growing with N
        region = Region.disk(np.zeros(n), 1.0)
        _unit_sampling.cache_clear()    # measure a build, not a cache hit
        tracemalloc.start()
        try:
            sample_sphere(region, level)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound


class TestKroneckerSphere:
    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_equals_normal_dist_reference(self, n):
        for level in (0, 1, 2):
            count = 100 * 4 ** level
            assert np.array_equal(_kronecker_sphere(count, n),
                                  kronecker_reference(count, n))


class TestRefine:
    def test_midpoint_insertion(self):
        s0 = sample_sphere(Region.disk([0.0, 0.0], 1.0), 0)
        s1 = refine(s0)
        assert len(s1.points) == 8
        assert s1.level == 1
        assert s1.h == pytest.approx(2.0 * math.sin(math.pi / 8))

    def test_nesting(self):
        s0 = sample_sphere(Region.disk([0.3, 0.1], 2.0), 1)
        s1 = refine(s0)
        assert np.allclose(s1.points[0::2], s0.points, atol=1e-12)

    def test_h_strictly_decreases(self):
        s = sample_sphere(Region.disk([0.0, 0.0], 5.0), 0)
        for _ in range(5):
            nxt = refine(s)
            assert nxt.h < s.h
            s = nxt

    def test_h_to_zero_by_formula(self):
        # closed-form: h(level) = 2 r sin(pi / (4 * 2^level))
        r = 3.0
        for level in range(10):
            s = sample_sphere(Region.disk([0.0, 0.0], r), level)
            assert s.h == pytest.approx(2 * r * math.sin(math.pi / (4 * 2 ** level)))
        assert sample_sphere(Region.disk([0.0, 0.0], r), 10).h < 1e-2


class TestRefinePolyline:
    def test_default_floor_is_relative_to_input_images(self):
        pts = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        floor = 1e-12 * (1.0 + 4.0)
        for norm, vanishes in ((floor, True), (2.0 * floor, False)):
            ims = np.array([[4.0, 0.0], [0.0, 3.0], [-norm, 0.0],
                            [0.0, -2.0]])
            if vanishes:
                with pytest.raises(VanishingOnBoundary) as err:
                    refine_polyline(pts, ims, None, None, None, 0)
                assert err.value.index == 2
            else:
                refine_polyline(pts, ims, None, None, None, 0)


class TestCircleArcMidpoint:
    def test_batch_matches_pairs_including_antipodal(self):
        region = Region.disk([0.5, -0.25], 2.0)
        theta = np.array([0.0, 0.4, 2.0, 3.0, 5.5])
        a = region.center + 2.0 * np.stack([np.cos(theta), np.sin(theta)], 1)
        b = np.roll(a, -1, axis=0)
        a[2], b[2] = [2.5, -0.25], [-1.5, -0.25]    # an exact antipodal pair
        batch = circle_arc_midpoint(a, b, region)
        pairs = np.array([circle_arc_midpoint(p, q, region)
                          for p, q in zip(a, b)])
        assert np.array_equal(batch, pairs)
        # the antipodal midpoint is a rotated by 90 degrees about the center
        assert np.array_equal(batch[2], [0.5, 1.75])
        assert np.allclose(np.linalg.norm(batch - region.center, axis=1), 2.0)


class TestRegion:
    def test_bad_radius(self):
        with pytest.raises(InvalidInput):
            Region.disk([0.0], -1.0)

    def test_bad_box(self):
        with pytest.raises(InvalidInput):
            Region.box([0.0, 0.0], [1.0, -1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_fields(self, bad):
        for build, field in (
                (lambda: Region.disk([bad, 0.0], 1.0), "center"),
                (lambda: Region.disk([0.0, 0.0], bad), "radius"),
                (lambda: Region.box([bad, 0.0], [1.0, 1.0]), "lower corner"),
                (lambda: Region.box([0.0, 0.0], [1.0, bad]), "upper corner")):
            with pytest.raises(InvalidInput, match=f"^{field} must be"):
                build()

    def test_diameter(self):
        assert Region.disk([0.0, 0.0], 2.0).diameter == 4.0
        assert Region.box([0.0, 0.0], [3.0, 4.0]).diameter == 5.0
