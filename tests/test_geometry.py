import itertools
import math
import tracemalloc

import numpy as np
import pytest

from zerocert import (InvalidInput, Region, VanishingOnBoundary,
                      boundary_nonvanishing, parse_map, sample_sphere)
from zerocert.geometry import (SPHERE_CACHE, BoundarySampling, _unit_sampling,
                               circle_arc_midpoint, refine_polyline,
                               row_norms, unit_sphere, vanishing_floor,
                               wrapped_steps)


def cells_per_edge(n, level):
    """Reference: the largest g >= 1 with 2n g^(n-1) <= 100 * 4^level."""
    return max([g for g in range(1, 200)
                if 2 * n * g ** (n - 1) <= 100 * 4 ** level] or [1])


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
    # n >= 3: the cell centres of each face of [-1, 1]^n, face by face
    g = cells_per_edge(n, level)
    ticks = [(2 * i + 1) / g - 1.0 for i in range(g)]
    cube = []
    for axis in range(n):
        for sign in (-1.0, 1.0):
            for rest in itertools.product(ticks, repeat=n - 1):
                cube.append(rest[:axis] + (sign,) + rest[axis:])
    cube = np.array(cube)
    unit = cube / np.linalg.norm(cube, axis=1, keepdims=True)
    return x0 + r * unit, r * (2.0 * math.sqrt(n - 1) / g)


class TestSampleSphere:
    def test_s0_two_points(self):
        region = Region.disk([0.0], 1.0)
        for level in (0, 2, 5):
            s = sample_sphere(region, level)
            assert np.allclose(sorted(s.points[:, 0]), [-1.0, 1.0])
            assert s.h == 2.0

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

    def test_h_to_zero_by_formula(self):
        # closed-form: h(level) = 2 r sin(pi / (4 * 2^level))
        r = 3.0
        for level in range(10):
            s = sample_sphere(Region.disk([0.0, 0.0], r), level)
            assert s.h == pytest.approx(2 * r * math.sin(math.pi / (4 * 2 ** level)))
        assert sample_sphere(Region.disk([0.0, 0.0], r), 10).h < 1e-2

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_high_dim_counts_and_membership(self, n):
        # 2n faces of g^(n-1) cells, g the largest with at most 100 * 4^level
        # points
        counts = {3: (96, 384, 1536), 4: (64, 216, 1000), 5: (10, 160, 810)}
        region = Region.disk(np.zeros(n), 2.0)
        for level in range(3):
            s = sample_sphere(region, level)
            g = cells_per_edge(n, level)
            assert len(s.points) == 2 * n * g ** (n - 1) == counts[n][level]
            assert 2 * n * (g + 1) ** (n - 1) > 100 * 4 ** level
            radii = np.linalg.norm(s.points, axis=1)
            assert np.max(np.abs(radii - 2.0)) < 1e-9
            assert s.h == 2.0 * (2.0 * math.sqrt(n - 1) / g)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_half_h_is_a_covering_radius(self, n, level):
        # every seeded random unit vector, and every normalized corner of
        # [-1, 1]^n, lies within h/2 of a sample
        s = sample_sphere(Region.disk(np.zeros(n), 1.0), level)
        rng = np.random.default_rng(1000 * n + level)
        probes = rng.normal(size=(20000, n))
        corners = np.array(list(itertools.product((-1.0, 1.0), repeat=n)))
        probes = np.concatenate([probes, corners])
        probes /= np.linalg.norm(probes, axis=1, keepdims=True)
        worst = 0.0
        for start in range(0, len(probes), 2000):
            chunk = probes[start:start + 2000]
            d2 = (np.sum(chunk ** 2, axis=1)[:, None]
                  - 2.0 * chunk @ s.points.T
                  + np.sum(s.points ** 2, axis=1)[None, :])
            worst = max(worst, float(np.max(np.min(d2, axis=1))))
        assert math.sqrt(max(worst, 0.0)) <= s.h / 2.0 * (1.0 + 1e-12)

    def test_high_dim_deterministic(self):
        # two cold builds, not one build and its cached copy
        region = Region.disk(np.zeros(3), 1.0)
        _unit_sampling.cache_clear()
        a = sample_sphere(region, 0)
        _unit_sampling.cache_clear()
        b = sample_sphere(region, 0)
        assert a is not b
        assert np.array_equal(a.points, b.points)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_h_never_grows_with_the_level(self, n):
        # a level is a point budget: where it admits no finer grid, the next
        # level has the same points and the same h
        samplings = [unit_sphere(n, level) for level in range(4)]
        for coarse, fine in zip(samplings, samplings[1:]):
            assert fine.h <= coarse.h
            if len(fine.points) == len(coarse.points):
                assert fine.h == coarse.h
                assert fine.points.tobytes() == coarse.points.tobytes()

    def test_plateaus(self):
        six = [unit_sphere(6, level) for level in (1, 2)]
        assert [len(s.points) for s in six] == [384, 384]
        assert six[0].h == six[1].h == pytest.approx(math.sqrt(5.0))
        eight = [unit_sphere(8, level) for level in range(3)]
        assert [len(s.points) for s in eight] == [16, 16, 16]
        assert eight[0].h == eight[1].h == eight[2].h


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

    def test_unit_disk_gets_the_cached_sampling(self):
        region = Region.disk(np.zeros(3), 1.0)
        s = sample_sphere(region, 1)
        assert sample_sphere(Region.disk(np.zeros(3), 1.0), 1) is s

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
        # level=None must finish for every n: at most 1600 points for n >= 3
        for center, radius in ((0.0, 1.0), (0.5, 2.0)):
            region = Region.disk(np.full(n, center), radius)
            s = sample_sphere(region)
            explicit = sample_sphere(region, level)
            assert s.points.tobytes() == explicit.points.tobytes()
            assert s.h == explicit.h

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
                assert s.h == radius * 2.0
        assert _unit_sampling.cache_info().currsize == 1
        assert sample_sphere(unit, 1) is mesh


class TestNearestNeighborGap:
    """A mesh build measures no nearest-neighbour gap, so its memory stays
    linear in the number of points."""

    @pytest.mark.parametrize("n,level,bound", [(4, 2, 10e6), (3, 3, 12e6)])
    def test_no_quadratic_temporary(self, n, level, bound):
        # a cold build of the mesh needs no (N, N) temporary: at n = 3,
        # level 3 (6144 points) one would take 302 MB
        region = Region.disk(np.zeros(n), 1.0)
        _unit_sampling.cache_clear()    # measure a build, not a cache hit
        tracemalloc.start()
        try:
            sample_sphere(region, level)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound


class TestRefinePolyline:
    def test_floor_is_relative_to_input_images(self):
        pts = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        floor = 1e-12 * 4.0     # relative to the largest image norm, 4
        for norm, vanishes in ((floor, True), (2.0 * floor, False)):
            ims = np.array([[4.0, 0.0], [0.0, 3.0], [-norm, 0.0],
                            [0.0, -2.0]])
            if vanishes:
                with pytest.raises(VanishingOnBoundary) as err:
                    refine_polyline(pts, ims, None, None, 0)
                assert err.value.index == 2
            else:
                refine_polyline(pts, ims, None, None, 0)

    @pytest.mark.parametrize("scale", [1e-12, 1e-100, 1e100])
    def test_floor_scales_with_the_images(self, scale):
        # c * F vanishes where F does: the floor is 4e-12 * c here
        pts = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        for norm, vanishes in ((3e-12, True), (5e-12, False)):
            ims = scale * np.array([[4.0, 0.0], [0.0, 3.0], [-norm, 0.0],
                                    [0.0, -2.0]])
            if vanishes:
                with pytest.raises(VanishingOnBoundary):
                    refine_polyline(pts, ims, None, None, 0)
            else:
                refine_polyline(pts, ims, None, None, 0)

    def test_all_zero_images_vanish(self):
        # the floor is 0, and a norm of 0 is at or below it
        pts = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        assert vanishing_floor(np.zeros(4)) == 0.0
        with pytest.raises(VanishingOnBoundary) as err:
            refine_polyline(pts, np.zeros((4, 2)), None, None, 0)
        assert (err.value.index, err.value.norm) == (0, 0.0)


class TestRowNorms:
    def test_equals_linalg_norm(self):
        rng = np.random.default_rng(21)
        for m in range(1, 6):
            for k in range(1, 1001):
                a = rng.normal(size=(k, m)) * 10.0 ** rng.integers(
                    -100, 100, size=(k, 1))
                assert row_norms(a).tobytes() == \
                    np.linalg.norm(a, axis=1).tobytes()

    @pytest.mark.parametrize("m", range(13))
    def test_column_counts(self, m):
        # below 8 columns the column sum, from 8 on numpy's pairwise
        # reduction; no column gives zeros
        rng = np.random.default_rng(22 + m)
        for k in (0, 1, 5, 64, 1536):
            for _ in range(4):
                a = rng.normal(size=(k, m)) * 10.0 ** rng.integers(
                    -100, 100, size=(k, 1))
                assert row_norms(a).tobytes() == \
                    np.linalg.norm(a, axis=1).tobytes()
        assert row_norms(np.empty((3, 0))).tolist() == [0.0] * 3

    @pytest.mark.parametrize("value", [0.0, -0.0, 5e-324, -2.2e-308,
                                       1e200, -1e200])
    def test_special_rows(self, value):
        for m in range(1, 13):
            a = np.full((3, m), value)
            a[1, 0] = 1.0
            # 1e200 squared overflows to inf in both
            with np.errstate(over="ignore"):
                assert row_norms(a).tobytes() == \
                    np.linalg.norm(a, axis=1).tobytes()

    def test_integer_rows_are_cast_to_float(self):
        # 4e9 squared wraps in int64; the norm squares floats
        a = np.array([[4_000_000_000, 0], [3, -4], [0, 0]], dtype=np.int64)
        for rows in (a, a.astype(np.int32) // 2, a != 0):
            assert row_norms(rows).tobytes() == \
                np.linalg.norm(rows, axis=1).tobytes()
        assert row_norms(a).tolist() == [4e9, 5.0, 0.0]

    def test_integer_sampling_checks_its_h(self):
        # the int64 differences 4e9 square past 2^63: a wrapped square
        # would make h NaN, and any declared h would pass the check
        pts = np.array([[0, 0], [4_000_000_000, 0],
                        [4_000_000_000, 3_000_000_000], [0, 3_000_000_000]])
        box = Region.box([0.0, 0.0], [4e9, 3e9])
        assert BoundarySampling(points=pts, h=4e9, region=box).h == 4e9
        with pytest.raises(InvalidInput, match="does not match"):
            BoundarySampling(points=pts, h=1.0, region=box)


class TestWrappedSteps:
    @staticmethod
    def reference(images):
        angles = np.arctan2(images[:, 1], images[:, 0])
        steps = np.diff(np.concatenate([angles, angles[:1]]))
        return (steps + math.pi) % (2.0 * math.pi) - math.pi

    @pytest.mark.parametrize("k", [1, 2, 64, 257])
    def test_equals_diff_of_concatenation(self, k):
        rng = np.random.default_rng(31 + k)
        specials = [0.0, -0.0, 1.0, -1.0, 5e-324, 1e300]
        for _ in range(20):
            images = rng.normal(size=(k, 2)) * 10.0 ** rng.integers(
                -200, 200, size=(k, 1))
            # exact axis directions, where arctan2 gives 0, +-pi/2 or +-pi
            mask = rng.random((k, 2)) < 0.2
            images[mask] = rng.choice(specials, size=int(mask.sum()))
            assert wrapped_steps(images).tobytes() == \
                self.reference(images).tobytes()


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

    # each raised TypeError, or built a region of dim 1 from a (1, 2)
    # centre or corners, before the shape checks
    @pytest.mark.parametrize("build, match", [
        (lambda: Region.disk(0.5, 1.0), "center must be 1-D"),
        (lambda: Region.disk([[0.0, 0.0]], 1.0), "center must be 1-D"),
        (lambda: Region.box([[0.0, 0.0]], [[1.0, 1.0]]),
         "lower corner must be 1-D"),
        (lambda: Region.box([0.0, 0.0], 1.0), "upper corner must be 1-D"),
        (lambda: Region.disk([0.0, 0.0], [1.0]), "radius must be a real"),
        (lambda: Region.disk([0.0, 0.0], np.array([1.0])),
         "radius must be a real"),
    ] + [
        (lambda radius=radius: Region(kind="disk", center=np.zeros(2),
                                      radius=radius), "radius must be a real")
        for radius in ([1.0], np.array([1.0]), "1", 1 + 0j)
    ], ids=["scalar-center", "2d-center", "2d-corners", "scalar-corner",
            "list-radius", "array-radius", "direct-list-radius",
            "direct-array-radius", "direct-str-radius",
            "direct-complex-radius"])
    def test_badly_shaped_input(self, build, match):
        with pytest.raises(InvalidInput, match=match):
            build()

    def test_diameter(self):
        assert Region.disk([0.0, 0.0], 2.0).diameter == 4.0
        assert Region.box([0.0, 0.0], [3.0, 4.0]).diameter == 5.0

    @pytest.mark.parametrize("lower, upper", [
        ([-1e308, 0.0], [1e308, 1.0]), ([-1e200, -1e200], [1e200, 1e200])],
        ids=["width-overflows", "square-overflows"])
    def test_diameter_overflows_to_inf(self, lower, upper):
        # no RuntimeWarning: the test run makes one an error
        assert Region.box(lower, upper).diameter == math.inf
