import hashlib
import math

import numpy as np
import pytest

from zerocert import (InvalidInput, Region, Unsupported,
                      boundary_nonvanishing, certify_existence, classify_cat,
                      evaluate, locate_zero, parse_map, poincare_bohl,
                      winding_number)
from zerocert import criteria, geometry, homotopy
from zerocert.cli import certificate_dumps
from zerocert.homotopy import SampledMap, straight_line
from zerocert.geometry import sample_sphere
from zerocert.mapspec import as_evaluator


IDENTITY = parse_map("x1, x2", 2)
SHIFTED = parse_map("x1 + 3, x2 + 3", 2)


class TestBoundaryNonvanishing:
    def test_identity(self, unit_disk):
        check = boundary_nonvanishing(IDENTITY, unit_disk, level=3)
        assert check.passed
        assert check.margin == pytest.approx(1.0)

    def test_shifted_margin(self, unit_disk):
        # min ||x + (3,3)|| over the circle is 3 sqrt(2) - 1
        check = boundary_nonvanishing(SHIFTED, unit_disk, level=6)
        assert check.margin == pytest.approx(3.0 * math.sqrt(2.0) - 1.0)
        # dense-sampling oracle
        theta = np.linspace(0, 2 * math.pi, 100000, endpoint=False)
        pts = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        dense = float(np.min(np.linalg.norm(pts + [3.0, 3.0], axis=1)))
        assert check.margin == pytest.approx(dense, abs=1e-6)

    def test_exact_boundary_zero(self, unit_disk):
        spec = parse_map("x1 - 1, x2", 2)
        check = boundary_nonvanishing(spec, unit_disk, level=3)
        assert not check.passed
        assert check.margin == 0.0
        assert np.allclose(check.witness, [1.0, 0.0])

    def test_rigor_threshold(self, unit_disk):
        heuristic = boundary_nonvanishing(IDENTITY, unit_disk, level=3)
        rigorous = boundary_nonvanishing(IDENTITY, unit_disk, level=3, L=1.0)
        assert heuristic.rigor == "heuristic" and heuristic.threshold == 0.0
        assert rigorous.rigor == "rigorous" and rigorous.threshold > 0.0
        # monotone rigor: a rigorous pass implies the heuristic pass
        assert rigorous.passed and heuristic.passed


class TestPoincareBohl:
    def test_identity_margin_two(self, unit_disk):
        check = poincare_bohl(IDENTITY, unit_disk, level=4)
        assert check.passed
        assert check.margin == pytest.approx(2.0)

    def test_negated_identity_fails(self, unit_disk):
        spec = parse_map("-x1, -x2", 2)
        check = poincare_bohl(spec, unit_disk, level=4)
        assert not check.passed
        assert check.margin == pytest.approx(0.0, abs=1e-12)

    def test_small_shift_passes(self, unit_disk):
        spec = parse_map("x1 + 0.3, x2 + 0.4", 2)
        check = poincare_bohl(spec, unit_disk, level=6)
        assert check.passed
        # dense cross-check of the margin
        theta = np.linspace(0, 2 * math.pi, 100000, endpoint=False)
        pts = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        ims = pts + [0.3, 0.4]
        margins = np.linalg.norm(ims / np.linalg.norm(ims, axis=1, keepdims=True)
                                 + pts, axis=1)
        assert check.margin == pytest.approx(float(np.min(margins)), abs=1e-6)

    def test_high_dimension(self):
        spec = parse_map("x1, x2, x3", 3)
        region = Region.disk(np.zeros(3), 1.0)
        check = poincare_bohl(spec, region, level=0)
        assert check.passed
        assert check.margin == pytest.approx(2.0)

    def test_implies_winding_one(self, unit_disk):
        # rigorous pass of never-points-opposite forces winding 1
        spec = parse_map("x1 + 0.3, x2 + 0.4", 2)
        check = poincare_bohl(spec, unit_disk, level=6, L=1.0)
        assert check.passed and check.rigor == "rigorous"
        sampling = sample_sphere(unit_disk, 6)
        f = SampledMap.from_evaluator(
            lambda pts: np.asarray(pts, float) + [0.3, 0.4], sampling)
        assert winding_number(f, L=1.0).value == 1


class TestPoincareBohlRigor:
    # the only zero of x - a lies just outside the unit 3-disk
    A = 1.05 * np.array([0.3, -0.5, 0.81]) / np.linalg.norm([0.3, -0.5, 0.81])

    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    @pytest.mark.parametrize("center, radius", [(np.zeros(3), 1.0),
                                                (np.array([1.0, -2.0, 0.5]),
                                                 2.0)])
    def test_zero_outside_is_never_rigorous(self, level, center, radius):
        a = center + radius * self.A
        f = lambda pts: np.asarray(pts, float) - a     # Lipschitz constant 1
        region = Region.disk(center, radius)
        cert = certify_existence(f, region, level=level, lipschitz=1.0)
        check = poincare_bohl(f, region, level=level, L=1.0)
        assert cert.rigor == "heuristic"
        assert check.rigor == "heuristic"
        assert check.threshold == 1.0 * sample_sphere(region, level).h / 2.0

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_zero_inside_stays_rigorous(self, level):
        spec = parse_map("x1 - 0.3, x2 - 0.3, x3 - 0.3", 3)
        region = Region.disk(np.zeros(3), 1.0)
        cert = certify_existence(spec, region, level=level, lipschitz=1.0)
        assert cert.verdict == "ZeroGuaranteed"
        assert cert.route == "poincare_bohl" and cert.rigor == "rigorous"
        assert poincare_bohl(spec, region, level=level, L=1.0).rigor == \
            "rigorous"

    def test_label_needs_nonvanishing_within_h(self):
        # F = 0.05 x points along x everywhere (margin 2); with L = 1 the
        # mesh bound L*h/2 = 0.18 of level 1 exceeds min|F| = 0.05, so F may
        # vanish between the samples: the check passes but proves nothing
        spec = parse_map("0.05*x1, 0.05*x2, 0.05*x3", 3)
        region = Region.disk(np.zeros(3), 1.0)
        for L, rigor in ((0.05, "rigorous"), (1.0, "heuristic")):
            check = poincare_bohl(spec, region, level=1, L=L)
            assert check.passed and check.rigor == rigor


class TestCertifyExistence:
    def test_identity_zero_guaranteed(self, unit_disk):
        cert = certify_existence(IDENTITY, unit_disk)
        assert cert.verdict == "ZeroGuaranteed"
        assert cert.route == "winding"
        assert cert.obstruction == 1

    def test_shifted_no_conclusion_with_witness(self, unit_disk):
        cert = certify_existence(SHIFTED, unit_disk)
        assert cert.verdict == "NoConclusion"
        assert cert.obstruction == 0
        assert cert.extension_witness is not None
        # the witness is a zero-free extension agreeing with F on the boundary
        phi = cert.extension_witness
        assert np.allclose(phi([1.0, 0.0]), [4.0, 3.0])
        assert np.linalg.norm(phi([0.2, -0.1])) > 0

    def test_witness_of_a_refined_winding(self, unit_disk):
        # F = (z - a)^2, a just outside the disk: the image turns by more
        # than pi between two of the 256 samples, so the winding inserts
        # midpoints and gets 0, which the witness must contract; their
        # wrapped steps alone sum to a full turn
        a = (1.0079240994538576, 0.012369710592005685)
        spec = parse_map(f"(x1 - {a[0]!r})^2 - (x2 - {a[1]!r})^2, "
                         f"2*(x1 - {a[0]!r})*(x2 - {a[1]!r})", 2)
        samples = sample_sphere(unit_disk, 6).points
        w = winding_number(SampledMap.from_evaluator(spec, sample_sphere(
            unit_disk, 6)))
        assert (w.value, w.total_refinements) == (0, 3)
        assert len(w.boundary.sampling) == len(samples) + 3
        cert = certify_existence(spec, unit_disk)
        assert cert.verdict == "NoConclusion" and cert.obstruction == 0
        phi = cert.extension_witness
        want = evaluate(spec, samples)
        got = np.array([phi(p) for p in samples])
        scale = 1.0 + float(np.max(np.linalg.norm(want, axis=1)))
        assert np.max(np.abs(got - want)) <= 1e-12 * scale
        rng = np.random.default_rng(8)
        radii = np.sqrt(rng.uniform(0.0, 1.0, 400))
        angles = rng.uniform(0.0, 2.0 * math.pi, 400)
        for r, t in zip(radii, angles):
            assert np.linalg.norm(phi([r * math.cos(t), r * math.sin(t)])) > 0

    def test_witness_built_on_first_call(self, unit_disk, monkeypatch):
        built = []
        real = criteria.log_polar_extension
        monkeypatch.setattr(criteria, "log_polar_extension", lambda *args:
                            built.append("log_polar_extension") or real(*args))
        cert = certify_existence(SHIFTED, unit_disk)
        assert cert.extension_witness is not None and built == []
        first = cert.extension_witness([0.9, 0.1])
        assert built == ["log_polar_extension"]
        again = cert.extension_witness([0.9, 0.1])
        assert again.tobytes() == first.tobytes()
        assert built == ["log_polar_extension"]

    def test_witness_build_reuses_the_winding(self, unit_disk, monkeypatch):
        # the build takes the winding's boundary and angle steps: no
        # wrapped_steps, and the log radii of only the samples a point
        # needs, refined or not
        steps, logs = [], []
        real_steps, real_log = homotopy.wrapped_steps, math.log
        monkeypatch.setattr(homotopy, "wrapped_steps",
                            lambda ims: steps.append(1) or real_steps(ims))
        monkeypatch.setattr(math, "log", lambda v: logs.append(1) or real_log(v))
        a = (1.0079240994538576, 0.012369710592005685)
        refined = parse_map(f"(x1 - {a[0]!r})^2 - (x2 - {a[1]!r})^2, "
                            f"2*(x1 - {a[0]!r})*(x2 - {a[1]!r})", 2)
        rng = np.random.default_rng(9)
        for spec in (SHIFTED, refined):
            cert = certify_existence(spec, unit_disk)
            assert cert.obstruction == 0
            logs.clear()
            assert cert.extension_witness([0.7, -0.4]).shape == (2,)
            assert len(logs) <= 3
            for x in rng.uniform(-1.2, 1.2, (64, 2)):
                assert cert.extension_witness(x).shape == (2,)
            assert len(logs) <= 3 + 2 * 64
        assert steps == []
        # radial_extension takes the steps of the trace's row 0 itself
        trace = homotopy.null_homotopy(
            SampledMap.from_evaluator(SHIFTED, sample_sphere(unit_disk, 6)))
        steps.clear()
        homotopy.radial_extension(trace)
        assert steps == [1]

    def test_large_disk_contains_zero(self):
        spec = parse_map("x1 - 1.2, x2 + 0.5", 2)
        region = Region.disk([0.0, 0.0], 4.0)
        cert = certify_existence(spec, region)
        assert cert.verdict == "ZeroGuaranteed"
        assert cert.route == "winding"
        assert cert.obstruction == 1

    def test_coercive_map_on_a_disk_where_it_points_out(self):
        # <F(x), x> >= 0 on the boundary circle of radius 4
        spec = parse_map("x1 - 2, x2", 2)
        cert = certify_existence(spec, Region.disk([0.0, 0.0], 4.0))
        assert cert.verdict == "ZeroGuaranteed"
        located = locate_zero(spec, Region.box([-4.0, -4.0], [4.0, 4.0]),
                              eps_x=1e-7, eps_f=0.0)
        assert np.linalg.norm(located.point - [2.0, 0.0]) <= 1e-6

    def test_boundary_zero(self, unit_disk):
        spec = parse_map("x1 - 1, x2", 2)
        cert = certify_existence(spec, unit_disk)
        assert cert.verdict == "ZeroOnBoundary"

    def test_codomain_dim_excess(self, unit_disk):
        spec = parse_map("x1, x2, 1", 2)
        cert = certify_existence(spec, unit_disk)
        assert cert.verdict == "NoConclusion"
        assert cert.reason == "codomain_dim_excess"

    def test_one_dimensional_sign_change(self):
        spec = parse_map("x1^3 - 0.5", 1)
        cert = certify_existence(spec, Region.disk([0.0], 1.0))
        assert cert.verdict == "ZeroGuaranteed"
        assert cert.route == "sign_change"

    def test_one_dimensional_no_conclusion(self):
        spec = parse_map("x1^2 + 1", 1)
        cert = certify_existence(spec, Region.disk([0.0], 1.0))
        assert cert.verdict == "NoConclusion"
        assert cert.reason == "same_component"

    def test_poincare_bohl_route_high_dim(self):
        spec = parse_map("x1 + 0.1, x2, x3 - 0.2", 3)
        cert = certify_existence(spec, Region.disk(np.zeros(3), 1.0), level=0)
        assert cert.verdict == "ZeroGuaranteed"
        assert cert.route == "poincare_bohl"

    def test_unsupported_n_greater_m(self):
        spec = parse_map("x1 + x2", 2)
        with pytest.raises(Unsupported):
            certify_existence(spec, Region.disk([0.0, 0.0], 1.0))

    def test_rescaling_invariance(self):
        spec = parse_map("x1 - 1.2, x2 + 0.5", 2)
        region = Region.disk([0.3, 0.3], 4.0)
        cert = certify_existence(spec, region)
        # G(y) = F(4 y + (0.3, 0.3))
        rescaled = parse_map("4*x1 - 0.9, 4*x2 + 0.8", 2)
        unit_cert = certify_existence(rescaled, Region.disk([0.0, 0.0], 1.0))
        assert cert.verdict == unit_cert.verdict
        assert cert.obstruction == unit_cert.obstruction

    def test_one_boundary_evaluation_n3(self, counting_evaluator):
        ev = counting_evaluator(lambda pts: pts + [0.1, 0.0, -0.2])
        cert = certify_existence(ev, Region.disk(np.zeros(3), 1.0), level=1)
        assert cert.route == "poincare_bohl"
        assert ev.batches == [
            len(sample_sphere(Region.disk(np.zeros(3), 1.0), 1))]

    def test_unit_mesh_built_once(self, monkeypatch):
        calls = []
        build = geometry._cubed_sphere
        monkeypatch.setattr(geometry, "_cubed_sphere",
                            lambda n, level: calls.append((n, level))
                            or build(n, level))
        geometry._unit_sampling.cache_clear()
        spec = parse_map("x1 - 0.2, x2, x3 + 0.1", 3)
        for center, radius in ((np.zeros(3), 1.0), (np.full(3, 5.0), 2.0)):
            cert = certify_existence(spec, Region.disk(center, radius),
                                     level=2)
            assert cert.route == "poincare_bohl"
        assert calls == [(3, 2)]

    @pytest.mark.parametrize("text, n, reason, route", [
        ("x1^3 - 0.5", 1, "sign_change", "sign_change"),
        ("x1^2 + 1", 1, "same_component", None),
        ("x1, x2", 2, "winding_nonzero", "winding"),
        ("x1 + 3, x2 + 3", 2, "winding_zero", None),
        ("x1 + 2, 1", 1, "codomain_dim_excess", None),
        ("x1, x2, 1", 2, "codomain_dim_excess", None),
    ])
    def test_route_agrees_with_classify_cat(self, text, n, reason, route):
        spec = parse_map(text, n)
        region = Region.disk(np.zeros(n), 1.0)
        cert = certify_existence(spec, region, level=4)
        cat = classify_cat(SampledMap.from_evaluator(
            as_evaluator(spec), sample_sphere(region, 4)))
        assert cat.reason == reason
        assert cert.route == route
        assert cert.reason == (None if route else reason)
        assert (cat.cat == 2) == (cert.verdict == "ZeroGuaranteed")

    def test_rigor_is_weakest_of_checks(self, unit_disk):
        heuristic = certify_existence(IDENTITY, unit_disk)
        rigorous = certify_existence(IDENTITY, unit_disk, lipschitz=1.0)
        assert heuristic.rigor == "heuristic"
        assert rigorous.rigor == "rigorous"


class TestOneDimensionalIsExact:
    """The n = 1 boundary S^0 is its two endpoints, both sampled, so the
    sign route needs no mesh argument and no Lipschitz bound."""

    @pytest.mark.parametrize("L", [None, 1.0, 100.0])
    def test_sign_change_is_rigorous(self, L):
        spec = parse_map("x1^3 - 0.5", 1)
        cert = certify_existence(spec, Region.disk([0.5], 1.0), lipschitz=L)
        assert cert.verdict == "ZeroGuaranteed" and cert.route == "sign_change"
        assert cert.rigor == "rigorous"
        [check] = cert.evidence
        assert check.name == "boundary_nonvanishing"
        assert check.passed and check.margin == 0.625
        assert check.rigor == "rigorous" and check.threshold == 0.0

    @pytest.mark.parametrize("L", [None, 1.0, 100.0])
    def test_no_conclusion_is_rigorous(self, L):
        cert = certify_existence(parse_map("x1^2 + 1", 1),
                                 Region.disk([0.0], 1.0), lipschitz=L)
        assert cert.verdict == "NoConclusion"
        assert cert.reason == "same_component" and cert.rigor == "rigorous"
        check = boundary_nonvanishing(parse_map("x1^2 + 1", 1),
                                      Region.disk([0.0], 1.0), L=L)
        assert check.passed and check.rigor == "rigorous"
        assert check.threshold == 0.0

    def test_boundary_zero_stays_heuristic(self):
        cert = certify_existence(parse_map("x1 - 1", 1), Region.disk([0.0], 1.0),
                                 lipschitz=1.0)
        assert cert.verdict == "ZeroOnBoundary" and cert.rigor == "heuristic"
        assert not cert.evidence[0].passed


class TestLipschitzValidation:
    def test_negative_constant_gives_no_false_rigorous_zero(self):
        # the map has no zero in the disk; a negative L made the L*h/2
        # threshold negative, which every Poincare-Bohl margin passed
        spec = parse_map("x1+3, x2+3, x3+3", 3)
        with pytest.raises(InvalidInput):
            certify_existence(spec, Region.disk(np.zeros(3), 1.0), level=1,
                              lipschitz=-1.0)

    @pytest.mark.parametrize("L", [-1.0, math.nan, math.inf])
    def test_every_entry_point_rejects(self, L, unit_disk):
        f = SampledMap.from_evaluator(as_evaluator(IDENTITY),
                                      sample_sphere(unit_disk, 3))
        calls = [
            lambda: certify_existence(IDENTITY, unit_disk, level=3,
                                      lipschitz=L),
            lambda: boundary_nonvanishing(IDENTITY, unit_disk, level=3, L=L),
            lambda: poincare_bohl(IDENTITY, unit_disk, level=3, L=L),
            lambda: winding_number(f, L=L),
            lambda: straight_line(f, f, t_steps=4, L=L),
        ]
        for call in calls:
            with pytest.raises(InvalidInput):
                call()

    def test_zero_constant_is_accepted(self, unit_disk):
        cert = certify_existence(IDENTITY, unit_disk, level=3, lipschitz=0.0)
        assert cert.verdict == "ZeroGuaranteed"


class TestSoundness:
    def _maps_with_known_zeros(self):
        rng = np.random.default_rng(29)
        cases = []
        for _ in range(10):
            b = rng.uniform(-0.5, 0.5, size=2)
            cases.append((parse_map(f"x1 - {float(b[0])!r}, x2 - {float(b[1])!r}", 2), b))
        for _ in range(10):
            while True:
                a = rng.uniform(-1.5, 1.5, size=(2, 2))
                if abs(np.linalg.det(a)) > 0.3:
                    break
            text = (f"{float(a[0,0])!r}*x1 + {float(a[0,1])!r}*x2, "
                    f"{float(a[1,0])!r}*x1 + {float(a[1,1])!r}*x2")
            cases.append((parse_map(text, 2), np.zeros(2)))
        for _ in range(10):
            c = rng.uniform(0.05, 0.3, size=2)
            # zero of z^2 = c1 + i c2 lies inside the unit disk
            root = np.sqrt(complex(c[0], c[1]))
            cases.append((parse_map(
                f"x1^2 - x2^2 - {float(c[0])!r}, 2*x1*x2 - {float(c[1])!r}", 2),
                np.array([root.real, root.imag])))
        return cases

    def test_zero_guaranteed_is_sound(self, unit_disk):
        for spec, zero in self._maps_with_known_zeros():
            cert = certify_existence(spec, unit_disk)
            if cert.verdict == "ZeroGuaranteed":
                assert np.linalg.norm(zero) <= 1.0 + 1e-9
                located = locate_zero(spec, Region.box([-1.0, -1.0], [1.0, 1.0]),
                                      eps_x=1e-7)
                assert np.linalg.norm(
                    np.asarray(zc_eval(spec, located.point))) <= 1e-6


def zc_eval(spec, point):
    from zerocert import evaluate
    return evaluate(spec, point)


# Golden certificates: (id, map, n, center, radius, level, lipschitz), where
# a map given as text is parsed with parse_map.  They cover n = 1-4, with
# and without a Lipschitz constant, off-centre disks with r != 1, and every
# verdict and reason; the SHA-256 of each certificate_dumps is pinned below.
_A = 1.05 * np.array([0.3, -0.5, 0.81]) / np.linalg.norm([0.3, -0.5, 0.81])
GOLDEN_CASES = [
    ("n1-sign", "x1^3 - 0.2", 1, [0.0], 1.0, None, None),
    ("n1-sign-L", "x1^3 - 0.2", 1, [0.0], 1.0, None, 3.0),
    ("n1-same-offcentre-L", "x1^2 + 0.5", 1, [0.25], 1.5, 3, 2.0),
    ("n1-boundary-zero", "x1 - 1", 1, [0.0], 1.0, None, 1.0),
    ("n1-codomain-excess", "x1 + 2, 1", 1, [0.0], 1.0, None, None),
    ("n2-winding", "x1, x2", 2, [0.0, 0.0], 1.0, 4, None),
    ("n2-winding-L-offcentre",
     "(x1 - 0.2)^2 - (x2 + 0.1)^2, 2*(x1 - 0.2)*(x2 + 0.1)",
     2, [0.1, -0.2], 1.5, 5, 8.0),
    ("n2-winding-zero", "x1 + 3, x2 + 3", 2, [0.0, 0.0], 1.0, 4, None),
    ("n2-winding-zero-refined",
     "(x1 - 1.0079240994538576)^2 - (x2 - 0.012369710592005685)^2, "
     "2*(x1 - 1.0079240994538576)*(x2 - 0.012369710592005685)",
     2, [0.0, 0.0], 1.0, None, None),
    ("n2-boundary-zero", "x1 - 1, x2", 2, [0.0, 0.0], 1.0, 3, None),
    ("n2-codomain-excess", "x1, x2, 1", 2, [0.0, 0.0], 1.0, 3, None),
    ("n3-pb-L-offcentre", "x1 - 0.5*x2, x2 + x3^2, x3 - x1*x2", 3,
     [0.1, -0.2, 0.3], 1.5, 1, 3.0),
    ("n3-pb", "x1 - 0.5*x2, x2 + x3^2, x3 - x1*x2", 3, [0.0] * 3, 1.0, 1,
     None),
    ("n3-pb-failed", "-x1, -x2, -x3", 3, [0.0] * 3, 1.0, 1, None),
    # 10 R x, R the rotation by 150 degrees about x3
    ("n3-pb-failed-rigorous",
     "-8.660254037844386*x1 - 5*x2, 5*x1 - 8.660254037844386*x2, 10*x3",
     3, [0.0] * 3, 1.0, 2, 10.0),
    ("n3-pb-failed-L",
     ", ".join(f"x{j + 1} - {float(v)!r}" for j, v in enumerate(_A)),
     3, [0.0] * 3, 1.0, 1, 1.0),
    ("n3-pb-rigorous", "x1 - 0.3, x2 - 0.3, x3 - 0.3", 3, [0.0] * 3, 1.0,
     2, 1.0),
    ("n3-pb-callable", lambda pts: pts - [0.1, 0.0, -0.2], 3, [0.0] * 3,
     1.0, 0, None),
    # x - p for the sixth level-0 sample p, which vanishes exactly there
    ("n3-boundary-zero", ", ".join(
        f"x{j + 1} - {float(v)!r}" for j, v in enumerate(
            sample_sphere(Region.disk(np.zeros(3), 1.0), 0).points[5])),
     3, [0.0] * 3, 1.0, 0, None),
    ("n3-codomain-excess", "x1, x2, x3, 1", 3, [0.0] * 3, 1.0, 0, None),
    ("n4-pb-L", "x1 + 0.1, x2, x3 - 0.2, x4", 4, [0.0] * 4, 1.0, 1, 1.0),
    ("n4-pb-offcentre", "x1 + 0.1, x2, x3 - 0.2, x4", 4,
     [0.5, -0.25, 0.0, 1.0], 0.75, 1, None),
    ("n4-pb-failed", "-x1, -x2, -x3, -x4", 4, [0.0] * 4, 1.0, 0, 2.0),
]
GOLDEN_SHA256 = {
    "n1-sign":
        "a0986887bcb461119ac984f4f01b51dc932aff17b5cc52e87ea55b043a59e1ad",
    "n1-sign-L":
        "a0986887bcb461119ac984f4f01b51dc932aff17b5cc52e87ea55b043a59e1ad",
    "n1-same-offcentre-L":
        "b0aedc77b550b34dfbe4cf6a30a63e2ef62b6d997865016719c08db19b52fc64",
    "n1-boundary-zero":
        "81b11d7f3110697481d68fe301ca0b4a493b378b91f4b3111f3699a338b39680",
    "n1-codomain-excess":
        "9ad8ac1a02803e7e93ba8a8b7831d02688522c7e61464ae748427753e4e56e82",
    "n2-winding":
        "5c7477312c96033499e1fd61dd529b54fee333ce0120a8e6a63f70ad2627ea32",
    "n2-winding-L-offcentre":
        "dc126bc58c468ec8dbb357651564b221aecc87144dc310d0ca81874fb35b4e1b",
    "n2-winding-zero":
        "81bd8a518e5200a75b743c0b6f6dfac4b23a546ebd358b99ddc054efa2c059f7",
    "n2-winding-zero-refined":
        "f26936dd9d2c9292521c2a4832403d05e7556b5790df48ca599226999d1d1bcb",
    "n2-boundary-zero":
        "ebdb8e35e867d91e494bb142d3e3fcd9b619c6e5e2602c3020d200c816a524b2",
    "n2-codomain-excess":
        "db3cfadc1874f2f03c40bc0c9b44979de165583acc50db5bc7043d01144dc046",
    "n3-pb-L-offcentre":
        "af5d0e118dab5e28aad2dada8c4f04f9f4d52281d43afaac92dfea4c6dfa8510",
    "n3-pb":
        "802393f417c95fd47a61b2ab2212669e9c87b32a30d444a50688199341f681ca",
    "n3-pb-failed":
        "4147c194c6165a9ad379b2b5189ea07e5391efb3a1e275d7c3f9748837765490",
    "n3-pb-failed-rigorous":
        "3032185dc5170bc428431bbdd69d6a8d81e2b9a706017c621b1fca61229b0ad2",
    "n3-pb-failed-L":
        "611c54514b2eab9825dd3dd6f15677e61dd9393e4debb2f42997b84c90775427",
    "n3-pb-rigorous":
        "d46738751d85ce5c7d1ea92d00761ae17543cf628842e77795d28fdb7c55fcc9",
    "n3-pb-callable":
        "9311b989d0cb661c946c71c2c85f81aefeaaeaf83b19f32ebed51603decd5640",
    "n3-boundary-zero":
        "f35648dd6a15c7e5fb2af3b6f3eb4085607439405f0bd8c3415018e8174b4da3",
    "n3-codomain-excess":
        "dd35a3e8a514c1a910a50dc22d9498940fbbaf60cacd618438721131793daa21",
    "n4-pb-L":
        "9cdf2a2801d6ed11c79c8d3a6bf36c18b7a8fab87f912d1aee2d8839839b96bb",
    "n4-pb-offcentre":
        "38a0a2b7277d9df62318a0c17b3c6cd96b568677ffe20c78a6eb2168652caee2",
    "n4-pb-failed":
        "e462138fb17b6ddcc431b4f2dc84711baa9015156b359a9bc9ca9828eb3477b4",
}
# extension witness of each winding-0 certificate at WITNESS_POINTS
WITNESS_POINTS = [[0.0, 0.0], [0.7, -0.2], [-0.5, 0.5], [0.9, 0.1]]
GOLDEN_WITNESS = {
    "n2-winding-zero": [(3.9999999999999996, 2.9999999999999996),
        (3.983392468490315, 2.8732098363082184),
        (3.2972958210619416, 3.382533014923431),
        (3.994849276128126, 3.0893843209546445)],
    "n2-winding-zero-refined": [(-9.021838797535072e-05, 0.00019603763389297853),
        (-0.0023660440979654967, 0.002276150025983801),
        (0.00778962700712212, 0.008938312330087742),
        (-0.0016875531074228573, -0.004399290115540291)],
}


def _golden(case):
    _, text, n, center, radius, level, lipschitz = case
    spec = text if callable(text) else parse_map(text, n)
    region = Region.disk(center, radius)
    return spec, region, certify_existence(spec, region, level=level,
                                           lipschitz=lipschitz)


def _fields(check):
    return (check.name, check.passed, check.margin, check.rigor,
            check.threshold, check.witness.tobytes())


class TestGoldenCertificates:
    """Every certificate byte of a fixed set of certificates, pinned before
    the boundary checks were reworked into one pass: a change to a verdict,
    margin, threshold, witness or rigor label shows here.  The n = 2 cases
    also pin numpy's float64 cos, sin and arctan2 (captured with numpy 2.4
    on x86-64); the extension witness values pin the math module's atan2,
    log, exp, cos and sin, since the witness is computed on Python floats."""

    @pytest.mark.parametrize("case", GOLDEN_CASES, ids=lambda c: c[0])
    def test_certificate_bytes(self, case):
        _, _, cert = _golden(case)
        text = certificate_dumps(cert)
        assert hashlib.sha256(text.encode()).hexdigest() == \
            GOLDEN_SHA256[case[0]], text
        if case[0] in GOLDEN_WITNESS:
            values = [tuple(float(v) for v in cert.extension_witness(p))
                      for p in WITNESS_POINTS]
            assert values == GOLDEN_WITNESS[case[0]]
        else:
            assert cert.extension_witness is None

    def test_every_verdict_and_reason(self):
        seen = {(c.verdict, c.reason) for c in
                (_golden(case)[2] for case in GOLDEN_CASES)}
        assert seen == {("ZeroGuaranteed", None),
                        ("ZeroOnBoundary", "boundary_zero"),
                        ("NoConclusion", "same_component"),
                        ("NoConclusion", "codomain_dim_excess"),
                        ("NoConclusion", "winding_zero"),
                        ("NoConclusion", "poincare_bohl_failed")}

    @pytest.mark.parametrize("case", GOLDEN_CASES, ids=lambda c: c[0])
    def test_public_checks_are_the_evidence(self, case):
        spec, region, cert = _golden(case)
        level, L = case[5], case[6]
        assert _fields(boundary_nonvanishing(spec, region, level, L)) == \
            _fields(cert.evidence[0])
        if cert.evidence[-1].name == "poincare_bohl":
            assert _fields(poincare_bohl(spec, region, level, L)) == \
                _fields(cert.evidence[1])

    @pytest.mark.parametrize("case", GOLDEN_CASES, ids=lambda c: c[0])
    def test_witness_is_the_callers_copy(self, case):
        spec, region, cert = _golden(case)
        n, level = region.dim, case[5]
        unit = Region.disk(np.zeros(n), 1.0)
        before = sample_sphere(unit, level).points.copy()
        checks = cert.evidence + [boundary_nonvanishing(spec, region, level)]
        if cert.evidence[-1].name == "poincare_bohl":
            checks.append(poincare_bohl(spec, region, level))
        for check in checks:
            if check.witness is None:       # the winding check has none
                continue
            assert check.witness.flags.writeable
            check.witness[:] = 7.0
            assert np.array_equal(sample_sphere(unit, level).points, before)
