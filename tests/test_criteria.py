import math

import numpy as np
import pytest

from zerocert import (InvalidInput, Region, Unsupported,
                      boundary_nonvanishing, certify_existence, classify_cat,
                      coercivity_radius, evaluate, locate_zero, parse_map,
                      poincare_bohl, winding_number)
from zerocert import criteria, geometry
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


class TestCoercivityRadius:
    def test_identity_first_radius(self):
        result = coercivity_radius(IDENTITY, 2, [1.0, 2.0, 4.0], level=4)
        assert result is not None
        R, check = result
        assert R == 1.0
        assert check.passed

    def test_shift_by_two(self):
        spec = parse_map("x1 - 2, x2", 2)
        result = coercivity_radius(spec, 2, [1.0, 2.0, 4.0], level=4)
        assert result is not None
        assert result[0] == 4.0

    def test_negated_identity_none(self):
        spec = parse_map("-x1, -x2", 2)
        assert coercivity_radius(spec, 2, [1.0, 2.0, 4.0], level=4) is None


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
        for name in ("null_homotopy", "radial_extension"):
            real = getattr(criteria, name)
            monkeypatch.setattr(criteria, name, lambda arg, real=real, name=name:
                                built.append(name) or real(arg))
        cert = certify_existence(SHIFTED, unit_disk)
        assert cert.extension_witness is not None and built == []
        first = cert.extension_witness([0.9, 0.1])
        assert built == ["null_homotopy", "radial_extension"]
        again = cert.extension_witness([0.9, 0.1])
        assert again.tobytes() == first.tobytes()
        assert built == ["null_homotopy", "radial_extension"]

    def test_large_disk_contains_zero(self):
        spec = parse_map("x1 - 1.2, x2 + 0.5", 2)
        region = Region.disk([0.0, 0.0], 4.0)
        cert = certify_existence(spec, region)
        assert cert.verdict == "ZeroGuaranteed"
        assert cert.route == "winding"
        assert cert.obstruction == 1

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
