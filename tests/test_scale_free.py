"""Metamorphic tests: F and c * F (c > 0) have the same zeros, so scaling
the map, with eps_f scaled alike, must not change a verdict, a route, an
obstruction or how a locate ends.  The vanishing floor is what these hold:
it is relative to the largest boundary image norm, so a small map is not
read as vanishing everywhere."""
import math

import numpy as np
import pytest

from zerocert import Region, certify_existence, locate_zero, parse_map

UNIT_BOX = Region.box([-1.0, -1.0], [1.0, 1.0])


def poly_map(roots, c):
    """c * prod(z - r) as a planar map, z = x1 + i x2."""
    coeffs = np.poly(roots)

    def F(pts):
        z = pts[:, 0] + 1j * pts[:, 1]
        v = c * np.polyval(coeffs, z)
        return np.stack([v.real, v.imag], axis=1)
    return F


# one zero in the box, the others well outside it, degrees 1 to 4
LOCATE_ROOTS = [
    [0.3 + 0.4j],
    [0.3 + 0.4j, 4.0 - 1.0j],
    [-0.2 + 0.1j, 3.0 + 3.0j, -4.0 + 0.5j],
    [0.45 - 0.35j, 5.0j, -4.0 - 2.0j, 3.5 - 3.0j],
]


class TestLocate:
    @pytest.mark.parametrize("c", [1e-3, 1e-6])
    @pytest.mark.parametrize("roots", LOCATE_ROOTS,
                             ids=[f"degree{len(r)}" for r in LOCATE_ROOTS])
    def test_scaled_map_keeps_the_newton_answer(self, roots, c):
        eps_x, eps_f = 1e-10, 1e-9
        want = locate_zero(poly_map(roots, 1.0), UNIT_BOX, eps_x=eps_x,
                           eps_f=eps_f)
        got = locate_zero(poly_map(roots, c), UNIT_BOX, eps_x=eps_x,
                          eps_f=c * eps_f)
        assert want.termination == got.termination == "newton"
        assert np.linalg.norm(got.point - want.point) <= eps_x
        assert abs(complex(*got.point) - roots[0]) <= eps_x

    def test_small_affine_map(self, counting_evaluator):
        # every image on the accepted square is about 1e-14: the square's
        # boundary does not vanish, so the tail's point is kept
        ev = counting_evaluator(parse_map("1e-3*(x1 - 0.3), 1e-3*(x2 - 0.4)",
                                          2))
        result = locate_zero(ev, UNIT_BOX, eps_x=1e-10, eps_f=1e-12)
        assert result.termination == "newton"
        assert np.linalg.norm(result.point - [0.3, 0.4]) <= 1e-10
        assert ev.batches == [5, 5, 17]


PLANE = Region.disk([0.0, 0.0], 1.0)
# (components, region, level): winding 2, 1 and 0 on the unit disk, a sign
# change on an interval, and Poincare-Bohl for n = 3 and 4
CERTIFY_CASES = {
    "plane-winding2": (["x1^2 - x2^2 - 0.25", "2*x1*x2"], PLANE, None),
    "plane-winding1": (["0.85 - 0.6*x2 - x2^2 - 1.8*x1 + x1^2",
                        "0.3 - 1.8*x2 + 0.6*x1 + 2*x1*x2"], PLANE, None),
    "plane-winding0": (["x1 - 1.5", "x2 + 0.5*x1^2"], PLANE, None),
    "interval": (["x1^3 - 0.2"], Region.disk([0.0], 1.0), None),
    "sphere3": (["x1 - 0.5*x2", "x2 + x3^2", "x3 - x1*x2"],
                Region.disk([0.1, -0.2, 0.3], 1.5), 1),
    "sphere4-outside": (["x1 - 2", "x2", "x3 + 0.3*x1*x2", "x4"],
                        Region.disk(np.zeros(4), 1.0), 1),
}


class TestCertify:
    @pytest.mark.parametrize("case", sorted(CERTIFY_CASES))
    def test_scaled_map_keeps_the_verdict(self, case):
        components, region, level = CERTIFY_CASES[case]
        n = region.dim
        want = certify_existence(parse_map(", ".join(components), n), region,
                                 level=level)
        small = ", ".join(f"1e-12*({c})" for c in components)
        got = certify_existence(parse_map(small, n), region, level=level)
        assert want.verdict != "ZeroOnBoundary"
        assert (got.verdict, got.route, got.obstruction) == (
            want.verdict, want.route, want.obstruction)
        assert math.isclose(got.min_boundary_norm,
                            1e-12 * want.min_boundary_norm, rel_tol=1e-9)
