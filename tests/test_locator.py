import math
import platform

import numpy as np
import pytest

from zerocert import (BudgetExhausted, DegreeLost, DomainError, InvalidInput,
                      Region, VanishingOnBoundary, ZeroCertError, box_winding,
                      brouwer_fixed_point, evaluate, locate_zero, parse_map,
                      sample_sphere)
from zerocert import locator, mapspec
from zerocert.mapspec import as_evaluator

from conftest import CountingEvaluator

UNIT_BOX = Region.box([-1.0, -1.0], [1.0, 1.0])


def without_tail(patch):
    """Make locate_zero skip its Newton tail: the first call evaluates the
    top box, and the quadtree alone decides."""
    patch.setattr(locator, "_runs_tail", lambda *args: False)


@pytest.fixture
def quadtree_only(monkeypatch):
    without_tail(monkeypatch)


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

    @pytest.mark.parametrize("lower, upper", [
        ([1.0, -1.0], [-1.0, 1.0]),         # flipped in x
        ([-1.0, 0.5], [1.0, 0.5]),          # flat
        ([math.nan, -1.0], [1.0, 1.0]),
    ])
    def test_invalid_corners_rejected(self, lower, upper, counting_evaluator):
        ev = counting_evaluator(parse_map("x1, x2", 2))
        with pytest.raises(InvalidInput, match="corner"):
            box_winding(ev, lower, upper)
        assert ev.batches == []

    @pytest.mark.parametrize("lower, upper, match", [
        ([-1e308, 0.0], [1e308, 1.0], "width"),
        ([-1e200, -1e200], [1e200, 1e200], "diameter"),
    ])
    def test_too_wide(self, lower, upper, match, counting_evaluator):
        # InvalidInput before any evaluation, and no RuntimeWarning, which
        # the test run makes an error
        ev = counting_evaluator(parse_map("x1 - 0.5, x2 - 0.5", 2))
        with pytest.raises(InvalidInput, match=f"box too wide: its {match} "
                                               "is not finite"):
            box_winding(ev, lower, upper)
        assert ev.batches == []

    def test_budget_exhausted_on_fast_oscillation(self):
        # the image angle is pi/2 - w*x1: each dyadic refinement of the 1/8
        # edge spacing still steps by a multiple 2^k * 2pi/3, +-2pi/3 mod 2pi
        w = 16 * math.pi / 3 * 4 ** 10
        spec = parse_map(f"sin({w!r}*x1), cos({w!r}*x1)", 2)
        with pytest.raises(BudgetExhausted, match="box winding refinement"):
            box_winding(spec, [-1, -1], [1, 1])


def box_points_reference(lo, hi, count=locator.SAMPLES_PER_EDGE):
    """The box boundary samples built per call, as before the template:
    linspace fractions along the corners rolled by one."""
    corners = np.array([[lo[0], lo[1]], [hi[0], lo[1]],
                        [hi[0], hi[1]], [lo[0], hi[1]]])
    frac = np.linspace(0.0, 1.0, count, endpoint=False)[:, None]
    return np.concatenate([a + frac * (b - a) for a, b in
                           zip(corners, np.roll(corners, -1, axis=0))])


class TestConstantGeometry:
    @pytest.mark.parametrize("lo, hi", [
        ([-0.0, -0.0], [1.0, 1.0]), ([-1.0, -0.0], [-0.0, 0.0]),
        ([-0.0, 0.0], [0.0, 2.0]), ([0.0, 0.0], [1e-300, 1e-300]),
        ([3.0, -1e-300], [3.0 + 1e-300 * 2**60, 0.0]),
        ([-5e299, -5e299], [5e299, 5e299]), ([-1e300, 1.0], [0.0, 1e300]),
    ])
    def test_box_points_equal_the_reference(self, lo, hi):
        lo, hi = np.array(lo), np.array(hi)
        assert locator._box_points(lo, hi).tobytes() == \
            box_points_reference(lo, hi).tobytes()
        count = locator.ACCEPT_SAMPLES_PER_EDGE
        assert locator._box_points(lo, hi, count).tobytes() == \
            box_points_reference(lo, hi, count).tobytes()

    def test_random_box_points_equal_the_reference(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            lo = rng.normal(size=2) * 10.0 ** rng.integers(-300, 300)
            hi = lo + rng.uniform(0.1, 2.0, 2) * 10.0 ** rng.integers(-300,
                                                                      300)
            assert locator._box_points(lo, hi).tobytes() == \
                box_points_reference(lo, hi).tobytes()

    def test_templates_are_read_only(self):
        # one template per samples-per-edge count
        counts = (locator.SAMPLES_PER_EDGE, locator.ACCEPT_SAMPLES_PER_EDGE)
        for count in counts:
            assert locator._box_template(count) is \
                locator._box_template(count)
        for array in (*locator._box_template(counts[0]),
                      *locator._box_template(counts[1])):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0

    def test_stencil_equals_clip(self):
        rng = np.random.default_rng(12)
        values = [-0.0, 0.0, -1.0, 1.0]
        for _ in range(200):
            lo = rng.choice(values, 2) - rng.uniform(0.0, 1.0, 2) * \
                rng.integers(0, 2, 2)
            hi = lo + rng.uniform(0.5, 2.0, 2) * rng.integers(0, 2, 2)
            x = np.where(rng.integers(0, 2, 2) == 1, lo, hi)
            pts, spans = locator._stencil(x.tolist(), lo.tolist(),
                                          hi.tolist())
            assert pts.tobytes() == reference_stencil(x, lo, hi).tobytes()
            want = [pts[1, 0] - pts[2, 0], pts[3, 1] - pts[4, 1]]
            assert np.array(spans).tobytes() == np.array(want).tobytes()

    def test_clip_equals_numpy(self):
        # a tie between zeros of either sign gives the bound, on x86-64 as
        # numpy's clip does; otherwise _clip is numpy's clip, a NaN staying
        values = [-math.inf, -1.0, -5e-324, -0.0, 0.0, 5e-324, 1.0,
                  math.inf, math.nan]
        bounds = [b for b in values if not math.isnan(b)]
        x86 = platform.machine().lower() in ("x86_64", "amd64")
        ties = 0
        for lo in bounds:
            for hi in bounds:
                if not lo < hi:
                    continue
                for v in values + [lo, hi]:
                    numpy = np.minimum(np.maximum(np.full((5, 2), v),
                                                  np.array([lo, lo])),
                                       np.array([hi, hi]))[0, 0]
                    got = np.float64(locator._clip(v, lo, hi)).tobytes()
                    tie = next((b for b in (lo, hi) if v == b == 0.0), None)
                    if tie is None:
                        assert got == numpy.tobytes()
                        continue
                    ties += 1
                    assert got == np.float64(tie).tobytes()
                    if x86:
                        assert got == numpy.tobytes()
        assert ties == 36


def recorded(patch, name, log, entry=lambda args, out: out):
    """Wrap locator.``name`` so that each call appends entry(args, result)
    to ``log``."""
    original = getattr(locator, name)

    def wrapper(*args):
        out = original(*args)
        log.append(entry(args, out))
        return out
    patch.setattr(locator, name, wrapper)


class TestLocateZero2D:
    def test_square_below_the_float_spacing_is_refused(self, monkeypatch):
        # no square of diameter 1e-20 around (0.3, 0.4) has two distinct
        # corners: the tail's answer is refused unwound, and the quadtree
        # stops on the residual
        accepted, wound = [], []
        recorded(monkeypatch, "_accept", accepted)
        recorded(monkeypatch, "_wind", wound, lambda args, out: len(args[1]))
        result = locate_zero(parse_map("x1 - 0.3, x2 - 0.4", 2), UNIT_BOX,
                             eps_x=1e-20)
        assert accepted and accepted == [None] * len(accepted)
        assert 4 * locator.ACCEPT_SAMPLES_PER_EDGE not in wound
        assert result.termination == "residual" and result.iterations == 30
        assert np.linalg.norm(result.point - [0.3, 0.4]) <= 1e-9

    def test_square_of_winding_0_is_refused(self, monkeypatch):
        # the tail stops at x1 = 0.186, near the zero at 0.2, and its square
        # of half-side 0.35 * eps_x also holds the zero at 0.3, of the other
        # orientation: it winds 0, and the quadtree finds the zero at -0.8
        wound = []
        recorded(monkeypatch, "_wind", wound,
                 lambda args, out: (len(args[1]), out))
        result = locate_zero(parse_map("(x1 - 0.2)*(x1 - 0.3)*(x1 + 0.8), "
                                       "x2", 2), UNIT_BOX, eps_x=0.5)
        assert wound[0] == (4 * locator.ACCEPT_SAMPLES_PER_EDGE, 0)
        assert result.termination == "cell_diameter"
        assert np.linalg.norm(result.point - [-0.8, 0.0]) \
            <= result.cell_diameter <= 0.5

    def test_identity_origin(self):
        spec = parse_map("x1, x2", 2)
        result = locate_zero(spec, UNIT_BOX, eps_x=1e-7)
        assert np.linalg.norm(result.point) <= 1e-6
        assert result.termination in ("residual", "cell_diameter", "newton")

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

    def test_shrinkage(self, quadtree_only):
        spec = parse_map("x1 - 0.3, x2 - 0.4", 2)
        result = locate_zero(spec, UNIT_BOX, eps_x=1e-5)
        diams = [float(np.linalg.norm(hi - lo)) for lo, hi in result.trail]
        for a, b in zip(diams, diams[1:]):
            assert b == pytest.approx(0.5 * a)

    def test_degree_lost_when_no_zero(self):
        spec = parse_map("x1 + 3, x2 + 3", 2)
        with pytest.raises(DegreeLost):
            locate_zero(spec, UNIT_BOX)

    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("as_spec", [True, False], ids=["spec", "callable"])
    def test_codomain_must_be_2(self, m, as_spec, counting_evaluator):
        # the first Newton stencil is the first call, and its images' width
        # is checked before any step
        text = ", ".join(["x1 - 0.3", "x2 - 0.4", "x1"][:m])
        spec = parse_map(text, 2)
        ev = counting_evaluator(spec if as_spec
                                else lambda pts: evaluate(spec, pts))
        with pytest.raises(InvalidInput, match="2D localization needs "
                                               "codomain dimension 2"):
            locate_zero(ev, UNIT_BOX)
        assert ev.batches == [5]
        with pytest.raises(InvalidInput, match="box winding needs codomain "
                                               "dimension 2"):
            box_winding(spec, UNIT_BOX.lower, UNIT_BOX.upper)

    def test_degree_lost_when_a_level_winds_to_zero(self):
        # F = (z - a)^2 with a just below the box has no zero in it, but
        # its full turn near a falls between two samples of the bottom edge,
        # so the box reads winding 1; a cut point near a resolves the turn
        # and then all four sub-box windings are 0
        spec = parse_map("(x1 - 0.3)^2 - (x2 + 1.001)^2, "
                         "2*(x1 - 0.3)*(x2 + 1.001)", 2)
        assert box_winding(spec, [-1, -1], [1, 1]) == 1
        with pytest.raises(DegreeLost) as info:
            locate_zero(spec, UNIT_BOX, eps_x=1e-10)
        lo, hi = info.value.cell
        assert lo[1] == -1.0 and lo[0] < 0.3 < hi[0]

    def test_cell_at_a_zero_on_every_cut_exhausts_the_jiggles(self):
        # at eps_x = 0 the cell shrinks around the zero until every cut
        # passes within the vanishing floor of it: the degree is not lost,
        # the jiggle budget is spent, and the centre is the best estimate
        spec = parse_map("x1 - 0.3, x2 - 0.4", 2)
        with pytest.raises(BudgetExhausted, match="jiggle budget") as info:
            locate_zero(spec, UNIT_BOX, eps_x=0.0, eps_f=0.0)
        best = info.value.best
        assert best.termination == "budget"
        assert best.cell_diameter < 1e-10
        assert np.linalg.norm(best.point - [0.3, 0.4]) <= best.cell_diameter
        assert best.residual == float(np.linalg.norm(evaluate(spec,
                                                              best.point)))
        lo, hi = best.trail[-1]
        assert np.array_equal(best.point, 0.5 * (lo + hi))
        assert best.iterations == len(best.trail)

    @pytest.mark.parametrize("lower, termination", [
        ([0.2, 0.3], "residual"), ([0.1, 0.3], "cell_diameter")])
    def test_top_box_within_eps_x_ends_at_its_centre(self, lower,
                                                     termination,
                                                     counting_evaluator):
        spec = parse_map("x1 - 0.3, x2 - 0.4", 2)
        ev = counting_evaluator(spec)
        box = Region.box(lower, [0.4, 0.5])
        result = locate_zero(ev, box, eps_x=1.0)
        assert np.array_equal(result.point, 0.5 * (box.lower + box.upper))
        assert result.residual == float(np.linalg.norm(evaluate(
            spec, result.point)))
        assert result.iterations == 0 and result.trail == []
        assert result.termination == termination
        # the top box's boundary, then its centre: no Newton step
        assert ev.batches == [64, 1]

    @pytest.mark.parametrize("text, upper, eps_x", [
        ("1e200*(x1^3 - 0.2)", 1.0, 1e-6), ("x1 - 3e307", 1e308, 1e300)])
    def test_residual_beyond_the_square_range(self, text, upper, eps_x):
        # |F(point)| is far above 1.3e154, where a norm's square overflows
        # with a RuntimeWarning, which the test run makes an error
        spec = parse_map(text, 1)
        result = locate_zero(spec, Region.box([0.0], [upper]), eps_x=eps_x,
                             eps_f=0.0)
        image = evaluate(spec, result.point[None])[0]
        assert math.isfinite(result.residual)
        assert result.residual == abs(image[0]) > 1e154

    def test_iteration_limit_keeps_the_best_cell(self):
        with pytest.raises(BudgetExhausted, match="quadtree") as err:
            locate_zero(parse_map("x1 - 0.3, x2 - 0.4", 2), UNIT_BOX,
                        eps_x=0.0, eps_f=0.0, max_iter=3)
        best = err.value.best
        assert (best.termination, best.iterations) == ("budget", 3)
        assert len(best.trail) == 3
        lo, hi = best.trail[-1]
        assert np.array_equal(best.point, 0.5 * (lo + hi))
        assert np.all((lo < [0.3, 0.4]) & ([0.3, 0.4] < hi))

    def test_zero_on_initial_cut_is_jiggled_past(self, quadtree_only):
        # the zero sits exactly at the first cut point
        spec = parse_map("x1, x2", 2)
        result = locate_zero(spec, UNIT_BOX, eps_x=1e-7, eps_f=0.0)
        assert np.linalg.norm(result.point) <= 1e-6

    def test_seed_reproducibility(self, quadtree_only):
        spec = parse_map("x1, x2", 2)
        a = locate_zero(spec, UNIT_BOX, eps_x=1e-7, eps_f=0.0)
        b = locate_zero(spec, UNIT_BOX, eps_x=1e-7, eps_f=0.0)
        assert np.array_equal(a.point, b.point)


class TestNewtonTail:
    def test_affine_map_in_two_steps(self, counting_evaluator):
        # the first Newton step's 5 points, the second step (below
        # eps_x / 8), then the accepted square's 16 boundary samples (the
        # corners and quarter points of its edges) and the point in one
        # batch: the top box is never evaluated
        spec = parse_map("x1 - 0.3, x2 - 0.4", 2)
        ev = counting_evaluator(spec)
        result = locate_zero(ev, UNIT_BOX, eps_x=1e-10)
        assert result.termination == "newton"
        assert result.iterations == 2
        assert ev.batches == [5, 5, 17]
        assert np.linalg.norm(result.point - [0.3, 0.4]) <= 1e-10
        (lo, hi), = result.trail
        assert np.all(lo < result.point) and np.all(result.point < hi)
        assert result.cell_diameter == float(np.linalg.norm(hi - lo))
        assert 0.9e-10 < result.cell_diameter <= 1e-10
        assert box_winding(ev, lo, hi) == 1
        assert result.residual == float(np.linalg.norm(evaluate(
            spec, result.point)))

    def test_abs_map(self):
        # piecewise linear: Newton lands on the zero's piece and solves it
        spec = parse_map("x1 - 0.3 + 0.5*abs(x2 - 0.2), "
                         "x2 - 0.2 + 0.2*abs(x1 - 0.3)", 2)
        result = locate_zero(spec, UNIT_BOX, eps_x=1e-10)
        assert result.termination == "newton"
        assert np.linalg.norm(result.point - [0.3, 0.2]) <= 1e-10
        (lo, hi), = result.trail
        assert result.cell_diameter <= 1e-10
        assert box_winding(spec, lo, hi) != 0

    def test_clipped_to_the_box(self):
        # the zero sits on the top box's right edge, so the accepted square
        # is cut at it
        spec = parse_map("x1 - 1, x2 - 0.4", 2)
        box = Region.box([-1.0, -1.0], [1.0 + 1e-9, 1.0])
        result = locate_zero(spec, box, eps_x=1e-8)
        assert result.termination == "newton"
        (lo, hi), = result.trail
        assert hi[0] == box.upper[0] and hi[0] - lo[0] < hi[1] - lo[1]

    def test_top_box_of_winding_zero(self, counting_evaluator):
        # the first Newton step lands at x1 = 3, outside the box, so the
        # tail gives up; the top box is evaluated only then, and winds 0
        ev = counting_evaluator(parse_map("x1 - 3, x2", 2))
        with pytest.raises(DegreeLost):
            locate_zero(ev, UNIT_BOX, eps_x=1e-10)
        assert ev.batches == [5, 64]

    def test_zero_in_a_box_of_winding_zero(self, counting_evaluator):
        # zeros at (0.3, 0.1) and (-0.4, 0.1), of opposite index: the box
        # winds 0, but the tail converges to one zero, which its own square
        # proves; the top box is never evaluated.  The quadtree alone loses
        # the degree at the top box
        spec = parse_map("(x1 - 0.3)*(x1 + 0.4), x2 - 0.1", 2)
        box = Region.box([-0.6, -1.0], [1.0, 1.0])
        assert box_winding(spec, box.lower, box.upper) == 0
        ev = counting_evaluator(spec)
        result = locate_zero(ev, box)
        assert result.termination == "newton"
        assert result.point.tolist() == [0.3, 0.1]
        assert ev.batches == [5, 5, 5, 5, 5, 17]
        (lo, hi), = result.trail
        assert box_winding(spec, lo, hi) == 1
        with pytest.MonkeyPatch.context() as patch:
            without_tail(patch)
            with pytest.raises(DegreeLost):
                locate_zero(spec, box)

    # (z - 0.3 - 0.4i)(z - 1.5 - 0.2i): Newton converges quadratically
    EARLY_STOP = ("0.85 + (-0.6)*x2 + (-1.0)*x2^2 + (-1.8)*x1 + 1.0*x1^2, "
                  "0.3000000000000001 + (-1.8)*x2 + 0.6*x1 + 2.0*x1*x2")

    def test_early_stop_when_the_next_step_is_below_rounding(
            self, counting_evaluator):
        # after step 5 the quadratic model puts step 6 below the float
        # spacing, so the square is wound at step 5's iterate: one stencil
        # fewer than running step 6, and the same point and residual
        ev = counting_evaluator(parse_map(self.EARLY_STOP, 2))
        result = locate_zero(ev, UNIT_BOX, eps_x=1e-10)
        assert (result.termination, result.iterations) == ("newton", 5)
        assert ev.batches == [5, 5, 5, 5, 5, 17]
        assert [v.hex() for v in result.point.tolist()] == [
            "0x1.3333333333332p-2", "0x1.9999999999999p-2"]
        assert result.residual.hex() == "0x1.cd82b446159f3p-55"

    def test_refused_early_accept_goes_on(self, counting_evaluator,
                                          monkeypatch):
        # a refused early square is not a give-up: the tail takes step 6,
        # which is below eps_x / 8, and its square is accepted
        refused = []
        accept = locator._accept

        def refuse_first(*args):
            if not refused:
                refused.append(args[-1])
                return None
            return accept(*args)

        monkeypatch.setattr(locator, "_accept", refuse_first)
        ev = counting_evaluator(parse_map(self.EARLY_STOP, 2))
        result = locate_zero(ev, UNIT_BOX, eps_x=1e-10)
        assert refused == [5]
        assert (result.termination, result.iterations) == ("newton", 6)
        assert ev.batches == [5, 5, 5, 5, 5, 5, 17]

    def test_early_stop_on_a_wide_box(self, counting_evaluator):
        # steps of about 1e119 on a box 2e120 wide: size^3 overflows, and a
        # float ** would raise, yet the early stop fires where it should
        text = ("1e-240*((x1 + 0.7e120)*(x1 + 3e120) - (x2 + 0.2e120)*"
                "(x2 - 2e120)), 1e-240*((x1 + 0.7e120)*(x2 - 2e120) + "
                "(x2 + 0.2e120)*(x1 + 3e120))")
        ev = counting_evaluator(parse_map(text, 2))
        box = Region.box([-1e120, -1e120], [1e120, 1e120])
        result = locate_zero(ev, box, eps_x=1e110)
        assert (result.termination, result.iterations) == ("newton", 5)
        assert ev.batches == [5, 5, 5, 5, 5, 17]
        assert result.point.tolist() == [-0.7e120, -0.2e120]

    @pytest.mark.parametrize("eps_x", [0.0, 3.0])
    def test_skipped(self, eps_x, counting_evaluator, monkeypatch):
        # eps_x = 0 asks for float resolution, and a top box within eps_x
        # is already small enough: neither runs the tail
        calls = []
        monkeypatch.setattr(locator, "_newton_tail",
                            lambda *args: calls.append(args))
        ev = counting_evaluator(parse_map("x1 - 0.3, x2 - 0.4", 2))
        locate_zero(ev, UNIT_BOX, eps_x=eps_x, eps_f=1e-9)
        assert calls == []


    @pytest.mark.parametrize("lower, upper", [
        ([-1e308, 0.0], [1e308, 1.0]), ([0.0, -1e308], [1.0, 1e308])])
    def test_box_too_wide(self, lower, upper, counting_evaluator):
        # InvalidInput before any evaluation, and no RuntimeWarning, which
        # the test run makes an error
        ev = counting_evaluator(parse_map("x1 - 0.5, x2 - 0.5", 2))
        with pytest.raises(InvalidInput, match="box too wide: its width is "
                                               "not finite"):
            locate_zero(ev, Region.box(lower, upper))
        assert ev.batches == []


class TestNewtonFallback:
    """When the tail gives up, the quadtree continues from the top box: the
    answer is the quadtree's own, for at most 3 more evaluations."""

    @pytest.mark.parametrize("text, box", [
        # a double zero: Newton converges only linearly, halving each step
        ("(x1-0.3)^2 - (x2-0.2)^2, 2*(x1-0.3)*(x2-0.2)", UNIT_BOX),
        # three zeros around the centre, where the Jacobian is ~0: the first
        # step leaves the box
        ("x1^3 - 3*x1*x2^2 - 0.001, 3*x1^2*x2 - x2^3", UNIT_BOX),
        # (z - 0.5 - 2.9i)(z + 1.02): the centre is nearer the zero just
        # outside the left edge, and Newton runs to it
        ("(x1 - 0.5)*(x1 + 1.02) - (x2 - 2.9)*x2, "
         "(x1 - 0.5)*x2 + (x2 - 2.9)*(x1 + 1.02)",
         Region.box([-1.0, -3.0], [1.0, 3.0])),
        # the double zero at the origin of the fallback the CLI pins
        ("x1^2 - x2^2, 2*x1*x2", Region.box([-0.5, -0.7], [1.0, 1.0])),
        # undefined (0/0) on the line x1 = 0.3, where the first Newton step
        # lands; no quadtree cut point is on it
        ("(x1 - 0.3)^2/(x1 - 0.3), x2 - 0.4", UNIT_BOX),
    ])
    def test_answer_is_the_quadtree_one(self, text, box, counting_evaluator):
        spec = parse_map(text, 2)
        ev = counting_evaluator(spec)
        result = locate_zero(ev, box, eps_x=1e-10)
        quadtree = counting_evaluator(spec)
        with pytest.MonkeyPatch.context() as patch:
            without_tail(patch)
            expected = locate_zero(quadtree, box, eps_x=1e-10)
        assert result.termination != "newton"
        assert outcome_bytes(result) == outcome_bytes(expected)
        assert result.cell_diameter == expected.cell_diameter
        assert len(ev.batches) <= len(quadtree.batches) + 3

    @pytest.mark.parametrize("box, batches", [
        # at the centre of [-1, 1]^2 the Jacobian is nearly 0: the first
        # step leaves the box, and the top box is evaluated after it
        (UNIT_BOX, [5, 64, 257, 257, 257, 1]),
        # on [0, 1]^2 Newton needs 6 steps: the tail takes all 3 stencils
        # of 5, then the top box's 64 samples
        (Region.box([0.0, 0.0], [1.0, 1.0]),
         [5, 5, 5, 64, 257, 257, 257, 1]),
    ], ids=["leaves-the-box", "out-of-steps"])
    def test_quadtree_takes_over_the_iteration_limit(self, box, batches,
                                                     counting_evaluator):
        # the quadtree then gets the same max_iter and runs out of it
        ev = counting_evaluator(parse_map("x1^3 - 0.2, x2^3 - 0.3", 2))
        with pytest.raises(BudgetExhausted, match="quadtree") as err:
            locate_zero(ev, box, eps_x=1e-10, max_iter=3)
        assert ev.batches == batches
        assert (err.value.best.termination,
                err.value.best.iterations) == ("budget", 3)

    def test_undefined_at_a_first_stencil_point(self, counting_evaluator):
        # 0/0 only at (2^-20 * 2, 0), the first step's +h point of x1: the
        # stencil raises, the tail is skipped and the top box is evaluated
        # alone, and the quadtree decides, with one evaluation more than it
        # needs
        spec = parse_map("x1 - 0.3 + 0/((x1 - 1.9073486328125e-06)^2 + x2^2), "
                         "x2 - 0.4", 2)
        ev = counting_evaluator(spec)
        result = locate_zero(ev, UNIT_BOX, eps_x=1e-10)
        quadtree = counting_evaluator(spec)
        with pytest.MonkeyPatch.context() as patch:
            without_tail(patch)
            expected = locate_zero(quadtree, UNIT_BOX, eps_x=1e-10)
        assert outcome_bytes(result) == outcome_bytes(expected)
        assert ev.batches == [5] + quadtree.batches
        assert quadtree.batches[0] == 64


def reference_quadtree(ev, box, eps_x, eps_f, max_iter=100, seed=0):
    """The quadtree that evaluates a fresh box_winding for every sub-box,
    and the centre of every cell on its own: the behaviour locate_zero's
    quadtree must reproduce.  Returns the trail, point, termination,
    iterations and whether a cut was jiggled."""
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


@pytest.mark.usefixtures("quadtree_only")
class TestQuadtreeMatchesOracle:
    """The oracle is ``reference_quadtree``, which winds four fresh boxes
    per level through ``box_winding``."""

    def assert_matches_reference(self, ev, box, eps_x, eps_f, result=None):
        """Compare ``result``, by default locate_zero's, with the reference
        quadtree on ``ev``; return whether the reference jiggled a cut."""
        trail, point, termination, iterations, jiggled = reference_quadtree(
            ev, box, eps_x, eps_f)
        if result is None:
            result = locate_zero(ev, box, eps_x=eps_x, eps_f=eps_f)
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

    @pytest.mark.parametrize("text, termination", [
        # a zero on a half-cut sample: every level jiggles
        ("x1, x2 - 0.5", "cell_diameter"),
        # the centre of the second level is the zero
        ("x1 - 0.25, x2 + 0.25", "residual"),
    ])
    def test_jiggles_and_residual_stop(self, text, termination):
        ev = as_evaluator(parse_map(text, 2))
        result = locate_zero(ev, UNIT_BOX, eps_x=1e-7, eps_f=0.0)
        assert result.termination == termination
        self.assert_matches_reference(ev, UNIT_BOX, 1e-7, 0.0, result)

    def test_zero_on_cut_sample_jiggles_like_reference(self):
        # (0, 0.5) is a boundary sample of the first level's upper sub-boxes
        ev = as_evaluator(parse_map("x1, x2 - 0.5", 2))
        jiggled = self.assert_matches_reference(ev, UNIT_BOX, eps_x=1e-7,
                                                eps_f=0.0)
        assert jiggled

    def test_fixed_point_contractions(self):
        # brouwer_fixed_point locates a zero of G = x - f(x) on [-1, 1]^2
        # with eps_x = eps / 2 and eps_f = 1e-12
        rng = np.random.default_rng(43)
        for _ in range(8):
            a = rng.uniform(-0.5, 0.5, size=(2, 2))
            a *= 0.6 / max(0.6, np.linalg.norm(a, 2))
            fix = rng.uniform(-0.3, 0.3, size=2)
            b = (np.eye(2) - a) @ fix
            a, b = a.tolist(), b.tolist()
            text = (f"{a[0][0]!r}*x1 + {a[0][1]!r}*x2 + {b[0]!r} "
                    f"+ 0.05*sin(3*x2), "
                    f"{a[1][0]!r}*x1 + {a[1][1]!r}*x2 + {b[1]!r}")
            f = as_evaluator(parse_map(text, 2))
            result = brouwer_fixed_point(f, n=2)
            assert result.termination in ("residual", "cell_diameter")
            self.assert_matches_reference(lambda pts: pts - f(pts), UNIT_BOX,
                                          5e-7, 1e-12, result)

    def test_one_evaluation_per_level(self, counting_evaluator):
        # an affine map needs no refinement: the top box, one batch per
        # level and the last centre, whose image is the residual
        ev = counting_evaluator(parse_map("x1 - 0.3, x2 - 0.4", 2))
        result = locate_zero(ev, UNIT_BOX, eps_x=1e-6)
        assert result.termination == "cell_diameter"
        assert len(ev.batches) == result.iterations + 2
        assert ev.batches[0] == 64
        # the cut point and the 64 boundary samples of each sub-box
        assert ev.batches[1:-1] == [1 + 4 * 64] * result.iterations
        assert ev.batches[-1] == 1


def outcome_bytes(result):
    return (b"".join(lo.tobytes() + hi.tobytes() for lo, hi in result.trail),
            result.point.tobytes(), np.float64(result.residual).tobytes(),
            result.iterations, result.termination)


def reference_stencil(x, lo, hi):
    """The numpy stencil that the Python-float Newton tail reproduces, as
    x86-64 numpy computes it: there a tie between zeros of either sign
    gives the bound, which the last line states for every machine."""
    stencil = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0],
                        [0.0, -1.0]])
    v = x + stencil * (locator.NEWTON_H * (hi - lo))
    clipped = np.minimum(np.maximum(v, lo), hi)
    return np.where(v == lo, lo, np.where(v == hi, hi, clipped))


def reference_first_batch(x, lo, hi):
    """In place of locator._stencil, called only for the tail's first
    batch: reference_stencil at the centre of the top box [lo, hi], as the
    locator built that batch on numpy arrays."""
    lo, hi = np.array(lo), np.array(hi)
    return reference_stencil(0.5 * (lo + hi), lo, hi), None


def reference_newton_tail(ev, lo, hi, eps_x, max_iter, first):
    """The Newton tail on numpy arrays, as the locator ran it before it ran
    on Python floats, with the same early stop when the next step is
    predicted below rounding: the behaviour its float tail must
    reproduce."""
    x = 0.5 * (lo + hi)
    images = first
    last = math.inf
    for it in range(1, max_iter + 1):
        pts = reference_stencil(x, lo, hi)
        if it > 1:
            images = ev(pts)
        (f, g), (f1, g1), (f2, g2), (f3, g3), (f4, g4) = images.tolist()
        c1x, c1y, c2x, c2y = f1 - f2, g1 - g2, f3 - f4, g3 - g4
        det = c1x * c2y - c2x * c1y
        if det == 0.0 or not math.isfinite(det):
            return None
        dx = (pts[1, 0] - pts[2, 0]) * (c2x * g - c2y * f) / det
        dy = (pts[3, 1] - pts[4, 1]) * (c1y * f - c1x * g) / det
        x = x + (dx, dy)
        if not np.all((lo <= x) & (x <= hi)):
            return None
        size = math.hypot(dx, dy)
        if size <= locator.NEWTON_STOP * eps_x:
            return locator._accept(ev, lo, hi, x, eps_x, it)
        if it > 2 and locator.NEWTON_SHRINK * size > last:
            return None
        # the next step the quadratic model predicts is below rounding
        ratio = size / last
        if it > 1 and size * ratio * ratio <= math.ulp(
                float(np.max(np.abs(x)))):
            result = locator._accept(ev, lo, hi, x, eps_x, it)
            if result is not None:
                return result
        last = size
    return None


class TestNewtonTailMatchesOracle:
    """The oracle is ``reference_newton_tail``, the tail on numpy arrays,
    whose first batch is ``reference_stencil``'s.  Each case runs
    locate_zero once with the locator's tail and once with the oracle in
    its place, and compares the outcome's bytes (or the error) and the
    bytes of every batch the map was called with."""

    @staticmethod
    def run(map_like, box, eps_x, oracle):
        batches = []
        ev = as_evaluator(map_like)

        def recording(pts):
            batches.append(pts.copy())
            return ev(pts)

        with pytest.MonkeyPatch.context() as patch:
            if oracle:
                patch.setattr(locator, "_newton_tail", reference_newton_tail)
                patch.setattr(locator, "_stencil", reference_first_batch)
            try:
                result = locate_zero(recording, box, eps_x=eps_x)
            except ZeroCertError as err:
                return (type(err), str(err)), batches, None
        return ((outcome_bytes(result), result.cell_diameter), batches,
                result.termination)

    def assert_matches(self, map_like, box, eps_x):
        """Assert that both tails give the same bytes; return the
        termination, or None for an error."""
        got, got_batches, termination = self.run(map_like, box, eps_x,
                                                 False)
        want, want_batches, _ = self.run(map_like, box, eps_x, True)
        assert got == want
        assert [b.tobytes() for b in got_batches] == \
            [b.tobytes() for b in want_batches]
        return termination

    @staticmethod
    def random_box(rng, zero, lo_zero=False):
        width = rng.uniform(0.05, 3.0, 2) * 10.0 ** rng.integers(-3, 3)
        lower = zero - rng.uniform(0.02, 0.98, 2) * width
        if lo_zero:
            # one corner coordinate exactly 0.0 or -0.0, the zero inside
            axis = int(rng.integers(2))
            zero[axis] = abs(zero[axis])
            lower[axis] = rng.choice([0.0, -0.0])
        return Region.box(lower, lower + width)

    def test_random_maps(self):
        rng = np.random.default_rng(61)
        terminations = []
        for case in range(150):
            kind = case % 3
            zero = rng.uniform(-2.0, 2.0, 2)
            box = self.random_box(rng, zero, lo_zero=case % 5 == 0)
            eps_x = 10.0 ** rng.uniform(-12, -5)
            if kind == 0:
                # affine, with a random matrix
                (a, b), (c, d) = rng.normal(size=(2, 2)).tolist()
                z1, z2 = zero.tolist()
                text = (f"{a!r}*(x1 - {z1!r}) + {b!r}*(x2 - {z2!r}), "
                        f"{c!r}*(x1 - {z1!r}) + {d!r}*(x2 - {z2!r})")
                map_like = parse_map(text, 2)
            else:
                # a complex quadratic or quartic with a root at ``zero``
                degree = 2 if kind == 1 else 4
                roots = np.concatenate((
                    [complex(*zero)],
                    rng.uniform(-3, 3, degree - 1)
                    + 1j * rng.uniform(-3, 3, degree - 1)))
                map_like = complex_poly_map(np.poly(roots))
            terminations.append(self.assert_matches(map_like, box, eps_x))
        # most cases are answered by the tail; the others give it up, for
        # the quadtree or for DegreeLost
        assert terminations.count("newton") >= 80

    def test_zero_on_an_edge(self):
        # the zero lies within the stencil width of the right edge, so the
        # +h point of x1 is clipped to the box
        spec = parse_map("x1 - 1, x2 - 0.4", 2)
        for upper in (1.0 + 1e-9, 1.0 + 2.0 ** -25, 1.0 + 2.0 ** -52):
            box = Region.box([-1.0, -1.0], [upper, 1.0])
            self.assert_matches(spec, box, 1e-8)
        # and the lower edge, at a corner that is 0.0 or -0.0: the zero is
        # nearer to it than the stencil width 2^-20
        spec = parse_map("x1 - 5e-7, x2^3 - 0.1", 2)
        for lower in (0.0, -0.0):
            box = Region.box([lower, 0.0], [1.0, 1.0])
            assert self.assert_matches(spec, box, 1e-10) == "newton"

    def test_stencil_width_underflows_to_zero(self):
        # NEWTON_H * (hi - lo) is 0.0 on this box: the stencil collapses
        # onto the iterate, the Jacobian is singular and the tail gives up
        center = 5e-321
        scale = 2.0 ** 600

        def subnormal_map(pts):
            return (pts - center) * scale * scale

        box = Region.box([0.0, 0.0], [1e-320, 1e-320])
        assert locator.NEWTON_H * 1e-320 == 0.0
        self.assert_matches(subnormal_map, box, 1e-321)


def accept_on_64_samples(ev, lo, hi, point, eps_x, steps):
    """_accept as it wound its square before the 4-per-edge sampling: the
    square's SAMPLES_PER_EDGE = 16 samples per edge, 64 in all, and the
    point in one batch."""
    sub_lo = np.maximum(lo, point - locator.ACCEPT_HALF * eps_x)
    sub_hi = np.minimum(hi, point + locator.ACCEPT_HALF * eps_x)
    diameter = float(np.linalg.norm(sub_hi - sub_lo))
    if not (np.all(sub_lo < sub_hi) and diameter <= eps_x):
        return None
    pts = box_points_reference(sub_lo, sub_hi)
    ims = ev(np.concatenate((pts, point[None, :])))
    if locator._wind(ev, pts, ims[:-1]) == 0:
        return None
    return locator._finish(ev, point, diameter, steps, [(sub_lo, sub_hi)],
                           "newton", ims[-1])


class TestAcceptSquareMatchesOracle:
    """The oracle is ``accept_on_64_samples``.  Near an answer F is affine
    to rounding, so the square's corners and quarter points wind as its 64
    samples do: every outcome is the same bytes, with fewer points."""

    @staticmethod
    def run(spec, box, eps_x, oracle):
        ev = CountingEvaluator(spec)
        with pytest.MonkeyPatch.context() as patch:
            if oracle:
                patch.setattr(locator, "_accept", accept_on_64_samples)
            try:
                result = locate_zero(ev, box, eps_x=eps_x)
            except ZeroCertError as err:
                return (type(err), str(err)), sum(ev.batches)
        return ((*outcome_bytes(result), result.cell_diameter),
                sum(ev.batches))

    def test_random_near_affine_maps(self):
        rng = np.random.default_rng(83)
        newton = saved = 0
        for _ in range(120):
            a, b = rng.uniform(0.0, 2.0 * math.pi, 2)
            rot_a = np.array([[math.cos(a), -math.sin(a)],
                              [math.sin(a), math.cos(a)]])
            rot_b = np.array([[math.cos(b), -math.sin(b)],
                              [math.sin(b), math.cos(b)]])
            cond = 10.0 ** rng.uniform(0.0, 3.0)
            m = rot_a @ np.diag([1.0, 1.0 / cond]) @ rot_b
            (m11, m12), (m21, m22) = m.tolist()
            z1, z2 = rng.uniform(-0.8, 0.8, 2).tolist()
            q1, q2 = (rng.normal(size=2) * 10.0 ** rng.uniform(-4, -1)
                      ).tolist()
            spec = parse_map(
                f"{m11!r}*(x1 - {z1!r}) + {m12!r}*(x2 - {z2!r}) + "
                f"{q1!r}*(x1 - {z1!r})^2, "
                f"{m21!r}*(x1 - {z1!r}) + {m22!r}*(x2 - {z2!r}) + "
                f"{q2!r}*(x2 - {z2!r})^2", 2)
            eps_x = 10.0 ** rng.uniform(-12.0, -2.0)
            got, got_points = self.run(spec, UNIT_BOX, eps_x, False)
            want, want_points = self.run(spec, UNIT_BOX, eps_x, True)
            assert got == want
            newton += "newton" in got
            saved += want_points - got_points
        # 48 points fewer per square, less the refinements the 16 samples
        # take beyond the 64's
        assert newton >= 100
        assert saved > 40 * newton

    def test_thin_square(self, counting_evaluator):
        # the image of the accept square is a thin parallelogram: its 16
        # samples need seven refinement rounds of 2 points (its 64 needed
        # five), and the answer is the same
        spec = parse_map("x1 - 0.3 + 10*(x2 - 0.4), "
                         "x1 - 0.3 + 10.5*(x2 - 0.4)", 2)
        ev = counting_evaluator(spec)
        result = locate_zero(ev, UNIT_BOX, eps_x=1e-10)
        assert (result.termination, result.iterations) == ("newton", 2)
        assert result.point.tolist() == [0.3, 0.4]
        assert ev.batches == [5, 5, 17] + [2] * 7
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(locator, "_accept", accept_on_64_samples)
            ev = counting_evaluator(spec)
            want = locate_zero(ev, UNIT_BOX, eps_x=1e-10)
        assert ev.batches == [5, 5, 65] + [2] * 5
        assert outcome_bytes(result) == outcome_bytes(want)
        assert result.cell_diameter == want.cell_diameter


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
        # endpoints with the first midpoint, one point per later iteration,
        # and the midpoint of the last cell, which no iteration evaluated
        assert ev.batches == [3] + [1] * (result.iterations - 1) + [1]

    def test_stops_at_float_resolution(self, counting_evaluator):
        # with eps_x = 0 the bracket reaches two adjacent floats; their
        # midpoint rounds to one of them and is not evaluated again
        ev = counting_evaluator(parse_map("x1^3 - 0.1", 1))
        result = locate_zero(ev, Region.box([-1.0], [1.0]), eps_x=0.0,
                             eps_f=0.0)
        assert result.termination == "cell_diameter"
        assert result.iterations < 100
        a, b = result.trail[-1]
        assert b == np.nextafter(a, 1.0)
        assert result.cell_diameter == b - a
        assert result.point[0] in (a, b)
        root = 0.1 ** (1.0 / 3.0)
        assert abs(result.point[0] - root) <= np.spacing(root)
        assert result.residual == abs(result.point[0] ** 3 - 0.1)
        assert ev.batches == [3] + [1] * (result.iterations - 1)

    def test_vector_codomain_rejected(self):
        # F = (x1 - 0.3, x1) has no zero; column 0 alone would give 0.3
        spec = parse_map("x1 - 0.3, x1", 1)
        with pytest.raises(InvalidInput, match="codomain dimension 1"):
            locate_zero(spec, Region.box([-1.0], [1.0]))

    def test_residual_stop_reuses_last_midpoint(self, counting_evaluator):
        # points 0, 0.5, 0.35, 0.3667..., 0.36602452..., 0.36602540...: the
        # sixth is within eps_f of the zero (sqrt(3) - 1) / 2, and its image
        # is the residual
        ev = counting_evaluator(parse_map("x1 + x1^2 - 0.5", 1))
        result = locate_zero(ev, Region.box([-1.0], [1.0]), eps_f=1e-6)
        assert result.termination == "residual"
        assert result.iterations == 6
        p = result.point[0]
        assert result.residual == abs(p + p * p - 0.5) <= 1e-6
        assert p == result.trail[-1][1]
        assert ev.batches == [3] + [1] * 5

    def test_linear_map_in_two_iterations(self, counting_evaluator):
        # the midpoint, then inverse quadratic interpolation through data
        # of a line, which lands on its zero
        ev = counting_evaluator(parse_map("x1 - 0.5", 1))
        result = locate_zero(ev, Region.box([-1.0], [1.0]), eps_f=1e-6)
        assert result.trail == [(0.0, 1.0), (0.5, 1.0)]
        assert result.point.tolist() == [0.5]
        assert result.residual == 0.0
        assert result.termination == "residual"
        assert ev.batches == [3, 1]

    def test_fewer_steps_than_bisection(self, counting_evaluator):
        # bisection halves [-1, 1] 31 times to reach eps_x = 1e-9
        ev = counting_evaluator(parse_map("x1^3 - 0.5", 1))
        result = locate_zero(ev, Region.box([-1.0], [1.0]), eps_x=1e-9,
                             eps_f=0.0)
        assert result.iterations <= 12
        assert abs(result.point[0] - 0.5 ** (1.0 / 3.0)) <= 1e-9

    @pytest.mark.parametrize("eps_x", [1e-6, 1e-12])
    def test_itp_worst_case(self, eps_x, counting_evaluator):
        # a steep convex map: regula falsi would creep in from the left end;
        # the band allows at most bisection's count plus n0 steps, the first
        # rides with the endpoints and the final midpoint is one more call
        a, b = -0.7, 1.0
        ev = counting_evaluator(parse_map("exp(20*x1) - 1", 1))
        result = locate_zero(ev, Region.box([a], [b]), eps_x=eps_x,
                             eps_f=0.0)
        assert result.termination in ("cell_diameter", "residual")
        if result.termination == "residual":
            # a step may land on the exact zero
            assert result.residual == 0.0
        assert result.cell_diameter <= eps_x
        assert abs(result.point[0]) <= eps_x
        bisections = math.ceil(math.log2((b - a) / eps_x))
        assert result.iterations <= bisections + locator.ITP_N0
        assert len(ev.batches) <= bisections + 3

    @pytest.mark.parametrize("text, eps_x", [
        # one-sided maps whose bracket rides the band's edge: without room
        # for the rounding of the midpoint and of the projected point, the
        # bracket is a float spacing wider than eps_x at step n_max
        ("(x1 - 0.3)*sqrt(abs(x1 - 0.3))", 1e-12),
        ("(x1 - 0.3)^3", 1e-6),
    ])
    def test_band_leaves_room_for_rounding(self, text, eps_x):
        box = Region.box([-1.0], [1.0])
        result = locate_zero(parse_map(text, 1), box, eps_x=eps_x,
                             eps_f=0.0)
        assert result.iterations <= locator._itp_budget(2.0, eps_x)
        assert result.cell_diameter <= eps_x
        assert abs(result.point[0] - 0.3) <= eps_x

    @pytest.mark.parametrize("text, root, calls", [
        ("x1^9 - 0.001", 0.1 ** (1.0 / 3.0), 12),
        ("exp(20*x1) - 1.5", math.log(1.5) / 20.0, 13),
    ])
    def test_hard_maps_in_few_calls(self, text, root, calls,
                                    counting_evaluator):
        # regula falsi converges from one side on these, so with its point
        # the bracket follows the band's bisection schedule: 44 and 45 calls
        ev = counting_evaluator(parse_map(text, 1))
        box = Region.box([-0.7], [1.0])
        result = locate_zero(ev, box, eps_x=1e-12, eps_f=0.0)
        assert abs(result.point[0] - root) <= 1e-12
        assert len(ev.batches) <= calls

    def test_domain_error_at_the_first_midpoint(self, counting_evaluator):
        # x1 / (x1 - 0.5) is not finite at the midpoint 0.5: the endpoints
        # are evaluated alone, and the zero at 0 ends the search
        ev = counting_evaluator(parse_map("x1/(x1 - 0.5)", 1))
        result = locate_zero(ev, Region.box([0.0], [1.0]))
        assert result.point.tolist() == [0.0]
        assert result.residual == 0.0
        assert result.termination == "residual"
        assert result.iterations == 0
        assert ev.batches == [3, 2]

    def test_domain_error_at_the_midpoint_still_raises(self,
                                                       counting_evaluator):
        # 1/x1 changes sign on [-1, 1] without a zero: after the endpoints
        # alone, the midpoint's own evaluation raises
        ev = counting_evaluator(parse_map("1/x1", 1))
        with pytest.raises(DomainError):
            locate_zero(ev, Region.box([-1.0], [1.0]))
        assert ev.batches == [3, 2, 1]

    @pytest.mark.parametrize("text, point", [("x1", 0.0), ("x1 - 1", 1.0)])
    def test_zero_at_an_endpoint(self, text, point):
        result = locate_zero(parse_map(text, 1), Region.box([0.0], [1.0]))
        assert result.point.tolist() == [point]
        assert result.residual == 0.0
        assert result.iterations == 0
        assert result.termination == "residual"

    def test_iteration_limit_keeps_the_best_cell(self):
        spec = parse_map("x1^3 - 0.2", 1)
        with pytest.raises(BudgetExhausted) as err:
            locate_zero(spec, Region.box([0.0], [1.0]), eps_x=1e-12,
                        eps_f=0.0, max_iter=3)
        best = err.value.best
        assert best.termination == "budget"
        assert best.iterations == 3 == len(best.trail)
        a, b = best.trail[-1]
        assert a < 0.2 ** (1.0 / 3.0) < b

    @staticmethod
    def outcome(result):
        return (result.point.tobytes(), result.residual, result.cell_diameter,
                result.iterations, result.trail, result.termination)

    def test_infinite_eps_x_ends_at_the_first_cell(self, counting_evaluator):
        # width / eps_x is 0, with no log2: the answer of eps_x = 1e300
        ev = counting_evaluator(parse_map("x1 - 0.3", 1))
        result = locate_zero(ev, Region.box([0.0], [1.0]), eps_x=math.inf)
        assert result.point.tolist() == [0.25]
        assert (result.termination, result.iterations) == ("cell_diameter", 1)
        assert ev.batches == [3, 1]
        huge = locate_zero(parse_map("x1 - 0.3", 1), Region.box([0.0], [1.0]),
                           eps_x=1e300)
        assert self.outcome(result) == self.outcome(huge)

    def test_subnormal_width_against_a_finite_eps_x(self):
        # 1e-320 / 1e10 rounds to 0 as well; the first midpoint is the zero
        result = locate_zero(parse_map("x1 - 5e-321", 1),
                             Region.box([0.0], [1e-320]), eps_x=1e10)
        assert result.point.tolist() == [5e-321]
        assert (result.residual, result.iterations) == (0.0, 1)
        assert result.termination == "residual"


class TestChandrupatlaPoint:
    # the bracket [0.5, 1] after a step that moved its lower end from 0, so
    # x1 = 0.5, x2 = 1, x3 = 0 and xi = 0.5; its midpoint is 0.75
    @staticmethod
    def point(f1, f2, f3, r=1.0):
        return locator._chandrupatla_point(0.5, f1, 1.0, f2, 0.0, f3, 0.75,
                                           r)

    def test_interpolates_a_line(self):
        # F = x - 0.6: phi = 0.5 passes the test
        assert self.point(-0.1, 0.4, -0.6) == pytest.approx(0.6, abs=1e-15)

    def test_inverse_quadratic_through_three_points(self):
        # x = g(y) = 0.6 + y - y^2 / 4 through the three images
        g = lambda y: 0.6 + y - 0.25 * y * y
        ys = (-0.1, 0.4, -0.6)
        x = locator._chandrupatla_point(g(ys[0]), ys[0], g(ys[1]), ys[1],
                                        g(ys[2]), ys[2], 0.75, 1.0)
        assert x == pytest.approx(0.6, abs=1e-15)

    @pytest.mark.parametrize("f1, f3", [
        (-0.9, -1.0),       # phi = 0.95 >= sqrt(xi)
        (-0.05, -3.0),      # phi = 0.2625 <= 1 - sqrt(1 - xi)
    ])
    def test_midpoint_where_the_test_fails(self, f1, f3):
        assert self.point(f1, 1.0, f3) == 0.75

    def test_band_around_the_midpoint(self):
        assert self.point(-0.1, 0.4, -0.6, r=0.01) == 0.75 - 0.01
        assert self.point(-0.1, 0.4, -0.6, r=0.0) == 0.75

    def test_overflowing_differences_give_the_midpoint(self):
        # f1 - f2 and f3 - f2 overflow, so phi is nan and the test fails
        assert self.point(1e308, -1e308, 1.5e308) == 0.75


class TestToleranceValidation:
    @pytest.mark.parametrize("box", [Region.box([-1.0], [1.0]), UNIT_BOX])
    @pytest.mark.parametrize("kwargs", [
        {"eps_x": math.nan}, {"eps_x": -1.0}, {"eps_f": math.nan},
        {"eps_f": -1e-9}, {"eps_f": math.nan, "eps_x": 0.0},
        {"max_iter": 0}, {"max_iter": -3}])
    def test_locate_rejects(self, box, kwargs, counting_evaluator):
        ev = counting_evaluator(lambda pts: np.asarray(pts, float) - 0.25)
        with pytest.raises(InvalidInput):
            locate_zero(ev, box, **kwargs)
        assert ev.batches == []

    def test_zero_tolerances_and_one_iteration_accepted(self):
        box = Region.box([-1.0], [1.0])
        result = locate_zero(parse_map("x1 - 0.5", 1), box, eps_x=0.0,
                             eps_f=0.0, max_iter=2)
        assert result.point[0] == 0.5
        result = locate_zero(parse_map("x1 - 0.5", 1), box, eps_x=2.0,
                             max_iter=1)
        assert result.termination == "cell_diameter"

    @pytest.mark.parametrize("eps", [math.nan, -1e-6])
    def test_fixed_point_rejects(self, eps, counting_evaluator):
        f = counting_evaluator(parse_map("x1/2, x2/2", 2))
        with pytest.raises(InvalidInput, match="eps must be >= 0"):
            brouwer_fixed_point(f, eps=eps, n=2)
        assert f.batches == []


class TestBrouwerFixedPoint:
    @pytest.mark.parametrize("map_like", [
        parse_map("x1/2, x2/2, 0", 2),
        lambda pts: 0.5 * pts[:, :1],      # would broadcast against x
    ])
    def test_codomain_must_equal_domain(self, map_like):
        with pytest.raises(InvalidInput, match="m = n"):
            brouwer_fixed_point(map_like, n=2)

    def test_no_sign_change_is_not_certified(self):
        # f maps [-1, 1] into the disk within its 1e-9 tolerance, but
        # x - f(x) = -5e-10 keeps one sign on the boundary
        with pytest.raises(ZeroCertError, match=r"^could not certify a fixed "
                                                r"point \(verdict NoConclusion\)$"):
            brouwer_fixed_point(parse_map("x1 + 5e-10", 1))

    def test_constant_map(self):
        spec = parse_map("0.3, -0.2", 2)
        result = brouwer_fixed_point(spec)
        assert np.linalg.norm(result.point - [0.3, -0.2]) <= 1e-6

    def test_averaging_contraction(self):
        spec = parse_map("(x1 + 0.2)/2, (x2 - 0.1)/2", 2)
        result = brouwer_fixed_point(spec)
        assert np.linalg.norm(result.point - [0.2, -0.1]) <= 1e-6
        assert result.residual <= 1e-6
        assert result.termination == "newton"

    def test_quarter_rotation(self):
        spec = parse_map("-x2, x1", 2)
        result = brouwer_fixed_point(spec)
        assert np.linalg.norm(result.point) <= 1e-6

    def test_infinite_eps(self, counting_evaluator):
        # the 1D locator ends at its first cell, as with eps = 1e300
        f = counting_evaluator(parse_map("(x1 + 0.2)/2", 1))
        result = brouwer_fixed_point(f, eps=math.inf, n=1)
        assert result.point.tolist() == [0.5]
        assert (result.termination, result.iterations) == ("cell_diameter", 1)
        assert f.batches == [2 + 1, 1]
        huge = brouwer_fixed_point(parse_map("(x1 + 0.2)/2", 1), eps=1e300)
        assert (result.point.tobytes(), result.residual) == (
            huge.point.tobytes(), huge.residual)

    def test_numpy_integer_n(self):
        result = brouwer_fixed_point(lambda pts: pts / 2, n=np.int64(2))
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

    def test_one_dimensional_first_batch_rides_with_the_boundary(
            self, counting_evaluator):
        # the two boundary points, which are the ends -1 and 1 of the
        # locator's first batch of G, and its midpoint 0 in one call; then
        # interpolation through G's line lands on the fixed point 0.2
        f = counting_evaluator(parse_map("(x1 + 0.2)/2", 1))
        result = brouwer_fixed_point(f, n=1)
        assert f.batches == [2 + 1, 1]
        assert result.point.tolist() == [0.2]
        assert result.residual == 0.0
        assert result.termination == "residual"

    def test_one_dimensional_midpoint_raises(self, counting_evaluator):
        # f is 0/0 at the midpoint 0 only: the ends are evaluated again
        # alone, once, and the locator's first step evaluates the midpoint,
        # which raises
        f = counting_evaluator(parse_map("(x1 + 0.2)/2 + 0/x1", 1))
        with pytest.raises(DomainError, match="non-finite") as raised:
            brouwer_fixed_point(f, n=1)
        assert f.batches == [2 + 1, 2, 1]
        assert raised.value.point.tobytes() == np.array([0.0]).tobytes()

    def test_boundary_evaluated_once(self, counting_evaluator):
        # the boundary circle and the locator's first batch (the first
        # Newton stencil) in one batch, and the circle not again
        f = counting_evaluator(parse_map("(x1 + 0.2)/2, (x2 - 0.1)/2", 2))
        result = brouwer_fixed_point(f, n=2)
        assert np.linalg.norm(result.point - [0.2, -0.1]) <= 1e-6
        boundary = len(sample_sphere(Region.disk([0.0, 0.0], 1.0), 6))
        assert f.batches[0] == boundary + 5
        assert boundary not in f.batches[1:]

    def test_first_locator_batch_rides_with_the_boundary(
            self, counting_evaluator):
        # circle and the locator's first batch of G in one call, then the
        # second Newton stencil and the accepted square with its point
        f = counting_evaluator(parse_map("(x1 + 0.2)/2, (x2 - 0.1)/2", 2))
        result = brouwer_fixed_point(f, n=2)
        assert result.termination == "newton"
        assert f.batches == [256 + 5, 5, 17]

    def test_each_batch_checked_once(self, monkeypatch):
        # G = x - f(x) is finite wherever f is on [-1, 1]^n, so only f's
        # own evaluation checks a batch of G
        calls = {"evaluate": 0, "_check_finite": 0}
        for name in calls:
            def counted(*args, name=name, original=getattr(mapspec, name)):
                calls[name] += 1
                return original(*args)
            monkeypatch.setattr(mapspec, name, counted)
        result = brouwer_fixed_point(parse_map("(x1 + 0.2)/2, (x2 - 0.1)/2",
                                               2))
        assert result.termination == "newton"
        assert calls["evaluate"] > 1
        assert calls["_check_finite"] == calls["evaluate"]

    def test_callable_that_writes_into_its_input(self):
        def plain(x):
            return np.stack([(x[:, 0] + 0.2) / 2, (x[:, 1] - 0.1) / 2], axis=1)

        def zeroing(x):
            out = plain(x)
            x[...] = 0.0
            return out

        want = outcome_bytes(brouwer_fixed_point(plain, n=2))
        assert want[-1] == "newton"
        for _ in range(2):
            assert outcome_bytes(brouwer_fixed_point(zeroing, n=2)) == want

    def test_domain_error_path_with_a_writing_callable(self):
        # F is not finite at the second boundary sample only; the circle
        # without the locator's first batch is evaluated again, from a copy
        # the map may write into
        circle = sample_sphere(Region.disk([0.0, 0.0], 1.0), 6).points
        batches = []

        def zeroing(x):
            batches.append(len(x))
            out = x / 2
            out[x[:, 1] == circle[1, 1]] = math.nan
            x[...] = 0.0
            return out

        with pytest.raises(DomainError) as raised:
            brouwer_fixed_point(zeroing, n=2)
        assert batches == [256 + 5, 256]
        assert raised.value.point.tobytes() == circle[1].tobytes()

    @pytest.mark.parametrize("first", [
        "x1/2",
        # leaves the disk everywhere: the evaluation's error comes before
        # the self-map check
        "2*x1",
    ], ids=["self_map", "leaves_the_disk"])
    def test_not_finite_at_one_boundary_sample(self, first,
                                               counting_evaluator):
        # 0/0 only where x2 is the second boundary sample's
        circle = sample_sphere(Region.disk([0.0, 0.0], 1.0), 6).points
        spec = parse_map(f"{first} + 0/(x2 - {float(circle[1, 1])!r}), "
                         f"{first.replace('x1', 'x2')}", 2)
        f = counting_evaluator(spec)
        with pytest.raises(DomainError, match="non-finite") as raised:
            brouwer_fixed_point(f, n=2)
        # the circle raises with or without the locator's first batch
        assert f.batches == [256 + 5, 256]
        assert raised.value.point.tobytes() == circle[1].tobytes()

    def test_leaves_the_disk_on_the_circle(self):
        # ||f|| is 1.05 at (1, 0), a boundary sample
        spec = parse_map("x1 + 0.05*x1^8, x2", 2)
        with pytest.raises(InvalidInput, match=r"leaves the unit disk "
                           r"\(\|\|f\|\| up to 1\.050000\)"):
            brouwer_fixed_point(spec)

    def test_leaves_the_disk_inside_only(self):
        # f is (0.3, 0) on the circle and ||f|| about 1.07 at (1/sqrt(3), 0):
        # the boundary alone proves the fixed point (Rothe's theorem), on the
        # x1 axis at the real root of 2x^3 - x - 0.3
        spec = parse_map("0.3 + 2*x1*(1 - x1^2 - x2^2), "
                         "2*x2*(1 - x1^2 - x2^2)", 2)
        inside = evaluate(spec, np.array([[1.0 / math.sqrt(3.0), 0.0]]))
        assert np.linalg.norm(inside) > 1.06
        result = brouwer_fixed_point(spec)
        assert math.dist(result.point, (0.8256377746, 0.0)) <= 1e-6
        assert result.residual <= 1e-6

    def test_one_dimensional_leaves_the_interval_inside_only(self):
        # f(-1) = f(1) = 0.5 and f(1/sqrt(3)) is about 1.65; f has three
        # fixed points, any of them will do
        spec = parse_map("0.5 + 3*x1*(1 - x1^2)", 1)
        assert evaluate(spec, np.array([[1.0 / math.sqrt(3.0)]]))[0, 0] > 1.6
        result = brouwer_fixed_point(spec)
        (p,) = result.point.tolist()
        assert -1.0 <= p <= 1.0
        assert abs(evaluate(spec, result.point[None])[0, 0] - p) <= 1e-6

    @pytest.mark.parametrize("n", [1, 2])
    def test_locates_the_zero_of_x_minus_f(self, n):
        # the fixed point is locate_zero's answer for G(x) = x - f(x) on
        # [-1, 1]^n, bit for bit, with the locator's parameters
        rng = np.random.default_rng(41 + n)
        eps = 1e-6
        box = Region.box(-np.ones(n), np.ones(n))
        for _ in range(20):
            a = rng.uniform(-1.0, 1.0, size=(n, n))
            a *= rng.uniform(0.1, 0.6) / np.linalg.norm(a, 2)
            b = rng.uniform(-1.0, 1.0, size=n)
            b *= rng.uniform(0.0, 0.35) / np.linalg.norm(b)
            spec = parse_map(", ".join(
                " + ".join([repr(float(b[i]))] +
                           [f"{float(a[i, j])!r}*x{j + 1}" for j in range(n)])
                for i in range(n)), n)
            got = brouwer_fixed_point(spec, eps=eps)
            want = locate_zero(lambda p: p - evaluate(spec, p), box,
                               0.5 * eps, 1e-12, 200)
            assert (got.point.tobytes(), got.residual, got.cell_diameter,
                    got.iterations, got.termination) == (
                want.point.tobytes(), want.residual, want.cell_diameter,
                want.iterations, want.termination)
            assert np.asarray(got.trail).tobytes() == \
                np.asarray(want.trail).tobytes()

    def test_self_map_checked_at_every_boundary_sample(self):
        # f leaves the disk only near the boundary sample at 4.21875
        # degrees: a ring of 40 points 9 degrees apart would not see it,
        # the 256 samples do
        circle = sample_sphere(Region.disk([0.0, 0.0], 1.0), 6).points
        p = circle[3]

        def f(x):
            bump = np.maximum(0.0, 1.0 - np.linalg.norm(x - p, axis=1) / 0.02)
            return x * (0.5 + 0.6 * bump)[:, None]

        angles = np.linspace(0.0, 2.0 * math.pi, 40, endpoint=False)
        ring = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        assert np.max(np.linalg.norm(f(ring), axis=1)) <= 0.5
        with pytest.raises(InvalidInput, match=r"leaves the unit disk "
                           r"\(\|\|f\|\| up to 1\.100000\)"):
            brouwer_fixed_point(f, n=2)

    def test_boundary_fixed_point(self, counting_evaluator):
        # f fixes (1, 0), a sample of the boundary circle
        f = counting_evaluator(parse_map("x1/2 + 0.5, x2/2", 2))
        result = brouwer_fixed_point(f, n=2)
        assert result.termination == "boundary_fixed_point"
        assert np.array_equal(result.point, [1.0, 0.0])
        assert result.residual == 0.0
        boundary = len(sample_sphere(Region.disk([0.0, 0.0], 1.0), 6))
        # the boundary with the locator's first batch; the residual reads f
        # at the fixed point from that batch
        assert f.batches == [boundary + 5]


class TestResidual:
    """``_finish``'s residual is the image's norm: below 2^500 that of
    ``np.linalg.norm``, bit for bit, and scaled by the largest entry above,
    where the norm's squares would overflow."""

    @staticmethod
    def residual(image):
        ev = as_evaluator(lambda pts: np.array([image]))
        return locator._finish(ev, np.zeros(2), 0.0, 0, [], "residual").residual

    def test_norm_bits_below_the_scale(self):
        rng = np.random.default_rng(3)
        for image in rng.normal(size=(200, 2)) * 10.0 ** rng.uniform(
                -150, 150, (200, 1)):
            assert self.residual(image) == float(np.linalg.norm(image))

    @pytest.mark.parametrize("image, want", [
        ([3e200, -4e200], 5e200), ([1e308, 1e308], 1e308 * math.sqrt(2)),
        ([0.0, -2.0 ** 500], 2.0 ** 500)])
    def test_no_overflow_above_it(self, image, want):
        assert self.residual(image) == pytest.approx(want, rel=1e-15)
