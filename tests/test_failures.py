"""Every bad argument and every failing input maps to its typed error, and
the CLI to its documented exit code."""
import math
import re
import warnings

import numpy as np
import pytest

from zerocert import (BoundarySampling, InvalidInput, NotANullHomotopy,
                      Region, SampledMap, Unsupported, VanishingOnBoundary,
                      boundary_nonvanishing, box_winding, brouwer_fixed_point,
                      builtin_map, certify_existence, lipschitz_estimate,
                      locate_zero, null_homotopy, parse_map, poincare_bohl,
                      radial_extension, sample_sphere, sign_obstruction,
                      straight_line, winding_number)
from zerocert import mapspec
from zerocert.cli import main

PLANE = parse_map("x1, x2", 2)
DISK2 = Region.disk([0.0, 0.0], 1.0)
DISK3 = Region.disk([0.0, 0.0, 0.0], 1.0)
BOX2 = Region.box([-1.0, -1.0], [1.0, 1.0])


def _circle(images, level=0):
    """A SampledMap on the unit circle with the given image function."""
    sampling = sample_sphere(DISK2, level)
    return SampledMap(sampling=sampling, images=images(sampling.points),
                      evaluator=images)


def _planar(radius=1.0):
    return SampledMap.from_evaluator(
        PLANE, sample_sphere(Region.disk([0.0, 0.0], radius), 0))


def _witness():
    """The extension witness of a winding-0 certificate off the origin."""
    cert = certify_existence(parse_map("x1 + 3, x2 + 3", 2),
                             Region.disk([0.5, -1.0], 2.0))
    return cert.extension_witness


def _phi():
    """The radial extension of a winding-0 unit-circle map."""
    return radial_extension(null_homotopy(_circle(lambda p: p + 3.0, 4)))


BAD_POINTS = {"scalar": 0.5, "one-entry": [0.9], "three-entries":
              [0.9, 0.1, 5.0], "row": [[0.9, 0.1]], "nan": [math.nan, 0.1],
              "inf": [math.inf, 0.0], "text": ["a", "b"]}


# finite points whose (x - x0) / r, or its squared norm, overflows on the
# radius-0.5 disk: each must give the witness of its direction u, at x0 + 2ru
FAR_POINTS = {"1.7e308": ([1.7e308, 0.0], [1.0, 0.0]),
              "1e300-diagonal": ([1e300, 1e300], [math.sqrt(0.5)] * 2),
              "max-negative": ([-1.7976931348623157e308, -1e308],
                               [-1.7976931348623157, -1.0]),
              "1e160": ([0.0, -1e160], [0.0, -1.0])}


def _line_to_constant(region):
    """The straight-line trace from x + 3 to the constant 3 on the level-0
    boundary sampling of ``region``."""
    sampling = sample_sphere(region, 0)
    f = SampledMap(sampling=sampling, images=sampling.points + 3.0)
    g = SampledMap(sampling=sampling, images=np.full_like(f.images, 3.0))
    return straight_line(f, g, t_steps=3)[0]


def _axis_points(h=math.sqrt(2.0), first=1.0, region=DISK2):
    """A BoundarySampling of the unit circle's four axis points, the first
    at distance ``first`` from the centre, declared with mesh norm ``h``."""
    points = np.array([[first, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    return BoundarySampling(points=points, h=h, region=region)


# Each case failed at the time it was added: max_iter=nan and 2.5 raised
# TypeError, a tuple box AttributeError, level=nan numpy's ValueError for
# n = 2 and nothing for n = 3 (a 6-point mesh), level=2.5 built a 23-point
# circle with one short gap, refine_budget=nan and t_steps=2.5 were not
# rejected as integers, parse_map took n = 2.5 and raised TypeError for
# "2", and brouwer_fixed_point(n=2.0) raised numpy's TypeError.  A bool
# passed operator.index as 0 or 1: brouwer_fixed_point(n=True) raised
# numpy's TypeError, max_iter=True ran one step and level=True sampled
# level 1.
@pytest.mark.parametrize("call", [
    lambda: locate_zero(PLANE, BOX2, max_iter=math.nan),
    lambda: locate_zero(PLANE, BOX2, max_iter=2.5),
    lambda: locate_zero(PLANE, ((-1.0, 1.0), (-1.0, 1.0))),
    lambda: certify_existence(PLANE, DISK2, level=math.nan),
    lambda: certify_existence(parse_map("x1, x2, x3", 3), DISK3,
                              level=math.nan),
    lambda: sample_sphere(DISK2, 2.5),
    lambda: winding_number(_planar(), refine_budget=math.nan),
    lambda: straight_line(_planar(), _planar(), t_steps=2.5),
    lambda: null_homotopy(_circle(lambda p: p + 3.0), t_steps=2.5),
    lambda: parse_map("x1", 2.5),
    lambda: parse_map("x1", "2"),
    lambda: brouwer_fixed_point(lambda p: p / 2, n=2.0),
    lambda: brouwer_fixed_point(lambda p: p / 2, n=True),
    lambda: locate_zero(PLANE, BOX2, max_iter=True),
    lambda: sample_sphere(DISK2, True),
    lambda: parse_map("x1", True),
], ids=["max_iter-nan", "max_iter-2.5", "tuple-box", "level-nan-n2",
        "level-nan-n3", "level-2.5-n2", "refine_budget-nan",
        "straight_line-t_steps-2.5", "null_homotopy-t_steps-2.5",
        "parse_map-n-2.5", "parse_map-n-str", "brouwer-n-2.0",
        "brouwer-n-True", "max_iter-True", "level-True", "parse_map-n-True"])
def test_count_arguments_must_be_integers(call):
    with pytest.raises(InvalidInput,
                       match="must be an integer|needs a box region"):
        call()


# Every entry point states the dimensions it needs to mapspec.as_evaluator,
# which refuses a MapSpec of other dimensions before any evaluation.  The
# locate, fixed_point, box_winding, certify and lipschitz cases failed at the
# time they were added: the map was evaluated on the region's points first,
# and the error spoke of the shape of that batch; lipschitz_estimate
# broadcast the two shapes and returned a wrong value (1.39e6 for x1 on a
# unit disk in the plane) or raised numpy's ValueError.  The
# boundary_nonvanishing, poincare_bohl and from_evaluator cases failed in
# evaluate, with "points must be a real (k,) or (k, n) array".
@pytest.mark.parametrize("call, n, dim", [
    (lambda: locate_zero(parse_map("x1, x2, x3", 3), BOX2), 3, 2),
    (lambda: brouwer_fixed_point(parse_map("x1/2, x2/2", 2), n=1), 2, 1),
    (lambda: box_winding(parse_map("x1, x2, x3", 3), [-1, -1], [1, 1]), 3, 2),
    (lambda: certify_existence(PLANE, DISK3), 2, 3),
    (lambda: lipschitz_estimate(PLANE, DISK3), 2, 3),
    (lambda: lipschitz_estimate(parse_map("x1", 1), DISK2), 1, 2),
    (lambda: boundary_nonvanishing(parse_map("x1", 1), DISK2), 1, 2),
    (lambda: poincare_bohl(PLANE, DISK3), 2, 3),
    (lambda: locate_zero(PLANE, Region.box([-1.0], [1.0])), 2, 1),
    (lambda: brouwer_fixed_point(parse_map("x1/2", 1), n=2), 1, 2),
    (lambda: SampledMap.from_evaluator(PLANE, sample_sphere(DISK3, 1)), 2, 3),
], ids=["locate", "fixed_point", "box_winding", "certify", "lipschitz-2-3",
        "lipschitz-1-2", "boundary_nonvanishing", "poincare_bohl",
        "locate-1d", "fixed_point-2d", "from_evaluator"])
def test_map_domain_checked_before_evaluation(call, n, dim, monkeypatch):
    evaluated = []
    monkeypatch.setattr(mapspec, "evaluate",
                        lambda *args: evaluated.append(args))
    with pytest.raises(InvalidInput, match=f"^map domain dimension {n} != "
                                           f"region dimension {dim}$"):
        call()
    assert evaluated == []


# The routes that need a codomain dimension: each runs a map, refuses one of
# another width with its message, and is given a MapSpec of another width.
# A MapSpec is refused before any evaluation, a callable on the images of
# its call.
CODOMAIN_ROUTES = {
    "fixed_point": (lambda f: brouwer_fixed_point(f, n=2),
                    "a self-map needs m = n", "x1/2, x2/2, x1"),
    "fixed_point-1d": (lambda f: brouwer_fixed_point(f, n=1),
                       "a self-map needs m = n", "x1/2, x1"),
    "locate-2d": (lambda f: locate_zero(f, BOX2),
                  "2D localization needs codomain dimension 2",
                  "x1/2, x2/2, x1"),
    "locate-1d": (lambda f: locate_zero(f, Region.box([-1], [1])),
                  "1D localization needs codomain dimension 1", "x1, x1"),
    "box_winding": (lambda f: box_winding(f, [-1, -1], [1, 1]),
                    "box winding needs codomain dimension 2",
                    "x1/2, x2/2, x1"),
    "poincare_bohl": (lambda f: poincare_bohl(f, DISK2),
                      "Poincare-Bohl needs codomain dimension m = n",
                      "x1, x2, x1"),
}


# Each case evaluated points before it failed at the time it was added:
# 782 for the fixed point, 5 for the 2D locate, 64 for box_winding, 3 for
# the 1D locate and 256 for poincare_bohl.
@pytest.mark.parametrize("route", sorted(CODOMAIN_ROUTES))
def test_map_codomain_checked_before_evaluation(route, monkeypatch):
    run, message, text = CODOMAIN_ROUTES[route]
    spec = parse_map(text, text.count(","))     # one output too many
    evaluated = []
    monkeypatch.setattr(mapspec, "evaluate",
                        lambda *args: evaluated.append(args))
    with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
        run(spec)
    assert evaluated == []


# The width is checked before finiteness, so 3-wide NaN images raise the
# route's message too: at the time the NaN case was added they raised
# DomainError, which brouwer_fixed_point and locate_zero answer by
# evaluating again on fewer points.
@pytest.mark.parametrize("route", sorted(CODOMAIN_ROUTES))
def test_callable_width_checked_on_its_images(route):
    run, message, _ = CODOMAIN_ROUTES[route]
    for value in (0.0, np.nan):
        with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
            run(lambda pts: np.full((len(pts), 3), value))


# Each case failed at the time it was added: a callable's width was checked
# on the images of its first call alone, so the 3-wide images of the second
# call raised numpy's broadcast ValueError in the fixed point's x - f(x), a
# ValueError from the Newton step's unpacking, and in 1D went unchecked into
# the residual.
@pytest.mark.parametrize("route", ["fixed_point", "locate-2d", "locate-1d"])
def test_callable_width_checked_on_every_call(route):
    run, message, _ = CODOMAIN_ROUTES[route]
    calls = []

    def widens(pts):
        calls.append(len(pts))
        out = 0.5 * pts - 0.1
        return out if len(calls) == 1 else np.hstack((out, out[:, :1]))

    with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
        run(widens)
    assert len(calls) == 2


# Each case failed at the time it was added: every probe of the 1D map
# rounded back onto its sample and the estimate read 0.0, the 2D map lost
# its x1 column and read 2.0 (about 3.24 is right), which
# certify_existence then used for a rigorous label, and the step 1e-6 *
# 2e-318 underflowed to 0, so numpy warned of 0/0 and the SVD raised
# LinAlgError.
@pytest.mark.parametrize("text, region", [
    ("3*(x1 - 1e10)", Region.disk([1e10], 1e-3)),
    ("x1 - 1e10, x1 - 1e10 + (x2 - 5)", Region.disk([1e10, 5.0], 1e-3)),
    ("x1, x2", Region.disk([0.0, 0.0], 1e-318)),
], ids=["1d-far", "2d-far", "step-underflows"])
def test_lipschitz_step_must_move_every_sample(text, region):
    spec = parse_map(text, region.dim)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInput, match="x1 does not move the sample"):
            lipschitz_estimate(spec, region)


@pytest.mark.parametrize("error, call", [
    (InvalidInput, lambda: certify_existence(PLANE, BOX2)),
    (InvalidInput, lambda: certify_existence(PLANE, DISK3)),
    (InvalidInput, lambda: certify_existence(PLANE, DISK2, level=-1)),
    (InvalidInput, lambda: boundary_nonvanishing(PLANE, BOX2)),
    (InvalidInput, lambda: poincare_bohl(parse_map("x1, x2, x1", 2), DISK2)),
    (InvalidInput, lambda: locate_zero(PLANE, DISK2)),
    (InvalidInput, lambda: locate_zero(parse_map("x1, x2, x3", 3),
                                       Region.box(-np.ones(3), np.ones(3)))),
    (InvalidInput, lambda: box_winding(PLANE, [-1, -1, -1], [1, 1, 1])),
    (InvalidInput, lambda: box_winding(parse_map("x1", 2), [-1, -1], [1, 1])),
    (InvalidInput, lambda: brouwer_fixed_point(lambda p: 0.5 * p)),
    (InvalidInput, lambda: brouwer_fixed_point(parse_map("x1, x2, x3", 3))),
    (InvalidInput, lambda: brouwer_fixed_point(parse_map("x1/2, x2/2", 2),
                                               n=1)),
    (InvalidInput, lambda: box_winding(parse_map("x1, x2, x3", 3),
                                       [-1, -1], [1, 1])),
    (InvalidInput, lambda: locate_zero(parse_map("x1, x2, x3", 3), BOX2)),
    (InvalidInput, lambda: null_homotopy(_circle(
        lambda p: np.hstack((p + 3.0, p[:, :1]))))),
    (InvalidInput, lambda: straight_line(_planar(), _planar(), t_steps=1)),
    (InvalidInput, lambda: straight_line(
        _planar(), _circle(lambda p: np.hstack((p, p[:, :1]))), t_steps=2)),
    (InvalidInput, lambda: winding_number(SampledMap.from_evaluator(
        parse_map("x1, x2", 3), sample_sphere(DISK3, 0)))),
    (InvalidInput, lambda: sign_obstruction(SampledMap.from_evaluator(
        parse_map("x1, 1", 1), sample_sphere(Region.disk([0.0], 1.0))))),
    (InvalidInput, lambda: parse_map("x1", 0)),
    (InvalidInput, lambda: builtin_map("nope")),
    (VanishingOnBoundary,
     lambda: poincare_bohl(lambda p: p - [1.0, 0.0], DISK2, level=0)),
    (NotANullHomotopy, lambda: null_homotopy(_circle(
        lambda p: p - [1.0, 0.0]))),
    (Unsupported, lambda: certify_existence(lambda p: p[:, :1], DISK2)),
    (InvalidInput, lambda: Region(kind="disk", center=None, radius=1.0)),
    (InvalidInput, lambda: Region(kind="box", lower=None, upper=np.ones(2))),
    (InvalidInput, lambda: Region(kind="ball", center=np.zeros(2),
                                  radius=1.0)),
    (InvalidInput, lambda: Region.box([0.0, 0.0], [1.0])),
    (InvalidInput, lambda: Region.disk([], 1.0)),
    (InvalidInput, lambda: BoundarySampling(points=np.zeros((4, 3)), h=1.0,
                                            region=DISK2)),
    (InvalidInput, lambda: _axis_points(
        h=math.hypot(1.1, 1.0), first=1.1)),
    (InvalidInput, lambda: _axis_points(h=1.0)),
    (InvalidInput, lambda: sample_sphere(BOX2)),
    (InvalidInput, lambda: straight_line(_planar(1.0), _planar(2.0),
                                         t_steps=2)),
    (InvalidInput, lambda: lipschitz_estimate(
        PLANE, Region.box([-1e308, 0.0], [1e308, 1.0]))),
    (InvalidInput, lambda: lipschitz_estimate(
        PLANE, Region.disk([0.0, 0.0], 1e308))),
    (InvalidInput, lambda: locate_zero(
        PLANE, Region.box([-1e308, 0.0], [1e308, 1.0]))),
    (InvalidInput, lambda: locate_zero(
        PLANE, Region.box([1e308, 0.0], [1.7e308, 1.0]))),
    (InvalidInput, lambda: radial_extension(_line_to_constant(DISK3))),
    (InvalidInput, lambda: radial_extension(_line_to_constant(
        Region.disk([0.0], 1.0)))),
    (InvalidInput, lambda: radial_extension(null_homotopy(SampledMap(
        sampling=_axis_points(region=BOX2),
        images=_axis_points().points + 3.0)))),
    *[(InvalidInput, lambda x=x: _witness()(x)) for x in BAD_POINTS.values()],
    *[(InvalidInput, lambda x=x: _phi()(x)) for x in BAD_POINTS.values()],
], ids=["certify-box", "certify-2d-map-3d-disk", "certify-level-1",
        "nonvanishing-box", "poincare_bohl-m-ne-n", "locate-disk",
        "locate-3d-box", "box_winding-3d", "box_winding-scalar",
        "fixed_point-callable-without-n", "fixed_point-n3",
        "fixed_point-domain-ne-n", "box_winding-domain-3", "locate-domain-3",
        "null-m3",
        "straight_line-t_steps-1", "straight_line-m-differs", "winding-n3",
        "sign-m2", "parse_map-n0", "builtin-unknown",
        "poincare_bohl-vanishes", "null-vanishes", "certify-n-gt-m",
        "disk-without-center", "box-without-lower", "unknown-kind",
        "box-corner-lengths", "disk-dim-0", "sampling-3-columns",
        "sampling-off-circle", "sampling-wrong-h", "sample_sphere-box",
        "straight_line-radii-differ", "lipschitz-box-too-wide",
        "lipschitz-disk-too-wide", "locate-box-too-wide",
        "locate-box-diameter-too-wide", "radial_extension-3d",
        "radial_extension-s0", "radial_extension-box",
        *[f"witness-{name}" for name in BAD_POINTS],
        *[f"phi-{name}" for name in BAD_POINTS]])
def test_typed_failure(error, call):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("point, direction", FAR_POINTS.values(),
                         ids=list(FAR_POINTS))
def test_far_witness_point(point, direction):
    # each case warned of an overflow when it was added, and 1.7e308 then
    # raised InvalidInput
    cert = certify_existence(parse_map("x1 + 3, x2 + 3", 2),
                             Region.disk([0.0, 0.0], 0.5))
    u = np.array(direction) / np.linalg.norm(direction)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = cert.extension_witness(point)
        want = cert.extension_witness(2.0 * 0.5 * u)
        assert np.allclose(got, want, rtol=0.0, atol=1e-12)
        for bad in ([math.nan, 1e300], [1e300, -math.inf]):
            with pytest.raises(InvalidInput):
                cert.extension_witness(bad)


@pytest.mark.parametrize("point, direction", FAR_POINTS.values(),
                         ids=list(FAR_POINTS))
def test_far_phi_point(point, direction):
    # each case warned of an overflow in x.dot(x) when it was added
    phi = _phi()
    u = np.array(direction) / np.linalg.norm(direction)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.allclose(phi(point), phi(2.0 * u), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("argv", [
    ["certify", "--map", "x1, x2", "--n", "2", "--center=a,b",
     "--radius", "1"],
    ["locate", "--map", "x1, x2", "--box=0,1,2"],
    ["homotopy", "--from", "x1, x2", "--to", "x1 + x2, x1, x2"],
    ["certify", "--map", "x1, x2", "--n", "2", "--center=0,0",
     "--radius", "1", "--level", "-1"],
    ["certify", "--map", "x1, x2", "--n", "2", "--center=0,0",
     "--radius", "1e308", "--lipschitz", "auto"],
    ["locate", "--map", "x1 - 0.5, x2 - 0.5", "--box=-1e308,1e308,0,1"],
    ["locate", "--map", "x1 - 0.5, x2 - 0.5",
     "--box=-1e200,1e200,-1e200,1e200"],
    ["locate", "--map", "x1 - 0.3", "--box=0,1,0,1"],
    ["locate", "--map", "1/x1", "--box=-1,1"],
    ["certify", "--map", "x1, x2", "--n", "2", "--center=0,0",
     "--radius", "1e-318", "--lipschitz", "auto"],
    ["certify", "--map", "x1 - 1e10, x2", "--n", "2", "--center=1e10,0",
     "--radius", "1e-3", "--lipschitz", "auto"],
    ["certify", "--map", "3*(x1 - 1e10)", "--n", "1", "--center=1e10",
     "--radius", "1e-3", "--lipschitz", "auto"],
], ids=["certify-center", "locate-odd-box", "homotopy-m-differs",
        "certify-level-1", "certify-lipschitz-auto-too-wide",
        "locate-box-too-wide", "locate-box-diameter-too-wide",
        "locate-2d-codomain-1", "locate-1d-domain-error",
        "certify-lipschitz-auto-step-underflows",
        "certify-lipschitz-auto-2d-far", "certify-lipschitz-auto-1d-far"])
def test_cli_input_error_exits_4(argv, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["certify", "--n", "2", "--center=0,0", "--radius", "1"],
    ["winding"],
], ids=["certify", "winding"])
def test_cli_commands_agree_on_a_boundary_zero(argv, capsys):
    # |F(1, 0)| = 1e-14 is within the one vanishing floor
    assert main(argv + ["--map", "x1 - 0.99999999999999, x2"]) == 3
