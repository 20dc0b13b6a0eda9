"""Constructive zero localization once existence is certified.

One call evaluates the locator's first batch on the top box, in parts: in
1D the ends, then the midpoint; in 2D the Newton tail's first stencil when
the tail runs, else the box's boundary.  On DomainError the last part is
dropped and the call made again, down to the ends (a dropped midpoint is
evaluated on its own); a 2D stencil that raises skips the tail, and the
boundary is evaluated alone.  Each entry point states the dimensions it
needs to ``mapspec.as_evaluator``, which checks them.

n=1 brackets a sign change.  Each step evaluates one point, the first
the midpoint; each later one Chandrupatla's (1997) inverse quadratic
interpolation through the two bracket ends and the end dropped last, where
his test finds it safe, else the midpoint, projected into ITP's band
around the midpoint (Oliveira & Takahashi 2020).  The band halves each
step and leaves room for rounding, so the step count is at most
bisection's plus ITP_N0, and usually far less.  With eps_x = 0 it bisects
plainly, down to adjacent floats.

n=2 runs a Newton tail from the top box's centre: each step evaluates the
iterate and a central-difference stencil in one batch, the first step's in
the first call.  The tail gives up when an iterate leaves the box, when
the difference Jacobian is singular or not finite, or when a step after
the second fails to shrink fourfold.  Once a step is at most eps_x / 8, or
once the quadratic model of the last two steps puts the next one below the
float spacing at the iterate, the point is accepted only when a square of
diameter at most eps_x around it, clipped to the box, has nonzero boundary
winding: a quadtree cell's guarantee, which needs no winding of the top
box; its boundary is ACCEPT_SAMPLES_PER_EDGE samples per edge, refined as
any box's.  A square refused at the early stop lets the tail go on.  Only
the quadtree winds the top box, after a tail that gave up or in place of one
that does not run; DegreeLost means that the box, or a cut of it, winds 0.
A box with several zeros may so return a different zero than the quadtree
would, even when its boundary winds 0.  A 2D box whose width or diameter
is not finite is rejected before any evaluation.

The quadtree recursively bisects a box into four sub-boxes and follows
nonzero boundary winding (generalized bisection, Kearfott 1979), computed
with the shared angle-step kernel and refinement loop of ``geometry``
(chord midpoints).  Each level evaluates one batch: the cut point, whose
image is also the residual check, and the four sub-boxes' own boundaries
of SAMPLES_PER_EDGE samples per edge, 1 + 4 * 64 = 257 points.  The
sub-boxes are then wound one after another, each through the refinement
loop, and the first of nonzero winding is kept.  When a cut line lands on
(or numerically near) a zero, the cut point is jiggled by a deterministic
pseudo-random offset of at most 10% of the cell size, at most five retries
per level, each one more batch of 257 points.  A level whose every attempt
stays within the vanishing floor ends in BudgetExhausted (the cell has
shrunk onto the zero); one where some attempt wound all four sub-boxes to
0 ends in DegreeLost.

Box boundaries come from one box-edge template per samples-per-edge count,
built once per process and read-only, like the unit-sphere samplings.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .criteria import _boundary, _certify_sampled
from .errors import (BudgetExhausted, DegreeLost, DomainError, InvalidInput,
                     VanishingOnBoundary, ZeroCertError)
from .geometry import (MAX_STEP, Region, check_count, refine_polyline,
                       row_norms)
from .mapspec import MapSpec, as_evaluator

MAX_JIGGLES = 5
SAMPLES_PER_EDGE = 16             # per box edge
ACCEPT_SAMPLES_PER_EDGE = 4       # per edge of the Newton accept square
BUDGET = 4096                     # refinement insertions per box winding
HUGE_IMAGE = 2.0 ** 500           # a residual's image with an entry this
                                  # large is scaled before its norm

# Newton tail of the 2D locator
NEWTON_H = 2.0 ** -20   # difference step, times the top box's width per axis
NEWTON_STOP = 0.125     # a step of at most NEWTON_STOP * eps_x ends the tail
NEWTON_SHRINK = 4.0     # each step after the second is this much shorter
ACCEPT_HALF = 0.35      # half-side of the accepted square, times eps_x: its
                        # diameter 0.99 eps_x leaves room for rounding
ITP_N0 = 2              # steps the 1D band allows beyond bisection's count
# the corners of a box, counterclockwise from lo, as indices in
# (lo[0], lo[1], hi[0], hi[1])
_CORNERS = [[0, 1], [2, 1], [2, 3], [0, 3]]


@dataclass(eq=False)
class LocateResult:
    point: np.ndarray
    residual: float                 # ||F(point)||, from an evaluation at point
    cell_diameter: float
    iterations: int
    trail: List[tuple] = field(default_factory=list)
    termination: str = ""           # residual | cell_diameter | newton |
                                    # boundary_fixed_point | budget


def box_winding(map_like, lower, upper) -> int:
    """Winding of a planar map along a box boundary (counterclockwise).

    Uses the shared pi/2 angle-step refinement loop of the circle winding
    with the chord midpoint rule: bisected perimeter segments stay on the
    boundary because the corner samples separate the edges.
    """
    box = Region.box(lower, upper)      # 1-D, finite, lower < upper
    if box.dim != 2:
        raise InvalidInput("box winding is planar only")
    _check_box_size(box)
    ev = as_evaluator(map_like, 2, "box winding needs codomain dimension 2")
    pts = _box_points(box.lower, box.upper)
    return _wind(ev, pts, ev(pts))


def _box_points(lo, hi, count=SAMPLES_PER_EDGE):
    """Counterclockwise boundary samples of the box [lo, hi], starting at
    lo, ``count`` per edge: a + f * (b - a) for the start corner a, end
    corner b and fraction f of each sample in the box-edge template."""
    edges, fractions = _box_template(count)
    a, b = np.array(lo.tolist() + hi.tolist())[edges]
    return a + fractions * (b - a)


@functools.cache
def _box_template(count):
    """The read-only box-edge template of ``count`` samples per edge: each
    sample's start and end corner in _CORNERS, and fraction along the edge."""
    edges = np.repeat([_CORNERS, _CORNERS[1:] + _CORNERS[:1]], count, axis=1)
    fractions = np.tile(np.arange(count) / count, 4)[:, None]
    edges.flags.writeable = fractions.flags.writeable = False
    return edges, fractions


def _chord_midpoint(a, b):
    return 0.5 * (a + b)


def _wind(ev, pts, ims):
    """Winding of the closed polyline through ``pts``, whose images are
    ``ims``, after chord refinement of at most BUDGET insertions.

    A norm within geometry.vanishing_floor of ``ims`` raises
    VanishingOnBoundary, as in winding_number.
    """
    steps = refine_polyline(pts, ims, ev, _chord_midpoint, BUDGET)[3]
    if float(np.max(np.abs(steps))) >= MAX_STEP:
        raise BudgetExhausted("box winding refinement budget exhausted")
    return int(round(float(np.add.reduce(steps)) / (2.0 * math.pi)))


def locate_zero(map_like, box: Region, eps_x: float = 1e-6,
                eps_f: float = 1e-9, max_iter: int = 100) -> LocateResult:
    """Approximate a zero inside a box: in 2D a Newton answer proved by its
    own square, or the quadtree's.  DegreeLost when no answer is found and
    the top box, or a cut of it, winds 0."""
    if not isinstance(box, Region) or box.kind != "box":
        raise InvalidInput("locate_zero needs a box region")
    _check_tolerance("eps_x", eps_x)
    _check_tolerance("eps_f", eps_f)
    check_count("max_iter", max_iter, 1)
    n = box.dim
    if n > 2:
        raise InvalidInput("localization is implemented for n in {1, 2}")
    if n == 2:
        _check_box_size(box)
    ev = as_evaluator(map_like, n,
                      f"{n}D localization needs codomain dimension {n}")
    return _locate(ev, box, eps_x, eps_f, max_iter)


def _locate(ev, box, eps_x, eps_f, max_iter, top=None):
    """locate_zero of the checked evaluator ``ev``, with checked arguments
    (n <= 2, a box of finite size); ``top`` holds the images of the
    concatenated _top_parts when the caller has them, else they are
    evaluated here."""
    n = box.dim
    if top is None:
        lo, hi = box.lower, box.upper
        try:
            top = _leading_images(ev, _top_parts(lo, hi, eps_x), 1)
        except DomainError:
            if n == 1 or not _runs_tail(lo, hi, eps_x):
                raise
            top = ev(_box_points(lo, hi))   # the stencil raised: no tail
    solve = _bisect_1d if n == 1 else _quadtree_2d
    return solve(ev, box, eps_x, eps_f, max_iter, top)


def _leading_images(ev, parts, keep):
    """The images of the concatenated ``parts``, evaluated in one call.  On
    DomainError the last part is dropped and the call made again; with only
    ``keep`` parts left, the error goes out."""
    try:
        return ev(np.concatenate(parts))
    except DomainError:
        if len(parts) == keep:
            raise
        return _leading_images(ev, parts[:-1], keep)


def _check_tolerance(name, value):
    # NaN fails this comparison too
    if not value >= 0.0:
        raise InvalidInput(f"{name} must be >= 0, got {value!r}")


def _bisect_1d(ev, box, eps_x, eps_f, max_iter, top):
    """The 1D locator.  ``top`` holds the images of the ends and, unless
    it raised, the midpoint: the leading parts of _top_parts."""
    (a,), (b,) = box.lower.tolist(), box.upper.tolist()
    fa, fb = float(top[0, 0]), float(top[1, 0])
    if fa == 0.0:
        return _finish(ev, np.array([a]), b - a, 0, [], "residual", top[0])
    if fb == 0.0:
        return _finish(ev, np.array([b]), b - a, 0, [], "residual", top[1])
    if (fa > 0) == (fb > 0):
        raise DegreeLost((a, b))
    image_a, image_b = top[0], top[1]
    n_max = _itp_budget(b - a, eps_x)
    # the float spacing at the first bracket's larger end bounds the
    # rounding of every later mid, x and band radius
    u = math.ulp(max(abs(a), abs(b)))
    # the end the last step dropped, and whether that step moved a
    c = fc = moved_a = None
    trail = []
    for it in range(1, max_iter + 1):
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            # a and b are adjacent floats: the cell cannot shrink further
            return _finish(ev, np.array([mid]), b - a, it - 1, trail,
                           "cell_diameter", image_a if mid == a else image_b)
        x = mid
        if it > 1 and n_max is not None:
            # the band keeps the bracket within (eps_x - 2u) *
            # 2^(n_max - it) + u of width, rounding included, so within
            # eps_x by step n_max
            r = max(0.0, math.ldexp(eps_x - 2.0 * u, n_max - it)
                    - 0.5 * (b - a) - 2.0 * u)
            if moved_a:
                x = _chandrupatla_point(a, fa, b, fb, c, fc, mid, r)
            else:
                x = _chandrupatla_point(b, fb, a, fa, c, fc, mid, r)
        if it == 1 and len(top) == 3:
            image = top[2]
        else:
            image = ev(np.array([[x]]))[0]
        fm = float(image[0])
        moved_a = (fm > 0) == (fa > 0)
        if moved_a:
            c, fc, a, fa, image_a = a, fa, x, fm, image
        else:
            c, fc, b, fb, image_b = b, fb, x, fm, image
        trail.append((a, b))
        if abs(fm) <= eps_f:
            return _finish(ev, np.array([x]), b - a, it, trail, "residual",
                           image)
        if b - a <= eps_x:
            return _finish(ev, np.array([0.5 * (a + b)]), b - a, it, trail,
                           "cell_diameter")
    raise BudgetExhausted("bisection iteration limit reached",
                          best=_finish(ev, np.array([0.5 * (a + b)]), b - a,
                                       max_iter, trail, "budget"))


def _itp_budget(width, eps_x):
    """ITP's step budget n_max for a bracket of ``width``: the bisection
    count that shrinks it to eps_x, plus ITP_N0.  None, for plain bisection,
    when eps_x is 0 or so small against the width that 2^n_max overflows.
    Else 2 * width is finite, and so is the band's radius, which starts at
    step 2 below eps_x * 2^(n_max - 2) < 2 * width (ITP_N0 = 2)."""
    if eps_x == 0.0 or not math.isfinite(2.0 * width / eps_x):
        return None
    # width / eps_x rounds to 0 when eps_x is far larger, even infinite
    return math.ceil(math.log2(max(1.0, width / eps_x))) + ITP_N0


def _chandrupatla_point(x1, f1, x2, f2, x3, f3, mid, r):
    """The next point of the bracket between x1, the end the last step
    moved, and x2, where x3 is the end that step dropped (Chandrupatla
    1997): inverse quadratic interpolation through the three where his
    test 1 - sqrt(1 - xi) < phi < sqrt(xi) says it is safe, else the
    midpoint ``mid``; then kept within ``r`` of ``mid`` (ITP's band,
    Oliveira & Takahashi 2020).  The midpoint when that point is not
    strictly inside the bracket.  f1 and f3 have one sign, f2 the other."""
    x = mid
    xi = (x1 - x2) / (x3 - x2)
    phi = (f1 - f2) / (f3 - f2)
    # phi = 1 when f1 = f3, so the test also keeps f3 - f1 off zero
    if 1.0 - math.sqrt(1.0 - xi) < phi < math.sqrt(xi):
        alpha = (x3 - x1) / (x2 - x1)
        t = (f1 / (f1 - f2) * f3 / (f3 - f2)
             - alpha * f1 / (f3 - f1) * f2 / (f2 - f3))
        x = x1 + t * (x2 - x1)
    if abs(x - mid) > r:
        x = mid + math.copysign(r, x - mid)
    return x if min(x1, x2) < x < max(x1, x2) else mid


def _quadtree_2d(ev, box, eps_x, eps_f, max_iter, top):
    """The 2D locator.  ``top`` holds the images of the first Newton
    stencil, or of the top box's boundary when the tail does not run or
    its first stencil raised; only the quadtree evaluates and winds it."""
    rng = None      # the jiggle generator, seeded 0 at the first jiggle
    lo = box.lower.copy()
    hi = box.upper.copy()
    if len(top) != 4 * SAMPLES_PER_EDGE:    # the first stencil's images
        try:
            result = _newton_tail(ev, lo, hi, eps_x, max_iter, top)
        except (DomainError, VanishingOnBoundary, BudgetExhausted):
            result = None   # the tail gives up; the quadtree decides
        if result is not None:
            return result
        top = ev(_box_points(lo, hi))
    if _wind(ev, _box_points(lo, hi), top) == 0:
        raise DegreeLost((lo, hi))
    trail = []
    for it in range(1, max_iter + 1):
        center = 0.5 * (lo + hi)
        diameter = float(np.linalg.norm(hi - lo))
        if diameter <= eps_x:
            result = _finish(ev, center, diameter, it - 1, trail,
                             "cell_diameter")
            if result.residual <= eps_f:
                result.termination = "residual"
            return result
        center_image, children = _level(ev, lo, hi, center)
        if float(np.linalg.norm(center_image)) <= eps_f:
            return _finish(ev, center, diameter, it - 1, trail, "residual",
                           center_image)
        chosen, vanished = None, 0
        for attempt in range(MAX_JIGGLES + 1):
            if attempt:
                if rng is None:
                    rng = np.random.default_rng(0)
                cut = center + rng.uniform(-0.1, 0.1, size=2) * (hi - lo)
                children = _level(ev, lo, hi, cut)[1]
            try:
                chosen = next((sub for sub, pts, ims in children
                               if _wind(ev, pts, ims) != 0), None)
            except VanishingOnBoundary:
                vanished += 1
                continue
            if chosen is not None:
                break
        if chosen is None:
            if vanished == MAX_JIGGLES + 1:
                # no attempt got past the vanishing floor, so none could
                # tell whether the degree was lost
                raise BudgetExhausted(
                    "jiggle budget spent: every cut of the cell came within "
                    "the vanishing floor of a zero",
                    best=_finish(ev, center, diameter, it - 1, trail,
                                 "budget", center_image))
            raise DegreeLost((lo, hi))
        lo, hi = chosen
        trail.append((lo.copy(), hi.copy()))
    raise BudgetExhausted("quadtree iteration limit reached",
                          best=_finish(ev, 0.5 * (lo + hi),
                                       float(np.linalg.norm(hi - lo)),
                                       max_iter, trail, "budget"))


def _level(ev, lo, hi, cut):
    """F(cut) and the four sub-boxes of [lo, hi] at ``cut``, in bisection
    order, each as ((lower, upper), boundary points, their images).  One
    call evaluates the cut point and the _box_points of the four sub-boxes."""
    subs = [(lo, cut), (np.array([cut[0], lo[1]]), np.array([hi[0], cut[1]])),
            (cut, hi), (np.array([lo[0], cut[1]]), np.array([cut[0], hi[1]]))]
    boundaries = [_box_points(sub_lo, sub_hi) for sub_lo, sub_hi in subs]
    ims = ev(np.concatenate([cut[None, :]] + boundaries))
    return ims[0], list(zip(subs, boundaries, np.split(ims[1:], 4)))


def _check_box_size(box):
    """InvalidInput unless the 2D box's widths and diameter are finite, so
    that no difference or norm of its corners overflows."""
    (l0, l1), (u0, u1) = box.lower.tolist(), box.upper.tolist()
    w0, w1 = u0 - l0, u1 - l1
    if not (math.isfinite(w0) and math.isfinite(w1)):
        raise InvalidInput("box too wide: its width is not finite")
    # Python floats overflow to inf without a warning
    if not math.isfinite(w0 * w0 + w1 * w1):
        raise InvalidInput("box too wide: its diameter is not finite")


def _top_parts(lo, hi, eps_x):
    """The first batch of the locator on the top box [lo, hi], as a list of
    parts: in 1D the two ends, then the midpoint; in 2D the Newton tail's
    first stencil when the tail runs, else the box's _box_points."""
    if len(lo) == 1:
        (a,), (b,) = lo.tolist(), hi.tolist()
        return [np.array([[a], [b]]), np.array([[0.5 * (a + b)]])]
    if not _runs_tail(lo, hi, eps_x):
        return [_box_points(lo, hi)]
    (l0, l1), (u0, u1) = lo.tolist(), hi.tolist()
    center = (0.5 * (l0 + u0), 0.5 * (l1 + u1))
    return [_stencil(center, (l0, l1), (u0, u1))[0]]


def _runs_tail(lo, hi, eps_x):
    """Whether the Newton tail runs on the top box [lo, hi]: eps_x = 0 asks
    for float resolution, and a box within eps_x is already small enough."""
    return 0.0 < eps_x < float(np.linalg.norm(hi - lo))


def _stencil(x, lo, hi):
    """The batch of a Newton step at ``x`` in the top box [lo, hi], each a
    pair of Python floats: x, then x +- h in x1 and in x2, for the widths
    h = NEWTON_H * (hi - lo), clipped to the box.  Also the spans of the
    clipped +-h points per axis, over which the step takes its differences.
    """
    (x0, x1), (l0, l1), (u0, u1) = x, lo, hi
    h0, h1 = NEWTON_H * (u0 - l0), NEWTON_H * (u1 - l1)
    # x + s * h for s = 0, 1, -1, as on arrays (0.0 * h is 0.0)
    c0, c1 = _clip(x0 + 0.0, l0, u0), _clip(x1 + 0.0, l1, u1)
    p0, m0 = _clip(x0 + h0, l0, u0), _clip(x0 - h0, l0, u0)
    p1, m1 = _clip(x1 + h1, l1, u1), _clip(x1 - h1, l1, u1)
    return (np.array([[c0, c1], [p0, c1], [m0, c1], [c0, p1], [c0, m1]]),
            (p0 - m0, p1 - m1))


def _clip(v, lo, hi):
    """v clipped to [lo, hi], lo < hi: a NaN ``v`` stays NaN, and a tie
    between zeros of either sign gives the bound.  On x86-64 that is numpy's
    np.clip bit for bit (its maximum and minimum give their second argument
    on such a tie), and it is the same on every machine."""
    return lo if v <= lo else hi if v >= hi else v


def _newton_tail(ev, lo, hi, eps_x, max_iter, first):
    """Newton's method from the centre of the box [lo, hi]: the result at
    the zero it finds, or None when it gives up.

    Each step evaluates the batch of _stencil at its iterate; ``first``
    holds the images of the first step's batch, which the locator's first
    call evaluated.  The tail gives up when an iterate leaves the box,
    when the difference Jacobian is singular or not finite, or when a step
    after the second is not NEWTON_SHRINK times shorter than the one
    before.  Once a step is at most NEWTON_STOP * eps_x, the new
    iterate is kept only when a square around it of diameter at most eps_x,
    clipped to the box, winds nonzero: the same guarantee as a quadtree
    cell.  From the second step on, the square is also tried early, without
    evaluating the iterate's stencil, when the quadratic convergence model
    (Dennis & Schnabel 1983, ch. 5) puts the next step, size^3 / last^2 for
    this step's length size and the last one's, below the float spacing at
    the new iterate; when that square winds 0 the tail goes on.

    The tail runs on Python floats, which round every operation as numpy's
    float64 does: the iterate, the box and the stencil are floats, and only
    the batches and the accepted point become arrays.  Its batches and
    answer are those of the same steps on numpy arrays bit for bit, with
    np.clip's tie between zeros as x86-64 numpy breaks it (see _clip).
    """
    lower, upper = lo.tolist(), hi.tolist()
    (l0, l1), (u0, u1) = lower, upper
    x0, x1 = 0.5 * (l0 + u0), 0.5 * (l1 + u1)
    images = first
    last = math.inf
    for it in range(1, max_iter + 1):
        pts, (w0, w1) = _stencil((x0, x1), lower, upper)
        if it > 1:
            images = ev(pts)
        (f, g), (f1, g1), (f2, g2), (f3, g3), (f4, g4) = images.tolist()
        # the Jacobian's columns are these differences over the stencil
        # widths, so -J^-1 F needs no division by a width
        c1x, c1y, c2x, c2y = f1 - f2, g1 - g2, f3 - f4, g3 - g4
        det = c1x * c2y - c2x * c1y
        if det == 0.0 or not math.isfinite(det):
            return None
        dx = w0 * (c2x * g - c2y * f) / det
        dy = w1 * (c1y * f - c1x * g) / det
        x0, x1 = x0 + dx, x1 + dy
        if not (l0 <= x0 <= u0 and l1 <= x1 <= u1):
            return None
        size = math.hypot(dx, dy)
        if size <= NEWTON_STOP * eps_x:
            return _accept(ev, lo, hi, np.array([x0, x1]), eps_x, it)
        if it > 2 and NEWTON_SHRINK * size > last:
            return None
        # the quadratic model's next step, size^3 / last^2, below the float
        # spacing at the iterate; as size * (size / last)^2 it overflows
        # only where it is above that spacing, and a float ** would raise
        ratio = size / last
        if it > 1 and size * ratio * ratio <= math.ulp(max(abs(x0), abs(x1))):
            result = _accept(ev, lo, hi, np.array([x0, x1]), eps_x, it)
            if result is not None:
                return result
        last = size
    return None


def _accept(ev, lo, hi, point, eps_x, steps):
    """The Newton result at ``point`` when the square of diameter
    2 * sqrt(2) * ACCEPT_HALF * eps_x around it, clipped to [lo, hi], winds
    nonzero, else None.  One batch evaluates the point, whose image gives
    the residual, and the square's corners and quarter points: an affine
    image of an edge turns by less than pi, and F is affine to rounding
    there."""
    sub_lo = np.maximum(lo, point - ACCEPT_HALF * eps_x)
    sub_hi = np.minimum(hi, point + ACCEPT_HALF * eps_x)
    diameter = float(np.linalg.norm(sub_hi - sub_lo))
    if not (np.all(sub_lo < sub_hi) and diameter <= eps_x):
        return None     # eps_x is below the float spacing at the point
    pts = _box_points(sub_lo, sub_hi, ACCEPT_SAMPLES_PER_EDGE)
    ims = ev(np.concatenate((pts, point[None, :])))
    if _wind(ev, pts, ims[:-1]) == 0:
        return None
    return _finish(ev, point, diameter, steps, [(sub_lo, sub_hi)], "newton",
                   ims[-1])


def _finish(ev, point, diameter, iterations, trail, termination,
            image=None):
    """The result at ``point``; ``image`` is F(point) when the caller has
    just evaluated it, else the point is evaluated here."""
    if image is None:
        image = ev(point[None, :])[0]
    # the norm squares its entries, which overflows from about 1.3e154
    peak = max(map(abs, image.tolist()))
    if peak >= HUGE_IMAGE:
        residual = peak * float(np.linalg.norm(image / peak))
    else:
        residual = float(np.linalg.norm(image))
    return LocateResult(point=point, residual=residual,
                        cell_diameter=float(diameter), iterations=iterations,
                        trail=trail, termination=termination)


def brouwer_fixed_point(map_like, eps: float = 1e-6,
                        n: Optional[int] = None) -> LocateResult:
    """Fixed point of a continuous map f of the unit disk D^n, n in {1, 2},
    that maps the boundary sphere into the disk.

    Reduces to locating a zero of G(x) = x - f(x).  On the boundary G never
    points opposite to x (that would force ||f(x)|| > 1), so G's certificate
    proves a fixed point from the boundary alone (Rothe's theorem; Granas &
    Dugundji 2003), and the locator of locate_zero then finds it; f may
    leave the disk inside.  The residual of the result is
    ||f(point) - point||.

    One evaluation of f covers two parts: the certificate's boundary
    samples, whose images are checked to lie in the disk and give G there,
    and the locator's first batch for G on [-1, 1]^n.  For n = 1 the
    boundary S^0 is the interval's two ends, so the locator's part is its
    midpoint alone.  On DomainError the locator's part is dropped and the
    boundary evaluated alone; the locator then evaluates the rest of its
    first batch itself.
    """
    _check_tolerance("eps", eps)
    if n is None:
        if not isinstance(map_like, MapSpec):
            raise InvalidInput("pass n explicitly for callable maps")
        n = map_like.n
    check_count("n", n, 1)
    if n > 2:
        raise InvalidInput("fixed points are located for n in {1, 2}")
    f = as_evaluator(map_like, n, "a self-map needs m = n")

    disk = Region.disk(np.zeros(n), 1.0)
    box = Region.box(-np.ones(n), np.ones(n))
    sampling, circle = _boundary(disk, None)
    top_parts = _top_parts(box.lower, box.upper, 0.5 * eps)
    if n == 1:
        # S^0 is [[-1], [1]], the ends of the locator's first batch
        top_parts = top_parts[1:]
    parts = [circle, np.concatenate(top_parts)]
    images = _leading_images(f, parts, 1)
    end = len(circle)
    _check_self_map(images[:end])

    # G is evaluated only in [-1, 1]^n, where x - f(x) of a finite f(x) is
    # finite: f's own check covers it
    g = lambda pts: pts - f(pts)
    g_circle = circle - images[:end]
    # G at the locator's first batch, as far as it was evaluated here; for
    # n = 1 that batch starts with the boundary's two ends
    top = parts[1] - images[end:] if len(images) > end else None
    if n == 1:
        top = g_circle if top is None else np.concatenate((g_circle, top))
    cert = _certify_sampled(g, disk, sampling, g_circle, None)
    if cert.verdict == "ZeroOnBoundary":
        # the boundary sample where G vanishes is a fixed point
        idx = int(np.argmin(row_norms(g_circle)))
        return _finish(g, cert.evidence[0].witness, 0.0, 0, [],
                       "boundary_fixed_point", g_circle[idx])
    if cert.verdict != "ZeroGuaranteed":
        raise ZeroCertError(
            f"could not certify a fixed point (verdict {cert.verdict})")
    # ||p - f(p)||, the located residual, is ||f(p) - p|| bit for bit
    return _locate(g, box, 0.5 * eps, 1e-12, 200, top)


def _check_self_map(images):
    """InvalidInput unless f's ``images`` at the boundary samples lie in
    the unit disk."""
    largest = float(np.max(row_norms(images)))
    if largest > 1.0 + 1e-9:
        raise InvalidInput(
            f"map leaves the unit disk (||f|| up to {largest:.6f})")

