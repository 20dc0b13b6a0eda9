"""Constructive zero localization once existence is certified.

n=1 uses classical sign bisection, with both endpoints in one evaluation.
n=2 recursively bisects a box into four sub-boxes and follows nonzero
boundary winding (generalized bisection, Kearfott 1979), computed with the
shared angle-step kernel and refinement loop of ``geometry`` (chord
midpoints).  Each box carries its refined, evaluated boundary as four edge
arrays, so a level reuses the parent's samples and evaluates only the cut:
one batch holds the centre (whose image is also the residual check), the
four half-cuts from it to the edges and any edge cut point the parent
lacks.  When a cut line lands on (or numerically near) a zero, the cut
point is jiggled by a deterministic pseudo-random offset of at most 10% of
the cell size, at most five retries per level.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .criteria import certify_existence
from .errors import (BudgetExhausted, DegreeLost, InvalidInput,
                     VanishingOnBoundary, ZeroCertError)
from .geometry import MAX_STEP, Region, refine_polyline
from .mapspec import as_evaluator

MAX_JIGGLES = 5
SAMPLES_PER_EDGE = 16             # per box edge; half per half-cut
BUDGET = 4096                     # refinement insertions per box winding
# interior sample fractions of a half-cut from the cut point to a box edge
_HALF_CUT = np.linspace(0.0, 1.0, SAMPLES_PER_EDGE // 2,
                        endpoint=False)[1:, None]


@dataclass(eq=False)
class LocateResult:
    point: np.ndarray
    residual: float                 # ||F(point)||, from an evaluation at point
    cell_diameter: float
    iterations: int
    trail: List[tuple] = field(default_factory=list)
    termination: str = ""           # residual | cell_diameter | boundary_fixed_point


def box_winding(map_like, lower, upper) -> int:
    """Winding of a planar map along a box boundary (counterclockwise).

    Uses the shared pi/2 angle-step refinement loop of the circle winding
    with the chord midpoint rule: bisected perimeter segments stay on the
    boundary because the corner samples separate the edges.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if lower.shape != (2,) or upper.shape != (2,):
        raise InvalidInput("box winding is planar only")
    ev = as_evaluator(map_like)
    return _wind(ev, _box_boundary(ev, lower, upper))[0]


def _box_boundary(ev, lo, hi):
    """Evaluated counterclockwise boundary of the box [lo, hi], starting at
    lo, as rows (x, y, F1, F2) with SAMPLES_PER_EDGE samples per edge."""
    corners = np.array([[lo[0], lo[1]], [hi[0], lo[1]],
                        [hi[0], hi[1]], [lo[0], hi[1]]])
    frac = np.linspace(0.0, 1.0, SAMPLES_PER_EDGE, endpoint=False)[:, None]
    pts = np.concatenate([a + frac * (b - a) for a, b in
                          zip(corners, np.roll(corners, -1, axis=0))])
    ims = ev(pts)
    if ims.shape[1] != 2:
        raise InvalidInput("box winding needs codomain dimension 2")
    return np.hstack((pts, ims))


def _chord_midpoint(a, b):
    return 0.5 * (a + b)


def _wind(ev, poly):
    """Winding of the closed polyline ``poly`` (rows x, y, F1, F2) after
    chord refinement of at most BUDGET insertions, and the refined polyline.

    The vanishing floor is refine_polyline's default: 1e-12 * (1 + the
    largest image norm of ``poly``).
    """
    pts, ims, inserted, steps = refine_polyline(poly[:, :2], poly[:, 2:], ev,
                                                _chord_midpoint, floor=None,
                                                budget=BUDGET)
    if np.any(np.abs(steps) >= MAX_STEP):
        raise BudgetExhausted("box winding refinement budget exhausted")
    if inserted:
        poly = np.hstack((pts, ims))
    return int(round(float(np.sum(steps)) / (2.0 * math.pi))), poly


def locate_zero(map_like, box: Region, eps_x: float = 1e-6,
                eps_f: float = 1e-9, max_iter: int = 100,
                seed: int = 0) -> LocateResult:
    """Approximate a zero inside a box with nonzero boundary obstruction."""
    if box.kind != "box":
        raise InvalidInput("locate_zero needs a box region")
    ev = as_evaluator(map_like)
    if box.dim == 1:
        return _bisect_1d(ev, box, eps_x, eps_f, max_iter)
    if box.dim == 2:
        return _quadtree_2d(ev, box, eps_x, eps_f, max_iter, seed)
    raise InvalidInput("localization is implemented for n in {1, 2}")


def _bisect_1d(ev, box, eps_x, eps_f, max_iter):
    a, b = float(box.lower[0]), float(box.upper[0])
    ends = ev(np.array([[a], [b]]))
    if ends.shape[1] != 1:
        raise InvalidInput("1D localization needs codomain dimension 1")
    fa, fb = float(ends[0, 0]), float(ends[1, 0])
    if fa == 0.0:
        return _finish(ev, np.array([a]), b - a, 0, [], "residual", ends[0])
    if fb == 0.0:
        return _finish(ev, np.array([b]), b - a, 0, [], "residual", ends[1])
    if (fa > 0) == (fb > 0):
        raise DegreeLost((a, b))
    trail = []
    for it in range(1, max_iter + 1):
        mid = 0.5 * (a + b)
        image = ev(np.array([[mid]]))[0]
        fm = float(image[0])
        if (fm > 0) == (fa > 0):
            a, fa = mid, fm
        else:
            b, fb = mid, fm
        trail.append((a, b))
        if abs(fm) <= eps_f:
            return _finish(ev, np.array([mid]), b - a, it, trail, "residual",
                           image)
        if b - a <= eps_x:
            return _finish(ev, np.array([0.5 * (a + b)]), b - a, it, trail,
                           "cell_diameter")
    raise BudgetExhausted("bisection iteration limit reached",
                          best=_finish(ev, np.array([0.5 * (a + b)]), b - a,
                                       max_iter, trail, "budget"))


def _quadtree_2d(ev, box, eps_x, eps_f, max_iter, seed):
    rng = np.random.default_rng(seed)
    lo = box.lower.copy()
    hi = box.upper.copy()
    winding, poly = _wind(ev, _box_boundary(ev, lo, hi))
    if winding == 0:
        raise DegreeLost((lo, hi))
    edges = _split_edges(poly, lo, hi)
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
        center_image, children = _cut_children(ev, lo, hi, edges, center)
        if float(np.linalg.norm(center_image)) <= eps_f:
            return _finish(ev, center, diameter, it - 1, trail, "residual",
                           center_image)
        chosen = None
        for attempt in range(MAX_JIGGLES + 1):
            if attempt:
                cut = center + rng.uniform(-0.1, 0.1, size=2) * (hi - lo)
                _, children = _cut_children(ev, lo, hi, edges, cut)
            try:
                for sub_lo, sub_hi, pieces in children:
                    winding, poly = _wind(ev, np.concatenate(pieces))
                    if winding != 0:
                        chosen = (sub_lo, sub_hi,
                                  _split_edges(poly, sub_lo, sub_hi))
                        break
            except VanishingOnBoundary:
                continue
            if chosen is not None:
                break
        if chosen is None:
            raise DegreeLost((lo, hi))
        lo, hi, edges = chosen
        trail.append((lo.copy(), hi.copy()))
    raise BudgetExhausted("quadtree iteration limit reached",
                          best=_finish(ev, 0.5 * (lo + hi),
                                       float(np.linalg.norm(hi - lo)),
                                       max_iter, trail, "budget"))


def _split_edges(poly, lo, hi):
    """Bottom, right, top and left edge of a counterclockwise box polyline
    that starts at corner lo; each edge runs from its first corner up to,
    not including, the next one."""
    x, y = poly[:, 0], poly[:, 1]
    r = int(np.argmax(x == hi[0]))
    t = r + int(np.argmax(y[r:] == hi[1]))
    left = t + int(np.argmax(x[t:] == lo[0]))
    return [poly[:r], poly[r:t], poly[t:left], poly[left:]]


def _cut_children(ev, lo, hi, edges, cut):
    """The image of ``cut`` and the four sub-boxes of [lo, hi] at it, in
    bisection order, each as (lower, upper, boundary pieces); the pieces
    concatenate to the sub-box boundary, counterclockwise from its lower
    corner.

    One evaluation covers the cut point, the interior samples of the four
    half-cuts from it to the box edges, and each edge cut point that the
    parent edges lack; every other sample is reused from the parent edges.
    """
    ends = np.array([[cut[0], lo[1]], [hi[0], cut[1]],
                     [cut[0], hi[1]], [lo[0], cut[1]]])
    splits, missing = [], []
    for side, edge in enumerate(edges):
        axis = side % 2
        coord = edge[:, axis]
        if side < 2:        # bottom and right edges run up their coordinate
            k = int(np.searchsorted(coord, cut[axis]))
        else:               # top and left edges run down it
            k = len(coord) - int(np.searchsorted(coord[::-1], cut[axis],
                                                 side="right"))
        splits.append(k)
        if k == len(coord) or coord[k] != cut[axis]:
            missing.append(side)
    cross = (cut + _HALF_CUT * (ends - cut)[:, None, :]).reshape(-1, 2)
    pts = np.concatenate((cut[None, :], cross, ends[missing]))
    rows = np.hstack((pts, ev(pts)))
    c = rows[:1]
    hb, hr, ht, hl = rows[1:1 + len(cross)].reshape(4, -1, 4)
    new_heads = iter(rows[1 + len(cross):, None])
    # per edge: the part before its cut point, the cut point, the rest
    parts = []
    for side, (edge, k) in enumerate(zip(edges, splits)):
        if side in missing:
            parts.append((edge[:k], next(new_heads), edge[k:]))
        else:
            parts.append((edge[:k], edge[k:k + 1], edge[k + 1:]))
    (b1, bc, b2), (r1, rc, r2), (t1, tc, t2), (l1, lc, l2) = parts
    return rows[0, 2:], [
        (lo, cut, (b1, bc, hb[::-1], c, hl, lc, l2)),
        (np.array([cut[0], lo[1]]), np.array([hi[0], cut[1]]),
         (bc, b2, r1, rc, hr[::-1], c, hb)),
        (cut, hi, (c, hr, rc, r2, t1, tc, ht[::-1])),
        (np.array([lo[0], cut[1]]), np.array([cut[0], hi[1]]),
         (lc, hl[::-1], c, ht, tc, t2, l1)),
    ]


def _finish(ev, point, diameter, iterations, trail, termination,
            image=None):
    """The result at ``point``; ``image`` is F(point) when the caller has
    just evaluated it, else the point is evaluated here."""
    if image is None:
        image = ev(point[None, :])[0]
    residual = float(np.linalg.norm(image))
    return LocateResult(point=point, residual=residual,
                        cell_diameter=float(diameter), iterations=iterations,
                        trail=trail, termination=termination)


def brouwer_fixed_point(map_like, eps: float = 1e-6,
                        n: Optional[int] = None) -> LocateResult:
    """Fixed point of a continuous self-map f of the unit disk D^n, n in {1,2}.

    Reduces to locating a zero of G(x) = x - f(x): on the boundary sphere G
    never points opposite to x (that would force ||f(x)|| > 1), so existence
    is certified first and then followed by bisection.  The residual of the
    result is ||f(point) - point||.
    """
    from .mapspec import MapSpec
    if n is None:
        if not isinstance(map_like, MapSpec):
            raise InvalidInput("pass n explicitly for callable maps")
        n = map_like.n
    if n not in (1, 2):
        raise InvalidInput("fixed points are located for n in {1, 2}")
    f = as_evaluator(map_like)

    grid_images = f(_disk_validation_grid(n))
    if grid_images.shape[1] != n:
        raise InvalidInput("a self-map needs m = n")
    f_norms = np.linalg.norm(grid_images, axis=1)
    if float(np.max(f_norms)) > 1.0 + 1e-9:
        raise InvalidInput(
            f"map leaves the unit disk (||f|| up to {np.max(f_norms):.6f})")

    g = lambda pts: pts - f(pts)
    cert = certify_existence(g, Region.disk(np.zeros(n), 1.0))
    if cert.verdict == "ZeroOnBoundary":
        # the boundary sample where G vanishes is itself a fixed point
        point = cert.evidence[0].witness
        residual = float(np.linalg.norm(f(point[None, :])[0] - point))
        return LocateResult(point=point, residual=residual, cell_diameter=0.0,
                            iterations=0, trail=[],
                            termination="boundary_fixed_point")
    if cert.verdict != "ZeroGuaranteed":
        raise ZeroCertError(
            f"could not certify a fixed point (verdict {cert.verdict})")
    box = Region.box(-np.ones(n), np.ones(n))
    # ||p - f(p)||, the located residual, is ||f(p) - p|| bit for bit
    return locate_zero(g, box, eps_x=0.5 * eps, eps_f=1e-12, max_iter=200)


def _disk_validation_grid(n: int) -> np.ndarray:
    if n == 1:
        return np.linspace(-1.0, 1.0, 101)[:, None]
    radii = np.linspace(0.0, 1.0, 15)
    angles = np.linspace(0.0, 2.0 * math.pi, 40, endpoint=False)
    rr, aa = np.meshgrid(radii, angles)
    return np.stack([(rr * np.cos(aa)).ravel(), (rr * np.sin(aa)).ravel()],
                    axis=1)
