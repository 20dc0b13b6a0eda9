"""Constructive zero localization once existence is certified.

n=1 uses classical sign bisection; n=2 recursively bisects a box into four
sub-boxes and follows nonzero boundary winding, computed with the shared
angle-step kernel and refinement loop of ``geometry`` (chord midpoints).
When a cut line lands on (or numerically near) a zero, the cut point is
jiggled by a deterministic pseudo-random offset of at most 10% of the cell
size, at most five retries per level.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .criteria import certify_existence
from .errors import (BudgetExhausted, DegreeLost, InvalidInput,
                     VanishingOnBoundary, ZeroCertError)
from .geometry import (MAX_STEP, Region, refine_polyline, sample_sphere,
                       wrapped_steps)
from .mapspec import as_evaluator

SEED_ENV = "ZERO_CERT_SEED"
MAX_JIGGLES = 5


@dataclass(eq=False)
class LocateResult:
    point: np.ndarray
    residual: float                 # ||F(point)||, independently re-evaluated
    cell_diameter: float
    iterations: int
    trail: List[tuple] = field(default_factory=list)
    termination: str = ""           # residual | cell_diameter | boundary_fixed_point


def box_winding(map_like, lower, upper, samples_per_edge: int = 16,
                budget: int = 4096, floor: Optional[float] = None) -> int:
    """Winding of a planar map along a box boundary (counterclockwise).

    Uses the shared pi/2 angle-step refinement loop of the circle winding
    with the chord midpoint rule: bisected perimeter segments stay on the
    boundary because the corner samples separate the edges.
    """
    ev = as_evaluator(map_like)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if lower.shape != (2,) or upper.shape != (2,):
        raise InvalidInput("box winding is planar only")
    corners = np.array([[lower[0], lower[1]], [upper[0], lower[1]],
                        [upper[0], upper[1]], [lower[0], upper[1]]])
    edges = []
    for a, b in zip(corners, np.roll(corners, -1, axis=0)):
        frac = np.linspace(0.0, 1.0, samples_per_edge, endpoint=False)[:, None]
        edges.append(a + frac * (b - a))
    pts = np.concatenate(edges, axis=0)
    ims = np.asarray(ev(pts), dtype=float)
    if ims.shape[1] != 2:
        raise InvalidInput("box winding needs codomain dimension 2")
    if floor is None:
        floor = 1e-12 * (1.0 + float(np.max(np.linalg.norm(ims, axis=1))))
    pts, ims, _ = refine_polyline(pts, ims, ev, lambda a, b: 0.5 * (a + b),
                                  floor=floor, budget=budget)
    steps = wrapped_steps(ims)
    if np.any(np.abs(steps) >= MAX_STEP):
        raise BudgetExhausted("box winding refinement budget exhausted")
    return int(round(float(np.sum(steps)) / (2.0 * math.pi)))


def _resolve_seed(seed):
    if seed is not None:
        return int(seed)
    return int(os.environ.get(SEED_ENV, "0"))


def locate_zero(map_like, box: Region, eps_x: float = 1e-6,
                eps_f: float = 1e-9, max_iter: int = 100,
                seed: Optional[int] = None) -> LocateResult:
    """Approximate a zero inside a box with nonzero boundary obstruction."""
    if box.kind != "box":
        raise InvalidInput("locate_zero needs a box region")
    ev = as_evaluator(map_like)
    if box.dim == 1:
        return _bisect_1d(ev, box, eps_x, eps_f, max_iter)
    if box.dim == 2:
        return _quadtree_2d(ev, box, eps_x, eps_f, max_iter,
                            _resolve_seed(seed))
    raise InvalidInput("localization is implemented for n in {1, 2}")


def _bisect_1d(ev, box, eps_x, eps_f, max_iter):
    a, b = float(box.lower[0]), float(box.upper[0])
    fa = float(ev(np.array([[a]]))[0, 0])
    fb = float(ev(np.array([[b]]))[0, 0])
    if fa == 0.0:
        return _finish(ev, np.array([a]), b - a, 0, [], "residual")
    if fb == 0.0:
        return _finish(ev, np.array([b]), b - a, 0, [], "residual")
    if (fa > 0) == (fb > 0):
        raise DegreeLost((a, b))
    trail = []
    for it in range(1, max_iter + 1):
        mid = 0.5 * (a + b)
        fm = float(ev(np.array([[mid]]))[0, 0])
        if (fm > 0) == (fa > 0):
            a, fa = mid, fm
        else:
            b, fb = mid, fm
        trail.append((a, b))
        if abs(fm) <= eps_f:
            return _finish(ev, np.array([mid]), b - a, it, trail, "residual")
        if b - a <= eps_x:
            return _finish(ev, np.array([0.5 * (a + b)]), b - a, it, trail,
                           "cell_diameter")
    raise BudgetExhausted("bisection iteration limit reached",
                          best=_finish(ev, np.array([0.5 * (a + b)]), b - a,
                                       max_iter, trail, "budget"))


def _subboxes(lo, hi, cut):
    return [
        (np.array([lo[0], lo[1]]), np.array([cut[0], cut[1]])),
        (np.array([cut[0], lo[1]]), np.array([hi[0], cut[1]])),
        (np.array([cut[0], cut[1]]), np.array([hi[0], hi[1]])),
        (np.array([lo[0], cut[1]]), np.array([cut[0], hi[1]])),
    ]


def _quadtree_2d(ev, box, eps_x, eps_f, max_iter, seed):
    rng = np.random.default_rng(seed)
    lo = box.lower.copy()
    hi = box.upper.copy()
    if box_winding(ev, lo, hi) == 0:
        raise DegreeLost((lo, hi))
    trail = []
    for it in range(1, max_iter + 1):
        center = 0.5 * (lo + hi)
        diameter = float(np.linalg.norm(hi - lo))
        residual = float(np.linalg.norm(ev(center[None, :])[0]))
        if residual <= eps_f:
            return _finish(ev, center, diameter, it - 1, trail, "residual")
        if diameter <= eps_x:
            return _finish(ev, center, diameter, it - 1, trail,
                           "cell_diameter")
        chosen = None
        for attempt in range(MAX_JIGGLES + 1):
            if attempt == 0:
                cut = center
            else:
                cut = center + rng.uniform(-0.1, 0.1, size=2) * (hi - lo)
            try:
                for sub_lo, sub_hi in _subboxes(lo, hi, cut):
                    if box_winding(ev, sub_lo, sub_hi) != 0:
                        chosen = (sub_lo, sub_hi)
                        break
            except VanishingOnBoundary:
                continue
            if chosen is not None:
                break
        if chosen is None:
            raise DegreeLost((lo, hi))
        lo, hi = chosen
        trail.append((lo.copy(), hi.copy()))
    raise BudgetExhausted("quadtree iteration limit reached",
                          best=_finish(ev, 0.5 * (lo + hi),
                                       float(np.linalg.norm(hi - lo)),
                                       max_iter, trail, "budget"))


def _finish(ev, point, diameter, iterations, trail, termination):
    residual = float(np.linalg.norm(np.atleast_1d(ev(point[None, :])[0])))
    return LocateResult(point=point, residual=residual,
                        cell_diameter=float(diameter), iterations=iterations,
                        trail=trail, termination=termination)


def brouwer_fixed_point(map_like, eps: float = 1e-6, level: int = 6,
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
        if map_like.m != n:
            raise InvalidInput("a self-map needs m = n")
    if n not in (1, 2):
        raise InvalidInput("fixed points are located for n in {1, 2}")
    f = as_evaluator(map_like)

    grid = _disk_validation_grid(n)
    f_norms = np.linalg.norm(np.asarray(f(grid), dtype=float), axis=1)
    if float(np.max(f_norms)) > 1.0 + 1e-9:
        raise InvalidInput(
            f"map leaves the unit disk (||f|| up to {np.max(f_norms):.6f})")

    g = lambda pts: np.asarray(pts, dtype=float) - np.asarray(f(pts), dtype=float)
    disk = Region.disk(np.zeros(n), 1.0)
    sampling = sample_sphere(disk, level)
    g_boundary = g(sampling.points)
    g_norms = np.linalg.norm(g_boundary, axis=1)
    zero_tol = 1e-12 * (1.0 + float(np.max(g_norms)))
    idx = int(np.argmin(g_norms))
    if g_norms[idx] <= zero_tol:
        point = sampling.points[idx]
        residual = float(np.linalg.norm(np.asarray(f(point[None, :]))[0] - point))
        return LocateResult(point=point, residual=residual, cell_diameter=0.0,
                            iterations=0, trail=[],
                            termination="boundary_fixed_point")

    cert = certify_existence(g, disk, level=level)
    if cert.verdict != "ZeroGuaranteed":
        raise ZeroCertError(
            f"could not certify a fixed point (verdict {cert.verdict})")
    box = Region.box(-np.ones(n), np.ones(n))
    result = locate_zero(g, box, eps_x=0.5 * eps, eps_f=1e-12, max_iter=200)
    residual = float(np.linalg.norm(
        np.asarray(f(result.point[None, :]))[0] - result.point))
    return LocateResult(point=result.point, residual=residual,
                        cell_diameter=result.cell_diameter,
                        iterations=result.iterations, trail=result.trail,
                        termination=result.termination)


def _disk_validation_grid(n: int) -> np.ndarray:
    if n == 1:
        return np.linspace(-1.0, 1.0, 101)[:, None]
    radii = np.linspace(0.0, 1.0, 15)
    angles = np.linspace(0.0, 2.0 * math.pi, 40, endpoint=False)
    rr, aa = np.meshgrid(radii, angles)
    return np.stack([(rr * np.cos(aa)).ravel(), (rr * np.sin(aa)).ravel()],
                    axis=1)
