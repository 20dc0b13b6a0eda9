"""Sampled homotopies between boundary maps.

A homotopy lives on a finite (sample point, t) grid, held in closed form
twice: ``HomotopyTrace.frame(i, j)`` evaluates any set of grid entries as
one numpy array, and ``HomotopyTrace.corners(i, j, j2)`` the four entries
of one grid cell as Python floats; the whole grid is built only when read.
Validity ("the homotopy misses zero") is certified only up to the grid:
heuristically when the minimum image norm is above the vanishing floor of
the frame norms, rigorously when it also exceeds L*g/2 for a supplied
Lipschitz constant L and grid diameter g.  One point function is the
zero-free extension of a null homotopy, on a disk in its own coordinates:
``radial_extension`` returns it on the sampling's disk, a certificate's
witness on the certificate's.  It blends one cell's ``corners`` per point
and reads a null homotopy's recorded t = 1 value, ``end``, for the centre.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import InvalidInput, NotANullHomotopy
from .geometry import (BoundarySampling, check_count, check_lipschitz,
                       row_norms, vanishing_floor, wrapped_steps)
from .mapspec import as_evaluator

ENDPOINT_TOL = 1e-9
T_STEPS = 65                    # null_homotopy's default t-grid size
T_GRID_CACHE = 4                # t-grids kept, one per t_steps, least
                                # recently used dropped


@lru_cache(maxsize=T_GRID_CACHE)
def _t_grid(t_steps: int) -> tuple:
    """(t, 1 - t, t as a list, 1 - t as a list) for t = linspace(0, 1,
    t_steps): read-only arrays and tuples of Python floats."""
    t = np.linspace(0.0, 1.0, t_steps)
    s = 1.0 - t
    t.flags.writeable = s.flags.writeable = False
    return t, s, tuple(t.tolist()), tuple(s.tolist())


@dataclass(frozen=True, eq=False)
class SampledMap:
    """Boundary map restricted to a sampling; optionally re-queryable."""

    sampling: BoundarySampling
    images: np.ndarray              # (k, m)
    evaluator: Optional[Callable] = None   # batch evaluator (k,n)->(k,m)

    def __post_init__(self):
        if self.images.ndim != 2:
            raise InvalidInput("image array must be 2-D")
        if len(self.images) != len(self.sampling.points):
            raise InvalidInput("images and sampling points differ in length")
        if not np.isfinite(self.images).all():
            raise InvalidInput("images contain non-finite entries")

    @property
    def m(self) -> int:
        return self.images.shape[1]

    @staticmethod
    def from_evaluator(map_like, sampling: BoundarySampling) -> "SampledMap":
        """Evaluate a MapSpec or callable on ``sampling``; the map is kept
        as its checked evaluator (``mapspec.as_evaluator``)."""
        evaluator = as_evaluator(map_like, sampling.region.dim)
        images = evaluator(sampling.points)
        return SampledMap(sampling=sampling, images=images,
                          evaluator=evaluator)


@dataclass(frozen=True, eq=False)
class HomotopyTrace:
    """H(x_j, t_i) on the grid of ``base.points`` and ``t_grid``.

    ``frame(i, j)`` takes two integer index arrays of one length and returns
    the images H(x_j, t_i) of those pairs, shape (length, m).  ``frames``
    (the (T, k, m) grid), ``min_norm`` and ``witness`` are computed from it
    on first read.  ``corners(i, j, j2)`` takes integers and returns the
    entries (i, j), (i, j2), (i+1, j) and (i+1, j2), each a list of m
    Python floats equal bit for bit to the same entries of ``frame``; it is
    the single-point path of ``radial_extension``.  ``end``, when set, is
    the last frame's one value, equal bit for bit to each of its entries
    (a read-only (m,) array); None when the last frame need not be
    constant."""

    base: BoundarySampling
    t_grid: np.ndarray              # ordered, includes 0 and 1
    frame: Callable                 # (i, j) index arrays -> (len, m) images
    corners: Callable               # (i, j, j2) ints -> four m-lists
    end: Optional[np.ndarray] = None

    @cached_property
    def frames(self) -> np.ndarray:
        T, k = len(self.t_grid), len(self.base.points)
        return self.frame(np.repeat(np.arange(T), k),
                          np.tile(np.arange(k), T)).reshape(T, k, -1)

    @cached_property
    def _least(self) -> tuple:
        """(min_norm, witness, vanishing_floor of all frame norms)."""
        norms = np.linalg.norm(self.frames, axis=2)
        t_idx, p_idx = np.unravel_index(int(np.argmin(norms)), norms.shape)
        return (float(norms[t_idx, p_idx]), (int(p_idx), int(t_idx)),
                vanishing_floor(norms.ravel()))

    @property
    def min_norm(self) -> float:
        return self._least[0]

    @property
    def witness(self) -> tuple:
        """(point index, t index) attaining ``min_norm``."""
        return self._least[1]


@dataclass(frozen=True)
class ValidityReport:
    valid: bool
    min_norm: float
    witness: Optional[tuple]
    rigor: str                      # "heuristic" | "rigorous"
    threshold: float = 0.0


def _report(trace: HomotopyTrace, L: Optional[float]) -> ValidityReport:
    """Valid when the smallest frame norm is above the vanishing_floor of
    the frame norms, and with L above L*g/2 too."""
    least, witness, floor = trace._least
    threshold, rigor = floor, "heuristic"
    if L is not None:
        dt = float(np.max(np.diff(trace.t_grid)))
        threshold, rigor = L * math.hypot(trace.base.h, dt) / 2.0, "rigorous"
    return ValidityReport(valid=least > max(floor, threshold),
                          min_norm=least, witness=witness, rigor=rigor,
                          threshold=threshold)


def straight_line(f: SampledMap, g: SampledMap, t_steps: int,
                  L: Optional[float] = None):
    """Linear interpolation homotopy H(x,t) = (1-t) f(x) + t g(x)."""
    check_lipschitz(L)
    check_count("t_steps", t_steps, 2)
    if f.m != g.m:
        raise InvalidInput("codomain dimensions differ")
    if f.sampling is not g.sampling and (
            f.sampling.points.shape != g.sampling.points.shape
            or not np.allclose(f.sampling.points, g.sampling.points,
                               atol=1e-12)):
        raise InvalidInput("maps are sampled on different boundary points")
    t_grid, _, t_list, _ = _t_grid(t_steps)

    def frame(i, j):
        t = t_grid[i][:, None]
        return (1.0 - t) * f.images[j] + t * g.images[j]

    def corners(i, j, j2):
        fs, gs = f.images[[j, j2]], g.images[[j, j2]]
        lo, hi = [((1.0 - t) * fs + t * gs).tolist()
                  for t in t_list[i:i + 2]]
        return lo + hi

    trace = HomotopyTrace(base=f.sampling, t_grid=t_grid, frame=frame,
                          corners=corners)
    return trace, _report(trace, L)


def null_homotopy(f: SampledMap, t_steps: int = T_STEPS) -> HomotopyTrace:
    """Contract a winding-zero planar boundary map to a constant.

    Works in log-polar coordinates: radii are interpolated geometrically and
    the (unwrapped) angles linearly, so no frame ever vanishes.  Requires the
    discrete angle sum to close up to a full turn count of zero.  Row 0 is
    the exact boundary images.  At t = 1, s = 1 - t is exactly 0, so every
    entry is the same exp(mean log radius) at the mean angle: the trace
    records it as ``end``.
    """
    return _null_homotopy(f, t_steps, None)


def _null_homotopy(f: SampledMap, t_steps: int, steps) -> HomotopyTrace:
    """null_homotopy of ``f``; ``steps``, when not None, are the
    ``wrapped_steps`` of its images, which a WindingResult holds."""
    check_count("t_steps", t_steps, 2)
    if f.m != 2:
        raise InvalidInput("null_homotopy needs a planar codomain")
    # np.sum and np.mean bit for bit, without their dispatch
    images, k = np.asarray(f.images, dtype=float), len(f.images)
    norms = row_norms(images)
    if norms.min() <= 0.0:
        raise NotANullHomotopy("map vanishes on a sample")
    if steps is None:
        steps = wrapped_steps(images)
    turns = round(float(np.add.reduce(steps)) / (2.0 * math.pi))
    if turns != 0:
        raise NotANullHomotopy(f"map has winding {turns}, not contractible")
    angle0 = np.arctan2(images[0, 1], images[0, 0])
    lifted = angle0 + np.concatenate([[0.0], np.cumsum(steps[:-1])])
    log_r = np.log(norms)
    target_log_r = float(np.add.reduce(log_r)) / k
    target_angle = float(np.add.reduce(lifted)) / k
    t_grid, s_grid, _, s_list = _t_grid(t_steps)
    r_tail, a_tail = t_grid * target_log_r, t_grid * target_angle
    is_row0 = np.arange(t_steps) == 0
    exact = np.ascontiguousarray(images.T)        # row 0 is the exact images

    def frame(i, j):
        s = s_grid[i]
        r = np.exp(s * log_r[j] + r_tail[i])
        a = s * lifted[j] + a_tail[i]
        out = r * np.array([np.cos(a), np.sin(a)])
        return np.where(is_row0[i], exact.take(j, 1), out).T

    # the same arithmetic on Python floats; exp stays numpy's, which rounds
    # unlike math.exp, while math.cos and math.sin agree with numpy's
    r_list, a_list = r_tail.tolist(), a_tail.tolist()
    lr_list, lf_list = log_r.tolist(), lifted.tolist()
    exp, cos, sin = np.exp, math.cos, math.sin

    def corners(i, j, j2):
        s0, s1 = s_list[i], s_list[i + 1]
        r0, r1 = r_list[i], r_list[i + 1]
        a0, a1 = a_list[i], a_list[i + 1]
        lr, lr2, ang, ang2 = lr_list[j], lr_list[j2], lf_list[j], lf_list[j2]
        radii = exp([s0 * lr + r0, s0 * lr2 + r0,
                     s1 * lr + r1, s1 * lr2 + r1]).tolist()
        out = [[r * cos(a), r * sin(a)] for r, a in zip(
            radii, (s0 * ang + a0, s0 * ang2 + a0, s1 * ang + a1,
                    s1 * ang2 + a1))]
        if i == 0:
            out[0], out[1] = images[j].tolist(), images[j2].tolist()
        return out

    # s_list[-1] * x is a zero, which leaves the tail's value unchanged
    end = np.array(corners(t_steps - 2, 0, 0)[2])
    end.flags.writeable = False
    return HomotopyTrace(base=f.sampling, t_grid=t_grid, frame=frame,
                         corners=corners, end=end)


def radial_extension(H: HomotopyTrace):
    """Zero-free disk extension built from a null-homotopy of the boundary map.

    Returns an evaluator phi of one real point of shape (2,) in the
    coordinates of the disk of ``H.base``: constant on the inner half disk,
    and the homotopy frames (bilinearly interpolated in angle and t) on the
    annulus, matching the boundary map exactly at sampling points.  The
    constant is ``H.end``; only a trace without one (``straight_line``) has
    its last frame built and checked to be constant.  phi blends the four
    Python-float entries of ``H.corners`` for the point's grid cell and
    evaluates no map; a point whose rescaled squared norm overflows gets the
    value of its direction.  A sampling not of a planar disk is refused.
    """
    return _extension(H, H.base.region)


def null_extension(f: SampledMap, steps, region):
    """``_extension`` of ``null_homotopy(f)`` on the disk ``region``, where
    ``steps`` are the ``wrapped_steps`` of f's images."""
    return _extension(_null_homotopy(f, T_STEPS, steps), region)


def _extension(H: HomotopyTrace, region):
    """radial_extension's point function phi of ``H``, taking points of the
    disk ``region`` and rescaling them onto the unit disk."""
    if H.base.region.kind != "disk" or H.base.region.dim != 2:
        raise InvalidInput(
            "radial extension needs a planar sampling of a disk")
    c = H.end
    if c is None:
        k = len(H.base.points)
        last = H.frame(np.full(k, len(H.t_grid) - 1), np.arange(k))
        c = last[0].copy()
        if float(np.max(np.abs(last - c))) > ENDPOINT_TOL:
            raise NotANullHomotopy("final frame is not constant")
    if c.dot(c) <= 0.0:     # np.linalg.norm(c) <= 0.0
        raise NotANullHomotopy("final constant is zero")
    # the scalar work runs on Python floats, which round as numpy does
    theta0, rel_ang, order = H.base.angular_order
    t_list = H.t_grid.tolist()
    corners, two_pi, k = H.corners, 2.0 * math.pi, len(rel_ang)
    last_cell, planar = len(t_list) - 2, len(c) == 2
    (c0, c1), rad = region.center.tolist(), region.radius

    def phi(x):
        a, b = planar_point(x).tolist()
        # (x - x0) / r on Python floats, which overflow without a warning
        y0, y1 = (a - c0) / rad, (b - c1) / rad
        if not math.isfinite(y0 * y0 + y1 * y1):
            # |y|^2 overflows: phi depends only on the direction u of so
            # far a point (t clamps to 0), so y = 2u, from quarters of the
            # coordinates, which cannot overflow
            d0, d1 = 0.25 * a - 0.25 * c0, 0.25 * b - 0.25 * c1
            half = 0.5 * math.hypot(d0, d1)
            if not math.isfinite(half):
                raise InvalidInput(f"a point must be finite, got {[a, b]}")
            y0, y1 = d0 / half, d1 / half
        if abs(y0) < 1.0 and abs(y1) < 1.0:
            y = np.array((y0, y1))
            r = math.sqrt(y.dot(y))     # np.linalg.norm, bit for bit
            if r <= 0.5:
                return c.copy()
            t = min(max(2.0 - 2.0 * r, 0.0), 1.0)
        else:
            t = 0.0     # |y| >= 1: outside the disk, with no norm taken
        ang = (math.atan2(y1, y0) - theta0) % two_pi
        j = bisect_right(rel_ang, ang) - 1  # >= 0: rel_ang[0] is 0, ang >= 0
        j2 = (j + 1) % k
        width = (rel_ang[j2] - rel_ang[j]) % two_pi
        if width == 0.0:
            w = 0.0
        else:
            w = ((ang - rel_ang[j]) % two_pi) / width
        i = min(max(bisect_right(t_list, t) - 1, 0), last_cell)
        span = t_list[i + 1] - t_list[i]
        s = (t - t_list[i]) / span if span > 0 else 0.0
        u, v = 1.0 - w, 1.0 - s
        cell = corners(i, order[j], order[j2])
        if planar:
            (p0, q0), (p1, q1), (p2, q2), (p3, q3) = cell
            return np.array([v * (u * p0 + w * p1) + s * (u * p2 + w * p3),
                             v * (u * q0 + w * q1) + s * (u * q2 + w * q3)])
        return np.array([v * (u * f00 + w * f01) + s * (u * f10 + w * f11)
                         for f00, f01, f10, f11 in zip(*cell)])

    return phi


def planar_point(x) -> np.ndarray:
    """``x`` as a float64 array of shape (2,), or InvalidInput unless it is
    one real point (finiteness is the caller's check)."""
    try:
        x = np.asarray(x, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"a point must be real, got {x!r}") from exc
    if x.shape != (2,):
        raise InvalidInput(f"a point must have shape (2,), got {x.shape}")
    return x
