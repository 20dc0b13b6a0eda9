"""Sampled homotopies between boundary maps, and the zero-free extension.

A homotopy lives on a finite (sample point, t) grid, held in closed form:
``HomotopyTrace.frame(i, j)`` evaluates any set of grid entries as one
numpy array, and the whole grid is built only when read.  Validity ("the
homotopy misses zero") is certified only up to the grid: heuristically
when the minimum image norm is above the vanishing floor of the frame
norms, rigorously when it also exceeds L*g/2 for a supplied Lipschitz
constant L (of H jointly in (x, t)) and grid diameter g.

A winding-0 planar boundary map F contracts in log-polar coordinates to
its first sample's image, and that contraction, run radially, is a
zero-free extension of F over the disk.  ``log_polar_extension`` is its
one point function, in closed form on Python floats with ``math``
functions: the certificate's witness, and what ``radial_extension``
returns for the t = 0 row of a trace.  Its modulus is a convex
combination of the boundary's log radii, exponentiated, so it is at
least the least |F| at a sample.
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
T_GRID_CACHE = 4                # t-grids kept, one per t_steps, least
                                # recently used dropped


@lru_cache(maxsize=T_GRID_CACHE)
def _t_grid(t_steps: int) -> tuple:
    """(t, 1 - t) for t = linspace(0, 1, t_steps), as read-only arrays."""
    t = np.linspace(0.0, 1.0, t_steps)
    s = 1.0 - t
    t.flags.writeable = s.flags.writeable = False
    return t, s


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
    on first read."""

    base: BoundarySampling
    t_grid: np.ndarray              # ordered, includes 0 and 1
    frame: Callable                 # (i, j) index arrays -> (len, m) images

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
    the frame norms, and with L above L*g/2 too, where L bounds H's
    Lipschitz constant jointly in (x, t) and g = hypot(h, largest t step)
    is the grid's diameter."""
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
    t_grid, _ = _t_grid(t_steps)

    def frame(i, j):
        t = t_grid[i][:, None]
        return (1.0 - t) * f.images[j] + t * g.images[j]

    trace = HomotopyTrace(base=f.sampling, t_grid=t_grid, frame=frame)
    return trace, _report(trace, L)


def _winding_zero_steps(f: SampledMap) -> np.ndarray:
    """The ``wrapped_steps`` of f's images, after checking that f is planar,
    misses 0 at every sample and winds 0 times."""
    if f.m != 2:
        raise InvalidInput("a null homotopy needs a planar codomain")
    if row_norms(f.images).min() <= 0.0:
        raise NotANullHomotopy("map vanishes on a sample")
    steps = wrapped_steps(f.images)
    # np.sum bit for bit, without its dispatch
    turns = round(float(np.add.reduce(steps)) / (2.0 * math.pi))
    if turns != 0:
        raise NotANullHomotopy(f"map has winding {turns}, not contractible")
    return steps


def null_homotopy(f: SampledMap, t_steps: int = 65) -> HomotopyTrace:
    """Contract a winding-zero planar boundary map to a constant.

    Works in log-polar coordinates: radii are interpolated geometrically and
    the (unwrapped) angles linearly, so no frame ever vanishes.  Requires the
    discrete angle sum to close up to a full turn count of zero.  Row 0 is
    the exact boundary images.  At t = 1, s = 1 - t is exactly 0, so every
    entry is the same value, the first sample's image in log-polar form:
    the target of ``log_polar_extension`` too.
    """
    check_count("t_steps", t_steps, 2)
    steps = _winding_zero_steps(f)
    images = np.asarray(f.images, dtype=float)
    lifted = np.arctan2(images[0, 1], images[0, 0]) + np.concatenate(
        [[0.0], np.cumsum(steps[:-1])])
    log_r = np.log(row_norms(images))
    t_grid, s_grid = _t_grid(t_steps)
    r_tail, a_tail = t_grid * log_r[0], t_grid * lifted[0]
    is_row0 = np.arange(t_steps) == 0
    exact = np.ascontiguousarray(images.T)        # row 0 is the exact images

    def frame(i, j):
        s = s_grid[i]
        r = np.exp(s * log_r[j] + r_tail[i])
        a = s * lifted[j] + a_tail[i]
        out = r * np.array([np.cos(a), np.sin(a)])
        return np.where(is_row0[i], exact.take(j, 1), out).T

    return HomotopyTrace(base=f.sampling, t_grid=t_grid, frame=frame)


def radial_extension(H: HomotopyTrace):
    """Zero-free disk extension of the t = 0 row of a contraction.

    Refuses a sampling not of a planar disk (InvalidInput) and a trace whose
    last frame is not one nonzero constant (NotANullHomotopy), then returns
    ``log_polar_extension`` of the t = 0 row on the disk of ``H.base``: a
    function of one point of shape (2,) that matches the row exactly at the
    sampling points.  The row must be planar (InvalidInput), miss 0 and wind
    0 times (NotANullHomotopy).  For ``null_homotopy(f)`` the row is f, so
    on the certificate's disk this is the certificate's witness.
    """
    base = H.base
    if base.region.kind != "disk" or base.region.dim != 2:
        raise InvalidInput(
            "radial extension needs a planar sampling of a disk")
    k = len(base.points)
    last = H.frame(np.full(k, len(H.t_grid) - 1), np.arange(k))
    c = last[0]
    if float(np.max(np.abs(last - c))) > ENDPOINT_TOL:
        raise NotANullHomotopy("final frame is not constant")
    if c.dot(c) <= 0.0:     # np.linalg.norm(c) <= 0.0
        raise NotANullHomotopy("final constant is zero")
    f = SampledMap(sampling=base,
                   images=H.frame(np.zeros(k, dtype=int), np.arange(k)))
    return log_polar_extension(f, _winding_zero_steps(f), base.region)


def log_polar_extension(f: SampledMap, steps, region):
    """The zero-free extension phi of a winding-0 planar boundary map f,
    on the disk ``region``; ``steps`` are the ``wrapped_steps`` of f's
    images, in sample order.

    With rho_j = log|F_j|, theta_j = atan2(F_j) plus the whole turns that
    put it within pi of theta_0 + (the steps before j), a point x has
    y = (x - x0) / r, and its direction lies between the angularly sorted
    samples j and j2 at fraction w of their gap.  With
    s = min(max(2 - 2|y|, 0), 1),
        R = (1 - s)((1 - w) rho_j + w rho_j2) + s rho_0,
    T the same in theta, and phi(x) = e^R (cos T, sin T).  So phi is
    e^rho_0 (cos theta_0, sin theta_0) on the inner half disk, and F_j
    itself where w = 0 and either s = 0 or y is sample j's own rescaled
    point, so phi matches F exactly at the samples.  Each call is O(1) on
    Python floats; a sample's (rho, theta) is computed the first time a
    point needs it, so the build makes O(1) libm calls and the bits do not
    depend on numpy's SIMD dispatch.  A point whose |y|^2 overflows gets the
    value at x0 + 2 r u, u its direction; a point that is not one finite
    real point of shape (2,) raises InvalidInput.  No map is evaluated.
    """
    sampling = f.sampling
    theta0, rel_ang, order = sampling.angular_order
    k, two_pi = len(rel_ang), 2.0 * math.pi
    log, atan2, exp, cos, sin = (math.log, math.atan2, math.exp, math.cos,
                                 math.sin)
    images = f.images
    lift = np.cumsum(steps)             # lift[j - 1]: the steps before j
    a, b = images[0].tolist()
    rho0, ang0 = log(math.hypot(a, b)), atan2(b, a)
    e0 = exp(rho0)
    centre = (e0 * cos(ang0), e0 * sin(ang0))
    log_polar = [None] * k
    log_polar[0] = (rho0, ang0)
    (c0, c1), rad = region.center.tolist(), region.radius
    own = sampling.region       # the disk of the samples' own coordinates
    (o0, o1), o_rad = own.center.tolist(), own.radius

    def sample(j):
        """(rho_j, theta_j), computed on first use."""
        lp = log_polar[j]
        if lp is None:
            a, b = images[j].tolist()
            ang = atan2(b, a)
            turns = round((ang0 + float(lift[j - 1]) - ang) / two_pi)
            lp = log_polar[j] = (log(math.hypot(a, b)), ang + two_pi * turns)
        return lp

    def phi(x):
        a, b = planar_point(x).tolist()
        # (x - x0) / r on Python floats, which overflow without a warning
        y0, y1 = (a - c0) / rad, (b - c1) / rad
        q = y0 * y0 + y1 * y1
        if not math.isfinite(q):
            # |y|^2 overflows: phi depends only on the direction u of so
            # far a point (s clamps to 0), so y = 2u, from quarters of the
            # coordinates, which cannot overflow
            d0, d1 = 0.25 * a - 0.25 * c0, 0.25 * b - 0.25 * c1
            half = 0.5 * math.hypot(d0, d1)
            if not math.isfinite(half):
                raise InvalidInput(f"a point must be finite, got {[a, b]}")
            y0, y1 = d0 / half, d1 / half
            s = 0.0
        elif q < 1.0:
            norm = math.sqrt(q)
            if norm <= 0.5:
                return np.array(centre)
            s = min(2.0 - 2.0 * norm, 1.0)
        else:
            s = 0.0     # |y| >= 1: outside the disk
        ang = (atan2(y1, y0) - theta0) % two_pi
        j = bisect_right(rel_ang, ang) - 1  # >= 0: rel_ang[0] is 0, ang >= 0
        j2 = (j + 1) % k
        width = (rel_ang[j2] - rel_ang[j]) % two_pi
        w = 0.0 if width == 0.0 else ((ang - rel_ang[j]) % two_pi) / width
        j, j2 = order[j], order[j2]
        if w == 0.0:
            if s != 0.0:
                p0, p1 = sampling.points[j].tolist()
                if (y0, y1) == ((p0 - o0) / o_rad, (p1 - o1) / o_rad):
                    s = 0.0     # sample j itself, whose |y| rounds below 1
            if s == 0.0:
                return images[j].copy()
        (rho, theta), (rho2, theta2) = sample(j), sample(j2)
        u, v = 1.0 - s, 1.0 - w
        e = exp(u * (v * rho + w * rho2) + s * rho0)
        t = u * (v * theta + w * theta2) + s * ang0
        return np.array((e * cos(t), e * sin(t)))

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
