"""Sampled homotopies between boundary maps.

A homotopy is stored on a finite (sample point, t) grid.  Validity ("the
homotopy misses zero") is certified only up to the grid: heuristically when
the minimum image norm is positive, rigorously when it exceeds L*g/2 for a
supplied Lipschitz constant L and grid diameter g.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InvalidInput, NotANullHomotopy
from .geometry import BoundarySampling, check_lipschitz, wrapped_steps
from .mapspec import as_evaluator

ENDPOINT_TOL = 1e-9


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
        if not np.all(np.isfinite(self.images)):
            raise InvalidInput("images contain non-finite entries")

    @property
    def m(self) -> int:
        return self.images.shape[1]

    @staticmethod
    def from_evaluator(map_like, sampling: BoundarySampling) -> "SampledMap":
        """Evaluate a MapSpec or callable on ``sampling``; the map is kept
        as its checked evaluator (``mapspec.as_evaluator``)."""
        evaluator = as_evaluator(map_like)
        images = evaluator(sampling.points)
        return SampledMap(sampling=sampling, images=images,
                          evaluator=evaluator)


@dataclass(frozen=True, eq=False)
class HomotopyTrace:
    base: BoundarySampling
    t_grid: np.ndarray              # ordered, includes 0 and 1
    frames: np.ndarray              # (T, k, m)
    min_norm: float
    witness: Optional[tuple]        # (point index, t index) attaining min_norm


@dataclass(frozen=True)
class ValidityReport:
    valid: bool
    min_norm: float
    witness: Optional[tuple]
    rigor: str                      # "heuristic" | "rigorous"
    threshold: float = 0.0


def _make_trace(base, t_grid, frames) -> HomotopyTrace:
    norms = np.linalg.norm(frames, axis=2)
    t_idx, p_idx = np.unravel_index(int(np.argmin(norms)), norms.shape)
    return HomotopyTrace(base=base, t_grid=np.asarray(t_grid, dtype=float),
                         frames=np.asarray(frames, dtype=float),
                         min_norm=float(norms[t_idx, p_idx]),
                         witness=(int(p_idx), int(t_idx)))


def _report(trace: HomotopyTrace, L: Optional[float]) -> ValidityReport:
    if L is None:
        return ValidityReport(valid=trace.min_norm > 0.0,
                              min_norm=trace.min_norm, witness=trace.witness,
                              rigor="heuristic")
    dt = float(np.max(np.diff(trace.t_grid))) if len(trace.t_grid) > 1 else 0.0
    g = math.hypot(trace.base.h, dt)
    threshold = L * g / 2.0
    return ValidityReport(valid=trace.min_norm > threshold,
                          min_norm=trace.min_norm, witness=trace.witness,
                          rigor="rigorous", threshold=threshold)


def straight_line(f: SampledMap, g: SampledMap, t_steps: int,
                  L: Optional[float] = None):
    """Linear interpolation homotopy H(x,t) = (1-t) f(x) + t g(x)."""
    check_lipschitz(L)
    if t_steps < 2:
        raise InvalidInput("t_steps must be >= 2")
    if f.m != g.m:
        raise InvalidInput("codomain dimensions differ")
    if f.sampling is not g.sampling and (
            f.sampling.points.shape != g.sampling.points.shape
            or not np.allclose(f.sampling.points, g.sampling.points,
                               atol=1e-12)):
        raise InvalidInput("maps are sampled on different boundary points")
    t_grid = np.linspace(0.0, 1.0, t_steps)
    frames = ((1.0 - t_grid)[:, None, None] * f.images[None]
              + t_grid[:, None, None] * g.images[None])
    trace = _make_trace(f.sampling, t_grid, frames)
    return trace, _report(trace, L)


def null_homotopy(f: SampledMap, t_steps: int = 65) -> HomotopyTrace:
    """Contract a winding-zero planar boundary map to a constant.

    Works in log-polar coordinates: radii are interpolated geometrically and
    the (unwrapped) angles linearly, so no frame ever vanishes.  Requires the
    discrete angle sum to close up to a full turn count of zero.
    """
    if f.m != 2:
        raise InvalidInput("null_homotopy needs a planar codomain")
    norms = np.linalg.norm(f.images, axis=1)
    if np.min(norms) <= 0.0:
        raise NotANullHomotopy("map vanishes on a sample")
    steps = wrapped_steps(f.images)
    turns = round(float(np.sum(steps)) / (2.0 * math.pi))
    if turns != 0:
        raise NotANullHomotopy(f"map has winding {turns}, not contractible")
    angle0 = np.arctan2(f.images[0, 1], f.images[0, 0])
    lifted = angle0 + np.concatenate([[0.0], np.cumsum(steps[:-1])])
    log_r = np.log(norms)
    target_log_r = float(np.mean(log_r))
    target_angle = float(np.mean(lifted))
    t_grid = np.linspace(0.0, 1.0, t_steps)
    t = t_grid[:, None]
    r = np.exp((1.0 - t) * log_r + t * target_log_r)
    a = (1.0 - t) * lifted + t * target_angle
    frames = np.stack([r * np.cos(a), r * np.sin(a)], axis=2)
    frames[0] = f.images   # exact endpoint agreement
    return _make_trace(f.sampling, t_grid, frames)


def radial_extension(H: HomotopyTrace):
    """Zero-free disk extension built from a null-homotopy of the boundary map.

    Returns an evaluator phi on the unit disk: constant on the inner half
    disk, and the homotopy frames (bilinearly interpolated in angle and t)
    on the annulus, matching the boundary map exactly at sampling points.
    """
    last = H.frames[-1]
    c = last[0].copy()
    if float(np.max(np.abs(last - c))) > ENDPOINT_TOL:
        raise NotANullHomotopy("final frame is not constant")
    if np.linalg.norm(c) <= 0.0:
        raise NotANullHomotopy("final constant is zero")
    region = H.base.region
    rel = (H.base.points - region.center) / region.radius
    angles = np.arctan2(rel[:, 1], rel[:, 0])
    theta0 = angles[0]
    rel_ang = np.mod(angles - theta0, 2.0 * math.pi)
    order = np.argsort(rel_ang)
    rel_ang = rel_ang[order]
    frames = H.frames[:, order, :]
    t_grid = H.t_grid
    k = len(rel_ang)

    def phi(x):
        x = np.asarray(x, dtype=float)
        r = float(np.linalg.norm(x))
        if r <= 0.5:
            return c.copy()
        t = min(max(2.0 - 2.0 * r, 0.0), 1.0)
        theta = math.atan2(x[1], x[0])
        a = (theta - theta0) % (2.0 * math.pi)
        j = int(np.searchsorted(rel_ang, a, side="right")) - 1
        if j < 0:
            j = k - 1
        j2 = (j + 1) % k
        width = (rel_ang[j2] - rel_ang[j]) % (2.0 * math.pi)
        if width == 0.0:
            w = 0.0
        else:
            w = ((a - rel_ang[j]) % (2.0 * math.pi)) / width
        i = int(np.searchsorted(t_grid, t, side="right")) - 1
        i = min(max(i, 0), len(t_grid) - 2)
        span = t_grid[i + 1] - t_grid[i]
        s = (t - t_grid[i]) / span if span > 0 else 0.0
        lo = (1.0 - w) * frames[i, j] + w * frames[i, j2]
        hi = (1.0 - w) * frames[i + 1, j] + w * frames[i + 1, j2]
        return (1.0 - s) * lo + s * hi

    return phi

