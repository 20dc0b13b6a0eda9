"""Regions, boundary sampling of spheres, and the disk rescaling homeomorphism.

Boundary samplings are the finite stand-in for the sphere S^{n-1}: an ordered
point list together with its mesh norm h (maximum adjacent-sample distance),
which every downstream rigor bound is stated against.  For n >= 2 the
unit-sphere sampling of each (n, level) is built once and kept, read-only,
in a small LRU cache; a sampling of any other disk is its affine image
x0 + r * unit.
Closed planar polylines also get the one angle-step kernel
(``wrapped_steps``) and the one refinement loop (``refine_polyline``) that
every winding computation uses.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Optional

import numpy as np

from .errors import InvalidInput, VanishingOnBoundary

# absolute part of the hybrid boundary-membership tolerance
BOUNDARY_TOL = 1e-12
MAX_STEP = math.pi / 2.0        # angle steps must stay below this for a
                                # trustworthy discrete angle sum
GAP_BLOCK = 1 << 20             # score entries (8 MB) per nearest-neighbour
                                # block, so memory stays flat as N grows
SPHERE_CACHE = 8                # unit-sphere samplings kept, one per
                                # (n >= 2, level), least recently used dropped
DEFAULT_LEVELS = (6, 2)         # level=None means 6 for n <= 2 (256 circle
                                # points) and 2 for n >= 3 (1600 points)


def _check_finite_field(name, values):
    if not np.all(np.isfinite(values)):
        raise InvalidInput(f"{name} must be finite, got {values}")


@dataclass(frozen=True, eq=False)
class Region:
    """Closed disk D^n_r(x0) or axis-aligned box, the domain of a map."""

    kind: str                      # "disk" | "box"
    dim: int
    center: Optional[np.ndarray] = None
    radius: Optional[float] = None
    lower: Optional[np.ndarray] = None
    upper: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.dim < 1:
            raise InvalidInput(f"dimension must be >= 1, got {self.dim}")
        if self.kind == "disk":
            if self.center is None or self.radius is None:
                raise InvalidInput("disk region needs center and radius")
            if len(self.center) != self.dim:
                raise InvalidInput("center length does not match dim")
            _check_finite_field("center", self.center)
            if not (self.radius > 0 and math.isfinite(self.radius)):
                raise InvalidInput(
                    f"radius must be positive and finite, got {self.radius}")
        elif self.kind == "box":
            if self.lower is None or self.upper is None:
                raise InvalidInput("box region needs lower and upper corners")
            if len(self.lower) != self.dim or len(self.upper) != self.dim:
                raise InvalidInput("corner length does not match dim")
            _check_finite_field("lower corner", self.lower)
            _check_finite_field("upper corner", self.upper)
            if not np.all(self.lower < self.upper):
                raise InvalidInput("box corners must satisfy lower < upper componentwise")
        else:
            raise InvalidInput(f"unknown region kind {self.kind!r}")

    @staticmethod
    def disk(center, radius) -> "Region":
        center = np.asarray(center, dtype=float)
        return Region(kind="disk", dim=len(center), center=center,
                      radius=float(radius))

    @staticmethod
    def box(lower, upper) -> "Region":
        lower = np.asarray(lower, dtype=float)
        upper = np.asarray(upper, dtype=float)
        return Region(kind="box", dim=len(lower), lower=lower, upper=upper)

    @property
    def diameter(self) -> float:
        if self.kind == "disk":
            return 2.0 * self.radius
        return float(np.linalg.norm(self.upper - self.lower))

    def boundary_tolerance(self) -> float:
        scale = self.radius if self.kind == "disk" else 0.5 * self.diameter
        return BOUNDARY_TOL * max(1.0, scale)


@dataclass(frozen=True, eq=False)
class BoundarySampling:
    """Ordered samples on a region boundary with mesh norm h.

    For n = 2 disks the points are in counterclockwise angular order and the
    list is cyclic (``closed``).  The region is kept so refinement can place
    new points back on the exact boundary.
    """

    points: np.ndarray            # (k, n)
    h: float
    level: int
    closed: bool
    region: Region

    def __post_init__(self):
        if self.points.ndim != 2 or self.points.shape[1] != self.region.dim:
            raise InvalidInput("sampling points have wrong shape")
        if self.level < 0:
            raise InvalidInput("level must be >= 0")
        n = self.region.dim
        if self.region.kind == "disk":
            tol = self.region.boundary_tolerance()
            dev = np.abs(np.linalg.norm(self.points - self.region.center, axis=1)
                         - self.region.radius)
            if np.max(dev) > tol:
                raise InvalidInput(
                    f"sample off the boundary by {np.max(dev):.3e} (tol {tol:.3e})")
        if n <= 2:
            recomputed = mesh_norm(self.points, self.closed)
            if abs(recomputed - self.h) > 1e-9 * max(1.0, self.h):
                raise InvalidInput(
                    f"declared h={self.h} does not match recomputed {recomputed}")

    def __len__(self):
        return len(self.points)


def mesh_norm(points: np.ndarray, closed: bool) -> float:
    """Maximum Euclidean distance between adjacent samples."""
    if len(points) < 2:
        return 0.0
    diffs = np.diff(points, axis=0)
    h = float(np.max(np.linalg.norm(diffs, axis=1)))
    if closed:
        h = max(h, float(np.linalg.norm(points[-1] - points[0])))
    return h


def rescale_to_unit(x, region: Region) -> np.ndarray:
    """Map a point of D^n_r(x0) to the unit disk: (x - x0) / r."""
    if region.kind != "disk":
        raise InvalidInput("rescaling is defined for disk regions only")
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != region.dim:
        raise InvalidInput(
            f"point dimension {x.shape[-1]} != region dimension {region.dim}")
    dist = np.linalg.norm(x - region.center, axis=-1)
    if np.any(dist > region.radius + region.boundary_tolerance()):
        raise InvalidInput("point lies outside the disk")
    return (x - region.center) / region.radius


def rescale_from_unit(y, region: Region) -> np.ndarray:
    """Inverse of :func:`rescale_to_unit`: r*y + x0."""
    if region.kind != "disk":
        raise InvalidInput("rescaling is defined for disk regions only")
    y = np.asarray(y, dtype=float)
    if y.shape[-1] != region.dim:
        raise InvalidInput(
            f"point dimension {y.shape[-1]} != region dimension {region.dim}")
    return region.radius * y + region.center


def sample_sphere(region: Region,
                  level: Optional[int] = None) -> BoundarySampling:
    """Sample the boundary sphere of a disk region at a refinement depth.

    n=1 gives the two endpoints x0 + r * (-1, 1) with h = 2r, built on every
    call (they do not depend on ``level``).  n=2 gives 4*2^level equispaced
    angles with the exact chord mesh norm; n>=3 gives 100*4^level
    deterministic low-discrepancy points whose h is an empirical estimate,
    twice the max nearest-neighbor gap (exact and O(N^2), see
    ``_max_nearest_neighbor_gap``).  For n >= 2 the unit-disk sampling of
    each (n, level) is built once and cached (at most SPHERE_CACHE of
    them); its arrays are read-only, and the unit disk gets that object
    itself.  Any other disk gets fresh points x0 + r * unit and
    h = r * unit.h.

    ``level=None`` takes DEFAULT_LEVELS: 6 for n <= 2 and 2 for n >= 3, a
    1600-point mesh that builds in well under a second (level 6 would have
    409,600 points).
    """
    if region.kind != "disk":
        raise InvalidInput("sample_sphere needs a disk region")
    n, x0, r = region.dim, region.center, region.radius
    if level is None:
        level = DEFAULT_LEVELS[n >= 3]
    if level < 0:
        raise InvalidInput("level must be >= 0")
    if n == 1:
        return BoundarySampling(points=x0 + r * np.array([[-1.0], [1.0]]),
                                h=r * 2.0, level=level, closed=False,
                                region=region)
    unit = _unit_sampling(n, level)
    if r == 1.0 and not np.any(x0):
        return unit
    return BoundarySampling(points=x0 + r * unit.points, h=r * unit.h,
                            level=level, closed=unit.closed, region=region)


@functools.lru_cache(maxsize=SPHERE_CACHE)
def _unit_sampling(n: int, level: int) -> BoundarySampling:
    """The read-only sampling of the unit sphere S^{n-1} (n >= 2) at ``level``."""
    if n == 2:
        k = 4 * 2 ** level
        theta = 2.0 * math.pi * np.arange(k) / k
        pts = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        h = 2.0 * math.sin(math.pi / k)
    else:
        count = 100 * 4 ** level
        pts = (_fibonacci_sphere(count) if n == 3
               else _kronecker_sphere(count, n))
        h = 2.0 * _max_nearest_neighbor_gap(pts)
    region = Region.disk(np.zeros(n), 1.0)
    pts.flags.writeable = False
    region.center.flags.writeable = False
    return BoundarySampling(points=pts, h=h, level=level, closed=n == 2,
                            region=region)


def refine(sampling: BoundarySampling) -> BoundarySampling:
    """Halve the mesh: midpoint insertion for n=2 circles, re-sampling otherwise."""
    region = sampling.region
    if region.dim == 2 and sampling.closed:
        pts = sampling.points
        mids = circle_arc_midpoint(pts, np.roll(pts, -1, axis=0), region)
        merged = np.empty((2 * len(pts), 2))
        merged[0::2] = pts
        merged[1::2] = mids
        return BoundarySampling(points=merged, h=mesh_norm(merged, True),
                                level=sampling.level + 1, closed=True,
                                region=region)
    return sample_sphere(region, sampling.level + 1)


def circle_arc_midpoint(a, b, region: Region) -> np.ndarray:
    """Midpoint along the (minor) circle arc between boundary points a and b,
    one pair (2,) or a batch (k, 2) of pairs."""
    a = np.asarray(a, dtype=float)
    mid = 0.5 * (a + np.asarray(b, dtype=float)) - region.center
    norm = np.linalg.norm(mid, axis=-1, keepdims=True)
    antipodal = norm[..., 0] == 0.0
    if np.any(antipodal):
        # antipodal pair: rotate a by 90 degrees as the canonical midpoint
        v = a - region.center
        mid = np.where(antipodal[..., None],
                       np.stack([-v[..., 1], v[..., 0]], axis=-1), mid)
        norm = np.linalg.norm(mid, axis=-1, keepdims=True)
    return region.center + region.radius * (mid / norm)


def check_lipschitz(L: Optional[float]) -> None:
    """A Lipschitz constant as every rigor bound needs it: finite and
    nonnegative, or None for unknown.  Anything else raises InvalidInput,
    because a negative or NaN constant would turn the L*h/2 threshold into
    a bound that every margin passes."""
    if L is not None and not (math.isfinite(L) and L >= 0.0):
        raise InvalidInput(
            f"Lipschitz constant must be finite and >= 0, got {L!r}")


def wrapped_steps(images: np.ndarray) -> np.ndarray:
    """Angle steps of planar images around a closed polyline, each wrapped
    into [-pi, pi); their sum is 2 pi times the winding number."""
    angles = np.arctan2(images[:, 1], images[:, 0])
    steps = np.diff(np.concatenate([angles, angles[:1]]))
    return (steps + math.pi) % (2.0 * math.pi) - math.pi


def refine_polyline(pts, ims, evaluator, midpoint, floor: Optional[float],
                    budget: int):
    """Split the segments of a closed polyline whose image angle step is at
    least MAX_STEP, until none is left or the budget of inserted points runs
    out.

    Each round evaluates all its new points in one batch; ``midpoint(a, b)``
    places them between the batched segment ends a and b.  An image norm at
    or below ``floor`` raises VanishingOnBoundary; a ``floor`` of None means
    1e-12 * (1 + the largest norm of the input images).  Returns the refined
    points, images, insertion count and the wrapped angle steps of those
    images; a step of MAX_STEP or more is left only when ``evaluator`` is
    None or the budget is spent.
    """
    norms = np.linalg.norm(ims, axis=1)
    if floor is None:
        floor = 1e-12 * (1.0 + float(np.max(norms)))
    _check_floor(norms, pts, floor)
    inserted = 0
    while True:
        steps = wrapped_steps(ims)
        bad = np.nonzero(np.abs(steps) >= MAX_STEP)[0]
        if len(bad) == 0 or evaluator is None or inserted >= budget:
            return pts, ims, inserted, steps
        bad = bad[:budget - inserted]
        mids = midpoint(pts[bad], pts[(bad + 1) % len(pts)])
        mid_ims = evaluator(mids)
        _check_floor(np.linalg.norm(mid_ims, axis=1), mids, floor)
        pts = np.insert(pts, bad + 1, mids, axis=0)
        ims = np.insert(ims, bad + 1, mid_ims, axis=0)
        inserted += len(bad)


def _check_floor(norms, pts, floor):
    idx = int(np.argmin(norms))
    if norms[idx] <= floor:
        raise VanishingOnBoundary(idx, point=pts[idx], norm=float(norms[idx]))


def _fibonacci_sphere(count: int) -> np.ndarray:
    i = np.arange(count)
    z = 1.0 - 2.0 * (i + 0.5) / count
    golden = math.pi * (3.0 - math.sqrt(5.0))
    phi = golden * i
    rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)


def _kronecker_sphere(count: int, n: int) -> np.ndarray:
    # additive low-discrepancy recurrence in [0,1)^n, pushed to the sphere
    # through the Gaussian inverse CDF (statistics.NormalDist, one call per
    # entry; built once per (n, level)) and normalization
    gamma = _generalized_golden(n)
    alpha = gamma ** -np.arange(1, n + 1)
    i = np.arange(1, count + 1)[:, None]
    u = np.mod(0.5 + i * alpha[None, :], 1.0)
    u = np.clip(u, 1e-12, 1.0 - 1e-12)
    inv = NormalDist().inv_cdf
    g = np.array([[inv(v) for v in row] for row in u.tolist()])
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def _generalized_golden(d: int) -> float:
    # unique real root > 1 of x^(d+1) = x + 1
    x = 1.5
    for _ in range(64):
        x = (1.0 + x) ** (1.0 / (d + 1))
    return x


def _max_nearest_neighbor_gap(pts: np.ndarray, chunk: int = 512) -> float:
    """Largest distance from a point to its nearest other point, exactly as
    the brute force ``sqrt(min_j np.sum((p_i - p_j) ** 2))`` gives it.

    A Gram screen picks the candidate neighbours of each block of at most
    ``chunk`` rows (fewer when N is large, see GAP_BLOCK), and only those
    are measured with the brute-force formula, so no (rows x N x n)
    difference tensor is built.  With the points centred, q = p - mean and
    s_j = |q_j|^2, one matrix product gives each row the score
    s_j - 2 q_i . q_j, which is |q_i - q_j|^2 up to the row constant
    |q_i|^2.  Its rounding error is at most (4n + 3) u S (S = max s_j,
    u = eps / 2); centring moves a squared distance by at most 8 u S; and a
    brute-force squared distance, at most about 4 S, has a relative error
    of at most (n + 2) u.  So a brute-force nearest neighbour scores within
    (16n + 38) u S of the row's smallest score.  Every column within the
    larger 32 (n + 2) eps S of it is measured, which makes the result
    bit-identical to the brute force.  Columns other than the smallest
    score's one pass this screen only on (near) ties.
    """
    count, n = pts.shape
    q = pts - pts.mean(axis=0)
    sq = np.sum(q * q, axis=1)
    tol = 32.0 * (n + 2) * np.finfo(float).eps * float(np.max(sq))
    rows_ext = np.hstack((q, np.ones((count, 1))))
    cols_ext = np.hstack((-2.0 * q, sq[:, None]))
    chunk = max(1, min(chunk, GAP_BLOCK // count))
    buf = np.empty((min(chunk, count), count))
    worst = 0.0
    for start in range(0, count, chunk):
        stop = min(start + chunk, count)
        rows = np.arange(stop - start)
        score = np.matmul(rows_ext[start:stop], cols_ext.T,
                          out=buf[:stop - start])
        score[rows, start + rows] = np.inf
        best = np.argmin(score, axis=1)
        bound = score[rows, best] + tol
        score[rows, best] = np.inf
        d2 = np.sum((pts[start:stop] - pts[best]) ** 2, axis=-1)
        # rows with another candidate: measure those too
        tied = np.flatnonzero(np.min(score, axis=1) <= bound)
        r, other = np.nonzero(score[tied] <= bound[tied, None])
        i = tied[r]
        np.minimum.at(d2, i,
                      np.sum((pts[start + i] - pts[other]) ** 2, axis=-1))
        worst = max(worst, float(np.max(d2)))
    return math.sqrt(worst)
