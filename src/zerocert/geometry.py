"""Regions and boundary sampling of spheres.

Boundary samplings are the finite stand-in for the sphere S^{n-1}: an ordered
point list together with its mesh norm h, which every downstream rigor bound
is stated against.  For n <= 2 h is the largest adjacent-sample distance;
for n >= 3 the samples are a cubed sphere (Ronchi, Iacono & Paolucci 1996)
and h/2 is a proven covering radius: every sphere point lies within h/2 of
a sample.  The unit-sphere sampling of each (n, level) is built once and
kept, read-only (for n >= 2 in a small LRU cache); a sampling of any other
disk is its affine image x0 + r * unit.  A planar sampling sorts its
samples by angle once, on first read of ``angular_order``.
Closed planar polylines also get the one angle-step kernel
(``wrapped_steps``) and the one refinement loop (``refine_polyline``) that
every winding computation uses; ``vanishing_floor`` is the one rule by
which any boundary check says that a map vanishes, and ``row_norms`` the
one row-norm helper.
"""
from __future__ import annotations

import functools
import math
import numbers
import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidInput, VanishingOnBoundary

# absolute part of the hybrid boundary-membership tolerance
BOUNDARY_TOL = 1e-12
MAX_STEP = math.pi / 2.0        # angle steps must stay below this for a
                                # trustworthy discrete angle sum
SPHERE_CACHE = 8                # unit-sphere samplings kept, one per
                                # (n >= 2, level), least recently used dropped
DEFAULT_LEVELS = (6, 2)         # level=None means 6 for n <= 2 (256 circle
                                # points) and 2 for n >= 3 (1536 for n = 3)


def _check_finite_vector(name, values):
    finite = np.isfinite(values)
    if finite.ndim != 1:
        raise InvalidInput(f"{name} must be 1-D, got shape {finite.shape}")
    if not finite.all():
        raise InvalidInput(f"{name} must be finite, got {values}")


def row_norms(a: np.ndarray) -> np.ndarray:
    """The Euclidean norms of the rows of a real 2-D array:
    np.linalg.norm(a, axis=1) bit for bit, without its dispatch.

    That norm casts an array that is not floating point to float, then takes
    the square root of np.add.reduce of the squares along the rows.  Below 8
    columns numpy's reduction adds them one after another, left to right,
    which is the column sum here; from 8 columns on it sums pairwise, and
    the reduction itself is kept."""
    if a.dtype.kind != "f":
        a = a.astype(float)     # an integer square would wrap
    sq = a * a
    if not 0 < sq.shape[1] < 8:
        return np.sqrt(np.add.reduce(sq, axis=1))
    total = sq[:, 0]
    for j in range(1, sq.shape[1]):
        total = total + sq[:, j]
    return np.sqrt(total)


@dataclass(frozen=True, eq=False)
class Region:
    """Closed disk D^n_r(x0) or axis-aligned box, the domain of a map."""

    kind: str                      # "disk" | "box"
    center: Optional[np.ndarray] = None
    radius: Optional[float] = None
    lower: Optional[np.ndarray] = None
    upper: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind == "disk":
            if self.center is None or self.radius is None:
                raise InvalidInput("disk region needs center and radius")
            _check_finite_vector("center", self.center)
            if not isinstance(self.radius, numbers.Real):
                raise InvalidInput(
                    f"radius must be a real scalar, got {self.radius!r}")
            if not (self.radius > 0 and math.isfinite(self.radius)):
                raise InvalidInput(
                    f"radius must be positive and finite, got {self.radius}")
        elif self.kind == "box":
            if self.lower is None or self.upper is None:
                raise InvalidInput("box region needs lower and upper corners")
            _check_finite_vector("lower corner", self.lower)
            _check_finite_vector("upper corner", self.upper)
            if len(self.lower) != len(self.upper):
                raise InvalidInput("corner length does not match dim")
            if not np.all(self.lower < self.upper):
                raise InvalidInput("box corners must satisfy lower < upper componentwise")
        else:
            raise InvalidInput(f"unknown region kind {self.kind!r}")
        if self.dim < 1:
            raise InvalidInput(f"dimension must be >= 1, got {self.dim}")

    @staticmethod
    def disk(center, radius) -> "Region":
        center = np.asarray(center, dtype=float)
        try:
            radius = float(radius)
        except (TypeError, ValueError):
            raise InvalidInput(
                f"radius must be a real scalar, got {radius!r}") from None
        return Region(kind="disk", center=center, radius=radius)

    @staticmethod
    def box(lower, upper) -> "Region":
        lower = np.asarray(lower, dtype=float)
        upper = np.asarray(upper, dtype=float)
        return Region(kind="box", lower=lower, upper=upper)

    @property
    def dim(self) -> int:
        return len(self.center if self.kind == "disk" else self.lower)

    @property
    def diameter(self) -> float:
        if self.kind == "disk":
            return 2.0 * self.radius
        # upper - lower, or the sum of its squares, may overflow to inf
        with np.errstate(over="ignore"):
            return float(np.linalg.norm(self.upper - self.lower))

    def boundary_tolerance(self) -> float:
        scale = self.radius if self.kind == "disk" else 0.5 * self.diameter
        return BOUNDARY_TOL * max(1.0, scale)


@dataclass(frozen=True, eq=False)
class BoundarySampling:
    """Ordered samples on a region boundary with mesh norm h.

    For n <= 2 h is the largest distance between cyclically adjacent
    samples; for n >= 3 every point of the sphere lies within h/2 of a
    sample.  For n = 2 disks the points are in counterclockwise angular
    order and the list is cyclic.  The region is kept so refinement can
    place new points back on the exact boundary.
    """

    points: np.ndarray            # (k, n)
    h: float
    region: Region

    def __post_init__(self):
        if self.points.ndim != 2 or self.points.shape[1] != self.region.dim:
            raise InvalidInput("sampling points have wrong shape")
        n = self.region.dim
        if self.region.kind == "disk":
            tol = self.region.boundary_tolerance()
            dev = np.abs(row_norms(self.points - self.region.center)
                         - self.region.radius)
            if np.max(dev) > tol:
                raise InvalidInput(
                    f"sample off the boundary by {np.max(dev):.3e} (tol {tol:.3e})")
        if n <= 2:
            recomputed = mesh_norm(self.points)
            if abs(recomputed - self.h) > 1e-9 * max(1.0, self.h):
                raise InvalidInput(
                    f"declared h={self.h} does not match recomputed {recomputed}")

    def __len__(self):
        return len(self.points)

    @functools.cached_property
    def angular_order(self) -> tuple:
        """For n = 2, (theta0, angles, order), computed on first read:
        the first sample's angle about the centre, the samples' angles from
        it in [0, 2 pi) sorted, and their stable sorting order.  The angles
        are math.atan2's on Python floats, so they do not depend on numpy's
        SIMD dispatch."""
        rel = (self.points - self.region.center) / self.region.radius
        angles = list(map(math.atan2, rel[:, 1].tolist(), rel[:, 0].tolist()))
        theta0, two_pi = angles[0], 2.0 * math.pi
        rel_ang = [(a - theta0) % two_pi for a in angles]
        order = sorted(range(len(rel_ang)), key=rel_ang.__getitem__)
        return theta0, tuple(map(rel_ang.__getitem__, order)), tuple(order)


def mesh_norm(points: np.ndarray) -> float:
    """Maximum Euclidean distance between cyclically adjacent samples (for
    the two points of S^0 the closing gap is the one gap)."""
    if len(points) < 2:
        return 0.0
    diffs = np.diff(points, axis=0)
    h = float(np.max(row_norms(diffs)))
    return max(h, float(np.linalg.norm(points[-1] - points[0])))


def sample_sphere(region: Region,
                  level: Optional[int] = None) -> BoundarySampling:
    """Sample the boundary sphere of a disk region at a refinement depth:
    the affine image x0 + r * unit of ``unit_sphere(n, level)``, with
    h = r * unit.h.  The unit disk gets that read-only object itself; any
    other disk gets fresh points."""
    if region.kind != "disk":
        raise InvalidInput("sample_sphere needs a disk region")
    n, x0, r = region.dim, region.center, region.radius
    unit = unit_sphere(n, level)
    if r == 1.0 and not np.any(x0):
        return unit
    return BoundarySampling(points=x0 + r * unit.points, h=r * unit.h,
                            region=region)


def unit_sphere(n: int, level: Optional[int] = None) -> BoundarySampling:
    """The read-only sampling of the unit sphere S^{n-1} at ``level``.

    n=1 gives the two endpoints (-1, 1) with h = 2 at every level.  n=2
    gives 4*2^level equispaced angles with the exact chord mesh norm; n>=3
    the cubed sphere of ``_cubed_sphere``, at most max(100*4^level, 2n)
    points, whose h/2 is a proven covering radius.  For n >= 2 each
    (n, level) is built once and cached (at most SPHERE_CACHE of them).
    ``level=None`` takes DEFAULT_LEVELS: 6 for n <= 2 and 2 for n >= 3,
    1536 points for n = 3 (level 6 would have up to 409,600).

    For n >= 3 a level is a point budget, not a refinement step: when the
    next budget admits no finer grid, consecutive levels give the same
    mesh and the same h.  n = 6 has 384 points with h = sqrt(5) at levels
    1 and 2, and n = 8 the same 16 points at levels 0-2.  So h never grows
    with the level, but it need not shrink.
    """
    if level is None:
        level = DEFAULT_LEVELS[n >= 3]
    check_count("level", level, 0)
    return _UNIT_S0 if n == 1 else _unit_sampling(n, level)


@functools.lru_cache(maxsize=SPHERE_CACHE)
def _unit_sampling(n: int, level: int) -> BoundarySampling:
    if n == 1:
        pts, h = np.array([[-1.0], [1.0]]), 2.0
    elif n == 2:
        k = 4 * 2 ** level
        theta = 2.0 * math.pi * np.arange(k) / k
        pts = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        h = 2.0 * math.sin(math.pi / k)
    else:
        pts, h = _cubed_sphere(n, level)
    region = Region.disk(np.zeros(n), 1.0)
    pts.flags.writeable = False
    region.center.flags.writeable = False
    return BoundarySampling(points=pts, h=h, region=region)


# S^0 is the same at every level: built once, outside the cache
_UNIT_S0 = _unit_sampling.__wrapped__(1, 0)


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


def check_count(name: str, value, least: int) -> None:
    """InvalidInput unless ``value`` is an integer (``operator.index``
    takes it), not a bool, of at least ``least``: a NaN or fractional count
    passes a bare comparison and fails later, or is silently truncated."""
    try:
        if isinstance(value, bool):
            raise TypeError
        operator.index(value)
    except TypeError:
        raise InvalidInput(
            f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise InvalidInput(f"{name} must be >= {least}, got {value!r}")


def wrapped_steps(images: np.ndarray) -> np.ndarray:
    """Angle steps of planar images around a closed polyline, each wrapped
    into [-pi, pi); their sum is 2 pi times the winding number."""
    angles = np.empty(len(images) + 1)      # the first angle again last
    np.arctan2(images[:, 1], images[:, 0], out=angles[:-1])
    angles[-1] = angles[0]
    steps = angles[1:] - angles[:-1]
    return (steps + math.pi) % (2.0 * math.pi) - math.pi


def vanishing_floor(norms) -> float:
    """The norm at or below which a boundary image of ``norms`` vanishes:
    relative to the largest, so that F and c * F (c > 0) answer alike.
    With every norm 0 it is 0, and a norm of 0 still vanishes."""
    return 1e-12 * float(np.maximum.reduce(norms))


def refine_polyline(pts, ims, evaluator, midpoint, budget: int):
    """Split the segments of a closed polyline whose image angle step is at
    least MAX_STEP, until none is left or the budget of inserted points runs
    out.

    Each round evaluates all its new points in one batch; ``midpoint(a, b)``
    places them between the batched segment ends a and b.  An image norm,
    of an input or an inserted point, at or below the vanishing_floor of
    the input images raises VanishingOnBoundary.  Returns the refined
    points, images, insertion count and the wrapped angle steps of those
    images; a step of MAX_STEP or more is left only when ``evaluator`` is
    None or the budget is spent.
    """
    new, norms = pts, row_norms(ims)
    floor = vanishing_floor(norms)
    inserted = 0
    while True:
        idx = int(np.argmin(norms))     # an index into ``new``, the last batch
        if norms[idx] <= floor:
            raise VanishingOnBoundary(idx, point=new[idx],
                                      norm=float(norms[idx]))
        steps = wrapped_steps(ims)
        bad = np.nonzero(np.abs(steps) >= MAX_STEP)[0]
        if len(bad) == 0 or evaluator is None or inserted >= budget:
            return pts, ims, inserted, steps
        bad = bad[:budget - inserted]
        new = midpoint(pts[bad], pts[(bad + 1) % len(pts)])
        mid_ims = evaluator(new)
        norms = row_norms(mid_ims)
        pts = np.insert(pts, bad + 1, new, axis=0)
        ims = np.insert(ims, bad + 1, mid_ims, axis=0)
        inserted += len(bad)


def _cubed_sphere(n: int, level: int):
    """Cell centres of the 2n faces of [-1, 1]^n, each cut into g^(n-1)
    cubes of side 2/g and pushed radially onto the unit sphere, with
    h = 2 sqrt(n-1) / g.  g is the largest integer (at least 1) with
    2n g^(n-1) <= 100 * 4^level.  x -> x/|x| is the metric projection onto
    the unit ball, 1-Lipschitz outside it, and a face point lies within
    sqrt(n-1)/g of its cell's centre, so every sphere point lies within h/2
    of a sample."""
    g = 1
    while 2 * n * (g + 1) ** (n - 1) <= 100 * 4 ** level:
        g += 1
    ticks = (2.0 * np.arange(g) + 1.0) / g - 1.0
    grid = np.stack(np.meshgrid(*[ticks] * (n - 1), indexing="ij"),
                    axis=-1).reshape(-1, n - 1)
    pts = np.concatenate([np.insert(grid, axis, sign, axis=1)
                          for axis in range(n) for sign in (-1.0, 1.0)])
    return (pts / np.linalg.norm(pts, axis=1, keepdims=True),
            2.0 * math.sqrt(n - 1) / g)
