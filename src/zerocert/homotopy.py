"""Straight-line homotopies between boundary maps, and the zero-free
extension.

A straight line H = (1-t) f + t g misses 0 at a sample when the segment
[f_j, g_j] does; ``straight_line`` measures that distance exactly in t, by
one projection per sample, and decides validity from it: heuristically
against the vanishing floor of the endpoint norms, rigorously against
L*h/2 for a Lipschitz constant L in x of both maps, and rigorously against
the floor alone for n = 1, whose boundary is its two samples.

A winding-0 planar boundary map F contracts in log-polar coordinates to
its first sample's image (``null_homotopy`` gives its angle steps), and
that contraction, run radially, is a zero-free extension of F over the
disk.  ``log_polar_extension`` is its one point function, in closed form
on Python floats with ``math`` functions: the certificate's witness, and
what ``radial_extension`` returns.  Its modulus is a convex combination of
the boundary's log radii, exponentiated, so it is at least the least |F|
at a sample.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InvalidInput, NotANullHomotopy
from .geometry import (BoundarySampling, check_lipschitz, row_norms,
                       vanishing_floor, wrapped_steps)
from .mapspec import as_evaluator


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


@dataclass(frozen=True)
class ValidityReport:
    valid: bool
    min_norm: float
    witness: tuple                  # (sample index, t*)
    rigor: str                      # "heuristic" | "rigorous"
    threshold: float = 0.0


def straight_line(f: SampledMap, g: SampledMap, *,
                  L: Optional[float] = None) -> ValidityReport:
    """Whether H(x, t) = (1-t) f(x) + t g(x) misses 0 on the samples.

    At a sample the least |H| over t in [0, 1] is the distance from 0 to
    the segment [f_j, g_j], attained at t* = clip(-f_j.d / |d|^2, 0, 1),
    d = g_j - f_j (t* = 0 where f_j = g_j): exact in t.  ``min_norm`` is
    the least of these distances, and the witness is (sample index, t*).

    Heuristic (L None): valid when ``min_norm`` is above the
    vanishing_floor of f's and g's norms.  For a planar map of a planar
    boundary a crossing between two samples is also refused: there
    q_j = conj(f_j) g_j, whose angle is pi where the segment passes through
    0, steps across the negative real axis, and the witness is the sample
    before that step.  With m != 2 or n != 2 such a crossing stays unseen
    without L.

    With L, a Lipschitz constant in x of both f and g (so of every
    H(., t), a convex combination of them): valid when ``min_norm`` is
    also above L*h/2, h the mesh norm, and rigorous.  For n = 1 the two
    samples are the whole boundary S^0: the floor alone decides, and the
    report is rigorous with or without L.
    """
    check_lipschitz(L)
    if f.m != g.m:
        raise InvalidInput("codomain dimensions differ")
    if f.sampling is not g.sampling and (
            f.sampling.points.shape != g.sampling.points.shape
            or not np.allclose(f.sampling.points, g.sampling.points,
                               atol=1e-12)):
        raise InvalidInput("maps are sampled on different boundary points")
    a, b = f.images, g.images
    d = b - a
    dd = np.add.reduce(d * d, axis=1)
    t = np.clip(np.divide(-np.add.reduce(a * d, axis=1), dd, where=dd > 0.0,
                          out=np.zeros_like(dd)), 0.0, 1.0)
    dist = row_norms((1.0 - t)[:, None] * a + t[:, None] * b)
    j = int(np.argmin(dist))
    least = float(dist[j])
    threshold = vanishing_floor(np.concatenate((row_norms(a), row_norms(b))))
    valid = least > threshold
    exact = f.sampling.region.dim == 1
    if L is not None and not exact:
        threshold = L * f.sampling.h / 2.0
        valid = valid and least > threshold
    elif valid and f.m == 2 and f.sampling.region.dim == 2:
        q = np.stack((np.add.reduce(a * b, axis=1),
                      a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]), axis=1)
        crossed = np.abs(np.arctan2(q[:, 1], q[:, 0])
                         + wrapped_steps(q)) > math.pi
        if crossed.any():
            j, valid = int(np.argmax(crossed)), False
    return ValidityReport(valid=valid, min_norm=least,
                          witness=(j, float(t[j])),
                          rigor="heuristic" if L is None and not exact
                          else "rigorous",
                          threshold=threshold)


def null_homotopy(f: SampledMap) -> np.ndarray:
    """The ``wrapped_steps`` of f's images, after checking that f is planar
    (InvalidInput), misses 0 at every sample and winds 0 times
    (NotANullHomotopy).

    With the images, they are f's contraction in closed form: in log-polar
    coordinates the radii interpolate geometrically and the angles, lifted
    by these steps, linearly to the first sample's image, so no stage of
    it vanishes.  ``log_polar_extension`` runs it radially over the disk.
    """
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


def radial_extension(f: SampledMap):
    """Zero-free disk extension of a winding-0 planar boundary map f.

    Refuses a sampling not of a planar disk (InvalidInput) and a map that
    ``null_homotopy`` refuses, then returns ``log_polar_extension`` of f on
    its sampling's disk: a function of one point of shape (2,) that matches
    f exactly at the samples.  On the certificate's disk this is the
    certificate's witness.
    """
    region = f.sampling.region
    if region.kind != "disk" or region.dim != 2:
        raise InvalidInput(
            "radial extension needs a planar sampling of a disk")
    return log_polar_extension(f, null_homotopy(f), region)


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
