"""Boundary-condition checks and the existence-certificate orchestrator.

The pipeline rescales any disk to the unit disk, checks that the map misses
zero on the sampled boundary, and then tries the obstruction routes in
order: sign change (n=1), winding (n=m=2), never-points-opposite
(Poincare-Bohl, any n=m).  A nonzero obstruction or a passing boundary
condition certifies that every continuous extension of the boundary data
has a zero in the disk; a vanishing winding instead yields an explicit
zero-free extension witness.

The boundary is evaluated once and its image norms are computed once; every
check reads them against the cached unit samples and is built once, with
its witness already in the coordinates of the region.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, List, Optional

import numpy as np

from .degree import boundary_obstruction
from .errors import InvalidInput, Unsupported, VanishingOnBoundary
from .geometry import (Region, check_lipschitz, row_norms, unit_sphere,
                       vanishing_floor)
from .homotopy import SampledMap, log_polar_extension
from .mapspec import MapSpec, as_evaluator


@dataclass(frozen=True, eq=False)
class CheckResult:
    name: str
    passed: bool
    margin: float
    witness: Optional[np.ndarray]
    rigor: str                      # "rigorous" | "heuristic"
    threshold: float = 0.0


@dataclass(eq=False)
class Certificate:
    """The verdict on a disk, with the evidence behind it.  ``spec`` is the
    certified MapSpec, None for a callable map; ``map_digest`` is read from
    it."""

    spec: Optional[MapSpec]
    region: Region
    verdict: str                    # ZeroGuaranteed | NoConclusion | ZeroOnBoundary
    route: Optional[str]            # sign_change | winding | poincare_bohl
    obstruction: Optional[int]
    min_boundary_norm: float
    rigor: str
    evidence: List[CheckResult] = field(default_factory=list)
    extension_witness: Optional[Callable] = None
    reason: Optional[str] = None

    @property
    def map_digest(self) -> str:
        """The map's ``MapSpec.digest``, hashed when first read; "" for a
        callable map."""
        return "" if self.spec is None else self.spec.digest


def boundary_nonvanishing(map_like, region: Region,
                          level: Optional[int] = None,
                          L: Optional[float] = None) -> CheckResult:
    """Minimum image norm over boundary samples; the standing hypothesis."""
    check_lipschitz(L)
    ev = as_evaluator(map_like, region.dim)
    unit, _, norms = _sampled(ev, region, level)
    return _nonvanishing(unit, region, norms, L)


def poincare_bohl(map_like, region: Region, level: Optional[int] = None,
                  L: Optional[float] = None) -> CheckResult:
    """Never-points-opposite check: F(x) is not a negative multiple of x - x0.

    The margin is min over samples of || F(x)/||F(x)|| + (x - x0)/r ||,
    which vanishes exactly at an opposite-pointing sample.  With L the check
    passes when the margin exceeds L*h/2, but it is labelled "rigorous" only
    when min|F| > L*h/2 and the margin exceeds
    (2L / (min|F| - L*h/2) + 1/r) * h/2, a Lipschitz bound of
    F/|F| + (x - x0)/r within h/2 of the samples; otherwise "heuristic".
    """
    check_lipschitz(L)
    n = region.dim
    ev = as_evaluator(map_like, n,
                      "Poincare-Bohl needs codomain dimension m = n")
    unit, ims, norms = _sampled(ev, region, level)
    return _poincare_bohl(unit, region, ims, norms, L)


def _sampled(ev, region: Region, level: Optional[int]):
    """(unit sampling, boundary images, image norms) of an evaluator."""
    unit, points = _boundary(region, level)
    ims = ev(points)
    return unit, ims, row_norms(ims)


def _check(name, unit, region, idx, margin, threshold, rigor) -> CheckResult:
    """The check of the smallest margin, at sample ``idx``; its witness is a
    fresh array in region coordinates, never a view of the cached sampling."""
    return CheckResult(name=name, passed=margin > threshold, margin=margin,
                       witness=region.radius * unit.points[idx] + region.center,
                       rigor=rigor, threshold=threshold)


def _nonvanishing(unit, region, norms, L) -> CheckResult:
    """The smallest boundary image norm against the mesh threshold L*h/2 on
    the unit disk, where the map is (L*r)-Lipschitz, or against 0 without L.
    For n = 1 the two samples are the whole boundary S^0, so no mesh
    argument is involved: the check is exact, labelled rigorous with
    threshold 0 whatever L is."""
    idx = int(norms.argmin())
    exact = region.dim == 1
    threshold = 0.0 if L is None or exact else L * region.radius * unit.h / 2.0
    rigor = "heuristic" if L is None and not exact else "rigorous"
    return _check("boundary_nonvanishing", unit, region, idx,
                  float(norms[idx]), threshold, rigor)


def _poincare_bohl(unit, region, ims, norms, L) -> CheckResult:
    """poincare_bohl from the images and their norms, on the unit disk: the
    margins read F/|F| + y at the unit samples y; the map is (L*r)-Lipschitz."""
    least = int(norms.argmin())
    if norms[least] <= 0.0:
        raise VanishingOnBoundary(
            least, point=region.radius * unit.points[least] + region.center)
    margins = row_norms(ims / norms[:, None] + unit.points)
    idx = int(margins.argmin())
    margin = float(margins[idx])
    threshold, rigor = 0.0, "heuristic"
    if L is not None:
        # a proof needs |F| > 0 within h/2 of every sample, and the margin
        # above h/2 times the Lipschitz bound of F/|F| + y there
        L = L * region.radius
        threshold, half = L * unit.h / 2.0, unit.h / 2.0
        slack = float(norms[least]) - L * half
        if slack > 0.0 and margin > (2.0 * L / slack + 1.0) * half:
            rigor = "rigorous"
    return _check("poincare_bohl", unit, region, idx, margin, threshold,
                  rigor)


def certify_existence(map_like, region: Region, level: Optional[int] = None,
                      lipschitz: Optional[float] = None) -> Certificate:
    """Run the full existence pipeline on a disk region.

    Internally everything is computed on the unit disk through the rescaling
    y -> r*y + x0, which preserves the verdict and the obstruction.
    ``level=None`` is sample_sphere's per-dimension default.  A callable map
    gets the empty digest.  A winding-0 certificate's extension witness is
    built on its first call and kept for later ones.
    """
    if region.kind != "disk":
        raise InvalidInput("certify_existence needs a disk region")
    check_lipschitz(lipschitz)
    n = region.dim
    ev = as_evaluator(map_like, n)
    spec = None
    if isinstance(map_like, MapSpec):
        if n > map_like.m:
            # refuse before sampling, which is costly for n >= 3
            raise Unsupported(n, map_like.m)
        spec = map_like
    unit, points = _boundary(region, level)
    return _certify_sampled(ev, region, unit, ev(points), lipschitz, spec)


def _boundary(region: Region, level: Optional[int]):
    """The unit-sphere sampling of ``level`` and its image under the
    rescaling y -> r*y + x0 onto the boundary of ``region``: the points at
    which a map is evaluated for every check of the boundary."""
    if region.kind != "disk":
        raise InvalidInput("boundary checks need a disk region")
    unit = unit_sphere(region.dim, level)
    return unit, region.radius * unit.points + region.center


def _certify_sampled(ev, region, unit, ims, lipschitz,
                     spec=None) -> Certificate:
    """certify_existence of the checked evaluator ``ev`` from its images
    ``ims`` at the points of _boundary(region, level), whose unit sampling
    is ``unit``; ``spec`` is the MapSpec behind ``ev``, if any."""
    n, m = region.dim, ims.shape[1]
    if n > m:
        raise Unsupported(n, m)
    norms = row_norms(ims)
    nonvanish = _nonvanishing(unit, region, norms, lipschitz)
    min_norm = nonvanish.margin
    cert = partial(Certificate, spec=spec, region=region,
                   min_boundary_norm=min_norm)
    if min_norm <= vanishing_floor(norms):
        return cert(verdict="ZeroOnBoundary", route=None, obstruction=None,
                    rigor="heuristic", evidence=[nonvanish],
                    reason="boundary_zero")

    if n == m >= 3:
        pb = _poincare_bohl(unit, region, ims, norms, lipschitz)
        rigor = _combine(nonvanish.rigor, pb.rigor)
        if pb.passed:
            return cert(verdict="ZeroGuaranteed", route="poincare_bohl",
                        obstruction=None, rigor=rigor, evidence=[nonvanish, pb])
        return cert(verdict="NoConclusion", route=None, obstruction=None,
                    rigor=rigor, evidence=[nonvanish, pb],
                    reason="poincare_bohl_failed")

    # the checked evaluator composed with y -> r*y + x0 keeps its contract
    x0, r = region.center, region.radius
    f = SampledMap(sampling=unit, images=ims,
                   evaluator=lambda pts: ev(r * pts + x0))
    value, reason, w = boundary_obstruction(
        f, L=None if lipschitz is None else lipschitz * r)
    evidence = [nonvanish]
    rigor = nonvanish.rigor
    if w is not None:
        evidence.append(CheckResult(name="winding", passed=w.value != 0,
                                    margin=float(w.value), witness=None,
                                    rigor=w.rigor))
        rigor = _combine(rigor, w.rigor)
    if value:
        return cert(verdict="ZeroGuaranteed",
                    route="sign_change" if w is None else "winding",
                    obstruction=value, rigor=rigor, evidence=evidence)
    witness = None
    if w is not None:
        phi = None

        def witness(x):
            # built on the first call, from the boundary the winding summed
            # (refined samples included) and the angle steps it summed
            nonlocal phi
            if phi is None:
                phi = log_polar_extension(w.boundary, w.steps, region)
            return phi(x)
    return cert(verdict="NoConclusion", route=None, obstruction=value,
                rigor=rigor, evidence=evidence, extension_witness=witness,
                reason=reason)


def _combine(*rigors):
    return "rigorous" if all(r == "rigorous" for r in rigors) else "heuristic"
