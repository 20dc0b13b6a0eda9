"""Boundary-condition checks and the existence-certificate orchestrator.

The pipeline rescales any disk to the unit disk, checks that the map misses
zero on the sampled boundary, and then tries the obstruction routes in
order: sign change (n=1), winding (n=m=2), never-points-opposite
(Poincare-Bohl, any n=m).  A nonzero obstruction or a passing boundary
condition certifies that every continuous extension of the boundary data
has a zero in the disk; a vanishing winding instead yields an explicit
zero-free extension witness.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, List, Optional

import numpy as np

from .degree import boundary_obstruction
from .errors import InvalidInput, Unsupported, VanishingOnBoundary
from .geometry import Region, check_lipschitz, sample_sphere
from .homotopy import SampledMap, null_homotopy, radial_extension
from .mapspec import MapSpec, as_evaluator

ZERO_TOL_SCALE = 1e-12


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
    map_digest: str
    region: Region
    verdict: str                    # ZeroGuaranteed | NoConclusion | ZeroOnBoundary
    route: Optional[str]            # sign_change | winding | poincare_bohl
    obstruction: Optional[int]
    min_boundary_norm: float
    rigor: str
    evidence: List[CheckResult] = field(default_factory=list)
    extension_witness: Optional[Callable] = None
    reason: Optional[str] = None


def boundary_nonvanishing(map_like, region: Region,
                          level: Optional[int] = None,
                          L: Optional[float] = None) -> CheckResult:
    """Minimum image norm over boundary samples; the standing hypothesis."""
    check_lipschitz(L)
    f = SampledMap.from_evaluator(map_like, sample_sphere(region, level))
    return _nonvanishing(f.sampling, np.linalg.norm(f.images, axis=1), L)


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
    return _poincare_bohl(
        SampledMap.from_evaluator(map_like, sample_sphere(region, level)), L)


def _smallest(name, sampling, margins, L) -> CheckResult:
    """Check of the smallest per-sample margin against the mesh threshold
    L*h/2 (rigorous) or against 0 when no Lipschitz bound is known.  The
    witness is a copy, never a view of the (possibly cached) sampling."""
    idx = int(np.argmin(margins))
    threshold = 0.0 if L is None else L * sampling.h / 2.0
    margin = float(margins[idx])
    return CheckResult(name=name, passed=margin > threshold, margin=margin,
                       witness=sampling.points[idx].copy(),
                       rigor="heuristic" if L is None else "rigorous",
                       threshold=threshold)


def _nonvanishing(sampling, norms, L) -> CheckResult:
    """The smallest boundary image norm.  For n = 1 the two samples are the
    whole boundary S^0, so no mesh argument is involved: the check is exact,
    labelled rigorous with threshold 0 whatever L is."""
    if sampling.region.dim == 1:
        return replace(_smallest("boundary_nonvanishing", sampling, norms,
                                 None), rigor="rigorous")
    return _smallest("boundary_nonvanishing", sampling, norms, L)


def _poincare_bohl(f: SampledMap, L) -> CheckResult:
    sampling, region = f.sampling, f.sampling.region
    if f.m != region.dim:
        raise InvalidInput("Poincare-Bohl needs codomain dimension m = n")
    norms = np.linalg.norm(f.images, axis=1)
    if np.any(norms <= 0.0):
        idx = int(np.argmin(norms))
        raise VanishingOnBoundary(idx, point=sampling.points[idx].copy())
    unit_f = f.images / norms[:, None]
    unit_x = (sampling.points - region.center) / region.radius
    check = _smallest("poincare_bohl", sampling,
                      np.linalg.norm(unit_f + unit_x, axis=1), L)
    if L is not None:
        # a proof needs |F| > 0 within h/2 of every sample, and the margin
        # above h/2 times the Lipschitz bound of F/|F| + (x - x0)/r there
        half = sampling.h / 2.0
        slack = float(np.min(norms)) - L * half
        if not (slack > 0.0 and check.margin
                > (2.0 * L / slack + 1.0 / region.radius) * half):
            check = replace(check, rigor="heuristic")
    return check


def coercivity_radius(map_like, n: int, radii, level: Optional[int] = None):
    """First listed radius whose origin-centered sphere has <F(x), x> >= 0
    and a nonvanishing boundary, reducing existence to Poincare-Bohl.

    Returns (R, CheckResult of the Poincare-Bohl check on that sphere), or
    None when no listed radius qualifies.
    """
    for R in radii:
        f = SampledMap.from_evaluator(
            map_like, sample_sphere(Region.disk(np.zeros(n), float(R)), level))
        if f.m != n:
            raise InvalidInput("coercivity reduction needs m = n")
        norms = np.linalg.norm(f.images, axis=1)
        inner = np.sum(f.images * f.sampling.points, axis=1)
        if float(np.min(norms)) > 0.0 and float(np.min(inner)) >= 0.0:
            return float(R), _poincare_bohl(f, None)
    return None


def certify_existence(map_like, region: Region, level: Optional[int] = None,
                      lipschitz: Optional[float] = None) -> Certificate:
    """Run the full existence pipeline on a disk region.

    Internally everything is computed on the unit disk through the rescaling
    y -> r*y + x0, which preserves the verdict and the obstruction.  The
    boundary sphere is sampled and evaluated once; every check reads those
    images.  ``level=None`` is sample_sphere's per-dimension default.  A
    callable map gets the empty digest.  A winding-0 certificate's extension
    witness is built on its first call and kept for later ones.
    """
    if region.kind != "disk":
        raise InvalidInput("certify_existence needs a disk region")
    check_lipschitz(lipschitz)
    n = region.dim
    ev = as_evaluator(map_like)
    digest = ""
    if isinstance(map_like, MapSpec):
        if map_like.n != n:
            raise InvalidInput(
                f"map domain dimension {map_like.n} != region dimension {n}")
        if n > map_like.m:
            # refuse before sampling, which is costly for n >= 3
            raise Unsupported(n, map_like.m)
        digest = map_like.digest
    sampling, points = _boundary(region, level)
    return _certify_sampled(ev, region, sampling, ev(points), lipschitz,
                            digest)


def _boundary(region: Region, level: Optional[int]):
    """The unit-sphere sampling of ``level`` and its image under the
    rescaling y -> r*y + x0 onto the boundary of ``region``: the points at
    which certify_existence evaluates the map."""
    sampling = sample_sphere(Region.disk(np.zeros(region.dim), 1.0), level)
    return sampling, region.radius * sampling.points + region.center


def _certify_sampled(ev, region, sampling, ims, lipschitz,
                     digest="") -> Certificate:
    """certify_existence of the checked evaluator ``ev`` from its images
    ``ims`` at the points of _boundary(region, level), whose sampling is
    ``sampling``."""
    n = region.dim
    x0, r = region.center, region.radius
    L = None if lipschitz is None else lipschitz * r
    m = ims.shape[1]
    if n > m:
        raise Unsupported(n, m)
    # the checked evaluator composed with y -> r*y + x0 keeps its contract
    rescaled = lambda pts: ev(r * pts + x0)
    f = SampledMap(sampling=sampling, images=ims, evaluator=rescaled)
    # checks report their witness in original coordinates
    original = lambda check: replace(check, witness=r * check.witness + x0)

    norms = np.linalg.norm(ims, axis=1)
    nonvanish = original(_nonvanishing(sampling, norms, L))
    min_norm = nonvanish.margin
    zero_tol = ZERO_TOL_SCALE * (1.0 + float(np.max(norms)))
    cert = partial(Certificate, map_digest=digest, region=region,
                   min_boundary_norm=min_norm)
    if min_norm <= zero_tol:
        return cert(verdict="ZeroOnBoundary", route=None, obstruction=None,
                    rigor="heuristic", evidence=[nonvanish],
                    reason="boundary_zero")

    if n == m >= 3:
        pb = original(_poincare_bohl(f, L))
        rigor = _combine(nonvanish.rigor, pb.rigor)
        if pb.passed:
            return cert(verdict="ZeroGuaranteed", route="poincare_bohl",
                        obstruction=None, rigor=rigor, evidence=[nonvanish, pb])
        return cert(verdict="NoConclusion", route=None, obstruction=None,
                    rigor=rigor, evidence=[nonvanish, pb],
                    reason="poincare_bohl_failed")

    value, reason, w = boundary_obstruction(f, L=L)
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
        phi_unit = None

        def witness(x):
            # built on the first call, from the boundary the winding summed
            # (refined samples included)
            nonlocal phi_unit
            if phi_unit is None:
                phi_unit = radial_extension(null_homotopy(w.boundary))
            return phi_unit((np.asarray(x, dtype=float) - x0) / r)
    return cert(verdict="NoConclusion", route=None, obstruction=value,
                rigor=rigor, evidence=evidence, extension_witness=witness,
                reason=reason)


def _combine(*rigors):
    return "rigorous" if all(r == "rigorous" for r in rigors) else "heuristic"
