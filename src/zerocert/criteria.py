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
    route: Optional[str]            # sign_change | winding | poincare_bohl |
                                    # coercive_reduction
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
    sampling, ims = _sample_and_evaluate(map_like, region, level)
    return _smallest("boundary_nonvanishing", sampling,
                     np.linalg.norm(ims, axis=1), L)


def poincare_bohl(map_like, region: Region, level: Optional[int] = None,
                  L: Optional[float] = None) -> CheckResult:
    """Never-points-opposite check: F(x) is not a negative multiple of x - x0.

    The margin is min over samples of || F(x)/||F(x)|| + (x - x0)/r ||,
    which vanishes exactly at an opposite-pointing sample.
    """
    check_lipschitz(L)
    sampling, ims = _sample_and_evaluate(map_like, region, level)
    return _poincare_bohl(sampling, ims, L)


def _sample_and_evaluate(map_like, region, level):
    if region.kind != "disk":
        raise InvalidInput("boundary checks need a disk region")
    sampling = sample_sphere(region, level)
    return sampling, np.asarray(as_evaluator(map_like)(sampling.points),
                                dtype=float)


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


def _poincare_bohl(sampling, ims, L) -> CheckResult:
    region = sampling.region
    if ims.shape[1] != region.dim:
        raise InvalidInput("Poincare-Bohl needs codomain dimension m = n")
    norms = np.linalg.norm(ims, axis=1)
    if np.any(norms <= 0.0):
        idx = int(np.argmin(norms))
        raise VanishingOnBoundary(idx, point=sampling.points[idx].copy())
    unit_f = ims / norms[:, None]
    unit_x = (sampling.points - region.center) / region.radius
    return _smallest("poincare_bohl", sampling,
                     np.linalg.norm(unit_f + unit_x, axis=1), L)


def coercivity_radius(map_like, n: int, radii, level: Optional[int] = None):
    """First listed radius whose origin-centered sphere has <F(x), x> >= 0
    and a nonvanishing boundary, reducing existence to Poincare-Bohl.

    Returns (R, CheckResult of the Poincare-Bohl check on that sphere), or
    None when no listed radius qualifies.
    """
    for R in radii:
        sampling, ims = _sample_and_evaluate(
            map_like, Region.disk(np.zeros(n), float(R)), level)
        if ims.shape[1] != n:
            raise InvalidInput("coercivity reduction needs m = n")
        norms = np.linalg.norm(ims, axis=1)
        inner = np.sum(ims * sampling.points, axis=1)
        if float(np.min(norms)) > 0.0 and float(np.min(inner)) >= 0.0:
            return float(R), _poincare_bohl(sampling, ims, None)
    return None


def certify_existence(map_like, region: Region, level: Optional[int] = None,
                      lipschitz: Optional[float] = None) -> Certificate:
    """Run the full existence pipeline on a disk region.

    Internally everything is computed on the unit disk through the rescaling
    y -> r*y + x0, which preserves the verdict and the obstruction.  The
    boundary sphere is sampled and evaluated once; every check reads those
    images.  ``level=None`` is sample_sphere's per-dimension default.  A
    callable map gets the empty digest.
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

    x0, r = region.center, region.radius
    rescaled = lambda pts: np.asarray(ev(r * np.asarray(pts) + x0), dtype=float)
    L = None if lipschitz is None else lipschitz * r
    sampling = sample_sphere(Region.disk(np.zeros(n), 1.0), level)
    ims = rescaled(sampling.points)
    m = ims.shape[1]
    if n > m:
        raise Unsupported(n, m)
    # checks report their witness in original coordinates
    original = lambda check: replace(check, witness=r * check.witness + x0)

    norms = np.linalg.norm(ims, axis=1)
    nonvanish = original(_smallest("boundary_nonvanishing", sampling, norms, L))
    min_norm = nonvanish.margin
    zero_tol = ZERO_TOL_SCALE * (1.0 + float(np.max(norms)))
    cert = partial(Certificate, map_digest=digest, region=region,
                   min_boundary_norm=min_norm)
    if min_norm <= zero_tol:
        return cert(verdict="ZeroOnBoundary", route=None, obstruction=None,
                    rigor="heuristic", evidence=[nonvanish],
                    reason="boundary_zero")

    if n == m >= 3:
        pb = original(_poincare_bohl(sampling, ims, L))
        rigor = _combine(nonvanish.rigor, pb.rigor)
        if pb.passed:
            return cert(verdict="ZeroGuaranteed", route="poincare_bohl",
                        obstruction=None, rigor=rigor, evidence=[nonvanish, pb])
        return cert(verdict="NoConclusion", route=None, obstruction=None,
                    rigor=rigor, evidence=[nonvanish, pb],
                    reason="poincare_bohl_failed")

    f = SampledMap(sampling=sampling, images=ims, m=m, evaluator=rescaled)
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
        phi_unit = radial_extension(null_homotopy(f))
        witness = lambda x: phi_unit((np.asarray(x, dtype=float) - x0) / r)
    return cert(verdict="NoConclusion", route=None, obstruction=value,
                rigor=rigor, evidence=evidence, extension_witness=witness,
                reason=reason)


def _combine(*rigors):
    return "rigorous" if all(r == "rigorous" for r in rigors) else "heuristic"
