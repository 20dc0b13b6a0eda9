"""Homotopy-class obstructions of boundary restrictions.

The n=1 obstruction is a sign component check on the two-point sphere; the
n=m=2 obstruction is an adaptively refined winding number, computed with the
shared angle-step kernel and refinement loop of ``geometry`` (circle-arc
midpoints).  ``boundary_obstruction`` is the one (n, m) route table; both the
two-valued classification here and the existence certificate read it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .errors import BudgetExhausted, InvalidInput, Unsupported, VanishingOnBoundary
from .geometry import (MAX_STEP, BoundarySampling, check_count,
                       check_lipschitz, circle_arc_midpoint, mesh_norm,
                       refine_polyline, row_norms)
from .homotopy import SampledMap


@dataclass(frozen=True)
class WindingResult:
    value: int
    total_refinements: int
    rigor: str                   # "rigorous" | "heuristic"
    max_step_angle: float
    residual: float = 0.0        # |angle sum / 2 pi - value|
    # the boundary map as refined: the samples whose angle steps were summed
    boundary: Optional[SampledMap] = field(default=None, repr=False,
                                           compare=False)
    # the wrapped angle steps of those samples' images (geometry.wrapped_steps)
    steps: Optional[np.ndarray] = field(default=None, repr=False,
                                        compare=False)


@dataclass(frozen=True)
class CatResult:
    cat: int                     # 1 or 2
    reason: str                  # winding_nonzero | sign_change |
                                 # codomain_dim_excess | winding_zero |
                                 # same_component


def winding_number(f: SampledMap, refine_budget: int = 4096,
                   L: Optional[float] = None) -> WindingResult:
    """Signed turn count of a closed planar boundary map around the origin.

    Arcs whose image angle step reaches pi/2 are split by re-querying the
    map at the circle midpoint until none remain or the budget runs out; a
    norm within geometry.vanishing_floor raises VanishingOnBoundary.  The
    result's ``boundary`` is ``f`` with those midpoints inserted, and its
    ``steps`` the angle steps that were summed.
    """
    check_lipschitz(L)
    check_count("refine_budget", refine_budget, 0)
    sampling = f.sampling
    if f.m != 2 or sampling.region.dim != 2:
        raise InvalidInput("winding needs a closed planar sampling into R^2")
    region = sampling.region
    pts, ims, inserted, steps = refine_polyline(
        sampling.points, f.images, f.evaluator,
        lambda a, b: circle_arc_midpoint(a, b, region), budget=refine_budget)
    if inserted:
        f = SampledMap(sampling=BoundarySampling(
            points=pts, h=mesh_norm(pts), region=region), images=ims,
            evaluator=f.evaluator)
    result = _result(steps, f, inserted, L)
    if result.max_step_angle >= MAX_STEP:
        # the rigor label needs every step below MAX_STEP, so this result
        # is the heuristic best estimate
        raise BudgetExhausted(
            "winding refinement exhausted with coarse angle steps left",
            best=result)
    return result


def _result(steps, boundary, inserted, L) -> WindingResult:
    pts, ims = boundary.sampling.points, boundary.images
    turns = float(np.sum(steps)) / (2.0 * math.pi)
    value = int(round(turns))
    residual = abs(turns - value)
    max_step = float(np.max(np.abs(steps)))
    rigor = "heuristic"
    if L is not None and max_step < MAX_STEP:
        h = mesh_norm(pts)
        if float(np.min(row_norms(ims))) > L * h / 2.0:
            rigor = "rigorous"
    return WindingResult(value=value, total_refinements=inserted,
                         rigor=rigor, max_step_angle=max_step,
                         residual=residual, boundary=boundary, steps=steps)


def sign_obstruction(f: SampledMap) -> int:
    """Obstruction on the two-point sphere S^0: 0 if both values share a
    component of the punctured line, else the sign at the upper endpoint."""
    if f.m != 1 or len(f.images) != 2:
        raise InvalidInput("sign obstruction needs two scalar samples")
    lo, hi = float(f.images[0, 0]), float(f.images[1, 0])
    for idx, v in ((0, lo), (1, hi)):
        if v == 0.0:
            raise VanishingOnBoundary(idx, point=f.sampling.points[idx].copy())
    if (lo > 0) == (hi > 0):
        return 0
    return 1 if hi > 0 else -1


def boundary_obstruction(f: SampledMap, L: Optional[float] = None
                         ) -> Tuple[Optional[int], str, Optional[WindingResult]]:
    """The (n, m) route table: (obstruction value, reason, WindingResult or
    None) of a sampled boundary map.

    A nonzero value obstructs contraction in the punctured codomain, which
    forces a zero; n < m gives value None because a sphere of too-low
    dimension always contracts there.
    """
    n = f.sampling.region.dim
    m = f.m
    if n < m:
        return None, "codomain_dim_excess", None
    if n == 1 and m == 1:
        s = sign_obstruction(f)
        return s, "sign_change" if s != 0 else "same_component", None
    if n == 2 and m == 2:
        w = winding_number(f, L=L)
        return (w.value, "winding_nonzero" if w.value != 0 else "winding_zero",
                w)
    raise Unsupported(n, m)


def classify_cat(f: SampledMap) -> CatResult:
    """Two-valued contractibility classification of a boundary map.

    cat=2 means the restriction is not contractible in the punctured
    codomain, which is exactly the zero-existence obstruction; n < m always
    yields cat=1 because a sphere of too-low dimension contracts in the
    punctured target.
    """
    value, reason, _ = boundary_obstruction(f)
    return CatResult(cat=2 if value else 1, reason=reason)
