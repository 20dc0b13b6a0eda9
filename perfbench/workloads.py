"""Seeded workloads and ground-truth checks for the zerocert benchmark.

A workload is a stream of passes. Each pass is a list of tasks with a fixed
mix of kinds, drawn from ``numpy.random.default_rng((seed, pass_index))``, so
every pass brings fresh maps and the same seed always gives the same inputs.
A task is what a user does in one library call -- parse the map text, then
certify, locate or find a fixed point -- and it carries the ground truth its
answer is checked against. The library only ever sees the generated inputs.

Every map is built around zeros the generator places itself: complex
polynomials from their roots, ``(A + c|x-a|^2 I)(x - a)`` from its zero
``a``, affine contractions from their fixed point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List

import numpy as np

PLANE_LEVEL = 6        # the library default; fine for n <= 2
SPHERE_LEVELS = (1, 2)  # n >= 3 must stay explicit: level 6 never finishes
WITNESS_POINTS = 32    # interior points each winding-0 witness is evaluated at
WITNESS_BOUNDARY = 16  # boundary samples the witness is compared with F at
LOCATE_EPS_2D = 1e-10
LOCATE_EPS_1D = 1e-12
FIXED_POINT_TOL = 1e-6


@dataclass(eq=False)
class Task:
    kind: str
    run: Callable        # run(zc, span) -> answer: the user's library calls
    check: Callable      # check(answer) -> (correct, claims_a_zero)
    has_zero: bool       # the map truly has a zero in the region
    # a false zero claim here is the known n >= 3 soundness defect (ROADMAP
    # item 1): it counts as failed but does not make the run incorrect
    known_false_claims: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    make_pass: Callable  # make_pass(rng) -> list of Task
    count_passes: int    # passes whose counts make the count metrics


def make_pass(workload: Workload, seed: int, index: int) -> List[Task]:
    return workload.make_pass(np.random.default_rng((seed, index)))


# ---------------------------------------------------------------------------
# map text

def _num(v) -> str:
    """DSL literal for a float; negative values are parenthesised."""
    v = float(v)
    return repr(v) if v >= 0.0 else f"(-{-v!r})"


def _monomial(coef, powers) -> str:
    factors = [_num(coef)]
    for i, p in enumerate(powers, start=1):
        if p:
            factors.append(f"x{i}" if p == 1 else f"x{i}^{p}")
    return "*".join(factors)


def _sum(terms) -> str:
    return " + ".join(terms) if terms else "0.0"


def _complex_poly_text(coeffs) -> str:
    """DSL text of (Re p(z), Im p(z)) with z = x1 + i*x2, expanded into
    monomials; ``coeffs`` are complex, highest degree first."""
    terms = {}
    for k, a in enumerate(coeffs[::-1]):
        for j in range(k + 1):          # a * C(k,j) x1^(k-j) (i x2)^j
            key = (k - j, j)
            terms[key] = terms.get(key, 0j) + a * math.comb(k, j) * 1j ** j
    re = [_monomial(c.real, key) for key, c in sorted(terms.items()) if c.real]
    im = [_monomial(c.imag, key) for key, c in sorted(terms.items()) if c.imag]
    return f"{_sum(re)}, {_sum(im)}"


def _real_poly_text(coeffs) -> str:
    deg = len(coeffs) - 1
    return _sum([_monomial(c, (deg - k,)) for k, c in enumerate(coeffs) if c])


def _shift(i, a) -> str:
    return f"(x{i} - {a!r})" if a >= 0.0 else f"(x{i} + {-a!r})"


# ---------------------------------------------------------------------------
# ground-truth helpers

def _polar(rng, center, radius, rho):
    """Complex point at relative distance rho from a disk center."""
    return complex(*center) + rho * radius * np.exp(2j * math.pi * rng.uniform())


def _complex_poly(rng, roots):
    lead = rng.uniform(0.5, 2.0) * np.exp(2j * math.pi * rng.uniform())
    return lead * np.poly(roots)


def _complex_values(coeffs, pts):
    z = np.polyval(coeffs, pts[:, 0] + 1j * pts[:, 1])
    return np.stack([z.real, z.imag], axis=1)


def _disk_interior(rng, center, radius, k):
    r = radius * np.sqrt(rng.uniform(0.0, 0.98, k))
    a = rng.uniform(0.0, 2.0 * math.pi, k)
    return np.asarray(center) + np.stack([r * np.cos(a), r * np.sin(a)], axis=1)


def _witness_ok(phi, values, coeffs, center, radius, boundary_idx):
    """The witness is finite and nonzero at the interior batch, and agrees
    with F at the boundary samples of the level-PLANE_LEVEL circle."""
    if values is None or not np.all(np.isfinite(values)):
        return False
    if np.min(np.linalg.norm(values, axis=1)) <= 0.0:
        return False
    k = 4 * 2 ** PLANE_LEVEL
    theta = 2.0 * math.pi * boundary_idx / k
    pts = np.asarray(center) + radius * np.stack([np.cos(theta), np.sin(theta)], 1)
    f = _complex_values(coeffs, pts)
    got = np.array([phi(p) for p in pts])
    scale = 1.0 + float(np.max(np.linalg.norm(f, axis=1)))
    return bool(np.max(np.abs(got - f)) <= 1e-8 * scale)


# ---------------------------------------------------------------------------
# certify-plane: n=2 disks at level 6 (winding, witness) and n=1 intervals

def _plane_certify_task(rng, degree, inside, lipschitz_auto):
    center = rng.uniform(-1.0, 1.0, 2)
    radius = float(rng.uniform(0.5, 2.0))
    roots = ([_polar(rng, center, radius, rng.uniform(0.0, 0.99))
              for _ in range(inside)]
             + [_polar(rng, center, radius, rng.uniform(1.01, 2.5))
                for _ in range(degree - inside)])
    coeffs = _complex_poly(rng, roots)
    text = _complex_poly_text(coeffs)
    interior = _disk_interior(rng, center, radius, WITNESS_POINTS)
    boundary_idx = rng.choice(4 * 2 ** PLANE_LEVEL, WITNESS_BOUNDARY,
                              replace=False)

    def run(zc, span):
        spec = zc.parse_map(text, 2)
        region = zc.Region.disk(center, radius)
        lip = zc.lipschitz_estimate(spec, region) if lipschitz_auto else None
        cert = zc.certify_existence(spec, region, level=PLANE_LEVEL,
                                    lipschitz=lip)
        values = None
        if cert.extension_witness is not None:
            with span("homotopy.witness", len(interior)):
                values = np.array([cert.extension_witness(x) for x in interior])
        return cert, values

    def check(answer):
        cert, values = answer
        if inside:
            ok = (cert.verdict == "ZeroGuaranteed"
                  and cert.obstruction == inside)
        else:
            ok = (cert.verdict == "NoConclusion" and cert.obstruction == 0
                  and cert.extension_witness is not None
                  and _witness_ok(cert.extension_witness, values, coeffs,
                                  center, radius, boundary_idx))
        return ok, cert.verdict == "ZeroGuaranteed"

    kind = "certify2-lipschitz" if lipschitz_auto else "certify2"
    return Task(kind, run, check, has_zero=inside > 0)


def _cubic_with_roots(rng):
    gaps = rng.uniform(0.5, 1.5, 2)
    r = rng.uniform(-2.0, 0.0) + np.concatenate([[0.0], np.cumsum(gaps)])
    lead = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
    return r, lead * np.poly(r)


def _interval_task(rng, has_zero):
    roots, coeffs = _cubic_with_roots(rng)
    if has_zero:
        # one root strictly inside, both ends clear of the others
        t = int(rng.integers(3))
        lo = roots[t] - rng.uniform(0.1, 0.4)
        hi = roots[t] + rng.uniform(0.1, 0.4)
    else:
        lo = roots[2] + rng.uniform(0.1, 0.5)
        hi = lo + rng.uniform(0.5, 2.0)
    text = _real_poly_text(coeffs)
    expected = int(np.sign(np.polyval(coeffs, hi))) if has_zero else 0

    def run(zc, span):
        spec = zc.parse_map(text, 1)
        region = zc.Region.disk([0.5 * (lo + hi)], 0.5 * (hi - lo))
        return zc.certify_existence(spec, region, level=PLANE_LEVEL)

    def check(cert):
        want = "ZeroGuaranteed" if has_zero else "NoConclusion"
        return (cert.verdict == want and cert.obstruction == expected,
                cert.verdict == "ZeroGuaranteed")

    return Task("certify1", run, check, has_zero=has_zero)


def certify_plane_pass(rng) -> List[Task]:
    """28 tasks: 20 plain n=2 (12 with no root inside), 4 with an estimated
    Lipschitz constant (2 with no root inside), 4 n=1 intervals (2 with a
    root). Each group of four n=2 tasks has one map of each degree 1-4, so
    task times have the same spread in every pass."""
    degrees = (1, 2, 3, 4)
    tasks = [_plane_certify_task(rng, d, 0, False) for d in degrees * 3]
    tasks += [_plane_certify_task(rng, d, int(rng.integers(1, d + 1)), False)
              for d in degrees * 2]
    tasks += [_plane_certify_task(rng, d, inside, True)
              for d, inside in zip(degrees, (0, 1, 0, 2))]
    tasks += [_interval_task(rng, has_zero) for has_zero in (False, True) * 2]
    rng.shuffle(tasks)
    return tasks


# ---------------------------------------------------------------------------
# certify-sphere: n=3,4 Poincare-Bohl at explicit levels 1 and 2

SPHERE_RHO = (0.2, 1.8)   # |a - x0| / r: 8 strata of 0.2, one edge at 1


def _sphere_task(rng, n, level, rigorous, rho):
    d = np.diag(rng.uniform(0.5, 2.0, n))
    s = rng.uniform(-0.5, 0.5, (n, n))
    a_mat = d + (s - s.T) / 2.0      # eigenvalues have positive real part
    c = float(rng.uniform(0.0, 0.5))
    center = rng.uniform(-1.0, 1.0, n)
    radius = float(rng.uniform(0.5, 2.0))
    u = rng.normal(size=n)
    zero = center + rho * radius * u / np.linalg.norm(u)
    y = [_shift(j + 1, float(zero[j])) for j in range(n)]
    sq = " + ".join(f"{yj}^2" for yj in y)
    text = ", ".join(
        _sum([f"{_num(a_mat[i, j])}*{y[j]}" for j in range(n)])
        + f" + {_num(c)}*({sq})*{y[i]}" for i in range(n))
    # |DF| <= |A| + 3c|x - a|^2 and |x - a| <= |x0 - a| + r on the disk
    lipschitz = (float(np.linalg.norm(a_mat, 2))
                 + 3.0 * c * (rho * radius + radius) ** 2)
    has_zero = rho < 1.0

    def run(zc, span):
        spec = zc.parse_map(text, n)
        region = zc.Region.disk(center, radius)
        return zc.certify_existence(spec, region, level=level,
                                    lipschitz=lipschitz if rigorous else None)

    def check(cert):
        # NoConclusion is allowed either way; a zero claim must be true and
        # no zero lies on the boundary
        ok = (cert.verdict == "NoConclusion"
              or (cert.verdict == "ZeroGuaranteed" and has_zero))
        return ok, cert.verdict == "ZeroGuaranteed"

    kind = f"certify{n}-level{level}-{'rigorous' if rigorous else 'heuristic'}"
    return Task(kind, run, check, has_zero=has_zero, known_false_claims=True)


def certify_sphere_pass(rng) -> List[Task]:
    """32 tasks: 8 for each n in (3, 4), heuristic and rigorous (with the
    true Lipschitz constant), 7 of them at level 1 and one at level 2. In
    each group of 8 the zero's relative distance takes one value in each of
    8 equal strata of SPHERE_RHO."""
    edges = np.linspace(*SPHERE_RHO, 9)
    tasks = []
    for n in (3, 4):
        for rigorous in (False, True):
            levels = [SPHERE_LEVELS[0]] * 7 + [SPHERE_LEVELS[1]]
            rng.shuffle(levels)
            rhos = rng.uniform(edges[:-1], edges[1:])
            tasks += [_sphere_task(rng, n, level, rigorous, float(rho))
                      for level, rho in zip(levels, rhos)]
    rng.shuffle(tasks)
    return tasks


# ---------------------------------------------------------------------------
# locate: 2D quadtree, 1D bisection, Brouwer fixed points

def _locate2_task(rng, degree):
    width = rng.uniform(0.5, 2.0, 2)
    root = complex(*rng.uniform(-1.0, 1.0, 2))
    offset = rng.uniform(0.2, 0.8, 2) * width
    lower = np.array([root.real, root.imag]) - offset
    upper = lower + width
    far = 1.5 * float(np.linalg.norm(width))   # beyond the box diagonal
    others = [root + rng.uniform(far, 2.0 * far)
              * np.exp(2j * math.pi * rng.uniform()) for _ in range(degree - 1)]
    coeffs = _complex_poly(rng, [root] + others)
    text = _complex_poly_text(coeffs)
    slope = abs(np.polyval(np.polyder(coeffs), root))
    tol = 1e-9 + 1e-8 / slope          # eps_x, or the eps_f residual stop

    def run(zc, span):
        spec = zc.parse_map(text, 2)
        return zc.locate_zero(spec, zc.Region.box(lower, upper),
                              eps_x=LOCATE_EPS_2D)

    def check(res):
        err = abs(complex(*np.asarray(res.point, dtype=float)) - root)
        return bool(err <= tol), True

    return Task("locate2", run, check, has_zero=True)


def _locate1_task(rng):
    roots, coeffs = _cubic_with_roots(rng)
    t = int(rng.integers(3))
    lo = roots[t] - rng.uniform(0.1, 0.4)
    hi = roots[t] + rng.uniform(0.1, 0.4)
    text = _real_poly_text(coeffs)
    slope = abs(np.polyval(np.polyder(coeffs), roots[t]))
    tol = 1e-11 + 1e-8 / slope

    def run(zc, span):
        spec = zc.parse_map(text, 1)
        return zc.locate_zero(spec, zc.Region.box([lo], [hi]),
                              eps_x=LOCATE_EPS_1D)

    def check(res):
        err = abs(float(np.asarray(res.point, dtype=float)[0]) - roots[t])
        return bool(err <= tol), True

    return Task("locate1", run, check, has_zero=True)


def _fixed_point_task(rng):
    p = _disk_interior(rng, (0.0, 0.0), 0.5, 1)[0]
    norm_p = float(np.linalg.norm(p))
    scale = rng.uniform(0.3, 0.9) * (1.0 - norm_p) / (1.0 + norm_p)
    ang = rng.uniform(0.0, 2.0 * math.pi)
    rot = np.array([[math.cos(ang), -math.sin(ang)],
                    [math.sin(ang), math.cos(ang)]])
    m = scale * rot @ np.diag([1.0, rng.uniform(0.2, 1.0)])  # |M| = scale
    text = ", ".join(
        _sum([_num(p[i])] + [f"{_num(m[i, j])}*{_shift(j + 1, float(p[j]))}"
                             for j in range(2)])
        for i in range(2))

    def run(zc, span):
        return zc.brouwer_fixed_point(zc.parse_map(text, 2))

    def check(res):
        err = float(np.linalg.norm(np.asarray(res.point, dtype=float) - p))
        return bool(err <= FIXED_POINT_TOL), True

    return Task("fixed-point", run, check, has_zero=True)


def locate_pass(rng) -> List[Task]:
    """12 tasks: 4 each of 2D locate (one map of each degree 1-4), 1D
    bisection and fixed point."""
    tasks = ([_locate2_task(rng, d) for d in (1, 2, 3, 4)]
             + [_locate1_task(rng) for _ in range(4)]
             + [_fixed_point_task(rng) for _ in range(4)])
    rng.shuffle(tasks)
    return tasks


WORKLOADS = {w.name: w for w in (
    Workload("certify-plane", certify_plane_pass, count_passes=16),
    Workload("certify-sphere", certify_sphere_pass, count_passes=8),
    Workload("locate", locate_pass, count_passes=16),
)}
