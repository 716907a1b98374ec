"""CAT(0) tests and violation certificates.

A geodesic space is CAT(0) iff every triple x, y, z with geodesic midpoint
m of [x, y] satisfies d(z,m)^2 <= (d(z,x)^2 + d(z,y)^2)/2 - d(x,y)^2/4.
The midpoint defect is the amount by which that inequality fails; a
positive defect is a violation certificate.  Verdicts use conservative
interval arithmetic: a violation is only certified when the worst-case
assignment of interval endpoints still leaves the defect positive.  A
numeric midpoint m enters through its CN radius eta (``midpoint_search``):
were the space CAT(0), d(z, m*) >= d(z, m) - eta at the true midpoint m*,
so d_zm is taken as (d_zm.lo - eta)_+.  So approximation error can never
produce a false positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .domains import ConvexDomain, Product
from .errors import DegenerateInput, KCat0Error
from .metric import (
    DistanceInterval,
    distance,
    exact_geodesic,
    geodesic_approx,
    midpoint_search,
    midpoint_tol,
    Geodesic,
)
from .points import as_point, point_to_json

SCHEMA = "kcat0/1"
COMPARISON_TOL = 1e-9  # slack past which a comparison report reads as a nominal violation


@dataclass
class Cat0Certificate:
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    midpoint: np.ndarray
    midpoint_radius: float  # CN radius eta of a numeric midpoint; 0.0 for an exact one
    d_xy: DistanceInterval
    d_zx: DistanceInterval
    d_zy: DistanceInterval
    d_zm: DistanceInterval
    defect: float
    verdict: str  # violation-certified | no-violation-found
    tol: float
    notes: str = ""

    @property
    def defect_nominal(self) -> float:
        """Defect evaluated at interval midpoints (diagnostic, not certified)."""
        return self.d_zm.midpoint ** 2 - (
            0.5 * (self.d_zx.midpoint ** 2 + self.d_zy.midpoint ** 2)
            - 0.25 * self.d_xy.midpoint ** 2)

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA,
            "kind": "cat0-midpoint-certificate",
            "points": {"x": point_to_json(self.x), "y": point_to_json(self.y),
                       "z": point_to_json(self.z),
                       "midpoint": point_to_json(self.midpoint)},
            "midpoint_radius": self.midpoint_radius,
            "distances": {"xy": self.d_xy.to_json(), "zx": self.d_zx.to_json(),
                          "zy": self.d_zy.to_json(), "zm": self.d_zm.to_json()},
            "defect": {"value": self.defect, "method": ["conservative-interval"],
                       "tol": self.tol},
            "defect_nominal": {"value": self.defect_nominal,
                               "method": ["interval-midpoint"], "tol": self.tol},
            "verdict": self.verdict,
            "notes": self.notes,
        }


@dataclass
class ComparisonReport:
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    side_ab: float
    side_ac: float
    side_bc: float
    samples: list  # (s, t, slack)
    max_slack: float

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA,
            "kind": "cat0-comparison-report",
            "triangle": {"a": point_to_json(self.a), "b": point_to_json(self.b),
                         "c": point_to_json(self.c)},
            "sides": {"ab": self.side_ab, "ac": self.side_ac, "bc": self.side_bc},
            "max_slack": {"value": self.max_slack,
                          "method": ["comparison-triangle"], "tol": COMPARISON_TOL},
            "samples": [{"s": s, "t": t, "slack": g} for s, t, g in self.samples],
        }


def midpoint_defect(D: ConvexDomain, x, y, z, tol: float | None = None) -> Cat0Certificate:
    """Midpoint-criterion certificate for the triple (x, y, z); ``tol`` is
    ``midpoint_search``'s."""
    x = as_point(x, D.dimension)
    y = as_point(y, D.dimension)
    z = as_point(z, D.dimension)
    tol = midpoint_tol(D, x, y, tol)
    m, eta = midpoint_search(D, x, y, tol)

    d_xy = distance(D, x, y, optimize_path=False)
    d_zx = distance(D, z, x, optimize_path=False)
    d_zy = distance(D, z, y, optimize_path=False)
    d_zm = distance(D, z, m, optimize_path=False)
    # worst case over the interval endpoints, d_zm less the midpoint's radius
    defect = max(0.0, d_zm.lo - eta) ** 2 - (
        0.5 * (d_zx.hi ** 2 + d_zy.hi ** 2) - 0.25 * d_xy.lo ** 2)

    widths = max(i.width for i in (d_xy, d_zx, d_zy, d_zm))
    if defect > 0.0:
        verdict = "violation-certified"
        notes = ""
    else:
        verdict = "no-violation-found"
        notes = (f"max interval width {widths:.3e}; "
                 "a nonpositive conservative defect does not certify CAT(0)")
    return Cat0Certificate(x, y, z, m, eta, d_xy, d_zx, d_zy, d_zm,
                           defect, verdict, tol, notes)


def _geodesic_or_approx(D: ConvexDomain, a: np.ndarray, b: np.ndarray) -> Geodesic:
    g = exact_geodesic(D, a, b)
    if g is not None:
        return g
    path, length = geodesic_approx(D, a, b)
    return Geodesic(path.length_parametrization(D), length.midpoint)


def comparison_test(D: ConvexDomain, a, b, c, sample_count: int = 100,
                    seed: int = 0) -> ComparisonReport:
    """Sample the comparison-triangle inequality along [a,b] and [a,c].

    The Euclidean comparison triangle is placed with a at the origin and b
    on the positive axis.  The slack is read on interval midpoints, along
    approximate geodesics off the catalog, so it is a diagnostic: positive
    slack suggests a CAT(0) failure but does not certify one.
    """
    a = as_point(a, D.dimension)
    b = as_point(b, D.dimension)
    c = as_point(c, D.dimension)
    d_ab = distance(D, a, b, optimize_path=False).midpoint
    d_ac = distance(D, a, c, optimize_path=False).midpoint
    d_bc = distance(D, b, c, optimize_path=False).midpoint
    if min(d_ab, d_ac, d_bc) < 1e-12:
        raise DegenerateInput("comparison_test needs three pairwise distinct points")

    gamma_ab = _geodesic_or_approx(D, a, b)
    gamma_ac = _geodesic_or_approx(D, a, c)

    # comparison triangle placement; the sqrt argument is clamped at the
    # 1e-12 scale allowed for triangle-inequality slop
    cx = (d_ab ** 2 + d_ac ** 2 - d_bc ** 2) / (2 * d_ab)
    cy2 = d_ac ** 2 - cx ** 2
    if cy2 < -1e-12 * max(1.0, d_ac ** 2):
        raise KCat0Error("triangle inequality violated beyond tolerance")
    cy = math.sqrt(max(cy2, 0.0))

    rng = np.random.default_rng(seed)
    grid = [(s, t) for s in (0.0, 0.5, 1.0) for t in (0.0, 0.5, 1.0)]
    pairs = grid + [tuple(p) for p in rng.uniform(0.0, 1.0, size=(max(sample_count - len(grid), 0), 2))]

    samples = []
    max_slack = -math.inf
    for s, t in pairs:
        p = gamma_ab(s)
        q = gamma_ac(t)
        d_pq = distance(D, p, q, optimize_path=False).midpoint
        p_bar = np.array([s * d_ab, 0.0])
        q_bar = np.array([t * cx, t * cy])
        slack = d_pq - float(np.linalg.norm(p_bar - q_bar))
        samples.append((float(s), float(t), float(slack)))
        max_slack = max(max_slack, slack)
    return ComparisonReport(a, b, c, d_ab, d_ac, d_bc, samples, float(max_slack))


def product_certificate(D1: ConvexDomain, D2: ConvexDomain, x, y,
                        base=None) -> Cat0Certificate:
    """CAT(0) violation certificate for the product D1 x D2.

    Takes the midpoint m of [x, y] in D1, solves K_D2(w, z) = K_D1(x, y)/2
    for z along a geodesic ray from the base point w (bisection to 1e-12),
    and certifies the triple ((x,w), (y,w), (m,z)); the defect equals
    K_D2(w, z)^2 by construction.
    """
    x = as_point(x, D1.dimension)
    y = as_point(y, D1.dimension)
    if np.array_equal(x, y):
        raise DegenerateInput("product_certificate needs x != y")
    w = as_point(base, D2.dimension) if base is not None else D2.anchor()

    d1 = distance(D1, x, y)
    if not d1.is_exact:
        raise KCat0Error("product_certificate needs an exact distance on D1")
    target = 0.5 * d1.lo
    if target > 14.0:
        raise KCat0Error("choose closer x, y: target distance exceeds the "
                         "resolvable range of the bounded factor")
    m, _ = midpoint_search(D1, x, y)

    ray = D2.unit_speed_ray(w)
    if ray is None:
        raise KCat0Error("product_certificate needs a charted planar domain or a ball")

    def dist_at(rho: float) -> float:
        return distance(D2, w, ray(rho)).midpoint

    # rho = 1 - 1e-13 maps about 15 units out, past any permitted target
    lo, hi = 0.0, 1.0 - 1e-13
    if dist_at(hi) < target:
        raise KCat0Error("choose closer x, y: the factor domain cannot realize "
                         "half the separation")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if dist_at(mid) < target:
            lo = mid
        else:
            hi = mid
        if abs(dist_at(0.5 * (lo + hi)) - target) < 1e-12:
            break
    z2 = ray(0.5 * (lo + hi))

    prod = Product(D1, D2)
    xw = np.concatenate([x, w])
    yw = np.concatenate([y, w])
    mz = np.concatenate([m, z2])
    cert = midpoint_defect(prod, xw, yw, mz)
    cert.notes = (f"product certificate: K_D2(w,z) solved to {dist_at(0.5 * (lo + hi))!r} "
                  f"for target {target!r}")
    return cert


def gromov_product(D: ConvexDomain, o, x, y) -> float:
    """(x|y)_o = (d(x,o) + d(o,y) - d(x,y)) / 2 on interval midpoints."""
    o = as_point(o, D.dimension)
    x = as_point(x, D.dimension)
    y = as_point(y, D.dimension)
    d_xo = distance(D, x, o, optimize_path=False).midpoint
    d_oy = distance(D, o, y, optimize_path=False).midpoint
    d_xy = distance(D, x, y, optimize_path=False).midpoint
    return 0.5 * (d_xo + d_oy - d_xy)


def four_point_delta(D: ConvexDomain, sample_points) -> float:
    """Empirical lower bound for the Gromov hyperbolicity constant.

    Maximizes min{(x|z)_o, (z|y)_o} - (x|y)_o over ordered quadruples of
    the sample; this is a diagnostic, not the true sup.
    """
    pts = [as_point(p, D.dimension) for p in sample_points]
    n = len(pts)
    if n < 4:
        raise DegenerateInput("four_point_delta needs at least 4 points")
    dmat = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            dmat[i, j] = dmat[j, i] = distance(D, pts[i], pts[j],
                                               optimize_path=False).midpoint

    def gp(i: int, j: int, o: int) -> float:
        return 0.5 * (dmat[i, o] + dmat[o, j] - dmat[i, j])

    worst = 0.0
    for o in range(n):
        for xi in range(n):
            for yi in range(n):
                for zi in range(n):
                    if len({o, xi, yi, zi}) < 4:
                        continue
                    gap = min(gp(xi, zi, o), gp(zi, yi, o)) - gp(xi, yi, o)
                    worst = max(worst, gap)
    return worst
