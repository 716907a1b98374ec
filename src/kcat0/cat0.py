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

from dataclasses import dataclass

import numpy as np

from .domains import ConvexDomain, Product
from .errors import DegenerateInput, KCat0Error
from .metric import DistanceInterval, distance, midpoint_search, midpoint_tol
from .points import as_point, point_to_json

SCHEMA = "kcat0/1"


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

