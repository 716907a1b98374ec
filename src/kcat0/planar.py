"""Exact Kobayashi (= Poincare) geometry on planar catalog domains.

Everything here goes through a conformal chart onto the unit disk.  The
normalization is fixed once: the infinitesimal metric of the unit disk is
``k(z; v) = |v| / (1 - |z|^2)`` (so ``k(0; v) = |v|``), distances are
``arctanh`` of the Mobius pseudo-distance, and the upper half-plane
carries ``|v| / (2 Im z)``.

Charts exist for disks, half-planes and sectors (``chart``).  The internal
``exact_chart`` extends coverage to conformal affine images and to
two-member disk/half-plane intersections, which map to sectors through the
Mobius map pinning the two boundary crossing points at 0 and infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .domains import (
    AffineImage,
    ConvexDomain,
    Disk,
    HalfPlane,
    Intersection,
    Sector,
    sector,
)
from .errors import DegenerateInput, InvalidDomain, OutsideDomain
from .points import as_point


@dataclass(frozen=True)
class ConformalChart:
    """Biholomorphism of a planar domain onto the unit disk."""

    forward: Callable[[complex], complex]
    derivative: Callable[[complex], complex]
    inverse: Callable[[complex], complex]
    tag: str

    def compose_mobius_at(self, w: complex) -> "ConformalChart":
        """Renormalize so that ``w`` maps to the disk center."""
        a = self.forward(w)
        fwd, der, inv = self.forward, self.derivative, self.inverse

        def forward(z):
            return mobius_to_zero(a, fwd(z))

        def derivative(z):
            u = fwd(z)
            return (1 - abs(a) ** 2) / (1 - np.conj(a) * u) ** 2 * der(z)

        def inverse(u):
            return inv(mobius_from_zero(a, u))

        return ConformalChart(forward, derivative, inverse, self.tag + "+mobius")


def mobius_to_zero(a: complex, z: complex) -> complex:
    return (z - a) / (1 - np.conj(a) * z)


def mobius_from_zero(a: complex, z: complex) -> complex:
    return (z + a) / (1 + np.conj(a) * z)


def _cayley() -> tuple[Callable, Callable, Callable]:
    fwd = lambda s: (s - 1j) / (s + 1j)
    der = lambda s: 2j / (s + 1j) ** 2
    inv = lambda u: 1j * (1 + u) / (1 - u)
    return fwd, der, inv


def disk_distance(z: complex, w: complex) -> float:
    """Poincare distance on the unit disk, arctanh of the Mobius quotient.

    Evaluated through a swap-invariant expression so that exchanging the
    arguments gives bit-identical results.
    """
    z, w = complex(z), complex(w)
    if not (abs(z) < 1 and abs(w) < 1):  # also rejects nan from an overflowed chart
        raise OutsideDomain("disk_distance arguments must be interior to the unit disk")
    num = abs(z - w)
    prod = abs(z) * abs(w)
    den2 = 1.0 - 2.0 * (z * np.conj(w)).real + prod * prod
    return float(np.arctanh(num / math.sqrt(max(den2, 1e-300))))


def disk_geodesic(z: complex, w: complex, t: float) -> complex:
    """Constant-speed geodesic on the unit disk, t in [0, 1]."""
    z, w = complex(z), complex(w)
    b = mobius_to_zero(z, w)
    rho = abs(b)
    if rho == 0:
        return z
    r_t = math.tanh(t * math.atanh(rho))
    return mobius_from_zero(z, r_t * b / rho)


def chart(D: ConvexDomain) -> ConformalChart:
    """Conformal chart onto the unit disk for Disk / HalfPlane / Sector."""
    if isinstance(D, Disk):
        c, r = D.center, D.radius
        return ConformalChart(lambda z: (z - c) / r,
                              lambda z: 1.0 / r,
                              lambda u: c + r * u,
                              "disk")
    if isinstance(D, HalfPlane):
        p, n = D.boundary_point, D.inward_normal
        cf, cd, ci = _cayley()

        def forward(z):
            return cf(1j * (z - p) * np.conj(n))

        def derivative(z):
            return cd(1j * (z - p) * np.conj(n)) * 1j * np.conj(n)

        def inverse(u):
            return p + (-1j * ci(u)) * n

        return ConformalChart(forward, derivative, inverse, "halfplane")
    if isinstance(D, Sector):
        V, alpha = D.vertex, D.alpha
        theta = D.opening
        q = math.pi / theta
        rot = np.exp(-1j * alpha)
        cf, cd, ci = _cayley()

        # branch cut stays outside: after rotation the sector is
        # {arg in (0, theta)} with theta < pi, inside the principal branch
        def forward(z):
            w = (z - V) * rot
            s = np.exp(q * np.log(w))
            return cf(s)

        def derivative(z):
            w = (z - V) * rot
            s = np.exp(q * np.log(w))
            return cd(s) * q * np.exp((q - 1) * np.log(w)) * rot

        def inverse(u):
            s = ci(u)
            w = np.exp(np.log(s) / q)
            return V + w / rot

        return ConformalChart(forward, derivative, inverse, "sector")
    raise InvalidDomain(
        "no conformal chart for this planar domain; use the metric-module bounds instead")


# ---------------------------------------------------------------------------
# extended exact coverage (affine images, two-member lenses and wedges)
# ---------------------------------------------------------------------------


def _circle_line_points(disk: Disk, hp: HalfPlane):
    tangent = 1j * hp.inward_normal
    foot = hp.boundary_point + ((disk.center - hp.boundary_point) * np.conj(tangent)).real * tangent
    dist = abs(disk.center - foot)
    if dist >= disk.radius - 1e-14:
        return None
    h = math.sqrt(disk.radius ** 2 - dist ** 2)
    return foot + h * tangent, foot - h * tangent, h


def _circle_circle_points(d1: Disk, d2: Disk):
    sep = abs(d2.center - d1.center)
    if sep < 1e-15 or sep >= d1.radius + d2.radius - 1e-14 or \
            sep <= abs(d1.radius - d2.radius) + 1e-14:
        return None
    a = (sep ** 2 + d1.radius ** 2 - d2.radius ** 2) / (2 * sep)
    h2 = d1.radius ** 2 - a ** 2
    if h2 <= 0:
        return None
    h = math.sqrt(h2)
    e = (d2.center - d1.center) / sep
    mid = d1.center + a * e
    return mid + h * 1j * e, mid - h * 1j * e, h


def _arc_sample(disk: Disk, P: complex, Q: complex, other: ConvexDomain) -> complex:
    """A point of the circle strictly between P and Q on the lens boundary."""
    a1 = np.angle(P - disk.center)
    a2 = np.angle(Q - disk.center)
    for mid_angle in (0.5 * (a1 + a2), 0.5 * (a1 + a2) + math.pi):
        cand = disk.center + disk.radius * np.exp(1j * mid_angle)
        if _closure_contains(other, cand):
            return complex(cand)
    # fall back to a finer scan of the circle
    for frac in np.linspace(0.05, 0.95, 19):
        ang = a1 + frac * ((a2 - a1) % (2 * math.pi))
        cand = disk.center + disk.radius * np.exp(1j * ang)
        if _closure_contains(other, cand):
            return complex(cand)
    raise DegenerateInput("could not locate the lens arc")


def _closure_contains(D: ConvexDomain, z: complex, tol: float = 1e-12) -> bool:
    if isinstance(D, Disk):
        return abs(z - D.center) <= D.radius + tol
    if isinstance(D, HalfPlane):
        return ((z - D.boundary_point) * np.conj(D.inward_normal)).real >= -tol
    return D.contains([z])


def _wedge_sector(h1: HalfPlane, h2: HalfPlane) -> ConvexDomain | None:
    """Intersection of two transversal half-planes as an exact sector."""
    n1, n2 = h1.inward_normal, h2.inward_normal
    cross = (np.conj(1j * n1) * (1j * n2)).imag  # sine of the line angle
    if abs(cross) < 1e-13:
        return None  # parallel boundaries: a strip or empty, no sector chart
    # vertex: solve p1 + t d1 = p2 + s d2 with d_i the line directions
    d1, d2 = 1j * n1, 1j * n2
    A = np.array([[d1.real, -d2.real], [d1.imag, -d2.imag]])
    rhs = np.array([(h2.boundary_point - h1.boundary_point).real,
                    (h2.boundary_point - h1.boundary_point).imag])
    t, _ = np.linalg.solve(A, rhs)
    vertex = h1.boundary_point + t * d1
    l1 = np.angle(n1) - math.pi / 2
    l2 = np.angle(n2) - math.pi / 2
    d = math.remainder(l2 - l1, 2 * math.pi)
    alpha = l1 + max(d, 0.0)
    opening = math.pi - abs(d)
    if opening <= 1e-13:
        return None
    return sector(vertex, alpha, alpha + opening)


def _lens_chart(m1: ConvexDomain, m2: ConvexDomain) -> ConformalChart | None:
    """Chart for the intersection of two disks / half-planes.

    The Mobius map (z - P)/(z - Q) sends both boundary circles through the
    crossing points P, Q to rays from the origin; the lens becomes a
    sector whose opening is the crossing angle.
    """
    if isinstance(m1, HalfPlane) and isinstance(m2, HalfPlane):
        wedge = _wedge_sector(m1, m2)
        return chart(wedge) if wedge is not None else None

    if isinstance(m1, HalfPlane):
        m1, m2 = m2, m1
    if isinstance(m1, Disk) and isinstance(m2, HalfPlane):
        res = _circle_line_points(m1, m2)
        if res is None:
            return None
        P, Q, h = res
        mid = 0.5 * (P + Q)
        depth = min(0.5 * (m1.radius - abs(mid - m1.center)), 0.5 * h)
        sample = mid + depth * m2.inward_normal
        boundary_samples = (_arc_sample(m1, P, Q, m2), mid)
    elif isinstance(m1, Disk) and isinstance(m2, Disk):
        res = _circle_circle_points(m1, m2)
        if res is None:
            return None
        P, Q, _ = res
        sample = 0.5 * (P + Q)
        boundary_samples = (_arc_sample(m1, P, Q, m2), _arc_sample(m2, P, Q, m1))
    else:
        return None

    T = lambda z: (z - P) / (z - Q)
    T_der = lambda z: (P - Q) / (z - Q) ** 2
    T_inv = lambda s: (P - s * Q) / (1 - s)

    angles = [float(np.angle(T(b))) for b in boundary_samples]
    phi = float(np.angle(T(sample)))
    a1, a2 = angles
    sec = None
    for alpha, other in ((a1, a2), (a2, a1)):
        opening = (other - alpha) % (2 * math.pi)
        inside = (phi - alpha) % (2 * math.pi)
        if 0 < opening < math.pi + 1e-12 and 0 < inside < opening:
            sec = sector(0.0, alpha, alpha + opening)
            break
    if sec is None:
        return None
    inner = chart(sec)
    return ConformalChart(
        forward=lambda z: inner.forward(T(z)),
        derivative=lambda z: inner.derivative(T(z)) * T_der(z),
        inverse=lambda u: T_inv(inner.inverse(u)),
        tag="lens",
    )


def exact_chart(D: ConvexDomain) -> ConformalChart | None:
    """Chart for any planar domain this module can treat exactly, else None."""
    if D.dimension != 1:
        return None
    if isinstance(D, (Disk, HalfPlane, Sector)):
        return chart(D)
    if isinstance(D, AffineImage):
        inner = exact_chart(D.inner)
        if inner is None:
            return None
        a = complex(D.matrix[0, 0])
        b = complex(D.offset[0])
        return ConformalChart(
            forward=lambda z: inner.forward((z - b) / a),
            derivative=lambda z: inner.derivative((z - b) / a) / a,
            inverse=lambda u: a * inner.inverse(u) + b,
            tag=inner.tag + "+affine",
        )
    if isinstance(D, Intersection):
        members = D.members
        if len(members) == 2 and all(isinstance(m, (Disk, HalfPlane)) for m in members):
            return _lens_chart(members[0], members[1])
    return None


# ---------------------------------------------------------------------------
# planar operations
# ---------------------------------------------------------------------------


def _require_chart(D: ConvexDomain) -> ConformalChart:
    ch = exact_chart(D)
    if ch is None:
        raise InvalidDomain(
            "no conformal chart for this planar domain; use the metric-module bounds instead")
    return ch


def _as_scalar(z) -> complex:
    return complex(as_point(z, 1)[0])


def planar_distance(D: ConvexDomain, z, w) -> float:
    """Exact Kobayashi distance on a charted planar domain."""
    z, w = _as_scalar(z), _as_scalar(w)
    for pt in (z, w):
        if not D.contains([pt]):
            raise OutsideDomain(f"point {pt} is not in the domain")
    ch = _require_chart(D)
    return disk_distance(ch.forward(z), ch.forward(w))


def planar_metric(D: ConvexDomain, z, v) -> float:
    """Infinitesimal metric |chart'(z) v| / (1 - |chart(z)|^2)."""
    z, v = _as_scalar(z), _as_scalar(v)
    if not D.contains([z]):
        raise OutsideDomain(f"point {z} is not in the domain")
    ch = _require_chart(D)
    u = ch.forward(z)
    return abs(ch.derivative(z) * v) / (1 - abs(u) ** 2)


def planar_geodesic(D: ConvexDomain, z, w, t: float) -> complex:
    """Point at parameter t of the constant-speed geodesic from z to w."""
    z, w = _as_scalar(z), _as_scalar(w)
    for pt in (z, w):
        if not D.contains([pt]):
            raise OutsideDomain(f"point {pt} is not in the domain")
    ch = _require_chart(D)
    return complex(ch.inverse(disk_geodesic(ch.forward(z), ch.forward(w), t)))
