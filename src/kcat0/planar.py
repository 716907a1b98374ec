"""Exact Kobayashi (= Poincare) geometry of the planar models.

The unit disk carries ``k(z; v) = |v| / (1 - |z|^2)`` and the upper
half-plane ``|v| / (2 Im z)``.  Distances never go through a chart: each
node answers ``exact_distance`` with its own model's cancellation-free
``asinh`` form (the disk and ball form is ``ball_distance`` here), and
``planar_distance`` asks the node.  Charts onto the unit disk
(``ConvexDomain.chart``) carry geodesics and infinitesimal metrics; this
module holds the chart type, the Mobius and Cayley maps and the
disk-model operations on any node's chart.  It imports nothing from
``domains``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidDomain, OutsideDomain
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


def cayley() -> tuple[Callable, Callable, Callable]:
    fwd = lambda s: (s - 1j) / (s + 1j)
    der = lambda s: 2j / (s + 1j) ** 2
    inv = lambda u: 1j * (1 + u) / (1 - u)
    return fwd, der, inv


def _square(x: float) -> tuple[float, float]:
    """x^2 as hi + lo exactly (Dekker's split)."""
    split = 134217729.0 * x
    hi = split - (split - x)
    lo = x - hi
    sq = x * x
    return sq, ((hi * hi - sq) + 2.0 * hi * lo) + lo * lo


def _gap(z: list[complex], center: list[complex], radius: float) -> float:
    """1 - |z - center|^2 / radius^2 to the last bits: each difference is s
    plus its exact error (TwoSum), s^2 is split exactly, fsum adds up."""
    terms = list(_square(radius))
    for v, c in zip(z, center):
        for a, b in ((v.real, c.real), (v.imag, c.imag)):
            s = a - b
            bb = s - a
            err = (a - (s - bb)) - (b + bb)   # a - b = s + err exactly
            sq, sq_err = _square(s)
            terms += (-sq, -sq_err, -2.0 * s * err)
    return math.fsum(terms) / (radius * radius)


def ball_distance(z, w, center, radius: float) -> float:
    """Kobayashi distance in the ball |z - center| < radius of C^d (a disk's
    Poincare distance when d = 1).  In unit coordinates, with h = w - z and
    m = (z + w) / 2, Lagrange's identity turns sinh(K)^2 =
    (|z - w|^2 - |z ^ w|^2) / ((1 - |z|^2)(1 - |w|^2)) into a sum of
    non-negative terms, (|h|^2 (1 - |m|^2) + |<m, h>|^2) / (...), with
    1 - |m|^2 = ((1 - |z|^2) + (1 - |w|^2)) / 2 + |h|^2 / 4.  Swapping z
    and w negates h only, so the value is bit-for-bit symmetric."""
    z, w, center = (np.asarray(v, dtype=complex).tolist() for v in (z, w, center))
    gz, gw = _gap(z, center, radius), _gap(w, center, radius)
    if not (gz > 0 and gw > 0):  # also rejects nan
        raise OutsideDomain("ball_distance arguments must be interior to the ball")
    hh, mh = 0.0, 0.0j   # |h|^2 and conj(<m, h>), in unit coordinates
    for a, b, c in zip(z, w, center):
        h = (b - a) / radius
        hh += h.real * h.real + h.imag * h.imag
        mh += h.conjugate() * ((a - c) + (b - c)) / (2.0 * radius)
    num2 = hh * (0.5 * (gz + gw) + 0.25 * hh) + mh.real * mh.real + mh.imag * mh.imag
    return math.asinh(math.sqrt(num2) / (math.sqrt(gz) * math.sqrt(gw)))


def disk_distance(z: complex, w: complex) -> float:
    """Poincare distance on the unit disk."""
    return ball_distance([z], [w], [0.0], 1.0)


def disk_geodesic(z: complex, w: complex, t: float) -> complex:
    """Constant-speed geodesic on the unit disk, t in [0, 1]."""
    z, w = complex(z), complex(w)
    b = mobius_to_zero(z, w)
    rho = abs(b)
    if rho == 0:
        return z
    r_t = math.tanh(t * math.atanh(rho))
    return mobius_from_zero(z, r_t * b / rho)


def exact_chart(D) -> ConformalChart | None:
    """Chart onto the unit disk for a planar node treated exactly, else None."""
    return D.chart()


def chart(D) -> ConformalChart:
    """Chart onto the unit disk; InvalidDomain when the node has none."""
    ch = exact_chart(D)
    if ch is None:
        raise InvalidDomain(
            "no conformal chart for this planar domain; use the metric-module bounds instead")
    return ch


# ---------------------------------------------------------------------------
# planar operations
# ---------------------------------------------------------------------------


def _inside(D, *points) -> list[complex]:
    """The points as scalars, each checked to lie in D."""
    points = [complex(as_point(p, 1)[0]) for p in points]
    for pt in points:
        if not D.contains([pt]):
            raise OutsideDomain(f"point {pt} is not in the domain")
    return points


def planar_distance(D, z, w) -> float:
    """Exact Kobayashi distance on a planar node, from its own ``exact_distance``."""
    z, w = _inside(D, z, w)
    exact = D.exact_distance(as_point([z]), as_point([w]))
    if exact is None:
        raise InvalidDomain(
            "no exact distance for this planar domain; use the metric-module bounds instead")
    return exact.lo


def planar_metric(D, z, v) -> float:
    """Infinitesimal metric |chart'(z) v| / (1 - |chart(z)|^2)."""
    (z,) = _inside(D, z)
    ch = chart(D)
    v = complex(as_point(v, 1)[0])
    u = ch.forward(z)
    return abs(ch.derivative(z) * v) / (1 - abs(u) ** 2)


def planar_geodesic(D, z, w, t: float) -> complex:
    """Point at parameter t of the constant-speed geodesic from z to w."""
    z, w = _inside(D, z, w)
    ch = chart(D)
    return complex(ch.inverse(disk_geodesic(ch.forward(z), ch.forward(w), t)))
