"""Exact Kobayashi (= Poincare) geometry through the unit-disk model.

Everything here goes through a conformal chart onto the unit disk.  The
normalization is fixed once: the infinitesimal metric of the unit disk is
``k(z; v) = |v| / (1 - |z|^2)`` (so ``k(0; v) = |v|``), distances are
``arctanh`` of the Mobius pseudo-distance, and the upper half-plane
carries ``|v| / (2 Im z)``.

Each planar domain node builds its own chart (``ConvexDomain.chart``:
disks, half-planes, sectors, conformal affine images, two-member lenses
and wedges); this module holds the chart type, the Mobius and Cayley
maps, and the disk-model operations that work on any node's chart.  It
imports nothing from ``domains``.
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


def _charted(D, *points) -> tuple[ConformalChart, list[complex]]:
    """D's chart and the points as scalars, each checked to lie in D."""
    points = [complex(as_point(p, 1)[0]) for p in points]
    for pt in points:
        if not D.contains([pt]):
            raise OutsideDomain(f"point {pt} is not in the domain")
    return chart(D), points


def planar_distance(D, z, w) -> float:
    """Exact Kobayashi distance on a charted planar domain."""
    ch, (z, w) = _charted(D, z, w)
    return disk_distance(ch.forward(z), ch.forward(w))


def planar_metric(D, z, v) -> float:
    """Infinitesimal metric |chart'(z) v| / (1 - |chart(z)|^2)."""
    ch, (z,) = _charted(D, z)
    v = complex(as_point(v, 1)[0])
    u = ch.forward(z)
    return abs(ch.derivative(z) * v) / (1 - abs(u) ** 2)


def planar_geodesic(D, z, w, t: float) -> complex:
    """Point at parameter t of the constant-speed geodesic from z to w."""
    ch, (z, w) = _charted(D, z, w)
    return complex(ch.inverse(disk_geodesic(ch.forward(z), ch.forward(w), t)))
