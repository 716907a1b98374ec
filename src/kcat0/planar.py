"""Exact Kobayashi (= Poincare) geometry of the planar models.

The unit disk carries ``k(z; v) = |v| / (1 - |z|^2)`` and the upper
half-plane H ``|v| / (2 Im s)``.  Each planar node answers for itself:
``exact_distance`` in its own model's cancellation-free ``asinh`` form
(the disk and ball form is ``ball_distance`` here), ``metric_bounds`` in
closed form, and ``exact_geodesic``; ``planar_distance``,
``planar_metric`` and ``planar_geodesic`` ask the node.  A node's chart
(``ConvexDomain.chart``) maps it onto H, where ``half_plane_geodesic``
walks geodesics; this module holds the chart type and those H-model
operations.  It imports nothing from ``domains``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidDomain, OutsideDomain
from .points import as_point

# a power of two that moves a square out of underflow or overflow, and where to use it
_SCALE, _TINY, _HUGE = 2.0 ** 600, 1e-250, 2.0 ** 500


@dataclass(frozen=True)
class ConformalChart:
    """Biholomorphism of a planar domain onto the upper half-plane."""

    forward: Callable[[complex], complex]
    inverse: Callable[[complex], complex]
    tag: str


def _square(x: float) -> tuple[float, float]:
    """x^2 as hi + lo exactly (Dekker's split)."""
    split = 134217729.0 * x
    hi = split - (split - x)
    lo = x - hi
    sq = x * x
    return sq, ((hi * hi - sq) + 2.0 * hi * lo) + lo * lo


def ball_gap(z: list[complex], center: list[complex], radius: float) -> float:
    """1 - |z - center|^2 / radius^2 to the last bits: each difference is s
    plus its exact error (TwoSum), s^2 is split exactly, fsum adds up."""
    if radius > _HUGE:   # a square could overflow: the same gap in units of 2^600, exact
        # up to terms that underflow, which lie far below the gap's last bit
        return ball_gap(*([x / _SCALE for x in p] for p in (z, center)), radius / _SCALE)
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
    gz, gw = ball_gap(z, center, radius), ball_gap(w, center, radius)
    if not (gz > 0 and gw > 0):  # also rejects nan
        raise OutsideDomain("ball_distance arguments must be interior to the ball")
    for s in (1.0, _SCALE):   # |h|^2 could underflow: h in units of 2^-600 (exact for normal h)
        hh, mh = 0.0, 0.0j   # |h|^2 and conj(<m, h>), in unit coordinates
        for a, b, c in zip(z, w, center):
            h = (b - a) / radius * s
            hh += h.real * h.real + h.imag * h.imag
            mh += h.conjugate() * ((a - c) + (b - c)) / (2.0 * radius)
        if hh > _TINY:
            break
    num2 = hh * (0.5 * (gz + gw) + 0.25 * hh / s / s) + mh.real * mh.real + mh.imag * mh.imag
    return math.asinh(math.sqrt(num2) / s / (math.sqrt(gz) * math.sqrt(gw)))


def disk_distance(z: complex, w: complex) -> float:
    """Poincare distance on the unit disk."""
    return ball_distance([z], [w], [0.0], 1.0)


def half_plane_geodesic(s0: complex, s1: complex, t: float) -> complex:
    """Point at t in [0, 1] of the constant-speed geodesic from s0 to s1 in H.

    Centred at an endpoint a, the Mobius map u = (s - a) / (s - conj a) sends
    the point sought to u = lam b, b the image of the other endpoint c and
    lam = tanh(t_a K) / tanh K.  Im s = Im a (1 - |u|^2) / |1 - u|^2 and
    Re s = Re a + 2 Im a Im(1 - u) / |1 - u|^2 then cancel nowhere:
    1 - u = (1 - lam) + lam (1 - b) adds terms of non-negative real part,
    1 - b = 2i Im a / (c - conj a) is its own quotient (b loses Im b when
    |b| is near 1), 1 - lam and 1 - |u|^2 come from exponentials of -K, and
    the endpoint taken is the one with the smaller shift in Re s (on a tie,
    the one nearer in t).  Past K = 354, e^(-2K) is subnormal.
    """
    K = math.asinh(abs(s1 - s0) / (2.0 * math.sqrt(s0.imag) * math.sqrt(s1.imag)))
    if K == 0.0:
        return s0
    best = None
    for a, c, t_a in sorted(((s0, s1, t), (s1, s0, 1.0 - t)), key=lambda end: end[2]):
        g = math.exp(-2.0 * t_a * K)
        lam = math.tanh(t_a * K) / math.tanh(K)
        # 1 - lam = sinh((1 - t_a) K) / (sinh K cosh t_a K), through expm1
        one_lam = 2.0 * g * math.expm1(-2.0 * (1.0 - t_a) * K) / (math.expm1(-2.0 * K) * (1.0 + g))
        den = one_lam + lam * 2j * a.imag / (c - a.conjugate())
        d = abs(den)   # divided by twice, not squared: H spans e^(+-K)
        if d == 0.0:   # underflowed from this end; the other end answers
            continue
        shift = -2.0 * a.imag * (den.imag / d) / d   # Im u = -Im(1 - u)
        if best is None or abs(shift) < abs(best[0]):
            best = shift, a.real, a.imag / d * (4.0 * g / d) / ((1.0 + g) * (1.0 + g))
    shift, re, im = best
    return complex(re - shift, im)


def exact_chart(D) -> ConformalChart | None:
    """Chart onto the upper half-plane for a planar node treated exactly, else None."""
    return D.chart()


def chart(D) -> ConformalChart:
    """Chart onto the upper half-plane; InvalidDomain when the node has none."""
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
    """Exact infinitesimal Kobayashi metric on a planar node, from its own closed form."""
    (z,) = _inside(D, z)
    lo, hi = D.metric_bounds(as_point([z])[None, :], as_point(v, 1)[None, :])
    if lo[0] != hi[0]:
        raise InvalidDomain(
            "no exact metric for this planar domain; use the metric-module bounds instead")
    return float(hi[0])


def planar_geodesic(D, z, w, t: float) -> complex:
    """Point at parameter t of the constant-speed geodesic from z to w."""
    z, w = _inside(D, z, w)
    g = D.exact_geodesic(as_point([z]), as_point([w]))
    if g is None:
        raise InvalidDomain(
            "no exact geodesic for this planar domain; use the metric-module bounds instead")
    return complex(g(t)[0])
