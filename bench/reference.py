"""Closed-form Kobayashi distances the benchmark checks results against.

These are written out here, independently of kcat0's exact engine, so that
a change which breaks the engine cannot also move the reference it is
checked against.  Normalization matches kcat0: the unit disk carries
``|v| / (1 - |z|^2)`` and distances are ``arctanh`` of the Mobius quotient.
"""

from __future__ import annotations

import math

import numpy as np

# (ln 2 / 2)^2: the midpoint defect of the product certificates, and the
# limit value of the large-n example36 defect
TARGET_DEFECT = (0.5 * math.log(2.0)) ** 2


def _atanh_clamped(q: float) -> float:
    return math.atanh(min(q, 1.0 - 1e-16))


def disk(z: complex, w: complex) -> float:
    """Unit disk."""
    return _atanh_clamped(abs(z - w) / abs(1.0 - z * w.conjugate()))


def upper_half_plane(z: complex, w: complex) -> float:
    return _atanh_clamped(abs(z - w) / abs(z - w.conjugate()))


def right_half_plane(z: complex, w: complex) -> float:
    return _atanh_clamped(abs(z - w) / abs(z + w.conjugate()))


def ball(z: np.ndarray, w: np.ndarray, center=0.0, radius: float = 1.0) -> float:
    """Ball of the given center and radius in C^d."""
    z = (np.asarray(z, dtype=complex) - center) / radius
    w = (np.asarray(w, dtype=complex) - center) / radius
    one_z = 1.0 - float(np.sum(np.abs(z) ** 2))
    one_w = 1.0 - float(np.sum(np.abs(w) ** 2))
    pair = abs(1.0 - complex(np.sum(z * np.conj(w)))) ** 2
    return _atanh_clamped(math.sqrt(max(0.0, 1.0 - one_z * one_w / pair)))


def ball_metric(z: np.ndarray, v: np.ndarray) -> float:
    """Infinitesimal metric of the unit ball at z applied to v."""
    one = 1.0 - float(np.sum(np.abs(z) ** 2))
    pair = abs(complex(np.sum(v * np.conj(z)))) ** 2
    return math.sqrt(float(np.sum(np.abs(v) ** 2)) * one + pair) / one


def polydisk(z: np.ndarray, w: np.ndarray) -> float:
    """Unit polydisk: the max of the coordinate disk distances."""
    return max(disk(complex(a), complex(b)) for a, b in zip(z, w))


def product(left, right, z: np.ndarray, w: np.ndarray) -> float:
    """Product of two planar factors: the max of the factor distances."""
    return max(left(complex(z[0]), complex(w[0])), right(complex(z[1]), complex(w[1])))


# the ellipsoid {|z1|^2 + 2|z2|^2 < 1} is the unit ball under diag(1, 1/sqrt 2)
_ELLIPSOID_PULLBACK = np.array([1.0, math.sqrt(2.0)])


def ellipsoid(z: np.ndarray, w: np.ndarray) -> float:
    return ball(_ELLIPSOID_PULLBACK * z, _ELLIPSOID_PULLBACK * w)


def ellipsoid_metric(z: np.ndarray, v: np.ndarray) -> float:
    return ball_metric(_ELLIPSOID_PULLBACK * z, _ELLIPSOID_PULLBACK * v)


def in_ball(z: np.ndarray, center, radius: float) -> bool:
    return float(np.linalg.norm(np.asarray(z) - np.asarray(center))) < radius
