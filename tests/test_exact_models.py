"""Exact distances of the model domains against 50-digit references.

Each reference is computed with ``mpmath`` from the float inputs as given
(node parameters and points), through the classical route: rotate and
power a sector onto the upper half-plane, Cayley onto the unit disk, and
take ``atanh`` of the Mobius quotient.  None of it shares code with the
forms under test.  Coordinates range over scales from 1e-15 to 1e8, and
disk and ball points come within 1e-12 of the sphere (in unit
coordinates); every model is held to 1e-12 relative.
"""

import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcat0 import AffineImage, Ball, Disk, HalfPlane, Intersection, Sector, intersection
from kcat0.domains import _lens_sector
from kcat0.planar import ball_distance

mpmath.mp.dps = 50
_SCALES = (-15.0, 8.0)   # log10 of the coordinate scale


def _mp(z):
    return mpmath.mpc(complex(z))


def _ball_ref(Z, W):
    """Unit-ball distance: atanh |phi_Z(W)|, 1 - |phi_Z(W)|^2 = (1-|Z|^2)(1-|W|^2)/|1-<W,Z>|^2."""
    nz = sum(abs(a) ** 2 for a in Z)
    nw = sum(abs(b) ** 2 for b in W)
    pair = sum(b * mpmath.conj(a) for a, b in zip(Z, W))
    return mpmath.atanh(mpmath.sqrt(1 - (1 - nz) * (1 - nw) / abs(1 - pair) ** 2))


def _upper_ref(s, t):
    """Upper half-plane distance through the Cayley map onto the unit disk,
    after the dilation that puts s on the unit circle."""
    k = abs(s)
    s, t = s / k, t / k
    return _ball_ref([(s - 1j) / (s + 1j)], [(t - 1j) / (t + 1j)])


def _sector_ref(V, alpha, opening, z, w):
    """vertex + {alpha < arg < alpha + opening}: dilate z to the unit circle,
    rotate, then power by pi / opening."""
    q = mpmath.pi / opening
    k = abs(z - V)
    s, t = (mpmath.exp(q * mpmath.log((p - V) / k * mpmath.exp(-1j * alpha))) for p in (z, w))
    return _upper_ref(s, t)


def _unit(rng):
    return cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))


def _scale(rng):
    return 10.0 ** rng.uniform(*_SCALES)


def _ball_case(rng, d):
    s = _scale(rng)
    c = s * (rng.normal(size=d) + 1j * rng.normal(size=d))
    r = s * rng.uniform(0.5, 2.0)
    D = Disk(c[0], r) if d == 1 else Ball(c, r)
    pts = []
    for _ in range(2):   # 1 - |z| from 1e-12 to 1 in unit coordinates
        u = rng.normal(size=d) + 1j * rng.normal(size=d)
        pts.append(c + r * (1 - 10.0 ** rng.uniform(-12.0, 0.0)) * u / np.linalg.norm(u))
    C, R = [_mp(a) for a in c], mpmath.mpf(r)
    Z, W = ([(_mp(a) - b) / R for a, b in zip(p, C)] for p in pts)
    return D, pts[0], pts[1], _ball_ref(Z, W)


def _half_plane_case(rng):
    s = _scale(rng)
    H = HalfPlane(s * complex(*rng.normal(size=2)), _unit(rng))
    n = H.inward_normal
    pts = [H.boundary_point + s * (10.0 ** rng.uniform(-2, 1) * n
                                   + rng.uniform(-3, 3) * 1j * n) for _ in range(2)]
    # rotate the inward normal onto i: the half-plane becomes the upper one
    rot = 1j / _mp(n)
    s_, t_ = ((_mp(p) - _mp(H.boundary_point)) * rot for p in pts)
    return H, [pts[0]], [pts[1]], _upper_ref(s_, t_)


def _wedge_case(rng):
    s = _scale(rng)
    while True:
        n1, n2 = _unit(rng), _unit(rng)
        if abs((n1 * n2.conjugate()).imag) > 0.2:   # transversal enough
            break
    h1 = HalfPlane(s * complex(*rng.normal(size=2)), n1)
    h2 = HalfPlane(s * complex(*rng.normal(size=2)), n2)
    wedge = intersection([h1, h2])
    assert isinstance(wedge, Sector)
    pts = [wedge.vertex + s * 10.0 ** rng.uniform(-1, 1)
           * cmath.exp(1j * (wedge.alpha + wedge.opening * rng.uniform(0.05, 0.95)))
           for _ in range(2)]
    # the wedge of the two given half-planes, rebuilt in 50 digits
    P1, P2, N1, N2 = (_mp(a) for a in (h1.boundary_point, h2.boundary_point,
                                       h1.inward_normal, h2.inward_normal))
    # vertex: Re((V - P_k) conj(N_k)) = 0 for both k, solved for V = a + ib
    M = mpmath.matrix([[N1.real, N1.imag], [N2.real, N2.imag]])
    ab = mpmath.lu_solve(M, mpmath.matrix([mpmath.re(P1 * mpmath.conj(N1)),
                                           mpmath.re(P2 * mpmath.conj(N2))]))
    V = mpmath.mpc(ab[0], ab[1])
    # each boundary ray runs along its line into the other half-plane
    rays = [d for N, other in ((N1, N2), (N2, N1)) for d in (1j * N, -1j * N)
            if mpmath.re(d * mpmath.conj(other)) > 0]
    a1, a2 = (mpmath.arg(d) for d in rays)
    opening = (a2 - a1) % (2 * mpmath.pi)
    alpha = a1 if opening < mpmath.pi else a2
    opening = min(opening, 2 * mpmath.pi - opening)
    return wedge, [pts[0]], [pts[1]], _sector_ref(V, alpha, opening, *map(_mp, pts))


def _lens_case(rng, with_half_plane):
    s = _scale(rng)
    c1, r1 = s * complex(*rng.normal(size=2)), s * rng.uniform(0.5, 2.0)
    e = _unit(rng)
    if with_half_plane:   # a line through the disk, at depth from -0.8 r1 to 0.8 r1
        other = HalfPlane(c1 + rng.uniform(-0.8, 0.8) * r1 * e, -e)
    else:                 # a second circle crossing the first
        r2 = s * rng.uniform(0.5, 2.0)
        other = Disk(c1 + e * rng.uniform(abs(r1 - r2) + 0.2 * s, r1 + r2 - 0.2 * s), r2)
    D = Intersection([Disk(c1, r1), other])
    # points placed in the sector coordinates the lens maps onto, as for the
    # wedge: nearer a boundary ray or a crossing point, the rounding of the
    # crossing points alone moves the distance by more than 1e-12
    P, Q, sec = _lens_sector(D.members)
    pts = [complex((P - s_ * Q) / (1 - s_)) for s_ in (
        10.0 ** rng.uniform(-1, 1) * cmath.exp(1j * (sec.alpha + sec.opening * rng.uniform(0.05, 0.95)))
        for _ in range(2))]
    # crossing points P, Q and one boundary point per arc, in 50 digits
    C1, R1 = _mp(c1), mpmath.mpf(r1)
    if with_half_plane:
        B, N = _mp(other.boundary_point), _mp(other.inward_normal)
        foot = C1 + mpmath.re((B - C1) * mpmath.conj(N)) * N
        h = mpmath.sqrt(R1 ** 2 - abs(foot - C1) ** 2)
        P, Q = foot + h * 1j * N, foot - h * 1j * N
        arcs = (C1 + R1 * N if mpmath.re((C1 + R1 * N - B) * mpmath.conj(N)) > 0
                else C1 - R1 * N, foot)
    else:
        C2, R2 = _mp(other.center), mpmath.mpf(other.radius)
        sep = abs(C2 - C1)
        u = (C2 - C1) / sep
        a = (sep ** 2 + R1 ** 2 - R2 ** 2) / (2 * sep)
        h = mpmath.sqrt(R1 ** 2 - a ** 2)
        P, Q = C1 + a * u + h * 1j * u, C1 + a * u - h * 1j * u
        arcs = (C1 + R1 * u, C2 - R2 * u)
    T = lambda z: (z - P) / (z - Q)
    a1, a2 = (mpmath.arg(T(b)) for b in arcs)
    opening = (a2 - a1) % (2 * mpmath.pi)
    alpha = a1 if opening < mpmath.pi else a2
    opening = min(opening, 2 * mpmath.pi - opening)
    ref = _sector_ref(0, alpha, opening, *(T(_mp(p)) for p in pts))
    return D, [pts[0]], [pts[1]], ref


def _affine_half_plane_case(rng):
    H, (w,), (v,), _ = _half_plane_case(rng)
    a = _scale(rng) * _unit(rng) * rng.uniform(0.5, 2.0)
    b = a * abs(w) * complex(*rng.normal(size=2))   # an offset on the image's own scale
    D = AffineImage([[a]], [b], H)
    z, y = a * w + b, a * v + b
    A, B = _mp(a), _mp(b)
    rot = 1j / _mp(H.inward_normal)
    s_, t_ = (((_mp(p) - B) / A - _mp(H.boundary_point)) * rot for p in (z, y))
    return D, [z], [y], _upper_ref(s_, t_)


_CASES = {
    "disk": lambda rng: _ball_case(rng, 1),
    "half-plane": _half_plane_case,
    "wedge": _wedge_case,
    "lens": lambda rng: _lens_case(rng, False),
    "disk-half-plane-lens": lambda rng: _lens_case(rng, True),
    "ball-2": lambda rng: _ball_case(rng, 2),
    "ball-3": lambda rng: _ball_case(rng, 3),
    "affine-half-plane": _affine_half_plane_case,
}


@given(st.sampled_from(sorted(_CASES)), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=400, deadline=None)
def test_exact_distance_matches_50_digits(model, seed):
    D, x, y, ref = _CASES[model](np.random.default_rng(seed))
    x, y = np.asarray(x, dtype=complex), np.asarray(y, dtype=complex)
    assert D.contains(x) and D.contains(y)
    got = D.exact_distance(x, y)
    assert got.is_exact
    assert got.lo == pytest.approx(float(ref), rel=1e-12)
    assert D.exact_distance(y, x).lo == got.lo


@pytest.mark.parametrize("d", [1, 2, 3])
def test_close_pairs_near_the_sphere(d):
    # |z - w|^2 and |z ^ w|^2 agree to about 1 - |z| here, where a form
    # that subtracts them loses digits; the form's terms are all non-negative
    rng = np.random.default_rng(d)
    for _ in range(200):
        u = rng.normal(size=d) + 1j * rng.normal(size=d)
        gap = 10.0 ** rng.uniform(-12.0, 0.0)
        z = (1 - gap) * u / np.linalg.norm(u)
        h = rng.normal(size=d) + 1j * rng.normal(size=d)
        w = z + gap * 10.0 ** rng.uniform(-3.0, 0.0) * h / np.linalg.norm(h)
        if np.linalg.norm(w) >= 1:
            continue
        ref = _ball_ref([_mp(a) for a in z], [_mp(a) for a in w])
        assert ball_distance(z, w, np.zeros(d), 1.0) == pytest.approx(float(ref), rel=1e-13)
        assert ball_distance(w, z, np.zeros(d), 1.0) == ball_distance(z, w, np.zeros(d), 1.0)
