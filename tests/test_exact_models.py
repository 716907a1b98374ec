"""Exact distances, geodesics and metrics of the model domains against
50-digit references.

Each reference is computed with ``mpmath`` from the float inputs as given
(node parameters and points), through the classical route: rotate and
power a sector onto the upper half-plane, Cayley onto the unit disk, and
take ``atanh`` of the Mobius quotient (a geodesic from the disk centre is
a radius).  None of it shares code with the forms under test.
Coordinates range over scales from 1e-15 to 1e8, and disk and ball points
come within 1e-12 of the sphere (in unit coordinates); every distance is
held to 1e-12 relative.
"""

import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kcat0 import AffineImage, Ball, Disk, HalfPlane, Intersection, Sector, intersection, sector
from kcat0.domains import _lens_sector
from kcat0.planar import ball_distance, planar_geodesic, planar_metric

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


def _upper_geodesic(s0, s1, t):
    """Upper half-plane geodesic: the real affine map taking s0 to i, then
    Cayley onto the disk, where the geodesic from 0 is a radius."""
    b = (s1 - s0.real) / s0.imag
    b = (b - 1j) / (b + 1j)
    u = mpmath.tanh(t * mpmath.atanh(abs(b))) * b / abs(b)
    return s0.real + s0.imag * 1j * (1 + u) / (1 - u)


def _sector_maps(V, alpha, opening):
    """vertex + {alpha < arg < alpha + opening} onto H and back: rotate,
    then power by pi / opening."""
    q = mpmath.pi / opening
    rot = mpmath.exp(-1j * alpha)
    return (lambda z: mpmath.exp(q * mpmath.log((z - V) * rot)),
            lambda s: V + mpmath.exp(mpmath.log(s) / q) / rot)


def _unit(rng):
    return cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))


def _scale(rng):
    return 10.0 ** rng.uniform(*_SCALES)


# Planar cases return (D, x, y, to_h, from_h): the node, two points inside
# and 50-digit maps of the node onto the upper half-plane and back.

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
    if d == 1:   # the inverse Cayley map of the unit coordinate
        return (D, pts[0][0], pts[1][0], lambda z: 1j * (R + z - C[0]) / (R - z + C[0]),
                lambda s: C[0] + R * (s - 1j) / (s + 1j))
    Z, W = ([(_mp(a) - b) / R for a, b in zip(p, C)] for p in pts)
    return D, pts[0], pts[1], _ball_ref(Z, W)


def _half_plane_case(rng):
    s = _scale(rng)
    H = HalfPlane(s * complex(*rng.normal(size=2)), _unit(rng))
    n = H.inward_normal
    pts = [H.boundary_point + s * (10.0 ** rng.uniform(-2, 1) * n
                                   + rng.uniform(-3, 3) * 1j * n) for _ in range(2)]
    # rotate the inward normal onto i: the half-plane becomes the upper one
    B, rot = _mp(H.boundary_point), 1j / _mp(n)
    return H, pts[0], pts[1], lambda z: (z - B) * rot, lambda s: B + s / rot


def _sector_case(rng):
    # openings 0.01 to 3; the points' moduli set K <= 20 (K ~ q |log ratio| / 2)
    s = _scale(rng)
    opening = 10.0 ** rng.uniform(-2.0, math.log10(3.0))
    alpha = rng.uniform(-3, 3)
    S = Sector(s * complex(*rng.normal(size=2)), alpha, alpha + opening)
    q = math.pi / opening
    r0 = s * 10.0 ** rng.uniform(-1, 1)
    pts = [S.vertex + r * cmath.exp(1j * (S.alpha + opening * rng.uniform(0.05, 0.95)))
           for r in (r0, r0 * math.exp(rng.uniform(-1, 1) * min(math.log(10.0), 30.0 / q)))]
    return (S, pts[0], pts[1],
            *_sector_maps(_mp(S.vertex), mpmath.mpf(S.alpha),
                          mpmath.mpf(S.beta) - mpmath.mpf(S.alpha)))


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
    return (wedge, pts[0], pts[1], *_sector_maps(V, alpha, opening))


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
    to_h, from_h = _sector_maps(0, alpha, opening)
    return (D, pts[0], pts[1], lambda z: to_h(T(z)),
            lambda s: (lambda w: (P - w * Q) / (1 - w))(from_h(s)))


def _affine_half_plane_case(rng):
    H, w, v, to_h, from_h = _half_plane_case(rng)
    a = _scale(rng) * _unit(rng) * rng.uniform(0.5, 2.0)
    b = a * abs(w) * complex(*rng.normal(size=2))   # an offset on the image's own scale
    D = AffineImage([[a]], [b], H)
    A, B = _mp(a), _mp(b)
    return (D, a * w + b, a * v + b, lambda z: to_h((z - B) / A),
            lambda s: A * from_h(s) + B)


_PLANAR = {
    "disk": lambda rng: _ball_case(rng, 1),
    "half-plane": _half_plane_case,
    "sector": _sector_case,
    "wedge": _wedge_case,
    "lens": lambda rng: _lens_case(rng, False),
    "disk-half-plane-lens": lambda rng: _lens_case(rng, True),
    "affine-half-plane": _affine_half_plane_case,
}


def _planar_distance_case(make):
    def case(rng):
        D, x, y, to_h, _ = make(rng)
        return D, [x], [y], _upper_ref(to_h(_mp(x)), to_h(_mp(y)))
    return case


_CASES = {
    **{name: _planar_distance_case(make) for name, make in _PLANAR.items()},
    "ball-2": lambda rng: _ball_case(rng, 2),
    "ball-3": lambda rng: _ball_case(rng, 3),
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


@given(st.sampled_from(sorted(_PLANAR)), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([0.25, 0.5, 0.9]))
@example("wedge", 246, 0.5)   # walked from its start, Re s cancels 1.3e11 down to 5e-12
@settings(max_examples=300, deadline=None)
def test_exact_geodesic_matches_50_digits(model, seed, t):
    # error relative to the points' coordinates, within K 1e-12 plus a few
    # ulps; sectors included, though w^q scales the rounding of w by q
    D, x, y, to_h, from_h = _PLANAR[model](np.random.default_rng(seed))
    s0, s1 = to_h(_mp(x)), to_h(_mp(y))
    K = float(_upper_ref(s0, s1))
    ref = complex(from_h(_upper_geodesic(s0, s1, t)))
    got = planar_geodesic(D, x, y, t)
    assert abs(got - ref) <= (1e-12 * K + 1e-15) * max(abs(x), abs(y))


def test_sector_metric_matches_50_digits():
    # |d(w^q)| / (2 Im w^q) at w = (z - vertex) e^(-i alpha), q = pi / opening,
    # for openings 0.005 to 3 and points 1e-6 to 1e6 from the vertex
    rng = np.random.default_rng(7)
    for _ in range(300):
        s = _scale(rng)
        alpha, opening = rng.uniform(-3, 3), 10.0 ** rng.uniform(math.log10(0.005), math.log10(3.0))
        S = sector(s * complex(*rng.normal(size=2)), alpha, alpha + opening)
        z = S.vertex + s * 10.0 ** rng.uniform(-6, 6) * cmath.exp(
            1j * (alpha + opening * rng.uniform(0.05, 0.95)))
        v = complex(*rng.normal(size=2))
        q = mpmath.pi / (mpmath.mpf(S.beta) - mpmath.mpf(S.alpha))
        w = (_mp(z) - _mp(S.vertex)) * mpmath.exp(-1j * mpmath.mpf(S.alpha))
        ref = q * abs(_mp(v)) / (2 * abs(w) * mpmath.sin(q * mpmath.arg(w)))
        assert planar_metric(S, z, v) == pytest.approx(float(ref), rel=1e-12)


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
