import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from kcat0 import (
    Disk,
    chart,
    disk_distance,
    intersection,
    planar_distance,
    planar_geodesic,
    planar_metric,
    right_half_plane,
    sector,
    unit_disk,
    upper_half_plane,
)
from kcat0.errors import InvalidDomain, OutsideDomain
from kcat0.planar import exact_chart

HALF_LN3 = 0.5493061443340549  # arctanh(1/2)
LN3 = 1.0986122886681098
LN2 = 0.6931471805599453


def poincare_segment_length(a: complex, b: complex) -> float:
    """Independent oracle: quadrature of |sigma'| / (1 - |sigma|^2)."""
    def integrand(t):
        z = a + t * (b - a)
        return abs(b - a) / (1.0 - abs(z) ** 2)

    val, err = quad(integrand, 0.0, 1.0, limit=200)
    assert err < 1e-10
    return val


def upper_half_plane_vertical_length(a: float, b: float) -> float:
    """Oracle for the segment i*a -> i*b: quadrature of |v| / (2 Im z)."""
    val, err = quad(lambda t: 1.0 / (2.0 * t), a, b, limit=200)
    assert err < 1e-10
    return val


class TestDiskDistance:
    def test_against_quadrature_oracle(self):
        assert disk_distance(0.0, 0.5) == pytest.approx(
            poincare_segment_length(0.0, 0.5), abs=1e-9)
        assert disk_distance(0.0, 0.5) == pytest.approx(HALF_LN3, abs=1e-12)

    def test_same_point(self):
        assert disk_distance(0.3 + 0.1j, 0.3 + 0.1j) == 0.0

    def test_symmetric_pair(self):
        # the straight segment through 0 is the geodesic, so the oracle applies
        assert disk_distance(-0.5, 0.5) == pytest.approx(
            poincare_segment_length(-0.5, 0.5), abs=1e-9)
        assert disk_distance(-0.5, 0.5) == pytest.approx(LN3, abs=1e-12)
        assert disk_distance(-0.5, 0.5) == pytest.approx(
            2 * disk_distance(0.0, 0.5), abs=1e-12)

    def test_rejects_boundary(self):
        with pytest.raises(OutsideDomain):
            disk_distance(1.0, 0.0)
        with pytest.raises(OutsideDomain):
            disk_distance(0.0, 1.2)

    @given(st.complex_numbers(max_magnitude=0.9, allow_nan=False, allow_infinity=False),
           st.complex_numbers(max_magnitude=0.9, allow_nan=False, allow_infinity=False),
           st.complex_numbers(max_magnitude=0.9, allow_nan=False, allow_infinity=False))
    @settings(max_examples=80, deadline=None)
    def test_metric_axioms(self, z, w, u):
        assert disk_distance(z, w) == disk_distance(w, z)
        assert disk_distance(z, w) <= disk_distance(z, u) + disk_distance(u, w) + 1e-9
        assert disk_distance(z, z) == 0.0


def _h_distance(s0: complex, s1: complex) -> float:
    """Upper half-plane distance of two chart images."""
    return math.asinh(abs(s0 - s1) / (2.0 * math.sqrt(s0.imag * s1.imag)))


class TestCharts:
    def test_half_plane_chart_is_the_identity(self):
        assert chart(upper_half_plane()).forward(2 + 3j) == 2 + 3j
        ch = chart(right_half_plane())
        assert ch.forward(1.0) == pytest.approx(1j, abs=1e-15)

    def test_sector_opening_pi_is_half_plane(self):
        D = sector(0.0, 0.0, math.pi)
        ch = chart(D)  # canonicalized to the half-plane, a rigid motion onto H
        assert abs(ch.forward(1j) - 1j) < 1e-14

    def test_quarter_sector_power_map(self):
        ch = chart(sector(0.0, 0.0, math.pi / 2))
        # e^{i pi/4} squares to i
        assert abs(ch.forward(cmath.exp(1j * math.pi / 4)) - 1j) < 1e-13

    def test_round_trip(self, rng):
        domains = [unit_disk(), Disk(1 - 2j, 0.7), upper_half_plane(),
                   sector(0.3j, 0.2, 1.9)]
        for D in domains:
            ch = chart(D)
            count = 0
            while count < 100:
                raw = rng.normal(size=2) * 2.0
                z = complex(raw[0], raw[1])
                if not D.contains([z]):
                    continue
                count += 1
                assert abs(ch.inverse(ch.forward(z)) - z) < 1e-10
                assert ch.forward(z).imag > 0

    def test_derivative_is_analytic(self, rng):
        # central differences along 1 and i agree (Cauchy-Riemann), and
        # |f'| / (2 Im f) is the node's closed-form metric
        for D in (upper_half_plane(), sector(0.0, 0.1, 1.3), Disk(0.5, 2.0)):
            ch = chart(D)
            for _ in range(20):
                raw = rng.normal(size=2)
                z = complex(raw[0], raw[1])
                if not D.contains([z]):
                    continue
                h = 1e-6
                fd = (ch.forward(z + h) - ch.forward(z - h)) / (2 * h)
                fd_i = (ch.forward(z + 1j * h) - ch.forward(z - 1j * h)) / (2j * h)
                assert abs(fd - fd_i) < 1e-6 * max(1.0, abs(fd))
                k = abs(fd) / (2.0 * ch.forward(z).imag)
                assert planar_metric(D, z, 1.0) == pytest.approx(k, rel=1e-6)

    def test_no_chart_for_general_domain(self):
        lens3 = intersection([Disk(0, 1), Disk(0.5, 1), Disk(0.25 + 0.5j, 1)])
        with pytest.raises(InvalidDomain):
            chart(lens3)


class TestPlanarOps:
    def test_half_plane_distance_and_midpoint(self):
        H = upper_half_plane()
        oracle = upper_half_plane_vertical_length(1.0, 4.0)
        assert planar_distance(H, 1j, 4j) == pytest.approx(oracle, abs=1e-9)
        assert planar_distance(H, 1j, 4j) == pytest.approx(LN2, abs=1e-12)
        mid = planar_geodesic(H, 1j, 4j, 0.5)
        assert mid == pytest.approx(2j, abs=1e-10)

    def test_sector_pullback_distance(self):
        S = sector(0.0, 0.0, math.pi / 2)
        a = cmath.exp(1j * math.pi / 4)
        assert planar_distance(S, a, 2 * a) == pytest.approx(LN2, abs=1e-12)

    def test_distance_zero_and_geodesic_start(self):
        S = sector(0.0, 0.0, math.pi / 2)
        z = 1 + 0.5j
        assert planar_distance(S, z, z) == 0.0
        assert planar_geodesic(S, z, 2 + 0.5j, 0.0) == pytest.approx(z, abs=1e-12)

    def test_half_plane_metric(self):
        H = upper_half_plane()
        assert planar_metric(H, 1j, 1.0) == pytest.approx(0.5, abs=1e-13)
        assert planar_metric(H, 2j, 1.0) == pytest.approx(0.25, abs=1e-13)

    def test_geodesic_additivity(self, rng):
        for D in (unit_disk(), upper_half_plane(), sector(0.0, 0.0, math.pi / 2)):
            z = None
            pts = []
            while len(pts) < 2:
                raw = rng.normal(size=2)
                cand = complex(raw[0], raw[1])
                if D.contains([cand]):
                    pts.append(cand)
            z, w = pts
            s, t, u = sorted(rng.uniform(0, 1, size=3))
            gs = planar_geodesic(D, z, w, s)
            gt = planar_geodesic(D, z, w, t)
            gu = planar_geodesic(D, z, w, u)
            lhs = planar_distance(D, gs, gt) + planar_distance(D, gt, gu)
            assert lhs == pytest.approx(planar_distance(D, gs, gu), abs=1e-9)

    def test_conformal_invariance(self, rng):
        # distances through two chart normalizations agree with the node's:
        # the chart, and the chart followed by an automorphism of H
        S = sector(0.0, 0.2, 1.4)
        ch = exact_chart(S)
        mob = lambda s: (2 * s + 1) / (s + 1)   # real coefficients, determinant 1
        for _ in range(20):
            raw = rng.normal(size=4)
            z, w = complex(raw[0], raw[1]), complex(raw[2], raw[3])
            if not (S.contains([z]) and S.contains([w])):
                continue
            s0, s1 = ch.forward(z), ch.forward(w)
            d = planar_distance(S, z, w)
            assert _h_distance(s0, s1) == pytest.approx(d, abs=1e-10)
            assert _h_distance(mob(s0), mob(s1)) == pytest.approx(d, abs=1e-10)

    def test_quadrature_consistency(self):
        # the numeric length of the returned geodesic equals the distance
        S = sector(0.0, 0.0, math.pi / 2)
        a, b = 1 + 0.4j, 2.5 + 0.8j
        ts = np.linspace(0.0, 1.0, 4001)
        pts = np.array([planar_geodesic(S, a, b, t) for t in ts])
        mids = 0.5 * (pts[1:] + pts[:-1])
        speeds = np.array([planar_metric(S, m, 1.0) for m in mids])
        length = float(np.sum(speeds * np.abs(np.diff(pts))))
        assert length == pytest.approx(planar_distance(S, a, b), abs=1e-7)


class TestLensCharts:
    def test_two_disk_lens_round_trip(self, rng):
        lens = intersection([Disk(0, 1), Disk(1.2, 1)])
        ch = exact_chart(lens)
        assert ch is not None
        count = 0
        while count < 50:
            raw = rng.normal(size=2) * 0.7
            z = complex(raw[0] + 0.6, raw[1])
            if not lens.contains([z]):
                continue
            count += 1
            assert ch.forward(z).imag > 0
            assert abs(ch.inverse(ch.forward(z)) - z) < 1e-9

    def test_disk_half_plane_wedge(self, rng):
        lens = intersection([Disk(1.0, 1.0), upper_half_plane()])
        ch = exact_chart(lens)
        assert ch is not None
        count = 0
        while count < 50:
            raw = rng.normal(size=2) * 0.6
            z = complex(raw[0] + 1.0, abs(raw[1]) + 1e-3)
            if not lens.contains([z]):
                continue
            count += 1
            assert ch.forward(z).imag > 0
            assert abs(ch.inverse(ch.forward(z)) - z) < 1e-9

    def test_lens_distance_dominates_member(self):
        # the lens is smaller than each disk, so its metric dominates
        lens = intersection([Disk(0, 1), Disk(1.2, 1)])
        ch = exact_chart(lens)
        a, b = 0.5, 0.7
        d_lens = _h_distance(ch.forward(a), ch.forward(b))
        assert d_lens == pytest.approx(planar_distance(lens, a, b), rel=1e-12)
        assert d_lens >= disk_distance(a, b) - 1e-12
        assert planar_metric(lens, 0.6, 1.0) >= planar_metric(Disk(0, 1), 0.6, 1.0)
