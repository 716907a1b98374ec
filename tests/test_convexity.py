import math

import numpy as np
import pytest

from kcat0 import (
    AffineLine,
    Ball,
    DefiningFunction,
    Graph,
    Polydisk,
    RealPolynomial,
    example36_domain,
    exponent_fit,
    intersection,
    line_type,
    local_m_convex_check,
    unit_disk,
    vanishing_order,
)
from kcat0.errors import InvalidDomain, OrderNotResolved


def ball2():
    return Ball(np.zeros(2, dtype=complex), 1.0)


def ball_poly():
    return RealPolynomial(2, {(2, 0, 0, 0): 1.0, (0, 2, 0, 0): 1.0,
                              (0, 0, 2, 0): 1.0, (0, 0, 0, 2): 1.0,
                              (0, 0, 0, 0): -1.0})


def quartic_poly():
    # -Im z1 + |z2|^4 in real coordinates
    return RealPolynomial(2, {(0, 1, 0, 0): -1.0, (0, 0, 4, 0): 1.0,
                              (0, 0, 0, 4): 1.0, (0, 0, 2, 2): 2.0})


class TestExponentFit:
    def test_ball_square_root(self):
        rep = exponent_fit(ball2(), [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0])
        assert 0.48 <= rep.fitted_exponent <= 0.52
        # oracle check: delta = eps, delta_dir = sqrt(2 eps - eps^2)
        for s in rep.samples:
            eps = s.delta
            assert s.delta_dir == pytest.approx(math.sqrt(2 * eps - eps ** 2), rel=1e-9)

    def test_polydisk_flat_face(self):
        P = Polydisk(np.zeros(2, dtype=complex), np.ones(2))
        rep = exponent_fit(P, [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0])
        assert abs(rep.fitted_exponent) < 0.02
        assert rep.verdict == "fail"
        for s in rep.samples:  # the tangent disk through the flat face is full size
            assert s.delta_dir == pytest.approx(1.0, abs=1e-12)

    def test_disk_single_direction(self):
        rep = exponent_fit(unit_disk(), [1.0], [-1.0], [1.0])
        assert rep.fitted_exponent == pytest.approx(1.0, abs=1e-9)


class TestLocalMConvex:
    def test_ball_passes_m2(self):
        rep = local_m_convex_check(ball2(), 2.0, 2, sample_count=300, seed=5)
        assert rep.verdict == "pass"
        assert not rep.diverging
        assert rep.empirical_c <= 1.5  # sqrt(2) plus sampling slack

    def test_polydisk_diverges(self):
        P = Polydisk(np.zeros(2, dtype=complex), np.ones(2))
        rep = local_m_convex_check(P, 2.0, 2, sample_count=300, seed=5)
        assert rep.diverging
        assert rep.verdict == "fail"
        keys = sorted(rep.decade_constants)
        assert rep.decade_constants[keys[0]] > 4 * rep.decade_constants[keys[-1]]

    @pytest.mark.parametrize("seed", range(12))
    def test_benchmark_verdicts_hold_across_seeds(self, seed):
        # the benchmark's settings: window 2, m = 2, 300 samples
        omega = local_m_convex_check(example36_domain(), 2.0, 2, sample_count=300, seed=seed)
        assert omega.verdict == "pass"
        P = Polydisk(np.zeros(2, dtype=complex), np.ones(2))
        flat = local_m_convex_check(P, 2.0, 2, sample_count=300, seed=seed)
        assert (flat.verdict, flat.diverging) == ("fail", True)

    @pytest.mark.parametrize("radius", [0.0, -1.0, math.nan])
    def test_window_must_be_positive(self, radius):
        with pytest.raises(InvalidDomain):
            local_m_convex_check(ball2(), radius, 2, sample_count=10)

    @pytest.mark.parametrize("m", [0.5, math.nan, math.inf])
    def test_m_must_be_finite_and_at_least_one(self, m):
        with pytest.raises(InvalidDomain):
            local_m_convex_check(ball2(), 2.0, m, sample_count=10)

    @pytest.mark.parametrize("target_c", [0.0, -1.0, math.nan, math.inf])
    def test_target_c_must_be_finite_and_positive(self, target_c):
        with pytest.raises(InvalidDomain):
            local_m_convex_check(ball2(), 2.0, 2, sample_count=10, target_c=target_c)

    def test_monotone_in_m_on_ball(self):
        # window covers the whole unit ball, so delta <= 1 and the same
        # constant works for any larger m
        rep2 = local_m_convex_check(ball2(), 2.0, 2, sample_count=200, seed=9)
        rep3 = local_m_convex_check(ball2(), 2.0, 3, sample_count=200, seed=9)
        assert rep3.empirical_c <= rep2.empirical_c + 1e-12
        assert rep3.verdict == "pass"

    def test_target_c_verdict(self):
        rep = local_m_convex_check(ball2(), 2.0, 2, sample_count=100, seed=1,
                                   target_c=0.5)
        assert rep.verdict == "fail"  # sqrt(2)-ish constant exceeds 0.5


class TestFiniteTypeConsistency:
    """Cross-checks of the m-convexity / line-type correspondence."""

    def make_quartic_domain(self):
        r = DefiningFunction.from_polynomial(quartic_poly())
        G = Graph(r, interior_point=[0.5j, 0.0])
        return intersection([G, Ball(np.array([0.0, 0.0], dtype=complex), 1.0)])

    def test_quartic_exponent_quarter(self):
        D = self.make_quartic_domain()
        rep = exponent_fit(D, [0.0, 0.0], [1j, 0.0], [0.0, 1.0],
                           eps_grid=np.geomspace(1e-2, 1e-5, 7))
        assert rep.fitted_exponent == pytest.approx(0.25, abs=0.02)

    def test_quartic_passes_m4_fails_m2(self):
        D = self.make_quartic_domain()
        # directed approach toward the degenerate boundary point 0
        ratios2, ratios4 = [], []
        for eps in np.geomspace(1e-2, 1e-5, 7):
            z = np.array([1j * eps, 0.0])
            delta = D.delta(z)
            delta_dir = D.delta_dir(z, [0.0, 1.0])
            ratios2.append(delta_dir / delta ** 0.5)
            ratios4.append(delta_dir / delta ** 0.25)
        assert ratios2[-1] > 4 * ratios2[0]      # m=2 constant diverges
        assert max(ratios4) < 4 * min(ratios4)   # m=4 constant stays bounded

    def test_ball_type2_passes_m2(self):
        rep = local_m_convex_check(ball2(), 1.5, 2, sample_count=200, seed=11)
        assert rep.verdict == "pass"


class TestVanishingOrder:
    def test_quartic_tangent_line(self):
        r = DefiningFunction.from_polynomial(quartic_poly())
        line = AffineLine(np.zeros(2, dtype=complex), np.array([0.0, 1.0], dtype=complex))
        assert vanishing_order(r, line) == 4

    def test_ball_tangent_line(self):
        r = DefiningFunction.from_polynomial(ball_poly())
        line = AffineLine(np.array([1.0, 0.0], dtype=complex),
                          np.array([0.0, 1.0], dtype=complex))
        assert vanishing_order(r, line) == 2

    def test_transversal_line_is_linear(self):
        r = DefiningFunction.from_polynomial(quartic_poly())
        line = AffineLine(np.zeros(2, dtype=complex), np.array([1.0, 0.0], dtype=complex))
        assert vanishing_order(r, line) == 1

    def test_reparametrization_invariance(self):
        r = DefiningFunction.from_polynomial(quartic_poly())
        for c in (2.0, 1j):
            line = AffineLine(np.zeros(2, dtype=complex),
                              c * np.array([0.0, 1.0], dtype=complex))
            assert vanishing_order(r, line) == 4

    def test_numeric_path_agrees(self):
        r = DefiningFunction(2, evaluate=lambda z: -z[0].imag + abs(z[1]) ** 4)
        line = AffineLine(np.zeros(2, dtype=complex), np.array([0.0, 1.0], dtype=complex))
        assert vanishing_order(r, line) == 4

    def test_base_off_boundary_rejected(self):
        r = DefiningFunction.from_polynomial(ball_poly())
        line = AffineLine(np.array([0.5, 0.0], dtype=complex),
                          np.array([0.0, 1.0], dtype=complex))
        with pytest.raises(InvalidDomain):
            vanishing_order(r, line)


class TestLineType:
    def test_ball_is_type_two(self):
        res = line_type(DefiningFunction.from_polynomial(ball_poly()), [1.0, 0.0])
        assert res.line_type == 2

    def test_quartic_is_type_four(self):
        res = line_type(DefiningFunction.from_polynomial(quartic_poly()), [0.0, 0.0])
        assert res.line_type == 4
        # extremal line is the z2 axis up to phase
        assert abs(res.extremal_direction[0]) < 1e-9
        assert abs(res.extremal_direction[1]) == pytest.approx(1.0, abs=1e-9)

    def test_numeric_path_agrees(self):
        r = DefiningFunction(2, evaluate=lambda z: -z[0].imag + abs(z[1]) ** 4)
        res = line_type(r, [0.0, 0.0])
        assert res.line_type == 4

    def test_flat_boundary_flags_infinite(self):
        def flat(z):
            w = abs(z[1])
            return -z[0].imag + (math.exp(-1.0 / w ** 2) if w > 0 else 0.0)

        res = line_type(DefiningFunction(2, evaluate=flat), [0.0, 0.0])
        assert math.isinf(res.line_type)

    def test_vanishing_gradient_rejected(self):
        # r = (Re z1)^2 + ... has zero gradient at the origin
        poly = RealPolynomial(2, {(2, 0, 0, 0): 1.0, (0, 0, 2, 0): 1.0})
        with pytest.raises(InvalidDomain):
            line_type(DefiningFunction.from_polynomial(poly), [0.0, 0.0])

    @pytest.mark.parametrize("cap", [0, 1])
    def test_cap_must_be_at_least_two(self, cap):
        # a complex tangent line vanishes to order at least 2, so a lower cap
        # would call the quartic point of type 4 infinite
        with pytest.raises(InvalidDomain):
            line_type(DefiningFunction.from_polynomial(quartic_poly()), [0.0, 0.0], cap=cap)

    def test_dimension_one_is_trivial(self):
        poly = RealPolynomial(1, {(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0})
        res = line_type(DefiningFunction.from_polynomial(poly), [1.0])
        assert res.line_type == 1
