import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kcat0
from kcat0 import (
    AffineLine,
    Ball,
    DefiningFunction,
    Graph,
    Polydisk,
    RealPolynomial,
    example36_domain,
    intersection,
    line_type,
    local_m_convex_check,
    vanishing_order,
)
from kcat0.convexity import _exact_order, _tangent_basis
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


def _sympy_order(poly, line):
    """Reference order: expand poly(base + (s + i tau) w) with sympy at 30 digits."""
    sympy = pytest.importorskip("sympy")
    s, tau = sympy.symbols("s tau", real=True)
    subs = []
    for b, w in zip(line.base, line.direction):
        subs += [b.real + s * w.real - tau * w.imag, b.imag + s * w.imag + tau * w.real]
    expr = sympy.Integer(0)
    for expo, c in poly.terms.items():
        term = sympy.Float(c, 30)
        for var, e in zip(subs, expo):
            if e:
                term *= var ** e
        expr += term
    expr = sympy.expand(expr)
    if expr == 0:
        raise OrderNotResolved("the defining function vanishes identically on the line")
    p = sympy.Poly(expr, s, tau)
    degrees = [sum(m) for m, c in zip(p.monoms(), p.coeffs()) if abs(float(c)) > 1e-12]
    if not degrees:
        raise OrderNotResolved("all substituted coefficients vanish numerically")
    return min(degrees)


def _complex(rng, d):
    return rng.normal(size=d) + 1j * rng.normal(size=d)


def _random_order_case(rng):
    """A polynomial of total degree at most 6 and a line; half the time the
    constant is moved so that the base point is a (rounded) zero, and some
    polynomials are scaled below the 1e-12 cut-off."""
    d = int(rng.integers(1, 3))
    scale = 1e-13 if rng.uniform() < 0.15 else 1.0
    terms = {}
    for _ in range(int(rng.integers(1, 7))):
        expo = np.zeros(2 * d, dtype=int)
        for _ in range(int(rng.integers(0, 7))):
            expo[rng.integers(2 * d)] += 1
        coefficient = float(rng.integers(-3, 4)) if rng.uniform() < 0.5 else rng.normal()
        terms[tuple(expo)] = scale * coefficient
    base = np.zeros(d, dtype=complex) if rng.uniform() < 0.3 else _complex(rng, d)
    line = AffineLine(base, _complex(rng, d))
    if rng.uniform() < 0.5:
        constant = (0,) * (2 * d)
        terms[constant] = terms.get(constant, 0.0) - RealPolynomial(d, terms)(base)
    return RealPolynomial(d, terms), line


def _off_line_case(rng):
    """A polynomial in z_2 alone and a line in the z_1 direction through
    z_2 = 0, so it vanishes on the line unless it has a constant term."""
    terms = {(0, 0, int(a), int(b)): rng.normal() for a, b in rng.integers(0, 4, size=(3, 2))}
    return RealPolynomial(2, terms), AffineLine(np.array([rng.normal(), 0.0], dtype=complex),
                                                np.array([_complex(rng, 1)[0], 0.0]))


def _tangent_case(poly, boundary_point):
    def case(rng):
        x = boundary_point(rng)
        basis = _tangent_basis(DefiningFunction.from_polynomial(poly), x)
        return poly, AffineLine(x, basis @ _complex(rng, basis.shape[1]))
    return case


def _sphere_point(rng):
    x = _complex(rng, 2)
    return x / np.linalg.norm(x)


def _quartic_point(rng):
    # -Im z1 + |z2|^4 = 0, with z2 = 0 (type 4) a quarter of the time
    z2 = 0.0 if rng.uniform() < 0.25 else _complex(rng, 1)[0]
    return np.array([rng.normal() + 1j * abs(z2) ** 4, z2])


_ORDER_CASES = {
    "random": _random_order_case,
    "off-line": _off_line_case,
    "ball-tangent": _tangent_case(ball_poly(), _sphere_point),
    "quartic-tangent": _tangent_case(quartic_poly(), _quartic_point),
}


@given(st.sampled_from(sorted(_ORDER_CASES)), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_exact_order_matches_sympy(model, seed):
    poly, line = _ORDER_CASES[model](np.random.default_rng(seed))
    try:
        expected = _sympy_order(poly, line)
    except OrderNotResolved:
        with pytest.raises(OrderNotResolved):
            _exact_order(poly, line)
    else:
        assert _exact_order(poly, line) == expected


class TestLineType:
    def test_ball_is_type_two(self):
        res = line_type(DefiningFunction.from_polynomial(ball_poly()), [1.0, 0.0])
        assert res.line_type == 2

    @pytest.mark.parametrize("seed", range(3))
    def test_type_off_the_axes(self, seed):
        # the tangent lines solve sum dr/dz_j w_j = 0, not its conjugate: a
        # generic sphere point is of type 2, and so is a quartic point with z2 != 0
        rng = np.random.default_rng(seed)
        x = _sphere_point(rng)
        assert line_type(DefiningFunction.from_polynomial(ball_poly()), x).line_type == 2
        z2 = 0.5 * np.exp(1j * rng.uniform(0, 2 * math.pi))
        x = [rng.normal() + 1j * abs(z2) ** 4, z2]
        assert line_type(DefiningFunction.from_polynomial(quartic_poly()), x).line_type == 2

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

    def test_base_off_boundary_rejected(self):
        # 0.5i lies inside {Im z1 > |z2|^4}, where r o l does not vanish at 0
        with pytest.raises(InvalidDomain, match="must lie on the boundary"):
            line_type(DefiningFunction.from_polynomial(quartic_poly()), [0.5j, 0.0])

    def test_polynomial_path_needs_no_sympy(self):
        src = str(Path(kcat0.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        script = ("import sys; sys.modules['sympy'] = None\n"
                  "from kcat0.cli import main\n"
                  "sys.exit(main(['linetype', '--builtin-r', 'quartic', '--point', '0,0']))")
        run = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        assert json.loads(run.stdout)["line_type"] == 4

    def test_dimension_one_is_trivial(self):
        poly = RealPolynomial(1, {(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0})
        res = line_type(DefiningFunction.from_polynomial(poly), [1.0])
        assert res.line_type == 1
