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
    AffineImage,
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
from kcat0 import convexity, domains
from kcat0.convexity import (
    GRID_SIZE,
    MConvexitySample,
    _exact_order,
    _numeric_order_estimate,
    _tangent_basis,
)
from kcat0.domains import unit_rows
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


def ellipsoid_graph():
    # {|z1|^2 + 2|z2|^2 < 1}, known only through its polynomial r
    r = DefiningFunction.from_polynomial(RealPolynomial(2, {
        (2, 0, 0, 0): 1.0, (0, 2, 0, 0): 1.0, (0, 0, 2, 0): 2.0, (0, 0, 0, 2): 2.0,
        (0, 0, 0, 0): -1.0}))
    return Graph(r, interior_point=[0, 0])


def affine_lens():
    # the thin intersection of the CI step: a non-conformal image of the ball and a ball
    return intersection([AffineImage([[2, 0.5], [0, 1]], [0, 0], Ball([0, 0], 1)),
                         Ball([2.2, 0], 1)])


def _per_row_samples(D, R, count, seed):
    """The window shot one ray at a time, and one sample object per
    (point, direction) row: the reference for the array-form report."""
    rng = np.random.default_rng(seed)
    d = D.dimension
    dirs = unit_rows(rng, count + convexity.PROBE_RAYS, d)
    fractions = rng.uniform(size=count) ** (1.0 / (2 * d))
    anchor = domains._window_anchor(D, R)
    window = Ball(np.zeros(d), R)
    zs, kept = [], 0
    for k, u in enumerate(dirs):
        # each ray shot alone and as far as 1e9, which gives the capped shot's floats
        t = float(D.ray_exit_batch(anchor, u[None, :], 1e9)[0])
        w = float(window.ray_exit_batch(anchor, u[None, :], 1e9)[0])
        if k < count:
            # the window's closed-form exit, or D's pulled in by its bracket
            end = t - 1e-13 * max(1.0, t) if t < w else w
            z = anchor + end * fractions[k] * u
            if D.contains(z):
                zs.append(z)
                kept += 1
        elif t <= w:
            zs += [z for z in (anchor + t * (1.0 - eps) * u for eps in np.geomspace(1e-1, 1e-6, 6))
                   if D.contains(z)]
    n = len(zs)
    Z = np.repeat(np.array(zs), d + 1, axis=0)
    V = np.empty((n, d + 1, d), dtype=complex)
    V[:, :d] = np.eye(d)
    V[:, d] = unit_rows(rng, n, d)
    V = V.reshape(-1, d)
    deltas = np.repeat(D.delta_batch(np.array(zs)), d + 1)
    dirs = D.delta_dir_batch(Z, V)
    return kept, [MConvexitySample(*row) for row in zip(Z, V, deltas.tolist(), dirs.tolist())]


def _per_row_summary(samples, m, target_c=None):
    """The report's figures from sample objects by a per-row decade loop."""
    deltas = np.array([s.delta for s in samples])
    dirs = np.array([s.delta_dir for s in samples])
    ratios = dirs / deltas ** (1.0 / m)
    empirical_c = float(np.max(ratios))
    decades = {}
    for r, dl in zip(ratios, deltas):
        k = int(math.floor(math.log10(dl)))
        decades[k] = max(decades.get(k, 0.0), float(r))
    keys = sorted(decades)
    diverging = (len(keys) >= 3
                 and decades[keys[0]] > convexity.DIVERGENCE_FACTOR * decades[keys[-1]])
    slope = float(np.polyfit(np.log(deltas), np.log(dirs), 1)[0])
    failed = diverging or (target_c is not None and empirical_c > target_c)
    return (sorted(decades.items()), repr(empirical_c), repr(slope), diverging,
            "fail" if failed else "pass")


def _summary(rep):
    # repr, so that a NaN constant compares equal to itself
    return (sorted(rep.decade_constants.items()), repr(rep.empirical_c),
            repr(rep.fitted_exponent), rep.diverging, rep.verdict)


class _RowsDomain:
    """Hand-built rows in C^1: every draw lies inside, no ray leaves, and the
    i-th point has boundary distance deltas[i] and, along its two
    directions, the two entries of dirs[i]."""

    dimension = 1

    def __init__(self, deltas, dirs):
        self.deltas, self.dirs = np.array(deltas), np.array(dirs)

    def contains_batch(self, Z):
        return np.ones(len(Z), dtype=bool)

    def anchor(self):
        return np.zeros(1, dtype=complex)

    def ray_exit_batch(self, z, U, t_max=1e12):
        return np.full(len(U), np.inf)

    def delta_batch(self, Z):
        return self.deltas[:len(Z)]

    def delta_dir_batch(self, Z, V):
        return self.dirs.ravel()


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

    @pytest.mark.parametrize("count", [0, -3])
    def test_sample_count_must_be_at_least_one(self, count):
        # a bad count used to read as an empty window (EmptyWindow)
        with pytest.raises(InvalidDomain, match=f"the sample count must be at least 1, got {count}"):
            local_m_convex_check(ball2(), 2.0, 2, sample_count=count)

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

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("domain, window, count", [
        (ball2, 2.0, 300),
        (lambda: Polydisk(np.zeros(2, dtype=complex), np.ones(2)), 2.0, 300),
        (example36_domain, 2.0, 300),
        (ellipsoid_graph, 0.8, 12),
    ], ids=["ball", "polydisk", "omega", "graph-ellipsoid"])
    def test_array_report_matches_the_per_row_loop(self, domain, window, count, seed):
        D = domain()
        rep = local_m_convex_check(D, window, 2, sample_count=count, seed=seed, target_c=1.2)
        kept, samples = _per_row_samples(D, window, count, seed)
        assert _summary(rep) == _per_row_summary(samples, 2, target_c=1.2)
        assert rep.window_samples == (count, kept)
        assert rep.to_json()["sample_count"] == len(rep.samples) == len(samples)
        for got, want in zip(rep.samples, samples):
            assert type(got) is MConvexitySample and type(got.delta) is float
            assert np.array_equal(got.z, want.z) and np.array_equal(got.v, want.v)
            assert (got.delta, got.delta_dir) == (want.delta, want.delta_dir)

    def test_hand_built_rows_key_each_decade_by_libm(self):
        # exact powers of ten key to their own decade and one ulp below one
        # to the decade below; NaN and negative ratios never win a decade,
        # which then reads 0.0, and a NaN ratio makes the constant NaN
        deltas = [1000.0, 100.0, 10.0, 1.0, math.nextafter(1.0, 0.0), 0.1, 1e-3, 1e-3]
        dirs = [[2.0, 1.0], [math.nan, 0.5], [-1.0, math.nan], [0.25, 0.75],
                [0.5, 3.0], [0.1, 0.2], [1e-3, 2e-3], [math.nan, 5e-4]]
        with np.errstate(invalid="ignore"):
            rep = local_m_convex_check(_RowsDomain(deltas, dirs), 1.0, 2, sample_count=8)
            want = _per_row_summary(rep.samples, 2)
        assert _summary(rep) == want
        assert sorted(rep.decade_constants) == [-3, -1, 0, 1, 2, 3]
        assert rep.decade_constants[1] == 0.0
        assert rep.decade_constants[-1] == 3.0 / math.sqrt(math.nextafter(1.0, 0.0))
        assert math.isnan(rep.empirical_c)
        assert [s.delta for s in rep.samples] == list(np.repeat(deltas, 2))

    @pytest.mark.parametrize("domain, window, count", [
        (example36_domain, 2.0, 300),
        (lambda: Polydisk(np.zeros(2, dtype=complex), np.ones(2)), 2.0, 300),
        (affine_lens, 3.0, 60),
    ], ids=["omega", "polydisk", "affine-lens"])
    def test_report_keeps_every_window_sample(self, domain, window, count):
        # the window shot samples inside D and the window only; omega used to
        # keep 246-300 of 300 and the lens 12-19 of 60 from the rejection draw
        rep = local_m_convex_check(domain(), window, 2, sample_count=count, seed=1)
        assert rep.window_samples == (count, count)
        assert rep.to_json()["window_samples"] == {"requested": count, "kept": count}

    @pytest.mark.parametrize("window", [1e-14, 1e-300])
    def test_a_window_below_the_exit_bracket_keeps_its_samples(self, window):
        # a 1e-13 bracket taken off the window's own exit would put every
        # sample behind the anchor, outside the window
        points, kept = convexity._sample_points(ball2(), window, 50, np.random.default_rng(0))
        assert kept == 50
        assert (np.linalg.norm(points[:kept], axis=1) <= window).all()

    def test_sampling_omega_shoots_once_and_checks_membership_once(self):
        # the rejection draw made 200 membership calls here; the window anchor
        # is omega's own (an intersection finds it once and keeps it)
        D = example36_domain()
        assert np.linalg.norm(domains._window_anchor(D, 2.0)) < 0.9 * 2.0
        calls = {"ray_exit_batch": 0, "contains_batch": 0}
        for name in calls:
            def counted(*args, _name=name, _method=getattr(D, name), **kwargs):
                calls[_name] += 1
                return _method(*args, **kwargs)
            setattr(D, name, counted)
        points, kept = convexity._sample_points(D, 2.0, 300, np.random.default_rng(1))
        assert calls == {"ray_exit_batch": 1, "contains_batch": 1}
        assert kept == 300 and len(points) > kept


@settings(max_examples=25, deadline=None)
@given(which=st.sampled_from(["ball", "polydisk", "omega", "affine-lens", "shifted-ball"]),
       window=st.floats(0.05, 4.0), count=st.integers(1, 80), seed=st.integers(0, 2**32 - 1))
def test_window_samples_and_probes_lie_where_they_should(which, window, count, seed):
    D, least = {"ball": (ball2(), 0.0),
                "polydisk": (Polydisk(np.zeros(2, dtype=complex), np.ones(2)), 0.0),
                "omega": (example36_domain(), 0.0),
                "affine-lens": (affine_lens(), 1.5),   # the lens lies beyond |z| = 1.2
                "shifted-ball": (Ball(np.array([0.8, 0.5j]), 1.0), 0.0)}[which]
    window += least
    # every window sample lies in D and in the closed window; every probe lies
    # on a shot ray whose D exit is inside the window
    points, kept = convexity._sample_points(D, window, count, np.random.default_rng(seed))
    assert 1 <= kept <= count
    assert D.contains_batch(points).all()
    assert (np.linalg.norm(points[:kept], axis=1) <= window).all()
    rng = np.random.default_rng(seed)
    dirs = unit_rows(rng, count + convexity.PROBE_RAYS, D.dimension)
    anchor, t, ends = domains.window_shot(D, window, dirs)
    rel = points[kept:, None, :] - anchor
    along = np.sum(rel * dirs[count:].conj(), axis=2).real   # (probe, probe ray)
    off = np.linalg.norm(rel - along[..., None] * dirs[count:], axis=2)
    on = (off <= 1e-12 * (1 + along)) & (along > 0) & (along < t[count:]) & (t[count:] <= ends[count:])
    assert on.any(axis=1).all()


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

    @pytest.mark.parametrize("direction", [[0.0, 1.0], [1.0, 0.0], [0.3j, 1.0 - 0.2j]])
    def test_numeric_estimate_matches_the_per_point_loop(self, direction):
        # the reference evaluates r point by point, as before the batch
        r = DefiningFunction(2, evaluate=lambda z: -z[0].imag + abs(z[1]) ** 4 + z[0].real ** 2)
        line = AffineLine(np.zeros(2, dtype=complex), np.array(direction, dtype=complex))
        logs_r, logs_v = [], []
        for rho in np.geomspace(1e-2, 1e-5, 7):
            top = max(abs(r.value(line(rho * np.exp(1j * th))))
                      for th in np.linspace(0.0, 2 * math.pi, 8, endpoint=False))
            logs_r.append(math.log(rho))
            logs_v.append(math.log(top))
        expected = float(np.polyfit(logs_r, logs_v, 1)[0])
        assert _numeric_order_estimate(r, line) == pytest.approx(expected, rel=1e-12)

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

    def test_c2_substitutes_its_tangent_line_once(self, monkeypatch):
        # in C^2 the complex tangent space is one line, whatever its phase
        calls = []

        def counted(poly, line):
            calls.append(line.direction)
            return _exact_order(poly, line)

        monkeypatch.setattr(convexity, "_exact_order", counted)
        res = line_type(DefiningFunction.from_polynomial(quartic_poly()), [0.0, 0.0])
        assert res.line_type == 4
        assert len(calls) == 1 and len(res.per_line_orders) == 1

    def test_c3_grid_reads_the_common_order(self):
        # -Im z1 + |z2|^4 + |z3|^4: every complex tangent line at 0 has order 4
        poly = RealPolynomial(3, {(0, 1, 0, 0, 0, 0): -1.0,
                                  (0, 0, 4, 0, 0, 0): 1.0, (0, 0, 0, 4, 0, 0): 1.0,
                                  (0, 0, 2, 2, 0, 0): 2.0,
                                  (0, 0, 0, 0, 4, 0): 1.0, (0, 0, 0, 0, 0, 4): 1.0,
                                  (0, 0, 0, 0, 2, 2): 2.0})
        res = line_type(DefiningFunction.from_polynomial(poly), [0.0, 0.0, 0.0])
        assert res.line_type == 4
        assert len(res.per_line_orders) == GRID_SIZE
        assert all(nu == 4 for _, nu in res.per_line_orders)
        assert abs(res.extremal_direction[0]) < 1e-12

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
