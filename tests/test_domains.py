import json
import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from kcat0 import (
    AffineImage,
    Ball,
    DefiningFunction,
    Disk,
    Graph,
    HalfPlane,
    Intersection,
    PlanarOracle,
    Polydisk,
    Product,
    RealPolynomial,
    Sector,
    domain_from_json,
    distance,
    domain_to_json,
    infinitesimal,
    intersection,
    sector,
    unit_disk,
    upper_half_plane,
)
from kcat0 import domains
from kcat0.domains import ConvexDomain, ray_boundary_batch, unit_rows
from kcat0.errors import DimensionMismatch, InvalidDomain, OutsideDomain

from conftest import sample_in


def ball2():
    return Ball(np.zeros(2, dtype=complex), 1.0)


_ELLIPSOID = {(2, 0, 0, 0): 1.0, (0, 2, 0, 0): 1.0, (0, 0, 2, 0): 2.0,
              (0, 0, 0, 2): 2.0, (0, 0, 0, 0): -1.0}


def _ellipsoid_graph():
    poly = RealPolynomial(2, _ELLIPSOID)
    return Graph(DefiningFunction.from_polynomial(poly), interior_point=[0.0, 0.0])


def _quartic_graph():
    # |z1|^4 + |z2|^4 < 1: its level along a ray is a quartic, not a parabola
    poly = RealPolynomial(2, {(4, 0, 0, 0): 1.0, (2, 2, 0, 0): 2.0, (0, 4, 0, 0): 1.0,
                              (0, 0, 4, 0): 1.0, (0, 0, 2, 2): 2.0, (0, 0, 0, 4): 1.0,
                              (0, 0, 0, 0): -1.0})
    return Graph(DefiningFunction.from_polynomial(poly), interior_point=[0.0, 0.0])


def _log_sum_exp_graph():
    # log(e^(3 x1) + e^(-3 x1) + e^(2 |z2|)) < 2, known only through a callable
    r = DefiningFunction(2, lambda z: float(np.logaddexp.reduce(
        [3.0 * z[0].real, -3.0 * z[0].real, 2.0 * abs(z[1])])) - 2.0)
    return Graph(r, interior_point=[0.0, 0.0])


class TestContains:
    def test_disk_interior(self):
        assert Disk(0, 1).contains([0.5])

    def test_disk_boundary_is_outside(self):
        assert not Disk(0, 1).contains([1.0])

    def test_ball_norm(self):
        # |(0.9, 0.9)|^2 = 1.62 > 1
        assert not ball2().contains([0.9, 0.9])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            Disk(0, 1).contains([0.5, 0.5])

    def test_intersection_monotone(self, rng):
        members = [Ball(np.array([1.0, 0.0], dtype=complex), 1.0),
                   Ball(np.array([0.0, 1.0], dtype=complex), 1.0)]
        D = intersection(members)
        for _ in range(50):
            z = rng.normal(size=4) * 0.5
            z = z[:2] + 1j * z[2:]
            if D.contains(z):
                assert all(m.contains(z) for m in members)


    def test_sector_point_near_a_ray(self):
        # inside by a 50-digit argument, 1.53e-16 rad from the ray at alpha
        S = Sector(-0.4753340140573231 + 1.661728596147394j, 2.2056281648446134, 4.111305238284209)
        z = -0.5183308242279209 + 1.7201052307407396j
        assert S.contains([z])
        assert S.contains_batch(np.array([[z]])).tolist() == [True]
        iv = distance(S, [z], [S.vertex + np.exp(0.5j * (S.alpha + S.beta))])
        assert math.isfinite(iv.lo) and iv.lo <= iv.hi


class TestDelta:
    def test_disk(self):
        assert Disk(0, 1).delta([0.5]) == pytest.approx(0.5, abs=1e-15)

    def test_sector_ray_distance(self):
        S = sector(0.0, 0.0, math.pi / 2)
        z = np.exp(1j * math.pi / 4)
        assert S.delta([z]) == pytest.approx(math.sin(math.pi / 4), abs=1e-12)

    def test_ball(self):
        assert ball2().delta([0.5, 0.0]) == pytest.approx(0.5, abs=1e-15)

    def test_outside_raises(self):
        with pytest.raises(OutsideDomain):
            Disk(0, 1).delta([2.0])

    def test_intersection_is_min(self, rng):
        b1 = Ball(np.array([1.0, 0.0], dtype=complex), 1.0)
        b2 = Ball(np.array([0.0, 1.0], dtype=complex), 1.0)
        D = intersection([b1, b2])
        for _ in range(25):
            z = sample_in(D, rng, scale=0.4)
            assert D.delta(z) == pytest.approx(min(b1.delta(z), b2.delta(z)), abs=1e-14)

    @given(st.complex_numbers(max_magnitude=0.7, allow_nan=False, allow_infinity=False),
           st.complex_numbers(max_magnitude=0.7, allow_nan=False, allow_infinity=False))
    @settings(max_examples=60, deadline=None)
    def test_delta_lipschitz_on_disk(self, z, w):
        D = Disk(0, 1)
        assert abs(D.delta([z]) - D.delta([w])) <= abs(z - w) + 1e-12

    def test_delta_lipschitz_on_ball(self, rng):
        D = ball2()
        for _ in range(100):
            z = sample_in(D, rng, scale=0.5)
            w = sample_in(D, rng, scale=0.5)
            assert abs(D.delta(z) - D.delta(w)) <= np.linalg.norm(z - w) + 1e-12

    def test_unitary_affine_consistency(self, rng):
        D = ball2()
        theta = 0.7
        U = np.array([[math.cos(theta), -math.sin(theta)],
                      [math.sin(theta), math.cos(theta)]], dtype=complex)
        U[0, 1] *= 1j  # still unitary columns? build a clean unitary instead
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        b = np.array([0.3, -0.2j])
        A = AffineImage(q, b, D)
        for _ in range(25):
            z = sample_in(D, rng, scale=0.5)
            assert A.delta(q @ z + b) == pytest.approx(D.delta(z), abs=1e-10)

    def test_near_conformal_affine_matrix_is_not_conformal(self):
        # the Gram matrix is 8e-6 away from a multiple of I, far outside the
        # 1e-12 tolerance, so delta must not scale the inner ball's distance
        A = AffineImage(np.diag([1 + 4e-6, 1.0]), [0, 0], ball2())
        assert A.delta([0.0, 1 - 1e-3]) == pytest.approx(1e-3, abs=1e-12)

    def test_intersection_anchor_needs_no_numeric_delta(self):
        # neither member anchor nor their mean is inside; the search used to
        # maximize the exact depth, a direction search per step on the
        # non-conformal member, and ran past 300 s
        D = Intersection([AffineImage([[2, 0.5], [0, 1]], [0, 0], Ball([0, 0], 1)),
                          Ball([2.2, 0], 1)])
        start = time.process_time()
        assert D.contains(D.anchor())
        assert time.process_time() - start < 10.0

    def test_graph_matches_ball(self, rng):
        poly = RealPolynomial(2, {(2, 0, 0, 0): 1.0, (0, 2, 0, 0): 1.0,
                                  (0, 0, 2, 0): 1.0, (0, 0, 0, 2): 1.0,
                                  (0, 0, 0, 0): -1.0})
        G = Graph(DefiningFunction.from_polynomial(poly), interior_point=[0.0, 0.0])
        B = ball2()
        for _ in range(10):
            z = sample_in(B, rng, scale=0.4)
            assert G.delta(z) == pytest.approx(B.delta(z), abs=1e-9)

    def test_graph_delta_matches_the_ellipsoid_secular_equation(self, rng):
        # the nearest boundary point of |z1|^2 + 2|z2|^2 < 1 from z is
        # z_j / (1 + lam w_j), w = (1, 2), at the root lam in (-1/2, 0) of
        # sum w_j |z_j|^2 / (1 + lam w_j)^2 = 1, bisected to the last float
        w = np.array([1.0, 2.0])

        def nearest(z):
            lo, hi = -0.5, 0.0
            while (lam := 0.5 * (lo + hi)) not in (lo, hi):
                lo, hi = (lo, lam) if np.sum(w * np.abs(z / (1 + lam * w)) ** 2) < 1 else (lam, hi)
            return np.linalg.norm(z * lam * w / (1 + lam * w))

        G = _ellipsoid_graph()
        points = [np.array([0.10973538876956297 - 0.31268018127482533j,
                            -0.12651579046981656 + 0.05422323198765315j])]
        points += [sample_in(G, rng, scale=0.5) for _ in range(5)]
        for z in points:
            assert G.delta(z) == pytest.approx(nearest(z), rel=1e-12)

    @pytest.mark.parametrize("poly, interior, z", [
        # x1^8 + y1^8 + |z2|^2 < 1, a squircle in z1
        ({(8, 0, 0, 0): 1.0, (0, 8, 0, 0): 1.0, (0, 0, 2, 0): 1.0, (0, 0, 0, 2): 1.0,
          (0, 0, 0, 0): -1.0}, [0.0, 0.0],
         [-0.5000944752467461 + 0.3170529308456604j, -0.0925552965860391 + 0.21495919981614747j]),
        # -Im z1 + |z2|^4 < 0
        ({(0, 1, 0, 0): -1.0, (0, 0, 4, 0): 1.0, (0, 0, 0, 4): 1.0, (0, 0, 2, 2): 2.0}, [0.5j, 0.0],
         [0.27068430074115685 + 2.3281294973295603j, -0.055949182279263494 + 0.0763941734435456j]),
    ], ids=["squircle", "quartic"])
    def test_graph_delta_is_no_longer_than_any_ray(self, poly, interior, z):
        # any ray exit bounds delta from above; a search that settles in the
        # wrong basin read 0.763 and 2.328 at these points, against 0.492
        # and 1.130 for the least of 20,000 seeded rays
        G = Graph(DefiningFunction.from_polynomial(RealPolynomial(2, poly)), interior)
        z = np.array(z)
        least = G.ray_exit_batch(z[None, :], unit_rows(np.random.default_rng(1), 20_000, 2)).min()
        assert 0.99 * least <= G.delta(z) <= least

    @pytest.mark.parametrize("D", [
        Disk(0.2 - 0.1j, 1.5), HalfPlane(0.3, 1 + 1j), sector(0.1, 0.2, 1.9), ball2(),
        Product(upper_half_plane(), Ball([0.5, -0.5j], 2.0)),
        AffineImage([[0, 2j], [2, 0]], [0.3, -0.2j], ball2()),
        AffineImage([[2, 0.5], [0, 1]], [0.3, -0.2j], ball2()),
        intersection([Ball([1.0, 0.0], 1.0), Ball([0.0, 1.0], 1.0)]),
        _ellipsoid_graph(),
        Graph(DefiningFunction(2, lambda z: float(abs(z[0]) ** 2 + 2 * abs(z[1]) ** 2 - 1)), [0.0, 0.0]),
        _ellipsoid_graph().slice([0.1, 0.2j], [1, 0.3 + 0.1j]),
    ], ids=["disk", "halfplane", "sector", "ball", "product", "affine-conformal",
            "affine-nonconformal", "intersection", "graph-polynomial", "graph-callable",
            "planar-oracle"])
    def test_delta_batch_rows_are_one_row_calls(self, D, rng):
        # a k-row call gives each row the float of its own one-row call
        Z = np.array([sample_in(D, rng, scale=0.5) for _ in range(5)])
        batch = D.delta_batch(Z)
        assert batch.tolist() == [D.delta_batch(z[None, :])[0] for z in Z]
        assert batch.tolist() == [D.delta(z) for z in Z]


class TestDeltaDir:
    def test_ball_tangential(self):
        assert ball2().delta_dir([0.5, 0.0], [0.0, 1.0]) == pytest.approx(
            math.sqrt(0.75), abs=1e-12)

    def test_disk_center(self):
        for v in (1.0, 1j, 0.3 - 0.4j):
            assert Disk(0, 1).delta_dir([0.0], [v]) == pytest.approx(1.0, abs=1e-12)

    def test_polydisk_factor_slice(self):
        P = Polydisk(np.zeros(2, dtype=complex), np.ones(2))
        assert P.delta_dir([0.0, 0.0], [1.0, 0.0]) == pytest.approx(1.0, abs=1e-12)

    def test_dominates_delta(self, rng):
        for D in (ball2(), Polydisk(np.zeros(2, dtype=complex), np.ones(2))):
            for _ in range(50):
                z = sample_in(D, rng, scale=0.5)
                v = rng.normal(size=4)
                v = v[:2] + 1j * v[2:]
                assert D.delta_dir(z, v) >= D.delta(z) - 1e-12

    def test_zero_direction_rejected(self):
        with pytest.raises(InvalidDomain):
            ball2().delta_dir([0.0, 0.0], [0.0, 0.0])

    def test_intersection_is_min_sampled(self, rng):
        b1 = Ball(np.array([1.0, 0.0], dtype=complex), 1.0)
        b2 = Ball(np.array([0.0, 1.0], dtype=complex), 1.0)
        D = intersection([b1, b2])
        for _ in range(25):
            z = sample_in(D, rng, scale=0.3)
            v = rng.normal(size=4)
            v = v[:2] + 1j * v[2:]
            expect = min(b1.delta_dir(z, v), b2.delta_dir(z, v))
            assert D.delta_dir(z, v) == pytest.approx(expect, abs=1e-12)

    def test_batch_matches_scalar(self, rng):
        D = intersection([Ball(np.array([1.0, 0.0], dtype=complex), 1.0),
                          Ball(np.array([0.0, 1.0], dtype=complex), 1.0)])
        Z = np.array([sample_in(D, rng, scale=0.3) for _ in range(10)])
        V = rng.normal(size=(10, 2)) + 1j * rng.normal(size=(10, 2))
        batch = D.delta_dir_batch(Z, V)
        for k in range(10):
            assert batch[k] == pytest.approx(_slice_delta_dir(D, Z[k], V[k]), abs=1e-12)

    @pytest.mark.parametrize("D, p, expect, tol", [
        (ball2(), [1.0, 0.0], lambda eps: math.sqrt(2 * eps - eps ** 2), {"rel": 1e-9}),
        # the tangent disk through the polydisk's flat face is full size
        (Polydisk(np.zeros(2, dtype=complex), np.ones(2)), [1.0, 0.0], lambda eps: 1.0,
         {"abs": 1e-12}),
        # in C^1 the slice is the disk itself, so delta_dir is delta = eps
        (unit_disk(), [1.0], lambda eps: eps, {"rel": 1e-9}),
    ], ids=["ball", "polydisk", "disk"])
    def test_normal_approach(self, D, p, expect, tol):
        # z = p - eps e_1 approaches the boundary point p along its normal;
        # v is the last coordinate direction
        eps = np.geomspace(1e-2, 1e-6, 9)
        e = np.eye(D.dimension, dtype=complex)
        Z = np.asarray(p, dtype=complex) - eps[:, None] * e[0]
        V = np.tile(e[-1], (len(eps), 1))
        batch = D.delta_dir_batch(Z, V)
        for k in range(len(eps)):
            assert batch[k] == pytest.approx(expect(eps[k]), **tol)
            assert D.delta_dir(Z[k], V[k]) == pytest.approx(expect(eps[k]), **tol)

    @pytest.mark.parametrize("D", [
        Polydisk([0.5, -1j], [1.0, 2.0]),
        Product(upper_half_plane(), sector(0.0, 0.2, 1.2)),
        AffineImage([[2, 0.5], [0, 1]], [0.3, -0.2j], Polydisk([0, 0], [1.0, 2.0])),
    ], ids=lambda D: type(D).__name__)
    def test_product_batch_matches_scalar(self, D, rng):
        # unequal factor speeds: each factor's own distance is in |V_f| units
        Z = np.array([sample_in(D, rng, scale=1.5) for _ in range(20)])
        V = (rng.normal(size=(20, 2)) + 1j * rng.normal(size=(20, 2))) * [1.0, 1e-2]
        batch = D.delta_dir_batch(Z, V)
        for k in range(20):
            assert batch[k] == pytest.approx(_slice_delta_dir(D, Z[k], V[k]), rel=1e-12)


def _slice_delta_dir(D, z, v):
    """delta_dir through the slice node: an independent reference for the
    closed forms of ``delta_dir_batch``."""
    return float(np.linalg.norm(v)) * D.slice(z, v).delta([0.0])


class TestSlices:
    def test_product_structural_slice_has_exact_tag(self):
        # a slice is itself a planar node, answering its own exact distance
        D = Product(sector(0.0, 0.0, 1.0), unit_disk())
        sl = D.slice([0.5 * np.exp(0.5j), 0.0], [1.0, 0.0])
        assert isinstance(sl, Sector)
        assert "exact-chart" in sl.exact_distance(np.zeros(1, complex), np.ones(1, complex)).methods

    def test_ball_center_slice_is_unit_disk(self):
        sl = ball2().slice([0.0, 0.0], [1.0, 0.0])
        assert isinstance(sl, Disk)
        assert sl.radius == pytest.approx(1.0)
        assert abs(sl.center) == pytest.approx(0.0)

    def test_intersection_slice_is_the_lens_of_member_slices(self):
        D = intersection([Ball(np.array([1.0, 0.0], dtype=complex), 1.0),
                          Ball(np.array([0.0, 1.0], dtype=complex), 1.0)])
        sl = D.slice([0.1, 0.1], [1.0, 0.0])
        assert isinstance(sl, Intersection)
        assert all(isinstance(m, Disk) for m in sl.members)
        a, b = np.array([0.2 + 0.0j]), np.array([0.25 + 0.1j])
        # the lens sits in each member disk, so its distance dominates theirs
        assert sl.exact_distance(a, b).lo >= max(m.exact_distance(a, b).lo for m in sl.members)

    def test_equal_members_keep_one_copy(self):
        # each copy covers the other; both used to be dropped, so the
        # intersection of two polydisks sharing a factor sliced to a disk
        # larger than the slice, and its distance fell below the truth
        a, b = Disk(0.1j, 1.0), Disk(1.5j, 2.8)
        assert intersection([a, b, a]).to_spec() == intersection([b, a]).to_spec()
        assert intersection([a, a]).to_spec() == a.to_spec()
        x = np.array([0.05 + 0.27j, -0.055 + 0.044j])
        y = np.array([-0.12 + 0.3j, 0.083 + 0.218j])
        D = Intersection([Polydisk([0.0, 0.0], [1.0, 0.25]), Polydisk([0.0, 0.0], [0.5, 0.25])])
        exact = distance(Polydisk([0.0, 0.0], [0.5, 0.25]), x, y).lo
        iv = distance(D, x, y)
        assert iv.lo <= exact <= iv.hi

    def test_nearly_parallel_half_planes_stay_an_intersection(self):
        # their wedge's opening is 4.3e-13 short of pi, which ``sector`` read
        # as a half-plane through the vertex 1e12 away: a superset, whose
        # distance fell 15% below the inner member's
        h1, h2 = HalfPlane(-0.93 + 0.85j, 1j), HalfPlane(0.27j, 4.3e-13 + 1j)
        x, y = [1.1 + 2.9j], [0.2 + 2.2j]
        assert distance(intersection([h1, h2]), x, y).hi >= distance(h1, x, y).lo

    def test_two_transversal_half_planes_are_a_sector(self):
        wedge = intersection([HalfPlane(0.0, 1.0), HalfPlane(1j, 1j)])
        assert isinstance(wedge, Sector)
        assert wedge.vertex == pytest.approx(1j)
        assert wedge.opening == pytest.approx(math.pi / 2)
        strip = intersection([HalfPlane(0.0, 1j), HalfPlane(1j, -1j)])
        assert isinstance(strip, Intersection)

    def test_membership_invariant(self, rng):
        D = ball2()
        p = sample_in(D, rng, scale=0.5)
        v = np.array([1.0, 0.5j])
        sl = D.slice(p, v)
        assert sl.contains([0.0])
        for _ in range(20):
            t = complex(rng.normal(), rng.normal())
            assert sl.contains([t]) == D.contains(p + t * v)


def _torus(centers, radii, n=8):
    """n angles per coordinate on |z_j - c_j| = r_j, angles 0 and pi included."""
    circle = np.exp(2j * np.pi * np.arange(n) / n)
    grids = np.meshgrid(*[c + r * circle for c, r in zip(centers, radii)], indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


_cplx = st.builds(complex, st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))
_size = st.floats(0.2, 2.0)


@st.composite
def _matrix(draw, d):
    diag = np.diag([draw(_cplx.filter(lambda z: abs(z) > 0.3)) for _ in range(d)])
    off = draw(st.sampled_from([0.0, 1e-8, 0.3]))  # diagonal, near-diagonal, general
    noise = np.array([[draw(_cplx) for _ in range(d)] for _ in range(d)])
    return diag + off * (noise - np.diag(np.diag(noise)))


@st.composite
def _node(draw, d, depth=2):
    kinds = ["ball", "planar" if d == 1 else "polydisk"]
    if depth:
        kinds += ["affine", "intersection"] + (["product"] if d > 1 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "planar":
        return draw(st.one_of(
            st.builds(Disk, _cplx, _size),
            st.builds(HalfPlane, _cplx, _cplx.filter(lambda z: abs(z) > 0.1)),
            st.builds(lambda v, a, w: sector(v, a, a + w), _cplx,
                      st.floats(-3.0, 3.0), st.floats(0.2, 3.0))))
    if kind == "ball":
        return Ball([draw(_cplx) for _ in range(d)], draw(_size))
    if kind == "polydisk":
        return Polydisk([draw(_cplx) for _ in range(d)], [draw(_size) for _ in range(d)])
    if kind == "affine":
        return AffineImage(draw(_matrix(d)), [draw(_cplx) for _ in range(d)],
                           draw(_node(d, depth - 1)))
    if kind == "intersection":
        return Intersection([draw(_node(d, depth - 1)) for _ in range(2)])
    cuts = sorted(draw(st.sets(st.integers(1, d - 1), min_size=1)))
    return Product(*[draw(_node(int(k), depth - 1)) for k in np.diff([0, *cuts, d])])


@st.composite
def _growth_cases(draw):
    D = draw(_node(draw(st.integers(1, 3))))
    d = D.dimension
    # center the polydisk at a random point of the domain when one is found
    raw = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).uniform(-3, 3, (256, 2 * d))
    inside = np.flatnonzero(D.contains_batch(raw[:, :d] + 1j * raw[:, d:]))
    centers = raw[inside[0], :d] + 1j * raw[inside[0], d:] if inside.size else np.zeros(d, complex)
    return (D, centers, np.array([draw(st.floats(1e-3, 0.5)) for _ in range(d)]),
            np.array([draw(st.floats(0.1, 4.0)) for _ in range(d)]))


@st.composite
def _membership_cases(draw):
    D = draw(_node(draw(st.integers(1, 3))))
    raw = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).uniform(-3, 3, (64, 2 * D.dimension))
    return D, raw[:, :D.dimension] + 1j * raw[:, D.dimension:]


@given(_membership_cases())
@example((Sector(-0.4753340140573231 + 1.661728596147394j, 2.2056281648446134, 4.111305238284209),
          np.array([[-0.5183308242279209 + 1.7201052307407396j]])))   # 1.53e-16 rad inside a ray
@settings(max_examples=100, deadline=None)
def test_contains_is_the_one_row_view_of_contains_batch(case):
    D, Z = case
    assert [D.contains(z) for z in Z] == D.contains_batch(Z).tolist()


_NEAR_DIAGONAL = AffineImage([[1, 5e-9], [0, 1]], [0, 0], Polydisk([0, 0], [1, 1]))


class TestPolydiskSlack:
    """``polydisk_growth``: the room a polydisk has to grow inside a node."""

    def test_near_diagonal_affine_matrix_gives_no_slack(self):
        centers, radii = np.zeros(2, dtype=complex), np.full(2, 1 - 1e-10)
        assert not _NEAR_DIAGONAL.contains([1 - 2e-10, -(1 - 2e-10)])  # in that polydisk
        assert _NEAR_DIAGONAL.polydisk_growth(centers[None, :], radii[None, :], np.ones((1, 2))) is None
        # radii 1 + 2s, 0.25 + 0.5s are the image of the inner radii 0.5 + s
        D = AffineImage(np.diag([2.0, 0.5]), [0, 0], Polydisk([0, 0], [1, 1]))
        assert D.polydisk_growth(np.zeros((1, 2), dtype=complex), np.array([[1.0, 0.25]]),
                                 np.array([[2.0, 0.5]])) == [0.5]

    # the closed polydisk is the convex hull of its torus, so a sampled torus
    # inside the (convex) domain is the containment condition, sampled; the
    # growth is padded inward as the inclusion bound pads it
    @given(_growth_cases())
    @example((_NEAR_DIAGONAL, np.zeros(2, dtype=complex), np.full(2, 1 - 1e-10), np.ones(2)))
    @example((Ball([0.3j, -0.2], 1.0), np.array([0.1, 0.2j]), np.array([0.3, 0.1]), np.array([0.25, 4.0])))
    @settings(max_examples=200, deadline=None)
    def test_positive_slack_puts_the_torus_inside(self, case):
        D, centers, base, grow = case
        s = D.polydisk_growth(centers[None, :], base[None, :], grow[None, :])
        if s is not None and s[0] > 0:
            assert D.contains_batch(_torus(centers, base + s[0] * (1 - 1e-12) * grow)).all()

    @given(_growth_cases(), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_each_row_answers_as_its_own_batch(self, case, seed):
        D, centers, base, grow = case
        rng = np.random.default_rng(seed)
        C = centers + 0.5 * (rng.normal(size=(6, D.dimension)) + 1j * rng.normal(size=(6, D.dimension)))
        B = base * rng.uniform(0.2, 4.0, size=(6, D.dimension))
        G = grow * rng.uniform(0.2, 4.0, size=(6, D.dimension))
        rows = [D.polydisk_growth(C[k:k + 1], B[k:k + 1], G[k:k + 1]) for k in range(6)]
        s = D.polydisk_growth(C, B, G)
        if s is None:
            assert rows == [None] * 6
        else:
            assert s.tolist() == [row[0] for row in rows]


@st.composite
def _support_cases(draw):
    # the leaves know their supports; a composite takes its lower bound
    # from its parts and reads +inf
    D = draw(_node(draw(st.integers(1, 3)), 0).filter(lambda D: not isinstance(D, Product)))
    d = D.dimension
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    eye = np.eye(d)
    # random rows, the zero row, and the coordinate directions of the
    # functional grid, which are the normals of axis-aligned half-planes
    A = np.vstack([rng.normal(size=(8, d)) + 1j * rng.normal(size=(8, d)),
                   np.zeros((1, d)), eye, -eye, 1j * eye, -1j * eye])
    raw = rng.uniform(-3, 3, (64, 2 * d))
    return D, A, raw[:, :d] + 1j * raw[:, d:]


class TestSupport:
    @pytest.mark.parametrize("D", [
        Disk(0.3, 2.0),
        HalfPlane(0.0, 1.0),
        sector(0.0, 0.0, 1.0),
        ball2(),
    ], ids=lambda D: type(D).__name__)
    def test_zero_functional(self, D):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert D.support_upper(np.zeros(D.dimension)) == 0.0

    @given(_support_cases())
    @settings(max_examples=150, deadline=None)
    def test_batch_rows_are_sound_and_match_scalar(self, case):
        D, A, W = case
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h = D.support_upper_batch(A)
            # numpy's vector loops may round a row apart from a one-row call
            np.testing.assert_allclose(h, [D.support_upper(a) for a in A], rtol=1e-14, atol=1e-14)
        assert h[8] == 0.0
        inside = W[D.contains_batch(W)]
        pairings = (inside @ A.conj().T).real
        assert (pairings <= h + 1e-9 * np.maximum(1.0, np.abs(h))).all()

    @pytest.mark.parametrize("D, finite, infinite", [
        (HalfPlane(1.0, 1j), [-1j, -2j, 0.0], [1j, 1.0, -1.0, 1 - 1j]),
        # 1e-13 rad off the normal: the half-plane holds points far along its
        # edge where Re<z, i> is unbounded
        (HalfPlane(0.0, 1e-13 - 1j), [0.0], [1j]),
        (sector(1j, 0.0, math.pi / 2), [-1.0, -1j, -1 - 1j, 0.0], [1.0, 1j, 1 - 1j, -1 + 1j]),
        # both edge normals are orthogonal to 1j here: only the cone test sees it
        (Sector(0.0, 0.0, math.pi), [-1j], [1j]),
    ], ids=["halfplane", "halfplane-tilted", "sector", "sector-opening-pi"])
    def test_unbounded_directions_are_inf(self, D, finite, infinite):
        A = np.array(finite + infinite, dtype=complex).reshape(-1, D.dimension)
        h = D.support_upper_batch(A)
        assert np.isfinite(h[:len(finite)]).all()
        assert (h[len(finite):] == math.inf).all()
        np.testing.assert_allclose(h, [D.support_upper(a) for a in A], rtol=1e-14)


class TestSectorFactory:
    def test_half_opening_canonicalizes(self):
        D = sector(0.0, 0.0, math.pi)
        assert isinstance(D, HalfPlane)
        assert D.contains([1j])
        assert not D.contains([-1j])

    def test_bad_opening(self):
        with pytest.raises(InvalidDomain):
            sector(0.0, 0.0, 3.5)


class TestJson:
    def build(self):
        inner = Product(sector(0.0, 0.2, 1.2), unit_disk())
        A = np.array([[1.0 + 1j, 0.0], [0.5j, 2.0]], dtype=complex)
        return intersection([
            AffineImage(A, np.array([0.1, -0.2j]), inner),
            Ball(np.array([0.0, 0.0], dtype=complex), 5.0),
        ])

    def test_round_trip_lossless(self):
        D = self.build()
        spec1 = domain_to_json(D)
        D2 = domain_from_json(spec1)
        spec2 = domain_to_json(D2)
        assert json.dumps(spec1, sort_keys=True) == json.dumps(spec2, sort_keys=True)

    def test_round_trip_behavior(self, rng):
        D = self.build()
        D2 = domain_from_json(domain_to_json(D))
        for _ in range(20):
            z = rng.normal(size=4)
            z = z[:2] + 1j * z[2:]
            assert D.contains(z) == D2.contains(z)

    @pytest.mark.parametrize("D", [
        Product(unit_disk(), upper_half_plane(), Ball([0.1, 0.2j], 2.0)),
        Polydisk([0.1, -0.2j, 0.3], [1.0, 2.0, 0.5]),
    ], ids=lambda D: type(D).__name__)
    def test_product_round_trip(self, D):
        spec = domain_to_json(D)
        assert domain_to_json(domain_from_json(spec)) == spec

    def test_graph_polynomial_round_trip(self):
        poly = RealPolynomial(2, {(2, 0, 0, 0): 1.0, (0, 2, 0, 0): 1.0,
                                  (0, 0, 2, 0): 1.0, (0, 0, 0, 2): 1.0,
                                  (0, 0, 0, 0): -1.0})
        G = Graph(DefiningFunction.from_polynomial(poly), interior_point=[0.0, 0.0])
        G2 = domain_from_json(domain_to_json(G))
        assert G2.contains([0.5, 0.0])
        assert not G2.contains([0.9, 0.9])


def _scalar_ray_boundary(inside, start, direction, t_max=1e12, rtol=1e-13):
    """The scalar ray shooter that ray_boundary_batch replaced, kept as a reference."""
    t = 1.0
    while not inside(start + t * direction):
        t *= 0.5
        if t < 1e-300:
            return 0.0
    hi = t
    while inside(start + hi * direction):
        hi *= 2.0
        if hi > t_max:
            return math.inf
    lo = hi / 2.0
    for _ in range(200):
        if hi - lo <= rtol * max(1.0, hi):
            break
        mid = 0.5 * (lo + hi)
        if inside(start + mid * direction):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@st.composite
def _delta_dir_cases(draw):
    D = draw(st.one_of(st.integers(1, 3).flatmap(_node), st.builds(_ellipsoid_graph)))
    d = D.dimension
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    raw = np.vstack([rng.uniform(-3, 3, (256, 2 * d)), rng.uniform(-1, 1, (256, 2 * d))])
    inside = np.flatnonzero(D.contains_batch(raw[:, :d] + 1j * raw[:, d:]))
    assume(inside.size)
    z = raw[inside[0], :d] + 1j * raw[inside[0], d:]
    return D, z, rng.normal(size=d) + 1j * rng.normal(size=d)


@given(_delta_dir_cases())
@settings(max_examples=100, deadline=None)
def test_delta_dir_is_the_one_row_view_of_delta_dir_batch(case):
    D, z, v = case
    assert D.delta_dir(z, v) == D.delta_dir_batch(z[None, :], v[None, :])[0]


def test_graph_delta_dir_matches_the_closed_form_disk():
    # the ellipsoid sum s_j |z_j|^2 < 1 meets the line z + Cv in a disk: with
    # A = sum s|v|^2, C = sum s|z|^2 and w = sum s z conj(v), its centre is
    # -w/A and its radius sqrt((1 - C)/A + |w/A|^2) in units of |v|
    s, rng = np.array([1.0, 2.0]), np.random.default_rng(19)
    raw = rng.normal(size=(300, 4))
    raw *= 0.999 * rng.uniform(size=(300, 1)) ** 0.25 / np.linalg.norm(raw, axis=1, keepdims=True)
    Z = (raw[:, :2] + 1j * raw[:, 2:]) / np.sqrt(s)
    V = rng.normal(size=(300, 2)) + 1j * rng.normal(size=(300, 2))
    A, C = np.sum(s * np.abs(V) ** 2, axis=1), np.sum(s * np.abs(Z) ** 2, axis=1)
    w = np.abs(np.sum(s * Z * np.conj(V), axis=1)) / A
    exact = np.linalg.norm(V, axis=1) * (np.sqrt((1.0 - C) / A + w ** 2) - w)
    np.testing.assert_allclose(_ellipsoid_graph().delta_dir_batch(Z, V), exact, rtol=0.0, atol=1e-12)


def _level_led(D) -> bool:
    """A graph, a graph's slice, or an affine image of a graph: shot by r's values."""
    return (D.inner if isinstance(D, AffineImage) else D).level_batch is not None


def _cold_shot(D, start, dirs, t_max=1e12):
    """The membership-only bisection of D's rays (of the inner node's pulled-back
    rays on an affine image, whose exit shoots those)."""
    if isinstance(D, AffineImage):
        start, dirs, D = D._pull_back_rows(np.broadcast_to(start, dirs.shape)), dirs @ D.inverse.T, D.inner
    return ray_boundary_batch(D.contains_batch, start, dirs, t_max=t_max)


def _shaped_rays(D, start, dirs, shape, rng):
    """(start, dirs) of a draw on a level-led node, reshaped: per-row starts, each
    repeated over its rays as ``ray_min_batch`` repeats them; a start 1e-6 to
    1e-9 (relative) short of an exit, as the m-convexity samples lie, with rays
    of length 1 to 100 within 0.3 of that ray's line, so that each meets the
    boundary transversally and r moves by more than its rounding across the cold
    bisection's last cell (where it does not, its sign flips at random there, and
    no two bisections need agree); exits just below and above powers of two from
    1/8 to 8 (where the stop turns from absolute to relative at t = 1, and where
    the last cell is a quarter of ``_cell``'s width, just above 2^k for k >= 1,
    or a half, just below); or the rays as drawn."""
    d = D.dimension
    if shape == "repeated":
        Z = start + 0.1 * (rng.normal(size=(3, d)) + 1j * rng.normal(size=(3, d)))
        Z = np.concatenate([Z[D.contains_batch(Z)], start[None, :]])
        return np.repeat(Z, -(-24 // len(Z)), axis=0)[:24], dirs
    if shape == "deep":
        u = dirs[0] / np.linalg.norm(dirs[0])
        t = D.ray_exit_batch(start, u[None, :])[0]
        near = start + t * (1.0 - 10.0 ** -rng.uniform(6, 9)) * u
        if math.isfinite(t) and D.contains(near):
            tilt = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
            dirs = (rng.choice([-1.0, 1.0], size=(24, 1)) * u + 0.3 * rng.uniform(size=(24, 1)) * tilt)
            return near, dirs * 10.0 ** rng.uniform(0, 2, size=(24, 1))
        return start, dirs
    if shape == "binade":
        t = D.ray_exit_batch(start, dirs)
        ok = np.isfinite(t) & (t > 0)
        target = 2.0 ** rng.integers(-3, 4, size=24) * (
            1.0 + rng.choice([-1.0, 1.0], size=24) * 10.0 ** -rng.uniform(3, 15, size=24))
        dirs[ok] *= (t[ok] / target[ok])[:, None]
    return start, dirs


@st.composite
def _exit_float_cases(draw):
    """A domain known through membership, a start, rays whose boundary
    distances span many binades and a t_max (2.0, a power-of-two reach that
    ``limits._boundary_cloud`` passes); on a level-led node, the rays may be
    reshaped by ``_shaped_rays``."""
    G = _ellipsoid_graph()
    D, start = draw(st.sampled_from([
        (Disk(0.2, 1.5), [0.1j]), (HalfPlane(0.0, 1j), [0.5j]), (HalfPlane(0.0, 1j), [0.5]),
        (G, [0.1, -0.2j]), (G.slice([0.1, 0.2j], [1, 0.3 + 0.1j]), [0.05]),
        (Graph(DefiningFunction(2, G.r.value), interior_point=[0, 0]), [0.1, -0.2j]),
        (_quartic_graph(), [0.1, -0.2j]), (_log_sum_exp_graph(), [0.1, -0.2j]),
        (_log_sum_exp_graph().slice([0.1, -0.2j], [0.5j, 1]), [0.2]),
        (AffineImage([[1, 0.3], [0.1j, 3]], [0.1, 0.2], G), [0.1, 0.2])]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    raw = rng.normal(size=(24, 2 * D.dimension)) * 10.0 ** rng.uniform(-2, 2, size=(24, 1))
    start, dirs = np.asarray(start, dtype=complex), raw[:, :D.dimension] + 1j * raw[:, D.dimension:]
    if _level_led(D):
        start, dirs = _shaped_rays(D, start, dirs, draw(st.sampled_from(
            ["drawn", "repeated", "deep", "binade"])), rng)
    return D, start, dirs, draw(st.sampled_from([1e12, 2.0, 0.6]))


@given(_exit_float_cases())
@settings(max_examples=120, deadline=None)
def test_node_exits_return_the_cold_shots_floats(case):
    D, start, dirs, t_max = case
    cold = _cold_shot(D, start, dirs, t_max)
    shot = D.ray_exit_batch(start, dirs, t_max)
    if _level_led(D):   # a graph, its slices and its affine images, led by r's values
        assert shot.tolist() == cold.tolist()
        return
    # a closed form: 0.0 from a start on the boundary, which the cold shot
    # reads only along rays that leave at once; else the cold shot's float to
    # its stop width, and inf alike, except where its doubling passed t_max
    # below the exit
    if not D.contains(start):
        assert (shot == 0.0).all()
        return
    done = np.isfinite(cold)
    assert (np.abs(shot[done] - cold[done]) <= 1e-13 * np.maximum(1.0, shot[done])).all()
    assert (shot[~done] > np.ldexp(0.5, np.frexp(t_max)[1])).all()


def test_cold_shot_bisects_a_halved_rows_bracket_at_once():
    # a row that halved from t = 1 read 2t outside, so [t, 2t] is its bracket
    D, ts = Disk(0.0, 0.3), []
    inside = lambda Z: ts.extend(Z[:, 0].real.tolist()) or D.contains_batch(Z)
    t = ray_boundary_batch(inside, np.zeros(1), np.ones((1, 1)))
    assert ts[:4] == [1.0, 0.5, 0.25, 0.375] and ts.count(0.5) == 1
    assert t == _scalar_ray_boundary(lambda z: D.contains(z), np.zeros(1), np.ones(1))


_CATALOG = [intersection([Disk(0, 1), Disk(0.8 + 0.3j, 1.2)]),
            Intersection([Ball([0, 0], 1.0), Ball([0.5, 0], 1.0), Ball([0, 0.5j], 1.0)]),
            Polydisk([0.1, -0.2j], [1.0, 0.5]),
            AffineImage(1.5j * np.array([[0.6, 0.8], [-0.8, 0.6]]), [0.3, 0.1j],
                        Ball([0.2, 0], 1.0)),
            AffineImage([[1, 0.3], [0.1j, 3]], [0.1, 0.2], Polydisk([0, 0], [1, 1])),
            AffineImage(1e6 * np.eye(2), [0, 0], intersection([Ball([1, 0], 1.0),
                                                               Ball([0, 1], 1.0)]))]


@st.composite
def _exit_cases(draw):
    """A catalog node, a start inside and one not, unit rays (as every
    caller shoots, so that the pad is 1e-13 max(1, t) in space) and a t_max."""
    D = draw(st.one_of(st.sampled_from(_CATALOG), st.integers(1, 3).flatmap(_node)))
    d, scale = D.dimension, 1e6 if D is _CATALOG[-1] else 1.0
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    raw = scale * rng.uniform(-3, 3, (512, 2 * d))
    Z = raw[:, :d] + 1j * raw[:, d:]
    inside = D.contains_batch(Z)
    assume(inside.any() and not inside.all())
    return (D, Z[np.argmax(inside)], Z[np.argmin(inside)], unit_rows(rng, 32, d),
            scale * draw(st.sampled_from([1e12, 3.0, 0.3])))


@given(_exit_cases())
@settings(max_examples=150, deadline=None)
def test_closed_form_exits_keep_the_ray_contract(case):
    D, z, out, U, t_max = case
    t = D.ray_exit_batch(z, U, t_max)
    done = np.isfinite(t)
    # delta is concave along the ray, so the ray meets the boundary at an
    # incidence sine of at least delta(z) / t; where that falls below 1e-2 the
    # membership's own rounding, stretched by 1 / sine along the ray, can
    # outgrow 1e-13 max(1, t) (a ray grazing a half-plane at sine 4e-4 did),
    # so the pad widens by the same factor
    graze = np.maximum(1.0, 1e-2 * t[done] / D.delta_batch(z[None, :])[0])
    pad = 1e-13 * np.maximum(1.0, t[done]) * graze
    assert (t[done] <= t_max).all()
    assert D.contains_batch(z + (t[done] - pad)[:, None] * U[done]).all()
    assert not D.contains_batch(z + (t[done] + pad)[:, None] * U[done]).any()
    assert D.contains_batch(z + t_max * (1.0 - 1e-13) * U[~done]).all()
    assert (D.ray_exit_batch(out, U, t_max) == 0.0).all()


@st.composite
def _reach_cases(draw):
    """A node (catalog, graph, graph slice or affine image of a graph), a start
    inside, rays whose exits span many binades (reshaped by ``_shaped_rays`` on
    a level-led node) and a power-of-two t_max."""
    G = _ellipsoid_graph()
    graphs = [(G, [0.1, -0.2j]),
              (Graph(DefiningFunction(2, G.r.value), interior_point=[0, 0]), [0.1, -0.2j]),
              (G.slice([0.1, 0.2j], [1, 0.3 + 0.1j]), [0.05]),
              (AffineImage([[1, 0.3], [0.1j, 3]], [0.1, 0.2], G), [0.1, 0.2]),
              (_quartic_graph(), [0.1, -0.2j]), (_log_sum_exp_graph(), [0.1, -0.2j])]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        D, start = draw(st.sampled_from(graphs))
        start = np.asarray(start, dtype=complex)
    else:
        D = draw(st.one_of(st.sampled_from(_CATALOG), st.integers(1, 3).flatmap(_node)))
        raw = (1e6 if D is _CATALOG[-1] else 1.0) * rng.uniform(-3, 3, (512, 2 * D.dimension))
        Z = raw[:, :D.dimension] + 1j * raw[:, D.dimension:]
        inside = D.contains_batch(Z)
        assume(inside.any())
        start = Z[np.argmax(inside)]
    d = D.dimension
    raw = rng.normal(size=(24, 2 * d)) * 10.0 ** rng.uniform(-2, 2, size=(24, 1))
    dirs = raw[:, :d] + 1j * raw[:, d:]
    if _level_led(D):
        start, dirs = _shaped_rays(D, start, dirs, draw(st.sampled_from(
            ["drawn", "repeated", "deep", "binade"])), rng)
    return D, start, dirs, 2.0 ** draw(st.integers(-4, 12))


@given(_reach_cases())
@settings(max_examples=120, deadline=None)
def test_power_of_two_reach_keeps_the_far_floats(case):
    # a bisection reads inf past the largest power of two not above t_max, a
    # closed form past t_max itself: at a power of two both cut at t_max, and
    # every exit within it is the far shot's float
    D, start, U, t_max = case
    far = D.ray_exit_batch(start, U, 1e9)
    assert D.ray_exit_batch(start, U, t_max).tolist() == np.where(far <= t_max, far, math.inf).tolist()


def test_every_catalog_node_has_its_own_exit():
    for cls in (Disk, HalfPlane, Sector, Ball, Product, Polydisk, AffineImage, Intersection):
        assert cls.ray_exit_batch is not ConvexDomain.ray_exit_batch
    for cls in (Graph, PlanarOracle):
        assert cls.ray_exit_batch is ConvexDomain.ray_exit_batch


def test_compass_rounds_shoot_one_exit_batch_each(monkeypatch):
    # one delta_dir row on the ellipsoid: the 96-ray grid, then one exit shot
    # of the two neighbours of each running kept ray per compass round, every
    # one through the node's own exit (687 membership calls when the rounds
    # bisected membership from a warm start, 1656 when they shot cold)
    G, shots, bisections, calls = _ellipsoid_graph(), [], [], []
    exit_batch, contains, shooter = G.ray_exit_batch, G.contains_batch, domains.ray_boundary_batch
    G.ray_exit_batch = lambda Z, U, *args: shots.append(len(U)) or exit_batch(Z, U, *args)
    G.contains_batch = lambda Z: calls.append(len(Z)) or contains(Z)
    monkeypatch.setattr(domains, "ray_boundary_batch",
                        lambda *args, **kw: bisections.append(1) or shooter(*args, **kw))
    G.delta_dir_batch(np.array([[0.2 + 0.1j, -0.3j]]), np.array([[1.0, 0.5j]]))
    assert shots[0] == 96 and all(s in (2, 4, 6) for s in shots[1:])
    # each level-led shot ends on its last cells by r alone (36 membership
    # calls when each bisected its last cells by membership)
    assert len(shots) == len(bisections) == 36 and not calls


def test_level_led_shots_make_no_membership_call(monkeypatch):
    # a graph, its slice and an affine image of it end every ray on the cold
    # bisection's last cell by r's values alone
    calls, G = [], _ellipsoid_graph()
    shooter = domains.ray_boundary_batch
    monkeypatch.setattr(domains, "ray_boundary_batch", lambda contains, *args, **kw: shooter(
        lambda Z: calls.append(len(Z)) or contains(Z), *args, **kw))
    U = unit_rows(np.random.default_rng(3), 32, 2)
    for D, z, V in [(G, [0.1, -0.2j], U), (G.slice([0.1, 0.2j], [1, 0.3 + 0.1j]), [0.05], U[:, :1]),
                    (AffineImage([[1, 0.3], [0.1j, 3]], [0.1, 0.2], G), [0.1, 0.2], U)]:
        t = D.ray_exit_batch(np.array(z, dtype=complex), V)
        assert np.isfinite(t).all() and (t > 0).all()
    assert not calls


def test_level_cells_end_on_half_and_quarter_cells():
    # exits just above 2^k (k >= 1) end on a quarter of _cell's width, others
    # on a half; each led row ends on the cold bisection's last cell
    G, z = _ellipsoid_graph(), np.array([0.1, -0.2j])
    U = unit_rows(np.random.default_rng(5), 40, 2)
    t = G.ray_exit_batch(z, U)
    target = 2.0 ** np.arange(-2, 3).repeat(8) * np.tile([1 + 1e-3, 1.1, 1.5, 1.9, 1 - 1e-3, 0.9, 0.7, 0.55], 5)
    U = U * (t / target)[:, None]
    a, b = domains._level_cells(G.level_batch, z, U, 1e12)
    assert set((b - a) / domains._cell(a)) == {0.5, 0.25}
    assert (0.5 * (a + b)).tolist() == ray_boundary_batch(G.contains_batch, z, U).tolist()


def test_graph_m_convexity_check_keeps_a_level_round_budget(monkeypatch):
    # CI's graph mconvex step: window 2, m = 2, 60 samples, seed 0, whose
    # samples lie 1e-6 to 1e-9 inside; 2,359 level rounds and 125 membership
    # rounds when each shot halved or doubled from t = 1 and bisected its last
    # cell by membership, 549 level rounds and none since
    from kcat0 import convexity
    rounds, calls, shooter = _count_level_rounds(monkeypatch), [], domains.ray_boundary_batch
    monkeypatch.setattr(domains, "ray_boundary_batch", lambda contains, *args, **kw: shooter(
        lambda Z: calls.append(len(Z)) or contains(Z), *args, **kw))
    report = convexity.local_m_convex_check(_ellipsoid_graph(), window_radius=2.0, m=2.0,
                                            sample_count=60, seed=0)
    assert report.verdict == "pass" and len(rounds) <= 600 and not calls


def test_affine_ball_compass_rounds_take_closed_form_exits(monkeypatch):
    # a 2-row delta on a non-conformal affine image of the ball: each exit
    # checks its starts by one Ball.contains_batch call and bisects nothing
    # (1479 calls when the compass rounds bisected membership)
    calls, exits = [], []
    contains, exit_batch = Ball.contains_batch, Ball.ray_exit_batch
    monkeypatch.setattr(Ball, "contains_batch", lambda *args: calls.append(1) or contains(*args))
    monkeypatch.setattr(Ball, "ray_exit_batch", lambda *args: exits.append(1) or exit_batch(*args))
    D = AffineImage([[1, 0.3], [0, 2]], [0, 0], Ball([0, 0], 1.0))
    D.delta_batch(np.array([[0.1 + 0.2j, -0.3j], [0.5, 0.2 + 0.4j]]))
    assert len(exits) > 1 and len(calls) <= len(exits)


def _ellipsoid_delta(A: np.ndarray, b: np.ndarray, z: np.ndarray) -> float:
    """Euclidean distance from z inside {A w + b : |w| < 1} to its boundary.

    In the eigenbasis of the real form M of A^-H A^-1 the boundary is
    sum mu_i q_i^2 = 1; the nearest point to p (z - b in that basis) is
    q_i = p_i / (1 + lam mu_i), lam the root in (-1 / max mu, 0) of
    sum mu_i p_i^2 / (1 + lam mu_i)^2 = 1, and it lies lam mu_i q_i from p."""
    inv = np.linalg.inv(A)
    H = inv.conj().T @ inv
    mu, E = np.linalg.eigh(np.block([[H.real, -H.imag], [H.imag, H.real]]))
    p = E.T @ np.r_[(z - b).real, (z - b).imag]

    def excess(lam):
        return np.sum(mu * p ** 2 / (1.0 + lam * mu) ** 2) - 1.0

    k = 1
    while excess(-(1.0 - 2.0 ** -k) / mu.max()) < 0:
        k += 1
    lam = brentq(excess, -(1.0 - 2.0 ** -k) / mu.max(), 0.0, xtol=1e-300, rtol=4 * np.finfo(float).eps)
    return float(np.linalg.norm(lam * mu * p / (1.0 + lam * mu)))


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_affine_ball_delta_matches_the_ellipsoid_reference(seed):
    # a non-conformal affine image of the ball is an ellipsoid, so its
    # Euclidean delta is a one-dimensional root of the Lagrange condition
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=2) + 1j * rng.normal(size=2)
    assume(np.linalg.cond(A) < 10.0)
    W = unit_rows(rng, 4, 2) * rng.uniform(0.05, 0.95, size=(4, 1))
    Z = W @ A.T + b
    got = AffineImage(A, b, Ball([0, 0], 1.0)).delta_batch(Z)
    exact = [_ellipsoid_delta(A, b, z) for z in Z]
    np.testing.assert_allclose(got, exact, rtol=1e-11, atol=0.0)


def _count_level_rounds(monkeypatch) -> list:
    """The row count of each level call ``_level_cells`` makes from now on."""
    rounds, level_cells = [], domains._level_cells
    monkeypatch.setattr(domains, "_level_cells", lambda level, *args: level_cells(
        lambda Z: rounds.append(len(Z)) or level(Z), *args))
    return rounds


def test_level_led_rays_cut_the_r_rows(monkeypatch):
    # one infinitesimal row on the ellipsoid known through a callable r,
    # evaluated once per row: 4418 rows when its 96 rays bisected membership,
    # 1256 in 8 level rounds when each cut took a chord and one-sided secants,
    # 768 in 5 (then a membership round) when each ray halved or doubled from
    # t = 1; the parabola through three of r's values is exact on this quadratic r
    rows, rounds = [], _count_level_rounds(monkeypatch)
    r = DefiningFunction(2, lambda z: rows.append(1) or abs(z[0]) ** 2 + 2 * abs(z[1]) ** 2 - 1)
    iv = infinitesimal(Graph(r, interior_point=[0.0, 0.0]), [0.3 + 0.1j, -0.2j], [1.0, 0.5j])
    assert 0.0 < iv.lo < iv.hi and len(rows) <= 600
    # the start and t = 1, chord and second cuts, then the cell about the
    # parabolas' zero and its middle
    assert rounds == [97, 192, 288]


def test_level_led_rays_on_a_quartic_take_no_more_rounds(monkeypatch):
    # one 96-ray shot on |z1|^4 + |z2|^4 < 1, whose level is no parabola along
    # a ray: 10 level rounds (1352 rows) with chord and secant cuts alone, 9
    # (1336 rows, then a membership round) when each ray halved or doubled
    # from t = 1, 10 (1245 rows) and no membership round since
    rounds = _count_level_rounds(monkeypatch)
    _quartic_graph().ray_exit_batch(np.array([0.1, -0.2j]), unit_rows(np.random.default_rng(0), 96, 2))
    assert rounds == [97, 192, 192, 198, 221, 187, 103, 50, 4, 1]


def test_level_cuts_on_dilated_graphs_halve_their_brackets(monkeypatch):
    # on the ellipsoid dilated by s, exits near a power of two move r by less
    # than its rounding per grid cell, so the chord and parabola cuts land in
    # noise: 245, 472 and 246 level rounds when only the cell count bounded
    # the loop; a round that fails to halve its bracket is followed by one cut
    # about the middle, and every ray keeps the cold shot's float
    G = _ellipsoid_graph()
    z = np.array([-0.18916751285680092 + 0.35513625274314436j, -0.4532357344273185 + 0.4621940242714009j])
    u = np.array([[0.0, (-1.0 + 1.0j) / math.sqrt(2.0)]])
    for s in (1.3e6, 1.2946e6, 5.1786e6):
        D, rounds = AffineImage(s * np.eye(2), [0, 0], G), _count_level_rounds(monkeypatch)
        t = D.ray_exit_batch(s * z, u)
        assert len(rounds) <= 64
        cold = ray_boundary_batch(G.contains_batch, D._pull_back_rows(s * z[None, :]), u @ D.inverse.T)
        assert t.tolist() == cold.tolist() and 0.9 < t[0] < 4.1


def test_level_led_rays_bracket_the_boundary_off_convexity():
    # the cuts lean on r's convexity for speed only: with r not convex along
    # the rays, every row still returns a float whose bracket membership checked
    G = Graph(DefiningFunction(1, lambda z: abs(z[0]) ** 2 - 1 + 0.9 * math.sin(7 * z[0].real)),
              interior_point=[0.0])
    rng = np.random.default_rng(7)
    dirs = np.exp(2j * math.pi * rng.uniform(size=64))[:, None] * 10.0 ** rng.uniform(-2, 2, (64, 1))
    t = G.ray_exit_batch(np.zeros(1), dirs)
    pad = 1e-13 * np.maximum(1.0, t)
    assert np.isfinite(t).all()
    assert G.contains_batch((t - pad)[:, None] * dirs).all()
    assert not G.contains_batch((t + pad)[:, None] * dirs).any()


class TestBatchedGradients:
    def test_polynomial_matches_the_per_term_loop(self, rng):
        terms = {tuple(rng.integers(0, 4, size=4)): float(rng.normal()) for _ in range(12)}
        r = DefiningFunction.from_polynomial(RealPolynomial(2, terms))
        Z = rng.normal(size=(50, 2)) + 1j * rng.normal(size=(50, 2))
        coords = np.empty((50, 4))
        coords[:, 0::2], coords[:, 1::2] = Z.real, Z.imag
        expect = np.zeros((50, 4))   # in (x1, y1, x2, y2) order
        for expo, c in r.polynomial.terms.items():
            e = np.array(expo)
            for j in np.flatnonzero(e):
                expect[:, j] += c * e[j] * np.prod(coords ** (e - (np.arange(4) == j)), axis=1)
        assert r.grad_batch(Z).tolist() == expect[:, [0, 2, 1, 3]].tolist()
        assert [r.grad(z).tolist() for z in Z[:5]] == expect[:5, [0, 2, 1, 3]].tolist()

    def test_callable_takes_central_differences_row_by_row(self, rng):
        r = DefiningFunction(2, lambda z: float(abs(z[0]) ** 2 + 2 * abs(z[1]) ** 2 - 1))
        Z = (rng.normal(size=(20, 2)) + 1j * rng.normal(size=(20, 2))) * 0.5
        h, expect = 1e-6, []
        for z in Z:
            x0 = np.concatenate([z.real, z.imag])
            row = []
            for j in range(4):
                e = np.zeros(4)
                e[j] = h
                plus, minus = x0 + e, x0 - e
                row.append((r.value(plus[:2] + 1j * plus[2:]) - r.value(minus[:2] + 1j * minus[2:])) / (2 * h))
            expect.append(row)
        assert r.grad_batch(Z).tolist() == expect
        assert [r.grad(z).tolist() for z in Z] == expect
        assert r.grad_batch(Z[:0]).shape == (0, 4)


@pytest.mark.parametrize("opening", [0.05, 0.02, 0.011, 0.005])
def test_thin_oracle_wedge_has_an_anchor(opening):
    # every ring used to take the same 64 angles, 0.098 rad apart, so a
    # wedge from 0 thinner than that could fall between them
    for k in range(13):
        S = sector(0.0, 2 * math.pi * k / 13, 2 * math.pi * k / 13 + opening)
        assert S.contains(PlanarOracle(lambda T: S.contains_batch(T[:, None])).anchor())


def test_thin_lens_anchor_is_interior():
    # neither member's anchor nor their mean lies in this lens, whose cap is
    # 0.05 high, and a search from the best of them never entered it
    D = Intersection([Disk(0.1953125j, 0.203125),
                      HalfPlane(0.14333162132059643 + 0.14369211164741544j,
                                0.9408434630275048 - 0.3388415235451705j)])
    assert D.contains(D.anchor())


class TestRayShooting:
    @pytest.mark.parametrize("D, start, t_max", [
        (Disk(0.2, 1.5), [0.1j], 1e12),
        (HalfPlane(0.0, 1j), [0.5j], 1e12),
        (HalfPlane(0.0, 1j), [0.5j], 20.0),
        (HalfPlane(0.0, 1j), [0.5], 1e12),
        (_ellipsoid_graph(), [0.1, -0.2j], 1e12),
    ], ids=["disk", "halfplane", "halfplane-t_max", "halfplane-boundary-start",
            "ellipsoid-graph"])
    def test_batch_equals_scalar(self, D, start, t_max, rng):
        start = np.asarray(start, dtype=complex)
        d = D.dimension
        raw = rng.normal(size=(40, 2 * d))
        dirs = raw[:, :d] + 1j * raw[:, d:]
        dirs[0] = 1j  # inward: the half-plane never ends this way
        dirs[1] = -1e-9j  # meets the half-plane's boundary at t = 5e8
        ts = ray_boundary_batch(D.contains_batch, start, dirs, t_max=t_max)
        expect = [_scalar_ray_boundary(lambda w: D.contains(w), start, u, t_max=t_max)
                  for u in dirs]
        assert ts.tolist() == expect
        if isinstance(D, HalfPlane):
            assert ts[0] == math.inf
            assert (ts[1] == math.inf) == (t_max < 5e8)
            assert (0.0 in expect) == (start[0] == 0.5)

    def test_graph_values_unchanged(self):
        G = _ellipsoid_graph()
        S = G.slice([0.1, 0.2j], [1, 0.3 + 0.1j])
        assert S.delta([0.05]) == 0.6899111631639983
        assert G.delta([0.2, 0.1j]) == 0.5820396435630357

    def test_polynomial_matches_the_per_term_loop(self, rng):
        terms = {tuple(rng.integers(0, 4, size=4)): float(rng.normal()) for _ in range(12)}
        poly = RealPolynomial(2, terms)
        Z = rng.normal(size=(50, 2)) + 1j * rng.normal(size=(50, 2))
        coords = np.empty((50, 4))
        coords[:, 0::2], coords[:, 1::2] = Z.real, Z.imag
        expect = np.zeros(50)
        for expo, c in poly.terms.items():
            expect += c * np.prod(coords ** np.array(expo), axis=1)
        assert poly.evaluate_batch(Z).tolist() == expect.tolist()
        assert [poly(z) for z in Z[:5]] == expect[:5].tolist()

    def test_delta_is_a_python_float(self):
        G = _ellipsoid_graph()
        assert type(G.delta([0.2, 0.1j])) is float
        assert type(G.slice([0.1, 0.2j], [1, 0.3]).delta([0.05])) is float

    def test_callable_contains_batch_matches_value(self, rng):
        r = lambda z: float(abs(z[0]) ** 2 + 2 * abs(z[1]) ** 2 - 1)
        G = Graph(DefiningFunction(2, r), interior_point=[0.0, 0.0])
        raw = rng.normal(size=(60, 4)) * 0.7
        Z = raw[:, :2] + 1j * raw[:, 2:]
        assert G.contains_batch(Z).tolist() == [G.r.value(z) < 0 for z in Z]


class TestJsonErrors:
    def test_missing_key_names_node_and_key(self):
        with pytest.raises(InvalidDomain, match="'disk'.*'center'"):
            domain_from_json({"type": "disk"})

    def test_missing_key_in_nested_node(self):
        spec = {"type": "product", "left": {"type": "disk", "center": [0, 0], "radius": 1},
                "right": {"type": "ball", "center": [[0, 0]]}}
        with pytest.raises(InvalidDomain, match="'ball'.*'radius'"):
            domain_from_json(spec)

    def test_node_must_be_an_object(self):
        with pytest.raises(InvalidDomain, match="JSON object, got list"):
            domain_from_json({"type": "product", "left": [1, 2], "right": {}})

    @pytest.mark.parametrize("spec", [
        {"type": "disk", "center": 5, "radius": 1},
        {"type": "ball", "center": [[0, "x"]], "radius": 1},
        {"type": "affine_image", "inner": {"type": "disk", "center": [0, 0], "radius": 1},
         "matrix": [[1, 0], [2, 0]], "offset": [[0, 0]]},
    ], ids=["disk-center", "ball-center", "affine-matrix"])
    def test_wrong_shape_names_node(self, spec):
        with pytest.raises(InvalidDomain, match=f"'{spec['type']}' domain node has a value of the wrong shape"):
            domain_from_json(spec)

    # JSON admits NaN and Infinity: each used to build a node that failed
    # later (an SVD that did not converge, a misleading interior-point error)
    # or, for an infinite affine matrix, answered an "exact" distance
    @pytest.mark.parametrize("build, name", [
        (lambda x: RealPolynomial(1, {(2, 0): 1.0, (0, 0): x}), "coefficient"),
        (lambda x: Disk(complex(0.0, x), 1.0), "center"),
        (lambda x: Disk(0.0, x), "radius"),
        (lambda x: Ball([0.0, 0.0], x), "radius"),
        (lambda x: Polydisk([0.0, 0.0], [1.0, x]), "radius"),
        (lambda x: HalfPlane(x, 1j), "boundary point"),
        (lambda x: HalfPlane(0.0, complex(1.0, x)), "normal"),
        (lambda x: Sector(complex(0.0, x), 0.0, 1.0), "vertex"),
        (lambda x: AffineImage([[1.0, 0.0], [0.0, complex(0.0, x)]], [0.0, 0.0], ball2()), "matrix"),
    ], ids=["polynomial-coefficient", "disk-center", "disk-radius", "ball-radius",
            "polydisk-radius", "halfplane-point", "halfplane-normal", "sector-vertex",
            "affine-matrix"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_parameter_is_refused(self, build, name, value):
        with pytest.raises(InvalidDomain, match=name):
            build(value)
