import json
import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kcat0 import (
    AffineImage,
    Ball,
    DefiningFunction,
    Disk,
    Graph,
    HalfPlane,
    Intersection,
    Polydisk,
    Product,
    RealPolynomial,
    Sector,
    domain_from_json,
    distance,
    domain_to_json,
    intersection,
    sector,
    unit_disk,
    upper_half_plane,
)
from kcat0.domains import ray_boundary_batch
from kcat0.errors import DimensionMismatch, InvalidDomain, OutsideDomain

from conftest import sample_in


def ball2():
    return Ball(np.zeros(2, dtype=complex), 1.0)


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

    def test_depth_lower_bounds_delta(self, rng):
        # an affine image holds the ball of radius s_min * (inner depth)
        A = AffineImage([[2, 0.5], [0, 1]], [0.3, -0.2j], ball2())
        D = intersection([A, Ball([0.5, 0.0], 1.2)])
        z = sample_in(D, rng, scale=0.5)
        assert 0 < D.depth_lower(z) <= D.delta(z) + 1e-12   # one numeric delta, about 1 s
        for _ in range(10):
            z = sample_in(D, rng, scale=0.5)
            assert A.depth_lower(z) == pytest.approx(
                np.linalg.svd(A.matrix, compute_uv=False)[-1] * ball2().delta(A.pull_back(z)))

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
def _slack_cases(draw):
    D = draw(_node(draw(st.integers(1, 3))))
    d = D.dimension
    # center the polydisk at a random point of the domain when one is found
    raw = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).uniform(-3, 3, (256, 2 * d))
    inside = np.flatnonzero(D.contains_batch(raw[:, :d] + 1j * raw[:, d:]))
    centers = raw[inside[0], :d] + 1j * raw[inside[0], d:] if inside.size else np.zeros(d, complex)
    return D, centers, np.array([draw(st.floats(1e-3, 0.5)) for _ in range(d)])


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
    def test_near_diagonal_affine_matrix_gives_no_slack(self):
        centers, radii = np.zeros(2, dtype=complex), np.full(2, 1 - 1e-10)
        assert not _NEAR_DIAGONAL.contains([1 - 2e-10, -(1 - 2e-10)])  # in that polydisk
        assert _NEAR_DIAGONAL.polydisk_slack(centers, radii) is None
        D = AffineImage(np.diag([2.0, 0.5]), [0, 0], Polydisk([0, 0], [1, 1]))
        assert D.polydisk_slack(np.zeros(2, dtype=complex), np.array([1.0, 0.25])) == 0.5

    # the closed polydisk is the convex hull of its torus, so a sampled torus
    # inside the (convex) domain is the containment condition, sampled
    @given(_slack_cases())
    @example((_NEAR_DIAGONAL, np.zeros(2, dtype=complex), np.full(2, 1 - 1e-10)))
    @settings(max_examples=200, deadline=None)
    def test_positive_slack_puts_the_torus_inside(self, case):
        D, centers, radii = case
        slack = D.polydisk_slack(centers, radii)
        if slack is not None and slack > 0:
            assert D.contains_batch(_torus(centers, radii)).all()


@st.composite
def _support_cases(draw):
    D = draw(_node(draw(st.integers(1, 3))))
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
        Polydisk([0.5, -1j], [1.0, 2.0]),
        Product(HalfPlane(0.0, 1.0), sector(1.0, 0.0, 1.0)),
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
        (sector(1j, 0.0, math.pi / 2), [-1.0, -1j, -1 - 1j, 0.0], [1.0, 1j, 1 - 1j, -1 + 1j]),
        (Product(HalfPlane(0.0, 1.0), Disk(0.0, 1.0)), [[-1.0, 1j], [0.0, 1.0]],
         [[1.0, 0.0], [1j, 1.0]]),
        # both edge normals are orthogonal to 1j here: only the cone test sees it
        (Sector(0.0, 0.0, math.pi), [-1j], [1j]),
    ], ids=["halfplane", "sector", "product", "sector-opening-pi"])
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


_ELLIPSOID = {(2, 0, 0, 0): 1.0, (0, 2, 0, 0): 1.0, (0, 0, 2, 0): 2.0,
              (0, 0, 0, 2): 2.0, (0, 0, 0, 0): -1.0}


def _ellipsoid_graph():
    poly = RealPolynomial(2, _ELLIPSOID)
    return Graph(DefiningFunction.from_polynomial(poly), interior_point=[0.0, 0.0])


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
        assert S.support_upper([1 + 1j]) == 1.0519052134924742
        assert S.boundary_points(512)[7] == 0.7521391498530944 + 0.06468423611831195j
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
