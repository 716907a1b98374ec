import cmath
import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kcat0 import (
    AffineImage,
    Ball,
    DefiningFunction,
    Disk,
    Graph,
    HalfPlane,
    PlanarOracle,
    Polydisk,
    Product,
    RealPolynomial,
    distance,
    geodesic_approx,
    infinitesimal,
    intersection,
    midpoint_defect,
    midpoint_search,
    right_half_plane,
    sector,
    unit_disk,
    upper_half_plane,
)
from kcat0 import metric
from kcat0.domains import Intersection, ball_mobius, ray_boundary_batch, unit_rows
from kcat0.errors import (
    EmptyWindow,
    InvalidDomain,
    KCat0Error,
    MidpointNotCertified,
    OutsideDomain,
    PseudoDistanceOnly,
)
from kcat0.metric import (
    OPTIMIZER_NODES,
    OPTIMIZER_QUAD,
    _coloured_gradient,
    _functionals,
    _half_plane_lower,
    _path_objective,
    _product_inclusion_upper,
    _round_off,
    _slice_upper,
    exact_distance,
    metric_bounds_batch,
)
from kcat0.planar import disk_distance, planar_distance

from conftest import sample_in
from test_domains import _cplx, _matrix, _node, _size

LN2 = math.log(2.0)
HALF_LN3 = 0.5 * math.log(3.0)


def ball2():
    return Ball(np.zeros(2, dtype=complex), 1.0)


def example36_domain():
    return intersection([Ball(np.array([1.0, 0.0], dtype=complex), 1.0),
                         Ball(np.array([0.0, 1.0], dtype=complex), 1.0)])


class TestInfinitesimal:
    def test_disk_normalization(self):
        iv = infinitesimal(unit_disk(), [0.0], [1.0])
        assert iv.is_exact and iv.lo == pytest.approx(1.0, abs=1e-14)

    def test_half_plane(self):
        iv = infinitesimal(upper_half_plane(), [1j], [1.0])
        assert iv.is_exact and iv.lo == pytest.approx(0.5, abs=1e-14)

    def test_zero_vector(self):
        iv = infinitesimal(ball2(), [0.3, 0.1], [0.0, 0.0])
        assert iv.is_exact and iv.lo == 0.0

    def test_intersection_interval_ratio(self):
        # off a lens, hi is |v| / delta_dir, and lo the largest
        # member metric, which dominates |v| / (2 delta_dir): here the first
        # ball's 5.528 against 5.263
        D = example36_domain()
        iv = infinitesimal(D, [0.1, 0.1], [1.0, 0.0])
        assert not iv.is_exact
        assert iv.hi == pytest.approx(1.0 / D.delta_dir([0.1, 0.1], [1.0, 0.0]), rel=1e-12)
        assert iv.lo == pytest.approx(infinitesimal(D.members[0], [0.1, 0.1], [1.0, 0.0]).lo,
                                      rel=1e-14)
        assert 1.0 < iv.hi / iv.lo < 2.0

    def test_intersection_lo_takes_the_members_metrics(self):
        # inclusion contracts: each member's metric bounds the intersection's
        # from below; |v| / (2 delta_dir) reads only 2.8101 here
        D = example36_domain()
        z, v = [0.2, 0.2], [1.0, 0.3j]
        iv = infinitesimal(D, z, v)
        assert iv.lo >= 3.1131
        assert iv.lo == max(infinitesimal(m, z, v).lo for m in D.members)
        assert iv.hi == pytest.approx(np.linalg.norm(v) / D.delta_dir(z, v), rel=1e-12)

    def test_intersection_at_a_binding_ball_centre(self, rng):
        # there the member ball's metric and |v| / delta_dir are both |v| / R,
        # and rounding crossed them by up to 4e-11 at R = 1.6e-5; hi is padded
        # for it, so the two bounds stay an interval, not a closed form
        for R in 10.0 ** np.linspace(-8, 2, 41):
            c = rng.normal(size=2) + 1j * rng.normal(size=2)
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            D = intersection([Ball(c, R), Ball(c + np.array([0.1 * R, 0.0]), 3.0 * R)])
            iv = infinitesimal(D, c, v)
            assert not iv.is_exact
            assert iv.lo <= iv.hi == pytest.approx(np.linalg.norm(v) / R, rel=1e-12)

    def test_intersection_smooth_hi_is_its_metric_hi(self, rng):
        # off a lens no max is softened: the path optimizer's upper metric is
        # metric_bounds' hi to the bit, zero rows of V included
        for D in (example36_domain(),
                  intersection([Ball([0.5, 0], 1), Ball([0, 0.5], 1), Ball([0.3, 0.3], 0.9)])):
            Z = np.array([sample_in(D, rng, scale=0.4) for _ in range(20)])
            V = rng.normal(size=Z.shape) + 1j * rng.normal(size=Z.shape)
            V[::7] = 0.0
            hi = D.metric_bounds(Z, V)[1]
            assert (hi[::7] == 0.0).all() and (np.delete(hi, np.s_[::7]) > 0).all()
            assert D.metric_hi_smooth(Z, V, 12.0).tobytes() == hi.tobytes()

    def test_intersection_bounds_crossed_past_rounding_raise(self, monkeypatch):
        # a member lo above |v| / delta_dir past its pad is a bug, not clipped
        D = example36_domain()
        first = type(D.members[0])
        monkeypatch.setattr(first, "metric_bounds", lambda self, Z, V: (np.full(len(Z), 1e3),) * 2)
        with pytest.raises(KCat0Error, match="inconsistent interval"):
            infinitesimal(D, [0.1, 0.1], [1.0, 0.0])

    def test_bounds_name_the_node_that_made_them(self):
        # graphs, their affine images and oracle sets bound the metric by a
        # slice hull; the |v| / delta_dir estimate keeps its own tag
        G = Graph(DefiningFunction.from_polynomial(RealPolynomial(2, {
            (2, 0, 0, 0): 1.0, (0, 2, 0, 0): 1.0, (0, 0, 2, 0): 2.0, (0, 0, 0, 2): 2.0,
            (0, 0, 0, 0): -1.0})), interior_point=[0.0, 0.0])
        A = AffineImage(np.array([[2, 0.5], [0, 1]], dtype=complex), np.zeros(2), G)
        for D, z, v, tag in [(G, [0.1, 0.2j], [1.0, 0.5j], "slice-hull"),
                             (A, [0.1, 0.2j], [1.0, 0.5j], "slice-hull"),
                             (G.slice([0.1, 0.2j], [1.0, 0.5j]), [0.1j], [1.0], "slice-hull"),
                             (PlanarOracle(lambda T: np.abs(T - 0.2) < 1.0), [0.1j], [1.0], "slice-hull"),
                             (example36_domain(), [0.1, 0.1], [1.0, 0.0], "delta-bound")]:
            iv = infinitesimal(D, z, v)
            assert not iv.is_exact and iv.methods == {tag}, (D, iv)

    def test_ball_matches_tangential_slice(self):
        # through (0.5, 0) in the (0, 1) direction the affine disk is extremal
        iv = infinitesimal(ball2(), [0.5, 0.0], [0.0, 1.0])
        assert iv.is_exact
        assert iv.lo == pytest.approx(1.0 / math.sqrt(0.75), abs=1e-12)

    def test_outside_raises(self):
        with pytest.raises(OutsideDomain):
            infinitesimal(unit_disk(), [1.5], [1.0])

    def test_affine_image_pulls_back_the_ball(self):
        A, b = np.array([[2, 0.5], [0, 1]], dtype=complex), np.array([0.3j, -0.2])
        D = AffineImage(A, b, Ball([0, 0], 1))
        zs, vs = np.array([0.2 + 0.1j, -0.3j]), np.array([1.0, 0.5j])
        iv = infinitesimal(D, A @ zs + b, A @ vs)
        # the ball's closed form at the pulled-back point and vector
        one = 1.0 - np.vdot(zs, zs).real
        exact = math.sqrt(np.vdot(vs, vs).real * one + abs(np.vdot(zs, vs)) ** 2) / one
        assert iv.is_exact and iv.lo == pytest.approx(exact, rel=1e-12)


class TestDistance:
    def test_product_formula(self):
        P = Product(upper_half_plane(), unit_disk())
        iv = distance(P, [1j, 0.0], [4j, 1.0 / 3.0])
        assert iv.is_exact
        assert iv.lo == pytest.approx(LN2, abs=1e-12)
        assert iv.lo == pytest.approx(max(0.5 * math.log(4), math.atanh(1 / 3)), abs=1e-12)

    def test_same_point(self):
        iv = distance(ball2(), [0.2, 0.1], [0.2, 0.1])
        assert iv.lo == iv.hi == 0.0

    @pytest.mark.parametrize("force_sandwich", [False, True], ids=["default", "forced"])
    def test_ball_slice_of_a_tiny_chord(self, force_sandwich):
        # a ball's slice reads |centre|^2 = |<w, v> / |v|^2|^2, not
        # |<w, v>|^2 / |v|^4, which underflowed to 0 / 0 below a chord of
        # about 1e-77; both nodes bracket the unit ball's closed form
        x, y = [0.3, 0.0], [0.3, 1e-100]
        exact = distance(ball2(), x, y).lo
        assert exact == pytest.approx(1e-100 / math.sqrt(0.91), rel=1e-12)
        for D in (intersection([Ball([0, 0], 1), Ball([0.5, 0], 1)]), ball2()):
            iv = distance(D, x, y, force_sandwich=force_sandwich)
            assert 0.0 < iv.lo <= exact * (1 + 1e-12) and exact * (1 - 1e-12) <= iv.hi < math.inf

    @pytest.mark.parametrize("chord", [1e-160, 1e-170, 1e-200])
    def test_ball_slice_of_a_chord_whose_square_underflows(self, chord):
        # |v|^2 underflows below a chord of about 1e-162, so a ball's slice
        # takes it along v scaled by a power of two, and a disk's distance
        # squares its radius and h in units of one; both nodes keep the unit
        # ball's closed form, chord / sqrt(0.91), to its rounding.  Compared
        # over the chord: near 1e-170 pytest's default abs=1e-12 admits anything
        exact = 1.0482848367219183
        x, y = [0.3, 0.0], [0.3, chord]
        # the forced sandwich on the ball reads lo from its half-plane bound
        for D, forced_lo in ((intersection([Ball([0, 0], 1), Ball([0.5, 0], 1)]), exact),
                             (ball2(), 0.5151755315016)):
            for force_sandwich in (False, True):
                iv = distance(D, x, y, force_sandwich=force_sandwich)
                lo = forced_lo if force_sandwich else exact
                assert iv.lo <= iv.hi
                assert [iv.lo / chord, iv.hi / chord] == pytest.approx([lo, exact], rel=1e-12)

    def test_sandwich_quality_on_intersection(self):
        iv = distance(example36_domain(), [0.2, 0.2], [0.4, 0.3])
        assert iv.lo <= iv.hi
        assert iv.hi - iv.lo < iv.hi / 2

    def test_metric_axioms_sampled(self, rng):
        domains = [unit_disk(), upper_half_plane(),
                   sector(0.0, 0.0, math.pi / 2),
                   Product(upper_half_plane(), unit_disk()), ball2()]
        for D in domains:
            for _ in range(60):
                x = sample_in(D, rng)
                y = sample_in(D, rng)
                z = sample_in(D, rng)
                dxy = distance(D, x, y).lo
                assert dxy == distance(D, y, x).lo  # exact symmetry
                assert distance(D, x, x).lo == 0.0
                assert dxy <= distance(D, x, z).lo + distance(D, z, y).lo + 1e-9

    def test_contraction_under_projection(self, rng):
        P = Product(upper_half_plane(), unit_disk())
        for _ in range(50):
            x = sample_in(P, rng)
            y = sample_in(P, rng)
            d_prod = distance(P, x, y).lo
            d_left = planar_distance(upper_half_plane(), x[0], y[0])
            d_right = planar_distance(unit_disk(), x[1], y[1])
            assert d_left <= d_prod + 1e-9
            assert d_right <= d_prod + 1e-9

    def test_affine_invariance(self, rng):
        D = ball2()
        A = np.array([[1.0 + 0.5j, 0.2], [0.0, 2.0 - 1j]], dtype=complex)
        b = np.array([0.3, -0.4j])
        img = AffineImage(A, b, D)
        for _ in range(25):
            x = sample_in(D, rng, scale=0.5)
            y = sample_in(D, rng, scale=0.5)
            d0 = distance(D, x, y)
            d1 = distance(img, A @ x + b, A @ y + b)
            assert d1.lo == pytest.approx(d0.lo, abs=1e-9)

    def test_slice_upper_bound_property(self, rng):
        D = ball2()
        for _ in range(25):
            x = sample_in(D, rng, scale=0.5)
            y = sample_in(D, rng, scale=0.5)
            if np.allclose(x, y):
                continue
            sl = D.slice(x, y - x)
            d_slice = planar_distance(sl, 0.0, 1.0)
            assert distance(D, x, y).lo <= d_slice + 1e-9

    def test_crossed_bounds_are_tagged(self, monkeypatch):
        # a leaf's forced sandwich takes its lower bound from the half-planes
        D, x, y = ball2(), [0.2, 0.1], [-0.3j, 0.4]
        iv = distance(D, x, y, force_sandwich=True, optimize_path=False)
        assert "bounds-crossed" not in iv.methods
        # a lower bound above the slice bound, by less than the 5e-9 tolerance
        monkeypatch.setattr(metric, "_half_plane_lower", lambda D, x, y: iv.hi + 1e-10)
        crossed = distance(D, x, y, force_sandwich=True, optimize_path=False)
        assert crossed.lo == crossed.hi == pytest.approx(iv.hi, abs=1e-9)
        assert "bounds-crossed" in crossed.methods

    def test_pair_merged_by_the_pull_back_has_no_direction(self):
        # both points pull back to (0.5, 0.5): the slice bound, which checks
        # the direction for every composite below it, refuses the pair
        D = AffineImage(1e20 * np.eye(2), np.zeros(2), example36_domain())
        x = 1e20 * np.array([0.5, 0.5], dtype=complex)
        y = x + np.array([0.0, 1e4])
        assert np.array_equal(D.pull_back(x), D.pull_back(y))
        with pytest.raises(InvalidDomain, match="direction v must be nonzero"):
            distance(D, x, y)

    def test_direction_a_member_pulls_back_to_zero_is_refused(self):
        # the slice direction 1e-200 reaches the affine member as 1e-350,
        # which rounds to 0: a ball slice would divide by |v|^2 = 0
        D = intersection([AffineImage(1e150 * np.eye(2), np.zeros(2), Ball([0, 0], 1.0)),
                          Ball([0, 0], 1e149)])
        with pytest.raises(InvalidDomain, match="direction v must be nonzero"):
            distance(D, [0.0, 0.0], [1e-200, 0.0])

    def test_pseudo_distance_flag(self):
        poly = RealPolynomial(1, {(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0})
        G = Graph(DefiningFunction.from_polynomial(poly), interior_point=[0.0],
                  c_proper=False)
        with pytest.raises(PseudoDistanceOnly):
            distance(G, [0.0], [0.5])

    @pytest.mark.parametrize("call", [
        lambda G: midpoint_search(G, [0.0], [0.5]),
        lambda G: midpoint_defect(G, [0.0], [0.5], [0.2j]),
        lambda G: midpoint_defect(G, [0.1], [0.1], [0.2j]),
    ], ids=["midpoint_search", "midpoint_defect", "midpoint_defect-same-points"])
    def test_pseudo_distance_midpoints_raise(self, call):
        # the midpoint checks C-properness itself, since its sandwich runs on
        # checked points; with x == y the certificate's distances check it
        poly = RealPolynomial(1, {(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0})
        G = Graph(DefiningFunction.from_polynomial(poly), interior_point=[0.0],
                  c_proper=False)
        with pytest.raises(PseudoDistanceOnly, match="not C-proper"):
            call(G)

    def test_exactness_collapse_on_embedded_axis(self, rng):
        # projection lower bound meets slice upper bound for (z, 0) pairs
        S = sector(0.0, 0.0, math.pi / 2)
        D = Product(S, unit_disk())
        for _ in range(10):
            z1 = sample_in(S, rng)
            z2 = sample_in(S, rng)
            iv = distance(D, [z1[0], 0.0], [z2[0], 0.0], force_sandwich=True)
            expected = planar_distance(S, z1[0], z2[0])
            assert iv.lo == pytest.approx(expected, abs=1e-9)
            assert iv.hi == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("D", [Ball([0.0], 1.0), Product(unit_disk())],
                             ids=["ball-1d", "one-factor-product"])
    def test_one_dimensional_nodes_are_exact_disks(self, D):
        iv = distance(D, [0.1], [0.5])
        assert iv.is_exact
        assert iv == distance(unit_disk(), [0.1], [0.5])
        assert iv.lo == pytest.approx(0.44897079660297, abs=1e-13)
        m = midpoint_search(D, [0.1], [0.5])[0]
        assert distance(D, [0.1], m).lo == pytest.approx(0.5 * iv.lo, abs=1e-12)

    def test_thin_wedge_slice_stays_finite(self):
        # the slice is a wedge of opening 0.0073 rad with its vertex about
        # 316 away, where its power-map chart overflows at both endpoints;
        # the wedge is a sector, exact in logarithms (50-digit values: the
        # wedge 1.03944414462602820081, the product 0.91215210851945900761)
        D = Product(right_half_plane(), right_half_plane())
        x = np.array([1.09116942 + 0.63170711j, 2.38725662 - 0.994523j])
        y = np.array([2.04379537 + 0.45931089j, 0.39343915 - 0.64868876j])
        value, exact, tags, _ = _slice_upper(D, x, y)
        assert exact and tags == {"slice-upper"}
        assert value == pytest.approx(1.03944414462602820081, rel=1e-12)
        iv = distance(D, x, y, force_sandwich=True)
        with mpmath.workdps(50):   # the nearest double to the product value lies above it
            assert mpmath.mpf(iv.lo) <= mpmath.mpf("0.91215210851945900761")
        assert 0.91215210851945900761 <= value <= iv.hi <= value * (1 + 1e-14)

    def test_two_half_plane_wedge_slice_is_exact(self):
        # the wedge's disk chart put both points within 7e-14 of the unit
        # circle, where the disk distance read nan; as a sector the slice is
        # exact (50-digit value 0.71366177923477025613)
        D = Product(right_half_plane(), right_half_plane())
        x = np.array([0.19381564626462 - 0.20552304990579248j,
                      1.1116332052239921 - 0.9258995736483681j])
        y = np.array([0.584058311025248 - 0.2148289111268558j,
                      0.5825384186556901 - 0.7828085779639662j])
        value, exact, tags, _ = _slice_upper(D, x, y)
        assert exact and tags == {"slice-upper"}
        assert value == pytest.approx(0.71366177923477025613, rel=1e-12)
        truth = distance(D, x, y).lo
        assert truth == pytest.approx(0.5516893115, abs=1e-9)
        iv = distance(D, x, y, force_sandwich=True)
        assert iv.lo <= truth <= value <= iv.hi <= value * (1 + 1e-14)

    def test_sector_slice_in_a_product_is_exact(self):
        # the slice is the sector itself; its disk chart put both points
        # within rounding of the circle, and the slice bound read 0.0 as
        # exact, below the lower bound
        D = Product(sector(0.0, 0.0, 0.25), unit_disk())
        x = [0.7302416364378125 + 0.06517733784863376j, 0.1]
        y = [0.7313270968988963 + 0.07925983770003427j, 0.1]
        iv = distance(D, x, y, force_sandwich=True)
        assert iv.lo <= 0.1282528724642619 <= iv.hi
        assert distance(D, x, y).lo == pytest.approx(0.1282528724642619, rel=1e-14)

    def test_thin_sector_slice_is_exact(self):
        # q = pi / 0.01: w^q overflows at |w| = 10; 50-digit value
        D = Product(sector(0.0, 0.0, 0.01), unit_disk())
        value, exact, _, _ = _slice_upper(D, np.array([10 * cmath.exp(0.005j), 0.0]),
                                          np.array([cmath.exp(0.005j), 0.0]))
        assert exact
        assert value == pytest.approx(361.68922062077324007, rel=1e-13)

    @pytest.mark.parametrize("D, z, want", [
        (sector(0.0, 0.0, 0.05), 3 * cmath.exp(0.025j), 10.471975511965978),
        (sector(0.0, 0.0, 0.01), 10 * cmath.exp(0.005j), 15.707963267948966),
    ], ids=["read-inf", "overflowed"])
    def test_sector_metric_needs_no_power(self, D, z, want):
        # q |v| / (2 |w| sin(q arg w)); the chart's w^q gave [inf, inf] and nan
        iv = infinitesimal(D, [z], [1.0])
        assert iv.is_exact
        assert iv.lo == pytest.approx(want, rel=1e-14)

    def test_thin_sector_midpoint(self):
        # K = 361: the chart's w^q overflowed; dilated about the vertex to
        # the points' geometric-mean modulus it spans e^(+-361)
        D = sector(0.0, 0.0, 0.01)
        m, _ = midpoint_search(D, [10 * cmath.exp(0.005j)], [cmath.exp(0.005j)])
        assert m[0] == pytest.approx(math.sqrt(10) * cmath.exp(0.005j), rel=1e-14)

    @pytest.mark.parametrize("scale", [1e6, 1e8])
    def test_half_plane_distance_keeps_its_digits_far_out(self, scale):
        # the Cayley chart lost 3e-6 relative at 1e6 and 0.7% at 1e8
        value = planar_distance(upper_half_plane(), scale * 1j, 2 * scale * 1j)
        assert value == pytest.approx(0.5 * LN2, rel=1e-15)

    @pytest.mark.parametrize("D, x, y, want", [
        # the power map overflows at |w| = 10 (q = 314)
        (sector(0.0, 0.0, 0.01), [10 * cmath.exp(0.005j)], [cmath.exp(0.005j)],
         0.5 * math.pi / 0.01 * math.log(10.0)),
        # both chart images within 4e-9 of the unit circle; 50-digit value
        (sector(-0.5 - 1j, 1.875, 2.09375), [-2.13504232 + 2.69189668j],
         [-2.03608795 + 2.81955248j], 0.29351204765893624596),
    ], ids=["thin", "far-from-vertex"])
    def test_sector_distance_stays_finite(self, D, x, y, want):
        assert distance(D, x, y).lo == pytest.approx(want, rel=1e-13)

    def test_sector_distance_matches_50_digits(self, rng):
        # openings from 0.005 to 3.14, points 1e-6 to 1e6 from the vertex
        mpmath.mp.dps = 50
        for _ in range(100):
            v = complex(*rng.uniform(-2, 2, 2))
            alpha = rng.uniform(-3, 3)
            opening = min(math.exp(rng.uniform(math.log(0.005), 1.2)), 3.14)
            S = sector(v, alpha, alpha + opening)
            z, w = (v + 10 ** rng.uniform(-6, 6) * cmath.exp(1j * (alpha + opening * t))
                    for t in rng.uniform(1e-3, 1 - 1e-3, 2))
            q = mpmath.pi / (mpmath.mpf(alpha + opening) - mpmath.mpf(alpha))
            s1, s2 = (mpmath.exp(q * mpmath.log((mpmath.mpc(p) - mpmath.mpc(v))
                                                * mpmath.exp(-1j * mpmath.mpf(alpha))))
                      for p in (z, w))
            want = mpmath.asinh(abs(s1 - s2) / (2 * mpmath.sqrt(s1.imag * s2.imag)))
            assert distance(S, [z], [w]).lo == pytest.approx(float(want), rel=1e-12)
            assert distance(S, [z], [w]).lo == distance(S, [w], [z]).lo


def _polydisk_and_product(d):
    centers = np.array([0.1 + 0.2j, -0.3, 0.5j])[:d]
    radii = np.array([1.0, 2.0, 0.5])[:d]
    return (Polydisk(centers, radii),
            Product(*(Disk(c, r) for c, r in zip(centers, radii))))


def _half_plane_lower_loop(D, x, y):
    """Reference: one scalar support bound and one charted half-plane
    distance per functional (the form the batched bound replaced)."""
    best = 0.0
    for a in _functionals(D.dimension, y - x):
        h = D.support_upper(a)
        if not math.isfinite(h):
            continue
        fx = complex(np.sum(x * np.conj(a)))
        fy = complex(np.sum(y * np.conj(a)))
        if fx.real >= h or fy.real >= h:
            continue  # support bound too tight to certify, skip
        best = max(best, planar_distance(HalfPlane(h, -1.0), fx, fy))
    return best


def _deep_point(D, rng, depth=0.05):
    """An interior point at least ``depth`` from the boundary."""
    while True:
        z = sample_in(D, rng)
        if D.delta(z) > depth:
            return z


@st.composite
def _exact_node(draw, d, depth=2):
    """A node with a closed-form distance: ``_node``'s leaves, affine images
    and products, and for intersections only lenses (a disk with a disk or a
    half-plane whose boundary crosses its circle), each holding a member's
    anchor so that the intersection's anchor needs no search."""
    composite = ["affine", "lens" if d == 1 else "product"] if depth else []
    kind = draw(st.sampled_from(["leaf"] + composite))
    if kind == "leaf":
        return draw(_node(d, 0))
    if kind == "affine":
        return AffineImage(draw(_matrix(d)), [draw(_cplx) for _ in range(d)],
                           draw(_exact_node(d, depth - 1)))
    if kind == "lens":
        c, r, f = draw(_cplx), draw(_size), draw(st.floats(0.1, 0.9))
        turn = cmath.exp(1j * draw(st.floats(0.0, 2.0 * math.pi)))
        if draw(st.booleans()):
            r2 = draw(_size)
            sep = abs(r - r2) + f * min(r, r2)   # the circles cross, one centre in the other disk
            return Intersection([Disk(c, r), Disk(c + sep * turn, r2)])
        return Intersection([Disk(c, r), HalfPlane(c - f * r * turn, turn)])
    cuts = sorted(draw(st.sets(st.integers(1, d - 1), min_size=1)))
    return Product(*[draw(_exact_node(int(k), depth - 1)) for k in np.diff([0, *cuts, d])])


def _exact_pair(data, min_dim):
    """A drawn node with a closed form in C^min_dim to C^3, two of its
    points and their exact distance.  The points lie on seeded rays from the
    node's anchor, a uniform fraction of the way to the boundary (or to 3 on
    an unbounded ray), so every draw is used."""
    D = data.draw(_exact_node(data.draw(st.integers(min_dim, 3))))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    base, U = D.anchor(), unit_rows(rng, 2, D.dimension)
    reach = np.minimum(ray_boundary_batch(D.contains_batch, base, U), 3.0)
    x, y = base + (rng.uniform(size=2) * reach)[:, None] * U
    exact = exact_distance(D, x, y)
    assert exact is not None
    return D, x, y, exact.lo


class TestHalfPlaneLower:
    # the half-plane bound serves the nodes without a projection: the leaves
    @pytest.mark.parametrize("D", [
        Ball([0.3 - 0.2j, 0.5], 1.2),
        Ball([0.1, -0.4j, 0.2 + 0.1j], 0.8),
        Disk(0.3 + 0.1j, 1.5),
        sector(0.2j, 0.5, 2.0),
        HalfPlane(0.1, -1j),   # the grid's i e_1 is its outward normal
    ], ids=["ball-c2", "ball-c3", "disk", "sector", "halfplane"])
    def test_matches_the_per_functional_loop(self, D, rng):
        for _ in range(20):
            x, y = _deep_point(D, rng), _deep_point(D, rng)
            assert _half_plane_lower(D, x, y) == pytest.approx(
                _half_plane_lower_loop(D, x, y), rel=1e-12)

    def test_scaled_domain_keeps_its_digits(self, rng):
        # the charted half-plane distance lost about 1e-5 relative at this
        # scale, the closed form keeps it
        unit, big = ball2(), Ball([0.0, 0.0], 1e6)
        for _ in range(20):
            x, y = _deep_point(unit, rng), _deep_point(unit, rng)
            assert _half_plane_lower(big, 1e6 * x, 1e6 * y) == pytest.approx(
                _half_plane_lower_loop(unit, x, y), rel=1e-12)

    @pytest.mark.parametrize("chord", [1e-170, 1e-200])
    @pytest.mark.parametrize("x, u", [([0.3, 0.0], [0.0, 1.0]), ([0.0, 0.0], [0.6, 0.8j])],
                             ids=["axis", "oblique"])
    def test_chord_functional_whose_norm_underflows(self, x, u, chord):
        # |y - x| underflows below a chord of about 1e-162, so the chord is
        # normalised along itself scaled by a power of two: no warning, and
        # on the oblique chord, which no grid functional lies along, the
        # bound keeps its value at a normal-range chord
        x, u = np.array(x, dtype=complex), np.array(u, dtype=complex)
        ref = distance(ball2(), x, x + 1e-70 * u, force_sandwich=True).lo / 1e-70
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            iv = distance(ball2(), x, x + chord * u, force_sandwich=True)
        assert iv.lo / chord == pytest.approx(ref, rel=1e-12)

    @staticmethod
    def _forced_case(data):
        """``_exact_pair``'s exact distance and the forced sandwich without
        the path optimizer."""
        D, x, y, exact = _exact_pair(data, 1)
        return exact, distance(D, x, y, force_sandwich=True, optimize_path=False)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_forced_sandwich_lower_bound_is_sound(self, data):
        exact, iv = self._forced_case(data)
        assert iv.lo <= exact + 1e-9

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_forced_sandwich_upper_bound_is_sound(self, data):
        # without the path optimizer, hi is the slice bound (or the inclusion
        # bound); a slice's exact distance must never fall below K_D
        exact, iv = self._forced_case(data)
        assert iv.hi >= exact - 1e-9 * max(1.0, exact)


def _composite_support(D, A):
    """Support bounds of the rows of A that a composite's parts imply: the
    sum over a product's factors, the least over an intersection's members,
    and an affine image's inner support at M^H a plus Re<b, a>."""
    if isinstance(D, Product):
        return sum(_composite_support(f, Af) for f, Af in zip(D.factors, D.split(A)))
    if isinstance(D, Intersection):
        return np.min([_composite_support(m, A) for m in D.members], axis=0)
    if isinstance(D, AffineImage):
        return (A.conj() @ D.offset).real + _composite_support(D.inner, A @ D.matrix.conj())
    return D.support_upper_batch(A)


@st.composite
def _composite_pair(draw):
    """A product or an intersection of ``_node`` draws, or an intersection of
    three balls about a common point, with two points on seeded rays from
    the middle of the longest of 8 seeded chords from its anchor (an anchor
    can lie within 1e-98 of a member's boundary)."""
    d = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["intersection", "three-balls"] + (["product"] if d > 1 else [])))
    if kind == "product":
        cuts = sorted(draw(st.sets(st.integers(1, d - 1), min_size=1)))
        D = Product(*[draw(_node(int(k), 1)) for k in np.diff([0, *cuts, d])])
    elif kind == "intersection":
        D = Intersection([draw(_node(d, 1)) for _ in range(2)])
    else:
        common = np.array([draw(_cplx) for _ in range(d)])
        centers = [common + np.array([draw(_cplx) for _ in range(d)]) for _ in range(3)]
        D = Intersection([Ball(c, np.linalg.norm(c - common) + draw(_size)) for c in centers])
    try:
        base = D.anchor()
    except EmptyWindow:
        assume(False)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    U = unit_rows(rng, 8, d)
    reach = np.minimum(ray_boundary_batch(D.contains_batch, base, U), 3.0)
    base = base + 0.5 * reach.max() * U[np.argmax(reach)]
    U = unit_rows(rng, 2, d)
    reach = np.minimum(ray_boundary_batch(D.contains_batch, base, U), 3.0)
    x, y = base + (rng.uniform(size=2) * reach)[:, None] * U
    assume(D.contains_batch(np.array([x, y])).all())
    return D, x, y


class TestOneLowerBoundPerNode:
    @pytest.mark.parametrize("call, runs", [
        (lambda: distance(example36_domain(), [0.2, 0.2], [0.4, 0.3]), 0),
        (lambda: distance(Product(upper_half_plane(), unit_disk()), [1j, 0.2], [2 + 0.5j, -0.3j],
                          force_sandwich=True), 0),
        (lambda: distance(Polydisk([0.1, -0.2j], [1.0, 1.5]), [0.3, 0.1j], [-0.2j, 0.5],
                          force_sandwich=True), 0),
        (lambda: midpoint_defect(AffineImage(1e6 * np.eye(2), np.zeros(2), example36_domain()),
                                 [1.0, 1.0], [4.0, 1.0], [2.0, 2.0]), 0),
        (lambda: distance(ball2(), [0.2, 0.1], [-0.3j, 0.4], force_sandwich=True), 1),
        (lambda: distance(_ellipsoid(np.array([1.0, 2.0]), True), [0.2, 0.1j], [-0.3, 0.4]), 1),
    ], ids=["example36", "forced-HxD", "forced-polydisk", "large-n-defect", "forced-ball",
            "graph"])
    def test_half_planes_run_only_without_a_projection(self, call, runs, monkeypatch):
        calls, original = [], metric._half_plane_lower
        monkeypatch.setattr(metric, "_half_plane_lower",
                            lambda D, x, y: calls.append(D) or original(D, x, y))
        call()
        assert len(calls) == runs

    @given(_composite_pair())
    @settings(max_examples=80, deadline=None)
    def test_projection_dominates_the_half_planes(self, case):
        # the premise of taking a composite's lower bound from its parts
        # alone: a unit functional maps the member attaining the least
        # support, or the factors through the sum map, into the same
        # half-plane, so the grid bound is at most the padded projection
        D, x, y = case
        D.support_upper_batch = lambda A: _composite_support(D, A)
        projected = D.projection_lower(x, y, metric._distance)
        assert _half_plane_lower(D, x, y) <= projected * (1.0 - _round_off(D))


class TestPolydiskIsProductOfDisks:
    # in unit coordinates of each disk: separations 1.39, 0.20 and 1.10, so
    # the middle coordinate is held fixed by the midpoint tie-break
    X_UNIT = np.array([-0.6, 0.1, 0.0])
    Y_UNIT = np.array([0.6, -0.1, 0.8j])

    def points(self, P):
        return (P.centers + P.radii * self.X_UNIT[:P.dimension],
                P.centers + P.radii * self.Y_UNIT[:P.dimension])

    @pytest.mark.parametrize("d", [2, 3])
    def test_same_values(self, d, rng):
        P, Q = _polydisk_and_product(d)
        x, y = self.points(P)
        assert exact_distance(P, x, y) == exact_distance(Q, x, y)
        assert exact_distance(P, x, y).lo == max(
            disk_distance(a, b) for a, b in zip(self.X_UNIT[:d], self.Y_UNIT[:d]))
        Z = np.array([sample_in(P, rng) for _ in range(20)])
        V = rng.normal(size=(20, d)) + 1j * rng.normal(size=(20, d))
        for a, b in zip(metric_bounds_batch(P, Z, V), metric_bounds_batch(Q, Z, V)):
            assert np.array_equal(a, b)
        W = P.centers + 1.3 * P.radii * (rng.normal(size=(50, d)) + 1j * rng.normal(size=(50, d)))
        assert np.array_equal(P.contains_batch(W), Q.contains_batch(W))
        for _ in range(10):
            c = 0.2 * (rng.normal(size=d) + 1j * rng.normal(size=d))
            r, g = rng.uniform(0.1, 0.6, size=(2, 1, d))
            assert P.polydisk_growth(c[None, :], r, g) == Q.polydisk_growth(c[None, :], r, g)
        assert np.array_equal(P.exact_midpoint(x, y), Q.exact_midpoint(x, y))

    def test_midpoint_holds_the_slack_coordinate(self):
        P, _ = _polydisk_and_product(3)
        x, y = self.points(P)
        m = P.exact_midpoint(x, y)
        assert m[1] == x[1]
        half = 0.5 * distance(P, x, y).lo
        assert distance(P, x, m).lo == pytest.approx(half, abs=1e-12)
        assert distance(P, m, y).lo == pytest.approx(half, abs=1e-12)

    @pytest.mark.parametrize("x, y", [([0.5, 0.0], [-0.5, 0.0]), ([0.5, 0.0], [0.0, 0.5])])
    def test_forced_sandwich_on_unit_bidisk_is_tight_below(self, x, y):
        P = Polydisk(np.zeros(2, dtype=complex), np.ones(2))
        exact = distance(P, x, y).lo
        assert exact * (1 - 1e-14) <= distance(P, x, y, force_sandwich=True).lo <= exact


def _touching_ball(center, centers, radii):
    """The smallest float-radius ball around ``center`` that holds the closed
    polydisk with these centers and radii strictly inside."""
    R = float(np.linalg.norm(np.abs(centers - center) + radii))
    grow = np.ones((1, len(radii)))
    while not Ball(center, R).polydisk_growth(centers[None, :], radii[None, :], grow)[0] > 0:
        R = float(np.nextafter(R, math.inf))
    return Ball(center, R)


@st.composite
def _room_cases(draw):
    """A domain in C^2 or C^3, a polydisk with room to grow inside it, and
    two of its points.  The domain is an intersection of 1-3 balls (mostly 2
    or 3), a product with a disk factor, or a tight intersection: 2-3 balls
    that touch the polydisk, the first centred on it.  There the points sit
    alike in every factor disk, so each factor is at the polydisk's
    distance."""
    d = draw(st.integers(2, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["balls", "balls", "tight", "product"]))
    if kind == "tight":
        centers = rng.uniform(-0.4, 0.4, d) + 1j * rng.uniform(-0.4, 0.4, d)
        radii = rng.uniform(0.2, 1.0, d)
        D = intersection([_touching_ball(centers + offset, centers, radii) for offset in
                          [0.0] + [rng.uniform(-0.5, 0.5, d) + 1j * rng.uniform(-0.5, 0.5, d)
                                   for _ in range(draw(st.integers(1, 2)))]])
        turn = np.exp(2j * np.pi * rng.uniform(size=d))
        x, y = (centers + radii * turn * math.sqrt(rng.uniform(0.0, 0.98))
                * cmath.exp(2j * math.pi * rng.uniform()) for _ in range(2))
        return D, Polydisk(centers, radii), x, y

    def ball(dim):
        # |center| < 0.4 sqrt(2 dim) < 1 <= radius: every ball holds the origin
        return Ball(rng.uniform(-0.4, 0.4, dim) + 1j * rng.uniform(-0.4, 0.4, dim),
                    rng.uniform(1.0, 2.0))

    if kind == "balls":
        D = intersection([ball(d) for _ in range(draw(st.sampled_from([1, 2, 2, 3])))])
    else:
        disk = Disk(complex(*rng.uniform(-0.4, 0.4, 2)), rng.uniform(1.0, 2.0))
        D = Product(disk, ball(d - 1)) if draw(st.booleans()) else Product(ball(d - 1), disk)
    centers = rng.uniform(-1, 1, d) + 1j * rng.uniform(-1, 1, d)
    while not D.contains(centers):
        centers *= 0.5
    radii = rng.uniform(0.05, 1.0, d)
    while not D.polydisk_growth(centers[None, :], radii[None, :], np.ones((1, d)))[0] > 0:
        radii *= 0.7
    x, y = (centers + radii * np.sqrt(rng.uniform(0.0, 0.98, d))
            * np.exp(2j * np.pi * rng.uniform(size=d)) for _ in range(2))
    return D, Polydisk(centers, radii), x, y


def _floor(D, x, y) -> float:
    """The largest exact distance among the C-proper members of an
    intersection, or among the factors of a product at the projected
    points: each is a holomorphic contraction's image, so K_D is above it."""
    if isinstance(D, Product):
        return max(exact_distance(f, xf, yf).lo for f, xf, yf in zip(D.factors, D.split(x), D.split(y)))
    members = D.members if isinstance(D, Intersection) else [D]
    return max(exact_distance(m, x, y).lo for m in members if m.c_proper)


class TestPolydiskRoom:
    """The inscribed-polydisk upper bound: a polydisk with room inside D."""

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_never_below_the_exact_distance(self, data):
        D, x, y, exact = _exact_pair(data, 2)
        bound = _product_inclusion_upper(D, x, y)
        assert bound is None or bound >= exact * (1 - 1e-9)

    @given(_room_cases())
    @settings(max_examples=60, deadline=None)
    def test_never_below_a_member_or_factor(self, case):
        # the bench's member-ball floor: D lies in each member, and projects
        # onto each factor
        D, _, x, y = case
        bound = _product_inclusion_upper(D, x, y)
        assert bound is None or bound >= _floor(D, x, y) * (1 - 1e-9)

    def test_close_points_stay_above_the_true_distance(self):
        # a polydisk of the family nearly matches D, and points 1e-7 apart
        # near its boundary would lose digits to cancellation in a - b; the
        # bound must stay above the distance itself, with no tolerance
        centers, radii = np.array([0.1 + 0.2j, -0.3j]), np.array([1.0, 2.0])
        D = Polydisk(centers, radii)
        rng = np.random.default_rng(0)
        with mpmath.workdps(50):
            for _ in range(60):
                x = centers + radii * rng.uniform(0.45, 0.9, 2) * np.exp(2j * np.pi * rng.uniform(size=2))
                y = x + 1e-7 * (rng.normal(size=2) + 1j * rng.normal(size=2))
                a, b = [[(mpmath.mpc(p) - mpmath.mpc(c)) / mpmath.mpf(r)
                         for p, c, r in zip(z, centers, radii)] for z in (x, y)]
                true = max(mpmath.asinh(abs(u - v) / mpmath.sqrt((1 - abs(u) ** 2) * (1 - abs(v) ** 2)))
                           for u, v in zip(a, b))
                assert mpmath.mpf(_product_inclusion_upper(D, x, y)) >= true

    def test_the_large_n_win_is_kept(self):
        D = example36_domain()
        z, y = np.array([2.0, 2.0]) / 1e6, np.array([4.0, 1.0]) / 1e6
        target = _slice_upper(D, z, y)[0] * (1 + _round_off(D))
        assert target == pytest.approx(0.54931, abs=1e-5)
        assert _product_inclusion_upper(D, z, y) < 0.36


class TestGeodesicApprox:
    def test_disk_radius(self):
        path, length = geodesic_approx(unit_disk(), [0.0], [0.5])
        assert length.hi == pytest.approx(HALF_LN3, abs=1e-3)

    def test_half_plane_vertical(self):
        path, length = geodesic_approx(upper_half_plane(), [1j], [4j])
        assert length.hi == pytest.approx(0.5 * math.log(4), abs=1e-3)

    def test_same_point(self):
        path, length = geodesic_approx(ball2(), [0.1, 0.1], [0.1, 0.1])
        assert path.shape == (1, 2)
        assert length.lo == length.hi == 0.0

    def test_never_beats_exact(self):
        P = Product(upper_half_plane(), unit_disk())
        _, length = geodesic_approx(P, [1j, 0.0], [4j, 1 / 3])
        assert length.hi >= LN2 - 1e-9
        assert length.hi == pytest.approx(LN2, abs=1e-3)

    @staticmethod
    def _bent_path(D, x, y, n):
        """Interior coordinates of a path off the straight segment, inside D."""
        d = D.dimension
        ts = np.linspace(0.0, 1.0, n)[1:-1, None]
        bend = 0.05 * np.sin(np.pi * ts) * np.exp(1j * np.arange(1, d + 1))
        nodes = x + ts * (y - x) + bend * np.abs(y - x)
        assert D.contains_batch(nodes).all()
        return np.hstack([nodes.real, nodes.imag]).reshape(-1)

    @pytest.mark.parametrize("smooth_p", [None, 12.0], ids=["true", "smoothed"])
    @pytest.mark.parametrize("D, x, y", [
        (Product(upper_half_plane(), unit_disk()), [1j, 0.2], [2 + 3j, -0.5j]),
        (example36_domain(), [0.05, 0.1], [0.5, 0.3 + 0.1j]),
        # coordinates where an absolute 1e-8 step is lost to rounding
        (Product(upper_half_plane(), unit_disk()), [1e9j, 0.2], [1e8 + 2e9j, -0.5j]),
    ], ids=["HxD", "example36", "HxD-far"])
    def test_coloured_gradient_matches_dense_differences(self, D, x, y, smooth_p):
        x, y = np.asarray(x, dtype=complex), np.asarray(y, dtype=complex)
        n = OPTIMIZER_NODES
        lengths = _path_objective(D, x, y, n, OPTIMIZER_QUAD, smooth_p)
        u = self._bent_path(D, x, y, n)
        f, grad = _coloured_gradient(lengths, n, D.dimension)(u)
        dense = scipy.optimize.approx_fprime(u, lambda v: lengths(v[None, :])[0].sum(), 1e-8)
        assert f == pytest.approx(lengths(u[None, :])[0].sum(), rel=1e-15)
        assert np.abs(grad - dense).max() <= 1e-5 * max(1.0, np.abs(dense).max())

    def test_one_gradient_is_one_batched_call(self):
        D = Product(upper_half_plane(), unit_disk())
        x, y = np.array([1j, 0.2]), np.array([2 + 3j, -0.5j])
        n = OPTIMIZER_NODES
        lengths = _path_objective(D, x, y, n, OPTIMIZER_QUAD)
        stacks = []

        def counted(U):
            stacks.append(U.shape[0])
            return lengths(U)

        _coloured_gradient(counted, n, D.dimension)(self._bent_path(D, x, y, n))
        assert stacks == [1 + 4 * D.dimension]

    # lengths at the dense finite-difference optimizer this one replaced; a
    # coloured gradient must not find longer paths
    @pytest.mark.parametrize("D, x, y, before", [
        (example36_domain(), [0.2, 0.2], [0.4, 0.3], 0.7066179513237613),
        (example36_domain(), [0.05, 0.1], [0.5, 0.3 + 0.1j], 2.421539694165947),
        (example36_domain(), [0.3, 0.05], [0.2 + 0.1j, 0.5], 5.60376796452322),
        (Product(upper_half_plane(), unit_disk()), [1j, 0.2], [2 + 3j, -0.5j],
         0.7455294069098496),
        (ball2(), [0.1, 0.2j], [-0.4 + 0.3j, 0.5], 0.9734380132442804),
        (Polydisk(np.zeros(2), np.ones(2)), [0.1, 0.2j], [-0.4 + 0.3j, 0.5],
         0.633469183800385),
    ], ids=["example36-a", "example36-b", "example36-c", "HxD", "ball", "polydisk"])
    def test_lengths_do_not_rise(self, D, x, y, before):
        _, length = geodesic_approx(D, x, y)
        assert length.hi <= before * (1 + 1e-4)

    def test_optimizer_fallback_reaches_the_interval(self, monkeypatch):
        real_minimize = scipy.optimize.minimize

        def leave_the_domain(fun, x0, *args, method=None, **kwargs):
            if method != "L-BFGS-B":
                return real_minimize(fun, x0, *args, method=method, **kwargs)
            return scipy.optimize.OptimizeResult(x=x0 + 10.0, fun=0.0)

        monkeypatch.setattr(scipy.optimize, "minimize", leave_the_domain)
        iv = distance(example36_domain(), [0.2, 0.2], [0.4, 0.3],
                      force_sandwich=True, optimize_path=True)
        assert {"path-optimizer", "optimizer-no-improvement"} <= iv.methods


class TestMidpoint:
    def test_half_plane(self):
        m, resid = midpoint_search(upper_half_plane(), [1j], [4j])
        assert m[0] == pytest.approx(2j, abs=1e-10)
        assert resid == 0.0

    def test_product_constant_factor(self):
        P = Product(upper_half_plane(), unit_disk())
        m, resid = midpoint_search(P, [1j, 0.0], [4j, 0.0])
        assert m[0] == pytest.approx(2j, abs=1e-10)
        assert m[1] == pytest.approx(0.0, abs=1e-12)
        assert resid == 0.0

    def test_trivial(self):
        m, resid = midpoint_search(unit_disk(), [0.3], [0.3])
        assert m[0] == 0.3 and resid == 0.0

    def test_ball_midpoint_splits_distance(self, rng):
        D = ball2()
        x = sample_in(D, rng, scale=0.5)
        y = sample_in(D, rng, scale=0.5)
        m, resid = midpoint_search(D, x, y)
        assert resid == 0.0
        d = distance(D, x, y).lo
        assert distance(D, x, m).lo == pytest.approx(d / 2, abs=1e-10)
        assert distance(D, m, y).lo == pytest.approx(d / 2, abs=1e-10)

    def test_antipodal_ball_midpoint_near_the_sphere(self):
        # |ball_mobius(x, y)| rounds to 1 here, so the length must not come from it
        D, x, y = ball2(), [0.999999999, 0.0], [-0.999999999, 0.0]
        m, _ = midpoint_search(D, x, y)
        d = distance(D, x, y).lo
        assert d == pytest.approx(21.416413, abs=1e-6)
        for half in (distance(D, x, m).lo, distance(D, m, y).lo):
            assert half == pytest.approx(d / 2, rel=1e-12)

    def test_numeric_midpoint_on_intersection(self):
        # the lens slice's geodesic midpoint on omega has CN radius 0.142:
        # the sandwich intervals there are too wide to place it near the midpoint
        with pytest.raises(MidpointNotCertified):
            midpoint_search(example36_domain(), [0.2, 0.2], [0.5, 0.4], tol=5e-2)
        # at large n they are tight, and the large-n pair certifies
        D = AffineImage(1e6 * np.eye(2), np.zeros(2), example36_domain())
        m, eta = midpoint_search(D, [1.0, 1.0], [4.0, 1.0], tol=5e-2)
        assert D.contains(m)
        assert 0.0 < eta <= 5e-2

    @given(scale=st.sampled_from([10.0, 1e3, 1e6]),
           coords=st.lists(st.floats(0.2, 2.0), min_size=4, max_size=4),
           turns=st.lists(st.floats(-0.5, 0.5), min_size=4, max_size=4))
    @settings(max_examples=8, deadline=None)
    def test_numeric_midpoint_radius_bounds_the_cn_excess(self, scale, coords, turns):
        # eta^2 >= d(x,m)^2 / 2 + d(m,y)^2 / 2 - d(x,y)^2 / 4 from the hi, hi
        # and lo bounds, recomputed here
        D = AffineImage(scale * np.eye(2), np.zeros(2), example36_domain())
        x = np.array(coords[:2]) * np.exp(1j * np.array(turns[:2]))
        y = np.array(coords[2:]) * np.exp(1j * np.array(turns[2:]))
        assume(D.contains_batch(np.array([x, y])).all() and not np.allclose(x, y))
        m, eta = midpoint_search(D, x, y, tol=1e3)
        excess = (0.5 * distance(D, x, m, optimize_path=False).hi ** 2
                  + 0.5 * distance(D, m, y, optimize_path=False).hi ** 2
                  - 0.25 * distance(D, x, y, optimize_path=False).lo ** 2)
        assert eta ** 2 >= excess

    @given(data=st.data(), base=st.sampled_from(["omega", "lens"]),
           scale=st.sampled_from([1.0, 1e3, 1e6]))
    @settings(max_examples=40, deadline=None)
    def test_witness_midpoint_radius_is_half_the_slice_width(self, data, base, scale):
        # on an exact slice both halves are at most half the padded slice
        # bound s, so eta^2 <= (s^2 - lo^2) / 4 up to the round-off padding
        inner = example36_domain() if base == "omega" else intersection(
            [Ball([0.5, 0.0], 1.0), Ball([0.0, 0.5], 1.2)])
        D = AffineImage(scale * np.eye(2), np.zeros(2), inner)
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        x, y = (scale * sample_in(inner, rng, scale=0.6) for _ in range(2))
        value, exact, _, _ = _slice_upper(D, x, y)
        assert exact
        ulp = _round_off(D)
        s = value * (1.0 + ulp)
        lo = distance(D, x, y).lo
        _, eta = midpoint_search(D, x, y, tol=1e3)
        assert eta ** 2 <= (0.25 * (s ** 2 - lo ** 2) + 2.0 * ulp * s ** 2) * (1.0 + 1e-9)

    @given(data=st.data(), scale=st.sampled_from([1.0, 1e3, 1e6]))
    @settings(max_examples=25, deadline=None)
    def test_disk_witness_midpoint_halves_the_slice_bound(self, data, scale):
        # the slice bound on three balls is mostly one inscribed disk's
        # distance, and the witness is that disk as a node: its own geodesic
        # midpoint t splits its distance into halves of at most half the
        # bound.  Unlike an exact slice's, eta^2 is not bounded by
        # (s^2 - lo^2) / 4 here: a fresh sandwich on (x, m) can find a worse
        # disk than the witness
        inner = intersection([Ball([0.5, 0], 1), Ball([0, 0.5], 1), Ball([0.3, 0.3], 0.9)])
        D = AffineImage(scale * np.eye(2), np.zeros(2), inner)
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        x, y = (scale * sample_in(inner, rng, scale=0.6) for _ in range(2))
        value, exact, _, witness = _slice_upper(D, x, y)
        assume(not exact and witness is not None)
        zero, one = np.zeros(1, dtype=complex), np.ones(1, dtype=complex)
        t = witness.exact_midpoint(zero, one)
        halves = witness.exact_distance(zero, t).lo, witness.exact_distance(t, one).lo
        assert halves[0] == pytest.approx(halves[1], rel=1e-9)
        assert max(halves) <= 0.5 * value * (1.0 + 1e-12)
        m, eta = midpoint_search(D, x, y, tol=1e3)
        assert D.contains(m) and eta > 0.0

    @pytest.mark.parametrize("turn", [-0.328125, -0.3125])
    def test_thin_lens_midpoint_walks_the_sector_at_its_points(self, turn):
        # the slice is a lens of opening 0.0118 (q = 266.6) with |T(0)| about
        # 0.045: its sector's undilated chart took |T|^q to 0 and raised
        # ZeroDivisionError, or (second pair) a non-finite midpoint
        D = AffineImage(1e6 * np.eye(2), np.zeros(2), example36_domain())
        x = np.array([1.34375 * cmath.exp(0.0625j), 1.6875 * cmath.exp(-0.5j)])
        y = np.array([1.75 * cmath.exp(turn * 1j), 1.09375 * cmath.exp(-0.03125j)])
        _, exact, _, lens = _slice_upper(D, x, y)
        assert exact and isinstance(lens, Intersection)
        zero, one = np.zeros(1, dtype=complex), np.ones(1, dtype=complex)
        t = lens.exact_midpoint(zero, one)
        halves = lens.exact_distance(zero, t).lo, lens.exact_distance(t, one).lo
        assert halves[0] == pytest.approx(halves[1], rel=1e-9)
        m, eta = midpoint_search(D, x, y, tol=1e3)
        assert D.contains(m) and 0.0 < eta <= 5e-2

    @pytest.mark.parametrize("D, x, y", [
        (upper_half_plane(), [-1j], [4j]),
        (Product(upper_half_plane(), unit_disk()), [-1j, 0.0], [4j, 0.0]),
        (example36_domain(), [0.2, 0.2], [3.0, 0.4]),
    ], ids=["half-plane", "product", "numeric"])
    def test_outside_points_raise(self, D, x, y):
        # the closed forms used to raise a math domain error or a nan interval
        with pytest.raises(OutsideDomain):
            midpoint_search(D, x, y)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
    @pytest.mark.parametrize("D, x, y", [
        (upper_half_plane(), [1j], [4j]),
        (example36_domain(), [0.2, 0.2], [0.5, 0.4]),
    ], ids=["exact", "numeric"])
    def test_tolerance_must_be_finite_and_nonnegative(self, D, x, y, tol):
        with pytest.raises(InvalidDomain):
            midpoint_search(D, x, y, tol=tol)

    def test_uncertifiable_tolerance_raises(self):
        from kcat0.errors import MidpointNotCertified

        D = example36_domain()
        x = np.array([0.2, 0.2], dtype=complex)
        y = np.array([0.5, 0.4], dtype=complex)
        with pytest.raises(MidpointNotCertified):
            midpoint_search(D, x, y, tol=1e-15)


class TestBallAutomorphism:
    def test_involution(self, rng):
        a = np.array([0.3, 0.2 - 0.1j])
        for _ in range(20):
            z = sample_in(ball2(), rng, scale=0.5)
            assert np.allclose(ball_mobius(a, ball_mobius(a, z)), z, atol=1e-12)

    def test_isometry(self, rng):
        D = ball2()
        a = np.array([0.25 + 0.1j, -0.3])
        for _ in range(20):
            x = sample_in(D, rng, scale=0.5)
            y = sample_in(D, rng, scale=0.5)
            d0 = distance(D, x, y).lo
            d1 = distance(D, ball_mobius(a, x), ball_mobius(a, y)).lo
            assert d1 == pytest.approx(d0, abs=1e-12)

    def test_geodesic_additivity(self, rng):
        D = ball2()
        x = sample_in(D, rng, scale=0.5)
        y = sample_in(D, rng, scale=0.5)
        g = D.exact_geodesic(x, y)
        s, t, u = sorted(rng.uniform(0, 1, 3))
        lhs = distance(D, g(s), g(t)).lo + distance(D, g(t), g(u)).lo
        assert lhs == pytest.approx(distance(D, g(s), g(u)).lo, abs=1e-9)


def _ellipsoid(s, polynomial):
    """{sum_j s_j |z_j|^2 < 1} as a polynomial or an opaque-callable Graph."""
    d = len(s)
    if polynomial:
        terms = {(0,) * (2 * d): -1.0}
        for k in range(2 * d):
            terms[tuple(2 * (np.arange(2 * d) == k))] = s[k // 2]
        r = DefiningFunction.from_polynomial(RealPolynomial(d, terms))
    else:
        r = DefiningFunction(d, lambda z: float(np.sum(s * np.abs(z) ** 2) - 1.0))
    return Graph(r, interior_point=np.zeros(d))


def _ellipsoid_distance(s, z, w):
    """The unit ball's closed form pulled back by diag(sqrt s), written out
    independently of kcat0."""
    z, w = np.sqrt(s) * z, np.sqrt(s) * w
    one_z, one_w = 1.0 - np.sum(np.abs(z) ** 2), 1.0 - np.sum(np.abs(w) ** 2)
    pair = abs(1.0 - np.sum(z * np.conj(w))) ** 2
    return math.atanh(math.sqrt(max(0.0, 1.0 - one_z * one_w / pair)))


def _in_ellipsoid(s, rng, radius=0.9):
    """A uniform point of the ellipsoid shrunk by ``radius``."""
    d = len(s)
    raw = rng.normal(size=2 * d)
    w = radius * rng.uniform() ** (1.0 / (2 * d)) * raw / np.linalg.norm(raw)
    return (w[:d] + 1j * w[d:]) / np.sqrt(s)


@st.composite
def _ellipsoid_cases(draw):
    d = draw(st.integers(1, 3))
    s = np.array(draw(st.lists(st.floats(0.5, 4.0), min_size=d, max_size=d)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return s, draw(st.booleans()), _in_ellipsoid(s, rng), _in_ellipsoid(s, rng)


class TestSandwichOnGraph:
    @given(_ellipsoid_cases())
    @settings(max_examples=25, deadline=None)
    def test_tangent_supports_are_sound(self, case):
        s, polynomial, x, y = case
        G = _ellipsoid(s, polynomial)
        F, h = G.supporting_half_planes(x, y)
        assert F.shape[0] > 0
        np.testing.assert_allclose(np.linalg.norm(F, axis=1), 1.0, rtol=1e-12)
        # the ellipsoid's support of a functional a is sqrt(sum |a_j|^2 / s_j)
        assert (h >= np.sqrt(np.sum(np.abs(F) ** 2 / s, axis=1)) - 1e-12).all()
        assert (G.support_upper_batch(F) == math.inf).all()
        exact = _ellipsoid_distance(s, x, y)
        iv = distance(G, x, y)
        pad = 1e-9 * max(1.0, exact)
        assert iv.lo <= exact + pad
        assert iv.hi >= exact - pad

    @pytest.mark.parametrize("polynomial", [True, False], ids=["polynomial", "callable"])
    def test_affine_image_reaches_the_tangent_planes(self, polynomial, rng):
        s = np.array([1.0, 2.0])
        E = _ellipsoid(s, polynomial)
        M, b = np.array([[1.0, 0.5j], [0.0, 2.0]]), np.array([0.3, -1j])
        image = AffineImage(M, b, E)
        for _ in range(3):
            x, y = _in_ellipsoid(s, rng), _in_ellipsoid(s, rng)
            iv = distance(image, M @ x + b, M @ y + b)
            exact = _ellipsoid_distance(s, x, y)
            assert 0.0 < iv.lo <= exact + 1e-9 <= iv.hi + 2e-9 < math.inf
            assert iv.lo == pytest.approx(distance(E, x, y).lo, rel=1e-9)

    def test_intersection_reaches_the_tangent_planes(self, rng):
        # one pair on the polynomial graph: the slice of an intersection
        # holding a graph searches its least ray distance at every
        # quadrature point, all in one ray_min_batch
        s = np.array([1.0, 2.0])
        E = _ellipsoid(s, True)
        B = Ball([0.3, 0.0], 0.9)
        inner = Ball([0.15, 0.0], 0.55)   # inside Ball(0, 1/sqrt 2), so inside E, and inside B
        x, y = sample_in(inner, rng, scale=0.3), sample_in(inner, rng, scale=0.3)
        iv = distance(intersection([E, B]), x, y)
        assert 0.0 < iv.lo <= iv.hi < math.inf
        # inner within the intersection within E and B: inclusion is a contraction
        assert iv.lo <= distance(inner, x, y).hi + 1e-9
        assert iv.hi >= max(_ellipsoid_distance(s, x, y), distance(B, x, y).lo) - 1e-9
        # E's own tangent-plane bound reaches the intersection's lo
        assert iv.lo >= distance(E, x, y).lo * (1.0 - 1e-12)

    def make_graph(self):
        poly = RealPolynomial(2, {(2, 0, 0, 0): 1.0, (0, 2, 0, 0): 1.0,
                                  (0, 0, 2, 0): 2.0, (0, 0, 0, 2): 2.0,
                                  (0, 0, 0, 0): -1.0})
        return Graph(DefiningFunction.from_polynomial(poly), interior_point=[0.0, 0.0])

    def test_infinitesimal_ratio(self, rng):
        G = self.make_graph()
        for _ in range(5):
            z = sample_in(G, rng, scale=0.3)
            v = rng.normal(size=4)
            iv = infinitesimal(G, z, v[:2] + 1j * v[2:])
            assert iv.hi / iv.lo <= 2.0 + 1e-9

    def test_distance_interval_finite(self):
        G = self.make_graph()
        iv = distance(G, [0.1, 0.0], [0.3, 0.1])
        assert 0 < iv.lo <= iv.hi < math.inf

    def test_bracket_true_value(self):
        # the ellipsoid contains Ball(0, 1/sqrt(2)) and sits inside the unit
        # ball, so its true distance lies between the two ball values and
        # the interval must be consistent with that
        G = self.make_graph()
        x = np.array([0.1, 0.0], dtype=complex)
        y = np.array([0.3, 0.1], dtype=complex)
        iv = distance(G, x, y)
        outer = distance(ball2(), x, y).lo
        inner = distance(Ball(np.zeros(2, dtype=complex), 1 / math.sqrt(2)), x, y).lo
        assert iv.lo <= inner + 1e-9
        assert iv.hi >= outer - 1e-9


def _oracle_copy(N):
    """The planar node N known only through its membership test."""
    return PlanarOracle(lambda T: N.contains_batch(T[:, None]))


_THIN_SECTOR = sector(0.0, 0.0, 0.05)
_PLANAR_NODES = [Disk(0.2 + 0.1j, 1.3), HalfPlane(0.1, 1j), sector(0.1, 0.2, 1.4), _THIN_SECTOR,
                 intersection([Disk(0.0, 1.0), Disk(0.8, 0.7)])]


class TestInscribedDiskSlice:
    """The slice bound of a set known only through membership: the least
    distance over disks inside its ray polygon, certified by inclusion."""

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_never_below_the_exact_distance(self, data):
        # two points on seeded rays from the node's anchor, each pushed to a
        # relative gap of 1e-9 to 1e-1 from the boundary (or from 3)
        N = data.draw(st.sampled_from(_PLANAR_NODES))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        base = N.anchor()
        U = np.exp(2j * math.pi * rng.uniform(size=2))[:, None]
        reach = np.minimum(ray_boundary_batch(N.contains_batch, base, U), 3.0)
        z, w = base + (reach * (1.0 - 10.0 ** rng.uniform(-9, -1, size=2)))[:, None] * U
        assume(N.contains(z) and N.contains(w) and z[0] != w[0])
        exact = N.exact_distance(z, w).lo
        value, exact_flag, tags, disk = _slice_upper(_oracle_copy(N), z, w)
        assert not exact_flag and tags == {"slice-upper", "inscribed-disk"}
        assert value >= exact - 1e-9 * max(1.0, exact)
        if disk is not None:
            # the witness is the disk whose distance the bound is: it lies in
            # N (its circle, shrunk by a relative 1e-6, maps inside)
            c, r = disk.center, disk.radius
            assert value == pytest.approx(disk_distance(-c / r, (1.0 - c) / r), rel=1e-8)
            ring = c + (1.0 - 1e-6) * r * np.exp(2j * math.pi * np.arange(64) / 64)
            assert N.contains_batch((z[0] + ring * (w[0] - z[0]))[:, None]).all()

    def test_thin_sector_pair_is_not_undercut(self):
        # the boundary-cloud integral read 10.577 here
        z = np.array([0.9567697058300455 + 0.04787839035502885j])
        w = np.array([0.9822074845203985 + 0.04915127683189463j])
        exact = _THIN_SECTOR.exact_distance(z, w).lo
        assert exact == pytest.approx(15.788, abs=1e-3)
        assert exact <= _slice_upper(_oracle_copy(_THIN_SECTOR), z, w)[0] < math.inf

    @pytest.mark.parametrize("polynomial", [True, False], ids=["polynomial", "callable"])
    def test_graph_oracle_pairs_within_one_percent(self, polynomial):
        # the benchmark's ellipsoid sampler: w uniform in the ball of radius
        # 0.7, mapped to (w1, w2 / sqrt 2); the integral read up to 1.64x
        s = np.array([1.0, 2.0])
        G = _ellipsoid(s, polynomial)
        rng = np.random.default_rng(0)
        for _ in range(10):
            x, y = (_in_ellipsoid(s, rng, 0.7) for _ in range(2))
            exact = _ellipsoid_distance(s, x, y)
            assert exact - 1e-9 <= _slice_upper(G, x, y)[0] <= 1.01 * exact

    def test_bare_oracle_distance_brackets_the_thin_sector(self):
        # needs no anchor: the slice's rays start from the pair's midpoint
        x, y = [cmath.exp(0.025j)], [2.0 * cmath.exp(0.02j)]
        exact = _THIN_SECTOR.exact_distance(np.array(x), np.array(y)).lo
        assert exact == pytest.approx(21.80095, abs=1e-5)
        iv = distance(_oracle_copy(_THIN_SECTOR), x, y)
        assert iv.lo <= exact <= iv.hi < math.inf


class TestInscribedDiskMetric:
    """The infinitesimal metric of a set known only through membership, from
    one ray shot within the complex line: lo from the least outer ray end,
    hi from the disks inside the rays' hull, certified by inclusion."""

    @given(st.booleans(), st.integers(0, 2 ** 32 - 1), st.floats(-9.0, -1.0))
    @settings(max_examples=30, deadline=None)
    def test_graph_brackets_the_ellipsoid(self, polynomial, seed, log_gap):
        # z at a relative gap of 1e-9 to 1e-1 from the sphere's preimage; the
        # closed form's own rounding grows as 1 / gap, and is padded so
        s = np.array([1.0, 2.0])
        E = AffineImage(np.diag([1.0, 1.0 / math.sqrt(2.0)]), np.zeros(2), Ball([0, 0], 1))
        rng = np.random.default_rng(seed)
        w = rng.normal(size=2) + 1j * rng.normal(size=2)
        z = (1.0 - 10.0 ** log_gap) * w / np.linalg.norm(w) / np.sqrt(s)
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        exact = float(E.metric_bounds(z[None, :], v[None, :])[0][0])
        iv = infinitesimal(_ellipsoid(s, polynomial), z, v)
        pad = 1e-15 / 10.0 ** log_gap * exact
        assert 0.0 < iv.lo <= exact + pad
        assert exact - pad <= iv.hi < 1.05 * exact
        assert iv.hi / iv.lo <= 2.0 + 1e-9

    @pytest.mark.parametrize("polynomial", [True, False])
    def test_graph_ratio_at_a_slice_disk_centre_and_near_the_boundary(self, polynomial):
        # each complex line meets the ellipsoid in a disk.  At its centre hi is
        # |v| / rho(z), rho(z) about cos(pi / 96) of its radius, and the half
        # plane's lo is half the metric: the slice's outer radius must carry
        # lo.  At a gap of 1e-9 the disks must come from centres within about
        # 1e-7 of z, far below the least fraction of the far rays' ends
        s = np.array([1.0, 2.0])
        E = AffineImage(np.diag([1.0, 1.0 / math.sqrt(2.0)]), np.zeros(2), Ball([0, 0], 1))
        w = np.array([-0.253 + 0.649j, -0.709 + 0.109j])
        z_near = (1.0 - 1e-9) * w / np.linalg.norm(w) / np.sqrt(s)
        for z, v in [([0.0, 0.0], [0.3 - 0.4j, 1.0]), ([0.999, 0.0], [0.0, 1.0]),
                     (z_near, [1.594 + 0.363j, -1.095 + 0.444j])]:
            z, v = np.asarray(z, dtype=complex), np.asarray(v, dtype=complex)
            exact = float(E.metric_bounds(z[None, :], v[None, :])[0][0])
            iv = infinitesimal(_ellipsoid(s, polynomial), z, v)
            assert iv.lo <= exact * (1.0 + 1e-6) and exact * (1.0 - 1e-6) <= iv.hi < 1.05 * exact
            assert iv.hi / iv.lo <= 2.0 + 1e-9

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_oracle_copies_bracket_the_closed_form(self, data):
        # z on a seeded ray from the node's anchor at a relative gap of 1e-9
        # to 1e-1 from the boundary (or from 3), any direction; the closed
        # form's own rounding grows as 1 / gap, and is padded so
        N = data.draw(st.sampled_from(_PLANAR_NODES))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        base = N.anchor()
        U = np.exp(2j * math.pi * rng.uniform(size=1))[:, None]
        reach = min(ray_boundary_batch(N.contains_batch, base, U)[0], 3.0)
        gap = 10.0 ** rng.uniform(-9, -1)
        z = base + reach * (1.0 - gap) * U[0]
        assume(N.contains(z))
        v = np.exp(2j * math.pi * rng.uniform(size=1)) * 10.0 ** rng.uniform(-3, 3)
        lo, hi = N.metric_bounds(z[None, :], v[None, :])
        assert lo[0] == hi[0]
        iv = infinitesimal(_oracle_copy(N), z, v)
        pad = 1e-15 / gap * hi[0]
        assert 0.0 < iv.lo <= hi[0] + pad
        assert hi[0] - pad <= iv.hi < math.inf


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_functional_grid_is_cached_read_only_and_unchanged(dim):
    # the axes were built in a loop; the stacked form keeps every bit,
    # signed zeros included
    grid = metric._functional_grid(dim)
    assert grid is metric._functional_grid(dim) and not grid.flags.writeable
    axes = []
    for j in range(dim):
        e = np.zeros(dim, dtype=complex)
        e[j] = 1.0
        axes.extend([e, -e, 1j * e])
    assert grid[metric.FUNCTIONAL_GRID_SIZE:].tobytes() == np.array(axes).tobytes()


@pytest.mark.parametrize("dim", [2, 3])
def test_inclusion_growth_is_cached_read_only_and_unchanged(dim):
    # the inscribed-polydisk family's growth rows: (1, rho, ..., rho) for
    # each of the 5 ratios, repeated for each of the 12 centres
    grow = metric._inclusion_growth(dim)
    assert grow is metric._inclusion_growth(dim) and not grow.flags.writeable
    rows = [[1.0] + [rho] * (dim - 1) for rho in np.geomspace(0.25, 4.0, 5)]
    assert grow.tobytes() == np.array(rows * 12).tobytes()
