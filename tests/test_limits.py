import math

import numpy as np
import pytest

from kcat0 import (
    AffineImage,
    Ball,
    DefiningFunction,
    Disk,
    Graph,
    HalfPlane,
    Product,
    convergence_check,
    dilation_sequence,
    distance,
    example36_domain,
    frankel_2b,
    hausdorff,
    intersection,
    limits,
    right_half_plane,
    scaling_lemma32,
    unit_disk,
    upper_half_plane,
)
from kcat0.domains import _window_anchor, seeded_unit_rows
from kcat0.errors import EmptyWindow, GridBoundary, InvalidDomain, OutsideDomain, PowerUnderflow


def f_flat(x, z):
    return x * x + (math.exp(-1.0 / abs(z)) if z != 0 else 0.0)


def f_quartic(x, z):
    return x * x + abs(z) ** 4


def f_radial(x, z):
    # |w| rounded, so every point of a grid row ties exactly
    r = round(abs(z), 9)
    return x * x + (math.exp(-1.0 / r) if r != 0 else 0.0)


def f_half_nan(x, z):
    return f_flat(x, z) if z.imag >= 0 else math.nan


def reference_anchor(f, n, r0, radial, angular):
    """z_n, f(0, z_n) and a_n by the plain row-major scalar scan."""

    def f0(w):
        return float(f(0.0, w))

    radii = np.linspace(r0 / radial, r0, radial)
    best_val, best_w, best_i = -math.inf, None, None
    for i, rho in enumerate(radii):
        for th in np.linspace(0.0, 2 * math.pi, angular, endpoint=False):
            w = rho * np.exp(1j * th)
            val = f0(w) / rho ** n
            if val > best_val:
                best_val, best_w, best_i = val, w, i
    cell = radii[1] - radii[0]
    for rho in np.linspace(radii[best_i] - cell, radii[best_i] + cell, 33):
        if rho <= 0:
            continue
        for th in np.linspace(0.0, 2 * math.pi, 4 * angular, endpoint=False):
            w = rho * np.exp(1j * th)
            val = f0(w) / rho ** n
            if val > best_val:
                best_val, best_w = val, w
    phase = np.exp(1j * float(np.angle(best_w)))
    glo, ghi = max(abs(best_w) - cell, 1e-12), min(abs(best_w) + cell, r0)
    invphi = 0.381966011250105
    for _ in range(80):
        m1 = glo + invphi * (ghi - glo)
        m2 = ghi - invphi * (ghi - glo)
        if f0(m1 * phase) / m1 ** n >= f0(m2 * phase) / m2 ** n:
            ghi = m2
        else:
            glo = m1
    rho_star = 0.5 * (glo + ghi)
    if f0(rho_star * phase) / rho_star ** n > best_val:
        best_w = rho_star * phase
    z_n = complex(best_w)
    fz = f0(z_n)
    return z_n, fz, fz / abs(z_n) ** n


class TestHausdorff:
    def test_concentric_disks(self):
        r = hausdorff(Disk(0, 1), Disk(0, 2), 3.0, directions=2048)
        assert r.value == pytest.approx(1.0, abs=2 * r.mesh)

    def test_translated_half_planes(self):
        r = hausdorff(HalfPlane(0.0, 1j), HalfPlane(0.1j, 1j), 1.0, directions=2048)
        assert r.value == pytest.approx(0.1, abs=2 * r.mesh)

    def test_identity_is_zero(self):
        r = hausdorff(Disk(0.2, 1.0), Disk(0.2, 1.0), 1.5, directions=512)
        assert r.value == 0.0

    def test_symmetry_exact(self):
        a, b = Disk(0, 1), Disk(0.4, 0.9)
        r1 = hausdorff(a, b, 2.0, directions=1024)
        r2 = hausdorff(b, a, 2.0, directions=1024)
        assert r1.value == r2.value
        assert r1.excess_ab == r2.excess_ba

    def test_nested_one_sided_excess_is_zero(self):
        # the small disk sits inside the big one, so its excess vanishes
        r = hausdorff(Disk(0, 1), Disk(0, 2), 3.0, directions=1024)
        assert r.excess_ab == 0.0
        assert r.excess_ba == pytest.approx(1.0, abs=2 * r.mesh)

    @pytest.mark.parametrize("R", [math.inf, math.nan])
    def test_window_radius_must_be_finite(self, R):
        with pytest.raises(InvalidDomain):
            hausdorff(Disk(0, 1), Disk(0, 2), R, directions=256)

    def test_empty_window_rejected(self):
        with pytest.raises(EmptyWindow):
            hausdorff(Disk(10.0, 1.0), Disk(0, 1), 1.0, directions=256)

    def test_clouds_take_the_nodes_own_exits(self, monkeypatch):
        # each ray ends at its closed-form exit: the balls' membership checks
        # the anchors, the starts and the excess points (104 calls when the
        # rays bisected the window-cut membership)
        calls, real = [], Ball.contains_batch
        monkeypatch.setattr(Ball, "contains_batch", lambda self, Z: calls.append(len(Z)) or real(self, Z))
        dom = AffineImage(10 * np.eye(2), np.zeros(2), example36_domain())
        hausdorff(dom, Product(right_half_plane(), right_half_plane()), 1.0, directions=256)
        assert len(calls) <= 12

    def test_frankel_image_rays_are_led_by_r(self):
        # an affine image of a graph shoots the graph's own exit along the
        # pulled-back rays: 24,056 r rows when the window-cut membership bisected
        rows = []

        def evaluate(z):
            rows.append(1)
            return f_flat(z[0].real, z[1]) - z[0].imag

        G = Graph(DefiningFunction(2, evaluate), interior_point=np.array([0.5j, 0.0]))
        rows.clear()
        dom = AffineImage(np.diag([math.exp(1.0 / 0.3), 1.0 / 0.3]), np.zeros(2), G)
        r = hausdorff(dom, Product(HalfPlane(0.0, 1j), unit_disk()), 1.0, directions=512)
        assert r.value == pytest.approx(0.35165384116263, rel=1e-12)
        assert len(rows) <= 24056 // 2

    def test_frankel_image_rays_stop_at_the_window_reach(self, monkeypatch):
        # the graph is shot only as far as the least power of two above the
        # window's longest ray: 33 value_batch calls and 7,861 r rows when it
        # was chased to t_max = 1e9
        calls, real = [], DefiningFunction.value_batch
        monkeypatch.setattr(DefiningFunction, "value_batch",
                            lambda self, Z: calls.append(len(Z)) or real(self, Z))
        G = Graph(DefiningFunction(2, lambda z: f_flat(z[0].real, z[1]) - z[0].imag),
                  interior_point=np.array([0.5j, 0.0]))
        calls.clear()
        dom = AffineImage(np.diag([math.exp(1.0 / 0.3), 1.0 / 0.3]), np.zeros(2), G)
        r = hausdorff(dom, Product(HalfPlane(0.0, 1j), unit_disk()), 1.0, directions=512)
        assert r.value == pytest.approx(0.35165384116263, rel=1e-12)
        assert len(calls) <= 16 and sum(calls) <= 6500

    @pytest.mark.parametrize("which", ["frankel", "omega"])
    def test_capped_clouds_keep_the_far_floats(self, which):
        # every cloud point is min(D's exit, the window's) as shot to t = 1e9
        if which == "frankel":
            seq = frankel_2b(f_flat, [2, 3, 4], verify_samples=10, hausdorff_directions=2).sequence
            doms = [seq.domain(n) for n in (2, 3, 4)]
        else:
            doms = [AffineImage(n * np.eye(2), np.zeros(2), example36_domain()) for n in (1, 10, 100)]
        dirs = seeded_unit_rows(limits._DIRECTION_SEED, 512, 2)
        for D in doms:
            anchor = _window_anchor(D, 1.0)
            far = np.minimum(D.ray_exit_batch(anchor, dirs, 1e9),
                             Ball(np.zeros(2), 1.0).ray_exit_batch(anchor, dirs, 1e9))
            want = anchor[None, :] + far[:, None] * dirs
            assert limits._boundary_cloud(D, 1.0, dirs).tolist() == want.tolist()

    def test_dilated_omega_has_no_excess_over_the_quarter(self):
        # omega lies in the quarter, and so does every cloud point; one on the
        # window sphere used to count as outside when it rounded past R
        # (excess_ab 0.0775 at n = 1)
        quarter = Product(right_half_plane(), right_half_plane())
        for n in (1, 10, 100):
            dom = AffineImage(n * np.eye(2), np.zeros(2), example36_domain())
            assert hausdorff(dom, quarter, 1.0, directions=2048).excess_ab == 0.0

    def test_triangle_inequality_within_mesh(self):
        a, b, c = Disk(0, 1), Disk(0.3, 1.2), Disk(-0.2, 0.8)
        rab = hausdorff(a, b, 2.5, directions=1024)
        rbc = hausdorff(b, c, 2.5, directions=1024)
        rac = hausdorff(a, c, 2.5, directions=1024)
        mesh = max(rab.mesh, rbc.mesh, rac.mesh)
        assert rac.value <= rab.value + rbc.value + 2 * mesh


class TestLemma32:
    def test_fixed_point_of_cone_times_disk(self):
        D = Product(upper_half_plane(), unit_disk())
        seq = scaling_lemma32(D)
        assert seq.kind == "lemma32"
        for n in (1, 5, 25):
            r = hausdorff(seq.domain(n), seq.claimed_limit, 1.0, directions=1024)
            assert r.value <= 2 * r.mesh

    def test_identity_at_n_equal_one(self):
        D = Product(upper_half_plane(), unit_disk())
        seq = scaling_lemma32(D)
        A, b = seq.map_at(1)
        assert np.allclose(A, np.eye(2))
        assert np.allclose(b, 0.0)

    def test_half_disk_cone_hull(self):
        halfdisk = intersection([Disk(1.0, 1.0), HalfPlane(0.0, 1.0)])
        D = Product(halfdisk, unit_disk())
        seq = scaling_lemma32(D)
        left = seq.claimed_limit.factors[0]
        assert isinstance(left, HalfPlane)  # opening pi canonicalizes
        assert left.inward_normal == pytest.approx(1.0, abs=1e-6)

    def test_interior_origin_rejected(self):
        D = Product(Disk(0.0, 1.0), unit_disk())  # 0 interior to the slice
        with pytest.raises(InvalidDomain):
            scaling_lemma32(D)


class TestFrankel2b:
    def test_flat_function_anchors(self):
        res = frankel_2b(f_flat, [2, 3, 4, 6], verify_samples=60,
                         hausdorff_directions=512)
        for e in res.entries:
            assert abs(e.z_n) == pytest.approx(1.0 / e.n, abs=2e-3)
            assert e.bound_ok
            assert e.f_value == pytest.approx(math.exp(-e.n), rel=1e-2)
        vals = [r.value for r in res.readings]
        assert vals[-1] < vals[0]  # readings shrink toward the limit

    def test_normalization_at_anchor(self):
        res = frankel_2b(f_flat, [3], verify_samples=10, hausdorff_directions=256)
        e = res.entries[0]
        # f_n(0, w) at w = 1 equals 1 = |1|^n by construction
        assert f_flat(0.0, e.z_n) / e.f_value == pytest.approx(1.0, rel=1e-12)

    def test_finite_type_hits_grid_edge(self):
        with pytest.raises(GridBoundary):
            frankel_2b(f_quartic, [6], verify_samples=10, hausdorff_directions=256)

    @pytest.mark.parametrize("f", [f_flat, f_radial, f_half_nan],
                             ids=["flat", "radial-ties", "half-nan"])
    def test_shared_sweep_matches_the_scalar_scan(self, f):
        r0, radial, angular = 0.9, 24, 16
        if f is f_radial:
            rows = np.linspace(r0 / radial, r0, radial)[:, None] * np.exp(
                1j * np.linspace(0.0, 2 * math.pi, angular, endpoint=False))
            assert all(len({f(0.0, w) for w in row}) == 1 for row in rows)
        res = frankel_2b(f, [2, 3, 4], r0=r0, radial=radial, angular=angular,
                         verify_samples=10, hausdorff_directions=64)
        for e in res.entries:
            z_n, f_value, a_n = reference_anchor(f, e.n, r0, radial, angular)
            assert (e.z_n, e.f_value, e.a_n) == (z_n, f_value, a_n)

    def test_block_sweep_matches_the_row_scan(self, monkeypatch):
        # blocks of whole rows (11 grid rows of 700 points, 2 band rows of
        # 2,800, the last block short) against the point-by-point scan, with f
        # NaN on a sector about the positive axis and tied along each circle;
        # on the first row both f and rho^n underflow, so the ratio is NaN
        monkeypatch.setattr(limits, "hausdorff", lambda *args, **kwargs: None)
        r0, radial, angular = 0.9, 40, 700

        def f(x, z):
            if z.real > 0 and abs(z.imag) < 0.5 * z.real:
                return math.nan
            r = round(abs(z), 9)
            return x * x + (math.exp(-125.0 / r) if r != 0 else 0.0)

        assert (r0 / radial) ** 200 == f(0.0, -r0 / radial) == 0.0
        res = frankel_2b(f, [200, 250], r0=r0, radial=radial, angular=angular, verify_samples=10)
        for e in res.entries:
            with np.errstate(invalid="ignore"):
                z_n, f_value, a_n = reference_anchor(f, e.n, r0, radial, angular)
            assert (e.z_n, e.f_value, e.a_n) == (z_n, f_value, a_n)

    def test_grid_is_swept_once_for_every_n(self, monkeypatch):
        # the Hausdorff readings evaluate f through membership; leave them out
        monkeypatch.setattr(limits, "hausdorff", lambda *args, **kwargs: None)
        radial, angular = 64, 16

        def calls(n_grid):
            count = 0

            def f(x, z):
                # no search visits w = 0; the source domain checks its
                # interior point (0.5i, 0) there, once per call
                nonlocal count
                count += z != 0
                return f_flat(x, z)

            frankel_2b(f, n_grid, radial=radial, angular=angular, verify_samples=10)
            return count

        grid = radial * angular
        per_n = sum(calls([n]) - grid for n in (2, 3, 4))
        assert calls([2, 3, 4]) == grid + per_n

    @pytest.mark.parametrize("value", [math.nan, -math.inf], ids=["nan", "minus-inf"])
    def test_no_finite_ratio_names_f(self, value):
        # with no grid point ranked, the argmax used to index the radii with None
        with pytest.raises(InvalidDomain, match=r"f\(0, w\)/\|w\|\^n .* every grid point"):
            frankel_2b(lambda x, z: value, [2], radial=24, angular=16)

    def test_underflowed_power_names_n(self):
        # |w|^250 underflows to 0 below |w| = 0.0508: the ratio used to divide by it,
        # raising a bare ZeroDivisionError at z_n
        def f(x, z):
            return x * x + (math.exp(-1 / abs(z)) if abs(z) >= 0.03 else 0.0)

        with pytest.raises(PowerUnderflow, match=r"n=250: \|w\|\^n underflows to 0"):
            frankel_2b(f, [250], radial=40, angular=16)

    def test_sequence_json(self):
        res = frankel_2b(f_flat, [2, 3], verify_samples=10, hausdorff_directions=256)
        data = res.to_json()
        assert data["schema"] == "kcat0/1"
        assert len(data["entries"]) == 2
        assert len(data["hausdorff_readings"]) == 2


class TestConvergence:
    def test_dilated_disk_gap(self):
        seq = dilation_sequence(unit_disk(), unit_disk(), lambda n: 1 + 1 / n)
        table = convergence_check(seq, unit_disk(), [([0.0], [0.5])], [10, 100, 1000])
        gap100 = table.max_gap[100]
        assert gap100 == pytest.approx(
            abs(math.atanh(0.5 / 1.01) - math.atanh(0.5)), abs=1e-12)
        assert gap100 == pytest.approx(6.58e-3, abs=1e-5)

    def test_gaps_strictly_decreasing(self):
        seq = dilation_sequence(unit_disk(), unit_disk(), lambda n: 1 + 1 / n)
        table = convergence_check(seq, unit_disk(), [([0.0], [0.5])], [10, 100, 1000])
        assert table.monotone

    def test_constant_sequence_gap_zero(self):
        seq = dilation_sequence(unit_disk(), unit_disk(), lambda n: 1.0)
        table = convergence_check(seq, unit_disk(), [([0.1], [0.4])], [1, 2])
        assert all(g == 0.0 for _, _, g in table.rows)

    def test_pair_exiting_domain_is_reported(self):
        seq = dilation_sequence(unit_disk(), unit_disk(), lambda n: 1 + 1 / n)
        with pytest.raises(OutsideDomain) as err:
            convergence_check(seq, Disk(0.0, 1.2), [([0.0], [1.05])], [10, 100])
        assert "n=100" in str(err.value)

    def test_target_distance_once_per_pair(self, monkeypatch):
        # K_target(x, y) does not depend on n
        target, calls = unit_disk(), []

        def counted(D, x, y):
            calls.append(D is target)
            return distance(D, x, y)

        monkeypatch.setattr(limits, "distance", counted)
        seq = dilation_sequence(unit_disk(), unit_disk(), lambda n: 1 + 1 / n)
        pairs = [([0.0], [0.5]), ([0.1], [-0.3j]), ([0.2j], [0.6])]
        table = convergence_check(seq, target, pairs, [10, 100, 1000])
        assert len(table.rows) == 9
        assert calls.count(True) == 3

    def test_csv_shape(self):
        seq = dilation_sequence(unit_disk(), unit_disk(), lambda n: 1 + 1 / n)
        table = convergence_check(seq, unit_disk(), [([0.0], [0.5])], [10, 100])
        lines = table.to_csv().strip().splitlines()
        assert lines[0] == "n,pairIndex,gap"
        assert len(lines) == 3


class TestExample36Pieces:
    def test_domain_contains_small_diagonal(self):
        O = example36_domain()
        assert O.contains([0.05, 0.05])
        assert not O.contains([0.0, 0.0])

    def test_dilations_approach_quarter_space(self):
        O = example36_domain()
        quarter = Product(right_half_plane(), right_half_plane())
        values = []
        for n in (1, 10, 100):
            dom = AffineImage(n * np.eye(2, dtype=complex),
                              np.zeros(2, dtype=complex), O)
            values.append(hausdorff(dom, quarter, 1.0, directions=1024).value)
        assert values[0] > values[1] > values[2]
