import cmath
import math

import numpy as np
import pytest

from kcat0 import (
    AffineImage,
    Ball,
    Product,
    distance,
    example36_domain,
    midpoint_defect,
    planar_geodesic,
    product_certificate,
    sector,
    unit_disk,
    upper_half_plane,
)
from kcat0.errors import DegenerateInput, InvalidDomain

from conftest import sample_in

LN2 = math.log(2.0)
HALF_LN2 = 0.5 * LN2
HALF_LN3 = 0.5 * math.log(3.0)


def hp_x_disk():
    return Product(upper_half_plane(), unit_disk())


class TestMidpointDefect:
    def test_observation_instance(self):
        cert = midpoint_defect(hp_x_disk(), [1j, 0.0], [4j, 0.0], [2j, 1 / 3])
        assert cert.verdict == "violation-certified"
        assert cert.defect == pytest.approx(HALF_LN2 ** 2, abs=1e-9)
        assert cert.defect == pytest.approx(0.1201133, abs=1e-7)
        assert cert.midpoint[0] == pytest.approx(2j, abs=1e-10)
        # all four distances are the closed-form values
        assert cert.d_zx.lo == pytest.approx(HALF_LN2, abs=1e-12)
        assert cert.d_zy.lo == pytest.approx(HALF_LN2, abs=1e-12)
        assert cert.d_xy.lo == pytest.approx(LN2, abs=1e-12)
        assert cert.d_zm.lo == pytest.approx(math.atanh(1 / 3), abs=1e-12)

    def test_disk_never_violates(self, rng):
        D = unit_disk()
        for _ in range(40):
            x, y, z = (sample_in(D, rng) for _ in range(3))
            cert = midpoint_defect(D, x, y, z)
            assert cert.defect <= 1e-9
            assert cert.verdict == "no-violation-found"

    @pytest.mark.parametrize("tol", [math.nan, -1.0])
    def test_tolerance_must_be_finite_and_nonnegative(self, tol):
        # a NaN tolerance used to certify any residual
        with pytest.raises(InvalidDomain):
            midpoint_defect(hp_x_disk(), [1j, 0.0], [4j, 0.0], [2j, 1 / 3], tol=tol)

    def test_large_n_defect_is_the_cn_formula(self):
        # the numeric midpoint enters through its CN radius eta, which lowers
        # d_zm before it is squared; the default tolerance bounds eta
        D = AffineImage(1e6 * np.eye(2), np.zeros(2), example36_domain())
        cert = midpoint_defect(D, [1.0, 1.0], [4.0, 1.0], [2.0, 2.0])
        eta = cert.midpoint_radius
        assert 0.0 < eta <= cert.tol == 5e-2
        assert cert.defect == max(0.0, cert.d_zm.lo - eta) ** 2 - (
            0.5 * (cert.d_zx.hi ** 2 + cert.d_zy.hi ** 2) - 0.25 * cert.d_xy.lo ** 2)
        assert cert.verdict == "violation-certified"
        exact = midpoint_defect(hp_x_disk(), [1j, 0.0], [4j, 0.0], [2j, 1 / 3])
        assert (exact.midpoint_radius, exact.tol) == (0.0, 1e-9)

    def test_closed_form_midpoint_is_computed_once(self, monkeypatch):
        # the default tolerance and the midpoint share one closed form
        calls = []
        original = Product.exact_midpoint
        monkeypatch.setattr(Product, "exact_midpoint",
                            lambda self, x, y: calls.append(1) or original(self, x, y))
        cert = midpoint_defect(hp_x_disk(), [1j, 0.0], [4j, 0.0], [2j, 1 / 3])
        assert (len(calls), cert.tol) == (1, 1e-9)

    def test_z_at_midpoint_gives_zero(self):
        cert = midpoint_defect(upper_half_plane(), [1j], [4j], [2j])
        assert cert.defect == pytest.approx(0.0, abs=1e-12)

    def test_z_on_geodesic_identity(self):
        # for z on [x, y] at parameter t the defect vanishes identically
        H = upper_half_plane()
        x, y = 1j, 4j
        for t in (0.0, 0.25, 0.5, 1.0):
            z = planar_geodesic(H, x, y, t)
            cert = midpoint_defect(H, [x], [y], [z])
            assert abs(cert.defect) <= 1e-9

    def test_certificate_json_schema(self):
        cert = midpoint_defect(hp_x_disk(), [1j, 0.0], [4j, 0.0], [2j, 1 / 3])
        data = cert.to_json()
        assert data["schema"] == "kcat0/1"
        assert data["verdict"] == "violation-certified"
        assert set(data["distances"]) == {"xy", "zx", "zy", "zm"}
        for key in ("xy", "zx", "zy", "zm"):
            entry = data["distances"][key]
            assert entry["lo"] <= entry["hi"]
            assert entry["methods"]


def _method_tags(report) -> set:
    """Every method tag a JSON report holds, at any depth."""
    if isinstance(report, list):
        return set().union(*map(_method_tags, report))
    if not isinstance(report, dict):
        return set()
    tags = set(report.get("method", [])) | set(report.get("methods", []))
    return tags.union(*map(_method_tags, report.values()))


def test_certificates_carry_no_interval_midpoint_reading():
    # every number in a certificate is certified: no defect on interval midpoints
    reports = [midpoint_defect(hp_x_disk(), [1j, 0.0], [4j, 0.0], [2j, 1 / 3]).to_json(),
               product_certificate(upper_half_plane(), unit_disk(), [1j], [4j], base=[0.0]).to_json()]
    for report in reports:
        assert "conservative-interval" in _method_tags(report)
        assert "interval-midpoint" not in _method_tags(report)


class TestProductCertificate:
    def test_half_plane_disk_instance(self):
        cert = product_certificate(upper_half_plane(), unit_disk(),
                                   [1j], [4j], base=[0.0])
        assert cert.verdict == "violation-certified"
        assert cert.defect == pytest.approx(HALF_LN2 ** 2, abs=1e-9)
        # the solved point in the disk factor is tanh(ln(2)/2) = 1/3
        assert cert.z[1] == pytest.approx(1 / 3, abs=1e-9)

    def test_disk_disk_instance(self):
        cert = product_certificate(unit_disk(), unit_disk(),
                                   [0.0], [0.8], base=[0.0])
        assert cert.z[1] == pytest.approx(0.5, abs=1e-9)
        assert cert.defect == pytest.approx(HALF_LN3 ** 2, abs=1e-9)
        assert cert.defect == pytest.approx(0.3017, abs=1e-4)

    def test_degenerate_pair_rejected(self):
        with pytest.raises(DegenerateInput):
            product_certificate(unit_disk(), unit_disk(), [0.3], [0.3])

    def test_defect_matches_half_distance(self, rng):
        H = upper_half_plane()
        for _ in range(5):
            x = sample_in(H, rng)
            y = sample_in(H, rng)
            if abs(x[0] - y[0]) < 1e-2:
                continue
            cert = product_certificate(H, unit_disk(), x, y, base=[0.0])
            half = 0.5 * distance(H, x, y).lo
            assert cert.defect == pytest.approx(half ** 2, abs=1e-9)

    def test_sector_factor_far_from_the_vertex(self):
        # 40 e^{0.15i} went within rounding of the unit circle in the old
        # disk chart, and the disk geodesic raised a bare math domain error
        S, x, y = sector(0.0, 0.0, 0.3), cmath.exp(0.15j), 40 * cmath.exp(0.15j)
        assert planar_geodesic(S, x, y, 0.5) == pytest.approx(math.sqrt(40) * x, rel=1e-12)
        cert = product_certificate(S, unit_disk(), [x], [y], base=[0])
        assert cert.verdict == "violation-certified"
        assert cert.defect == pytest.approx((0.5 * distance(S, [x], [y]).lo) ** 2, rel=1e-12)

    def test_ball_factor(self):
        B = Ball(np.zeros(2, dtype=complex), 1.0)
        cert = product_certificate(upper_half_plane(), B, [1j], [4j],
                                   base=[0.0, 0.0])
        assert cert.defect == pytest.approx(HALF_LN2 ** 2, abs=1e-9)

