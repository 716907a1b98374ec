"""Acceptance suite: one test per criterion, with stated tolerances pinned.

Each test prints a single PASS line on success so the suite reads as a
checklist under ``pytest -v -s``.
"""

import math
import time

import numpy as np
import pytest

from kcat0 import (
    Ball,
    DefiningFunction,
    Graph,
    Polydisk,
    Product,
    RealPolynomial,
    convergence_check,
    dilation_sequence,
    distance,
    example36,
    example36_domain,
    geodesic_approx,
    infinitesimal,
    intersection,
    line_type,
    local_m_convex_check,
    midpoint_defect,
    planar_distance,
    product_certificate,
    sector,
    unit_disk,
    upper_half_plane,
)

from conftest import sample_in

LN2 = math.log(2.0)
TARGET_DEFECT = (0.5 * LN2) ** 2  # 0.1201133...


def ball2():
    return Ball(np.zeros(2, dtype=complex), 1.0)


def test_criterion_1_observation_certificate():
    """Product certificate defect within 1e-9; optimizer within 1e-3; < 10 s."""
    start = time.perf_counter()
    cert = product_certificate(upper_half_plane(), unit_disk(), [1j], [4j],
                               base=[0.0])
    assert cert.verdict == "violation-certified"
    assert cert.defect == pytest.approx(TARGET_DEFECT, abs=1e-9)
    assert cert.defect == pytest.approx(0.1201133, abs=1e-7)

    P = Product(upper_half_plane(), unit_disk())
    pairs = [(np.array([1j, 0.0]), np.array([4j, 0.0])),
             (np.array([1j, 0.0]), np.array([4j, 1 / 3])),
             (np.array([2j, 1 / 3]), np.array([4j, 0.0]))]
    for x, y in pairs:
        exact = distance(P, x, y).lo
        _, length = geodesic_approx(P, x, y)
        assert length.hi == pytest.approx(exact, abs=1e-3)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"PASS criterion 1: defect {cert.defect:.9f} (target {TARGET_DEFECT:.9f}), "
          f"optimizer within 1e-3, {elapsed:.1f}s")


def test_criterion_2_isometric_embedding_equality():
    """Projection lower bound meets slice upper bound on the embedded factor."""
    S = sector(0.0, 0.0, math.pi / 2)
    D = Product(S, unit_disk())
    rng = np.random.default_rng(34)
    worst = 0.0
    for _ in range(50):
        z1 = sample_in(S, rng)
        z2 = sample_in(S, rng)
        iv = distance(D, [z1[0], 0.0], [z2[0], 0.0], force_sandwich=True)
        expected = planar_distance(S, z1[0], z2[0])
        worst = max(worst, abs(iv.lo - expected), abs(iv.hi - expected))
    assert worst <= 1e-9
    print(f"PASS criterion 2: embedding equality on 50 pairs, worst gap {worst:.2e}")


def test_criterion_3_metric_axioms():
    """Symmetry exact, triangle slack >= -1e-9, d(x,x)=0, 1000 triples each."""
    domains = {
        "disk": unit_disk(),
        "half-plane": upper_half_plane(),
        "quarter sector": sector(0.0, 0.0, math.pi / 2),
        "half-plane x disk": Product(upper_half_plane(), unit_disk()),
        "ball C^2": ball2(),
    }
    rng = np.random.default_rng(35)
    for name, D in domains.items():
        worst_slack = math.inf
        for _ in range(1000):
            x, y, z = (sample_in(D, rng) for _ in range(3))
            dxy = distance(D, x, y).lo
            assert dxy == distance(D, y, x).lo  # exact symmetry
            assert distance(D, x, x).lo == 0.0
            slack = distance(D, x, z).lo + distance(D, z, y).lo - dxy
            worst_slack = min(worst_slack, slack)
            assert slack >= -1e-9
        print(f"PASS criterion 3 [{name}]: 1000 triples, "
              f"worst triangle slack {worst_slack:.2e}")


def test_criterion_4_cat0_sanity_on_disk():
    """No false violations on 200 seeded disk triangles."""
    D = unit_disk()
    rng = np.random.default_rng(36)
    worst_defect = -math.inf
    for _ in range(200):
        pts = []
        while len(pts) < 3:
            cand = sample_in(D, rng)
            if all(abs(cand[0] - p[0]) > 5e-3 for p in pts):
                pts.append(cand)
        cert = midpoint_defect(D, *pts)
        assert cert.defect <= 1e-9
        assert cert.verdict == "no-violation-found"
        worst_defect = max(worst_defect, cert.defect)
    print(f"PASS criterion 4: 200 triangles, max defect {worst_defect:.2e}")


def test_criterion_5_m_convexity():
    """Ball and Example domain pass m=2; polydisk reports the
    unbounded-constant diagnostic; < 30 s."""
    start = time.perf_counter()
    rep_ball = local_m_convex_check(ball2(), 2.0, 2, sample_count=300, seed=37)
    assert rep_ball.verdict == "pass"

    rep_ex = local_m_convex_check(example36_domain(), 2.0, 2,
                                  sample_count=300, seed=37)
    assert rep_ex.verdict == "pass"
    assert math.isfinite(rep_ex.empirical_c)

    rep_poly = local_m_convex_check(Polydisk(np.zeros(2, dtype=complex), np.ones(2)),
                                    2.0, 2, sample_count=300, seed=37)
    assert rep_poly.diverging
    assert rep_poly.verdict == "fail"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"PASS criterion 5: ball C {rep_ball.empirical_c:.3f}, "
          f"example C {rep_ex.empirical_c:.3f}, polydisk diverging, {elapsed:.1f}s")


def test_criterion_6_line_type():
    """Ball type 2 and quartic type 4 exactly, symbolic and numeric paths."""
    ball_poly = RealPolynomial(2, {(2, 0, 0, 0): 1.0, (0, 2, 0, 0): 1.0,
                                   (0, 0, 2, 0): 1.0, (0, 0, 0, 2): 1.0,
                                   (0, 0, 0, 0): -1.0})
    res_ball = line_type(DefiningFunction.from_polynomial(ball_poly), [1.0, 0.0])
    assert res_ball.line_type == 2

    quartic = RealPolynomial(2, {(0, 1, 0, 0): -1.0, (0, 0, 4, 0): 1.0,
                                 (0, 0, 0, 4): 1.0, (0, 0, 2, 2): 2.0})
    res_sym = line_type(DefiningFunction.from_polynomial(quartic), [0.0, 0.0])
    assert res_sym.line_type == 4

    numeric = DefiningFunction(2, evaluate=lambda z: -z[0].imag + abs(z[1]) ** 4)
    res_num = line_type(numeric, [0.0, 0.0])
    assert res_num.line_type == res_sym.line_type == 4
    print("PASS criterion 6: ball type 2, quartic type 4 (symbolic == numeric)")


def test_criterion_7_distance_convergence():
    """Dilated-disk gap matches the closed form within 1e-6; decreasing."""
    seq = dilation_sequence(unit_disk(), unit_disk(), lambda n: 1 + 1 / n)
    table = convergence_check(seq, unit_disk(), [([0.0], [0.5])], [10, 100, 1000])
    gap100 = table.max_gap[100]
    closed_form = abs(math.atanh(0.5 / 1.01) - math.atanh(0.5))
    assert gap100 == pytest.approx(closed_form, abs=1e-6)
    assert closed_form == pytest.approx(6.58e-3, abs=1e-5)
    assert table.monotone
    gaps = [table.max_gap[n] for n in (10, 100, 1000)]
    assert gaps[0] > gaps[1] > gaps[2]
    print(f"PASS criterion 7: gap(100)={gap100:.6e} vs closed form "
          f"{closed_form:.6e}; gaps strictly decreasing {gaps}")


def test_criterion_8_example_pipeline():
    """All four steps; decreasing readings; defect within 5e-2; < 5 min."""
    start = time.perf_counter()
    report = example36(n_list=(1, 10, 100), big_n=10 ** 6, seed=38,
                       mconvex_samples=300, hausdorff_directions=2048)
    assert report["m_convexity"]["verdict"] == "pass"
    readings = [r["value"]["value"] for r in report["dilation_hausdorff"]["readings"]]
    assert report["dilation_hausdorff"]["strictly_decreasing"]
    assert readings[0] > readings[1] > readings[2]
    assert report["limit_certificate"]["defect"]["value"] == pytest.approx(
        TARGET_DEFECT, abs=1e-9)
    defect = report["large_n_certificate"]["defect"]["value"]
    assert defect == pytest.approx(0.1201133, abs=5e-2)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"PASS criterion 8: readings {np.round(readings, 4).tolist()}, "
          f"large-n defect {defect:.4f} (target 0.1201), {elapsed:.0f}s")


def test_criterion_9_sandwich_tightness():
    """Infinitesimal interval ratio <= 2 + 1e-9; finite distance intervals."""
    graph_poly = RealPolynomial(2, {(2, 0, 0, 0): 1.0, (0, 2, 0, 0): 1.0,
                                    (0, 0, 2, 0): 2.0, (0, 0, 0, 2): 2.0,
                                    (0, 0, 0, 0): -1.0})
    domains = [
        example36_domain(),
        intersection([Ball(np.array([0.5, 0.0], dtype=complex), 1.0),
                      Ball(np.array([0.0, 0.5], dtype=complex), 1.2)]),
        Graph(DefiningFunction.from_polynomial(graph_poly), interior_point=[0.0, 0.0]),
    ]
    rng = np.random.default_rng(39)
    worst_ratio = 0.0
    for D in domains:
        for _ in range(10):
            z = sample_in(D, rng, scale=0.3)
            v = rng.normal(size=4)
            iv = infinitesimal(D, z, v[:2] + 1j * v[2:])
            assert iv.hi / iv.lo <= 2.0 + 1e-9
            worst_ratio = max(worst_ratio, iv.hi / iv.lo)
        x = sample_in(D, rng, scale=0.3)
        y = sample_in(D, rng, scale=0.3)
        ivd = distance(D, x, y)
        assert 0.0 <= ivd.lo <= ivd.hi < math.inf
    print(f"PASS criterion 9: worst infinitesimal ratio {worst_ratio:.6f}, "
          "distance intervals finite and ordered")
