"""Local Hausdorff machinery, affine rescaling sequences, and the
intersection-of-balls pipeline.

Windowed Hausdorff distances are estimated by ray shooting boundary
samples over a fixed direction grid (``window_shot``, as the m-convexity
samples, from an anchor that convexity finds on one segment), each ray
ending at the nearer of the domain's own exit and the window ball's; every
reading carries its sampling mesh.  Scaling sequences cover the two
concrete constructions the proofs use: the first-coordinate dilation onto
the slice's tangent cone (each edge one bisection) times the untouched
remainder, and the graph-function rescaling ``diag(1/f(0, z_n), 1/z_n)``
anchored at the argmax of ``f(0, w)/|w|^n``.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Sequence

import numpy as np
from scipy.spatial import cKDTree

from .convexity import local_m_convex_check
from .cat0 import midpoint_defect, product_certificate
from .domains import (
    AffineImage,
    Ball,
    ConvexDomain,
    DefiningFunction,
    Disk,
    Graph,
    HalfPlane,
    Polydisk,
    Product,
    Sector,
    domain_to_json,
    intersection,
    right_half_plane,
    sector,
    seeded_unit_rows,
    unit_disk,
    window_shot,
)
from .errors import (DimensionMismatch, EmptyWindow, GridBoundary, InvalidDomain, KCat0Error,
                     OutsideDomain, PowerUnderflow)
from .metric import distance
from .points import as_point, point_to_json

HAUSDORFF_DIRECTIONS = 4096
_DIRECTION_SEED = 0xD17EC


@dataclass
class HausdorffReading:
    radius: float
    value: float
    mesh: float
    directions: int
    excess_ab: float = 0.0   # sup over A of the distance to B (windowed)
    excess_ba: float = 0.0

    def to_json(self) -> dict:
        return {"radius": self.radius,
                "value": {"value": self.value, "method": ["ray-shooting"],
                          "tol": 2 * self.mesh},
                "excess_ab": self.excess_ab, "excess_ba": self.excess_ba,
                "mesh": self.mesh, "directions": self.directions}


@dataclass
class ScalingSequence:
    """Family n -> affine map, with the claimed local-Hausdorff limit."""

    kind: str                                  # lemma32 | frankel2b | dilation
    source: ConvexDomain
    claimed_limit: ConvexDomain
    map_fn: Callable[[int], tuple[np.ndarray, np.ndarray]]

    def map_at(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        A, b = self.map_fn(n)
        return np.asarray(A, dtype=complex), as_point(b, self.source.dimension)

    def domain(self, n: int) -> ConvexDomain:
        A, b = self.map_at(n)
        return AffineImage(A, b, self.source)

    def to_json(self, n_list: Sequence[int]) -> dict:
        entries = []
        for n in n_list:
            A, b = self.map_at(n)
            entries.append({"n": int(n),
                            "matrix": [[c.real, c.imag] for c in A.reshape(-1)],
                            "offset": point_to_json(b)})
        try:
            source = domain_to_json(self.source)
        except InvalidDomain:
            source = {"type": "opaque", "description": repr(self.source)}
        return {"schema": "kcat0/1", "kind": f"scaling-{self.kind}",
                "source": source,
                "claimed_limit": domain_to_json(self.claimed_limit),
                "entries": entries}


def dilation_sequence(source: ConvexDomain, claimed_limit: ConvexDomain,
                      factor: Callable[[int], float]) -> ScalingSequence:
    d = source.dimension

    def map_fn(n: int):
        return factor(n) * np.eye(d, dtype=complex), np.zeros(d, dtype=complex)

    return ScalingSequence("dilation", source, claimed_limit, map_fn)


# ---------------------------------------------------------------------------
# windowed Hausdorff distance
# ---------------------------------------------------------------------------


def _boundary_cloud(D: ConvexDomain, R: float, directions: np.ndarray) -> np.ndarray:
    """Samples of the boundary of (closure of D) intersected with B(0, R): the
    ``window_shot`` rays, each to the nearer of D's own exit and the ball's."""
    anchor, t, window = window_shot(D, R, directions)
    return anchor[None, :] + np.minimum(t, window)[:, None] * directions


def _as_real(P: np.ndarray) -> np.ndarray:
    return np.hstack([P.real, P.imag])


def hausdorff(A: ConvexDomain, B: ConvexDomain, R: float,
              directions: int = HAUSDORFF_DIRECTIONS) -> HausdorffReading:
    """Windowed Hausdorff distance d_H(A n B(0,R), B n B(0,R)), sampled.

    Convexity puts the maximizers of the point-to-set distance on the
    boundary, so boundary clouds suffice up to the sampling mesh (which is
    reported with the value).  Cloud points lie in the closed window by
    construction, so a one-sided excess queries the other cloud only for the
    points outside the other set (0.0 when there are none).
    """
    if A.dimension != B.dimension:
        raise InvalidDomain("both domains must share a dimension")
    if not isinstance(directions, (int, np.integer)):
        raise InvalidDomain(f"directions must be an integer, got {directions!r}")
    if directions < 2:
        raise InvalidDomain(f"a Hausdorff reading needs at least two directions, got {directions}")
    dirs = seeded_unit_rows(_DIRECTION_SEED, directions, A.dimension)
    cloud_a = _boundary_cloud(A, R, dirs)
    cloud_b = _boundary_cloud(B, R, dirs)

    tree_a = cKDTree(_as_real(cloud_a))
    tree_b = cKDTree(_as_real(cloud_b))

    def excess(cloud: np.ndarray, other: ConvexDomain, other_tree) -> float:
        off = cloud[~other.contains_batch(cloud)]
        return float(np.max(other_tree.query(_as_real(off))[0])) if off.size else 0.0

    excess_ab = excess(cloud_a, B, tree_b)
    excess_ba = excess(cloud_b, A, tree_a)
    spacing_a, _ = tree_a.query(_as_real(cloud_a), k=2)
    spacing_b, _ = tree_b.query(_as_real(cloud_b), k=2)
    mesh = float(max(np.max(spacing_a[:, 1]), np.max(spacing_b[:, 1])))
    return HausdorffReading(radius=R, value=max(excess_ab, excess_ba), mesh=mesh,
                            directions=directions,
                            excess_ab=excess_ab, excess_ba=excess_ba)


# ---------------------------------------------------------------------------
# scaling sequences
# ---------------------------------------------------------------------------


def _cone_hull_angles(S: ConvexDomain) -> tuple[float, float]:
    """Angular extent (alpha, beta) of a planar convex set seen from 0 on its boundary."""
    if isinstance(S, Sector) and abs(S.vertex) < 1e-9:
        return S.alpha, S.beta
    if isinstance(S, HalfPlane):
        margin = ((0 - S.boundary_point) * np.conj(S.inward_normal)).real
        if abs(margin) < 1e-9:
            mid = float(np.angle(S.inward_normal))
            return mid - math.pi / 2, mid + math.pi / 2
    if isinstance(S, Disk) and abs(abs(S.center) - S.radius) < 1e-9:
        mid = float(np.angle(S.center))
        return mid - math.pi / 2, mid + math.pi / 2

    def enters(phis: np.ndarray) -> np.ndarray:
        """Whether each ray from 0 meets S at radius 1e-2, 1e-4 or 1e-6; one membership call."""
        rays = np.array([1e-2, 1e-4, 1e-6])[:, None] * np.exp(1j * phis)
        return S.contains_batch(rays.reshape(-1, 1)).reshape(rays.shape).any(axis=0)

    # the anchor's direction enters S (its segment from 0 lies in S), the opposite
    # one cannot (0 is on the boundary of the convex S); each cone edge is one
    # bisection between them, both per call, 64 halvings of pi to the float grid
    a = float(np.angle(S.anchor()[0]))
    flags = enters(np.array([a, a + math.pi]))
    if not flags[0]:
        raise EmptyWindow("the slice has no interior near 0")
    if flags[1]:
        raise InvalidDomain("0 is interior to the slice, not on its boundary")
    inner, outer = np.array([a, a]), np.array([a - math.pi, a + math.pi])
    for _ in range(64):
        mid = 0.5 * (inner + outer)
        hit = enters(mid)
        inner, outer = np.where(hit, mid, inner), np.where(hit, outer, mid)
    return tuple((0.5 * (inner + outer)).tolist())


def scaling_lemma32(D: ConvexDomain) -> ScalingSequence:
    """First-coordinate dilation diag(n, I) with its cone-times-rest limit.

    Requires the domain normalized so the first-coordinate slice through
    the origin has 0 on its boundary; the claimed limit records the
    certified inclusion side (cone hull of the slice, times the remaining
    factor when the domain is structurally a product).
    """
    d = D.dimension
    e1 = np.zeros(d, dtype=complex)
    e1[0] = 1.0
    S = D.slice(np.zeros(d, dtype=complex), e1)
    if S.contains([0.0]):
        raise InvalidDomain("0 must lie on the boundary of the first-coordinate slice")
    alpha, beta = _cone_hull_angles(S)
    cone = sector(0.0, alpha, beta)

    if d == 1:
        claimed: ConvexDomain = cone
    elif isinstance(D, Product) and D.factors[0].dimension == 1:
        claimed = Product(cone, *D.factors[1:])
    else:
        # inclusion side only: cone times the unit polydisk in the
        # remaining coordinates
        claimed = Product(cone, Polydisk(np.zeros(d - 1, dtype=complex), np.ones(d - 1)))

    def map_fn(n: int):
        A = np.eye(d, dtype=complex)
        A[0, 0] = n
        return A, np.zeros(d, dtype=complex)

    return ScalingSequence("lemma32", D, claimed, map_fn)


@dataclass
class Frankel2bEntry:
    n: int
    z_n: complex
    f_value: float
    a_n: float
    bound_ok: bool
    max_bound_excess: float


@dataclass
class Frankel2bResult:
    sequence: ScalingSequence
    entries: list
    readings: list

    def to_json(self) -> dict:
        ns = [e.n for e in self.entries]
        return {
            "schema": "kcat0/1",
            "kind": "frankel-2b",
            "sequence": self.sequence.to_json(ns),
            "entries": [
                {"n": e.n, "z_n": [e.z_n.real, e.z_n.imag], "f_value": e.f_value,
                 "a_n": e.a_n, "bound_ok": e.bound_ok,
                 "max_bound_excess": e.max_bound_excess}
                for e in self.entries
            ],
            "hausdorff_readings": [r.to_json() for r in self.readings],
        }


def frankel_2b(f: Callable[[float, complex], float], n_grid: Sequence[int],
               r0: float = 0.9, radial: int = 512, angular: int = 256,
               verify_samples: int = 100, window_radius: float = 1.0,
               hausdorff_directions: int = 1024, seed: int = 0) -> Frankel2bResult:
    """Graph-function rescaling diag(1/f(0, z_n), 1/z_n) for each n.

    ``f(x, z)`` is the convex non-negative graph function of the boundary near 0
    (domain {Im z1 > f(Re z1, z2)}).  For each n the anchor z_n maximizes
    f(0, w)/|w|^n over the radial grid on {|w| <= r0}; an argmax pinned to
    either grid edge aborts (finite-type data or too small a search radius), as
    does a |w|^n underflowed to 0 (``PowerUnderflow``).  The displayed bound
    f(0, z_n w)/f(0, z_n) <= |w|^n is verified on samples of the unit disk.

    Evaluation budget: one sweep of the ``radial`` x ``angular`` grid,
    f(0, w) once per grid point whatever the length of ``n_grid``; then per
    n, at most 33 refinement rows of ``4 * angular`` points around the best
    cell, at most 163 golden-section and anchor calls, and
    ``verify_samples`` verification calls.  Grid and band are evaluated in
    blocks of whole rows, at most 8,192 points each (or one row), with the same
    calls in the same order.  The Hausdorff readings evaluate f through the
    rescaled domains' rays on top of that.  Each argmax is the first
    maximum in row-major order, and a NaN value never wins.
    """

    def f0(w: complex) -> float:
        return float(f(0.0, w))

    def sweep(rhos: np.ndarray, circle: np.ndarray, best: dict) -> dict:
        """Raise each best[n] = (ratio, w, row) to the first row-major maximum of
        f(0, w)/rho^n (rho^n a scalar power per row) over the rows rho * circle,
        block by block, a block replacing a best only when strictly larger; NaN
        ranks lowest, as it never passes a scalar ``>`` test, and an underflowed
        rho^n gives an infinite ratio or a NaN, both ranked, so numpy need not warn."""
        m = len(circle)
        step = max(1, 8192 // m)
        powers = {n: np.array([rho ** n for rho in rhos]) for n in best}
        for i in range(0, len(rhos), step):
            ws = (rhos[i:i + step, None] * circle).ravel()
            vals = np.fromiter(map(f, repeat(0.0), ws.tolist()), dtype=float, count=ws.size)
            for n in best:
                with np.errstate(all="ignore"):
                    ratios = vals / np.repeat(powers[n][i:i + step], m)
                ratios[np.isnan(ratios)] = -math.inf
                j = int(np.argmax(ratios))
                if ratios[j] > best[n][0]:
                    best[n] = (ratios[j], ws[j], i + j // m)
        return best

    rng = np.random.default_rng(seed)
    radii = np.linspace(r0 / radial, r0, radial)
    ring = np.exp(1j * np.linspace(0.0, 2 * math.pi, angular, endpoint=False))
    fine = np.exp(1j * np.linspace(0.0, 2 * math.pi, 4 * angular, endpoint=False))

    # one sweep of the grid serves every n
    best = sweep(radii, ring, {n: (-math.inf, None, None) for n in n_grid})

    entries = []
    matrices: dict[int, np.ndarray] = {}
    for n in n_grid:
        best_val, best_w, best_i = best[n]
        if best_i is None:
            raise InvalidDomain(f"n={n}: f(0, w)/|w|^n is NaN or -inf at every grid point of f")
        if best_i in (0, radial - 1):
            raise GridBoundary(
                f"n={n}: argmax of f(0,w)/|w|^n pinned to the radial grid edge; "
                "enlarge the search radius or the data has finite type")
        # one local refinement band around the best cell
        rho0 = radii[best_i]
        cell = radii[1] - radii[0]
        band = np.linspace(rho0 - cell, rho0 + cell, 33)
        best_val, best_w, _ = sweep(band[band > 0], fine, {n: (best_val, best_w, best_i)})[n]
        # golden-section polish of the radial profile at the best angle,
        # so the displayed bound holds to round-off and not just to mesh
        theta_star = float(np.angle(best_w))
        phase = np.exp(1j * theta_star)
        glo, ghi = max(abs(best_w) - cell, 1e-12), min(abs(best_w) + cell, r0)
        invphi = 0.381966011250105
        def power(m):   # m^n, refused before any division where it underflows to 0
            if (m_n := m ** n) == 0.0:
                raise PowerUnderflow(f"n={n}: |w|^n underflows to 0 at |w| = {float(m)!r}")
            return m_n
        for _ in range(80):
            m1, m2 = glo + invphi * (ghi - glo), ghi - invphi * (ghi - glo)
            left = f0(m1 * phase) / power(m1) >= f0(m2 * phase) / power(m2)
            glo, ghi = (glo, m2) if left else (m1, ghi)
        rho_star = 0.5 * (glo + ghi)
        if f0(rho_star * phase) / power(rho_star) > best_val:
            best_val, best_w = f0(rho_star * phase) / power(rho_star), rho_star * phase
        z_n = complex(best_w)
        fz = f0(z_n)
        if fz == 0.0:
            raise InvalidDomain(
                "f(0, z_n) = 0: the boundary contains an affine disk; "
                "use the first-coordinate dilation construction instead")
        a_n = fz / power(abs(z_n))

        excess = 0.0
        ok = True
        for _ in range(verify_samples):
            w = math.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0.0, 2 * math.pi))
            lhs = f0(z_n * w) / fz
            rhs = abs(w) ** n
            excess = max(excess, lhs - rhs)
            if lhs > rhs + 1e-9:
                ok = False
        matrices[n] = np.array([[1.0 / fz, 0.0], [0.0, 1.0 / z_n]], dtype=complex)
        entries.append(Frankel2bEntry(int(n), z_n, fz, a_n, ok, excess))

    def evaluate(z: np.ndarray) -> float:
        z1, z2 = z.tolist()
        return float(f(z1.real, z2) - z1.imag)

    source = Graph(DefiningFunction(2, evaluate),
                   interior_point=np.array([0.5j, 0.0]), c_proper=True)
    claimed = Product(HalfPlane(0.0, 1j), unit_disk())

    def map_fn(n: int):
        if n not in matrices:
            raise KCat0Error(f"n={n} was not part of the requested grid")
        return matrices[n], np.zeros(2, dtype=complex)

    seq = ScalingSequence("frankel2b", source, claimed, map_fn)
    readings = [hausdorff(seq.domain(n), claimed, window_radius,
                          directions=hausdorff_directions) for n in n_grid]
    return Frankel2bResult(seq, entries, readings)


# ---------------------------------------------------------------------------
# distance convergence experiments
# ---------------------------------------------------------------------------


@dataclass
class ConvergenceTable:
    rows: list              # (n, pair_index, gap)
    max_gap: dict           # n -> max gap over pairs
    monotone: bool

    def to_json(self) -> dict:
        return {
            "schema": "kcat0/1",
            "kind": "convergence-table",
            "rows": [{"n": n, "pairIndex": i,
                      "gap": {"value": g, "method": ["interval-midpoint"], "tol": None}}
                     for n, i, g in self.rows],
            "max_gap": {str(n): g for n, g in self.max_gap.items()},
            "monotone_decreasing": self.monotone,
        }

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("n,pairIndex,gap\n")
        for n, i, g in self.rows:
            buf.write(f"{n},{i},{g!r}\n")
        return buf.getvalue()


def convergence_check(sequence: ScalingSequence, target: ConvexDomain, test_pairs,
                      n_list: Sequence[int]) -> ConvergenceTable:
    """Gaps |K_n(x, y) - K_target(x, y)| per pair per n (interval midpoints).

    K_target(x, y) does not depend on n, so it is computed once per pair,
    at its first use; each n checks all pair points in one membership batch.
    """
    pairs = [(as_point(x, target.dimension), as_point(y, target.dimension))
             for x, y in test_pairs]
    points = np.array([p for pair in pairs for p in pair], dtype=complex)
    k_target: list[float] = []
    rows = []
    max_gap: dict[int, float] = {}
    for n in n_list:
        dom = sequence.domain(n)
        if dom.dimension != target.dimension:
            raise DimensionMismatch(f"expected dimension {dom.dimension}, got {target.dimension}")
        if pairs:
            inside = dom.contains_batch(points).reshape(-1, 2).all(axis=1)
            if not inside.all():
                raise OutsideDomain(f"test pair {int(np.argmin(inside))} leaves the domain at n={n}")
        worst = 0.0
        for i, (x, y) in enumerate(pairs):
            k_n = distance(dom, x, y).midpoint
            if i == len(k_target):
                k_target.append(distance(target, x, y).midpoint)
            gap = abs(k_n - k_target[i])
            rows.append((int(n), i, float(gap)))
            worst = max(worst, gap)
        max_gap[int(n)] = float(worst)
    gaps = [max_gap[int(n)] for n in n_list]
    monotone = all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1))
    return ConvergenceTable(rows, max_gap, monotone)


# ---------------------------------------------------------------------------
# the intersection-of-balls pipeline
# ---------------------------------------------------------------------------


def example36_domain() -> ConvexDomain:
    """Intersection of the two unit balls tangent to the coordinate
    hyperplanes at 0 (centers (1,0) and (0,1) in C^2)."""
    b1 = Ball(np.array([1.0, 0.0], dtype=complex), 1.0)
    b2 = Ball(np.array([0.0, 1.0], dtype=complex), 1.0)
    return intersection([b1, b2])


def example36(n_list: Sequence[int] = (1, 10, 100), big_n: int = 10 ** 6,
              seed: int = 0, mconvex_samples: int = 300,
              hausdorff_directions: int = 2048) -> dict:
    """Run the full pipeline on the intersection-of-balls domain.

    (i) empirical 2-convexity on the window B(0, 2); (ii) dilations n * D
    converge to the product of right half-planes in the windowed Hausdorff
    reading; (iii) the product certificate on the limit (defect
    (ln(2)/2)^2); (iv) the same triple inside the dilated domain at a
    large n, where the sandwich intervals pin the defect near the limit
    value.
    """
    omega = example36_domain()
    quarter = Product(right_half_plane(), right_half_plane())

    mreport = local_m_convex_check(omega, window_radius=2.0, m=2,
                                   sample_count=mconvex_samples, seed=seed)

    readings = []
    for n in n_list:
        dom = AffineImage(n * np.eye(2, dtype=complex), np.zeros(2, dtype=complex), omega)
        readings.append((int(n), hausdorff(dom, quarter, 1.0,
                                           directions=hausdorff_directions)))
    values = [r.value for _, r in readings]
    decreasing = all(values[i + 1] < values[i] for i in range(len(values) - 1))

    cert_limit = product_certificate(right_half_plane(), right_half_plane(),
                                     x=[1.0], y=[4.0], base=[1.0])

    n_omega = AffineImage(big_n * np.eye(2, dtype=complex),
                          np.zeros(2, dtype=complex), omega)
    x_hat = np.array([1.0, 1.0], dtype=complex)
    y_hat = np.array([4.0, 1.0], dtype=complex)
    z_hat = np.array([2.0, 2.0], dtype=complex)
    cert_inside = midpoint_defect(n_omega, x_hat, y_hat, z_hat)

    target = (0.5 * math.log(2.0)) ** 2
    return {
        "schema": "kcat0/1",
        "kind": "example36-pipeline",
        "seed": seed,
        "m_convexity": mreport.to_json(),
        "dilation_hausdorff": {
            "readings": [{"n": n, **r.to_json()} for n, r in readings],
            "strictly_decreasing": decreasing,
        },
        "limit_certificate": cert_limit.to_json(),
        "large_n_certificate": {"n": big_n, **cert_inside.to_json()},
        "target_defect": {"value": target, "method": ["closed-form"], "tol": 1e-9},
    }
