"""Kobayashi distance engine on C^d.

Catalog compositions (charted planar domains, balls, products of any
number of factors, affine images) evaluate exactly.  Everything else gets
a certified sandwich: lower bounds from holomorphic contractions (factor
projections, member inclusions, supporting half-planes), upper bounds from
the planar slice through the two points and from an optimized discrete
path.  The public contract for non-catalog domains is always a
``DistanceInterval``, never a point estimate.

Infinitesimal bounds on general convex domains use the standard two-sided
estimate ``|v| / (2 delta(z, v)) <= k(z; v) <= |v| / delta(z, v)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from typing import Callable

import numpy as np

from . import planar
from .domains import (
    AffineImage,
    Ball,
    ConvexDomain,
    Disk,
    Graph,
    HalfPlane,
    Intersection,
    PlanarOracle,
    Product,
    Sector,
)
from .errors import (
    DegenerateInput,
    InvalidDomain,
    KCat0Error,
    MidpointNotCertified,
    OutsideDomain,
    PseudoDistanceOnly,
)
from .points import as_point

FUNCTIONAL_GRID_SIZE = 64
FUNCTIONAL_GRID_SEED = 0xF00D
OPTIMIZER_NODES = 33
OPTIMIZER_QUAD = 2          # Gauss-Legendre points per segment while optimizing
REPORT_QUAD = 16            # quadrature order for reported lengths
OPTIMIZER_REL_TOL = 1e-6    # relative improvement over 5 iterations
OPTIMIZER_MAX_ROUNDS = 40
MIDPOINT_TOL_EXACT = 1e-9
MIDPOINT_TOL_NUMERIC = 1e-4
_PENALTY = 1e6


@dataclass(frozen=True)
class DistanceInterval:
    """Certified bounds [lo, hi] on a Kobayashi distance, with method tags."""

    lo: float
    hi: float
    methods: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if not (self.lo <= self.hi + 1e-12):
            raise KCat0Error(f"inconsistent interval [{self.lo}, {self.hi}]")

    @staticmethod
    def exact(value: float, *tags: str) -> "DistanceInterval":
        return DistanceInterval(value, value, frozenset(tags))

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def with_tags(self, *tags: str) -> "DistanceInterval":
        return DistanceInterval(self.lo, self.hi, self.methods | frozenset(tags))

    def to_json(self) -> dict:
        return {"lo": self.lo, "hi": self.hi, "methods": sorted(self.methods)}


def interval_max(a: DistanceInterval, b: DistanceInterval) -> DistanceInterval:
    return DistanceInterval(max(a.lo, b.lo), max(a.hi, b.hi), a.methods | b.methods)


@dataclass
class DiscretePath:
    """Piecewise-linear path through domain points."""

    nodes: np.ndarray                  # (N, d) complex
    params: np.ndarray | None = None   # defaults to uniform in [0, 1]

    def __post_init__(self):
        self.nodes = np.atleast_2d(np.asarray(self.nodes, dtype=complex))
        if self.params is None:
            n = self.nodes.shape[0]
            self.params = np.linspace(0.0, 1.0, n) if n > 1 else np.zeros(1)
        self.params = np.asarray(self.params, dtype=float)

    def validate_in(self, D: ConvexDomain):
        probes = [self.nodes]
        if self.nodes.shape[0] > 1:
            probes.append(0.5 * (self.nodes[:-1] + self.nodes[1:]))
        for block in probes:
            ok = D.contains_batch(block)
            if not np.all(ok):
                bad = block[np.argmin(ok)]
                raise OutsideDomain(f"path point {bad} leaves the domain")

    def length_parametrization(self, D: ConvexDomain) -> Callable[[float], np.ndarray]:
        """Map a fraction t in [0, 1] of the path's metric length to its point.

        Segment lengths are 4-point quadrature midpoints; within a segment
        the point is interpolated linearly.
        """
        nodes = self.nodes
        if nodes.shape[0] == 1:
            return lambda t: nodes[0]
        cum = np.concatenate([[0.0], np.cumsum(
            [curve_length(D, DiscretePath(nodes[k:k + 2]), 4).midpoint
             for k in range(nodes.shape[0] - 1)])])

        def point_at(t: float) -> np.ndarray:
            s = t * cum[-1]
            k = int(np.searchsorted(cum, s) - 1)
            k = min(max(k, 0), nodes.shape[0] - 2)
            frac = (s - cum[k]) / max(cum[k + 1] - cum[k], 1e-300)
            return nodes[k] + frac * (nodes[k + 1] - nodes[k])

        return point_at


@dataclass
class Geodesic:
    """Constant-speed geodesic with an attached total length."""

    point_at: Callable[[float], np.ndarray]
    length: float
    exact: bool = True

    def __call__(self, t: float) -> np.ndarray:
        return self.point_at(t)


# ---------------------------------------------------------------------------
# infinitesimal metric
# ---------------------------------------------------------------------------


def metric_bounds_batch(D: ConvexDomain, Z: np.ndarray, V: np.ndarray):
    """Vectorized infinitesimal bounds (lo, hi) at rows of Z with vectors V."""
    Z = np.asarray(Z, dtype=complex)
    V = np.asarray(V, dtype=complex)
    if isinstance(D, Disk):
        k = np.abs(V[:, 0]) * D.radius / (D.radius ** 2 - np.abs(Z[:, 0] - D.center) ** 2)
        return k, k.copy()
    if isinstance(D, HalfPlane):
        dist = ((Z[:, 0] - D.boundary_point) * np.conj(D.inward_normal)).real
        k = np.abs(V[:, 0]) / (2.0 * dist)
        return k, k.copy()
    if isinstance(D, Sector):
        ch = planar.chart(D)
        u = ch.forward(Z[:, 0])
        k = np.abs(ch.derivative(Z[:, 0]) * V[:, 0]) / (1.0 - np.abs(u) ** 2)
        return k, k.copy()
    if isinstance(D, Ball):
        zs = (Z - D.center[None, :]) / D.radius
        vs = V / D.radius
        one = 1.0 - np.sum(np.abs(zs) ** 2, axis=1)
        pair = np.abs(np.sum(vs * np.conj(zs), axis=1)) ** 2
        k = np.sqrt(np.sum(np.abs(vs) ** 2, axis=1) * one + pair) / one
        return k, k.copy()
    if isinstance(D, Product):
        los, his = zip(*[metric_bounds_batch(f, Zf, Vf)
                         for f, Zf, Vf in zip(D.factors, D.split(Z), D.split(V))])
        return reduce(np.maximum, los), reduce(np.maximum, his)
    if isinstance(D, AffineImage):
        W = (Z - D.offset[None, :]) @ D.inverse.T
        U = V @ D.inverse.T
        return metric_bounds_batch(D.inner, W, U)
    # generic convex estimate through the directional boundary distance
    zero = ~np.any(V != 0, axis=1)
    norms = np.linalg.norm(V, axis=1)
    delta = np.ones(Z.shape[0])
    if (~zero).any():
        delta[~zero] = D.delta_dir_batch(Z[~zero], V[~zero])
    hi = np.where(zero, 0.0, norms / delta)
    lo = 0.5 * hi
    return lo, hi


def infinitesimal(D: ConvexDomain, z, v) -> DistanceInterval:
    """Infinitesimal Kobayashi metric at z applied to the vector v."""
    z = as_point(z, D.dimension)
    v = as_point(v, D.dimension)
    if not D.contains(z):
        raise OutsideDomain(f"point {z} is not in the domain")
    if not np.any(v):
        return DistanceInterval.exact(0.0, "exact-chart")
    lo, hi = metric_bounds_batch(D, z[None, :], v[None, :])
    lo, hi = float(lo[0]), float(hi[0])
    if hi == lo:
        return DistanceInterval.exact(lo, _exact_tag(D))
    return DistanceInterval(lo, hi, frozenset({"delta-bound"}))


def _exact_tag(D: ConvexDomain) -> str:
    if isinstance(D, Product):
        return "product-max"
    if isinstance(D, AffineImage):
        return "affine-invariance"
    return "exact-chart"


def _has_fast_delta_dir(D: ConvexDomain) -> bool:
    """True when directional boundary distances come in closed form."""
    if isinstance(D, (Disk, HalfPlane, Sector, Ball)):
        return True
    if isinstance(D, Product):
        return all(_has_fast_delta_dir(f) for f in D.factors)
    if isinstance(D, AffineImage):
        return _has_fast_delta_dir(D.inner)
    if isinstance(D, Intersection):
        return all(_has_fast_delta_dir(m) for m in D.members)
    return False


# ---------------------------------------------------------------------------
# curve length
# ---------------------------------------------------------------------------


def _quad_rule(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (x + 1.0), 0.5 * w  # transplanted to [0, 1]


def curve_length(D: ConvexDomain, path: DiscretePath,
                 quad_order: int = REPORT_QUAD) -> DistanceInterval:
    """Composite Gauss-Legendre length of a piecewise-linear path."""
    path = path if isinstance(path, DiscretePath) else DiscretePath(path)
    path.validate_in(D)
    n = path.nodes.shape[0]
    if n < 2:
        return DistanceInterval.exact(0.0, "exact-chart")
    xs, ws = _quad_rule(quad_order)
    seg_a = path.nodes[:-1]
    seg_v = path.nodes[1:] - path.nodes[:-1]
    Z = (seg_a[:, None, :] + xs[None, :, None] * seg_v[:, None, :]).reshape(-1, D.dimension)
    V = np.repeat(seg_v, len(xs), axis=0)
    lo, hi = metric_bounds_batch(D, Z, V)
    weights = np.tile(ws, n - 1)
    lo_len = float(np.sum(lo * weights))
    hi_len = float(np.sum(hi * weights))
    if lo_len == hi_len:
        return DistanceInterval.exact(lo_len, _exact_tag(D))
    return DistanceInterval(lo_len, hi_len, frozenset({"delta-bound"}))


# ---------------------------------------------------------------------------
# exact distance / geodesic dispatch
# ---------------------------------------------------------------------------


def exact_distance(D: ConvexDomain, x: np.ndarray, y: np.ndarray) -> DistanceInterval | None:
    """Structurally exact Kobayashi distance, or None."""
    if D.dimension == 1:
        ch = planar.exact_chart(D)
        if ch is None:
            return None
        val = planar.disk_distance(ch.forward(complex(x[0])), ch.forward(complex(y[0])))
        return DistanceInterval.exact(val, "exact-chart")
    if isinstance(D, Ball):
        return DistanceInterval.exact(_ball_distance(D, x, y), "exact-chart")
    if isinstance(D, Product):
        parts = [exact_distance(f, xf, yf)
                 for f, xf, yf in zip(D.factors, D.split(x), D.split(y))]
        if None in parts:
            return None
        return reduce(interval_max, parts).with_tags("product-max")
    if isinstance(D, AffineImage):
        inner = exact_distance(D.inner, D.pull_back(x), D.pull_back(y))
        return None if inner is None else inner.with_tags("affine-invariance")
    return None


def _ball_distance(D: Ball, x: np.ndarray, y: np.ndarray) -> float:
    zs = (x - D.center) / D.radius
    ws = (y - D.center) / D.radius
    num = (1 - float(np.sum(np.abs(zs) ** 2))) * (1 - float(np.sum(np.abs(ws) ** 2)))
    # the pairing is accumulated in real arithmetic so that swapping the
    # arguments flips only the sign of the imaginary part, keeping the
    # distance bit-for-bit symmetric
    re = float(np.sum(zs.real * ws.real + zs.imag * ws.imag))
    im = float(np.sum(zs.imag * ws.real - zs.real * ws.imag))
    den = (1.0 - re) ** 2 + im * im
    arg = max(0.0, 1.0 - num / den)
    return float(np.arctanh(math.sqrt(min(arg, 1.0 - 1e-17))))


def ball_mobius(a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Involutive automorphism of the unit ball exchanging 0 and a."""
    a = np.asarray(a, dtype=complex)
    z = np.asarray(z, dtype=complex)
    na2 = float(np.sum(np.abs(a) ** 2))
    if na2 == 0:
        return -z
    za = complex(np.sum(z * np.conj(a)))
    pz = (za / na2) * a
    qz = z - pz
    s = math.sqrt(max(0.0, 1.0 - na2))
    return (a - pz - s * qz) / (1.0 - za)


def exact_geodesic(D: ConvexDomain, x: np.ndarray, y: np.ndarray) -> Geodesic | None:
    """Constant-speed geodesic on catalog compositions, or None."""
    dist = exact_distance(D, x, y)
    if dist is None or not dist.is_exact:
        return None
    length = dist.lo
    if np.array_equal(x, y):
        return Geodesic(lambda t: x.copy(), 0.0)
    if D.dimension == 1:
        ch = planar.exact_chart(D)
        a, b = ch.forward(complex(x[0])), ch.forward(complex(y[0]))
        return Geodesic(lambda t: as_point([ch.inverse(planar.disk_geodesic(a, b, t))]),
                        length)
    if isinstance(D, Ball):
        unit_x = (x - D.center) / D.radius
        unit_y = (y - D.center) / D.radius
        w = ball_mobius(unit_x, unit_y)
        rho = float(np.linalg.norm(w))
        u = w / rho

        def point_at(t: float) -> np.ndarray:
            r = math.tanh(t * math.atanh(rho))
            return D.center + D.radius * ball_mobius(unit_x, r * u)

        return Geodesic(point_at, length)
    if isinstance(D, Product):
        parts = [exact_geodesic(f, xf, yf)
                 for f, xf, yf in zip(D.factors, D.split(x), D.split(y))]
        if None in parts:
            return None
        return Geodesic(lambda t: np.concatenate([g(t) for g in parts]), length)
    if isinstance(D, AffineImage):
        inner = exact_geodesic(D.inner, D.pull_back(x), D.pull_back(y))
        if inner is None:
            return None
        return Geodesic(lambda t: D.push_forward(inner(t)), length)
    return None


# ---------------------------------------------------------------------------
# sandwich machinery
# ---------------------------------------------------------------------------


def _functional_grid(dim: int) -> np.ndarray:
    rng = np.random.default_rng(FUNCTIONAL_GRID_SEED)
    raw = rng.normal(size=(FUNCTIONAL_GRID_SIZE, 2 * dim))
    vecs = raw[:, :dim] + 1j * raw[:, dim:]
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    axes = []
    for j in range(dim):
        e = np.zeros(dim, dtype=complex)
        e[j] = 1.0
        axes.extend([e, -e, 1j * e])
    return np.vstack([vecs, axes])


_GRID_CACHE: dict[int, np.ndarray] = {}


def _functionals(dim: int, chord: np.ndarray) -> np.ndarray:
    if dim not in _GRID_CACHE:
        _GRID_CACHE[dim] = _functional_grid(dim)
    chord = chord / np.linalg.norm(chord)
    return np.vstack([_GRID_CACHE[dim], chord[None, :], -chord[None, :]])


def _half_plane_lower(D: ConvexDomain, x: np.ndarray, y: np.ndarray) -> float:
    """Best lower bound from affine functionals into supporting half-planes."""
    best = 0.0
    for a in _functionals(D.dimension, y - x):
        h = D.support_upper(a)
        if not math.isfinite(h):
            continue
        fx = complex(np.sum(x * np.conj(a)))
        fy = complex(np.sum(y * np.conj(a)))
        if fx.real >= h or fy.real >= h:
            continue  # support bound too tight to certify, skip
        hp = HalfPlane(h, -1.0)
        val = planar.planar_distance(hp, fx, fy)
        best = max(best, val)
    return best


def _slice_upper(D: ConvexDomain, x: np.ndarray, y: np.ndarray):
    """Upper bound through the planar slice spanned by x and y.

    Returns (value, exact_flag, tags).
    """
    S = D.slice(x, y - x).planar
    ch = planar.exact_chart(S)
    if ch is not None:
        # a chart can overflow on a thin far-off wedge; then use the oracle
        with np.errstate(over="ignore", invalid="ignore"):
            u0, u1 = ch.forward(0.0), ch.forward(1.0)
        if abs(u0) < 1 and abs(u1) < 1:
            return planar.disk_distance(u0, u1), True, {"slice-upper"}
    val = _oracle_upper(S, 0.0 + 0.0j, 1.0 + 0.0j)
    return val, False, {"slice-upper", "delta-bound"}


def _oracle_upper(S: ConvexDomain, z0: complex, z1: complex,
                  quad: int = 24, pieces: int = 8) -> float:
    """Straight-path integral of |dz| / delta on a planar oracle set."""
    if isinstance(S, PlanarOracle):
        cloud = S.boundary_points(512)

        def delta(pts: np.ndarray) -> np.ndarray:
            return np.min(np.abs(pts[:, None] - cloud[None, :]), axis=1)
    else:
        def delta(pts: np.ndarray) -> np.ndarray:
            return np.array([S.delta([p]) for p in pts])

    xs, ws = _quad_rule(quad)
    total = 0.0
    v = (z1 - z0) / pieces
    for k in range(pieces):
        a = z0 + k * v
        pts = a + xs * v
        total += float(np.sum(ws * abs(v) / delta(pts)))
    return total


def _polydisk_slack(D: ConvexDomain, centers: np.ndarray,
                    radii: np.ndarray) -> float | None:
    """Margin by which the polydisk with these centers/radii sits inside D.

    Positive means strictly inside; None means the structural test is not
    available for this node (non-diagonal affine images, graph domains).
    """
    if isinstance(D, Disk):
        return D.radius - (abs(centers[0] - D.center) + radii[0])
    if isinstance(D, HalfPlane):
        margin = ((centers[0] - D.boundary_point) * np.conj(D.inward_normal)).real
        return margin - radii[0]
    if isinstance(D, Sector):
        if not D._contains(centers[:1]):
            return -abs(centers[0] - D.vertex) - radii[0]
        return D._delta(centers[:1]) - radii[0]
    if isinstance(D, Ball):
        reach = np.abs(centers - D.center) + radii
        return D.radius - math.sqrt(float(np.sum(reach ** 2)))
    if isinstance(D, Product):
        slacks = [_polydisk_slack(f, c, r)
                  for f, c, r in zip(D.factors, D.split(centers), D.split(radii))]
        return None if None in slacks else min(slacks)
    if isinstance(D, Intersection):
        slacks = [_polydisk_slack(m, centers, radii) for m in D.members]
        return None if None in slacks else min(slacks)
    if isinstance(D, AffineImage):
        diag = np.diag(D.matrix)
        if not np.allclose(D.matrix, np.diag(diag)):
            return None
        inner_c = (centers - D.offset) / diag
        inner_r = radii / np.abs(diag)
        return _polydisk_slack(D.inner, inner_c, inner_r)
    return None


def _product_inclusion_upper(D: ConvexDomain, x: np.ndarray,
                             y: np.ndarray) -> float | None:
    """Upper bound from an inscribed polydisk through both points.

    Flat slices cannot see max-type geometry (a slice of a product limit
    degenerates to a strip), but any polydisk P inside D bounds K_D by the
    exact product value max_j K_disk_j.  The disk centers and radii are
    optimized with the containment margin as a hard penalty.
    """
    from scipy.optimize import minimize

    d = D.dimension
    if d < 2:
        return None
    probe = _polydisk_slack(D, x, np.zeros(d))
    if probe is None:
        return None

    def assemble(params: np.ndarray):
        centers = params[:d] + 1j * params[d:2 * d]
        radii = np.exp(params[2 * d:])
        return centers, radii

    def objective(params: np.ndarray) -> float:
        centers, radii = assemble(params)
        point_slack = min(float(np.min(radii - np.abs(x - centers))),
                          float(np.min(radii - np.abs(y - centers))))
        dom_slack = _polydisk_slack(D, centers, radii)
        slack = min(point_slack, dom_slack)
        if slack <= 0.0:
            return _PENALTY * (1.0 - slack)
        vals = np.arctanh(np.abs((x - centers) / radii - (y - centers) / radii)
                          / np.abs(1 - np.conj((y - centers) / radii)
                                   * ((x - centers) / radii)))
        return float(np.max(vals))

    mid = 0.5 * (x + y)
    anchor = D.anchor()
    need = np.maximum(np.abs(x - mid), np.abs(y - mid)) + 1e-9

    def grow_radii(centers: np.ndarray) -> np.ndarray | None:
        base = np.maximum(np.abs(x - centers), np.abs(y - centers)) * 1.000001 + 1e-12
        if _polydisk_slack(D, centers, base) is None or _polydisk_slack(D, centers, base) <= 0:
            return None
        lo_s, hi_s = 0.0, 1.0
        while _polydisk_slack(D, centers, base + hi_s) > 0 and hi_s < 1e12:
            lo_s, hi_s = hi_s, hi_s * 4.0
        for _ in range(50):
            mid_s = 0.5 * (lo_s + hi_s)
            if _polydisk_slack(D, centers, base + mid_s) > 0:
                lo_s = mid_s
            else:
                hi_s = mid_s
        return base + lo_s

    # scan center positions from the points' own scale up to the anchor
    span = max(float(np.linalg.norm(anchor - mid)), 1e-300)
    sep = max(float(np.linalg.norm(y - x)), 1e-300)
    t_lo = min(0.03 * sep / span, 0.5)
    best_val, best_params = math.inf, None
    for t in np.geomspace(t_lo, 1.0, 24):
        centers = mid + t * (anchor - mid)
        radii = grow_radii(centers)
        if radii is None:
            continue
        params = np.concatenate([centers.real, centers.imag, np.log(radii)])
        val = objective(params)
        if val < best_val:
            best_val, best_params = val, params
    if best_params is None:
        return None
    res = minimize(objective, best_params, method="Nelder-Mead",
                   options={"maxiter": 400 * d, "fatol": 1e-12, "xatol": 1e-12})
    if res.fun < best_val:
        best_val, best_params = float(res.fun), res.x
    centers, radii = assemble(best_params)
    slack = min(_polydisk_slack(D, centers, radii),
                float(np.min(radii - np.abs(x - centers))),
                float(np.min(radii - np.abs(y - centers))))
    if slack <= 0.0 or best_val >= _PENALTY:
        return None
    return best_val


def _sandwich(D: ConvexDomain, x: np.ndarray, y: np.ndarray,
              optimize_path: bool | None) -> DistanceInterval:
    tags: set[str] = set()
    lows = [0.0]

    if isinstance(D, AffineImage):
        inner = _sandwich(D.inner, D.pull_back(x), D.pull_back(y), optimize_path)
        return inner.with_tags("affine-invariance")

    if isinstance(D, Product):
        lows.append(max(distance(f, xf, yf, optimize_path=optimize_path).lo
                        for f, xf, yf in zip(D.factors, D.split(x), D.split(y))))
        tags.add("projection-lower")

    if isinstance(D, Intersection):
        for m in D.members:
            if not m.c_proper:
                continue
            lows.append(distance(m, x, y, optimize_path=False).lo)
        tags.add("projection-lower")

    hp = _half_plane_lower(D, x, y)
    if hp > 0:
        lows.append(hp)
        tags.add("projection-lower")

    lo = max(lows)

    his = []
    slice_val, slice_exact, slice_tags = _slice_upper(D, x, y)
    his.append(slice_val)
    tags |= slice_tags

    # the flat slice cannot see max-type geometry; when it is visibly loose
    # an inscribed polydisk often is the better analytic disk family
    if D.dimension >= 2 and slice_val > 1.15 * lo:
        incl = _product_inclusion_upper(D, x, y)
        if incl is not None and incl < min(his):
            his.append(incl)
            tags.add("inclusion-upper")

    if optimize_path is None:
        # auto policy: optimize only when the slice is inexact and the
        # domain evaluates directional deltas in closed form
        run_optimizer = not slice_exact and _has_fast_delta_dir(D)
    else:
        run_optimizer = optimize_path
    if run_optimizer:
        _, length = geodesic_approx(D, x, y, OPTIMIZER_NODES)
        his.append(length.hi)
        tags.add("path-optimizer")

    hi = min(his)
    if hi < lo:
        # exact-in-principle bounds can cross by chart round-off near the
        # boundary; anything beyond that scale is a real bug
        if hi < lo - 5e-9 * max(1.0, lo):
            raise KCat0Error(
                f"sandwich bounds crossed: lo={lo!r} hi={hi!r}; this indicates a bug")
        lo = hi = 0.5 * (lo + hi)
    return DistanceInterval(lo, hi, frozenset(tags))


def distance(D: ConvexDomain, x, y, *, force_sandwich: bool = False,
             optimize_path: bool | None = None) -> DistanceInterval:
    """Kobayashi distance as a certified interval (exact where structural)."""
    x = as_point(x, D.dimension)
    y = as_point(y, D.dimension)
    if not D.c_proper:
        raise PseudoDistanceOnly("pseudo-distance only: the domain is not C-proper")
    for p in (x, y):
        if not D.contains(p):
            raise OutsideDomain(f"point {p} is not in the domain")
    if np.array_equal(x, y):
        return DistanceInterval.exact(0.0, "exact-chart")
    if not force_sandwich:
        exact = exact_distance(D, x, y)
        if exact is not None:
            return exact
    return _sandwich(D, x, y, optimize_path)


# ---------------------------------------------------------------------------
# discrete geodesics
# ---------------------------------------------------------------------------


def _metric_hi_smooth(D: ConvexDomain, Z: np.ndarray, V: np.ndarray,
                      p: float) -> np.ndarray:
    """Upper metric with max-type combinations softened to a p-norm.

    The p-norm dominates the max, so lengths stay valid upper bounds; the
    point of the smoothing is to give the path optimizer a differentiable
    landscape away from the max kinks.
    """
    if isinstance(D, Product):
        return sum(_metric_hi_smooth(f, Zf, Vf, p) ** p
                   for f, Zf, Vf in zip(D.factors, D.split(Z), D.split(V))) ** (1.0 / p)
    if isinstance(D, AffineImage):
        W = (Z - D.offset[None, :]) @ D.inverse.T
        U = V @ D.inverse.T
        return _metric_hi_smooth(D.inner, W, U, p)
    _, hi = metric_bounds_batch(D, Z, V)
    return hi


def _path_objective(D: ConvexDomain, x: np.ndarray, y: np.ndarray, n: int,
                    quad_order: int, smooth_p: float | None = None):
    xs, ws = _quad_rule(quad_order)
    d = D.dimension

    def lengths(u: np.ndarray) -> float:
        interior = u.reshape(n - 2, 2 * d)
        nodes = np.empty((n, d), dtype=complex)
        nodes[0] = x
        nodes[-1] = y
        nodes[1:-1] = interior[:, :d] + 1j * interior[:, d:]
        seg_a = nodes[:-1]
        seg_v = nodes[1:] - nodes[:-1]
        Z = (seg_a[:, None, :] + xs[None, :, None] * seg_v[:, None, :]).reshape(-1, d)
        V = np.repeat(seg_v, len(xs), axis=0)
        inside = D.contains_batch(Z)
        hi = np.full(Z.shape[0], _PENALTY)
        mask = inside if not inside.all() else slice(None)
        if inside.any():
            if smooth_p is None:
                _, hi_in = metric_bounds_batch(D, Z[mask], V[mask])
            else:
                hi_in = _metric_hi_smooth(D, Z[mask], V[mask], smooth_p)
            hi[mask] = hi_in
        return float(np.sum(hi * np.tile(ws, n - 1)))

    return lengths


def geodesic_approx(D: ConvexDomain, x, y, n: int = OPTIMIZER_NODES,
                    quad_order: int = OPTIMIZER_QUAD):
    """Shortest discrete path found by local search from the straight segment.

    Returns ``(DiscretePath, DistanceInterval)``; the reported length never
    exceeds the straight-segment length (falls back with a warning tag when
    the optimizer fails to improve).
    """
    from scipy.optimize import minimize

    x = as_point(x, D.dimension)
    y = as_point(y, D.dimension)
    if n < 3:
        raise InvalidDomain("need at least 3 path nodes")
    for p in (x, y):
        if not D.contains(p):
            raise OutsideDomain(f"endpoint {p} is not in the domain")
    if np.array_equal(x, y):
        path = DiscretePath(x[None, :])
        return path, DistanceInterval.exact(0.0, "path-optimizer")

    ts = np.linspace(0.0, 1.0, n)
    straight = x[None, :] + ts[:, None] * (y - x)[None, :]
    objective = _path_objective(D, x, y, n, quad_order)
    smoothed = _path_objective(D, x, y, n, quad_order, smooth_p=12.0)

    u0 = np.hstack([straight[1:-1].real, straight[1:-1].imag]).reshape(-1)
    # shape-finding pass on the softened metric, then polish on the true one;
    # the smoothed landscape has no max kinks, so quasi-Newton steps work
    pre = minimize(smoothed, u0, method="L-BFGS-B",
                   options={"maxiter": 60, "maxls": 40})
    u = pre.x if math.isfinite(pre.fun) else u0
    f_prev = objective(u)
    if f_prev >= _PENALTY:
        u, f_prev = u0, objective(u0)
    for _ in range(OPTIMIZER_MAX_ROUNDS):
        res = minimize(objective, u, method="L-BFGS-B",
                       options={"maxiter": 5, "maxls": 40})
        u = res.x
        f_new = float(res.fun)
        if f_prev - f_new < OPTIMIZER_REL_TOL * max(abs(f_prev), 1e-30):
            f_prev = min(f_prev, f_new)
            break
        f_prev = f_new

    interior = u.reshape(n - 2, 2 * D.dimension)
    nodes = np.empty((n, D.dimension), dtype=complex)
    nodes[0] = x
    nodes[-1] = y
    nodes[1:-1] = interior[:, : D.dimension] + 1j * interior[:, D.dimension:]
    path = DiscretePath(nodes)
    warned = False
    try:
        length = curve_length(D, path, REPORT_QUAD)
    except OutsideDomain:
        warned = True
        path = DiscretePath(straight)
        length = curve_length(D, path, REPORT_QUAD)
    straight_len = curve_length(D, DiscretePath(straight), REPORT_QUAD)
    if length.hi > straight_len.hi:
        warned = True
        path = DiscretePath(straight)
        length = straight_len
    tags = {"path-optimizer"} | ({"optimizer-no-improvement"} if warned else set())
    return path, length.with_tags(*tags)


# ---------------------------------------------------------------------------
# midpoints
# ---------------------------------------------------------------------------


def _exact_midpoint(D: ConvexDomain, x: np.ndarray, y: np.ndarray) -> np.ndarray | None:
    """Midpoint of a catalog geodesic with the product tie-break rule.

    In a max-metric product the midpoint is not unique: a factor whose
    separation is at most half the largest one is held constant at its
    starting value; every other factor moves to its own midpoint.
    """
    if D.dimension == 1:
        ch = planar.exact_chart(D)
        if ch is None:
            return None
        return as_point([planar.planar_geodesic(D, x, y, 0.5)])
    if isinstance(D, Ball):
        g = exact_geodesic(D, x, y)
        return g(0.5)
    if isinstance(D, Product):
        parts = list(zip(D.split(x), D.split(y), D.factors))
        dists = []
        for (px, py, f) in parts:
            e = exact_distance(f, px, py)
            if e is None or not e.is_exact:
                return None
            dists.append(e.lo)
        top = max(dists)
        mids = []
        for (px, py, f), dval in zip(parts, dists):
            if dval <= 0.5 * top and dval < top:
                mids.append(px.copy())  # hold the slack factor at its start
            else:
                sub = _exact_midpoint(f, px, py)
                if sub is None:
                    return None
                mids.append(sub)
        return np.concatenate(mids)
    if isinstance(D, AffineImage):
        inner = _exact_midpoint(D.inner, D.pull_back(x), D.pull_back(y))
        return None if inner is None else D.push_forward(inner)
    return None


def midpoint_residual(D: ConvexDomain, x: np.ndarray, y: np.ndarray,
                      m: np.ndarray, d_xy: float | None = None) -> float:
    """|K(x,m) - K(m,y)| + |K(x,m) + K(m,y) - K(x,y)| on interval midpoints."""
    if d_xy is None:
        d_xy = distance(D, x, y, optimize_path=False).midpoint
    a = distance(D, x, m, optimize_path=False).midpoint
    b = distance(D, m, y, optimize_path=False).midpoint
    return abs(a - b) + abs(a + b - d_xy)


def midpoint_search(D: ConvexDomain, x, y, tol: float | None = None):
    """Geodesic midpoint with a certification residual.

    Exact on catalog compositions (residual 0); otherwise refines the
    half-length point of an optimized path by minimizing the residual.
    Raises MidpointNotCertified when the residual stays above ``tol``.
    """
    from scipy.optimize import minimize

    x = as_point(x, D.dimension)
    y = as_point(y, D.dimension)
    if np.array_equal(x, y):
        return x.copy(), 0.0

    exact = _exact_midpoint(D, x, y)
    if exact is not None:
        tol = MIDPOINT_TOL_EXACT if tol is None else tol
        resid = midpoint_residual(D, x, y, exact)
        if resid > max(tol, 1e-12):
            raise MidpointNotCertified(
                f"midpoint not certified: residual {resid:.3e} > tol {tol:.3e}")
        return exact, 0.0

    tol = MIDPOINT_TOL_NUMERIC if tol is None else tol
    path, _ = geodesic_approx(D, x, y)
    m0 = path.length_parametrization(D)(0.5)
    d_xy = distance(D, x, y, optimize_path=False).midpoint

    # midpoints of max-type metrics are non-unique; a small pull toward the
    # path's half-length point keeps the refinement from drifting along the
    # zero-residual valley while leaving the reported residual untouched
    scale = max(float(np.linalg.norm(y - x)), 1e-30)
    mu = 1e-2 * max(tol, 1e-9) / scale ** 2

    def resid_of(u: np.ndarray) -> float:
        m = u[: D.dimension] + 1j * u[D.dimension:]
        if not D.contains(m):
            return _PENALTY
        return midpoint_residual(D, x, y, m, d_xy)

    def objective(u: np.ndarray) -> float:
        m = u[: D.dimension] + 1j * u[D.dimension:]
        return resid_of(u) + mu * float(np.sum(np.abs(m - m0) ** 2))

    u0 = np.concatenate([m0.real, m0.imag])
    res = minimize(objective, u0, method="Nelder-Mead",
                   options={"maxiter": 400, "fatol": 1e-4 * mu * scale ** 2,
                            "xatol": 1e-9})
    m = res.x[: D.dimension] + 1j * res.x[D.dimension:]
    residual = float(resid_of(res.x))
    if residual > tol:
        raise MidpointNotCertified(
            f"midpoint not certified: residual {residual:.3e} > tol {tol:.3e}")
    return m, residual
