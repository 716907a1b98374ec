"""Kobayashi distance engine on C^d.

Catalog compositions (planar models, balls, products of any number of
factors, affine images) evaluate exactly, each node from its own
``exact_distance``.  Everything else gets a certified sandwich: lower
bounds from holomorphic contractions (factor projections or member
inclusions, else supporting half-planes), upper bounds from the planar slice
through the two points (exact, or from disks inscribed by membership),
from inscribed polydisks and, on request, from an optimized discrete path.
The public contract for non-catalog domains is always a
``DistanceInterval``, never a point estimate.  ``distance`` checks its
points once, and the sandwich and its projections run on checked points.

A numeric midpoint is the geodesic midpoint of the slice bound's witness
(the slice node itself, or its winning inscribed disk), with its CN radius.

Infinitesimal bounds are each node's ``metric_bounds``: closed forms, a ray
hull's disks on graphs and oracle sets, and on an intersection off a lens
the largest of its members' ``lo`` (each member holds it) with
``hi = |v| / delta(z, v)`` (its slice holds the disk of radius delta(z, v)).
"""

from __future__ import annotations

import functools
import math
import sys

import numpy as np

from .domains import ConvexDomain, disk, hull_disk_search, ray_hulls
from .errors import (
    InvalidDomain,
    KCat0Error,
    MidpointNotCertified,
    OutsideDomain,
    PseudoDistanceOnly,
)
from .interval import DistanceInterval
from .planar import _SCALE, _TINY
from .points import as_point

FUNCTIONAL_GRID_SIZE = 64
FUNCTIONAL_GRID_SEED = 0xF00D
OPTIMIZER_NODES = 33
OPTIMIZER_QUAD = 2          # Gauss-Legendre points per segment while optimizing
REPORT_QUAD = 16            # quadrature order for reported lengths
OPTIMIZER_REL_TOL = 1e-6    # relative improvement over 5 iterations
OPTIMIZER_MAX_ROUNDS = 40
MIDPOINT_TOL_EXACT = 1e-9
MIDPOINT_TOL_NUMERIC = 5e-2
# the inscribed-polydisk family: centres (as exponents of the first one's
# fraction of the way to the anchor) and growth ratios
_INCLUSION_CENTERS = np.linspace(1.0, 0.0, 12)
_INCLUSION_RATIOS = np.geomspace(0.25, 4.0, 5)
_PENALTY = 1e6
# the inscribed-disk slice bound: searches, path knots
_SLICE_SEARCHES, _SLICE_KNOTS = 64, 65


# ---------------------------------------------------------------------------
# infinitesimal metric
# ---------------------------------------------------------------------------


def metric_bounds_batch(D: ConvexDomain, Z: np.ndarray, V: np.ndarray):
    """Vectorized infinitesimal bounds (lo, hi) at rows of Z with vectors V."""
    return D.metric_bounds(np.asarray(Z, dtype=complex), np.asarray(V, dtype=complex))


def infinitesimal(D: ConvexDomain, z, v) -> DistanceInterval:
    """Infinitesimal Kobayashi metric at z applied to the vector v."""
    z = as_point(z, D.dimension)
    v = as_point(v, D.dimension)
    _require_inside(D, z)
    if not np.any(v):
        return DistanceInterval.exact(0.0, "exact-chart")
    lo, hi = (float(b[0]) for b in metric_bounds_batch(D, z[None, :], v[None, :]))
    if hi == lo:
        return DistanceInterval.exact(lo, D.exact_tag)
    return DistanceInterval(lo, hi, frozenset({D.bound_tag}))


# ---------------------------------------------------------------------------
# exact distance dispatch
# ---------------------------------------------------------------------------


def exact_distance(D: ConvexDomain, x: np.ndarray, y: np.ndarray) -> DistanceInterval | None:
    """Structurally exact Kobayashi distance, or None."""
    return D.exact_distance(x, y)


# ---------------------------------------------------------------------------
# sandwich machinery
# ---------------------------------------------------------------------------


@functools.cache
def _functional_grid(dim: int) -> np.ndarray:
    rng = np.random.default_rng(FUNCTIONAL_GRID_SEED)
    raw = rng.normal(size=(FUNCTIONAL_GRID_SIZE, 2 * dim))
    vecs = raw[:, :dim] + 1j * raw[:, dim:]
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    e = np.eye(dim, dtype=complex)   # then e_j, -e_j, i e_j for each axis j
    grid = np.vstack([vecs, np.stack([e, -e, 1j * e], axis=1).reshape(-1, dim)])
    grid.flags.writeable = False   # shared by every caller
    return grid


def _functionals(dim: int, chord: np.ndarray) -> np.ndarray:
    chord = chord * _SCALE if np.vdot(chord, chord).real < _TINY else chord   # |chord|^2 could underflow
    chord = chord / np.linalg.norm(chord)
    return np.vstack([_functional_grid(dim), chord[None, :], -chord[None, :]])


def _round_off(D: ConvexDomain) -> float:
    """Relative round-off allowed for a closed-form bound on D."""
    return 4 * (D.dimension + 1) * sys.float_info.epsilon


def _half_plane_lower(D: ConvexDomain, x: np.ndarray, y: np.ndarray) -> float:
    """Best lower bound from affine functionals into supporting half-planes,
    for nodes without ``projection_lower``: a leaf's supports on the
    functional grid, a graph's tangent planes (an oracle set's read +inf).

    A functional f with support bound h maps D into {Re w < h}, where the
    distance is asinh(|f(x - y)| / (2 sqrt((h - Re f(x)) (h - Re f(y))))),
    evaluated here without cancellation near the boundary line.
    """
    planes = D.supporting_half_planes(x, y)
    if planes is None:
        F = _functionals(D.dimension, y - x)
        planes = F, D.support_upper_batch(F)
    F, h = planes
    pair = F.conj()  # rows pair with points as f(z) = <z, a>
    # round-off padding: h and the pairings with a unit functional are taken
    # good to `ulp` times |h| plus the norm of the point paired, so the gaps
    # widen and |f(x - y)| shrinks by that much
    ulp = _round_off(D)
    gap_x, err_x = h - (pair @ x).real, ulp * (np.abs(h) + np.linalg.norm(x))
    gap_y, err_y = h - (pair @ y).real, ulp * (np.abs(h) + np.linalg.norm(y))
    # a gap within its round-off (or an infinite h) certifies nothing
    ok = (gap_x > err_x) & (gap_y > err_y)
    if not ok.any():
        return 0.0
    num = np.abs(pair[ok] @ (x - y)) - ulp * np.linalg.norm(x - y)
    den = 2.0 * np.sqrt(gap_x[ok] + err_x[ok]) * np.sqrt(gap_y[ok] + err_y[ok])
    return max(0.0, (1.0 - ulp) * float(np.arcsinh(num / den).max()))


def _slice_upper(D: ConvexDomain, x: np.ndarray, y: np.ndarray):
    """(value, exact_flag, tags, witness): an upper bound through the planar
    slice spanned by x and y, the slice node's exact distance between the
    parameters 0 and 1, else ``_inscribed_disk_upper`` on the slice.  The
    witness, a node of that length from 0 to 1, is the slice node when
    exact, else the winning disk or None."""
    v = y - x   # x != y here, but a pull-back can merge two points
    if not v.any():
        raise InvalidDomain("direction v must be nonzero")
    S = D._slice_set(x, v)
    exact = S.exact_distance(np.zeros(1, dtype=complex), np.ones(1, dtype=complex))
    if exact is not None:
        return exact.hi, True, {"slice-upper"}, S
    value, disk = _inscribed_disk_upper(S)
    return value, False, {"slice-upper", "inscribed-disk"}, disk


def _inscribed_disk_upper(S: ConvexDomain):
    """(value, disk): an upper bound for K_S(0, 1) on a planar convex S
    holding 0 and 1, from membership alone, with the ``Disk`` whose distance
    it is, else None.  A disk inside the hull P of rays' inside ends from
    1/2 lies in S, so its exact distance bounds
    K_S.  A piece of [0, 1] that no disk holds is halved; the straight
    path's integral of 1/rho caps the sum, which is +inf only when 0 or 1
    is not certified inside P."""
    _, [(ends, rho)] = ray_hulls(S, np.array([[0.5 + 0j]]), np.ones((1, 1)), 0.5)
    if rho is None:
        return math.inf, None

    r = rho(np.linspace(0.0, 1.0, _SLICE_KNOTS) + 0j)
    if not (r > 0.0).all():   # in exact arithmetic: 0 or 1 is not inside P
        return math.inf, None
    # rho is concave, so at least linear between knots, and a piece's
    # integral of 1/rho is at most h ln(r1 / r0) / (r1 - r0)
    q = r[1:] / r[:-1] - 1.0
    straight = np.sum(np.divide(np.log1p(q), q, out=np.ones_like(q), where=q != 0.0) / r[:-1])
    chain, pieces, wins = 0.0, [(0.0, 1.0)], []
    for _ in range(_SLICE_SEARCHES):
        if pieces:
            a, b = pieces.pop(0)   # the least padded disk distance of a and b
            value, win = hull_disk_search(ends, rho, np.array([a, b]), functools.partial(
                _padded_disk_upper, a, b, ulp=_round_off(S)))
            chain += value if value < math.inf else 0.0
            pieces += [(a, 0.5 * (a + b)), (0.5 * (a + b), b)] if value == math.inf else []
            wins.append(win)
    # the straight sum padded for its rounding; one search is one disk's distance
    straight = float(straight) / (_SLICE_KNOTS - 1) * (1.0 + 1e-12)
    if pieces or straight <= chain:
        return straight, None
    return chain, disk(*wins[0]) if len(wins) == 1 else None


@functools.cache
def _inclusion_growth(d: int) -> np.ndarray:
    grow = np.ones((len(_INCLUSION_CENTERS) * len(_INCLUSION_RATIOS), d))
    grow[:, 1:] = np.tile(_INCLUSION_RATIOS, len(_INCLUSION_CENTERS))[:, None]
    grow.flags.writeable = False   # shared by every caller
    return grow


def _product_inclusion_upper(D: ConvexDomain, x: np.ndarray, y: np.ndarray) -> float | None:
    """Upper bound from an inscribed polydisk through both points.

    Flat slices cannot see max-type geometry (a slice of a product limit
    degenerates to a strip), but any polydisk P inside D bounds K_D by the
    exact product value max_j K_disk_j.  One fixed family is tried in one
    array pass: 12 centres on the line from the points' midpoint towards
    ``D.anchor()``, each with radii just holding both points, grown along
    5 directions (1, rho, ..., rho) as far as one batched
    ``polydisk_growth`` call allows, less a relative 1e-12.  Returns the
    least value over the polydisks that fit, else None (also when D has no
    structural containment test).
    """
    d = D.dimension
    if d < 2:
        return None
    mid = 0.5 * (x + y)
    anchor = D.anchor()
    span = max(float(np.linalg.norm(anchor - mid)), 1e-300)
    sep = max(float(np.linalg.norm(y - x)), 1e-300)
    # centres from the points' own scale up to the anchor, one row per
    # (centre, growth direction) pair
    ts = min(0.03 * sep / span, 0.5) ** _INCLUSION_CENTERS
    centers = np.repeat(mid + ts[:, None] * (anchor - mid), len(_INCLUSION_RATIOS), axis=0)
    base = np.maximum(np.abs(x - centers), np.abs(y - centers)) * 1.000001 + 1e-12
    grow = _inclusion_growth(d)
    s = D.polydisk_growth(centers, base, grow)
    if s is None:
        return None
    # padded inward: the polydisk stops just short of the boundary
    s = s * (1.0 - 1e-12)
    fits = s > 0
    if not fits.any():
        return None
    # the radii are at least base, so every factor disk holds both with room
    radii = base[fits] + s[fits, None] * grow[fits]
    K = _padded_disk_upper(x, y, centers[fits], radii, _round_off(D))
    return float(K.max(axis=1).min())


def _padded_disk_upper(x, y, centers, radii, ulp: float) -> np.ndarray:
    """The distance of x and y in each disk D(centers, radii) holding both
    with room, elementwise, padded up by its round-off.  In unit
    coordinates a, b: sinh K = |a - b| / sqrt((1 - |a|^2)(1 - |b|^2))."""
    gap_a = 1.0 - np.abs((x - centers) / radii) ** 2
    gap_b = 1.0 - np.abs((y - centers) / radii) ** 2
    # |a - b| as |x - y| / r, with no cancellation between close points
    K = np.arcsinh(np.abs(x - y) / radii / (np.sqrt(gap_a) * np.sqrt(gap_b)))
    # round-off padding: the numerator is good to a few ulps and each gap
    # to a few ulps of 1, so K is good to that many ulps over the gaps
    return K * (1.0 + ulp * (1.0 / gap_a + 1.0 / gap_b))


def _sandwich(D: ConvexDomain, x: np.ndarray, y: np.ndarray, optimize_path: bool = False):
    """(interval, witness): the certified bounds on K_D(x, y) for checked
    points, with the witness of the slice bound (``_slice_upper``).  An
    affine image is pulled back, and its slice is its inner node's, so the
    witness carries over.  Each node takes one lower bound: its parts'
    distances (``projection_lower``), else its supporting half-planes."""
    preimage = D.preimage_pair(x, y)
    if preimage is not None:
        iv, witness = _sandwich(*preimage, optimize_path)
        return iv.with_tags("affine-invariance"), witness

    # a projection dominates the half-planes: a unit functional maps the
    # member of least support, or each factor through the sum map, into the
    # same half-plane.  Factors and members are C-proper and hold the points
    projected = D.projection_lower(x, y, _distance)
    # padded by its round-off, as the half-plane and slice bounds are
    lo = _half_plane_lower(D, x, y) if projected is None else projected * (1.0 - _round_off(D))
    tags = {"projection-lower"} if projected is not None or lo > 0 else set()

    slice_val, slice_exact, slice_tags, witness = _slice_upper(D, x, y)
    # an exact slice value is padded by its round-off, as the half-plane bound is
    his = [slice_val * (1.0 + _round_off(D)) if slice_exact else slice_val]
    tags |= slice_tags

    # the flat slice cannot see max-type geometry; when it is visibly loose
    # an inscribed polydisk often is the better analytic disk family
    if D.dimension >= 2 and slice_val > 1.15 * lo:
        incl = _product_inclusion_upper(D, x, y)
        if incl is not None and incl < min(his):
            his.append(incl)
            tags.add("inclusion-upper")

    if optimize_path:
        _, length = geodesic_approx(D, x, y, OPTIMIZER_NODES)
        his.append(length.hi)
        tags |= length.methods & {"path-optimizer", "optimizer-no-improvement"}

    hi = min(his)
    if hi < lo:
        # exact-in-principle bounds can cross by chart round-off near the
        # boundary; anything beyond that scale is a real bug
        if hi < lo - 5e-9 * max(1.0, lo):
            raise KCat0Error(
                f"sandwich bounds crossed: lo={lo!r} hi={hi!r}; this indicates a bug")
        lo = hi = 0.5 * (lo + hi)
        tags.add("bounds-crossed")
    return DistanceInterval(lo, hi, frozenset(tags)), witness


def _require_inside(D: ConvexDomain, *points: np.ndarray, what: str = "point") -> None:
    """Raise OutsideDomain naming the first point outside D; one membership call."""
    for p, inside in zip(points, D.contains_batch(np.array(points))):
        if not inside:
            raise OutsideDomain(f"{what} {p} is not in the domain")


def _require_c_proper(D: ConvexDomain) -> None:
    if not D.c_proper:
        raise PseudoDistanceOnly("pseudo-distance only: the domain is not C-proper")


def distance(D: ConvexDomain, x, y, *, force_sandwich: bool = False,
             optimize_path: bool = False) -> DistanceInterval:
    """Kobayashi distance as a certified interval (exact where structural)."""
    x = as_point(x, D.dimension)
    y = as_point(y, D.dimension)
    _require_c_proper(D)
    _require_inside(D, x, y)
    return _distance(D, x, y, force_sandwich, optimize_path)


def _distance(D: ConvexDomain, x: np.ndarray, y: np.ndarray, force_sandwich: bool = False,
              optimize_path: bool = False) -> DistanceInterval:
    """``distance`` on points already checked to lie in the C-proper D."""
    if np.array_equal(x, y):
        return DistanceInterval.exact(0.0, "exact-chart")
    if not force_sandwich:
        exact = exact_distance(D, x, y)
        if exact is not None:
            return exact
    return _sandwich(D, x, y, optimize_path)[0]


# ---------------------------------------------------------------------------
# discrete geodesics
# ---------------------------------------------------------------------------


@functools.cache
def _quad_rule(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    nodes, weights = 0.5 * (x + 1.0), 0.5 * w  # transplanted to [0, 1]
    nodes.flags.writeable = weights.flags.writeable = False   # shared by every caller
    return nodes, weights


def _path_objective(D: ConvexDomain, x: np.ndarray, y: np.ndarray, n: int,
                    quad_order: int, smooth_p: float | None = None):
    """Per-segment quadrature lengths of a stack of n-node paths from x to y.

    The returned function maps a (k, 2d(n-2)) stack of interior-node rows
    (real parts, then imaginary parts, node by node) to the (k, n-1) array
    of segment lengths, with one ``contains_batch`` and one metric call for
    all k paths.  A quadrature point outside D costs ``_PENALTY``.
    """
    xs, ws = _quad_rule(quad_order)
    d = D.dimension

    def lengths(U: np.ndarray) -> np.ndarray:
        k = U.shape[0]
        interior = U.reshape(k, n - 2, 2 * d)
        nodes = np.empty((k, n, d), dtype=complex)
        nodes[:, 0] = x
        nodes[:, -1] = y
        nodes[:, 1:-1] = interior[..., :d] + 1j * interior[..., d:]
        seg_a = nodes[:, :-1].reshape(-1, d)
        seg_v = (nodes[:, 1:] - nodes[:, :-1]).reshape(-1, d)
        Z = (seg_a[:, None, :] + xs[None, :, None] * seg_v[:, None, :]).reshape(-1, d)
        V = np.repeat(seg_v, len(xs), axis=0)
        inside = D.contains_batch(Z)
        hi = np.full(Z.shape[0], _PENALTY)
        mask = inside if not inside.all() else slice(None)
        if inside.any():
            if smooth_p is None:
                _, hi_in = metric_bounds_batch(D, Z[mask], V[mask])
            else:
                hi_in = D.metric_hi_smooth(Z[mask], V[mask], smooth_p)
            hi[mask] = hi_in
        return hi.reshape(k, n - 1, len(xs)) @ ws

    return lengths


def _coloured_gradient(lengths, n: int, dim: int):
    """Path length and its forward-difference gradient from one batched call.

    Interior node j moves only segments j and j+1, so nodes two apart never
    share a segment (Curtis, Powell and Reid's colouring of a banded
    Jacobian): one perturbed copy per real coordinate and node parity moves
    every other node at once, and 1 + 4d paths give the whole gradient.
    The step is scipy's default for L-BFGS-B, absolute 1e-8.
    """
    m, width = n - 2, 2 * dim
    node = np.arange(m)[:, None]
    coord = np.arange(width)[None, :]
    colour = 2 * coord + node % 2                # (m, width) -> perturbed copy

    def fg(u: np.ndarray):
        # where 1e-8 is lost in u's rounding, scipy's relative step instead
        step = np.where((u + 1e-8) - u == 0, math.sqrt(sys.float_info.epsilon)
                        * np.where(u >= 0, 1.0, -1.0) * np.maximum(1.0, np.abs(u)), 1e-8)
        moved = (u + step).reshape(m, width)
        U = np.tile(u.reshape(m, width), (1 + 2 * width, 1, 1))
        U[1 + colour, node, coord] = moved
        L = lengths(U.reshape(1 + 2 * width, -1))
        change = L[1:] - L[0]
        grad = (change[colour, node] + change[colour, node + 1]) \
            / (moved - u.reshape(m, width))
        return float(L[0].sum()), grad.reshape(-1)

    return fg


def geodesic_approx(D: ConvexDomain, x, y, n: int = OPTIMIZER_NODES,
                    quad_order: int = OPTIMIZER_QUAD):
    """Shortest discrete path found by local search from the straight
    segment, for ``distance(..., optimize_path=True)`` alone.

    L-BFGS-B minimizes the ``quad_order``-point quadrature length, first on
    the smoothed metric, then in polish rounds on the true one; each
    gradient is a coloured forward difference from one batched evaluation
    of 1 + 4d paths (``_coloured_gradient``).

    Returns ``(nodes, DistanceInterval)``: the (n, d) path nodes and an
    interval whose ``hi`` is their ``REPORT_QUAD``-point quadrature length,
    which does not certify an upper bound, and whose ``lo`` is 0.  The
    straight segment is returned instead, tagged
    ``optimizer-no-improvement``, when the optimized path leaves D or is
    no shorter.
    """
    from scipy.optimize import minimize

    x = as_point(x, D.dimension)
    y = as_point(y, D.dimension)
    if n < 3:
        raise InvalidDomain("need at least 3 path nodes")
    _require_inside(D, x, y, what="endpoint")
    if np.array_equal(x, y):
        return x[None, :].copy(), DistanceInterval.exact(0.0, "path-optimizer")

    ts = np.linspace(0.0, 1.0, n)
    straight = x[None, :] + ts[:, None] * (y - x)[None, :]
    lengths = _path_objective(D, x, y, n, quad_order)
    objective = _coloured_gradient(lengths, n, D.dimension)
    smoothed = _coloured_gradient(_path_objective(D, x, y, n, quad_order, smooth_p=12.0),
                                  n, D.dimension)

    def total(u: np.ndarray) -> float:
        return float(lengths(u[None, :])[0].sum())

    u0 = np.hstack([straight[1:-1].real, straight[1:-1].imag]).reshape(-1)
    # shape-finding pass on the softened metric, then polish on the true one;
    # the smoothed landscape has no max kinks, so quasi-Newton steps work
    pre = minimize(smoothed, u0, jac=True, method="L-BFGS-B",
                   options={"maxiter": 60, "maxls": 40})
    u = pre.x if math.isfinite(pre.fun) else u0
    f_prev = total(u)
    if f_prev >= _PENALTY:
        u, f_prev = u0, total(u0)
    for _ in range(OPTIMIZER_MAX_ROUNDS):
        res = minimize(objective, u, jac=True, method="L-BFGS-B",
                       options={"maxiter": 5, "maxls": 40})
        u = res.x
        f_new = float(res.fun)
        if f_prev - f_new < OPTIMIZER_REL_TOL * max(abs(f_prev), 1e-30):
            f_prev = min(f_prev, f_new)
            break
        f_prev = f_new

    interior = u.reshape(n - 2, 2 * D.dimension)
    nodes = np.vstack([x, interior[:, : D.dimension] + 1j * interior[:, D.dimension:], y])
    scored = _path_objective(D, x, y, n, REPORT_QUAD)(np.stack([u, u0]))
    length, straight_length = scored.sum(axis=1)
    inside = D.contains_batch(np.vstack([nodes, 0.5 * (nodes[:-1] + nodes[1:])])).all()
    warned = not inside or length > straight_length
    if warned:
        nodes, length = straight, straight_length
    tags = {"path-optimizer"} | ({"optimizer-no-improvement"} if warned else set())
    return nodes, DistanceInterval(0.0, float(length), frozenset(tags))


# ---------------------------------------------------------------------------
# midpoints
# ---------------------------------------------------------------------------


def midpoint_search(D: ConvexDomain, x, y, tol: float | None = None):
    """Geodesic midpoint and its certified radius eta.

    On catalog compositions the midpoint is the closed form, checked by its
    residual |d(x,m) - d(m,y)| + |d(x,m) + d(m,y) - d(x,y)| against ``tol``,
    and eta is 0.  Otherwise it is the point m of the segment [x, y] at the
    geodesic midpoint of the slice bound's witness, and eta is its CN radius
    sqrt(d(x,m)^2 / 2 + d(m,y)^2 / 2 - d(x,y)^2 / 4) from the ``hi``, ``hi``
    and ``lo`` bounds: by the Bruhat-Tits CN inequality, if D were CAT(0),
    m would lie within eta of the geodesic midpoint.  Raises
    MidpointNotCertified when the residual or eta exceeds ``tol``, by
    default ``MIDPOINT_TOL_EXACT`` for a closed-form midpoint and
    ``MIDPOINT_TOL_NUMERIC`` for a numeric one.
    """
    m, eta, _, _ = _certified_midpoint(D, as_point(x, D.dimension), as_point(y, D.dimension), tol)
    return m, eta


def _certified_midpoint(D: ConvexDomain, x: np.ndarray, y: np.ndarray,
                        tol: float | None):
    """``midpoint_search`` on points of the right dimension, with the
    tolerance it applied and d(x, y): (m, eta, tol, d_xy).  The closed-form
    midpoint serves both the default tolerance and the midpoint."""
    _require_inside(D, x, y)
    exact = D.exact_midpoint(x, y)
    if tol is None:
        tol = MIDPOINT_TOL_NUMERIC if exact is None else MIDPOINT_TOL_EXACT
    # a NaN tolerance would certify any midpoint
    elif not (math.isfinite(tol) and tol >= 0.0):
        raise InvalidDomain(f"the midpoint tolerance must be finite and at least 0, got {tol}")
    if np.array_equal(x, y):
        return x.copy(), 0.0, tol, DistanceInterval.exact(0.0, "exact-chart")
    _require_c_proper(D)

    if exact is not None:
        m, d_xy = exact, _distance(D, x, y)
    else:
        # the midpoint of 0 and 1 on the slice witness's geodesic, else 1/2.
        # A witness lies in the slice, so each half is at most half its bound
        d_xy, witness = _sandwich(D, x, y)
        t = 0.5 if witness is None else witness.exact_midpoint(as_point(0), as_point(1))[0]
        m = x + t * (y - x)
    _require_inside(D, m)
    d_xm, d_my = _distance(D, x, m), _distance(D, m, y)

    if exact is not None:
        a, b = d_xm.midpoint, d_my.midpoint
        resid = abs(a - b) + abs(a + b - d_xy.midpoint)
        if resid > max(tol, 1e-12):
            raise MidpointNotCertified(
                f"midpoint not certified: residual {resid:.3e} > tol {tol:.3e}")
        return m, 0.0, tol, d_xy

    # round-off padding: the sum of squares is good to a few ulps of its
    # terms' size, and the root to one more
    terms = (0.5 * d_xm.hi ** 2, 0.5 * d_my.hi ** 2, 0.25 * d_xy.lo ** 2)
    eta2 = terms[0] + terms[1] - terms[2] + _round_off(D) * sum(terms)
    eta = math.sqrt(max(0.0, eta2)) * (1.0 + _round_off(D))
    if eta > tol:
        raise MidpointNotCertified(
            f"midpoint not certified: CN radius {eta:.3e} > tol {tol:.3e}")
    return m, eta, tol, d_xy
