"""Convex domain catalog for C^d with boundary-distance oracles.

Domains are immutable trees built from catalog nodes (disks, half-planes,
sectors, balls, products of any number of factors, affine images,
intersections) plus smooth convex graph domains ``{r < 0}``.  A polydisk
is the product of its coordinate disks.  Every node answers:

* ``contains_batch(Z)``    strict interior membership of each row, the
                           one membership implementation; ``contains(z)``
                           is its validated one-row view,
* ``delta_batch(Z)``       Euclidean distance to the boundary of each row,
                           the one Euclidean implementation; ``delta(z)``
                           is its validated one-row view,
* ``delta_dir_batch(Z, V)`` distance to the boundary inside the complex
                           line ``z + C v`` (ambient Euclidean units) of
                           each row pair, the one directional
                           implementation; ``delta_dir(z, v)`` is its
                           validated one-row view,
* ``slice(p, v)``          the planar set ``{t : p + t v in D}``, the
                           validated view of the unchecked ``_slice_set``,
* ``support_upper_batch(A)`` an upper bound for ``sup Re<z, a>`` over
                           the domain for each row ``a`` of ``A`` (``+inf``
                           when unbounded in that direction), used to build
                           certified half-plane bounds; ``support_upper(a)``
                           is its one-row form (``+inf`` off the leaves),
* ``supporting_half_planes(x, y)`` unit functionals with certified supports
                           for the pair (a graph's tangent planes), else None.

and answers for the Kobayashi geometry in ``metric`` from its own closed
forms: ``exact_distance`` (each planar model's cancellation-free ``asinh``
form; ``None`` by default), ``chart`` (onto the upper half-plane, where
``exact_geodesic``, ``exact_midpoint`` and ``unit_speed_ray`` walk),
``metric_bounds`` (closed forms, the members' bounds on an intersection, or
from membership alone the slice hull ``ray_metric_bounds``), ``polydisk_growth``
(batched over rows of centres, base radii and growth directions: the
closed-form growth at which each polydisk meets the boundary, behind the
sandwich's inscribed-polydisk bound) and the sandwich's reductions.  A slice
is itself a planar node; a lens is the Mobius image of a sector.

Every node shoots rays by its ``ray_exit_batch``: a catalog node in closed
form (a disk or ball at a quadratic root, a half-plane or sector at its
sides' linear ones, a composite at its parts' least exit, an affine image
along the pulled-back ray); graph domains and their slices, known only
through membership, by the one ray shooter ``ray_boundary_batch``, which
hands each batched membership call all the rays still running, after cutting
each bracket on r's values (also inside an affine image) about a parabola's
zero, for the same floats in about an eighth of the rounds.  ``ray_min_batch``,
the least ray distance over a span of directions, is the one search built on
them, behind the default ``delta_batch`` and ``delta_dir_batch``: its grid and
each compass round are one ``ray_exit_batch`` call.  Graphs and their slices
(``PlanarOracle``) take all three defaults: the least ray for ``delta_batch``
and ``delta_dir_batch``, and the metric of disks inside a ray hull (``ray_hulls``).

All values are immutable after construction (an intersection keeps its first
anchor) and all queries are pure, so instances are safe to share between threads.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from typing import Callable, Sequence

import numpy as np

from . import planar
from .errors import (
    DimensionMismatch,
    EmptyWindow,
    InvalidDomain,
    OutsideDomain,
)
from .interval import DistanceInterval
from .planar import _SCALE, _TINY, ConformalChart
from .points import as_point, point_from_json, point_to_json

_TWO_PI = 2.0 * math.pi

# Direction grid used by numeric fallbacks and a graph's tangent rays; fixed
# seed keeps results reproducible across runs.
_FALLBACK_SEED = 0x5EC7
_TANGENT_RAYS = 64  # from each of a pair's three points
# ``ray_min_batch``: grid rays (plane, higher spheres), kept rays, steps (rad)
_PLANE_GRID, _SPHERE_GRID, _KEEP, _STEP, _STEP_MIN = 96, 512, 3, 0.1, 1e-8
# disks inside a slice's ray hull: rays, reach, zoom rounds; centre fractions
# towards each ray's end; a 9 x 9 zoom grid
_SLICE_RAYS, _SLICE_REACH, _SLICE_ZOOMS = 96, 1e6, 3
_SLICE_DIRS = np.exp(2j * math.pi * np.arange(_SLICE_RAYS) / _SLICE_RAYS)
_SLICE_FRACTIONS = np.r_[np.geomspace(1e-6, 1 / 16, 8, endpoint=False), np.arange(1, 9) / 9]
_ZOOM_GRID = (np.arange(-4, 5)[:, None] + 1j * np.arange(-4, 5)).ravel()


def _from_real(x: np.ndarray) -> np.ndarray:
    """Complex points from (real parts, imaginary parts) along the last axis."""
    d = x.shape[-1] // 2
    return x[..., :d] + 1j * x[..., d:]


def unit_rows(rng: np.random.Generator, count: int, d: int) -> np.ndarray:
    """``count`` uniform unit vectors of C^d, one per row."""
    raw = rng.normal(size=(count, 2 * d))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    return _from_real(raw)


@lru_cache(maxsize=16)
def seeded_unit_rows(seed: int, count: int, d: int) -> np.ndarray:
    """``unit_rows`` of a generator seeded with ``seed``, kept for the last 16
    (seed, count, d) and shared read-only."""
    U = unit_rows(np.random.default_rng(seed), count, d)
    U.flags.writeable = False
    return U


def _bracket(t: np.ndarray) -> np.ndarray:
    """1e-13 max(1, t): the width to which ``ray_boundary_batch`` bisects a bracket ending at t."""
    return 1e-13 * np.maximum(1.0, t)


def ray_boundary_batch(contains_batch: Callable[[np.ndarray], np.ndarray],
                       start: np.ndarray, directions: np.ndarray, t_max: float = 1e12,
                       level: Callable | None = None) -> np.ndarray:
    """Distance along ``start + t*directions[k]`` to the boundary, per row.

    ``contains_batch`` maps rows of points to a bool array; ``start`` (one
    point, or one per row) must be inside.  Each row halves t = 1 until it is
    inside (0.0 below 1e-300), doubles until it leaves (``inf`` where it is
    still inside at the largest power of two not above ``t_max``, its reach),
    then bisects its bracket [2^(k-1), 2^k] until it is at most ``_bracket(hi)``
    wide, hi its outer end (absolute below t = 1; at most 200 steps), and
    returns its midpoint.  Membership sees running rows.  A ``level`` starts
    each row from the cell of that bisection that ``_level_cells`` finds, so
    where its sign agrees with membership every row returns its cold float.
    With a power of two ``t_max``, a finite row returns any larger one's float.
    """
    n = directions.shape[0]
    out, lo, w = np.empty(n), np.empty(n), np.full(n, math.inf)   # brackets [lo, lo + w]
    start = np.broadcast_to(start, directions.shape)

    def inside(rows: np.ndarray, t: np.ndarray) -> np.ndarray:
        return np.asarray(contains_batch(start[rows] + t[:, None] * directions[rows]), dtype=bool)

    if level is not None:   # checked cells; w is nan where a row ends at 0.0 or inf
        lo[:], b = _level_cells(level, start, directions, t_max)
        out[:], w[:] = np.where(lo > 0, math.inf, 0.0), np.where((lo > 0) & (b <= t_max), b - lo, math.nan)

    t = np.ones(n)
    run = cold = np.flatnonzero(w == math.inf)
    while run.size:  # shrink first in case the boundary is very close
        run = run[~inside(run, t[run])]
        t[run] *= 0.5
        out[run[t[run] < 1e-300]] = 0.0
        run = run[t[run] >= 1e-300]
    run = cold[t[cold] >= 1e-300]
    hi = 2.0 * t  # t is inside, so doubling starts from 2t; a row that halved read 2t outside
    grow = run[(t[run] == 1.0) & (hi[run] <= t_max)]
    while grow.size:
        grow = grow[inside(grow, hi[grow])]
        hi[grow] *= 2.0
        grow = grow[hi[grow] <= t_max]
    out[run[hi[run] > t_max]] = math.inf
    run = run[hi[run] <= t_max]
    lo[run] = w[run] = hi[run] / 2.0
    run = np.flatnonzero(w < math.inf)
    lo, hi, dirs, starts = lo[run], lo[run] + w[run], directions[run], start[run]
    for _ in range(200):
        going = hi - lo > _bracket(hi)
        if not going.all():  # drop converged rows
            out[run[~going]] = 0.5 * (lo[~going] + hi[~going])
            run, lo, hi = run[going], lo[going], hi[going]
            dirs, starts = dirs[going], starts[going]
        if not run.size:
            break
        mid = 0.5 * (lo + hi)
        ins = contains_batch(starts + mid[:, None] * dirs)
        lo, hi = np.where(ins, mid, lo), np.where(ins, hi, mid)
    out[run] = 0.5 * (lo + hi)
    return out


def _cell(g: np.ndarray) -> np.ndarray:
    """Width of the least dyadic cell of g's binade [2^(k-1), 2^k] above the stop."""
    base = np.ldexp(0.5, np.frexp(g)[1])
    width = _bracket(2.0 * base)   # no finer cell is bisected
    return np.minimum(np.ldexp(1.0, np.frexp(width)[1]), base)


def _level_cells(level: Callable[[np.ndarray], np.ndarray], start: np.ndarray,
                 directions: np.ndarray, t_max: float) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) per row, a inside and b outside by the sign of a level of the rows
    convex along each ray: the cold shot's halving and doubling, then cuts on the
    cold bisection's grid down to one of its cells (a = 0 or b > t_max: 0.0 or
    inf, so a row reads inf past the largest power of two not above t_max, as the
    cold shot), at the chord's zero c (inside) and the least z of its mean with b
    and the zeros of the lines through each side's last two points (outside), or,
    where the zero e of the parabola through a, b and b's (else a's) last end lies
    in [c, z] and the row had an e last round, at e -+ its move, within [c, z];
    a row whose last round did not halve its bracket is cut about its middle
    (its grid points next to (a + b) / 2).

    The state holds only the running rows, in row order; a row writes (a, b) out
    when it stops.  A round with no finite bracket (the halving and doubling:
    a = 0 or b = inf, so e is nan) sends one point per row and skips the cuts."""
    n = directions.shape[0]
    out, rows, S, D = np.empty((2, n)), np.arange(n), np.broadcast_to(start, directions.shape), directions
    a, b, qa, qb = np.zeros(n), np.full(n, math.inf), np.zeros(n), np.zeros(n)
    fa, fb, fqa, fqb, ep, wp = (np.full(n, math.nan) for _ in range(6))
    while True:
        W, w = _cell(a), b - a
        go = np.where(a == 0, 0.5 * b >= 1e-300, np.where(
            b == math.inf, 2.0 * a <= t_max, (b <= t_max) & (w > W)))
        if not go.all():
            out[:, rows[~go]] = a[~go], b[~go]
            rows, S, D, W, w, a, b, qa, qb, fa, fb, fqa, fqb, ep, wp = (
                x[go] for x in (rows, S, D, W, w, a, b, qa, qb, fa, fb, fqa, fqb, ep, wp))
        if not rows.size:
            return out[0], out[1]
        cut, t = (a > 0) & (b < math.inf), np.where(a > 0, 2.0 * a, np.minimum(1.0, 0.5 * b))
        if not cut.any():   # halve or double alone
            wp, points = w, [(t, level(S + t[:, None] * D))]
        else:   # the chord's cut (else the halving or doubling) first, then the cut rows' second
            slow, wp, fu = w > 0.5 * wp, w, np.zeros(rows.size)
            with np.errstate(all="ignore"):   # a nan cut falls back to a cell end
                c, *z = [x - f * (y - x) / (g - f) for x, f, y, g in (
                    (a, fa, b, fb), (a, fa, qa, fqa), (b, fb, qb, fqb))]
                z = reduce(np.minimum, [np.where(x > c, x, math.inf) for x in z], 0.5 * (c + b))
                Q, FQ = (np.where(np.isnan(fqb), x, y) for x, y in ((qa, qb), (fqa, fqb)))
                f1 = (fb - fa) / w   # divided differences of the parabola through a, b, Q
                f2 = ((FQ - fb) / (Q - b) - f1) / (Q - a)
                p = f1 - f2 * w
                e = a - 2.0 * fa / (p + np.sqrt(p * p - 4.0 * f2 * fa))   # its zero in (a, b), stably
                h, ep = np.abs(e - ep), e   # e's move since last round; nan keeps c, z
                mid, near = 0.5 * (a + b), (c <= e) & (e <= z)   # mid where the last round did not halve
                lo = np.floor(np.where(slow, mid, np.where(near, np.fmax(c, e - h), c)) / W)
                hi = np.where(slow, mid, np.where(near, np.fmin(z, e + h), z)) / W
                t = np.where(cut, np.fmin(np.fmax(lo * W, a + W), b - W), t)
                u = np.where(cut, np.fmin(np.fmax(np.fmax(np.ceil(hi), lo + 1) * W, a + W), b - W), math.nan)
            v = level(np.concatenate([S + t[:, None] * D, S[cut] + u[cut, None] * D[cut]]))
            fu[cut], points = v[rows.size:], [(t, v[:rows.size]), (u, fu)]
        for s, f in points:   # a point inside [a, b] becomes its side's end, and
            ok = (s > a) & (s < b)   # the end it replaces that side's q
            i, o = ok & (f < 0), ok & ~(f < 0)
            for x, y in ((qa, a), (fqa, fa), (a, s), (fa, f)): np.copyto(x, y, where=i)
            for x, y in ((qb, b), (fqb, fb), (b, s), (fb, f)): np.copyto(x, y, where=o)


def ray_min_batch(D: ConvexDomain, Z: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Least ``D.ray_exit_batch`` distance from each row of Z over the unit
    directions in the real span of B, k real-orthonormal rows of C^d shared by
    all rows of Z or one set per row (shape (n, k, d)).

    A direction grid (even angles for k = 2, else seeded) is shot first; a
    compass search on the sphere then moves each of a row's three shortest
    rays to its best shorter neighbour, one step along +-each tangent axis,
    or else halves its step, down to 1e-8 rad.  All rows run in lockstep, one
    ``D.ray_exit_batch`` call per round.
    """
    n, (k, d) = Z.shape[0], np.shape(B)[-2:]
    B = np.broadcast_to(B, (n, k, d))
    if k == 2:
        a = np.linspace(0.0, _TWO_PI, _PLANE_GRID, endpoint=False)
        grid = np.stack([np.cos(a), np.sin(a)], axis=1)
    else:
        grid = np.random.default_rng(_FALLBACK_SEED).normal(size=(_SPHERE_GRID, k))
        grid /= np.linalg.norm(grid, axis=1, keepdims=True)
    t = D.ray_exit_batch(np.repeat(Z, len(grid), axis=0),
                         np.einsum("gk,nkd->ngd", grid, B).reshape(-1, d)).reshape(n, len(grid))
    keep = np.argsort(t, axis=1)[:, :_KEEP]
    c, t = grid[keep.ravel()], np.take_along_axis(t, keep, axis=1).ravel()
    h = np.where((t > 0.0) & (t < math.inf), _STEP, 0.0)
    while (run := np.flatnonzero(h >= _STEP_MIN)).size:
        # tangent axes: rows 2..k of the Householder reflection taking e_1 to -+c
        w = np.where(c[run, :1] < 0.0, -c[run], c[run]) + np.eye(k)[0]
        T = np.eye(k)[1:] - 2.0 * w[:, 1:, None] * w[:, None, :] / np.sum(w * w, axis=1)[:, None, None]
        nb = (np.cos(h[run])[:, None, None] * c[run][:, None, :]
              + np.sin(h[run])[:, None, None] * np.concatenate([T, -T], axis=1))
        nb /= np.linalg.norm(nb, axis=2, keepdims=True)
        tn = D.ray_exit_batch(np.repeat(Z[run // _KEEP], nb.shape[1], axis=0),
                              np.einsum("rjk,rkd->rjd", nb, B[run // _KEEP]).reshape(-1, d)
                              ).reshape(run.size, -1)
        best = np.argmin(tn, axis=1)
        shorter = tn[np.arange(run.size), best] < t[run]
        c[run[shorter]], t[run[shorter]] = nb[shorter, best[shorter]], tn[shorter, best[shorter]]
        h[run[~shorter]] *= 0.5
    return t.reshape(n, _KEEP).min(axis=1)


def ray_hulls(D: ConvexDomain, Z: np.ndarray, U: np.ndarray, origin: complex = 0.0):
    """(t, hulls): ``_SLICE_RAYS`` rays from each row z of Z within the line
    z + C u (u the unit row of U) in one ``D.ray_exit_batch`` call, and per
    row (ends, rho): the rays' inside ends in the line's coordinate about
    ``origin``, and a safe radius at centres c, so that D(c, rho(c)) lies in
    the ends' hull P (so in the slice), or None when P has under 3 vertices."""
    t = D.ray_exit_batch(np.repeat(Z, _SLICE_RAYS, axis=0),
                         (_SLICE_DIRS[:, None] * U[:, None, :]).reshape(-1, Z.shape[1]),
                         _SLICE_REACH).reshape(-1, _SLICE_RAYS)

    def hull(t: np.ndarray):
        # a ray past the reach was found inside at half of it; an exit t lies
        # within ``_bracket(t)`` above the ray's last inside point (a bisection's
        # checked inside end; a closed form's true exit, to its rounding)
        t = np.where(np.isinf(t), 0.5 * _SLICE_REACH, t)
        ends = origin + np.maximum(t - _bracket(t), 0.0) * _SLICE_DIRS
        # their hull: drop reflex vertices until every turn is left.  Rounding
        # can only drop or keep a vertex wrongly, and a point strictly left of
        # every edge of any closed chain of the ends is enclosed by it, so in S
        P = ends
        while len(P) > 2:
            left = ((P - np.roll(P, 1)).conj() * (np.roll(P, -1) - P)).imag > 0
            if left.all():
                break
            P = P[left]
        if len(P) < 3:
            return ends, None
        Q = np.roll(P, -1)
        n = 1j * (Q - P) / np.abs(Q - P)   # unit inward normals: P runs counter-clockwise
        # each edge line passes through its nearer end N, moved inward by 1e-12
        # (1 + |N|); with 1e-12 |c| in ``rho`` that covers, hundreds of times
        # over, the rounding of N, of the products and of the normal (a tilt of
        # a few ulps, which moves the line by that many ulps of |c - N| at c)
        N = np.where(np.abs(P) <= np.abs(Q), P, Q)
        offset, normals = (N * n.conj()).real + 1e-12 * (1.0 + np.abs(N)), np.stack([n.real, n.imag])

        def rho(c: np.ndarray) -> np.ndarray:
            heights = np.stack([c.real, c.imag], axis=1) @ normals
            heights -= offset   # in place: the one (centres, edges) temporary
            return heights.min(axis=1) - 1e-12 * np.abs(c)

        return ends, rho

    return t, [hull(row) for row in t]


def _window_anchor(D: ConvexDomain, R: float) -> np.ndarray:
    """A point in D and B(0, R): D's anchor, else the point at 0.85 R on the segment
    from it to 0, else the middle of the segment's part in both, whose end in the
    convex D is one ``ray_exit_batch``; only an empty part raises ``EmptyWindow``."""
    anchor = D.anchor()
    norm = float(np.linalg.norm(anchor))
    if norm < 0.9 * R:
        return anchor
    cand = anchor * (0.85 * R / norm)
    if D.contains(cand):
        return cand
    # the segment lies in D at distances from 0 above norm - t, in the window below R
    t = float(D.ray_exit_batch(anchor, -anchor[None, :] / norm)[0])
    lo, hi = max(norm - t, 0.0), min(norm, R)
    cand = anchor * (0.5 * (lo + hi) / norm)
    if lo < hi and D.contains(cand):
        return cand
    raise EmptyWindow(f"no interior point of the domain found inside B(0, {R})")


def window_shot(D: ConvexDomain, R: float, U: np.ndarray):
    """(anchor, t, window): rays along the unit rows of U from an anchor inside
    both D and the window B(0, R), with D's exits t and the window ball's.

    D is shot only as far as the least power of two at or above the longest
    window exit: past such a reach every node reads inf exactly where its exit
    lies beyond it, so min(t, window) is the float an unbounded shot gives."""
    if not R > 0:   # written so that NaN fails
        raise InvalidDomain(f"the window radius must be positive, got {R}")
    if not math.isfinite(R):
        raise InvalidDomain(f"the window radius must be finite, got {R}")
    anchor = _window_anchor(D, R)
    window = Ball(np.zeros(D.dimension), R).ray_exit_batch(anchor, U, 1e9)
    frac, exp = math.frexp(float(np.max(window)))
    return anchor, D.ray_exit_batch(anchor, U, math.ldexp(1.0, exp - (frac == 0.5))), window


def hull_disk_search(ends: np.ndarray, rho: Callable, points: np.ndarray, value: Callable,
                     fractions: np.ndarray = _SLICE_FRACTIONS):
    """(value, (centre, radius)): the least ``value(centres, radii)`` over disks
    D(c, rho(c)) holding the ``points`` with room, centred towards each ray's
    end from their mean at the ``fractions``, then on ``_SLICE_ZOOMS`` ever
    finer grids about the best; (inf, None) when no disk holds them."""
    mid = points.mean()
    # a centre's spacing to its neighbours along and across rays
    spacing = np.maximum.reduce([np.diff(fractions, prepend=0.0), np.diff(fractions, append=1.0),
                                 fractions * 2.0 * math.pi / _SLICE_RAYS])
    centers = (mid + fractions[:, None] * (ends - mid)).ravel()
    best, win, step = math.inf, None, 0.0
    for _ in range(_SLICE_ZOOMS + 1):
        r = rho(centers)
        fit = r > 1.000001 * np.abs(points[:, None] - centers).max(axis=0)
        K = np.full(centers.shape, math.inf)
        K[fit] = value(centers[fit], r[fit])
        k = int(np.argmin(K))
        if K[k] == math.inf:
            return best, win
        if K[k] < best:
            best, win = float(K[k]), (complex(centers[k]), float(r[k]))
        if not step:   # the first zoom spans the best centre's neighbours
            step = abs(ends[k % _SLICE_RAYS] - mid) * spacing[k // _SLICE_RAYS]
        step /= 4.0
        centers = win[0] + step * _ZOOM_GRID
    return best, win


def _lower_radii(t: np.ndarray) -> np.ndarray:
    """Per row of ray brackets t about z = 0: min(2 t_out, R), with t_out the
    least outer end b_i, at least z's distance to the boundary, and the slice
    in D(0, R).  Between rays i and i + 1 it lies on z's side of the line
    through b_i and the inner end a_(i-1) (else the triangle (z, x, a_(i-1))
    would hold b_i) and of the line through b_(i+1) and a_(i+2), so within
    max(|b_i|, |b_(i+1)|, |X|) when the lines meet at X between the rays."""
    with np.errstate(all="ignore"):   # a ray past the reach reads inf, so X nan
        pad = _bracket(t)
        out, a = t + pad, np.maximum(t - pad, 0.0) * _SLICE_DIRS
        b = out * _SLICE_DIRS
        A, B = np.roll(a, 1, axis=1) - b, np.roll(a, -2, axis=1) - np.roll(b, -1, axis=1)
        X = b + A * ((np.roll(b, -1, axis=1) - b).conj() * B).imag / (A.conj() * B).imag
        between = (((_SLICE_DIRS.conj() * X).imag >= 0)
                   & ((np.roll(_SLICE_DIRS, -1).conj() * X).imag <= 0))
        R = np.where(between, np.maximum.reduce([np.abs(X), out, np.roll(out, -1, axis=1)]),
                     math.inf).max(axis=1)
    R = np.where((a != 0).all(axis=1) & np.isfinite(t).all(axis=1), R * (1.0 + 1e-9), math.inf)
    return np.minimum(2.0 * out.min(axis=1), R)


def ray_metric_bounds(D: ConvexDomain, Z: np.ndarray, V: np.ndarray):
    """``metric_bounds`` from membership alone, by one ``ray_hulls`` shot within
    each line z + Cv: lo = |v| / ``_lower_radii``, as the slice lies in D(z, R)
    and in a half-plane at most t_out from z; hi = |v| r / (r^2 - |c|^2), least
    over the searched disks D(c, r), from z itself on, which lie in the slice."""
    def metric(c, r):   # at z, padded: the gap is good to a few ulps of 1
        gap = 1.0 - np.abs(c / r) ** 2
        return (1.0 + 8e-15 / gap) / (r * gap)

    norms = np.linalg.norm(V, axis=1)
    lo, hi, run = np.zeros(len(Z)), np.zeros(len(Z)), np.flatnonzero(norms > 0)
    t, hulls = ray_hulls(D, Z[run], V[run] / norms[run, None])
    lo[run] = norms[run] / _lower_radii(t)
    for i, (ends, rho), row in zip(run, hulls, t):
        # centres from z itself on, and as z nears the boundary, at a few times
        # its distance, which the least fraction of a far ray's end overshoots
        near = row.min() / np.abs(ends).max() * np.geomspace(1.0, 1e5, 6)
        hi[i] = math.inf if rho is None else norms[i] * hull_disk_search(ends, rho, np.zeros(
            1, dtype=complex), metric, np.r_[0.0, near[near < 1e-6], _SLICE_FRACTIONS])[0]
    return lo, hi


# ---------------------------------------------------------------------------
# defining functions
# ---------------------------------------------------------------------------


class RealPolynomial:
    """Multivariate polynomial in the real coordinates (Re z_1, Im z_1, ...).

    Stored as a monomial table ``{(e_1, ..., e_2d): coefficient}``; this is
    also the JSON wire format for graph-domain defining functions.
    ``evaluate_batch`` and ``gradient_batch`` take rows, raising each coordinate
    only to exponents of 2 and more; ``__call__`` is the one-row view of the first.
    """

    def __init__(self, dimension: int, terms: dict[tuple[int, ...], float]):
        self.dimension = int(dimension)
        self.terms = {tuple(int(e) for e in k): float(c)
                      for k, c in terms.items() if c != 0.0}
        for k, c in self.terms.items():
            if len(k) != 2 * self.dimension:
                raise InvalidDomain("monomial exponent length must be 2*d")
            if not math.isfinite(c):
                raise InvalidDomain(f"polynomial coefficient of {list(k)} must be finite, got {c}")
        rows, n = [(np.array(k), c) for k, c in self.terms.items()], 2 * self.dimension
        self._value = self._table([rows])
        self._grad = self._table([[(e - (np.arange(n) == j), c * e[j]) for e, c in rows if e[j]]
                                  for j in range(n)])

    def _table(self, groups: list) -> tuple:
        """One sum of terms c * prod_l x_l^e_l per group (r, or each d/dx_l in
        x1, y1, x2, ... order), led by a zero term: the l and e of each power
        taken (e >= 2), each term's factors with e > 0 as columns of
        [1, x, powers], padded with the ones, and the coefficients."""
        n = 2 * self.dimension
        pairs = sorted({(l, e) for g in groups for k, _ in g for l, e in enumerate(k) if e >= 2})
        col = {**{(l, 1): l + 1 for l in range(n)}, **{p: n + 1 + i for i, p in enumerate(pairs)}}
        terms = [[(c, [col[l, e] for l, e in enumerate(k) if e]) for k, c in g] for g in groups]
        factors = max([1] + [len(f) for g in terms for _, f in g])
        idx = np.zeros((len(groups), 1 + max(map(len, groups)), factors), int)
        coef = np.zeros(idx.shape[:2] + (1,))
        for a, g in enumerate(terms):
            for b, (c, f) in enumerate(g, start=1):
                idx[a, b, :len(f)], coef[a, b] = f, c
        return (*np.array(pairs, int).reshape(-1, 2).T, idx, coef)

    def _sums(self, Z: np.ndarray, table: tuple) -> np.ndarray:
        """Each group's sum at each row of Z, one group per row of the result."""
        cols, exps, idx, coef = table
        X = np.ascontiguousarray(Z, dtype=complex).view(float).T   # rows x1, y1, x2, ... as keyed
        E, F = np.empty((len(exps), X.shape[1])), np.empty((len(X) + 1 + len(exps), X.shape[1]))
        E[:] = exps[:, None]   # not broadcast: numpy's power loop squares a broadcast 2 as x*x, not pow
        F[0], F[1:len(X) + 1] = 1.0, X
        F[len(X) + 1:] = np.power(X[cols].ravel(), E.ravel()).reshape(E.shape)   # (1, 1) would too
        # x^0 = 1 and x^1 = x are exact, so each product in coordinate order and
        # each sum from 0.0 in term order give the floats of the per-term loop
        prod = F[idx[..., 0]]
        for k in range(1, idx.shape[-1]):
            prod *= F[idx[..., k]]
        return np.add.accumulate(coef * prod, axis=1)[:, -1]

    def __call__(self, z) -> float:
        return float(self.evaluate_batch(as_point(z, self.dimension)[None, :])[0])

    def evaluate_batch(self, Z: np.ndarray) -> np.ndarray:
        return self._sums(Z, self._value)[0]

    def gradient_batch(self, Z: np.ndarray) -> np.ndarray:
        """Real gradient of each row in (Re z_1, ..., Re z_d, Im z_1, ..., Im z_d) order."""
        g = self._sums(Z, self._grad)
        return np.concatenate([g[0::2], g[1::2]]).T

    def to_json(self) -> dict:
        return {
            "dimension": self.dimension,
            "monomials": [
                {"exponents": list(k), "coefficient": c}
                for k, c in sorted(self.terms.items())
            ],
        }

    @staticmethod
    def from_json(data: dict) -> "RealPolynomial":
        terms = {tuple(m["exponents"]): m["coefficient"] for m in data["monomials"]}
        return RealPolynomial(data["dimension"], terms)


@dataclass(frozen=True)
class DefiningFunction:
    """Smooth convex defining function r with {r < 0} the domain.

    ``evaluate`` maps a C^d point to a real.  ``value`` and ``grad`` (the
    real gradient, d/dRe then d/dIm) are the one-row views of ``value_batch``
    and ``grad_batch``: a ``polynomial`` (which also gives exact vanishing
    orders) takes all rows at once; an opaque callable is called per row, and
    its gradient is central differences of all rows in one batch.
    """

    dimension: int
    evaluate: Callable[[np.ndarray], float]
    polynomial: RealPolynomial | None = None

    @staticmethod
    def from_polynomial(poly: RealPolynomial) -> "DefiningFunction":
        return DefiningFunction(dimension=poly.dimension, evaluate=poly, polynomial=poly)

    def value(self, z) -> float:
        return float(self.value_batch(as_point(z, self.dimension)[None, :])[0])

    def value_batch(self, Z: np.ndarray) -> np.ndarray:
        if self.polynomial is not None:
            return self.polynomial.evaluate_batch(Z)
        return np.array([float(self.evaluate(z)) for z in Z])

    def grad(self, z) -> np.ndarray:
        return self.grad_batch(as_point(z, self.dimension)[None, :])[0]

    def grad_batch(self, Z: np.ndarray) -> np.ndarray:
        if self.polynomial is not None:
            return self.polynomial.gradient_batch(Z)
        n, h = 2 * self.dimension, 1e-6
        X, E = np.concatenate([Z.real, Z.imag], axis=1)[:, None, :], h * np.eye(n)
        P = _from_real(np.concatenate([X + E, X - E], axis=1)).reshape(-1, self.dimension)
        v = self.value_batch(P).reshape(-1, 2, n)
        return (v[:, 0] - v[:, 1]) / (2 * h)

    def complex_gradient(self, z) -> np.ndarray:
        """d r / d z_j = (d/dx_j - i d/dy_j)/2."""
        g = self.grad(z)
        d = self.dimension
        return 0.5 * (g[:d] - 1j * g[d:])


# ---------------------------------------------------------------------------
# the node tree
# ---------------------------------------------------------------------------


class ConvexDomain:
    """Abstract base for catalog nodes and graph domains."""

    dimension: int
    level_batch = None   # a defining function of the rows, on nodes that know one

    # -- membership ---------------------------------------------------------

    def contains(self, z) -> bool:
        """Strict interior membership; boundary points answer False."""
        return self._contains(as_point(z, self.dimension))

    def contains_batch(self, Z: np.ndarray) -> np.ndarray:
        """Strict interior membership of each row of Z; every node's one
        membership implementation."""
        raise NotImplementedError

    def _contains(self, z: np.ndarray) -> bool:
        return bool(self.contains_batch(z[None, :])[0])

    def ray_exit_batch(self, Z: np.ndarray, U: np.ndarray, t_max: float = 1e12) -> np.ndarray:
        """Distance from rows Z (or one start) along U to the boundary, 0.0 from a start
        not inside, inf past ``t_max``: ``ray_boundary_batch``, led by ``level_batch``.
        This bisection reads inf past the largest power of two not above ``t_max``,
        a closed form (``_exits``) past ``t_max`` itself; both agree at a power of two.
        Z and U may be read-only: no node writes into them."""
        return ray_boundary_batch(self.contains_batch, Z, U, t_max, level=self.level_batch)

    # -- boundary distances --------------------------------------------------

    def delta(self, z) -> float:
        """Euclidean distance from an interior point to the boundary."""
        z = as_point(z, self.dimension)
        if not self._contains(z):
            raise OutsideDomain(f"point {z} is not interior to the domain")
        return float(self.delta_batch(z[None, :])[0])

    def delta_batch(self, Z: np.ndarray) -> np.ndarray:
        """``delta`` of each interior row of Z; every node's one Euclidean
        implementation, and ``delta`` is its validated one-row view.  This
        default, from membership alone, is the least ray over all of C^d: a
        found ray, so an upper bound on delta to within its exit bracket
        (``_bracket``), not a certified value."""
        unit = np.eye(self.dimension)
        return ray_min_batch(self, Z, np.concatenate([unit, 1j * unit]))

    def delta_dir(self, z, v) -> float:
        """Distance to the boundary within the complex line z + Cv."""
        z = as_point(z, self.dimension)
        v = as_point(v, self.dimension)
        if not np.any(v):
            raise InvalidDomain("direction v must be nonzero")
        if not self._contains(z):
            raise OutsideDomain(f"point {z} is not interior to the domain")
        return float(self.delta_dir_batch(z[None, :], v[None, :])[0])

    def delta_dir_batch(self, Z: np.ndarray, V: np.ndarray) -> np.ndarray:
        """``delta_dir`` of each row pair (interior Z, nonzero V); every node's
        one directional implementation, and ``delta_dir`` is its validated
        one-row view.  Nodes with closed forms override this default."""
        if self.dimension == 1:   # the only complex line is the whole plane
            return self.delta_batch(Z)
        U = V / np.linalg.norm(V, axis=1, keepdims=True)   # searched on the line's own membership
        return ray_min_batch(self, Z, np.stack([U, 1j * U], axis=1))

    # -- slices ---------------------------------------------------------------

    def slice(self, p, v) -> "ConvexDomain":
        """The planar node {t in C : p + t v in D}; the validated view of
        ``_slice_set``, which composites and the sandwich call on checked points."""
        p = as_point(p, self.dimension)
        v = as_point(v, self.dimension)
        if not np.any(v):
            raise InvalidDomain("direction v must be nonzero")
        return self._slice_set(p, v)

    def _slice_set(self, p: np.ndarray, v: np.ndarray) -> "ConvexDomain":
        raise NotImplementedError

    # -- misc -----------------------------------------------------------------

    @property
    def c_proper(self) -> bool:
        raise NotImplementedError

    def anchor(self) -> np.ndarray:
        """Some interior point, used as a ray-shooting origin."""
        raise NotImplementedError

    def support_upper(self, a) -> float:
        """Upper bound for sup_{z in D} Re<z, a>; +inf when unbounded."""
        return float(self.support_upper_batch(as_point(a, self.dimension)[None, :])[0])

    def support_upper_batch(self, A: np.ndarray) -> np.ndarray:
        """``support_upper`` of each row of A; +inf, which certifies nothing,
        where a node knows no support (a composite, a graph or an oracle set)."""
        return np.full(A.shape[0], math.inf)

    def supporting_half_planes(self, x: np.ndarray, y: np.ndarray):
        """(F, h) for the pair x, y: unit functionals a as rows of F, with h an
        upper bound for sup Re<z, a>; None where the functional grid serves."""
        return None

    def to_spec(self) -> dict:
        raise NotImplementedError

    def __repr__(self) -> str:  # compact structural form, good for reports
        return f"{type(self).__name__}(d={self.dimension})"

    # -- Kobayashi geometry (defaults; catalog nodes override them) ----------

    exact_tag = "exact-chart"   # method tags of a closed-form metric value,
    bound_tag = "delta-bound"   # and of bounds lo < hi that no slice hull made

    def chart(self) -> ConformalChart | None:
        """Conformal chart onto the upper half-plane, or None."""
        return None

    # bounds (lo, hi) on the infinitesimal metric at rows Z on rows V; this
    # default, from membership alone, is the slice hull
    metric_bounds = ray_metric_bounds

    def metric_hi_smooth(self, Z: np.ndarray, V: np.ndarray, p: float) -> np.ndarray:
        """Upper metric with max-type combinations softened to a p-norm, which
        dominates the max (so lengths stay upper bounds) and gives the path
        optimizer a landscape without max kinks."""
        return self.metric_bounds(Z, V)[1]

    def exact_distance(self, x: np.ndarray, y: np.ndarray) -> DistanceInterval | None:
        """Structurally exact Kobayashi distance, or None."""
        return None

    def exact_geodesic(self, x: np.ndarray, y: np.ndarray) -> Callable | None:
        """t -> point at t in [0, 1] of the constant-speed geodesic, or None."""
        ch = self._walk_chart(x, y)
        if ch is None:
            return None
        if np.array_equal(x, y):
            return lambda t: x.copy()
        s0, s1 = complex(ch.forward(complex(x[0]))), complex(ch.forward(complex(y[0])))
        return lambda t: as_point([ch.inverse(planar.half_plane_geodesic(s0, s1, t))])

    def exact_midpoint(self, x: np.ndarray, y: np.ndarray) -> np.ndarray | None:
        """Midpoint of the exact geodesic, or None."""
        g = self.exact_geodesic(x, y)
        return None if g is None else g(0.5)

    def unit_speed_ray(self, w: np.ndarray) -> Callable | None:
        """t -> the point at distance t from w on a geodesic ray, or None."""
        ch = self._walk_chart(w, w)
        if ch is None:
            return None
        s = complex(ch.forward(complex(w[0])))
        # vertical in the chart: |ds| / (2 Im s) makes Im s grow by e^(2t)
        return lambda t: as_point([ch.inverse(complex(s.real, s.imag * math.exp(2.0 * t)))])

    def _walk_chart(self, x: np.ndarray, y: np.ndarray) -> ConformalChart | None:
        """The chart that geodesics and rays through x and y are walked in."""
        return self.chart()

    def polydisk_growth(self, centers: np.ndarray, base: np.ndarray,
                        grow: np.ndarray) -> np.ndarray | None:
        """For each row of the (k, d) centres, base radii and positive growth
        directions, the s at which the closed polydisk with radii
        ``base + s * grow`` meets the boundary (negative: ``base`` does not
        fit), or None where no structural test exists."""
        return None

    def projection_lower(self, x: np.ndarray, y: np.ndarray, distance: Callable) -> float | None:
        """Lower bound for K(x, y) from ``distance`` on the domains this one
        maps into holomorphically (factors, members), or None."""
        return None

    def preimage_pair(self, x: np.ndarray, y: np.ndarray):
        """(inner, x', y') when this node is a biholomorphic image of ``inner``
        carrying x', y' to x, y; else None."""
        return None


# -- planar catalog nodes ----------------------------------------------------


def _exits(D: ConvexDomain, Z: np.ndarray, U: np.ndarray, t: np.ndarray, t_max: float) -> np.ndarray:
    """Exits t on ``ray_boundary_batch``'s contract: 0.0 from a start not in D,
    inf past t_max itself (bisection: past the largest power of two not above it)."""
    inside = D.contains_batch(np.broadcast_to(Z, U.shape))
    return np.where(inside, np.where(t > t_max, math.inf, t), 0.0)


def _sphere_exit(D: Disk | Ball, Z: np.ndarray, U: np.ndarray, t_max: float = 1e12) -> np.ndarray:
    """A disk's or ball's ``ray_exit_batch``: the positive root of
    |w + t u|^2 = R^2, w = z - c, as room / (p + s) or (s - p) / |u|^2 with
    p = Re<w, u>, so that neither subtracts (inf where u = 0)."""
    W = np.broadcast_to(Z - D.center, U.shape)
    a, p = np.sum(np.abs(U) ** 2, axis=1), np.sum(W * U.conj(), axis=1).real
    room = np.maximum(D.radius ** 2 - np.sum(np.abs(W) ** 2, axis=1), 0.0)
    s = np.sqrt(p * p + a * room)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(p > 0, room / (p + s), (s - p) / a)
    return _exits(D, Z, U, np.where(a > 0, t, math.inf), t_max)


class Disk(ConvexDomain):
    def __init__(self, center: complex = 0.0, radius: float = 1.0):
        if not (0 < radius < math.inf and cmath.isfinite(center)):
            raise InvalidDomain(f"disk needs a finite center and a positive finite radius, "
                                f"got center {center} and radius {radius}")
        self.center = complex(center)
        self.radius = float(radius)
        self.dimension = 1

    def contains_batch(self, Z):
        return np.abs(Z[:, 0] - self.center) < self.radius

    ray_exit_batch = _sphere_exit

    def delta_batch(self, Z):
        return self.radius - np.abs(Z[:, 0] - self.center)

    def _slice_set(self, p, v):
        return Disk((self.center - p[0]) / v[0], self.radius / abs(v[0]))

    @property
    def c_proper(self):
        return True

    def anchor(self):
        return as_point([self.center])

    def support_upper_batch(self, A):
        return (self.center * np.conj(A[:, 0])).real + self.radius * np.abs(A[:, 0])

    def to_spec(self):
        return {"type": "disk",
                "center": [self.center.real, self.center.imag],
                "radius": self.radius}

    def chart(self):
        # s = i (1 + u) / (1 - u) = (i (1 - |u|^2) - 2 Im u) / |1 - u|^2 with
        # u = (z - c) / r: the gap is exact and r (1 - u) is summed exactly
        c, r = self.center, self.radius

        def forward(z):
            d = abs(complex(math.fsum((r, c.real, -z.real)), c.imag - z.imag))   # r |1 - u|
            return r * complex(2.0 * (c.imag - z.imag), r * planar.ball_gap([z], [c], r)) / (d * d)

        return ConformalChart(forward, lambda s: c + r * (s - 1j) / (s + 1j), "disk")

    def metric_bounds(self, Z, V):
        k = np.abs(V[:, 0]) * self.radius / (self.radius ** 2 - np.abs(Z[:, 0] - self.center) ** 2)
        return k, k.copy()

    def exact_distance(self, x, y):
        return DistanceInterval.exact(planar.ball_distance(x, y, [self.center], self.radius),
                                      "exact-chart")

    def polydisk_growth(self, centers, base, grow):
        margin = self.radius - np.abs(centers[:, 0] - self.center)
        return (margin - base[:, 0]) / grow[:, 0]


class HalfPlane(ConvexDomain):
    """{z : Re((z - p) conj(n)) > 0} with unit inward normal n."""

    def __init__(self, boundary_point: complex = 0.0, inward_normal: complex = 1j):
        n = complex(inward_normal)
        if n == 0 or not (cmath.isfinite(n) and cmath.isfinite(boundary_point)):
            raise InvalidDomain(f"half-plane needs a finite boundary point and a nonzero finite inward "
                                f"normal, got boundary point {boundary_point} and normal {n}")
        self.boundary_point = complex(boundary_point)
        self.inward_normal = n / abs(n)
        self.dimension = 1

    def contains_batch(self, Z):
        return ((Z[:, 0] - self.boundary_point) * np.conj(self.inward_normal)).real > 0

    def ray_exit_batch(self, Z, U, t_max=1e12):
        n = np.conj(self.inward_normal)   # the depth, and the speed towards the line
        depth = ((np.broadcast_to(Z, U.shape)[:, 0] - self.boundary_point) * n).real
        rate = -(U[:, 0] * n).real
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(rate > 0, depth / rate, math.inf)
        return _exits(self, Z, U, t, t_max)

    def delta_batch(self, Z):
        return ((Z[:, 0] - self.boundary_point) * np.conj(self.inward_normal)).real

    def _slice_set(self, p, v):
        m = np.conj(v[0]) * self.inward_normal
        c0 = ((p[0] - self.boundary_point) * np.conj(self.inward_normal)).real
        # slice is {t : Re(t conj(m)) > -c0}
        bp = -c0 * m / abs(m) ** 2
        return HalfPlane(bp, m)

    @property
    def c_proper(self):
        return True

    def anchor(self):
        return as_point([self.boundary_point + self.inward_normal])

    def support_upper_batch(self, A):
        a = A[:, 0]
        mag = np.abs(a)
        u = np.divide(a, mag, out=np.zeros_like(a), where=mag > 0)
        # finite only along the outward normal, to the bit: any tilt makes
        # the sup infinite.  The zero functional gives 0
        out = np.where(u == -self.inward_normal, (self.boundary_point * np.conj(a)).real, math.inf)
        return np.where(mag > 0, out, 0.0)

    def to_spec(self):
        return {"type": "halfplane",
                "boundary_point": [self.boundary_point.real, self.boundary_point.imag],
                "inward_normal": [self.inward_normal.real, self.inward_normal.imag]}

    def chart(self):
        # the rigid motion taking the inward normal to i
        p, n = self.boundary_point, self.inward_normal
        return ConformalChart(lambda z: 1j * (z - p) * np.conj(n),
                              lambda s: p - 1j * s * n,
                              "halfplane")

    def metric_bounds(self, Z, V):
        dist = ((Z[:, 0] - self.boundary_point) * np.conj(self.inward_normal)).real
        k = np.abs(V[:, 0]) / (2.0 * dist)
        return k, k.copy()

    def exact_distance(self, x, y):
        # in the half-plane's own coordinates: sinh K = |x - y| / (2 sqrt(delta(x) delta(y)))
        gx, gy = np.sqrt(self.delta_batch(np.array([x, y])))
        return DistanceInterval.exact(math.asinh(abs(x[0] - y[0]) / (2.0 * float(gx * gy))), "exact-chart")

    def polydisk_growth(self, centers, base, grow):
        margin = ((centers[:, 0] - self.boundary_point) * np.conj(self.inward_normal)).real
        return (margin - base[:, 0]) / grow[:, 0]


class Sector(ConvexDomain):
    """vertex + {z : arg z in (alpha, beta)} with opening in (0, pi).

    Opening exactly pi is canonicalized to a HalfPlane by the ``sector``
    factory.  The chart is w -> w^q, q = pi / opening, of the rotated
    w = (z - vertex) e^(-i alpha); geodesics and rays take it after a
    dilation about the vertex, an automorphism, that keeps w^q finite.
    """

    def __init__(self, vertex: complex = 0.0, alpha: float = 0.0, beta: float = math.pi / 2):
        if not 0 < beta - alpha < math.pi + 1e-15:
            raise InvalidDomain("sector opening must lie in (0, pi]")
        if not cmath.isfinite(vertex):
            raise InvalidDomain(f"sector vertex must be finite, got {vertex}")
        self.vertex = complex(vertex)
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.dimension = 1

    @property
    def opening(self) -> float:
        return self.beta - self.alpha

    def contains_batch(self, Z):
        w = Z[:, 0] - self.vertex
        ang = np.angle(w * np.exp(-1j * self.alpha))
        ang = np.where(ang <= -math.pi, ang + _TWO_PI, ang)
        return (w != 0) & (ang > 0) & (ang < self.opening)

    def ray_exit_batch(self, Z, U, t_max=1e12):
        # an opening below pi: left of the ray at alpha and right of the ray at beta
        sides = (HalfPlane(self.vertex, 1j * np.exp(1j * self.alpha)),
                 HalfPlane(self.vertex, -1j * np.exp(1j * self.beta)))
        return _exits(self, Z, U, np.minimum(*(h.ray_exit_batch(Z, U, math.inf) for h in sides)), t_max)

    def _ray_distance(self, w: np.ndarray, theta: float) -> np.ndarray:
        """Distance of each w (taken from the vertex) to the ray at angle theta."""
        u = w * np.exp(-1j * theta)
        return np.where(u.real >= 0, np.abs(u.imag), np.abs(u))

    def delta_batch(self, Z):
        w = Z[:, 0] - self.vertex
        return np.minimum(self._ray_distance(w, self.alpha), self._ray_distance(w, self.beta))

    def _slice_set(self, p, v):
        rot = np.angle(v[0])
        return Sector((self.vertex - p[0]) / v[0], self.alpha - rot, self.beta - rot)

    @property
    def c_proper(self):
        return True

    def anchor(self):
        mid = 0.5 * (self.alpha + self.beta)
        return as_point([self.vertex + np.exp(1j * mid)])

    def support_upper_batch(self, A):
        a = A[:, 0]
        theta = np.angle(a)
        # the sup is finite only when theta points out of the cone and no
        # cone direction has a positive component along theta
        into = (theta - self.alpha) % _TWO_PI < self.opening
        maxcos = np.maximum(np.cos(self.alpha - theta), np.cos(self.beta - theta))
        out = np.where(into | (maxcos > 1e-15), math.inf, (self.vertex * np.conj(a)).real)
        return np.where(a != 0, out, 0.0)

    def to_spec(self):
        return {"type": "sector",
                "vertex": [self.vertex.real, self.vertex.imag],
                "alpha": self.alpha, "beta": self.beta}

    def chart(self):
        return self._dilated_chart(1.0)

    def _walk_chart(self, x, y):   # at the geometric-mean modulus w^q spans e^(+-K)
        return self._dilated_chart(math.sqrt(abs(x[0] - self.vertex))
                                   * math.sqrt(abs(y[0] - self.vertex)))

    def _dilated_chart(self, rho: float) -> ConformalChart:
        """The chart after the dilation by 1 / rho about the vertex."""
        V, q = self.vertex, math.pi / self.opening
        rot = np.exp(-1j * self.alpha) / rho
        return ConformalChart(lambda z: np.exp(q * np.log((z - V) * rot)),
                              lambda s: V + np.exp(np.log(s) / q) / rot,
                              "sector")

    def exact_distance(self, x, y):
        # w^q overflows for points far from the vertex, so the distance is
        # taken in the upper half-plane w -> w^q maps onto, in logarithms: with
        # w_k = r_k e^(i phi_k) from the vertex and a + ib = q log(w_0 / w_1) / 2,
        # sinh(d)^2 = (sinh(a)^2 + sin(b)^2) / (sin(q phi_0) sin(q phi_1)); the
        # ratio keeps close points' digits at any scale, a fixed order symmetry
        q = math.pi / self.opening
        w = (np.array(sorted([x[0], y[0]], key=lambda c: (c.real, c.imag)))
             - self.vertex) * np.exp(-1j * self.alpha)
        half = 0.5 * q * np.log(w[0] / w[1])
        a, b = float(half.real), float(half.imag)
        t = q * np.angle(w)
        p = math.sin(t[0]) * math.sin(t[1])
        if abs(a) > 20.0:   # asinh(X) = ln(2X) to double precision; sinh overflows past 710
            val = abs(a) - 0.5 * math.log(p)
        else:
            val = math.asinh(math.hypot(math.sinh(a), math.sin(b)) / math.sqrt(p))
        return DistanceInterval.exact(val, "exact-chart")

    def metric_bounds(self, Z, V):
        # |d(w^q)| / (2 Im w^q) = q |v| / (2 |w| sin(q arg w)), with no power taken
        q = math.pi / self.opening
        w = (Z[:, 0] - self.vertex) * np.exp(-1j * self.alpha)
        k = q * np.abs(V[:, 0]) / (2.0 * np.abs(w) * np.sin(q * np.angle(w)))
        return k, k.copy()

    def polydisk_growth(self, centers, base, grow):
        w = centers[:, 0] - self.vertex
        depth = np.minimum(self._ray_distance(w, self.alpha), self._ray_distance(w, self.beta))
        return (np.where(self.contains_batch(centers), depth, -np.abs(w)) - base[:, 0]) / grow[:, 0]


def sector(vertex: complex = 0.0, alpha: float = 0.0, beta: float = math.pi / 2) -> ConvexDomain:
    """Sector factory; an opening of exactly pi becomes a HalfPlane."""
    opening = beta - alpha
    if not 0 < opening <= math.pi + 1e-12:
        raise InvalidDomain("sector opening must lie in (0, pi]")
    if abs(opening - math.pi) <= 1e-12:
        mid = 0.5 * (alpha + beta)
        return HalfPlane(vertex, np.exp(1j * mid))
    return Sector(vertex, alpha, beta)


def upper_half_plane() -> HalfPlane:
    return HalfPlane(0.0, 1j)


def right_half_plane() -> HalfPlane:
    return HalfPlane(0.0, 1.0)


def disk(center: complex, radius: float) -> Disk:
    return Disk(center, radius)


def unit_disk() -> Disk:
    return Disk(0.0, 1.0)


# -- higher-dimensional catalog nodes ----------------------------------------


class Ball(ConvexDomain):
    def __init__(self, center, radius: float = 1.0):
        if not 0 < radius < math.inf:
            raise InvalidDomain(f"ball radius must be positive and finite, got {radius}")
        self.center = as_point(center)
        self.radius = float(radius)
        self.dimension = self.center.shape[0]

    def contains_batch(self, Z):
        return np.linalg.norm(Z - self.center[None, :], axis=1) < self.radius

    ray_exit_batch = _sphere_exit

    def delta_batch(self, Z):
        return self.radius - np.linalg.norm(Z - self.center[None, :], axis=1)

    def _slice_set(self, p, v):
        # the slice of a ball is always a disk in the parameter plane
        w, s, nv2 = p - self.center, 1.0, float(np.vdot(v, v).real)
        if nv2 < _TINY:   # |v|^2 could underflow: the disk along v 2^600, scaled back (exact)
            v, s = v * _SCALE, _SCALE
            nv2 = float(np.vdot(v, v).real)
        wv = complex(np.sum(w * np.conj(v)))  # <w, v>, holomorphic in w
        center = -wv / nv2   # |center|^2, not |<w, v>|^2 / |v|^4, which underflows
        rho2 = (self.radius ** 2 - float(np.vdot(w, w).real)) / nv2 + abs(center) ** 2
        if rho2 <= 0:
            raise OutsideDomain("complex line does not meet the ball")
        return Disk(center * s, math.sqrt(rho2) * s)

    def delta_dir_batch(self, Z, V):
        W = Z - self.center[None, :]
        nv2 = np.sum(np.abs(V) ** 2, axis=1)
        center = np.abs(np.sum(W * np.conj(V), axis=1)) / nv2   # |the slice's centre|
        rho2 = (self.radius ** 2 - np.sum(np.abs(W) ** 2, axis=1)) / nv2 + center ** 2
        rho = np.sqrt(np.maximum(rho2, 0.0))
        return np.sqrt(nv2) * (rho - center)

    @property
    def c_proper(self):
        return True

    def anchor(self):
        return self.center.copy()

    def support_upper_batch(self, A):
        return (np.sum(self.center * np.conj(A), axis=1).real
                + self.radius * np.linalg.norm(A, axis=1))

    def to_spec(self):
        return {"type": "ball", "center": point_to_json(self.center),
                "radius": self.radius}

    def chart(self):
        # a one-dimensional ball is a disk
        return Disk(self.center[0], self.radius).chart() if self.dimension == 1 else None

    def metric_bounds(self, Z, V):
        zs = (Z - self.center[None, :]) / self.radius
        vs = V / self.radius
        one = 1.0 - np.sum(np.abs(zs) ** 2, axis=1)
        pair = np.abs(np.sum(vs * np.conj(zs), axis=1)) ** 2
        k = np.sqrt(np.sum(np.abs(vs) ** 2, axis=1) * one + pair) / one
        return k, k.copy()

    def exact_distance(self, x, y):
        return DistanceInterval.exact(planar.ball_distance(x, y, self.center, self.radius),
                                      "exact-chart")

    def exact_geodesic(self, x, y):
        if np.array_equal(x, y):
            return lambda t: x.copy()
        # the length from the cancellation-free form; only the direction
        # comes from the Mobius image, whose modulus rounds to 1 near the sphere
        unit_x = (x - self.center) / self.radius
        w = ball_mobius(unit_x, (y - self.center) / self.radius)
        u = w / float(np.linalg.norm(w))
        K = planar.ball_distance(x, y, self.center, self.radius)
        return lambda t: self.center + self.radius * ball_mobius(unit_x, math.tanh(t * K) * u)

    def unit_speed_ray(self, w):
        unit_w = (w - self.center) / self.radius
        e1 = np.zeros(self.dimension, dtype=complex)
        e1[0] = 1.0
        return lambda t: self.center + self.radius * ball_mobius(unit_w, math.tanh(t) * e1)

    def polydisk_growth(self, centers, base, grow):
        # the root of |a + s g| = R, without cancellation: (R^2 - |a|^2) over
        # a.g + sqrt((a.g)^2 + |g|^2 (R^2 - |a|^2)); where no root exists the
        # base does not fit, and a clipped discriminant keeps s negative
        a = np.abs(centers - self.center) + base
        room = self.radius ** 2 - (a * a).sum(axis=1)
        ag = (a * grow).sum(axis=1)
        disc = np.maximum(ag * ag + (grow * grow).sum(axis=1) * room, 0.0)
        return room / (ag + np.sqrt(disc))


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


class Product(ConvexDomain):
    """Cartesian product of any number of factors, in coordinate order."""

    def __init__(self, *factors: ConvexDomain):
        if not factors:
            raise InvalidDomain("a product needs at least one factor")
        self.factors = tuple(factors)
        ends = np.cumsum([f.dimension for f in self.factors])
        self.dimension = int(ends[-1])
        # basic slices give views, and split runs on every path-objective
        # evaluation
        self._slices = tuple(slice(int(e) - f.dimension, int(e))
                             for f, e in zip(self.factors, ends))

    def split(self, z: np.ndarray) -> list[np.ndarray]:
        """One view per factor along the last axis (a point or rows of points)."""
        return [z[..., s] for s in self._slices]

    def contains_batch(self, Z):
        return reduce(np.logical_and, [f.contains_batch(Zf)
                                       for f, Zf in zip(self.factors, self.split(Z))])

    def ray_exit_batch(self, Z, U, t_max=1e12):
        return reduce(np.minimum, [f.ray_exit_batch(Zf, Uf, t_max)
                                   for f, Zf, Uf in zip(self.factors, self.split(Z), self.split(U))])

    def delta_batch(self, Z):
        return reduce(np.minimum, [f.delta_batch(Zf) for f, Zf in zip(self.factors, self.split(Z))])

    def _slice_set(self, p, v):
        return intersection([f._slice_set(pf, vf) for f, pf, vf
                             in zip(self.factors, self.split(p), self.split(v))
                             if np.any(vf)])

    def delta_dir_batch(self, Z, V):
        # a factor measures in units of |V_f|; the slice is the intersection
        # of the factor slices, so take the least parameter-plane distance
        out = np.full(Z.shape[0], np.inf)
        for f, Zf, Vf in zip(self.factors, self.split(Z), self.split(V)):
            moving = np.any(Vf != 0, axis=1)
            if moving.any():
                Zm, Vm = Zf[moving], Vf[moving]
                out[moving] = np.minimum(out[moving], f.delta_dir_batch(Zm, Vm)
                                         / np.linalg.norm(Vm, axis=1))
        return out * np.linalg.norm(V, axis=1)

    @property
    def c_proper(self):
        return all(f.c_proper for f in self.factors)

    def anchor(self):
        return np.concatenate([f.anchor() for f in self.factors])

    def to_spec(self):
        # the wire format is binary: three or more factors nest to the right
        if len(self.factors) == 1:
            return self.factors[0].to_spec()
        return {"type": "product", "left": self.factors[0].to_spec(),
                "right": Product(*self.factors[1:]).to_spec()}

    # the Kobayashi metric of a product is the max over its factors
    exact_tag = "product-max"

    def chart(self):
        return self.factors[0].chart() if len(self.factors) == 1 else None

    def metric_bounds(self, Z, V):
        los, his = zip(*[f.metric_bounds(Zf, Vf)
                         for f, Zf, Vf in zip(self.factors, self.split(Z), self.split(V))])
        return reduce(np.maximum, los), reduce(np.maximum, his)

    def metric_hi_smooth(self, Z, V, p):
        return sum(f.metric_hi_smooth(Zf, Vf, p) ** p
                   for f, Zf, Vf in zip(self.factors, self.split(Z), self.split(V))) ** (1.0 / p)

    def exact_distance(self, x, y):
        parts = [f.exact_distance(xf, yf)
                 for f, xf, yf in zip(self.factors, self.split(x), self.split(y))]
        if None in parts:
            return None
        tags = frozenset().union(*(p.methods for p in parts))
        return DistanceInterval(max(p.lo for p in parts), max(p.hi for p in parts),
                                tags | {"product-max"} if len(parts) > 1 else tags)

    def exact_geodesic(self, x, y):
        parts = [f.exact_geodesic(xf, yf)
                 for f, xf, yf in zip(self.factors, self.split(x), self.split(y))]
        if None in parts:
            return None
        return lambda t: np.concatenate([g(t) for g in parts])

    def exact_midpoint(self, x, y):
        """Midpoint with the tie-break rule: in a max-metric product a factor
        whose separation is at most half the largest one is held at its start;
        every other factor moves to its own midpoint."""
        parts = list(zip(self.factors, self.split(x), self.split(y)))
        dists = [f.exact_distance(px, py) for f, px, py in parts]
        if None in dists:
            return None
        top = max(e.lo for e in dists)
        return np.concatenate([
            px.copy() if e.lo <= 0.5 * top and e.lo < top  # hold the slack factor
            else f.exact_midpoint(px, py)
            for (f, px, py), e in zip(parts, dists)])

    def polydisk_growth(self, centers, base, grow):
        growths = [f.polydisk_growth(c, b, g) for f, c, b, g in
                   zip(self.factors, self.split(centers), self.split(base), self.split(grow))]
        return None if any(s is None for s in growths) else reduce(np.minimum, growths)

    def projection_lower(self, x, y, distance):
        # each coordinate projection is a holomorphic contraction
        return max(distance(f, xf, yf).lo
                   for f, xf, yf in zip(self.factors, self.split(x), self.split(y)))


class Polydisk(Product):
    """The product of the disks |z_j - centers_j| < radii_j."""

    def __init__(self, centers, radii):
        self.centers = as_point(centers)
        self.radii = np.asarray(radii, dtype=float)
        if self.radii.shape != self.centers.shape or not all(0 < r < math.inf for r in self.radii):
            raise InvalidDomain("polydisk needs one positive finite radius per center")
        super().__init__(*(Disk(c, r) for c, r in zip(self.centers, self.radii)))

    def to_spec(self):
        return {"type": "polydisk", "centers": point_to_json(self.centers),
                "radii": [float(r) for r in self.radii]}


class AffineImage(ConvexDomain):
    """{A z + b : z in inner} for an invertible complex matrix A."""

    def __init__(self, matrix, offset, inner: ConvexDomain):
        A = np.asarray(matrix, dtype=complex)
        if A.shape != (inner.dimension, inner.dimension):
            raise InvalidDomain("matrix shape must match the inner dimension")
        if not np.isfinite(A).all():
            raise InvalidDomain("affine matrix entries must be finite")
        if abs(np.linalg.det(A)) < 1e-300:
            raise InvalidDomain("affine matrix must be invertible")
        self.matrix = A
        self.offset = as_point(offset, inner.dimension)
        self.inner = inner
        self.inverse = np.linalg.inv(A)
        self.dimension = inner.dimension
        # conformal factor when A is a scalar multiple of a unitary matrix
        gram = A.conj().T @ A
        s2 = gram[0, 0].real
        if np.allclose(gram, s2 * np.eye(self.dimension), rtol=0.0, atol=1e-12 * max(1.0, s2)):
            self._conformal_scale = math.sqrt(s2)
        else:
            self._conformal_scale = None

    def pull_back(self, z: np.ndarray) -> np.ndarray:
        return self.inverse @ (z - self.offset)

    def push_forward(self, z: np.ndarray) -> np.ndarray:
        return self.matrix @ z + self.offset

    def _pull_back_rows(self, Z: np.ndarray) -> np.ndarray:
        return (Z - self.offset[None, :]) @ self.inverse.T

    def contains_batch(self, Z):
        return self.inner.contains_batch(self._pull_back_rows(Z))

    def ray_exit_batch(self, Z, U, t_max=1e12):
        # the same t along the pulled-back ray, so a graph inside keeps r's lead
        return self.inner.ray_exit_batch(self._pull_back_rows(Z), U @ self.inverse.T, t_max)

    def delta_batch(self, Z):
        if self._conformal_scale is None:
            return super().delta_batch(Z)
        return self._conformal_scale * self.inner.delta_batch(self._pull_back_rows(Z))

    def _slice_set(self, p, v):
        # the parameter plane is preserved exactly under the pullback, which can round v to 0
        if not (u := self.inverse @ v).any():
            raise InvalidDomain("direction v must be nonzero")
        return self.inner._slice_set(self.pull_back(p), u)

    def delta_dir_batch(self, Z, V):
        U = V @ self.inverse.T
        base = self.inner.delta_dir_batch(self._pull_back_rows(Z), U)
        # rescale from parameter-plane units back to ambient units
        return base * np.linalg.norm(V, axis=1) / np.linalg.norm(U, axis=1)

    @property
    def c_proper(self):
        return self.inner.c_proper

    def anchor(self):
        return self.push_forward(self.inner.anchor())

    def to_spec(self):
        return {"type": "affine_image",
                "matrix": [[c.real, c.imag] for c in self.matrix.reshape(-1)],
                "offset": point_to_json(self.offset),
                "inner": self.inner.to_spec()}

    # an affine image is biholomorphic to its inner domain
    exact_tag, bound_tag = "affine-invariance", property(lambda self: self.inner.bound_tag)

    def chart(self):
        inner = self.inner.chart()
        if inner is None:
            return None
        a, b = complex(self.matrix[0, 0]), complex(self.offset[0])
        return ConformalChart(lambda z: inner.forward((z - b) / a),
                              lambda s: a * inner.inverse(s) + b, inner.tag + "+affine")

    def metric_bounds(self, Z, V):
        return self.inner.metric_bounds(self._pull_back_rows(Z), V @ self.inverse.T)

    def metric_hi_smooth(self, Z, V, p):
        return self.inner.metric_hi_smooth(self._pull_back_rows(Z), V @ self.inverse.T, p)

    def exact_distance(self, x, y):
        inner = self.inner.exact_distance(self.pull_back(x), self.pull_back(y))
        return None if inner is None else inner.with_tags("affine-invariance")

    def exact_geodesic(self, x, y):
        if np.array_equal(x, y):
            return lambda t: x.copy()
        inner = self.inner.exact_geodesic(self.pull_back(x), self.pull_back(y))
        return None if inner is None else (lambda t: self.push_forward(inner(t)))

    def exact_midpoint(self, x, y):
        inner = self.inner.exact_midpoint(self.pull_back(x), self.pull_back(y))
        return None if inner is None else self.push_forward(inner)

    def polydisk_growth(self, centers, base, grow):
        # only an exactly diagonal matrix maps polydisks to polydisks; a tiny
        # off-diagonal entry shears the preimage outside the inner test
        diag = np.diag(self.matrix)
        if not np.array_equal(self.matrix, np.diag(diag)):
            return None
        scale = np.abs(diag)
        return self.inner.polydisk_growth((centers - self.offset) / diag, base / scale, grow / scale)

    def preimage_pair(self, x, y):
        return self.inner, self.pull_back(x), self.pull_back(y)


class Intersection(ConvexDomain):
    def __init__(self, members: Sequence[ConvexDomain]):
        members = list(members)
        if not members:
            raise InvalidDomain("intersection needs at least one member")
        d = members[0].dimension
        if any(m.dimension != d for m in members):
            raise DimensionMismatch("intersection members must share a dimension")
        self.members = members
        self.dimension = d
        self._lens = _lens_sector(members)   # (P, Q, sector) of a two-member lens, else None

    def contains_batch(self, Z):
        out = self.members[0].contains_batch(Z)
        for m in self.members[1:]:
            out = out & m.contains_batch(Z)
        return out

    def ray_exit_batch(self, Z, U, t_max=1e12):
        return reduce(np.minimum, [m.ray_exit_batch(Z, U, t_max) for m in self.members])

    def delta_batch(self, Z):
        return reduce(np.minimum, [m.delta_batch(Z) for m in self.members])

    def _slice_set(self, p, v):
        return intersection([m._slice_set(p, v) for m in self.members])

    def delta_dir_batch(self, Z, V):
        out = self.members[0].delta_dir_batch(Z, V)
        for m in self.members[1:]:
            out = np.minimum(out, m.delta_dir_batch(Z, V))
        return out

    @property
    def c_proper(self):
        # a subset of a C-proper set is C-proper; sufficient, not necessary
        return any(m.c_proper for m in self.members)

    def anchor(self):
        return self._anchor.copy()

    @cached_property
    def _anchor(self):   # found on first use and kept: the members do not change
        candidates = [m.anchor() for m in self.members]
        candidates.append(np.mean(candidates, axis=0))
        inside = np.flatnonzero(self.contains_batch(np.array(candidates)))
        if inside.size:
            return candidates[inside[0]]
        # a thin intersection can miss them all: the points inside it on seeded
        # rings around each span an interior centroid, by convexity
        U = unit_rows(np.random.default_rng(_FALLBACK_SEED), 64, self.dimension)
        rings = np.array(candidates)[:, None, None] + np.geomspace(1e-3, 1e3, 25)[:, None, None] * U
        rings = rings.reshape(-1, self.dimension)
        rings = rings[self.contains_batch(rings)]
        if not len(rings):
            raise EmptyWindow("could not locate an interior point of the intersection")
        z = rings.mean(axis=0)
        return z if self._contains(z) else rings[0]   # the centroid can round outside

    def to_spec(self):
        return {"type": "intersection",
                "members": [m.to_spec() for m in self.members]}

    def chart(self):
        return None if self._lens is None else self._lens_chart(self._lens[2].chart())

    def _walk_chart(self, x, y):   # the sector's own, at T(x) and T(y): w^q stays finite
        if self._lens is None:
            return None
        P, Q, sec = self._lens
        return self._lens_chart(sec._walk_chart((x - P) / (x - Q), (y - P) / (y - Q)))

    def _lens_chart(self, inner: ConformalChart) -> ConformalChart:
        """``inner``, a chart of the lens's sector, after T(z) = (z - P) / (z - Q)."""
        P, Q, _ = self._lens
        return ConformalChart(lambda z: inner.forward((z - P) / (z - Q)),
                              lambda s: Q + (P - Q) / (1 - inner.inverse(s)), "lens")

    def exact_distance(self, x, y):
        if self._lens is None:
            return None
        P, Q, sec = self._lens
        return sec.exact_distance((x - P) / (x - Q), (y - P) / (y - Q))

    def metric_bounds(self, Z, V):
        if self._lens is not None:   # T(z) = (z - P) / (z - Q), T'(z) = (P - Q) / (z - Q)^2
            P, Q, sec = self._lens
            return sec.metric_bounds((Z - P) / (Z - Q), V * (P - Q) / (Z - Q) ** 2)
        # each member contains the domain: inclusion contracts.  hi = |v| / delta_dir, padded:
        # at the centre of a binding ball member, that member's lo reads the same |v| / R
        lo = reduce(np.maximum, [m.metric_bounds(Z, V)[0] for m in self.members])
        hi, run = np.zeros(len(Z)), np.flatnonzero(np.any(V != 0, axis=1))
        hi[run] = np.linalg.norm(V[run], axis=1) / self.delta_dir_batch(Z[run], V[run]) * (1.0 + 1e-13)
        return lo, hi

    def polydisk_growth(self, centers, base, grow):
        growths = [m.polydisk_growth(centers, base, grow) for m in self.members]
        return None if any(s is None for s in growths) else reduce(np.minimum, growths)

    def projection_lower(self, x, y, distance):
        # each C-proper member contains the domain: inclusion is a contraction
        return max((distance(m, x, y).lo
                    for m in self.members if m.c_proper), default=0.0)


# -- two-member lenses and wedges as sectors ---------------------------------


def _circle_line_points(disk: Disk, hp: HalfPlane):
    tangent = 1j * hp.inward_normal
    foot = hp.boundary_point + ((disk.center - hp.boundary_point) * np.conj(tangent)).real * tangent
    dist = abs(disk.center - foot)
    if dist >= disk.radius * (1 - 1e-14):
        return None
    h = math.sqrt(disk.radius ** 2 - dist ** 2)
    return foot + h * tangent, foot - h * tangent


def _radical_line(d1: Disk, d2: Disk) -> HalfPlane | None:
    """The line through the crossing points of two circles, normal to c2 - c1."""
    sep = abs(d2.center - d1.center)
    if sep == 0:
        return None
    e = (d2.center - d1.center) / sep
    return HalfPlane(d1.center + (sep ** 2 + d1.radius ** 2 - d2.radius ** 2) / (2 * sep) * e, e)


def _wedge_sector(h1: HalfPlane, h2: HalfPlane) -> ConvexDomain | None:
    """Intersection of two transversal half-planes as an exact sector."""
    n1, n2 = h1.inward_normal, h2.inward_normal
    sine = (np.conj(n1) * n2).imag  # of the angle between the lines
    if abs(sine) < 1e-13:
        return None  # parallel boundaries: a strip or empty, no sector
    # the vertex solves Re(z conj(n_k)) = Re(p_k conj(n_k)) on both lines
    c1, c2 = ((h.boundary_point * np.conj(h.inward_normal)).real for h in (h1, h2))
    vertex = -1j * (c1 * n2 - c2 * n1) / sine
    l1 = np.angle(n1) - math.pi / 2
    l2 = np.angle(n2) - math.pi / 2
    d = math.remainder(l2 - l1, 2 * math.pi)
    alpha = l1 + max(d, 0.0)
    opening = math.pi - abs(d)
    # ``sector`` would read an opening within 1e-12 of pi as a half-plane
    # through the vertex, far off and holding the wedge, which is no bound
    if opening <= 1e-13 or math.pi - opening <= 1e-12:
        return None
    return sector(vertex, alpha, alpha + opening)


def _lens_sector(members: Sequence[ConvexDomain]):
    """(P, Q, sector) for a disk with a disk or a half-plane whose boundaries
    cross at P and Q, else None.  T(z) = (z - P)/(z - Q) sends each member to
    a half-plane through T(P) = 0 whose inward normal is the member's normal
    at P turned by T'(P) = 1 / (P - Q); the lens becomes their wedge."""
    kinds = [type(m) for m in members]
    if len(kinds) != 2 or Disk not in kinds or not set(kinds) <= {Disk, HalfPlane}:
        return None
    m1, m2 = members
    if isinstance(m1, HalfPlane):
        m1, m2 = m2, m1
    line = m2 if isinstance(m2, HalfPlane) else _radical_line(m1, m2)
    res = None if line is None else _circle_line_points(m1, line)
    if res is None:
        return None
    P, Q = res
    normals = [m.center - P if isinstance(m, Disk) else m.inward_normal for m in (m1, m2)]
    wedge = _wedge_sector(*(HalfPlane(0.0, n * np.conj(P - Q)) for n in normals))
    return None if wedge is None else (P, Q, wedge)


def intersection(members: Sequence[ConvexDomain]) -> ConvexDomain:
    """Intersection factory: flattens nesting and drops trivial wrappers."""
    flat: list[ConvexDomain] = []
    for m in members:
        if isinstance(m, Intersection):
            flat.extend(m.members)
        else:
            flat.append(m)
    if not flat:
        raise InvalidDomain("intersection needs at least one member")
    if len(flat) == 1:
        return flat[0]
    reduced = reduce_planar_intersection(flat) if flat[0].dimension == 1 else None
    if reduced is not None:
        return reduced
    return Intersection(flat)


def reduce_planar_intersection(members: list[ConvexDomain]) -> ConvexDomain | None:
    """Structural reductions among planar disks/half-planes.

    Removes members that contain another member (they cannot bind),
    collapses a single survivor, and turns two transversal half-planes into
    a sector, as ``sector`` turns an opening of pi into a half-plane.
    Returns None when no reduction applies.
    """
    if any(not isinstance(m, (Disk, HalfPlane, Sector)) for m in members):
        return None

    def covers(a: ConvexDomain, b: ConvexDomain) -> bool:
        # b subset of a makes a redundant in the intersection; a pairwise
        # containment test is a sound sufficient criterion
        if isinstance(a, Disk) and isinstance(b, Disk):
            return abs(b.center - a.center) + b.radius <= a.radius + 1e-15
        if isinstance(a, HalfPlane) and isinstance(b, Disk):
            margin = ((b.center - a.boundary_point) * np.conj(a.inward_normal)).real
            return margin >= b.radius - 1e-15
        return False

    # of members that cover each other (equal disks), the first stays
    keep = [m for i, m in enumerate(members)
            if not any(covers(m, other) and not (j > i and covers(other, m))
                       for j, other in enumerate(members) if j != i)]
    if len(keep) == 1:
        return keep[0]
    if len(keep) == 2 and all(isinstance(m, HalfPlane) for m in keep):
        wedge = _wedge_sector(*keep)  # None for a strip
        if wedge is not None:
            return wedge
    if len(keep) != len(members):
        return Intersection(keep)
    return None


class Graph(ConvexDomain):
    """{z : r(z) < 0} for a smooth convex defining function r.

    C-properness is a user declaration; structural detection is out of
    reach for oracle-defined boundaries.  Euclidean and directional
    distances and the infinitesimal metric are ``ConvexDomain``'s
    membership-only defaults.
    """

    def __init__(self, r: DefiningFunction, interior_point, c_proper: bool = True):
        self.r = r
        self.dimension = r.dimension
        self._interior = as_point(interior_point, r.dimension)
        self._c_proper = bool(c_proper)
        if r.value(self._interior) >= 0:
            raise InvalidDomain("declared interior point has r >= 0")

    def contains_batch(self, Z):
        return self.r.value_batch(Z) < 0

    def _slice_set(self, p, v):   # r along the line
        level = lambda Z: self.r.value_batch(p + Z[:, :1] * v)
        return PlanarOracle(lambda T: level(T[:, None]) < 0, label="graph-slice", level_batch=level)

    bound_tag = "slice-hull"
    level_batch = property(lambda self: self.r.value_batch)

    @property
    def c_proper(self):
        return self._c_proper

    def anchor(self):
        return self._interior.copy()

    def supporting_half_planes(self, x, y):
        """Tangent planes where fixed seeded rays from x, y and their midpoint
        leave the domain.  Past a ray's bracket, at p with r(p) >= 0 (rows still
        inside are dropped), n = grad r(p) gives D in {Re<z - p, n> < 0} as r
        is convex, so h = Re<p, n/|n|>, padded by 1e-9 relative, bounds the
        unit functional n/|n|.  The pad must cover the gradient's error: none
        but round-off for a polynomial's, and for ``DefiningFunction.grad``'s
        central differences a second-order effect of the normal's angle error.
        """
        U = np.tile(seeded_unit_rows(_FALLBACK_SEED, _TANGENT_RAYS, self.dimension), (3, 1))
        starts = np.repeat([x, y, 0.5 * (x + y)], _TANGENT_RAYS, axis=0)
        t = self.ray_exit_batch(starts, U)
        hit = np.isfinite(t)
        # the bracket's outer end lies within ``_bracket(t)`` past t
        P = starts[hit] + (t[hit] + _bracket(t[hit]))[:, None] * U[hit]
        P = P[~self.contains_batch(P)]
        N = _from_real(self.r.grad_batch(P))
        norms = np.linalg.norm(N, axis=1)
        ok = np.isfinite(norms) & (norms > 0)
        N = N[ok] / norms[ok, None]
        h = np.sum(P[ok] * N.conj(), axis=1).real
        return N, h + 1e-9 * np.maximum(1.0, np.abs(h))

    def to_spec(self):
        if self.r.polynomial is None:
            raise InvalidDomain("only polynomial graph domains serialize to JSON")
        return {"type": "graph",
                "polynomial": self.r.polynomial.to_json(),
                "c_proper": self._c_proper,
                "interior_point": point_to_json(self._interior)}


class PlanarOracle(ConvexDomain):
    """Planar convex set known only through a batched membership oracle.

    ``member_batch`` maps a complex array of points to a bool array.
    Produced by slicing non-catalog domains; its boundary distance and
    infinitesimal metric are ``ConvexDomain``'s membership-only defaults.  A
    graph's slice knows r along its line as a ``level_batch`` of rows (n, 1),
    whose sign is ``member_batch``."""

    def __init__(self, member_batch: Callable[[np.ndarray], np.ndarray],
                 label: str = "oracle", level_batch: Callable | None = None):
        self.member_batch = member_batch
        self.label = label
        self.level_batch = level_batch
        self.dimension = 1

    def contains_batch(self, Z):
        return np.asarray(self.member_batch(Z[:, 0]), dtype=bool)

    def _slice_set(self, p, v):
        member_batch, level = self.member_batch, self.level_batch
        return PlanarOracle(lambda T: member_batch(p[0] + T * v[0]), self.label,
                            level and (lambda Z: level(p[0] + Z * v[0])))

    bound_tag = "slice-hull"

    @property
    def c_proper(self):
        return True  # oracle sets arise as slices of C-proper domains

    def anchor(self):
        # 25 rings of 64 points, each turned by the golden angle pi (3 - sqrt 5)
        # from the last: no two share a direction, so thin wedges from 0 hold some
        turns = math.pi * (3.0 - math.sqrt(5.0)) * np.arange(25 * 64)
        candidates = np.append(np.geomspace(1e-3, 1e3, 25).repeat(64) * np.exp(1j * turns), 0.0)
        found = np.flatnonzero(self.member_batch(candidates))
        if not found.size:
            raise EmptyWindow(f"could not find an interior point of {self.label}")
        return as_point([candidates[found[0]]])

    def to_spec(self):
        raise InvalidDomain("oracle planar sets are not serializable")


# ---------------------------------------------------------------------------
# JSON specification round trip
# ---------------------------------------------------------------------------


def domain_to_json(D: ConvexDomain) -> dict:
    return D.to_spec()


def domain_from_json(data: dict) -> ConvexDomain:
    if not isinstance(data, dict):
        raise InvalidDomain(f"a domain node must be a JSON object, got {type(data).__name__}")
    kind = data.get("type")
    try:
        if kind == "disk":
            return Disk(complex(*data["center"]), data["radius"])
        if kind == "halfplane":
            return HalfPlane(complex(*data["boundary_point"]), complex(*data["inward_normal"]))
        if kind == "sector":
            return sector(complex(*data["vertex"]), data["alpha"], data["beta"])
        if kind == "ball":
            return Ball(point_from_json(data["center"]), data["radius"])
        if kind == "polydisk":
            return Polydisk(point_from_json(data["centers"]), data["radii"])
        if kind == "product":
            return Product(domain_from_json(data["left"]), domain_from_json(data["right"]))
        if kind == "affine_image":
            inner = domain_from_json(data["inner"])
            d = inner.dimension
            flat = [complex(re_, im_) for re_, im_ in data["matrix"]]
            A = np.array(flat, dtype=complex).reshape(d, d)
            return AffineImage(A, point_from_json(data["offset"]), inner)
        if kind == "intersection":
            return intersection([domain_from_json(m) for m in data["members"]])
        if kind == "graph":
            poly = RealPolynomial.from_json(data["polynomial"])
            return Graph(DefiningFunction.from_polynomial(poly),
                         point_from_json(data["interior_point"]),
                         c_proper=data.get("c_proper", True))
    except KeyError as exc:
        raise InvalidDomain(f"{kind!r} domain node is missing key {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise InvalidDomain(f"{kind!r} domain node has a value of the wrong shape: {exc}") from None
    raise InvalidDomain(f"unknown domain type {kind!r}")
