"""m-convexity analysis and line type of boundary points.

A C-proper convex domain is locally m-convex on a window when
``delta(z, v) <= C * delta(z)^(1/m)`` for all window points z and nonzero
directions v.  The checks here are empirical: they sample, fit the
log-log exponent, track the best constant per boundary-distance decade,
and flag divergence (the polydisk's flat face is the canonical failure).
Samples and probes lie on the Hausdorff clouds' ``window_shot`` (a window
missing D raises ``EmptyWindow`` at its anchor), all (point, direction) rows
take one ``delta_dir_batch`` call, and the report is built from those
arrays: each point's decade is keyed once, ``samples`` is built on read.

Line type is the sup of the vanishing order of ``r o l`` over complex
affine lines l through a boundary point.  A polynomial defining function
gets an exact order: the line is substituted in rationals (every float
is one), so no coefficient is rounded.  Anything else gets the integer
nearest a fitted log-log slope.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .domains import ConvexDomain, DefiningFunction, RealPolynomial, _bracket, unit_rows, window_shot
from .errors import DegenerateInput, EmptyWindow, InvalidDomain, OrderNotResolved
from .points import as_point, point_to_json

ORDER_CAP = 16
GRID_SIZE = 256
SLOPE_RESIDUAL_TOL = 0.1
DIVERGENCE_FACTOR = 4.0
PROBE_RAYS = 12   # rays from the window anchor towards boundary pieces


@dataclass(frozen=True)
class AffineLine:
    """l(t) = base + t * direction, a nontrivial affine map C -> C^d."""

    base: np.ndarray
    direction: np.ndarray

    def __call__(self, t: complex) -> np.ndarray:
        return self.base + t * self.direction


@dataclass
class MConvexitySample:
    z: np.ndarray
    v: np.ndarray
    delta: float
    delta_dir: float


@dataclass
class MConvexityReport:
    rows: tuple                       # (z, v, delta, delta_dir) arrays, a row per (point, direction)
    window_samples: tuple             # (requested, kept)
    fitted_exponent: float
    fitted_constant: float
    window_radius: float
    target_m: int | None
    empirical_c: float
    verdict: str                      # pass | fail
    diverging: bool = False
    decade_constants: dict = field(default_factory=dict)

    @property
    def samples(self) -> list[MConvexitySample]:
        return [MConvexitySample(z, v, float(dl), float(dd)) for z, v, dl, dd in zip(*self.rows)]

    def to_json(self) -> dict:
        return {
            "schema": "kcat0/1",
            "kind": "m-convexity-report",
            "window_radius": self.window_radius,
            "target_m": self.target_m,
            "fitted_exponent": {"value": self.fitted_exponent,
                                "method": ["loglog-least-squares"], "tol": 0.02},
            "fitted_constant": {"value": self.fitted_constant,
                                "method": ["loglog-least-squares"], "tol": None},
            "empirical_c": {"value": self.empirical_c,
                            "method": ["sample-sup"], "tol": None},
            "verdict": self.verdict,
            "diverging": self.diverging,
            "decade_constants": {str(k): v for k, v in sorted(self.decade_constants.items())},
            "sample_count": len(self.rows[2]),
            "window_samples": dict(zip(("requested", "kept"), self.window_samples)),
        }


@dataclass
class LineTypeResult:
    base_point: np.ndarray
    line_type: float                  # integer or math.inf
    extremal_direction: np.ndarray
    per_line_orders: list             # (direction, order) pairs

    def to_json(self) -> dict:
        return {
            "schema": "kcat0/1",
            "kind": "line-type-result",
            "base_point": point_to_json(self.base_point),
            "line_type": None if math.isinf(self.line_type) else int(self.line_type),
            "infinite_type": bool(math.isinf(self.line_type)),
            "extremal_direction": point_to_json(self.extremal_direction),
            "per_line_orders": [
                {"direction": point_to_json(d),
                 "order": None if math.isinf(nu) else int(nu)}
                for d, nu in self.per_line_orders
            ],
        }


def _sample_points(D: ConvexDomain, R: float, count: int, rng) -> tuple[np.ndarray, int]:
    """(points, kept): ``count`` window samples on one ``window_shot``, each at
    fraction u^(1/(2d)) of its ray's inner end (the window's exit, or D's less
    ``_bracket``), then probes at fractions 1 - 10^-1, ..., 1 - 10^-6 of each
    exit of D met in the window by ``PROBE_RAYS`` more rays, all in the one
    membership call that guards the rounding and keeps ``kept`` samples."""
    dirs = unit_rows(rng, count + PROBE_RAYS, D.dimension)
    anchor, t, window = window_shot(D, R, dirs)
    end = np.minimum(t[:count], window[:count])
    end -= _bracket(end) * (t[:count] < window[:count])
    probe = t[count:] <= window[count:]
    radii = np.concatenate([end * rng.uniform(size=count) ** (1.0 / (2 * D.dimension)),
                            (t[count:][probe, None] * (1.0 - np.geomspace(1e-1, 1e-6, 6))).ravel()])
    Z = anchor + radii[:, None] * np.concatenate([dirs[:count], np.repeat(dirs[count:][probe], 6, axis=0)])
    inside = D.contains_batch(Z)
    kept = int(np.count_nonzero(inside[:count]))
    if not kept:
        raise EmptyWindow("no window sample lies inside the domain")
    return Z[inside], kept


def local_m_convex_check(D: ConvexDomain, window_radius: float, m: float,
                         sample_count: int = 400, seed: int = 0,
                         target_c: float | None = None) -> MConvexityReport:
    """Empirical local m-convexity check on the window B(0, R).

    Reports the smallest constant consistent with all samples and a
    per-decade table of constants; a constant that keeps growing as
    delta shrinks is flagged as diverging (fail).
    """
    # written so that NaN fails each test
    if not (math.isfinite(m) and m >= 1):
        raise InvalidDomain(f"m must be finite and at least 1, got {m}")
    if target_c is not None and not (math.isfinite(target_c) and target_c > 0):
        raise InvalidDomain(f"the target constant must be finite and positive, got {target_c}")
    if not isinstance(sample_count, (int, np.integer)):
        raise InvalidDomain(f"sample_count must be an integer, got {sample_count!r}")
    if not sample_count >= 1:
        raise InvalidDomain(f"the sample count must be at least 1, got {sample_count}")
    rng = np.random.default_rng(seed)
    points, kept = _sample_points(D, window_radius, sample_count, rng)

    # each point with the d coordinate axes, then one random direction
    n, d = len(points), D.dimension
    Z = np.repeat(points, d + 1, axis=0)
    V = np.empty((n, d + 1, d), dtype=complex)
    V[:, :d] = np.eye(d)
    V[:, d] = unit_rows(rng, n, d)
    V = V.reshape(-1, d)
    deltas = np.repeat(D.delta_batch(points), d + 1)
    dirs = D.delta_dir_batch(Z, V)

    ratios = dirs / deltas ** (1.0 / m)
    empirical_c = float(np.max(ratios))

    # one decade per point, floor(log10 delta) by libm's log10, exact at powers of ten
    keys = [math.floor(math.log10(dl)) for dl in deltas[::d + 1].tolist()]
    found, group = np.unique(np.repeat(keys, d + 1), return_inverse=True)
    top = np.zeros(len(found))
    np.maximum.at(top, group, np.where(ratios > 0, ratios, 0.0))   # NaN never wins
    decades = dict(zip(found.tolist(), top.tolist()))
    diverging = len(found) >= 3 and bool(top[0] > DIVERGENCE_FACTOR * top[-1])
    slope, intercept = np.polyfit(np.log(deltas), np.log(dirs), 1)
    failed = diverging or (target_c is not None and empirical_c > target_c)
    return MConvexityReport(
        rows=(Z, V, deltas, dirs), window_samples=(sample_count, kept),
        fitted_exponent=float(slope),
        fitted_constant=math.exp(intercept),
        window_radius=window_radius,
        target_m=int(m) if float(m).is_integer() else None,
        empirical_c=empirical_c,
        verdict="fail" if failed else "pass",
        diverging=diverging,
        decade_constants=decades,
    )


# ---------------------------------------------------------------------------
# vanishing order and line type
# ---------------------------------------------------------------------------


def _exact_order(poly: RealPolynomial, line: AffineLine) -> int:
    """Lowest total degree in (s, tau) of poly(base + (s + i tau) w).  Every
    float is a binary rational, so in Fractions each coefficient of s^i tau^j
    comes out exact; those of size at most 1e-12 count as zero."""
    # x_j = Re b_j + s Re w_j - tau Im w_j and y_j = Im b_j + s Im w_j + tau Re w_j,
    # in the monomial table's order x_1, y_1, x_2, y_2, ...
    linear = []
    for b, w in zip(line.base, line.direction):
        bx, by, wx, wy = (Fraction(float(v)) for v in (b.real, b.imag, w.real, w.imag))
        linear += [(bx, wx, -wy), (by, wy, wx)]
    total = Counter()  # {(i, j): coefficient of s^i tau^j}
    for expo, c in poly.terms.items():
        term = {(0, 0): Fraction(c)}
        for (c0, cs, ct), e in zip(linear, expo):
            for _ in range(e):  # term *= c0 + cs s + ct tau
                product = Counter()
                for (i, j), a in term.items():
                    product[i, j] += c0 * a
                    product[i + 1, j] += cs * a
                    product[i, j + 1] += ct * a
                term = product
        total.update(term)
    if not any(total.values()):
        raise OrderNotResolved("the defining function vanishes identically on the line")
    degrees = [i + j for (i, j), a in total.items() if abs(a) > 1e-12]
    if not degrees:
        raise OrderNotResolved("all substituted coefficients vanish numerically")
    return min(degrees)


def _numeric_order_estimate(r: DefiningFunction, line: AffineLine) -> float:
    """Slope of log max_theta |r(l(rho e^i theta))| against log rho, over 8
    angles theta and 7 radii rho from 1e-2 to 1e-5, in one batch."""
    rhos = np.geomspace(1e-2, 1e-5, 7)
    ts = rhos[:, None] * np.exp(1j * np.linspace(0.0, 2 * math.pi, 8, endpoint=False))
    Z = line.base + ts[..., None] * line.direction
    tops = np.abs(r.value_batch(Z.reshape(-1, r.dimension))).reshape(ts.shape).max(axis=1)
    kept = tops > 0.0
    if np.count_nonzero(kept) < 3:
        return math.inf  # the function is flatter than any tracked order
    return float(np.polyfit(np.log(rhos[kept]), np.log(tops[kept]), 1)[0])


def _check_on_boundary(r: DefiningFunction, x: np.ndarray) -> None:
    value = r.value(x)
    if abs(value) > 1e-9 * max(1.0, float(np.max(np.abs(x)))):
        raise InvalidDomain(f"the base point must lie on the boundary {{r = 0}}, "
                            f"but r there is {value:.6g}")


def _line_order(r: DefiningFunction, line: AffineLine, cap: float = math.inf) -> float:
    """Order of r o l at 0: exact for polynomial r, else the integer nearest
    the fitted slope, and inf for a slope past ``cap``."""
    if r.polynomial is not None:
        return float(_exact_order(r.polynomial, line))
    slope = _numeric_order_estimate(r, line)
    if math.isinf(slope) or slope > cap:
        return math.inf
    nearest = round(slope)
    if abs(slope - nearest) > SLOPE_RESIDUAL_TOL:
        raise OrderNotResolved(f"order not resolved along {line.direction}: slope {slope:.3f} "
                               f"is not within {SLOPE_RESIDUAL_TOL} of an integer")
    return float(nearest)


def vanishing_order(r: DefiningFunction, line: AffineLine) -> int:
    """Order of vanishing of r o l at 0; exact (in rationals) for polynomial r."""
    _check_on_boundary(r, line(0.0))
    if not np.any(line.direction):
        raise DegenerateInput("line direction must be nonzero")
    nu = _line_order(r, line)
    if math.isinf(nu):
        raise OrderNotResolved("numeric order exceeds every tracked scale")
    return int(nu)


def _tangent_basis(r: DefiningFunction, x: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the complex tangent space at the boundary point."""
    grad = r.complex_gradient(x)
    if np.linalg.norm(grad) < 1e-12:
        raise InvalidDomain("gradient of r vanishes: not a defining function here")
    _, _, vh = np.linalg.svd(grad[None, :])
    return vh[1:].conj().T  # columns span {w : sum dr/dz_j w_j = 0}


def line_type(r: DefiningFunction, x, cap: int = ORDER_CAP) -> LineTypeResult:
    """Sup of vanishing orders over complex tangent lines through x.

    Each line is taken once: in C^2 the complex tangent space is one line;
    in higher dimension it is sampled by a fixed grid of ``GRID_SIZE``
    seeded directions, with no refinement.  The directions of order at
    least m form a closed algebraic set, so an order above the generic one
    holds on a set of measure zero, which no seeded direction meets.
    Orders beyond ``cap`` (numeric path) are reported as infinite type.
    Transversal lines vanish to first order, so the sup is attained on the
    complex tangent space whenever the dimension exceeds one.
    """
    # a complex tangent line vanishes to order at least 2
    if cap < 2:
        raise InvalidDomain(f"the order cap must be at least 2, got {cap}")
    x = as_point(x, r.dimension)
    _check_on_boundary(r, x)
    if r.dimension == 1:
        e = np.array([1.0 + 0.0j])
        return LineTypeResult(x, 1, e, [(e, 1)])

    basis = _tangent_basis(r, x)
    k = basis.shape[1]
    if k == 1:
        us = np.ones((1, 1), dtype=complex)
    else:
        raw = np.random.default_rng(0xA11CE).normal(size=(GRID_SIZE, 2 * k))
        us = raw[:, :k] + 1j * raw[:, k:]
        us /= np.linalg.norm(us, axis=1, keepdims=True)

    per_line = []
    for u in us:
        w = basis @ u
        try:
            nu = _line_order(r, AffineLine(x, w), cap)
        except OrderNotResolved:
            if r.polynomial is None:
                raise
            nu = math.inf  # r vanishes on the line
        per_line.append((w, nu))
    best_w, best_order = max(per_line, key=lambda pair: pair[1])
    value = math.inf if best_order > cap else best_order
    return LineTypeResult(x, value, best_w, per_line)
