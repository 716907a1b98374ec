"""The benchmark's four workloads.

Each workload is a fixed list of queries generated from the seed before
any timing starts; a run makes repeated passes over it.  The program
receives only the generated points; membership tests and reference values
used while generating and checking come from ``reference.py``, not from
kcat0.

Every pass starts from freshly built domains and one warm-up query per
domain on fixed inputs that the seeded sampler never produces.  That keeps
per-domain caches (``Graph`` support values, for instance) from carrying
over between passes, so every pass does the same work, and it is what
``setup_s`` measures.  A warm-up leaves such caches empty where the timed
queries would use them.

``pass_s`` is a workload's nominal CPU time for one pass over its list on
the machine the benchmark was written on (2-vCPU x86-64 KVM guest, one BLAS
thread); it fixes how many passes a timed run makes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np
import sympy

import kcat0 as K
import reference as ref

PAD = 1e-9  # explicit round-off pad for interval checks, relative to max(1, exact)


@dataclass
class Outcome:
    """What the benchmark reads from one result."""

    problems: list[str]
    intervals: list = field(default_factory=list)   # every DistanceInterval returned
    values: list[float] = field(default_factory=list)  # summary used by the determinism digest
    certified_defect: float | None = None           # set on triples expected to certify
    raised: bool = False                            # the query raised instead of returning
    known: list[str] = field(default_factory=list)  # failed checks that a known defect explains


@dataclass
class Query:
    kind: str
    inputs: tuple
    run: Callable[[dict], Any]
    inspect: Callable[[Any], Outcome]


def _pad(exact: float) -> float:
    return PAD * max(1.0, abs(exact))


def _brackets(iv, exact: float, what: str) -> list[str]:
    problems = []
    if not (math.isfinite(iv.lo) and math.isfinite(iv.hi)):
        problems.append(f"{what}: non-finite interval [{iv.lo!r}, {iv.hi!r}]")
    if iv.lo > exact + _pad(exact):
        problems.append(f"{what}: lo {iv.lo!r} above exact {exact!r}")
    return problems + _hi_below(iv, exact, what)


def _hi_below(iv, exact: float, what: str) -> list[str]:
    return [f"{what}: hi {iv.hi!r} below exact {exact!r}"] if iv.hi < exact - _pad(exact) else []


def _interval_outcome(problems: list[str], *ivs, known=()) -> Outcome:
    return Outcome(problems, list(ivs), [v for iv in ivs for v in (iv.lo, iv.hi)],
                   known=list(known))


# ---------------------------------------------------------------------------
# seeded samplers (rejection sampling against the reference membership tests)
# ---------------------------------------------------------------------------

_MAX_TRIES = 100_000


def _uniform_ball(rng, dim: int, radius: float) -> np.ndarray:
    raw = rng.normal(size=2 * dim)
    raw *= radius * rng.uniform() ** (1.0 / (2 * dim)) / np.linalg.norm(raw)
    return raw[:dim] + 1j * raw[dim:]


def _in_balls(center: np.ndarray, balls, shrink: float, rng) -> np.ndarray:
    """Uniform point of an intersection of balls, pulled toward ``center``.

    Samples the first ball uniformly and rejects points outside the others;
    the pull keeps points off the boundary, where distances blow up.
    """
    c0, r0 = balls[0]
    for _ in range(_MAX_TRIES):
        z = c0 + _uniform_ball(rng, len(c0), r0)
        if all(ref.in_ball(z, c, r) for c, r in balls[1:]):
            return center + shrink * (z - center)
    raise RuntimeError("rejection sampler did not find a point")


def _disk_point(rng, radius: float) -> complex:
    return complex(radius * math.sqrt(rng.uniform()) * np.exp(2j * math.pi * rng.uniform()))


def _h_point(rng) -> complex:
    return complex(rng.uniform(-1.0, 1.0), math.exp(rng.uniform(-1.0, 1.0)))


def _rhp_point(rng) -> complex:
    return complex(math.exp(rng.uniform(-1.0, 1.0)), rng.uniform(-1.0, 1.0))


def _pair_in_band(sample, exact, rng, lo: float = 0.8, hi: float = 1.6):
    """A pair whose exact distance lies in [lo, hi], so optimizer work is comparable."""
    for _ in range(_MAX_TRIES):
        x, y = sample(rng), sample(rng)
        if lo <= exact(x, y) <= hi:
            return x, y
    raise RuntimeError("rejection sampler did not find a pair in the band")


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    name: str
    pass_s: float

    def queries(self, rng) -> list[Query]:
        raise NotImplementedError

    def setup(self) -> dict:
        raise NotImplementedError


_OMEGA_BALLS = [(np.array([1.0, 0.0], dtype=complex), 1.0),
                (np.array([0.0, 1.0], dtype=complex), 1.0)]
# the off-center two-ball intersection of acceptance criterion 9
_LENS_BALLS = [(np.array([0.5, 0.0], dtype=complex), 1.0),
               (np.array([0.0, 0.5], dtype=complex), 1.2)]
_BIG_N = 1e6


class SandwichIntersection(Workload):
    """Sandwich distances on intersections of balls (auto path policy).

    Runs the half-plane lower bound, lens-chart slice uppers and the
    inscribed-polydisk upper that makes the tail; never the path optimizer
    or a ``Graph`` oracle.
    """

    name = "sandwich-intersection"
    pass_s = 5.5
    # pairs per domain: SEPARATION_BINS equal-frequency bins of |x - y|, each
    # filled with FIXED_PER_BIN pairs drawn once from FIXED_PAIRS_SEED and
    # SEEDED_PER_BIN pairs drawn from the run's seed.  The inscribed-polydisk
    # tail is more common among close pairs, so fixing the share of close
    # pairs damps how much the tail's share of the work varies.  Beyond that,
    # which pairs take the tail (about one in ten, over half of a pass's
    # time) cannot be told from the inputs: with every pair seeded, their
    # count ranged from 26 to 48 in the 360 queries between seeds and moved
    # queries_per_s by a quarter.  So most pairs are fixed, as the costly
    # inputs of graph-oracle and certify are, and the seed varies the rest.
    SEPARATION_BINS = 6
    FIXED_PER_BIN = 17
    SEEDED_PER_BIN = 3
    STRATA_SEED = 0
    FIXED_PAIRS_SEED = 1
    SAMPLERS = ("omega", "omega", "lens")  # of the omega, big-omega and lens pairs

    def __init__(self):
        self._samplers = {
            "omega": (_OMEGA_BALLS, np.array([0.5, 0.5], dtype=complex)),
            "lens": (_LENS_BALLS, np.array([0.25, 0.25], dtype=complex)),
        }
        presample = np.random.default_rng(self.STRATA_SEED)
        self._edges = {}
        for key, (balls, center) in self._samplers.items():
            seps = [np.linalg.norm(_in_balls(center, balls, 0.9, presample)
                                   - _in_balls(center, balls, 0.9, presample))
                    for _ in range(2000)]
            self._edges[key] = np.quantile(seps, np.linspace(0, 1, self.SEPARATION_BINS + 1)[1:-1])
        fixed = np.random.default_rng(self.FIXED_PAIRS_SEED)
        self._fixed = [self._pairs(key, fixed, self.FIXED_PER_BIN) for key in self.SAMPLERS]

    def _pairs(self, key, rng, per_bin):
        """Rejection-sample pairs until every separation bin holds ``per_bin``."""
        balls, center = self._samplers[key]
        need = [per_bin] * self.SEPARATION_BINS
        out = []
        for _ in range(_MAX_TRIES):
            if not any(need):
                return out
            x, y = (_in_balls(center, balls, 0.9, rng) for _ in range(2))
            b = int(np.searchsorted(self._edges[key], np.linalg.norm(x - y)))
            if need[b]:
                need[b] -= 1
                out.append((x, y))
        raise RuntimeError("rejection sampler did not fill the separation bins")

    def setup(self):
        omega = K.example36_domain()
        doms = {
            "omega": omega,
            "big-omega": K.AffineImage(_BIG_N * np.eye(2, dtype=complex),
                                       np.zeros(2, dtype=complex), omega),
            "lens": K.intersection([K.Ball(c, r) for c, r in _LENS_BALLS]),
        }
        warm = {"omega": ([0.5, 0.5], [0.7, 0.3]),
                "big-omega": ([0.5e6, 0.5e6], [0.7e6, 0.3e6]),
                "lens": ([0.25, 0.25], [0.3, 0.2])}
        for key, (x, y) in warm.items():
            K.distance(doms[key], x, y)
        return doms

    def queries(self, rng):
        omega, big, lens = (fixed + self._pairs(key, rng, self.SEEDED_PER_BIN)
                            for fixed, key in zip(self._fixed, self.SAMPLERS))
        out = []
        for (xo, yo), (xb, yb), (xl, yl) in zip(omega, big, lens):
            out.append(self._query("omega", xo, yo, _OMEGA_BALLS, 1.0))
            out.append(self._query("big-omega", _BIG_N * xb, _BIG_N * yb, _OMEGA_BALLS, _BIG_N))
            out.append(self._query("lens", xl, yl, _LENS_BALLS, 1.0))
        return out

    @staticmethod
    def _query(key, x, y, balls, scale):
        # each member ball contains the domain, so its distance is a lower
        # bound for the true distance and hence for any sound upper bound
        floor = max(ref.ball(x / scale, y / scale, c, r) for c, r in balls)

        def inspect(iv):
            problems = []
            if not (math.isfinite(iv.lo) and math.isfinite(iv.hi)):
                problems.append(f"non-finite interval [{iv.lo!r}, {iv.hi!r}]")
            if iv.lo > iv.hi:
                problems.append(f"lo {iv.lo!r} above hi {iv.hi!r}")
            if iv.hi < floor - _pad(floor):
                problems.append(f"hi {iv.hi!r} below member-ball distance {floor!r}")
            return _interval_outcome(problems, iv)

        return Query(f"distance/{key}", (x, y),
                     lambda doms: K.distance(doms[key], x, y), inspect)


def _ellipsoid_r(z: np.ndarray) -> float:
    return float(abs(z[0]) ** 2 + 2.0 * abs(z[1]) ** 2 - 1.0)


_ELLIPSOID_POLY = {(2, 0, 0, 0): 1.0, (0, 2, 0, 0): 1.0, (0, 0, 2, 0): 2.0,
                   (0, 0, 0, 2): 2.0, (0, 0, 0, 0): -1.0}


class GraphOracle(Workload):
    """The ellipsoid {|z1|^2 + 2|z2|^2 < 1} known only through r.

    Once as a polynomial ``Graph`` (which has ``evaluate_batch``) and once
    as an opaque callable, so a batching change shows whether it helps only
    the inputs that can batch.  The first polynomial distance starts from an
    empty support cache and dominates the pass, so ``queries_per_s`` follows
    it; the second reuses the cached support grid.  Three cheap callable
    infinitesimal queries put the list's median on the callable distance.

    The distance pairs are drawn once from ``DISTANCE_PAIRS_SEED``: the cost
    of one distance varies twofold between pairs (0.7-1.4 s on the callable
    graph), so with seeded pairs a run would measure the draw more than the
    code.  The seed varies the infinitesimal queries.
    """

    name = "graph-oracle"
    pass_s = 10.0
    DISTANCE_PAIRS_SEED = 0
    # (domain, query kind) in list order
    MIX = [("poly", "distance"), ("callable", "infinitesimal"), ("callable", "distance"),
           ("poly", "infinitesimal"), ("callable", "infinitesimal"), ("poly", "distance"),
           ("callable", "infinitesimal")]

    def __init__(self):
        fixed = np.random.default_rng(self.DISTANCE_PAIRS_SEED)
        self._pairs = [(self._point(fixed), self._point(fixed))
                       for _, kind in self.MIX if kind == "distance"]

    def setup(self):
        poly = K.RealPolynomial(2, _ELLIPSOID_POLY)
        doms = {
            "poly": K.Graph(K.DefiningFunction.from_polynomial(poly), interior_point=[0.0, 0.0]),
            "callable": K.Graph(K.DefiningFunction(2, _ellipsoid_r), interior_point=[0.0, 0.0]),
        }
        # the warm-up is an infinitesimal query: it runs the membership
        # oracle and the directional distances but never support_upper, so
        # every pass's distances start from an empty support cache
        for G in doms.values():
            K.infinitesimal(G, [0.1, 0.1], [1.0, 0.5j])
        return doms

    @staticmethod
    def _point(rng):
        w = _uniform_ball(rng, 2, 0.7)
        return np.array([w[0], w[1] / math.sqrt(2.0)])

    def queries(self, rng):
        out, pairs = [], iter(self._pairs)
        for key, kind in self.MIX:
            if kind == "distance":
                x, y = next(pairs)
                exact = ref.ellipsoid(x, y)
                out.append(Query(f"distance/{key}", (x, y),
                                 lambda doms, key=key, x=x, y=y: K.distance(doms[key], x, y),
                                 lambda iv, exact=exact: _interval_outcome(
                                     _brackets(iv, exact, "distance"), iv)))
            else:
                z = self._point(rng)
                v = rng.normal(size=2) + 1j * rng.normal(size=2)
                exact = ref.ellipsoid_metric(z, v)
                out.append(Query(f"infinitesimal/{key}", (z, v),
                                 lambda doms, key=key, z=z, v=v: K.infinitesimal(doms[key], z, v),
                                 lambda iv, exact=exact: _interval_outcome(
                                     _brackets(iv, exact, "infinitesimal"), iv)))
        return out


# the pair of ROADMAP item 1: its path-optimizer upper bound (4.3800) falls
# below the exact distance 4.5153.  That check failing is a known defect of
# kcat0: it is counted in unsound_count and listed in the run record, but it
# does not fail the run.  Any other failed check on the pair does.
_BALL_REPRO = (np.array([-0.0056326 + 0.1564773j, -0.91341301 + 0.37415969j]),
               np.array([0.0983729 + 0.35396586j, 0.17151189 - 0.39906051j]))
_LARGE_N_TRIPLE = (np.array([1.0, 1.0], dtype=complex), np.array([4.0, 1.0], dtype=complex),
                   np.array([2.0, 2.0], dtype=complex))
_LARGE_N_TOL = 5e-2


def _cert_intervals(cert):
    return [cert.d_xy, cert.d_zx, cert.d_zy, cert.d_zm]


def _cert_outcome(cert, problems, expect_certified: bool) -> Outcome:
    ivs = _cert_intervals(cert)
    return Outcome(problems, ivs, [v for iv in ivs for v in (iv.lo, iv.hi)] + [cert.defect],
                   cert.defect if expect_certified else None)


class Certify(Workload):
    """Path optimizer and CAT(0) verdicts.

    ``geodesic_approx`` and ``midpoint_search`` carry the time.  The
    queries that do are fixed inputs: the large-n example36 triple, the
    ROADMAP ``Ball`` pair, and one forced-sandwich pair per domain drawn
    once from ``FORCED_PAIRS_SEED``.  The optimizer's cost varies from 0.5 s
    to 5 s between pairs of the same exact distance, so with seeded pairs
    a run would measure the draw more than the code.  The seed varies the
    catalog certificates and exact-midpoint triples.
    """

    name = "certify"
    pass_s = 10.0
    FORCED_PAIRS_SEED = 0

    def setup(self):
        doms = {
            "big-omega": K.AffineImage(_BIG_N * np.eye(2, dtype=complex),
                                       np.zeros(2, dtype=complex), K.example36_domain()),
            "ball": K.Ball(np.zeros(2, dtype=complex), 1.0),
            "HxD": K.Product(K.upper_half_plane(), K.unit_disk()),
            "polydisk": K.Polydisk(np.zeros(2, dtype=complex), np.ones(2)),
            "rhp2": K.Product(K.right_half_plane(), K.right_half_plane()),
        }
        warm = {"big-omega": ([0.5e6, 0.5e6], [0.7e6, 0.3e6]),
                "ball": ([0.1, 0.0], [0.0, 0.2]),
                "HxD": ([1j, 0.0], [2j, 0.1]),
                "polydisk": ([0.1, 0.0], [0.0, 0.2]),
                "rhp2": ([1.0, 1.0], [2.0, 1.5])}
        for key, (x, y) in warm.items():
            K.distance(doms[key], x, y)
        return doms

    def __init__(self):
        fixed = np.random.default_rng(self.FORCED_PAIRS_SEED)
        self._forced = {key: self._forced_query(key, fixed) for key in ("ball", "HxD", "polydisk")}

    def queries(self, rng):
        return [
            self._large_n(),
            self._product_certificate("HxD", rng),
            self._forced["ball"],
            self._exact_midpoint("HxD", rng),
            self._forced["HxD"],
            self._product_certificate("rhp2", rng),
            self._forced["polydisk"],
            self._exact_midpoint("rhp2", rng),
            self._forced_pair("ball-repro", "ball", *_BALL_REPRO,
                              ref.ball(*_BALL_REPRO), hi_known=True),
        ]

    @staticmethod
    def _large_n():
        x, y, z = _LARGE_N_TRIPLE

        def inspect(cert):
            problems = []
            if cert.verdict != "violation-certified":
                problems.append(f"large-n verdict {cert.verdict!r}")
            if abs(cert.defect - ref.TARGET_DEFECT) > _LARGE_N_TOL:
                problems.append(f"large-n defect {cert.defect!r} not within "
                                f"{_LARGE_N_TOL} of {ref.TARGET_DEFECT!r}")
            return _cert_outcome(cert, problems, True)

        return Query("midpoint_defect/large-n", (x, y, z),
                     lambda doms: K.midpoint_defect(doms["big-omega"], x, y, z,
                                                    tol=_LARGE_N_TOL), inspect)

    @staticmethod
    def _product_certificate(key, rng):
        # pairs at distance ln 2 in the first factor (images of i, 4i under
        # the factor's real affine automorphisms), so the defect is (ln 2 / 2)^2
        a, t = rng.uniform(-1.0, 1.0), math.exp(rng.uniform(-1.0, 1.0))
        if key == "HxD":
            left, right = K.upper_half_plane, K.unit_disk
            x, y, base = complex(a, t), complex(a, 4 * t), _disk_point(rng, 0.5)
        else:
            left, right = K.right_half_plane, K.right_half_plane
            x, y, base = complex(t, a), complex(4 * t, a), _rhp_point(rng)

        def inspect(cert):
            problems = []
            if cert.verdict != "violation-certified":
                problems.append(f"product certificate verdict {cert.verdict!r}")
            if abs(cert.defect - ref.TARGET_DEFECT) > 1e-9:
                problems.append(f"product certificate defect {cert.defect!r} "
                                f"!= {ref.TARGET_DEFECT!r}")
            return _cert_outcome(cert, problems, True)

        return Query(f"product_certificate/{key}", (x, y, base),
                     lambda doms: K.product_certificate(left(), right(), [x], [y], base=[base]),
                     inspect)

    @staticmethod
    def _exact_midpoint(key, rng):
        sample, dist = Certify._SAMPLERS[key]
        x, y, z = (sample(rng) for _ in range(3))

        def inspect(cert):
            problems = []
            refs = {"xy": dist(x, y), "zx": dist(z, x), "zy": dist(z, y),
                    "zm": dist(z, cert.midpoint)}
            for name, iv in zip(refs, _cert_intervals(cert)):
                if not iv.is_exact:
                    problems.append(f"d_{name} not exact on a catalog product")
                problems += _brackets(iv, refs[name], f"d_{name}")
            defect = refs["zm"] ** 2 - (0.5 * (refs["zx"] ** 2 + refs["zy"] ** 2)
                                        - 0.25 * refs["xy"] ** 2)
            if abs(defect) > 1e-9:
                want = "violation-certified" if defect > 0 else "no-violation-found"
                if cert.verdict != want:
                    problems.append(f"verdict {cert.verdict!r}, reference defect {defect!r}")
            return _cert_outcome(cert, problems, False)

        return Query(f"midpoint_defect/exact-{key}", (x, y, z),
                     lambda doms: K.midpoint_defect(doms[key], x, y, z), inspect)

    _SAMPLERS = {
        "ball": (lambda rng: _uniform_ball(rng, 2, 0.7), ref.ball),
        "HxD": (lambda rng: np.array([_h_point(rng), _disk_point(rng, 0.7)]),
                lambda p, q: ref.product(ref.upper_half_plane, ref.disk, p, q)),
        "polydisk": (lambda rng: np.array([_disk_point(rng, 0.7), _disk_point(rng, 0.7)]),
                     ref.polydisk),
        "rhp2": (lambda rng: np.array([_rhp_point(rng), _rhp_point(rng)]),
                 lambda p, q: ref.product(ref.right_half_plane, ref.right_half_plane, p, q)),
    }

    def _forced_query(self, key, rng):
        sample, exact = self._SAMPLERS[key]
        x, y = _pair_in_band(sample, exact, rng)
        return self._forced_pair(key, key, x, y, exact(x, y))

    @staticmethod
    def _forced_pair(label, key, x, y, exact, hi_known=False):
        """``hi_known``: an upper bound below the exact value is a known defect."""
        def inspect(iv):
            problems = _brackets(iv, exact, "forced sandwich")
            known = _hi_below(iv, exact, "forced sandwich") if hi_known else []
            return _interval_outcome([p for p in problems if p not in known], iv, known=known)

        return Query(f"distance-forced/{label}", (x, y),
                     lambda doms: K.distance(doms[key], x, y, force_sandwich=True,
                                             optimize_path=True),
                     inspect)


def _f_flat(x: float, z: complex) -> float:
    return x * x + (math.exp(-1.0 / abs(z)) if z != 0 else 0.0)


_QUARTIC = {(0, 1, 0, 0): -1.0, (0, 0, 4, 0): 1.0, (0, 0, 0, 4): 1.0, (0, 0, 2, 2): 2.0}
_DILATIONS = (1, 10, 100)


class LimitsScan(Workload):
    """m-convexity, line type, Hausdorff readings and rescaling limits.

    The only workload where the per-sample ``delta``/``delta_dir`` loops in
    ``convexity`` and the ray shooting in ``limits`` carry the time; it
    computes no sandwich distance.
    """

    name = "limits-scan"
    # below the nominal 5 s, so that a run makes four passes: the list's
    # median falls among three queries of about 0.2 s, steadier with four
    pass_s = 4.0

    def setup(self):
        omega = K.example36_domain()
        doms = {
            "omega": omega,
            "polydisk": K.Polydisk(np.zeros(2, dtype=complex), np.ones(2)),
            "quarter": K.Product(K.right_half_plane(), K.right_half_plane()),
            "quartic": K.DefiningFunction.from_polynomial(K.RealPolynomial(2, _QUARTIC)),
            "dilation-disk": K.dilation_sequence(K.unit_disk(), K.unit_disk(),
                                                 lambda n: 1.0 + 1.0 / n),
        }
        for n in _DILATIONS:
            doms[f"omega-x{n}"] = K.AffineImage(n * np.eye(2, dtype=complex),
                                                np.zeros(2, dtype=complex), omega)
        # sympy caches expressions process-wide; clearing it makes every pass
        # find line_type's symbolic work as cold as a fresh process does
        sympy.core.cache.clear_cache()
        for D in doms.values():
            if isinstance(D, K.ConvexDomain):
                D.delta(D.anchor())
        doms["quartic"].value([0.0, 0.5j])
        doms["dilation-disk"].domain(2).delta([0.0])
        return doms

    def queries(self, rng):
        seeds = [int(s) for s in rng.integers(0, 2 ** 31, size=4)]
        pairs = [([_disk_point(rng, 0.8)], [_disk_point(rng, 0.8)]) for _ in range(3)]
        return [self._mconvex("polydisk", seeds[0]), self._hausdorff(),
                self._mconvex("omega", seeds[1]), self._convergence(pairs),
                self._line_type(), self._mconvex("polydisk", seeds[2]),
                self._frankel(seeds[3])]

    @staticmethod
    def _mconvex(key, seed):
        want = "pass" if key == "omega" else "fail"

        def inspect(rep):
            problems = []
            if rep.verdict != want:
                problems.append(f"m-convexity verdict on {key} {rep.verdict!r}, expected {want!r}")
            if key == "polydisk" and not rep.diverging:
                problems.append("polydisk constant not flagged as diverging")
            return Outcome(problems, values=[rep.empirical_c, rep.fitted_exponent])

        return Query(f"local_m_convex_check/{key}", (seed,),
                     lambda doms: K.local_m_convex_check(doms[key], 2.0, 2,
                                                         sample_count=300, seed=seed),
                     inspect)

    @staticmethod
    def _hausdorff():
        def run(doms):
            return [K.hausdorff(doms[f"omega-x{n}"], doms["quarter"], 1.0, directions=2048)
                    for n in _DILATIONS]

        def inspect(readings):
            vals = [r.value for r in readings]
            problems = []
            if not all(b < a for a, b in zip(vals, vals[1:])):
                problems.append(f"Hausdorff readings not strictly decreasing: {vals!r}")
            return Outcome(problems, values=vals)

        return Query("hausdorff/dilations", _DILATIONS, run, inspect)

    @staticmethod
    def _convergence(pairs):
        def inspect(table):
            problems = [] if table.monotone else [f"convergence table not monotone: {table.max_gap!r}"]
            return Outcome(problems, values=[g for _, _, g in table.rows])

        return Query("convergence_check/dilation-disk", tuple(pairs),
                     lambda doms: K.convergence_check(doms["dilation-disk"], K.unit_disk(),
                                                      pairs, [10, 100, 1000]),
                     inspect)

    @staticmethod
    def _line_type():
        def inspect(res):
            problems = [] if res.line_type == 4 else [f"quartic line type {res.line_type!r}"]
            return Outcome(problems, values=[float(res.line_type)])

        return Query("line_type/quartic", ((0.0, 0.0),),
                     lambda doms: K.line_type(doms["quartic"], [0.0, 0.0]), inspect)

    @staticmethod
    def _frankel(seed):
        def inspect(res):
            problems = [f"Frankel bound fails at n={e.n}" for e in res.entries if not e.bound_ok]
            return Outcome(problems, values=[e.a_n for e in res.entries]
                           + [r.value for r in res.readings])

        return Query("frankel_2b/flat", (2, 3, 4, seed),
                     lambda doms: K.frankel_2b(_f_flat, [2, 3, 4], verify_samples=60,
                                               hausdorff_directions=512, seed=seed),
                     inspect)


WORKLOADS = {w.name: w for w in (SandwichIntersection(), GraphOracle(), Certify(), LimitsScan())}
