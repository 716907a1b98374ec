"""Command-line front end.

Subcommands: certify, distance, mconvex, linetype, limits, example36,
selftest.  Reports are JSON (schema ``kcat0/1``) with every numeric
carrying its method tags; convergence tables can also be written as CSV.
Identical argv and seed produce byte-identical reports, so no wall-clock
data ever goes into a report.

Exit codes: 0 success, 1 error, 2 when a certificate verdict is
``violation-certified`` (so shell scripts can branch on it).  A usage error
(an unknown option or choice, a missing subcommand) is an error too: it
prints one ``error:`` line and exits 1, never 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import cat0, convexity, limits, metric
from .domains import (
    Ball,
    DefiningFunction,
    Polydisk,
    Product,
    RealPolynomial,
    domain_from_json,
    right_half_plane,
    sector,
    unit_disk,
    upper_half_plane,
)
from .errors import KCat0Error
from .limits import example36_domain
from .points import parse_point

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VIOLATION = 2


def builtin_domain(name: str):
    builtins = {
        "disk": unit_disk,
        "halfplane": upper_half_plane,
        "rhp": right_half_plane,
        "sector-quarter": lambda: sector(0.0, 0.0, math.pi / 2),
        "ball2": lambda: Ball(np.zeros(2, dtype=complex), 1.0),
        "polydisk2": lambda: Polydisk(np.zeros(2, dtype=complex), np.ones(2)),
        "halfplane-x-disk": lambda: Product(upper_half_plane(), unit_disk()),
        "sector-x-disk": lambda: Product(sector(0.0, 0.0, math.pi / 2), unit_disk()),
        "rhp-x-rhp": lambda: Product(right_half_plane(), right_half_plane()),
        "example36": example36_domain,
    }
    if name not in builtins:
        raise KCat0Error(f"unknown builtin domain {name!r}; "
                         f"choose from {sorted(builtins)}")
    return builtins[name]()


def load_json(path: str, what: str):
    """The JSON document at ``path``; a malformed one is named with its line and column."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise KCat0Error(f"malformed {what} JSON at {path}:{exc.lineno}:{exc.colno}: {exc.msg}")
    except OSError as exc:
        raise KCat0Error(f"cannot open {path}: {exc.strerror}") from None


def load_domain(args) -> object:
    if getattr(args, "builtin", None):
        return builtin_domain(args.builtin)
    if getattr(args, "domain", None):
        return domain_from_json(load_json(args.domain, "domain"))
    raise KCat0Error("provide --builtin or --domain")


def point_option(flag: str, text: str | None):
    """Parse a point option; bad or missing input names the flag."""
    if text is None:
        raise KCat0Error(f"{flag} is required")
    try:
        return parse_point(text)
    except ValueError as exc:
        raise KCat0Error(f"{flag}: {exc}") from None


def write_report(report, args) -> None:
    fmt = getattr(args, "format", "json")
    if fmt == "csv" and hasattr(report, "to_csv"):
        payload = report.to_csv()
    else:
        data = report if isinstance(report, dict) else report.to_json()
        payload = json.dumps(data, sort_keys=True, indent=2) + "\n"
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(payload)
        except OSError as exc:
            raise KCat0Error(f"cannot write {args.output}: {exc.strerror}") from None
    else:
        sys.stdout.write(payload)


def cmd_certify(args) -> int:
    if args.tol is not None and args.mode == "product":
        raise KCat0Error("--tol does not apply to --mode product: "
                         "the certificate sets its own midpoint tolerance")
    if args.mode == "midpoint":
        D = load_domain(args)
        cert = cat0.midpoint_defect(D, point_option("--x", args.x), point_option("--y", args.y),
                                    point_option("--z", args.z), tol=args.tol)
        write_report(cert, args)
        return EXIT_VIOLATION if cert.verdict == "violation-certified" else EXIT_OK
    if args.mode == "product":
        left = builtin_domain(args.left)
        right = builtin_domain(args.right)
        base = point_option("--base", args.base) if args.base else None
        cert = cat0.product_certificate(left, right, point_option("--x", args.x),
                                        point_option("--y", args.y), base=base)
        write_report(cert, args)
        return EXIT_VIOLATION if cert.verdict == "violation-certified" else EXIT_OK
    raise KCat0Error(f"unknown certify mode {args.mode!r}")


def cmd_distance(args) -> int:
    D = load_domain(args)
    interval = metric.distance(D, point_option("--from", args.from_),
                               point_option("--to", args.to))
    report = {
        "schema": "kcat0/1",
        "kind": "distance",
        "from": args.from_,
        "to": args.to,
        "distance": {"value": interval.midpoint, "lo": interval.lo, "hi": interval.hi,
                     "method": sorted(interval.methods),
                     "tol": interval.width},
    }
    write_report(report, args)
    return EXIT_OK


def cmd_mconvex(args) -> int:
    D = load_domain(args)
    report = convexity.local_m_convex_check(
        D, window_radius=args.window, m=args.m,
        sample_count=args.samples, seed=args.seed, target_c=args.target_c)
    write_report(report, args)
    return EXIT_OK


_BUILTIN_POLYS = {
    # |z|^2 - 1 on C^2 (the unit ball)
    "ball2": {(2, 0, 0, 0): 1.0, (0, 2, 0, 0): 1.0,
              (0, 0, 2, 0): 1.0, (0, 0, 0, 2): 1.0, (0, 0, 0, 0): -1.0},
    # -Im z1 + |z2|^4
    "quartic": {(0, 1, 0, 0): -1.0, (0, 0, 4, 0): 1.0, (0, 0, 0, 4): 1.0,
                (0, 0, 2, 2): 2.0},
}


def cmd_linetype(args) -> int:
    if args.builtin_r:
        poly = RealPolynomial(2, _BUILTIN_POLYS[args.builtin_r])
    elif args.polynomial:
        data = load_json(args.polynomial, "polynomial")
        try:
            poly = RealPolynomial.from_json(data)
        except KeyError as exc:
            raise KCat0Error(f"polynomial JSON is missing key {exc.args[0]!r}") from None
        except (TypeError, ValueError) as exc:
            raise KCat0Error(f"polynomial JSON has a value of the wrong shape: {exc}") from None
    else:
        raise KCat0Error("provide --builtin-r or --polynomial")
    r = DefiningFunction.from_polynomial(poly)
    result = convexity.line_type(r, point_option("--point", args.point), cap=args.cap)
    write_report(result, args)
    return EXIT_OK


def n_option(ns: list[int]) -> list[int]:
    """The --n values; each must be at least 1."""
    if min(ns) < 1:
        raise KCat0Error(f"--n: every value must be at least 1, got {min(ns)}")
    return ns


def cmd_limits(args) -> int:
    n_option(args.n)
    if args.experiment == "dilation-disk":
        seq = limits.dilation_sequence(unit_disk(), unit_disk(),
                                       factor=lambda n: 1.0 + 1.0 / n)
        pairs = [_pair_option(p) for p in args.pairs] if args.pairs else [([0.0], [0.5])]
        table = limits.convergence_check(seq, unit_disk(), pairs, args.n)
        write_report(table, args)
        return EXIT_OK
    if args.experiment == "lemma32":
        D = load_domain(args)
        seq = limits.scaling_lemma32(D)
        report = seq.to_json(args.n)
        readings = [limits.hausdorff(seq.domain(n), seq.claimed_limit, args.window,
                                     directions=args.directions) for n in args.n]
        report["hausdorff_readings"] = [
            {"n": int(n), **r.to_json()} for n, r in zip(args.n, readings)]
        write_report(report, args)
        return EXIT_OK
    if args.experiment in ("frankel-flat", "frankel-quartic"):
        if args.experiment == "frankel-flat":
            f = lambda x, z: x * x + (math.exp(-1.0 / abs(z)) if z != 0 else 0.0)
        else:
            f = lambda x, z: x * x + abs(z) ** 4
        result = limits.frankel_2b(f, args.n, window_radius=args.window,
                                   hausdorff_directions=args.directions,
                                   seed=args.seed)
        write_report(result, args)
        return EXIT_OK
    raise KCat0Error(f"unknown limits experiment {args.experiment!r}")


def _pair_option(text: str):
    ends = text.split(":")
    if len(ends) != 2:
        raise KCat0Error(f"--pairs: expected 'from:to', got {text!r}")
    return point_option("--pairs", ends[0]), point_option("--pairs", ends[1])


def cmd_example36(args) -> int:
    if args.big_n < 1:
        raise KCat0Error(f"--big-n must be at least 1, got {args.big_n}")
    report = limits.example36(n_list=tuple(n_option(args.n)), big_n=args.big_n,
                              seed=args.seed, mconvex_samples=args.samples,
                              hausdorff_directions=args.directions)
    write_report(report, args)
    return EXIT_OK


def cmd_selftest(args) -> int:
    checks = []

    def check(name, fn):
        try:
            fn()
            checks.append((name, True, ""))
        except Exception as exc:  # report, do not abort the battery
            checks.append((name, False, str(exc)))

    ln3_half = 0.5 * math.log(3.0)
    check("disk distance 0 to 0.5",
          lambda: _assert_close(metric.distance(unit_disk(), [0.0], [0.5]).midpoint,
                                ln3_half, 1e-12))
    check("half-plane distance i to 4i",
          lambda: _assert_close(metric.distance(upper_half_plane(), [1j], [4j]).midpoint,
                                math.log(2.0), 1e-12))
    check("product formula on H x D",
          lambda: _assert_close(
              metric.distance(Product(upper_half_plane(), unit_disk()),
                              [1j, 0.0], [4j, 1.0 / 3.0]).midpoint,
              math.log(2.0), 1e-12))
    check("observation product certificate",
          lambda: _assert_close(
              cat0.product_certificate(upper_half_plane(), unit_disk(),
                                       [1j], [4j], base=[0.0]).defect,
              (0.5 * math.log(2.0)) ** 2, 1e-9))
    check("triangle inequality on the ball",
          _ball_triangle_spotcheck)

    for name, ok, msg in checks:
        sys.stdout.write(f"{'PASS' if ok else 'FAIL'}  {name}{(': ' + msg) if msg else ''}\n")
    return EXIT_OK if all(ok for _, ok, _ in checks) else EXIT_ERROR


def _assert_close(a, b, tol):
    if abs(a - b) > tol:
        raise KCat0Error(f"{a!r} != {b!r} within {tol!r}")


def _ball_triangle_spotcheck():
    rng = np.random.default_rng(7)
    D = Ball(np.zeros(2, dtype=complex), 1.0)
    for _ in range(50):
        pts = []
        while len(pts) < 3:
            raw = rng.normal(size=4)
            z = (raw[:2] + 1j * raw[2:]) * 0.4
            if D.contains(z):
                pts.append(z)
        dxy = metric.distance(D, pts[0], pts[1]).midpoint
        dxz = metric.distance(D, pts[0], pts[2]).midpoint
        dzy = metric.distance(D, pts[2], pts[1]).midpoint
        if dxy > dxz + dzy + 1e-9:
            raise KCat0Error("triangle inequality failed")


class _Parser(argparse.ArgumentParser):
    """A usage error is a KCat0Error, so it exits 1 with one line, not argparse's 2.

    Subparsers are built with the parent's class, so they raise the same way.
    """

    def error(self, message):
        raise KCat0Error(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kcat0", description="Kobayashi / CAT(0) toolbox")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--output", "-o", default=None)
    parser.add_argument("--format", choices=("json", "csv"), default="json")

    # the same options are accepted after the subcommand as well
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--output", "-o", default=argparse.SUPPRESS)
    common.add_argument("--format", choices=("json", "csv"), default=argparse.SUPPRESS)

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", parents=[common],
                       help="midpoint / product certificates")
    p.add_argument("--mode", choices=("midpoint", "product"), default="midpoint")
    p.add_argument("--builtin")
    p.add_argument("--domain")
    p.add_argument("--x")
    p.add_argument("--y")
    p.add_argument("--z")
    p.add_argument("--left")
    p.add_argument("--right")
    p.add_argument("--base")
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("distance", parents=[common], help="Kobayashi distance between two points")
    p.add_argument("--builtin")
    p.add_argument("--domain")
    p.add_argument("--from", dest="from_", required=True)
    p.add_argument("--to", required=True)
    p.set_defaults(fn=cmd_distance)

    p = sub.add_parser("mconvex", parents=[common], help="empirical local m-convexity check")
    p.add_argument("--builtin")
    p.add_argument("--domain")
    p.add_argument("--window", type=float, default=2.0)
    p.add_argument("--m", type=float, default=2.0)
    p.add_argument("--samples", type=int, default=400)
    p.add_argument("--target-c", type=float, default=None)
    p.set_defaults(fn=cmd_mconvex)

    p = sub.add_parser("linetype", parents=[common], help="line type of a boundary point")
    p.add_argument("--polynomial")
    p.add_argument("--builtin-r", choices=sorted(_BUILTIN_POLYS))
    p.add_argument("--point", required=True)
    p.add_argument("--cap", type=int, default=16)
    p.set_defaults(fn=cmd_linetype)

    p = sub.add_parser("limits", parents=[common], help="scaling and convergence experiments")
    p.add_argument("--experiment", required=True,
                   choices=("dilation-disk", "lemma32", "frankel-flat", "frankel-quartic"))
    p.add_argument("--builtin")
    p.add_argument("--domain")
    p.add_argument("--n", type=int, nargs="+", default=[10, 100, 1000])
    p.add_argument("--pairs", nargs="*",
                   help="pairs as 'a+bi,...:c+di,...' (from:to)")
    p.add_argument("--window", type=float, default=1.0)
    p.add_argument("--directions", type=int, default=1024)
    p.set_defaults(fn=cmd_limits)

    p = sub.add_parser("example36", parents=[common], help="run the intersection-of-balls pipeline")
    p.add_argument("--n", type=int, nargs="+", default=[1, 10, 100])
    p.add_argument("--big-n", type=int, default=10 ** 6)
    p.add_argument("--samples", type=int, default=300)
    p.add_argument("--directions", type=int, default=2048)
    p.set_defaults(fn=cmd_example36)

    p = sub.add_parser("selftest", parents=[common], help="run the quick invariant battery")
    p.set_defaults(fn=cmd_selftest)
    return parser


def seed_option(seed: int | None) -> int:
    """The seed: --seed, else KCAT0_SEED, else 0; it must be a non-negative integer."""
    if seed is None:
        source, text = "KCAT0_SEED", os.environ.get("KCAT0_SEED", "0")
    else:
        source, text = "--seed", str(seed)
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise KCat0Error(f"{source} must be a non-negative integer, got {text!r}")
    return value


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        args.seed = seed_option(args.seed)
        return args.fn(args)
    except KCat0Error as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
