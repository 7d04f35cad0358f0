"""Command-line entry point: one subcommand per experiment, CSV/JSON output."""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

from . import __version__, averages, counterexample, dynamics, sieve, twosets, weights
from .averages import AverageScheme
from .errors import (
    InvalidRangeError,
    OmegalabError,
    RangeTooLargeError,
    SearchExhaustedError,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RESOURCE = 3

HARD_CAP = sieve.HARD_LIMIT


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        header, rows, meta = args.handler(args)
    except _AlreadyEmitted:
        return EXIT_OK
    except (RangeTooLargeError, SearchExhaustedError) as exc:
        print(f"omegalab: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except OmegalabError as exc:
        print(f"omegalab: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _emit(args, header, rows, meta)
    return EXIT_OK


def _common(sub):
    sub.add_argument("--workers", type=int, default=1)
    sub.add_argument("--segment-length", type=int, default=sieve.DEFAULT_SEGMENT_LENGTH)
    sub.add_argument("--json", action="store_true", help="emit JSON instead of CSV")
    sub.add_argument("--out", default=None, help="output path (default: stdout)")
    sub.add_argument("--precision", type=int, default=12, help="significant digits")
    sub.add_argument("--quiet", action="store_true", help="suppress progress output")


def _limit_arg(sub, required=True):
    sub.add_argument("--limit", type=int, required=required)


def _check_cap(limit: int) -> None:
    if limit > HARD_CAP:
        raise RangeTooLargeError(f"limit {limit} exceeds the hard cap {HARD_CAP}")


def _progress(args, message: str) -> None:
    if not args.quiet:
        print(message, file=sys.stderr)


def _profile(args, n):
    _check_cap(n)
    spans = sieve.segment_spans(n, args.segment_length)
    _progress(args, f"sieving [1, {n}] in {len(spans)} segments "
                    f"({args.workers} workers)")
    return sieve.omega_profile(n, args.workers, args.segment_length)


def _fmt(value, precision):
    if isinstance(value, float):
        return format(value, f".{precision}g")
    if isinstance(value, complex):
        return format(value.real, f".{precision}g") + (
            f"+{format(value.imag, f'.{precision}g')}j"
            if value.imag >= 0
            else f"{format(value.imag, f'.{precision}g')}j"
        )
    return value


def _emit(args, header, rows, meta):
    precision = getattr(args, "precision", 12)
    if args.json:
        payload = {
            "meta": {"subcommand": args.subcommand, "version": __version__, **meta},
            "rows": [dict(zip(header, row)) for row in rows],
        }
        text = json.dumps(payload, indent=2, default=_json_default) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v, precision) for v in row])
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_default(obj):
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    raise TypeError(f"not JSON serializable: {type(obj)}")


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (header, rows, meta)
# ---------------------------------------------------------------------------


def _cmd_sieve(args):
    _check_cap(args.hi)
    seg = sieve.sieve_segment(args.lo, args.hi)
    rows = [
        (n, int(seg.counts[n - args.lo]), sieve.liouville(int(seg.counts[n - args.lo])))
        for n in range(args.lo, args.hi)
    ]
    return ("n", "omega", "liouville"), rows, {"lo": args.lo, "hi": args.hi}


def _cmd_pik(args):
    prof = _profile(args, args.limit)
    rows = [(k, int(prof.pik[k]), int(prof.pik[k]) / args.limit)
            for k in range(prof.k_max + 1)]
    return ("k", "pi_k", "weight"), rows, {"limit": args.limit}


def _decades(limit):
    n = 10
    while n <= limit:
        yield n
        n *= 10
    if n // 10 != limit:
        yield limit


def _cmd_pnt(args):
    checkpoints = list(_decades(args.limit)) if args.stride == "decade" else [args.limit]
    rows = []
    orbit = dynamics.rotation_two_points_liouville()
    for n in checkpoints:
        prof = _profile(args, n)
        ces = averages.average_along_omega(orbit, n, AverageScheme.CESARO, profile=prof)
        log = averages.average_along_omega(
            orbit, n, AverageScheme.LOGARITHMIC, profile=prof
        )
        rows.append((n, ces.real, log.real))
    return ("N", "cesaro_liouville", "log_liouville"), rows, {"limit": args.limit}


def _cmd_logpnt(args):
    checkpoints = list(_decades(args.limit)) if args.stride == "decade" else [args.limit]
    rows = []
    orbit = dynamics.rotation_two_points_liouville()
    for n in checkpoints:
        prof = _profile(args, n)
        log = averages.average_along_omega(
            orbit, n, AverageScheme.LOGARITHMIC, profile=prof
        )
        rows.append((n, log.real))
    return ("N", "log_liouville"), rows, {"limit": args.limit}


def _cmd_weyl(args):
    prof = _profile(args, args.limit)
    value = averages.weyl_sum(args.beta, args.limit, profile=prof)
    rows = [(args.beta, args.limit, value.real, value.imag, abs(value))]
    return ("beta", "N", "re", "im", "modulus"), rows, {"limit": args.limit}


MAX_GRID_POINTS = 10**5


def _parse_grid(spec: str):
    """Points lo, lo + step, ... <= hi of a 'lo:hi:step' spec."""
    try:
        lo, hi, step = (float(part) for part in spec.split(":"))
    except ValueError:
        raise InvalidRangeError(f"grid {spec!r} is not lo:hi:step") from None
    if not all(map(math.isfinite, (lo, hi, step))) or step <= 0:
        raise InvalidRangeError(f"grid {spec!r} needs finite bounds and step > 0")
    if (hi - lo) / step >= MAX_GRID_POINTS:
        raise InvalidRangeError(f"grid {spec!r} has more than {MAX_GRID_POINTS} points")
    points = []
    x = lo
    while x <= hi + 1e-12:
        points.append(round(x, 12))
        x += step
    return points


def _cmd_erdos_kac(args):
    prof = _profile(args, args.limit)
    report = averages.ek_report(args.limit, _parse_grid(args.grid), profile=prof)
    rows = [
        (a, b, emp, gau, abs(emp - gau))
        for (a, b), emp, gau in zip(report.pairs, report.empirical, report.gaussian)
    ]
    meta = {"limit": args.limit, "sup_discrepancy": report.sup_discrepancy}
    return ("A", "B", "empirical", "gaussian", "abs_error"), rows, meta


def _parse_bump(spec: str, ramp: float):
    lo, hi = (float(part) for part in spec.split(","))
    return averages.smoothed_indicator(lo, hi, ramp)


def _cmd_correlate(args):
    prof = _profile(args, args.limit)
    orbit = dynamics.parse_system(args.system)
    F = _parse_bump(args.bump, args.ramp)
    value = averages.correlation_sum(F, orbit, args.limit, profile=prof)
    ek = averages.ek_weighted_average(F, args.limit, profile=prof)
    product = ek * orbit.space_mean
    rows = [
        (
            args.limit,
            value.real,
            value.imag,
            abs(value),
            complex(product).real,
            complex(product).imag,
        )
    ]
    header = ("N", "re", "im", "modulus", "product_limit_re", "product_limit_im")
    return header, rows, {"limit": args.limit, "system": args.system}


def _cmd_weights(args):
    prof = _profile(args, args.limit)
    exact = weights.exact_weights(args.limit, profile=prof)
    window = weights.window_for(args.limit, args.C)
    erdos = weights.erdos_weights(args.limit, window)
    gauss = weights.gaussian_weights(window)
    k_hi = max(exact.k_hi, window.k_hi)
    rows = [
        (k, exact.weight(k), erdos.weight(k), gauss.weight(k))
        for k in range(0, k_hi + 1)
    ]
    return ("k", "exact", "erdos", "gaussian"), rows, {"limit": args.limit, "C": args.C}


def _cmd_extrapolate(args):
    with open(args.blocks, encoding="utf-8") as fh:
        intervals = [(int(lo), int(hi)) for lo, hi in json.load(fh)]
    seq = counterexample.BlockSequence(counterexample.merge_intervals(intervals))
    window = weights.GaussianWindowSpec(loglogn=args.loglogn, C=args.C)
    value = weights.extrapolated_average(seq, window)
    mass = weights.gaussian_weights(window).total()
    rows = [(args.loglogn, value.real, mass)]
    return ("loglogn", "value", "window_mass"), rows, {"C": args.C}


def _cmd_twosets(args):
    try:
        pair = twosets.construct_pair(args.epsilon, args.rho, args.limit)
    except SearchExhaustedError as exc:
        if not args.allow_partial or exc.best_pair is None:
            raise
        pair = exc.best_pair
    c1 = twosets.coupling(pair.b1)
    c2 = twosets.coupling(pair.b2)
    payload = {
        "meta": {
            "subcommand": args.subcommand,
            "version": __version__,
            "epsilon": args.epsilon,
            "rho": args.rho,
            "limit": args.limit,
        },
        "b1": list(pair.b1),
        "b2": list(pair.b2),
        "coupling_b1": c1,
        "coupling_b2": c2,
    }
    text = json.dumps(payload, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    raise _AlreadyEmitted


class _AlreadyEmitted(Exception):
    pass


def _cmd_invariance(args):
    prof = _profile(args, args.limit)
    F = _parse_bump(args.bump, args.ramp)
    a = _parse_arith(args.a)
    gap = twosets.invariance_gap(F, a, args.limit, profile=prof)
    return ("N", "gap"), [(args.limit, gap)], {"limit": args.limit, "a": args.a}


def _parse_arith(name: str):
    if name == "parity":
        return lambda k: (-1) ** k
    if name == "one":
        return lambda k: 1.0
    raise InvalidRangeError(f"unknown arithmetic function {name!r}")


def _cmd_counterexample(args):
    if args.blocks:
        with open(args.blocks, encoding="utf-8") as fh:
            intervals = [(int(lo), int(hi)) for lo, hi in json.load(fh)]
        seq = counterexample.BlockSequence(counterexample.merge_intervals(intervals))
    else:
        seq = counterexample.erdos_blocks(args.kmax)
    if args.mode == "extrapolate":
        cps = [counterexample.Checkpoints(k) for k in range(1, args.kmax + 1)]
        rows = counterexample.oscillation_profile(seq, cps, args.C)
        return ("loglogn", "value"), rows, {"kmax": args.kmax, "C": args.C}
    prof = _profile(args, args.limit)
    value = counterexample.average_along_omega_blocks(seq, args.limit, profile=prof)
    defect = counterexample.genericity_defect(seq, args.limit)
    rows = [(args.limit, value, defect)]
    return ("N", "omega_average", "genericity_defect"), rows, {"kmax": args.kmax}


def _cmd_shifted(args):
    prof = _profile(args, args.limit)
    a = _parse_arith(args.a)
    value = averages.shifted_omega_average(a, args.limit, args.shift, profile=prof)
    return (
        ("N", "shift", "re", "im"),
        [(args.limit, args.shift, value.real, value.imag)],
        {"limit": args.limit},
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omegalab",
        description="Prime-factor statistics and ergodic averages along Omega(n)",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    sub = subs.add_parser("sieve", help="Omega(n) over a range")
    sub.add_argument("--lo", type=int, required=True)
    sub.add_argument("--hi", type=int, required=True)
    _common(sub)
    sub.set_defaults(handler=_cmd_sieve)

    sub = subs.add_parser("pik", help="pi_k histogram")
    _limit_arg(sub)
    _common(sub)
    sub.set_defaults(handler=_cmd_pik)

    sub = subs.add_parser("pnt", help="Liouville averages")
    _limit_arg(sub)
    sub.add_argument("--stride", choices=["decade", "single"], default="single")
    _common(sub)
    sub.set_defaults(handler=_cmd_pnt)

    sub = subs.add_parser("logpnt", help="logarithmic Liouville averages")
    _limit_arg(sub)
    sub.add_argument("--stride", choices=["decade", "single"], default="single")
    _common(sub)
    sub.set_defaults(handler=_cmd_logpnt)

    sub = subs.add_parser("weyl", help="exponential sum along Omega(n)")
    _limit_arg(sub)
    sub.add_argument("--beta", type=float, required=True)
    _common(sub)
    sub.set_defaults(handler=_cmd_weyl)

    sub = subs.add_parser("erdos-kac", help="empirical vs Gaussian distribution")
    _limit_arg(sub)
    sub.add_argument("--grid", default="-3:3:0.25", help="lo:hi:step")
    _common(sub)
    sub.set_defaults(handler=_cmd_erdos_kac)

    sub = subs.add_parser("correlate", help="test-function-weighted orbit average")
    _limit_arg(sub)
    sub.add_argument("--system", default="liouville")
    sub.add_argument("--bump", default="-1,1", help="plateau lo,hi")
    sub.add_argument("--ramp", type=float, default=1.0)
    _common(sub)
    sub.set_defaults(handler=_cmd_correlate)

    sub = subs.add_parser("weights", help="exact vs estimated weights per k")
    _limit_arg(sub)
    sub.add_argument("--C", type=float, default=3.0)
    sub.add_argument("--compare", action="store_true")
    _common(sub)
    sub.set_defaults(handler=_cmd_weights)

    sub = subs.add_parser("extrapolate", help="Gaussian-weight virtual-N average")
    sub.add_argument("--loglogn", type=float, required=True)
    sub.add_argument("--C", type=float, default=3.0)
    sub.add_argument("--blocks", required=True, help="JSON array of [lo, hi] pairs")
    _common(sub)
    sub.set_defaults(handler=_cmd_extrapolate)

    sub = subs.add_parser("twosets", help="matched prime / 2-almost-prime sets")
    _limit_arg(sub)
    sub.add_argument("--epsilon", type=float, required=True)
    sub.add_argument("--rho", type=float, required=True)
    sub.add_argument(
        "--allow-partial",
        action="store_true",
        help="emit the best pair even if the coupling target was not reached",
    )
    _common(sub)
    sub.set_defaults(handler=_cmd_twosets)

    sub = subs.add_parser("invariance", help="shift-invariance gap")
    _limit_arg(sub)
    sub.add_argument("--a", default="parity")
    sub.add_argument("--bump", default="-2,2")
    sub.add_argument("--ramp", type=float, default=1.0)
    _common(sub)
    sub.set_defaults(handler=_cmd_invariance)

    sub = subs.add_parser("counterexample", help="oscillating block averages")
    sub.add_argument("--kmax", type=int, default=5)
    sub.add_argument("--C", type=float, default=3.0)
    sub.add_argument("--mode", choices=["extrapolate", "sieve"], default="extrapolate")
    sub.add_argument("--limit", type=int, default=10**6)
    sub.add_argument("--blocks", default=None)
    _common(sub)
    sub.set_defaults(handler=_cmd_counterexample)

    sub = subs.add_parser("shifted", help="average of a(Omega(n) + shift)")
    _limit_arg(sub)
    sub.add_argument("--shift", type=int, default=0)
    sub.add_argument("--a", default="parity")
    _common(sub)
    sub.set_defaults(handler=_cmd_shifted)

    return parser


if __name__ == "__main__":
    raise SystemExit(main())
