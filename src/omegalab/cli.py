"""Command-line entry point: one subcommand per experiment, CSV/JSON output."""

from __future__ import annotations

import argparse
import csv
import gc
import importlib
import io
import json
import math
import os
import sys

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RESOURCE = 3

LIBRARY = ("averages", "counterexample", "dynamics", "sieve", "twosets", "weights")
# The library modules each subcommand's code here reads.  Loading one loads
# what it imports, so pik loads sieve, kernels and errors, and no averages.
SUBCOMMAND_MODULES = {
    "sieve": ("sieve",),
    "pik": ("sieve",),
    "pnt": ("sieve", "dynamics", "averages"),
    "weyl": ("sieve", "dynamics", "averages"),
    "erdos-kac": ("sieve", "averages"),
    "correlate": ("sieve", "dynamics", "averages"),
    "weights": ("sieve", "weights"),
    "extrapolate": ("counterexample", "weights"),
    "twosets": ("twosets",),
    "counterexample": ("sieve", "counterexample"),
}


def _load_library(modules=LIBRARY) -> None:
    """Bind the given library modules here, and the error classes.  main calls
    this only once argv has parsed, with its subcommand's modules, so --help
    and usage errors never import numpy and a run loads only what it reads."""
    global __version__, InvalidRangeError, OmegalabError, RangeTooLargeError
    global SearchExhaustedError
    from . import __version__
    from .errors import (
        InvalidRangeError, OmegalabError, RangeTooLargeError, SearchExhaustedError,
    )
    for name in modules:
        globals()[name] = importlib.import_module(f"{__package__}.{name}")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        finally:  # --help writes its text, and a usage error its message, then exits
            _say()
            sys.stdout.flush()
    except OSError as exc:  # the help text is lost
        _drop("stdout")
        _say(f"omegalab: stdout: {exc.strerror}")
        return EXIT_USAGE
    _load_library(SUBCOMMAND_MODULES[args.subcommand])
    try:
        _check_args(args)
        table = args.handler(args)
        if table is not None:  # None: the handler wrote its own document
            _emit(args, *table)
    except RangeTooLargeError as exc:  # SearchExhaustedError too
        _say(f"omegalab: {exc}")
        return EXIT_RESOURCE
    except OmegalabError as exc:
        _say(f"omegalab: {exc}")
        return EXIT_USAGE
    return EXIT_OK


def run() -> int:
    """The process entry point: main, then an exit that skips the final
    collection.  Once both streams are flushed, gc.freeze() moves every
    tracked object out of the collector's reach, so the interpreter's last
    collection does not walk numpy's and the library's objects only to free
    them at exit; atexit handlers and stream flushes still run."""
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    gc.freeze()
    return code


def _check_args(args) -> None:
    """Checks on options that would otherwise fail only after the computation."""
    if args.out:
        directory = os.path.dirname(os.path.abspath(args.out))
        if not os.path.isdir(directory):
            raise OmegalabError(f"--out {args.out}: no such directory")
        if os.path.isdir(args.out):
            raise OmegalabError(f"--out {args.out}: is a directory")
        if not os.access(args.out if os.path.exists(args.out) else directory, os.W_OK):
            raise OmegalabError(f"--out {args.out}: permission denied")
    if getattr(args, "precision", 1) < 1:
        raise InvalidRangeError(f"--precision must be >= 1, got {args.precision}")
    if hasattr(args, "workers"):
        sieve._check_workers(args.workers)


def _output_args(sub, table=True, floats=True):
    """--out; a table also gets --json, and --precision if it holds floats."""
    if table:
        sub.add_argument("--json", action="store_true", help="emit JSON instead of CSV")
    if table and floats:
        sub.add_argument("--precision", type=int, default=12, help="significant digits")
    sub.add_argument("--out", default=None, help="output path (default: stdout)")


def _sieve_args(sub):
    """--workers, which is only checked, and --quiet for the progress line of every profile."""
    sub.add_argument("--workers", type=int, default=1)
    sub.add_argument("--quiet", action="store_true", help="suppress progress output")


def _limit_arg(sub):
    sub.add_argument("--limit", type=int, required=True)


def _drop(stream: str) -> None:
    """Point sys.stdout or sys.stderr at os.devnull after a failed write, so that
    what the broken stream still buffers is not flushed again and fails at exit."""
    setattr(sys, stream, open(os.devnull, "w"))


def _say(*lines: str) -> None:
    """Write lines to stderr and flush it.  stderr holds no result: a failed
    write drops the stream and the run goes on."""
    try:
        for line in lines:
            print(line, file=sys.stderr)
        sys.stderr.flush()
    except OSError:
        _drop("stderr")


def _check_limit(n: int) -> None:
    """--limit is >= 1 and within HARD_LIMIT, before the progress line and any table."""
    if n < 1:
        raise InvalidRangeError(f"--limit must be >= 1, got {n}")
    sieve._check_limit(n + 1)


def _progress(args, message: str) -> None:
    if not args.quiet:
        _say(message)


def _counting(args, n, what=""):
    """Check --limit n, then say what is counted at n: there is no sieve pass,
    so --workers is only checked."""
    _check_limit(n)
    _progress(args, f"counting pi_k({n}){what} from prime counts: no sieve pass, "
                    f"--workers {args.workers} not used")


def _profile(args, n):
    """The pi_k profile at n, with no harmonic mass."""
    _counting(args, n)
    return sieve.pi_k_profile(n)


def _fmt(value, precision):
    if isinstance(value, float):
        return format(value, f".{precision}g")
    return value


def _emit(args, header, rows, meta):
    precision = getattr(args, "precision", None)  # None: the table holds no floats
    if args.json:
        payload = {
            "meta": {"subcommand": args.subcommand, "version": __version__, **meta},
            "rows": [dict(zip(header, row)) for row in rows],
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v, precision) for v in row])
        text = buf.getvalue()
    _write(args, text)


def _write(args, text):
    """Write text to --out, or to stdout without it.  stdout is flushed here,
    so a failed write to either ends in one line, not in a traceback at exit."""
    if not args.out:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as exc:
            _drop("stdout")
            raise OmegalabError(f"stdout: {exc.strerror}") from None
        return
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise OmegalabError(f"--out {args.out}: {exc.strerror}") from None


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (header, rows, meta), or None when it
# writes its own document
# ---------------------------------------------------------------------------


# Rows of one sieve table: about 1 KB each in memory, as tuples, dicts and the
# JSON encoder's chunks.  Peak RSS at the cap (wait4, stdout to /dev/null):
# 135 MB in 1.1 s as JSON, 48 MB as CSV.
MAX_SIEVE_ROWS = 10**5


def _cmd_sieve(args):
    sieve._check_segment(args.lo, args.hi)  # sieve_segment's own checks come first
    if args.hi - args.lo > MAX_SIEVE_ROWS:  # before any integer is sieved
        raise RangeTooLargeError(
            f"[{args.lo}, {args.hi}) has {args.hi - args.lo} rows, "
            f"over the cap of {MAX_SIEVE_ROWS}"
        )
    counts = sieve.sieve_segment(args.lo, args.hi)
    rows = [(n, c, sieve.liouville(c)) for n, c in zip(range(args.lo, args.hi), counts.tolist())]
    return ("n", "omega", "liouville"), rows, {"lo": args.lo, "hi": args.hi}


def _cmd_pik(args):
    prof = _profile(args, args.limit)
    rows = [(k, int(prof.pik[k]), int(prof.pik[k]) / args.limit)
            for k in range(prof.k_max + 1)]
    return ("k", "pi_k", "weight"), rows, {"limit": args.limit}


def _decades(limit):
    n = 10
    while n < limit:
        yield n
        n *= 10
    yield limit


def _cmd_pnt(args):
    checkpoints = list(_decades(args.limit)) if args.stride == "decade" else [args.limit]
    _check_limit(args.limit)  # the last and largest checkpoint, before the first count
    rows = []
    orbit = dynamics.rotation_two_points_liouville()
    for n in checkpoints:
        _counting(args, n, " and the harmonic mass")
        prof = sieve.omega_profile(n, args.workers)
        ces = averages.average_along_omega(orbit, prof, averages.AverageScheme.CESARO)
        log = averages.average_along_omega(orbit, prof, averages.AverageScheme.LOGARITHMIC)
        rows.append((n, ces.real, log.real))
    return ("N", "cesaro_liouville", "log_liouville"), rows, {"limit": args.limit}


def _cmd_weyl(args):
    # checks --beta before the progress line and the count
    orbit = dynamics.exponential_orbit(args.beta)
    value = averages.average_along_omega(orbit, _profile(args, args.limit))
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
    # The point count comes from one division, never from stepping x, which
    # stalls where x + step == x.  The last point may pass hi by 1e-12.
    steps = (hi - lo + 1e-12) / step
    if steps < 0:
        return []
    if not steps < MAX_GRID_POINTS:  # also an inf quotient
        raise InvalidRangeError(f"grid {spec!r} has more than {MAX_GRID_POINTS} points")
    return [round(lo + i * step, 12) for i in range(math.floor(steps) + 1)]


def _cmd_erdos_kac(args):
    grid = _parse_grid(args.grid)
    # checks --grid and --limit >= 3 before the progress line and the count
    averages.grid_cells(grid)
    averages.EKNormalizer(args.limit)
    report = averages.ek_report(_profile(args, args.limit), grid)
    rows = [
        (a, b, emp, gau, abs(emp - gau))
        for (a, b), emp, gau in zip(report.pairs, report.empirical, report.gaussian)
    ]
    meta = {"limit": args.limit, "sup_discrepancy": report.sup_discrepancy}
    return ("A", "B", "empirical", "gaussian", "abs_error"), rows, meta


def _parse_bump(spec: str, ramp: float):
    try:
        lo, hi = (float(part) for part in spec.split(","))
    except ValueError:
        raise InvalidRangeError(f"bump {spec!r} is not lo,hi") from None
    return averages.smoothed_indicator(lo, hi, ramp)


def _cmd_correlate(args):
    orbit = dynamics.parse_system(args.system)
    F = _parse_bump(args.bump, args.ramp)
    # checks --limit >= 3 before the progress line and the count
    averages.EKNormalizer(args.limit)
    prof = _profile(args, args.limit)
    value = averages.correlation_sum(F, orbit, prof)
    ek = averages.ek_weighted_average(F, prof)
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
    # checks --C before the progress line and the count
    window = weights.window_for(args.limit, args.C)
    exact = weights.exact_weights(_profile(args, args.limit))
    erdos = weights.erdos_weights(window)
    gauss = weights.gaussian_weights(window)
    k_hi = max(exact.k_hi, window.k_hi)
    rows = [
        (k, exact.weight(k), erdos.weight(k), gauss.weight(k))
        for k in range(0, k_hi + 1)
    ]
    return ("k", "exact", "erdos", "gaussian"), rows, {"limit": args.limit, "C": args.C}


def _read_blocks(path):
    """The block sequence of a JSON file holding a list of [lo, hi] pairs."""
    try:
        with open(path, encoding="utf-8") as fh:
            pairs = json.load(fh)
    except OSError as exc:
        raise InvalidRangeError(f"--blocks {path}: {exc.strerror}") from None
    except (ValueError, RecursionError):  # RecursionError: arrays nested too deep
        pairs = None
    # JSON integers only: int() would truncate 1.9 and accept "3" or true.
    if not isinstance(pairs, list) or not all(
        isinstance(pair, list) and len(pair) == 2 and all(type(v) is int for v in pair)
        for pair in pairs
    ):
        raise InvalidRangeError(f"--blocks {path}: not a list of [lo, hi] pairs")
    return counterexample.BlockSequence(counterexample.merge_intervals(map(tuple, pairs)))


def _cmd_extrapolate(args):
    seq = _read_blocks(args.blocks)
    window = weights.GaussianWindowSpec(loglogn=args.loglogn, C=args.C)
    value = weights.extrapolated_average(seq, window)
    mass = weights.extrapolated_average(lambda ks: 1.0, window).real  # the sum of w_k
    rows = [(args.loglogn, value.real, mass)]
    return ("loglogn", "value", "window_mass"), rows, {"C": args.C}


def _cmd_twosets(args):
    try:
        pair = twosets.construct_pair(args.epsilon, args.rho, args.limit)
    except SearchExhaustedError as exc:
        if not args.allow_partial or exc.best_pair is None:
            raise
        pair = exc.best_pair
    c1, c2 = pair.couplings
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
    _write(args, json.dumps(payload, indent=2) + "\n")


def _cmd_counterexample(args):
    if args.blocks:
        seq = _read_blocks(args.blocks)
    else:
        seq = counterexample.erdos_blocks(args.kmax)
    if args.mode == "extrapolate":
        cps = map(counterexample.Checkpoints, range(1, args.kmax + 1))
        rows = counterexample.oscillation_profile(seq, cps, args.C)
        return ("loglogn", "value"), rows, {"kmax": args.kmax, "C": args.C}
    value = counterexample.average_along_omega_blocks(seq, _profile(args, args.limit))
    defect = counterexample.genericity_defect(seq, args.limit)
    rows = [(args.limit, value, defect)]
    return ("N", "omega_average", "genericity_defect"), rows, {"kmax": args.kmax}


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None):
        """argparse's, except that a failed write raises, which argparse would not."""
        (file or sys.stdout).write(self.format_help())


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="omegalab",
        description="Prime-factor statistics and ergodic averages along Omega(n)",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    sub = subs.add_parser("sieve", help="Omega(n) over a range")
    sub.add_argument("--lo", type=int, required=True)
    sub.add_argument("--hi", type=int, required=True)
    _output_args(sub, floats=False)
    sub.set_defaults(handler=_cmd_sieve)

    sub = subs.add_parser("pik", help="pi_k histogram")
    _limit_arg(sub)
    _output_args(sub)
    _sieve_args(sub)
    sub.set_defaults(handler=_cmd_pik)

    sub = subs.add_parser("pnt", help="Liouville averages")
    _limit_arg(sub)
    sub.add_argument("--stride", choices=["decade", "single"], default="single")
    _output_args(sub)
    _sieve_args(sub)
    sub.set_defaults(handler=_cmd_pnt)

    sub = subs.add_parser("weyl", help="exponential sum along Omega(n)")
    _limit_arg(sub)
    sub.add_argument("--beta", type=float, required=True)
    _output_args(sub)
    _sieve_args(sub)
    sub.set_defaults(handler=_cmd_weyl)

    sub = subs.add_parser("erdos-kac", help="empirical vs Gaussian distribution")
    _limit_arg(sub)
    sub.add_argument("--grid", default="-3:3:0.25", help="lo:hi:step")
    _output_args(sub)
    _sieve_args(sub)
    sub.set_defaults(handler=_cmd_erdos_kac)

    sub = subs.add_parser("correlate", help="test-function-weighted orbit average")
    _limit_arg(sub)
    sub.add_argument("--system", default="liouville")
    sub.add_argument("--bump", default="-1,1", help="plateau lo,hi")
    sub.add_argument("--ramp", type=float, default=1.0)
    _output_args(sub)
    _sieve_args(sub)
    sub.set_defaults(handler=_cmd_correlate)

    sub = subs.add_parser("weights", help="exact vs estimated weights per k")
    _limit_arg(sub)
    sub.add_argument("--C", type=float, default=3.0)
    _output_args(sub)
    _sieve_args(sub)
    sub.set_defaults(handler=_cmd_weights)

    sub = subs.add_parser("extrapolate", help="Gaussian-weight virtual-N average")
    sub.add_argument("--loglogn", type=float, required=True)
    sub.add_argument("--C", type=float, default=3.0)
    sub.add_argument("--blocks", required=True, help="JSON array of [lo, hi] pairs")
    _output_args(sub)
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
    _output_args(sub, table=False)
    sub.set_defaults(handler=_cmd_twosets)

    sub = subs.add_parser("counterexample", help="oscillating block averages")
    sub.add_argument("--kmax", type=int, default=5)
    sub.add_argument("--C", type=float, default=3.0)
    sub.add_argument("--mode", choices=["extrapolate", "sieve"], default="extrapolate")
    sub.add_argument("--limit", type=int, default=10**6)
    sub.add_argument("--blocks", default=None)
    _output_args(sub)
    _sieve_args(sub)
    sub.set_defaults(handler=_cmd_counterexample)

    return parser


if __name__ == "__main__":
    raise SystemExit(run())
