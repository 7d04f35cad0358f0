"""Traced entry points of the omegalab benchmark.

    python3 perfbench/traced.py cli OUT.json -- <omegalab arguments...>
        Runs one CLI invocation inside this process, recording a span
        around every call of a public function of the library's modules
        (sieve, kernels, averages, weights, counterexample, twosets, cli),
        and writes the spans to OUT.json when the invocation ends.
    python3 perfbench/traced.py sweep OUT.json
        Times the Omega kernel alone at segment lengths 2^12 ... 2^22.
    python3 perfbench/traced.py env OUT.json
        Records the library's backend and numpy version.

The library is not modified.  Each traced function is replaced, under
every name that an omegalab module binds it to, by a wrapper that records
a span: name, start, end, parent span and pid.  Spans stay in memory.
Pool workers are forked from the traced process, so they inherit the
wrappers; each worker spools its spans to OUT.json.spool/<pid>.jsonl
when its outermost span ends, and the parent merges the spool when the
invocation returns.  perf_counter is CLOCK_MONOTONIC, shared by all
processes, so worker spans line up with the parent's.
"""

from __future__ import annotations

import functools
import glob
import itertools
import json
import math
import os
import sys
import time

# Pass structure of the numpy fallback kernel, counted without doing the
# work: one strided slice per prime power q < hi with p^2 < hi, each slice
# updating counts (uint8) and found (int64) in place.
BYTES_PER_UPDATE = 2 * (1 + 8)  # read and write of counts and found
# zeros + ones + arange + the found < arange compare (two reads, one bool
# write) + reading the mask back for the final increment.
BYTES_PER_INT = 1 + 8 + 8 + 8 + 8 + 1 + 1

LAYERS = ("sieve", "kernels", "averages", "weights", "counterexample", "twosets", "cli")
# Per-element helpers: a span per call would cost more than the call.
UNTRACED = {"sieve.liouville", "twosets.rho_index", "twosets.phi"}
COUNTED = {"sieve.omega_oracle"}


def kernel_passes(lo: int, hi: int, primes) -> tuple[int, int]:
    """(strided slices, element updates) the fallback kernel makes on [lo, hi)."""
    n = hi - lo
    slices = updates = 0
    for p in primes:
        p = int(p)
        if p * p >= hi:
            break
        q = p
        while True:
            start = (-lo) % q
            slices += 1
            updates += len(range(start, n, q))
            if q > (hi - 1) // p:
                break
            q *= p
    return slices, updates


class Tracer:
    """In-memory span recorder shared by a traced process and its forked workers."""

    def __init__(self, spool: str):
        self.spool = spool
        self.pid = os.getpid()
        self.worker = False
        self.base_depth = 0
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self.stack: list[str] = []
        self.ids = itertools.count()

    def _follow_fork(self) -> None:
        pid = os.getpid()
        if pid != self.pid:  # first call in a forked worker: drop the parent's records
            self.pid, self.worker = pid, True
            self.spans, self.counts = [], {}
            self.base_depth = len(self.stack)

    def wrap(self, name: str, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._follow_fork()
            span_id = f"{self.pid}:{next(self.ids)}"
            parent = self.stack[-1] if self.stack else None
            self.stack.append(span_id)
            start = time.perf_counter()
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = time.perf_counter()
                extra = attrs(args, result) if done and attrs else {}
                self._close(name, span_id, parent, start, end, extra)

        return traced

    def count(self, name: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self._follow_fork()
            self.counts[name] = self.counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def _close(self, name, span_id, parent, start, end, attrs):
        self.stack.pop()
        self.spans.append({"name": name, "id": span_id, "parent": parent, "pid": self.pid,
                           "start": start, "end": end, **attrs})
        if self.worker and len(self.stack) == self.base_depth:
            os.makedirs(self.spool, exist_ok=True)
            with open(os.path.join(self.spool, f"{self.pid}.jsonl"), "a") as fh:
                fh.write(json.dumps({"spans": self.spans, "counts": self.counts}) + "\n")
            self.spans, self.counts = [], {}

    def merge_spool(self) -> None:
        for path in sorted(glob.glob(os.path.join(self.spool, "*.jsonl"))):
            with open(path) as fh:
                for line in fh:
                    record = json.loads(line)
                    self.spans.extend(record["spans"])
                    for name, n in record["counts"].items():
                        self.counts[name] = self.counts.get(name, 0) + n
            os.remove(path)
        if os.path.isdir(self.spool):
            os.rmdir(self.spool)


def _kernel_attrs(args, result):
    lo, hi, primes = args[:3]
    slices, updates = kernel_passes(lo, hi, primes)
    return {"ints": hi - lo, "lo": lo, "hi": hi, "slices": slices, "updates": updates}


def _map_attrs(args, result):
    workers = args[2] if len(args) > 2 else 1
    return {"workers": max(1, min(workers, len(result)))}


def _cache_read_attrs(args, result):
    from omegalab import sieve

    attrs = {"enabled": sieve._cache_dir() is not None, "hit": result is not None}
    if result is not None:
        attrs["bytes"] = len(sieve.CACHE_MAGIC) + 16 + result.nbytes
    return attrs


def _cache_write_attrs(args, result):
    from omegalab import sieve

    if sieve._cache_dir() is None:
        return {"bytes": 0}
    return {"bytes": len(sieve.CACHE_MAGIC) + 16 + args[2].nbytes}


def _coupling_attrs(args, result):
    size = len(set(args[0]))
    return {"size": size, "pairs": size * (size - 1) // 2}


def _extrapolated_attrs(args, result):
    a, window = args[:2]
    points = window.k_hi - window.k_lo + 1
    return {"block_evals": points if type(a).__name__ == "BlockSequence" else 0}


def _gaussian_attrs(args, result):
    return {"points": len(result.weights)}


ATTRS = {
    "kernels.omega_segment": _kernel_attrs,
    "sieve.map_segments": _map_attrs,
    "sieve.cache_read": _cache_read_attrs,
    "sieve.cache_write": _cache_write_attrs,
    "twosets.coupling": _coupling_attrs,
    "weights.extrapolated_average": _extrapolated_attrs,
    "weights.gaussian_weights": _gaussian_attrs,
}


def install(tracer: Tracer) -> None:
    """Replace every traced function under each name an omegalab module binds it to."""
    import omegalab
    from omegalab import cli, sieve, twosets  # noqa: F401  (cli: load it to patch it)

    modules = {name: sys.modules[f"omegalab.{name}"] for name in LAYERS}
    replaced = {}  # id(original) -> wrapper
    for layer, module in modules.items():
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            name = f"{layer}.{attr}"
            if name in UNTRACED:
                continue
            if name in COUNTED:
                replaced[id(obj)] = tracer.count(name, obj)
            else:
                replaced[id(obj)] = tracer.wrap(name, obj, ATTRS.get(name))
    # Private functions that bound the layers' inner steps.
    for attr, name in (("_profile_chunk", "sieve.chunk"),
                       ("_cache_read", "sieve.cache_read"),
                       ("_cache_write", "sieve.cache_write")):
        obj = getattr(sieve, attr)
        replaced[id(obj)] = tracer.wrap(name, obj, ATTRS.get(name))
    for module in (omegalab, *modules.values()):
        for attr, obj in list(vars(module).items()):
            if id(obj) in replaced:
                setattr(module, attr, replaced[id(obj)])
    pair = twosets.PrimeSetPair
    pair.__post_init__ = tracer.wrap("twosets.validate", pair.__post_init__)


def run_cli(out: str, argv: list[str]) -> int:
    tracer = Tracer(out + ".spool")
    install(tracer)
    from omegalab import cli

    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse errors
        code = exc.code if isinstance(exc.code, int) else 2
    sys.stdout.flush()
    tracer.merge_spool()
    with open(out, "w") as fh:
        json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
    return code


SWEEP_LIMIT = 10**7
SWEEP_SHIFTS = (12, 16, 20, 22)
SWEEP_SAMPLE = 1 << 20  # integers timed per segment length


def run_sweep(out: str) -> int:
    """Kernel rate in M integers/s at N = 10^7 for each segment length.

    Each length is timed on whole segments evenly spaced over [1, 10^7],
    at least SWEEP_SAMPLE integers in all, so short segments cost no more
    than long ones.
    """
    from omegalab import kernels
    from omegalab.sieve import base_primes, segment_spans

    primes = base_primes(math.isqrt(SWEEP_LIMIT))
    rates = {}
    for shift in SWEEP_SHIFTS:
        length = 1 << shift
        spans = [s for s in segment_spans(SWEEP_LIMIT, length) if s[1] - s[0] == length]
        k = max(1, SWEEP_SAMPLE // length)
        picked = [spans[int((i + 0.5) * len(spans) / k)] for i in range(k)]
        start = time.perf_counter()
        for lo, hi in picked:
            kernels.omega_segment(lo, hi, primes)
        elapsed = time.perf_counter() - start
        rates[f"kernels.rate_seg{shift}"] = k * length / elapsed / 1e6
    with open(out, "w") as fh:
        json.dump(rates, fh)
    return 0


def run_env(out: str) -> int:
    import numpy

    import omegalab

    with open(out, "w") as fh:
        json.dump({"backend": omegalab.active_backend(), "numpy": numpy.__version__}, fh)
    return 0


def main(argv: list[str]) -> int:
    if len(argv) >= 2 and argv[0] == "cli":
        rest = argv[2:]
        return run_cli(argv[1], rest[1:] if rest[:1] == ["--"] else rest)
    if len(argv) == 2 and argv[0] == "sweep":
        return run_sweep(argv[1])
    if len(argv) == 2 and argv[0] == "env":
        return run_env(argv[1])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
