"""omegalab benchmark: CLI wall time on four workloads, per-layer times from a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --seed N --seconds S          # every workload

Run it from the root of a checkout that holds src/omegalab; nothing needs
building.  Each workload is a fixed script of `omegalab` CLI invocations,
each a fresh process with at most 2 workers, run one after another and
timed from outside.  The seed picks only inputs that leave the amount of
work unchanged (Weyl beta, the Erdos-Kac grid offset, the block layout
given to `extrapolate`); N and the limits are fixed so that published and
frozen reference values apply.  Every output is checked; a failed
invocation or check counts in `failed`.

--trace 0 repeats the script for --seconds (at least once) and reports
medians over the repetitions.  --trace 1 repeats pairs of an untraced
and a traced repetition, where each invocation runs inside
perfbench/traced.py with spans recorded around the library's public
functions, and reports per-layer metrics; see perfbench/README.md.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics.  Inputs, per-repetition figures, the environment and, for a
traced run, every span are written to .perfbench_work/results/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from traced import BYTES_PER_INT, BYTES_PER_UPDATE

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

N = 10**8
INVOCATION_TIMEOUT = 100.0  # seconds; a killed invocation counts as failed
SETUP_REPEATS = 7

# pi_k(10^8) for k = 0..26.  pi_1 = 5 761 455 and pi_2 = 17 427 258 are
# published counts; the whole vector is frozen from this program, and it
# sums to 10^8.
PIK_1E8 = [
    1, 5761455, 17427258, 23727305, 20959322, 14371023, 8493366, 4600247,
    2367507, 1180751, 578154, 279286, 133862, 63724, 30143, 14221, 6644, 3107,
    1430, 661, 297, 133, 62, 25, 11, 4, 1,
]
# Summatory Liouville function L(10^k), k = 2..8 (Borwein, Ferguson and
# Mossinghoff, Math. Comp. 77 (2008)).
LIOUVILLE = {10**2: -2, 10**3: -14, 10**4: -94, 10**5: -288, 10**6: -530,
             10**7: -842, 10**8: -3884}
# Best couplings of the prime / 2-almost-prime search at 10^7, frozen.
TWOSETS_SEARCH_COUPLINGS = (0.8676149063674166, 2.0770395501690393)
TWOSETS_PARTIAL_SIZE = 5111  # |B1| = |B2| at --limit 50000
COUNTEREXAMPLE_ROW_27 = 0.9018795129373335  # loglogn = 27 at kmax 18, frozen
VIRTUAL_LOGLOGN = 10**6
VIRTUAL_C = 3.0


# ---------------------------------------------------------------------------
# Invocations
# ---------------------------------------------------------------------------


@dataclass
class Step:
    part: int  # end-to-end part (1 or 2) whose time this invocation counts toward
    argv: list[str]
    expect_rc: int = 0
    cache: bool = False  # run with OMEGALAB_CACHE set to the repetition's fresh directory


@dataclass
class Invocation:
    rc: int
    start: float
    end: float
    rss_mb: float
    out: bytes
    err: bytes

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def invoke(cmd: list[str], env: dict, tmp: Path) -> Invocation:
    """Run cmd to completion; max RSS comes from wait4, so it covers pool workers."""
    out_path, err_path = tmp / "stdout", tmp / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT,
                                start_new_session=True)
        timer = threading.Timer(INVOCATION_TIMEOUT, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(proc.returncode, start, end, usage.ru_maxrss / 1024,
                      out_path.read_bytes(), err_path.read_bytes())


def base_env() -> dict:
    env = dict(os.environ)
    env.pop("OMEGALAB_CACHE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def cli_cmd(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "omegalab.cli", *argv]


# ---------------------------------------------------------------------------
# Checks and oracles
# ---------------------------------------------------------------------------


class Checker:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def expect(self, what: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)
        return ok

    def guarded(self, what: str, check, *args) -> None:
        """Run a check function; output it cannot parse is one failed check."""
        try:
            check(*args)
        except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
            self.expect(f"{what}: unreadable output ({exc!r})", False)


def close(a: float, b: float, tol: float = 1e-12) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def rows(inv: Invocation) -> list[dict]:
    return json.loads(inv.out)["rows"]


def check_pik(inv: Invocation, ck: Checker) -> None:
    counts = [row["pi_k"] for row in rows(inv)]
    ck.expect("pi_1(10^8) = 5761455", counts[1] == 5_761_455)
    ck.expect("pi_2(10^8) = 17427258", counts[2] == 17_427_258)
    ck.expect("sum of pi_k(10^8) = 10^8", sum(counts) == N)
    ck.expect("pi_k(10^8) equals the frozen vector", counts == PIK_1E8)


def check_pnt(inv: Invocation, ck: Checker) -> None:
    by_n = {row["N"]: row for row in rows(inv)}
    for n, expected in LIOUVILLE.items():
        got = round(by_n[n]["cesaro_liouville"] * n)
        ck.expect(f"L({n}) = {expected}, got {got}", got == expected)


def check_weyl(inv: Invocation, ck: Checker, beta: float) -> None:
    (row,) = rows(inv)
    angles = [2 * math.pi * beta * k for k in range(len(PIK_1E8))]
    re_ = math.fsum(p * math.cos(a) for p, a in zip(PIK_1E8, angles)) / N
    im_ = math.fsum(p * math.sin(a) for p, a in zip(PIK_1E8, angles)) / N
    ck.expect(f"weyl beta={beta}: Re", close(row["re"], re_))
    ck.expect(f"weyl beta={beta}: Im", close(row["im"], im_))
    ck.expect(f"weyl beta={beta}: modulus", close(row["modulus"], math.hypot(re_, im_)))


def check_erdos_kac(inv: Invocation, ck: Checker, lo: float, hi: float) -> None:
    cells = rows(inv)
    ck.expect("erdos-kac: 24 cells", len(cells) == 24)
    ck.expect("erdos-kac: grid spans [lo, hi]",
              abs(cells[0]["A"] - lo) < 1e-9 and abs(cells[-1]["B"] - hi) < 1e-9)
    mean = math.log(math.log(N))
    pik = np.array(PIK_1E8, dtype=np.float64)
    pik[:2] -= 1  # n = 1 and n = 2 are outside every phi-normalized sum
    z = (np.arange(len(pik)) - mean) / math.sqrt(mean)
    for i, cell in enumerate(cells):
        a, b = cell["A"], cell["B"]
        inside = ((z >= a) if i == 0 else (z > a)) & (z <= b)
        empirical = math.fsum(pik[inside]) / N
        gaussian = 0.5 * (math.erfc(a / math.sqrt(2)) - math.erfc(b / math.sqrt(2)))
        ck.expect(f"erdos-kac cell {i}: empirical", close(cell["empirical"], empirical))
        ck.expect(f"erdos-kac cell {i}: gaussian", close(cell["gaussian"], gaussian))


def omega_table(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """Omega(n) and the smallest prime factor for n <= limit, by a sieve."""
    spf = np.zeros(limit + 1, dtype=np.int64)
    for p in range(2, limit + 1):
        if spf[p] == 0:
            spf[p::p][spf[p::p] == 0] = p
    omega = np.zeros(limit + 1, dtype=np.int64)
    for n in range(2, limit + 1):
        omega[n] = omega[n // spf[n]] + 1
    return omega, spf


def grouped_coupling(elems, spf) -> float:
    """Coupling by the divisor grouping sum_d totient(d) (sum_{d|m} 1/m)^2 / H^2.

    Elements have one or two prime factors, so the divisors d > 1 are the
    primes dividing some element and the 2-almost-prime elements themselves.
    """
    harmonic = math.fsum(1.0 / m for m in elems)
    mass = defaultdict(list)
    own = []
    for m in elems:
        p = int(spf[m])
        q = m // p
        for d in {p, q} - {1}:
            mass[d].append(1.0 / m)
        if q > 1:
            own.append((p - 1) * (q - 1) / m**2 if p != q else (p * p - p) / m**2)
    terms = [(d - 1) * math.fsum(v) ** 2 for d, v in mass.items()] + own
    return math.fsum(terms) / harmonic**2


def check_twosets_search(inv: Invocation, ck: Checker) -> None:
    found = re.search(rb"best achieved \(([^,]+), ([^)]+)\)", inv.err)
    ck.expect("twosets search reports its best couplings", found is not None)
    if found:
        for got, want in zip(map(float, found.groups()), TWOSETS_SEARCH_COUPLINGS):
            ck.expect(f"twosets search coupling {want}", close(got, want))


def check_twosets_partial(inv: Invocation, ck: Checker) -> None:
    out = json.loads(inv.out)
    b1, b2 = out["b1"], out["b2"]
    ck.expect("twosets partial: |B1| = |B2| = 5111",
              len(b1) == len(b2) == TWOSETS_PARTIAL_SIZE)
    omega, spf = omega_table(max(b1 + b2))
    ck.expect("twosets partial: B1 are primes", all(omega[m] == 1 for m in b1))
    ck.expect("twosets partial: B2 are 2-almost primes", all(omega[m] == 2 for m in b2))
    ck.expect("twosets partial: coupling of B1",
              close(out["coupling_b1"], grouped_coupling(b1, spf), 1e-11))
    ck.expect("twosets partial: coupling of B2",
              close(out["coupling_b2"], grouped_coupling(b2, spf), 1e-11))


def check_counterexample(inv: Invocation, ck: Checker) -> None:
    table = rows(inv)
    ck.expect("counterexample: 36 rows", len(table) == 36)
    (row,) = [r for r in table if r["loglogn"] == 27.0]
    ck.expect("counterexample row at loglogn 27",
              abs(row["value"] - COUNTEREXAMPLE_ROW_27) <= 1e-9)


def check_extrapolate(inv: Invocation, ck: Checker, blocks) -> None:
    (row,) = rows(inv)
    L, C = float(VIRTUAL_LOGLOGN), VIRTUAL_C
    k_lo = max(0, math.ceil(L - C * math.sqrt(L)))
    k_hi = math.floor(L + C * math.sqrt(L))
    z = (np.arange(k_lo, k_hi + 1, dtype=np.float64) - L) / math.sqrt(L)
    w = np.exp(-0.5 * z * z) / math.sqrt(2 * math.pi * L)
    inside = np.zeros(len(w), dtype=bool)
    for lo, hi in blocks:
        inside[max(lo, k_lo) - k_lo: max(min(hi, k_hi) - k_lo + 1, 0)] = True
    ck.expect("extrapolate: value = Gaussian mass of window and blocks",
              close(row["value"], math.fsum(w[inside])))
    ck.expect("extrapolate: window mass", close(row["window_mass"], math.fsum(w)))


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass
class Workload:
    name: str
    parts: tuple[str, str]  # what part1_s and part2_s time, for the summary
    make: Callable  # (rng, tmp) -> (steps, inputs, check(invocations, ck))


def profile_1e8(rng, tmp):
    pik = ["pik", "--limit", str(N), "--json", "--quiet"]
    steps = [Step(1, pik + ["--workers", "1"]), Step(2, pik + ["--workers", "2"])]

    def check(invs, ck):
        for inv in invs:
            ck.guarded("pik", check_pik, inv, ck)
        ck.expect("pik output identical at 1 and 2 workers", invs[0].out == invs[1].out)

    return steps, {}, check


def cache_1e8(rng, tmp):
    beta = round(rng.uniform(0.05, 0.95), 9)
    offset = round(rng.uniform(0.0, 0.25), 6)
    lo, hi = -3 + offset, 3 + offset
    common = ["--limit", str(N), "--workers", "2", "--json", "--quiet"]
    steps = [
        Step(1, ["pnt", "--stride", "decade", *common], cache=True),
        Step(2, ["weyl", "--beta", repr(beta), *common], cache=True),
        Step(2, ["erdos-kac", f"--grid={lo:.6f}:{hi:.6f}:0.25", *common], cache=True),
    ]

    def check(invs, ck):
        ck.guarded("pnt", check_pnt, invs[0], ck)
        ck.guarded("weyl", check_weyl, invs[1], ck, beta)
        ck.guarded("erdos-kac", check_erdos_kac, invs[2], ck, round(lo, 6), round(hi, 6))

    return steps, {"beta": beta, "grid_offset": offset}, check


def twosets_workload(rng, tmp):
    args = ["--epsilon", "0.1", "--rho", "1.05"]
    steps = [
        Step(1, ["twosets", "--limit", str(10**7), *args], expect_rc=3),
        Step(2, ["twosets", "--limit", "50000", *args, "--allow-partial"]),
    ]

    def check(invs, ck):
        ck.guarded("twosets search", check_twosets_search, invs[0], ck)
        ck.guarded("twosets partial", check_twosets_partial, invs[1], ck)

    return steps, {}, check


def block_layout(rng) -> list[list[int]]:
    """1000 blocks below the Gaussian window and 20 inside it, seeded.

    `extrapolate` scans the blocks below k for every k in the window, so
    the work depends on the block count, not on where the blocks lie.
    """
    L, C = VIRTUAL_LOGLOGN, VIRTUAL_C
    window_lo, window_hi = int(L - C * math.sqrt(L)), int(L + C * math.sqrt(L))
    blocks = []
    for count, lo, hi, longest in ((1000, 1, window_lo - 1000, 400),
                                   (20, window_lo, window_hi, 150)):
        cuts = sorted(rng.sample(range(lo, hi), 2 * count))
        blocks += [[a, min(b, a + longest)] for a, b in zip(cuts[::2], cuts[1::2])]
    return blocks


def virtual(rng, tmp):
    blocks = block_layout(rng)
    path = tmp / "blocks.json"
    path.write_text(json.dumps(blocks))
    steps = [
        Step(1, ["counterexample", "--kmax", "18", "--mode", "extrapolate", "--json"]),
        Step(2, ["extrapolate", "--loglogn", str(VIRTUAL_LOGLOGN), "--blocks", str(path),
                 "--json"]),
    ]

    def check(invs, ck):
        ck.guarded("counterexample", check_counterexample, invs[0], ck)
        ck.guarded("extrapolate", check_extrapolate, invs[1], ck, blocks)

    return steps, {"blocks": len(blocks)}, check


WORKLOADS = {w.name: w for w in (
    Workload("profile-1e8", ("pik at 1 worker", "pik at 2 workers"), profile_1e8),
    Workload("cache-1e8", ("cold pnt decades", "warm weyl + erdos-kac"), cache_1e8),
    Workload("twosets", ("search to 1e7, exit 3", "partial pair at 5e4"), twosets_workload),
    Workload("virtual", ("counterexample kmax 18", "extrapolate at loglogn 1e6"), virtual),
)}


# ---------------------------------------------------------------------------
# Repetitions
# ---------------------------------------------------------------------------


@dataclass
class Rep:
    invocations: list[Invocation]
    steps: list[Step]
    spans: list[dict] = field(default_factory=list)
    counts: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return self.invocations[-1].end - self.invocations[0].start

    def part(self, k: int) -> float:
        return sum(inv.seconds for inv, s in zip(self.invocations, self.steps) if s.part == k)

    @property
    def rss_mb(self) -> float:
        return max(inv.rss_mb for inv in self.invocations)


def run_rep(steps, check, tmp: Path, ck: Checker, traced: bool) -> Rep:
    cache = tmp / "cache"
    rep = Rep([], steps)
    for i, step in enumerate(steps):
        env = base_env()
        if step.cache:
            env["OMEGALAB_CACHE"] = str(cache)
        if traced:
            spans_path = tmp / f"spans{i}.json"
            cmd = [sys.executable, str(HERE / "traced.py"), "cli", str(spans_path), "--",
                   *step.argv]
        else:
            cmd = cli_cmd(step.argv)
        inv = invoke(cmd, env, tmp)
        rep.invocations.append(inv)
        ck.expect(f"{' '.join(step.argv)} exits {step.expect_rc} (got {inv.rc}): "
                  f"{inv.err.decode(errors='replace').strip()[-300:]}",
                  inv.rc == step.expect_rc)
        if traced and spans_path.exists():
            record = json.loads(spans_path.read_text())
            rep.spans += record["spans"]
            for name, n in record["counts"].items():
                rep.counts[name] = rep.counts.get(name, 0) + n
            spans_path.unlink()
    shutil.rmtree(cache, ignore_errors=True)
    check(rep.invocations, ck)
    return rep


def measure_setup(subcommand: str, tmp: Path, ck: Checker) -> float:
    """Median wall time of `<subcommand> --help`: interpreter start plus imports."""
    times = []
    for _ in range(SETUP_REPEATS):
        inv = invoke(cli_cmd([subcommand, "--help"]), base_env(), tmp)
        ck.expect(f"{subcommand} --help exits 0", inv.rc == 0)
        times.append(inv.seconds)
    return statistics.median(times)


def repeat_for(seconds: float, one) -> list:
    """Call one() at least once, and again while the next call, taking as
    long as the last one, would end within `seconds` of the start."""
    results, start = [], time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(one())
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return results


# ---------------------------------------------------------------------------
# Per-layer metrics from spans
# ---------------------------------------------------------------------------


def layer_metrics(spans: list[dict], counts: dict) -> dict[str, float]:
    children = defaultdict(list)
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        children[s["parent"]].append(s)

    def dur(s):
        return s["end"] - s["start"]

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(name):
        return sum(dur(s) for s in named(name))

    def self_time(name, child_names=None):
        return sum(dur(s) - sum(dur(c) for c in children[s["id"]]
                                if child_names is None or c["name"] in child_names)
                   for s in named(name))

    def outermost(prefix):
        out = []
        for s in spans:
            if not s["name"].startswith(prefix):
                continue
            parent = by_id.get(s["parent"])
            while parent is not None and not parent["name"].startswith(prefix):
                parent = by_id.get(parent["parent"])
            if parent is None:
                out.append(s)
        return out

    m = {}
    kernel = named("kernels.omega_segment")
    ints = sum(s.get("ints", 0) for s in kernel)
    updates = sum(s.get("updates", 0) for s in kernel)
    m["kernels.omega_segment.s"] = total("kernels.omega_segment")
    m["kernels.omega_segment.calls"] = len(kernel)
    m["kernels.rate_mints"] = ints / m["kernels.omega_segment.s"] / 1e6 if kernel else 0.0
    m["kernels.slice_passes"] = sum(s.get("slices", 0) for s in kernel)
    m["kernels.elem_updates"] = updates
    m["kernels.bytes_per_int"] = (
        (BYTES_PER_UPDATE * updates + BYTES_PER_INT * ints) / ints if ints else 0.0)

    m["sieve.reduce.s"] = self_time("sieve.chunk", {"sieve.sieve_segment"})
    m["sieve.merge.s"] = self_time("sieve.omega_profile", {"sieve.map_segments"})
    m["sieve.base_primes.s"] = total("sieve.base_primes")
    pool_s = busiest_sum = mean_sum = 0.0
    for call in named("sieve.map_segments"):
        busy = defaultdict(float)
        for c in children[call["id"]]:
            if c["name"] == "sieve.chunk":
                busy[c["pid"]] += dur(c)
        busiest = max(busy.values(), default=0.0)
        pool_s += dur(call) - busiest
        if call.get("workers", 1) > 1:
            busiest_sum += busiest
            mean_sum += sum(busy.values()) / call["workers"]
    m["sieve.pool.s"] = pool_s
    m["sieve.pool.imbalance"] = busiest_sum / mean_sum if mean_sum else 0.0

    reads = [s for s in named("sieve.cache_read") if s.get("enabled")]
    writes = [s for s in named("sieve.cache_write") if s.get("bytes")]
    hits = sum(s.get("hit", False) for s in reads)
    m["sieve.cache.hits"] = hits
    m["sieve.cache.misses"] = len(reads) - hits
    m["sieve.cache.hit_ratio"] = hits / len(reads) if reads else 0.0
    m["sieve.cache.bytes_read"] = sum(s.get("bytes", 0) for s in reads)
    m["sieve.cache.bytes_written"] = sum(s["bytes"] for s in writes)
    m["sieve.cache.read_s"] = sum(dur(s) for s in reads)
    m["sieve.cache.write_s"] = sum(dur(s) for s in writes)
    distinct, reach = 0, 0
    for s in sorted((s for s in kernel if "lo" in s), key=lambda s: s["lo"]):
        distinct += max(0, s["hi"] - max(s["lo"], reach))
        reach = max(reach, s["hi"])
    m["sieve.ints_sieved"] = ints
    m["sieve.unique_ratio"] = distinct / ints if ints else 0.0

    m["counterexample.oscillation_profile.s"] = total("counterexample.oscillation_profile")
    m["counterexample.block_evals"] = sum(
        s.get("block_evals", 0) for s in named("weights.extrapolated_average"))
    m["weights.extrapolated_average.s"] = total("weights.extrapolated_average")
    m["weights.points"] = sum(s.get("points", 0) for s in named("weights.gaussian_weights"))

    m["twosets.construct_pair.s"] = self_time("twosets.construct_pair", {"twosets.validate"})
    m["twosets.validate.s"] = total("twosets.validate")
    m["twosets.oracle_calls"] = counts.get("sieve.omega_oracle", 0)
    coupling = named("twosets.coupling")
    m["twosets.coupling.s"] = total("twosets.coupling")
    m["twosets.coupling.pairs"] = sum(s.get("pairs", 0) for s in coupling)
    m["twosets.set_size"] = max((s.get("size", 0) for s in coupling), default=0)

    top = outermost("averages.")
    m["averages.s"] = sum(dur(s) for s in top)
    m["averages.calls"] = len(top)
    m["cli.self.s"] = self_time("cli.main")
    return m


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def environment(tmp: Path, ck: Checker) -> dict:
    env = {"nproc": os.cpu_count(), "python": platform.python_version()}
    out = tmp / "env.json"
    inv = invoke([sys.executable, str(HERE / "traced.py"), "env", str(out)], base_env(), tmp)
    if ck.expect("omegalab imports", inv.rc == 0):
        env.update(json.loads(out.read_text()))
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu"] = next(line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name"))
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            if (index / "type").read_text().strip() != "Instruction":
                env[f"L{(index / 'level').read_text().strip()}"] = (
                    (index / "size").read_text().strip())
    except (OSError, StopIteration):
        pass
    # counts u8 + found i64 + arange i64 + mask bool live at once per integer
    env["segment_working_set_mb"] = round((1 + 8 + 8 + 1) * (1 << 22) / 1e6, 1)
    return env


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool, tmp: Path,
                 ck: Checker) -> tuple[dict, dict]:
    rng = random.Random(f"{wl.name}:{seed}")
    steps, inputs, check = wl.make(rng, tmp)
    record = {"workload": wl.name, "seed": seed, "inputs": inputs,
              "argv": [s.argv for s in steps]}
    if not trace:
        setup = measure_setup(steps[0].argv[0], tmp, ck)
        reps = repeat_for(seconds, lambda: run_rep(steps, check, tmp, ck, traced=False))
        metrics = {
            "wall_s": statistics.median(r.wall for r in reps),
            "part1_s": statistics.median(r.part(1) for r in reps),
            "part2_s": statistics.median(r.part(2) for r in reps),
            "setup_s": setup,
            "peak_rss_mb": statistics.median(r.rss_mb for r in reps),
        }
        record["reps"] = [{"wall_s": r.wall, "part1_s": r.part(1), "part2_s": r.part(2),
                           "peak_rss_mb": r.rss_mb} for r in reps]
        return metrics, record

    def pair():
        plain = run_rep(steps, check, tmp, ck, traced=False)
        return plain, run_rep(steps, check, tmp, ck, traced=True)

    pairs = repeat_for(seconds, pair)
    per_rep = [layer_metrics(t.spans, t.counts) for _, t in pairs]
    metrics = {k: statistics.median(r[k] for r in per_rep) for k in per_rep[0]}
    plain_wall = statistics.median(p.wall for p, _ in pairs)
    traced_wall = statistics.median(t.wall for _, t in pairs)
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    metrics["sieve.pool.scaling_eff"] = (
        statistics.median(p.part(1) / (2 * p.part(2)) for p, _ in pairs)
        if wl.name == "profile-1e8" else 0.0)
    sweep = tmp / "sweep.json"
    inv = invoke([sys.executable, str(HERE / "traced.py"), "sweep", str(sweep)], base_env(), tmp)
    if ck.expect("kernel segment-length sweep runs", inv.rc == 0):
        metrics.update(json.loads(sweep.read_text()))
    record["reps"] = [{"untraced_wall_s": p.wall, "traced_wall_s": t.wall} for p, t in pairs]
    record["spans"] = pairs[-1][1].spans
    return metrics, record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "omegalab" / "cli.py").is_file():
        print(f"perfbench: no omegalab sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    tmp = WORK / f"run-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    (WORK / "results").mkdir(exist_ok=True)
    ck = Checker()
    try:
        env = environment(tmp, ck)
        print("env " + json.dumps(env))
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        out = {}
        for name in names:
            wl = WORKLOADS[name]
            metrics, record = run_workload(wl, args.seed, args.seconds, bool(args.trace),
                                           tmp, ck)
            missing = set(units) - set(metrics)
            if missing:
                raise RuntimeError(f"metrics not produced: {sorted(missing)}")
            record.update(env=env, metrics=metrics)
            result = WORK / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
            result.write_text(json.dumps(record, indent=1))
            print(f"{name} (seed {args.seed}, {len(record['reps'])} repetitions; "
                  f"part1 = {wl.parts[0]}, part2 = {wl.parts[1]})")
            for key in units:
                print(f"  {key:40s} {metrics[key]:16.6g} {units[key]}")
                prefix = "" if len(names) == 1 else f"{name}."
                out[prefix + key] = {"value": metrics[key], "unit": units[key]}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"fail_ratio {ck.failed}/{ck.attempted} = {ck.failed / max(ck.attempted, 1):.6g}")
    print(json.dumps({"correct": ck.failed == 0, "attempted": ck.attempted,
                      "failed": ck.failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
