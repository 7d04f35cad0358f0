import argparse
import ast
import contextlib
import csv
import errno
import io
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    block_scan_oracle,
    coupling,
    extrapolated_average_oracle,
    oscillation_profile_oracle,
)

import omegalab
from omegalab import (
    AverageScheme, average_along_omega, cli, dynamics, kernels, omega_profile, sieve, twosets,
    weights,
)
from omegalab.cli import EXIT_OK, EXIT_RESOURCE, EXIT_USAGE, main
from omegalab.counterexample import Checkpoints, merge_intervals
from omegalab.dynamics import rotation_two_points_liouville


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def test_sieve_csv(capsys):
    code, out = run(capsys, "sieve", "--lo", "1", "--hi", "11")
    assert code == EXIT_OK
    header, rows = parse_csv(out)
    assert header == ["n", "omega", "liouville"]
    assert [r[1] for r in rows] == ["0", "1", "1", "2", "1", "2", "1", "3", "2", "2"]


def test_pik_json(capsys):
    code, out = run(capsys, "pik", "--limit", "1000", "--json", "--quiet")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["meta"]["subcommand"] == "pik"
    assert payload["meta"]["limit"] == 1000
    assert sum(row["pi_k"] for row in payload["rows"]) == 1000


def test_pnt_decades(capsys):
    code, out = run(capsys, "pnt", "--limit", "1000", "--stride", "decade", "--quiet")
    assert code == EXIT_OK
    header, rows = parse_csv(out)
    assert header == ["N", "cesaro_liouville", "log_liouville"]
    assert [r[0] for r in rows] == ["10", "100", "1000"]


def test_pnt_decades_at_limit_one(capsys):
    code, out = run(capsys, "pnt", "--limit", "1", "--stride", "decade", "--quiet")
    assert code == EXIT_OK
    assert parse_csv(out) == (["N", "cesaro_liouville", "log_liouville"], [["1", "1", "1"]])


def test_pnt_decades_equal_per_checkpoint_averages(capsys):
    code, out = run(
        capsys, "pnt", "--limit", "123456", "--stride", "decade", "--json", "--quiet"
    )
    assert code == EXIT_OK
    rows = json.loads(out)["rows"]
    assert [row["N"] for row in rows] == [10, 100, 1000, 10**4, 10**5, 123456]
    orbit = rotation_two_points_liouville()
    for row in rows:
        prof = omega_profile(row["N"])
        ces = average_along_omega(orbit, prof, AverageScheme.CESARO)
        log = average_along_omega(orbit, prof, AverageScheme.LOGARITHMIC)
        assert (row["cesaro_liouville"], row["log_liouville"]) == (ces.real, log.real)


def test_weyl_output(capsys):
    code, out = run(capsys, "weyl", "--limit", "1000", "--beta", "0.5", "--quiet")
    assert code == EXIT_OK
    header, rows = parse_csv(out)
    assert header == ["beta", "N", "re", "im", "modulus"]
    assert len(rows) == 1


def test_erdos_kac_grid(capsys):
    code, out = run(capsys, "erdos-kac", "--limit", "10000", "--quiet")
    assert code == EXIT_OK
    header, rows = parse_csv(out)
    assert header == ["A", "B", "empirical", "gaussian", "abs_error"]
    assert len(rows) == 24  # cells of -3..3 step 0.25


def test_correlate_systems(capsys):
    for system in ("rot:m=3,r=1", "rot:m=1000000000000,r=1"):  # no table of m values
        code, out = run(capsys, "correlate", "--limit", "10000", "--system", system, "--quiet")
        assert code == EXIT_OK


def test_correlate_unknown_system(capsys):
    code, _ = run(capsys, "correlate", "--limit", "100", "--system", "bogus", "--quiet")
    assert code == EXIT_USAGE


@pytest.mark.parametrize("spec", [
    "rot:m=3", "rot:m=x,r=1", "exp:",
    # unknown or repeated keys
    "liouville:x=1", "rot:m=3,r=1,beta=2", "rot:m=3,r=1,m=5", "circle:alpha=0.25,garbage",
])
def test_correlate_bad_system_arguments(capsys, spec):
    code = main(["correlate", "--limit", "100", f"--system={spec}", "--quiet"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("bump", ["1", "a,b", "1,2,3", "1,0"])
def test_correlate_bad_bump(capsys, bump):
    code, out = run(capsys, "correlate", "--limit", "100", f"--bump={bump}", "--quiet")
    assert code == EXIT_USAGE
    assert out == ""


def test_correlate_reversed_bump_fails_before_the_progress_line(capsys):
    code = main(["correlate", "--limit", "1000", "--bump=1,0"])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == "omegalab: plateau [1.0, 0.0] needs lo <= hi\n"


def test_weights_table(capsys):
    code, out = run(capsys, "weights", "--limit", "100000", "--quiet")
    assert code == EXIT_OK
    header, rows = parse_csv(out)
    assert header == ["k", "exact", "erdos", "gaussian"]


def test_extrapolate_with_blocks_file(capsys, tmp_path):
    blocks = tmp_path / "blocks.json"
    blocks.write_text(json.dumps([[1, 13], [19, 35]]))
    code, out = run(
        capsys,
        "extrapolate",
        "--loglogn",
        "27",
        "--blocks",
        str(blocks),
    )
    assert code == EXIT_OK
    header, rows = parse_csv(out)
    assert header == ["loglogn", "value", "window_mass"]
    assert float(rows[0][1]) > 0.9


def test_twosets_exhausted_is_resource_error(capsys):
    code, _ = run(
        capsys,
        "twosets",
        "--limit",
        "1000",
        "--epsilon",
        "0.05",
        "--rho",
        "1.05",
    )
    assert code == EXIT_RESOURCE


def test_twosets_allow_partial(capsys):
    code, out = run(
        capsys,
        "twosets",
        "--limit",
        "1000",
        "--epsilon",
        "0.05",
        "--rho",
        "1.05",
        "--allow-partial",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["b1"] and payload["b2"]
    assert payload["coupling_b1"] > 0.05


def test_twosets_partial_couplings_are_the_carried_ones(capsys):
    """Only the search's batched coupling sums compute a coupling in
    src/omegalab, and the emitted couplings match the direct O(|B|^2) oracle."""
    names = {"_BatchCoupling", "IncrementalCoupling", "_IncrementalCoupling", "coupling",
             "coupling_grouped"}
    found = set()
    for path in sorted(Path(omegalab.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = f"{path.stem}.{getattr(top, 'name', '<module>')}"
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.alias)):
                    name = node.name
                else:
                    continue
                if name in names:
                    found.add((owner, name))
    assert found == {
        ("twosets._BatchCoupling", "_BatchCoupling"),
        ("twosets._scan", "_BatchCoupling"),
    }
    code, out = run(
        capsys, "twosets", "--limit", "10000", "--epsilon", "0.1", "--rho", "1.05",
        "--allow-partial",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["coupling_b1"] == pytest.approx(coupling(payload["b1"]), rel=1e-12)
    assert payload["coupling_b2"] == pytest.approx(coupling(payload["b2"]), rel=1e-12)


def test_twosets_limit_is_checked_before_base_primes(capsys, monkeypatch):
    real_base_primes = twosets.base_primes

    def guarded_base_primes(limit):
        assert limit <= sieve.HARD_LIMIT, "base primes allocated past the limit"
        return real_base_primes(limit)

    monkeypatch.setattr(twosets, "base_primes", guarded_base_primes)
    code = main(["twosets", "--limit", str(10**11), "--epsilon", "0.1", "--rho", "1.05"])
    captured = capsys.readouterr()
    assert code == EXIT_RESOURCE
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1


def test_twosets_rho_close_to_one_is_resource_error(capsys):
    tracemalloc.start()
    try:
        code = main(["twosets", "--limit", str(10**7), "--epsilon", "0.1",
                     f"--rho={1 + 1e-12!r}"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == EXIT_RESOURCE
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "rho-adic intervals" in captured.err
    assert peak < 10**6  # neither the 1.6e13 bounds nor base_primes(10**7) were allocated


def test_twosets_limit_over_the_search_cap_is_resource_error(capsys):
    tracemalloc.start()
    try:
        code = main(["twosets", "--limit", str(10**10), "--epsilon", "0.1", "--rho", "1.05"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == EXIT_RESOURCE
    assert captured.out == ""
    assert captured.err == (
        f"omegalab: search limit {10**10} is over the cap of {twosets.MAX_SEARCH_LIMIT}\n"
    )
    assert peak < 10**6  # base_primes(10**10) would take 5 GB


@pytest.mark.parametrize("limit", ["0", "-5"])
def test_twosets_limit_below_one_is_usage_error(capsys, limit):
    code = main(["twosets", "--limit", limit, "--epsilon", "0.1", "--rho", "1.05"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err == f"omegalab: search limit must be >= 1, got {limit}\n"


@pytest.mark.parametrize("content", [
    None, "[[1, 2], [3]]", "[1, 2]", "not json",
    # Only JSON integers are bounds: int() would make 1.9 into 1, "3" into 3, true into 1.
    "[[1.9, 30.9]]", '[["3", 30]]', "[[1, true]]", '["12"]', "[" * 100_000,
])
@pytest.mark.parametrize("argv", [["extrapolate", "--loglogn", "27"], ["counterexample"]])
def test_bad_blocks_file_is_usage_error(capsys, tmp_path, argv, content):
    blocks = tmp_path / "blocks.json"
    if content is not None:  # None: the file does not exist
        blocks.write_text(content)
    code = main([*argv, "--blocks", str(blocks)])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    if content is not None:
        assert "not a list of [lo, hi] pairs" in captured.err


@pytest.mark.parametrize("content", ["[[20, 30], [25, 3]]", "[[25, 3]]"])
@pytest.mark.parametrize("argv", [["extrapolate", "--loglogn", "27"], ["counterexample"]])
def test_inverted_block_pair_is_usage_error(capsys, tmp_path, argv, content):
    blocks = tmp_path / "blocks.json"
    blocks.write_text(content)
    code = main([*argv, "--blocks", str(blocks)])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err == "omegalab: block [25, 3] is empty\n"


def test_sieve_range_over_one_segment_is_resource_error(capsys, monkeypatch):
    monkeypatch.setattr(kernels, "omega_segment", lambda *a: pytest.fail("sieved"))
    for hi in (sieve.DEFAULT_SEGMENT_LENGTH + 2, 10**9):
        code = main(["sieve", "--lo", "1", "--hi", str(hi)])
        captured = capsys.readouterr()
        assert code == EXIT_RESOURCE
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1


def test_sieve_one_row_over_the_cap_is_resource_error(capsys, monkeypatch):
    monkeypatch.setattr(sieve, "liouville", lambda c: pytest.fail("a row was built"))
    hi = 1 + cli.MAX_SIEVE_ROWS + 1
    code = main(["sieve", "--lo", "1", "--hi", str(hi)])
    captured = capsys.readouterr()
    assert code == EXIT_RESOURCE
    assert captured.out == ""
    assert captured.err == (
        f"omegalab: [1, {hi}) has {hi - 1} rows, over the cap of {cli.MAX_SIEVE_ROWS}\n"
    )


@pytest.mark.parametrize("lo, hi, message", [
    (9995805697, 10**10 + 1, "[9995805697, 10000000001) has 4194304 rows, over the cap of 100000"),
    (1, 100002, "[1, 100002) has 100001 rows, over the cap of 100000"),
    (1, 10**9, "[1, 1000000000) has more than 4194304 integers in one range"),
    (9999999990, 10**10 + 2, "range up to 10000000001 exceeds the configured limit 10000000000"),
])
def test_sieve_checks_its_row_cap_before_sieving(capsys, monkeypatch, lo, hi, message):
    """The row cap is checked once sieve_segment's own checks pass, with no
    integer sieved: the first case is one whole segment at HARD_LIMIT."""
    monkeypatch.setattr(kernels, "omega_segment", lambda *a: pytest.fail("sieved"))
    code = main(["sieve", "--lo", str(lo), "--hi", str(hi)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (EXIT_RESOURCE, "", f"omegalab: {message}\n")


def test_sieve_at_the_row_cap_emits_every_row(capsys):
    code, out = run(capsys, "sieve", "--lo", "1", "--hi", str(1 + cli.MAX_SIEVE_ROWS))
    assert code == EXIT_OK
    assert len(out.splitlines()) == 1 + cli.MAX_SIEVE_ROWS


def test_counterexample_window_too_large_exits_before_any_work(capsys):
    start = time.perf_counter()
    code = main(["counterexample", "--kmax", "26", "--mode", "extrapolate", "--quiet"])
    captured = capsys.readouterr()
    assert time.perf_counter() - start < 5
    assert code == EXIT_RESOURCE
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1


def _exit_code_and_peak_kib(*args):
    """Run the CLI with args in a new process, its output discarded; its exit code and peak RSS.

    wait4 in a small parent: a child spawned from this process would count
    this process's own RSS at the exec into its peak.
    """
    src = os.path.dirname(os.path.dirname(omegalab.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = ("import os, sys; "
             "pid = os.posix_spawn(sys.executable, sys.argv[1:], os.environ, file_actions=["
             "(os.POSIX_SPAWN_OPEN, fd, os.devnull, os.O_WRONLY, 0) for fd in (1, 2)]); "
             "_, status, usage = os.wait4(pid, 0); "
             "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)")
    argv = [sys.executable, "-m", "omegalab.cli", *args]
    result = subprocess.run([sys.executable, "-c", probe, *argv], env=env, capture_output=True,
                            text=True, timeout=60, check=True)
    code, peak_kib = map(int, result.stdout.split())  # ru_maxrss is in KiB on Linux
    return code, peak_kib


def test_largest_windows_peak_under_60_mb():
    """counterexample --kmax 25 evaluates windows of up to 7.8e6 k in chunks, so
    its peak RSS stays near the interpreter's own (329 MB when each window
    was built whole)."""
    code, peak_kib = _exit_code_and_peak_kib("counterexample", "--kmax", "25", "--quiet")
    assert code == EXIT_OK
    assert peak_kib < 60 * 1024


def test_twosets_search_to_1e8_peaks_under_64_mb():
    """The scan sieves only as far as its table and the floor streams one
    segment at a time, so memory does not follow --limit (134.7 MB when the
    search sieved every prime <= 1e8)."""
    code, peak_kib = _exit_code_and_peak_kib("twosets", "--limit", str(10**8),
                                             "--epsilon", "0.1", "--rho", "1.05")
    assert code == EXIT_RESOURCE
    assert peak_kib < 64 * 1024


def _cli_env():
    src = os.path.dirname(os.path.dirname(omegalab.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def _lazy_imports(*args):
    """Exit code of `python -X importtime *args` in a fresh interpreter, and
    which of numpy, decimal and multiprocessing it imported."""
    result = subprocess.run([sys.executable, "-X", "importtime", *args], env=_cli_env(),
                            capture_output=True, text=True, timeout=60)
    imported = {line.rsplit("|", 1)[1].strip().split(".")[0]
                for line in result.stderr.splitlines() if line.startswith("import time:")}
    return result.returncode, sorted(imported & {"numpy", "decimal", "multiprocessing"})


def _loaded_modules(probe, *argv):
    """Exit code of `python -c probe *argv` in a fresh interpreter, and the
    omegalab modules, without the package, loaded when it exits.

    An atexit handler reads sys.modules: -X importtime misses the modules
    that importlib.import_module loads.
    """
    at_exit = ("import atexit, sys; atexit.register(lambda: print(*sorted(m[9:] for m in "
               "sys.modules if m.startswith('omegalab.')), file=sys.stderr)); ")
    result = subprocess.run([sys.executable, "-c", at_exit + probe, *argv], env=_cli_env(),
                            capture_output=True, text=True, timeout=60)
    return result.returncode, set(result.stderr.splitlines()[-1].split())


def test_start_up_without_work_loads_no_numpy():
    """Importing the package or the CLI, any --help and a usage error load
    neither numpy, decimal nor the process pool; loading the library loads
    numpy alone."""
    parser = cli._build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    runs = {("-c", "import omegalab"): (EXIT_OK, []),
            ("-c", "import omegalab.cli"): (EXIT_OK, []),
            ("-m", "omegalab.cli", "pik"): (EXIT_USAGE, []),  # no --limit
            ("-c", "from omegalab import cli"): (EXIT_OK, ["numpy"])}
    runs.update({("-m", "omegalab.cli", name, "--help"): (EXIT_OK, [])
                 for name in subparsers.choices})
    assert len(runs) == 14
    assert {args: _lazy_imports(*args) for args in runs} == runs


def test_each_subcommand_loads_only_its_modules(tmp_path):
    """A run loads the library modules its subcommand reads, with what they
    import, and no other; in a fresh interpreter, so a handler that reads a
    module its subcommand did not load fails here."""
    blocks = tmp_path / "blocks.json"
    blocks.write_text("[[1, 2]]")
    counted = {"errors", "kernels", "sieve"}
    averaged = counted | {"dynamics", "averages"}
    library = averaged | {"weights", "counterexample", "twosets"}
    runs = {
        ("sieve", "--lo", "1", "--hi", "11"): counted,
        ("pik", "--limit", "100"): counted,
        ("pnt", "--limit", "100"): averaged,
        ("weyl", "--limit", "100", "--beta", "0.5"): averaged,
        ("erdos-kac", "--limit", "100"): averaged,
        ("correlate", "--limit", "100"): averaged,
        ("weights", "--limit", "100"): counted | {"weights"},
        ("extrapolate", "--loglogn", "27", "--blocks", str(blocks)): library - {"twosets"},
        ("twosets", "--limit", "1000", "--epsilon", "0.05", "--rho", "1.05",
         "--allow-partial"): averaged | {"twosets"},
        ("counterexample", "--kmax", "2"): library - {"twosets"},
        ("counterexample", "--mode", "sieve", "--limit", "100"): library - {"twosets"},
    }
    parser = cli._build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert {argv[0] for argv in runs} == set(subparsers.choices)
    main_block = "import runpy; runpy.run_module('omegalab.cli', run_name='__main__')"
    loaded = {argv: _loaded_modules(main_block, *argv) for argv in runs}
    assert loaded == {argv: (EXIT_OK, modules) for argv, modules in runs.items()}
    # the package's first `cli` request still loads the whole library
    assert _loaded_modules("from omegalab import cli") == (EXIT_OK, library | {"cli"})


def _fresh_cli(*argv, **kwargs):
    """`python -m omegalab.cli *argv` in a fresh interpreter."""
    return subprocess.run([sys.executable, "-m", "omegalab.cli", *argv], env=_cli_env(),
                          text=True, timeout=60, **kwargs)


def test_module_entry_keeps_exit_codes_and_one_line_stderr(capsys):
    """`python -m omegalab.cli` and the installed command run one entry
    function, and it exits 0, 2 and 3 as main returns them."""
    pyproject = Path(omegalab.__file__).parents[2] / "pyproject.toml"
    assert 'omegalab = "omegalab.cli:run"' in pyproject.read_text(encoding="utf-8").splitlines()
    ok = _fresh_cli("pik", "--limit", "1000", capture_output=True)
    assert main(["pik", "--limit", "1000"]) == EXIT_OK
    assert (ok.returncode, ok.stdout, ok.stderr) == (EXIT_OK, *capsys.readouterr())
    assert len(ok.stderr.splitlines()) == 1  # the progress line
    usage = _fresh_cli("pik", "--limit", "0", capture_output=True)
    assert (usage.returncode, usage.stdout, usage.stderr) == (
        EXIT_USAGE, "", "omegalab: --limit must be >= 1, got 0\n")
    exhausted = _fresh_cli("twosets", "--limit", "1000", "--epsilon", "0.05", "--rho", "1.05",
                           capture_output=True)
    assert (exhausted.returncode, exhausted.stdout) == (EXIT_RESOURCE, "")
    assert exhausted.stderr.startswith("omegalab: ") and exhausted.stderr.count("\n") == 1


def test_run_freezes_the_collector_after_the_output_is_flushed(monkeypatch):
    events = []

    class Stream(io.StringIO):
        def flush(self):
            events.append("flush")

    monkeypatch.setattr(sys, "argv", ["omegalab", "pik", "--limit", "100", "--quiet"])
    monkeypatch.setattr(sys, "stdout", Stream())
    monkeypatch.setattr(sys, "stderr", Stream())
    monkeypatch.setattr(cli.gc, "freeze", lambda: events.append("freeze"))
    assert cli.run() == EXIT_OK
    assert sys.stdout.getvalue().startswith("k,pi_k,weight\n")
    assert events[-3:] == ["flush", "flush", "freeze"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no full device")
@pytest.mark.parametrize("argv", [
    ["pik", "--limit", "1000", "--json", "--quiet"],
    ["twosets", "--limit", "50000", "--epsilon", "0.1", "--rho", "1.05", "--allow-partial"],
])
def test_failed_write_to_stdout_is_one_line_usage_error(argv):
    """A full device under stdout: the write fails in _write, not at exit."""
    with open("/dev/full", "w") as full:
        result = _fresh_cli(*argv, stdout=full, stderr=subprocess.PIPE)
    assert (result.returncode, result.stderr) == (
        EXIT_USAGE, "omegalab: stdout: No space left on device\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no full device")
@pytest.mark.parametrize("unbuffered", ["1", ""])
@pytest.mark.parametrize("argv, full, code, err", [
    # a result lost to the device, and a help text: one line, exit 2
    (["pik", "--limit", "1000", "--quiet"], "stdout", EXIT_USAGE,
     "omegalab: stdout: No space left on device\n"),
    (["pik", "--help"], "stdout", EXIT_USAGE, "omegalab: stdout: No space left on device\n"),
    # a progress line or an error line lost: the run exits as it would have
    (["pik", "--limit", "1000"], "stderr", EXIT_OK, None),
    (["pik", "--limit", "0"], "stderr", EXIT_USAGE, None),
    (["pik", "--limit", "x"], "stderr", EXIT_USAGE, None),
    (["twosets", "--limit", "1000", "--epsilon", "0.05", "--rho", "1.05"], "stderr",
     EXIT_RESOURCE, None),
])
def test_a_full_device_ends_the_run_in_its_exit_code(unbuffered, argv, full, code, err):
    """A stream on a full device, with Python's streams buffered ("") or not:
    no traceback, and the exit code of the run, never 1 or 120."""
    env = {**_cli_env(), "PYTHONUNBUFFERED": unbuffered}
    with open("/dev/full", "w") as device:
        streams = {full: device, ({"stdout", "stderr"} - {full}).pop(): subprocess.PIPE}
        result = subprocess.run([sys.executable, "-m", "omegalab.cli", *argv], env=env,
                                text=True, timeout=60, **streams)
    assert result.returncode == code
    if full == "stdout":
        assert result.stderr == err
    elif code == EXIT_OK:
        assert result.stdout.startswith("k,pi_k,weight\n")


def test_failed_flush_of_stdout_is_one_line_usage_error(capsys, monkeypatch):
    """A write that stdout buffers and then fails to flush fails in _write too."""
    class Full(io.StringIO):
        def flush(self):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(sys, "stdout", Full())
    assert main(["pik", "--limit", "100", "--quiet"]) == EXIT_USAGE
    assert capsys.readouterr().err == "omegalab: stdout: No space left on device\n"


def test_pnt_progress_lines_name_each_count(capsys):
    code = main(["pnt", "--limit", "1000", "--stride", "decade", "--workers", "3"])
    assert code == EXIT_OK
    assert capsys.readouterr().err == "".join(
        f"counting pi_k({n}) and the harmonic mass from prime counts: no sieve pass, "
        "--workers 3 not used\n" for n in (10, 100, 1000))


@pytest.mark.parametrize("workers", ["1", "2"])
def test_omegalab_cache_is_ignored(capsys, tmp_path, monkeypatch, workers):
    """The variable named the profile store, which is gone: a file there once
    failed pnt, and now nothing reads or writes it."""
    _, fresh = run(capsys, "pnt", "--limit", "5000", "--stride", "decade", "--quiet")
    blocker = tmp_path / "cache"
    blocker.write_bytes(b"")
    monkeypatch.setenv("OMEGALAB_CACHE", str(blocker))
    code, out = run(capsys, "pnt", "--limit", "5000", "--stride", "decade",
                    "--workers", workers, "--quiet")
    assert (code, out) == (EXIT_OK, fresh)
    assert [p.name for p in tmp_path.iterdir()] == ["cache"] and blocker.read_bytes() == b""


# The subcommands that read only pi_k, with options that make each one run.
PI_K_ARGVS = [["pik"], ["weyl", "--beta", "0.5"], ["erdos-kac"], ["correlate"], ["weights"],
              ["counterexample", "--mode", "sieve"]]


@pytest.mark.parametrize("argv", PI_K_ARGVS)
def test_pi_k_subcommands_say_that_nothing_is_sieved(capsys, argv):
    code = main([*argv, "--limit", "10000", "--workers", "2"])
    assert code == EXIT_OK
    assert capsys.readouterr().err == (
        "counting pi_k(10000) from prime counts: no sieve pass, --workers 2 not used\n")


@pytest.mark.parametrize("argv", PI_K_ARGVS)
def test_pi_k_subcommands_neither_sieve_nor_store(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.setenv("OMEGALAB_CACHE", str(tmp_path / "store"))
    monkeypatch.setattr(kernels, "omega_segment", lambda *a, **k: pytest.fail("sieved"))
    code = main([*argv, "--limit", "100000", "--workers", "2", "--quiet"])
    assert code == EXIT_OK
    assert capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []


def test_pik_with_workers_loads_no_process_pool():
    src = os.path.dirname(os.path.dirname(omegalab.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = ("import sys; from omegalab.cli import main; "
             "code = main(['pik', '--limit', '1000000', '--workers', '2', '--quiet']); "
             "print(code, [m for m in ('multiprocessing', 'concurrent.futures.process') "
             "if m in sys.modules], file=sys.stderr)")
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, timeout=60, check=True)
    assert result.stderr == "0 []\n"
    assert result.stdout.startswith("k,pi_k,weight\n")


def test_counterexample_extrapolate(capsys):
    code, out = run(capsys, "counterexample", "--kmax", "4", "--quiet")
    assert code == EXIT_OK
    header, rows = parse_csv(out)
    assert header == ["loglogn", "value"]
    assert len(rows) == 8  # peak + trough per checkpoint


def test_counterexample_sieve_mode(capsys):
    code, out = run(
        capsys, "counterexample", "--mode", "sieve", "--limit", "10000", "--quiet"
    )
    assert code == EXIT_OK
    header, rows = parse_csv(out)
    assert header == ["N", "omega_average", "genericity_defect"]


def test_limit_over_cap_is_resource_error(capsys):
    code, _ = run(capsys, "pik", "--limit", str(10**10 + 1), "--quiet")
    assert code == EXIT_RESOURCE


def test_limit_is_checked_before_spans_are_built(capsys, monkeypatch):
    real_spans = sieve.segment_spans

    def guarded_spans(n_max, segment_length=None):
        assert n_max <= sieve.HARD_LIMIT, "span list built past the limit"
        return real_spans(n_max, segment_length)

    monkeypatch.setattr(sieve, "segment_spans", guarded_spans)
    code, out = run(capsys, "pik", "--limit", str(10**18), "--quiet")
    assert code == EXIT_RESOURCE
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [["logpnt", "--limit", "100"],
     ["invariance", "--limit", "100"],
     ["weights", "--limit", "100", "--compare"],
     ["pik", "--limit", "100", "--segment-length", "1000"],
     # --quiet only where a profile's progress line is printed, --precision only for float tables.
     ["sieve", "--lo", "1", "--hi", "5", "--quiet"],
     ["sieve", "--lo", "1", "--hi", "5", "--precision", "3"],
     ["extrapolate", "--loglogn", "27", "--blocks", "blocks.json", "--quiet"],
     ["twosets", "--limit", "1000", "--epsilon", "0.05", "--rho", "1.05", "--quiet"]],
)
def test_removed_subcommand_and_option_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE


def test_out_file(capsys, tmp_path):
    out_path = tmp_path / "table.csv"
    code, out = run(
        capsys, "sieve", "--lo", "1", "--hi", "5", "--out", str(out_path)
    )
    assert code == EXIT_OK
    assert out == ""
    header, rows = parse_csv(out_path.read_text())
    assert header == ["n", "omega", "liouville"]
    assert len(rows) == 4


def test_out_into_missing_directory_is_usage_error(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_cmd_pik", lambda args: pytest.fail("the handler ran"))
    target = tmp_path / "missing" / "x.csv"
    code = main(["pik", "--limit", "100", "--out", str(target), "--quiet"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert not target.parent.exists()


@pytest.mark.parametrize("target", ["a directory", "a read-only file", "in a read-only directory"])
def test_unwritable_out_fails_before_the_handler(capsys, tmp_path, monkeypatch, target):
    monkeypatch.setattr(cli, "_cmd_sieve", lambda args: pytest.fail("the handler ran"))
    out = tmp_path if target == "a directory" else tmp_path / "x.csv"
    if target == "a read-only file":
        out.write_text("kept")
    if target != "a directory":  # os.access is patched: root may write anywhere
        denied = {str(out) if target == "a read-only file" else str(tmp_path)}
        access = cli.os.access
        monkeypatch.setattr(cli.os, "access", lambda p, mode: str(p) not in denied and access(p, mode))
    code = main(["sieve", "--lo", "1", "--hi", "5", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [["pik", "--limit", "1000", "--workers", "0"],
     ["pik", "--limit", "1000", "--workers", "-3"],
     ["pik", "--limit", "100", "--precision", "-1"],
     ["pik", "--limit", "100", "--precision", "0"]],
)
def test_bad_workers_or_precision_fail_before_the_handler(capsys, monkeypatch, argv):
    monkeypatch.setattr(cli, "_cmd_pik", lambda args: pytest.fail("the handler ran"))
    code = main(argv)  # without --quiet: no progress line either
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [["weyl", "--beta", "nan"],
     ["erdos-kac", "--grid", "1:0:1"],
     ["weights", "--C", "-1"],
     ["weights", "--C", "nan"],
     ["correlate", "--system", "rot:m=3,r=1,m=5"]],
)
def test_bad_options_fail_before_sieving(capsys, monkeypatch, argv):
    monkeypatch.setattr(sieve, "omega_profile", lambda *a, **k: pytest.fail("counted"))
    monkeypatch.setattr(sieve, "pi_k_profile", lambda *a, **k: pytest.fail("counted"))
    code = main([*argv, "--limit", str(10**10), "--workers", "2"])  # no --quiet
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv, message",
    [(["sieve", "--lo", str(-10**12), "--hi", "3"], f"invalid range [{-10**12}, 3)"),
     (["weights", "--limit", str(10**8), "--C", "0.01"],
      f"the window of C = 0.01 at log log N = {math.log(math.log(10**8))} holds no integer k")],
)
def test_bad_range_or_empty_window_fails_before_sieving(capsys, monkeypatch, argv, message):
    monkeypatch.setattr(kernels, "omega_segment", lambda *a: pytest.fail("sieved"))
    monkeypatch.setattr(sieve, "pi_k_profile", lambda *a, **k: pytest.fail("counted"))
    code = main(argv)  # no --quiet
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err == f"omegalab: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["correlate", "--limit", "100", "--system", "bogus"], "unknown system spec: 'bogus'"),
    (["correlate", "--limit", "100", "--system", "rot:m=3,r=5"], "residue 5 mod 3 is invalid"),
    (["erdos-kac", "--limit", "1000", "--grid", "0:0:1"], "grid needs at least two points"),
    (["extrapolate", "--loglogn", "1", "--blocks", "{blocks}"], "log log N must exceed 1"),
    (["extrapolate", "--loglogn", "27", "--blocks", "{inverted}"], "block [5, 3] is empty"),
    (["counterexample", "--blocks", "{inverted}"], "block [5, 3] is empty"),
    (["counterexample", "--kmax", "40"], "3^40 exceeds the supported integer range"),
    (["weights", "--limit", "1000", "--C", "0.01"],
     "the window of C = 0.01 at log log N = 1.9326447339160655 holds no integer k"),
    (["pik", "--limit", "100", "--out", "{tmp}"], "--out {tmp}: is a directory"),
])
def test_usage_errors_keep_their_exact_message(capsys, tmp_path, monkeypatch, argv, message):
    paths = {"tmp": tmp_path, "blocks": tmp_path / "blocks.json",
             "inverted": tmp_path / "inverted.json"}
    paths["blocks"].write_text("[[1, 13], [19, 35]]")
    paths["inverted"].write_text("[[5,3]]")
    code = main([arg.format(**paths) for arg in argv])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err == f"omegalab: {message.format(**paths)}\n"


@pytest.mark.parametrize("limit", ["2", "1", "-4"])
@pytest.mark.parametrize("cmd", ["erdos-kac", "correlate"])
def test_ek_limit_below_three_fails_before_sieving(capsys, monkeypatch, cmd, limit):
    monkeypatch.setattr(kernels, "omega_segment", lambda *a, **k: pytest.fail("sieved"))
    monkeypatch.setattr(sieve, "omega_profile", lambda *a, **k: pytest.fail("counted"))
    monkeypatch.setattr(sieve, "pi_k_profile", lambda *a, **k: pytest.fail("counted"))
    code = main([cmd, "--limit", limit])  # no --quiet
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err == "omegalab: EK normalizer needs N >= 3\n"


@pytest.mark.parametrize("limit", ["0", "-5"])
@pytest.mark.parametrize("argv", [
    ["pik"], ["pnt", "--stride", "decade"], ["weyl", "--beta", "0.5"], ["pnt"],
    ["counterexample", "--mode", "sieve"],
])
def test_limit_below_one_fails_before_the_progress_line(capsys, monkeypatch, argv, limit):
    monkeypatch.setattr(kernels, "omega_segment", lambda *a, **k: pytest.fail("sieved"))
    monkeypatch.setattr(sieve, "omega_profile", lambda *a, **k: pytest.fail("counted"))
    monkeypatch.setattr(sieve, "pi_k_profile", lambda *a, **k: pytest.fail("counted"))
    code = main([*argv, "--limit", limit])  # no --quiet
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err == f"omegalab: --limit must be >= 1, got {limit}\n"


@pytest.mark.parametrize(
    "argv",
    [["pik", "--limit", "100", "--quiet"],
     ["twosets", "--limit", "1000", "--epsilon", "0.05", "--rho", "1.05", "--allow-partial"]],
)
def test_unwritable_out_is_usage_error(capsys, tmp_path, argv):
    code = main([*argv, "--out", str(tmp_path)])  # a directory, not a file
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1


def test_precision_flag(capsys):
    _, out3 = run(capsys, "weyl", "--limit", "100", "--beta", "0.37", "--precision", "3", "--quiet")
    _, out12 = run(capsys, "weyl", "--limit", "100", "--beta", "0.37", "--quiet")
    _, rows3 = parse_csv(out3)
    _, rows12 = parse_csv(out12)
    assert len(rows3[0][4]) < len(rows12[0][4])


@pytest.mark.parametrize(
    "grid", ["0:1:0", "0:1:-0.5", "a:b", "0:1", "0:1:0.1:2", "0:inf:1", "nan:1:0.1", "0:1:1e-9"]
)
def test_bad_grid_is_usage_error(capsys, grid):
    code, out = run(capsys, "erdos-kac", "--limit", "1000", f"--grid={grid}", "--quiet")
    assert code == EXIT_USAGE
    assert out == ""


@pytest.mark.parametrize(
    "grid", ["1e16:1e16:1", "-1e17:-1e17:1", "0:1e-300:1e-301", "5e-324:1e-323:5e-324"]
)
def test_grid_where_stepping_stalls_ends_cleanly(grid):
    """x + step == x, or a step far below the 1e-12 slack: each ends within a
    bound kept from outside the process, so a hang fails instead of hanging."""
    src = os.path.dirname(os.path.dirname(omegalab.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    argv = ["erdos-kac", "--limit", "100", f"--grid={grid}", "--quiet"]
    result = subprocess.run([sys.executable, "-m", "omegalab.cli", *argv], env=env,
                            capture_output=True, text=True, timeout=30)
    assert result.returncode in (EXIT_OK, EXIT_USAGE)
    assert len(result.stderr.splitlines()) <= 1


@pytest.mark.parametrize(
    "argv",
    [
        ["weyl", "--limit", "1000", "--beta", "nan"],
        ["correlate", "--limit", "1000", "--system", "circle:alpha=inf"],
        ["weights", "--limit", "1000", "--C", "nan"],
        ["counterexample", "--mode", "extrapolate", "--C", "nan"],
    ],
)
def test_non_finite_float_is_usage_error(capsys, argv):
    code = main([*argv, "--quiet"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1


LIMITS = st.integers(1, 1000)
HUGE = st.sampled_from([math.nan, math.inf, -math.inf, 1e16, 1e300, sys.float_info.max])
# --C sets the window width, so finite draws stay small enough for a quick table.
WINDOW_C = st.floats(max_value=100.0) | HUGE
# Valid (epsilon, rho) pairs, down to rho within 1e-12 of 1, then any floats.
EPSILON_RHO = st.builds(lambda eps, t: (eps, 1.0 + eps * t), st.floats(1e-3, 0.999),
                        st.floats(1e-12, 1.0)) | st.tuples(
    st.floats() | HUGE, st.floats(0.0, 1e-12).map(lambda d: 1.0 + d) | st.floats() | HUGE)
BLOCKS = "{blocks}"  # stands for a blocks file the test writes
# Subcommands that build a profile take --quiet, which keeps their progress line off stderr.
FLOAT_ARGVS = st.one_of(
    st.builds(lambda n, beta: ["weyl", "--quiet", "--limit", str(n), f"--beta={beta!r}"],
              LIMITS, st.floats()),
    st.builds(lambda n, lo, hi: ["correlate", "--quiet", "--limit", str(n),
                                 f"--bump={lo!r},{hi!r}"],
              LIMITS, st.floats() | HUGE, st.floats() | HUGE),
    st.builds(lambda n, c: ["weights", "--quiet", "--limit", str(n), f"--C={c!r}"],
              LIMITS, WINDOW_C),
    st.builds(lambda c: ["counterexample", "--quiet", "--mode", "extrapolate", f"--C={c!r}"],
              WINDOW_C),
    st.builds(lambda n, a: ["correlate", "--quiet", "--limit", str(n),
                            f"--system=circle:alpha={a!r}"],
              LIMITS, st.floats() | HUGE),
    st.builds(lambda n, er, partial: ["twosets", "--limit", str(n), f"--epsilon={er[0]!r}",
                                      f"--rho={er[1]!r}", *partial],
              st.integers(-10**4, 10**4), EPSILON_RHO, st.sampled_from([[], ["--allow-partial"]])),
    st.builds(lambda n, ramp: ["correlate", "--quiet", "--limit", str(n), f"--ramp={ramp!r}"],
              LIMITS, st.floats() | HUGE),
    # log log N up to 1e6 keeps a window of any finite --C under 2e5 k.
    st.builds(lambda loglogn, c: ["extrapolate", f"--loglogn={loglogn!r}", f"--C={c!r}",
                                  "--blocks", BLOCKS],
              st.floats(1.0, 1e6) | st.floats(max_value=1e6) | HUGE,
              st.floats(0.0, 100.0) | WINDOW_C),
)
# --grid specs: any three floats; lo == hi where lo + step == lo; steps below
# an ulp of lo or far below the 1e-12 slack; counts up to MAX_GRID_POINTS.
GRIDS = st.one_of(
    st.tuples(st.floats() | HUGE, st.floats() | HUGE, st.floats() | HUGE),
    st.builds(lambda x, step: (x, x, step), st.floats(1e15, 1e300) | st.floats(-1e300, -1e15),
              st.floats(1e-3, 10.0)),
    st.builds(lambda lo, width, step: (lo, lo + width, step), st.floats(-10.0, 10.0),
              st.floats(0.0, 1e-11), st.floats(5e-324, 1e-14)),
    st.builds(lambda lo, count, step: (lo, lo + count * step, step), st.floats(-10.0, 10.0),
              st.integers(0, 50) | st.sampled_from([cli.MAX_GRID_POINTS - 1, cli.MAX_GRID_POINTS]),
              st.floats(1e-6, 1.0)),
).map(lambda grid: ":".join(map(repr, grid)))
# --system specs from drawn names, keys and values: each system's own keys
# with numbers, and any keys (unknown and repeated ones too) with any values.
SYSTEM_NUMBERS = st.integers(-3, 12).map(str) | (st.floats() | HUGE).map(repr)
SYSTEMS = st.one_of(
    st.sampled_from(sorted(dynamics.SYSTEM_KEYS.items())).flatmap(
        lambda item: st.tuples(st.just(item[0]),
                               st.tuples(*[st.tuples(st.just(key), SYSTEM_NUMBERS)
                                           for key in item[1]]))),
    st.tuples(st.sampled_from(["liouville", "rot", "exp", "circle", "torus", ""]),
              st.lists(st.tuples(st.sampled_from(["m", "r", "beta", "alpha", "start", "x", ""]),
                                 SYSTEM_NUMBERS | st.text(max_size=3)),
                       max_size=4)),
).map(lambda spec: spec[0] + ":" * bool(spec[1]) + ",".join(f"{k}={v}" for k, v in spec[1]))
STRING_ARGVS = st.one_of(
    st.builds(lambda n, grid: ["erdos-kac", "--quiet", f"--limit={n}", f"--grid={grid}"],
              LIMITS, GRIDS),
    st.builds(lambda n, spec: ["correlate", "--quiet", f"--limit={n}", f"--system={spec}"],
              LIMITS, SYSTEMS),
)


def _exits_cleanly_without_non_finite_rows(argv):
    """main(argv) ends within 20 s, kept by SIGALRM from outside the code
    under test, with an exit code of the contract and no nan or inf."""
    out, err = io.StringIO(), io.StringIO()

    def hung(signum, frame):
        raise TimeoutError(f"{argv} ran past 20 s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(20)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_RESOURCE)
    assert len(err.getvalue().splitlines()) <= 1
    if code == EXIT_OK:
        assert "nan" not in out.getvalue().lower()
        assert "inf" not in out.getvalue().lower()


@settings(max_examples=160, deadline=None)
@given(FLOAT_ARGVS)
def test_float_options_exit_cleanly_without_non_finite_rows(argv):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "blocks.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([[1, 13], [19, 35]], fh)
        _exits_cleanly_without_non_finite_rows([path if arg == BLOCKS else arg for arg in argv])


@settings(max_examples=150, deadline=None)
@given(STRING_ARGVS)
def test_string_options_exit_cleanly_without_non_finite_rows(argv):
    _exits_cleanly_without_non_finite_rows(argv)


# kmax 19 to 26 evaluate windows of up to 9.6e6 k; from 27 on a window is
# too large, and from 40 on 3^kmax is past MAX_BLOCK_BOUND.
KMAX = st.integers(-5, 18) | st.integers(27, 10**12)


@settings(max_examples=60, deadline=None)
@given(KMAX, st.sampled_from(["extrapolate", "sieve"]), st.booleans())
def test_kmax_exits_cleanly_without_non_finite_rows(kmax, mode, with_blocks):
    argv = ["counterexample", "--quiet", "--mode", mode, f"--kmax={kmax}"]
    with tempfile.TemporaryDirectory() as tmp:
        if with_blocks:
            path = os.path.join(tmp, "blocks.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump([[1, 10], [50, 80]], fh)
            argv += ["--blocks", path]
        _exits_cleanly_without_non_finite_rows(argv)


# --limit of every subcommand that builds a profile, up to 10^4 or past HARD_LIMIT:
# at or near HARD_LIMIT itself, pnt would sieve for minutes.
PROFILE_ARGVS = [["pik"], ["pnt", "--stride", "decade"], ["weyl", "--beta", "0.5"],
                 ["erdos-kac"], ["correlate"], ["weights"],
                 ["counterexample", "--mode", "sieve"]]
PROFILE_LIMITS = st.integers(-(10**12), 10**4) | st.integers(sieve.HARD_LIMIT + 1, 10**30)
INTEGER_ARGVS = st.one_of(
    st.builds(lambda argv, n: [*argv, "--quiet", f"--limit={n}"],
              st.sampled_from(PROFILE_ARGVS), PROFILE_LIMITS),
    st.builds(lambda lo, width: ["sieve", f"--lo={lo}", f"--hi={lo + width}"],
              st.integers(-(10**12), sieve.HARD_LIMIT + 10),
              st.integers(-10, 2 * cli.MAX_SIEVE_ROWS)),
)


@settings(max_examples=150, deadline=None)
@given(INTEGER_ARGVS)
def test_integer_options_exit_cleanly_without_non_finite_rows(argv):
    _exits_cleanly_without_non_finite_rows(argv)


# Block bounds anywhere in +-2^70, or near the windows probed below (k 0 to 65).
BOUNDS = st.integers(-(2**70), 2**70) | st.integers(-5, 70)
JSON_LEAVES = st.none() | st.booleans() | st.floats() | st.text(max_size=3) | BOUNDS
BLOCK_FILES = st.one_of(
    st.lists(st.lists(BOUNDS, min_size=2, max_size=2), max_size=30),
    st.recursive(JSON_LEAVES, lambda inner: st.lists(inner, max_size=4), max_leaves=12),
)


@settings(max_examples=120, deadline=None)
@given(BLOCK_FILES, st.sampled_from(["extrapolate", "counterexample"]))
def test_blocks_files_exit_cleanly_with_oracle_values(content, subcommand):
    argv = {
        "extrapolate": ["extrapolate", "--loglogn", "27"],
        "counterexample": ["counterexample", "--mode", "extrapolate", "--kmax", "5"],
    }[subcommand]
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "blocks.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(content, fh)
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, "--blocks", path, "--json"])
        assert time.perf_counter() - start < 20
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_RESOURCE)
    assert len(err.getvalue().splitlines()) <= 1
    if code != EXIT_OK:
        return
    assert all(lo <= hi for lo, hi in content)
    assert "nan" not in out.getvalue().lower()
    assert "inf" not in out.getvalue().lower()
    rows = [tuple(row.values()) for row in json.loads(out.getvalue())["rows"]]
    blocks = merge_intervals(map(tuple, content))
    if subcommand == "extrapolate":
        window = weights.GaussianWindowSpec(loglogn=27.0)
        value = extrapolated_average_oracle(lambda k: block_scan_oracle(blocks, k), window)
        assert rows[0][:2] == (27.0, value.real)
    else:
        cps = [Checkpoints(k) for k in range(1, 6)]
        assert rows == oscillation_profile_oracle(blocks, cps)


class RecordingNamespace(argparse.Namespace):
    """A Namespace that records the names of the attributes read from it."""

    def __init__(self):
        super().__init__()
        self.__dict__["_reads"] = set()

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_reads").add(name)
        return object.__getattribute__(self, name)


def test_every_declared_option_is_read(capsys, tmp_path):
    """Each subcommand's handler and _emit read every option it declares."""
    blocks = tmp_path / "blocks.json"
    blocks.write_text(json.dumps([[1, 13], [19, 35]]))
    runs = {
        "sieve": [["--lo", "1", "--hi", "11"]],
        "pik": [["--limit", "1000", "--quiet"]],
        "pnt": [["--limit", "1000", "--stride", "decade", "--quiet"]],
        "weyl": [["--limit", "1000", "--beta", "0.5", "--quiet"]],
        "erdos-kac": [["--limit", "1000", "--quiet"]],
        "correlate": [["--limit", "1000", "--quiet"]],
        "weights": [["--limit", "1000", "--quiet"]],
        "extrapolate": [["--loglogn", "27", "--blocks", str(blocks)]],
        "twosets": [["--limit", "1000", "--epsilon", "0.05", "--rho", "1.05",
                     "--allow-partial"]],
        # --C is read only in extrapolate mode; --limit and --quiet only in sieve mode.
        "counterexample": [["--mode", "sieve", "--limit", "1000", "--quiet"], ["--kmax", "3"]],
    }
    parser = cli._build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(subparsers.choices) == set(runs)
    unread = {}
    for name, argvs in runs.items():
        declared = {
            action.dest
            for action in subparsers.choices[name]._actions
            if action.option_strings and action.dest != "help"
        }
        read = set()
        for argv in argvs:
            args = parser.parse_args([name, *argv], namespace=RecordingNamespace())
            args._reads.clear()
            table = args.handler(args)
            if table is not None:
                cli._emit(args, *table)
            read |= args._reads
        if declared - read:
            unread[name] = sorted(declared - read)
    capsys.readouterr()
    assert unread == {}
