"""The library's settable surface: no parameter that only tests set or that the code derives."""

import argparse
import ast
import builtins
import dataclasses
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from test_averages import _mentions

import omegalab
from omegalab import cli, kernels, sieve, twosets, weights


def test_public_signatures():
    assert str(inspect.signature(sieve.omega_profile)) == (
        "(N: 'int', workers: 'int' = 1) -> 'OmegaProfile'"
    )
    assert str(inspect.signature(sieve.pi_k_profile)) == "(N: 'int') -> 'OmegaProfile'"
    assert str(inspect.signature(twosets.construct_pair)) == (
        "(epsilon: 'float', rho: 'float', search_limit: 'int') -> 'PrimeSetPair'"
    )
    assert str(inspect.signature(weights.erdos_weights)) == (
        "(window: 'GaussianWindowSpec') -> 'WeightVector'"
    )
    assert [f.name for f in dataclasses.fields(weights.WeightVector)] == [
        "k_lo", "k_hi", "weights",
    ]


def test_every_export_is_reached_from_a_subcommand_or_an_acceptance_test():
    """A name omegalab exports is mentioned by a cli function or by the
    acceptance tests, directly or through the library names they mention."""
    found = _mentions()
    acceptance = Path(__file__).with_name("test_acceptance.py").read_text(encoding="utf-8")
    reached = set()
    for node in ast.walk(ast.parse(acceptance)):
        if isinstance(node, ast.Name):
            reached.add(node.id)
        elif isinstance(node, ast.Attribute):
            reached.add("." + node.attr)
    owners = {owner for owner in found if owner.startswith("cli.")}
    while owners:
        for owner in owners:
            reached |= found.pop(owner)
        owners = {owner for owner in found
                  if {owner.split(".", 1)[1], "." + owner.split(".", 1)[1]} & reached}
    exported = {name for names in omegalab._EXPORTS.values() for name in names}
    # perfbench/traced.py reads active_backend on every benchmark run
    assert {name for name in exported if not {name, "." + name} & reached} == {"active_backend"}


def _fresh(probe: str) -> str:
    """stdout of `python -c probe` in a fresh interpreter."""
    src = str(Path(omegalab.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60, check=True).stdout


def test_package_loads_the_library_on_first_use():
    """The package contract that perfbench/traced.py and callers rely on,
    each part in a fresh interpreter."""
    layers = ("sieve", "kernels", "averages", "weights", "counterexample", "twosets", "cli")
    assert _fresh(  # the imports of perfbench/traced.py
        "import sys, omegalab; from omegalab import cli, sieve, twosets; "
        f"print([m for m in {layers!r} if 'omegalab.' + m not in sys.modules])") == "[]\n"
    assert _fresh("import sys, omegalab; "
                  "print(hasattr(omegalab, 'no_such_name'), 'numpy' in sys.modules)"
                  ) == "False False\n"
    # a submodule imported first: sieve.py's `from . import kernels` meets no load
    assert _fresh("from omegalab.averages import RealTestFunction; "
                  "print(RealTestFunction.__name__)") == "RealTestFunction\n"
    assert _fresh(
        "import importlib, omegalab; print(all(getattr(omegalab, name) is "
        "getattr(importlib.import_module('omegalab.' + module), name) "
        "for module, names in omegalab._EXPORTS.items() for name in names))") == "True\n"
    assert _fresh("from omegalab import *; import omegalab; "
                  "print(len(omegalab.__all__), all(n in globals() for n in omegalab.__all__))"
                  ) == f"{len(omegalab.__all__)} True\n"


def test_only_pnt_reaches_the_harmonic_mass():
    """Of the cli handlers, only _cmd_pnt reaches omega_profile, through the cli
    functions it mentions; the others read pi_k alone, counted by pi_k_profile."""
    found = _mentions()

    def reached(owner):
        seen, todo = set(), [owner]
        while todo:
            names = {name.lstrip(".") for name in found[todo.pop()]}
            todo += [f"cli.{name}" for name in names - seen if f"cli.{name}" in found]
            seen |= names
        return seen

    handlers = [owner for owner in found if owner.startswith("cli._cmd_")]
    assert {h for h in handlers if "omega_profile" in reached(h)} == {"cli._cmd_pnt"}
    assert {h for h in handlers if "pi_k_profile" in reached(h)} == {
        f"cli._cmd_{name}" for name in ("pik", "weyl", "erdos_kac", "correlate", "weights",
                                        "counterexample")}


def test_cli_surface():
    """Each subcommand and its option strings: a new option or subcommand shows here."""
    parser = cli._build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    surface = {name: {s for action in sub._actions for s in action.option_strings
                      if s not in ("-h", "--help")}
               for name, sub in subparsers.choices.items()}
    table = {"--json", "--precision", "--out"}
    counted = {"--limit", *table, "--workers", "--quiet"}
    assert surface == {
        "sieve": {"--lo", "--hi", "--json", "--out"},
        "pik": counted,
        "pnt": counted | {"--stride"},
        "weyl": counted | {"--beta"},
        "erdos-kac": counted | {"--grid"},
        "correlate": counted | {"--system", "--bump", "--ramp"},
        "weights": counted | {"--C"},
        "extrapolate": table | {"--loglogn", "--C", "--blocks"},
        "twosets": {"--limit", "--epsilon", "--rho", "--allow-partial", "--out"},
        "counterexample": counted | {"--kmax", "--C", "--mode", "--blocks"},
    }
    assert sum(map(len, surface.values())) == 68


def test_trial_division_lives_only_in_the_test_oracles():
    modules = [m for m in vars(omegalab).values() if inspect.ismodule(m)]
    assert sieve in modules
    for module in (omegalab, *modules):
        assert "omega_oracle" not in vars(module), module.__name__


def test_only_segment_spans_takes_a_segment_length():
    takers = []
    for path in sorted(Path(omegalab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                params = node.args
                names = {a.arg for a in params.posonlyargs + params.args + params.kwonlyargs}
                if names & {"segment_length", "max_set_size"}:
                    takers.append(f"{path.stem}.{node.name}")
    assert takers == ["sieve.segment_spans"]


def test_errors_has_four_classes_and_every_raise_names_one():
    """The class an error is raised with is its exit code, so there are only four."""
    package = Path(omegalab.__file__).parent
    tree = ast.parse((package / "errors.py").read_text(encoding="utf-8"))
    classes = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    assert classes == {
        "OmegalabError", "InvalidRangeError", "RangeTooLargeError", "SearchExhaustedError",
    }
    strays = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "errors":
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Raise) and node.exc is not None:  # not a bare re-raise
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                names = [exc.id if isinstance(exc, ast.Name) else exc.attr]
            else:
                continue
            strays += [f"{path.stem}: {name}" for name in names
                       if name not in classes | {"require_finite"} and not hasattr(builtins, name)]
    assert strays == []


def test_names_the_benchmark_reads():
    """perfbench/traced.py reads these names: `env` on every benchmark run,
    `cli`, `sweep` and the span attributes in traced runs."""
    assert omegalab.active_backend() == "numpy"
    for layer in ("sieve", "kernels", "averages", "weights", "counterexample", "twosets", "cli"):
        importlib.import_module(f"omegalab.{layer}")
    assert callable(twosets.PrimeSetPair.__post_init__)
    spans = sieve.segment_spans(10**4, 1000)
    assert len(spans) == 10
    lo, hi = spans[3]
    counts = kernels.omega_segment(lo, hi, sieve.base_primes(100))
    assert counts.dtype == np.uint8 and len(counts) == (hi - lo) // 2
    # install() looks these up in every traced run; one placeholder that nothing calls
    assert callable(sieve._profile_chunk)
    assert sieve._profile_chunk is sieve._cache_read is sieve._cache_write


def test_benchmark_harness_runs_against_the_library(tmp_path):
    """perfbench/traced.py's three commands, each in a fresh process from the
    root of the checkout: exit 0 and well-formed JSON."""
    root = Path(omegalab.__file__).parents[2]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"),
                                                        os.environ.get("PYTHONPATH", "")])}

    def traced(*argv):
        return subprocess.run([sys.executable, "perfbench/traced.py", *argv], cwd=root, env=env,
                              capture_output=True, text=True, timeout=120)

    spans = tmp_path / "spans.json"
    run = traced("cli", str(spans), "--", "pnt", "--limit", "100000", "--stride", "decade",
                 "--workers", "2", "--json", "--quiet")
    assert (run.returncode, run.stderr) == (0, "")
    assert [row["N"] for row in json.loads(run.stdout)["rows"]] == [10**k for k in range(1, 6)]
    record = json.loads(spans.read_text())
    assert set(record) == {"spans", "counts"}
    assert "sieve.omega_profile" in {span["name"] for span in record["spans"]}
    # the traced PrimeSetPair.__post_init__ validates the pair from its arrays
    run = traced("cli", str(spans), "--", "twosets", "--limit", "50000", "--epsilon", "0.1",
                 "--rho", "1.05", "--allow-partial")
    assert (run.returncode, run.stderr) == (0, "")
    pair = json.loads(run.stdout)
    assert (len(pair["b1"]), len(pair["b2"])) == (5111, 5111)
    names = [span["name"] for span in json.loads(spans.read_text())["spans"]]
    assert names.count("twosets.validate") == 1
    for command, keys in (("env", {"backend", "numpy"}),
                          ("sweep", {f"kernels.rate_seg{s}" for s in (12, 16, 20, 22)})):
        out = tmp_path / f"{command}.json"
        assert traced(command, str(out)).returncode == 0
        assert set(json.loads(out.read_text())) == keys
