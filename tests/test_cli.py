import csv
import io
import json

import pytest

from omegalab.cli import EXIT_OK, EXIT_RESOURCE, EXIT_USAGE, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def test_sieve_csv(capsys):
    code, out = run(capsys, "sieve", "--lo", "1", "--hi", "11", "--quiet")
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
    code, out = run(
        capsys, "correlate", "--limit", "10000", "--system", "rot:m=3,r=1", "--quiet"
    )
    assert code == EXIT_OK


def test_correlate_unknown_system(capsys):
    code, _ = run(capsys, "correlate", "--limit", "100", "--system", "bogus", "--quiet")
    assert code == EXIT_USAGE


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
        "--quiet",
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
        "--quiet",
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
        "--quiet",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["b1"] and payload["b2"]
    assert payload["coupling_b1"] > 0.05


def test_invariance(capsys):
    code, out = run(capsys, "invariance", "--limit", "10000", "--a", "parity", "--quiet")
    assert code == EXIT_OK
    header, rows = parse_csv(out)
    assert header == ["N", "gap"]


def test_invariance_unknown_function(capsys):
    code, _ = run(capsys, "invariance", "--limit", "100", "--a", "mobius", "--quiet")
    assert code == EXIT_USAGE


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


def test_shifted(capsys):
    code, out = run(capsys, "shifted", "--limit", "10000", "--shift", "1", "--quiet")
    assert code == EXIT_OK
    header, rows = parse_csv(out)
    assert header == ["N", "shift", "re", "im"]


def test_limit_over_cap_is_resource_error(capsys):
    code, _ = run(capsys, "pik", "--limit", str(10**10 + 1), "--quiet")
    assert code == EXIT_RESOURCE


def test_out_file(capsys, tmp_path):
    out_path = tmp_path / "table.csv"
    code, out = run(
        capsys, "sieve", "--lo", "1", "--hi", "5", "--out", str(out_path), "--quiet"
    )
    assert code == EXIT_OK
    assert out == ""
    header, rows = parse_csv(out_path.read_text())
    assert header == ["n", "omega", "liouville"]
    assert len(rows) == 4


def test_precision_flag(capsys):
    _, out3 = run(capsys, "weyl", "--limit", "100", "--beta", "0.37", "--precision", "3", "--quiet")
    _, out12 = run(capsys, "weyl", "--limit", "100", "--beta", "0.37", "--quiet")
    _, rows3 = parse_csv(out3)
    _, rows12 = parse_csv(out12)
    assert len(rows3[0][4]) < len(rows12[0][4])


@pytest.mark.parametrize("length", ["-5", "0"])
def test_nonpositive_segment_length_is_usage_error(capsys, length):
    code, out = run(capsys, "pik", "--limit", "1000", "--segment-length", length, "--quiet")
    assert code == EXIT_USAGE
    assert out == ""


@pytest.mark.parametrize(
    "grid", ["0:1:0", "0:1:-0.5", "a:b", "0:1", "0:1:0.1:2", "0:inf:1", "nan:1:0.1", "0:1:1e-9"]
)
def test_bad_grid_is_usage_error(capsys, grid):
    code, out = run(capsys, "erdos-kac", "--limit", "1000", f"--grid={grid}", "--quiet")
    assert code == EXIT_USAGE
    assert out == ""


def test_truncated_cache_file_is_resieved(capsys, tmp_path, monkeypatch):
    _, fresh = run(capsys, "pik", "--limit", "5000", "--segment-length", "2048", "--quiet")
    monkeypatch.setenv("OMEGALAB_CACHE", str(tmp_path))
    run(capsys, "pik", "--limit", "5000", "--segment-length", "2048", "--quiet")
    victim = sorted(tmp_path.iterdir())[0]
    victim.write_bytes(victim.read_bytes()[:-100])
    code, out = run(capsys, "pik", "--limit", "5000", "--segment-length", "2048", "--quiet")
    assert code == EXIT_OK
    assert out == fresh
    code, out = run(capsys, "pik", "--limit", "5000", "--segment-length", "2048", "--quiet")
    assert code == EXIT_OK
    assert out == fresh
