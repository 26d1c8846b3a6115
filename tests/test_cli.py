import csv
import io
import warnings

import pytest

from rismac import (default_config, parse_threshold_table, replace_config,
                    serialize_threshold_table)
from rismac.cli import main
from rismac.config import config_hash
from rismac.harness import CSV_HEADER


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_to_file(tmp_path, capsys):
    out = tmp_path / "table.txt"
    code, _, err = run(capsys, "solve", "--out", str(out))
    assert code == 0
    table = parse_threshold_table(out.read_text())
    assert table.config_hash == config_hash(default_config())
    assert table.lambda_star > 0.0
    assert "lambda_star" in err


def test_solve_to_stdout_parses(capsys):
    code, out, _ = run(capsys, "solve")
    assert code == 0
    table = parse_threshold_table(out)
    assert sorted(table.kstar) == list(range(1, 9))


def test_simulate_baselines(capsys):
    for policy in ("no-wait-direct", "no-wait-ris", "optimal-ris-stop"):
        code, out, _ = run(capsys, "simulate", "--policy", policy,
                           "--rounds", "3000", "--seed", "4")
        assert code == 0
        assert f"policy={policy}" in out and "mean=" in out


def test_simulate_proposed_needs_table(capsys):
    code, _, err = run(capsys, "simulate", "--policy", "proposed",
                       "--rounds", "1000", "--seed", "1")
    assert code == 2
    assert "solve" in err


def test_simulate_proposed_with_table(tmp_path, capsys):
    out = tmp_path / "table.txt"
    assert run(capsys, "solve", "--out", str(out))[0] == 0
    code, text, _ = run(capsys, "simulate", "--policy", "proposed",
                        "--rounds", "5000", "--seed", "4",
                        "--table", str(out))
    assert code == 0
    assert "rel_gap" in text


def test_table_config_mismatch_rejected(tmp_path, capsys):
    out = tmp_path / "table.txt"
    assert run(capsys, "solve", "--out", str(out))[0] == 0
    code, _, err = run(capsys, "simulate", "--policy", "proposed",
                       "--rounds", "1000", "--seed", "1",
                       "--table", str(out), "--set", "pt=26 dBm")
    assert code == 2
    assert "hash" in err


def _drop(prefix):
    return lambda text: "".join(line for line in text.splitlines(keepends=True)
                                if not line.startswith(prefix))


def _with_pair_9(text):
    # pair 9 copies pair 8's thresholds, so only K = 8 rules it out
    extra = [line.replace(".8 =", ".9 =") for line in text.splitlines(keepends=True)
             if line.startswith(("zeta.8", "eta.8"))]
    return text.replace("kstar = 1,2,3,4,5,6,7,8", "kstar = 1,2,3,4,5,6,7,8,9") + "".join(extra)


@pytest.mark.parametrize("edit,extra", [
    (lambda text: text.replace("version = 1", "version = 2"), ()),
    (_drop("zeta.3"), ()),
    (_drop("config_hash"), ("--set", "pt=20 dBm")),
    (_with_pair_9, ()),
    (lambda text: _drop("lambda_star")(text) + "lambda_star = nan\n", ("--strict", "0.01")),
    (lambda text: _drop("zeta.2")(text) + "zeta.2 = 1e9\n", ()),
    (lambda text: text + "this line is no table field\n", ()),
], ids=["version-2", "missing-zeta", "missing-hash", "pair-outside-K", "nan-lambda",
        "zeta-above-eta", "garbage-line"])
def test_malformed_table_rejected(tmp_path, capsys, table, edit, extra):
    path = tmp_path / "table.txt"
    path.write_text(edit(serialize_threshold_table(table)))
    code, _, err = run(capsys, "simulate", "--policy", "proposed", "--rounds", "1000",
                       "--seed", "1", "--table", str(path), *extra)
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


def test_simulate_strict_failure(capsys):
    code, _, err = run(capsys, "simulate", "--policy", "no-wait-direct",
                       "--rounds", "3000", "--seed", "4", "--strict", "1e-9")
    assert code == 3
    assert "strict" in err


def test_sweep_csv_contract(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    argv = ("sweep", "--axis", "pt_dbm", "--values", "28,30",
            "--policy", "no-wait-direct", "--policy", "no-wait-ris",
            "--rounds", "3000", "--seed", "6", "--out", str(out))
    assert run(capsys, *argv)[0] == 0
    text = out.read_text()
    assert text.splitlines()[0] == ",".join(CSV_HEADER)
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == 4
    assert {r["policy"] for r in rows} == {"no-wait-direct", "no-wait-ris"}
    assert {float(r["axis_value"]) for r in rows} == {28.0, 30.0}
    for r in rows:
        assert float(r["simulated_mean"]) > 0.0
        assert int(r["n_rounds"]) == 3000
    # reruns are byte-identical
    out2 = tmp_path / "sweep2.csv"
    argv2 = argv[:-1] + (str(out2),)
    assert run(capsys, *argv2)[0] == 0
    assert out2.read_text() == text


def test_sweep_to_stdout(capsys):
    code, out, _ = run(capsys, "sweep", "--axis", "tau_d_ms", "--values", "15",
                       "--policy", "no-wait-direct", "--rounds", "2000",
                       "--seed", "6")
    assert code == 0
    assert out.splitlines()[0] == ",".join(CSV_HEADER)


def test_sweep_axis_aliases(capsys):
    # pt == pt_dbm and tau_d == tau_d_ms must hit the same axis handlers
    base = ("--values", "26", "--policy", "no-wait-direct",
            "--rounds", "1000", "--seed", "6")
    code, out_alias, _ = run(capsys, "sweep", "--axis", "pt", *base)
    assert code == 0
    code, out_full, _ = run(capsys, "sweep", "--axis", "pt_dbm", *base)
    assert code == 0
    strip = lambda text: [line.split(",", 2)[2] for line in text.splitlines()[1:]]
    assert strip(out_alias) == strip(out_full)
    code, out, _ = run(capsys, "sweep", "--axis", "tau_d", "--values", "15",
                       "--policy", "no-wait-direct", "--rounds", "1000",
                       "--seed", "6")
    assert code == 0
    assert out.splitlines()[0] == ",".join(CSV_HEADER)


def test_sweep_strict_failure(capsys):
    code, _, err = run(capsys, "sweep", "--axis", "pt_dbm", "--values", "30",
                       "--policy", "no-wait-direct", "--rounds", "2000",
                       "--seed", "6", "--strict", "1e-9")
    assert code == 3
    assert "strict" in err


def test_sweep_bad_values(capsys):
    code, _, err = run(capsys, "sweep", "--axis", "pt_dbm", "--values", "a,b",
                       "--rounds", "100", "--seed", "1")
    assert code == 2
    assert "values" in err


def test_bad_config_path(capsys):
    code, _, err = run(capsys, "solve", "--config", "/does/not/exist.cfg")
    assert code == 2
    assert "error" in err


def test_bad_override(capsys):
    code, _, err = run(capsys, "solve", "--set", "nonsense=3")
    assert code == 2
    assert "unknown config key" in err


def test_non_finite_override_rejected(capsys):
    code, _, err = run(capsys, "solve", "--set", "tau_d=nan")
    assert code == 2
    assert "finite" in err


@pytest.mark.parametrize("argv", [
    ("solve", "--set", "pt=4000 dBm"),
    ("solve", "--set", "gt=4000 dB"),
    ("sweep", "--axis", "pt", "--values", "4000", "--rounds", "10",
     "--policy", "no-wait-direct"),
    # pt itself is finite here, but the link budget pt*gt*gr*beta0/n0 is not
    ("solve", "--set", "pt=3050 dBm"),
], ids=["pt-overflow", "gt-overflow", "sweep-pt-overflow", "budget-overflow"])
def test_out_of_range_input_rejected_without_warnings(capsys, argv):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run(capsys, *argv)
    assert code == 2
    assert "float range" in err
    assert "Warning" not in err
    assert [str(w.message) for w in caught] == []


def test_solve_at_extreme_power_succeeds_without_warnings(capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "solve", "--set", "pt=2000 dBm")
    assert code == 0
    assert parse_threshold_table(out).lambda_star == pytest.approx(645.66, abs=0.01)
    assert "Warning" not in err
    assert [str(w.message) for w in caught] == []


def test_unknown_policy_rejected_by_parser(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--policy", "magic", "--rounds", "10", "--seed", "1"])
    assert exc.value.code == 2


def test_validate_passes_on_default(capsys):
    code, out, _ = run(capsys, "validate", "--rounds", "6000", "--seed", "3")
    assert code == 0
    assert "all" in out and "passed" in out
    assert "FAIL" not in out
