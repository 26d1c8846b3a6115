import csv
import dataclasses
import io
import warnings

import pytest

from rismac import default_config, parse_threshold_table, serialize_threshold_table
from rismac.cli import _build_parser, main
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


def test_simulate_proposed_solves_its_table(tmp_path, capsys):
    # without --table the proposed table is solved in-process, to the same bits
    path = tmp_path / "table.txt"
    assert run(capsys, "solve", "--out", str(path))[0] == 0
    argv = ("simulate", "--policy", "proposed", "--rounds", "4096", "--seed", "1")
    code, with_table, _ = run(capsys, *argv, "--table", str(path))
    assert code == 0
    assert run(capsys, *argv) == (0, with_table, "")


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
    # zeta < eta holds, but no magnitude is negative
    (lambda text: _drop(("zeta.1", "eta.1"))(text) + "zeta.1 = -5.0\neta.1 = -1.0\n", ()),
], ids=["version-2", "missing-zeta", "missing-hash", "pair-outside-K", "nan-lambda",
        "zeta-above-eta", "garbage-line", "negative-thresholds"])
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


def test_simulate_strict_at_heterogeneous_p(capsys):
    # the model weighs the pairs as the contention draws its winners
    code, out, err = run(capsys, "simulate", "--policy", "no-wait-ris",
                         "--set", "p=0.05,0.6,0.05,0.05,0.6,0.05,0.05,0.05",
                         "--rounds", "200000", "--seed", "3", "--strict", "0.01")
    assert code == 0, out + err


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


def test_sweep_bad_values(monkeypatch, capsys):
    # refused by the parser, before the configuration load, so ahead of a bad --set
    monkeypatch.setattr("rismac.cli._load_config",
                        lambda *a: pytest.fail("configuration loaded"))
    for argv, message in ((["a,b"], "'a' is not a finite number"),
                          ([","], "needs at least one value, not ','"),
                          (["30,nan"], "'nan' is not a finite number"),
                          ([",", "--set", "nonsense=3"], "needs at least one value, not ','")):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--axis", "pt_dbm", "--rounds", "100", "--values", *argv])
        assert exc.value.code == 2
        assert f"argument --values: {message}" in capsys.readouterr().err


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


@pytest.mark.parametrize("item", ["K=inf", "M=1e400", "K=nan", "pt=30 dBm junk",
                                  "tau_d=15 ms 99"])
def test_malformed_number_override_rejected(capsys, item):
    code, _, err = run(capsys, "solve", "--set", item)
    assert code == 2
    assert err.startswith(f"error: {item.split('=')[0]}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_simulate_rejects_workers_below_one(capsys, workers):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--policy", "no-wait-direct", "--rounds", "100",
              "--seed", "1", "--workers", workers])
    assert exc.value.code == 2
    assert f"argument --workers: must be a finite number >= 1, not '{workers}'" in (
        capsys.readouterr().err)


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


_NEAR_DEST = "dests=1e-200,0; 150,10; 150,20; 150,30; 150,40; 150,50; 150,60; 150,70"


@pytest.mark.parametrize("argv, message", [
    # d^-alpha1 past the float range used to end in an OverflowError traceback
    (("solve", "--set", _NEAR_DEST), "pair 1: a path gain is past the float range"),
    # a direct gain that underflows to 0 used to exit 4 after RuntimeWarnings,
    # and no-wait-ris reported a model value of 0.0
    (("solve", "--set", "alpha1=200"), "pair 1: direct mean-square gain"),
    (("simulate", "--policy", "no-wait-ris", "--rounds", "5000", "--set", "alpha1=200"),
     "pair 1: direct mean-square gain"),
    # a zero budget used to solve to lambda* = 0 through special cases
    (("solve", "--set", "gt=0"), "antenna gains"),
    (("solve", "--set", "gr=0"), "antenna gains"),
    # a budget whose 1 / (rho v) overflows made the model NaN: solve hung, and
    # this exited 0 with analytic=nan
    (("simulate", "--policy", "no-wait-direct", "--strict", "0.01", "--set", "gt=1e-310"),
     "pair 1: direct mean-square gain"),
    # pt * gt underflows to 0 although both are positive
    (("solve", "--set", "pt=-1700 dBm", "--set", "gt=1e-200"),
     "pair 1: direct mean-square gain"),
], ids=["gain-overflow", "gain-underflow-solve", "gain-underflow-simulate", "gt-zero",
        "gr-zero", "budget-underflow-simulate", "budget-product-underflow"])
def test_path_gain_outside_float_range_rejected(capsys, argv, message):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("item", ["M=1000000", "M=1e300"])
def test_surface_past_its_checked_size_rejected(capsys, item):
    # past 65,536 elements lambda* used to come out silently wrong (exit 0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "solve", "--set", item)
    assert code == 2
    assert out == ""
    assert err.startswith("error: M = ") and "65536" in err
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


def test_weak_pair_among_strong_ones_solves_without_warnings(capsys):
    # pair 1's direct SNR scale rho*v is 1.9e-305, the others' 1e8, so lambda*
    # is near 26 and (1 + 2^lam - 1) / (rho*v) is past float-max: the direct
    # value term used to warn "overflow encountered in divide"
    dests = "dests=1340,0; 1,10; 1,20; 1,30; 1,40; 1,50; 1,60; 1,70"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "solve", "--set", "alpha1=100", "--set", dests)
    assert code == 0
    assert parse_threshold_table(out).lambda_star == pytest.approx(25.963, abs=1e-3)
    assert "Warning" not in err
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("argv", [
    ("simulate", "--policy", "no-wait-direct", "--rounds", "4096", "--strict"),
    ("sweep", "--axis", "pt", "--values", "30", "--rounds", "4096", "--strict"),
    ("validate", "--rounds", "4096", "--tol"),
], ids=["simulate-strict", "sweep-strict", "validate-tol"])
@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_bad_tolerance_rejected_at_parse_time(capsys, argv, tol):
    # nan used to pass every strict check and fail every validate check; -1
    # ran the campaign before failing, and inf passed everything
    with pytest.raises(SystemExit) as exc:
        main([*argv, tol])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"must be a finite number >= 0, not '{tol}'" in err


@pytest.mark.parametrize("argv", [
    ("simulate", "--policy", "proposed"),
    ("sweep", "--axis", "pt", "--values", "30"),
    ("validate",),
], ids=["simulate", "sweep", "validate"])
@pytest.mark.parametrize("option, value, low", [
    ("--rounds", "0", 1), ("--seed", "-1", 0), ("--workers", "0", 1),
], ids=["rounds", "seed", "workers"])
def test_bad_run_option_rejected_at_parse_time(monkeypatch, capsys, argv, option, value,
                                               low):
    # these used to be refused only after the configuration load and the
    # table solve, and --seed -1 with a message that named no option
    monkeypatch.setattr("rismac.cli._load_config",
                        lambda *a: pytest.fail("configuration loaded"))
    with pytest.raises(SystemExit) as exc:
        main([*argv, option, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {option}: must be a finite number >= {low}, not '{value}'" in err


@pytest.mark.parametrize("argv, defaults", [
    (("simulate", "--policy", "proposed"),
     dict(rounds=100_000, seed=1, workers=None, strict=None)),
    (("sweep", "--axis", "pt", "--values", "30"),
     dict(rounds=100_000, seed=1, workers=None, strict=None)),
    (("validate",), dict(rounds=40_000, seed=7, tol=0.05, workers=None)),
], ids=["simulate", "sweep", "validate"])
def test_campaign_option_defaults(argv, defaults):
    args = vars(_build_parser().parse_args(list(argv)))
    assert {key: args[key] for key in defaults} == defaults


def test_unknown_policy_rejected_by_parser(capsys):
    # argparse's choices check every policy name before it becomes a PolicyKind
    for argv in (("simulate", "--policy", "wait-forever"),
                 ("sweep", "--axis", "pt", "--values", "30", "--policy", "wait-forever")):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "invalid choice: 'wait-forever'" in capsys.readouterr().err


def test_validate_passes_on_default(capsys):
    code, out, _ = run(capsys, "validate", "--rounds", "6000", "--seed", "3")
    assert code == 0
    assert "all" in out and "passed" in out
    assert "FAIL" not in out


def test_validate_passes_at_one_element(capsys):
    # crediting the SNR floor only where the surrogate X >= 0 put the
    # optimal-ris-stop model at 4.7426 against 4.98883 simulated: exit 3
    code, out, _ = run(capsys, "validate", "--set", "M=1")
    assert code == 0, out
    assert "FAIL" not in out


def test_simulation_failure_exits_4_with_one_line(tmp_path, capsys, table):
    # a well-formed table whose thresholds release every attempt: the engine's
    # SimulationError used to escape the CLI with a traceback (exit 1)
    far = dataclasses.replace(table, zeta=dict.fromkeys(table.kstar, 1e10),
                              eta=dict.fromkeys(table.kstar, 2e10))
    path = tmp_path / "table.txt"
    path.write_text(serialize_threshold_table(far))
    code, out, err = run(capsys, "simulate", "--policy", "proposed", "--rounds", "1000",
                         "--table", str(path))
    assert code == 4
    assert out == ""
    assert err.startswith("numerical failure: every attempt releases") and err.count("\n") == 1


@pytest.mark.parametrize("p", ["1e-9", "1e-10"])
def test_tiny_contention_probability_simulates(capsys, p):
    # at p = 1e-9 the idle share of failed slots rounded above 1, and numpy's
    # binomial draw exited 2 with "p < 0, p > 1 or p contains NaNs"
    code, out, err = run(capsys, "simulate", "--policy", "no-wait-direct", "--set", f"p={p}",
                         "--rounds", "20000", "--strict", "0.05")
    assert code == 0, out + err
    assert err == ""


def test_failed_slots_past_int64_refused(capsys):
    # at p = 1e-300 every geometric failed-slot draw saturated at int64 max,
    # and simulate exited 0 with a mean of 2.77e-16 against a model of 2e-296
    code, out, err = run(capsys, "simulate", "--policy", "no-wait-direct", "--set", "p=1e-300",
                         "--rounds", "1000")
    assert code == 4
    assert out == ""
    assert err.startswith("numerical failure: p_s = 8e-300") and err.count("\n") == 1
