"""Command-line interface: config merge, outputs, exit codes, determinism."""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wildsim
from wildsim import diagnostics, sampler
from wildsim.cli import EXIT_CHECK_FAILED, EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from wildsim.sampler import LEAF_BUDGET, weight_sums


def test_identities_writes_report(tmp_path):
    out = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    code = main([
        "identities", "--kernel", "xabs", "--t", "0.5,1", "--samples", "3000",
        "--seed", "42", "--out", str(out), "--csv", str(csv_path),
    ])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["suite"] == "identities"
    assert payload["passed"] is True
    assert payload["config"]["seed"] == 42
    assert payload["kernel"]["lambda_b"] == pytest.approx(-1 / 3, abs=1e-9)
    assert len(payload["entries"]) == 14  # 6 weight sums and the tail bound per time
    header = csv_path.read_text().splitlines()[0]
    assert header.startswith("identity,params,mc_value")


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"t": [0.5], "samples": 500, "seed": 3}))
    out = tmp_path / "r.json"
    code = main([
        "identities", "--config", str(cfg), "--samples", "800",
        "--out", str(out),
    ])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["config"]["samples"] == 800   # flag wins
    assert payload["config"]["seed"] == 3        # file wins over default
    assert payload["config"]["t"] == [0.5]


def test_bad_kernel_is_config_error():
    assert main(["identities", "--kernel", "nope", "--samples", "10"]) == EXIT_CONFIG


def test_bad_config_file_is_config_error(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["identities", "--config", str(broken)]) == EXIT_CONFIG


def test_absurd_threshold_fails_checks(tmp_path):
    code = main([
        "identities", "--kernel", "xabs", "--t", "1", "--samples", "2000",
        "--seed", "1", "--z-threshold", "0.0001",
    ])
    assert code == EXIT_CHECK_FAILED


def test_simulate_deterministic(tmp_path):
    args = ["simulate", "--mu0", "gaussian", "--t", "0", "--samples", "10",
            "--seed", "9", "--workers", "1"]
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--csv", str(first)]) == EXIT_OK
    assert main(args + ["--csv", str(second)]) == EXIT_OK
    assert first.read_bytes() == second.read_bytes()
    lines = first.read_text().splitlines()
    assert lines[0] == "v_x,v_y,v_z"
    assert len(lines) == 11
    for line in lines[1:]:
        assert all(float(cell) == float(cell) for cell in line.split(","))
        assert "(" not in line


def test_simulate_does_not_depend_on_workers(tmp_path):
    # t = 3 with 4000 draws (about 80,000 leaves) runs several chunks
    args = ["simulate", "--t", "3", "--samples", "4000", "--seed", "2"]
    paths = [tmp_path / f"w{workers}.csv" for workers in (1, 2)]
    for workers, path in zip((1, 2), paths):
        assert main([*args, "--workers", str(workers), "--csv", str(path)]) == EXIT_OK
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_decay_command_with_tolerance(tmp_path):
    out = tmp_path / "decay.json"
    code = main([
        "decay", "--moment", "W", "--t", "1,2,3,4", "--samples", "6000",
        "--seed", "17", "--rate-tol", "0.2", "--out", str(out),
    ])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["checks"]["rate_within_tolerance"] is True
    assert payload["fit"]["reference_rate"] == pytest.approx(-1 / 3, abs=1e-9)


def test_conserve_command():
    assert main([
        "conserve", "--kernel", "xabs", "--mu0", "sixpoint", "--t", "0.5",
        "--samples", "2000", "--seed", "23",
    ]) == EXIT_OK


def test_envelope_command():
    assert main([
        "envelope", "--mu0", "gaussian", "--t", "1", "--samples", "300",
        "--seed", "29",
    ]) == EXIT_OK


def test_cfcurve_csv_schema(tmp_path):
    csv_path = tmp_path / "cf.csv"
    code = main([
        "cfcurve", "--mu0", "sixpoint", "--t", "0.5,1,1.5,2", "--samples", "400",
        "--seed", "37",
        "--xi-grid", "[[1,0,0],[0,1,0]]", "--csv", str(csv_path),
    ])
    assert code == EXIT_OK
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "t,xi_x,xi_y,xi_z,re,im,se_re,se_im,n"
    assert len(lines) == 1 + 4 * 2  # (t, xi) grid rows


def _no_grid(*args, **kwargs):
    raise AssertionError("the transform grid ran")


def test_cfcurve_rejects_an_unnormalized_datum_before_the_grid(monkeypatch, capsys):
    monkeypatch.setattr(diagnostics, "transform_grid_estimates", _no_grid)
    code = main(["cfcurve", "--mu0", '{"preset": "gaussian", "mean": [1, 0, 0]}',
                 "--t", "1,2,3,4", "--samples", "20000"])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: distance curve needs a normalized initial datum\n")


def _no_cascades(*args, **kwargs):
    raise AssertionError("a cascade was drawn")


@pytest.mark.parametrize("argv", [
    ["cfcurve", "--mu0", "sixpoint", "--t", "0.5,1", "--xi-grid", "[[1,0,0]]"],
    ["decay", "--moment", "W", "--t", "1,2,3"],
])
def test_rate_fits_need_four_times(argv, monkeypatch, capsys):
    # a line through two points always fits with zero residual
    monkeypatch.setattr(diagnostics, "reduce_cascades", _no_cascades)
    assert main([*argv, "--samples", "200", "--seed", "1"]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: need at least 4 time points for a rate fit\n")


@pytest.mark.parametrize("argv", [
    ["envelope", "--t", "1"],
    ["decay", "--moment", "v1^4", "--t", "1,2,3,4"],
])
def test_datum_without_a_finite_fourth_moment_is_config_error(argv, monkeypatch, capsys):
    # the datum says what it lacks before any cascade is drawn
    monkeypatch.setattr(diagnostics, "reduce_cascades", _no_cascades)
    heavy = '{"preset": "heavytail", "q": 3.5, "normalize": true}'
    assert main([*argv, "--mu0", heavy, "--samples", "200", "--seed", "1"]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: fourth moment of 'heavytail(q=3.5)-normalized' is infinite\n")


def test_envelope_premise_failure_is_runtime_error():
    code = main([
        "envelope", "--mu0", "gaussian", "--t", "1", "--samples", "50",
        "--seed", "3", "--q", "0.5",
    ])
    assert code == 1


def test_crosscheck_command(tmp_path):
    out = tmp_path / "cross.json"
    code = main([
        "crosscheck", "--mu0", "sixpoint", "--t", "0.5", "--samples", "4000",
        "--seed", "31", "--xi-grid", "[[1,0,0],[0,0.7,0.7]]", "--out", str(out),
    ])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["suite"] == "representation_crosscheck"
    assert len(payload["entries"]) == 2


@pytest.mark.parametrize("argv", [
    ["identities", "--t", "-1", "--samples", "10"],
    ["identities", "--t", "abc", "--samples", "10"],
    ["identities", "--t", ",", "--samples", "10"],
    ["identities", "--samples", "0"],
    ["identities", "--workers", "0", "--samples", "10"],
    ["crosscheck", "--samples", "10", "--xi-grid", '{"directions": [[1,0,0]]}'],
    ["crosscheck", "--samples", "10", "--xi-grid", '{"rho": [1], "directions": [[0,0,0]]}'],
    ["crosscheck", "--samples", "10", "--xi-grid", '[[1, "x", 0]]'],
    # a grid with no points
    ["cfcurve", "--t", "0.5,1,1.5,2", "--samples", "100",
     "--xi-grid", '{"rho": [], "directions": [[1,0,0]]}'],
    ["crosscheck", "--samples", "10", "--xi-grid", '{"rho": [], "directions": [[1,0,0]]}'],
    ["conserve", "--samples", "10", "--mu0", '{"preset": "mixture"}'],
    ["conserve", "--samples", "10", "--kernel", '{"table": "x"}'],
    ["conserve", "--samples", "10", "--kernel", '{"table": [[0.1, 1], [0.9, "a"]]}'],
    ["conserve", "--samples", "10", "--kernel", '{"table": [[0.2, 1], [0.1, 1], [0.9, 1]]}'],
    ["conserve", "--samples", "10", "--mu0", '{"preset": "gaussian", "cov": "x"}'],
    ["conserve", "--samples", "10", "--mu0", '{"preset": "gaussian", "mean": [1, 2]}'],
    ["conserve", "--samples", "10",
     "--mu0", '{"preset": "gaussian", "cov": [[1, 0, 0], [0, 1, 0], [0, 0, -1]]}'],
    # a key the chosen branch does not read (here misspelled) is rejected
    ["conserve", "--t", "0.5", "--samples", "200", "--seed", "1", "--mu0",
     '{"preset":"discrete","points":[[1,0,0],[-1,0,0]],"masses":[0.5,0.5],"normalise":true}'],
    ["conserve", "--samples", "10", "--kernel", '{"preset": "xabs", "table": [[0.1, 1], [0.9, 1]]}'],
    ["conserve", "--samples", "10", "--kernel", '{"preset": "cubic", "normalize": true}'],
    # settings outside their domain, each rejected where it is read
    ["envelope", "--samples", "10", "--mu0", "gaussian", "--lam", "0"],
    ["envelope", "--samples", "10", "--mu0", "gaussian", "--q", "0"],
    ["envelope", "--samples", "10", "--mu0", "gaussian", "--q", "-1"],
    ["envelope", "--samples", "10", "--mu0", "gaussian", "--lam", "-1"],
    ["legendre", "--tree-size", "0"],
    ["legendre", "--tree-size", "9"],
    ["identities", "--samples", "10", "--z-threshold", "0"],
    ["identities", "--samples", "10", "--z-threshold", "nan"],
    ["decay", "--samples", "10", "--t", "1,2,3,4", "--rate-tol", "-0.1"],
    # a config file (the last item) holding a value of the wrong kind
    ["identities", "--samples", "10", {"seed": "abc"}],
    ["identities", "--samples", "10", {"z_threshold": "x"}],
    ["envelope", "--samples", "10", {"lam": [1]}],
    ["identities", "--t", "0.5", {"samples": 20.7}],
    ["identities", "--t", "0.5", {"samples": None}],
    # legendre's means are exact: it reads no sample count
    ["legendre", {"samples": 10}],
    # a command that runs at one time given several
    ["envelope", "--samples", "10", "--mu0", "gaussian", "--t", "0.5,9"],
    ["simulate", "--samples", "10", "--t", "0.5,1"],
    ["simulate", "--samples", "10", {"t": [0.5, 1]}],
    # a choice outside its list in a config file, as it is as a flag
    ["decay", "--samples", "10", "--t", "1,2,3,4", {"moment": "w"}],
    # decay --moment W reads no datum, but a malformed one is still rejected
    ["decay", "--samples", "10", "--t", "1,2,3,4", "--moment", "W",
     "--mu0", '{"preset": "gaussian", "cov": "x"}'],
    # a frequency that is not finite
    ["cfcurve", "--t", "0.5,1,1.5,2", "--samples", "200", "--seed", "1",
     "--xi-grid", "[[NaN,0,0]]"],
    ["cfcurve", "--t", "0.5,1,1.5,2", "--samples", "200", "--seed", "1",
     "--xi-grid", "[[Infinity,0,0]]"],
    ["cfcurve", "--t", "0.5,1,1.5,2", "--samples", "200", "--seed", "1",
     "--xi-grid", '{"rho": [NaN], "directions": [[1,0,0]]}'],
    ["crosscheck", "--t", "0.5,1", "--samples", "200", "--seed", "1",
     "--xi-grid", "[[NaN,0,0]]"],
    # a key the xi grid spec does not read (here misspelled), as for kernel and datum specs
    ["crosscheck", "--t", "1", "--samples", "200", "--seed", "1",
     "--xi-grid", '{"rho":[1],"directions":[[1,0,0]],"normalise":true}'],
    # a frequency or direction whose norm overflows, each entry finite
    ["cfcurve", "--t", "0.5,1,1.5,2", "--samples", "200", "--seed", "1",
     "--xi-grid", "[[1e200,1e200,1e200]]"],
    ["crosscheck", "--t", "0.5,1", "--samples", "200", "--seed", "1",
     "--xi-grid", "[[1e200,1e200,1e200]]"],
    ["cfcurve", "--t", "0.5,1,1.5,2", "--samples", "200", "--seed", "1",
     "--xi-grid", '{"rho": [1e200], "directions": [[1,0,0]]}'],
    ["crosscheck", "--t", "0.5,1", "--samples", "200", "--seed", "1",
     "--xi-grid", '{"rho": [1], "directions": [[1e200,1e200,1e200]]}'],
    # an envelope scale whose square overflows or underflows, which would put
    # NaN into the premise bound and the envelope
    ["envelope", "--samples", "20", "--mu0", "gaussian", "--lam", "1e200"],
    ["envelope", "--samples", "20", "--mu0", "gaussian", "--lam", "1e-200"],
])
def test_malformed_configuration_is_config_error(argv, tmp_path, capsys):
    if isinstance(argv[-1], dict):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(argv[-1]))
        argv = [*argv[:-1], "--config", str(path)]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("config error: ") and err.count("\n") == 1


def test_overflowing_mu0_is_config_error(capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["conserve", "--t", "0.5", "--samples", "20",
                     "--mu0", '{"preset": "gaussian", "mean": [1e150, 0, 0]}'])
    assert code == EXIT_CONFIG
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["identities", "--mu0", "gaussian"],
    ["conserve", "--a-star", "0.5"],
    ["identities", "--a-star", "0"],  # the Markov tail threshold is fixed
    ["cfcurve", "--rate-tol", "0.1"],
    ["crosscheck", "--estimator", "raw"],
    ["legendre", "--workers", "2"],
    ["legendre", "--t", "2"],  # not an abbreviation of --tree-size
    ["legendre", "--samples", "10"],  # its means are exact
    ["legendre", "--z-threshold", "4"],  # its gate is exact
    ["envelope", "--z-threshold", "3"],
    ["simulate", "--xi-grid", "[[1,0,0]]"],
    ["identities", "--nmax", "5"],  # the cascade-size cap is fixed
    # a config file (the last item) holding a key the command does not read
    ["identities", {"mu0": "gaussian"}],
    ["conserve", {"nmax": 5}],
    ["cfcurve", "--estimator", "raw"],  # the datum picks the transform estimator
])
def test_command_rejects_a_setting_it_does_not_read(argv, tmp_path, capsys):
    samples = [] if argv[0] == "legendre" else ["--samples", "10"]
    if not isinstance(argv[-1], dict):
        with pytest.raises(SystemExit) as exc:
            main([*argv, *samples])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        # the command's own usage, which lists the flags it does take
        assert f"usage: wildsim {argv[0]} " in err
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in err
        return
    path = tmp_path / "config.json"
    path.write_text(json.dumps(argv[-1]))
    assert main([*argv[:-1], *samples, "--config", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1


SUITE_ARGS = {
    "identities": ["--t", "0.5"],
    "conserve": ["--t", "0.5"],
    "decay": ["--moment", "W", "--t", "0.5,1,1.5,2"],
    "cfcurve": ["--t", "0.5,1,1.5,2", "--xi-grid", "[[1,0,0]]"],
    "crosscheck": ["--t", "0.5", "--xi-grid", "[[1,0,0],[0,0.6,0.8]]"],
    "legendre": ["--tree-size", "2"],
    "envelope": ["--mu0", "gaussian", "--t", "1"],
    "simulate": ["--t", "0.5"],
}


SUITE_SETTINGS = {
    "identities": "t samples workers z_threshold",
    "conserve": "mu0 t samples workers z_threshold",
    "decay": "mu0 moment t samples workers rate_tol max_rate",
    "cfcurve": "mu0 t samples workers xi_grid max_rate",
    "crosscheck": "mu0 t samples workers xi_grid z_threshold",
    "legendre": "tree_size",
    "envelope": "mu0 t samples workers lam q",
    "simulate": "mu0 t samples workers",
}


@pytest.mark.parametrize("command", sorted(SUITE_ARGS))
def test_reports_write_json_booleans(command, tmp_path):
    out = tmp_path / "report.json"
    samples = ["--samples", "300"] if "samples" in SUITE_SETTINGS[command] else []
    main([command, *samples, "--seed", "5", "--out", str(out), *SUITE_ARGS[command]])
    payload = json.loads(out.read_text())
    flags = [payload["passed"], *payload.get("checks", {}).values(),
             *(entry["passed"] for entry in payload.get("entries", []))]
    assert all(type(flag) is bool for flag in flags)
    # the echoed config holds exactly the settings the command reads; the
    # weight statistic of decay --moment W reads no initial datum
    reads = {"kernel", "seed", "out", "csv", *SUITE_SETTINGS[command].split()}
    assert set(payload["config"]) == reads - ({"mu0"} if command == "decay" else set())


@pytest.mark.parametrize("command", ["envelope", "simulate"])
def test_one_time_commands_run_at_the_first_default_time(command, tmp_path, capsys):
    out = tmp_path / "report.json"
    mu0 = ["--mu0", "gaussian"] if command == "envelope" else []
    assert main([command, "--samples", "10", "--seed", "1", "--out", str(out), *mu0]) in (
        EXIT_OK, EXIT_CHECK_FAILED)
    assert json.loads(out.read_text())["config"]["t"] == [0.5]


SPEC_KEYS = ["preset", "table", "function", "endpoint_exponents", "mean", "cov",
             "components", "weight", "points", "masses", "normalize", "q"]
PRESETS = ["xabs", "cubic", "gaussian", "sixpoint", "mixture", "discrete", "heavytail"]
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.sampled_from(PRESETS),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(SPEC_KEYS), inner, max_size=4),
    max_leaves=12,
)
specs = json_values | st.fixed_dictionaries(
    {"preset": st.sampled_from(PRESETS)},
    optional={key: json_values for key in SPEC_KEYS if key != "preset"})


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(["--kernel", "--mu0"]), specs, st.integers(2, 50))
def test_random_kernel_and_initial_specs_exit_cleanly(option, spec, samples):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["conserve", "--t", "0.5", "--samples", str(samples), "--seed", "1",
                     f"{option}={json.dumps(spec)}"])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_CHECK_FAILED), err.getvalue()
    assert err.getvalue().count("\n") <= 1


def test_crosscheck_writes_every_time(tmp_path):
    out, csv_path = tmp_path / "cross.json", tmp_path / "cross.csv"
    code = main(["crosscheck", "--t", "0.5,1", "--samples", "2000", "--seed", "2",
                 "--xi-grid", "[[1,0,0]]", "--out", str(out), "--csv", str(csv_path)])
    payload = json.loads(out.read_text())
    entries = payload["entries"]
    assert [entry["params"]["t"] for entry in entries] == [0.5, 1.0]
    # one frequency per time: the 95% rule needs each time's entry to pass
    assert payload["passed"] is all(entry["passed"] for entry in entries)
    assert "parts" not in payload
    assert code == (EXIT_OK if payload["passed"] else EXIT_CHECK_FAILED)
    rows = list(csv.DictReader(csv_path.open()))
    assert [json.loads(row["params"])["t"] for row in rows] == [0.5, 1.0]
    assert [float(row["mc_value"]) for row in rows] == [e["mc_value"] for e in entries]


@pytest.mark.parametrize("samples", [1, 2])
def test_crosscheck_runs_with_one_tree_cascade(samples, tmp_path, capsys):
    """ceil(n / 2) is at least 1, so the smallest sample counts still run."""
    out = tmp_path / "cross.json"
    code = main(["crosscheck", "--t", "0.5", "--samples", str(samples), "--seed", "1",
                 "--xi-grid", "[[1,0,0],[0,0.6,0.8]]", "--out", str(out)])
    assert code in (EXIT_OK, EXIT_CHECK_FAILED), capsys.readouterr().err
    params = [entry["params"] for entry in json.loads(out.read_text())["entries"]]
    assert [(p["n_tree"], p["n_empirical"]) for p in params] == [(1, samples)] * 2


def test_max_rate_bounds_a_fitted_rate(tmp_path):
    out = tmp_path / "fit.json"

    def run(*argv):
        code = main([*argv, "--seed", "1", "--out", str(out)])
        return code, json.loads(out.read_text())

    decay = ["decay", "--moment", "W", "--t", "2,3,4,5", "--samples", "1000"]
    code, payload = run(*decay, "--max-rate", "-1")
    assert (code, payload["checks"]) == (EXIT_CHECK_FAILED, {"rate_below_max": False})
    code, payload = run(*decay, "--max-rate", "0")
    assert (code, payload["checks"]) == (EXIT_OK, {"rate_below_max": True})
    code, payload = run("cfcurve", "--mu0", "sixpoint", "--t", "0.5,1,2,3",
                        "--samples", "3000", "--max-rate", "-1")
    assert -1.0 < payload["fit"]["fitted_rate"] < 0.0
    assert (code, payload["checks"]) == (EXIT_CHECK_FAILED, {"rate_below_max": False})
    # the Gaussian datum is the equilibrium: no point rises above noise, so
    # the fit has no rate and no bound applies
    for bound in ("-5", "0", "5"):
        code, payload = run("cfcurve", "--mu0", "gaussian", "--t", "0.5,1,1.5,2",
                            "--samples", "500", "--max-rate", bound)
        assert not any(payload["fit"]["used"])
        assert (code, payload["checks"], payload["passed"]) == (EXIT_OK, {}, True)


def test_run_id_names_kernel_and_initial_datum(tmp_path, capsys):
    out = tmp_path / "report.json"

    def run_id(*argv, t="0.5"):
        main([*argv, "--t", t, "--samples", "200", "--seed", "4", "--out", str(out)])
        found = json.loads(out.read_text())["run_id"]
        assert f"(run {found})" in capsys.readouterr().out
        return found

    xabs = run_id("identities", "--kernel", "xabs")
    assert run_id("identities", "--kernel", "xabs") == xabs
    assert run_id("identities", "--kernel", "cubic") != xabs
    gaussian = run_id("conserve", "--mu0", "gaussian")
    assert run_id("conserve", "--mu0", "gaussian") == gaussian
    assert run_id("conserve", "--mu0", '{"preset": "gaussian", "mean": [1, 0, 0]}') != gaussian
    decay = run_id("decay", "--moment", "W", t="0.5,1,1.5,2")
    assert run_id("decay", "--moment", "W", t="0.5,1,1.5,2") == decay
    assert run_id("decay", "--moment", "W", "--kernel", "cubic", t="0.5,1,1.5,2") != decay
    assert run_id("decay", "--moment", "W", t="0.5,1,1.5,2.5") != decay
    grid = ["cfcurve", "--xi-grid", "[[1,0,0]]"]
    cfcurve = run_id(*grid, "--mu0", "gaussian", t="0.5,1,1.5,2")
    assert run_id(*grid, "--mu0", "gaussian", t="0.5,1,1.5,2") == cfcurve
    assert run_id(*grid, "--mu0", "sixpoint", t="0.5,1,1.5,2") != cfcurve
    assert run_id(*grid, "--mu0", "gaussian", "--kernel", "cubic", t="0.5,1,1.5,2") != cfcurve
    assert len({xabs, gaussian, decay, cfcurve}) == 4


def test_run_id_names_every_verdict_setting(tmp_path):
    def run_id(*argv, out="report.json"):
        main([*argv, "--seed", "3", "--out", str(tmp_path / out)])
        return json.loads((tmp_path / out).read_text())["run_id"]

    runs = {
        "conserve": ["conserve", "--t", "0.5", "--samples", "100"],
        "crosscheck": ["crosscheck", "--t", "0.5", "--samples", "100", "--xi-grid", "[[1,0,0]]"],
        "legendre": ["legendre"],
        "decay": ["decay", "--moment", "W", "--t", "1,2,3,4", "--samples", "200"],
        "cfcurve": ["cfcurve", "--mu0", "gaussian", "--t", "0.5,1,1.5,2", "--samples", "100",
                    "--xi-grid", "[[1,0,0]]"],
    }
    verdict_settings = [("conserve", "--z-threshold", "4", "0.01"),
                        ("crosscheck", "--z-threshold", "4", "0.01"),
                        ("legendre", "--tree-size", "2", "3"),
                        ("decay", "--rate-tol", "0.5", "0.01"),
                        ("decay", "--max-rate", "0", "-5"),
                        ("cfcurve", "--max-rate", "0", "-5")]
    for command, flag, first, second in verdict_settings:
        argv = runs[command]
        assert run_id(*argv, flag, first) != run_id(*argv, flag, second), (command, flag)
    # settings that change no number and no verdict leave the run id as it is
    conserve = run_id(*runs["conserve"])
    assert run_id(*runs["conserve"], out="other.json") == conserve
    assert run_id(*runs["conserve"], "--csv", str(tmp_path / "rows.csv")) == conserve
    assert run_id(*runs["conserve"], "--workers", "2") == conserve
    # W reads no datum, so the datum does not name a W run
    decay = run_id(*runs["decay"])
    assert run_id(*runs["decay"], "--mu0", "gaussian") == decay


def _weight_sums_failing_on_chunk_one(nus, rng, **kwargs):
    if rng.bit_generator.seed_seq.spawn_key[-1] == 1:
        raise RuntimeError("injected failure")
    return weight_sums(nus, rng, **kwargs)


def test_time_above_the_size_cap_is_a_runtime_error(capsys):
    # exp(t) overflows a float above t = 709.78; those times fail the same way
    for t, shown in (("14", "14"), ("1000", "1000"), ("1e308", "1e+308")):
        assert main(["identities", "--t", t, "--samples", "10"]) == EXIT_RUNTIME
        assert capsys.readouterr().err == (
            f"error: expected cascade size exp({shown}) exceeds the cap 1000000\n")


def _sizes_out_of_memory(t, rng, size):
    raise MemoryError(f"Unable to allocate {8 * size} bytes for {size} cascade sizes")


def test_out_of_memory_is_a_one_line_runtime_error(monkeypatch, capsys):
    # raised in place of the allocation, which a host that overcommits
    # memory would try to carry out
    monkeypatch.setattr(sampler, "sorted_sizes", _sizes_out_of_memory)
    code = main(["identities", "--t", "1", "--samples", "1000000000000", "--seed", "1"])
    assert code == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("\n") == 1
    assert err == ("error: out of memory: Unable to allocate 8000000000000 bytes "
                   "for 1000000000000 cascade sizes\n")


@pytest.mark.parametrize("workers", ["1", "2"])
def test_chunk_failure_names_its_stream(workers, monkeypatch, capsys):
    monkeypatch.setattr(diagnostics, "weight_sums", _weight_sums_failing_on_chunk_one)
    code = main(["identities", "--t", "0", "--samples", str(LEAF_BUDGET + 10),
                 "--seed", "8", "--workers", workers])
    assert code == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("\n") == 1
    assert err == ("error: chunk 1 failed (seed 8, stream key (1, 0, 1)): "
                   "RuntimeError('injected failure')\n")


NO_SCIPY_SCRIPT = """
import contextlib, io, sys
import numpy as np
import wildsim.cli
from wildsim.initial import make_initial_datum
from wildsim.kernel import PRESETS, make_kernel

for name in PRESETS:
    make_kernel(name)
for spec in ["gaussian", "sixpoint",
             {"preset": "gaussian", "mean": [0.5, 0, 0], "cov": 2.0},
             {"preset": "mixture", "components": [
                 {"weight": 0.5, "mean": [1, 0, 0], "cov": 1.0},
                 {"weight": 0.5, "mean": [-1, 0, 0], "cov": 1.0}]},
             {"preset": "discrete", "points": [[1, 0, 0], [0, 2, 0]],
              "masses": [0.5, 0.5], "normalize": True}]:
    make_initial_datum(spec).cf(np.ones((4, 3)))
commands = [
    ["identities", "--t", "0.5,1"],
    ["crosscheck", "--t", "0.5", "--xi-grid", "[[1,0,0]]"],
    ["decay", "--moment", "W", "--t", "0.5,1,1.5,2"],
    ["conserve", "--t", "0.5"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [wildsim.cli.main([*argv, "--samples", "300", "--seed", "5"])
             for argv in commands]
assert all(code in (0, 3) for code in codes), codes
loaded = sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
assert not loaded, loaded
heavy = make_initial_datum({"preset": "heavytail", "q": 3.5})
value = heavy.cf(np.array([30.0, 0.0, 0.0]))  # past the series: the oscillatory tail
assert "scipy.integrate" in sys.modules and abs(value) < 1.0
print("ok")
"""


def test_cli_runs_without_loading_scipy():
    # scipy is needed only for the heavy-tail transform's oscillatory tail,
    # which imports it on first use; a fresh interpreter shows what loads it
    src = str(Path(wildsim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    result = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"


NO_POLYNOMIAL_SCRIPT = """
import contextlib, io, sys
import wildsim.cli
from wildsim.kernel import make_kernel, spectral_functionals

commands = [["identities", "--t", "0.5,1"], ["conserve", "--t", "0.5"]]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [wildsim.cli.main([*argv, "--kernel", "xabs", "--samples", "300", "--seed", "5"])
             for argv in commands]
assert all(code in (0, 3) for code in codes), codes
assert "numpy.polynomial" not in sys.modules
# a tabulated kernel's quadrature reads the Gauss-Legendre rule, which loads it
spectral_functionals(make_kernel({"table": [[0.0, 0.0], [0.5, 1.0], [1.0, 2.0]]}))
assert "numpy.polynomial" in sys.modules
print("ok")
"""


def test_analytic_kernel_commands_leave_numpy_polynomial_unloaded():
    # the Gauss-Legendre rule of tabulated kernels is computed on first use:
    # numpy.polynomial and the first LAPACK call cost every command memory
    src = str(Path(wildsim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    result = subprocess.run([sys.executable, "-c", NO_POLYNOMIAL_SCRIPT], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"
