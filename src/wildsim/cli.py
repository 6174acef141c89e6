"""Command-line front end: configuration, execution, report emission.

Exit codes: 0 all checks passed, 1 runtime failure, 2 bad configuration,
3 at least one check failed.  Flags override config-file values, which
override defaults; the effective configuration is echoed into every
report.  All randomness derives from --seed; WILDSIM_WORKERS sets the
default worker count.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
# argparse's gettext imports locale lazily on the first parser; every command
# builds one, so pay for it on import
import locale  # noqa: F401
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import diagnostics
from .errors import BadSpec, ConfigError, WildsimError
from .initial import make_initial_datum
from .kernel import make_kernel
from .sampler import rng_stream, wild_velocity_batch

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2
EXIT_CHECK_FAILED = 3

DEFAULTS = {
    "kernel": "xabs",
    "mu0": "sixpoint",
    "t": [0.5, 1.0, 2.0],
    "samples": 10_000,
    "seed": 0,
    "workers": None,   # resolved from WILDSIM_WORKERS, then 1
    "nmax": 1_000_000,
    "estimator": "raoblackwell",
    "z_threshold": 4.0,
    "a_star": 0.25,
    "moment": "W",
    "tree_size": 4,
    "lam": math.sqrt(0.5),
    "q": 0.25,
    "xi_grid": None,
    "rate_tol": None,
    "max_rate": None,
    "out": None,
    "csv": None,
}


def _parse_t(value):
    chunks = value if isinstance(value, (list, tuple)) else [
        chunk for chunk in str(value).split(",") if chunk.strip()]
    try:
        times = [float(v) for v in chunks]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"time list must hold numbers: {exc}") from exc
    if not times:
        raise ConfigError("time list is empty")
    return times


def _parse_json_or_name(value):
    if isinstance(value, (dict, list)):
        return value
    text = str(value).strip()
    if text.startswith("{") or text.startswith("["):
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON spec: {exc}") from exc
    return text


def default_xi_grid():
    directions = np.array([
        [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
        [1.0, 1.0, 1.0], [1.0, -1.0, 0.5],
    ])
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    rhos = [0.6, 1.0, 1.5, 2.2]
    return np.array([r * d for r in rhos for d in directions])


def _parse_xi_grid(value):
    if value is None:
        return default_xi_grid()
    spec = _parse_json_or_name(value)
    if not isinstance(spec, dict):
        return _as_array(spec, 2)
    missing = {"rho", "directions"} - spec.keys()
    if missing:
        raise ConfigError(f"xi grid spec lacks {sorted(missing)}")
    directions = _as_array(spec["directions"], 2)
    norms = np.linalg.norm(directions, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise ConfigError("xi grid directions must be nonzero")
    return np.array([r * d for r in _as_array(spec["rho"], 1) for d in directions / norms])


def _as_array(value, ndim: int) -> np.ndarray:
    """A list of numbers (ndim 1) or of 3-vectors (ndim 2) from the xi grid spec."""
    try:
        array = np.asarray(value, float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid xi grid: {exc}") from exc
    if array.ndim != ndim or (ndim == 2 and array.shape[1] != 3):
        raise ConfigError("xi grid must be a list of 3-vectors"
                          if ndim == 2 else "xi grid 'rho' must be a list of numbers")
    return array


def _spec(config, key, build):
    """Build the kernel or initial datum named by config[key]."""
    try:
        return build(_parse_json_or_name(config[key]))
    except (ConfigError, BadSpec):
        raise
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise ConfigError(f"malformed {key} spec: {exc!r}") from exc


def _merge_config(args: argparse.Namespace) -> dict:
    merged = dict(DEFAULTS)
    path = getattr(args, "config", None)
    if path:
        try:
            with open(path) as handle:
                merged.update(json.load(handle))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for key, value in vars(args).items():
        if key in ("command", "config"):
            continue
        if value is not None:
            merged[key] = value
    if merged["workers"] is None:
        merged["workers"] = os.environ.get("WILDSIM_WORKERS", "1")
    merged["t"] = _parse_t(merged["t"])
    for key, minimum in (("samples", 1), ("seed", 0), ("workers", 1)):
        try:
            merged[key] = int(merged[key])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{key} must be an integer: {exc}") from exc
        if merged[key] < minimum:
            raise ConfigError(f"{key} must be at least {minimum}, got {merged[key]}")
    return merged


def _echo_config(config: dict) -> dict:
    plain = {}
    for key, value in config.items():
        if isinstance(value, np.ndarray):
            plain[key] = value.tolist()
        else:
            plain[key] = value
    return plain


def _write_outputs(payload: dict, rows, header, config) -> None:
    if config.get("out"):
        with open(config["out"], "w") as handle:
            json.dump(payload, handle, indent=2, default=str)
            handle.write("\n")
    if config.get("csv") and rows is not None:
        with open(config["csv"], "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=header)
            writer.writeheader()
            for row in rows:
                writer.writerow(row)


def _report_outcome(config, *reports) -> int:
    """Print each report's summary and write them out as one report: a
    single report as it is, several (one per time) with their entries
    concatenated and each one's run id and verdict under 'parts'."""
    if len(reports) == 1:
        payload = reports[0].as_dict()
    else:
        parts = [{"t": r.config["t"], "run_id": r.run_id, "passed": r.passed,
                  "pass_fraction": r.pass_fraction} for r in reports]
        entries = [e for r in reports for e in r.entries]
        payload = {**reports[0].as_dict(),
                   "run_id": hashlib.sha1(" ".join(r.run_id for r in reports)
                                          .encode()).hexdigest()[:12],
                   "passed": all(r.passed for r in reports),
                   "pass_fraction": sum(e.passed for e in entries) / len(entries),
                   "z_calibration": diagnostics.z_calibration(entries),
                   "entries": [asdict(e) for e in entries],
                   "parts": parts}
    payload["config"] = _echo_config(config)
    rows = [row for r in reports for row in r.csv_rows()]
    header = ["identity", "params", "mc_value", "mc_se", "reference_value",
              "z_score", "passed"]
    _write_outputs(payload, rows, header, config)
    for report in reports:
        failed = [e for e in report.entries if not e.passed]
        print(f"{report.suite}: {len(report.entries) - len(failed)}/{len(report.entries)} "
              f"checks passed (run {report.run_id})")
        for entry in failed:
            print(f"  FAIL {entry.identity} {entry.params}: "
                  f"mc={entry.mc_value:.6g} ref={entry.reference_value:.6g} "
                  f"z={entry.z_score:.2f}")
    return EXIT_OK if payload["passed"] else EXIT_CHECK_FAILED


def _fit_outcome(fit, config, suite, extra_checks=()) -> int:
    payload = {"suite": suite, "run_id": fit.run_id, "config": _echo_config(config),
               "fit": fit.as_dict()}
    checks = {}
    if config.get("rate_tol") is not None and math.isfinite(fit.fitted_rate):
        rel = abs(fit.fitted_rate - fit.reference_rate) / abs(fit.reference_rate)
        checks["rate_within_tolerance"] = rel <= float(config["rate_tol"])
        payload["relative_rate_error"] = rel
    if config.get("max_rate") is not None:
        checks["rate_below_max"] = fit.fitted_rate <= float(config["max_rate"])
    for name, value in extra_checks:
        checks[name] = value
    payload["checks"] = checks
    payload["passed"] = all(checks.values()) if checks else True
    rows = [
        {"t": t, "value": v, "std_error": se, "used": int(u)}
        for t, v, se, u in zip(fit.times, fit.values, fit.std_errors, fit.used)
    ]
    _write_outputs(payload, rows, ["t", "value", "std_error", "used"], config)
    print(f"{suite}: fitted rate {fit.fitted_rate:.5f} "
          f"(reference {fit.reference_rate:.5f}), residual {fit.residual:.3g} "
          f"(run {fit.run_id})")
    return EXIT_OK if payload["passed"] else EXIT_CHECK_FAILED


def _cmd_identities(config):
    kernel = _spec(config, "kernel", make_kernel)
    report = diagnostics.run_identity_suite(
        kernel, config["t"], config["samples"], config["seed"],
        a_star=float(config["a_star"]), workers=config["workers"],
        z_threshold=float(config["z_threshold"]), n_max=int(config["nmax"]),
    )
    return _report_outcome(config, report)


def _cmd_conserve(config):
    kernel = _spec(config, "kernel", make_kernel)
    mu0 = _spec(config, "mu0", make_initial_datum)
    report = diagnostics.conservation_check(
        mu0, kernel, config["t"], config["samples"], config["seed"],
        workers=config["workers"], z_threshold=float(config["z_threshold"]),
        n_max=int(config["nmax"]),
    )
    return _report_outcome(config, report)


def _cmd_decay(config):
    kernel = _spec(config, "kernel", make_kernel)
    moment = config["moment"]
    mu0 = None
    if moment not in ("W", "w"):
        mu0 = _spec(config, "mu0", make_initial_datum)
    fit = diagnostics.moment_decay_fit(
        mu0, kernel, config["t"], moment_spec=moment,
        n_samples=config["samples"], seed=config["seed"],
        workers=config["workers"], n_max=int(config["nmax"]),
    )
    return _fit_outcome(fit, config, "decay")


def _cmd_cfcurve(config):
    kernel = _spec(config, "kernel", make_kernel)
    mu0 = _spec(config, "mu0", make_initial_datum)
    grid = _parse_xi_grid(config["xi_grid"])
    rows = diagnostics.transform_grid_estimates(
        mu0, kernel, config["t"], grid, config["samples"], config["seed"],
        estimator=config["estimator"], workers=config["workers"],
        n_max=int(config["nmax"]),
    )
    fit = diagnostics.cf_distance_curve(
        mu0, kernel, config["t"], grid, config["samples"], config["seed"],
        estimator=config["estimator"], workers=config["workers"],
        n_max=int(config["nmax"]), grid_rows=rows,
    )
    payload = {"suite": "cfcurve", "run_id": fit.run_id, "config": _echo_config(config),
               "fit": fit.as_dict(),
               "estimates": rows, "passed": True}
    if config.get("max_rate") is not None and math.isfinite(fit.fitted_rate):
        payload["passed"] = fit.fitted_rate <= float(config["max_rate"])
    _write_outputs(payload, rows,
                   ["t", "xi_x", "xi_y", "xi_z", "re", "im", "se_re", "se_im", "n"],
                   config)
    print(f"cfcurve: fitted rate {fit.fitted_rate:.5f} "
          f"(reference {fit.reference_rate:.5f}) (run {fit.run_id})")
    return EXIT_OK if payload["passed"] else EXIT_CHECK_FAILED


def _cmd_crosscheck(config):
    kernel = _spec(config, "kernel", make_kernel)
    mu0 = _spec(config, "mu0", make_initial_datum)
    grid = _parse_xi_grid(config["xi_grid"])
    reports = [diagnostics.representation_crosscheck(
        mu0, kernel, t, grid, config["samples"], config["seed"],
        workers=config["workers"], z_threshold=float(config["z_threshold"]),
        n_max=int(config["nmax"]),
    ) for t in config["t"]]
    return _report_outcome(config, *reports)


def _cmd_legendre(config):
    kernel = _spec(config, "kernel", make_kernel)
    report = diagnostics.legendre_moment_checks(
        kernel, tree_size=int(config["tree_size"]), n_theta=config["samples"],
        seed=config["seed"], z_threshold=float(config["z_threshold"]),
    )
    return _report_outcome(config, report)


def _cmd_envelope(config):
    kernel = _spec(config, "kernel", make_kernel)
    mu0 = _spec(config, "mu0", make_initial_datum)
    report = diagnostics.envelope_check(
        mu0, float(config["lam"]), float(config["q"]), kernel,
        t=config["t"][0], n_samples=config["samples"], seed=config["seed"],
        workers=config["workers"], n_max=int(config["nmax"]),
    )
    return _report_outcome(config, report)


def _cmd_simulate(config):
    kernel = _spec(config, "kernel", make_kernel)
    mu0 = _spec(config, "mu0", make_initial_datum)
    t = config["t"][0]
    rng = rng_stream(config["seed"], 0)
    draws = wild_velocity_batch(t, mu0, kernel, rng, config["samples"],
                                n_max=int(config["nmax"]))
    rows = [{"v_x": repr(float(v[0])), "v_y": repr(float(v[1])), "v_z": repr(float(v[2]))}
            for v in draws]
    payload = {"suite": "simulate", "config": _echo_config(config),
               "n_samples": len(draws), "passed": True}
    _write_outputs(payload, rows, ["v_x", "v_y", "v_z"], config)
    if not config.get("csv"):
        for row in rows:
            print(f"{row['v_x']},{row['v_y']},{row['v_z']}")
    else:
        print(f"simulate: wrote {len(rows)} velocity rows to {config['csv']}")
    return EXIT_OK


COMMANDS = {
    "identities": _cmd_identities,
    "conserve": _cmd_conserve,
    "decay": _cmd_decay,
    "cfcurve": _cmd_cfcurve,
    "crosscheck": _cmd_crosscheck,
    "legendre": _cmd_legendre,
    "envelope": _cmd_envelope,
    "simulate": _cmd_simulate,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wildsim",
        description="Monte Carlo verification suite for Maxwellian collision cascades",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", help="JSON config file (flags override it)")
        cmd.add_argument("--kernel", help="kernel preset name or JSON spec")
        cmd.add_argument("--mu0", help="initial datum preset name or JSON spec")
        cmd.add_argument("--t", help="comma-separated time list")
        cmd.add_argument("--samples", type=int, help="Monte Carlo sample count")
        cmd.add_argument("--seed", type=int, help="master seed")
        cmd.add_argument("--workers", type=int, help="worker processes")
        cmd.add_argument("--nmax", type=int, help="cascade size cap")
        cmd.add_argument("--estimator", choices=["raoblackwell", "raw"])
        cmd.add_argument("--xi-grid", dest="xi_grid",
                         help="JSON list of 3-vectors or {rho, directions}")
        cmd.add_argument("--z-threshold", dest="z_threshold", type=float)
        cmd.add_argument("--a-star", dest="a_star", type=float,
                         help="tail threshold for the W bound")
        cmd.add_argument("--moment", choices=["W", "v1^4"],
                         help="decay statistic")
        cmd.add_argument("--tree-size", dest="tree_size", type=int)
        cmd.add_argument("--lam", type=float, help="envelope scale")
        cmd.add_argument("--q", type=float, help="envelope exponent")
        cmd.add_argument("--rate-tol", dest="rate_tol", type=float,
                         help="relative tolerance on the fitted rate")
        cmd.add_argument("--max-rate", dest="max_rate", type=float,
                         help="require fitted rate <= this value")
        cmd.add_argument("--out", help="JSON report path")
        cmd.add_argument("--csv", help="CSV output path")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _merge_config(args)
        return COMMANDS[args.command](config)
    except (ConfigError, BadSpec) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except WildsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
