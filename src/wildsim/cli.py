"""Command-line front end: configuration, execution, report emission.

Exit codes: 0 all checks passed, 1 runtime failure, 2 bad configuration,
3 at least one check failed.  Each setting is declared once, in SETTINGS,
and each entry of COMMANDS names the settings its command reads: only those
are its flags, only those may appear in its config file (any other key is a
config error), and exactly those are echoed into its report (save mu0
under `decay --moment W`: its spec is checked, but W reads no datum).  Flags
override config-file values, which override defaults.  All randomness
derives from --seed; WILDSIM_WORKERS sets the default worker count.

`main` builds the kernel and the initial datum once and names the run once,
in `_run_id`: the run id digests every echoed setting except those in
UNNAMED (--out, --csv and --workers, which change no number and no
verdict), the kernel's angle table, the datum when the report echoes one,
the reduction constants, the estimator rules the command reads
(`_estimator_rules`) and the package version.
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
from dataclasses import dataclass

import numpy as np

from . import __version__, diagnostics
from .errors import BadSpec, ConfigError, WildsimError, reject_unknown_keys
from .initial import make_initial_datum
from .kernel import make_kernel
from .sampler import reduction_scheme, rng_stream, wild_velocity_batch

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2
EXIT_CHECK_FAILED = 3


@dataclass(frozen=True)
class Setting:
    """A --flag and config-file key.  `read` checks a value against the
    choices, converts an int or float value (argparse converts a flag's) and
    checks that it is finite and satisfies BOUNDS[bound]; a list is a time
    list; a str (a name, JSON spec or path) is taken as given, and so is None
    where it is the default."""

    default: object
    help: str
    kind: type = str
    choices: tuple[str, ...] | None = None
    bound: str | None = None

    def read(self, key, value):
        if self.choices and value not in self.choices:
            raise ConfigError(f"{key} must be one of {list(self.choices)}, got {value!r}")
        if (value is None and self.default is None) or self.kind is str:
            return value
        if self.kind is list:
            return _parse_t(value)
        if self.kind is int and isinstance(value, float) and not value.is_integer():
            raise ConfigError(f"{key} must be an integer, got {value!r}")
        try:
            value = self.kind(value)
        except (TypeError, ValueError) as exc:
            kind = "an integer" if self.kind is int else "a number"
            raise ConfigError(f"{key} must be {kind}: {exc}") from exc
        if self.kind is float and not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value}")
        if self.bound and not BOUNDS[self.bound](value):
            raise ConfigError(f"{key} must be {self.bound}, got {value!r}")
        return value


BOUNDS = {"positive": lambda value: value > 0, "nonnegative": lambda value: value >= 0}

SETTINGS = {
    "kernel": Setting("xabs", "kernel preset name or JSON spec"),
    "mu0": Setting("sixpoint", "initial datum preset name or JSON spec"),
    "t": Setting([0.5, 1.0, 2.0], "comma-separated time list", list),
    "samples": Setting(10_000, "Monte Carlo sample count", int, bound="positive"),
    "seed": Setting(0, "master seed", int, bound="nonnegative"),
    "workers": Setting(None, "worker processes (default WILDSIM_WORKERS, else 1)", int,
                       bound="positive"),
    "xi_grid": Setting(None, "JSON list of 3-vectors or {rho, directions}"),
    "z_threshold": Setting(4.0, "largest |z| a check passes with", float, bound="positive"),
    "moment": Setting("W", "decay statistic", choices=("W", "v1^4")),
    "tree_size": Setting(4, "leaf count of the Legendre checks' trees", int),
    "lam": Setting(math.sqrt(0.5), "envelope scale", float),
    "q": Setting(0.25, "envelope exponent", float),
    "rate_tol": Setting(None, "relative tolerance on the fitted rate", float,
                        bound="positive"),
    "max_rate": Setting(None, "require fitted rate <= this value", float),
    "out": Setting(None, "JSON report path"),
    "csv": Setting(None, "CSV output path"),
}
UNNAMED = ("out", "csv", "workers")  # the settings a run id leaves out


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
    """The grid --xi-grid defaults to: four radii times five directions."""
    return _parse_xi_grid({"rho": [0.6, 1.0, 1.5, 2.2], "directions": [
        [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 1.0], [1.0, -1.0, 0.5]]})


def _parse_xi_grid(value):
    """The frequencies of a JSON list of 3-vectors, or of a
    {"rho", "directions"} spec: every radius times every unit direction."""
    if value is None:
        return default_xi_grid()
    spec = _parse_json_or_name(value)
    if not isinstance(spec, dict):
        return _as_array(spec, 2)
    reject_unknown_keys(spec, ("rho", "directions"), "xi grid")
    missing = {"rho", "directions"} - spec.keys()
    if missing:
        raise ConfigError(f"xi grid spec lacks {sorted(missing)}")
    directions = _as_array(spec["directions"], 2)
    norms = np.linalg.norm(directions, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise ConfigError("xi grid directions must be nonzero")
    rhos = _as_array(spec["rho"], 1)
    if not rhos.size:
        raise ConfigError("xi grid 'rho' is empty")
    # a radius large enough for its frequencies' norms to overflow is
    # rejected as such a vector would be
    return _as_array([r * d for r in rhos for d in directions / norms], 2)


def _as_array(value, ndim: int) -> np.ndarray:
    """A list of finite numbers (ndim 1) or of 3-vectors with finite norms
    (ndim 2) from the xi grid spec."""
    try:
        array = np.asarray(value, float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid xi grid: {exc}") from exc
    if array.ndim != ndim or (ndim == 2 and array.shape[1] != 3):
        raise ConfigError("xi grid must be a list of 3-vectors"
                          if ndim == 2 else "xi grid 'rho' must be a list of numbers")
    if not np.all(np.isfinite(array)):
        raise ConfigError("xi grid entries must be finite")
    with np.errstate(over="ignore"):
        if ndim == 2 and not np.all(np.isfinite(np.linalg.norm(array, axis=1))):
            raise ConfigError("xi grid vectors must have a finite norm")
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
    """The settings the command reads, each from its flag, else the config
    file, else its default; a config-file key the command does not read is
    an error, and so is a list of times given to a command in ONE_TIME,
    which runs at the first default time unless given one."""
    reads = COMMANDS[args.command][1]
    found = {}
    if args.config:
        try:
            with open(args.config) as handle:
                found = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
        if not isinstance(found, dict):
            raise ConfigError(f"config file {args.config} must hold a JSON object")
        unread = sorted(found.keys() - reads)
        if unread:
            raise ConfigError(f"{args.command} does not read {unread}")
    config = {}
    for key in reads:
        value = getattr(args, key)
        if value is None:
            value = found.get(key, SETTINGS[key].default)
        if key == "workers" and value is None:
            value = os.environ.get("WILDSIM_WORKERS", "1")
        config[key] = SETTINGS[key].read(key, value)
    if args.command in ONE_TIME:
        if len(config["t"]) > 1 and (args.t is not None or "t" in found):
            raise ConfigError(f"{args.command} runs at one time, got t = {config['t']}")
        config["t"] = config["t"][:1]
    return config


def _write_outputs(payload: dict, rows: list[dict], config) -> None:
    """Write the JSON report to --out and the rows to --csv, headed by the
    keys of the first row."""
    if config.get("out"):
        with open(config["out"], "w") as handle:
            json.dump(payload, handle, indent=2, default=str)
            handle.write("\n")
    if config.get("csv"):
        with open(config["csv"], "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)


ESTIMATOR_RULES = {  # command: the entries of diagnostics.estimator_scheme it reads
    "identities": ("weight_sums",),
    "conserve": ("velocity_images", "velocity_controls"),
    "crosscheck": ("transform_controls", "transform_split"),
}


def _estimator_rules(command, config) -> dict:
    """The estimator rules a command's numbers depend on, by name:
    ESTIMATOR_RULES, and for decay its moment's (W reads the weight sums,
    v1^4 the root images)."""
    if command == "decay":
        names = ("velocity_images",) if config.get("moment") == "v1^4" else ("weight_sums",)
    else:
        names = ESTIMATOR_RULES.get(command, ())
    scheme = diagnostics.estimator_scheme()
    return {name: scheme[name] for name in names}


def _run_id(command, config, kernel, mu0) -> str:
    """Digest of what a report's numbers and verdicts depend on: its
    command, its echoed settings bar UNNAMED, the kernel's tabulated angle
    law, the datum when the report echoes one (its name, m2, m4, m6, mean,
    covariance, fourth-moment tensor and first eight draws from a fixed
    stream), the constants of the reduction (stratum count and pooling
    rule), the estimator rules the command reads and the package version."""
    datum = None
    if "mu0" in config:
        arrays = (mu0.mean, mu0.covariance, mu0.sampler(rng_stream(0), 8))
        datum = [mu0.name, mu0.m2, mu0.m4, mu0.m6,
                 None if mu0.m4_tensor is None else mu0.m4_tensor.tolist(),
                 *(np.asarray(a, float).tolist() for a in arrays)]
    payload = json.dumps({
        "suite": command, "version": __version__,
        "settings": {key: value for key, value in config.items() if key not in UNNAMED},
        "kernel": hashlib.sha1(kernel.beta_cdf_values.tobytes()).hexdigest(),
        "mu0": datum, "reduction": {**reduction_scheme(), **_estimator_rules(command, config)},
    }, sort_keys=True, default=str)
    return hashlib.sha1(payload.encode()).hexdigest()[:12]


def _report_outcome(config, run_id, report) -> int:
    """Write an IdentityReport out, print its summary and failed checks."""
    payload = {"suite": report.suite, "run_id": run_id, "config": config,
               **report.as_dict()}
    _write_outputs(payload, list(report.csv_rows()), config)
    failed = [e for e in report.entries if not e.passed]
    print(f"{report.suite}: {len(report.entries) - len(failed)}/{len(report.entries)} "
          f"checks passed (run {run_id})")
    for entry in failed:
        print(f"  FAIL {entry.identity} {entry.params}: "
              f"mc={entry.mc_value:.6g} ref={entry.reference_value:.6g} "
              f"z={entry.z_score:.2f}")
    return EXIT_OK if payload["passed"] else EXIT_CHECK_FAILED


def _fit_outcome(config, run_id, suite, fit, rows=None, **extra) -> int:
    """Write a DecayFit out with its checks: --rate-tol bounds the relative
    rate error where the rate is finite, and --max-rate bounds the rate
    where the fit used a point (a fit with no signal passes).  The CSV
    holds `rows`, by default one per time, and `extra` joins the payload."""
    payload = {"suite": suite, "run_id": run_id, "config": config,
               "fit": fit.as_dict(), **extra}
    checks = {}
    if config.get("rate_tol") is not None and math.isfinite(fit.fitted_rate):
        rel = abs(fit.fitted_rate - fit.reference_rate) / abs(fit.reference_rate)
        checks["rate_within_tolerance"] = rel <= config["rate_tol"]
        payload["relative_rate_error"] = rel
    if config.get("max_rate") is not None and fit.used.any():
        checks["rate_below_max"] = fit.fitted_rate <= config["max_rate"]
    payload["checks"] = checks
    payload["passed"] = all(checks.values())
    if rows is None:
        rows = [{"t": t, "value": v, "std_error": se, "used": int(u)}
                for t, v, se, u in zip(fit.times, fit.values, fit.std_errors, fit.used)]
    _write_outputs(payload, rows, config)
    print(f"{suite}: fitted rate {fit.fitted_rate:.5f} "
          f"(reference {fit.reference_rate:.5f}), residual {fit.residual:.3g} "
          f"(run {run_id})")
    return EXIT_OK if payload["passed"] else EXIT_CHECK_FAILED


def _cmd_identities(config, kernel, mu0, run_id):
    report = diagnostics.run_identity_suite(
        kernel, config["t"], config["samples"], config["seed"],
        workers=config["workers"], z_threshold=config["z_threshold"],
    )
    return _report_outcome(config, run_id, report)


def _cmd_conserve(config, kernel, mu0, run_id):
    report = diagnostics.conservation_check(
        mu0, kernel, config["t"], config["samples"], config["seed"],
        workers=config["workers"], z_threshold=config["z_threshold"],
    )
    return _report_outcome(config, run_id, report)


def _cmd_decay(config, kernel, mu0, run_id):
    fit = diagnostics.moment_decay_fit(
        mu0, kernel, config["t"], moment_spec=config["moment"],
        n_samples=config["samples"], seed=config["seed"],
        workers=config["workers"],
    )
    return _fit_outcome(config, run_id, "decay", fit)


def _cmd_cfcurve(config, kernel, mu0, run_id):
    fit, rows = diagnostics.cf_distance_curve(
        mu0, kernel, config["t"], _parse_xi_grid(config["xi_grid"]), config["samples"],
        config["seed"], workers=config["workers"],
    )
    return _fit_outcome(config, run_id, "cfcurve", fit, rows, estimates=rows)


def _cmd_crosscheck(config, kernel, mu0, run_id):
    grid = _parse_xi_grid(config["xi_grid"])
    report = diagnostics.representation_crosscheck(
        mu0, kernel, config["t"], grid, config["samples"], config["seed"],
        workers=config["workers"], z_threshold=config["z_threshold"],
    )
    return _report_outcome(config, run_id, report)


def _cmd_legendre(config, kernel, mu0, run_id):
    report = diagnostics.legendre_moment_checks(
        kernel, tree_size=config["tree_size"], seed=config["seed"])
    return _report_outcome(config, run_id, report)


def _cmd_envelope(config, kernel, mu0, run_id):
    report = diagnostics.envelope_check(
        mu0, config["lam"], config["q"], kernel,
        t=config["t"][0], n_samples=config["samples"], seed=config["seed"],
        workers=config["workers"],
    )
    return _report_outcome(config, run_id, report)


def _cmd_simulate(config, kernel, mu0, run_id):
    draws = wild_velocity_batch(config["t"][0], mu0, kernel, config["seed"],
                                config["samples"], workers=config["workers"])
    rows = [dict(zip(("v_x", "v_y", "v_z"), map(repr, v))) for v in draws.tolist()]
    payload = {"suite": "simulate", "run_id": run_id, "config": config,
               "n_samples": len(draws), "passed": True}
    _write_outputs(payload, rows, config)
    if not config.get("csv"):
        for row in rows:
            print(",".join(row.values()))
    else:
        print(f"simulate: wrote {len(rows)} velocity rows to {config['csv']} "
              f"(run {run_id})")
    return EXIT_OK


def _reads(extra: str) -> tuple[str, ...]:
    """The settings of every command and extra, in the order of SETTINGS."""
    names = {"kernel", "seed", "out", "csv", *extra.split()}
    return tuple(key for key in SETTINGS if key in names)


COMMANDS = {  # name: (function, the settings it reads)
    "identities": (_cmd_identities, _reads("t samples workers z_threshold")),
    "conserve": (_cmd_conserve, _reads("mu0 t samples workers z_threshold")),
    "decay": (_cmd_decay, _reads("mu0 moment t samples workers rate_tol max_rate")),
    "cfcurve": (_cmd_cfcurve, _reads("mu0 t samples workers xi_grid max_rate")),
    "crosscheck": (_cmd_crosscheck, _reads("mu0 t samples workers xi_grid z_threshold")),
    "legendre": (_cmd_legendre, _reads("tree_size")),
    "envelope": (_cmd_envelope, _reads("mu0 t samples workers lam q")),
    "simulate": (_cmd_simulate, _reads("mu0 t samples workers")),
}
ONE_TIME = ("envelope", "simulate")  # the commands that run at one time


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wildsim",
        description="Monte Carlo verification suite for Maxwellian collision cascades",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, reads) in COMMANDS.items():
        # no abbreviations: legendre's --t would be read as --tree-size
        cmd = sub.add_parser(name, allow_abbrev=False)
        cmd.set_defaults(command_parser=cmd)
        cmd.add_argument("--config", help="JSON config file (flags override it)")
        for key in reads:
            setting = SETTINGS[key]
            cmd.add_argument("--" + key.replace("_", "-"), dest=key, help=setting.help,
                             type=setting.kind if setting.kind in (int, float) else None,
                             choices=setting.choices)
    return parser


def main(argv=None) -> int:
    args, unread = build_parser().parse_known_args(argv)
    if unread:  # shown with the command's own usage, which lists its flags
        args.command_parser.error(f"unrecognized arguments: {' '.join(unread)}")
    try:
        config = _merge_config(args)
        kernel = _spec(config, "kernel", make_kernel)  # every command reads one
        mu0 = _spec(config, "mu0", make_initial_datum) if "mu0" in config else None
        if config.get("moment") == "W":  # its datum spec is checked, but W reads none
            del config["mu0"]
        run_id = _run_id(args.command, config, kernel, mu0)
        return COMMANDS[args.command][0](config, kernel, mu0, run_id)
    except (ConfigError, BadSpec) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (WildsimError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError as exc:  # numpy's names the allocation that failed
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
