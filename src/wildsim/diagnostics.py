"""Verification suites: identity checks, conservation, rate fits, envelopes.

Every suite returns an IdentityReport (per-check z-scores against closed
forms, quadrature values or independent estimators) or a DecayFit (weighted
log-linear fit of an exponentially decaying curve).

Monte Carlo work runs on the cascade engine of `wildsim.sampler`.  For one
(suite, time) pair, all cascade sizes come from the stream
rng_stream(seed, suite, t_index); they are sorted in descending order and
cut into chunks of at most LEAF_BUDGET leaves.  Chunk c draws its
germination record, the trees of all its cascades grown top-down one level
at a time, and then any leaf velocities or probe directions, from
rng_stream(seed, suite, t_index, c).  Each chunk task returns per-cascade
statistics, which `_chunk_entry` reduces in the worker to (count, mean, M2)
per stratum of the cascade size (`sampler.size_strata`: 16 equal-probability
bins of the exact size law at t).  The chunks merge in chunk order, stratum
by stratum, so a run depends on the seed alone: any worker count gives
bit-identical reports.  Every suite reads the merged summary through
`sampler.mean_se`, the post-stratified mean sum_h p_h xbar_h and its
standard error sqrt(sum_h p_h^2 s_h^2 / n_h), after pooling each stratum
with fewer than 2 draws into the strata of larger sizes after it.  At t = 0
there is one stratum of probability 1, the plain mean.
"""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
from dataclasses import dataclass, field, asdict, replace

import numpy as np

from .errors import ConfigError, InsufficientSignal, PremiseFailed, WildsimError
from .geometry import frame_for, rotation_array
from .initial import InitialDatum
from .kernel import CollisionKernel, spectral_functionals
from .sampler import (
    DEFAULT_NU_CAP,
    cascade_velocities,
    chunk_slices,
    draw_total,
    germination_record,
    leaf_frames,
    mean_se,
    merge_sums,
    reduction_scheme,
    rng_stream,
    size_strata,
    sorted_sizes,
    summarize,
    transform_sums,
    weight_sums,
)
from .tree import enumerate_trees
from .weights import leaf_weights, legendre_value

DEFAULT_Z_THRESHOLD = 4.0
ROUNDOFF_DIFF = 1e-12  # differences below this are roundoff: z = 0


# --- report containers --------------------------------------------------------

@dataclass(frozen=True)
class IdentityEntry:
    identity: str
    params: dict
    mc_value: float
    mc_se: float
    reference_value: float
    reference_provenance: str
    z_score: float
    passed: bool
    two_sided: bool = True  # z should follow N(0, 1) when the identity holds


def _run_id(suite: str, config: dict, kernel: CollisionKernel,
            mu0: InitialDatum | None = None) -> str:
    """Digest of what a run's numbers depend on: the suite, its configuration,
    the kernel's tabulated angle law, the initial datum when the suite uses
    one (its name, moment table and first draws from a fixed stream), the
    constants of the reduction (stratum count and pooling rule) and the
    package version."""
    from . import __version__  # the package imports this module before setting it

    datum = None
    if mu0 is not None:
        arrays = (mu0.mean, mu0.covariance, mu0.m3_vector, mu0.sampler(rng_stream(0), 8))
        datum = [mu0.name, mu0.m2, mu0.m3, mu0.m4,
                 *(np.asarray(a, float).tolist() for a in arrays)]
    payload = json.dumps({
        "suite": suite, "config": config, "version": __version__,
        "kernel": hashlib.sha1(kernel.beta_cdf_values.tobytes()).hexdigest(),
        "mu0": datum, "reduction": reduction_scheme(),
    }, sort_keys=True, default=str)
    return hashlib.sha1(payload.encode()).hexdigest()[:12]


@dataclass
class IdentityReport:
    suite: str
    config: dict
    entries: list[IdentityEntry] = field(default_factory=list)
    kernel_functionals: dict | None = None
    pass_fraction_required: float | None = None
    run_id: str = ""

    @property
    def pass_fraction(self) -> float:
        if not self.entries:
            return 1.0
        return sum(e.passed for e in self.entries) / len(self.entries)

    @property
    def passed(self) -> bool:
        if self.pass_fraction_required is not None:
            return self.pass_fraction >= self.pass_fraction_required
        return all(e.passed for e in self.entries)

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "run_id": self.run_id,
            "config": self.config,
            "kernel": self.kernel_functionals,
            "passed": self.passed,
            "pass_fraction": self.pass_fraction,
            "z_calibration": z_calibration(self.entries),
            "entries": [asdict(e) for e in self.entries],
        }

    def csv_rows(self):
        for e in self.entries:
            yield {
                "identity": e.identity,
                "params": json.dumps(e.params, sort_keys=True, default=str),
                "mc_value": e.mc_value,
                "mc_se": e.mc_se,
                "reference_value": e.reference_value,
                "z_score": e.z_score,
                "passed": int(e.passed),
            }


def z_calibration(entries) -> dict:
    """How well a report's z-scores follow N(0, 1): over the two-sided
    entries with a finite z that the roundoff rule did not zero, their
    count, mean, sample sd and Kolmogorov distance to N(0, 1) (None where
    undefined)."""
    z = sorted(e.z_score for e in entries
               if e.two_sided and math.isfinite(e.z_score)
               and abs(e.mc_value - e.reference_value) >= ROUNDOFF_DIFF)
    n = len(z)
    mean = math.fsum(z) / n if n else None
    sd = math.sqrt(math.fsum((x - mean) ** 2 for x in z) / (n - 1)) if n > 1 else None
    cdf = [0.5 * (1.0 + math.erf(x / math.sqrt(2.0))) for x in z]
    distance = max((max((i + 1) / n - c, c - i / n) for i, c in enumerate(cdf)), default=None)
    return {"n": n, "mean": mean, "sd": sd, "ks_distance": distance}


@dataclass
class DecayFit:
    """Weighted least-squares fit of log(values) = log C + rate * t."""

    times: np.ndarray
    values: np.ndarray
    std_errors: np.ndarray
    fitted_rate: float
    fitted_log_prefactor: float
    residual: float
    reference_rate: float
    used: np.ndarray
    run_id: str = ""

    def as_dict(self) -> dict:
        return {
            "times": list(map(float, self.times)),
            "values": list(map(float, self.values)),
            "std_errors": list(map(float, self.std_errors)),
            "fitted_rate": self.fitted_rate,
            "fitted_log_prefactor": self.fitted_log_prefactor,
            "residual": self.residual,
            "reference_rate": self.reference_rate,
            "used": list(map(bool, self.used)),
        }


def fit_exponential_decay(times, values, std_errors, reference_rate=float("nan")) -> DecayFit:
    """Fit log(values) linearly in t, weighting by the delta-method variance
    and dropping points indistinguishable from zero at two standard errors."""
    times = np.asarray(times, float)
    values = np.asarray(values, float)
    std_errors = np.asarray(std_errors, float)
    used = values > 2.0 * std_errors
    if used.sum() < max(2, len(times) // 2):
        raise InsufficientSignal(
            f"only {int(used.sum())} of {len(times)} points rise above noise"
        )
    t, v, se = times[used], values[used], std_errors[used]
    logs = np.log(v)
    weights = np.where(se > 0.0, (v / np.where(se > 0.0, se, 1.0)) ** 2, 1e18)
    sw = weights.sum()
    tbar = (weights * t).sum() / sw
    ybar = (weights * logs).sum() / sw
    sxx = (weights * (t - tbar) ** 2).sum()
    if sxx == 0.0:
        raise InsufficientSignal("all usable points share one time")
    rate = float((weights * (t - tbar) * (logs - ybar)).sum() / sxx)
    intercept = float(ybar - rate * tbar)
    resid = logs - (intercept + rate * t)
    return DecayFit(
        times=times,
        values=values,
        std_errors=std_errors,
        fitted_rate=rate,
        fitted_log_prefactor=intercept,
        residual=float(math.sqrt((weights * resid**2).sum() / sw)),
        reference_rate=float(reference_rate),
        used=used,
    )


# --- chunked reduction -----------------------------------------------------------

def _chunk_entry(args):
    """Run one chunk task and reduce its per-cascade statistics to a
    per-stratum summary; a failure that is not already a WildsimError
    becomes one naming the chunk's seed and stream key."""
    task, nus, strata, seed, key, kwargs = args
    try:
        return summarize(task(nus, rng_stream(seed, *key), **kwargs), nus, strata)
    except WildsimError:
        raise
    except Exception as exc:
        raise WildsimError(f"chunk {key[-1]} failed (seed {seed}, stream key "
                           f"{key}): {exc!r}") from exc


def _reduce_sums(task, seed, key, workers, t, n_samples, n_max, **kwargs) -> dict:
    """Draw n_samples cascade sizes at time t from stream `key`, run
    task(nus, rng, **kwargs) on each chunk with stream key + (chunk,),
    summarize each chunk on the size strata at t, and merge the summaries
    in chunk order."""
    nus, _ = sorted_sizes(t, rng_stream(seed, *key), n_samples, n_max)
    strata = size_strata(t)
    jobs = [(task, nus[chunk], strata, seed, key + (c,), kwargs)
            for c, chunk in enumerate(chunk_slices(nus))]
    workers = min(max(1, int(workers)), len(jobs))
    if workers == 1:
        return merge_sums(map(_chunk_entry, jobs))
    with multiprocessing.Pool(workers) as pool:
        return merge_sums(pool.map(_chunk_entry, jobs))


def _z_score(diff: float, se: float) -> float:
    """diff / se, with differences below 1e-12 taken as roundoff (z = 0):
    exactly determined statistics carry a roundoff-sized standard error.
    A non-finite diff or se (an overflowed or undefined moment) gives
    z = inf, so the check fails instead of passing vacuously."""
    if not (math.isfinite(diff) and math.isfinite(se)):
        return math.inf
    if abs(diff) < ROUNDOFF_DIFF:
        return 0.0
    return diff / se if se > 0.0 else math.inf


# --- chunk tasks (module level so they pickle) ------------------------------------

def _velocity_moments_task(nus, rng, mu0, kernel, direction=None):
    v = cascade_velocities(nus, rng, mu0=mu0, kernel=kernel)
    axis = np.array([1.0, 0.0, 0.0]) if direction is None else np.asarray(direction)
    return {"v1": v[:, 0], "v2": v[:, 1], "v3": v[:, 2],
            "energy": np.einsum("ij,ij->i", v, v), "v1_fourth": (v @ axis) ** 4}


def _wild_cf_task(nus, rng, mu0, kernel, xi_grid):
    """Empirical transform of wild-cascade velocity draws on the grid."""
    phases = cascade_velocities(nus, rng, mu0=mu0, kernel=kernel) @ np.asarray(xi_grid).T
    return {"re": np.cos(phases), "im": np.sin(phases)}


def _envelope_task(nus, rng, mu0, kernel, lam, q, n_rho):
    """Per-cascade count of radii in [0, R] where the conditional transform
    along a uniform random direction exceeds the envelope."""
    cf = mu0.require_cf()
    lam2 = lam * lam
    record = germination_record(nus, kernel, rng)
    weights, rotations = leaf_frames(record)
    radius = 0.5 * (1.0 / (mu0.require_m4() * record.per_cascade(weights**4))) ** 0.25
    directions = rng.standard_normal((len(nus), 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    bases = np.stack([frame_for(u) for u in directions])
    psi = np.einsum("jik,jk->ji", np.repeat(bases, record.nus, axis=0),
                    rotations.third_columns())
    violations = np.zeros(len(nus))
    for fraction in np.linspace(0.0, 1.0, n_rho):
        rho = np.repeat(fraction * radius, record.nus)
        transform = np.abs(record.per_cascade(
            cf(rho[:, None] * weights[:, None] * psi), np.multiply))
        envelope = np.exp(q * record.per_cascade(
            np.log(lam2 / (lam2 + rho**2 * weights**2))))
        violations += transform > envelope * (1.0 + 1e-10) + 1e-12
    return {"violations": violations}


# --- suites ---------------------------------------------------------------------

def run_identity_suite(
    kernel: CollisionKernel,
    t_list,
    n_samples: int,
    seed: int,
    s_list=(1, 2, 3, 4),
    a_star: float = 0.25,
    workers: int = 1,
    z_threshold: float = DEFAULT_Z_THRESHOLD,
    n_max: int = DEFAULT_NU_CAP,
) -> IdentityReport:
    """Monte Carlo means of the weight statistics against their closed forms."""
    fn = spectral_functionals(kernel, s_list)
    config = {"t_list": list(t_list), "n_samples": n_samples, "seed": seed,
              "s_list": list(s_list), "a_star": a_star, "workers": workers,
              "z_threshold": z_threshold}
    report = IdentityReport("identities", config, kernel_functionals=fn.as_dict(),
                            run_id=_run_id("identities", config, kernel))
    for it, t in enumerate(t_list):
        sums = _reduce_sums(
            weight_sums, seed, (1, it), workers, t, n_samples, n_max,
            kernel=kernel, s_powers=tuple(s_list), a_star=a_star,
        )
        targets = [(f"abs_pow_{s}", f"sum|w|^{s}",
                    math.exp(-(1.0 - 2.0 * fn.l_s_table[s]) * t)) for s in s_list]
        targets.append(("zeta", "sum w^2|zeta|", math.exp(-(1.0 - fn.f_b) * t)))
        targets.append(("eta", "sum|w^3 eta|", math.exp(-(1.0 - fn.g_b) * t)))
        targets.append(("W", "sum w^4", math.exp(fn.lambda_b * t)))
        for key, label, reference in targets:
            mean, se = map(float, mean_se(sums, key))
            z = _z_score(mean - reference, se)
            report.entries.append(IdentityEntry(
                identity=label, params={"t": t, "n_samples": n_samples},
                mc_value=mean, mc_se=se, reference_value=reference,
                reference_provenance="closed form from kernel quadrature",
                z_score=z, passed=abs(z) <= z_threshold,
            ))
        tail_mean, tail_se = map(float, mean_se(sums, "W_tail"))
        bound = min(1.0, math.exp(fn.lambda_b * t) / a_star)
        z = _z_score(tail_mean - bound, tail_se)
        report.entries.append(IdentityEntry(
            identity="P[W>=a*]<=E[W]/a*", params={"t": t, "a_star": a_star},
            mc_value=tail_mean, mc_se=tail_se, reference_value=bound,
            reference_provenance="Markov inequality (one-sided)",
            z_score=z, passed=z <= z_threshold, two_sided=False,
        ))
    return report


def conservation_check(
    mu0: InitialDatum,
    kernel: CollisionKernel,
    t_list,
    n_samples: int,
    seed: int,
    workers: int = 1,
    z_threshold: float = DEFAULT_Z_THRESHOLD,
    n_max: int = DEFAULT_NU_CAP,
) -> IdentityReport:
    """Mean velocity and energy of cascade draws against the initial values."""
    if not math.isfinite(mu0.m2):
        raise ConfigError("conservation check needs a finite second moment")
    config = {"mu0": mu0.name, "t_list": list(t_list), "n_samples": n_samples,
              "seed": seed, "workers": workers}
    report = IdentityReport("conservation", config,
                            run_id=_run_id("conservation", config, kernel, mu0))
    for it, t in enumerate(t_list):
        sums = _reduce_sums(
            _velocity_moments_task, seed, (2, it), workers, t, n_samples, n_max,
            mu0=mu0, kernel=kernel,
        )
        references = [("v1", mu0.mean[0]), ("v2", mu0.mean[1]),
                      ("v3", mu0.mean[2]), ("energy", mu0.m2)]
        for key, reference in references:
            mean, se = map(float, mean_se(sums, key))
            z = _z_score(mean - float(reference), se)
            report.entries.append(IdentityEntry(
                identity=f"conserved_{key}", params={"t": t},
                mc_value=mean, mc_se=se, reference_value=float(reference),
                reference_provenance="initial-datum moment table",
                z_score=z, passed=abs(z) <= z_threshold,
            ))
    return report


def moment_decay_fit(
    mu0: InitialDatum | None,
    kernel: CollisionKernel,
    t_list,
    moment_spec: str = "v1^4",
    n_samples: int = 100_000,
    seed: int = 0,
    workers: int = 1,
    n_max: int = DEFAULT_NU_CAP,
    direction=None,
) -> DecayFit:
    """Fit the exponential decay rate of a moment deviation.

    moment_spec 'W' tracks the quartic weight statistic (no initial datum
    needed; its mean is exactly exp(lambda_b t)).  moment_spec 'v1^4'
    tracks the directional fourth-moment deviation |E[(v . u)^4] - 3| of
    cascade velocity draws for a normalized datum against the limiting
    value 3, with u the unit `direction` (default: the first axis).

    The deviation generally mixes the gap eigenmode with a
    faster-decaying fourth-order harmonic whose weight depends on the
    probe direction through sum_m u_m^4; fitting in the pre-asymptotic
    window then biases the rate, which is why the window and direction
    are caller choices.  Directions with sum_m u_m^4 = 3/5 suppress the
    contamination entirely for axis-symmetric data.
    """
    fn = spectral_functionals(kernel)
    times = np.asarray(list(t_list), float)
    if len(times) < 4:
        raise ConfigError("need at least 4 time points for a rate fit")
    config = {"moment": moment_spec, "t_list": times.tolist(), "n_samples": n_samples,
              "seed": seed, "workers": workers,
              "direction": None if direction is None else np.asarray(direction, float).tolist()}
    run_id = _run_id("decay", config, kernel, None if moment_spec in ("W", "w") else mu0)
    values = np.empty(len(times))
    ses = np.empty(len(times))
    if moment_spec in ("W", "w"):
        for it, t in enumerate(times):
            sums = _reduce_sums(
                weight_sums, seed, (3, it), workers, float(t), n_samples, n_max,
                kernel=kernel, s_powers=(),
            )
            values[it], ses[it] = mean_se(sums, "W")
    elif moment_spec in ("v1^4", "v1_fourth"):
        if mu0 is None:
            raise ConfigError("moment_spec 'v1^4' needs an initial datum")
        if mu0.m4 is None or not math.isfinite(mu0.m4):
            raise ConfigError("directional fourth-moment fit needs finite m4")
        if not mu0.is_normalized(tol=1e-6):
            raise ConfigError("directional fourth-moment fit needs a normalized datum")
        if direction is not None:
            direction = np.asarray(direction, float)
            direction = direction / np.linalg.norm(direction)
        for it, t in enumerate(times):
            sums = _reduce_sums(
                _velocity_moments_task, seed, (3, it), workers, float(t), n_samples,
                n_max, mu0=mu0, kernel=kernel, direction=direction,
            )
            mean, se = mean_se(sums, "v1_fourth")
            values[it] = abs(mean - 3.0)
            ses[it] = se
    else:
        raise ConfigError(f"unknown moment_spec {moment_spec!r}")
    return replace(fit_exponential_decay(times, values, ses, reference_rate=fn.lambda_b),
                   run_id=run_id)


def _grid_estimates(sums) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    (re, se_re), (im, se_im) = mean_se(sums, "re"), mean_se(sums, "im")
    return re + 1j * im, se_re, se_im


def transform_grid_estimates(
    mu0: InitialDatum,
    kernel: CollisionKernel,
    t_list,
    xi_grid,
    n_samples: int,
    seed: int,
    estimator: str = "raoblackwell",
    workers: int = 1,
    n_max: int = DEFAULT_NU_CAP,
) -> list[dict]:
    """Transform estimates over a (time, frequency) grid as flat records
    with keys t, xi_x, xi_y, xi_z, re, im, se_re, se_im, n."""
    xi_grid = np.asarray(xi_grid, float)
    rows = []
    for it, t in enumerate(t_list):
        sums = _reduce_sums(
            transform_sums, seed, (4, it), workers, float(t), n_samples, n_max,
            mu0=mu0, kernel=kernel, xi_grid=xi_grid, estimator=estimator,
        )
        estimate, se_re, se_im = _grid_estimates(sums)
        for i, xi in enumerate(xi_grid):
            rows.append({
                "t": float(t),
                "xi_x": float(xi[0]), "xi_y": float(xi[1]), "xi_z": float(xi[2]),
                "re": float(estimate[i].real), "im": float(estimate[i].imag),
                "se_re": float(se_re[i]), "se_im": float(se_im[i]),
                "n": n_samples,
            })
    return rows


def cf_distance_curve(
    mu0: InitialDatum,
    kernel: CollisionKernel,
    t_list,
    xi_grid,
    n_samples: int,
    seed: int,
    estimator: str = "raoblackwell",
    workers: int = 1,
    n_max: int = DEFAULT_NU_CAP,
    grid_rows: list[dict] | None = None,
) -> DecayFit:
    """Noise-aware sup distance of the estimated transform to the limiting
    Gaussian transform over the frequency grid, fitted exponentially.

    This lower-bounds twice the total-variation distance at each time; it
    is never a total-variation estimate itself.
    """
    if not mu0.is_normalized(tol=1e-6):
        raise ConfigError("distance curve needs a normalized initial datum")
    fn = spectral_functionals(kernel)
    xi_grid = np.asarray(xi_grid, float)
    gauss = np.exp(-0.5 * np.einsum("ij,ij->i", xi_grid, xi_grid))
    times = np.asarray(list(t_list), float)
    config = {"mu0": mu0.name, "t_list": times.tolist(), "xi_grid": xi_grid.tolist(),
              "n_samples": n_samples, "seed": seed, "estimator": estimator, "workers": workers}
    if grid_rows is None:
        grid_rows = transform_grid_estimates(
            mu0, kernel, t_list, xi_grid, n_samples, seed,
            estimator=estimator, workers=workers, n_max=n_max,
        )
    values = np.empty(len(times))
    ses = np.empty(len(times))
    m = len(xi_grid)
    for it in range(len(times)):
        chunk = grid_rows[it * m : (it + 1) * m]
        estimate = np.array([row["re"] + 1j * row["im"] for row in chunk])
        se_mod = np.hypot([row["se_re"] for row in chunk],
                          [row["se_im"] for row in chunk])
        deviation = np.maximum(np.abs(estimate - gauss) - 2.0 * se_mod, 0.0)
        deviation[deviation < 1e-12] = 0.0  # machine-precision floor
        at = int(np.argmax(deviation))
        values[it] = float(deviation[at])
        ses[it] = float(se_mod[at])
    try:
        fit = fit_exponential_decay(times, values, ses, reference_rate=fn.lambda_b)
    except InsufficientSignal:
        fit = DecayFit(
            times=times, values=values, std_errors=ses,
            fitted_rate=float("nan"), fitted_log_prefactor=float("nan"),
            residual=0.0, reference_rate=fn.lambda_b,
            used=np.zeros(len(times), dtype=bool),
        )
    return replace(fit, run_id=_run_id("cfcurve", config, kernel, mu0))


def representation_crosscheck(
    mu0: InitialDatum,
    kernel: CollisionKernel,
    t: float,
    xi_grid,
    n_samples: int,
    seed: int,
    workers: int = 1,
    z_threshold: float = DEFAULT_Z_THRESHOLD,
    n_max: int = DEFAULT_NU_CAP,
) -> IdentityReport:
    """Conditional-transform average against the empirical transform of
    independent cascade velocity draws, frequency by frequency.

    The two estimators target the same function through entirely different
    randomness (weights/rotations vs folded collisions), so matching
    z-scores validate the representation itself.
    """
    xi_grid = np.asarray(xi_grid, float)
    config = {"mu0": mu0.name, "t": t, "n_samples": n_samples, "seed": seed,
              "grid_size": len(xi_grid), "workers": workers}
    report = IdentityReport("representation_crosscheck", config,
                            pass_fraction_required=0.95,
                            run_id=_run_id("representation_crosscheck", config, kernel, mu0))
    tree_sums = _reduce_sums(
        transform_sums, seed, (5, 0), workers, t, n_samples, n_max,
        mu0=mu0, kernel=kernel, xi_grid=xi_grid,
    )
    wild_sums = _reduce_sums(
        _wild_cf_task, seed, (5, 1), workers, t, n_samples, n_max,
        mu0=mu0, kernel=kernel, xi_grid=xi_grid,
    )
    est_tree, se_re_t, se_im_t = _grid_estimates(tree_sums)
    est_wild, se_re_w, se_im_w = _grid_estimates(wild_sums)
    for i, xi in enumerate(xi_grid):
        diff = est_tree[i] - est_wild[i]
        z_re = _z_score(diff.real, math.hypot(se_re_t[i], se_re_w[i]))
        z_im = _z_score(diff.imag, math.hypot(se_im_t[i], se_im_w[i]))
        z = max(abs(z_re), abs(z_im))
        report.entries.append(IdentityEntry(
            identity="transform_match", params={"xi": list(map(float, xi)), "t": t},
            mc_value=abs(diff), mc_se=float(math.hypot(
                math.hypot(se_re_t[i], se_re_w[i]),
                math.hypot(se_im_t[i], se_im_w[i]))),
            reference_value=0.0,
            reference_provenance="independent wild-cascade empirical transform",
            z_score=z, passed=bool(z <= z_threshold), two_sided=False,
        ))
    return report


def legendre_moment_checks(
    kernel: CollisionKernel,
    tree_size: int = 4,
    n_theta: int = 100_000,
    seed: int = 0,
    z_threshold: float = DEFAULT_Z_THRESHOLD,
) -> IdentityReport:
    """Conditional Legendre moments of the leaf directions against the
    product-form references, for every shape up to tree_size leaves.

    For each tree and fixed split angles, the average over azimuth draws of
    P_k(psi_j . xi) must equal P_k(u . xi) times the order-k leaf weight,
    for k = 1, 2, 3 and every leaf j.
    """
    rng = rng_stream(seed, 6)
    u = np.array([0.3, -0.2, 0.93])
    u /= np.linalg.norm(u)
    xi = np.array([-0.5, 0.7, 0.4])
    xi /= np.linalg.norm(xi)
    basis = frame_for(u)
    u_dot_xi = float(u @ xi)
    config = {"tree_size": tree_size, "n_theta": n_theta, "seed": seed}
    report = IdentityReport("legendre_moments", config,
                            run_id=_run_id("legendre_moments", config, kernel))
    for n in range(1, tree_size + 1):
        for tree in enumerate_trees(n):
            phis = kernel.inverse_beta_cdf(rng.random(n - 1))
            factors = {k: leaf_weights(tree, phis, k).values for k in (1, 2, 3)}
            if n == 1:
                dots = np.array([[u_dot_xi]])
            else:
                thetas = rng.uniform(0.0, 2.0 * math.pi, (n_theta, n - 1))
                cols = rotation_array(tree, phis, thetas.T).third_columns()  # (n, N, 3)
                dots = np.einsum("jbk,ik,i->jb", cols, basis, xi)
            for k in (1, 2, 3):
                reference_scale = float(legendre_value(k, u_dot_xi))
                samples = legendre_value(k, dots)
                for j in range(n):
                    mean = float(samples[j].mean())
                    se = (
                        0.0 if n == 1
                        else float(samples[j].std(ddof=1) / math.sqrt(samples.shape[1]))
                    )
                    reference = reference_scale * float(factors[k][j])
                    z = _z_score(mean - reference, se)
                    report.entries.append(IdentityEntry(
                        identity=f"legendre_k{k}",
                        params={"tree": tree.encode(), "leaf": j + 1},
                        mc_value=mean, mc_se=se, reference_value=reference,
                        reference_provenance="order-k leaf weight product",
                        z_score=z, passed=abs(z) <= z_threshold,
                    ))
    return report


def envelope_check(
    mu0: InitialDatum,
    lam: float,
    q: float,
    kernel: CollisionKernel,
    t: float,
    n_samples: int,
    seed: int,
    n_rho: int = 33,
    premise_rho_max: float = 30.0,
    workers: int = 1,
    n_max: int = DEFAULT_NU_CAP,
) -> IdentityReport:
    """Per-sample check |conditional transform| <= envelope on [0, R].

    First verifies the tail premise |mu0_cf(xi)| <= (lam^2/(lam^2+|xi|^2))^q
    on a radial grid; then counts envelope violations over cascade draws,
    with R = (1/2) (1 / (m4 W))^(1/4) per sample.
    """
    cf = mu0.require_cf()
    rhos = np.linspace(0.0, premise_rho_max, 601)
    directions = np.vstack([np.eye(3), [[0.6, 0.64, 0.48]]])
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    bound = (lam * lam / (lam * lam + rhos**2)) ** q
    for d in directions:
        magnitude = np.abs(cf(rhos[:, None] * d[None, :]))
        if np.any(magnitude > bound + 1e-12):
            worst = float(np.max(magnitude - bound))
            raise PremiseFailed(
                f"initial transform exceeds the tail bound by {worst:.3e} "
                f"for (lam, q) = ({lam:g}, {q:g})"
            )
    sums = _reduce_sums(
        _envelope_task, seed, (7, 0), workers, t, n_samples, n_max,
        mu0=mu0, kernel=kernel, lam=lam, q=q, n_rho=n_rho,
    )
    config = {"mu0": mu0.name, "lam": lam, "q": q, "t": t,
              "n_samples": n_samples, "seed": seed, "n_rho": n_rho}
    report = IdentityReport("envelope", config,
                            run_id=_run_id("envelope", config, kernel, mu0))
    violations = float(round(draw_total(sums, "violations")))
    report.entries.append(IdentityEntry(
        identity="transform_under_envelope",
        params={"checked_points": n_samples * n_rho},
        mc_value=violations, mc_se=0.0, reference_value=0.0,
        reference_provenance="pointwise envelope inequality",
        z_score=0.0 if violations == 0 else math.inf,
        passed=violations == 0.0, two_sided=False,
    ))
    return report
