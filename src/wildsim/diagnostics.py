"""Verification suites: identity checks, conservation, rate fits, envelopes.

Every suite returns an IdentityReport (per-check z-scores against closed
forms, quadrature values or independent estimators) or a DecayFit (weighted
log-linear fit of an exponentially decaying curve; `cf_distance_curve`
returns it with the grid rows it was fitted to).  The transform grids of
`transform_grid_estimates`, `cf_distance_curve` and
`representation_crosscheck` come from `sampler.transform_sums`, whose
estimator the datum picks: the conditional product where the datum has a
transform, the raw average of exp(i rho S) over velocities drawn at the
leaves otherwise.  `representation_crosscheck` holds them against the
empirical transform of independent velocity draws, less control variates
of exactly known mean where the datum allows (`_controls_exact`), as are
`conservation_check`'s mean velocity and energy.  A suite
asks the datum for what it may lack, and a rate fit checks for
MIN_FIT_TIMES times, before drawing any cascade.

Monte Carlo work runs on the cascade engine of `wildsim.sampler`: each
suite hands a module-level chunk task to `sampler.reduce_cascades` with the
stream key (suite, time index) and reads the post-stratified summary through
`sampler.mean_se`.  The reduction notes in the `wildsim.sampler` docstring
say how sizes, strata, chunks and streams are laid out, and why any worker
count gives bit-identical reports.  Every check entry is built by `_check`,
one z-gate for all suites.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, asdict

import numpy as np

from .errors import ConfigError, InsufficientSignal, PremiseFailed
from .geometry import collision_frames, frame_for
from .initial import InitialDatum
from .kernel import S_POWERS, CollisionKernel, KernelFunctionals, cos_sin, spectral_functionals
from .sampler import (
    cascade_velocities,
    draw_total,
    frequency_rays,
    germination_record,
    grow,
    leaf_frames,
    mean_se,
    reduce_cascades,
    replay,
    rng_stream,
    transform_sums,
    tree_record,
    weight_sums,
    wild_velocity_batch,
)
from .tree import ENUMERATION_LIMIT, enumerate_trees
from .weights import legendre_value

DEFAULT_Z_THRESHOLD = 4.0
ROUNDOFF_DIFF = 1e-12  # differences below this are roundoff: z = 0
ENVELOPE_RADII = 33      # radii per cascade on [0, R] in the envelope check
PREMISE_RHO_MAX = 30.0   # the tail premise is checked on [0, PREMISE_RHO_MAX]
A_STAR = 0.25            # tail threshold of the Markov bound P[W >= a*] <= E[W] / a*
MIN_FIT_TIMES = 4        # times a rate fit needs (a line through two has no residual)
AZIMUTH_POINTS = 4       # equispaced azimuths per split: exact for P_k, k <= 3
CONTROL_PILOT = 2000     # cascades of the pilot that fits crosscheck's control coefficients
CONTROL_KEY = (5, 2)     # the pilot's stream key, apart from crosscheck's (5, 0) and (5, 1)
TREE_SHARE = 0.5         # crosscheck's tree-side cascades per empirical-side cascade, rounded up


def estimator_scheme() -> dict:
    """The weight, velocity and transform estimators' rules, for run
    identifiers, each of which names the rules its command reads."""
    return {"weight_sums": ("identities, decay W: leaf sums mirror-symmetrised, "
                            "h = (g_L + g_R) / 2; P[W >= a*] on the root pair"),
            "velocity_images": ("conserve and v1^4 average 16 root images: the root's "
                                "children swapped or not, each root child's children "
                                "swapped or not, root azimuth theta or theta + pi"),
            "velocity_controls": (
                "conserve, for data with an exact real transform, finite m4 and m6 and "
                "isotropic second moments: with s^2 = m2 / 3, energy |v|^2 "
                "- 25 (|v|^4 - mu4(t)) / (51 m2) + (|v|^6 - mu6(t)) / (17 m2^2), "
                "mu4(t) = 15 s^4 + (m4 - 15 s^4) exp(lambda_b t), mu6(t) = 105 s^6 "
                "+ 21 s^2 (m4 - 15 s^4) exp(lambda_b t) "
                "+ (m6 - 21 s^2 m4 + 210 s^6) exp(-(1 - 2 l6) t), and mean velocity "
                "v_m (1 - 6 |v|^2 / (7 m2) + |v|^4 / (7 m2^2)), fixed coefficients"),
            "transform_controls": (
                "crosscheck's empirical side, for data with an exact real transform, finite "
                "m4 and m6, a known fourth-moment tensor and isotropic second moments: with "
                "p = xi . v and x = p / (|xi| sqrt(m2 / 3)), cos p - b2 (x^2 - 1) "
                "- b4 (x^4 - E[x^4](t)) and sin p - b1 x - b3 x^3 - b5 x^5, E[x^4](t) the "
                "quartic form's degree-0, 2 and 4 parts at rates A_(4,l) - 1, (b2, b4) the "
                "average of the least-squares fits on x^2 alone and on (x^2, x^4), "
                "(b1, b3, b5) the least-squares fit (Gram-Schmidt in the orders x^2, x^4 "
                "and x, x^3, x^5, unresolved regressors dropped), on a pilot of "
                f"{CONTROL_PILOT} cascades from stream {CONTROL_KEY}"),
            "transform_split": (
                f"crosscheck: the tree side draws ceil({TREE_SHARE} n) cascades from stream "
                "(5, 0), the empirical side n, the --samples count, from stream (5, 1)")}


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
    expected_failures: float = 0.0  # the chance that a correct check fails its gate


@dataclass
class IdentityReport:
    suite: str
    entries: list[IdentityEntry] = field(default_factory=list)
    kernel_functionals: dict | None = None
    pass_fraction_required: float | None = None

    @property
    def pass_fraction(self) -> float:
        if not self.entries:
            return 1.0
        return sum(e.passed for e in self.entries) / len(self.entries)

    @property
    def passed(self) -> bool:
        """Every entry passed, or, with pass_fraction_required, at least
        that fraction of the entries of each time (params["t"])."""
        if self.pass_fraction_required is None:
            return all(e.passed for e in self.entries)
        by_time = {}
        for e in self.entries:
            by_time.setdefault(e.params.get("t"), []).append(e.passed)
        return all(sum(passed) / len(passed) >= self.pass_fraction_required
                   for passed in by_time.values())

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
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
    undefined).  Also expected_failures: the number of entries a correct
    run fails by chance, the sum of the entries' own (see `_check`).

    This describes one report, not the code: the entries of one time read
    the same cascades, so their z-scores move together, and one report's sd
    can sit far from 1 on correct code (1.44 over the 24 entries of
    `identities --kernel xabs --t 0.5,1,2,3 --samples 10000 --seed 31337`).
    Only a sweep over seeds, as in tests/test_reduction.py, tests
    calibration."""
    z = sorted(e.z_score for e in entries
               if e.two_sided and math.isfinite(e.z_score)
               and abs(e.mc_value - e.reference_value) >= ROUNDOFF_DIFF)
    n = len(z)
    mean = math.fsum(z) / n if n else None
    sd = math.sqrt(math.fsum((x - mean) ** 2 for x in z) / (n - 1)) if n > 1 else None
    cdf = [0.5 * (1.0 + math.erf(x / math.sqrt(2.0))) for x in z]
    distance = max((max((i + 1) / n - c, c - i / n) for i, c in enumerate(cdf)), default=None)
    return {"n": n, "mean": mean, "sd": sd, "ks_distance": distance,
            "expected_failures": math.fsum(e.expected_failures for e in entries)}


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

    def as_dict(self) -> dict:
        return {key: value.tolist() if isinstance(value, np.ndarray) else value
                for key, value in vars(self).items()}


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


# --- z-gates ----------------------------------------------------------------------

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


def _check(identity, params, value, se, reference, provenance, z_threshold,
           two_sided=True, parts=None) -> IdentityEntry:
    """One check entry.  z is `_z_score(value - reference, se)`, or, given
    parts, a list of (diff, se) pairs, the largest |_z_score(diff, se)|;
    the check passes when |z| <= z_threshold (two-sided) or z <= z_threshold
    (one-sided).  The entry's expected_failures is the chance that a
    correct check fails this gate, each random z ~ N(0, 1): tail =
    P[|Z| > z_threshold] two-sided, tail / 2 one-sided (an upper bound for
    the Markov entry, whose z has mean <= 0 on correct code), and
    1 - prod(1 - tail) over independent parts.  A z is random when it is
    finite and nonzero; `_z_score` fixes the others at 0 (roundoff) or inf."""
    tail = math.erfc(z_threshold / math.sqrt(2.0))
    if parts is None:
        z = _z_score(value - reference, se)
        expected = (tail if two_sided else 0.5 * tail) if 0.0 < abs(z) < math.inf else 0.0
    else:
        zs = [abs(_z_score(diff, part_se)) for diff, part_se in parts]
        z = max(zs)
        expected = 1.0 - math.prod(1.0 - tail if 0.0 < part_z < math.inf else 1.0
                                   for part_z in zs)
    passed = abs(z) <= z_threshold if two_sided else z <= z_threshold
    return IdentityEntry(identity=identity, params=params, mc_value=value, mc_se=se,
                         reference_value=reference, reference_provenance=provenance,
                         z_score=z, passed=bool(passed), two_sided=two_sided,
                         expected_failures=expected)


# --- chunk tasks (module level so they pickle) ------------------------------------

def _horner(x, coefficients, out):
    """out = np.polyval(coefficients, x), two or more coefficients, highest
    power first, by Horner's rule in place in out (not x); returns out."""
    np.multiply(x, coefficients[0], out=out)
    for c in coefficients[1:-1]:
        out += c
        out *= x
    out += coefficients[-1]
    return out


def _root_images(nus, rng, mu0, kernel) -> np.ndarray:
    """Each cascade's 16 root images (`sampler.replay`), shape
    (16, cascades, 3): the root velocities of the cascade with the
    children swapped at the root and at its children, in every
    combination, and the root azimuth turned by pi.  Each image is a draw
    from the solution, so a statistic averaged over them is one unbiased
    row per cascade with less variance."""
    record = germination_record(nus, kernel, rng)
    return replay(record, mu0.sampler(rng, record.n_leaves), images=True)


def _velocity_moments_task(nus, rng, mu0, kernel, mu4=None, mu6=None):
    """Per cascade, the mean velocity v1, v2, v3 and the energy |v|^2, each
    averaged over the 16 root images.  Given mu4 = E|v|^4 and mu6 = E|v|^6
    at the chunk's time (`_exact_fourth_moment`, `_exact_sixth_moment`),
    for a datum that meets `_controls_exact`, they carry control variates
    of exact mean with the limiting Maxwellian's optimal coefficients,
    image by image:
    |v|^2 - 25 (|v|^4 - mu4) / (51 m2) + (|v|^6 - mu6) / (17 m2^2) and
    v_m (1 - 6 |v|^2 / (7 m2) + |v|^4 / (7 m2^2)), whose control has mean 0
    by the v -> -v symmetry.  A fixed coefficient keeps each column's mean
    and its plain standard error."""
    images = _root_images(nus, rng, mu0, kernel)
    if mu4 is None:
        energy = np.einsum("pij,pij->i", images, images) / len(images)
    else:  # polynomials in |v|^2: the factor on v, then the energy
        m2 = mu0.m2
        square = np.einsum("pij,pij->pi", images, images)
        control = _horner(square, (1.0 / (7.0 * m2 * m2), -6.0 / (7.0 * m2), 1.0),
                          np.empty_like(square))
        images *= control[:, :, None]
        energy = _horner(square, (1.0 / (17.0 * m2 * m2), -25.0 / (51.0 * m2), 1.0,
                                  25.0 * mu4 / (51.0 * m2) - mu6 / (17.0 * m2 * m2)),
                         control).mean(axis=0)
    mean = images.mean(axis=0)
    return {"v1": mean[:, 0], "v2": mean[:, 1], "v3": mean[:, 2], "energy": energy}


def _fourth_moment_task(nus, rng, mu0, kernel, axis):
    """Per cascade, (v . axis)^4 averaged over the 16 root images."""
    return {"v1_fourth": ((_root_images(nus, rng, mu0, kernel) @ axis) ** 4).mean(axis=0)}


def _wild_cf_task(nus, rng, mu0, kernel, xi_grid, betas=None):
    """Empirical transform of wild-cascade velocity draws v on the grid:
    per cascade and frequency, cos p and sin p of the phase p = xi . v.

    Given betas, rows (b2, b4, c, b1, b3, b5) per frequency
    (`_control_coefficients`), each column at a nonzero frequency carries
    control variates of exactly known mean instead: with
    x = v . u / sigma, where u = xi / |xi| and sigma^2 = m2 / 3,
    cos p - (b2 x^2 + b4 x^4 - c) and sin p - (b1 x + b3 x^3 + b5 x^5),
    where c is the exact mean of b2 x^2 + b4 x^4.  The odd controls have
    mean 0 for a datum that meets the premises of `_controls_exact`, so
    each column keeps its mean.  x and x^2 depend on the direction alone,
    so they are made once per direction (`frequency_rays`); per frequency
    only p = |xi| sigma x, its cos and sin and the two Horner steps.  No
    block of phases is held beside the re and im blocks; these are
    column-major, so each column is contiguous and its moments sum as a
    one-dimensional array's.  A zero frequency keeps its exact (1, 0)."""
    xi_grid = np.asarray(xi_grid)
    if betas is None:
        re, im = cos_sin(cascade_velocities(nus, rng, mu0=mu0, kernel=kernel) @ xi_grid.T)
        return {"re": re, "im": im}
    velocities = cascade_velocities(nus, rng, mu0=mu0, kernel=kernel)
    sigma = math.sqrt(mu0.m2 / 3.0)
    rhos, units, rays = frequency_rays(xi_grid)
    re = np.empty((len(velocities), len(rhos)), order="F")
    im = np.empty_like(re)
    re[:, rhos == 0.0], im[:, rhos == 0.0] = 1.0, 0.0
    for members in rays:
        x = velocities @ units[members[0]]
        x /= sigma
        square = x * x
        control = np.empty_like(square)
        for i in members:  # p = |xi| sigma x, then polynomials in x^2, in place
            b2, b4, c, b1, b3, b5 = betas[:, i]
            re[:, i], im[:, i] = cos_sin(np.multiply(x, rhos[i] * sigma, out=control))
            re[:, i] -= _horner(square, (b4, b2, -c), control)
            _horner(square, (b5, b3, b1), control)
            control *= x
            im[:, i] -= control
    return {"re": re, "im": im}


def _envelope_task(nus, rng, mu0, kernel, lam, q):
    """Per-cascade count of radii in [0, R] where the conditional transform
    along a uniform random direction exceeds the envelope.  The leaf
    frequencies w_j psi_j are projected once (cf.project), and each of the
    ENVELOPE_RADII radii, one per cascade, is one evaluation of the
    transform's profile with rho given per leaf."""
    lam2 = lam * lam
    record = germination_record(nus, kernel, rng)
    weights, rotations = leaf_frames(record)
    radius = 0.5 * (1.0 / (mu0.m4 * record.per_cascade(weights**4))) ** 0.25
    directions = rng.standard_normal((len(nus), 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    bases = frame_for(directions)
    psi = np.einsum("jik,jk->ji", np.repeat(bases, record.nus, axis=0),
                    rotations.third_columns())
    projection = mu0.cf.project(weights[:, None] * psi)
    violations = np.zeros(len(nus))
    for fraction in np.linspace(0.0, 1.0, ENVELOPE_RADII):
        rho = np.repeat(fraction * radius, record.nus)
        transform = np.abs(record.per_cascade(mu0.cf.profile(projection, rho), np.multiply))
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
    workers: int = 1,
    z_threshold: float = DEFAULT_Z_THRESHOLD,
) -> IdentityReport:
    """Monte Carlo means of the weight statistics against their closed forms,
    exp(rate t) with the rates of `KernelFunctionals.rates`."""
    fn = spectral_functionals(kernel)
    powers = S_POWERS[:-1]  # sum_j |w_j|^4 is W, checked against lambda_b (any kernel)
    targets = [*((f"abs_pow_{s}", f"sum|w|^{s}") for s in powers),
               ("zeta", "sum w^2|zeta|"), ("eta", "sum|w^3 eta|"), ("W", "sum w^4")]
    report = IdentityReport("identities", kernel_functionals=fn.as_dict())
    for it, t in enumerate(t_list):
        sums = reduce_cascades(
            weight_sums, seed, (1, it), workers, t, n_samples,
            kernel=kernel, s_powers=powers, a_star=A_STAR,
        )
        for key, label in targets:
            mean, se = map(float, mean_se(sums, key))
            report.entries.append(_check(
                label, {"t": t, "n_samples": n_samples}, mean, se,
                math.exp(fn.rates[key] * t), "closed form from kernel quadrature", z_threshold))
        tail_mean, tail_se = map(float, mean_se(sums, "W_tail"))
        bound = min(1.0, math.exp(fn.lambda_b * t) / A_STAR)
        report.entries.append(_check(
            "P[W>=a*]<=E[W]/a*", {"t": t, "a_star": A_STAR}, tail_mean, tail_se, bound,
            "Markov inequality (one-sided)", z_threshold, two_sided=False))
    return report


def conservation_check(
    mu0: InitialDatum,
    kernel: CollisionKernel,
    t_list,
    n_samples: int,
    seed: int,
    workers: int = 1,
    z_threshold: float = DEFAULT_Z_THRESHOLD,
) -> IdentityReport:
    """Mean velocity and energy of cascade draws against the initial values,
    each cascade's statistic averaged over its 16 root images
    (`_root_images`), less control variates of exact mean
    (`_velocity_moments_task`) for a datum that meets `_controls_exact`;
    each entry's provenance names its control, a sum of two terms.  The
    images use no exact mean: each is a draw from the solution, so a
    velocity-scale or shift defect moves all of them."""
    if not math.isfinite(mu0.m2):
        raise ConfigError("conservation check needs a finite second moment")
    report = IdentityReport("conservation")
    controlled = _controls_exact(mu0)
    fn = spectral_functionals(kernel) if controlled else None
    for it, t in enumerate(t_list):
        moments = ({"mu4": _exact_fourth_moment(mu0, fn, t),
                    "mu6": _exact_sixth_moment(mu0, fn, t)} if controlled else {})
        sums = reduce_cascades(_velocity_moments_task, seed, (2, it), workers, t, n_samples,
                               mu0=mu0, kernel=kernel, **moments)
        references = [(f"v{m}", mu0.mean[m - 1],
                       f"v{m} (6 |v|^2 / (7 m2) - |v|^4 / (7 m2^2))") for m in (1, 2, 3)]
        references.append(("energy", mu0.m2, "25 (|v|^4 - E|v|^4(t)) / (51 m2) "
                           "- (|v|^6 - E|v|^6(t)) / (17 m2^2)"))
        for key, reference, control in references:
            mean, se = map(float, mean_se(sums, key))
            report.entries.append(_check(
                f"conserved_{key}", {"t": t}, mean, se, float(reference),
                "initial-datum moment table"
                + (f", less control {control} of exact mean" if controlled else ""),
                z_threshold))
    return report


def moment_decay_fit(
    mu0: InitialDatum | None,
    kernel: CollisionKernel,
    t_list,
    moment_spec: str = "v1^4",
    n_samples: int = 100_000,
    seed: int = 0,
    workers: int = 1,
    direction=None,
) -> DecayFit:
    """Fit the exponential decay rate of a moment deviation.

    moment_spec 'W' tracks the quartic weight statistic (no initial datum
    needed; its mean is exactly exp(lambda_b t)).  moment_spec 'v1^4'
    tracks the directional fourth-moment deviation |E[(v . u)^4] - 3| of
    cascade velocity draws for a normalized datum against the limiting
    value 3, with u the unit `direction` (default: the first axis), each
    cascade's (v . u)^4 averaged over its 16 root images
    (`_fourth_moment_task`).

    The deviation generally mixes the gap eigenmode with a
    faster-decaying fourth-order harmonic whose weight depends on the
    probe direction through sum_m u_m^4; fitting in the pre-asymptotic
    window then biases the rate, which is why the window and direction
    are caller choices.  Directions with sum_m u_m^4 = 3/5 suppress the
    contamination entirely for axis-symmetric data.
    """
    times = np.asarray(list(t_list), float)
    if len(times) < MIN_FIT_TIMES:
        raise ConfigError(f"need at least {MIN_FIT_TIMES} time points for a rate fit")
    fn = spectral_functionals(kernel)
    values = np.empty(len(times))
    ses = np.empty(len(times))
    if moment_spec == "W":
        for it, t in enumerate(times):
            sums = reduce_cascades(
                weight_sums, seed, (3, it), workers, float(t), n_samples,
                kernel=kernel, s_powers=(),
            )
            values[it], ses[it] = mean_se(sums, "W")
    elif moment_spec == "v1^4":
        if mu0 is None:
            raise ConfigError("moment_spec 'v1^4' needs an initial datum")
        mu0.require_m4()
        if not mu0.is_normalized(tol=1e-6):
            raise ConfigError("directional fourth-moment fit needs a normalized datum")
        if direction is None:
            axis = np.array([1.0, 0.0, 0.0])
        else:
            axis = np.asarray(direction, float)
            axis = axis / np.linalg.norm(axis)
        for it, t in enumerate(times):
            sums = reduce_cascades(
                _fourth_moment_task, seed, (3, it), workers, float(t), n_samples,
                mu0=mu0, kernel=kernel, axis=axis,
            )
            mean, se = mean_se(sums, "v1_fourth")
            values[it] = abs(mean - 3.0)
            ses[it] = se
    else:
        raise ConfigError(f"unknown moment_spec {moment_spec!r}")
    return fit_exponential_decay(times, values, ses, reference_rate=fn.lambda_b)


def _transform_grid(task, mu0, kernel, t, xi_grid, n_samples, seed, key, workers,
                    **kwargs):
    """The transform estimates of `task` on xi_grid at time t, from stream
    key: (estimates, se_re, se_im), one entry per frequency."""
    sums = reduce_cascades(task, seed, key, workers, t, n_samples,
                           mu0=mu0, kernel=kernel, xi_grid=xi_grid, **kwargs)
    (re, se_re), (im, se_im) = mean_se(sums, "re"), mean_se(sums, "im")
    return re + 1j * im, se_re, se_im


def transform_grid_estimates(
    mu0: InitialDatum,
    kernel: CollisionKernel,
    t_list,
    xi_grid,
    n_samples: int,
    seed: int,
    workers: int = 1,
) -> list[dict]:
    """Transform estimates over a (time, frequency) grid as flat records
    with keys t, xi_x, xi_y, xi_z, re, im, se_re, se_im, n."""
    xi_grid = np.asarray(xi_grid, float)
    rows = []
    for it, t in enumerate(t_list):
        estimate, se_re, se_im = _transform_grid(transform_sums, mu0, kernel, float(t),
                                                 xi_grid, n_samples, seed, (4, it), workers)
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
    workers: int = 1,
) -> tuple[DecayFit, list[dict]]:
    """Noise-aware sup distance of the estimated transform to the limiting
    Gaussian transform over the frequency grid, fitted exponentially, and
    the `transform_grid_estimates` rows it reads.  The datum must be
    normalized (mean 0, covariance of trace 3), as the limiting Gaussian
    assumes; a ConfigError says so before any cascade is drawn.

    This lower-bounds twice the total-variation distance at each time; it
    is never a total-variation estimate itself.
    """
    times = np.asarray(list(t_list), float)
    if len(times) < MIN_FIT_TIMES:
        raise ConfigError(f"need at least {MIN_FIT_TIMES} time points for a rate fit")
    if not mu0.is_normalized(tol=1e-6):
        raise ConfigError("distance curve needs a normalized initial datum")
    rows = transform_grid_estimates(mu0, kernel, times, xi_grid, n_samples, seed,
                                    workers=workers)
    fn = spectral_functionals(kernel)
    xi_grid = np.asarray(xi_grid, float)
    gauss = np.exp(-0.5 * np.einsum("ij,ij->i", xi_grid, xi_grid))
    # rows run over the grid at each time in turn
    columns = np.array([[row[key] for key in ("re", "im", "se_re", "se_im")] for row in rows])
    re, im, se_re, se_im = columns.T.reshape(4, len(times), len(xi_grid))
    se_mod = np.hypot(se_re, se_im)
    deviation = np.maximum(np.abs(re + 1j * im - gauss) - 2.0 * se_mod, 0.0)
    deviation[deviation < 1e-12] = 0.0  # machine-precision floor
    at = (np.arange(len(times)), np.argmax(deviation, axis=1))
    values, ses = deviation[at], se_mod[at]
    try:
        fit = fit_exponential_decay(times, values, ses, reference_rate=fn.lambda_b)
    except InsufficientSignal:
        fit = DecayFit(
            times=times, values=values, std_errors=ses,
            fitted_rate=float("nan"), fitted_log_prefactor=float("nan"),
            residual=0.0, reference_rate=fn.lambda_b,
            used=np.zeros(len(times), dtype=bool),
        )
    return fit, rows


def _controls_exact(mu0: InitialDatum) -> bool:
    """Whether the control means of `_wild_cf_task` and
    `_velocity_moments_task` are exact at every t.  The datum must have an
    exact transform and a finite m4 and m6, so that its moments are the
    law's, not a sample's, and the controls have finite means (every preset
    that qualifies is discrete, a centred Gaussian or a centred Gaussian
    mixture, with every moment finite, so their variances are finite too).
    Its transform must be real, which holds exactly when the law is
    symmetric under v -> -v; the collisions keep the symmetry, so every odd
    moment of the solution vanishes.  And
    its second-moment tensor (for a symmetric law, the covariance) must be
    exactly (m2 / 3) I with m2^3 a normal float (so m2 > 0), which the
    collisions keep, so that E[(v . u)^2] = m2 / 3 for every unit u; as
    m4 >= m2^2 and m6 >= m2^3, no moment or coefficient the controls read
    then underflows, and with m6 finite m2^3 cannot overflow."""
    return (mu0.cf is not None and all(m is not None and math.isfinite(m)
                                       for m in (mu0.m4, mu0.m6))
            and mu0.m2 ** 3 >= sys.float_info.min
            and np.array_equal(mu0.covariance, (mu0.m2 / 3.0) * np.eye(3))
            and not np.iscomplexobj(mu0.cf(np.zeros(3))))


def _exact_fourth_moment(mu0: InitialDatum, fn: KernelFunctionals, t: float) -> float:
    """E|v|^4 at time t, 15 s^4 + (m4 - 15 s^4) exp(lambda_b t) with
    s^2 = m2 / 3, for a datum that meets `_controls_exact`: with
    v = sum_j w_j O_j V_j, sum_j w_j^2 = 1 and i.i.d. centred V_j of
    covariance s^2 I, E[|v|^4 | cascade] = 15 s^4 + W (m4 - 15 s^4), and
    E[W] = exp(lambda_b t)."""
    gaussian = 15.0 * (mu0.m2 / 3.0) ** 2
    return gaussian + (mu0.m4 - gaussian) * math.exp(fn.lambda_b * t)


def _exact_sixth_moment(mu0: InitialDatum, fn: KernelFunctionals, t: float) -> float:
    """E|v|^6 at time t for a datum that meets `_controls_exact`, with
    s^2 = m2 / 3 and l6 = fn.l_s_table[6]:
    105 s^6 + 21 s^2 (m4 - 15 s^4) exp(lambda_b t)
    + (m6 - 21 s^2 m4 + 210 s^6) exp(-(1 - 2 l6) t).  With v as in
    `_exact_fourth_moment` and V symmetric under V -> -V, a cumulant
    expansion gives E[|v|^6 | cascade] = 105 s^6 + 21 s^2 (m4 - 15 s^4) W
    + (m6 - 21 s^2 m4 + 210 s^6) sum_j w_j^6, every contraction of V's
    fourth cumulant with s^2 I being m4 - 15 s^4; and
    E[sum_j w_j^6] = exp(-(1 - 2 l6) t), rate abs_pow_6 of fn.rates."""
    s2 = mu0.m2 / 3.0
    return (105.0 * s2**3 + 21.0 * s2 * (mu0.m4 - 15.0 * s2 * s2) * math.exp(fn.lambda_b * t)
            + (mu0.m6 - 21.0 * s2 * mu0.m4 + 210.0 * s2**3)
            * math.exp(fn.rates["abs_pow_6"] * t))


def _exact_fourth_powers(mu0: InitialDatum, fn: KernelFunctionals, t: float,
                         directions) -> np.ndarray:
    """E[(u . v)^4] at time t along each unit direction u (rows), for a
    datum that meets `_controls_exact` and has a fourth-moment tensor
    T = E[V (x) V (x) V (x) V].  The quartic form q(u) = E[(u . V)^4]
    splits into spherical-harmonic degrees: q0 = m4 / 5,
    q2(u) = (6/7) (u' M u - m4 / 3) with M = E[|V|^2 V V'] (T traced once)
    and q4 = q - q0 - q2.  Each collision maps the degree-l part to A_{4,l}
    (fn.a4_table, `kernel.a4`) times itself, and the cross term adds
    6 s^4 int cos^2 sin^2 dbeta (s^2 = m2 / 3), so
    E[(u . v)^4](t) = 3 s^4 + (q0 - 3 s^4) exp(lambda_b t)
    + q2 exp((A_{4,2} - 1) t) + q4 exp((A_{4,4} - 1) t): its isotropic
    part is `_exact_fourth_moment` / 5, since A_{4,0} - 1 = lambda_b."""
    tensor = mu0.m4_tensor
    quartic = np.einsum("ijkl,ni,nj,nk,nl->n", tensor, directions, directions, directions,
                        directions)
    q2 = (6.0 / 7.0) * (np.einsum("ni,ij,nj->n", directions, np.einsum("iijk->jk", tensor),
                                  directions) - mu0.m4 / 3.0)
    return (_exact_fourth_moment(mu0, fn, t) / 5.0
            + q2 * math.exp(fn.rates["quartic_2"] * t)
            + (quartic - mu0.m4 / 5.0 - q2) * math.exp(fn.rates["quartic_4"] * t))


def _slope(cxy, cxx):
    """cxy / cxx, or 0 where cxx <= 1e-10 CONTROL_PILOT: a regressor whose
    (residual) sum of squares the pilot cannot resolve gets no weight."""
    return np.divide(cxy, cxx, out=np.zeros_like(cxy), where=cxx > 1e-10 * CONTROL_PILOT)


def _least_squares(cov, regressors, target) -> np.ndarray:
    """Least-squares coefficients of column `target` on the columns
    `regressors`, one row per regressor, from the centred cross products
    cov (frequencies, columns, columns), by Gram-Schmidt in the order
    given: each regressor is first made orthogonal to those before it, and
    `_slope` drops one that is then unresolved."""
    coefficients = np.zeros(cov.shape[:2])  # per frequency, on every column
    basis = []
    for r in regressors:
        e = np.zeros_like(coefficients)
        e[:, r] = 1.0
        for q, qq in basis:
            e -= _slope(np.einsum("fi,fij,fj->f", q, cov, e), qq)[:, None] * q
        ee = np.einsum("fi,fij,fj->f", e, cov, e)
        basis.append((e, ee))
        coefficients += _slope(np.einsum("fi,fi->f", e, cov[:, :, target]), ee)[:, None] * e
    return coefficients[:, regressors].T


def _control_coefficients(mu0, kernel, fn, t, xi_grid, seed, workers) -> np.ndarray:
    """The rows (b2, b4, c, b1, b3, b5) of `_wild_cf_task`'s control
    coefficients, one column per frequency, fitted on CONTROL_PILOT velocity
    draws at time t from stream CONTROL_KEY, which no estimate reads, so
    the coefficients are independent of the draws they correct.  Per
    nonzero frequency, with p = xi . v and x = v . u / sigma of variance 1
    (u = xi / |xi|), sin p is regressed on (x, x^3, x^5), and cos p on x^2
    and on (x^2, x^4), each with an intercept, from one pass of the pilot's
    cross products (`_least_squares`); (b2, b4) is the average of the two
    cos p fits.  The centred powers of x depend on the direction alone, so
    they are made once per direction (`frequency_rays`), and only cos p and
    sin p per frequency.  c = b2 + b4 E[x^4](t) (`_exact_fourth_powers`) is
    the exact mean of b2 x^2 + b4 x^4.  Where a power is a combination of
    those before it, as for discrete data at t = 0, its b is 0, not what
    rounding alone would set.  A zero frequency keeps every row 0.

    Any fixed coefficients keep each column's mean.  Far out in x what
    the controls leave is their own polynomial, which skews the column, and
    at small samples z leans with the skew: positive with x^2 alone,
    negative with the full fit.  Their average keeps three quarters of the
    full fit's variance gain, and its leans largely cancel."""
    velocities = wild_velocity_batch(t, mu0, kernel, seed, CONTROL_PILOT, workers,
                                     key=CONTROL_KEY)
    sigma = math.sqrt(mu0.m2 / 3.0)
    rhos, units, rays = frequency_rays(xi_grid)
    cov = np.zeros((len(rhos), 7, 7))
    columns = np.empty((7, len(velocities)))  # x^2, x^4, x, x^3, x^5, cos p and sin p
    square, fourth, x, cube, fifth, cos, sin = columns
    for members in rays:  # the powers of x once per direction, centred
        projection = velocities @ units[members[0]]
        np.divide(projection, sigma, out=x)
        np.multiply(x, x, out=square)
        np.multiply(square, square, out=fourth)
        np.multiply(square, x, out=cube)
        np.multiply(fourth, x, out=fifth)
        columns[:5] -= columns[:5].mean(axis=1, keepdims=True)
        for i in members:
            cos[:], sin[:] = cos_sin(rhos[i] * projection)
            columns[5:] -= columns[5:].mean(axis=1, keepdims=True)
            cov[i] = columns @ columns.T
    even = _least_squares(cov, [0, 1], 5)  # averaged with the fit on x^2 alone
    even[0] += _least_squares(cov, [0], 5)[0]
    even *= 0.5
    odd = _least_squares(cov, [2, 3, 4], 6)
    x4_means = _exact_fourth_powers(mu0, fn, t, units) / (mu0.m2 / 3.0) ** 2
    offset = np.where(rhos > 0.0, even[0] + even[1] * x4_means, 0.0)
    return np.vstack([even, offset, odd])


def _tree_samples(n_samples: int) -> int:
    """The cascades crosscheck's tree side draws against n_samples on its
    empirical side: ceil(TREE_SHARE n_samples), at least 1 for n_samples >= 1."""
    return math.ceil(TREE_SHARE * n_samples)


def _crosscheck_sides(mu0, kernel, fn, t, xi_grid, n_samples, seed, workers):
    """The two transform estimates `representation_crosscheck` compares at
    time t, each as (estimates, se_re, se_im) over xi_grid: the tree side
    (`transform_sums`) from `_tree_samples(n_samples)` cascades on stream
    (5, 0), then the empirical side (`_wild_cf_task`) from n_samples
    cascades on stream (5, 1).  Given the kernel's functionals fn, the
    empirical side carries the control variates whose coefficients
    `_control_coefficients` fits on its pilot; with fn None it is plain.

    The tree side draws fewer cascades because it costs 3 to 5 times as
    much per cascade as the empirical side, with a third or less of its
    standard error: for two independent samples the difference's variance
    at fixed work is least at n_tree / n_empirical = (sigma_T / sigma_W)
    sqrt(c_W / c_T) (Cochran, Sampling Techniques, 3rd ed., 5.5), about 0.2
    at t = 1.  TREE_SHARE = 1/2 takes most of that gain and keeps the
    `transform_grid` benchmark's largest standard error under 0.0025
    (0.00241 at seed 1; 1/3 would read 0.00253)."""
    tree = _transform_grid(transform_sums, mu0, kernel, t, xi_grid, _tree_samples(n_samples),
                           seed, (5, 0), workers)
    # after the tree side, so that its peak memory is not stacked on the pilot's
    betas = (None if fn is None
             else _control_coefficients(mu0, kernel, fn, t, xi_grid, seed, workers))
    wild = _transform_grid(_wild_cf_task, mu0, kernel, t, xi_grid, n_samples, seed, (5, 1),
                           workers, betas=betas)
    return tree, wild


def representation_crosscheck(
    mu0: InitialDatum,
    kernel: CollisionKernel,
    t_list,
    xi_grid,
    n_samples: int,
    seed: int,
    workers: int = 1,
    z_threshold: float = DEFAULT_Z_THRESHOLD,
) -> IdentityReport:
    """The weight-and-rotation transform average (`transform_sums`:
    conditional where the datum has an exact transform, raw otherwise)
    against the empirical transform of independent cascade velocity draws,
    frequency by frequency, at each time.

    The two estimators target the same function through entirely different
    randomness (weights/rotations vs folded collisions), so matching
    z-scores validate the representation itself.  The report passes when
    at least 95% of the frequencies match at each time; every time draws
    from the same two streams, (5, 0) and (5, 1).  The empirical side
    draws n_samples cascades and the tree side, the costlier per cascade
    and the less noisy, ceil(TREE_SHARE n_samples) (`_crosscheck_sides`);
    each entry's params name both counts, n_tree and n_empirical.

    The empirical side carries control variates of exact mean
    (`_wild_cf_task`) when the datum meets `_controls_exact` (an exact
    transform that is real, so exact v -> -v symmetry, a finite m4 and m6
    and an isotropic, nonzero second-moment tensor) and has a known
    fourth-moment tensor (for E[x^4](t), `_exact_fourth_powers`).  Their
    coefficients come from a pilot of CONTROL_PILOT cascades on stream
    CONTROL_KEY, (5, 2), fitted at each time, so each estimate stays a
    post-stratified plain mean of its controlled columns, with an honest
    standard error.  Every other datum takes the plain empirical transform.
    """
    xi_grid = np.asarray(xi_grid, float)
    report = IdentityReport("representation_crosscheck", pass_fraction_required=0.95)
    controlled = _controls_exact(mu0) and mu0.m4_tensor is not None
    fn = spectral_functionals(kernel) if controlled else None
    provenance = "independent wild-cascade empirical transform"
    if controlled:
        provenance += (", less control variates x^2 - 1, x^4 - E[x^4](t), x, x^3 and x^5 "
                       "of exact mean (x = v . xi / (|xi| sqrt(m2/3))), fitted on a pilot of "
                       f"{CONTROL_PILOT} cascades from stream {CONTROL_KEY}")
    n_tree = _tree_samples(n_samples)
    for t in t_list:
        (tree, se_re_t, se_im_t), (wild, se_re_w, se_im_w) = _crosscheck_sides(
            mu0, kernel, fn, t, xi_grid, n_samples, seed, workers)
        for i, xi in enumerate(xi_grid):
            diff = tree[i] - wild[i]
            se_re = math.hypot(se_re_t[i], se_re_w[i])
            se_im = math.hypot(se_im_t[i], se_im_w[i])
            report.entries.append(_check(
                "transform_match",
                {"xi": list(map(float, xi)), "t": t, "n_tree": n_tree, "n_empirical": n_samples},
                abs(diff), math.hypot(se_re, se_im), 0.0, provenance, z_threshold,
                two_sided=False, parts=[(diff.real, se_re), (diff.imag, se_im)]))
    return report


def legendre_moment_checks(
    kernel: CollisionKernel,
    tree_size: int = 4,
    seed: int = 0,
) -> IdentityReport:
    """Conditional Legendre moments of the leaf directions against the
    product-form references, for every shape up to tree_size leaves.

    For each tree and fixed split angles, the mean over the azimuths of
    P_k(psi_j . xi) must equal P_k(u . xi) times the order-k leaf weight,
    for k = 1, 2, 3 and every leaf j.  Each tree is a `tree_record`, its
    angles drawn in the record's node order.  P_k(psi_j . xi) has degree
    <= k in each azimuth, so a grid of AZIMUTH_POINTS per split gives the
    mean exactly.  One `grow` of the row xi B(u) over the grid gives every
    psi_j . xi = xi B(u) O_j e3 without forming the leaf rotations.
    """
    if not 1 <= tree_size <= ENUMERATION_LIMIT:
        raise ConfigError(f"tree size must be 1 .. {ENUMERATION_LIMIT}, got {tree_size}")
    rng = rng_stream(seed, 6)
    u = np.array([0.3, -0.2, 0.93])
    u /= np.linalg.norm(u)
    xi = np.array([-0.5, 0.7, 0.4])
    xi /= np.linalg.norm(xi)
    u_dot_xi = float(u @ xi)
    report = IdentityReport("legendre_moments")
    azimuths = np.arange(AZIMUTH_POINTS) * (2.0 * math.pi / AZIMUTH_POINTS)
    for n in range(1, tree_size + 1):
        # node i's frame at grid point p: row 4 i + (digit i of p) of the stacked frames
        points = np.indices((AZIMUTH_POINTS,) * (n - 1)).reshape(n - 1, AZIMUTH_POINTS ** (n - 1))
        points += AZIMUTH_POINTS * np.arange(n - 1)[:, None]
        row = np.broadcast_to(xi @ frame_for(u), (points.shape[1], 1, 3))
        for tree in enumerate_trees(n):
            record = tree_record(tree, kernel.inverse_beta_cdf(rng.random(n - 1)))
            cos_p, sin_p = np.cos(record.phis), np.sin(record.phis)
            frames = collision_frames(record.phis[:, None], azimuths)
            dots = grow(record, *(f.reshape(-1, 3, 3).take(points, axis=0) for f in frames),
                        row)[..., 0, 2]
            for k in (1, 2, 3):
                means = legendre_value(k, dots).mean(axis=1)
                references = float(legendre_value(k, u_dot_xi)) * grow(
                    record, legendre_value(k, cos_p), legendre_value(k, sin_p), 1.0)
                for j in range(n):
                    report.entries.append(_check(
                        f"legendre_k{k}", {"tree": tree.encode(), "leaf": j + 1},
                        float(means[j]), 0.0, float(references[j]),
                        "order-k leaf weight product", DEFAULT_Z_THRESHOLD))
    return report


def envelope_check(
    mu0: InitialDatum,
    lam: float,
    q: float,
    kernel: CollisionKernel,
    t: float,
    n_samples: int,
    seed: int,
    workers: int = 1,
) -> IdentityReport:
    """Per-sample check |conditional transform| <= envelope on [0, R].

    Given the datum's transform and a finite m4 (a ConfigError otherwise),
    first verifies the tail premise |mu0_cf(xi)| <= (lam^2/(lam^2+|xi|^2))^q
    on a radial grid; then counts violations over cascade draws at
    ENVELOPE_RADII radii on [0, R], R = (1/2) (1 / (m4 W))^(1/4) per sample.
    """
    if not (lam > 0.0 and 0.0 < lam * lam < math.inf and q > 0.0):
        raise ConfigError("the envelope needs lam > 0 with lam^2 a positive finite float, "
                          f"and q > 0, got ({lam!r}, {q!r})")
    cf = mu0.require_cf()
    mu0.require_m4()
    rhos = np.linspace(0.0, PREMISE_RHO_MAX, 601)
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
    sums = reduce_cascades(
        _envelope_task, seed, (7, 0), workers, t, n_samples,
        mu0=mu0, kernel=kernel, lam=lam, q=q,
    )
    report = IdentityReport("envelope")
    violations = float(round(draw_total(sums, "violations")))
    report.entries.append(_check(
        "transform_under_envelope", {"checked_points": n_samples * ENVELOPE_RADII},
        violations, 0.0, 0.0, "pointwise envelope inequality", DEFAULT_Z_THRESHOLD,
        two_sided=False))
    return report
