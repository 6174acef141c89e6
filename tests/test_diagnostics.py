"""Verification-suite drivers at reduced sample counts."""

import math
from dataclasses import replace

import numpy as np
import pytest

from wildsim import diagnostics
from wildsim.diagnostics import (
    IdentityEntry,
    IdentityReport,
    _control_coefficients,
    _controls_exact,
    _exact_fourth_moment,
    _exact_fourth_powers,
    _exact_sixth_moment,
    _least_squares,
    _transform_grid,
    _tree_samples,
    _wild_cf_task,
    _z_score,
    cf_distance_curve,
    conservation_check,
    envelope_check,
    fit_exponential_decay,
    legendre_moment_checks,
    moment_decay_fit,
    representation_crosscheck,
    run_identity_suite,
    transform_grid_estimates,
    z_calibration,
)
from wildsim.cli import default_xi_grid
from wildsim.errors import ConfigError, InsufficientSignal, PremiseFailed
from wildsim.geometry import collision_frames
from wildsim.initial import (
    InitialDatum,
    discrete_datum,
    gaussian_datum,
    heavytail_datum,
    mixture_datum,
    sampler_datum,
    sixpoint_datum,
)
from wildsim.kernel import cos_sin, l_s, make_kernel, spectral_functionals
from wildsim.sampler import (
    cascade_velocities,
    chunk_slices,
    germination_record,
    leaf_frames,
    mean_se,
    reduce_cascades,
    replay,
    rng_stream,
    sorted_sizes,
    transform_sums,
)


@pytest.fixture(scope="module")
def kernel():
    return make_kernel("xabs")


@pytest.fixture(scope="module")
def sixpoint():
    return sixpoint_datum()


def small_grid():
    grid = np.array([
        [0.8, 0.0, 0.0],
        [0.0, 0.0, 1.1],
        [0.5, 0.5, 0.5],
        [-0.4, 0.8, 0.2],
        [1.2, -0.3, 0.9],
    ])
    return grid


def test_fit_recovers_synthetic_rate():
    rng = np.random.default_rng(0)
    times = np.arange(1.0, 7.0)
    truth = 2.0 * np.exp(-0.4 * times)
    ses = 0.01 * truth
    values = truth + rng.normal(0.0, ses)
    fit = fit_exponential_decay(times, values, ses, reference_rate=-0.4)
    assert fit.fitted_rate == pytest.approx(-0.4, abs=0.03)
    assert fit.fitted_log_prefactor == pytest.approx(math.log(2.0), abs=0.05)
    assert fit.used.all()


def test_fit_rejects_pure_noise():
    times = np.arange(1.0, 7.0)
    with pytest.raises(InsufficientSignal):
        fit_exponential_decay(times, np.full(6, 1e-4), np.full(6, 1e-3))


def test_identity_suite_small(kernel):
    report = run_identity_suite(kernel, [0.5, 1.0], 4000, seed=101)
    assert report.passed, [e for e in report.entries if not e.passed]
    payload = report.as_dict()
    assert payload["suite"] == "identities"
    assert payload["kernel"]["lambda_b"] == pytest.approx(-1.0 / 3.0, abs=1e-9)
    assert len(payload["entries"]) == 2 * 7


def test_identity_suite_zero_time_is_exact(kernel):
    report = run_identity_suite(kernel, [0.0], 200, seed=5)
    for entry in report.entries:
        if entry.identity.startswith("sum"):
            assert entry.mc_value == pytest.approx(entry.reference_value, abs=1e-12)
            assert entry.mc_se == 0.0
            assert entry.passed


def report_values(report):
    return [(e.mc_value, e.mc_se, e.z_score) for e in report.entries]


def test_identity_suite_parallel_workers_reduce_identically(kernel):
    # at t = 3 the 2000 cascades hold about 40k leaves, several chunks
    serial = run_identity_suite(kernel, [0.5, 3.0], 2000, seed=7, workers=1)
    twice = run_identity_suite(kernel, [0.5, 3.0], 2000, seed=7, workers=2)
    assert twice.passed
    assert serial.entries[0].reference_value == twice.entries[0].reference_value
    assert report_values(serial) == report_values(twice)


def test_conservation_parallel_workers_reduce_identically(kernel, sixpoint):
    serial = conservation_check(sixpoint, kernel, [2.5], 3000, seed=13, workers=1)
    twice = conservation_check(sixpoint, kernel, [2.5], 3000, seed=13, workers=2)
    assert twice.passed
    assert report_values(serial) == report_values(twice)


def _fit_values(fit):
    return fit.values.tolist(), fit.std_errors.tolist(), fit.fitted_rate


# each runs several chunks: at t = 2.5 the 3000 cascades hold about 36k leaves,
# and crosscheck's tree side, 1500 cascades, about 18k
CHUNKED_SUITES = {
    "crosscheck": lambda kernel, mu0, workers: report_values(representation_crosscheck(
        mu0, kernel, [2.5], small_grid(), 3000, seed=14, workers=workers)),
    "transform_raoblackwell": lambda kernel, mu0, workers: transform_grid_estimates(
        mu0, kernel, [0.5, 2.5], small_grid(), 3000, 15, workers=workers),
    "transform_raw": lambda kernel, mu0, workers: transform_grid_estimates(
        replace(mu0, cf=None), kernel, [0.5, 2.5], small_grid(), 3000, 15, workers=workers),
    "decay_W": lambda kernel, mu0, workers: _fit_values(moment_decay_fit(
        None, kernel, [1, 2, 3, 4], moment_spec="W", n_samples=3000, seed=16,
        workers=workers)),
    "decay_v1^4": lambda kernel, mu0, workers: _fit_values(moment_decay_fit(
        mu0, kernel, [0.5, 1, 2, 3], moment_spec="v1^4", n_samples=3000, seed=14,
        workers=workers)),
    "envelope": lambda kernel, mu0, workers: report_values(envelope_check(
        gaussian_datum(), math.sqrt(0.5), 0.25, kernel, t=2.5, n_samples=3000, seed=17,
        workers=workers)),
}


@pytest.mark.parametrize("suite", sorted(CHUNKED_SUITES))
def test_chunked_suites_reduce_identically_at_two_workers(suite, kernel, sixpoint):
    run = CHUNKED_SUITES[suite]
    assert run(kernel, sixpoint, 1) == run(kernel, sixpoint, 2)


def test_chunked_crosscheck_spans_chunks_on_both_sides():
    """The crosscheck run of CHUNKED_SUITES merges more than one chunk on
    its tree side as well as on its empirical side."""
    for key, n_samples in (((5, 0), _tree_samples(3000)), ((5, 1), 3000)):
        nus, _ = sorted_sizes(2.5, rng_stream(14, *key), n_samples)
        assert len(chunk_slices(nus)) >= 2, key


def test_conservation_small(kernel, sixpoint):
    report = conservation_check(sixpoint, kernel, [0.5, 1.5], 5000, seed=11)
    assert report.passed, [e for e in report.entries if not e.passed]
    energies = [e for e in report.entries if e.identity == "conserved_energy"]
    assert all(e.reference_value == 3.0 for e in energies)


def test_conservation_shifted_mean(kernel):
    shifted = gaussian_datum(mean=(1.0, 0.0, 0.0))
    report = conservation_check(shifted, kernel, [1.0], 5000, seed=12)
    assert report.passed
    v1 = [e for e in report.entries if e.identity == "conserved_v1"][0]
    assert v1.reference_value == 1.0


def _plain_velocity_task(nus, rng, *, mu0, kernel):
    """conserve's columns without controls: v1, v2, v3 and |v|^2, each
    averaged over the 16 root images."""
    record = germination_record(nus, kernel, rng)
    images = replay(record, mu0.sampler(rng, record.n_leaves), images=True)
    mean = images.mean(axis=0)
    return {"v1": mean[:, 0], "v2": mean[:, 1], "v3": mean[:, 2],
            "energy": np.einsum("pij,pij->i", images, images) / 16.0}


@pytest.mark.parametrize("datum", ["shifted", "sampler", "unknown-m6", "tiny"])
def test_conservation_falls_back_to_the_plain_columns(kernel, datum):
    """A datum that fails a premise of the velocity controls takes the
    plain columns on streams (2, t index), bit for bit; a datum that meets
    them names its control in each entry's provenance."""
    mu0 = {
        "shifted": lambda: gaussian_datum(mean=(0.5, 0.0, 0.0)),
        "sampler": lambda: sampler_datum(lambda rng, size: rng.standard_normal((size, 3))),
        "unknown-m6": lambda: replace(sixpoint_datum(), m6=None),
        "tiny": lambda: gaussian_datum(cov=1e-200),  # m2^3 underflows
    }[datum]()
    assert not _controls_exact(mu0)
    times, n, seed = [1.0, 3.0], 2000, 46
    report = conservation_check(mu0, kernel, times, n, seed=seed)
    for it, t in enumerate(times):
        sums = reduce_cascades(_plain_velocity_task, seed, (2, it), 1, t, n,
                               mu0=mu0, kernel=kernel)
        entries = [e for e in report.entries if e.params["t"] == t]
        for entry, key in zip(entries, ("v1", "v2", "v3", "energy"), strict=True):
            assert entry.identity == f"conserved_{key}"
            assert (entry.mc_value, entry.mc_se) == tuple(map(float, mean_se(sums, key)))
            assert entry.reference_provenance == "initial-datum moment table"
    controlled = conservation_check(sixpoint_datum(), kernel, [1.0], 200, seed=seed)
    assert all("less control" in e.reference_provenance for e in controlled.entries)
    # conserve's controls read m2, m4 and m6 only, not the fourth-moment tensor
    untensored = conservation_check(replace(sixpoint_datum(), m4_tensor=None), kernel, [1.0],
                                    200, seed=seed)
    assert untensored.entries == controlled.entries


def test_conservation_controls_keep_their_gain(kernel, sixpoint):
    """The `long_cascades` benchmark's conserve run: with the sixth-moment
    controls every standard error stays at or below 0.0065 (0.0052 at this
    seed; 0.0096 with the fourth-moment controls alone)."""
    report = conservation_check(sixpoint, kernel, [3.0, 4.0, 5.0], 5000, seed=1)
    assert max(e.mc_se for e in report.entries) <= 0.0065


def test_crosscheck_controls_keep_their_gain(kernel, sixpoint):
    """The `transform_grid` benchmark's crosscheck run: with the x^4 and x^5
    controls every standard error stays at or below 0.0025 (0.0024 at this
    seed; with 20,000 cascades on the tree side too, 0.0023, 0.0021 with the
    full least-squares b4 and 0.0042 with the x^2, x and x^3 controls
    alone)."""
    report = representation_crosscheck(sixpoint, kernel, [1.0], default_xi_grid(), 20_000,
                                       seed=1)
    assert max(e.mc_se for e in report.entries) <= 0.0025


def test_z_gate_fails_when_a_standard_error_overflows(kernel):
    for diff, se in [(1.0, math.inf), (-1.0, math.inf), (math.nan, 1.0),
                     (math.inf, 1.0), (0.0, math.nan)]:
        assert _z_score(diff, se) == math.inf  # fails two- and one-sided gates
    # built past the constructors' overflow guard: |v|^2 ~ 1e300, so the
    # energy's squared deviations overflow and its standard error is inf
    shift = np.array([1e150, 0.0, 0.0])
    huge = InitialDatum(name="huge", sampler=lambda rng, size: shift + rng.standard_normal((size, 3)),
                        mean=shift, covariance=np.eye(3), m2=float(shift @ shift) + 3.0)
    with np.errstate(over="ignore", invalid="ignore"):
        report = conservation_check(huge, kernel, [0.5], 20, seed=1)
    energy = next(e for e in report.entries if e.identity == "conserved_energy")
    assert not math.isfinite(energy.mc_se)
    assert energy.z_score == math.inf and not energy.passed
    assert not report.passed


def test_w_decay_fit_small(kernel):
    fit = moment_decay_fit(None, kernel, [1, 2, 3, 4], moment_spec="W",
                           n_samples=8000, seed=21)
    assert fit.reference_rate == pytest.approx(-1.0 / 3.0, abs=1e-9)
    assert fit.fitted_rate == pytest.approx(-1.0 / 3.0, abs=0.05)


def test_moment_decay_gaussian_has_no_signal(kernel):
    with pytest.raises(InsufficientSignal):
        moment_decay_fit(gaussian_datum(), kernel, [1, 2, 3, 4],
                         moment_spec="v1^4", n_samples=2000, seed=22)


def test_moment_decay_rejects_bad_spec(kernel, sixpoint):
    for spec in ("v9^9", "w"):
        with pytest.raises(ConfigError):
            moment_decay_fit(sixpoint, kernel, [1, 2, 3, 4], moment_spec=spec,
                             n_samples=100, seed=1)
    with pytest.raises(ConfigError):
        moment_decay_fit(None, kernel, [1, 2], moment_spec="W",
                         n_samples=100, seed=1)


def test_cf_distance_curve_gaussian_is_zero(kernel):
    mu0, times, grid = gaussian_datum(), [0.5, 1.0, 2.0, 3.0], small_grid()
    fit, rows = cf_distance_curve(mu0, kernel, times, grid, 500, seed=31)
    assert rows == transform_grid_estimates(mu0, kernel, times, grid, 500, seed=31)
    np.testing.assert_allclose(fit.values, 0.0, atol=1e-12)
    assert math.isnan(fit.fitted_rate)
    assert not fit.used.any()


def test_cf_distance_curve_sixpoint_decreases(kernel, sixpoint):
    times, grid = [0.5, 1.5, 2.5, 3.5], small_grid()
    fit, _ = cf_distance_curve(sixpoint, kernel, times, grid, 20_000, seed=32)
    assert np.all(np.diff(fit.values) < 0.0)   # monotone within this window
    assert fit.fitted_rate <= -0.25            # at least gap-order decay


def test_crosscheck_gaussian_small_z(kernel):
    report = representation_crosscheck(gaussian_datum(), kernel, [1.0],
                                       small_grid(), 4000, seed=43)
    assert report.passed
    # conditional side is exact for the Gaussian; z is pure wild-side noise
    assert max(abs(e.z_score) for e in report.entries) < 4.0


def test_cf_distance_requires_normalized(kernel):
    mu0, times, grid = gaussian_datum(mean=(1, 0, 0)), [1.0, 2.0, 3.0, 4.0], small_grid()
    with pytest.raises(ConfigError, match="normalized"):
        cf_distance_curve(mu0, kernel, times, grid, 100, seed=2)


def test_representation_crosscheck_small(kernel, sixpoint):
    report = representation_crosscheck(sixpoint, kernel, [1.0], small_grid(),
                                       20_000, seed=41)
    assert report.pass_fraction_required == 0.95
    assert report.passed, [e.z_score for e in report.entries]
    # each entry's z is the larger |z| of a real and an imaginary part, so a
    # correct run fails it with 1 - (1 - P[|Z| > 4])^2 = 1.2668e-4
    assert [e.expected_failures for e in report.entries] == pytest.approx(
        [1.2668095506229715e-4] * 5, rel=1e-12)


def test_crosscheck_time_list_joins_the_single_time_reports(kernel, sixpoint):
    joined = representation_crosscheck(sixpoint, kernel, [0.5, 1.0], small_grid(),
                                       500, seed=44)
    single = [representation_crosscheck(sixpoint, kernel, [t], small_grid(), 500, seed=44)
              for t in (0.5, 1.0)]
    assert joined.entries == single[0].entries + single[1].entries


def test_crosscheck_pass_fraction_holds_at_each_time():
    def report(fails_at_half, fails_at_one):
        entries = [IdentityEntry("transform_match", {"t": t}, 0.0, 0.0, 0.0, "", 0.0,
                                 passed=i >= fails)
                   for t, fails in ((0.5, fails_at_half), (1.0, fails_at_one))
                   for i in range(20)]
        return IdentityReport("representation_crosscheck", entries,
                              pass_fraction_required=0.95)

    # 38 of 40 entries pass, 95% over both times, but 18 of 20 at t = 0.5
    uneven = report(2, 0)
    assert uneven.pass_fraction == 0.95
    assert not uneven.passed
    assert report(1, 1).passed


def test_crosscheck_entries_name_each_sides_cascades(kernel, sixpoint):
    """The tree side draws ceil(n / 2) cascades and the empirical side n;
    every entry, at every time, names both counts."""
    report = representation_crosscheck(sixpoint, kernel, [0.5, 1.0], small_grid(), 301,
                                       seed=47)
    assert len(report.entries) == 2 * len(small_grid())
    assert {(e.params["n_tree"], e.params["n_empirical"])
            for e in report.entries} == {(151, 301)}


def test_representation_crosscheck_zero_time(kernel, sixpoint):
    report = representation_crosscheck(sixpoint, kernel, [0.0], small_grid(),
                                       2000, seed=42)
    assert report.passed
    # at t = 0 the conditional side is exact, only the empirical side fluctuates
    for entry in report.entries:
        assert abs(entry.z_score) <= 4.0


def test_legendre_moment_checks_small(kernel):
    """The azimuth grid gives exact means, so every check is an exact gate."""
    for seed in (51, 52):
        report = legendre_moment_checks(kernel, tree_size=6, seed=seed)
        assert report.passed, [e for e in report.entries if not e.passed]
        assert all(e.mc_se == 0.0 for e in report.entries)
        assert all(abs(e.mc_value - e.reference_value) < 1e-12 for e in report.entries)
        assert z_calibration(report.entries)["expected_failures"] == 0
        sizes = {e.params["tree"].count(".") for e in report.entries}
        assert sizes == {1, 2, 3, 4, 5, 6}  # shapes with 1..6 leaves


def test_legendre_gate_fails_perturbed_frames(kernel, monkeypatch):
    """Split angles off by a relative 1e-6 in the frames alone fail the gate."""
    def perturbed(phi, theta):
        return collision_frames(phi * (1.0 + 1e-6), theta)

    monkeypatch.setattr(diagnostics, "collision_frames", perturbed)
    report = legendre_moment_checks(kernel, tree_size=3, seed=51)
    assert not report.passed


def test_envelope_check_gaussian(kernel):
    report = envelope_check(gaussian_datum(), math.sqrt(0.5), 0.25, kernel,
                            t=1.0, n_samples=1500, seed=61)
    assert report.passed
    assert report.entries[0].mc_value == 0.0


def test_envelope_premise_failure(kernel):
    with pytest.raises(PremiseFailed):
        envelope_check(gaussian_datum(), math.sqrt(0.5), 0.5, kernel,
                       t=1.0, n_samples=10, seed=62)


def test_zero_frequency_rows_are_exact(kernel, sixpoint):
    grid = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
    for mu0 in (sixpoint, replace(sixpoint, cf=None)):  # conditional and raw
        rows = transform_grid_estimates(mu0, kernel, [1.0], grid, 200, 3)
        zero, other = rows
        assert (zero["re"], zero["im"], zero["se_re"], zero["se_im"]) == (1.0, 0.0, 0.0, 0.0)
        assert other["se_re"] > 0.0
    # the controlled empirical side keeps rho = 0 at exactly (1, 0, 0, 0)
    assert _controls_exact(sixpoint)
    betas = _control_coefficients(sixpoint, kernel, spectral_functionals(kernel), 1.0,
                                  np.array(grid), 3, 1)
    assert betas[:, 0].tolist() == [0.0] * 6
    assert np.all(betas[:, 1] != 0.0)
    estimate, se_re, se_im = _transform_grid(_wild_cf_task, sixpoint, kernel, 1.0,
                                             np.array(grid), 200, 3, (5, 1), 1, betas=betas)
    assert (estimate[0].real, estimate[0].imag, se_re[0], se_im[0]) == (1.0, 0.0, 0.0, 0.0)
    report = representation_crosscheck(sixpoint, kernel, [1.0], grid, 200, seed=3)
    zero = report.entries[0]
    assert (zero.mc_value, zero.mc_se, zero.z_score, zero.passed) == (0.0, 0.0, 0.0, True)


def _projected_moments(nus, rng, *, mu0, kernel, directions):
    """Per cascade, x - mean . u, x^2 - m2 / 3 and x^3 for x = v . u along
    each unit direction u (columns)."""
    x = cascade_velocities(nus, rng, mu0=mu0, kernel=kernel) @ directions.T
    return {"x": x - mu0.mean @ directions.T, "x2": x * x - mu0.m2 / 3.0, "x3": x**3}


@pytest.mark.parametrize("t", [1.0, 3.0])
@pytest.mark.parametrize("datum", ["sixpoint", "gaussian"])
def test_control_means_are_exact(kernel, datum, t):
    """The means crosscheck's controls rely on: for a symmetric datum with
    isotropic second moments, E[v . u] = mean . u, E[(v . u)^2] = m2 / 3 and
    E[(v . u)^3] = 0 at every t, along every direction."""
    mu0 = sixpoint_datum() if datum == "sixpoint" else gaussian_datum()
    assert _controls_exact(mu0)
    directions = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0.3, -0.2, 0.93],
                           [-0.5, 0.7, 0.4]])
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    sums = reduce_cascades(_projected_moments, 71, (int(t),), 1, t, 20_000,
                           mu0=mu0, kernel=kernel, directions=directions)
    for key in ("x", "x2", "x3"):
        mean, se = mean_se(sums, key)
        assert np.all(se > 0.0), key
        assert np.all(np.abs(mean / se) <= 4.0), (key, mean / se)


def _control_moments(nus, rng, *, mu0, kernel):
    """Per cascade, |v|^4, |v|^6, v |v|^2 and v |v|^4 of one plain velocity
    draw v."""
    v = cascade_velocities(nus, rng, mu0=mu0, kernel=kernel)
    square = np.einsum("ij,ij->i", v, v)
    return {"fourth": square * square, "sixth": square**3, "odd": v * square[:, None],
            "odd4": v * (square * square)[:, None]}


CENTRED_ISOTROPIC = {
    "sixpoint": sixpoint_datum,
    "gaussian": gaussian_datum,
    "mixture": lambda: mixture_datum([(0.5, (0, 0, 0), 0.5), (0.5, (0, 0, 0), 1.5)]),
}


@pytest.mark.parametrize("datum", sorted(CENTRED_ISOTROPIC))
def test_velocity_control_means_are_exact(kernel, datum):
    """The means conserve's controls rely on: for a symmetric datum with
    isotropic second moments, E|v|^4 = 15 s^4 + (m4 - 15 s^4) exp(lambda_b t)
    with s^2 = m2 / 3, E|v|^6 = `_exact_sixth_moment`, and
    E[v_m |v|^2] = E[v_m |v|^4] = 0 for m = 1, 2, 3, at every t.
    The mixture's m4 (18.75) and sixpoint's (9) differ from 15 s^4 = 15, so
    the W term is tested with either sign; the sum_j w_j^6 term's
    coefficient m6 - 21 s^2 m4 + 210 s^6 is 48 for sixpoint and 0 for the
    Gaussian and the mixture, a scale mixture of Gaussians.  A velocity
    scale error of 1e-2 moves E|v|^4 by 4%, which fails the sixpoint and
    Gaussian cases; the mixture's heavier tail hides it at this sample
    size."""
    mu0 = CENTRED_ISOTROPIC[datum]()
    assert _controls_exact(mu0)
    fn = spectral_functionals(kernel)
    for it, t in enumerate([0.5, 1.0, 3.0, 5.0]):
        sums = reduce_cascades(_control_moments, 72, (it,), 1, t, 40_000,
                               mu0=mu0, kernel=kernel)
        for key, reference in [("fourth", _exact_fourth_moment(mu0, fn, t)),
                               ("sixth", _exact_sixth_moment(mu0, fn, t)),
                               ("odd", 0.0), ("odd4", 0.0)]:
            mean, se = mean_se(sums, key)
            assert np.all(se > 0.0), (key, t)
            assert np.all(np.abs((mean - reference) / se) <= 4.0), (key, t, mean, reference, se)


def _fourth_and_fifth_powers(nus, rng, *, mu0, kernel, directions):
    """Per cascade, x^4 and x^5 for x = v . u along each unit direction u
    (columns), v one plain velocity draw."""
    x = cascade_velocities(nus, rng, mu0=mu0, kernel=kernel) @ directions.T
    fourth = x * x
    fourth *= fourth
    return {"x4": fourth, "x5": fourth * x}


QUARTIC_DATA = {
    "sixpoint": sixpoint_datum,
    "gaussian": gaussian_datum,
    # covariance I, but E[|V|^2 V V'] = diag(11, 10, 11) / 2 is not (m4 / 3) I: q2 != 0
    "mixture": lambda: mixture_datum([(0.5, (0, 0, 0), np.diag([1.5, 1.0, 0.5])),
                                      (0.5, (0, 0, 0), np.diag([0.5, 1.0, 1.5]))]),
}


@pytest.mark.parametrize("datum", sorted(QUARTIC_DATA))
def test_transform_control_means_are_exact(kernel, datum):
    """The means crosscheck's x^4 and x^5 controls rely on, from plain
    velocity draws: E[(u . v)^4] = `_exact_fourth_powers` and
    E[(u . v)^5] = 0 along e1, e2 and (1, 1, 1) / sqrt 3 at t = 0.5, 1 and
    3, |z| <= 4.  Only the mixture has a degree-2 part (q2 = 1/7 along e1,
    -2/7 along e2); its curve at t = 1 is 3.3927 along e1 and 3.0196 along
    e2.  With the rates of the degree-2 and degree-4 parts swapped, or q2
    dropped, the mixture's t = 1 check fails (by 0.052 and 0.159 along e2,
    against a standard error near 0.010 at 10^6 draws)."""
    mu0 = QUARTIC_DATA[datum]()
    assert _controls_exact(mu0)
    directions = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    quartic = np.einsum("ijkl,ni,nj,nk,nl->n", mu0.m4_tensor, *[directions] * 4)
    fn = spectral_functionals(kernel)
    np.testing.assert_allclose(_exact_fourth_powers(mu0, fn, 0.0, directions),
                               quartic, rtol=1e-12)
    if datum == "mixture":
        np.testing.assert_allclose(
            _exact_fourth_powers(mu0, fn, 1.0, directions[:2]),
            [3.3927, 3.0196], atol=5e-5)
    for it, (t, n) in enumerate([(0.5, 200_000), (1.0, 1_000_000), (3.0, 100_000)]):
        sums = reduce_cascades(_fourth_and_fifth_powers, 74, (it,), 1, t, n,
                               mu0=mu0, kernel=kernel, directions=directions)
        for key, reference in [("x4", _exact_fourth_powers(mu0, fn, t, directions)),
                               ("x5", 0.0)]:
            mean, se = mean_se(sums, key)
            assert np.all(se > 0.0), (key, t)
            assert np.all(np.abs((mean - reference) / se) <= 4.0), (key, t, mean, reference, se)


def test_horner_equals_polyval():
    """The controls' in-place Horner step is np.polyval exactly, on finite
    inputs, for float and numpy-scalar coefficients alike."""
    rng = np.random.default_rng(17)
    x = 3.0 * rng.standard_normal((2, 501))
    for degree in (1, 2, 3, 5):
        for coefficients in (tuple(map(float, rng.standard_normal(degree + 1))),
                             tuple(rng.standard_normal(degree + 1))):
            out = np.empty_like(x)
            assert diagnostics._horner(x, coefficients, out) is out
            assert np.array_equal(out, np.polyval(coefficients, x))


def test_least_squares_matches_lstsq_and_drops_unresolved_columns():
    """`_least_squares` against numpy's least squares with an intercept, per
    frequency; a regressor that repeats an earlier one gets slope 0, and
    the one before it keeps the fit."""
    rng = np.random.default_rng(8)
    columns = []
    for f in range(3):
        x = rng.standard_normal(2000)
        y = np.cos((f + 1) * x) + 0.1 * rng.standard_normal(2000)
        columns.append([x * x, x**4, 3.0 * x * x, y])
    columns = np.array(columns)
    columns -= columns.mean(axis=2, keepdims=True)
    cov = columns @ columns.transpose(0, 2, 1)
    fitted = _least_squares(cov, [0, 1], 3)
    for f in range(3):
        design = np.column_stack([np.ones(2000), columns[f, 0], columns[f, 1]])
        expected = np.linalg.lstsq(design, columns[f, 3], rcond=None)[0][1:]
        np.testing.assert_allclose(fitted[:, f], expected, rtol=1e-9)
    repeated = _least_squares(cov, [0, 2], 3)
    assert np.all(repeated[1] == 0.0)
    np.testing.assert_allclose(repeated[0], _least_squares(cov, [0], 3)[0], rtol=1e-12)


def _sixth_weight_sums(nus, rng, *, kernel):
    """Per cascade, sum_j w_j^6 of the order-1 leaf weights."""
    record = germination_record(nus, kernel, rng)
    weights, _ = leaf_frames(record)
    return {"S6": record.per_cascade(weights**6)}


@pytest.mark.parametrize("name", ["xabs", "cubic"])
def test_sixth_weight_sum_decays_at_its_exact_rate(name):
    """The curve under `_exact_sixth_moment`: E[sum_j w_j^6] =
    exp(-(1 - 2 l6) t), with l6 = 1/4 exactly for xabs, at |z| <= 4.  At
    t = 0 the sixth-moment curve is m6, and for a Gaussian it is 105 s^6."""
    kernel = make_kernel(name)
    l6 = l_s(kernel, 6)
    if name == "xabs":
        assert l6 == pytest.approx(0.25, abs=1e-9)
    for it, t in enumerate([0.5, 1.0, 3.0]):
        sums = reduce_cascades(_sixth_weight_sums, 73, (it,), 1, t, 20_000, kernel=kernel)
        mean, se = map(float, mean_se(sums, "S6"))
        assert se > 0.0, t
        assert abs(mean - math.exp(-(1.0 - 2.0 * l6) * t)) <= 4.0 * se, (t, mean, se)
    fn = spectral_functionals(kernel)
    for build in CENTRED_ISOTROPIC.values():
        mu0 = build()
        assert _exact_sixth_moment(mu0, fn, 0.0) == pytest.approx(mu0.m6, rel=1e-12)
    gaussian = gaussian_datum(cov=2.0)
    assert _exact_sixth_moment(gaussian, fn, 2.0) == pytest.approx(105.0 * 8.0, rel=1e-12)


# the vertices of a regular tetrahedron: mean exactly 0 and covariance exactly
# I, but not symmetric under v -> -v, so only the symmetry premise fails
TETRAHEDRON = [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]


def test_controls_apply_exactly_to_symmetric_isotropic_laws():
    """The controls need a real transform (exact v -> -v symmetry), finite
    m4 and m6 and covariance exactly (m2 / 3) I with m2 > 0; each datum
    below fails one.  The fourth-moment tensor is a premise of crosscheck's
    x^4 control alone (`test_crosscheck_falls_back_to_the_plain_empirical_transform`)."""
    pair = [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]
    controlled = {
        "sixpoint": sixpoint_datum(),
        "centred gaussian": gaussian_datum(),
        "centred mixture": mixture_datum([(0.5, (0, 0, 0), 1.0), (0.5, (0, 0, 0), 2.0)]),
    }
    plain = {
        "shifted gaussian": gaussian_datum(mean=(0.5, 0.0, 0.0)),
        "anisotropic gaussian": gaussian_datum(cov=np.diag([1.0, 2.0, 0.5])),
        "unequal pair": discrete_datum(pair, [0.4, 0.6]),
        "equal pair": discrete_datum(pair, [0.5, 0.5]),  # symmetric, not isotropic
        "tetrahedron": discrete_datum(TETRAHEDRON, [0.25] * 4),
        "origin atom": discrete_datum([[0.0, 0.0, 0.0]], [1.0]),  # m2 = 0: x undefined
        "shifted mixture": mixture_datum([(0.5, (0.5, 0, 0), 1.0), (0.5, (-0.5, 0, 0), 1.0)]),
        "heavytail": heavytail_datum(3.5, normalize=True),
        "sampler": sampler_datum(lambda rng, size: rng.standard_normal((size, 3))),
        "unknown m6": replace(sixpoint_datum(), m6=None),
    }
    assert np.array_equal(plain["tetrahedron"].covariance, np.eye(3))
    assert [name for name, mu0 in controlled.items() if not _controls_exact(mu0)] == []
    assert [name for name, mu0 in plain.items() if _controls_exact(mu0)] == []


def _plain_wild_task(nus, rng, *, mu0, kernel, xi_grid):
    phases = cascade_velocities(nus, rng, mu0=mu0, kernel=kernel) @ xi_grid.T
    re, im = cos_sin(phases)
    return {"re": re, "im": im}


@pytest.mark.parametrize("datum", ["shifted", "anisotropic", "tetrahedron", "heavytail",
                                   "sampler", "no-tensor", "tiny"])
def test_crosscheck_falls_back_to_the_plain_empirical_transform(kernel, datum):
    """A datum that fails a premise of the controls, or has no fourth-moment
    tensor for E[x^4](t), takes the plain cos/sin reduction on stream
    (5, 1), bit for bit."""
    mu0 = {
        "shifted": lambda: gaussian_datum(mean=(0.5, 0.0, 0.0)),
        "anisotropic": lambda: gaussian_datum(cov=np.diag([1.0, 1.0, 1.0 + 2**-40])),
        "tetrahedron": lambda: discrete_datum(TETRAHEDRON, [0.25] * 4),
        "heavytail": lambda: heavytail_datum(3.5, normalize=True),
        "sampler": lambda: sampler_datum(lambda rng, size: rng.standard_normal((size, 3))),
        "no-tensor": lambda: replace(sixpoint_datum(), m4_tensor=None),
        "tiny": lambda: gaussian_datum(cov=1e-200),  # m2^3 underflows
    }[datum]()
    assert not _controls_exact(mu0) or mu0.m4_tensor is None
    grid, n, seed = small_grid(), 300, 45
    report = representation_crosscheck(mu0, kernel, [1.0], grid, n, seed=seed)
    n_tree = report.entries[0].params["n_tree"]
    assert n_tree == _tree_samples(n) == 150
    tree, se_re_t, se_im_t = _transform_grid(transform_sums, mu0, kernel, 1.0, grid, n_tree,
                                             seed, (5, 0), 1)
    sums = reduce_cascades(_plain_wild_task, seed, (5, 1), 1, 1.0, n,
                           mu0=mu0, kernel=kernel, xi_grid=grid)
    (re, se_re), (im, se_im) = mean_se(sums, "re"), mean_se(sums, "im")
    for i, entry in enumerate(report.entries):
        assert entry.mc_value == abs(tree[i] - (re[i] + 1j * im[i]))
        assert entry.mc_se == math.hypot(math.hypot(se_re_t[i], se_re[i]),
                                         math.hypot(se_im_t[i], se_im[i]))
        assert entry.reference_provenance == "independent wild-cascade empirical transform"


def test_crosscheck_controls_survive_huge_frequencies(kernel, sixpoint):
    """At |xi| near 1e150 the controls, read in x = v . xi / (|xi| sigma)
    rather than in the phase, stay finite, so the report is made as the
    plain estimator's would be."""
    grid = np.array([[0.8, 0.0, 0.0], [1e150, 0.0, 0.0], [0.0, 3e140, 4e140]])
    betas = _control_coefficients(sixpoint, kernel, spectral_functionals(kernel), 1.0, grid,
                                  5, 1)
    assert np.all(np.isfinite(betas))
    report = representation_crosscheck(sixpoint, kernel, [1.0], grid, 300, seed=5)
    assert all(math.isfinite(e.mc_value) and math.isfinite(e.mc_se) for e in report.entries)
