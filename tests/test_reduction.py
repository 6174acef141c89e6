"""The post-stratified reduction over the cascade size: strata, chunk merges,
pooling of sparse strata, standard errors, run identifiers and the
calibration of identity z-scores across seeds."""

import math
from dataclasses import replace
from itertools import pairwise

import numpy as np
import pytest

import wildsim.cli as cli
import wildsim.diagnostics as diagnostics
import wildsim.sampler as sampler
from wildsim.diagnostics import (
    IdentityEntry,
    IdentityReport,
    _check,
    _crosscheck_sides,
    conservation_check,
    run_identity_suite,
)
from wildsim.initial import gaussian_datum, mixture_datum, sixpoint_datum
from wildsim.kernel import make_kernel, spectral_functionals
from wildsim.sampler import (
    SizeStrata,
    chunk_slices,
    draw_total,
    mean_se,
    merge_sums,
    rng_stream,
    size_strata,
    sorted_sizes,
    summarize,
    weight_sums,
)


@pytest.fixture(scope="module")
def kernel():
    return make_kernel("xabs")


@pytest.mark.parametrize("t", [1e-6, 0.5, 1.0, 3.0, 6.0, 12.0])
def test_size_strata_telescope_over_the_exact_size_law(t):
    strata = size_strata(t)
    q = -math.expm1(-t)  # P[nu > n] = q^n
    assert 2 <= len(strata.probs) <= sampler.SIZE_STRATA
    assert strata.lower[0] == 0 and np.all(np.diff(strata.lower) > 0)
    assert np.all(strata.probs > 0.0)
    assert abs(strata.probs.sum() - 1.0) <= 4 * np.finfo(float).eps
    for lo, hi, p in zip(strata.lower, [*strata.lower[1:], None], strata.probs):
        assert p == pytest.approx(q**lo - (0.0 if hi is None else q**hi), rel=1e-12)


def test_size_strata_keep_atoms_whole():
    strata = size_strata(0.5)
    assert strata.lower[1] == 1  # nu = 1 alone, 61% of the mass
    assert strata.probs[0] == pytest.approx(math.exp(-0.5), rel=1e-15)
    fine = size_strata(6.0)
    assert len(fine.probs) == sampler.SIZE_STRATA
    assert np.all(np.abs(fine.probs - 1.0 / sampler.SIZE_STRATA) < 0.01)
    at_zero = size_strata(0.0)
    assert at_zero.lower.tolist() == [0] and at_zero.probs.tolist() == [1.0]


def test_chunk_merge_matches_the_stratified_estimator():
    rng = rng_stream(5)
    t = 3.0
    nus, _ = sorted_sizes(t, rng, 3000)
    x = 3.0 * np.log(nus) + rng.standard_normal(len(nus))
    strata = size_strata(t)
    whole = summarize({"x": x}, nus, strata)
    # chunks of mixed sizes, single cascades among them, most strata empty in some
    cuts = [0, 1, 2, 700, 701, 2500, 3000]
    merged = merge_sums(summarize({"x": x[a:b]}, nus[a:b], strata) for a, b in pairwise(cuts))
    assert np.array_equal(merged["count"], whole["count"])
    np.testing.assert_allclose(merged["x"], whole["x"], rtol=1e-12)
    estimate, se = mean_se(merged, "x")
    labels = np.searchsorted(strata.lower, nus) - 1
    assert np.all(np.bincount(labels, minlength=len(strata.probs)) >= 2)
    groups = [x[labels == h] for h in range(len(strata.probs))]
    expected = sum(p * g.mean() for p, g in zip(strata.probs, groups))
    expected_se = math.sqrt(sum(p * p * g.var(ddof=1) / len(g)
                                for p, g in zip(strata.probs, groups)))
    assert estimate == pytest.approx(expected, rel=1e-12)
    assert se == pytest.approx(expected_se, rel=1e-12)
    # the between-size spread of x is gone from the standard error
    assert se < 0.5 * x.std(ddof=1) / math.sqrt(len(x))


def test_sparse_strata_pool_toward_larger_sizes():
    # stratum h holds size h + 1 (the last every size above 6)
    strata = SizeStrata(lower=np.arange(7), probs=np.full(7, 1.0 / 7.0))
    counts = [0, 1, 5, 1, 0, 3, 1]
    nus = np.repeat(np.arange(7, 0, -1), counts[::-1])
    x = rng_stream(8).standard_normal(len(nus)) + nus
    assert summarize({"x": x}, nus, strata)["count"].tolist() == counts
    # walking up the sizes a group closes at 2 draws: strata {0, 1, 2} and
    # {3, 4, 5}; the lone draw of stratum 6 joins the group before it
    pooled = strata.pooled(nus)
    assert pooled.lower.tolist() == [0, 3]
    # the group of the larger sizes spans both chunks
    parts = [summarize({"x": x[a:b]}, nus[a:b], pooled) for a, b in [(0, 3), (3, 11)]]
    sums = merge_sums(parts)
    assert sums["count"].tolist() == [6, 5]
    groups = [(3 / 7, x[nus <= 3]), (4 / 7, x[nus >= 4])]
    estimate, se = mean_se(sums, "x")
    assert estimate == pytest.approx(sum(p * g.mean() for p, g in groups), rel=1e-12)
    assert se == pytest.approx(math.sqrt(sum(p * p * g.var(ddof=1) / len(g)
                                             for p, g in groups)), rel=1e-12)


def test_single_draw_and_zero_time_reduce_to_the_plain_mean():
    one = summarize({"x": [2.5]}, [4], size_strata(3.0).pooled([4]))
    estimate, se = mean_se(one, "x")
    assert estimate == pytest.approx(2.5, rel=1e-15) and se == 0.0
    x = rng_stream(3).standard_normal(1001)
    plain = summarize({"x": x}, np.ones(1001, dtype=np.int64), size_strata(0.0))
    estimate, se = mean_se(plain, "x")
    assert estimate == x.mean()
    assert se == math.sqrt(np.sum((x - x.mean()) ** 2) / (1001 * 1000.0))


def test_pooled_strata_edge_cases():
    strata = size_strata(3.0)
    one = strata.pooled([4])
    assert one.lower.tolist() == [0]
    assert abs(one.probs[0] - 1.0) <= 4 * np.finfo(float).eps
    # strata with 2 or more draws each stay as they are
    fine = SizeStrata(lower=np.arange(3), probs=np.array([0.5, 0.3, 0.2]))
    assert fine.pooled([9, 8, 2, 2, 1, 1]) is fine
    # a short last group joins the one before it, which closed at 2 draws
    assert fine.pooled([9, 2, 1]).lower.tolist() == [0]
    assert fine.pooled([9, 2, 2, 1, 1]).lower.tolist() == [0, 1]
    assert fine.pooled([9, 2, 2, 1, 1]).probs.tolist() == [0.5, 0.5]
    # pooling keeps the total probability
    for t, size in [(1.0, 5), (3.0, 12), (6.0, 20), (9.0, 10)]:
        nus, _ = sorted_sizes(t, rng_stream(13), size)
        strata = size_strata(t)
        pooled = strata.pooled(nus)
        assert len(pooled.probs) < len(strata.probs)
        assert np.all(np.diff(pooled.cuts(nus)) <= -2)  # every group holds 2 draws
        assert abs(pooled.probs.sum() - 1.0) <= 4 * np.finfo(float).eps


def test_pooled_groups_span_chunks(kernel):
    """At t = 9 the 10 cascades fill 5 chunks and 4 pooled groups out of
    16 strata; the suite matches a reduction built by hand at any worker
    count."""
    t, n, seed = 9.0, 10, 3
    nus, _ = sorted_sizes(t, rng_stream(seed, 1, 0), n)
    chunks = chunk_slices(nus)
    pooled = size_strata(t).pooled(nus)
    assert len(chunks) == 5 and len(size_strata(t).probs) == 16 and len(pooled.probs) == 4
    group = np.searchsorted(pooled.lower, nus) - 1
    # some group holds the last draw of one chunk and the first of the next
    assert any(group[c.start - 1] == group[c.start] for c in chunks[1:])
    parts = [weight_sums(nus[c], rng_stream(seed, 1, 0, i), kernel=kernel, a_star=0.25)
             for i, c in enumerate(chunks)]
    serial = run_identity_suite(kernel, [t], n, seed=seed, workers=1)
    twice = run_identity_suite(kernel, [t], n, seed=seed, workers=2)
    assert serial.entries == twice.entries
    keys = ["abs_pow_1", "abs_pow_2", "abs_pow_3", "zeta", "eta", "W", "W_tail"]
    for key, entry in zip(keys, serial.entries, strict=True):
        x = np.concatenate([part[key] for part in parts])
        members = [x[group == g] for g in range(len(pooled.probs))]
        expected = sum(p * m.mean() for p, m in zip(pooled.probs, members))
        expected_se = math.sqrt(sum(p * p * m.var(ddof=1) / len(m)
                                    for p, m in zip(pooled.probs, members)))
        assert entry.mc_value == pytest.approx(expected, rel=1e-12), key
        assert entry.mc_se == pytest.approx(expected_se, rel=1e-9, abs=1e-15), key


def test_draw_total_recovers_an_integer_count_exactly():
    rng = rng_stream(9)
    t = 2.0
    nus, _ = sorted_sizes(t, rng, 5000)
    counts = rng.integers(0, 40, len(nus)).astype(float)
    chunks = chunk_slices(nus)
    assert len(chunks) > 2 and len({c.stop - c.start for c in chunks}) > 1
    strata = size_strata(t)
    sums = merge_sums(summarize({"k": counts[c]}, nus[c], strata) for c in chunks)
    total = draw_total(sums, "k")
    assert round(total) == int(counts.sum())
    assert abs(total - counts.sum()) < 1e-6


def _chunk_first_draw(nus, rng):
    return (len(nus), float(rng.random()))


@pytest.mark.parametrize("cpus, workers, expected", [
    (3, 10_000, 3), (3, 2, 2), (64, 10_000, 8), (None, 10_000, None)])
def test_worker_pool_is_capped_at_the_cpu_and_chunk_counts(monkeypatch, cpus, workers,
                                                           expected):
    """`_run_chunks` asks for at most one process per CPU and per chunk
    (here 8 chunks of one full-budget cascade each), with no pool at all
    when the cap is 1; a stand-in Pool records the size it is asked for and
    maps in this process, so no process starts.  Chunk results keep their
    order and streams."""
    sizes = []

    class RecordingPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return list(map(fn, jobs))

    nus = np.full(8, sampler.LEAF_BUDGET)
    serial = list(sampler._run_chunks(_chunk_first_draw, nus, 5, (9,), 1, {}))
    monkeypatch.setattr(sampler.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(sampler.multiprocessing, "Pool", RecordingPool)
    assert list(sampler._run_chunks(_chunk_first_draw, nus, 5, (9,), workers, {})) == serial
    assert sizes == ([] if expected is None else [expected])
    assert len(serial) == 8 and len(set(serial)) == 8


def test_run_id_names_the_reduction(kernel, monkeypatch):
    config = {"t_list": [1.0], "n_samples": 100, "seed": 1}
    base = cli._run_id("identities", config, kernel, None)
    assert cli._run_id("identities", config, kernel, None) == base
    monkeypatch.setattr(sampler, "SIZE_STRATA", 32)
    assert cli._run_id("identities", config, kernel, None) != base
    monkeypatch.setattr(sampler, "SIZE_STRATA", 16)
    assert cli._run_id("identities", config, kernel, None) == base
    monkeypatch.setattr(sampler, "MIN_STRATUM_DRAWS", 3)
    assert cli._run_id("identities", config, kernel, None) != base
    monkeypatch.setattr(sampler, "MIN_STRATUM_DRAWS", 2)
    assert cli._run_id("identities", config, kernel, None) == base
    # the weight statistics' symmetrisation and tail pairing, and the velocity
    # estimator's images and control rules, are named as well
    scheme = diagnostics.estimator_scheme()
    assert "mirror-symmetrised" in scheme["weight_sums"]
    assert "(g_L + g_R) / 2" in scheme["weight_sums"]
    assert "root pair" in scheme["weight_sums"]
    assert "16 root images" in scheme["velocity_images"]
    assert "theta + pi" in scheme["velocity_images"]
    assert "7 m2" in scheme["velocity_controls"]
    # and so is crosscheck's control rule: its pilot size and stream, its
    # powers and how (b2, b4) is fitted
    assert "2000 cascades" in scheme["transform_controls"]
    assert "x^4 - E[x^4](t)" in scheme["transform_controls"]
    assert "b5 x^5" in scheme["transform_controls"]
    assert "average of the least-squares fits" in scheme["transform_controls"]
    # and how crosscheck splits its cascades between its two sides
    assert "ceil(0.5 n)" in scheme["transform_split"]
    # E[x^4](t) reads the datum's fourth-moment tensor, which its echo names
    six, echo = sixpoint_datum(), {**config, "mu0": "sixpoint"}
    assert (cli._run_id("crosscheck", echo, kernel, replace(six, m4_tensor=2.0 * six.m4_tensor))
            != cli._run_id("crosscheck", echo, kernel, six))
    # each rule moves the run ids of the commands that read it, and no others
    runs = {name: (settings, mu0) for name, settings, mu0 in (
        ("identities", config, None), ("decay W", {**config, "moment": "W"}, None),
        ("decay v1^4", {**echo, "moment": "v1^4"}, six), ("conserve", echo, six),
        ("crosscheck", echo, six), ("cfcurve", echo, six), ("envelope", echo, six),
        ("simulate", echo, six), ("legendre", {"tree_size": 4, "seed": 1}, None))}

    def moved(before):
        return {name for name, run_id in run_ids().items() if run_id != before[name]}

    def run_ids():
        return {name: cli._run_id(name.split()[0], settings, kernel, mu0)
                for name, (settings, mu0) in runs.items()}

    ids, estimator_scheme = run_ids(), diagnostics.estimator_scheme
    for rule, readers in (("weight_sums", {"identities", "decay W"}),
                          ("velocity_images", {"conserve", "decay v1^4"}),
                          ("velocity_controls", {"conserve"}),
                          ("transform_controls", {"crosscheck"}),
                          ("transform_split", {"crosscheck"})):
        monkeypatch.setattr(diagnostics, "estimator_scheme", lambda: {**scheme, rule: "none"})
        assert moved(ids) == readers, rule
    monkeypatch.setattr(diagnostics, "estimator_scheme", estimator_scheme)
    assert moved(ids) == set()
    monkeypatch.setattr(diagnostics, "CONTROL_PILOT", 1000)
    assert moved(ids) == {"crosscheck"}
    monkeypatch.setattr(diagnostics, "CONTROL_PILOT", 2000)
    assert moved(ids) == set()
    monkeypatch.setattr(diagnostics, "CONTROL_KEY", (5, 3))
    assert moved(ids) == {"crosscheck"}
    monkeypatch.setattr(diagnostics, "CONTROL_KEY", (5, 2))
    assert moved(ids) == set()
    monkeypatch.setattr(diagnostics, "TREE_SHARE", 1.0)
    assert moved(ids) == {"crosscheck"}
    monkeypatch.setattr(diagnostics, "TREE_SHARE", 0.5)
    assert moved(ids) == set()
    # a report of the plain leaf sums and tail is another run
    decay = cli._run_id("decay", config, kernel, None)
    monkeypatch.setattr(diagnostics, "estimator_scheme", lambda: {**scheme, "weight_sums": "plain"})
    assert cli._run_id("identities", config, kernel, None) != base
    assert cli._run_id("decay", config, kernel, None) != decay


def _entry(z, diff=1.0, two_sided=True):
    return IdentityEntry(identity="x", params={}, mc_value=diff, mc_se=1.0,
                         reference_value=0.0, reference_provenance="", z_score=z,
                         passed=abs(z) <= 4.0, two_sided=two_sided)


def test_z_calibration_summary():
    entries = [_entry(-1.0), _entry(0.5), _entry(2.0),
               _entry(0.0, diff=0.0),            # zeroed by the roundoff rule
               _entry(math.inf),                 # non-finite
               _entry(-3.0, two_sided=False)]    # one-sided
    calibration = IdentityReport("synthetic", entries).as_dict()["z_calibration"]
    phi = [0.5 * (1.0 + math.erf(z / math.sqrt(2.0))) for z in (-1.0, 0.5, 2.0)]
    assert calibration["n"] == 3
    assert calibration["mean"] == pytest.approx(0.5, abs=1e-15)
    assert calibration["sd"] == pytest.approx(1.5, abs=1e-15)
    assert calibration["ks_distance"] == pytest.approx(phi[1] - 1.0 / 3.0, abs=1e-15)
    assert calibration["ks_distance"] == pytest.approx(0.358129, abs=1e-6)
    empty = IdentityReport("synthetic", [_entry(0.0, diff=0.0)]).as_dict()
    assert empty["z_calibration"] == {"n": 0, "mean": None, "sd": None, "ks_distance": None,
                                      "expected_failures": 0.0}


def test_expected_failures_follow_each_gate_rule():
    """At a gate of 2, P[|Z| > 2] = 0.0455002638963584.  A correct check
    fails by chance with that two-sided, half that one-sided, and
    1 - (1 - 0.0455002638963584)^2 = 0.0889302537780786 on the larger |z|
    of two random parts; a part or check whose z is fixed (a roundoff-sized
    difference, no standard error, a non-finite value) never does."""
    gate = 2.0
    entries = [
        _check("two-sided", {}, 1.0, 1.0, 0.0, "", gate),
        _check("one-sided", {}, 0.3, 0.1, 0.0, "", gate, two_sided=False),
        _check("two parts", {}, 0.5, 1.4, 0.0, "", gate, two_sided=False,
               parts=[(0.3, 1.0), (-0.4, 1.0)]),
        _check("one random part", {}, 0.3, 1.4, 0.0, "", gate, two_sided=False,
               parts=[(0.3, 1.0), (1e-13, 1.0)]),
        _check("roundoff", {}, 1e-13, 1.0, 0.0, "", gate),
        _check("exact", {}, 1.0, 0.0, 0.0, "", gate),
        _check("overflow", {}, math.inf, 1.0, 0.0, "", gate),
    ]
    assert [e.expected_failures for e in entries] == pytest.approx(
        [0.0455002638963584, 0.0227501319481792, 0.0889302537780786, 0.0455002638963584,
         0.0, 0.0, 0.0], rel=1e-13, abs=0.0)
    report = IdentityReport("synthetic", entries).as_dict()
    assert report["z_calibration"]["expected_failures"] == pytest.approx(
        0.2026809135189747, rel=1e-13)
    # at the default gate of 4, a report of 14,121 two-sided z-gated checks
    # expects 14121 P[|Z| > 4] = 0.894 failures on correct code
    many = IdentityReport("synthetic", [_check("x", {}, 0.1, 1.0, 0.0, "", 4.0)] * 14121)
    assert many.as_dict()["z_calibration"]["expected_failures"] == pytest.approx(
        0.8944592, rel=1e-6)


SWEEP_SEEDS = range(400)


@pytest.mark.parametrize("t, n_samples", [(0.5, 10_000), (3.0, 2_000)])
def test_identity_z_scores_are_calibrated_across_seeds(kernel, t, n_samples):
    """Honest standard errors: over 400 seeds, the z-scores of every
    two-sided identity with nonzero variance have mean 0 and sd 1 within
    4 sigma of their sampling law (4 / sqrt(N) and 4 / sqrt(2N))."""
    scores = {}
    for seed in SWEEP_SEEDS:
        for entry in run_identity_suite(kernel, [t], n_samples, seed=seed).entries:
            scores.setdefault(entry.identity, []).append(entry.z_score)
    n = len(SWEEP_SEEDS)
    for label in ("sum|w|^1", "sum|w|^3", "sum w^2|zeta|", "sum|w^3 eta|", "sum w^4"):
        z = np.array(scores[label])
        assert abs(z.mean()) <= 4.0 / math.sqrt(n), (label, z.mean())
        assert abs(z.std(ddof=1) - 1.0) <= 4.0 / math.sqrt(2 * n), (label, z.std(ddof=1))


@pytest.mark.parametrize("datum", ["sixpoint", "gaussian"])
@pytest.mark.parametrize("t, n_samples", [(1.0, 1_000), (3.0, 600)])
def test_conservation_z_scores_are_calibrated_across_seeds(kernel, t, n_samples, datum):
    """The same sweep for `conserve`, whose velocity statistics average the
    antithetic pair of root azimuths and, for these data, carry control
    variates of exact mean with fixed coefficients: over 400 seeds the
    z-scores of the mean velocity and the energy have mean 0 and sd 1
    within 4 sigma."""
    mu0 = sixpoint_datum() if datum == "sixpoint" else gaussian_datum()
    scores = {}
    for seed in SWEEP_SEEDS:
        for entry in conservation_check(mu0, kernel, [t], n_samples, seed=seed).entries:
            scores.setdefault(entry.identity, []).append(entry.z_score)
    n = len(SWEEP_SEEDS)
    for key in ("v1", "v2", "v3", "energy"):
        z = np.array(scores[f"conserved_{key}"])
        assert abs(z.mean()) <= 4.0 / math.sqrt(n), (key, z.mean())
        assert abs(z.std(ddof=1) - 1.0) <= 4.0 / math.sqrt(2 * n), (key, z.std(ddof=1))


CROSSCHECK_DATA = {
    "sixpoint": sixpoint_datum,
    "gaussian": gaussian_datum,
    "mixture": lambda: mixture_datum([(0.5, (0, 0, 0), np.diag([1.5, 1.0, 0.5])),
                                      (0.5, (0, 0, 0), np.diag([0.5, 1.0, 1.5]))]),
}


@pytest.mark.parametrize("datum", ["sixpoint", "gaussian", "mixture"])
def test_crosscheck_z_scores_are_calibrated_across_seeds(kernel, datum):
    """The same sweep for `crosscheck` at t = 1: the real and imaginary
    z-scores of the tree side (stream (5, 0), 1,000 cascades) minus the
    controlled empirical side (stream (5, 1), 2,000 cascades, coefficients
    from the pilot on (5, 2)), as `_crosscheck_sides` splits them, have
    mean 0 and sd 1 within 4 sigma at every frequency, so neither the
    pilot's coefficients nor the smaller tree side bias the estimate or its
    standard error.  The grid is
    test_diagnostics.small_grid (|xi| sigma 0.8 to 1.53) and the default
    grid's |xi| sigma = 2.2 shell, the one the `transform_grid` benchmark's
    largest standard errors sit on.

    The controlled real parts lean with the skew of what their controls
    leave (`_control_coefficients`).  Over these seeds the largest real z
    means are +0.135, +0.063 and +0.145 (sixpoint, Gaussian, mixture) on
    the small grid and +0.080, -0.056 and +0.033 on the shell, and the sds
    run from 0.873 to 1.083.  With 2,000 cascades on both sides, sixpoint's
    read +0.149 and +0.092 (the Gaussian's tree side is exact, so its z
    does not move), and with the full least-squares (b2, b4) they would
    be -0.42 and -0.50 (Gaussian and mixture, small grid) and -0.199
    (sixpoint, shell); with x^2 alone +0.18 (mixture, small grid).  The
    default grid's |xi| sigma = 0.6 shell, not swept here, leans most:
    +0.197 for the mixture (+0.222 with x^2 alone).  The
    control means are exact (over 2e7 plain cascades at t = 1, E[(u . v)^4]
    met `_exact_fourth_powers` within |z| <= 1.8 along five directions for
    sixpoint and the mixture)."""
    mu0 = CROSSCHECK_DATA[datum]()
    grid = np.vstack([[[0.8, 0.0, 0.0], [0.0, 0.0, 1.1], [0.5, 0.5, 0.5],
                       [-0.4, 0.8, 0.2], [1.2, -0.3, 0.9]],  # test_diagnostics.small_grid
                      cli.default_xi_grid()[-5:]])  # the rho = 2.2 shell
    assert np.allclose(np.linalg.norm(grid[5:], axis=1), 2.2)
    t, n_samples = 1.0, 2000
    fn = spectral_functionals(kernel)
    z = []
    for seed in SWEEP_SEEDS:
        (tree, se_re_t, se_im_t), (wild, se_re_w, se_im_w) = _crosscheck_sides(
            mu0, kernel, fn, t, grid, n_samples, seed, 1)
        diff = tree - wild
        z.append(np.concatenate([diff.real / np.hypot(se_re_t, se_re_w),
                                 diff.imag / np.hypot(se_im_t, se_im_w)]))
    z = np.array(z)
    n = len(SWEEP_SEEDS)
    assert np.all(np.abs(z.mean(axis=0)) <= 4.0 / math.sqrt(n)), z.mean(axis=0)
    assert np.all(np.abs(z.std(axis=0, ddof=1) - 1.0) <= 4.0 / math.sqrt(2 * n)), \
        z.std(axis=0, ddof=1)
