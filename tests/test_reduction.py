"""The post-stratified reduction over the cascade size: strata, chunk merges,
pooling of sparse strata, standard errors, run identifiers and the
calibration of identity z-scores across seeds."""

import math
from itertools import pairwise

import numpy as np
import pytest

import wildsim.sampler as sampler
from wildsim.diagnostics import (
    IdentityEntry,
    IdentityReport,
    _run_id,
    run_identity_suite,
)
from wildsim.kernel import make_kernel
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
    parts = [summarize({"x": x[a:b]}, nus[a:b], strata) for a, b in [(0, 3), (3, 11)]]
    sums = merge_sums(parts)
    assert sums["count"].tolist() == counts
    # walking up the sizes a group closes at 2 draws: strata {0, 1, 2} and
    # {3, 4, 5}; the lone draw of stratum 6 joins the group before it
    groups = [(3 / 7, x[nus <= 3]), (4 / 7, x[nus >= 4])]
    estimate, se = mean_se(sums, "x")
    assert estimate == pytest.approx(sum(p * g.mean() for p, g in groups), rel=1e-12)
    assert se == pytest.approx(math.sqrt(sum(p * p * g.var(ddof=1) / len(g)
                                             for p, g in groups)), rel=1e-12)


def test_single_draw_and_zero_time_reduce_to_the_plain_mean():
    one = summarize({"x": [2.5]}, [4], size_strata(3.0))
    estimate, se = mean_se(one, "x")
    assert estimate == pytest.approx(2.5, rel=1e-15) and se == 0.0
    x = rng_stream(3).standard_normal(1001)
    plain = summarize({"x": x}, np.ones(1001, dtype=np.int64), size_strata(0.0))
    estimate, se = mean_se(plain, "x")
    assert estimate == x.mean()
    assert se == math.sqrt(np.sum((x - x.mean()) ** 2) / (1001 * 1000.0))


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


def test_run_id_names_the_reduction(kernel, monkeypatch):
    config = {"t_list": [1.0], "n_samples": 100, "seed": 1}
    base = _run_id("identities", config, kernel)
    assert _run_id("identities", config, kernel) == base
    monkeypatch.setattr(sampler, "SIZE_STRATA", 32)
    assert _run_id("identities", config, kernel) != base
    monkeypatch.setattr(sampler, "SIZE_STRATA", 16)
    assert _run_id("identities", config, kernel) == base
    monkeypatch.setattr(sampler, "MIN_STRATUM_DRAWS", 3)
    assert _run_id("identities", config, kernel) != base


def _entry(z, diff=1.0, two_sided=True):
    return IdentityEntry(identity="x", params={}, mc_value=diff, mc_se=1.0,
                         reference_value=0.0, reference_provenance="", z_score=z,
                         passed=abs(z) <= 4.0, two_sided=two_sided)


def test_z_calibration_summary():
    entries = [_entry(-1.0), _entry(0.5), _entry(2.0),
               _entry(0.0, diff=0.0),            # zeroed by the roundoff rule
               _entry(math.inf),                 # non-finite
               _entry(-3.0, two_sided=False)]    # one-sided
    calibration = IdentityReport("synthetic", {}, entries).as_dict()["z_calibration"]
    phi = [0.5 * (1.0 + math.erf(z / math.sqrt(2.0))) for z in (-1.0, 0.5, 2.0)]
    assert calibration["n"] == 3
    assert calibration["mean"] == pytest.approx(0.5, abs=1e-15)
    assert calibration["sd"] == pytest.approx(1.5, abs=1e-15)
    assert calibration["ks_distance"] == pytest.approx(phi[1] - 1.0 / 3.0, abs=1e-15)
    assert calibration["ks_distance"] == pytest.approx(0.358129, abs=1e-6)
    empty = IdentityReport("synthetic", {}, [_entry(0.0, diff=0.0)]).as_dict()
    assert empty["z_calibration"] == {"n": 0, "mean": None, "sd": None, "ks_distance": None}


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
    for label in ("sum|w|^1", "sum|w|^3", "sum|w|^4", "sum w^2|zeta|", "sum|w^3 eta|",
                  "sum w^4"):
        z = np.array(scores[label])
        assert abs(z.mean()) <= 4.0 / math.sqrt(n), (label, z.mean())
        assert abs(z.std(ddof=1) - 1.0) <= 4.0 / math.sqrt(2 * n), (label, z.std(ddof=1))
