"""Cascade sampling: sizes, incremental arrays, collisions, transforms."""

import math

import numpy as np
import pytest

from wildsim.diagnostics import transform_grid_estimates
from wildsim.errors import NoAnalyticCf, TimeTooLarge
from wildsim.geometry import frame_for, is_rotation
from wildsim.initial import gaussian_datum, sampler_datum, sixpoint_datum
from wildsim.kernel import make_kernel
from wildsim.sampler import (
    chunk_slices,
    collide,
    draw_tree_sample,
    germination_record,
    leaf_frames,
    mean_se,
    rng_stream,
    sample_nu,
    sample_nu_batch,
    size_strata,
    sorted_sizes,
    summarize,
    transform_sums,
    weight_statistic_sums,
    weight_sums,
    wild_velocity,
    wild_velocity_batch,
)
from wildsim.tree import McKeanTree, sample_tree
from wildsim.weights import leaf_weights
from wildsim.geometry import rotation_array, leaf_directions


@pytest.fixture(scope="module")
def kernel():
    return make_kernel("xabs")


def test_sample_nu_at_zero_time(kernel):
    rng = rng_stream(1)
    assert all(sample_nu(0.0, rng) == 1 for _ in range(50))


def test_sample_nu_geometric_frequencies():
    rng = rng_stream(2)
    t = math.log(2.0)  # P[nu = n] = 2^-n
    draws = sample_nu_batch(t, rng, 100_000)
    for n in (1, 2, 3, 4):
        p = 0.5**n
        freq = float(np.mean(draws == n))
        se = math.sqrt(p * (1 - p) / draws.size)
        assert abs(freq - p) < 4 * se


def test_sample_nu_mean():
    rng = rng_stream(3)
    draws = sample_nu_batch(2.0, rng, 100_000)
    mean_target = math.exp(2.0)
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - mean_target) < 4 * se


def test_sample_nu_cap():
    rng = rng_stream(4)
    with pytest.raises(TimeTooLarge):
        sample_nu(15.0, rng)
    with pytest.raises(TimeTooLarge):
        sample_nu(2.0, rng, n_max=3)


def test_draw_tree_sample_zero_time(kernel):
    sample = draw_tree_sample(0.0, kernel, rng_stream(5))
    assert sample.nu == 1
    np.testing.assert_allclose(sample.pi.values, [1.0])
    np.testing.assert_allclose(sample.rotations.rotations, [np.eye(3)])


def test_incremental_weights_stay_normalized(kernel):
    rng = rng_stream(6)
    for t in (0.5, 2.0, 5.0, 7.0):
        nus, _ = sorted_sizes(t, rng, 2500)
        for chunk in chunk_slices(nus):
            record = germination_record(nus[chunk], kernel, rng)
            weights, _ = leaf_frames(record)
            sums = record.per_cascade(weights**2)
            assert len(sums) == len(nus[chunk])
            assert np.all(np.abs(sums - 1.0) < 1e-10)


def test_incremental_rotations_are_rotations(kernel):
    rng = rng_stream(7)
    for _ in range(50):
        sample = draw_tree_sample(2.0, kernel, rng)
        for q in sample.rotations.rotations:
            assert is_rotation(q)


def test_incremental_matches_batch_construction(kernel):
    # same symmetric statistics from the engine's level-by-level record and
    # from the germination chain with recursive arrays, conditionally on nu = 3
    rng = rng_stream(8)
    draws = 20_000
    u = np.array([0.3, -0.4, math.sqrt(1 - 0.25)])
    basis = frame_for(u)

    def stats_incremental():
        record = germination_record(np.full(draws, 3), kernel, rng)
        weights, rotations = leaf_frames(record)
        dots = rotations.third_columns() @ basis.T @ u
        return record.per_cascade(
            np.stack([np.abs(weights) ** 3, weights**4, dots, dots**2], axis=1)
        )

    def stats_batch():
        out = np.empty((draws, 4))
        for i in range(draws):
            tree = sample_tree(3, rng)
            phis = kernel.inverse_beta_cdf(rng.random(2))
            thetas = rng.uniform(0, 2 * math.pi, 2)
            pi = leaf_weights(tree, phis, 1).values
            psi = leaf_directions(basis, rotation_array(tree, phis, thetas))
            dots = psi @ u
            out[i] = (
                np.sum(np.abs(pi) ** 3),
                np.sum(pi**4),
                np.sum(dots),
                np.sum(dots**2),
            )
        return out

    a, b = stats_incremental(), stats_batch()
    for col in range(4):
        diff = a[:, col].mean() - b[:, col].mean()
        se = math.hypot(
            a[:, col].std(ddof=1) / math.sqrt(draws),
            b[:, col].std(ddof=1) / math.sqrt(draws),
        )
        assert abs(diff) < 4 * se


def conditional_transforms(record, mu0, rho, u):
    """Per-cascade conditional transform prod_j cf(rho w_j psi_j(u)) of a record."""
    weights, rotations = leaf_frames(record)
    psi = rotations.third_columns() @ frame_for(u).T
    return record.per_cascade(mu0.cf(rho * weights[:, None] * psi), np.multiply)


def test_conditional_transform_single_leaf(kernel):
    mu0 = sixpoint_datum()
    record = germination_record([1], kernel, rng_stream(9))
    u = np.array([0.0, 0.6, 0.8])
    rho = 1.7
    assert complex(conditional_transforms(record, mu0, rho, u)[0]) == pytest.approx(
        complex(mu0.cf(rho * u)), abs=1e-12
    )


def test_conditional_transform_gaussian_fixed_point(kernel):
    mu0 = gaussian_datum()
    rng = rng_stream(10)
    u = np.array([0.48, -0.6, 0.64]) / math.sqrt(0.48**2 + 0.36 + 0.64**2)
    for t in (0.5, 2.0):
        nus, _ = sorted_sizes(t, rng, 100)
        record = germination_record(nus, kernel, rng)
        for rho in (0.3, 1.0, 2.5):
            values = conditional_transforms(record, mu0, rho, u)
            assert np.all(np.abs(values - math.exp(-rho * rho / 2.0)) <= 1e-12)


def test_conditional_transform_requires_transform(kernel):
    silent = sampler_datum(
        lambda rng, size: rng.standard_normal((size, 3)), empirical_cf=False
    )
    nus, _ = sorted_sizes(1.0, rng_stream(11), 50)
    with pytest.raises(NoAnalyticCf):
        transform_sums(nus, rng_stream(11, 0), mu0=silent, kernel=make_kernel("xabs"),
                       xi_grid=[[0.0, 0.0, 1.0]])


def test_second_moment_bound_given_cascade(kernel):
    # sum_j w_j^2 E[(psi_j . V)^2] <= E|V|^2, the h = 2 conditional moment bound
    mu0 = sixpoint_datum()
    rng = rng_stream(12)
    u = np.array([0.6, 0.0, 0.8])
    nus, _ = sorted_sizes(1.5, rng, 500)
    record = germination_record(nus, kernel, rng)
    weights, rotations = leaf_frames(record)
    psi = rotations.third_columns() @ frame_for(u).T
    quad = np.einsum("ji,ik,jk->j", psi, mu0.covariance, psi) + (psi @ mu0.mean) ** 2
    assert np.all(record.per_cascade(weights**2 * quad) <= mu0.m2 + 1e-12)


def test_collision_conservation():
    rng = rng_stream(13)
    for _ in range(1000):
        v = tuple(rng.normal(size=3))
        w = tuple(rng.normal(size=3))
        phi, theta = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
        v_out, w_out = collide(v, w, phi, theta)
        momentum_in = np.add(v, w)
        momentum_out = np.add(v_out, w_out)
        np.testing.assert_allclose(momentum_out, momentum_in, atol=1e-12)
        energy_in = np.dot(v, v) + np.dot(w, w)
        energy_out = np.dot(v_out, v_out) + np.dot(w_out, w_out)
        assert abs(energy_out - energy_in) < 1e-12 * max(1.0, energy_in)


def test_collision_degenerate_pair():
    v = (1.0, 2.0, 3.0)
    v_out, w_out = collide(v, v, 1.0, 2.0)
    assert np.array_equal(v_out, v) and np.array_equal(w_out, v)


def test_collision_completion_invariance():
    # theta-averaged outcome must not depend on how the basis is completed:
    # E_theta[v*] = v + cos(phi)^2 (w - v) regardless of the completion
    rng = rng_stream(14)
    v = (0.3, -1.2, 0.4)
    w = (1.0, 0.5, -0.2)
    phi = 1.1
    thetas = rng.uniform(0, 2 * math.pi, 200_000)
    outs = np.array([collide(v, w, phi, th)[0] for th in thetas[:20_000]])
    target = np.add(v, math.cos(phi) ** 2 * np.subtract(w, v))
    se = outs.std(axis=0, ddof=1) / math.sqrt(len(outs))
    assert np.all(np.abs(outs.mean(axis=0) - target) < 4 * se)


def test_wild_velocity_zero_time(kernel):
    mu0 = sixpoint_datum()
    rng = rng_stream(15)
    draws = wild_velocity_batch(0.0, mu0, kernel, rng, 200)
    norms = np.linalg.norm(draws, axis=1)
    np.testing.assert_allclose(norms, math.sqrt(3.0), atol=1e-12)


def test_wild_velocity_conserves_moments(kernel):
    mu0 = sixpoint_datum()
    rng = rng_stream(16)
    n = 20_000
    for t in (0.5, 1.0):
        draws = wild_velocity_batch(t, mu0, kernel, rng, n)
        energy = np.einsum("ij,ij->i", draws, draws)
        se_mean = draws.std(axis=0, ddof=1) / math.sqrt(n)
        assert np.all(np.abs(draws.mean(axis=0)) < 4 * se_mean)
        se_energy = energy.std(ddof=1) / math.sqrt(n)
        assert abs(energy.mean() - 3.0) < 4 * se_energy


def test_wild_velocity_shifted_mean(kernel):
    mu0 = gaussian_datum(mean=(1.0, 0.0, 0.0))
    rng = rng_stream(17)
    draws = wild_velocity_batch(1.0, mu0, kernel, rng, 20_000)
    se = draws.std(axis=0, ddof=1) / math.sqrt(len(draws))
    np.testing.assert_array_less(np.abs(draws.mean(axis=0) - [1.0, 0.0, 0.0]), 4 * se)


def grid_estimate(row):
    """(value, standard error) of one `transform_grid_estimates` row."""
    return complex(row["re"], row["im"]), math.hypot(row["se_re"], row["se_im"])


def test_transform_grid_zero_time_matches_initial(kernel):
    mu0 = sixpoint_datum()
    xi = np.array([0.7, -0.3, 0.5])
    value, std_error = grid_estimate(
        transform_grid_estimates(mu0, kernel, [0.0], [xi], 400, seed=19)[0])
    assert value == pytest.approx(complex(mu0.cf(xi)), abs=1e-12)
    assert std_error < 1e-14


def test_transform_grid_gaussian_zero_variance(kernel):
    value, std_error = grid_estimate(transform_grid_estimates(
        gaussian_datum(), kernel, [2.0], [[0.5, 0.5, 1.0]], 300, seed=20)[0])
    rho2 = 0.25 + 0.25 + 1.0
    assert value == pytest.approx(math.exp(-rho2 / 2.0), abs=1e-12)
    assert std_error < 1e-13


def test_cf_estimators_agree(kernel):
    mu0 = sixpoint_datum()
    xi = np.array([0.8, 0.36, 0.48])
    (rb,) = transform_grid_estimates(mu0, kernel, [1.0], [xi], 20_000, seed=21)
    (raw,) = transform_grid_estimates(mu0, kernel, [1.0], [xi], 20_000, seed=22,
                                      estimator="raw")
    assert abs(rb["re"] - raw["re"]) < 4 * math.hypot(rb["se_re"], raw["se_re"])
    assert abs(rb["im"] - raw["im"]) < 4 * math.hypot(rb["se_im"], raw["se_im"]) + 1e-12
    # conditioning cannot increase the variance
    assert grid_estimate(rb)[1] <= grid_estimate(raw)[1] * 1.1


def test_weight_statistic_sums_match_closed_forms(kernel):
    from wildsim.kernel import spectral_functionals
    from wildsim.weights import expected_sum_closed_form

    fn = spectral_functionals(kernel)
    rng = rng_stream(23)
    t = 1.0
    sums = weight_statistic_sums(t, kernel, rng, 30_000, a_star=0.25)
    assert sums["count"].sum() == 30_000

    def check(key, reference):
        mean, se = mean_se(sums, key)
        assert abs(mean - reference) < 4 * se + 1e-12, key

    for s in (1, 2, 3, 4):
        check(f"abs_pow_{s}", expected_sum_closed_form(fn.l_s_table[s], t=t))
    check("zeta", math.exp(-(1.0 - fn.f_b) * t))
    check("eta", math.exp(-(1.0 - fn.g_b) * t))
    check("W", math.exp(fn.lambda_b * t))
    # tail bound: P[W >= a*] <= E[W]/a*
    tail_mean, tail_se = mean_se(sums, "W_tail")
    assert tail_mean <= math.exp(fn.lambda_b * t) / 0.25 + 4 * tail_se


@pytest.mark.parametrize("t", [0.5, 4.0])
def test_weight_sums_w_alone_matches_full_path(kernel, t):
    nus, _ = sorted_sizes(t, rng_stream(41), 1000)
    alone = weight_sums(nus, rng_stream(42), kernel=kernel, s_powers=())
    full = weight_sums(nus, rng_stream(42), kernel=kernel)
    assert np.array_equal(alone["W"], full["W"])
    alone, full = (summarize(stats, nus, size_strata(t)) for stats in (alone, full))
    assert alone.keys() == {"count", "prob", "W"}
    assert np.array_equal(alone["count"], full["count"])
    assert np.array_equal(alone["W"], full["W"])


def test_transform_grid_modulus_invariant(kernel):
    mu0 = sixpoint_datum()
    grid = rng_stream(95).normal(scale=1.5, size=(12, 3))
    for row in transform_grid_estimates(mu0, kernel, [1.0], grid, 800, seed=95):
        value, std_error = grid_estimate(row)
        assert abs(value) <= 1.0 + 3.0 * std_error + 1e-12


def test_chart_invariance_of_conditional_mean(kernel):
    # overlap point of charts 1 and 4: same direction, two different frames.
    # Per-sample conditional transforms differ, but their mean over the
    # cascade law does not; paired differences must be noise around zero.
    from wildsim.geometry import chart_basis, chart_contains

    u = np.array([0.0, 1.0, 0.0])
    assert chart_contains(1, u) and chart_contains(4, u)
    b_first = chart_basis(1, u)
    b_second = chart_basis(4, u)
    assert not np.allclose(b_first, b_second)
    mu0 = sixpoint_datum()
    cf = mu0.cf
    rho = 1.3
    rng = rng_stream(96)
    nus, _ = sorted_sizes(1.0, rng, 20_000)
    record = germination_record(nus, kernel, rng)
    weights, rotations = leaf_frames(record)
    cols = rotations.third_columns()
    values = []
    for basis in (b_first, b_second):
        psi = cols @ basis.T
        values.append(record.per_cascade(cf(rho * weights[:, None] * psi), np.multiply))
    diffs = (values[0] - values[1]).real
    se = diffs.std(ddof=1) / math.sqrt(diffs.size)
    assert abs(diffs.mean()) < 4 * se + 1e-12


def test_determinism_same_stream(kernel):
    mu0 = sixpoint_datum()
    a = wild_velocity_batch(1.0, mu0, kernel, rng_stream(77, 0), 64)
    b = wild_velocity_batch(1.0, mu0, kernel, rng_stream(77, 0), 64)
    assert np.array_equal(a, b)
    c = wild_velocity_batch(1.0, mu0, kernel, rng_stream(77, 1), 64)
    assert not np.array_equal(a, c)
