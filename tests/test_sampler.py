"""Cascade sampling: sizes, incremental arrays, collisions, transforms."""

import functools
import math
from dataclasses import replace

import numpy as np
import pytest

from wildsim.cli import default_xi_grid
from wildsim.diagnostics import envelope_check, transform_grid_estimates
from wildsim.errors import NoAnalyticCf, TimeTooLarge
from wildsim.geometry import frame_for
from wildsim.initial import gaussian_datum, sampler_datum, sixpoint_datum
from wildsim.kernel import cos_sin, make_kernel
from oracles import (cascade_trees, collide, is_rotation, leaf_weights, rotation_array,
                     rotation_z, swap_images, symmetrised_sum)
from wildsim.sampler import (
    _root_pair,
    chunk_slices,
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
from wildsim.weights import legendre_value


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
    # e^13.8 is below the cap, so only the check on drawn sizes can raise
    with pytest.raises(TimeTooLarge, match="drew"):
        sample_nu_batch(13.8, rng, 64)


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
            psi = rotation_array(tree, phis, thetas).third_columns() @ basis.T
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
    # the envelope bounds the conditional transform, which the datum must have
    silent = sampler_datum(lambda rng, size: rng.standard_normal((size, 3)))
    with pytest.raises(NoAnalyticCf):
        envelope_check(silent, math.sqrt(0.5), 0.25, kernel, t=1.0, n_samples=50, seed=11)


TRANSFORM_GRIDS = {
    "default": default_xi_grid(),
    # one direction at three radii, and the zero frequency between them
    "radii": np.array([[0.3, -0.4, 1.2], [0.0, 0.0, 0.0], [0.6, -0.8, 2.4], [0.9, -1.2, 3.6]]),
    # one direction given at two norms
    "norms": np.array([[1.0, 2.0, 2.0], [0.5, 1.0, 1.0]]),
}


@pytest.mark.parametrize("grid", TRANSFORM_GRIDS)
@pytest.mark.parametrize("make_datum", [sixpoint_datum, gaussian_datum])
def test_transform_sums_match_each_frequency_alone(kernel, grid, make_datum):
    """The grid reduction gives, frequency by frequency, what one frequency
    alone gives on the same record: the conditional product to 1e-13, the
    raw average bit for bit (xi = 0 exactly 1 + 0i on both paths)."""
    mu0, xi_grid = make_datum(), TRANSFORM_GRIDS[grid]
    nus, _ = sorted_sizes(2.0, rng_stream(14), 60)
    record = germination_record(nus, kernel, rng_stream(15))
    weights, rotations = leaf_frames(record)
    conditional = transform_sums(nus, rng_stream(15), mu0=mu0, kernel=kernel, xi_grid=xi_grid)
    raw = transform_sums(nus, rng_stream(15), mu0=replace(mu0, cf=None), kernel=kernel,
                         xi_grid=xi_grid)
    rng = rng_stream(15)
    germination_record(nus, kernel, rng)
    velocities = mu0.sampler(rng, record.n_leaves)
    for i, (xi, rho) in enumerate(zip(xi_grid, np.linalg.norm(xi_grid, axis=1))):
        if rho == 0.0:
            for sums in (conditional, raw):
                assert np.all(sums["re"][:, i] == 1.0) and np.all(sums["im"][:, i] == 0.0)
            continue
        expected = conditional_transforms(record, mu0, rho, xi / rho)
        np.testing.assert_allclose(conditional["re"][:, i], expected.real, rtol=1e-13, atol=0)
        np.testing.assert_allclose(conditional["im"][:, i], expected.imag, rtol=1e-13, atol=0)
        psi = np.ascontiguousarray(rotations.third_columns()) @ frame_for(xi / rho).T
        s = record.per_cascade(weights * np.einsum("ji,ji->j", psi, velocities))
        re, im = cos_sin(rho * s)
        assert np.array_equal(raw["re"][:, i], re) and np.array_equal(raw["im"][:, i], im)


@pytest.mark.parametrize("part", ["chunk", "one_unsplit", "unsplit_only", "two_unsplit"])
@pytest.mark.parametrize("t", [0.5, 1.0])
@pytest.mark.parametrize("make_datum", [sixpoint_datum, gaussian_datum])
def test_transform_sums_one_leaf_cascades_match_every_leaf(kernel, make_datum, t, part):
    """The conditional path evaluates the grid on one of the nu = 1
    cascades that end a chunk and copies its row to the others; every row
    equals the evaluation of every leaf, as the loop below writes it, bit
    for bit: for a whole chunk, for one that ends in a single nu = 1
    cascade and for chunks of nu = 1 cascades alone, two of them or more
    (a one-row product would round otherwise)."""
    mu0, xi_grid = make_datum(), TRANSFORM_GRIDS["radii"]
    nus, _ = sorted_sizes(t, rng_stream(18), 300)
    split = int(np.count_nonzero(nus > 1))
    assert 0 < split < len(nus) - 1
    nus = {"chunk": nus, "one_unsplit": nus[:split + 1], "unsplit_only": nus[split:],
           "two_unsplit": nus[-2:]}[part]
    sums = transform_sums(nus, rng_stream(19), mu0=mu0, kernel=kernel, xi_grid=xi_grid)
    record = germination_record(nus, kernel, rng_stream(19))
    weights, rotations = leaf_frames(record)
    columns = np.ascontiguousarray(rotations.third_columns())
    for i, (xi, rho) in enumerate(zip(xi_grid, np.linalg.norm(xi_grid, axis=1))):
        if rho == 0.0:
            continue
        psi = columns @ frame_for(xi / rho).T
        psi *= weights[:, None]
        values = record.per_cascade(mu0.cf.profile(mu0.cf.project(psi), rho), np.multiply)
        assert np.array_equal(sums["re"][:, i], values.real)
        assert np.array_equal(sums["im"][:, i], values.imag)


def test_wrapped_transform_keeps_its_rays(kernel):
    """A transform wrapped by functools.wraps, as a timer or a logger wraps
    it, carries its projection and profile along, so the grid reduction
    takes the same path and gives the same values bit for bit."""
    mu0 = sixpoint_datum()
    wrapped = replace(mu0, cf=functools.wraps(mu0.cf)(lambda xi: mu0.cf(xi)))
    nus, _ = sorted_sizes(1.0, rng_stream(16), 200)
    plain, through = (transform_sums(nus, rng_stream(17), mu0=datum, kernel=kernel,
                                     xi_grid=default_xi_grid()) for datum in (mu0, wrapped))
    for key in ("re", "im"):
        assert plain[key].tobytes() == through[key].tobytes()


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
    draws = wild_velocity_batch(0.0, mu0, kernel, 15, 200)
    norms = np.linalg.norm(draws, axis=1)
    np.testing.assert_allclose(norms, math.sqrt(3.0), atol=1e-12)


def test_wild_velocity_conserves_moments(kernel):
    mu0 = sixpoint_datum()
    n = 20_000
    for t in (0.5, 1.0):
        draws = wild_velocity_batch(t, mu0, kernel, 16, n)
        energy = np.einsum("ij,ij->i", draws, draws)
        se_mean = draws.std(axis=0, ddof=1) / math.sqrt(n)
        assert np.all(np.abs(draws.mean(axis=0)) < 4 * se_mean)
        se_energy = energy.std(ddof=1) / math.sqrt(n)
        assert abs(energy.mean() - 3.0) < 4 * se_energy


def test_wild_velocity_shifted_mean(kernel):
    mu0 = gaussian_datum(mean=(1.0, 0.0, 0.0))
    draws = wild_velocity_batch(1.0, mu0, kernel, 17, 20_000)
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
    # without a transform the datum takes the raw estimator
    (raw,) = transform_grid_estimates(replace(mu0, cf=None), kernel, [1.0], [xi], 20_000,
                                      seed=22)
    assert abs(rb["re"] - raw["re"]) < 4 * math.hypot(rb["se_re"], raw["se_re"])
    assert abs(rb["im"] - raw["im"]) < 4 * math.hypot(rb["se_im"], raw["se_im"]) + 1e-12
    # conditioning cannot increase the variance
    assert grid_estimate(rb)[1] <= grid_estimate(raw)[1] * 1.1


def test_sampler_only_datum_transform_is_unbiased(kernel):
    # a sampler-only datum has no transform, so its grid takes the raw estimator
    mu0 = sampler_datum(lambda rng, size: rng.standard_normal((size, 3)))
    grid = [[0.0, 1.5, 0.0], [0.8, 0.0, 0.6]]
    for row in transform_grid_estimates(mu0, kernel, [0.0, 0.3], grid, 2000, seed=24):
        value, std_error = grid_estimate(row)
        rho2 = row["xi_x"] ** 2 + row["xi_y"] ** 2 + row["xi_z"] ** 2
        assert abs(value - math.exp(-rho2 / 2.0)) < 4.0 * std_error, row


def test_weight_statistic_sums_match_closed_forms(kernel):
    from wildsim.kernel import spectral_functionals

    fn = spectral_functionals(kernel)
    t = 1.0
    sums = weight_statistic_sums(t, kernel, 23, 30_000, a_star=0.25)
    assert sums["count"].sum() == 30_000

    def check(key, reference):
        mean, se = mean_se(sums, key)
        assert abs(mean - reference) < 4 * se + 1e-12, key

    for s in (1, 2, 3, 4):
        check(f"abs_pow_{s}", math.exp(fn.rates[f"abs_pow_{s}"] * t))
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


# each statistic's per-split factor g at x = cos phi (left turn) or sin phi (right turn)
WEIGHT_FACTORS = {**{f"abs_pow_{s}": functools.partial(lambda s, x: abs(x) ** s, s)
                     for s in (1, 2, 3, 4)},
                  "zeta": lambda x: x**2 * abs(float(legendre_value(2, x))),
                  "eta": lambda x: abs(x**3 * float(legendre_value(3, x))),
                  "W": lambda x: x**4}
A_STAR = 0.25


def _plain_sums(tree, phis):
    """Each statistic of WEIGHT_FACTORS as the plain sum over the leaves of
    one tree, from its recursive order-1, -2 and -3 weights."""
    w, zeta, eta = (np.abs(leaf_weights(tree, phis, k).values) for k in (1, 2, 3))
    return {**{f"abs_pow_{s}": np.sum(w**s) for s in (1, 2, 3, 4)},
            "zeta": np.sum(w**2 * zeta), "eta": np.sum(w**3 * eta), "W": np.sum(w**4)}


@pytest.mark.parametrize("t, seed", [(1.0, 51), (3.0, 52)])
def test_weight_sums_match_recursive_weights(kernel, t, seed):
    """Every statistic of `weight_sums`, per cascade, against the recursion
    S = h (S(left) + S(right)) over the record's trees, powers taken with
    **; the tail's plain W and root mirror W' against the recursive order-1
    weights of the tree and of its root swap, and W_tail against the mean
    of their indicators, wherever neither lies within 1e-12 of a*."""
    nus, _ = sorted_sizes(t, rng_stream(seed), 300)
    stats = weight_sums(nus, rng_stream(seed, 1), kernel=kernel, a_star=A_STAR)
    record = germination_record(nus, kernel, rng_stream(seed, 1), azimuths=False)
    reference = {key: [] for key in WEIGHT_FACTORS}
    pairs = []
    for tree, phis, _, _ in cascade_trees(record):
        for key, factor in WEIGHT_FACTORS.items():
            reference[key].append(symmetrised_sum(tree, phis, factor))
        mirror = tree if tree.is_leaf else McKeanTree(tree.right, tree.left)
        n_l = 1 if tree.is_leaf else tree.left.leaf_count
        mirror_phis = phis[n_l - 1:-1] + phis[:n_l - 1] + phis[-1:]
        pairs.append([np.sum(leaf_weights(*image).values ** 4)
                      for image in ((tree, phis), (mirror, mirror_phis))])
    assert max(nus) > 1 and stats.keys() == {*reference, "W_tail"}
    for key, values in reference.items():
        np.testing.assert_allclose(stats[key], values, rtol=1e-13, err_msg=key)
    pairs = np.array(pairs)
    shift = record.n_leaves - 1
    rows = [np.maximum(slots - shift, 0) for slots in (record.left, record.right, record.roots)]
    cos_4, sin_4 = np.cos(record.phis) ** 4, np.sin(record.phis) ** 4
    folded = _root_pair(cos_4, sin_4, rows[0], rows[1], list(record.levels())[::-1], rows[2])
    np.testing.assert_allclose(np.transpose(folded), pairs, rtol=1e-13)
    clear = np.all(np.abs(pairs - A_STAR) > 1e-12, axis=1)
    assert clear.sum() > 250 and 0.0 < stats["W_tail"].mean() < 1.0
    expected = np.mean(pairs >= A_STAR, axis=1)
    assert np.array_equal(stats["W_tail"][clear], expected[clear])
    assert {0.0, 0.5, 1.0} == set(stats["W_tail"].tolist())


@pytest.mark.parametrize("t, seed", [(1.0, 53), (2.0, 54)])
def test_weight_sums_average_every_child_swap(kernel, t, seed):
    """Enumeration oracle: for every cascade of at most 8 leaves, each
    statistic of `weight_sums` is, to 1e-13, the mean of its plain leaf sum
    over all 2^(nu - 1) child-swap images of the cascade's tree and angles."""
    nus, _ = sorted_sizes(t, rng_stream(seed), 200)
    stats = weight_sums(nus, rng_stream(seed, 1), kernel=kernel)
    record = germination_record(nus, kernel, rng_stream(seed, 1), azimuths=False)
    checked = 0
    for j, (tree, phis, _, _) in enumerate(cascade_trees(record)):
        if tree.leaf_count > 8:
            continue
        images = [_plain_sums(*image) for image in swap_images(tree, phis)]
        assert len(images) == 2 ** (tree.leaf_count - 1)
        for key in WEIGHT_FACTORS:
            mean = np.mean([image[key] for image in images])
            assert stats[key][j] == pytest.approx(mean, rel=1e-13, abs=1e-13), (key, tree)
        checked += tree.leaf_count > 2  # where a swap below the root moves the sum
    assert checked > 20


def test_transform_grid_modulus_invariant(kernel):
    mu0 = sixpoint_datum()
    grid = rng_stream(95).normal(scale=1.5, size=(12, 3))
    for row in transform_grid_estimates(mu0, kernel, [1.0], grid, 800, seed=95):
        value, std_error = grid_estimate(row)
        assert abs(value) <= 1.0 + 3.0 * std_error + 1e-12


def test_frame_invariance_of_conditional_mean(kernel):
    # two frames with the same third column u, B(u) and B(u) Rz(alpha).
    # Per-sample conditional transforms differ, but their mean over the
    # cascade law does not; paired differences must be noise around zero.
    u = np.array([0.0, 1.0, 0.0])
    b_first = frame_for(u)
    b_second = b_first @ rotation_z(2.0)
    assert np.array_equal(b_second[:, 2], u)
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
    a = wild_velocity_batch(1.0, mu0, kernel, 77, 64)
    b = wild_velocity_batch(1.0, mu0, kernel, 77, 64)
    assert np.array_equal(a, b)
    c = wild_velocity_batch(1.0, mu0, kernel, 78, 64)
    assert not np.array_equal(a, c)
