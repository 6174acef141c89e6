"""Leaf weights grown by the engine, closed-form means and Newton bounds."""

import math

import numpy as np
import pytest
from scipy.special import gammaln

from oracles import cascade_trees
from wildsim.errors import NotNormalized
from wildsim.kernel import KernelFunctionals, make_kernel, spectral_functionals
from wildsim.sampler import grow, rng_stream, tree_record, weight_sums
from wildsim.tree import LEAF, McKeanTree, enumerate_trees, sample_tree, tree_probability
from wildsim.weights import (
    WeightArray,
    expected_sum_closed_form,
    legendre_value,
    partition_parameters,
    symmetric_function_bound,
)

CHERRY = McKeanTree(LEAF, LEAF)


def leaf_weights(tree, phis, k=1):
    """The engine's order-k leaf weights of one tree, angles in level order;
    phis may carry a trailing axis of N draws, shape (n - 1, N), for weights
    of shape (n, N) (the record keeps the first draw's angles; `grow` reads
    only the factors)."""
    phis = np.asarray(phis, dtype=float)
    record = tree_record(tree, phis if phis.ndim == 1 else phis[:, 0])
    c, s = np.cos(phis), np.sin(phis)
    root = np.ones(phis.shape[1:])
    return WeightArray(grow(record, legendre_value(k, c), legendre_value(k, s), root), k)


def test_legendre_recurrence_matches_numpy():
    x = np.linspace(-1, 1, 41)
    for k in range(7):
        coeffs = np.zeros(k + 1)
        coeffs[k] = 1.0
        np.testing.assert_allclose(
            legendre_value(k, x), np.polynomial.legendre.legval(x, coeffs), atol=1e-13
        )


def test_leaf_weights_base_cases():
    for k in (1, 2, 3, 5):
        np.testing.assert_allclose(leaf_weights(LEAF, [], k).values, [1.0])

    order1 = leaf_weights(CHERRY, [math.pi / 3], k=1)
    np.testing.assert_allclose(order1.values, [0.5, math.sqrt(3) / 2], atol=1e-15)
    assert np.sum(order1.values**2) == pytest.approx(1.0, abs=1e-15)

    order2 = leaf_weights(CHERRY, [math.pi / 2], k=2)
    np.testing.assert_allclose(order2.values, [-0.5, 1.0], atol=1e-15)


def test_general_order_reduces_to_bespoke_forms():
    # order 1, 2, 3 must equal the cos/sin, (3c^2-1)/2 and (5c^2-3)c/2 cascades
    rng = np.random.default_rng(42)
    for _ in range(30):
        n = int(rng.integers(2, 10))
        tree = sample_tree(n, rng)
        phis = rng.uniform(0.0, math.pi, n - 1)
        [(_, recursive_phis, _, _)] = cascade_trees(tree_record(tree, phis))

        def bespoke(tree, phis, fc, fs):
            if tree.is_leaf:
                return [1.0]
            c, s = math.cos(phis[-1]), math.sin(phis[-1])
            n_l = tree.left.leaf_count
            left = bespoke(tree.left, phis[: n_l - 1], fc, fs)
            right = bespoke(tree.right, phis[n_l - 1 : -1], fc, fs)
            return [v * fc(c, s) for v in left] + [v * fs(c, s) for v in right]

        forms = {
            1: (lambda c, s: c, lambda c, s: s),
            2: (lambda c, s: 1.5 * c * c - 0.5, lambda c, s: 1.5 * s * s - 0.5),
            3: (lambda c, s: (2.5 * c * c - 1.5) * c, lambda c, s: (2.5 * s * s - 1.5) * s),
        }
        for k, (fc, fs) in forms.items():
            np.testing.assert_allclose(
                leaf_weights(tree, phis, k).values,
                bespoke(tree, recursive_phis, fc, fs),
                atol=1e-12,
            )


def test_sum_of_squares_is_one_and_magnitudes_bounded():
    rng = np.random.default_rng(1)
    for _ in range(300):
        n = int(rng.integers(1, 257))
        tree = sample_tree(n, rng)
        phis = rng.uniform(0.0, math.pi, n - 1)
        for k in (1, 2, 3, 4):
            arr = leaf_weights(tree, phis, k)
            assert np.max(np.abs(arr.values)) <= 1.0 + 1e-12
        pi = leaf_weights(tree, phis, 1)
        assert np.sum(pi.values**2) == pytest.approx(1.0, abs=1e-10)


def test_w_statistic():
    # W = sum_j w_j^4 of the order-1 weights
    assert np.sum(leaf_weights(LEAF, [], 1).values**4) == 1.0
    quarter = leaf_weights(CHERRY, [math.pi / 4], 1)
    assert np.sum(quarter.values**4) == pytest.approx(0.5, abs=1e-14)
    # 1/n <= W <= 1 on random draws
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(1, 64))
        pi = leaf_weights(sample_tree(n, rng), rng.uniform(0, math.pi, n - 1), 1)
        w = np.sum(pi.values**4)
        assert 1.0 / n - 1e-12 <= w <= 1.0 + 1e-12
    # and the reduction's W, grown from w^2 alone, per cascade of a chunk
    nus = np.array([63, 20, 5, 2, 1])
    w = weight_sums(nus, rng_stream(2), kernel=make_kernel("xabs"), s_powers=())["W"]
    assert np.all((1.0 / nus - 1e-12 <= w) & (w <= 1.0 + 1e-12))
    assert w[-1] == 1.0


def test_expected_sum_closed_form_small_cases():
    assert expected_sum_closed_form(0.37, n=1) == 1.0
    assert expected_sum_closed_form(1.0 / 3.0, n=2) == pytest.approx(2.0 / 3.0, abs=1e-15)
    # at alpha = 0 everything beyond n = 1 vanishes
    assert expected_sum_closed_form(0.0, n=1) == 1.0
    for n in (2, 3, 7):
        assert expected_sum_closed_form(0.0, n=n) == 0.0
    # time-mixed value, exp(rate t) with the rate 2 alpha - 1 of KernelFunctionals.rates
    fn = KernelFunctionals(lambda_b=-0.5, l_s_table={1: 0.4, 2: 0.5}, f_b=0.5, g_b=0.5,
                           a4_table={})
    assert math.exp(fn.rates["abs_pow_1"] * 2.0) == pytest.approx(math.exp(-0.4), abs=1e-15)
    assert math.exp(fn.rates["abs_pow_2"] * 3.0) == 1.0


def test_expected_sum_matches_gamma_ratio():
    # off the integer branch: a_n = Gamma(n + 2a - 1) / (Gamma(n) Gamma(2a))
    for alpha in (0.15, 0.4, 0.77):
        for n in (1, 2, 5, 11):
            gamma_form = math.exp(
                gammaln(n + 2 * alpha - 1) - gammaln(n) - gammaln(2 * alpha)
            )
            assert expected_sum_closed_form(alpha, n=n) == pytest.approx(
                gamma_form, rel=1e-12
            )


def test_conditional_mean_over_fixed_sizes():
    # average of sum_j |pi_j|^3 over shapes (chain-weighted) and angle draws
    # follows the one-dimensional recursion with alpha = l_3
    kernel = make_kernel("xabs")
    l3 = spectral_functionals(kernel).l_s_table[3]
    assert l3 == pytest.approx(0.4, abs=1e-10)
    rng = np.random.default_rng(99)
    draws = 10_000
    for n in (2, 3, 4):
        total, var_total = 0.0, 0.0
        for tree in enumerate_trees(n):
            phis = kernel.inverse_beta_cdf(rng.random((draws, n - 1)))
            # one grow over the draws: weights of shape (n, draws)
            vals = np.sum(np.abs(leaf_weights(tree, phis.T, 1).values) ** 3, axis=0)
            p = float(tree_probability(tree))
            total += p * vals.mean()
            var_total += p * p * vals.var(ddof=1) / draws
        expected = expected_sum_closed_form(l3, n=n)
        assert abs(total - expected) < 4.0 * math.sqrt(var_total)


def test_partition_parameters():
    r, a_star = partition_parameters(2.0)
    assert r == 11
    assert a_star == pytest.approx(1.0 / (2**11 * math.factorial(11)))
    assert partition_parameters(0.5)[0] == 44


def test_symmetric_bound_three_equal_weights():
    report = symmetric_function_bound([1 / 3] * 3, r=2, a_star=1 / 3, k_max=3)
    assert report.hypothesis_met
    assert report.elementary[2] == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert report.lower_bounds[1] == pytest.approx(0.5 - 2.0 / 3.0)
    assert report.bound_holds.all()


def test_symmetric_bound_degenerate_single_weight():
    report = symmetric_function_bound([1.0], r=1, a_star=0.5, k_max=4)
    assert not report.hypothesis_met          # N_2 = 1 > a_star
    np.testing.assert_allclose(report.elementary[2:], 0.0, atol=1e-14)
    assert report.bound_holds.all()           # vacuously: nothing asserted


def test_symmetric_bound_uniform_thirty():
    report = symmetric_function_bound([1 / 30] * 30, r=3, a_star=1 / 30, k_max=5)
    assert report.hypothesis_met
    assert report.bound_holds.all()
    assert report.product_bound_checked
    assert report.product_bound_holds


def test_symmetric_bound_requires_normalization():
    with pytest.raises(NotNormalized):
        symmetric_function_bound([0.5, 0.4], r=2, a_star=0.5)
