"""Tree growth, depths, shape probabilities and exhaustive oracles."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from wildsim.errors import IndexOutOfRange, SplitOfLeaf, TooLarge
from wildsim.tree import (
    LEAF,
    McKeanTree,
    chain_distribution,
    enumerate_trees,
    sample_tree,
    tree_probability,
)


def comb(n):
    tree = LEAF
    for _ in range(n - 1):
        tree = McKeanTree(tree, LEAF)
    return tree


def test_germinate_single_leaf():
    assert LEAF.germinate(1) == McKeanTree(LEAF, LEAF)
    with pytest.raises(IndexOutOfRange):
        LEAF.germinate(2)


def test_germinate_depths():
    cherry = LEAF.germinate(1)
    assert cherry.germinate(1).depths() == (2, 2, 1)
    assert comb(4).depths() == (3, 3, 2, 1)


def test_germinate_is_local():
    base = McKeanTree(McKeanTree(LEAF, LEAF), LEAF)
    grown = base.germinate(3)
    assert grown.left == base.left
    assert grown.right == McKeanTree(LEAF, LEAF)


def test_germination_depth_relations():
    # germinating leaf k bumps depths at k and k+1 and shifts later leaves
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        tree = sample_tree(n, rng)
        k = int(rng.integers(1, n + 1))
        before, after = tree.depths(), tree.germinate(k).depths()
        for j in range(1, k):
            assert after[j - 1] == before[j - 1]
        assert after[k - 1] == before[k - 1] + 1
        assert after[k] == before[k - 1] + 1
        for j in range(k + 2, n + 2):
            assert after[j - 1] == before[j - 2]


def test_split_and_depths():
    cherry = McKeanTree(LEAF, LEAF)
    left, right = cherry.split()
    assert left is LEAF and right is LEAF
    assert cherry.depths() == (1, 1)
    with pytest.raises(SplitOfLeaf):
        LEAF.split()
    assert LEAF.depths() == (0,)


@pytest.mark.parametrize("n", range(1, 9))
def test_kraft_equality(n):
    for tree in enumerate_trees(n):
        assert sum(Fraction(1, 2**d) for d in tree.depths()) == 1


def test_tree_probability_small_cases():
    assert tree_probability(McKeanTree(LEAF, LEAF)) == 1
    for tree in enumerate_trees(3):
        assert tree_probability(tree) == Fraction(1, 2)
    assert tree_probability(comb(4)) == Fraction(1, 6)


@pytest.mark.parametrize("n", [2, 4, 5])
def test_enumeration_counts_and_total_mass(n):
    shapes = enumerate_trees(n)
    assert len(shapes) == math.comb(2 * (n - 1), n - 1) // n  # Catalan(n-1)
    assert len(set(shapes)) == len(shapes)
    assert sum(tree_probability(t) for t in shapes) == 1


def test_enumeration_limit():
    with pytest.raises(TooLarge):
        enumerate_trees(9)


@pytest.mark.parametrize("n", range(1, 7))
def test_recursion_matches_chain_enumeration_exactly(n):
    chain = chain_distribution(n)
    assert set(chain) == set(enumerate_trees(n))
    for tree, prob in chain.items():
        assert prob == tree_probability(tree)


def test_sampler_matches_probabilities_n3():
    rng = np.random.default_rng(11)
    draws = 100_000
    hits = sum(sample_tree(3, rng) == McKeanTree(McKeanTree(LEAF, LEAF), LEAF)
               for _ in range(draws))
    se = math.sqrt(0.25 / draws)
    assert abs(hits / draws - 0.5) < 3 * se


@pytest.mark.parametrize("n", [4, 6])
def test_sampler_chi_square(n):
    rng = np.random.default_rng(n)
    draws = 100_000
    counts = {tree: 0 for tree in enumerate_trees(n)}
    for _ in range(draws):
        counts[sample_tree(n, rng)] += 1
    chi2 = sum(
        (counts[t] - draws * float(tree_probability(t))) ** 2
        / (draws * float(tree_probability(t)))
        for t in counts
    )
    threshold = stats.chi2.ppf(1 - 1e-3, df=len(counts) - 1)
    assert chi2 < threshold


@pytest.mark.parametrize("alpha", [0.25, 1.0 / 3.0, 0.5])
def test_depth_sum_mean_recursion(alpha):
    # (1/n) sum_k A(n+1, grown_k) = (1 + (2a-1)/n) A(n, tree)
    # for A(n, tree) = sum_j alpha^depth_j
    def stat(tree):
        return sum(alpha**d for d in tree.depths())

    for n in range(1, 7):
        for tree in enumerate_trees(n):
            grown_mean = sum(stat(tree.germinate(k)) for k in range(1, n + 1)) / n
            assert grown_mean == pytest.approx(
                (1 + (2 * alpha - 1) / n) * stat(tree), abs=1e-12
            )


def test_encode_decode_roundtrip():
    assert McKeanTree(McKeanTree(LEAF, LEAF), LEAF).encode() == "((..).)"
    rng = np.random.default_rng(3)
    for _ in range(25):
        tree = sample_tree(int(rng.integers(1, 12)), rng)
        assert McKeanTree.decode(tree.encode()) == tree


def test_trees_are_immutable():
    # an assigned child would leave leaf_count and the cached probability stale
    tree = McKeanTree(McKeanTree(LEAF, LEAF), LEAF)
    with pytest.raises(dataclasses.FrozenInstanceError):
        tree.left = LEAF
    with pytest.raises(dataclasses.FrozenInstanceError):
        tree.leaf_count = 2
    assert tree.encode() == "((..).)" and tree.leaf_count == 3
    assert tree_probability(tree) == Fraction(1, 2)
