"""Binary collision trees and their growth chain.

Trees are full binary: every internal node has exactly two children, and
the n leaves carry their left-to-right index 1..n.  Growth is by
germination: a uniformly chosen leaf is replaced by a cherry (an internal
node with two fresh leaves), which drives the Markov chain underlying the
series weights

    p_1(leaf) = 1,    p_n(tree) = p(left) p(right) / (n - 1).

The chain started from a single leaf and run to n leaves hits each shape
with probability exactly p_n, so the recursion has an independent oracle in
`chain_distribution` (exhaustive path enumeration, exact rationals).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .errors import IndexOutOfRange, SplitOfLeaf, TooLarge

ENUMERATION_LIMIT = 8


@dataclass(frozen=True, slots=True)
class McKeanTree:
    """Immutable full binary tree with ordered leaves: frozen, so equality
    and hashing go by shape, and assigning a field raises FrozenInstanceError."""

    left: McKeanTree | None = None
    right: McKeanTree | None = None
    leaf_count: int = field(init=False)

    def __post_init__(self):
        if (self.left is None) != (self.right is None):
            raise ValueError("a node has either two children or none")
        count = 1 if self.left is None else self.left.leaf_count + self.right.leaf_count
        object.__setattr__(self, "leaf_count", count)

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def __repr__(self):
        return f"McKeanTree({self.encode()!r})"

    def encode(self) -> str:
        """Balanced-parenthesis text form: '.' is a leaf, '(LR)' a node."""
        if self.is_leaf:
            return "."
        return f"({self.left.encode()}{self.right.encode()})"

    @classmethod
    def decode(cls, text: str) -> "McKeanTree":
        tree, rest = cls._parse(text)
        if rest:
            raise ValueError(f"trailing characters in tree encoding: {rest!r}")
        return tree

    @classmethod
    def _parse(cls, text: str):
        if not text:
            raise ValueError("empty tree encoding")
        if text[0] == ".":
            return LEAF, text[1:]
        if text[0] != "(":
            raise ValueError(f"unexpected character {text[0]!r}")
        left, rest = cls._parse(text[1:])
        right, rest = cls._parse(rest)
        if not rest or rest[0] != ")":
            raise ValueError("unbalanced parentheses in tree encoding")
        return cls(left, right), rest[1:]

    def germinate(self, k: int) -> "McKeanTree":
        """Replace leaf k (1-based, left to right) by a cherry."""
        if not 1 <= k <= self.leaf_count:
            raise IndexOutOfRange(f"leaf {k} outside 1..{self.leaf_count}")
        if self.is_leaf:
            return McKeanTree(LEAF, LEAF)
        n_l = self.left.leaf_count
        if k <= n_l:
            return McKeanTree(self.left.germinate(k), self.right)
        return McKeanTree(self.left, self.right.germinate(k - n_l))

    def split(self) -> tuple["McKeanTree", "McKeanTree"]:
        if self.is_leaf:
            raise SplitOfLeaf("cannot split a single leaf")
        return self.left, self.right

    def depths(self) -> tuple[int, ...]:
        """Generations separating each leaf from the root, in leaf order."""
        if self.is_leaf:
            return (0,)
        return tuple(d + 1 for d in self.left.depths() + self.right.depths())


LEAF = McKeanTree()


def sample_tree(n: int, rng) -> McKeanTree:
    """Run the uniform-leaf germination chain from one leaf up to n."""
    if n < 1:
        raise IndexOutOfRange("tree size must be >= 1")
    tree = LEAF
    for size in range(1, n):
        tree = tree.germinate(int(rng.integers(1, size + 1)))
    return tree


@lru_cache(maxsize=None)
def tree_probability(tree: McKeanTree) -> Fraction:
    """Chain probability of the shape, as an exact Fraction."""
    if tree.is_leaf:
        return Fraction(1)
    return tree_probability(tree.left) * tree_probability(tree.right) / (tree.leaf_count - 1)


@lru_cache(maxsize=None)
def _enumerate(n: int) -> tuple[McKeanTree, ...]:
    if n == 1:
        return (LEAF,)
    shapes = []
    for n_l in range(1, n):
        for left in _enumerate(n_l):
            for right in _enumerate(n - n_l):
                shapes.append(McKeanTree(left, right))
    return tuple(shapes)


def enumerate_trees(n: int) -> list[McKeanTree]:
    """All shapes with n leaves (Catalan(n-1) of them), duplicate-free."""
    if n < 1:
        raise IndexOutOfRange("tree size must be >= 1")
    if n > ENUMERATION_LIMIT:
        raise TooLarge(f"enumeration supported only up to {ENUMERATION_LIMIT} leaves")
    return list(_enumerate(n))


def chain_distribution(n: int) -> dict[McKeanTree, Fraction]:
    """Exact law of the germination chain at n leaves, by path enumeration.

    Exponential in n; intended as the independent oracle for
    tree_probability at small sizes.
    """
    if n > ENUMERATION_LIMIT:
        raise TooLarge(f"path enumeration supported only up to {ENUMERATION_LIMIT} leaves")
    dist: dict[McKeanTree, Fraction] = {LEAF: Fraction(1)}
    for size in range(1, n):
        grown: dict[McKeanTree, Fraction] = defaultdict(Fraction)
        step = Fraction(1, size)
        for tree, mass in dist.items():
            for k in range(1, size + 1):
                grown[tree.germinate(k)] += mass * step
        dist = dict(grown)
    return dist
