"""Recursive references the cascade engine is checked against.

Each function builds one cascade's leaf weights, leaf rotations,
child-swap average of a leaf sum (and the swapped trees it averages over)
or collision outcome by recursion over a `McKeanTree`, the way the paper
writes them down, independently of the level-by-level engine in
`wildsim.sampler`; `rotation_z` and `is_rotation` are the rotation helpers
the geometry checks share.  Angles are in recursive order: the last one
belongs to the root split, the first n_l - 1 to the left subtree, the
remainder to the right subtree (`cascade_trees` reads a record in this
order).
"""

import math

import numpy as np

from wildsim.geometry import RotationArray, collision_frames, left_frame, right_frame
from wildsim.sampler import deflection
from wildsim.tree import LEAF, McKeanTree
from wildsim.weights import WeightArray, legendre_value

E3 = np.array([0.0, 0.0, 1.0])
ROTATION_TOL = 1e-12


def rotation_z(alpha: float) -> np.ndarray:
    """The rotation by alpha about e3."""
    c, s = math.cos(alpha), math.sin(alpha)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def is_rotation(q: np.ndarray, tol: float = ROTATION_TOL) -> bool:
    """Whether q is a 3 x 3 special-orthogonal matrix to within tol."""
    q = np.asarray(q)
    if q.shape != (3, 3):
        return False
    ortho = float(np.max(np.abs(q.T @ q - np.eye(3))))
    return ortho < tol and abs(float(np.linalg.det(q)) - 1.0) < tol


def cascade_trees(record):
    """Per cascade, (McKeanTree, phis, thetas, leaves) by recursion over the
    record: angles in recursive order and leaf positions left to right
    (thetas is None when the record has none)."""
    n = record.n_leaves
    thetas = [None] * len(record.phis) if record.thetas is None else record.thetas

    def build(slot):
        if slot < n:
            return LEAF, [], [], [slot]
        k = slot - n
        left, l_phis, l_thetas, l_leaves = build(record.left[k])
        right, r_phis, r_thetas, r_leaves = build(record.right[k])
        return (McKeanTree(left, right), l_phis + r_phis + [record.phis[k]],
                l_thetas + r_thetas + [thetas[k]], l_leaves + r_leaves)

    return [build(int(root)) for root in record.roots]


def leaf_weights(tree: McKeanTree, phis, k: int = 1) -> WeightArray:
    """The order-k weight of every leaf, in left-to-right order."""
    phis = np.asarray(phis, dtype=float)
    assert phis.shape == (tree.leaf_count - 1,), (tree, phis.shape)
    out: list[float] = []
    _fill_weights(tree, phis, k, 1.0, out)
    return WeightArray(values=np.array(out), order=k)


def _fill_weights(tree, phis, k, factor, out):
    if tree.is_leaf:
        out.append(factor)
        return
    c, s = math.cos(phis[-1]), math.sin(phis[-1])
    n_l = tree.left.leaf_count
    _fill_weights(tree.left, phis[: n_l - 1], k, factor * float(legendre_value(k, c)), out)
    _fill_weights(tree.right, phis[n_l - 1 : -1], k, factor * float(legendre_value(k, s)), out)


def symmetrised_sum(tree: McKeanTree, phis, factor) -> float:
    """sum_j prod_{i in anc(j)} g_i over the leaves, averaged over every
    child swap of the tree, by S(leaf) = 1 and S(node) = h (S(left) + S(right)),
    h = (factor(cos phi) + factor(sin phi)) / 2 at the node's angle."""
    if tree.is_leaf:
        return 1.0
    n_l = tree.left.leaf_count
    h = (factor(math.cos(phis[-1])) + factor(math.sin(phis[-1]))) / 2.0
    return h * (symmetrised_sum(tree.left, phis[: n_l - 1], factor)
                + symmetrised_sum(tree.right, phis[n_l - 1 : -1], factor))


def swap_images(tree: McKeanTree, phis):
    """Every one of the 2^(n - 1) images (tree, phis) of a tree and its
    angles under swapping the two subtrees at any set of its nodes, each
    node keeping its angle; phis in recursive order, as lists."""
    if tree.is_leaf:
        yield tree, []
        return
    n_l = tree.left.leaf_count
    lefts = list(swap_images(tree.left, list(phis[: n_l - 1])))
    rights = list(swap_images(tree.right, list(phis[n_l - 1 : -1])))
    for left, l_phis in lefts:
        for right, r_phis in rights:
            yield McKeanTree(left, right), l_phis + r_phis + [phis[-1]]
            yield McKeanTree(right, left), r_phis + l_phis + [phis[-1]]


def rotation_array(tree: McKeanTree, phis, thetas) -> RotationArray:
    """The per-leaf rotations, composed recursively from the root split down.
    thetas may carry a trailing batch axis, shape (n - 1, N), giving
    rotations of shape (n, N, 3, 3) for n >= 2."""
    phis = np.asarray(phis, float)
    thetas = np.asarray(thetas, float)
    assert len(phis) == len(thetas) == tree.leaf_count - 1, (tree, phis.shape, thetas.shape)
    return RotationArray(rotations=np.array(_build_rotations(tree, phis, thetas)))


def _build_rotations(tree, phis, thetas):
    if tree.is_leaf:
        return [np.eye(3)]
    ml, mr = collision_frames(phis[-1], thetas[-1])
    n_l = tree.left.leaf_count
    left = _build_rotations(tree.left, phis[: n_l - 1], thetas[: n_l - 1])
    right = _build_rotations(tree.right, phis[n_l - 1 : -1], thetas[n_l - 1 : -1])
    return [ml @ q for q in left] + [mr @ q for q in right]


def path_product_rotation(tree: McKeanTree, phis, thetas, leaf_index: int) -> np.ndarray:
    """One leaf's rotation as an explicit ordered product of frames along
    the root-to-leaf path."""
    assert len(phis) == len(thetas) == tree.leaf_count - 1
    assert 0 <= leaf_index < tree.leaf_count
    # collect (side, global angle slot) pairs walking down, then multiply
    # in path order: the factor at the root stands leftmost
    path: list[tuple[str, int]] = []
    node, j, lo, hi = tree, leaf_index, 0, tree.leaf_count - 1
    while not node.is_leaf:
        n_l = node.left.leaf_count
        if j < n_l:
            path.append(("l", hi - 1))
            node, hi = node.left, lo + n_l - 1
        else:
            path.append(("r", hi - 1))
            node, j, lo, hi = node.right, j - n_l, lo + n_l - 1, hi - 1
    out = np.eye(3)
    for side, slot in path:
        frame = left_frame if side == "l" else right_frame
        out = out @ frame(phis[slot], thetas[slot])
    return out


def collide(v, w, phi, theta):
    """Post-collisional pair (v + delta, w - delta), delta = `deflection`,
    for incoming velocities v = (vx, vy, vz) and w = (wx, wy, wz), each
    output stacking its three components along axis 0."""
    gx, gy, gz = deflection(v, w, phi, theta)
    vx, vy, vz = v
    wx, wy, wz = w
    return np.array([vx + gx, vy + gy, vz + gz]), np.array([wx - gx, wy - gy, wz - gz])
