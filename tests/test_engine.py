"""Property tests of the lockstep cascade engine against per-cascade
recursions over the same trees and the tree-based references."""

import json
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golden import GOLDEN, VALUE_TOL, add_missing, drift, engine_digests, engine_values
from oracles import cascade_trees, collide, is_rotation, leaf_weights, rotation_array
from wildsim.diagnostics import _fourth_moment_task, _velocity_moments_task
from wildsim.geometry import frame_for, left_frame, right_frame
from wildsim.initial import sixpoint_datum
from wildsim.kernel import make_kernel
from wildsim.sampler import (
    LEAF_BUDGET,
    chunk_slices,
    deflection,
    germination_record,
    grow,
    leaf_frames,
    replay,
    rng_stream,
    sorted_sizes,
    tree_record,
)
from wildsim.tree import ENUMERATION_LIMIT, enumerate_trees, tree_probability
from wildsim.weights import legendre_value

KERNEL = make_kernel("xabs")
SIXPOINT = sixpoint_datum()

seeds = st.integers(0, 2**32 - 1)
chunk_sizes = st.integers(1, 40)
times = st.floats(0.0, 3.0)


def chunk(seed, size, t):
    rng = rng_stream(seed)
    nus, _ = sorted_sizes(t, rng, size)
    return germination_record(nus, KERNEL, rng), rng


def top_down(tree, phis, thetas, value, factors):
    """Leaf values of one cascade, composing factors(v, phi, theta) from the
    root down; angles in `cascade_trees` order."""
    if tree.is_leaf:
        return [value]
    n_l = tree.left.leaf_count
    left, right = factors(value, phis[-1], thetas[-1])
    return (top_down(tree.left, phis[:n_l - 1], thetas[:n_l - 1], left, factors)
            + top_down(tree.right, phis[n_l - 1:-1], thetas[n_l - 1:-1], right, factors))


def fold(tree, phis, thetas, velocities, merge):
    """Root velocity of one cascade, merging subtrees with merge(v, w, phi, theta)."""
    if tree.is_leaf:
        return velocities[0]
    n_l = tree.left.leaf_count
    v = fold(tree.left, phis[:n_l - 1], thetas[:n_l - 1], velocities[:n_l], merge)
    w = fold(tree.right, phis[n_l - 1:-1], thetas[n_l - 1:-1], velocities[n_l:], merge)
    return merge(v, w, phis[-1], thetas[-1])


def scalar_collide(v, w, phi, theta):
    return collide(v, w, phi, theta)[0]


def vector_collide(v, w, phi, theta):
    """The vectorised `collide` on one-column arrays, as `replay` calls it."""
    return collide(v[:, None], w[:, None], np.array([phi]), np.array([theta]))[0][:, 0]


@settings(max_examples=40, deadline=None)
@given(seeds, chunk_sizes, times)
def test_weights_match_loop_and_stay_normalized(seed, size, t):
    record, _ = chunk(seed, size, t)
    weights, _ = leaf_frames(record)
    assert np.all(np.abs(record.per_cascade(weights**2) - 1.0) < 1e-10)
    cos_p, sin_p = np.cos(record.phis), np.sin(record.phis)
    for k in (2, 3):
        grown = grow(record, legendre_value(k, cos_p), legendre_value(k, sin_p), 1.0)
        for j, (tree, phis, _, _) in enumerate(cascade_trees(record)):
            start = record.offsets[j]
            np.testing.assert_allclose(grown[start:start + record.nus[j]],
                                       leaf_weights(tree, phis, k).values,
                                       rtol=0.0, atol=1e-14)
    for j, (tree, phis, thetas, _) in enumerate(cascade_trees(record)):
        pis = top_down(tree, phis, thetas, 1.0,
                       lambda w, phi, _: (w * math.cos(phi), w * math.sin(phi)))
        start = record.offsets[j]
        assert np.array_equal(weights[start:start + record.nus[j]], pis)
        assert np.array_equal(pis, leaf_weights(tree, phis, 1).values)


@settings(max_examples=40, deadline=None)
@given(seeds, chunk_sizes, times)
def test_frames_match_loop_and_are_rotations(seed, size, t):
    record, _ = chunk(seed, size, t)
    _, rotations = leaf_frames(record)
    assert all(is_rotation(q) for q in rotations.rotations)
    for j, (tree, phis, thetas, _) in enumerate(cascade_trees(record)):
        rots = top_down(tree, phis, thetas, np.eye(3), lambda q, phi, theta: (
            q @ left_frame(phi, theta), q @ right_frame(phi, theta)))
        start = record.offsets[j]
        ours = rotations.rotations[start:start + record.nus[j]]
        np.testing.assert_allclose(ours, rots, rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(ours, rotation_array(tree, phis, thetas).rotations,
                                   rtol=0.0, atol=1e-14)


@settings(max_examples=40, deadline=None)
@given(seeds, chunk_sizes, times)
def test_replay_matches_pairwise_loop(seed, size, t):
    record, rng = chunk(seed, size, t)
    velocities = SIXPOINT.sampler(rng, record.n_leaves)
    roots = replay(record, velocities)
    for j, (tree, phis, thetas, leaves) in enumerate(cascade_trees(record)):
        values = [tuple(map(float, v)) for v in velocities[leaves]]
        root = fold(tree, phis, thetas, values, scalar_collide)
        np.testing.assert_allclose(roots[j], root, rtol=0.0, atol=1e-12)


def recursive_replay(record, velocities):
    """Reference backward pass: each cascade folded recursively, one
    vectorised `collide` per node."""
    return np.array([fold(tree, phis, thetas, velocities[leaves], vector_collide)
                     for tree, phis, thetas, leaves in cascade_trees(record)])


@settings(max_examples=30, deadline=None)
@given(seeds, st.integers(1, 12), st.floats(0.0, 5.0))
def test_replay_equals_recursive_fold(seed, size, t):
    record, rng = chunk(seed, size, t)
    velocities = SIXPOINT.sampler(rng, record.n_leaves)
    assert np.array_equal(replay(record, velocities), recursive_replay(record, velocities))


@pytest.mark.parametrize("nus", [
    [1, 1, 1],                       # t = 0: no nodes
    [300, 120, 7, 2, 1, 1, 1],       # nu = 1 beside long cascades
    [LEAF_BUDGET + 500],             # one cascade above the leaf budget
])
def test_replay_equals_recursive_fold_on_fixed_sizes(nus):
    rng = rng_stream(11, len(nus))
    record = germination_record(nus, KERNEL, rng)
    velocities = SIXPOINT.sampler(rng, record.n_leaves)
    assert np.array_equal(replay(record, velocities), recursive_replay(record, velocities))


def test_replay_ignores_the_sign_of_zero():
    """Leaf velocities that differ only in the signs of their zeros replay
    to equal roots: the completion reads the value of z(w - v), not its
    sign bit.  Each sixpoint atom has two zero components."""
    rng = rng_stream(3)
    nus, _ = sorted_sizes(1.0, rng, 2000)
    record = germination_record(nus, KERNEL, rng)
    velocities = SIXPOINT.sampler(rng, record.n_leaves)
    negated = np.where(velocities == 0.0, -0.0, velocities)
    assert np.signbit(negated[negated == 0.0]).all()
    assert np.array_equal(replay(record, velocities), replay(record, negated))


@settings(max_examples=30, deadline=None)
@given(seeds, st.integers(1, 40), st.floats(1e-3, 1e3))
def test_mirrored_root_is_the_collision_at_the_opposite_azimuth(seed, pairs, scale):
    rng = rng_stream(seed)
    record = germination_record([2] * pairs + [1, 1], KERNEL, rng)
    velocities = scale * rng.standard_normal((record.n_leaves, 3))
    velocities[1] = velocities[0]  # an identical pair passes through unchanged
    roots, mirrored = replay(record, velocities, images=True)[:2]
    assert np.array_equal(roots, replay(record, velocities))
    v, w = velocities[0:2 * pairs:2].T, velocities[1:2 * pairs:2].T
    opposite = collide(v, w, record.phis, record.thetas + math.pi)[0].T
    np.testing.assert_allclose(mirrored[:pairs], opposite, rtol=0.0, atol=1e-12 * scale)
    assert np.array_equal(mirrored[0], velocities[0])
    assert np.array_equal(mirrored[pairs:], velocities[2 * pairs:])  # nu = 1: the leaf


def swapped(record, nodes, thetas):
    """The record with the children of `nodes` swapped and their azimuths
    set to thetas."""
    children, azimuths = record.children.copy(), record.thetas.copy()
    children[nodes] = children[nodes, ::-1]
    azimuths[nodes] = thetas
    return replace(record, children=children, thetas=azimuths)


def collision_inputs(record, velocities, nodes):
    """The (left, right) input velocities of the collisions at `nodes`, as
    (3, k) blocks: plain replays gathered at the children's slots."""
    return tuple(replay(replace(record, roots=slots[nodes]), velocities).T
                 for slots in (record.left, record.right))


def swapped_azimuths(v, w, thetas):
    """The azimuths at which w colliding with v has first outgoing velocity
    w - delta, delta the deflection of v by w at thetas: with
    u = (w - v) / |w - v|, the azimuth that turns the transverse unit e of
    frame_for(u) into -e in frame_for(-u), so omega becomes -omega.  A
    pair with w = v keeps its azimuth (delta = 0 at any)."""
    d = (w - v).T
    norm = np.linalg.norm(d, axis=1, keepdims=True)
    u = d / np.where(norm > 0.0, norm, 1.0)
    plain, turned = frame_for(u), frame_for(-u)
    e = np.cos(thetas)[:, None] * plain[..., 0] + np.sin(thetas)[:, None] * plain[..., 1]
    out = np.arctan2(-np.sum(e * turned[..., 1], axis=1), -np.sum(e * turned[..., 0], axis=1))
    return np.where(norm[:, 0] > 0.0, out, thetas)


def plain_images(record, velocities):
    """The 16 root images of `replay(..., images=True)` from 16 plain
    replays, and the root collisions' four input pairs (v, w): image
    8 o + 2 p + h replays the record with the children swapped, each
    swapped node at its `swapped_azimuths`, at the root's children that
    split for bit 0 (left) and bit 1 (right) of p, at the root for o = 1,
    and with pi added to the root azimuth for h = 1."""
    n, bounds = record.n_leaves, record.bounds
    roots = np.arange(bounds[1] if len(bounds) > 1 else 0)  # the root nodes
    images, pairs = np.empty((16, len(record.nus), 3)), []
    for p in range(4):
        tree = record
        for bit, slots in ((1, record.left[roots]), (2, record.right[roots])):
            nodes = slots[slots >= n] - n
            if p & bit:
                thetas = swapped_azimuths(*collision_inputs(tree, velocities, nodes),
                                          tree.thetas[nodes])
                tree = swapped(tree, nodes, thetas)
        v, w = collision_inputs(tree, velocities, roots)
        pairs.append((v, w))
        for o in range(2):
            image = swapped(tree, roots, swapped_azimuths(v, w, tree.thetas[roots])) if o else tree
            for h in range(2):
                thetas = image.thetas.copy()
                thetas[roots] += h * math.pi
                images[8 * o + 2 * p + h] = replay(replace(image, thetas=thetas), velocities)
    return images, pairs


@settings(max_examples=30, deadline=None)
@given(seeds, chunk_sizes, times)
def test_image_velocity_statistics_average_sixteen_plain_replays(seed, size, t):
    """The image estimator against the plain one: `replay`'s 16 root
    images are plain replays of the record with children swapped at the
    root and at its children and with pi added to the root azimuth
    (`plain_images`), on the same leaf velocities; each statistic is their
    mean, and so is each controlled statistic, given a fourth- and a
    sixth-moment mean mu4 and mu6."""
    nus, _ = sorted_sizes(t, rng_stream(seed), size)
    probe = np.array([0.6, 0.0, 0.8])
    stats = {**_velocity_moments_task(nus, rng_stream(seed, 1), SIXPOINT, KERNEL),
             **_fourth_moment_task(nus, rng_stream(seed, 1), SIXPOINT, KERNEL, probe)}
    mu4, mu6 = 13.0, 41.0
    controlled = _velocity_moments_task(nus, rng_stream(seed, 1), SIXPOINT, KERNEL, mu4, mu6)
    rng = rng_stream(seed, 1)
    record = germination_record(nus, KERNEL, rng)
    velocities = SIXPOINT.sampler(rng, record.n_leaves)
    images, _ = plain_images(record, velocities)
    np.testing.assert_allclose(replay(record, velocities, images=True), images, rtol=1e-12,
                               atol=1e-12)
    expected = {"v1": images[..., 0], "v2": images[..., 1], "v3": images[..., 2],
                "energy": np.sum(images**2, axis=-1), "v1_fourth": (images @ probe) ** 4}
    assert stats.keys() == expected.keys()
    for key, values in expected.items():
        np.testing.assert_allclose(stats[key], values.mean(axis=0), rtol=1e-12, atol=1e-12,
                                   err_msg=key)
    m2 = SIXPOINT.m2
    square = expected["energy"]
    expected = {key: expected[key] * (1.0 - 6.0 * square / (7.0 * m2)
                                      + square**2 / (7.0 * m2 * m2))
                for key in ("v1", "v2", "v3")}
    expected["energy"] = (square - 25.0 * (square**2 - mu4) / (51.0 * m2)
                          + (square**3 - mu6) / (17.0 * m2 * m2))
    assert controlled.keys() == expected.keys()
    for key, values in expected.items():
        np.testing.assert_allclose(controlled[key], values.mean(axis=0), rtol=1e-12,
                                   atol=1e-12, err_msg=key)


@settings(max_examples=30, deadline=None)
@given(seeds, chunk_sizes, times)
def test_root_images_conserve_momentum_and_energy(seed, size, t):
    """For each of the root collision's four input pairs (v, w), its two
    outgoing velocities v' and w' (images 2 p + h and 8 + 2 p + h) keep
    v' + w' = v + w and |v'|^2 + |w'|^2 = |v|^2 + |w|^2, at the root
    azimuth and at its half-turn."""
    record, rng = chunk(seed, size, t)
    velocities = SIXPOINT.sampler(rng, record.n_leaves)
    images = replay(record, velocities, images=True)
    _, pairs = plain_images(record, velocities)
    for p, (v, w) in enumerate(pairs):
        k = v.shape[1]  # the cascades that split
        for h in range(2):
            first, second = images[2 * p + h, :k], images[8 + 2 * p + h, :k]
            np.testing.assert_allclose(first + second, (v + w).T, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(np.sum(first**2 + second**2, axis=1),
                                       np.sum(v**2 + w**2, axis=0), rtol=0.0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(seeds, chunk_sizes, times)
def test_leaf_ranges_tile_each_cascade(seed, size, t):
    record, _ = chunk(seed, size, t)
    assert len(record.phis) == record.n_leaves - size
    for j, (tree, _, _, leaves) in enumerate(cascade_trees(record)):
        start = record.offsets[j]
        assert tree.leaf_count == record.nus[j]
        assert leaves == list(range(start, start + record.nus[j]))


def test_tree_record_round_trip():
    """The record of every enumerated shape decodes back to that shape, its
    angles taken in level order, left child before right."""
    for n in range(1, ENUMERATION_LIMIT + 1):
        for tree in enumerate_trees(n):
            phis = np.arange(n - 1, dtype=float)
            record = tree_record(tree, phis)
            assert record.nus.tolist() == [n] and record.thetas is None
            assert np.array_equal(record.phis, phis)
            [(decoded, _, _, leaves)] = cascade_trees(record)
            assert decoded == tree and leaves == list(range(n))
            level, order = [tree] if n > 1 else [], []
            while level:
                order += [node.encode() for node in level]
                level = [child for node in level for child in node.split()
                         if not child.is_leaf]
            assert [node_shape(record, n + k) for k in range(n - 1)] == order


def node_shape(record, slot):
    """Encoded subtree below a record slot."""
    if slot < record.n_leaves:
        return "."
    k = slot - record.n_leaves
    return f"({node_shape(record, record.left[k])}{node_shape(record, record.right[k])})"


@pytest.mark.parametrize("nu", [4, 5, 6])
def test_record_shapes_follow_the_exact_law(nu):
    draws = 30_000
    record = germination_record(np.full(draws, nu), KERNEL, rng_stream(19, nu))
    counts = Counter(tree for tree, _, _, _ in cascade_trees(record))
    shapes = enumerate_trees(nu)
    assert set(counts) <= set(shapes)
    for shape in shapes:
        p = float(tree_probability(shape))
        z = (counts[shape] - draws * p) / math.sqrt(draws * p * (1.0 - p))
        assert abs(z) <= 4.0, (shape, counts[shape], draws * p)


@settings(max_examples=40, deadline=None)
@given(seeds, st.integers(1, 64), st.floats(1e-3, 1e3))
def test_vectorised_collide_conserves_each_pair(seed, pairs, scale):
    rng = rng_stream(seed)
    v = scale * rng.standard_normal((3, pairs))
    w = scale * rng.standard_normal((3, pairs))
    v_out, w_out = collide(v, w, rng.uniform(0.0, math.pi, pairs),
                           rng.uniform(0.0, 2.0 * math.pi, pairs))
    assert v_out.shape == w_out.shape == (3, pairs)
    energy_in = np.sum(v * v + w * w, axis=0)
    energy_out = np.sum(v_out * v_out + w_out * w_out, axis=0)
    momentum_scale = np.maximum(1.0, np.sqrt(energy_in))
    assert np.all(np.abs(v_out + w_out - v - w) < 1e-12 * momentum_scale)
    assert np.all(np.abs(energy_out - energy_in) < 1e-12 * np.maximum(1.0, energy_in))


@settings(max_examples=20, deadline=None)
@given(seeds, chunk_sizes)
def test_zero_time_returns_the_initial_draw(seed, size):
    record, rng = chunk(seed, size, 0.0)
    assert record.n_leaves == size and len(record.phis) == 0
    weights, rotations = leaf_frames(record)
    assert np.array_equal(weights, np.ones(size))
    assert np.array_equal(rotations.rotations, np.broadcast_to(np.eye(3), (size, 3, 3)))
    velocities = SIXPOINT.sampler(rng, size)
    assert np.array_equal(replay(record, velocities), velocities)


def test_identical_pairs_pass_through_unchanged():
    v = np.array([[1.0, -0.5], [2.0, 0.0], [3.0, 4.0]])
    v_out, w_out = collide(v, v.copy(), np.array([1.0, 2.5]), np.array([2.0, 0.1]))
    assert np.array_equal(v_out, v) and np.array_equal(w_out, v)


def test_deflection_of_one_pair_equals_its_column_of_an_array_call():
    """`deflection` on Python floats and on 0-d arrays gives, bit for bit,
    the columns of one call over (3, k) arrays: random pairs, pairs whose
    z components are zeros of either sign, identical pairs (d = 0) and
    pairs that differ only in the sign of a zero z (d = (0, 0, -0)), whose
    delta_z is -0 unless dz is read as +0."""
    rng = rng_stream(17)
    v = rng.standard_normal((3, 14))
    w = rng.standard_normal((3, 14))
    phis = rng.uniform(0.0, math.pi, 14)
    thetas = rng.uniform(0.0, 2.0 * math.pi, 14)
    v[2, 4:8] = [0.0, -0.0, 0.0, -0.0]
    w[2, 4:8] = [-0.0, 0.0, 0.0, -0.0]
    w[:, 8:] = v[:, 8:]
    v[2, 10], w[2, 10] = -0.0, -0.0
    v[2, 11:], w[2, 11:] = 0.0, -0.0
    phis[11:], thetas[11:] = [1.0, 2.5, 2.0], [2.0, 5.5, 0.5]
    block = np.array(deflection(v, w, phis, thetas))
    assert block.shape == (3, 14)
    for j in range(14):
        floats = deflection(v[:, j].tolist(), w[:, j].tolist(), float(phis[j]), float(thetas[j]))
        zero_d = deflection([np.array(x) for x in v[:, j]], [np.array(x) for x in w[:, j]],
                            np.array(phis[j]), np.array(thetas[j]))
        for single in (floats, zero_d):
            assert np.array_equal(np.array(single), block[:, j])
            assert np.array_equal(np.signbit(single), np.signbit(block[:, j]))
    assert np.array_equal(block[:, 8:], np.zeros((3, 6)))
    assert not np.signbit(block[:, 8:]).any()


def test_engine_golden_values():
    """Records, angle lookups and initial-law draws at pinned seeds hash to
    the digests frozen in engine_golden.json, and replays and weight
    reductions, which pass through tan, match its values to VALUE_TOL
    (tests/golden.py regenerates it, for a change meant to move them)."""
    frozen = json.loads(GOLDEN.read_text())
    assert engine_digests() == frozen["digests"]
    values = engine_values()
    assert values.keys() == frozen["values"].keys()
    for key, value in values.items():
        np.testing.assert_allclose(value, frozen["values"][key], rtol=VALUE_TOL,
                                   atol=VALUE_TOL, err_msg=key)


def test_golden_tool_adds_only_missing_keys_and_reports_drift():
    frozen = {"commit": "old", "digests": {"a": "x"}, "values": {"v": [1.0], "u": [2.0]}}
    computed = {"digests": {"a": "changed", "b": "y"},
                "values": {"v": [1.5], "u": [2.0 + 1e-15], "w": [3.0]}}
    assert add_missing(frozen, computed, "new") == ["digests/b", "values/w"]
    # existing entries stay as they were, even where the engine moved them
    assert frozen == {"commit": "old", "digests": {"a": "x", "b": "y"},
                      "values": {"v": [1.0], "u": [2.0], "w": [3.0]},
                      "commits": {"digests/b": "new", "values/w": "new"}}
    failed = {name: fails for name, fails, _ in drift(frozen, computed)}
    assert failed == {"digests/a": True, "digests/b": False, "values/u": False,
                      "values/v": True, "values/w": False}
    del computed["values"]["w"]
    assert dict((name, fails) for name, fails, _ in drift(frozen, computed))["values/w"]


@pytest.mark.parametrize("t", [0.5, 2.0])
def test_chunks_respect_the_leaf_budget(t):
    nus, order = sorted_sizes(t, rng_stream(3), 20_000)
    assert np.all(np.diff(nus) <= 0) and sorted(order) == list(range(20_000))
    slices = chunk_slices(nus)
    assert slices[0].start == 0 and slices[-1].stop == len(nus)
    for before, after in zip(slices, slices[1:]):
        assert before.stop == after.start
    for s in slices:
        assert nus[s].sum() <= LEAF_BUDGET or s.stop - s.start == 1
