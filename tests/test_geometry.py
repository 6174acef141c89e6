"""Rotation frames, cascade composition and the frame of a direction."""

import math

import numpy as np

from oracles import E3, ROTATION_TOL, is_rotation, path_product_rotation, rotation_array, rotation_z
from wildsim.geometry import collision_frames, frame_for
from wildsim.sampler import grow, tree_record
from wildsim.tree import LEAF, McKeanTree, sample_tree

CHERRY = McKeanTree(LEAF, LEAF)


def random_unit(rng, size=None):
    v = rng.standard_normal(3 if size is None else (size, 3))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def test_left_frame_fixes_e3_at_zero_angle():
    for theta in np.linspace(0.0, 2 * math.pi, 17):
        ml, _ = collision_frames(0.0, theta)
        np.testing.assert_allclose(ml @ E3, E3, atol=1e-15)


def test_frames_are_special_orthogonal():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        phi, theta = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
        ml, mr = collision_frames(phi, theta)
        assert is_rotation(ml) and is_rotation(mr)


def test_frame_third_columns():
    phi, theta = 0.7, 2.1
    ml, mr = collision_frames(phi, theta)
    np.testing.assert_allclose(
        ml @ E3,
        [math.cos(theta) * math.sin(phi), math.sin(theta) * math.sin(phi), math.cos(phi)],
        atol=1e-15,
    )
    np.testing.assert_allclose(
        mr @ E3,
        [-math.cos(theta) * math.cos(phi), -math.sin(theta) * math.cos(phi), math.sin(phi)],
        atol=1e-15,
    )


def test_z_rotation_shifts_theta():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        phi, theta = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
        alpha = rng.uniform(0, 2 * math.pi)
        ml, mr = collision_frames(phi, theta)
        ml_shift, mr_shift = collision_frames(phi, (theta + alpha) % (2 * math.pi))
        np.testing.assert_allclose(rotation_z(alpha) @ ml, ml_shift, atol=1e-12)
        np.testing.assert_allclose(rotation_z(alpha) @ mr, mr_shift, atol=1e-12)


def leaf_rotations(tree, phis, thetas, root=np.eye(3)):
    """The engine's leaf rotations of one tree, angles in level order;
    thetas may carry a trailing axis of azimuth draws, shape (n - 1, N),
    with root of shape (N, 3, 3) or (N, 1, 3)."""
    record = tree_record(tree, phis)
    phis = record.phis if np.ndim(thetas) == 1 else record.phis[:, None]
    return grow(record, *collision_frames(phis, thetas), root)


def test_rotation_array_base_cases():
    np.testing.assert_allclose(leaf_rotations(LEAF, [], np.empty(0)), [np.eye(3)])
    np.testing.assert_allclose(rotation_array(LEAF, [], []).rotations, [np.eye(3)])
    ml, mr = collision_frames(0.8, 1.3)
    np.testing.assert_allclose(leaf_rotations(CHERRY, [0.8], np.array([1.3])), [ml, mr],
                               atol=1e-15)
    np.testing.assert_allclose(rotation_array(CHERRY, [0.8], [1.3]).rotations, [ml, mr],
                               atol=1e-15)


def test_recursive_equals_path_product():
    rng = np.random.default_rng(2)
    for _ in range(25):
        n = int(rng.integers(2, 8))
        tree = sample_tree(n, rng)
        phis = rng.uniform(0, math.pi, n - 1)
        thetas = rng.uniform(0, 2 * math.pi, n - 1)
        rots = rotation_array(tree, phis, thetas)
        for j in range(n):
            np.testing.assert_allclose(
                rots.rotations[j],
                path_product_rotation(tree, phis, thetas, j),
                atol=1e-12,
            )


def test_batch_third_columns_match_single():
    """One `grow` over an axis of N azimuth draws equals N single-draw grows
    bit for bit, and its row form (the root a row per draw) gives the rows
    of the leaf rotations."""
    rng = np.random.default_rng(3)
    row = frame_for(np.array([0.6, 0.0, 0.8]))[1]
    for n in (2, 4, 7):
        tree = sample_tree(n, rng)
        phis = rng.uniform(0, math.pi, n - 1)
        thetas = rng.uniform(0, 2 * math.pi, (n - 1, 5))
        batch = leaf_rotations(tree, phis, thetas, np.broadcast_to(np.eye(3), (5, 3, 3)))
        assert batch.shape == (n, 5, 3, 3)
        for b in range(5):
            assert np.array_equal(batch[:, b], leaf_rotations(tree, phis, thetas[:, b]))
        rows = leaf_rotations(tree, phis, thetas, np.broadcast_to(row, (5, 1, 3)))
        assert rows.shape == (n, 5, 1, 3)
        np.testing.assert_allclose(rows[:, :, 0], row @ batch, rtol=0.0, atol=1e-15)


def test_frame_for_maps_e3_to_each_direction():
    rng = np.random.default_rng(4)
    directions = np.concatenate([random_unit(rng, size=10_000),
                                 [E3, -E3, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]])
    frames = frame_for(directions)
    assert frames.shape == (len(directions), 3, 3)
    gram = np.einsum("nji,njk->nik", frames, frames)
    assert float(np.max(np.abs(gram - np.eye(3)))) < ROTATION_TOL
    assert float(np.max(np.abs(np.linalg.det(frames) - 1.0))) < ROTATION_TOL
    assert np.array_equal(frames[..., 2], directions)
    assert np.array_equal(frames, np.stack([frame_for(w) for w in directions]))
    assert np.array_equal(frame_for(directions.reshape(-1, 4, 3)),
                          frames.reshape(-1, 4, 3, 3))


def test_frame_for_poles_and_signed_zeros():
    assert np.array_equal(frame_for(E3), np.eye(3))
    assert np.array_equal(frame_for(-E3), np.diag([1.0, -1.0, -1.0]))
    # a zero z is read as +0, whatever its sign bit
    for w in ([1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.6, 0.8, 0.0]):
        plus, minus = np.array(w), np.array(w)
        minus[2] = -0.0
        assert np.array_equal(frame_for(plus), frame_for(minus))
        assert is_rotation(frame_for(minus))


def test_golden_matrices():
    # frozen full-precision 9-element arrays guard against silent sign or
    # layout changes in the frame definitions
    import json
    from pathlib import Path

    golden = json.loads((Path(__file__).parent / "data" / "rotation_golden.json")
                        .read_text())
    for key, flat in golden.items():
        expected = np.array(flat).reshape(3, 3)
        kind, *params = key.split("_")
        if kind in ("left", "right"):
            phi, theta = map(float, params)
            ml, mr = collision_frames(phi, theta)
            actual = ml if kind == "left" else mr
        else:  # frame_x_y_z: the frame of the direction (x, y, z)
            actual = frame_for(np.array(params, float))
        np.testing.assert_allclose(actual, expected, atol=0.0, rtol=0.0)


def test_leaf_directions():
    # the leaf directions basis @ O_j @ e3, as the transforms take them
    rng = np.random.default_rng(6)
    u = random_unit(rng)
    basis = frame_for(u)
    single = leaf_rotations(LEAF, [], np.empty(0))[..., 2] @ basis.T
    np.testing.assert_allclose(single, [u], atol=1e-13)

    phi, theta = 1.1, 4.0
    pair = leaf_rotations(CHERRY, [phi], np.array([theta]))[..., 2] @ basis.T
    assert abs(float(pair[0] @ pair[1])) < 1e-12

    n = 20
    rots = leaf_rotations(sample_tree(n, rng), rng.uniform(0, math.pi, n - 1),
                          rng.uniform(0, 2 * math.pi, n - 1))
    for q in rots:
        assert is_rotation(q)
    psi = rots[..., 2] @ basis.T
    np.testing.assert_allclose(np.linalg.norm(psi, axis=1), 1.0, atol=1e-12)
