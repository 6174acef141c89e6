"""Rotation frames, cascade composition and the sphere atlas."""

import math

import numpy as np
import pytest

from wildsim.errors import ArityMismatch, OutOfChart
from wildsim.geometry import (
    E3,
    chart_basis,
    chart_contains,
    chart_for_direction,
    chart_point,
    collision_frames,
    frame_for,
    is_rotation,
    leaf_directions,
    path_product_rotation,
    rotation_array,
    rotation_z,
)
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


def test_rotation_array_base_cases():
    single = rotation_array(LEAF, [], [])
    np.testing.assert_allclose(single.rotations, [np.eye(3)])
    pair = rotation_array(CHERRY, [0.8], [1.3])
    ml, mr = collision_frames(0.8, 1.3)
    np.testing.assert_allclose(pair.rotations, [ml, mr], atol=1e-15)
    with pytest.raises(ArityMismatch):
        rotation_array(CHERRY, [0.1, 0.2], [0.3, 0.4])


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
    rng = np.random.default_rng(3)
    tree = sample_tree(4, rng)
    phis = rng.uniform(0, math.pi, 3)
    thetas = rng.uniform(0, 2 * math.pi, (5, 3))
    cols = rotation_array(tree, phis, thetas.T).third_columns()
    for b in range(5):
        rots = rotation_array(tree, phis, thetas[b])
        np.testing.assert_allclose(cols[:, b, :], rots.third_columns(), atol=1e-13)


def test_chart_point_and_basis_example():
    w = chart_point(1, math.pi / 2, math.pi)
    np.testing.assert_allclose(w, [-1.0, 0.0, 0.0], atol=1e-15)
    basis = chart_basis(1, w)
    np.testing.assert_allclose(basis[:, 2], w, atol=1e-15)
    assert is_rotation(basis)


def test_chart_bases_map_e3_to_direction():
    rng = np.random.default_rng(4)
    for k in (1, 2, 3, 4):
        hits = 0
        while hits < 1000:
            w = random_unit(rng)
            if not chart_contains(k, w):
                continue
            hits += 1
            basis = chart_basis(k, w)
            assert is_rotation(basis)
            np.testing.assert_allclose(basis @ E3, w, atol=1e-12)


def test_atlas_covers_the_sphere():
    rng = np.random.default_rng(5)
    for w in random_unit(rng, size=10_000):
        assert chart_for_direction(w) in (1, 2, 3, 4)


def test_poles_fall_to_later_charts():
    north = np.array([0.0, 0.0, 1.0])
    assert not chart_contains(1, north) and not chart_contains(2, north)
    assert chart_for_direction(north) in (3, 4)
    with pytest.raises(OutOfChart):
        chart_basis(4, np.array([-1.0, 0.0, 0.0]))


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
        else:
            k = int(kind.removeprefix("chart"))
            u, v = map(float, params)
            actual = chart_basis(k, chart_point(k, u, v))
        np.testing.assert_allclose(actual, expected, atol=0.0, rtol=0.0)


def test_leaf_directions():
    rng = np.random.default_rng(6)
    u = random_unit(rng)
    basis = frame_for(u)
    single = leaf_directions(basis, rotation_array(LEAF, [], []))
    np.testing.assert_allclose(single, [u], atol=1e-13)

    phi, theta = 1.1, 4.0
    pair = leaf_directions(basis, rotation_array(CHERRY, [phi], [theta]))
    assert abs(float(pair[0] @ pair[1])) < 1e-12

    n = 20
    tree = sample_tree(n, rng)
    rots = rotation_array(tree, rng.uniform(0, math.pi, n - 1),
                          rng.uniform(0, 2 * math.pi, n - 1))
    for q in rots.rotations:
        assert is_rotation(q)
    psi = leaf_directions(basis, rots)
    np.testing.assert_allclose(np.linalg.norm(psi, axis=1), 1.0, atol=1e-12)
