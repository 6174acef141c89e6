"""Property tests of the lockstep cascade engine against per-cascade loops."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wildsim.geometry import is_rotation, left_frame, right_frame
from wildsim.initial import sixpoint_datum
from wildsim.kernel import make_kernel
from wildsim.sampler import (
    LEAF_BUDGET,
    chunk_slices,
    collide,
    germination_record,
    leaf_frames,
    replay,
    rng_stream,
    sorted_sizes,
)

KERNEL = make_kernel("xabs")
SIXPOINT = sixpoint_datum()

seeds = st.integers(0, 2**32 - 1)
chunk_sizes = st.integers(1, 40)
times = st.floats(0.0, 3.0)


def chunk(seed, size, t):
    rng = rng_stream(seed)
    nus, _ = sorted_sizes(t, rng, size)
    return germination_record(nus, KERNEL, rng), rng


def cascade_entries(record):
    """Per cascade, its (local slot, local new leaf, phi, theta) in step order."""
    out = [[] for _ in record.nus]
    for a, b in record.steps():
        for e in range(a, b):
            j = e - a
            base = record.offsets[j]
            out[j].append((record.parent[e] - base, record.child[e] - base,
                           record.phis[e], record.thetas[e]))
    return out


@settings(max_examples=40, deadline=None)
@given(seeds, chunk_sizes, times)
def test_weights_match_loop_and_stay_normalized(seed, size, t):
    record, _ = chunk(seed, size, t)
    weights, _ = leaf_frames(record)
    assert np.all(np.abs(record.per_cascade(weights**2) - 1.0) < 1e-10)
    for j, entries in enumerate(cascade_entries(record)):
        pis = [1.0]
        for i, (slot, new, phi, _) in enumerate(entries):
            assert 0 <= slot <= i and new == i + 1
            w = pis[slot]
            pis[slot] = w * math.cos(phi)
            pis.append(w * math.sin(phi))
        start = record.offsets[j]
        assert np.array_equal(weights[start:start + record.nus[j]], pis)


@settings(max_examples=40, deadline=None)
@given(seeds, chunk_sizes, times)
def test_frames_match_loop_and_are_rotations(seed, size, t):
    record, _ = chunk(seed, size, t)
    _, rotations = leaf_frames(record)
    assert all(is_rotation(q) for q in rotations.rotations)
    for j, entries in enumerate(cascade_entries(record)):
        rots = [np.eye(3)]
        for slot, _, phi, theta in entries:
            q = rots[slot]
            rots[slot] = q @ left_frame(phi, theta)
            rots.append(q @ right_frame(phi, theta))
        start = record.offsets[j]
        np.testing.assert_allclose(rotations.rotations[start:start + record.nus[j]],
                                   rots, rtol=0.0, atol=1e-14)


@settings(max_examples=40, deadline=None)
@given(seeds, chunk_sizes, times)
def test_replay_matches_pairwise_loop(seed, size, t):
    record, rng = chunk(seed, size, t)
    velocities = SIXPOINT.sampler(rng, record.n_leaves)
    roots = replay(record, velocities)
    for j, entries in enumerate(cascade_entries(record)):
        start = record.offsets[j]
        values = list(velocities[start:start + record.nus[j]])
        for slot, new, phi, theta in reversed(entries):
            values[slot] = collide(values[slot], values[new], phi, theta)[0]
        np.testing.assert_allclose(roots[j], values[0], rtol=0.0, atol=1e-12)


def step_replay(record, velocities):
    """Reference backward pass: one `collide` per germination step, latest first."""
    components = np.array(np.asarray(velocities, float).T)
    for a, b in reversed(list(record.steps())):
        parent, child = record.parent[a:b], record.child[a:b]
        components[:, parent] = collide(components[:, parent], components[:, child],
                                        record.phis[a:b], record.thetas[a:b])[0]
    return components[:, record.offsets].T


@settings(max_examples=30, deadline=None)
@given(seeds, st.integers(1, 12), st.floats(0.0, 5.0))
def test_replay_equals_step_order_replay(seed, size, t):
    record, rng = chunk(seed, size, t)
    velocities = SIXPOINT.sampler(rng, record.n_leaves)
    assert np.array_equal(replay(record, velocities), step_replay(record, velocities))


@pytest.mark.parametrize("nus", [
    [1, 1, 1],                       # t = 0: no entries
    [300, 120, 7, 2, 1, 1, 1],       # nu = 1 beside long cascades
    [LEAF_BUDGET + 500],             # one cascade above the leaf budget
])
def test_replay_equals_step_order_replay_on_fixed_sizes(nus):
    rng = rng_stream(11, len(nus))
    record = germination_record(nus, KERNEL, rng)
    velocities = SIXPOINT.sampler(rng, record.n_leaves)
    assert np.array_equal(replay(record, velocities), step_replay(record, velocities))


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
    assert record.n_leaves == size and len(record.parent) == 0
    weights, rotations = leaf_frames(record)
    assert np.array_equal(weights, np.ones(size))
    assert np.array_equal(rotations.rotations, np.broadcast_to(np.eye(3), (size, 3, 3)))
    velocities = SIXPOINT.sampler(rng, size)
    assert np.array_equal(replay(record, velocities), velocities)


def test_identical_pairs_pass_through_unchanged():
    v = np.array([[1.0, -0.5], [2.0, 0.0], [3.0, 4.0]])
    v_out, w_out = collide(v, v.copy(), np.array([1.0, 2.5]), np.array([2.0, 0.1]))
    assert np.array_equal(v_out, v) and np.array_equal(w_out, v)


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
