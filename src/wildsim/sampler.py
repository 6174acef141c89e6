"""Sampling of collision cascades and of the solution they represent.

One random object underlies every statistic: a cascade size nu, drawn from
the geometric law at time t, and a McKean tree with nu leaves whose nu - 1
split nodes carry collision angles (phi, theta).  The tree is drawn
top-down: the root of an n-leaf tree sends a uniform 1 .. n - 1 of its
leaves to the left subtree, and the two subtrees are drawn the same way,
independently.  That is the shape law p_n(tree) = p(left) p(right) / (n - 1)
of `wildsim.tree`.

The engine runs a chunk of cascades in lockstep, one tree level per vector
step.  Their sizes are sorted in descending order; each cascade's leaves
are contiguous, in left-to-right tree order, and the nodes of all cascades
are numbered level by level (`GerminationRecord`).  Leaf and node values
live in one flat buffer, and three passes walk the levels:

* forward (`grow`), roots first: a node's value v becomes v * left on its
  left subtree and v * right on its right.  Scalar factors
  (cos phi, sin phi) give the order-1 leaf weights of the transforms
  (`leaf_frames`); the collision frames left(phi, theta) and
  right(phi, theta) give the leaf rotations, and frames over an axis of
  azimuth draws give them for every draw at once.
* backward (`_fold`), deepest level first: a leaf is 1, a node
  h (S(left) + S(right)) with h the mean of its two factors; the root holds
  a weight statistic averaged over the tree's child swaps (`weight_sums`).
* backward (`replay`), deepest level first: i.i.d. initial velocities at
  the leaves are folded through pairwise collisions, one vectorised call
  per level, and the root keeps one draw from the solution; a node keeps
  its first outgoing velocity v + delta (`deflection`), from trigonometric
  factors computed once per chunk.  On request it returns instead 16 root
  images per cascade, which `conserve` and `decay --moment v1^4` average.
  Each image is a draw from the solution.  Swapping a node's two subtrees
  keeps the shape law (a cut L becomes s - L), and it turns the node's
  output into its second outgoing velocity w - delta, which is the first
  outgoing velocity of the collision of (w, v) at the azimuth that turns
  the transverse unit e of frame_for(u) into -e in frame_for(-u); that
  azimuth is a measure-preserving map of the uniform one.  Turning the
  root azimuth by pi is another.  The images take every combination of
  swaps at the root and at its two children, with and without the
  half-turn, for one subtraction at level 1 and a root collision on four
  input pairs, O(cascades) work per chunk.
  What a suite makes of the draws beyond that (its control variates and
  their rules in the run id) belongs to `wildsim.diagnostics`; this
  module's own constants are the reduction's (`reduction_scheme`).

Each pass costs O(depth) Python-level steps per chunk (depth ~ log nu).
Level loops gather with `take`: `replay` with take(axis=1) on (3, k)
blocks (on numpy 2.4, 5 ns an index against 21 for buffer[:, idx]), `_fold`
with take(axis=0) on a row-major block (5.7 against 7.2 ns for
take(axis=1) on the transpose), the level builder with take.  A record draws
all node angles, then the cuts of the tree shapes, then the azimuths,
which the weight reductions never read and skip.  `tree_record` builds
the record of one prescribed tree from cuts that select its shape,
through the same level builder, for checks conditional on the tree.

Statistics are per-cascade values (a fold's roots, or reductions of leaf
arrays over the offsets), and `reduce_cascades` turns them into estimates.
It draws every size of an estimate from rng_stream(seed, *key), sorts them
in descending order and post-stratifies on them, since their law is known
exactly (`size_strata`, `SizeStrata.pooled`).  The sizes are cut into
chunks of at most LEAF_BUDGET leaves, chunk c drawing from
rng_stream(seed, *key, c); a chunk keeps (count, mean, M2) per stratum,
and chunks merge in chunk order (`merge_sums`), so an estimate depends on
the seed alone, whatever the worker count.  `_run_chunks` is the one chunk
driver: `reduce_cascades` summarizes what its chunks return, and
`wild_velocity_batch` keeps their raw velocity draws.  `mean_se` reads the
estimate sum_h p_h xbar_h and its standard error; between-size variance,
most of it for the weight statistics, drops out.  The single-draw views
(`draw_tree_sample`, `wild_velocity`) are one-cascade chunks of the engine.

The transform estimator (`transform_sums`, over a whole grid of
frequencies) averages exp(i rho S) with S = sum_j w_j psi_j . V_j, or,
for a datum with an exact transform cf, its conditional expectation given
the tree, angles and rotations, prod_j cf(rho w_j psi_j) (real for a
symmetric law).  The leaf directions psi_j = B R_j e3 depend on xi / rho
alone, so the grid is evaluated one direction at a time: psi_j and S, or
the projection of w_j psi_j (`initial.Transform`), once per direction,
then per frequency one scaling by rho or one evaluation of the profile.
The conditional product of a cascade with nu = 1 is the same for all of
them, so each chunk evaluates it once.
"""

from __future__ import annotations

import functools
import math
import multiprocessing
import os
from dataclasses import dataclass
from itertools import pairwise

import numpy as np
# numpy loads numpy.random lazily; every run draws, so pay for it on import
import numpy.random  # noqa: F401

from .errors import ConfigError, TimeTooLarge, WildsimError
from .geometry import RotationArray, collision_frames, frame_for
from .initial import InitialDatum, make_initial_datum  # noqa: F401  (module API)
from .kernel import CollisionKernel, cos_sin
from .tree import McKeanTree
from .weights import WeightArray

NU_CAP = 1_000_000      # largest cascade size drawn: a memory guard, not part of the law
LEAF_BUDGET = 1 << 14   # leaves per chunk; a larger cascade is a chunk of its own
TWO_PI = 2.0 * math.pi
SQRT_FLOAT_MAX = math.sqrt(np.finfo(float).max)
TINY = np.finfo(float).tiny


def rng_stream(seed: int, *key: int) -> np.random.Generator:
    """Counter-based generator for (seed, stream key); reproducible and
    independent across keys, so chunk streams never overlap."""
    seq = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(seq))


def _check_time(t: float) -> None:
    if not t >= 0.0:
        raise ConfigError(f"time must be a nonnegative number, got {t!r}")
    if math.exp(min(t, 709.0)) > NU_CAP:  # exp(709) is finite and above the cap
        raise TimeTooLarge(
            f"expected cascade size exp({t:g}) exceeds the cap {NU_CAP}"
        )


def sample_nu(t: float, rng: np.random.Generator) -> int:
    """Cascade size: P[nu = n] = e^-t (1 - e^-t)^(n-1)."""
    return int(sample_nu_batch(t, rng, 1)[0])


def sample_nu_batch(t, rng, size) -> np.ndarray:
    """size cascade sizes at time t; TimeTooLarge where e^t or a drawn size
    exceeds NU_CAP."""
    _check_time(t)
    if t == 0.0:
        return np.ones(size, dtype=np.int64)
    log_fail = math.log(-math.expm1(-t))  # log(1 - e^-t), finite for tiny t
    u = np.clip(rng.random(size), 5e-324, None)
    nus = 1 + (np.log(u) / log_fail).astype(np.int64)
    if np.any(nus > NU_CAP):
        raise TimeTooLarge(f"drew cascade size above the cap {NU_CAP}")
    return nus


def sorted_sizes(t, rng, size):
    """size cascade sizes in descending order, with the draw index of each."""
    nus = sample_nu_batch(t, rng, size)
    order = np.argsort(-nus, kind="stable")
    return nus[order], order


def chunk_slices(nus) -> list[slice]:
    """Cut descending sizes into consecutive chunks of at most LEAF_BUDGET
    leaves each (a cascade above the budget forms a chunk of its own)."""
    ends = np.cumsum(nus)
    slices, start = [], 0
    while start < len(nus):
        base = ends[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, base + LEAF_BUDGET, side="right")))
        slices.append(slice(start, stop))
        start = stop
    return slices


# --- the engine -----------------------------------------------------------------

@dataclass(frozen=True)
class GerminationRecord:
    """The trees of a chunk of cascades, drawn top-down and stored level by level.

    Cascade j owns the leaves offsets[j] .. offsets[j] + nus[j] - 1, in
    left-to-right tree order.  Its nus[j] - 1 split nodes carry angles
    (phis, thetas; thetas is None in a record drawn without azimuths) and
    are numbered in level order over the whole chunk: level k (roots at
    k = 0) holds the nodes bounds[k] .. bounds[k + 1] - 1.
    Slots index one buffer of leaves then nodes: slot i < n_leaves is leaf i,
    slot n_leaves + k is node k.  Node k's subtrees sit at the slots
    children[k] = (left[k], right[k]), always a leaf or a node of the next
    level, and roots[j] is the slot of cascade j's root (its only leaf when
    nus[j] = 1).  left and right are strided views of children.
    """

    nus: np.ndarray
    offsets: np.ndarray
    bounds: np.ndarray
    phis: np.ndarray
    thetas: np.ndarray | None
    children: np.ndarray
    roots: np.ndarray

    left = property(lambda self: self.children[:, 0])
    right = property(lambda self: self.children[:, 1])

    @property
    def n_leaves(self) -> int:
        return int(self.offsets[-1] + self.nus[-1])

    def levels(self):
        """(start, stop) of each level's nodes, the roots' level first."""
        return pairwise(self.bounds.tolist())

    def per_cascade(self, leaf_values, ufunc=np.add) -> np.ndarray:
        """Reduce leaf values (along axis 0) to one value per cascade."""
        return ufunc.reduceat(leaf_values, self.offsets, axis=0)


def germination_record(nus, kernel: CollisionKernel, rng: np.random.Generator,
                       azimuths: bool = True) -> GerminationRecord:
    """Draw the trees of cascades with the given sizes (descending), one
    level at a time: a node over s leaves sends a uniform 1 .. s - 1 of them
    to its left subtree and the rest to its right, which is the shape law
    p_n(tree) = p(left) p(right) / (n - 1).  The angles, the cut variables
    and the azimuths of all nodes are drawn up front, in that order, so a
    reduction that reads no azimuth skips their draw (azimuths=False leaves
    thetas None) and still sees the same trees and angles."""
    nus = np.asarray(nus, dtype=np.int64)
    m = int(nus.sum()) - len(nus)
    phis = kernel.inverse_beta_cdf(rng.random(m))
    cuts = rng.random(m)
    # the bits of uniform(0, 2 pi), which returns 0 + 2 pi u for the same u
    thetas = rng.random(m) * TWO_PI if azimuths else None
    return _build_levels(nus, cuts, phis, thetas)


def tree_record(tree: McKeanTree, phis) -> GerminationRecord:
    """The record of one prescribed tree, its node angles phis given in the
    record's node order: level by level from the root, left child before
    right (thetas is None).  A node over s leaves that sends L of them to
    the left gets the cut (L - 1/2) / (s - 1), the middle of the cuts that
    `germination_record` maps to L."""
    cuts, level = [], [tree] if tree.leaf_count > 1 else []
    while level:
        cuts += [(node.left.leaf_count - 0.5) / (node.leaf_count - 1) for node in level]
        level = [child for node in level for child in node.split() if not child.is_leaf]
    return _build_levels(np.array([tree.leaf_count]), np.array(cuts, dtype=float),
                         np.asarray(phis, dtype=float), None)


def _build_levels(nus, cuts, phis, thetas) -> GerminationRecord:
    """The record of cascades with sizes nus (descending, int64), one level
    at a time: node i over s leaves sends 1 + floor(cuts[i] (s - 1)) of them
    to its left subtree, nodes numbered in level order."""
    offsets = np.concatenate(([0], np.cumsum(nus[:-1])))
    n = int(offsets[-1] + nus[-1])
    m = len(cuts)
    # each node's (left, right) children side by side: a child's leaf start,
    # replaced by its node slot when it splits; child_sizes has their leaf counts
    slots = np.empty((m, 2), dtype=np.int64)
    child_sizes = np.empty((m, 2), dtype=np.int64)
    split = nus > 1
    roots = offsets.copy()
    roots[split] = n + np.arange(np.count_nonzero(split))
    start, size = offsets[split], nus[split]  # leaf range of each node of a level
    bounds = [0]
    while len(size):
        a, b = bounds[-1], bounds[-1] + len(size)
        cut = 1 + (cuts[a:b] * (size - 1)).astype(np.int64)
        slots[a:b, 0] = start
        np.add(start, cut, out=slots[a:b, 1])
        child_sizes[a:b, 0] = cut
        np.subtract(size, cut, out=child_sizes[a:b, 1])
        level, level_sizes = slots[a:b].ravel(), child_sizes[a:b].ravel()
        inner = (level_sizes > 1).nonzero()[0]
        start, size = level.take(inner), level_sizes.take(inner)
        level[inner] = np.arange(n + b, n + b + len(inner))  # 2-3x faster than put
        bounds.append(b)
    return GerminationRecord(
        nus=nus, offsets=offsets, bounds=np.array(bounds), phis=phis, thetas=thetas,
        children=slots, roots=roots,
    )


def grow(record: GerminationRecord, left, right, root) -> np.ndarray:
    """Forward pass: leaf values from per-node left/right factors.

    Every root starts at `root`; level by level, roots first, a node's
    value v passes v * left to its left subtree and v * right to its right.
    Factors of three or more dimensions, (nodes, 3, 3) or (nodes, N, 3, 3)
    over N azimuth draws, compose as matrices (v @ factor), with root of
    shape (3, 3), or (N, 1, 3) for one row per draw; any other factor
    multiplies elementwise.
    """
    n = record.n_leaves
    values = np.empty((n + len(record.phis),) + np.shape(root))
    values[record.roots] = root
    compose = np.matmul if np.ndim(left) >= 3 else np.multiply
    for a, b in record.levels():
        value = values[n + a:n + b]
        values[record.left[a:b]] = compose(value, left[a:b])
        values[record.right[a:b]] = compose(value, right[a:b])
    return values[:n]


def leaf_frames(record: GerminationRecord) -> tuple[np.ndarray, RotationArray]:
    """Order-1 leaf weights and leaf rotations of every cascade in the record."""
    weights = grow(record, np.cos(record.phis), np.sin(record.phis), 1.0)
    rotations = grow(record, *collision_frames(record.phis, record.thetas), np.eye(3))
    return weights, RotationArray(rotations=rotations)


def _node_factors(phis, thetas):
    """The collision factors of nodes with angles (phis, thetas):
    (cos^2 phi, cos theta cos phi sin phi, sin theta cos phi sin phi), each
    angle's (cos, sin) from one tangent (`cos_sin`), written in place."""
    cos_sq, h = cos_sin(phis)
    k1, k2 = cos_sin(thetas)
    h *= cos_sq
    k1 *= h
    k2 *= h
    cos_sq *= cos_sq
    return cos_sq, k1, k2


def deflection(v, w, phi, theta):
    """The change of velocity v in a collision with w: the outgoing pair is
    v' = v + delta, w' = w - delta.  Components and angles may be scalars or
    equal-shape arrays; returns the three components of delta.

    delta = ((w - v) . omega) omega, with omega at polar angle phi and
    azimuth theta about the unit relative velocity u = d / |d|, d = w - v:
    delta = cos^2(phi) d + |d| cos(phi) sin(phi) (cos(theta) e1 + sin(theta) e2),
    with (e1, e2, u) the branchless orthonormal completion of Duff et al.
    (JCGT 2017), as `geometry.frame_for` takes it.  theta is uniform, so the
    law of the outcome does not depend on the completion choice, but one
    replay does: the completion follows the sign of z(w - v), and a zero
    counts as +0, so inputs that differ only in the signs of their zeros
    replay to equal outcomes.  Turning theta by pi reflects delta through
    its mean over theta: delta(theta + pi) = 2 cos^2(phi) d - delta(theta).
    The angles enter through `_node_factors`, the arithmetic through
    `_deflect`, which `replay` calls level by level on factors it computes
    once per chunk.
    """
    return tuple(_deflect(np.asarray(v, float), np.asarray(w, float),
                          *_node_factors(phi, theta)))


def _deflect(v, w, cos_sq, k1, k2):
    """`deflection` from the nodes' factors (`_node_factors`), which it
    leaves unchanged, on blocks v and w of shape (3, ...): the three
    components along axis 0, over the factors' shape.  Returns delta as one
    such block.  Rows are written by index (d[2] += 0.0, g[0] += ...):
    the rows unpacked from a (3,) block, one collision's, are scalar
    copies, so an in-place update through them would be lost.  The sums
    accumulate in place, to keep temporaries few."""
    d = np.subtract(w, v)
    d[2] += 0.0  # -0 + 0 = +0: the completion reads the value of dz, not its sign bit
    dx, dy, dz = d
    squares = d * d
    norm = squares[0] + squares[1]
    norm += squares[2]
    norm = np.sqrt(norm)
    sign = np.copysign(1.0, dz)
    # e1, e2 written in d: with a = -sign / (|d| + |dz|) and
    # q = sign k1 dx + k2 dy, the transverse part is
    # (|d| k1 + a q dx, sign |d| k2 + a q dy, -q); where d = 0, q = 0
    a = np.abs(dz)
    a += norm
    a = -sign / np.maximum(a, TINY)
    q = sign * k1
    q *= dx
    q += k2 * dy
    a *= q
    g = cos_sq * d
    g[0] += norm * k1
    k2 = sign * k2
    k2 *= norm
    g[1] += k2
    g[:2] += d[:2] * a
    g[2] -= q
    return g


def replay(record: GerminationRecord, velocities, images: bool = False):
    """Backward pass: fold leaf velocities, shape (leaves, 3), through the
    record one tree level at a time, deepest level first: a node's output
    is the first outgoing velocity of the collision of its left and right
    inputs at its angles (phi, theta), written in place as left input +
    `deflection`, one vectorised call per level.  The nodes' trigonometric
    factors are computed once for the whole chunk, before the loop, and
    sliced per level.  Returns each cascade's root velocity, shape
    (cascades, 3), bit-identical to a recursive fold of `deflection`,
    gathered from the slots record.roots, where `grow` puts the roots.

    With images, returns instead the 16 root images of each cascade, shape
    (16, cascades, 3): image 8 o + 2 p + h is the root velocity of the
    cascade with the root's children swapped if o = 1, the left child's
    children swapped if bit 0 of p is set, the right child's if bit 1 is,
    and the root azimuth turned by pi if h = 1.  Image 0 is the plain root
    and image 1 its half-turn, the same bits as the plain root and as
    2 (v + cos^2(phi) (w - v)) - root, its reflection through the mean
    over the azimuth.  Swapping a node's children turns its output into its
    second outgoing velocity, w - delta = v + w - (v + delta), so level 1
    keeps both outputs (one subtraction), and the root collides its four
    input pairs (v, w), v the left child's first or second output and w the
    right child's, in one `_deflect` call; a leaf child is the same either
    way.  A half-turn reflects each output through its mean over the
    azimuth, and the second output at it is v + w less the first.  A
    cascade of one leaf has no collision: all its images are its leaf.
    Each image is a draw from the solution (see the module docstring): a
    swap keeps the shape law and maps the swapped node's uniform azimuth to
    a uniform one, and so does the half-turn."""
    n = record.n_leaves
    buffer = np.empty((3, n + len(record.phis)))
    buffer[:, :n] = np.asarray(velocities, float).T
    cos_sq, k1, k2 = _node_factors(record.phis, record.thetas)
    levels = list(record.levels())
    for a, b in reversed(levels[1:] if images else levels):
        v = buffer.take(record.left[a:b], axis=1)
        w = buffer.take(record.right[a:b], axis=1)
        delta = _deflect(v, w, cos_sq[a:b], k1[a:b], k2[a:b])
        np.add(v, delta, out=buffer[:, n + a:n + b])
    if not images:
        return buffer.take(record.roots, axis=1).T
    b = levels[0][1] if levels else 0  # the cascades that split, the first b
    inputs = np.empty((2, 3, 2, b))  # each root child's (first, second) output
    left, right = record.left[:b], record.right[:b]
    buffer.take(left, axis=1, out=inputs[0, :, 0])
    buffer.take(right, axis=1, out=inputs[1, :, 0])
    if len(levels) > 1:  # w and delta are level 1's, the loop's last
        np.subtract(w, delta, out=buffer[:, n + b:n + levels[1][1]])
        del v, w, delta
    buffer.take(left, axis=1, out=inputs[0, :, 1])
    buffer.take(right, axis=1, out=inputs[1, :, 1])
    leaves = buffer.take(record.roots[b:], axis=1)  # the other cascades' one leaf
    factors = [f[:b].copy() for f in (cos_sq, k1, k2)]
    del buffer, cos_sq, k1, k2  # the chunk's largest blocks, freed before the images'
    return _root_level_images(inputs, factors, leaves)


def _root_level_images(inputs, factors, leaves):
    """`replay`'s 16 images per cascade, shape (16, cascades, 3), from the
    root collisions' inputs, shape (2, 3, 2, b): the left and the right
    child's first and second outputs for the b cascades that split, their
    root factors (`_node_factors`) and the leaves of the other cascades,
    shape (3, cascades - b).  The four input pairs broadcast in one
    `_deflect` call."""
    b = inputs.shape[-1]
    cos_sq = factors[0]
    v, w = inputs[0, :, None], inputs[1, :, :, None]  # (3, 1, 2, b), (3, 2, 1, b)
    # axes (component, o, bit 1 of p, bit 0 of p, h, cascade)
    out = np.empty((3, 2, 2, 2, 2, b + leaves.shape[1]))
    delta = _deflect(v, w, *factors)
    first, second = out[:, 0, ..., :b], out[:, 1, ..., :b]
    np.add(v, delta, out=first[..., 0, :])
    np.subtract(w, delta, out=second[..., 0, :])
    turned = first[..., 1, :]  # 2 (v + cos^2(phi) (w - v)) - first
    np.subtract(w, v, out=turned)
    turned *= cos_sq
    turned += v
    turned *= 2.0
    turned -= first[..., 0, :]
    np.add(v, w, out=second[..., 1, :])
    second[..., 1, :] -= turned
    out[..., b:] = leaves[:, None, None, None, None]
    return out.reshape(3, 16, -1).transpose(1, 2, 0)


def cascade_velocities(nus, rng, *, mu0: InitialDatum, kernel: CollisionKernel) -> np.ndarray:
    """One draw from the solution per cascade size, shape (len(nus), 3)."""
    record = germination_record(nus, kernel, rng)
    return replay(record, mu0.sampler(rng, record.n_leaves))


# --- reductions -------------------------------------------------------------------

SIZE_STRATA = 16       # equal-probability bins of the size law at t; atoms stay whole
MIN_STRATUM_DRAWS = 2  # a stratum with fewer draws is pooled with the strata of larger
                       # sizes after it (a short last group joins the group before it)


def reduction_scheme() -> dict:
    """The constants of the post-stratified reduction, for run identifiers."""
    return {"scheme": "post-stratified on nu", "strata": SIZE_STRATA,
            "min_stratum_draws": MIN_STRATUM_DRAWS, "pool": "toward larger sizes"}


@dataclass(frozen=True)
class SizeStrata:
    """Post-strata of the cascade size at time t.  Stratum h holds the sizes
    lower[h] < nu <= lower[h + 1] (the last one every size above lower[-1])
    and has the exact probability probs[h] = S(lower[h]) - S(lower[h + 1]),
    with S(n) = P[nu > n] = (1 - e^-t)^n, S(0) = 1 and S(inf) = 0, so the
    probabilities telescope to 1."""

    lower: np.ndarray
    probs: np.ndarray

    def cuts(self, nus) -> np.ndarray:
        """For descending sizes, cuts[h] counts the sizes above lower[h]
        (cuts[-1] = 0), so stratum h is the slice cuts[h + 1] .. cuts[h] - 1."""
        return np.append(np.searchsorted(-np.asarray(nus), -self.lower), 0)

    def pooled(self, nus) -> SizeStrata:
        """These strata with the sparse ones pooled, for the descending sizes
        nus of one whole estimate: walking up the sizes, a group closes once
        it holds MIN_STRATUM_DRAWS draws, and a short last group joins the
        one before it.  A group covers the sizes of its strata, with the sum
        of their probabilities."""
        cuts = self.cuts(nus)
        ends, held = [], 0
        for h, n in enumerate((cuts[:-1] - cuts[1:]).tolist()):
            held += n
            if held >= MIN_STRATUM_DRAWS:
                ends.append(h + 1)
                held = 0
        starts = [0, *ends[:-1]] if ends else [0]
        if len(starts) == len(self.probs):
            return self
        return SizeStrata(lower=self.lower[starts], probs=np.add.reduceat(self.probs, starts))


def size_strata(t: float) -> SizeStrata:
    """SIZE_STRATA equal-probability bins of the size law at time t, cut at
    whole sizes: bin k ends at the least n with P[nu <= n] >= k / SIZE_STRATA,
    and bins that share an end merge (at t = 0.5, nu = 1 alone holds 61% of
    the mass).  At t = 0 there is one stratum of probability 1."""
    if t == 0.0:
        return SizeStrata(lower=np.zeros(1, dtype=np.int64), probs=np.ones(1))
    log_q = math.log(-math.expm1(-t))  # log S(1)
    quantiles = np.arange(1, SIZE_STRATA) / SIZE_STRATA
    ends = np.ceil(np.log1p(-quantiles) / log_q).tolist()
    lower = np.array(sorted({0, *map(int, ends)}))  # np.unique would import numpy.ma
    survival = np.append(np.exp(lower * log_q), 0.0)
    return SizeStrata(lower=lower, probs=survival[:-1] - survival[1:])


def _stratum_moments(values, cuts) -> np.ndarray:
    """(mean, M2) of every column of values (cascades, columns) over each
    stratum's rows, shape (2, columns, strata), M2 the sum of squared
    deviations; an empty stratum holds zeros."""
    count = cuts[:-1] - cuts[1:]
    out = np.zeros((2, np.shape(values)[1], len(count)))
    for h in np.flatnonzero(count):
        rows = values[cuts[h + 1]:cuts[h]]
        mean = np.add.reduce(rows, axis=0) / count[h]
        out[0, :, h] = mean
        out[1, :, h] = np.add.reduce((rows - mean) ** 2, axis=0)
    return out


def summarize(stats: dict, nus, strata: SizeStrata) -> dict:
    """Chunk summary of per-cascade statistics for descending sizes nus:
    per stratum (last axis) the count and the (mean, M2) of every statistic,
    with the strata probabilities under 'prob'.  The one-dimensional
    statistics are reduced together, as the columns of one column-major
    block, so each column sums in the same order as a one-dimensional array."""
    cuts = strata.cuts(nus)
    summary = {"count": (cuts[:-1] - cuts[1:]).astype(float), "prob": strata.probs}
    scalars = [key for key, values in stats.items() if np.ndim(values) == 1]
    if scalars:
        block = np.stack([stats[key] for key in scalars]).T
        summary.update(zip(scalars, _stratum_moments(block, cuts).swapaxes(0, 1)))
    for key, values in stats.items():
        if np.ndim(values) > 1:
            summary[key] = _stratum_moments(values, cuts)
    return summary


def merge_sums(parts) -> dict:
    """Merge chunk summaries in order, stratum by stratum, with the pairwise
    update of Chan, Golub and LeVeque.  A chunk's sizes lie below those of
    the chunks before it, so the strata it fills form one range, and a
    stratum inside that range that it leaves empty is still empty."""
    parts = iter(parts)
    total = {key: np.array(value) for key, value in next(parts).items()}
    for part in parts:
        filled = np.flatnonzero(part["count"])
        span = slice(filled[0], filled[-1] + 1)
        n_a, n_b = total["count"][span], part["count"][span]
        n = np.maximum(n_a + n_b, 1.0)  # a stratum empty in both stays (0, 0, 0)
        frac, cross = n_b / n, n_a * n_b / n
        for key in part.keys() - {"count", "prob"}:
            (mean_a, m2_a), (mean_b, m2_b) = total[key][..., span], part[key][..., span]
            delta = mean_b - mean_a
            mean_a += delta * frac
            m2_a += m2_b
            m2_a += delta * delta * cross
        n_a += n_b
    return total


def _chunk_entry(args):
    """Run one chunk task; a failure that is not already a WildsimError
    becomes one naming the chunk's seed and stream key."""
    task, nus, seed, key, kwargs = args
    try:
        return task(nus, rng_stream(seed, *key), **kwargs)
    except WildsimError:
        raise
    except Exception as exc:
        raise WildsimError(f"chunk {key[-1]} failed (seed {seed}, stream key "
                           f"{key}): {exc!r}") from exc


def _run_chunks(task, nus, seed, key, workers, kwargs):
    """task(nus[chunk], rng, **kwargs) over the chunks of descending sizes nus,
    in chunk order, chunk c on stream key + (c,) of seed; a task built from
    module-level functions pickles to `workers` processes, at most one per
    chunk and per CPU."""
    jobs = [(task, nus[chunk], seed, key + (c,), kwargs)
            for c, chunk in enumerate(chunk_slices(nus))]
    workers = min(max(1, int(workers)), len(jobs), os.cpu_count() or 1)
    if workers == 1:
        return map(_chunk_entry, jobs)
    with multiprocessing.Pool(workers) as pool:
        return pool.map(_chunk_entry, jobs)


def _summarized(task, strata, nus, rng, **kwargs) -> dict:
    """task's per-cascade statistics of one chunk, summarized on strata."""
    return summarize(task(nus, rng, **kwargs), nus, strata)


def reduce_cascades(task, seed, key, workers, t, n_samples, **kwargs) -> dict:
    """Draw n_samples cascade sizes at time t from stream `key` of seed,
    pool the size strata at t over them, run task(nus, rng, **kwargs) on
    each chunk with stream key + (chunk,), summarize each chunk on the
    pooled strata, and merge the summaries in chunk order."""
    nus, _ = sorted_sizes(t, rng_stream(seed, *key), n_samples)
    strata = size_strata(t).pooled(nus)
    return merge_sums(_run_chunks(functools.partial(_summarized, task, strata),
                                  nus, seed, key, workers, kwargs))


def mean_se(sums: dict, key: str):
    """Post-stratified mean sum_h p_h xbar_h of one statistic and its
    standard error sqrt(sum_h p_h^2 s_h^2 / n_h), from a summary over
    pooled strata (`reduce_cascades`).  The standard error is inf where the
    square of the estimate overflows."""
    count, prob = sums["count"], sums["prob"]
    mean, m2 = sums[key]
    estimate = (prob * mean).sum(axis=-1)
    if count.min() < 2:  # a single stratum of one draw: no variance estimate
        return estimate, np.zeros_like(estimate)
    se = np.sqrt((prob**2 * (m2 / (count * (count - 1.0)))).sum(axis=-1))
    # the variance of a statistic whose square overflows is not representable,
    # whatever spread its rounded values show
    return estimate, np.where(np.abs(estimate) < SQRT_FLOAT_MAX, se, np.inf)


def draw_total(sums: dict, key: str):
    """Sum of one statistic over every draw, sum_h n_h xbar_h."""
    return (sums["count"] * sums[key][0]).sum(axis=-1)


def _fold(block, left, right, levels):
    """Backward fold, in place on block (1 + nodes rows): row 0 holds every
    leaf's 1 and row 1 + k node k's factor h, which becomes
    h (S(left) + S(right)) from the child rows left[k] and right[k]."""
    for a, b in levels:
        s = block.take(left[a:b], axis=0)
        s += block.take(right[a:b], axis=0)
        block[1 + a:1 + b] *= s
    return block


def _root_pair(cos_4, sin_4, left, right, levels, roots):
    """Per cascade, the plain W = sum_j w_j^4, folded as cos^4 phi S(left)
    + sin^4 phi S(right) on the rows of `_fold`, and its root mirror
    W' = sin^4 phi W(left) + cos^4 phi W(right), the root-swapped tree's W."""
    buffer = np.empty(len(cos_4) + 1)
    buffer[0] = 1.0
    buffer[1:] = cos_4
    for a, b in levels:
        x, y = buffer.take(left[a:b]), buffer.take(right[a:b])
        buffer[1 + a:1 + b] = buffer[1 + a:1 + b] * x + sin_4[a:b] * y
    plain = buffer.take(roots)
    pair = plain.copy()
    if levels:  # x, y and b are the roots' level's, the loop's last: nodes 0 .. b - 1
        np.add(x * sin_4[:b], y * cos_4[:b], out=pair[:b])
    return plain, pair


def weight_sums(nus, rng, *, kernel: CollisionKernel, s_powers=(1, 2, 3, 4),
                a_star: float | None = None) -> dict:
    """Per-cascade sum_j |w_j|^s for each s of s_powers (a subset of
    1 .. 4), sum_j w_j^2 |zeta_j|, sum_j |w_j^3 eta_j|, W = sum_j w_j^4 and
    (given a_star) the tail indicator of W >= a_star, with w, zeta, eta the
    order-1, -2 and -3 leaf weights.  No azimuth is drawn.

    Each sum over the leaves of a product of split factors (g_L(phi) on a
    left turn, g_R(phi) on a right one) is averaged over the 2^(nu - 1)
    trees got by swapping subtrees at any nodes: `_fold` with
    h = (g_L + g_R) / 2, one column per statistic.  A swap keeps the shape
    law (a cut L becomes s - L), so the average has the plain sum's mean
    under any angle law.  g(x) is |x|, x^2, |x|^3, x^2 |P2(x)|,
    |x^3 P3(x)| = x^4 |2.5 x^2 - 1.5| and x^4 at x = cos phi and sin phi.
    W alone (no s_powers, no a_star) is W's column folded by itself, the
    same bits.  W_tail averages the indicators of the plain W and its root
    mirror (`_root_pair`), an exchangeable pair.  Block and factors share
    one allocation; the full block's, sized for LEAF_BUDGET nodes, is reused."""
    record = germination_record(nus, kernel, rng, azimuths=False)
    shift = record.n_leaves - 1  # slot n + k (node k) -> row 1 + k, leaf slots -> row 0
    np.maximum(record.children, shift, out=record.children)
    np.subtract(record.children, shift, out=record.children)
    left, right, roots = record.left, record.right, np.maximum(record.roots - shift, 0)
    levels, m = list(record.levels())[::-1], len(record.phis)
    names = ("abs_pow_1", "abs_pow_2", "abs_pow_3", "zeta", "eta", "W")
    width = len(names) if s_powers or a_star is not None else 1
    work = np.empty((width + 4) * (max(m, LEAF_BUDGET) if width > 1 else m) + width)
    block = work[:width * (m + 1)].reshape(m + 1, width)
    squares, fourth = work[width * (m + 1):(width + 4) * m + width].reshape(2, 2, m)
    np.square(np.tan(record.phis, out=squares[1]), out=squares[1])  # tan^2, then sin^2
    np.divide(1.0, squares[1] + 1.0, out=squares[0])  # cos^2 = 1 / (1 + tan^2)
    squares[1] *= squares[0]
    np.multiply(squares, squares, out=fourth)
    stats = {}
    if a_star is not None:
        plain, pair = _root_pair(*fourth, left, right, levels, roots)
        stats["W_tail"] = 0.5 * np.add(plain >= a_star, pair >= a_star, dtype=float)
    block[0] = 1.0
    h = block[1:].T  # h[i] is column i's g(cos phi) + g(sin phi), halved before the fold
    np.add(*fourth, out=h[-1])
    if width > 1:
        for x_sq, x_4 in zip(squares, fourth):  # eta's factor, over x^4
            x_4 *= np.abs(x_sq * 2.5 - 1.5)
        np.add(*fourth, out=h[4])
        g = np.sqrt(squares, out=fourth)  # |x|, then |x|^3, then zeta's factor
        np.add(*g, out=h[0])
        np.add(*squares, out=h[1])
        g *= squares
        np.add(*g, out=h[2])
        np.abs(squares * 1.5 - 0.5, out=g)
        g *= squares
        np.add(*g, out=h[3])
    block[1:] *= 0.5
    columns = dict(zip(names[-width:], _fold(block, left, right, levels).take(roots, axis=0).T))
    columns["abs_pow_4"] = columns["W"]
    keys = (*(f"abs_pow_{s}" for s in s_powers), *names[3:]) if width > 1 else ("W",)
    return {**{key: columns[key] for key in keys}, **stats}


def frequency_rays(xi_grid):
    """The radii rho = |xi| of a grid's frequencies, their unit vectors
    xi / rho (0 at xi = 0), and the index lists of the nonzero frequencies
    that share one unit vector (compared as bytes), in grid order, for the
    work that depends on a frequency's direction alone."""
    xi_grid = np.asarray(xi_grid, float)
    rhos = np.linalg.norm(xi_grid, axis=1)
    units = xi_grid / np.where(rhos > 0.0, rhos, 1.0)[:, None]
    rays = {}
    for i in np.flatnonzero(rhos):
        rays.setdefault(units[i].tobytes(), []).append(i)
    return rhos, units, list(rays.values())


def transform_sums(nus, rng, *, mu0: InitialDatum, kernel: CollisionKernel, xi_grid) -> dict:
    """Per-cascade transform estimator at every grid frequency, as real
    parts 're' and imaginary parts 'im' of shape (cascades, frequencies)
    (exactly 1 at xi = 0).

    A datum with an exact transform cf takes the conditional transform
    prod_j cf(rho w_j psi_j); any other takes exp(i rho S) with velocities
    drawn at the leaves.  The leaf directions psi_j depend on the
    frequency's direction xi / rho alone, so frequencies that share one
    (`frequency_rays`) share one psi: the conditional path projects
    w_j psi_j (cf.project) once per direction and evaluates cf.profile at
    rho per frequency, the raw path reduces S = sum_j w_j psi_j . V_j once
    per direction and takes cos and sin of rho S per frequency.  On the
    conditional path every cascade with nu = 1 has weight 1 and the
    identity rotation, so one value.  They end the chunk (sizes descend)
    and draw no angle, so the record stops at the first of them (the
    second in a chunk of them alone) and its row is copied to the rest,
    bit for bit what each would give.  Memory stays O(leaves + cascades x
    frequencies).  The output columns are stored contiguously, so each
    frequency's moments sum in the same order as a one-dimensional array's.
    """
    cf = mu0.cf
    head = len(nus)
    if cf is not None:  # up to the first of the nu = 1 cascades that end the
        # chunk, and two at least: a one-row matrix-vector product takes
        # another path in numpy, with other roundoff
        split = np.flatnonzero(np.asarray(nus) > 1)
        head = min(head, 2 + (int(split[-1]) if len(split) else 0))
        del split
    # the cascades past head have no node, so their record draws what the
    # whole chunk's would
    record = germination_record(nus[:head], kernel, rng)
    weights, rotations = leaf_frames(record)
    # the third columns as contiguous rows, which the matmuls read faster;
    # the (leaves, 3, 3) rotations are freed before the first cf call
    columns = np.ascontiguousarray(rotations.third_columns())
    del rotations
    if cf is None:
        velocities = mu0.sampler(rng, record.n_leaves)
    rhos, units, rays = frequency_rays(xi_grid)
    real = np.empty((len(nus), len(rhos)), order="F")
    imag = np.empty((len(nus), len(rhos)), order="F")
    real[:, rhos == 0.0], imag[:, rhos == 0.0] = 1.0, 0.0
    for members in rays:
        psi = columns @ frame_for(units[members[0]]).T
        if cf is not None:
            psi *= weights[:, None]
            projection = cf.project(psi)
            for i in members:
                values = record.per_cascade(cf.profile(projection, rhos[i]), np.multiply)
                real[:head, i], imag[:head, i] = values.real, values.imag
                real[head:, i], imag[head:, i] = values[-1].real, values[-1].imag
        else:
            s = record.per_cascade(weights * np.einsum("ji,ji->j", psi, velocities))
            for i in members:
                real[:, i], imag[:, i] = cos_sin(rhos[i] * s)
    return {"re": real, "im": imag}


# --- single-draw views and batch front ends --------------------------------------

@dataclass(frozen=True)
class TreeSample:
    """One draw of (size, leaf weights, leaf rotations) at parameter t."""

    nu: int
    pi: WeightArray
    rotations: RotationArray
    phis: np.ndarray
    thetas: np.ndarray
    t: float


def draw_tree_sample(t: float, kernel: CollisionKernel, rng: np.random.Generator,
                     nu: int | None = None) -> TreeSample:
    """Draw a TreeSample, a one-cascade chunk of the engine (nu overrides
    the size draw, for conditional studies)."""
    if nu is None:
        nu = sample_nu(t, rng)
    record = germination_record([nu], kernel, rng)
    weights, rotations = leaf_frames(record)
    return TreeSample(nu=nu, pi=WeightArray(values=weights, order=1), rotations=rotations,
                      phis=record.phis, thetas=record.thetas, t=t)


def wild_velocity(t: float, mu0: InitialDatum, kernel: CollisionKernel,
                  rng: np.random.Generator) -> np.ndarray:
    """One velocity draw from the solution at time t."""
    nu = sample_nu(t, rng)
    return cascade_velocities([nu], rng, mu0=mu0, kernel=kernel)[0]


def wild_velocity_batch(t: float, mu0: InitialDatum, kernel: CollisionKernel, seed: int,
                        size: int, workers: int = 1, key=(0,)):
    """size independent draws from the solution at time t, shape (size, 3),
    in the order their sizes were drawn: the sizes from stream key of seed,
    chunk c from stream key + (c,), so the draws do not depend on workers.
    `simulate` draws from the default key (0,)."""
    nus, order = sorted_sizes(t, rng_stream(seed, *key), size)
    out = np.empty((size, 3))
    chunks = _run_chunks(cascade_velocities, nus, seed, key, workers,
                         {"mu0": mu0, "kernel": kernel})
    for chunk, draws in zip(chunk_slices(nus), chunks):
        out[order[chunk]] = draws  # back to draw order
    return out


def weight_statistic_sums(t: float, kernel: CollisionKernel, seed: int, n_samples: int,
                          s_powers: tuple = (1, 2, 3, 4),
                          a_star: float | None = None) -> dict[str, np.ndarray]:
    """`weight_sums` over n_samples cascades at time t, reduced on the
    streams of seed alone (read the summary with `mean_se`)."""
    return reduce_cascades(weight_sums, seed, (), 1, t, n_samples,
                           kernel=kernel, s_powers=s_powers, a_star=a_star)
