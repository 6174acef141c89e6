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
live in one flat buffer, and two passes walk the levels:

* forward (`grow`), roots first: a node's value v becomes v * left on its
  left subtree and v * right on its right.  Scalar factors
  (P_k(cos phi), P_k(sin phi)) give the order-k Legendre leaf weights; the
  collision frames left(phi, theta) and right(phi, theta) give the leaf
  rotations.
* backward (`replay`), deepest level first: i.i.d. initial velocities at
  the leaves are folded through pairwise collisions (`collide`), one
  vectorised call per level over every cascade of the chunk, so each merge
  sees fully collapsed subtrees; the root keeps one draw from the solution.

Both passes cost O(depth) Python-level steps per chunk; the depth grows
like log nu while nu grows like e^t.

Statistics are per-cascade reductions of these leaf arrays (np.add.reduceat
and np.multiply.reduceat over the offsets), kept per chunk as (mean, M2)
pairs and merged chunk by chunk with the pairwise update of Chan, Golub and
LeVeque.  Each reduction grows only what it reads: W = sum_j w_j^4 alone
needs the order-1 weights, so it grows scalar (cos phi, sin phi) factors
rather than orders 1 to 3.  The single-draw views (`draw_tree_sample`,
`wild_velocity`) are one-cascade chunks of the same engine.

The transform estimator (`transform_sums`, over a whole grid of
frequencies) averages exp(i rho S) with S = sum_j w_j psi_j . V_j, or its
conditional expectation given the tree, angles and rotations,
prod_j cf(rho w_j psi_j) (the default when the initial transform is
available, since conditioning never increases variance).  For a symmetric
initial law cf is real, so the product is taken over floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import pairwise

import numpy as np
# numpy loads numpy.random lazily; every run draws, so pay for it on import
import numpy.random  # noqa: F401

from .errors import ConfigError, TimeTooLarge
from .geometry import RotationArray, frame_for, left_frame, right_frame
from .initial import InitialDatum, make_initial_datum  # noqa: F401  (module API)
from .kernel import CollisionKernel
from .weights import WeightArray, legendre_value

DEFAULT_NU_CAP = 1_000_000
LEAF_BUDGET = 1 << 14   # leaves per chunk; a larger cascade is a chunk of its own
TWO_PI = 2.0 * math.pi


def rng_stream(seed: int, *key: int) -> np.random.Generator:
    """Counter-based generator for (seed, stream key); reproducible and
    independent across keys, so chunk streams never overlap."""
    seq = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(seq))


def _check_time(t: float, n_max: int) -> None:
    if not t >= 0.0:
        raise ConfigError(f"time must be a nonnegative number, got {t!r}")
    if math.exp(t) > n_max:
        raise TimeTooLarge(
            f"expected cascade size exp({t:g}) exceeds the cap {n_max}"
        )


def sample_nu(t: float, rng: np.random.Generator, n_max: int = DEFAULT_NU_CAP) -> int:
    """Cascade size: P[nu = n] = e^-t (1 - e^-t)^(n-1)."""
    return int(sample_nu_batch(t, rng, 1, n_max)[0])


def sample_nu_batch(t, rng, size, n_max: int = DEFAULT_NU_CAP) -> np.ndarray:
    _check_time(t, n_max)
    if t == 0.0:
        return np.ones(size, dtype=np.int64)
    log_fail = math.log(-math.expm1(-t))  # log(1 - e^-t), finite for tiny t
    u = np.clip(rng.random(size), 5e-324, None)
    nus = 1 + (np.log(u) / log_fail).astype(np.int64)
    if np.any(nus > n_max):
        raise TimeTooLarge(f"drew cascade size above the cap {n_max}")
    return nus


def sorted_sizes(t, rng, size, n_max: int = DEFAULT_NU_CAP):
    """size cascade sizes in descending order, with the draw index of each."""
    nus = sample_nu_batch(t, rng, size, n_max)
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
    (phis, thetas) and are numbered in level order over the whole chunk:
    level k (roots at k = 0) holds the nodes bounds[k] .. bounds[k + 1] - 1.
    Slots index one buffer of leaves then nodes: slot i < n_leaves is leaf i,
    slot n_leaves + k is node k.  Node k's subtrees sit at slots left[k] and
    right[k], always a leaf or a node of the next level, and roots[j] is the
    slot of cascade j's root (its only leaf when nus[j] = 1).  left and right
    are strided views of one (nodes, 2) array, each node's pair side by side.
    """

    nus: np.ndarray
    offsets: np.ndarray
    bounds: np.ndarray
    phis: np.ndarray
    thetas: np.ndarray
    left: np.ndarray
    right: np.ndarray
    roots: np.ndarray

    @property
    def n_leaves(self) -> int:
        return int(self.offsets[-1] + self.nus[-1])

    def levels(self):
        """(start, stop) of each level's nodes, the roots' level first."""
        return pairwise(self.bounds.tolist())

    def per_cascade(self, leaf_values, ufunc=np.add) -> np.ndarray:
        """Reduce leaf values (along axis 0) to one value per cascade."""
        return ufunc.reduceat(leaf_values, self.offsets, axis=0)


def germination_record(nus, kernel: CollisionKernel, rng: np.random.Generator) -> GerminationRecord:
    """Draw the trees of cascades with the given sizes (descending), one
    level at a time: a node over s leaves sends a uniform 1 .. s - 1 of them
    to its left subtree and the rest to its right, which is the shape law
    p_n(tree) = p(left) p(right) / (n - 1).  Angles, azimuths and the cut
    variables of all nodes are drawn up front, in that order."""
    nus = np.asarray(nus, dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(nus[:-1])))
    n = int(offsets[-1] + nus[-1])
    m = n - len(nus)
    phis = kernel.inverse_beta_cdf(rng.random(m))
    thetas = rng.uniform(0.0, TWO_PI, m)
    cuts = rng.random(m)
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
        inner = np.flatnonzero(level_sizes > 1)
        start, size = level[inner], level_sizes[inner]
        level[inner] = np.arange(n + b, n + b + len(inner))
        bounds.append(b)
    return GerminationRecord(
        nus=nus, offsets=offsets, bounds=np.array(bounds), phis=phis, thetas=thetas,
        left=slots[:, 0], right=slots[:, 1], roots=roots,
    )


def grow(record: GerminationRecord, left, right, root) -> np.ndarray:
    """Forward pass: leaf values from per-node left/right factors.

    Every root starts at `root`; level by level, roots first, a node's
    value v passes v * left to its left subtree and v * right to its right.
    Factors of shape (nodes, 3, 3) compose as matrices (v @ factor), any
    other shape multiplies elementwise.
    """
    n = record.n_leaves
    values = np.empty((n + len(record.phis),) + np.shape(root))
    values[record.roots] = root
    compose = np.matmul if np.ndim(left) == 3 else np.multiply
    for a, b in record.levels():
        value = values[n + a:n + b]
        values[record.left[a:b]] = compose(value, left[a:b])
        values[record.right[a:b]] = compose(value, right[a:b])
    return values[:n]


def leaf_frames(record: GerminationRecord) -> tuple[np.ndarray, RotationArray]:
    """Order-1 leaf weights and leaf rotations of every cascade in the record."""
    weights = grow(record, np.cos(record.phis), np.sin(record.phis), 1.0)
    rotations = grow(record, left_frame(record.phis, record.thetas),
                     right_frame(record.phis, record.thetas), np.eye(3))
    return weights, RotationArray(rotations=rotations)


def collide(v, w, phi, theta):
    """Post-collisional pair for incoming velocities v = (vx, vy, vz) and
    w = (wx, wy, wz); components and angles may be scalars or equal-shape
    arrays, and each output stacks its three components along axis 0.

    The deflection direction is built from the unit relative velocity and
    the branchless orthonormal completion of Duff et al. (JCGT 2017); theta
    is uniform, so the law of the outcome does not depend on the completion
    choice.  Momentum and kinetic energy are conserved exactly up to
    roundoff, and identical velocities pass through unchanged.
    """
    vx, vy, vz = v
    wx, wy, wz = w
    dx, dy, dz = wx - vx, wy - vy, wz - vz
    norm = np.sqrt(dx * dx + dy * dy + dz * dz)
    scale = 1.0 / np.where(norm > 0.0, norm, 1.0)
    ux, uy, uz = dx * scale, dy * scale, dz * scale
    sign = np.copysign(1.0, uz)
    a = -1.0 / (sign + uz)
    b = ux * uy * a
    sp, cp = np.sin(phi), np.cos(phi)
    c1, c2 = sp * np.cos(theta), sp * np.sin(theta)
    g = norm * cp  # (w - v) . omega
    gx = g * (c1 * (1.0 + sign * ux * ux * a) + c2 * b + cp * ux)
    gy = g * (c1 * sign * b + c2 * (sign + uy * uy * a) + cp * uy)
    gz = g * (cp * uz - c1 * sign * ux - c2 * uy)
    return np.array([vx + gx, vy + gy, vz + gz]), np.array([wx - gx, wy - gy, wz - gz])


def replay(record: GerminationRecord, velocities) -> np.ndarray:
    """Backward pass: fold leaf velocities, shape (leaves, 3), through the
    record one tree level at a time, deepest level first, with one
    `collide` call per level: a node's output is the first outgoing
    velocity of collide(left input, right input, phi, theta).  Returns each
    cascade's root velocity, shape (cascades, 3)."""
    n = record.n_leaves
    buffer = np.empty((3, n + len(record.phis)))
    buffer[:, :n] = np.asarray(velocities, float).T
    for a, b in reversed(list(record.levels())):
        buffer[:, n + a:n + b] = collide(buffer[:, record.left[a:b]],
                                         buffer[:, record.right[a:b]],
                                         record.phis[a:b], record.thetas[a:b])[0]
    return buffer[:, record.roots].T


def cascade_velocities(nus, rng, *, mu0: InitialDatum, kernel: CollisionKernel) -> np.ndarray:
    """One draw from the solution per cascade size, shape (len(nus), 3)."""
    record = germination_record(nus, kernel, rng)
    return replay(record, mu0.sampler(rng, record.n_leaves))


# --- reductions -------------------------------------------------------------------

def moments(values) -> np.ndarray:
    """(mean, M2) along axis 0, M2 the sum of squared deviations."""
    values = np.asarray(values, float)
    mean = values.mean(axis=0)
    return np.stack([mean, np.sum((values - mean) ** 2, axis=0)])


def summarize(stats: dict, count: int) -> dict:
    """Chunk summary: (mean, M2) of every per-cascade statistic, and the count."""
    return {"count": float(count), **{key: moments(x) for key, x in stats.items()}}


def merge_sums(parts) -> dict:
    """Merge chunk summaries in order (Chan, Golub and LeVeque's update)."""
    parts = iter(parts)
    total = dict(next(parts))
    for part in parts:
        n_a, n_b = total["count"], part["count"]
        n = n_a + n_b
        for key in part.keys() - {"count"}:
            (mean_a, m2_a), (mean_b, m2_b) = total[key], part[key]
            delta = mean_b - mean_a
            total[key] = np.stack([mean_a + delta * (n_b / n),
                                   m2_a + m2_b + delta * delta * (n_a * n_b / n)])
        total["count"] = n
    return total


def mean_se(sums: dict, key: str):
    """Mean and its standard error for one statistic of a summary."""
    n = sums["count"]
    mean, m2 = sums[key]
    se = np.sqrt(m2 / (n * (n - 1.0))) if n > 1 else np.zeros_like(m2)
    return mean, se


def weight_sums(nus, rng, *, kernel: CollisionKernel, s_powers=(1, 2, 3, 4),
                a_star: float | None = None) -> dict:
    """Chunk summary of sum_j |w_j|^s, sum_j w_j^2 |zeta_j|, sum_j |w_j^3 eta_j|,
    W = sum_j w_j^4 and (given a_star) the tail indicator W >= a_star, with
    w, zeta, eta the order-1, -2 and -3 leaf weights.  With no s_powers and
    no a_star the summary holds W alone, grown at order 1 only."""
    record = germination_record(nus, kernel, rng)
    cos_p, sin_p = np.cos(record.phis), np.sin(record.phis)
    if not s_powers and a_star is None:
        w = grow(record, cos_p, sin_p, 1.0)
        sq = w * w
        return summarize({"W": record.per_cascade(sq * sq)}, len(nus))
    orders = (1, 2, 3)
    left = np.stack([legendre_value(k, cos_p) for k in orders], axis=-1)
    right = np.stack([legendre_value(k, sin_p) for k in orders], axis=-1)
    w, zeta, eta = np.abs(grow(record, left, right, np.ones(3))).T
    sq = w * w
    stats = {f"abs_pow_{s}": record.per_cascade(w**s) for s in s_powers}
    stats["zeta"] = record.per_cascade(sq * zeta)
    stats["eta"] = record.per_cascade(sq * w * eta)
    stats["W"] = record.per_cascade(sq * sq)
    if a_star is not None:
        stats["W_tail"] = (stats["W"] >= a_star).astype(float)
    return summarize(stats, len(nus))


def transform_sums(nus, rng, *, mu0: InitialDatum, kernel: CollisionKernel, xi_grid,
                   estimator: str = "raoblackwell") -> dict:
    """Chunk summary of the transform estimator at every grid frequency, as
    real parts 're' and imaginary parts 'im' (exactly 1 at xi = 0).

    'raoblackwell' takes the conditional transform prod_j cf(rho w_j psi_j);
    'raw' takes exp(i rho S) with velocities drawn at the leaves.
    Frequencies are evaluated one at a time, so memory stays O(leaves).
    """
    if estimator not in ("raoblackwell", "raw"):
        raise ConfigError(f"unknown estimator {estimator!r}")
    record = germination_record(nus, kernel, rng)
    weights, rotations = leaf_frames(record)
    columns = rotations.third_columns()
    if estimator == "raoblackwell":
        cf = mu0.require_cf()
    else:
        velocities = mu0.sampler(rng, record.n_leaves)
    xi_grid = np.asarray(xi_grid, float)
    real = np.empty((2, len(xi_grid)))
    imag = np.empty((2, len(xi_grid)))
    for i, xi in enumerate(xi_grid):
        rho = float(np.linalg.norm(xi))
        if rho == 0.0:
            values = np.ones(len(nus), dtype=complex)
        else:
            psi = columns @ frame_for(xi / rho).T
            if estimator == "raoblackwell":
                values = record.per_cascade(cf(rho * weights[:, None] * psi), np.multiply)
            else:
                s = record.per_cascade(weights * np.einsum("ji,ji->j", psi, velocities))
                values = np.exp(1j * rho * s)
        real[:, i] = moments(values.real)
        imag[:, i] = moments(values.imag)
    return {"count": float(len(nus)), "re": real, "im": imag}


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


def draw_tree_sample(
    t: float,
    kernel: CollisionKernel,
    rng: np.random.Generator,
    n_max: int = DEFAULT_NU_CAP,
    nu: int | None = None,
) -> TreeSample:
    """Draw a TreeSample, a one-cascade chunk of the engine (nu overrides
    the size draw, for conditional studies)."""
    if nu is None:
        nu = sample_nu(t, rng, n_max)
    record = germination_record([nu], kernel, rng)
    weights, rotations = leaf_frames(record)
    return TreeSample(
        nu=nu,
        pi=WeightArray(values=weights, order=1),
        rotations=rotations,
        phis=record.phis,
        thetas=record.thetas,
        t=t,
    )


def wild_velocity(
    t: float,
    mu0: InitialDatum,
    kernel: CollisionKernel,
    rng: np.random.Generator,
    n_max: int = DEFAULT_NU_CAP,
) -> np.ndarray:
    """One velocity draw from the solution at time t."""
    nu = sample_nu(t, rng, n_max)
    return cascade_velocities([nu], rng, mu0=mu0, kernel=kernel)[0]


def wild_velocity_batch(
    t: float,
    mu0: InitialDatum,
    kernel: CollisionKernel,
    rng: np.random.Generator,
    size: int,
    n_max: int = DEFAULT_NU_CAP,
) -> np.ndarray:
    """size independent draws from the solution at time t, shape (size, 3),
    in the order their sizes were drawn."""
    nus, order = sorted_sizes(t, rng, size, n_max)
    out = np.empty((size, 3))
    for chunk in chunk_slices(nus):
        out[order[chunk]] = cascade_velocities(nus[chunk], rng, mu0=mu0, kernel=kernel)
    return out


def weight_statistic_sums(
    t: float,
    kernel: CollisionKernel,
    rng: np.random.Generator,
    n_samples: int,
    s_powers: tuple = (1, 2, 3, 4),
    a_star: float | None = None,
    n_max: int = DEFAULT_NU_CAP,
) -> dict[str, np.ndarray]:
    """`weight_sums` over n_samples cascades at time t: a dict of
    (mean, M2) pairs per statistic, plus the count."""
    nus, _ = sorted_sizes(t, rng, n_samples, n_max)
    return merge_sums(
        weight_sums(nus[chunk], rng, kernel=kernel, s_powers=s_powers, a_star=a_star)
        for chunk in chunk_slices(nus)
    )
