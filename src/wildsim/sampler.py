"""Sampling of collision cascades and of the solution they represent.

One random object underlies every statistic: a cascade size nu, drawn from
the geometric law at time t, and a germination record of nu - 1 steps.
Step i picks a uniform slot among the i + 1 current leaves and splits it at
angles (phi, theta): the chosen leaf stays in place and a new leaf is
appended.  Every statistic computed downstream is symmetric in the leaf
index, which is what makes this slot/append order legal.

The engine runs a chunk of cascades in lockstep.  Their sizes are sorted in
descending order, so the cascades still growing at step i are a prefix, and
the record is stored step-major in flat arrays (`GerminationRecord`).  Leaf
values live in flat arrays too, with per-cascade offsets, and two passes
walk the record:

* forward (`grow`), step by step: the chosen leaf's value v becomes
  v * left and the new leaf gets v * right.  Scalar factors
  (P_k(cos phi), P_k(sin phi)) give the order-k Legendre leaf weights; the
  collision frames left(phi, theta) and right(phi, theta) give the leaf
  rotations.
* backward (`replay`): i.i.d. initial velocities at the leaves are folded
  through pairwise collisions (`collide`).  Read backward, the record is a
  binary tree of collisions whose depth grows like log nu while nu grows
  like e^t; the pass visits it one depth at a time, deepest level first,
  with one vectorised `collide` per level over every cascade of the chunk,
  so each merge sees fully collapsed subtrees; the root keeps one draw
  from the solution.

Statistics are per-cascade reductions of these leaf arrays (np.add.reduceat
and np.multiply.reduceat over the offsets), kept per chunk as (mean, M2)
pairs and merged chunk by chunk with the pairwise update of Chan, Golub and
LeVeque.  The public single-draw functions are one-cascade chunks of the
same engine.

The characteristic-function estimator averages exp(i rho S) with
S = sum_j w_j psi_j . V_j, or its conditional expectation given the tree,
angles and rotations (the default when the initial transform is available,
since conditioning never increases variance).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import pairwise

import numpy as np

from .errors import ConfigError, TimeTooLarge
from .geometry import RotationArray, frame_for, leaf_directions, left_frame, right_frame
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
    """Germination steps of a chunk of cascades, stored step-major.

    Cascade j owns the leaves offsets[j] .. offsets[j] + nus[j] - 1, its root
    first.  Sizes are descending, so step i involves cascades 0 .. a_i - 1;
    their entries sit at bounds[i] .. bounds[i + 1] of the flat arrays.  An
    entry splits leaf `parent` at angles (phi, theta), keeping `parent` and
    creating leaf `child`.
    """

    nus: np.ndarray
    offsets: np.ndarray
    bounds: np.ndarray
    phis: np.ndarray
    thetas: np.ndarray
    parent: np.ndarray
    child: np.ndarray

    @property
    def n_leaves(self) -> int:
        return int(self.offsets[-1] + self.nus[-1])

    def steps(self):
        """(start, stop) of each step's entries, first step first."""
        return pairwise(self.bounds.tolist())

    def per_cascade(self, leaf_values, ufunc=np.add) -> np.ndarray:
        """Reduce leaf values (along axis 0) to one value per cascade."""
        return ufunc.reduceat(leaf_values, self.offsets, axis=0)


@dataclass(frozen=True)
class CollisionLevels:
    """A record's entries as a binary tree of collisions, deepest level first.

    Entry e collides two inputs: its left input is the output of the next
    split of the same leaf, or that leaf's velocity if there is none; its
    right input is the output of the first split of the new leaf, or the new
    leaf's velocity.  Slots index one buffer that holds the leaf velocities
    (slots 0 .. leaves - 1) followed by the entry outputs in `order`: entry
    order[k] reads slots left[k] and right[k] and writes slot leaves + k.
    Level k, counted from the deepest, is order[bounds[k]:bounds[k + 1]];
    every input of a level lies in a deeper level or among the leaves, and
    roots[j] is the slot holding cascade j's root velocity at the end.
    """

    order: np.ndarray
    bounds: np.ndarray
    left: np.ndarray
    right: np.ndarray
    roots: np.ndarray


def _small_keys(keys: np.ndarray) -> np.ndarray:
    """Nonnegative integer keys in their smallest unsigned dtype, so that a
    stable argsort of up to 16-bit keys runs as a radix sort."""
    return keys.astype(np.min_scalar_type(int(keys.max(initial=0))))


def collision_levels(record: GerminationRecord) -> CollisionLevels:
    """Derive each entry's inputs and depth from parent/child, no new draws.

    Depth (the number of collisions between an entry and its cascade's root)
    comes from pointer jumping over the link from each entry to the entry
    that consumes its output, O(log depth) vector passes.
    """
    n, m = record.n_leaves, len(record.parent)
    entries = np.arange(m)
    # Each leaf's splits in step order (entries are step-major).
    by_leaf = np.argsort(_small_keys(record.parent), kind="stable")
    leaf = record.parent[by_leaf]
    same = leaf[1:] == leaf[:-1]
    earlier, later = by_leaf[:-1][same], by_leaf[1:][same]
    first = np.concatenate(([True], ~same))[:m]
    # An entry's output feeds the earlier split of its leaf, else the entry
    # that created the leaf; the first split of a root leaf points at itself.
    creator = np.full(n, -1)
    creator[record.child] = entries
    up = creator[record.parent]
    up[later] = earlier
    up = np.where(up >= 0, up, entries)
    depth = (up != entries).astype(np.int64)
    while True:
        upper = up[up]
        if np.array_equal(upper, up):
            break
        depth += depth[up]
        up = upper
    level = _small_keys(depth.max(initial=0) - depth)
    order = np.argsort(level, kind="stable")
    slot = np.empty(m, dtype=np.int64)
    slot[order] = n + entries
    left = record.parent.copy()
    left[earlier] = slot[later]
    head = np.arange(n)  # a leaf's first split's output, else its velocity
    head[leaf[first]] = slot[by_leaf[first]]
    return CollisionLevels(
        order=order,
        bounds=np.concatenate(([0], np.cumsum(np.bincount(level)))),
        left=left[order],
        right=head[record.child[order]],
        roots=head[record.offsets],
    )


def germination_record(nus, kernel: CollisionKernel, rng: np.random.Generator) -> GerminationRecord:
    """Draw the germination record of cascades with the given sizes
    (descending): angles, then azimuths, then slots, all step-major."""
    nus = np.asarray(nus, dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(nus[:-1])))
    steps = nus - 1
    active = len(nus) - np.cumsum(np.bincount(steps, minlength=steps[0] + 1))[:-1]
    bounds = np.concatenate(([0], np.cumsum(active)))
    step = np.repeat(np.arange(len(active)), active)
    cascade = np.arange(bounds[-1]) - np.repeat(bounds[:-1], active)
    phis = kernel.inverse_beta_cdf(rng.random(bounds[-1]))
    thetas = rng.uniform(0.0, TWO_PI, bounds[-1])
    slots = np.minimum((rng.random(bounds[-1]) * (step + 1)).astype(np.int64), step)
    return GerminationRecord(
        nus=nus, offsets=offsets, bounds=bounds, phis=phis, thetas=thetas,
        parent=offsets[cascade] + slots, child=offsets[cascade] + step + 1,
    )


def grow(record: GerminationRecord, left, right, root) -> np.ndarray:
    """Forward pass: leaf values from per-entry left/right factors.

    Every root starts at `root`; at each entry the split leaf's value v
    becomes v * left and the new leaf's is v * right.  Factors of shape
    (entries, 3, 3) compose as matrices (v @ factor), any other shape
    multiplies elementwise.
    """
    values = np.empty((record.n_leaves,) + np.shape(root))
    values[record.offsets] = root
    compose = np.matmul if np.ndim(left) == 3 else np.multiply
    for a, b in record.steps():
        parent = record.parent[a:b]
        value = values[parent]
        values[record.child[a:b]] = compose(value, right[a:b])
        values[parent] = compose(value, left[a:b])
    return values


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
    `collide` call per level; returns each cascade's root velocity,
    shape (cascades, 3).  Each collision sees the same inputs as in a
    step-by-step replay, latest step first, so the result is identical."""
    levels = collision_levels(record)
    n = record.n_leaves
    buffer = np.empty((3, n + len(levels.order)))
    buffer[:, :n] = np.asarray(velocities, float).T
    phis, thetas = record.phis[levels.order], record.thetas[levels.order]
    for a, b in pairwise(levels.bounds.tolist()):
        buffer[:, n + a:n + b] = collide(buffer[:, levels.left[a:b]],
                                         buffer[:, levels.right[a:b]],
                                         phis[a:b], thetas[a:b])[0]
    return buffer[:, levels.roots].T


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
    w, zeta, eta the order-1, -2 and -3 leaf weights."""
    record = germination_record(nus, kernel, rng)
    cos_p, sin_p = np.cos(record.phis), np.sin(record.phis)
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


def _over_chunks(t, rng, size, n_max, reduce) -> dict:
    """Merged summaries of reduce(sizes, rng) over the chunks of size cascades,
    every draw taken from rng."""
    nus, _ = sorted_sizes(t, rng, size, n_max)
    return merge_sums(reduce(nus[chunk], rng) for chunk in chunk_slices(nus))


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

    def leaf_directions(self, u) -> np.ndarray:
        """Unit leaf directions for the probe direction u."""
        return leaf_directions(frame_for(u), self.rotations)


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


def conditional_cf(sample: TreeSample, mu0: InitialDatum, rho: float, u) -> complex:
    """Transform of the conditional law given the full cascade data:
    the product of initial transforms at rho * w_j * psi_j(u)."""
    cf = mu0.require_cf()
    psi = sample.leaf_directions(u)
    args = rho * sample.pi.values[:, None] * psi
    return complex(np.prod(cf(args)))


def conditional_second_moment(sample: TreeSample, mu0: InitialDatum, u) -> float:
    """sum_j w_j^2 E[(psi_j . V)^2], the h = 2 conditional moment bound."""
    psi = sample.leaf_directions(u)
    quad = np.einsum("ji,ik,jk->j", psi, mu0.covariance, psi) + (psi @ mu0.mean) ** 2
    return float(np.sum(sample.pi.values**2 * quad))


@dataclass(frozen=True)
class CfEstimate:
    """Monte Carlo estimate of the solution's transform at one frequency."""

    value: complex
    std_error: float
    se_real: float
    se_imag: float
    n_samples: int
    xi: np.ndarray
    t: float
    estimator: str


def cf_estimate(
    xi,
    t: float,
    n_samples: int,
    mu0: InitialDatum,
    kernel: CollisionKernel,
    rng: np.random.Generator,
    estimator: str = "raoblackwell",
    n_max: int = DEFAULT_NU_CAP,
) -> CfEstimate:
    """Estimate the transform of the solution at frequency xi and time t,
    as a one-row grid of `transform_sums`.

    'raoblackwell' averages the conditional transform (needs mu0.cf);
    'raw' averages exp(i rho S) over velocity draws attached to the leaves.
    """
    xi = np.asarray(xi, float)
    sums = _over_chunks(t, rng, n_samples, n_max, lambda nus, r: transform_sums(
        nus, r, mu0=mu0, kernel=kernel, xi_grid=[xi], estimator=estimator))
    (re, se_re), (im, se_im) = mean_se(sums, "re"), mean_se(sums, "im")
    return CfEstimate(
        value=complex(re[0], im[0]),
        std_error=math.hypot(se_re[0], se_im[0]),
        se_real=float(se_re[0]),
        se_imag=float(se_im[0]),
        n_samples=n_samples,
        xi=xi,
        t=t,
        estimator=estimator,
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
    return _over_chunks(t, rng, n_samples, n_max, lambda nus, r: weight_sums(
        nus, r, kernel=kernel, s_powers=s_powers, a_star=a_star))
