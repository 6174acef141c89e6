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
and np.multiply.reduceat over the offsets).  Their means are post-stratified
on the cascade size, whose law is known exactly: `size_strata` cuts it into
SIZE_STRATA = 16 equal-probability bins at whole sizes, with exact
probabilities p_h.  Sizes descend within a chunk, so each stratum is a
contiguous slice; a chunk keeps (count, mean, M2) per stratum, and chunks
merge stratum by stratum with the pairwise update of Chan, Golub and
LeVeque.  After the merge, a stratum with fewer than MIN_STRATUM_DRAWS = 2
draws is pooled with the strata of larger sizes after it (a short last
group joins the one before), and the estimate is sum_h p_h xbar_h with
standard error sqrt(sum_h p_h^2 s_h^2 / n_h).  Between-size variance, most
of it for the weight statistics, drops out; the draws are the same as for
a plain mean.  Each reduction grows only what it reads: W = sum_j w_j^4 alone
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
SQRT_FLOAT_MAX = math.sqrt(np.finfo(float).max)


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

SIZE_STRATA = 16       # equal-probability bins of the size law at t; atoms stay whole
MIN_STRATUM_DRAWS = 2  # after the merge, a stratum with fewer draws is pooled with the
                       # strata of larger sizes after it (a short last group joins the
                       # group before it)


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


def _pooled(count, prob, mean, m2):
    """Pool strata holding fewer than MIN_STRATUM_DRAWS draws: walking up
    the sizes, a group closes once it holds that many draws, and a short
    last group joins the one before it."""
    ends, held = [0], 0.0
    for h, n in enumerate(count.tolist()):
        held += n
        if held >= MIN_STRATUM_DRAWS:
            ends.append(h + 1)
            held = 0.0
    if ends[-1] < len(count):
        if len(ends) > 1:
            ends[-1] = len(count)
        else:
            ends.append(len(count))
    if len(ends) == len(count) + 1:
        return count, prob, mean, m2
    groups = []
    for a, b in pairwise(ends):
        n, mu, s = count[a], mean[..., a], m2[..., a]
        for h in range(a + 1, b):
            if count[h] > 0:
                delta = mean[..., h] - mu
                mu = mu + delta * (count[h] / (n + count[h]))
                s = s + m2[..., h] + delta * delta * (n * count[h] / (n + count[h]))
                n = n + count[h]
        groups.append((n, prob[a:b].sum(), mu, s))
    count, prob, mean, m2 = zip(*groups)
    return np.array(count), np.array(prob), np.stack(mean, -1), np.stack(m2, -1)


def mean_se(sums: dict, key: str):
    """Post-stratified mean sum_h p_h xbar_h of one statistic and its
    standard error sqrt(sum_h p_h^2 s_h^2 / n_h), over the strata left
    after pooling those with fewer than MIN_STRATUM_DRAWS draws.  The
    standard error is inf where the square of the estimate overflows."""
    count, prob, mean, m2 = _pooled(sums["count"], sums["prob"], *sums[key])
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


def weight_sums(nus, rng, *, kernel: CollisionKernel, s_powers=(1, 2, 3, 4),
                a_star: float | None = None) -> dict:
    """Per-cascade sum_j |w_j|^s, sum_j w_j^2 |zeta_j|, sum_j |w_j^3 eta_j|,
    W = sum_j w_j^4 and (given a_star) the tail indicator W >= a_star, with
    w, zeta, eta the order-1, -2 and -3 leaf weights.  With no s_powers and
    no a_star the result holds W alone, grown at order 1 only."""
    record = germination_record(nus, kernel, rng)
    cos_p, sin_p = np.cos(record.phis), np.sin(record.phis)
    if not s_powers and a_star is None:
        w = grow(record, cos_p, sin_p, 1.0)
        sq = w * w
        return {"W": record.per_cascade(sq * sq)}
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
    return stats


def transform_sums(nus, rng, *, mu0: InitialDatum, kernel: CollisionKernel, xi_grid,
                   estimator: str = "raoblackwell") -> dict:
    """Per-cascade transform estimator at every grid frequency, as real
    parts 're' and imaginary parts 'im' of shape (cascades, frequencies)
    (exactly 1 at xi = 0).

    'raoblackwell' takes the conditional transform prod_j cf(rho w_j psi_j);
    'raw' takes exp(i rho S) with velocities drawn at the leaves.
    Frequencies are evaluated one at a time, so memory stays
    O(leaves + cascades x frequencies).  The columns are stored
    contiguously, so each frequency's moments sum in the same order as a
    one-dimensional array's.
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
    real = np.empty((len(nus), len(xi_grid)), order="F")
    imag = np.empty((len(nus), len(xi_grid)), order="F")
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
        real[:, i] = values.real
        imag[:, i] = values.imag
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
    """`weight_sums` over n_samples cascades at time t, reduced to a
    post-stratified summary (read it with `mean_se`)."""
    nus, _ = sorted_sizes(t, rng, n_samples, n_max)
    strata = size_strata(t)
    return merge_sums(
        summarize(weight_sums(nus[chunk], rng, kernel=kernel, s_powers=s_powers,
                              a_star=a_star), nus[chunk], strata)
        for chunk in chunk_slices(nus)
    )
