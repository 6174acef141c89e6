"""Maxwellian angular collision kernels.

A kernel is a nonnegative function b on (0, 1), normalized so that
int_0^1 b(x) dx = 1, and satisfying the exchange symmetry

    b(x) = b(sqrt(1 - x^2)) * x / sqrt(1 - x^2).

The collision angle phi in [0, pi] is distributed per the angle law
beta(dphi) = (1/2) b(cos phi) sin phi dphi, sampled here through a
tabulated inverse CDF.  The inverse is the piecewise-linear interpolant of
the table, looked up by the guide-table method of Chen and Asau (1974; see
Devroye, Non-Uniform Random Variate Generation, sec. III.2.4): a guide over
GUIDE_BUCKETS equal buckets of [0, 1) names the table interval of almost
every draw in O(1) expected time, and each angle is exactly the value
np.interp gives on the same table.

The module also computes the spectral functionals that govern every
closed-form decay rate used by the diagnostics:

    lambda_b = -2 int x^2 (1 - x^2) b(x) dx          (spectral gap, <= 0)
    l_s      =    int (1 - x^2)^(s/2) b(x) dx
    A_{4,l}  =    int [cos^4 P_l(cos) + sin^4 P_l(sin)] dbeta     (l = 0, 2, 4)
    f_b      =    int [sin^2 |3/2 sin^2 - 1/2| + cos^2 |3/2 cos^2 - 1/2|] dbeta
    g_b      =    int [sin^4 |5/2 sin^2 - 3/2| + cos^4 |5/2 cos^2 - 3/2|] dbeta

f_b and g_b combine both branch factors of one split, so the quadratic and
cubic weight sums contract by exactly exp(-(1 - f_b) t) and
exp(-(1 - g_b) t); for symmetric kernels the two terms are equal.
A_{4,l} - 1 is the rate of the degree-l part of the quartic form
E[(u . v)^4] (l = 0, 2, 4), and A_{4,0} = 1 + lambda_b.  Each functional
is one call of `angle_integral`, int P(cos^2, sin^2) dbeta for its P.

The quadrature is numpy only.  An analytic kernel is integrated by a
globally adaptive 7/15-point Gauss-Kronrod rule (QUADPACK's qk15 pair,
Piessens et al. 1983) in the collision angle: x = sin(theta) on
(0, pi/2), where the factor sqrt(1 - x^2) of l_1, l_3 and of kernels such
as sqrtmix becomes cos(theta), smooth at the endpoint.  A tabulated kernel
takes a fixed Gauss-Legendre rule per table segment.  The angle-law CDF is
the cumulative Simpson rule, computed exactly as scipy.integrate's
cumulative_simpson computes it.  scipy is needed only by the heavy-tail
initial transform (wildsim.initial) and by the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, partial
from typing import Callable

import numpy as np

from .errors import (
    NegativeKernel,
    NotNormalizable,
    QuadratureFailure,
    SymmetryViolation,
    BadSpec,
    reject_unknown_keys,
)

QUAD_TOL = 1e-10
QUAD_MAX_INTERVALS = 200  # the adaptive rule's cap, as QUADPACK's limit=200 was
SYMMETRY_TOL = 1e-8
SYMMETRY_GRID = 1000
BETA_TABLE_NODES = 16385  # 4 * 4096 + 1, comfortably above the 4096 minimum
GUIDE_BUCKETS = 4 * (BETA_TABLE_NODES - 1)  # a power of two, so u * G is exact
S_POWERS = (1, 2, 3, 4)  # the orders s of l_s and of sum_j |w_j|^s (s = 4 is W)


# --- preset kernels ---------------------------------------------------------
# All presets solve the exchange symmetry exactly: they have the form
# b(x) = x * G(x^2 (1 - x^2)) with G arbitrary, already normalized.

def _preset_xabs(x):
    return 2.0 * np.abs(x)


def _preset_cubic(x):
    x = np.abs(x)
    return 12.0 * x**3 * (1.0 - x**2)


def _preset_sqrtmix(x):
    x = np.abs(x)
    return (16.0 / math.pi) * x**2 * np.sqrt(np.clip(1.0 - x**2, 0.0, None))


def _preset_blend(x):
    x = np.abs(x)
    return (12.0 / 7.0) * x * (1.0 + x**2 * (1.0 - x**2))


PRESETS: dict[str, Callable] = {
    "xabs": _preset_xabs,
    "cubic": _preset_cubic,
    "sqrtmix": _preset_sqrtmix,
    "blend": _preset_blend,
}


def _tabulated(x, xs, bs):
    return np.interp(x, xs, bs)


def _scaled(x, fn, scale):
    return fn(x) / scale


def _capped(x, fn, cap):
    return np.minimum(fn(x), cap)


def integrate_01(fn, points=None, knots=None) -> float:
    """Quadrature of fn over (0, 1) to absolute tolerance QUAD_TOL.

    With `knots` (sorted breakpoints of a piecewise-smooth integrand, as for
    tabulated kernels) a fixed Gauss-Legendre rule is applied per segment,
    which is exact for linear-times-polynomial pieces.  Otherwise the
    adaptive Gauss-Kronrod rule runs in the collision angle, x = sin(theta),
    with optional kink hints in `points`.
    """
    if knots is not None:
        return _segmented_gauss(fn, knots, extra=points)
    interior = sorted(set(float(p) for p in points or () if 0.0 < p < 1.0))
    edges = np.arcsin(np.array([0.0, *interior, 1.0]))
    value, err = _adaptive_gauss_kronrod(fn, edges, 1e-2 * QUAD_TOL)
    if not math.isfinite(value):
        raise QuadratureFailure("integral over (0,1) is not finite")
    if err > QUAD_TOL:
        raise QuadratureFailure(
            f"quadrature error {err:.3e} exceeds tolerance {QUAD_TOL:.1e}"
        )
    return value


# The 7-point Gauss / 15-point Kronrod pair of QUADPACK's qk15 (Piessens et
# al. 1983): the nonnegative Kronrod nodes on [-1, 1], largest first, their
# weights, and the Gauss weights of every second node (1, 3, 5, 7).
_KRONROD_X = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0])
_KRONROD_W = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714])
_GAUSS7_W = np.array([
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327])


def _gauss_kronrod_rule():
    """Nodes on [-1, 1] and a (15, 2) weight matrix: column 0 gives the
    Kronrod value, column 1 the Kronrod - Gauss difference (the error)."""
    nodes = np.concatenate([-_KRONROD_X, _KRONROD_X[-2::-1]])
    kronrod = np.concatenate([_KRONROD_W, _KRONROD_W[-2::-1]])
    gauss = np.zeros(15)
    gauss[1::2] = np.concatenate([_GAUSS7_W, _GAUSS7_W[-2::-1]])
    return nodes, np.column_stack([kronrod, kronrod - gauss])


_GK_NODES, _GK_RULES = _gauss_kronrod_rule()


def _adaptive_gauss_kronrod(fn, edges, target):
    """Integral of fn(x) dx over (0, 1) as fn(sin theta) cos theta dtheta
    between the angle breakpoints `edges`; returns (value, error estimate).

    Globally adaptive: each pass bisects the fewest largest-error intervals
    whose errors carry the excess over the target (relative for values above
    1), and evaluates all the new halves in one call of fn.  Refinement stops
    short of QUAD_MAX_INTERVALS; a non-finite integrand value fails at once.
    The substitution makes sqrt(1 - x^2) = cos(theta) smooth at x = 1.
    """
    # four equal parts per breakpoint interval: smooth integrands then
    # converge in one pass
    grid = edges[:-1, None] + np.diff(edges)[:, None] * np.arange(4) / 4
    lo, hi = grid.ravel(), np.append(grid.ravel()[1:], edges[-1])
    value = error = np.empty(0)
    new_lo, new_hi = lo, hi
    while True:
        half = 0.5 * (new_hi - new_lo)
        theta = (new_lo + half)[:, None] + half[:, None] * _GK_NODES
        x = np.sin(theta)
        f = np.asarray(fn(x.ravel()), dtype=float).reshape(x.shape) * np.cos(theta)
        if not np.all(np.isfinite(f)):
            raise QuadratureFailure("integrand is not finite on (0, 1)")
        rules = (f @ _GK_RULES) * half[:, None]
        value = np.concatenate([value, rules[:, 0]])
        error = np.concatenate([error, np.abs(rules[:, 1])])
        total, excess = float(np.sum(value)), float(np.sum(error))
        excess -= target * max(1.0, abs(total))
        if excess <= 0.0:
            break
        order = np.argsort(error)[::-1]
        count = int(np.searchsorted(np.cumsum(error[order]), excess)) + 1
        if len(value) + count > QUAD_MAX_INTERVALS:
            break
        split, keep = order[:count], order[count:]
        middle = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate([lo[split], middle])
        new_hi = np.concatenate([middle, hi[split]])
        lo, hi = np.concatenate([lo[keep], new_lo]), np.concatenate([hi[keep], new_hi])
        value, error = value[keep], error[keep]
    return total, float(np.sum(error))


@cache
def _gauss_rule():
    """The 12-point Gauss-Legendre rule on [-1, 1], (nodes, weights),
    computed on first use: only tabulated kernels read it, and leggauss
    imports numpy.polynomial and makes the run's first LAPACK call, which
    together add about 1.1 MB of resident memory to every command."""
    return np.polynomial.legendre.leggauss(12)


def _segmented_gauss(fn, knots, extra=None) -> float:
    pts = set(float(k) for k in knots) | {0.0, 1.0}
    if extra:
        pts |= set(float(p) for p in extra if 0.0 < p < 1.0)
    edges = np.array(sorted(p for p in pts if 0.0 <= p <= 1.0))
    a, b = edges[:-1], edges[1:]
    half = 0.5 * (b - a)
    nodes, weights = _gauss_rule()
    x = a[:, None] + half[:, None] * (nodes[None, :] + 1.0)
    vals = np.asarray(fn(x.ravel()), dtype=float).reshape(x.shape)
    return float(np.sum(half * (vals @ weights)))


@dataclass(frozen=True)
class CollisionKernel:
    """Normalized angular kernel with its tabulated angle-law inverse CDF."""

    evaluator: Callable
    table_knots: np.ndarray | None = field(repr=False, default=None)
    phi_grid: np.ndarray = field(repr=False, default=None)
    beta_cdf_values: np.ndarray = field(repr=False, default=None)
    # derived from the table, so no constructor or replace() leaves them stale:
    # guide[k] is the last knot j with cdf[j] <= k / GUIDE_BUCKETS (k = 0 .. G)
    guide: np.ndarray = field(init=False, repr=False, compare=False)
    slopes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cdf, phi = self.beta_cdf_values, self.phi_grid
        if cdf is None or phi is None:
            return
        # cdf[j] <= k / G exactly when ceil(cdf[j] G) <= k (G is a power of
        # two, so cdf[j] G is exact): the last such j is a count of knots,
        # in time linear in the table
        counts = np.bincount(np.ceil(cdf * GUIDE_BUCKETS).astype(np.intp),
                             minlength=GUIDE_BUCKETS + 1)
        guide = counts.cumsum(dtype=np.int32)
        guide -= 1
        with np.errstate(divide="ignore", invalid="ignore"):
            slopes = np.diff(phi) / np.diff(cdf)  # inf on flat runs, never selected
        object.__setattr__(self, "guide", guide)
        object.__setattr__(self, "slopes", slopes)

    def __call__(self, x):
        return self.evaluator(x)

    def inverse_beta_cdf(self, u):
        """Angles phi whose angle-law CDF (beta_cdf_values over phi_grid, on
        [0, pi]) is u, by guide-table lookup; always exactly
        np.interp(u, beta_cdf_values, phi_grid).

        Draw u in bucket k = floor(u G) lies in table interval guide[k] or
        the next one, unless the bucket holds more than one knot (a few
        tenths of a percent of draws); those draws go through np.interp, as
        does an empty input or any that is not a 1-d float array inside [0, 1).
        """
        cdf, phi = self.beta_cdf_values, self.phi_grid
        x = np.asarray(u)
        if (x.ndim != 1 or x.dtype != np.float64 or not x.size
                or not (x.min() >= 0.0 and x.max() < 1.0)):
            return np.interp(u, cdf, phi)
        bucket = (x * GUIDE_BUCKETS).astype(np.intp)
        j = self.guide.take(bucket)
        crowded = (self.guide[1:].take(bucket) - j > 1).nonzero()[0]
        # from here on at most one draw-sized temporary is alive at a time,
        # to keep peak memory low: slopes[j] (x - cdf[j]) + phi[j] in place
        del bucket
        j = j.astype(np.intp)
        j += cdf[1:].take(j) <= x
        out = cdf.take(j)
        np.subtract(x, out, out=out)
        with np.errstate(invalid="ignore"):  # inf * 0 on a crowded bucket's flat run
            out *= self.slopes.take(j)
        out += phi.take(j)
        if crowded.size:
            out[crowded] = np.interp(x.take(crowded), cdf, phi)
        return out


def _resolve_raw(spec):
    """Turn a kernel spec into (callable, table knots or None)."""
    if isinstance(spec, str):
        if spec not in PRESETS:
            raise BadSpec(f"unknown kernel preset {spec!r}")
        return PRESETS[spec], None
    if callable(spec):
        return spec, None
    if isinstance(spec, dict):
        branch = next((key for key in ("preset", "table", "function") if key in spec), None)
        if branch is None:
            raise BadSpec("kernel spec dict needs 'preset', 'table' or 'function'")
        reject_unknown_keys(spec, (branch,), "kernel")
        if branch == "preset":
            return _resolve_raw(spec["preset"])
        if branch == "table":
            table = np.asarray(spec["table"], dtype=float)
            if table.ndim != 2 or table.shape[1] != 2:
                raise BadSpec("kernel table must be a list of [x, b(x)] pairs")
            order = np.argsort(table[:, 0])
            xs, bs = table[order, 0], table[order, 1]
            return partial(_tabulated, xs=xs, bs=bs), xs
        return spec["function"], None
    raise BadSpec(f"cannot interpret kernel spec of type {type(spec).__name__}")


def _symmetry_residual(fn, n_grid=SYMMETRY_GRID) -> float:
    # midpoints keep clear of both endpoints, where the transform degenerates
    x = (np.arange(n_grid) + 0.5) / n_grid
    y = np.sqrt(1.0 - x**2)
    lhs = np.asarray(fn(x), dtype=float)
    rhs = np.asarray(fn(y), dtype=float) * x / y
    return float(np.max(np.abs(lhs - rhs)))


def _simpson_first_halves(y, dx):
    """Simpson integral over the first interval of each node triple, for
    unequal widths (Cartwright 2017, eq. 8); on reversed inputs, over the
    second.  Written operation for operation as scipy.integrate's
    cumulative_simpson does it, so tables match it bit for bit."""
    x21, x32 = dx[:-1], dx[1:]
    f1, f2, f3 = y[:-2], y[1:-1], y[2:]
    x31 = x21 + x32
    x21_x31 = x21 / x31
    x21_x32 = x21 / x32
    x21x21_x31x32 = x21_x31 * x21_x32
    coeff1 = 3 - x21_x31
    coeff2 = 3 + x21x21_x31x32 + x21_x31
    coeff3 = -x21x21_x31x32
    return x21 / 6 * (coeff1 * f1 + coeff2 * f2 + coeff3 * f3)


def _cumulative_simpson(y, x):
    """Cumulative Simpson integral of samples y(x) from x[0], starting at 0:
    even intervals take the forward three-node rule, odd ones (and the
    last) the backward one."""
    dx = np.diff(x)
    forward = _simpson_first_halves(y, dx)
    backward = _simpson_first_halves(y[::-1], dx[::-1])[::-1]
    pieces = np.empty(len(dx))
    pieces[:-1:2] = forward[::2]
    pieces[1::2] = backward[::2]
    pieces[-1] = backward[-1]
    return np.concatenate([[0.0], np.cumsum(pieces)])


def _build_beta_table(evaluator):
    """Tabulate the angle-law CDF on [0, pi] by cumulative Simpson."""
    phi = np.linspace(0.0, math.pi, BETA_TABLE_NODES)
    density = 0.5 * np.asarray(evaluator(np.abs(np.cos(phi))), dtype=float) * np.sin(phi)
    density = np.clip(density, 0.0, None)
    cdf = _cumulative_simpson(density, phi)
    total = cdf[-1]
    if not (0.999 < total < 1.001):
        raise QuadratureFailure(
            f"angle-law mass {total:.6f} is not 1; kernel table too coarse?"
        )
    cdf = np.maximum.accumulate(cdf / total)
    cdf[0], cdf[-1] = 0.0, 1.0
    return phi, cdf


def make_kernel(spec, *, validate_symmetry: bool = True) -> CollisionKernel:
    """Build a normalized CollisionKernel from a preset name, callable or table.

    Raises NegativeKernel for sign violations, NotNormalizable when the
    integral over (0, 1) diverges, and SymmetryViolation when the exchange
    symmetry residual exceeds 1e-8 on a 1000-point grid.
    """
    raw, knots = _resolve_raw(spec)

    probe = (np.arange(SYMMETRY_GRID) + 0.5) / SYMMETRY_GRID
    values = np.asarray(raw(probe), dtype=float)
    if np.any(values < 0.0):
        raise NegativeKernel("kernel takes negative values on (0, 1)")

    try:
        total = integrate_01(raw, knots=knots)
    except QuadratureFailure as exc:
        raise NotNormalizable(
            "kernel is not integrable on (0, 1); truncate it first"
        ) from exc
    # a nonnegative integrand whose adaptive integral undershoots its own
    # interior Riemann sum signals a non-integrable endpoint singularity
    riemann = float(np.sum(values[1:-1])) / SYMMETRY_GRID
    if not math.isfinite(total) or total > 1e12 or riemann > 1.5 * total + 0.5:
        raise NotNormalizable("kernel is not integrable on (0, 1); truncate it first")
    if total <= 0.0:
        raise NegativeKernel("kernel integrates to zero on (0, 1)")
    evaluator = raw if abs(total - 1.0) < 1e-14 else partial(_scaled, fn=raw, scale=total)

    if validate_symmetry:
        residual = _symmetry_residual(evaluator)
        if residual > SYMMETRY_TOL:
            raise SymmetryViolation(
                f"symmetry residual {residual:.3e} exceeds {SYMMETRY_TOL:.1e}"
            )

    phi_grid, cdf = _build_beta_table(evaluator)
    return CollisionKernel(
        evaluator=evaluator,
        table_knots=knots,
        phi_grid=phi_grid,
        beta_cdf_values=cdf,
    )


@dataclass(frozen=True)
class KernelFunctionals:
    """Every per-split angle integral a check reads, by quadrature to 1e-10:
    lambda_b, l_s for s in S_POWERS and s = 6, f_b, g_b and A_{4,l} (l = 2, 4)."""

    lambda_b: float
    l_s_table: dict[int, float]
    f_b: float
    g_b: float
    a4_table: dict[int, float]

    @property
    def rates(self) -> dict[str, float]:
        """The exact rate r of each per-split statistic, whose mean at time t
        is exp(r t): abs_pow_s (sum_j |w_j|^s) 2 l_s - 1, zeta f_b - 1,
        eta g_b - 1, W lambda_b and quartic_l (the degree-l quartic part)
        A_{4,l} - 1."""
        return {**{f"abs_pow_{s}": 2.0 * v - 1.0 for s, v in self.l_s_table.items()},
                "zeta": self.f_b - 1.0, "eta": self.g_b - 1.0, "W": self.lambda_b,
                **{f"quartic_{l}": v - 1.0 for l, v in self.a4_table.items()}}

    def as_dict(self) -> dict:
        return {
            "lambda_b": self.lambda_b,
            "l_s": {str(s): v for s, v in self.l_s_table.items()},
            "f_b": self.f_b,
            "g_b": self.g_b,
            "a4": {str(l): v for l, v in self.a4_table.items()},
        }


def angle_integral(kernel: CollisionKernel, f, points=None) -> float:
    """int f(c^2, s^2) dbeta = int_0^1 f(x^2, 1 - x^2) b(x) dx, by
    `integrate_01` with the kernel's table knots and the kink hints
    `points`: the one quadrature behind every functional of this module."""
    fn = kernel.evaluator
    return integrate_01(lambda x: f(x * x, 1.0 - x * x) * fn(x), points=points,
                        knots=kernel.table_knots)


def l_s(kernel: CollisionKernel, s: float) -> float:
    """l_s = int (1 - x^2)^(s/2) b(x) dx, by quadrature to 1e-10: the
    per-split factor of E[sum_j |w_j|^s] = exp(-(1 - 2 l_s) t)."""
    return angle_integral(kernel, lambda c2, s2: s2 ** (s / 2.0))


# P_l(y) for l = 0, 2, 4 as polynomials in y^2, highest power first
_EVEN_LEGENDRE = {0: (1.0,), 2: (1.5, -0.5), 4: (35.0 / 8.0, -30.0 / 8.0, 3.0 / 8.0)}


def a4(kernel: CollisionKernel, l: int) -> float:
    """A_{4,l} = int [cos^4 P_l(cos) + sin^4 P_l(sin)] dbeta for l = 0, 2, 4,
    by `angle_integral`: each collision maps the degree-l harmonic
    part of the quartic form E[(u . v)^4] to A_{4,l} times itself, so it
    decays as exp(-(1 - A_{4,l}) t); A_{4,0} = 1 + lambda_b."""
    p = _EVEN_LEGENDRE[l]
    return angle_integral(kernel, lambda c2, s2: (c2 * c2 * np.polyval(p, c2)
                                                  + s2 * s2 * np.polyval(p, s2)))


def spectral_functionals(kernel: CollisionKernel) -> KernelFunctionals:
    """Compute lambda_b, l_s for s in S_POWERS and s = 6, f_b, g_b and A_{4,l}."""
    lam = -2.0 * angle_integral(kernel, lambda c2, s2: c2 * s2)
    ls = {s: l_s(kernel, s) for s in (*S_POWERS, 6)}  # l_6 for E|v|^6
    # the absolute values kink where 3 sin^2 = 1 and 5 sin^2 = 3, on each side
    f_b = angle_integral(
        kernel, lambda c2, s2: s2 * np.abs(1.5 * s2 - 0.5) + c2 * np.abs(1.5 * c2 - 0.5),
        points=[math.sqrt(1.0 / 3.0), math.sqrt(2.0 / 3.0)])
    g_b = angle_integral(
        kernel, lambda c2, s2: (s2 * s2 * np.abs(2.5 * s2 - 1.5)
                                + c2 * c2 * np.abs(2.5 * c2 - 1.5)),
        points=[math.sqrt(2.0 / 5.0), math.sqrt(3.0 / 5.0)])
    return KernelFunctionals(lambda_b=lam, l_s_table=ls, f_b=f_b, g_b=g_b,
                             a4_table={l: a4(kernel, l) for l in (2, 4)})


def cos_sin(x):
    """(cos x, sin x) elementwise, with the shape of x (0-d included), from
    one tangent of the half angle: with t = tan(x / 2) and r = 1 / (1 + t^2),
    cos x = 2r - 1 and sin x = 2tr; each error is at most two ulps of 1.
    numpy 2.4 runs tan as SIMD code on an AVX-512 host but cos and sin as
    scalar libm calls, so there a pair costs about 7 ns an element against
    39 ns; without the SIMD tan it is still one libm call instead of two.
    The two outputs are the only arrays allocated, and an array's result
    equals its elements' 0-d results bit for bit."""
    x = np.asarray(x, dtype=float)
    t = np.multiply(x, 0.5, out=np.empty_like(x))
    np.tan(t, out=t)
    r = np.multiply(t, t, out=np.empty_like(x))
    r += 1.0
    np.divide(1.0, r, out=r)
    t *= r
    t *= 2.0
    r *= 2.0
    r -= 1.0
    return r, t


def cosine(x):
    """cos x alone, by the steps of `cos_sin` without those of the sine, so
    it equals cos_sin(x)[0] bit for bit; one array is allocated."""
    x = np.asarray(x, dtype=float)
    c = np.multiply(x, 0.5, out=np.empty_like(x))
    np.tan(c, out=c)
    c *= c
    c += 1.0
    np.divide(1.0, c, out=c)
    c *= 2.0
    c -= 1.0
    return c


def truncate(spec, n: int) -> tuple[CollisionKernel, float]:
    """Cap a (possibly non-summable) kernel at level n and normalize.

    Returns the kernel min(b, n)/B_n together with B_n = int min(b, n);
    simulating it at time B_n * t approximates the uncapped dynamics.
    Capping does not preserve the exchange symmetry exactly, so the
    symmetry validation is skipped for the returned kernel.
    """
    if n < 1:
        raise BadSpec("truncation level must be >= 1")
    raw, knots = _resolve_raw(spec)
    if knots is not None:
        # refine the table so the cap crossings become explicit nodes,
        # keeping the capped interpolant exactly piecewise linear
        xs = np.asarray(knots, dtype=float)
        bs = np.asarray(raw(xs), dtype=float)
        crossings = []
        for x0, x1, b0, b1 in zip(xs[:-1], xs[1:], bs[:-1], bs[1:]):
            if (b0 - n) * (b1 - n) < 0.0:
                crossings.append(x0 + (n - b0) * (x1 - x0) / (b1 - b0))
        xs = np.sort(np.concatenate([xs, crossings])) if crossings else xs
        capped = partial(_tabulated, xs=xs, bs=np.minimum(raw(xs), float(n)))
        b_n = integrate_01(capped, knots=xs)
        return (
            make_kernel({"table": np.column_stack([xs, capped(xs) / b_n]).tolist()},
                        validate_symmetry=False),
            b_n,
        )
    capped = partial(_capped, fn=raw, cap=float(n))
    b_n = integrate_01(capped)
    kernel = make_kernel(
        partial(_scaled, fn=capped, scale=b_n), validate_symmetry=False
    )
    return kernel, b_n
