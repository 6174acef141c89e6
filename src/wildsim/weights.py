"""Scalar leaf weights: the Legendre factors and closed-form expectations.

Each leaf of a collision tree carries, for every Legendre order k, the
product of P_k(cos phi) / P_k(sin phi) factors collected along its
root-to-leaf path (cosine on left turns, sine on right turns).  Order
k = 1 gives the amplitude weights whose squares sum to one (`grow`
multiplies them out for the transforms); k = 2 and k = 3 are the
quadratic and cubic families of the conditional moment identities.
`legendre_value` evaluates P_k by the three-term recurrence; the weight
reductions (`wildsim.sampler.weight_sums`) fold sums of leaf products up
the tree, with P2 and P3 in closed form, averaged over child swaps.
The mean of sum_j |weight_j|^s over the growth chain at a fixed size obeys
a one-dimensional recursion, `expected_sum_closed_form`; mixed over the
size law at time t it is exp(r t), r from `kernel.KernelFunctionals.rates`.

Also here: the tail parameters of the partition and the Newton
elementary-symmetric bound used for uniform integrability of the envelope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NotNormalized

SUM_SQUARES_TOL = 1e-9


def legendre_value(k: int, x):
    """P_k(x) by the three-term recurrence, vectorized in x."""
    x = np.asarray(x, dtype=float)
    if k == 0:
        return np.ones_like(x)
    prev, cur = np.ones_like(x), x
    for m in range(1, k):
        prev, cur = cur, ((2 * m + 1) * x * cur - m * prev) / (m + 1)
    return cur


@dataclass(frozen=True)
class WeightArray:
    """Leaf weights of one (tree, angles) configuration at Legendre order k."""

    values: np.ndarray
    order: int


def expected_sum_closed_form(alpha: float, n: int) -> float:
    """Mean of sum_j |weight_j|^s over the chain at tree size n, with alpha
    the per-split factor: a_1 = 1, a_{n+1} = (1 + (2 alpha - 1)/n) a_n,
    which at alpha = 0 is 1 and then exactly 0.  Mixing over the geometric
    size law at time t gives exp((2 alpha - 1) t), for alpha = l_s the
    rate abs_pow_s of `kernel.KernelFunctionals.rates`.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    if n < 1:
        raise ValueError("n must be >= 1")
    value = 1.0
    for size in range(1, n):
        value *= 1.0 + (2.0 * alpha - 1.0) / size
    return value


def partition_parameters(p: float) -> tuple[int, float]:
    """Tail exponent p -> (r, a_star) = (11 ceil(2/p), 1/(2^r r!))."""
    if p <= 0:
        raise ValueError("tail exponent p must be positive")
    r = 11 * math.ceil(2.0 / p)
    return r, 1.0 / (2.0**r * math.factorial(r))


@dataclass(frozen=True)
class SymmetricBoundReport:
    """Newton-identity audit of one squared-weight configuration."""

    power_sums: np.ndarray        # N_1..N_K
    elementary: np.ndarray        # S_0..S_K
    hypothesis_met: bool          # N_2 <= a_star
    lower_bounds: np.ndarray      # 1/k! - 2^(k-1) a_star for k = 1..K
    asserted: np.ndarray          # bound claimed only for k <= n under the hypothesis
    bound_holds: np.ndarray       # per k, vacuously true where not asserted
    product_bound_checked: bool
    product_bound_holds: bool


def symmetric_function_bound(
    weights_squared: Sequence[float],
    r: int,
    a_star: float,
    k_max: int | None = None,
    x_grid: Sequence[float] | None = None,
) -> SymmetricBoundReport:
    """Check S_k >= 1/k! - 2^(k-1) a_star and the product lower bound.

    weights_squared must sum to one (the first power sum).  Elementary
    symmetric functions come from the Newton identities

        k S_k = sum_{j=1..k} (-1)^(j+1) N_j S_{k-j},   S_0 = 1.

    When the configuration has at least r entries and N_2 <= a_star with
    a_star <= 1/(2^r r!), the product prod_j (1 + a_j x^2) dominates
    x^(2r) / (2 r!) for every x; this is evaluated on x_grid.
    """
    a = np.asarray(weights_squared, dtype=float)
    if np.any(a < 0.0) or np.any(a > 1.0):
        raise NotNormalized("squared weights must lie in [0, 1]")
    if abs(float(np.sum(a)) - 1.0) > SUM_SQUARES_TOL:
        raise NotNormalized(f"squared weights sum to {np.sum(a):.12f}, not 1")
    n = len(a)
    kk = 8 if k_max is None else int(k_max)

    # the Newton recursion stays valid beyond n entries with S_k = 0 there
    power_sums = np.array([float(np.sum(a**k)) for k in range(1, kk + 1)])
    elementary = np.empty(kk + 1)
    elementary[0] = 1.0
    for k in range(1, kk + 1):
        acc = 0.0
        for j in range(1, k + 1):
            acc += (-1) ** (j + 1) * power_sums[j - 1] * elementary[k - j]
        elementary[k] = acc / k

    n2 = float(np.sum(a * a))
    hypothesis_met = n2 <= a_star
    ks = np.arange(1, kk + 1)
    lower = 1.0 / np.array([math.factorial(int(k)) for k in ks]) - 2.0 ** (ks - 1) * a_star
    asserted = (ks <= n) & hypothesis_met
    holds = (elementary[1:] >= lower - 1e-12) | ~asserted

    checked = bool(n >= r and hypothesis_met)
    product_ok = True
    if checked:
        xs = np.geomspace(0.1, 10.0, 25) if x_grid is None else np.asarray(x_grid, float)
        eps = 1.0 / (2.0 * math.factorial(r))
        for x in xs:
            prod = float(np.prod(1.0 + a * x * x))
            if prod < eps * x ** (2 * r) * (1.0 - 1e-12):
                product_ok = False
                break

    return SymmetricBoundReport(
        power_sums=power_sums,
        elementary=elementary,
        hypothesis_met=bool(hypothesis_met),
        lower_bounds=lower,
        asserted=asserted,
        bound_holds=holds,
        product_bound_checked=checked,
        product_bound_holds=product_ok,
    )

