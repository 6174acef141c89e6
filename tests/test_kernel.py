"""Kernel construction, spectral functionals and angle sampling.

Reference values for b(x) = 2x are exact:
    lambda_b = -4 (1/4 - 1/6) = -1/3,   l_s = 2/(s+2),
    f_b = 29/54,   g_b = 179/500   (split the |.| kinks and integrate;
    both include the cosine-side term, equal to the sine side by symmetry).
For b(x) = 12 x^3 (1-x^2): lambda_b = -2/5, l_4 = 3/10.
For b(x) = (16/pi) x^2 sqrt(1-x^2): lambda_b = -3/8, l_4 = 5/16.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from wildsim.errors import (
    BadSpec,
    NegativeKernel,
    NotNormalizable,
    QuadratureFailure,
    SymmetryViolation,
)
from wildsim.kernel import (
    BETA_TABLE_NODES,
    GUIDE_BUCKETS,
    PRESETS,
    QUAD_MAX_INTERVALS,
    _GK_NODES,
    _GK_RULES,
    _build_beta_table,
    a4,
    cos_sin,
    cosine,
    integrate_01,
    make_kernel,
    spectral_functionals,
    truncate,
)


def gauss_legendre_01(fn, n=400):
    """Independent fixed-order quadrature oracle on (0, 1)."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    x = 0.5 * (nodes + 1.0)
    return 0.5 * float(np.sum(weights * fn(x)))


@pytest.fixture(scope="module")
def xabs():
    return make_kernel("xabs")


@pytest.fixture(scope="module")
def xabs_functionals(xabs):
    return spectral_functionals(xabs)


def test_xabs_is_normalized_and_symmetric(xabs):
    x = np.linspace(0.01, 0.99, 99)
    np.testing.assert_allclose(xabs(x), 2.0 * x, rtol=0, atol=1e-14)
    assert gauss_legendre_01(xabs.evaluator) == pytest.approx(1.0, abs=1e-12)


def test_rescaled_input_gives_identical_kernel(xabs):
    scaled = make_kernel(lambda x: 5.0 * np.abs(x))
    x = np.linspace(0.005, 0.995, 200)
    np.testing.assert_allclose(scaled(x), xabs(x), atol=1e-12)


def test_flat_kernel_violates_symmetry():
    # at x = 0.6 the symmetry partner evaluates to 0.75, not 1
    with pytest.raises(SymmetryViolation):
        make_kernel(lambda x: np.ones_like(x))


def test_negative_kernel_rejected():
    with pytest.raises(NegativeKernel):
        make_kernel(lambda x: x - 0.5)


def test_non_summable_kernel_rejected():
    with pytest.raises(NotNormalizable):
        make_kernel(lambda x: x**-1.5)


def test_unknown_preset_rejected():
    with pytest.raises(BadSpec):
        make_kernel("no-such-kernel")


def test_beta_cdf_monotone_with_pinned_endpoints(xabs):
    cdf = xabs.beta_cdf_values
    assert cdf[0] == 0.0
    assert cdf[-1] == 1.0
    assert np.all(np.diff(cdf) >= 0.0)


def test_spectral_values_for_xabs(xabs_functionals):
    fn = xabs_functionals
    assert fn.lambda_b == pytest.approx(-1.0 / 3.0, abs=1e-10)
    for s in (1, 2, 3, 4):
        assert fn.l_s_table[s] == pytest.approx(2.0 / (s + 2.0), abs=1e-10)
    assert fn.f_b == pytest.approx(29.0 / 54.0, abs=1e-10)
    assert fn.g_b == pytest.approx(179.0 / 500.0, abs=1e-10)


def test_l4_identity_and_gap_bounds():
    expected_gap = {"xabs": -1.0 / 3.0, "cubic": -2.0 / 5.0, "sqrtmix": -3.0 / 8.0}
    for preset, gap in expected_gap.items():
        fn = spectral_functionals(make_kernel(preset))
        assert fn.lambda_b == pytest.approx(gap, abs=1e-10)
        assert fn.lambda_b == pytest.approx(-(1.0 - 2.0 * fn.l_s_table[4]), abs=1e-10)
        assert -0.5 < fn.lambda_b < 0.0


def test_l2_is_half_for_symmetric_kernels():
    for preset in ("xabs", "cubic", "sqrtmix", "blend"):
        fn = spectral_functionals(make_kernel(preset))
        assert fn.l_s_table[2] == pytest.approx(0.5, abs=1e-10)


def test_zeta_eta_rates_not_slower_than_gap():
    # e^{-(1-f)t} and e^{-(1-g)t} decay at least as fast as e^{lambda_b t}
    for preset in ("xabs", "cubic", "sqrtmix"):
        fn = spectral_functionals(make_kernel(preset))
        assert -(1.0 - fn.f_b) <= fn.lambda_b + 1e-12
        assert -(1.0 - fn.g_b) <= fn.lambda_b + 1e-12


def test_functionals_match_independent_quadrature(xabs):
    ev = xabs.evaluator
    fn = spectral_functionals(xabs)
    assert fn.lambda_b == pytest.approx(
        -2.0 * gauss_legendre_01(lambda x: x**2 * (1 - x**2) * ev(x)), abs=1e-9
    )
    assert fn.l_s_table[3.0] == pytest.approx(
        gauss_legendre_01(lambda x: (1 - x**2) ** 1.5 * ev(x)), abs=1e-9
    )


def test_quartic_rates_match_the_gap_and_closed_forms(xabs):
    """A_{4,0} = 1 + lambda_b for every preset (the isotropic part of the
    quartic form decays at the gap), to 1e-12.  For xabs, b = 2x, each
    branch of A_{4,l} is int_0^1 u^2 P_l(sqrt u) du, so A_{4,2} = 5/12 and
    A_{4,4} = 1/8; and both match an independent fixed-order quadrature."""
    for preset in PRESETS:
        kernel = make_kernel(preset)
        assert abs(a4(kernel, 0) - 1.0 - spectral_functionals(kernel).lambda_b) <= 1e-12
    assert a4(xabs, 2) == pytest.approx(5.0 / 12.0, abs=1e-9)
    assert a4(xabs, 4) == pytest.approx(1.0 / 8.0, abs=1e-9)
    ev = xabs.evaluator
    p4 = np.polynomial.legendre.Legendre.basis(4)
    assert a4(xabs, 4) == pytest.approx(gauss_legendre_01(
        lambda x: (x**4 * p4(x) + (1 - x**2) ** 2 * p4(np.sqrt(1 - x**2))) * ev(x)), abs=1e-9)


def test_sample_phi_moments(xabs):
    rng = np.random.default_rng(20260808)
    phi = xabs.inverse_beta_cdf(rng.random(100_000))
    c2 = np.cos(phi) ** 2
    mean, se = c2.mean(), c2.std(ddof=1) / math.sqrt(phi.size)
    assert abs(mean - 0.5) < 3.0 * se

    quartic = np.cos(phi) ** 4 + np.sin(phi) ** 4
    mean, se = quartic.mean(), quartic.std(ddof=1) / math.sqrt(phi.size)
    assert abs(mean - 2.0 / 3.0) < 3.0 * se

    s4 = np.sin(phi) ** 4
    mean, se = s4.mean(), s4.std(ddof=1) / math.sqrt(phi.size)
    assert abs(mean - 1.0 / 3.0) < 4.0 * se


def _bump(x):
    w = x**2 * (1.0 - x**2)
    return x * np.exp(-((w - 0.25) ** 2) / 2e-4)


def test_sample_phi_respects_support():
    # symmetric bump at x^2(1-x^2) ~ 1/4, i.e. angles near pi/4 and 3pi/4
    kernel = make_kernel({"function": _bump})
    rng = np.random.default_rng(7)
    phi = kernel.inverse_beta_cdf(rng.random(20_000))
    density = 0.5 * kernel(np.abs(np.cos(phi))) * np.sin(phi)
    assert np.all(density > 1e-12)
    assert np.all((phi > 0.2) & (phi < math.pi - 0.2))


def test_tabulated_kernel_matches_analytic():
    xs = np.linspace(0.0, 1.0, 2001)
    kernel = make_kernel({"table": np.column_stack([xs, 2.0 * xs]).tolist()})
    fn = spectral_functionals(kernel)
    assert fn.lambda_b == pytest.approx(-1.0 / 3.0, abs=1e-10)
    assert fn.l_s_table[2] == pytest.approx(0.5, abs=1e-10)
    assert fn.f_b == pytest.approx(29.0 / 54.0, abs=1e-9)


def test_truncate_xabs():
    kernel, b1 = truncate("xabs", 1)
    assert b1 == pytest.approx(0.75, abs=1e-10)
    x = np.linspace(0.01, 0.99, 99)
    np.testing.assert_allclose(kernel(x), np.minimum(2 * x, 1.0) / 0.75, atol=1e-12)

    kernel2, b2 = truncate("xabs", 2)
    assert b2 == pytest.approx(1.0, abs=1e-10)
    np.testing.assert_allclose(kernel2(x), 2 * x, atol=1e-12)


def test_truncate_non_summable_kernel():
    # int min(x^-1.5, n) = 3 n^(1/3) - 2
    levels = [1, 8, 27, 64]
    masses = [truncate(lambda x: x**-1.5, n)[1] for n in levels]
    for n, mass in zip(levels, masses):
        assert mass == pytest.approx(3.0 * n ** (1.0 / 3.0) - 2.0, abs=1e-8)
    assert all(m2 > m1 for m1, m2 in zip(masses, masses[1:]))


def _gapped_table_kernel():
    # zero density for x in (0.3, 0.6): the angle CDF has flat runs
    xs = np.linspace(0.0, 1.0, 41)
    bs = np.where((xs > 0.3) & (xs < 0.6), 0.0, 1.0)
    return make_kernel({"table": np.column_stack([xs, bs]).tolist()},
                       validate_symmetry=False)


ORACLE_KERNELS = {
    **{name: lambda name=name: make_kernel(name) for name in PRESETS},
    "table": lambda: make_kernel({"table": [[x, 2.0 * x] for x in np.linspace(0.0, 1.0, 41)]}),
    "gapped table": _gapped_table_kernel,
    "truncated": lambda: truncate(lambda x: x**-1.5, 8)[0],
}


@pytest.mark.parametrize("name", sorted(ORACLE_KERNELS))
def test_guided_inverse_cdf_equals_interp(name):
    kernel = ORACLE_KERNELS[name]()
    cdf, phi = kernel.beta_cdf_values, kernel.phi_grid
    if name == "gapped table":
        assert np.count_nonzero(np.diff(cdf) == 0.0) > 100

    def same(u):
        got = kernel.inverse_beta_cdf(u)
        want = np.interp(u, cdf, phi)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(got, want, equal_nan=True)

    rng = np.random.default_rng(20261018)
    same(rng.random(1_000_000))
    same(cdf[cdf < 1.0])                     # every knot on the guided path
    same(cdf)                                # 1.0 included
    edges = np.concatenate([rng.random(1000), [0.0, np.nextafter(1.0, 0.0)]])
    same(edges)
    for odd in (1.0, np.nan, -0.25, 1.25):   # one value outside [0, 1)
        same(np.append(edges, odd))
    same(0.3)                                # a Python scalar
    same(rng.random((400, 25)))              # a 2-d array
    same(rng.random(7))                      # a few draws
    same(np.empty(0))                        # a chunk of one-leaf cascades draws no angle

    # a replaced table gets its own guide
    squeezed = dataclasses.replace(kernel, beta_cdf_values=cdf**2, phi_grid=phi)
    assert not np.array_equal(squeezed.guide, kernel.guide)
    u = rng.random(100_000)
    assert np.array_equal(squeezed.inverse_beta_cdf(u), np.interp(u, cdf**2, phi))


@pytest.mark.parametrize("name", sorted(ORACLE_KERNELS))
def test_guide_table_equals_binary_search(name):
    # the guide is built by counting knots per bucket; binary search over
    # the bucket edges is the definition it must reproduce
    kernel = ORACLE_KERNELS[name]()
    cdf = kernel.beta_cdf_values
    edges = np.arange(GUIDE_BUCKETS + 1) / GUIDE_BUCKETS
    want = np.searchsorted(cdf, edges, side="right") - 1
    assert kernel.guide.dtype == np.int32
    assert np.array_equal(kernel.guide, want)
    if name == "gapped table":  # flat runs put many knots in one bucket
        assert np.max(np.diff(kernel.guide)) > 100


def _scipy_beta_table(evaluator):
    """The angle table as scipy's cumulative_simpson builds it."""
    from scipy import integrate

    phi = np.linspace(0.0, math.pi, BETA_TABLE_NODES)
    density = 0.5 * np.asarray(evaluator(np.abs(np.cos(phi))), dtype=float) * np.sin(phi)
    cdf = integrate.cumulative_simpson(np.clip(density, 0.0, None), x=phi, initial=0.0)
    cdf = np.maximum.accumulate(cdf / cdf[-1])
    cdf[0], cdf[-1] = 0.0, 1.0
    return phi, cdf


@pytest.mark.parametrize("name", sorted(ORACLE_KERNELS))
def test_beta_table_equals_scipy_cumulative_simpson(name):
    evaluator = ORACLE_KERNELS[name]().evaluator
    phi, cdf = _build_beta_table(evaluator)
    want_phi, want_cdf = _scipy_beta_table(evaluator)
    assert np.array_equal(phi, want_phi)
    assert np.array_equal(cdf, want_cdf)


@pytest.mark.parametrize("name", ["xabs", "cubic", "sqrtmix", "blend", "table", "truncated"])
def test_rates_give_the_closed_form_means_bit_for_bit(name):
    """exp(rates[key] t) equals each mean as written from the functionals
    themselves, -(1 - 2 l_s), -(1 - f_b), -(1 - g_b), lambda_b and
    A_{4,l} - 1 times t, bit for bit."""
    fn = spectral_functionals(ORACLE_KERNELS[name]())
    assert sorted(fn.rates) == ["W", "abs_pow_1", "abs_pow_2", "abs_pow_3", "abs_pow_4",
                                "abs_pow_6", "eta", "quartic_2", "quartic_4", "zeta"]
    for t in (0.0, 0.5, 1.0, 2.0, 3.0, 7.25):
        means = {**{f"abs_pow_{s}": math.exp(-(1.0 - 2.0 * l) * t)
                    for s, l in fn.l_s_table.items()},
                 "zeta": math.exp(-(1.0 - fn.f_b) * t), "eta": math.exp(-(1.0 - fn.g_b) * t),
                 "W": math.exp(fn.lambda_b * t),
                 **{f"quartic_{l}": math.exp((a - 1.0) * t) for l, a in fn.a4_table.items()}}
        assert {key: math.exp(rate * t) for key, rate in fn.rates.items()} == means


@pytest.mark.parametrize("name", PRESETS)
def test_quartic_weight_rate_is_the_spectral_gap(name):
    """`identities` checks sum_j |w_j|^4 = W once, against lambda_b, which
    holds for any kernel; 2 l_4 - 1 equals lambda_b under the exchange
    symmetry, which every preset solves, so the two quadratures agree."""
    fn = spectral_functionals(make_kernel(name))
    assert abs(fn.rates["abs_pow_4"] - fn.lambda_b) <= 1e-12


def test_gauss_kronrod_pair_is_exact_for_polynomials():
    # 15 Kronrod nodes integrate degree 22 exactly, the 7 Gauss nodes 13
    kronrod, gauss = _GK_RULES[:, 0], _GK_RULES[:, 0] - _GK_RULES[:, 1]
    nodes, _ = np.polynomial.legendre.leggauss(7)
    np.testing.assert_allclose(_GK_NODES[1::2], nodes, rtol=0, atol=1e-15)
    assert np.all(gauss[::2] == 0.0)
    for k in range(23):
        exact = (1.0 - (-1.0) ** (k + 1)) / (k + 1)
        assert kronrod @ _GK_NODES**k == pytest.approx(exact, abs=1e-15)
        if k <= 13:
            assert gauss @ _GK_NODES**k == pytest.approx(exact, abs=1e-15)


def test_blend_closed_forms_and_quadrature_oracles():
    fn = spectral_functionals(make_kernel("blend"))
    assert fn.lambda_b == pytest.approx(-12.0 / 35.0, abs=1e-10)
    assert fn.l_s_table[4] == pytest.approx(23.0 / 70.0, abs=1e-10)
    for preset in ("cubic", "sqrtmix"):
        kernel = make_kernel(preset)
        fn = spectral_functionals(kernel)
        for s in (1, 3):
            oracle = gauss_legendre_01(lambda x: (1 - x**2) ** (s / 2) * kernel(x))
            assert fn.l_s_table[s] == pytest.approx(oracle, abs=1e-10)


@pytest.mark.parametrize("integrand", [
    lambda x: np.where(x > 0.3, np.nan, x),       # not a number on part of (0, 1)
    lambda x: np.sin(1.0 / x) / x,                # oscillates without end at 0
    lambda x: x**-1.5,                            # diverges at 0
], ids=["nan", "oscillating", "divergent"])
def test_quadrature_failure_is_typed_and_prompt(integrand):
    calls = []

    def counted(x):
        calls.append(x.size)
        return integrand(x)

    start = time.perf_counter()
    with pytest.raises(QuadratureFailure):
        integrate_01(counted)
    assert time.perf_counter() - start < 2.0
    assert len(calls) <= QUAD_MAX_INTERVALS
    assert sum(calls) <= 15 * 2 * QUAD_MAX_INTERVALS


TWO_ULPS_OF_ONE = 4.5e-16
SPECIAL_ANGLES = [0.0, math.pi / 2, -math.pi / 2, math.pi, math.nextafter(2 * math.pi, 0.0)]


@pytest.mark.parametrize("low, high", [(0.0, math.pi / 2), (0.0, 2 * math.pi), (-50.0, 50.0)])
def test_cos_sin_matches_libm(low, high):
    x = np.concatenate([np.random.default_rng(7).uniform(low, high, 100_000), SPECIAL_ANGLES])
    cos, sin = cos_sin(x)
    assert max(abs(c - math.cos(a)) for c, a in zip(cos.tolist(), x.tolist())) <= TWO_ULPS_OF_ONE
    assert max(abs(s - math.sin(a)) for s, a in zip(sin.tolist(), x.tolist())) <= TWO_ULPS_OF_ONE
    assert np.max(np.abs(cos * cos + sin * sin - 1.0)) <= 1e-15
    # arrays and 0-d inputs go through the same arithmetic, so a vector pass
    # (replay) and a per-element fold agree bit for bit
    for a, c, s in zip(x[::50].tolist(), cos[::50], sin[::50]):
        one = cos_sin(a)
        assert one[0] == c and one[1] == s


@pytest.mark.parametrize("shape", [(), (1,), (7,), (4, 5), (2, 3, 4)])
def test_cos_sin_keeps_the_shape(shape):
    x = np.random.default_rng(8).uniform(-4.0, 4.0, shape)
    cos, sin = cos_sin(x)
    assert isinstance(cos, np.ndarray) and cos.shape == sin.shape == shape
    assert np.array_equal(cos.ravel(), cos_sin(x.ravel())[0])
    assert np.array_equal(sin.ravel(), cos_sin(x.ravel())[1])


@pytest.mark.parametrize("low, high", [(0.0, math.pi / 2), (0.0, 2 * math.pi), (-50.0, 50.0)])
def test_cosine_is_the_cosine_of_cos_sin(low, high):
    x = np.concatenate([np.random.default_rng(7).uniform(low, high, 100_000), SPECIAL_ANGLES])
    want = cos_sin(x)[0]
    assert cosine(x).tobytes() == want.tobytes()
    for a, c in zip(x[::50].tolist(), want[::50]):
        one = cosine(a)
        assert one.shape == () and one.tobytes() == c.tobytes()
