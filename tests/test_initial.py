"""Initial-datum presets: samplers vs moment tables vs transforms."""

import math
import warnings

import numpy as np
import pytest
from scipy import integrate

from wildsim.errors import BadSpec, MomentUnavailable, NoAnalyticCf
from wildsim.initial import (
    _HEAVYTAIL_SERIES_LIMIT,
    InitialDatum,
    _heavytail_cf_scalar,
    discrete_datum,
    gaussian_datum,
    heavytail_datum,
    make_initial_datum,
    mixture_datum,
    sampler_datum,
    sixpoint_datum,
)
from wildsim.kernel import cos_sin


def _check_moments_against_sampler(datum, n=100_000, seed=0):
    draws = datum.sampler(np.random.default_rng(seed), n)
    se_mean = draws.std(axis=0, ddof=1) / math.sqrt(n)
    assert np.all(np.abs(draws.mean(axis=0) - datum.mean) < 4 * se_mean + 1e-12)
    sq = np.einsum("ij,ij->i", draws, draws)
    se_m2 = sq.std(ddof=1) / math.sqrt(n)
    assert abs(sq.mean() - datum.m2) < 4 * se_m2 + 1e-12
    if datum.m4 is not None and math.isfinite(datum.m4):
        se_m4 = (sq**2).std(ddof=1) / math.sqrt(n)
        assert abs((sq**2).mean() - datum.m4) < 4 * se_m4 + 1e-12
    if datum.m6 is not None and math.isfinite(datum.m6):
        se_m6 = (sq**3).std(ddof=1) / math.sqrt(n)
        assert abs((sq**3).mean() - datum.m6) < 4 * se_m6 + 1e-12


def _check_cf_bounds(datum, seed=1):
    rng = np.random.default_rng(seed)
    xi = rng.normal(scale=2.0, size=(500, 3))
    values = datum.cf(xi)
    assert complex(datum.cf(np.zeros(3))) == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.abs(values) <= 1.0 + 1e-12)


def test_standard_gaussian():
    g = gaussian_datum()
    assert g.is_normalized()
    assert g.m2 == 3.0 and g.m4 == 15.0 and g.m6 == 105.0
    _check_moments_against_sampler(g)
    _check_cf_bounds(g)


def test_anisotropic_gaussian_moments():
    cov = np.diag([0.5, 1.0, 1.5])
    mean = np.array([0.3, -0.2, 0.1])
    g = gaussian_datum(mean, cov)
    assert g.m2 == pytest.approx(3.0 + float(mean @ mean))
    # E|X|^4 for a Gaussian: (tr + |m|^2)^2 + 2 tr(S^2) + 4 m'Sm
    expected_m4 = g.m2**2 + 2 * float(np.trace(cov @ cov)) + 4 * float(mean @ cov @ mean)
    assert g.m4 == pytest.approx(expected_m4)
    _check_moments_against_sampler(g, n=200_000)


def test_shifted_anisotropic_gaussian_sixth_moment():
    """m6 = a^3 + 3 a^2 c1 + 3 a (c1^2 + 2 c2) + c1^3 + 6 c1 c2 + 8 c3
    + 12 a q1 + 12 (q1 c1 + 2 q2), with a = |mean|^2, c_k = tr C^k,
    q1 = mean' C mean and q2 = mean' C^2 mean, and against 10^6 draws."""
    mean = np.array([0.4, -0.3, 0.2])
    g = gaussian_datum(mean, ANISOTROPIC_COV)
    a = float(mean @ mean)
    c1, c2, c3 = (float(np.trace(np.linalg.matrix_power(ANISOTROPIC_COV, k)))
                  for k in (1, 2, 3))
    q1 = float(mean @ ANISOTROPIC_COV @ mean)
    q2 = float(mean @ ANISOTROPIC_COV @ ANISOTROPIC_COV @ mean)
    expected = (a**3 + 3 * a**2 * c1 + 3 * a * (c1**2 + 2 * c2) + c1**3 + 6 * c1 * c2
                + 8 * c3 + 12 * a * q1 + 12 * (q1 * c1 + 2 * q2))
    assert g.m6 == pytest.approx(expected, rel=1e-12)
    draws = g.sampler(np.random.default_rng(21), 1_000_000)
    sixth = np.einsum("ij,ij->i", draws, draws) ** 3
    assert abs(sixth.mean() - g.m6) <= 4.0 * sixth.std(ddof=1) / 1000.0


def test_sixpoint_datum():
    s = sixpoint_datum()
    assert s.is_normalized()
    np.testing.assert_allclose(s.covariance, np.eye(3), atol=1e-14)
    assert s.m4 == pytest.approx(9.0)
    assert s.m6 == pytest.approx(27.0, rel=1e-12)
    xi = np.array([1.0, 0.0, 0.0])
    assert complex(s.cf(xi)) == pytest.approx(
        (math.cos(math.sqrt(3.0)) + 2.0) / 3.0, abs=1e-14
    )
    _check_moments_against_sampler(s)
    _check_cf_bounds(s)


@pytest.mark.parametrize("build", [
    sixpoint_datum,
    gaussian_datum,
    lambda: gaussian_datum(cov=np.diag([1.0, 2.0, 0.5])),
    lambda: mixture_datum([(0.5, (0, 0, 0), np.diag([1.5, 1.0, 0.5])),
                           (0.5, (0, 0, 0), np.diag([0.5, 1.0, 1.5]))]),
    lambda: discrete_datum([[1.0, 2.0, 0.0], [0.0, -1.0, 3.0]], [0.3, 0.7]),
], ids=["sixpoint", "gaussian", "anisotropic", "mixture", "asymmetric-pair"])
def test_fourth_moment_tensor_traces_to_m4(build):
    """The tensor E[V_i V_j V_k V_l] is symmetric, its double trace is m4,
    and its quartic form along a direction matches the sampler's fourth
    power there."""
    datum = build()
    tensor = datum.m4_tensor
    for axes in [(1, 0, 2, 3), (2, 1, 0, 3), (3, 1, 2, 0)]:
        np.testing.assert_allclose(tensor, tensor.transpose(axes), rtol=1e-14, atol=0.0)
    assert np.einsum("iijj", tensor) == pytest.approx(datum.m4, rel=1e-12)
    u = np.array([0.6, -0.48, 0.64])
    draws = datum.sampler(np.random.default_rng(5), 200_000) @ u
    fourth = draws**4
    quartic = np.einsum("ijkl,i,j,k,l", tensor, u, u, u, u)
    assert abs(fourth.mean() - quartic) <= 4.0 * fourth.std(ddof=1) / math.sqrt(len(fourth))


def test_fourth_moment_tensor_is_withheld_where_unknown():
    assert gaussian_datum(mean=(0.5, 0.0, 0.0)).m4_tensor is None
    assert mixture_datum([(0.5, (0.5, 0, 0), 1.0), (0.5, (-0.5, 0, 0), 1.0)]).m4_tensor is None
    # a component of weight 0 is not part of the law
    assert mixture_datum([(1.0, (0, 0, 0), 1.0), (0.0, (0.5, 0, 0), 1.0)]).m4_tensor is not None
    assert heavytail_datum(3.5).m4_tensor is None
    assert sampler_datum(lambda rng, size: rng.standard_normal((size, 3))).m4_tensor is None


@pytest.mark.parametrize("far", [1e200, 1e60])
def test_atoms_of_mass_zero_are_dropped(far):
    """An atom of mass 0 is not part of the law: far away it used to
    overflow m4 (1e200: 0 * inf) or make m6 nan (1e60).  The law is +-e1."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        datum = discrete_datum([[far, 0, 0], [1, 0, 0], [-1, 0, 0]], [0.0, 0.5, 0.5])
    assert (datum.m2, datum.m4, datum.m6) == (1.0, 1.0, 1.0)
    assert datum.m4_tensor[0, 0, 0, 0] == 1.0 and np.count_nonzero(datum.m4_tensor) == 1
    assert not np.iscomplexobj(datum.cf(np.zeros(3)))  # symmetric once the atom is gone
    assert set(datum.sampler(np.random.default_rng(0), 100)[:, 0]) == {-1.0, 1.0}


def test_sixpoint_keeps_its_bits_beside_an_atom_of_mass_zero():
    six = sixpoint_datum()
    points = np.vstack([np.eye(3), -np.eye(3), [[1e200, 0.0, 0.0]]])
    padded = discrete_datum(points, [1.0 / 6.0] * 6 + [0.0], normalize=True, name="sixpoint")
    assert (padded.m2, padded.m4, padded.m6) == (six.m2, six.m4, six.m6)
    assert np.array_equal(padded.covariance, six.covariance)
    assert np.array_equal(padded.m4_tensor, six.m4_tensor)
    xi = np.random.default_rng(3).normal(size=(50, 3))
    assert np.array_equal(padded.cf(xi), six.cf(xi))
    assert np.array_equal(padded.sampler(np.random.default_rng(4), 64),
                          six.sampler(np.random.default_rng(4), 64))


def test_mixture_datum():
    m = mixture_datum([
        (0.25, (1.0, 0.0, 0.0), 0.5 * np.eye(3)),
        (0.75, (-1.0 / 3.0, 0.0, 0.0), np.eye(3)),
    ])
    assert np.allclose(m.mean, 0.0, atol=1e-14)
    parts = [gaussian_datum((1.0, 0.0, 0.0), 0.5 * np.eye(3)),
             gaussian_datum((-1.0 / 3.0, 0.0, 0.0), np.eye(3))]
    assert m.m6 == pytest.approx(0.25 * parts[0].m6 + 0.75 * parts[1].m6, rel=1e-12)
    _check_moments_against_sampler(m, n=200_000)
    _check_cf_bounds(m)


def test_discrete_normalization():
    d = discrete_datum([[2.0, 0, 0], [0, 0, 0]], [0.5, 0.5], normalize=True)
    assert d.is_normalized()
    assert d.m2 == pytest.approx(3.0)


FREQUENCIES = np.random.default_rng(11).normal(scale=3.0, size=(10_000, 3))
SYMMETRIC_POINTS = [[0.1, 0.3, -0.2], [-0.1, -0.3, 0.2], [0.7, 0.11, 0.0],
                    [-0.7, -0.11, 0.0], [0.0, 0.0, 0.0]]
SYMMETRIC_MASSES = [0.15, 0.15, 0.3, 0.3, 0.1]
PAIRED_POINTS = [[1.0, -2.0, 0.5], [0.3, 0.0, 0.0], [-1.0, 2.0, -0.5], [-0.3, 0.0, 0.0]]
PAIRED_MASSES = [0.1, 0.4, 0.1, 0.4]


def _complex_discrete_transform(xi, points, masses):
    return np.exp(1j * (xi @ np.asarray(points, float).T)) @ np.asarray(masses, float)


def _complex_gaussian_transform(xi, mean, cov):
    quad = np.einsum("...i,ij,...j->...", xi, cov, xi)
    return np.exp(1j * (xi @ mean) - 0.5 * quad)


ANISOTROPIC_COV = np.array([[1.0, 0.3, 0.0], [0.3, 0.8, 0.1], [0.0, 0.1, 1.2]])


@pytest.mark.parametrize("datum, reference", [
    # the six atoms as normalised (a draw shows them all), not sqrt(3) e_k exactly
    (sixpoint_datum, lambda xi: _complex_discrete_transform(
        xi, np.unique(sixpoint_datum().sampler(np.random.default_rng(0), 1000), axis=0),
        np.full(6, 1.0 / 6.0))),
    (lambda: discrete_datum(PAIRED_POINTS, PAIRED_MASSES),
     lambda xi: _complex_discrete_transform(xi, PAIRED_POINTS, PAIRED_MASSES)),
    (lambda: discrete_datum(SYMMETRIC_POINTS, SYMMETRIC_MASSES),
     lambda xi: _complex_discrete_transform(xi, SYMMETRIC_POINTS, SYMMETRIC_MASSES)),
    (lambda: gaussian_datum(cov=ANISOTROPIC_COV),
     lambda xi: _complex_gaussian_transform(xi, np.zeros(3), ANISOTROPIC_COV)),
], ids=["sixpoint", "unequal-pairs", "origin-atom", "centred-gaussian"])
def test_symmetric_law_has_real_transform(datum, reference):
    values = datum().cf(FREQUENCIES)
    assert values.dtype == np.float64
    assert np.max(np.abs(values - reference(FREQUENCIES))) < 1e-15


def test_symmetric_law_stays_symmetric_when_normalized():
    # the computed mean of these points is roundoff, not zero; subtracting
    # it would break the exact pairing
    assert np.any(np.asarray(SYMMETRIC_MASSES) @ np.asarray(SYMMETRIC_POINTS) != 0.0)
    d = discrete_datum(SYMMETRIC_POINTS, SYMMETRIC_MASSES, normalize=True)
    assert d.is_normalized()
    assert d.cf(FREQUENCIES).dtype == np.float64


@pytest.mark.parametrize("datum, imaginary", [
    (lambda: discrete_datum([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 2.0, 0.0]],
                            [0.3, 0.3, 0.4]),
     lambda xi: 0.4 * np.sin(2.0 * xi[:, 1])),
    (lambda: discrete_datum([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]], [0.3, 0.7]),
     lambda xi: -0.4 * np.sin(xi[:, 0])),
    (lambda: gaussian_datum(mean=(0.5, 0.0, 0.0)),
     lambda xi: np.exp(-0.5 * np.einsum("ij,ij->i", xi, xi)) * np.sin(0.5 * xi[:, 0])),
], ids=["unmatched-atom", "unequal-pair", "gaussian-mean"])
def test_asymmetric_law_keeps_complex_transform(datum, imaginary):
    values = datum().cf(FREQUENCIES)
    assert np.iscomplexobj(values)
    assert np.max(np.abs(values.imag - imaginary(FREQUENCIES))) < 1e-15


def test_heavytail_moments_and_tail():
    h = heavytail_datum(3.5)
    assert h.m2 == pytest.approx(7.0 / 3.0)
    assert h.m4 == math.inf and h.m6 == math.inf
    with pytest.raises(MomentUnavailable):
        h.require_m4()
    # fourth-moment checks are impossible; the radial law P(|V|>R) = R^-q is exact
    draws = h.sampler(np.random.default_rng(3), 100_000)
    radii = np.linalg.norm(draws, axis=1)
    assert radii.min() >= 1.0
    for radius in (1.5, 2.0, 4.0):
        p = radius**-3.5
        freq = float(np.mean(radii > radius))
        se = math.sqrt(p * (1 - p) / len(radii))
        assert abs(freq - p) < 4 * se


def test_heavytail_cf_series_vs_oscillatory_quadrature():
    q = 3.5
    h = heavytail_datum(q)
    for x in (0.25, 1.0, 4.0, 12.0, 24.0):
        series = complex(h.cf(np.array([x, 0.0, 0.0]))).real
        tail, _ = integrate.quad(lambda r: r ** (-2.0 - q), 1.0, np.inf,
                                 weight="sin", wvar=x, limlst=200)
        assert series == pytest.approx(q / x * tail, abs=5e-9)
    _check_cf_bounds(h)


def test_heavytail_normalized():
    h = heavytail_datum(3.5, normalize=True)
    assert h.is_normalized()
    assert complex(h.cf(np.zeros(3))) == pytest.approx(1.0)


def test_sampler_datum_has_no_transform():
    wrapped = sampler_datum(lambda rng, size: rng.standard_normal((size, 3)),
                            name="wrapped-normal")
    with pytest.raises(NoAnalyticCf):
        wrapped.require_cf()
    assert wrapped.m6 is None  # a frozen sample's m6 would not be the law's


@pytest.mark.parametrize("missing", ["mean", "covariance", "m2"])
def test_hand_built_datum_must_state_its_moments(missing):
    # no mean, covariance or m2 is invented: conserve would check them
    given = {"mean": np.zeros(3), "covariance": np.eye(3), "m2": 3.0}
    sampler = lambda rng, size: rng.standard_normal((size, 3))  # noqa: E731
    complete = InitialDatum(name="hand-built", sampler=sampler, **given)
    assert complete.m4 is None and complete.m6 is None and complete.cf is None  # unknown
    del given[missing]
    with pytest.raises(TypeError, match=missing):
        InitialDatum(name="hand-built", sampler=sampler, **given)


@pytest.mark.parametrize("build", [
    lambda: gaussian_datum(mean=(1e150, 0.0, 0.0)),
    lambda: gaussian_datum(cov=1e160),
    lambda: mixture_datum([(0.5, (1e100, 0.0, 0.0), np.eye(3)),
                           (0.5, (0.0, 0.0, 0.0), np.eye(3))]),
    lambda: discrete_datum([[1e100, 0, 0], [-1e100, 0, 0]], [0.5, 0.5]),
    lambda: discrete_datum([[1e200, 0, 0], [0, 0, 0]], [0.5, 0.5], normalize=True),
    lambda: sampler_datum(lambda rng, size: 1e150 + rng.standard_normal((size, 3))),
], ids=["gaussian-mean", "gaussian-cov", "mixture", "discrete", "discrete-normalized",
        "sampler"])
def test_overflowing_moment_table_is_bad_spec(build):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and no RuntimeWarning on the way
        with pytest.raises(BadSpec, match="overflow"):
            build()


@pytest.mark.parametrize("build", [
    lambda: gaussian_datum(mean=(1e60, 0.0, 0.0)),
    lambda: mixture_datum([(0.5, (1e60, 0.0, 0.0), np.eye(3)),
                           (0.5, (0.0, 0.0, 0.0), np.eye(3))]),
    lambda: discrete_datum([[1e60, 0, 0], [-1e60, 0, 0]], [0.5, 0.5]),
], ids=["gaussian", "mixture", "discrete"])
def test_overflowing_sixth_moment_is_infinite(build):
    """An m6 that overflows, beside finite m2 and m4, is inf: no error and
    no RuntimeWarning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        datum = build()
    assert math.isfinite(datum.m4) and datum.m6 == math.inf


def test_make_initial_datum_dispatch():
    assert make_initial_datum("gaussian").name == "gaussian"
    assert make_initial_datum("sixpoint").name == "sixpoint"
    assert make_initial_datum({"preset": "heavytail", "q": 3.2}).m2 == pytest.approx(
        3.2 / 1.2
    )
    assert make_initial_datum(
        {"preset": "gaussian", "mean": [1, 0, 0]}
    ).mean[0] == 1.0
    with pytest.raises(BadSpec):
        make_initial_datum("nope")
    with pytest.raises(BadSpec):
        make_initial_datum({"preset": "heavytail", "q": 5.0})
    with pytest.raises(BadSpec):
        make_initial_datum(42)


@pytest.mark.parametrize("spec", [
    {"preset": "discrete", "points": [[1, 0, 0], [-1, 0, 0]], "masses": [0.5, 0.5],
     "normalise": True},
    {"preset": "gaussian", "covariance": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
    {"preset": "sixpoint", "normalize": True},
    {"preset": "heavytail", "q": 3.5, "mean": [0, 0, 0]},
    {"preset": "mixture", "components": [{"weight": 1, "mean": [0, 0, 0], "cov": 1,
                                          "name": "x"}]},
])
def test_unknown_spec_key_is_bad_spec(spec):
    with pytest.raises(BadSpec, match="unknown .* key"):
        make_initial_datum(spec)


def test_symmetric_law_has_exactly_zero_odd_moments():
    s = sixpoint_datum()
    assert np.all(s.mean == 0.0)
    assert np.all(s.covariance[~np.eye(3, dtype=bool)] == 0.0)
    d = discrete_datum(SYMMETRIC_POINTS, SYMMETRIC_MASSES)
    assert np.all(d.mean == 0.0)
    np.testing.assert_allclose(
        d.covariance, np.einsum("i,ij,ik->jk", SYMMETRIC_MASSES, SYMMETRIC_POINTS,
                                SYMMETRIC_POINTS), rtol=0, atol=1e-16)


CENTRED_COMPONENTS = [(0.3, (0.0, 0.0, 0.0), ANISOTROPIC_COV), (0.7, (0.0, 0.0, 0.0), 2.0)]


def test_centred_gaussian_mixture_has_real_transform():
    values = mixture_datum(CENTRED_COMPONENTS).cf(FREQUENCIES)
    assert values.dtype == np.float64
    reference = sum(w * _complex_gaussian_transform(FREQUENCIES, np.asarray(m, float),
                                                    c * np.eye(3) if np.ndim(c) == 0 else c)
                    for w, m, c in CENTRED_COMPONENTS)
    assert np.max(np.abs(values - reference)) < 1e-15
    shifted = [CENTRED_COMPONENTS[0], (0.7, (0.0, 1e-3, 0.0), 2.0)]
    assert np.iscomplexobj(mixture_datum(shifted).cf(FREQUENCIES))


def test_heavytail_transform_is_real():
    h = heavytail_datum(3.5)
    # inside the series range and past it (the oscillatory tail)
    xi = np.array([[0.5, 0.0, 0.0], [0.0, 3.0, 4.0], [30.0, 0.0, 0.0], [0.0, 0.0, -30.0]])
    values = h.cf(xi)
    assert values.dtype == np.float64
    assert values[1] == h.cf(np.array([5.0, 0.0, 0.0]))
    assert values[2] == values[3]
    assert type(h.cf(np.array([0.5, 0.0, 0.0]))) is float
    assert h.cf(np.zeros(3)) == 1.0


UNMATCHED_POINTS = [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 2.0, 0.0]]
UNMATCHED_MASSES = [0.3, 0.3, 0.4]
SHIFTED_MEAN = (0.5, -0.2, 0.1)
MIXTURE_COMPONENTS = [(0.25, (1.0, 0.0, 0.0), 0.5), (0.75, (-1.0 / 3.0, 0.0, 0.0), ANISOTROPIC_COV)]
RAY_DATA = {
    "sixpoint": sixpoint_datum,
    "unmatched-atom": lambda: discrete_datum(UNMATCHED_POINTS, UNMATCHED_MASSES),
    "origin-atom": lambda: discrete_datum(SYMMETRIC_POINTS, SYMMETRIC_MASSES),
    "centred-gaussian": lambda: gaussian_datum(cov=ANISOTROPIC_COV),
    "shifted-gaussian": lambda: gaussian_datum(SHIFTED_MEAN, ANISOTROPIC_COV),
    "mixture": lambda: mixture_datum(MIXTURE_COMPONENTS),
    "centred-mixture": lambda: mixture_datum(CENTRED_COMPONENTS),
    "heavytail": lambda: heavytail_datum(3.5, normalize=True),
}


@pytest.mark.parametrize("name", sorted(RAY_DATA))
def test_ray_profile_is_the_transform_along_the_ray(name):
    cf = RAY_DATA[name]().cf
    rng = np.random.default_rng(12)
    if name == "heavytail":
        # small radii, where the alternating series does not cancel, and one
        # row past it, on the oscillatory tail
        y = rng.normal(scale=0.5, size=(40, 3))
        y[0] *= 4.0 * _HEAVYTAIL_SERIES_LIMIT / np.linalg.norm(y[0])
    else:
        y = rng.normal(scale=1.5, size=(400, 3))
    projection = cf.project(y)
    rows = rng.uniform(0.5, 2.0, len(y))
    for rho, scaled in ((1.3, 1.3 * y), (rows, rows[:, None] * y)):
        if name == "heavytail":
            assert np.ravel(rho)[0] * projection[0] > _HEAVYTAIL_SERIES_LIMIT
        ray, direct = cf.profile(projection, rho), cf(scaled)
        assert np.shape(ray) == np.shape(direct) and np.iscomplexobj(ray) == np.iscomplexobj(direct)
        # the two round their phases differently, and cos_sin is good to two
        # ulps of 1, so near a zero of the transform only an absolute bound holds
        np.testing.assert_allclose(ray, direct, rtol=1e-13, atol=2e-15)


def _unit_radius_transforms():
    """Each family's transform as one expression over its parameters."""
    six = np.vstack([np.eye(3), -np.eye(3)])
    six = six * math.sqrt(3.0 / float(np.full(6, 1.0 / 6.0) @ np.einsum("ij,ij->i", six, six)))
    symmetric = np.asarray(SYMMETRIC_POINTS, float)
    masses = np.asarray(SYMMETRIC_MASSES, float)
    half = np.array([True, False, True, False, False])
    unmatched = np.asarray(UNMATCHED_POINTS, float)

    def centred(xi, cov):
        return np.exp(-0.5 * np.einsum("...i,ij,...j->...", xi, cov, xi))

    def shifted(xi, mean, cov):
        quad = np.einsum("...i,ij,...j->...", xi, cov, xi)
        return np.exp(1j * (xi @ mean) - 0.5 * quad)

    def discrete(xi, points, masses):
        cos, sin = cos_sin(xi @ points.T)
        return cos @ masses + 1j * (sin @ masses)

    def mixture(xi, components):
        total = 0.0
        for w, mean, cov in components:
            mean = np.asarray(mean, float)
            cov = float(cov) * np.eye(3) if np.ndim(cov) == 0 else np.asarray(cov, float)
            total = total + w * (shifted(xi, mean, cov) if np.any(mean) else centred(xi, cov))
        return total

    def heavytail(xi):
        radii = math.sqrt(3.0 / (3.5 / 1.5)) * np.linalg.norm(xi, axis=-1)
        flat = np.array([_heavytail_cf_scalar(float(x), 3.5) for x in np.ravel(radii)])
        return flat.reshape(radii.shape) if radii.ndim else float(flat[0])

    return {
        "sixpoint": lambda xi: cos_sin(xi @ six[:3].T)[0] @ (2.0 * np.full(3, 1.0 / 6.0)) + 0.0,
        "unmatched-atom": lambda xi: discrete(xi, unmatched, np.asarray(UNMATCHED_MASSES)),
        "origin-atom": lambda xi: cos_sin(xi @ symmetric[half].T)[0] @ (2.0 * masses[half])
        + float(masses[-1]),
        "centred-gaussian": lambda xi: centred(xi, ANISOTROPIC_COV),
        "shifted-gaussian": lambda xi: shifted(xi, np.asarray(SHIFTED_MEAN), ANISOTROPIC_COV),
        "mixture": lambda xi: mixture(xi, MIXTURE_COMPONENTS),
        "centred-mixture": lambda xi: mixture(xi, CENTRED_COMPONENTS),
        "heavytail": heavytail,
    }


@pytest.mark.parametrize("name", sorted(RAY_DATA))
def test_transform_is_the_unit_radius_profile_bit_for_bit(name):
    cf, expression = RAY_DATA[name]().cf, _unit_radius_transforms()[name]
    xi = FREQUENCIES[:50] if name == "heavytail" else FREQUENCIES
    for frequencies in (xi, xi[:12].reshape(3, 4, 3), xi[7]):
        got, want = cf(frequencies), expression(frequencies)
        assert type(got) is type(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
