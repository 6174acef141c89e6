"""Acceptance suite: one test per criterion, printed pass lines included.

Run with `pytest tests/test_acceptance.py -v -s` to see per-criterion
timing and pass lines.  Sample sizes and seeds are pinned; every
statistical gate uses the tolerance stated in its criterion.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from wildsim.diagnostics import (
    cf_distance_curve,
    conservation_check,
    envelope_check,
    legendre_moment_checks,
    moment_decay_fit,
    representation_crosscheck,
    run_identity_suite,
)
from oracles import cascade_trees, collide, path_product_rotation, rotation_z
from wildsim.geometry import collision_frames, frame_for
from wildsim.initial import gaussian_datum, sixpoint_datum
from wildsim.kernel import make_kernel, spectral_functionals
from wildsim.sampler import germination_record, leaf_frames, rng_stream, sorted_sizes, tree_record
from wildsim.tree import chain_distribution, enumerate_trees, sample_tree, tree_probability
from wildsim.weights import symmetric_function_bound


@pytest.fixture(scope="module")
def kernel():
    return make_kernel("xabs")


@pytest.fixture(scope="module")
def sixpoint():
    return sixpoint_datum()


def _finish(number, label, started, budget):
    elapsed = time.time() - started
    print(f"criterion {number:2d} ({label}): PASS in {elapsed:.1f}s (budget {budget:.0f}s)")
    assert elapsed < budget


def test_criterion_01_spectral_oracle(kernel):
    started = time.time()
    fn = spectral_functionals(kernel)
    assert abs(fn.lambda_b - (-1.0 / 3.0)) < 1e-9
    assert abs(fn.l_s_table[4] - 1.0 / 3.0) < 1e-9
    for preset in ("xabs", "cubic", "sqrtmix"):
        other = spectral_functionals(make_kernel(preset))
        assert abs(other.l_s_table[2] - 0.5) < 1e-9
    _finish(1, "spectral oracle", started, 1.0)


def test_criterion_02_identity_suite(kernel):
    started = time.time()
    report = run_identity_suite(
        kernel, [0.5, 1.0, 2.0, 3.0], 100_000, seed=8802, z_threshold=4.0
    )
    weight_entries = [e for e in report.entries if e.identity.startswith("sum")]
    assert len(weight_entries) == 4 * 6  # s = 1..3, zeta, eta, W (s = 4) at each t
    failures = [e for e in weight_entries if not e.passed]
    assert not failures, [(e.identity, e.params, e.z_score) for e in failures]
    assert report.passed
    _finish(2, "weight identities", started, 5.0)


def test_criterion_03_exact_small_laws():
    started = time.time()
    for n in range(1, 7):
        chain = chain_distribution(n)
        shapes = enumerate_trees(n)
        assert set(chain) == set(shapes)
        for tree in shapes:
            assert chain[tree] == tree_probability(tree)  # exact rationals
        assert sum(tree_probability(t) for t in shapes) == 1
    _finish(3, "exact small-size laws", started, 2.0)


def test_criterion_04_geometry():
    started = time.time()
    rng = rng_stream(8804)
    eye = np.eye(3)
    for trial in range(1000):
        n = int(rng.integers(2, 65))
        tree = sample_tree(n, rng)
        phis = rng.uniform(0.0, math.pi, n - 1)
        thetas = rng.uniform(0.0, 2.0 * math.pi, n - 1)
        # the engine's leaf rotations of this tree, angles in level order
        record = replace(tree_record(tree, phis), thetas=thetas)
        rots = leaf_frames(record)[1].rotations
        gram = np.einsum("nji,njk->nik", rots, rots)
        assert float(np.max(np.abs(gram - eye))) < 1e-12
        dets = np.linalg.det(rots)
        assert float(np.max(np.abs(dets - 1.0))) < 1e-12
        if trial % 5 == 0:
            leaf = int(rng.integers(0, n))
            [(_, path_phis, path_thetas, _)] = cascade_trees(record)
            direct = path_product_rotation(tree, path_phis, path_thetas, leaf)
            assert float(np.max(np.abs(rots[leaf] - direct))) < 1e-12
    for _ in range(1000):
        phi = float(rng.uniform(0.0, math.pi))
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        alpha = float(rng.uniform(0.0, 2.0 * math.pi))
        ml, mr = collision_frames(phi, theta)
        ml2, mr2 = collision_frames(phi, (theta + alpha) % (2.0 * math.pi))
        rz = rotation_z(alpha)
        assert float(np.max(np.abs(rz @ ml - ml2))) < 1e-12
        assert float(np.max(np.abs(rz @ mr - mr2))) < 1e-12
    _finish(4, "rotation cascades", started, 5.0)


def test_criterion_05_legendre_identities(kernel):
    started = time.time()
    report = legendre_moment_checks(kernel, tree_size=4, seed=8805)
    failures = [e for e in report.entries if not e.passed]
    assert not failures, [(e.identity, e.params, e.z_score) for e in failures]
    _finish(5, "conditional Legendre moments", started, 1.0)


def test_criterion_06_representation_crosscheck(kernel, sixpoint):
    started = time.time()
    directions = np.array([
        [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
        [1.0, 1.0, 1.0], [1.0, -1.0, 0.5],
    ])
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    grid = np.array([r * d for r in (0.6, 1.0, 1.5, 2.2) for d in directions])
    assert len(grid) == 20
    for t in (0.5, 1.0, 2.0):
        report = representation_crosscheck(
            sixpoint, kernel, [t], grid, 100_000, seed=8806, z_threshold=4.0
        )
        assert report.pass_fraction >= 0.95, (t, report.pass_fraction)
    _finish(6, "representation cross-check", started, 20.0)


def test_criterion_07_conservation(kernel, sixpoint):
    started = time.time()
    report = conservation_check(sixpoint, kernel, [0.5, 1.0, 2.0], 30_000,
                                seed=8807, z_threshold=4.0)
    assert report.passed, [(e.identity, e.z_score) for e in report.entries
                           if not e.passed]
    rng = rng_stream(8817)
    for _ in range(1000):
        v = tuple(rng.normal(size=3))
        w = tuple(rng.normal(size=3))
        v_out, w_out = collide(v, w, float(rng.uniform(0, math.pi)),
                               float(rng.uniform(0, 2 * math.pi)))
        assert max(abs(a + b - c - d) for a, b, c, d in
                   zip(v_out, w_out, v, w)) < 1e-12
        energy_in = sum(x * x for x in v) + sum(x * x for x in w)
        energy_out = sum(x * x for x in v_out) + sum(x * x for x in w_out)
        assert abs(energy_out - energy_in) < 1e-12 * max(1.0, energy_in)
    _finish(7, "conservation", started, 2.0)


def test_criterion_08_rate_recovery(kernel, sixpoint):
    started = time.time()
    w_fit = moment_decay_fit(None, kernel, [1, 2, 3, 4, 5, 6], moment_spec="W",
                             n_samples=100_000, seed=8808)
    w_err = abs(w_fit.fitted_rate - (-1.0 / 3.0)) / (1.0 / 3.0)
    assert w_err < 0.05, (w_fit.fitted_rate, w_err)

    # probe direction with sum u^4 = 3/5: the fourth-moment deviation there
    # carries the gap eigenmode alone, so the asymptotic rate shows from t=1
    probe = np.array([math.sqrt(1.0 - 2.0 * 0.12251482265544137),
                      math.sqrt(0.12251482265544137),
                      math.sqrt(0.12251482265544137)])
    m_fit = moment_decay_fit(sixpoint, kernel, [1, 2, 3, 4], moment_spec="v1^4",
                             n_samples=100_000, seed=8818, direction=probe)
    m_err = abs(m_fit.fitted_rate - (-1.0 / 3.0)) / (1.0 / 3.0)
    assert m_err < 0.15, (m_fit.fitted_rate, m_err)
    print(f"  W rate {w_fit.fitted_rate:.4f} ({100 * w_err:.1f}%), "
          f"directional fourth-moment rate {m_fit.fitted_rate:.4f} ({100 * m_err:.1f}%)")
    _finish(8, "rate recovery", started, 30.0)


def test_criterion_09_gaussian_fixed_point(kernel):
    started = time.time()
    mu0 = gaussian_datum()
    rng = rng_stream(8809)
    cf = mu0.cf
    nus, _ = sorted_sizes(1.5, rng, 2000)
    record = germination_record(nus, kernel, rng)
    weights, rotations = leaf_frames(record)
    directions = rng.standard_normal((len(nus), 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    bases = frame_for(directions)
    psi = np.einsum("jik,jk->ji", np.repeat(bases, record.nus, axis=0),
                    rotations.third_columns())
    for rho in (0.4, 1.0, 2.3):
        values = record.per_cascade(cf(rho * weights[:, None] * psi), np.multiply)
        assert np.all(np.abs(values - math.exp(-rho * rho / 2.0)) < 1e-12)
    grid = np.array([[0.5, 0, 0], [0, 1.0, 0], [0.4, 0.4, 0.4], [0, -0.9, 1.1]])
    times = [0.5, 1.0, 2.0, 4.0]
    fit, _ = cf_distance_curve(mu0, kernel, times, grid, 2000, seed=8819)
    assert np.all(fit.values == 0.0)
    _finish(9, "gaussian fixed point", started, 2.0)


def test_criterion_10_newton_bound():
    started = time.time()
    rng = rng_stream(8810)
    r, a_star = 3, 1.0 / 48.0   # scale-free stand-ins for the tail pairing
    n = 128
    xs = np.geomspace(0.1, 10.0, 25)
    vectors = rng.dirichlet(np.full(n, 5.0), size=10_000)
    assert np.all(np.sum(vectors**2, axis=1) <= a_star)  # premise holds
    for a in vectors:
        report = symmetric_function_bound(a, r=r, a_star=a_star, k_max=8,
                                          x_grid=xs)
        assert report.hypothesis_met
        assert report.bound_holds.all()
        assert report.product_bound_checked and report.product_bound_holds
    _finish(10, "symmetric-function bounds", started, 20.0)


def test_criterion_11_envelope(kernel):
    started = time.time()
    report = envelope_check(gaussian_datum(), math.sqrt(0.5), 0.25, kernel,
                            t=2.0, n_samples=10_000, seed=8811)
    assert report.passed
    assert report.entries[0].mc_value == 0.0  # zero violations
    _finish(11, "transform envelope", started, 3.0)
