"""Detection power: the checks against known engine defects.

Each test breaks the engine on purpose and asks whether the checks notice
at the benchmark's settings, at seeds 1 to 4: `crosscheck` on sixpoint at
t = 1 on the default grid with 20,000 cascades, `conserve` at t = 3, 4
and 5 with 5,000 cascades, and `identities` on xabs at t = 0.5, 1, 2 and
3 with 10,000 cascades.  The velocity scale defect monkeypatches `replay`
in both `wildsim.sampler` (the empirical velocity draws of `crosscheck`
and its pilot) and `wildsim.diagnostics` (the root images of `conserve`
and `decay --moment v1^4`), so that every replayed velocity comes out
scaled by SCALE.  The angle-law
defect monkeypatches `CollisionKernel.inverse_beta_cdf`, so that every
drawn collision angle phi becomes min(pi, ANGLE_STRETCH phi).

`conserve`'s exact-mean controls keep each column unbiased on correct
code, but their means come from the same theory the check tests, so under
a scale defect they move with the statistic and cancel most of its shift
(ROADMAP, direction 1).  The plain columns (sixpoint without m6, which
`_controls_exact` then turns down) keep the power; the controlled columns'
failure to reach it is marked xfail.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

import wildsim.diagnostics as diagnostics
import wildsim.sampler as sampler
from wildsim.cli import default_xi_grid
from wildsim.initial import sixpoint_datum
from wildsim.kernel import CollisionKernel, make_kernel

SCALE = 1.03
ANGLE_STRETCH = 1.02  # at 1.01 seed 3 passes identities
SEEDS = (1, 2, 3, 4)
CONSERVE_TIMES = [3.0, 4.0, 5.0]
IDENTITY_TIMES = [0.5, 1.0, 2.0, 3.0]


@pytest.fixture(scope="module")
def kernel():
    return make_kernel("xabs")


@pytest.fixture
def scaled_engine(monkeypatch):
    """Every velocity `replay` returns, each root image too, times SCALE."""
    original = sampler.replay

    def scaled(record, velocities, images=False):
        return SCALE * original(record, velocities, images=images)

    monkeypatch.setattr(sampler, "replay", scaled)
    monkeypatch.setattr(diagnostics, "replay", scaled)


@pytest.fixture
def stretched_angles(monkeypatch):
    """Every collision angle the engine draws, min(pi, ANGLE_STRETCH phi)."""
    original = CollisionKernel.inverse_beta_cdf

    def stretched(self, u):
        return np.minimum(math.pi, ANGLE_STRETCH * original(self, u))

    monkeypatch.setattr(CollisionKernel, "inverse_beta_cdf", stretched)


def _mean_energy_z(mu0, kernel):
    z = [entry.z_score
         for seed in SEEDS
         for entry in diagnostics.conservation_check(mu0, kernel, CONSERVE_TIMES, 5000,
                                                     seed).entries
         if entry.identity == "conserved_energy"]
    assert len(z) == len(SEEDS) * len(CONSERVE_TIMES)
    return float(np.mean(z))


def test_crosscheck_fails_a_velocity_scale_defect(kernel, scaled_engine):
    """Each seed fails 12 entries, with a largest z of 10.76 to 10.98."""
    for seed in SEEDS:
        report = diagnostics.representation_crosscheck(
            sixpoint_datum(), kernel, [1.0], default_xi_grid(), 20_000, seed)
        assert not report.passed, seed


def test_plain_conserve_fails_a_velocity_scale_defect(kernel, scaled_engine):
    """Energy's mean z reads 15.25 (0.28 on the unbroken engine; 7.94 when
    each cascade read its root pair instead of its 16 root images)."""
    plain = replace(sixpoint_datum(), m6=None)
    assert not diagnostics._controls_exact(plain)
    assert _mean_energy_z(plain, kernel) >= 10.0


@pytest.mark.xfail(strict=True, reason="the exact-mean controls cancel most of a scale "
                   "defect's shift in the energy column (ROADMAP, direction 1)")
def test_controlled_conserve_fails_a_velocity_scale_defect(kernel, scaled_engine):
    """Energy's mean z reads 2.44 (-0.18 on the unbroken engine; 1.24 on
    the root pair)."""
    controlled = sixpoint_datum()
    assert diagnostics._controls_exact(controlled)
    assert _mean_energy_z(controlled, kernel) >= 4.0


def test_identities_fail_an_angle_law_defect(kernel, stretched_angles):
    """The references are angle integrals of the kernel itself, which the
    defect leaves alone; each seed reads a largest |z| of 7.8 to 10.1, with
    6 to 9 of the 24 leaf-product entries failing (the plain sums failed 2
    to 6, with a largest |z| of 5.6 to 7.8).

    The entries are averaged over the tree's child swaps, and that keeps
    their power against any angle law: at size n the plain sum's mean
    obeys F_n = (a + b) / (n - 1) sum_{L < n} F_L, with a = E g_L and
    b = E g_R the mean left and right factors, so it reads the law only
    through a + b, and the swap average's factor (g_L + g_R) / 2 has mean
    (a + b) / 2 on both sides, the same recursion.  What the average cannot
    see is where the engine puts each factor: a defect that ties the larger
    factor to the larger subtree moves the plain mean and not this one.
    `crosscheck` still tests factor placement, through `leaf_frames`."""
    for seed in SEEDS:
        report = diagnostics.run_identity_suite(kernel, IDENTITY_TIMES, 10_000, seed)
        products = [e for e in report.entries if e.identity.startswith("sum")]
        assert len(products) == 6 * len(IDENTITY_TIMES)
        assert sum(not e.passed for e in products) >= 5, seed


def test_crosscheck_passes_an_angle_law_defect(kernel, stretched_angles):
    """Both sides of crosscheck, the weight-and-rotation transform and the
    replayed velocities (its pilot too), draw their angles from the same
    stretched law, so they still agree: crosscheck tests the representation,
    not the angle law."""
    for seed in SEEDS:
        report = diagnostics.representation_crosscheck(
            sixpoint_datum(), kernel, [1.0], default_xi_grid(), 20_000, seed)
        assert report.passed, seed
