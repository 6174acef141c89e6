"""Monte Carlo simulator and verification suite for Maxwellian collision
cascades: kernels, trees, weights, rotations, samplers, diagnostics."""

from .errors import WildsimError
from .kernel import CollisionKernel, KernelFunctionals, make_kernel, spectral_functionals, truncate
from .tree import McKeanTree, enumerate_trees, sample_tree, tree_probability
from .weights import WeightArray, expected_sum_closed_form, symmetric_function_bound
from .geometry import RotationArray, collision_frames, frame_for
from .initial import InitialDatum, make_initial_datum
from .sampler import TreeSample, draw_tree_sample, rng_stream, sample_nu, wild_velocity
from .diagnostics import (
    DecayFit,
    IdentityReport,
    cf_distance_curve,
    conservation_check,
    envelope_check,
    legendre_moment_checks,
    moment_decay_fit,
    representation_crosscheck,
    run_identity_suite,
)

__version__ = "0.2.2"

__all__ = [
    "WildsimError",
    "CollisionKernel", "KernelFunctionals", "make_kernel", "spectral_functionals", "truncate",
    "McKeanTree", "enumerate_trees", "sample_tree", "tree_probability",
    "WeightArray", "expected_sum_closed_form", "symmetric_function_bound",
    "RotationArray", "collision_frames", "frame_for",
    "InitialDatum", "make_initial_datum",
    "TreeSample", "draw_tree_sample", "rng_stream", "sample_nu", "wild_velocity",
    "DecayFit", "IdentityReport", "cf_distance_curve", "conservation_check",
    "envelope_check", "legendre_moment_checks", "moment_decay_fit",
    "representation_crosscheck", "run_identity_suite",
]
