"""Initial velocity laws: samplers, characteristic functions, moment tables.

Presets cover the cases exercised by the verification suite: Gaussians and
Gaussian mixtures, symmetric discrete laws (notably the six-point law on
the coordinate axes), the radial heavy-tail family with density
q / (4 pi |v|^(3+q)) outside the unit ball (finite third, infinite fourth
moment for q in (3, 4)), and sampler-only data, whose moments come from a
frozen auxiliary sample and which have no transform.

A datum is its law plus only what a check reads: mean, covariance, m2, m4
and m6 (m_h = E|V|^h; m4 and m6 are None if unknown, inf if divergent, and
an m6 that overflows is inf; none is fabricated), the fourth-moment tensor
E[V (x) V (x) V (x) V] where it is known exactly (discrete laws, centred
Gaussians and mixtures of them; None otherwise) and the exact transform
cf, or None.  `require_cf` and `require_m4` say what a datum lacks, as a
ConfigError.

Each family writes its transform once, along rays (`Transform`): a
projection of a frequency y, which the estimators take once per direction,
and a profile in the radius rho, so that phi0(rho y) =
profile(project(y), rho).  The projections are y @ points.T (discrete
laws), y . C y and y . mean (Gaussians; the second only when the mean is
not zero), the components' projections (mixtures) and scale |y| (the
heavy tail); cf(xi) is the profile of xi's projection at rho = 1, and a
product by 1.0 is exact.

A law symmetric under v -> -v has a real transform, and gets one: the test
is made when the law is built, by exact float equality on its atoms (every
atom p has a partner -p of equal mass) or its means (a centred Gaussian, or
a mixture of them), never by name or tolerance; the radial heavy-tail law
is symmetric by construction.  The discrete transform is then
sum_half 2 m cos(xi . p) (plus the mass of an atom at the origin) over half
the atoms, and the mean is exactly zero; every other law keeps its complex
transform.  The symmetric profile is cosines alone (`kernel.cosine`, the
cosine half of `kernel.cos_sin`).  Dictionary specs must hold only the keys
their preset reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .errors import BadSpec, MomentUnavailable, NoAnalyticCf, reject_unknown_keys
from .kernel import cos_sin, cosine

AUX_SEED, AUX_SAMPLE = 20211205, 100_000  # seed and size of `sampler_datum`'s frozen sample
_HEAVYTAIL_SERIES_LIMIT = 25.0
# the keys each dictionary preset reads besides "preset"; any other is an error
_SPEC_KEYS = {
    "gaussian": ("mean", "cov"),
    "mixture": ("components",),
    "sixpoint": (),
    "discrete": ("points", "masses", "normalize"),
    "heavytail": ("q", "normalize"),
}


@dataclass(frozen=True)
class Transform:
    """An exact initial transform along rays: phi0(rho y) =
    profile(project(y), rho).  project(y) maps frequencies (..., 3) to what
    the profile reads; profile(p, rho) takes rho as a scalar or as an array
    of y's leading shape (one radius per frequency).  Calling it is the
    transform, the profile at rho = 1.  Both parts are instance attributes,
    so a wrapper made with functools.wraps carries them along."""

    project: Callable
    profile: Callable

    def __call__(self, xi):
        return self.profile(self.project(np.asarray(xi, float)), 1.0)


def _radial(rho, p):
    """rho * p for a projection p with one axis more than the frequencies:
    rho is a scalar or has p's leading shape."""
    return np.multiply(np.expand_dims(rho, -1), p)


@dataclass(frozen=True)
class InitialDatum:
    """A sampleable initial law with the moments and transform checks read.
    mean, covariance and m2 have no defaults, so a datum built by hand states
    them; m4, m6, m4_tensor and cf default to None, unknown.  m4_tensor is
    E[V_i V_j V_k V_l] as a (3, 3, 3, 3) array, whose double trace is m4."""

    name: str
    sampler: Callable = field(repr=False)
    mean: np.ndarray
    covariance: np.ndarray
    m2: float
    m4: float | None = None
    m6: float | None = None
    m4_tensor: np.ndarray | None = field(default=None, repr=False)
    cf: Transform | None = field(default=None, repr=False)

    def require_cf(self) -> Transform:
        if self.cf is None:
            raise NoAnalyticCf(f"initial datum {self.name!r} has no transform")
        return self.cf

    def require_m4(self) -> float:
        if self.m4 is None or not math.isfinite(self.m4):
            state = "unknown" if self.m4 is None else "infinite"
            raise MomentUnavailable(f"fourth moment of {self.name!r} is {state}")
        return self.m4

    def is_normalized(self, tol: float = 1e-9) -> bool:
        return bool(
            np.all(np.abs(self.mean) < tol) and abs(np.trace(self.covariance) - 3.0) < tol
        )


def _require_finite(name: str, *moments) -> None:
    """Reject a law whose moments, finite by construction, overflowed.
    Only m2 and m4 are checked: an m6 that overflows is kept as inf, which
    only withholds the controls that read it."""
    if not all(math.isfinite(m) for m in moments):
        raise BadSpec(f"moments of initial datum {name!r} overflow double precision")


# --- gaussian ----------------------------------------------------------------

def _gaussian_sampler(rng, size, mean, chol):
    return mean + rng.standard_normal((size, 3)) @ chol.T


def _quadratic_form(y, cov):
    return np.einsum("...i,ij,...j->...", y, cov, y)


def _gaussian_project(y, mean, cov):
    return _quadratic_form(y, cov), y @ mean


def _gaussian_profile(p, rho):
    quad, shift = p
    return np.exp(1j * (rho * shift) - 0.5 * (rho * rho * quad))


def _centred_gaussian_profile(quad, rho):
    return np.exp(-0.5 * (rho * rho * quad))


def gaussian_datum(mean=(0.0, 0.0, 0.0), cov=None, name=None) -> InitialDatum:
    mean = np.asarray(mean, float)
    cov = np.eye(3) if cov is None else np.asarray(cov, float)
    if np.isscalar(cov) or cov.ndim == 0:
        cov = float(cov) * np.eye(3)
    chol = np.linalg.cholesky(cov)
    name = name or "gaussian"
    with np.errstate(over="ignore", invalid="ignore"):
        # |V|^2 has cumulants k_n = 2^(n-1) (n-1)! (tr C^n + n mean' C^(n-1) mean),
        # so m2 = k1, m4 = k1^2 + k2 and m6 = k1^3 + 3 k1 k2 + k3 = m2 (m4 + 2 k2) + k3
        cov2, quad = cov @ cov, mean @ cov @ mean
        m2 = np.trace(cov) + mean @ mean
        m4 = m2 * m2 + 2.0 * np.trace(cov2) + 4.0 * quad
        k2 = 2.0 * np.trace(cov2) + 4.0 * quad
        k3 = 8.0 * np.trace(cov2 @ cov) + 24.0 * (mean @ cov2 @ mean)
        m2, m4, m6 = float(m2), float(m4), float(m2 * (m4 + 2.0 * k2) + k3)
    _require_finite(name, m2, m4)
    tensor = None
    if not np.any(mean):  # Isserlis: C_ij C_kl + C_ik C_jl + C_il C_jk
        outer = np.multiply.outer(cov, cov)
        tensor = outer + outer.transpose(0, 2, 1, 3) + outer.transpose(0, 2, 3, 1)
    return InitialDatum(
        name=name,
        sampler=partial(_gaussian_sampler, mean=mean, chol=chol),
        mean=mean,
        covariance=cov,
        m2=m2,
        m4=m4,
        m6=m6,
        m4_tensor=tensor,
        cf=(Transform(partial(_gaussian_project, mean=mean, cov=cov), _gaussian_profile)
            if np.any(mean)
            else Transform(partial(_quadratic_form, cov=cov), _centred_gaussian_profile)),
    )


# --- gaussian mixture --------------------------------------------------------

def _mixture_sampler(rng, size, weights, means, chols):
    idx = rng.choice(len(weights), size=size, p=weights)
    z = rng.standard_normal((size, 3))
    out = np.empty((size, 3))
    for c in range(len(weights)):
        pick = idx == c
        out[pick] = means[c] + z[pick] @ chols[c].T
    return out


def _mixture_project(y, cfs):
    return [cf.project(y) for cf in cfs]


def _mixture_profile(p, rho, weights, cfs):
    total = 0.0  # stays real when every component transform is real
    for w, part, cf in zip(weights, p, cfs):
        total = total + w * cf.profile(part, rho)
    return total


def mixture_datum(components, name="mixture") -> InitialDatum:
    """components: iterable of (weight, mean, cov)."""
    weights = np.array([float(c[0]) for c in components])
    if abs(weights.sum() - 1.0) > 1e-12 or np.any(weights < 0):
        raise BadSpec("mixture weights must be nonnegative and sum to 1")
    means = [np.asarray(c[1], float) for c in components]
    covs = [np.asarray(c[2], float) * np.eye(3) if np.ndim(c[2]) == 0
            else np.asarray(c[2], float) for c in components]
    chols = [np.linalg.cholesky(c) for c in covs]
    # each component rejects its own overflow; averages of finite moments stay finite
    parts = [gaussian_datum(m, c, name=f"{name} component {i}")
             for i, (m, c) in enumerate(zip(means, covs))]
    cfs = [p.cf for p in parts]
    mean = sum(w * p.mean for w, p in zip(weights, parts))
    second = sum(w * (p.covariance + np.outer(p.mean, p.mean))
                 for w, p in zip(weights, parts))
    with np.errstate(over="ignore"):  # a component's m6 may be inf; a weight 0 skips it
        m6 = float(sum(w * p.m6 for w, p in zip(weights, parts) if w > 0.0))
    tensors = [(w, p.m4_tensor) for w, p in zip(weights, parts) if w > 0.0]
    tensor = (None if any(part is None for _, part in tensors)
              else sum(w * part for w, part in tensors))
    return InitialDatum(
        name=name,
        sampler=partial(_mixture_sampler, weights=weights, means=means, chols=chols),
        mean=mean,
        covariance=second - np.outer(mean, mean),
        m2=float(np.trace(second)),
        m4=float(sum(w * p.m4 for w, p in zip(weights, parts))),
        m6=m6,
        m4_tensor=tensor,
        cf=Transform(partial(_mixture_project, cfs=cfs),
                     partial(_mixture_profile, weights=weights, cfs=cfs)),
    )


# --- discrete laws -----------------------------------------------------------

def _discrete_sampler(rng, size, points, masses):
    if masses[0] == masses[-1] and np.ptp(masses) == 0.0:
        return points.take(rng.integers(0, len(masses), size=size), axis=0)
    return points.take(rng.choice(len(masses), size=size, p=masses), axis=0)


def _atom_phases(y, points):
    return y @ points.T  # (..., npoints)


def _discrete_profile(p, rho, masses):
    cos, sin = cos_sin(_radial(rho, p))
    return cos @ masses + 1j * (sin @ masses)


def _symmetric_discrete_profile(p, rho, pair_masses, origin_mass):
    return cosine(_radial(rho, p)) @ pair_masses + origin_mass


def _symmetric_half(points, masses):
    """Mask of the atoms whose first nonzero coordinate is positive, when
    the law is exactly symmetric under v -> -v (every atom p has a partner
    -p of equal mass; an atom at the origin is its own mirror), else None.
    The test is exact float equality, never a tolerance."""
    atoms = np.column_stack([points, masses])
    mirror = np.column_stack([-points, masses])
    if not np.array_equal(atoms[np.lexsort(atoms.T[::-1])],
                          mirror[np.lexsort(mirror.T[::-1])]):
        return None
    nonzero = points != 0.0
    lead = points[np.arange(len(points)), np.argmax(nonzero, axis=1)]
    return lead > 0.0


def discrete_datum(points, masses, normalize=False, name="discrete") -> InitialDatum:
    """The law of mass masses[i] at points[i].  Atoms of mass 0 are dropped
    first: they are not part of the law, and a far one would overflow its
    moments (0 * inf)."""
    points = np.asarray(points, float).reshape(-1, 3)
    masses = np.asarray(masses, float)
    if len(points) != len(masses):
        raise BadSpec("points and masses must have equal length")
    if np.any(masses < 0) or abs(masses.sum() - 1.0) > 1e-12:
        raise BadSpec("masses must be nonnegative and sum to 1")
    if not np.all(masses):
        points, masses = points[masses > 0.0], masses[masses > 0.0]
    if normalize:
        with np.errstate(over="ignore", invalid="ignore"):
            # a symmetric law is centred already; subtracting its computed
            # mean (roundoff, not zero) would break the exact symmetry
            if _symmetric_half(points, masses) is None:
                points = points - masses @ points
            energy = float(masses @ np.einsum("ij,ij->i", points, points))
        _require_finite(name, energy)
        if energy <= 0:
            raise BadSpec("cannot normalize a law concentrated at one point")
        points = points * math.sqrt(3.0 / energy)
    half = _symmetric_half(points, masses)
    with np.errstate(over="ignore", invalid="ignore"):
        sq = np.einsum("ij,ij->i", points, points)
        m2, m4, m6 = float(masses @ sq), float(masses @ sq**2), float(masses @ sq**3)
        covariance = np.einsum("i,ij,ik->jk", masses, points, points)
        pairs = np.einsum("ij,ik->ijk", points, points)
        tensor = np.einsum("i,ijk,ilm->jklm", masses, pairs, pairs)
        if half is None:
            mean = masses @ points
            covariance -= np.outer(mean, mean)
        else:  # the mean of a symmetric law vanishes exactly
            mean = np.zeros(3)
    _require_finite(name, m2, m4)
    if half is None:
        cf = Transform(partial(_atom_phases, points=points),
                       partial(_discrete_profile, masses=masses))
    else:
        origin = ~np.any(points, axis=1)
        cf = Transform(partial(_atom_phases, points=points[half]),
                       partial(_symmetric_discrete_profile, pair_masses=2.0 * masses[half],
                               origin_mass=float(masses[origin].sum())))
    return InitialDatum(
        name=name,
        sampler=partial(_discrete_sampler, points=points, masses=masses),
        mean=mean,
        covariance=covariance,
        m2=m2,
        m4=m4,
        m6=m6,
        m4_tensor=tensor,
        cf=cf,
    )


def sixpoint_datum() -> InitialDatum:
    """Mass 1/6 on each of the six (rescaled) coordinate directions."""
    points = np.vstack([np.eye(3), -np.eye(3)])
    return discrete_datum(points, np.full(6, 1.0 / 6.0), normalize=True,
                          name="sixpoint")


# --- radial heavy tails ------------------------------------------------------

def _heavytail_sampler(rng, size, q, scale):
    radii = rng.random(size) ** (-1.0 / q)
    direction = rng.standard_normal((size, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    return scale * radii[:, None] * direction


def _heavytail_cf_scalar(x, q):
    if x == 0.0:
        return 1.0
    if x <= _HEAVYTAIL_SERIES_LIMIT:
        total = (
            1.0
            - q / (6.0 * (q - 2.0)) * x * x
            - math.gamma(1.0 - q) * math.cos(q * math.pi / 2.0) / (1.0 + q) * x**q
        )
        term_sign, m = 1.0, 2
        while True:
            term = term_sign * x ** (2 * m) / (
                math.factorial(2 * m + 1) * (2 * m - q)
            )
            total -= q * term
            if abs(term) < 1e-17:
                break
            term_sign, m = -term_sign, m + 1
        return total
    # oscillatory tail: (q/x) int_1^inf sin(x r) r^(-2-q) dr, by QUADPACK's
    # Fourier-integral rule; imported here so only this branch loads scipy
    from scipy import integrate

    value, _ = integrate.quad(
        lambda r: r ** (-2.0 - q), 1.0, np.inf, weight="sin", wvar=x, limlst=200
    )
    return q / x * value


def _heavytail_project(y, scale):
    return scale * np.linalg.norm(y, axis=-1)


def _heavytail_profile(r, rho, q):
    radii = rho * r
    flat = np.array([_heavytail_cf_scalar(float(x), q) for x in np.ravel(radii)])
    return flat.reshape(radii.shape) if radii.ndim else float(flat[0])


def heavytail_datum(q: float, normalize: bool = False) -> InitialDatum:
    """Radial law with tail P(|V| > R) = R^(-q); q in (3, 4)."""
    if not 3.0 < q < 4.0:
        raise BadSpec("heavy-tail exponent q must lie in (3, 4)")
    m2_raw = q / (q - 2.0)
    scale = math.sqrt(3.0 / m2_raw) if normalize else 1.0
    return InitialDatum(
        name=f"heavytail(q={q:g})" + ("-normalized" if normalize else ""),
        sampler=partial(_heavytail_sampler, q=q, scale=scale),
        mean=np.zeros(3),
        covariance=(scale**2 * m2_raw / 3.0) * np.eye(3),
        m2=scale**2 * m2_raw,
        m4=math.inf,
        m6=math.inf,
        cf=Transform(partial(_heavytail_project, scale=scale),
                     partial(_heavytail_profile, q=q)),
    )


# --- sampler-only data -------------------------------------------------------

def sampler_datum(sampler, name="custom") -> InitialDatum:
    """Wrap a velocity sampler.  Its moments come from a frozen auxiliary
    sample, drawn from the fixed seed AUX_SEED; it has no transform, so
    transform grids estimate from draws and the envelope check refuses it."""
    frozen = np.asarray(
        sampler(np.random.default_rng(AUX_SEED), AUX_SAMPLE), float
    ).reshape(-1, 3)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = frozen.mean(axis=0)
        sq = np.einsum("ij,ij->i", frozen, frozen)
        m2, m4 = float(sq.mean()), float((sq**2).mean())
        covariance = np.cov(frozen.T, bias=True)
    _require_finite(name, m2, m4)
    return InitialDatum(
        name=name,
        sampler=sampler,
        mean=mean,
        covariance=covariance,
        m2=m2,
        m4=m4,
    )


# --- spec dispatch -----------------------------------------------------------

def make_initial_datum(spec) -> InitialDatum:
    """Build an InitialDatum from a preset name or a config dictionary."""
    if isinstance(spec, InitialDatum):
        return spec
    if isinstance(spec, str):
        if spec == "gaussian":
            return gaussian_datum()
        if spec == "sixpoint":
            return sixpoint_datum()
        raise BadSpec(f"unknown initial-datum preset {spec!r}")
    if isinstance(spec, dict):
        kind = spec.get("preset")
        if not isinstance(kind, str) or kind not in _SPEC_KEYS:
            raise BadSpec(f"unknown initial-datum preset {kind!r}")
        reject_unknown_keys(spec, ("preset", *_SPEC_KEYS[kind]), f"{kind} initial-datum")
        if kind == "gaussian":
            return gaussian_datum(spec.get("mean", (0, 0, 0)), spec.get("cov"))
        if kind == "mixture":
            for c in spec["components"]:
                if isinstance(c, dict):
                    reject_unknown_keys(c, ("weight", "mean", "cov"), "mixture component")
            return mixture_datum(
                [(c["weight"], c["mean"], c["cov"]) for c in spec["components"]]
            )
        if kind == "sixpoint":
            return sixpoint_datum()
        if kind == "discrete":
            return discrete_datum(
                spec["points"], spec["masses"], normalize=spec.get("normalize", False)
            )
        return heavytail_datum(float(spec["q"]), spec.get("normalize", False))
    raise BadSpec(f"cannot interpret initial-datum spec of type {type(spec).__name__}")
