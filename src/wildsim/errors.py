"""Exception hierarchy shared by all wildsim modules."""


class WildsimError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(WildsimError, ValueError):
    """Invalid or inconsistent run configuration."""


# --- kernel construction ---------------------------------------------------

class NegativeKernel(WildsimError, ValueError):
    """Angular kernel takes negative values."""


class SymmetryViolation(WildsimError, ValueError):
    """Angular kernel fails the sine/cosine exchange symmetry."""


class NotNormalizable(WildsimError, ValueError):
    """Angular kernel is not integrable on (0, 1); truncate it first."""


class QuadratureFailure(WildsimError, ArithmeticError):
    """Adaptive quadrature could not reach the requested tolerance."""


# --- trees ------------------------------------------------------------------

class IndexOutOfRange(WildsimError, IndexError):
    """Leaf index outside 1..leaf_count."""


class SplitOfLeaf(WildsimError, ValueError):
    """A single leaf cannot be split into subtrees."""


class TooLarge(WildsimError, ValueError):
    """Requested exhaustive enumeration beyond the supported size."""


# --- weights ----------------------------------------------------------------

class NotNormalized(WildsimError, ValueError):
    """Squared weights do not sum to one."""


# --- sampling ---------------------------------------------------------------

class TimeTooLarge(WildsimError, ValueError):
    """Expected or drawn cascade size exceeds the sampler's cap."""


class NoAnalyticCf(ConfigError):
    """Initial datum has no closed-form characteristic function."""


class BadSpec(WildsimError, ValueError):
    """Unrecognized initial-datum or kernel specification."""


def reject_unknown_keys(spec: dict, known, what: str) -> None:
    """Raise BadSpec naming every key of a spec dictionary outside known."""
    unknown = sorted(map(str, spec.keys() - set(known)))
    if unknown:
        raise BadSpec(f"unknown {what} spec key(s): {', '.join(unknown)}")


class MomentUnavailable(ConfigError):
    """A required moment of the initial datum is infinite or unknown."""


# --- diagnostics ------------------------------------------------------------

class InsufficientSignal(WildsimError, RuntimeError):
    """Decay signal indistinguishable from zero on most of the grid."""


class PremiseFailed(WildsimError, ValueError):
    """A hypothesis required by the check fails on the verification grid."""
