"""Exception and warning types shared across the package."""


class NetepiError(Exception):
    """Base class for all package errors."""


class EmptyDistribution(NetepiError):
    """A distribution operation received or produced no support."""


class ZeroMean(NetepiError):
    """An operation requires a distribution with positive mean."""


class NoEdges(NetepiError):
    """The household law puts no mass on sizes >= 2, so no local edges exist."""


class NoTriplets(NetepiError):
    """Clustering is undefined: no paths of length two exist."""


class ZeroVariance(NetepiError):
    """Degree correlation is undefined: endpoint degrees are constant."""


class DegenerateNetwork(NetepiError):
    """An empirical measure was asked of a network that cannot support it."""


class ConstantPeriodRequired(NetepiError):
    """Forward quantities (forward extinction, outbreak probability) need a
    constant infectious period, under which the forward final-size law is
    the susceptibility-set law M; general periods only support backward
    quantities."""


class NonConvergence(NetepiError):
    """An iterative solver failed to converge within its iteration budget."""

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = history if history is not None else []


class Infeasible(NetepiError):
    """A tuning target lies outside the attainable envelope."""

    def __init__(self, message, lo=None, hi=None):
        super().__init__(message)
        self.lo = lo
        self.hi = hi


class InvalidTarget(NetepiError):
    """A tuning target is outside its mathematically valid range."""


class NoMajorOutbreaks(NetepiError):
    """No simulated run was classified major; z cannot be estimated."""


class ConfigError(NetepiError):
    """An experiment configuration file failed validation."""


class AmbiguousBimodality(UserWarning):
    """Too many final sizes fall near the major/minor cutoff for the
    classification to be trustworthy."""


class ReducibleMatrixWarning(UserWarning):
    """The offspring mean matrix is reducible; the Perron root is still
    computed but multitype theory assumes positive regularity."""
