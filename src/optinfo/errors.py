"""Exception hierarchy shared across the package."""


class OptinfoError(Exception):
    """Base class for all errors raised by optinfo."""


class DimensionMismatch(OptinfoError):
    pass


class SingularSystem(OptinfoError):
    """A symmetric system failed the 1e12 condition gate or its Cholesky
    factorisation; the design is degenerate."""


class FactorizationFailure(OptinfoError):
    """Covariance factorisation failed (matrix not PSD within tolerance)."""


class UnsupportedFunctional(OptinfoError):
    """A linear functional was requested that the kernel cannot support."""


class SingularGram(OptinfoError):
    """Gram matrix is numerically singular (e.g. coincident points)."""


class NonPSDInput(OptinfoError):
    pass


class UnboundedObjective(OptinfoError):
    pass


class OptimizerDiverged(OptinfoError):
    pass


class IntegratorFailure(OptinfoError):
    pass


class SamplerFailure(OptinfoError):
    pass


class MissingLossTable(OptinfoError):
    pass


class ZeroProbabilityObservation(OptinfoError):
    pass


class InvalidSpec(OptinfoError):
    pass


class AllValuesNonFinite(OptinfoError):
    pass


class LengthMismatch(OptinfoError):
    pass
