"""Exception hierarchy shared across the package."""


class OptinfoError(Exception):
    """Base class for all errors raised by optinfo."""


class DimensionMismatch(OptinfoError):
    pass


class SingularSystem(OptinfoError):
    """A symmetric system, such as a GP Gram matrix, failed the 1e12
    condition gate of ``gaussian._spd_factor`` or its Cholesky
    factorisation; the design is numerically degenerate."""


class FactorizationFailure(OptinfoError):
    """Covariance factorisation failed (matrix not PSD within tolerance)."""


class UnsupportedFunctional(OptinfoError):
    """A linear functional was requested that the kernel cannot represent;
    the kernel's ``cross_cov`` raises it."""


class SingularGram(OptinfoError):
    """Observation geometry makes the Gram matrix singular: two observations
    of one kind closer than ``kernels.MIN_SEPARATION``, the one check, in
    ``kernels._check_geometry``, which ``ConditionedPredictor`` runs on
    its points and codes."""


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


class InvalidSpec(OptinfoError):
    pass


class AllValuesNonFinite(OptinfoError):
    pass


class LengthMismatch(OptinfoError):
    pass
