"""Exception hierarchy shared by all dcqdlab modules."""


class DcqdLabError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(DcqdLabError, ValueError):
    """Operands have incompatible dimensions."""


class InvalidStateError(DcqdLabError, ValueError):
    """A state vector or density operator violates its invariants."""


class InvalidChannelError(DcqdLabError, ValueError):
    """A channel description violates its invariants (bad parameters,
    non-square Kraus operators, trace increase beyond tolerance, ...)."""


class NotCompletelyPositiveError(InvalidChannelError):
    """A process matrix has a negative eigenvalue beyond tolerance and
    therefore admits no Kraus decomposition."""


class InvalidConfigurationError(DcqdLabError, ValueError):
    """An experimental configuration violates its amplitude constraints."""


class IllPosedConfigurationError(DcqdLabError, ValueError):
    """A configuration is formally valid but yields a rank-deficient
    reconstruction system.  The message names the rank defect; a vanishing
    coherence factor is an `InvalidConfigurationError`."""


class InvalidDistributionError(DcqdLabError, ValueError):
    """An outcome distribution has negative entries or excess total mass."""


class SaturationError(DcqdLabError, ValueError):
    """Relaxation data consistent only with complete damping; the time
    constant cannot be resolved from the given duration."""


class InconsistentDataError(DcqdLabError, ValueError):
    """Measured relaxation data lies outside the physically reachable range
    of the forward model."""


class IllPosedInputError(DcqdLabError, ValueError):
    """An input state gives a vanishing reference expectation value, so the
    requested estimate is undefined."""
