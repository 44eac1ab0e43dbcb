"""Exception types shared across the library."""


class OhmcovError(Exception):
    """Base class for every error raised by this package."""


class SpeedLimit(OhmcovError):
    """Relative velocity at or above the speed of light."""


class NotOrthogonal(OhmcovError):
    """A matrix that should be orthogonal is not, beyond tolerance."""


class DegenerateDecomposition(OhmcovError):
    """Lorentz factorization is too ill conditioned to carry out."""


class DomainError(OhmcovError):
    """The point lies outside the domain where the requested law holds."""


class StaticFrequency(DomainError):
    """Operation needs a nonzero frequency; 1/omega would blow up."""


class BoostResonance(DomainError):
    """The boosted frequency vanishes and the transformation law degenerates."""


class FrameMismatch(OhmcovError):
    """Operands were sampled at different (k, omega) points."""


class OutOfRange(DomainError):
    """Requested point lies outside a tabulated model's sampled range."""


class ParseError(OhmcovError):
    """Malformed model or configuration document."""


class InvariantViolation(OhmcovError):
    """A value under construction violates one of its type invariants."""
