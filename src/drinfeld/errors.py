"""Exception types shared across the package."""


class DrinfeldError(Exception):
    """Base class for domain errors."""


class InvariantViolation(DrinfeldError):
    """An internal cross-check failed: a computed object does not satisfy
    the identity that defines it.  Raised instead of ``assert`` so the
    check also runs under ``python -O``."""


class KernelNotStable(DrinfeldError):
    """The kernel of a candidate isogeny is not a module under phi."""


class StableReductionRequired(DrinfeldError):
    """A finite local height is non-integral, so the module does not have
    everywhere stable reduction; twist first."""


class IrreducibilityUncertain(DrinfeldError):
    """None of the implemented irreducibility certificates applies."""
