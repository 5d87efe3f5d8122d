"""Exception types shared across the package."""


class DrinfeldError(Exception):
    """Base class for domain errors."""


class InvariantViolation(DrinfeldError):
    """An internal cross-check failed: a computed object does not satisfy
    the identity that defines it.  Raised instead of ``assert`` so the
    check also runs under ``python -O``."""


class KernelNotStable(DrinfeldError):
    """The kernel of a candidate isogeny is not a module under phi."""


class BadReduction(DrinfeldError):
    """The one reduction error: an element of F does not reduce into the
    residue field A/l, because l divides its denominator."""


class IrreducibilityUncertain(DrinfeldError):
    """None of the implemented irreducibility certificates applies."""
