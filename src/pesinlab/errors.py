"""Exception types shared across the package."""

__all__ = [
    "PesinLabError",
    "DimensionMismatchError",
    "UnsupportedSystemError",
    "NotInvertibleError",
    "SingularRestrictionError",
    "DegenerateSplittingError",
    "GeometryError",
    "ConvergenceError",
    "UnresolvedTransitionError",
    "PseudoOrbitFormatError",
]


class PesinLabError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(PesinLabError, ValueError):
    """A point, basis, or measure does not match the system dimension."""


class UnsupportedSystemError(PesinLabError, ValueError):
    """The requested operation is not defined for this system."""


class NotInvertibleError(PesinLabError, RuntimeError):
    """Backward iteration requested on a system with no inverse."""


class SingularRestrictionError(PesinLabError, RuntimeError):
    """A restricted product vanished or underflowed, so its norm is undefined."""


class DegenerateSplittingError(PesinLabError, ValueError):
    """The splitting is invalid: a basis is rank deficient, two sub-bundles
    intersect (angle 0), or Df does not keep a bundle invariant."""


class GeometryError(PesinLabError, RuntimeError):
    """A membership sweep did not produce the expected two-interval set."""


class ConvergenceError(PesinLabError, RuntimeError):
    """An iterative solve failed; carries the diagnostic result object."""

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class UnresolvedTransitionError(PesinLabError, RuntimeError):
    """A required ball-to-ball transition was never observed."""


class PseudoOrbitFormatError(PesinLabError, ValueError):
    """A pseudo-orbit file does not follow the documented layout."""
