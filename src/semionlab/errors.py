"""Exception types shared across the package, and the dense-capacity budget."""

# Most elements one dense array may hold (2**24 amplitudes, or a 12-qubit
# matrix); every size check in the package compares against this number.
DENSE_ELEMENTS = 1 << 24


class SemionLabError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(SemionLabError):
    """Operands act on different site counts or register sizes."""


class RepresentationError(SemionLabError):
    """Operators from different representations were mixed."""


class CapacityError(SemionLabError):
    """A dense construction was requested above ``DENSE_ELEMENTS``."""


def _require_capacity(count: int, what: str) -> int:
    """Return ``count``, the size of an array not yet built, if it fits."""
    if count > DENSE_ELEMENTS:
        raise CapacityError(
            f"{what} needs {count} elements, over the dense budget of "
            f"{DENSE_ELEMENTS}")
    return count


class ConvergenceError(SemionLabError):
    """An iterative eigensolve did not converge to tolerance."""


class ZeroProjectionError(SemionLabError):
    """A stabilizer projection annihilated the state completely."""


class DegenerateNetworkError(SemionLabError):
    """Circuit capacitance network has a non-positive determinant."""


class ConfigError(SemionLabError):
    """A run configuration failed validation."""
