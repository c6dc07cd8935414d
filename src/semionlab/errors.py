"""Exception types shared across the package, and the dense-capacity budget."""

# Most elements one array may hold (2**24 amplitudes or coset entries,
# or a 12-qubit matrix); every size check in the package compares against
# this number.
DENSE_ELEMENTS = 1 << 24

# Most square sites a lattice may have (64x64).  A layout is built in
# Python, bond by bond, so a larger one would run for seconds before any
# array budget is checked; the largest lattice any solver takes is far
# smaller.
MAX_SQUARE_SITES = 4096

# Most cavity levels a register may have, and most random trials one CLI
# ``spectrum`` run may draw.  Each level and each trial is a step of a
# Python loop, so millions of them would run for minutes while their
# arrays still fit the budget.
MAX_CAVITY_LEVELS = 64
MAX_RANDOM_TRIALS = 4096


class SemionLabError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(SemionLabError):
    """Operands act on different site counts or register sizes."""


class RepresentationError(SemionLabError):
    """Operators from different representations were mixed."""


class CapacityError(SemionLabError):
    """A construction was requested above ``DENSE_ELEMENTS``, a lattice
    above ``MAX_SQUARE_SITES``, a register above ``MAX_CAVITY_LEVELS``, a
    run above ``MAX_RANDOM_TRIALS``, or a register whose basis indices do
    not fit 64 bits."""


def _require_capacity(count: int, what: str) -> int:
    """Return ``count``, the size of an array not yet built, if it fits."""
    if count > DENSE_ELEMENTS:
        raise CapacityError(
            f"{what} needs {count} elements, over the dense budget of "
            f"{DENSE_ELEMENTS}")
    return count


class ZeroProjectionError(SemionLabError):
    """A stabilizer projection annihilated the state completely."""


class DegenerateNetworkError(SemionLabError):
    """Capacitance network determinant is not positive."""


class ConfigError(SemionLabError):
    """A run configuration failed validation."""
