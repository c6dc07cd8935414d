"""Exception types shared across the package, the dense-capacity budget,
and the one rule by which two computed values agree.

Every module imports this one, and it imports nothing, so the capacity
policy (:func:`_require_capacity`) and the agreement rule (:func:`_agree`)
each live in one place.
"""

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


# the relative half-width of every verdict window
REL = 1e-12


def _agree(value, reference: float, scale: float):
    """``|value - reference| <= REL * scale``, elementwise on an array:
    the one rule of every verdict that compares two computed values.

    ``scale`` is ``S``, a bound on the values compared, so a verdict
    does not depend on their units: the sum of the absolute term
    coefficients for an energy (it bounds ``|E|`` of every level), 1 for
    a phase or a plaquette value, ``<psi|psi>`` for an expectation, and
    the largest phase the dispersive gate applies for the QND deviation.
    Over signed couplings scaled by ``10**k``, ``|k| <= 12``, from 1x2
    to 3x4, the levels' deviation from the oracle energies, the ground
    state's energy error and its standard deviation stayed below
    2e-15 S.  Over seeded draws, the braid phase on the state against the
    operator phase (1x4 to 4x4) and the plaquette values of the moved
    ground state (1x4 to 2x5) stayed within 2.2e-16, the cavity readout
    against the direct expectation (up to 14 qubits, 8 levels) within
    3.3e-16, and the QND deviation at the canonical time (up to 56
    sites, 64 levels, ``|chi|`` in [1e-6, 1e6]) within 2.7e-16 S.  So
    ``REL`` is at least 3,000 times every measured ratio.  Distinct
    values closer than the window count as one: exact ties wait on
    integer level keys.  An array is compared with the two bounds, so no
    float temporary of its size is made; a NaN agrees with nothing.
    """
    window = REL * scale
    return (value >= reference - window) & (value <= reference + window)


class ZeroProjectionError(SemionLabError):
    """A stabilizer projection annihilated the state completely."""


class DegenerateNetworkError(SemionLabError):
    """Capacitance network determinant is not positive."""


class ConfigError(SemionLabError):
    """A run configuration failed validation."""
