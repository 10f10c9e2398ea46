"""Exception types shared across the package, and the probability check
that raises the commonest one.

Collected here so the CLI can map them onto exit codes in one place.
"""


class SatnavError(Exception):
    """Base class for all package errors."""


class ValidationError(SatnavError):
    """Invalid input: bad network description, policy, or parameter."""


class CapExceeded(SatnavError):
    """Exact enumeration would exceed the direction-space cap.

    Callers should fall back to simulation.
    """


class SingularSystem(SatnavError):
    """The hitting-time linear system was singular despite the reachability
    analysis predicting a unique solution. Indicates an internal bug."""


class NotATree(SatnavError):
    """A tree-only operation was applied to a network with a cycle or
    parallel arcs."""


class NonConvergence(SatnavError):
    """Coordinate descent failed to converge within the sweep limit."""


class DegeneratePolicy(SatnavError):
    """A game payoff is undefined: with positive probability the play never
    ends, so no winning probability exists."""


class OutOfRange(SatnavError):
    """A parameter is outside the range where the requested solution is
    defined."""


def check_probability(name: str, value: float) -> float:
    """`value` as a float; ValidationError unless it lies in [0, 1]."""
    if not 0.0 <= value <= 1.0:
        raise ValidationError(f"{name}={value} outside [0, 1]")
    return float(value)
