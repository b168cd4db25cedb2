"""Exception types shared across the library."""

__all__ = ["DeltaShellError", "InvalidInput", "NonConvergence", "NoSuchPole", "DegeneratePole"]


class DeltaShellError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(DeltaShellError, ValueError):
    """An argument violates a documented precondition."""


class NonConvergence(DeltaShellError, ArithmeticError):
    """An iterative solver failed to reach its tolerance within its cap."""


class NoSuchPole(DeltaShellError, ValueError):
    """The requested pole does not exist for this potential strength."""


class DegeneratePole(DeltaShellError, ArithmeticError):
    """The Jost-function derivative vanishes at the pole (double pole)."""
