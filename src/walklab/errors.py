"""Exception types shared across the package.

The CLI maps these onto process exit codes: bad input or configuration
exits 1, runtime failures (capacity, overflow, training) exit 2, and a
violated structural invariant exits 3.
"""

from __future__ import annotations


class InputError(ValueError):
    """Malformed caller input: bad node ids, bad file contents, bad shapes."""


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the offending key."""


class CapacityError(RuntimeError):
    """Input exceeds a documented size guard of a costly routine."""


class CountOverflowError(ArithmeticError):
    """An exact integer count would not fit the documented 64-bit bound."""


class NumericError(ArithmeticError):
    """A floating-point computation produced non-finite values."""


class TrainingError(RuntimeError):
    """Training diverged; the message records the epoch index."""


class InvariantViolation(RuntimeError):
    """A structural invariant that should hold by construction was violated."""
