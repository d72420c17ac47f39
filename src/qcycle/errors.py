"""Typed error families shared across the package.

Each family maps to its own CLI exit status; library code raises these
directly and the command layer translates.
"""

import numbers


class QcycleError(Exception):
    """Base class for all package errors."""


class ConfigError(QcycleError, ValueError):
    """Invalid run configuration; carries the offending field path.

    Also a ValueError: ``ChainSpec`` and ``CycleParams`` raise it with the
    bare field name, and the config parser re-raises it under the section
    path (``E[0]`` becomes ``chain.E[0]``).
    """

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.message = message


def integer(val, field: str, minimum: int) -> int:
    """int(val) for an integer of at least ``minimum``, a ``bool`` being none; else ConfigError."""
    if isinstance(val, bool) or not isinstance(val, numbers.Integral):
        raise ConfigError(field, f"must be an integer, got {val!r}")
    if val < minimum:
        raise ConfigError(field, f"must be >= {minimum}, got {val}")
    return int(val)


def real(val, field: str) -> float:
    """float(val) for a real number, a ``bool`` being none; else ConfigError on ``field``."""
    if isinstance(val, bool) or not isinstance(val, numbers.Real):
        raise ConfigError(field, f"must be a number, got {val!r}")
    return float(val)


class RankDeficientError(QcycleError):
    """A state required to be full rank has eigenvalues below the rank cutoff."""

    def __init__(self, effective_rank: int, dim: int):
        super().__init__(f"rank deficient: effective rank {effective_rank} < dimension {dim}")
        self.effective_rank = effective_rank
        self.dim = dim


class DegenerateFixedPointError(QcycleError):
    """More than one channel eigenvalue sits on the unit circle.

    Carries every near-unit eigenvalue and the S^Z charge sector q of each (all
    0 where the map does not split: its one sector is q = 0). It is raised before
    any fixed point is formed, so it carries none of the many.
    """

    def __init__(self, eigenvalues, charges):
        super().__init__(
            f"{len(eigenvalues)} eigenvalues within tolerance of unit modulus; "
            "the fixed point is not unique"
        )
        self.eigenvalues = eigenvalues
        self.charges = list(charges)


class NotFixedPointError(QcycleError):
    """A fixed-point certificate failed: ``what`` reads ``residual``, above ``tolerance``.

    Raised when replaying the strokes from a claimed fixed point does not close the loop,
    and when the set reversed around a state the channel does not fix is not complete.
    """

    def __init__(self, residual: float, tolerance: float, what: str):
        super().__init__(f"{what} {residual:.3e} exceeds {tolerance:.3e}")
        self.residual = residual
        self.tolerance = tolerance
