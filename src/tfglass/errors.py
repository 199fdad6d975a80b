"""Semantic exceptions shared across the package.

The CLI maps these onto distinct exit codes, so library code should raise
the most specific one that applies instead of bare ValueError.
"""


class ValidationError(ValueError):
    """Malformed model data: broken invariants, bad parameters."""


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class CapacityError(RuntimeError):
    """Requested size exceeds the size gate of the path that would compute it."""
