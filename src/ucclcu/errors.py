"""Shared exception types."""


class DimensionError(ValueError):
    """Operands or states with incompatible qubit counts / dimensions."""


class ResourceLimitError(RuntimeError):
    """A request past a size cap: a dense array past `pauli.check_dense`'s
    cap, a SELECT code table past rank 8, or a verify past 11 kept wires."""


class AngleDomainError(ValueError):
    """An arcsin argument left [-1, 1] beyond numerical tolerance."""


class PlanningError(RuntimeError):
    """No valid weight-<=2 Z-mask decomposition found for a target string."""

    def __init__(self, message: str, offending_string: str | None = None):
        super().__init__(message)
        self.offending_string = offending_string
