"""Exception types shared across the package.

Input problems raise ValueError subclasses; failures to reach a requested
numerical accuracy raise RuntimeError subclasses that carry the best
estimate obtained so far (if any).
"""
from __future__ import annotations

__all__ = [
    "InvalidDimensionError",
    "DimensionOrderError",
    "InvalidSpecError",
    "DomainError",
    "UndefinedAtVertexError",
    "NormalizationError",
    "UnknownFamilyError",
    "SumRuleError",
    "InfeasibleError",
    "UnboundedError",
    "AccuracyError",
    "PathResolutionError",
]


class InvalidDimensionError(ValueError):
    """A box side length is zero, negative, or not finite."""


class DimensionOrderError(ValueError):
    """Box side lengths were not given in weakly decreasing order."""


class InvalidSpecError(ValueError):
    """A rational-map description violates a validity constraint."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class UndefinedAtVertexError(DomainError):
    """The director has no value at the box vertex (field is singular there)."""


class NormalizationError(ValueError):
    """A vector that must be unit length is not."""


class UnknownFamilyError(LookupError):
    """No built-in configuration family has the requested name."""


class SumRuleError(ValueError):
    """Vertex solid angles do not sum to zero within tolerance."""


class InfeasibleError(ValueError):
    """The linear program has no feasible point."""


class UnboundedError(RuntimeError):
    """The linear program objective is unbounded above."""


class AccuracyError(RuntimeError):
    """Adaptive quadrature could not certify the requested tolerance.

    Raised when the evaluation budget runs out before the tolerance is met,
    when the root cells alone would exceed the budget (refused before any
    cell is built), or when the tolerance lies below the round-off floor
    (about ``50 * eps * sum(|cell values|)``) that the error estimate has
    reached.

    Attributes
    ----------
    value : float
        Best integral estimate at the point of failure; nan when the
        quadrature refused before evaluating anything.
    error_estimate : float
        Error estimate attached to ``value`` (inf with a nan ``value``).
    evaluations : int
        Number of integrand evaluations consumed.
    """

    def __init__(self, message, value, error_estimate, evaluations):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate
        self.evaluations = evaluations


class PathResolutionError(RuntimeError):
    """Phase tracking could not resolve a winding path within budget."""
