"""Exception hierarchy shared by the whole package.

The CLI maps these onto exit codes: math failures (an equation that does not
hold, a decomposition whose validation fails) exit 1; malformed input, sizing
problems, violated group hypotheses and exceeded budgets exit 2.
"""

from __future__ import annotations


class KbeqError(Exception):
    """Base class for all package errors."""


class GroupMismatchError(KbeqError):
    """Two values that must share a group specification do not."""


class GroupParseError(KbeqError, ValueError):
    """A group, element or grid literal could not be parsed."""


class DomainSizeError(KbeqError):
    """A domain is too small (or otherwise unfit) for the requested operation."""


class GroupHypothesisError(KbeqError):
    """The group does not satisfy the hypothesis an operation requires."""


class IncompatibleTablesError(KbeqError):
    """Two tables that must agree on group, domain or kind do not."""


class BudgetExceededError(KbeqError):
    """An exhaustive search would exceed the configured budget."""


class EquationFailsError(KbeqError):
    """A functional equation that an operation requires does not hold.

    Carries the failing :class:`~kbeq.checks.CheckReport` as ``report``.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class DecompositionError(KbeqError):
    """A decomposition validation step failed.

    ``witness`` is a JSON-serializable dict describing the failing point(s).
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class SynthesisError(KbeqError):
    """A structured form does not satisfy the sufficient condition for synthesis."""
