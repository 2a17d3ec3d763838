"""Exception types shared across the lab.

Every operation that cannot be decided at the given finite truncation
fails loudly instead of guessing; the distinct error classes let callers
(and the CLI exit-code contract) tell precondition violations apart from
honest "window too small" outcomes.
"""


class PartlabError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(PartlabError, ValueError):
    """Arguments violate an operation's precondition."""


class InsufficientTruncationError(PartlabError):
    """The question cannot be decided inside the given finite window."""


class NotACutError(PartlabError):
    """A domain size does not occur as a block-minimum cut of the prefix."""


class BudgetError(PartlabError):
    """An exhaustive enumeration was requested above the configured cap."""


class ThresholdError(PartlabError):
    """No witness exists at the given scale; the caller should enlarge it."""


class CheckError(PartlabError, RuntimeError):
    """A re-check disagrees with the search it checks: a fault in the lab, not a counterexample."""
