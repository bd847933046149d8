"""Exception types shared across the package."""


class GsverifyError(Exception):
    """Base class for all package-specific errors."""


class CapExceededError(GsverifyError, ValueError):
    """An enumeration cap (agents or alternatives) would be exceeded."""


class BudgetExceededError(GsverifyError, ValueError):
    """A rule-space run or a profile-space walk would exceed its configured budget."""


class DimensionMismatchError(GsverifyError, ValueError):
    """Two objects disagree on the (agents, alternatives) dimensions."""


class NotTopsOnlyError(GsverifyError, ValueError):
    """An operation defined only for tops-only rules received one that is not."""


class UnknownLemmaError(GsverifyError, ValueError):
    """Verification suite id is not one of the known checks."""


class RuleParseError(GsverifyError, ValueError):
    """Malformed rule string; carries the offending character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position
