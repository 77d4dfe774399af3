"""Exception types shared across the package, and how their messages
quote the text of an input."""

# Characters of a field that a message quotes before it cuts the rest.
_QUOTE_CHARS = 32


def quoted(text: str) -> str:
    """``repr(text)``, or for a field longer than 32 characters the repr of
    its first 32 and its length, so that a message stays one short line."""
    if len(text) <= _QUOTE_CHARS:
        return repr(text)
    return f"{text[:_QUOTE_CHARS]!r}... ({len(text)} characters)"


class FairmeasureError(ValueError):
    """Base class for every error raised by this package."""


class ParameterError(FairmeasureError):
    """An argument is outside its documented range or shape."""


class SizeBudgetError(FairmeasureError):
    """A requested lattice or search grid exceeds the configured budget."""


class DomainError(FairmeasureError):
    """An input leaves the mathematical domain of an operation."""


class EquivalenceViolationError(FairmeasureError):
    """A density vanishes on a block of positive base weight."""


class NoMartingaleMeasureError(FairmeasureError):
    """No branch weighting makes the process a one-step martingale."""


class IngestionError(FairmeasureError):
    """Malformed or inconsistent market-data input."""


class UnsupportedConstraintError(FairmeasureError):
    """Constraint undefined for this process shape."""


class InfeasibleError(FairmeasureError):
    """No point satisfies the requested constraint set."""


class ConfigError(FairmeasureError):
    """Invalid run configuration."""
