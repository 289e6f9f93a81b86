"""Exception types shared across the package.

Each type carries the exit code the CLI ends with when a command raises
it, so library code should raise the most specific type that applies.
"""


class PolykitError(Exception):
    """Base class for all package errors."""

    exit_code = 4


class DataError(PolykitError):
    """Unusable input data: unreadable file, empty table, bad schema."""

    exit_code = 3


class MemoryBudgetError(PolykitError):
    """A requested expansion exceeds the configured size budget."""

    exit_code = 5


class TrainingDiverged(PolykitError):
    """Network training produced a non-finite loss."""

    exit_code = 4


class ModelFormatError(PolykitError):
    """A serialized model or weight container could not be parsed."""

    exit_code = 6
